"""Ambient structures: a metric g, a (1,1)-tensor field phi compatible with it
up to the sign epsilon, and (for the contact-like kind) a unit field xi with
dual one-form eta.

Two kinds are modeled in one type:

* ``hermitian-like``: phi^2 = eps * I and g(phi X, phi Y) = g(X, Y);
* ``contact-like``:  phi^2 = eps * (I - eta (x) xi), g(xi, xi) = 1,
  phi xi = 0, eta(phi X) = 0, g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y).

Both satisfy g(phi X, Y) = eps * g(X, phi Y). Axioms are validated
statistically on seeded random vectors at user-supplied points: bilinear
identities hold for all vectors iff they hold on a spanning set, so this is
sufficient coverage and fully reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as fe
from .config import DEFAULT_TOLERANCES
from .errors import DimensionError, EvalError, KindError, MetricError, SpecError
from .linalg import SYMMETRY_RTOL, g_inner
from .sampling import DEFAULT_SEED, rng_for

KIND_HERMITIAN = "hermitian-like"
KIND_CONTACT = "contact-like"
KINDS = (KIND_HERMITIAN, KIND_CONTACT)


class StructureField:
    """The ambient structure, evaluable at points.

    `phi_columns[i]` holds the n component expressions of the image of the
    i-th coordinate frame vector, matching how such structures are usually
    written down column by column.
    """

    def __init__(self, n: int, epsilon: int, kind: str, phi_columns,
                 metric=None, xi: fe.VectorFieldExpr | None = None):
        if epsilon not in (-1, 1):
            raise SpecError("epsilon must be -1 or +1")
        if kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}")
        if n < 1:
            raise DimensionError("ambient dimension must be >= 1")
        phi_columns = [tuple(col) for col in phi_columns]
        if len(phi_columns) != n or any(len(col) != n for col in phi_columns):
            raise DimensionError("phi needs n columns of n expressions")
        if kind == KIND_CONTACT:
            if xi is None:
                raise SpecError("contact-like structures need xi")
            if xi.n != n:
                raise DimensionError("xi dimension differs from ambient dimension")
        elif xi is not None:
            raise KindError("hermitian-like structures carry no xi")
        if metric is not None:
            metric = [tuple(row) for row in metric]
            if len(metric) != n or any(len(row) != n for row in metric):
                raise DimensionError("metric needs n rows of n expressions")
        self.n = n
        self.epsilon = int(epsilon)
        self.kind = kind
        self.phi_columns = tuple(phi_columns)
        self.metric_exprs = tuple(metric) if metric is not None else None
        self.xi = xi
        # column c of phi holds the image of e_{c+1}; entries are walked
        # column by column, metric entries row by row
        self._phi_fill = fe.LiteralFill((n, n), (
            ((r, c), e) for c, col in enumerate(phi_columns) for r, e in enumerate(col)))
        self._metric_fill = None if metric is None else fe.LiteralFill((n, n), (
            ((i, j), e) for i, row in enumerate(metric) for j, e in enumerate(row)))
        # True when the metric is absent or the literal identity matrix.
        self.metric_is_euclidean = metric is None or all(
            isinstance(entry, fe.Num) and entry.value == (1.0 if i == j else 0.0)
            for i, row in enumerate(metric) for j, entry in enumerate(row))

    @property
    def is_contact(self) -> bool:
        return self.kind == KIND_CONTACT

    def phi_at(self, point) -> np.ndarray:
        """Matrix of phi at the point; column c is the image of e_{c+1}."""
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        mat = self._phi_fill.at(x)
        fe.require_finite(mat.T, self.phi_columns, x, "phi_columns")
        return mat

    def metric_at(self, point) -> np.ndarray:
        if self.metric_exprs is None:
            return np.eye(self.n)
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        mat = self._metric_fill.at(x)
        fe.require_finite(mat, self.metric_exprs, x, "metric")
        if not self.metric_is_euclidean:
            asym = float(np.linalg.norm(mat - mat.T))
            if asym > SYMMETRY_RTOL * max(float(np.linalg.norm(mat)), 1e-300):
                raise MetricError(
                    f"metric is not symmetric at {x.tolist()} (residual {asym:.3e})",
                    "metric-symmetric")
            mat = 0.5 * (mat + mat.T)
            try:
                np.linalg.cholesky(mat)      # positive-definiteness check only
            except np.linalg.LinAlgError:
                raise MetricError(f"metric is not positive definite at {x.tolist()}",
                                  "metric-positive") from None
        return mat

    def xi_at(self, point) -> np.ndarray:
        if not self.is_contact:
            raise KindError("xi is only defined for contact-like structures")
        return self.xi.at(point)

    def eta(self, point, v) -> float:
        """eta(v) = g(v, xi) at the point."""
        if not self.is_contact:
            raise KindError("eta is only defined for contact-like structures")
        comps = np.asarray(getattr(v, "comps", v), dtype=float)
        return float(comps @ self.metric_at(point) @ self.xi_at(point))


class StructureVerdict:
    """Outcome of validate_structure: per-axiom worst residuals plus the
    witness of the overall worst one."""

    def __init__(self, passed: bool, residuals: dict, witness: dict, tol: float, seed: int):
        self.passed = passed
        self.residuals = residuals
        self.witness = witness
        self.tol = tol
        self.seed = seed

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tol,
            "seed": self.seed,
            "residuals": {k: self.residuals[k] for k in sorted(self.residuals)},
            "witness": self.witness,
        }


def _axiom_residuals(s: StructureField, x: np.ndarray, pairs: np.ndarray) -> dict:
    """Worst relative residual per axiom at one point over a batch of vector
    pairs (n x t x 2)."""
    g = s.metric_at(x)
    gk = None if s.metric_is_euclidean else g
    phi = s.phi_at(x)
    X = pairs[:, :, 0]
    Y = pairs[:, :, 1]
    phiX = phi @ X
    phiY = phi @ Y
    nX = np.sqrt(g_inner(gk, X, X))
    nY = np.sqrt(g_inner(gk, Y, Y))
    scale = np.maximum(nX * nY, 1e-300)

    out = {}
    compat = g_inner(gk, phiX, Y) - s.epsilon * g_inner(gk, X, phiY)
    out["compatibility"] = float(np.max(np.abs(compat) / scale))

    phi2X = phi @ phiX
    if s.is_contact:
        xi = s.xi_at(x)
        etaX = g_inner(gk, X, xi[:, None])
        etaY = g_inner(gk, Y, xi[:, None])
        target = s.epsilon * (X - xi[:, None] * etaX[None, :])
        law = g_inner(gk, phiX, phiY) - (g_inner(gk, X, Y) - etaX * etaY)
        out["metric-law"] = float(np.max(np.abs(law) / scale))
        out["xi-unit"] = abs(float(xi @ g @ xi) - 1.0)
        phixi = phi @ xi
        out["phi-xi"] = float(np.sqrt(max(phixi @ g @ phixi, 0.0)))
        out["eta-phi"] = float(np.max(np.abs(g_inner(gk, phiX, xi[:, None]))
                                      / np.maximum(nX, 1e-300)))
    else:
        target = s.epsilon * X
        law = g_inner(gk, phiX, phiY) - g_inner(gk, X, Y)
        out["metric-law"] = float(np.max(np.abs(law) / scale))
    diff = phi2X - target
    out["squared-endomorphism"] = float(
        np.max(np.sqrt(g_inner(gk, diff, diff)) / np.maximum(nX, 1e-300)))
    return out


def _exceeds(value: float, current: float) -> bool:
    """value > current, where nan exceeds every number (the first nan wins)."""
    return value > current or (math.isnan(value) and not math.isnan(current))


def validate_structure(s: StructureField, points, trials: int = 25,
                       tol: float = DEFAULT_TOLERANCES.structure,
                       seed: int = DEFAULT_SEED) -> StructureVerdict:
    """Check every structure axiom on seeded random vector pairs at each
    point; an evaluation failure at a point becomes a failed verdict with the
    point as witness rather than an exception: axiom `metric-symmetric` or
    `metric-positive` for a metric that is not symmetric or not positive
    definite there, `evaluation` otherwise."""
    points = list(points)
    if not points:
        raise SpecError("validate_structure needs at least one point")
    if trials < 1:
        raise SpecError("trials must be >= 1")

    worst: dict[str, float] = {}
    witness = {"axiom": None, "point": None, "residual": 0.0}
    failures = []
    for idx, point in enumerate(points):
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        pairs = rng_for(seed, 101, idx).standard_normal((s.n, trials, 2))
        try:
            residuals = _axiom_residuals(s, x, pairs)
        except EvalError as exc:
            axiom = exc.axiom if isinstance(exc, MetricError) else "evaluation"
            failures.append({"axiom": axiom, "point": x.tolist(), "error": str(exc)})
            continue
        for name, value in residuals.items():
            if name not in worst or _exceeds(value, worst[name]):
                worst[name] = value
            if _exceeds(value, witness["residual"]):
                witness = {"axiom": name, "point": x.tolist(), "residual": value}
    passed = not failures and bool(worst) and all(v <= tol for v in worst.values())
    if failures:
        witness = dict(failures[0], residual=float("inf"))
        for failure in failures:
            worst[failure["axiom"]] = float("inf")
    return StructureVerdict(passed, worst, witness, tol, seed)
