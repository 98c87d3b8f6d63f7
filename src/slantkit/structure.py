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
sufficient coverage and fully reproducible. The fields are evaluated over
the stack of points, and the residuals of every point and axiom come from
one stacked pass.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import expr as fe
from .config import DEFAULT_TOLERANCES
from .errors import DimensionError, EvalError, KindError, MetricError, SpecError
from .linalg import SYMMETRY_RTOL, column_norms, g_inner
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
        self._fields = None, None      # (key, fields) of the last `fields_at` stack
        # column c of phi holds the image of e_{c+1}; entries are walked
        # column by column, metric entries row by row
        self.phi_fill = fe.LiteralFill((n, n), (
            ((r, c), (c, r), e) for c, col in enumerate(phi_columns) for r, e in enumerate(col)),
            "phi_columns")
        self.metric_fill = fe.LiteralFill((n, n), (
            ((i, i), (i, i), fe.Num(1.0)) for i in range(n)) if metric is None else (
            ((i, j), (i, j), e) for i, row in enumerate(metric) for j, e in enumerate(row)),
            "metric")
        # True when the metric is absent or the literal identity matrix.
        self.metric_is_euclidean = metric is None or all(
            isinstance(entry, fe.Num) and entry.value == (1.0 if i == j else 0.0)
            for i, row in enumerate(metric) for j, entry in enumerate(row))

    @property
    def is_contact(self) -> bool:
        return self.kind == KIND_CONTACT

    def phi_at(self, point) -> np.ndarray:
        """Matrix of phi at a point (n, n), or at each point of a stack
        (..., n, n); column c is the image of e_{c+1}."""
        return self.phi_fill.at(point)

    def metric_at(self, point) -> np.ndarray:
        """The metric at a point (n, n), or at each point of a stack (..., n,
        n). Its checks (finite, symmetric, positive definite) run in that
        order, each over all points, and raise for their first failing point;
        the euclidean metric, a literal identity, needs none."""
        x = np.asarray(point, dtype=float)
        if self.metric_is_euclidean:
            return self.metric_fill.values(x)
        mat = self.metric_fill.at(x)
        xs, flat = x.reshape(-1, x.shape[-1]), (-1, self.n * self.n, 1)
        asym = column_norms((mat - np.swapaxes(mat, -1, -2)).reshape(flat))
        for p in np.flatnonzero(asym > SYMMETRY_RTOL * np.maximum(
                column_norms(mat.reshape(flat)), 1e-300))[:1]:
            raise MetricError(f"metric is not symmetric at {xs[p].tolist()} "
                              f"(residual {asym[p]:.3e})", "metric-symmetric")
        mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        try:
            np.linalg.cholesky(mat)      # positive-definiteness check only
        except np.linalg.LinAlgError:
            for xp in xs[:-1]:          # the first point that fails raises, alone
                self.metric_at(xp)
            raise MetricError(f"metric is not positive definite at {xs[-1].tolist()}",
                              "metric-positive") from None
        return mat

    def xi_at(self, point) -> np.ndarray:
        if not self.is_contact:
            raise KindError("xi is only defined for contact-like structures")
        return self.xi.at(point)

    def fields_at(self, x: np.ndarray) -> tuple:
        """(metric, phi, xi or None) at each point of a stack x (P, n),
        read-only. The last stack's are kept: a command validates the
        structure and builds its frames at the same points."""
        if self._fields[0] != (key := (x.shape, x.tobytes())):
            fields = self.metric_at(x), self.phi_at(x), self.xi_at(x) if self.is_contact else None
            for a in fields[:2 + self.is_contact]:
                a.setflags(write=False)
            self._fields = key, fields
        return self._fields[1]

    def eta(self, point, v) -> float:
        """eta(v) = g(v, xi) at the point."""
        if not self.is_contact:
            raise KindError("eta is only defined for contact-like structures")
        comps = np.asarray(v, dtype=float)
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


def _axiom_residuals(s: StructureField, g: np.ndarray, phi: np.ndarray,
                     xi: np.ndarray | None, pairs: np.ndarray) -> dict:
    """Worst relative residual per axiom at each of P points over its batch of
    vector pairs: metric and phi (P, n, n), xi (P, n) (None for the
    hermitian kind), pairs (P, n, t, 2); one (P,) array per axiom."""
    inner = partial(g_inner, None if s.metric_is_euclidean else g, stacked=True)
    X, Y = pairs[..., 0], pairs[..., 1]
    phiX, phiY = phi @ X, phi @ Y
    nX, nY = np.sqrt(inner(X, X)), np.sqrt(inner(Y, Y))
    scale = np.maximum(nX * nY, 1e-300)

    compat = inner(phiX, Y) - s.epsilon * inner(X, phiY)
    out = {"compatibility": np.max(np.abs(compat) / scale, axis=-1)}
    if s.is_contact:
        xic = xi[:, :, None]
        etaX, etaY = inner(X, xic), inner(Y, xic)
        target = s.epsilon * (X - xic * etaX[:, None, :])
        law = inner(phiX, phiY) - (inner(X, Y) - etaX * etaY)
        out["metric-law"] = np.max(np.abs(law) / scale, axis=-1)
        out["xi-unit"] = np.abs(g_inner(g, xic, xic, stacked=True)[:, 0] - 1.0)
        phixi = phi @ xic
        out["phi-xi"] = np.sqrt(np.maximum(g_inner(g, phixi, phixi, stacked=True)[:, 0], 0.0))
        out["eta-phi"] = np.max(np.abs(inner(phiX, xic)) / np.maximum(nX, 1e-300), axis=-1)
    else:
        target = s.epsilon * X
        law = inner(phiX, phiY) - inner(X, Y)
        out["metric-law"] = np.max(np.abs(law) / scale, axis=-1)
    diff = phi @ phiX - target
    out["squared-endomorphism"] = np.max(
        np.sqrt(inner(diff, diff)) / np.maximum(nX, 1e-300), axis=-1)
    return out


def validate_structure(s: StructureField, points, trials: int = 25,
                       tol: float = DEFAULT_TOLERANCES.structure,
                       seed: int = DEFAULT_SEED) -> StructureVerdict:
    """Check every structure axiom on seeded random vector pairs at each
    point. The fields are evaluated over the stack of points, or where that
    faults, point by point as stacks of one; then the residuals of the
    points that evaluated in one stacked pass (point idx draws its pairs
    from `rng_for(seed, 101, idx)`). A point whose evaluation fails makes the
    verdict fail rather than raise, with axiom `metric-symmetric` or
    `metric-positive` for a metric that is not symmetric or not positive
    definite there, `evaluation` otherwise; the first such point is the
    witness. Else the witness is the first nan of the (points, axioms) table
    in point-major order, or its first maximum, and none if that is 0."""
    xs = np.array(list(points), dtype=float)
    if not len(xs):
        raise SpecError("validate_structure needs at least one point")
    if trials < 1:
        raise SpecError("trials must be >= 1")

    failures = []
    try:
        fields, good = [s.fields_at(xs)], range(len(xs))
    except EvalError:
        fields, good = [], []
        for idx, x in enumerate(xs):
            try:
                fields.append(s.fields_at(x[None]))
                good.append(idx)
            except EvalError as exc:
                axiom = exc.axiom if isinstance(exc, MetricError) else "evaluation"
                failures.append({"axiom": axiom, "point": x.tolist(), "error": str(exc)})

    worst, witness = {}, {"axiom": None, "point": None, "residual": 0.0}
    if good:
        stacks = (None if col[0] is None else np.concatenate(col) for col in zip(*fields))
        pairs = np.stack([rng_for(seed, 101, idx).standard_normal((s.n, trials, 2))
                          for idx in good])
        residuals = _axiom_residuals(s, *stacks, pairs)         # metric, phi, xi, pairs
        table = np.stack(list(residuals.values()), axis=1)      # (points, axioms)
        worst = dict(zip(residuals, table.max(axis=0).tolist()))
        p, a = np.unravel_index(np.argmax(table), table.shape)
        if table[p, a] != 0.0:      # nan or a positive maximum
            witness = {"axiom": list(residuals)[a], "point": xs[good[p]].tolist(),
                       "residual": float(table[p, a])}
    passed = not failures and bool(worst) and all(v <= tol for v in worst.values())
    if failures:
        witness = dict(failures[0], residual=float("inf"))
        for failure in failures:
            worst[failure["axiom"]] = float("inf")
    return StructureVerdict(passed, worst, witness, tol, seed)
