"""Ambient structures: a metric g, a (1,1)-tensor field phi compatible with it
up to the sign epsilon, and (for the contact-like kind) a unit field xi with
dual one-form eta.

Two kinds are modeled in one type:

* ``hermitian-like``: phi^2 = eps * I and g(phi X, phi Y) = g(X, Y);
* ``contact-like``:  phi^2 = eps * (I - eta (x) xi), g(xi, xi) = 1,
  phi xi = 0, eta(phi X) = 0, g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y).

Both satisfy g(phi X, Y) = eps * g(X, phi Y). Each axiom is checked
exactly at user-supplied points: in a g-orthonormal frame each one is a
matrix (or vector) identity, and its largest relative residual over all
vectors is that matrix's largest singular value (`_axiom_residuals`). The
fields are evaluated over the stack of points, and the residuals of every
point and axiom come from one stacked pass; nothing is drawn at random.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import expr as fe
from .config import DEFAULT_TOLERANCES
from .errors import DimensionError, EvalError, KindError, MetricError, SpecError
from .linalg import SYMMETRY_RTOL, column_norms, spectral_norms
from .sampling import DEFAULT_SEED

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
        entries = chain(*metric) if metric is not None else [fe.Num(0.0)] * (n * n)
        if metric is None:
            entries[::n + 1] = [fe.Num(1.0)] * n
        # column c of phi holds the image of e_{c+1}; entries are walked
        # column by column, metric entries row by row
        self.phi_fill = fe.LiteralFill(chain(*phi_columns), (n, n), "phi_columns", transpose=True)
        self.metric_fill = fe.LiteralFill(entries, (n, n), "metric")
        # True when the metric is absent or the literal identity matrix.
        self.metric_is_euclidean = not self.metric_fill.live and np.array_equal(
            self.metric_fill.literals, np.eye(n))

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


ROUND_OFF = 64 * np.finfo(float).eps     # per ambient dimension: no witness at or below


def _axiom_residuals(s: StructureField, g: np.ndarray, phi: np.ndarray,
                     xi: np.ndarray | None) -> dict:
    """The largest relative residual of each axiom over all vectors at each
    of P points: metric and phi (P, n, n), xi (P, n) (None for the hermitian
    kind); one (P,) array per axiom. In the g-orthonormal frame of
    U = chol(g)^T (g = U^T U; the identity for the euclidean metric), phi is
    T = U phi U^-1 and xi is e = U xi (`frame_axiom_residuals`)."""
    t, e = phi, xi
    if not s.metric_is_euclidean:
        low = np.linalg.cholesky(g)
        t = np.swapaxes(np.linalg.solve(low, np.swapaxes(phi, -1, -2) @ low), -1, -2)
        e = None if xi is None else (np.swapaxes(low, -1, -2) @ xi[..., None])[..., 0]
    return frame_axiom_residuals(t, e, s.epsilon)


def frame_axiom_residuals(t: np.ndarray, e: np.ndarray | None, epsilon: int) -> dict:
    """Each axiom's largest relative residual over all vectors, for phi T
    (P, n, n) and xi e (P, n) (None for the hermitian kind) in a
    g-orthonormal frame. With P = I, or I - e e^T for the contact kind, and
    s1 the largest singular value: compatibility s1(T^T - eps T), metric-law
    s1(T^T T - P), squared-endomorphism s1(T^2 - eps P), xi-unit
    |e^T e - 1|, phi-xi |T e|, eta-phi |T^T e|."""
    tt, proj = np.swapaxes(t, -1, -2), np.eye(t.shape[-1])
    if e is not None:
        proj = proj - e[:, :, None] * e[:, None, :]
    compat, law, square = spectral_norms(np.stack(
        [tt - epsilon * t, tt @ t - proj, t @ t - epsilon * proj]))
    out = {"compatibility": compat, "metric-law": law}
    if e is not None:
        out["xi-unit"] = np.abs((e[:, None] @ e[..., None])[:, 0, 0] - 1.0)
        out["phi-xi"] = column_norms(t @ e[..., None])
        out["eta-phi"] = column_norms(tt @ e[..., None])
    out["squared-endomorphism"] = square
    return out


def validate_structure(s: StructureField, points,
                       tol: float = DEFAULT_TOLERANCES.structure,
                       seed: int = DEFAULT_SEED) -> StructureVerdict:
    """Check every structure axiom exactly at each point (`_axiom_residuals`);
    `seed` is only reported. The fields are evaluated over the stack of
    points, or where that faults, point by point as stacks of one. A point
    whose evaluation fails makes the verdict fail rather than raise, with
    axiom `metric-symmetric` or `metric-positive` for a metric that is not
    symmetric or not positive definite there, `evaluation` otherwise; the
    first such point is the witness. Else the witness is the first nan of
    the (points, axioms) table in point-major order, or else its first cell
    within floor * max(1, cell) of its largest value, so that a tie decided
    by round-off names the same cell on every BLAS kernel. If that value is
    at or below the round-off floor min(ROUND_OFF * n, tol), none is named."""
    xs = np.array(list(points), dtype=float)
    if not len(xs):
        raise SpecError("validate_structure needs at least one point")

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
        residuals = _axiom_residuals(s, *stacks)                # metric, phi, xi
        table = np.stack(list(residuals.values()), axis=1)      # (points, axioms)
        worst = dict(zip(residuals, table.max(axis=0).tolist()))
        top, floor = table.max(), min(ROUND_OFF * s.n, tol)
        if not top <= floor:        # nan or above the floor
            near = np.isnan(table) if np.isnan(top) else (
                table + floor * np.maximum(table, 1.0) >= top)
            p, a = np.unravel_index(np.argmax(near), table.shape)
            witness = {"axiom": list(residuals)[a], "point": xs[good[p]].tolist(),
                       "residual": float(table[p, a])}
    passed = not failures and bool(worst) and all(v <= tol for v in worst.values())
    if failures:
        witness = dict(failures[0], residual=float("inf"))
        for failure in failures:
            worst[failure["axiom"]] = float("inf")
    return StructureVerdict(passed, worst, witness, tol, seed)
