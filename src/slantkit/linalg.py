"""Metric-aware dense linear algebra used by every other module.

All operations are pure functions of immutable value objects; underneath,
vectors and matrices are float64 numpy arrays. The wrapper types carry the
invariants the geometric layers rely on: shared base points, orthonormality
with respect to the metric, symmetric positive definite metrics.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BasePointError,
    DimensionError,
    InvariantError,
    RankError,
    SymmetryError,
)

RANK_TOL = 1e-12         # relative to the largest input column norm
ORTHONORMAL_TOL = 1e-10
SYMMETRY_RTOL = 1e-9


def _to_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvariantError(f"{name} must have finite entries")
    return arr


class AmbientPoint:
    """A point of the ambient space, given by its n coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = _to_array(coords, "point coordinates")
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError("point coordinates must form a nonempty vector")
        arr.setflags(write=False)
        self.coords = arr

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def same_as(self, other: "AmbientPoint") -> bool:
        return self.n == other.n and bool(np.array_equal(self.coords, other.coords))

    def key(self) -> tuple:
        return tuple(self.coords.tolist())

    def __repr__(self) -> str:
        return f"AmbientPoint({self.coords.tolist()})"


class TangentVector:
    """A tangent vector of the ambient space anchored at a base point."""

    __slots__ = ("comps", "base")

    def __init__(self, comps, base: AmbientPoint):
        arr = _to_array(comps, "tangent components")
        if arr.ndim != 1:
            raise DimensionError("tangent components must form a vector")
        if arr.shape[0] != base.n:
            raise DimensionError(
                f"tangent vector has {arr.shape[0]} components at a point of dimension {base.n}"
            )
        arr.setflags(write=False)
        self.comps = arr
        self.base = base

    @property
    def n(self) -> int:
        return self.comps.shape[0]

    def __repr__(self) -> str:
        return f"TangentVector({self.comps.tolist()} @ {self.base.coords.tolist()})"


class MetricAtPoint:
    """A symmetric positive definite bilinear form at one point."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = _to_array(matrix, "metric matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("metric must be a square matrix")
        scale = max(float(np.linalg.norm(arr)), 1e-300)
        if float(np.linalg.norm(arr - arr.T)) > SYMMETRY_RTOL * scale:
            raise InvariantError("metric matrix is not symmetric")
        arr = 0.5 * (arr + arr.T)
        try:
            np.linalg.cholesky(arr)      # positive-definiteness check only
        except np.linalg.LinAlgError:
            raise InvariantError("metric matrix is not positive definite") from None
        arr.setflags(write=False)
        self.matrix = arr

    @classmethod
    def identity(cls, n: int) -> "MetricAtPoint":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class SubspaceBasis:
    """An ordered list of tangent vectors at a common base point spanning a
    subspace; `orthonormal` records whether the Gram matrix (w.r.t. the metric
    in use) is the identity."""

    __slots__ = ("vectors", "orthonormal")

    def __init__(self, vectors, orthonormal: bool = False):
        vectors = list(vectors)
        if not vectors:
            raise DimensionError("a subspace basis needs at least one vector")
        base = vectors[0].base
        for v in vectors[1:]:
            if not v.base.same_as(base):
                raise BasePointError("basis vectors anchored at different points")
        mat = np.column_stack([v.comps for v in vectors])
        smin = np.linalg.svd(mat, compute_uv=False)[-1]
        scale = max(float(np.max(np.linalg.norm(mat, axis=0))), 1e-300)
        if smin <= RANK_TOL * scale:
            raise RankError("basis vectors are linearly dependent")
        self.vectors = tuple(vectors)
        self.orthonormal = bool(orthonormal)

    @property
    def base(self) -> AmbientPoint:
        return self.vectors[0].base

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def n(self) -> int:
        return self.vectors[0].n

    def matrix(self) -> np.ndarray:
        """Stacked n x r column matrix."""
        return np.column_stack([v.comps for v in self.vectors])

    @classmethod
    def from_matrix(cls, mat: np.ndarray, base: AmbientPoint, orthonormal: bool = False):
        return cls([TangentVector(mat[:, j], base) for j in range(mat.shape[1])], orthonormal)


# ---------------------------------------------------------------------------
# Array-level primitives (shared by the typed operations and the inner loops)
#
# `g_inner` is the one place a g-contraction g(u, v) of batches is written;
# every other module calls it rather than writing its own contraction.
# ---------------------------------------------------------------------------

def g_inner(gmat: np.ndarray | None, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(u, v) contracted over the first axis, for vectors (n,) or batches
    (n, ...) that broadcast against each other, e.g. (n, t) against (n, 1).

    One matmul `gmat @ v`, then a two-operand contraction; `gmat=None`
    stands for the euclidean metric and skips the matmul.
    """
    return np.einsum("i...,i...->...", u, v if gmat is None else gmat @ v)


def mgs_columns(gmat: np.ndarray, raw: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """g-orthonormalize the columns of `raw` by modified Gram-Schmidt with one
    re-orthogonalization pass. Raises RankError when a pivot collapses."""
    raw = np.array(raw, dtype=float)
    n, r = raw.shape
    col_norms = np.sqrt(np.maximum(g_inner(gmat, raw, raw), 0.0))
    scale = max(float(col_norms.max(initial=0.0)), 1e-300)
    out = np.empty((n, r))
    for j in range(r):
        v = raw[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= (out[:, i] @ gmat @ v) * out[:, i]
        nrm = float(np.sqrt(max(v @ gmat @ v, 0.0)))
        if nrm < rank_tol * scale:
            raise RankError(f"column {j} is dependent on the previous ones")
        out[:, j] = v / nrm
    return out


def projector_matrix(gmat: np.ndarray, onb: np.ndarray) -> np.ndarray:
    """g-orthogonal projector onto the span of the g-orthonormal columns."""
    if onb.size == 0:
        return np.zeros((gmat.shape[0], gmat.shape[0]))
    return onb @ onb.T @ gmat


def complement_columns(gmat: np.ndarray, onb: np.ndarray) -> np.ndarray:
    """g-orthonormal basis of the g-orthogonal complement of span(onb).

    Deterministic: the candidates are the columns of I - P, picked by
    `pivoted_columns`.
    """
    n = gmat.shape[0]
    r = 0 if onb is None or onb.size == 0 else onb.shape[1]
    m = n - r
    if m <= 0:
        return np.zeros((n, 0))
    cand = np.eye(n) - projector_matrix(gmat, onb if r else np.zeros((n, 0)))
    return mgs_columns(gmat, pivoted_columns(gmat, cand, m))


def pivoted_columns(gmat: np.ndarray, cand: np.ndarray, rank: int) -> np.ndarray:
    """`rank` g-unit columns taken from `cand` by pivoted g-norm deflation.

    Each step takes the candidate column of largest remaining g-norm (first
    index wins ties) and deflates every candidate against it. Raises
    RankError when the largest remaining g-norm falls below 1e-10 (absolute),
    i.e. the candidates span fewer than `rank` dimensions.
    """
    cand = np.array(cand, dtype=float)
    out = np.empty((cand.shape[0], rank))
    for j in range(rank):
        norms = np.sqrt(np.maximum(g_inner(gmat, cand, cand), 0.0))
        idx = int(np.argmax(norms))
        if norms[idx] < 1e-10:
            raise RankError(f"pivoted deflation collapsed after {j} of {rank} columns")
        q = cand[:, idx] / norms[idx]
        out[:, j] = q
        cand -= np.outer(q, q @ gmat @ cand)
    return out


def principal_angle_values(gmat: np.ndarray, a_onb: np.ndarray, b_onb: np.ndarray) -> np.ndarray:
    """Principal angles (ascending, in [0, pi/2]) between two g-orthonormal
    column spans.

    Small angles come from the sine-based residual formula: arccos alone
    floors near sqrt(machine eps), which would make "equal spans" undecidable
    at the 1e-10 scale the rest of the package works to.
    """
    upper = np.linalg.cholesky(gmat).T
    a = upper @ a_onb
    b = upper @ b_onb
    m = min(a.shape[1], b.shape[1])
    cos = np.clip(np.linalg.svd(a.T @ b, compute_uv=False), 0.0, 1.0)[:m]
    resid = b - a @ (a.T @ b)
    sin = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))[:m]
    angles = np.where(cos ** 2 < 0.5, np.arccos(cos), np.arcsin(sin))
    return np.sort(angles)


# ---------------------------------------------------------------------------
# Typed operations
# ---------------------------------------------------------------------------

def inner(g: MetricAtPoint, u: TangentVector, v: TangentVector) -> float:
    """g(u, v) at a common base point."""
    if u.n != g.n or v.n != g.n:
        raise DimensionError("vector and metric dimensions differ")
    if not u.base.same_as(v.base):
        raise BasePointError("inner product of vectors at different base points")
    return float(u.comps @ g.matrix @ v.comps)


def gram_schmidt(g: MetricAtPoint, raw: SubspaceBasis) -> SubspaceBasis:
    """g-orthonormal basis of span(raw); span is preserved."""
    if raw.n != g.n:
        raise DimensionError("basis and metric dimensions differ")
    onb = mgs_columns(g.matrix, raw.matrix())
    return SubspaceBasis.from_matrix(onb, raw.base, orthonormal=True)


def _require_orthonormal(g: MetricAtPoint, basis: SubspaceBasis) -> np.ndarray:
    mat = basis.matrix()
    gram = mat.T @ g.matrix @ mat
    if float(np.max(np.abs(gram - np.eye(basis.rank)))) > ORTHONORMAL_TOL:
        raise InvariantError("basis is not g-orthonormal")
    return mat


def projector(g: MetricAtPoint, basis: SubspaceBasis) -> np.ndarray:
    """Matrix of the g-orthogonal projection onto span(basis).

    Satisfies P @ P = P and g P = P.T g, with image span(basis).
    """
    if basis.n != g.n:
        raise DimensionError("basis and metric dimensions differ")
    mat = _require_orthonormal(g, basis)
    return projector_matrix(g.matrix, mat)


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvector columns). Each
    eigenvector is signed so its first nonzero component is positive, which
    makes reports deterministic.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionError("sym_eigen needs a square matrix of size >= 1")
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if float(np.linalg.norm(a - a.T)) > SYMMETRY_RTOL * scale:
        raise SymmetryError("matrix is not symmetric within tolerance")
    evals, evecs = np.linalg.eigh(0.5 * (a + a.T))
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(float(np.max(np.abs(col))), 1e-300))
        if nz.size and col[nz[0]] < 0:
            evecs[:, j] = -col
    return evals, evecs


def principal_angles(g: MetricAtPoint, a: SubspaceBasis, b: SubspaceBasis) -> np.ndarray:
    """Principal angles between span(a) and span(b), ascending in [0, pi/2]."""
    if a.n != g.n or b.n != g.n:
        raise DimensionError("bases and metric dimensions differ")
    if not a.base.same_as(b.base):
        raise BasePointError("principal angles need a common base point")
    amat = _require_orthonormal(g, a)
    bmat = _require_orthonormal(g, b)
    return principal_angle_values(g.matrix, amat, bmat)
