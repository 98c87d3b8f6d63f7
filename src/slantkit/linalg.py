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
CHOLQR2_COND_MAX = 1e6   # largest scale * ||L^-1||_F that mgs_columns factorises
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
# `mgs_columns` is the one g-orthonormaliser: stacked CholeskyQR2, with the
# Gram-Schmidt loop as its fallback past CHOLQR2_COND_MAX and its rank test.
# ---------------------------------------------------------------------------

def g_inner(gmat: np.ndarray | None, u: np.ndarray, v: np.ndarray,
            stacked: bool = False) -> np.ndarray:
    """g(u, v) contracted over the first axis, for vectors (n,) or batches
    (n, ...) that broadcast against each other, e.g. (n, t) against (n, 1).
    `stacked` operands carry the sample points as a leading axis: u and v
    are (P, n, ...), `gmat` a stack (P, n, n), and the contraction runs
    over axis 1, giving (P, ...); each point's slice equals the unstacked
    contraction bit for bit.

    One matmul `gmat @ v`, then a two-operand contraction; `gmat=None`
    stands for the euclidean metric and skips the matmul.
    """
    gv = v if gmat is None else gmat @ v
    return np.einsum("pi...,pi...->p..." if stacked else "i...,i...->...", u, gv)


def _inverse_cholesky(gram: np.ndarray) -> np.ndarray:
    """L^-1 of each gram = L L^T of a stack (..., r, r); NaN where that fails."""
    try:
        return np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return np.stack([_inverse_cholesky(a) for a in gram]) if gram.ndim > 2 else gram * np.nan


def mgs_columns(gmat: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """g-orthonormalize the columns of `raw` (n, r), or of each member of a
    stack (..., n, r), against `gmat` (n, n) or (..., n, n) by CholeskyQR2
    (Fukaya et al., 2014): B <- B L^-T with L = chol(B^T g B), twice. A member
    takes `_mgs_loop` when a factorisation fails or is not finite, or when
    scale * ||L^-1||_F (scale: its largest column g-norm) exceeds
    CHOLQR2_COND_MAX; below that the loop's pivots stay far above RANK_TOL *
    scale, so only the loop decides rank and raises RankError."""
    raw = np.array(raw, dtype=float)
    with np.errstate(all="ignore"):
        gram = np.swapaxes(raw, -1, -2) @ gmat @ raw
        linv = _inverse_cholesky(gram)
        out = raw @ np.swapaxes(linv, -1, -2)
        linv2 = _inverse_cholesky(np.swapaxes(out, -1, -2) @ gmat @ out)
        out = out @ np.swapaxes(linv2, -1, -2)
        bound_sq = (np.diagonal(gram, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
                    * np.einsum("...ij,...ij->...", linv, linv))
        ok = (bound_sq <= CHOLQR2_COND_MAX ** 2) & np.isfinite(np.einsum("...ij->...", linv2))
    if not ok.all():
        for idx in map(tuple, np.argwhere(~ok)):
            out[idx] = _mgs_loop(np.broadcast_to(gmat, ok.shape + gmat.shape[-2:])[idx], raw[idx])
    return out


def mgs_each(gmat: np.ndarray, raws: list[np.ndarray]) -> list[np.ndarray]:
    """`mgs_columns` of each matrix of `raws`, one stacked call per shape."""
    out = [None] * len(raws)
    for shape in dict.fromkeys(a.shape for a in raws):
        idx = [i for i, a in enumerate(raws) if a.shape == shape]
        for i, onb in zip(idx, mgs_columns(gmat, np.array([raws[i] for i in idx]))):
            out[i] = onb
    return out


def _mgs_loop(gmat: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
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
        if nrm < RANK_TOL * scale:
            raise RankError(f"column {j} is dependent on the previous ones")
        out[:, j] = v / nrm
    return out


def projector_matrix(gmat: np.ndarray, onb: np.ndarray) -> np.ndarray:
    """g-orthogonal projector onto the span of the g-orthonormal columns;
    for stacks (P, n, r) and (P, n, n), one projector per point."""
    if onb.size == 0:
        return np.zeros(gmat.shape)
    return onb @ np.swapaxes(onb, -1, -2) @ gmat


def complement_columns(gmat: np.ndarray, onb: np.ndarray) -> np.ndarray:
    """g-orthonormal basis of the g-orthogonal complement of span(onb) (n, r)
    or of each member of a stack (..., n, r): with g = L L^T and the complete
    QR L^T onb = Q R, it is L^-T Q[:, r:]. Each member's result is its
    unstacked one, bit for bit."""
    upper = np.swapaxes(np.linalg.cholesky(gmat), -1, -2)
    q = np.linalg.qr(upper @ onb, mode="complete")[0]
    return np.linalg.solve(upper, q[..., onb.shape[-1]:])


def pivoted_columns(gmat: np.ndarray, cand: np.ndarray, rank: int) -> np.ndarray:
    """`rank` g-unit columns taken from `cand` (n, m), or from each member of
    a stack (..., n, m), by pivoted g-norm deflation.

    Each step takes the candidate column of largest remaining g-norm (first
    index wins ties) and deflates every candidate against it. Raises
    RankError when the largest remaining g-norm falls below 1e-10 (absolute),
    i.e. the candidates span fewer than `rank` dimensions (in a stack, the
    first such member). Each member's result is its unstacked one, bit for bit.
    """
    cand = np.array(cand, dtype=float)
    out = np.empty(cand.shape[:-1] + (rank,))
    collapsed = np.full(cand.shape[:-2], rank)
    with np.errstate(all="ignore"):
        for j in range(rank):
            norms = np.sqrt(np.maximum(np.einsum("...ij,...ij->...j", cand, gmat @ cand), 0.0))
            idx = np.argmax(norms, axis=-1)[..., None]
            top = np.take_along_axis(norms, idx, -1)
            collapsed[(top[..., 0] < 1e-10) & (collapsed == rank)] = j
            q = np.take_along_axis(cand, idx[..., None], -1)[..., 0] / top
            out[..., j] = q
            cand -= q[..., :, None] * (q[..., None, :] @ gmat @ cand)
    for j in collapsed[collapsed < rank][:1]:       # the first member that collapsed
        raise RankError(f"pivoted deflation collapsed after {j} of {rank} columns")
    return out


def principal_angle_values(gmat: np.ndarray, a_onb: np.ndarray, b_onb: np.ndarray) -> np.ndarray:
    """Principal angles (ascending, in [0, pi/2]) between two g-orthonormal
    column spans, or per member of two stacks (..., n, r).

    Small angles come from the sine-based residual formula: arccos alone
    floors near sqrt(machine eps), which would make "equal spans" undecidable
    at the 1e-10 scale the rest of the package works to.
    """
    upper = np.swapaxes(np.linalg.cholesky(gmat), -1, -2)
    a = upper @ a_onb
    b = upper @ b_onb
    m = min(a.shape[-1], b.shape[-1])
    atb = np.swapaxes(a, -1, -2) @ b
    cos = np.clip(np.linalg.svd(atb, compute_uv=False), 0.0, 1.0)[..., :m]
    sin = np.sort(np.clip(np.linalg.svd(b - a @ atb, compute_uv=False), 0.0, 1.0))[..., :m]
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
