"""Metric-aware dense linear algebra kernels over plain float64 arrays.

Vectors are (n,) arrays, bases are (n, r) column matrices and metrics are
(n, n) matrices; every kernel but `sym_eigen` also takes stacks of them with
the sample points as leading axes. The geometric layers call these kernels
on the stacked frames (`distribution.FrameStack`) and keep their own
invariants.

`g_inner` is the one place a g-contraction g(u, v) of batches is written;
every other module calls it rather than writing its own contraction.
`mgs_columns` is the one g-orthonormaliser: stacked CholeskyQR2, with the
Gram-Schmidt loop as its fallback past CHOLQR2_COND_MAX and its rank test.
`complement_columns` is the one complement algorithm. `each_by_shape` runs a
kernel over per-component arrays, one stacked call per shape (rank).

`sym_eigen` and `projector_matrix` have no caller in the package. They stay
because the benchmark's tracer (`perfbench/tracing.py`) wraps them by name
and reports their counters, and the tests use them as oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RankError, SymmetryError

RANK_TOL = 1e-12         # relative to the largest input column norm
CHOLQR2_COND_MAX = 1e6   # largest scale * ||L^-1||_F that mgs_columns factorises
SYMMETRY_RTOL = 1e-9


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


def column_norms(v: np.ndarray) -> np.ndarray:
    """2-norms of the columns v (..., m, 1), each equal bit for bit to
    np.linalg.norm of v[..., 0]: both take one BLAS dot product."""
    return np.sqrt(np.swapaxes(v, -1, -2) @ v)[..., 0, 0]


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
    raw = np.asarray(raw, dtype=float)
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


def each_by_shape(fn, *lists) -> list:
    """fn of the members of `lists` (member i: lists[0][i], lists[1][i], ...),
    one call per distinct tuple of member shapes on their stacks (m, ...),
    giving a stack (m, ...) of results: member i's result is entry i."""
    shapes = [tuple(a.shape for a in member) for member in zip(*lists)]
    out = {}
    for key in dict.fromkeys(shapes):
        idx = [i for i, s in enumerate(shapes) if s == key]
        out.update(zip(idx, fn(*(np.array([arrays[i] for i in idx]) for arrays in lists))))
    return [out[i] for i in range(len(shapes))]


def mgs_each(gmat: np.ndarray, raws: list[np.ndarray]) -> list[np.ndarray]:
    """`mgs_columns` of each matrix of `raws`, one stacked call per shape."""
    return each_by_shape(lambda raw: mgs_columns(gmat, raw), raws)


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
