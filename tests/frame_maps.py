"""Ambient maps read from the frame coordinates, for the tests.

`FrameMaps` turns the adapted frame E and T = E^T g phi E of a one-point
`FrameStack` back into ambient matrices: a matrix M on frame coordinates acts
on ambient vectors as E M E^T g. Tests written against the ambient f, w, pr_i
and the projectors onto D and G go through it, so they check the coordinate
algebra of `distribution`.

`pivoted_columns` reaches a complement by another algorithm than
`linalg.complement_columns` (pivoted g-norm deflation of candidate columns);
the tests use it as the oracle for the span of H.
"""

import numpy as np

from slantkit.distribution import FrameStack
from slantkit.errors import RankError
from slantkit.linalg import g_inner


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


class FrameMaps:
    def __init__(self, dec, point):
        stack = FrameStack(dec, [np.asarray(point, dtype=float)])
        e, t, g = stack.adapted[0], stack.phi_adapted[0], stack.g[0]
        off = stack.offsets
        rows = np.arange(len(t))

        def ambient(mat):
            return e @ mat @ e.T @ g

        def keep(mask):
            return ambient(np.diag(mask * 1.0))

        in_d = rows < off[-1]
        self.g, self.phi, self.x = g, stack.phi[0], stack.x[0]
        self.bases, self.proper_indices = [b[0] for b in stack.bases], stack.proper_indices
        self._f = ambient(np.where(in_d[:, None], t, 0.0))
        self._w = ambient(np.where(in_d[:, None], 0.0, t))
        self._phi = ambient(t)
        self.proj_d = keep(in_d)
        self.proj_g = keep(rows >= stack.g_rows.start)
        self._pr = [keep((lo <= rows) & (rows < hi)) for lo, hi in zip(off, off[1:])]

    def apply_phi(self, v):
        return self._phi @ v

    def f(self, v):
        return self._f @ v

    def w(self, v):
        return self._w @ v

    def pr(self, i, v):
        return self._pr[i] @ v

    def inner(self, u, v):
        return g_inner(self.g, u, v)
