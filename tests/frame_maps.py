"""Ambient maps read from the frame coordinates, for the tests.

`FrameMaps` turns the adapted frame E and T = E^T g phi E of a one-point
`FrameStack` back into ambient matrices: a matrix M on frame coordinates acts
on ambient vectors as E M E^T g. Tests written against the ambient f, w, pr_i
and the projectors onto D and G go through it, so they check the coordinate
algebra of `distribution`.
"""

import numpy as np

from slantkit.distribution import FrameStack
from slantkit.linalg import g_inner


class FrameMaps:
    def __init__(self, dec, point):
        stack = FrameStack(dec, [np.asarray(getattr(point, "coords", point), dtype=float)])
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
