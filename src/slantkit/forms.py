"""The bases and maps that the identity suite's rows on a side read.

A `Side` holds K components over the stacked points: their g-orthonormal
bases in frame coordinates, zero-padded to the largest rank r and laid side
by side (P, n, K * r), and the maps on them. A map's image of the bases and
its Gram, on each component or on their sum, are made on first use and kept
until `release`. Each row reads its supremum off one of these small
matrices; the rows and the registry are in `verifier`.
"""

from __future__ import annotations

import numpy as np

_CHAINS = {"square": ("own", "own"), "round_trip": ("own", "other"), "w2": ("other", "other")}


class Side:
    """K components and the maps on them, over the stacked points: one side
    of the D_i <-> w(D_i) duality ("D", "w(D)"), the whole of D ("D0+D"),
    or the invariant part of a side ("D_0", "H"; K = 0 when it is zero).
    `own` (P, n, n) maps each component into itself (f on D_i, w on
    w(D_i)), `other` onto its twin, `phi` is phi. `basis` (P or 1, n, K * r)
    holds the components' bases of ranks `ranks`, zero-padded to r; on the
    D_i these are the coordinate columns `cols` (K * r,), -1 for padding.
    `valid` (K, r) marks the real columns and `eye` (K, r, r) is the
    identity on them. `comps` slices the components' slant tables `slant` (None for H), and
    `duals` (P, n, K * r) are the bases of the twins of D's components.

    An image (P, n, K * r) of the bases is "id", "own", "other", "phi", a
    `_CHAINS` name (a map applied last to an image) or "outside" (w2 less
    its part in each component's twin)."""

    def __init__(self, maps, basis, ranks, comps, slant, cols=None, duals=None):
        self.own, self.other, self.phi = maps
        self.basis, self.cols, self.duals = basis, cols, duals
        self.ranks = np.array(ranks, dtype=int)
        self.valid = np.arange(max(ranks, default=0)) < self.ranks[:, None]    # (K, r)
        self.eye = self.valid[:, :, None] * np.eye(self.valid.shape[1])         # (K, r, r)
        self.slant = {c: a[:, comps] for c, a in slant.items()} if comps is not None else {}
        self._made = {}

    def release(self):
        """Drop the images and Grams; the next use makes them again, to the bit."""
        self._made = {}

    def image(self, m):
        """The image named `m` (P, n, K * r), made once."""
        if m not in self._made:
            if m == "id":
                img = self.basis
            elif m == "outside":
                d, w2 = self.blocks(self.duals), self.blocks(self.image("w2"))
                img = _flat(w2 - d @ (np.swapaxes(d, -1, -2) @ w2))
            elif m in _CHAINS:
                img = getattr(self, _CHAINS[m][0]) @ self.image(_CHAINS[m][1])
            elif self.cols is None:
                img = getattr(self, m) @ self.basis
            else:
                img = np.where(self.cols >= 0, getattr(self, m)[:, :, self.cols], 0.0)
            self._made[m] = img
        return self._made[m]

    def gram(self, m, block):
        """The Gram of image `m`: of each component (P, K, r, r) if `block`,
        else of their sum (P, K * r, K * r)."""
        if (m, block) not in self._made:
            img = self.blocks(self.image(m)) if block else self.image(m)
            self._made[m, block] = np.swapaxes(img, -1, -2) @ img
        return self._made[m, block]

    def blocks(self, a):
        """A side-by-side block (P, n, K * r) as (P, K, n, r)."""
        return np.moveaxis(a.reshape(a.shape[:2] + self.valid.shape), 2, 1)

    def column(self, coeff):
        """c_i on the columns of component i (P, 1, K * r), 0 on the padding:
        c the slant table `coeff`, 1 for None."""
        c = 1.0 if coeff is None else self.slant[coeff][:, :, None]
        return np.where(self.valid, c, 0.0).reshape(-1, 1, self.valid.size)


def _flat(a):
    """A block (P, K, n, r) as (P, n, K * r)."""
    npts, k, n, r = a.shape
    return np.moveaxis(a, 1, 2).reshape(npts, n, k * r)
