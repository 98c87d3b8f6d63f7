"""The quadratic forms that the identity suite's rows on a side read.

A `Side` holds the draws in its components as coefficient blocks (P, K, r,
trials) and the maps on them; a map's image of the components' bases has a
Gram G, and g(mX, mY) = X^T G Y. A side makes every form its rows read
(`verifier.SIDE_FORMS`) at once, on first use, in chunks that keep each
product with the coefficients, and the table of each quantity, within the
size of one full draw (P, 1, n, trials). The rows and the registry are in
`verifier`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

TINY = 1e-300


class Form(NamedTuple):
    """A quadratic form a side row reads, as `q`: "xy", "xx", "norm" |mX| or
    "cos" cos<(mX, mY). Its Gram is of the image of the side's bases under
    `m` (a `Side` image), less eps c_i times the bases where `shift` names
    the slant table c (True: c = 1), component i's columns times c_i where
    `scale` names c; on each component (`block`: the Gram's diagonal blocks)
    or on their sum."""
    m: str
    q: str
    block: bool = True
    shift: object = None
    scale: str | None = None


_CHAINS = {"square": ("own", "own"), "round_trip": ("own", "other"), "w2": ("other", "other")}


class Side:
    """The draws in K components and the maps on them, over the stacked
    points: one side of the D_i <-> w(D_i) duality ("D", "w(D)"), the whole
    of D ("D0+D"), or the invariant part of a side ("D_0", "H"; K = 0 when
    it is zero). `own` (P, n, n) maps each component into itself (f on D_i,
    w on w(D_i)), `other` onto its twin, `phi` is phi. `xs`/`ys` (P, K, r, t)
    are two draws' coefficients in the components' g-orthonormal bases
    `basis` (P or 1, K, n, r), zero-padded to the largest rank r; on the D_i
    these are the coordinate columns `cols` (K, r), -1 for padding. `comps`
    slices the components' slant tables `slant` (None for H), `reads` maps
    a Form with q None to the Forms of its Gram the side's rows read, and
    `duals` are the bases of the twins of D's components. An image (P, n, K * r) of the bases is
    "id", "own", "other", "phi", a `_CHAINS` name (a map applied last to an
    image) or "outside" (w2 less its part in each component's twin)."""

    def __init__(self, maps, xs, ys, basis, comps, eps, slant, reads, cols=None, duals=None):
        self.eps, self.reads, self.duals, self._tables = eps, reads, duals, None
        self.slant = {c: a[:, comps] for c, a in slant.items()} if comps is not None else {}
        self.own, self.other, self.phi = maps
        self.xs, self.ys, self.basis, self.comps, self.cols = xs, ys, basis, comps, cols

    def release(self):
        """Drop the tables; the next `tables` makes them again, to the bit."""
        self._tables = None

    def tables(self):
        """(draws, sums, forms), made on first use: the `_derive` quantities
        of the draws (P, K, t) and of their sums over the components (P, 1,
        t), from the coefficients (the bases are orthonormal), and the
        quantity of each Form of `reads`, (P, K or 1, t)."""
        if self._tables is None:
            xs, ys = self.xs, self.ys
            tab = np.stack([np.einsum("...rt,...rt->...t", a, b)
                            for a, b in ((xs, ys), (xs, xs), (ys, ys))])
            sums = np.stack([component_sum(a) for a in tab])
            self._tables = ({q: a.copy() for q, a in _derive(tab)},
                            {q: a.copy() for q, a in _derive(sums)}, self._contract())
        return self._tables

    def _contract(self):
        """The forms, over chunks of a kind's distinct Grams that keep each
        product and each quantity's table within n * t values per point, as
        a draw holds (`_chunk`)."""
        npts, k, r, t = self.xs.shape
        n, reads, out, images, grams = self.own.shape[-1], self.reads, {}, {}, {}
        if not k:
            return {f: np.zeros((npts, 0, t)) for fs in reads.values() for f in fs}
        for key in reads:   # a block Gram and a sum Gram of one image are one
            twin = key._replace(block=not key.block)
            grams[key] = grams[twin] if twin in grams else self._gram(key, images)
        del images
        for block, step in ((True, max(1, n // k)), (False, max(1, n // (k * r)))):
            keys = [key for key in grams if key.block == block]
            for chunk in (keys[lo:lo + step] for lo in range(0, len(keys), step)):
                out.update(self._chunk([grams[key] for key in chunk],
                                       [(j, f) for j, key in enumerate(chunk) for f in reads[key]]))
        return out

    def _chunk(self, grams, forms):
        """The `forms` (j, Form) of the Grams `grams` of one kind, from the
        forms xy, xx and yy their quantities need: on each component, the
        Grams' (r, r) diagonal blocks times the per-trial outer products of
        the coefficients; on the sum, the Grams times the coefficients,
        dotted with them."""
        npts, k, r, t = self.xs.shape
        need, block = {f.q for _, f in forms}, forms[0][1].block
        use = [bool(need & {"xy", "cos"}), bool(need & {"xx", "norm", "cos"}), "cos" in need]
        tab = np.empty((3, npts, k if block else 1, len(grams), t))
        if block:
            g = np.stack([np.einsum("pkakb->pkab", gram.reshape(npts, k, r, k, r))
                          for gram in grams], axis=2).reshape(npts, k, len(grams), r * r)
            part = max(1, self.own.shape[-1] * t // (k * r * r))
            for lo in range(0, t, part):
                xs, ys = self.xs[..., lo:lo + part], self.ys[..., lo:lo + part]
                for i in np.flatnonzero(use):
                    a, b = ((xs, ys), (xs, xs), (ys, ys))[i]
                    outer = (a[:, :, :, None] * b[:, :, None]).reshape(npts, k, r * r, -1)
                    np.matmul(g, outer, out=tab[i, ..., lo:lo + part])
        else:
            x, y = (v.reshape(npts, k * r, t) for v in (self.xs, self.ys))
            g = np.stack(grams, axis=1).reshape(npts, -1, k * r)
            gx, gy = ((g @ v).reshape(npts, len(grams), k * r, t) if u else None
                      for v, u in ((x, use[1]), (y, use[0] or use[2])))
            for i in np.flatnonzero(use):
                a, b = ((x, gy), (x, gx), (y, gy))[i]
                np.einsum("...at,...at->...t", a[:, None], b, out=tab[i, :, 0])
        out = {}
        for q, a in itertools.islice(_derive(tab), 1 + max(map(_QUANTITIES.index, need))):
            out.update((f, a[:, :, j].copy()) for j, f in forms if f.q == q)
        return out

    def _gram(self, key, images):
        """The Gram (P, K * r, K * r) of the image of a form `key`."""
        img = self._image(key.m, images)
        shift, scale = ((c if c in (None, True) else
                         np.repeat(self.slant[c][..., 0], self.xs.shape[2], axis=1)[:, None])
                        for c in (key.shift, key.scale))      # per column of the image
        if shift is not None:
            img = img - self.eps * shift * self._image("id", images)
        if scale is not None:
            img = img * scale
        return np.swapaxes(img, -1, -2) @ img

    def _image(self, m, images):
        """The image named `m`, kept in `images`."""
        if m not in images:
            npts, k, r, _ = self.xs.shape
            if m == "id":
                img = np.broadcast_to(_flat(self.basis), (npts, self.own.shape[-1], k * r))
            elif m == "outside":
                w2 = np.moveaxis(self._image("w2", images).reshape(npts, -1, k, r), 2, 1)
                img = _flat(w2 - self.duals @ (np.swapaxes(self.duals, -1, -2) @ w2))
            elif m in _CHAINS:
                img = getattr(self, _CHAINS[m][0]) @ self._image(_CHAINS[m][1], images)
            elif self.cols is None:
                img = getattr(self, m) @ _flat(self.basis)
            else:
                cols = self.cols.ravel()
                img = np.where(cols >= 0, getattr(self, m)[:, :, cols], 0.0)
            images[m] = img
        return images[m]


_QUANTITIES = ("xy", "xx", "norm", "norm_y", "cos")     # in the order `_derive` makes them


def _derive(tab):
    """The `_QUANTITIES` of forms tab = (xy, xx, yy), xy = g(u, v), xx =
    g(u, u), yy = g(v, v), made in place: "norm" over xx, "norm_y" and then
    "cos" over yy, so a caller copies a quantity before taking the next."""
    xy, xx, yy = tab
    yield "xy", xy
    yield "xx", xx
    yield "norm", np.sqrt(np.maximum(xx, 0.0, out=xx), out=xx)
    yield "norm_y", np.sqrt(np.maximum(yy, 0.0, out=yy), out=yy)
    yield "cos", np.divide(xy, np.maximum(np.multiply(xx, yy, out=yy), TINY, out=yy), out=yy)


def _flat(a):
    """A block (P, K, n, r) as (P, n, K * r)."""
    npts, k, n, r = a.shape
    return np.moveaxis(a, 1, 2).reshape(npts, n, k * r)


def component_sum(a):
    """The sum of scalars a (P, K, t) over the component axis, kept with
    length 1, term by term in component order (np.sum would pair the terms
    up at t = 1)."""
    return sum((a[:, k:k + 1] for k in range(1, a.shape[1])), a[:, :1])
