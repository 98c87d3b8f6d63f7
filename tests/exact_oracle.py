"""Per-point brute-force references of the identity suite's exact kernels
(`slantkit.verifier`).

At each point, every row's residual matrix is built explicitly, one
component at a time: the n x n maps phi, f and w in frame coordinates, the
subspaces as n x q matrices of orthonormal columns (the coordinate columns
of D_i, D, D-perp, G, ..., the bases of w(D_i) and H in G's coordinates),
no padding and no component axis. Its supremum is read with
`np.linalg.norm(., 2)` or `np.linalg.svd`. A weighted angle row inverts its
diagonal C = diag(c_i) with `np.linalg.inv` rather than reading a table of
1/c_i, and the `invsin.*-metric` rows take the norm of the whole
sum x sum residual rather than of its diagonal blocks.

`residuals(ctx)` walks `verifier.REGISTRY`: each row's shape and
parameters are read off its evaluator, and the reference of that shape runs
on them. The maps, the bases and the slant tables come from the context's
frame stack.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from slantkit import verifier


def _block_diag(*blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks),) * 2)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def _s1(a):
    return np.linalg.norm(a, 2) if a.size else 0.0


def _angle(a):
    """2 (kappa - 1) / (kappa + 1) of the map a (n, q); 1 for the zero map."""
    s = np.linalg.svd(a, compute_uv=False)
    return 1.0 if s[0] == 0.0 else 2.0 * (s[0] - s[-1]) / (s[0] + s[-1])


def _norm_sup(a, c):
    return float(np.max(np.abs(np.linalg.svd(a, compute_uv=False) - c)))


class _Point:
    """One point's maps, coordinate sets and sides, built explicitly."""

    def __init__(self, ctx, stack, p):
        t = stack.phi_adapted[p]
        n, off = t.shape[0], stack.offsets
        d, eye = off[-1], np.eye(n)
        self.eps, self.phi = ctx.eps, t
        self.f = np.vstack([t[:d], np.zeros((n - d, n))])
        self.w = np.vstack([np.zeros((d, n)), t[d:]])
        g_cols = eye[:, stack.g_rows]
        self.cols = {"D": eye[:, :d], "perp": eye[:, d:], "G": g_cols,
                     "D+xi": eye[:, :d + ctx.contact], "D+G": np.hstack([eye[:, :d], g_cols]),
                     "xi-perp": np.delete(eye, d, axis=1) if ctx.contact else eye}
        e = eye[d] if ctx.contact else np.zeros(n)
        self.identity, self.horizontal = eye, eye - np.outer(e, e)
        self.sin = {"cos": ctx.cos[p], "sin": ctx.sin[p], "cos2": ctx.cos2[p],
                    "sin2": ctx.sin2[p], "sin4": ctx.sin4[p]}
        comps = [eye[:, lo:hi] for lo, hi in zip(off, off[1:])]
        duals = [g_cols @ b[p] for b in stack.duals]
        h = g_cols @ stack.h_basis[p]
        proper = ctx.proper
        inv = [i for i in range(len(comps)) if i not in proper]
        on_d, on_w = (self.f, self.w), (self.w, self.f)
        self.sides = {   # name -> (maps, [(basis, component index)], duals)
            "D": (on_d, [(comps[i], i) for i in proper], duals),
            "D0+D": (on_d, list(zip(comps, range(len(comps)))), None),
            "D_0": (on_d, [(comps[i], i) for i in inv], None),
            "w(D)": (on_w, list(zip(duals, proper)), None),
            "H": (on_w, [(h, None)] if h.shape[1] else [], None),
        }

    def coeff(self, name, i):
        if name is None:
            return 1.0
        if name.startswith("1/"):   # the weighted angle rows invert C themselves
            raise AssertionError(name)
        return self.sin[name][i]

    def side_map(self, maps, m):
        own, other = maps
        return {"own": own, "other": other, "phi": self.phi, "square": own @ own,
                "round_trip": own @ other, "w2": other @ other}[m]


# -- the references of the row shapes, at one point ------------------------------

def _axiom(pt, name):
    t = pt.phi
    if name == "compatibility":
        return _s1(t.T - pt.eps * t)
    return _s1(t.T @ t - pt.horizontal)      # metric-law: P = I - e e^T (I if hermitian)


def _contact_isometry(pt):
    return _norm_sup(pt.phi @ pt.cols["xi-perp"], 1.0)


def _adjoint(pt, a, b, rows):
    x, y = (pt.cols[r] for r in rows)
    a, b = getattr(pt, a), getattr(pt, b)
    return _s1(x.T @ a @ y - pt.eps * x.T @ b.T @ y)


def _double_adjoint(pt, a, b, c, rows):
    x, y = (pt.cols[r] for r in rows)
    a, b, c = (getattr(pt, m) for m in (a, b, c))
    mid = pt.eps * x.T @ b.T @ b @ y
    return max(_s1(x.T @ (a @ b).T @ y - mid), _s1(mid - x.T @ c @ b @ y))


def _split(pt, a, rows, rhs=None):
    x, a = pt.cols[rows], getattr(pt, a)
    m = a @ pt.f @ x + a @ pt.w @ x
    if rhs is not None:
        m = m - pt.eps * getattr(pt, rhs) @ x
    return _s1(m)


def _aphidg(pt):
    return _angle(pt.phi @ pt.cols["D+G"])


def _held(pt, pred, i):
    return pred is None or bool(pred(pt.sin["cos"][i], pt.sin["sin"][i]))


def _stacked(pt, side):
    maps, comps, _ = pt.sides[side]
    return maps, np.hstack([b for b, _ in comps]), comps


def _diag(pt, comps, coeff):
    return _block_diag(*(pt.coeff(coeff, i) * np.eye(b.shape[1]) for b, i in comps))


def _summed_metric(pt, side, m, coeff):
    maps, b, comps = _stacked(pt, side)
    mb = pt.side_map(maps, m) @ b
    return _s1(mb.T @ mb - _diag(pt, comps, coeff))


def _summed_vector(pt, side, m, coeff):
    maps, b, comps = _stacked(pt, side)
    return _s1(pt.side_map(maps, m) @ b - pt.eps * b @ _diag(pt, comps, coeff))


def _summed_angle(pt, side, m, coeff):
    maps, b, comps = _stacked(pt, side)
    c = _diag(pt, comps, coeff[2:])         # "1/sin" -> C = diag(sin_i)
    return _angle(pt.side_map(maps, m) @ b @ np.linalg.inv(c))


def _component_metric(pt, side, m, coeff):
    maps, comps, _ = pt.sides[side]
    mb = [pt.side_map(maps, m) @ b for b, _ in comps]
    return max(_s1(a.T @ a - pt.coeff(coeff, i) * np.eye(b.shape[1]))
               for a, (b, i) in zip(mb, comps))


def _component_norm(pt, side, m, coeff):
    maps, comps, _ = pt.sides[side]
    return max(_norm_sup(pt.side_map(maps, m) @ b, pt.coeff(coeff, i)) for b, i in comps)


def _component_angle(pt, side, maps, pred=None):
    side_maps, comps, _ = pt.sides[side]
    return max((_angle(pt.side_map(side_maps, m) @ b) for b, i in comps if _held(pt, pred, i)
                for m in maps), default=-np.inf)


def _eps_fixed(pt, side, m, pred=None):
    maps, comps, _ = pt.sides[side]
    return max((_s1(pt.side_map(maps, m) @ b - pt.eps * b) for b, i in comps
                if _held(pt, pred, i)), default=-np.inf)


def _w2comp(pt, side):
    _, comps, duals = pt.sides[side]
    out = []
    for (b, i), q in zip(comps, duals):
        w2 = pt.w @ pt.w @ b
        right = _held(pt, verifier._right_angle, i)
        out.append(_s1(w2 if right else w2 - q @ (q.T @ w2)))
    return max(out)


def _all_positive_sin(pt, side, shape, **params):
    proper = [i for _, i in pt.sides["D"][1]]
    if not all(pt.sin["sin"][i] > verifier.PI2_TOL for i in proper):
        return -np.inf
    return _SHAPES[shape.__name__](pt, side, **params)


def _invsin_metric(pt, side):
    """The whole sum x sum residual g(X, Y) - sum_i g(wX_i, wY_i) / sin^2."""
    maps, b, comps = _stacked(pt, side)
    other = maps[1]
    blocks = [(other @ bi).T @ (other @ bi) / pt.coeff("sin2", i) for bi, i in comps]
    return _s1(b.T @ b - _block_diag(*blocks))


_SHAPES = {fn.__name__: fn for fn in (
    _axiom, _contact_isometry, _adjoint, _double_adjoint, _split, _aphidg, _summed_metric,
    _summed_vector, _summed_angle, _component_metric, _component_norm, _component_angle,
    _eps_fixed, _w2comp, _all_positive_sin, _invsin_metric)}


def _shape(case):
    """(shape name, side name, parameters) of a registry row's evaluator."""
    ev, side = case.evaluator, None
    if isinstance(ev, partial) and ev.func is verifier._on_side:
        ev, side = ev.args
    if isinstance(ev, partial):
        return ev.func.__name__, side, dict(ev.keywords)
    return ev.__name__, side, {}


def residuals(ctx, stack, setting):
    """{key: per-point residuals (P,)} of every row applicable to `setting`."""
    points = [_Point(ctx, stack, p) for p in range(len(ctx.points))]
    out = {}
    for case in verifier.REGISTRY:
        if case.settings not in ("both", setting):
            continue
        name, side, params = _shape(case)
        fn = _SHAPES[name]
        if side is None:
            out[case.key] = np.array([fn(pt, **params) for pt in points])
        elif not points[0].sides[side][1]:
            out[case.key] = np.full(len(points), -np.inf)
        else:
            out[case.key] = np.array([fn(pt, side, **params) for pt in points])
    return out
