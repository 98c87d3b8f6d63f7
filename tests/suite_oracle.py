"""The identity suite's evaluators as they were before the component became
an array axis of `slantkit.verifier.PointContext`, kept as the oracle of the
differential suite tests.

Here the draws of each component are a separate (P, n, t) stack, and every
shape loops over the components in Python. Its REGISTRY holds the same keys
in the same order as the package's; each evaluator returns one residual per
point, and the package's must match them (`tests/test_suite_oracle.py` says
how closely).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from slantkit.classifier import slant_lambdas
from slantkit.config import Tolerances
from slantkit.distribution import Decomposition
from slantkit.linalg import g_inner
from slantkit.sampling import rng_for

PI2_TOL = 1e-8
TINY = 1e-300


class PointContext:
    """The identity suite's data at all sample points in frame coordinates,
    stacked on a leading point axis P: the maps, the slant tables `cos`,
    `sin`, `cos2`, `sin2`, `sin4` (P, ncomp) and the draws (P, n, trials),
    point p's from `rng_for(seed, 997, p)` in a fixed order."""

    def __init__(self, dec: Decomposition, points, trials: int, seed: int,
                 tolerances: Tolerances):
        stack = dec.frame_stack(points)
        npts, n, t = len(stack.x), dec.structure.n, trials
        t_phi, off, eye = stack.phi_adapted, stack.offsets, np.eye(n)
        rows = np.arange(n)[:, None]
        in_d = rows < off[-1]
        # the maps hold arrays only (as the sides hold the maps), so that no
        # reference cycle keeps the context alive
        self.apply_phi = partial(np.matmul, t_phi)
        self.f = partial(np.matmul, np.where(in_d, t_phi, 0.0))
        self.w = partial(np.matmul, np.where(in_d, 0.0, t_phi))
        self.in_comp = [(lo <= rows) & (rows < hi) for lo, hi in zip(off, off[1:])]
        self.xi_row, self.e_xi = off[-1], eye[:, off[-1]:off[-1] + 1]
        self.points, self.eps, self.proper = list(stack.x), stack.epsilon, stack.proper_indices
        self.contact = stack.xi is not None
        self.cos2 = np.ones((npts, len(stack.bases)))
        lam = slant_lambdas(stack, self.proper, tolerances)
        self.cos2[:, self.proper] = np.minimum(np.maximum(self.eps * lam, 0.0), 1.0)
        self.sin2 = 1.0 - self.cos2
        self.cos, self.sin = np.sqrt(self.cos2), np.sqrt(self.sin2)
        # libm's pow, as a scalar sin^2 ** 2 rounds (numpy's square may differ by an ulp)
        self.sin4 = np.array([[s ** 2 for s in row] for row in self.sin2.tolist()])

        zeros = np.zeros((npts, n, t))
        draws = []

        def drawn(basis):   # draws spanned by basis[p] or by basis (n, r); ambient for None
            if basis is not None and not basis.shape[-1]:
                return zeros
            draws.append((np.empty((npts, n, t)), basis))
            return draws[-1][0]

        in_g = eye[:, stack.g_rows]
        self.duals = [in_g @ b for b in stack.duals]
        h = in_g @ stack.h_basis
        amb = (drawn(None), drawn(None))
        comps = [eye[:, lo:hi] for lo, hi in zip(off, off[1:])]
        self.cx, self.cy = [drawn(c) for c in comps], [drawn(c) for c in comps]
        self.u_perp, self.v_perp = drawn(eye[:, off[-1]:]), drawn(eye[:, off[-1]:])
        self.u_g, self.v_g = drawn(in_g), drawn(in_g)
        pairs = [(drawn(b), drawn(b)) for b in self.duals]
        self.wu, self.wv = [u for u, _ in pairs], [v for _, v in pairs]
        self.u_h, self.v_h = (drawn(h), drawn(h)) if h.shape[2] else (None, None)
        xi = [drawn(self.e_xi) for _ in range(2 * self.contact)]
        for p in range(npts):
            rng = rng_for(seed, 997, p)
            for out, basis in draws:
                if basis is None:
                    rng.standard_normal(out=out[p])
                else:
                    basis = basis if basis.ndim == 2 else basis[p]
                    np.matmul(basis, rng.standard_normal((basis.shape[1], t)), out=out[p])
        self.amb = tuple(np.swapaxes(stack.adapted, -1, -2) @ (stack.g @ a) for a in amb)

        self.x_d, self.y_d = sum(self.cx), sum(self.cy)
        self.u_w, self.v_w = (sum(self.wu), sum(self.wv)) if self.wu else (zeros, zeros)
        d_xi = [d + c for d, c in zip((self.x_d, self.y_d), xi)]
        self.x_dxi, self.y_dxi = d_xi or (self.x_d, self.y_d)
        xs, ys = ([c[i] for i in self.proper] for c in (self.cx, self.cy))
        inv = stack.invariant_index
        self.sides = {
            "D": Side(self.f, self.w, xs, ys, sum(xs) if xs else zeros, sum(ys) if ys else zeros,
                      None if inv is None else self.cx[inv], None if inv is None else self.cy[inv]),
            "w(D)": Side(self.w, self.f, self.wu, self.wv, self.u_w, self.v_w, self.u_h, self.v_h),
        }
        self.everywhere = np.ones(npts, dtype=bool)
        self.nowhere = np.full(npts, -np.inf)   # the residual of a key quantified nowhere

    # g(u, v) of frame coordinates is their dot product at each point
    inner = staticmethod(partial(g_inner, None, stacked=True))

    def norm(self, u):
        return np.sqrt(np.maximum(self.inner(u, u), 0.0))

    def cos_angle(self, u, v):
        return self.inner(u, v) / np.maximum(self.norm(u) * self.norm(v), TINY)

    def pr(self, i, v):
        """pr_i v: the rows of D_i of the coordinates v."""
        return np.where(self.in_comp[i], v, 0.0)

    def eta(self, v):
        return v[:, self.xi_row]

    def along_xi(self, c):
        """The vectors c_k xi_unit at each point, for coefficients c (P, t)."""
        return self.e_xi * c[:, None, :]

    # residual helpers: the worst over the trials at each point, (P,) ----------

    def rel(self, diff, a, b=None):
        """max |diff| / (|a| [,*|b|]) over the trial batch."""
        scale = self.norm(a)
        if b is not None:
            scale = scale * self.norm(b)
        return np.max(np.abs(diff) / np.maximum(scale, TINY), axis=-1)

    def cos_diff(self, a, b, c, d):
        return np.max(np.abs(self.cos_angle(a, b) - self.cos_angle(c, d)), axis=-1)

    def components(self, side, pred=None):
        """(i, X_i, Y_i, held) over the side's proper components, `held` the
        (P,) mask of the points where (cos, sin)(theta_i) satisfy `pred`
        (every point without one); a component held nowhere is left out."""
        out = []
        for slot, i in enumerate(self.proper):
            held = self.everywhere if pred is None else pred(self.cos[:, i], self.sin[:, i])
            if held.any():
                out.append((i, side.xs[slot], side.ys[slot], held))
        return out


@dataclass(frozen=True)
class Side:
    """One side of the D_i <-> w(D_i) duality over the stacked points.

    `own` maps each of the side's components into itself (f on D_i, w on
    w(D_i)); `other` maps it onto its twin (w: D_i -> w(D_i), f: w(D_i) ->
    D_i). `xs`/`ys` are the draws in the proper components, slot-aligned
    with `PointContext.proper`, and `x`/`y` their sums. `x0`/`y0` are the
    draws in the invariant part (D_0, or H on the dual side), None when it
    is zero."""
    own: object
    other: object
    xs: list
    ys: list
    x: np.ndarray
    y: np.ndarray
    x0: np.ndarray | None
    y0: np.ndarray | None

    def round_trip(self, v):
        """fwX on the D side, wfU on the w(D) side."""
        return self.own(self.other(v))


@dataclass(frozen=True)
class IdentityCase:
    key: str
    settings: str      # "both" | "contact" | "hermitian"
    domain: str
    statement: str
    evaluator: object = field(repr=False)


def _case(key, settings, domain, statement, side=None, twin=None):
    """Register an evaluator under `key`.

    `_case(...)(fn)` registers fn(ctx); `_case(...)(shape, **params)` registers
    a family's shape with this member's parameters bound. A twin evaluator
    fn(ctx, side) is registered once per side of the duality, `side` naming
    the `PointContext.sides` entry it sees. `twin`, a (key, domain,
    statement) triple, registers the w(D) side right after the D side; a twin
    whose keys are not adjacent registers its w(D) side with a later
    `_case(..., side="w(D)")(fn)`."""
    def wrap(fn, **params):
        if params:
            fn = partial(fn, **params)
        ev = fn if side is None else (lambda ctx: fn(ctx, ctx.sides[side]))
        REGISTRY.append(IdentityCase(key, settings, domain, statement, ev))
        if twin is not None:
            _case(twin[0], settings, *twin[1:], side="w(D)")(fn)
        return fn
    return wrap


def _worst(ctx, residuals):
    """Per point, the largest residual of the (residual, held) pairs held
    there: a NaN wins, and -inf marks a point where none is held."""
    worst = ctx.nowhere
    for r, held in residuals:
        worst = np.maximum(worst, np.where(held, r, -np.inf))
    return worst


REGISTRY: list[IdentityCase] = []


# -- structure-level identities ------------------------------------------------

@_case("struct.compat", "both", "X,Y ambient",
       "g(phi X, Y) = eps * g(X, phi Y)")
def _compat(ctx):
    a, b = ctx.amb
    diff = ctx.inner(ctx.apply_phi(a), b) - ctx.eps * ctx.inner(a, ctx.apply_phi(b))
    return ctx.rel(diff, a, b)


@_case("struct.contact-metric", "contact", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y) - eta(X) * eta(Y)")
def _contact_metric(ctx):
    a, b = ctx.amb
    diff = ctx.inner(ctx.apply_phi(a), ctx.apply_phi(b)) - (
        ctx.inner(a, b) - ctx.eta(a) * ctx.eta(b))
    return ctx.rel(diff, a, b)


@_case("struct.contact-isometry", "contact", "X ambient, X perp xi",
       "|phi X| = |X| for X orthogonal to xi")
def _contact_isometry(ctx):
    a = ctx.amb[0] - ctx.along_xi(ctx.eta(ctx.amb[0]))
    diff = ctx.norm(ctx.apply_phi(a)) - ctx.norm(a)
    return ctx.rel(diff, a)


@_case("struct.isometry", "hermitian", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y)")
def _isometry(ctx):
    a, b = ctx.amb
    diff = ctx.inner(ctx.apply_phi(a), ctx.apply_phi(b)) - ctx.inner(a, b)
    return ctx.rel(diff, a, b)


# -- identity families ------------------------------------------------------------------
#
# A family is one shape; each member is a `_case` row binding the shape's maps by
# name (a PointContext map "f", "w", "apply_phi", or a Side map "own", "other",
# "round_trip"), its draw pair (PointContext attributes) and its coefficient.

def _weighted(ctx, coeff, i, v):
    """c_i * v, c_i the table `coeff` ("cos2", "sin2", "sin" or "sin4" of
    theta_i) at component i and each point; v itself when `coeff` is None."""
    if coeff is None:
        return v
    c = getattr(ctx, coeff)[:, i]
    return c.reshape(c.shape + (1,) * (v.ndim - 1)) * v


def _adjoint(ctx, a, b, draws):
    """g(X, aY) = eps * g(bX, Y) on the draw pair (X, Y)."""
    x, y = (getattr(ctx, d) for d in draws)
    diff = ctx.inner(x, getattr(ctx, a)(y)) - ctx.eps * ctx.inner(getattr(ctx, b)(x), y)
    return ctx.rel(diff, x, y)


def _double_adjoint(ctx, a, b, c, draws):
    """g(abX, Y) = eps * g(bX, bY) = g(X, cbY) on the draw pair (X, Y)."""
    x, y = (getattr(ctx, d) for d in draws)
    a, b, c = getattr(ctx, a), getattr(ctx, b), getattr(ctx, c)
    lhs = ctx.inner(a(b(x)), y)
    mid = ctx.eps * ctx.inner(b(x), b(y))
    rhs = ctx.inner(x, c(b(y)))
    return np.maximum(ctx.rel(lhs - mid, x, y), ctx.rel(mid - rhs, x, y))


def _projsum_metric(ctx, m, coeff, proper_only=False):
    """g(mX, mY) = sum_i c_i * g(pr_i X, pr_i Y) for X, Y in D, i over all
    components (or the proper ones)."""
    x, y = ctx.x_d, ctx.y_d
    comps = ctx.proper if proper_only else range(len(ctx.cx))
    total = sum(_weighted(ctx, coeff, i, ctx.inner(ctx.pr(i, x), ctx.pr(i, y))) for i in comps)
    m = getattr(ctx, m)
    return ctx.rel(ctx.inner(m(x), m(y)) - total, x, y)


def _projsum_vector(ctx, b, coeff):
    """fbX = eps * sum_i c_i * pr_i X for X in D; terms with c_i = 0 at every
    point (such as sin^2 on D_0) are left out."""
    x = ctx.x_d
    c = getattr(ctx, coeff)
    total = np.zeros_like(x)
    for i in range(c.shape[1]):
        if np.any(c[:, i] != 0.0):
            total += c[:, i, None, None] * ctx.pr(i, x)
    return ctx.rel(ctx.norm(ctx.f(getattr(ctx, b)(x)) - ctx.eps * total), x)


def _split(ctx, a, draw, rhs=None):
    """One line of the split systems: a(fX) + a(wX) = rhs(ctx, X), or 0."""
    x = getattr(ctx, draw)
    a = getattr(ctx, a)
    diff = a(ctx.f(x)) + a(ctx.w(x))
    if rhs is not None:
        diff = diff - rhs(ctx, x)
    return ctx.rel(ctx.norm(diff), x)


def _eps_horizontal(ctx, x):
    """eps * (X - eta(X) xi), eps * X without xi."""
    return ctx.eps * (x - (ctx.along_xi(ctx.eta(x)) if ctx.contact else 0.0))


def _gside_vector(ctx, b, coeff):
    """wbU = eps * sum_i c_i * U_i for U in w(D)."""
    if not ctx.wu:
        return ctx.nowhere
    target = ctx.eps * sum(_weighted(ctx, coeff, i, ctx.wu[slot])
                           for slot, i in enumerate(ctx.proper))
    return ctx.rel(ctx.norm(ctx.w(getattr(ctx, b)(ctx.u_w)) - target), ctx.u_w)


def _gside_metric(ctx, m, coeff):
    """g(mU, mV) = sum_i c_i * g(U_i, V_i) for U, V in w(D)."""
    if not ctx.wu:
        return ctx.nowhere
    total = sum(_weighted(ctx, coeff, i, ctx.inner(ctx.wu[slot], ctx.wv[slot]))
                for slot, i in enumerate(ctx.proper))
    m = getattr(ctx, m)
    return ctx.rel(ctx.inner(m(ctx.u_w), m(ctx.v_w)) - total, ctx.u_w, ctx.v_w)


def _component_metric(ctx, side, m, coeff):
    """g(mX_i, mY_i) = c_i * g(X_i, Y_i) on each proper component of the side."""
    m = getattr(side, m)
    return _worst(ctx, ((ctx.rel(ctx.inner(m(x), m(y))
                                 - _weighted(ctx, coeff, i, ctx.inner(x, y)), x, y), held)
                        for i, x, y, held in ctx.components(side)))


def _component_angle(ctx, side, m):
    """cos<(mX_i, mY_i) = cos<(X_i, Y_i) on each proper component with
    theta_i > 0."""
    m = getattr(side, m)
    return _worst(ctx, ((ctx.cos_diff(m(x), m(y), x, y), held)
                        for _, x, y, held in ctx.components(side, lambda c, s: s > PI2_TOL)))


def _summed_metric(ctx, side, m, coeff):
    """g(mX, mY) = sum_i c_i * g(X_i, Y_i) for X, Y in the side's proper sum."""
    if not side.xs:
        return ctx.nowhere
    total = sum(_weighted(ctx, coeff, i, ctx.inner(x, y))
                for i, x, y, _ in ctx.components(side))
    m = getattr(side, m)
    return ctx.rel(ctx.inner(m(side.x), m(side.y)) - total, side.x, side.y)


def _summed_angle(ctx, side, m, coeff):
    """cos<(mX, mY) = cos<(sum_i c_i X_i, sum_i c_i Y_i) for X, Y in the
    side's proper sum."""
    if not side.xs:
        return ctx.nowhere
    m = getattr(side, m)
    lhs = ctx.cos_angle(m(side.x), m(side.y))   # first: fewer (P, n, t) stacks held at once
    comps = ctx.components(side)
    sx = sum(_weighted(ctx, coeff, i, x) for i, x, _, _ in comps)
    sy = sum(_weighted(ctx, coeff, i, y) for i, _, y, _ in comps)
    return np.max(np.abs(lhs - ctx.cos_angle(sx, sy)), axis=-1)


# -- skew/self-adjointness of f and w -------------------------------------------------------------

# draw pairs: X,Y in D; X in D, U in D-perp; U,V in D-perp
_XY, _XU, _UV = ("x_d", "y_d"), ("x_d", "u_perp"), ("u_perp", "v_perp")

_case("adj.f-on-d", "both", "X,Y in D", "g(X, fY) = eps * g(fX, Y)")(
    _adjoint, a="f", b="f", draws=_XY)
_case("adj.f-vs-w", "both", "X in D, U in D-perp", "g(X, fU) = eps * g(wX, U)")(
    _adjoint, a="f", b="w", draws=_XU)
_case("adj.w-on-perp", "both", "U,V in D-perp", "g(U, wV) = eps * g(wU, V)")(
    _adjoint, a="w", b="w", draws=_UV)
_case("adj2.f-square", "both", "X,Y in D", "g(f2X, Y) = eps * g(fX, fY) = g(X, f2Y)")(
    _double_adjoint, a="f", b="f", c="f", draws=_XY)
_case("adj2.fw-on-d", "both", "X,Y in D", "g(fwX, Y) = eps * g(wX, wY) = g(X, fwY)")(
    _double_adjoint, a="f", b="w", c="f", draws=_XY)
_case("adj2.wf-on-perp", "both", "U,V in D-perp",
      "g(wfU, V) = eps * g(fU, fV) = g(U, wfV)")(
    _double_adjoint, a="w", b="f", c="w", draws=_UV)
_case("adj2.w-square-perp", "both", "U,V in D-perp",
      "g(w2U, V) = eps * g(wU, wV) = g(U, w2V)")(
    _double_adjoint, a="w", b="w", c="w", draws=_UV)
_case("adj2.wf-cross", "both", "X in D, U in D-perp",
      "g(wfX, U) = eps * g(fX, fU) = g(X, f2U)")(
    _double_adjoint, a="w", b="f", c="f", draws=_XU)
_case("adj2.w-square-cross", "both", "X in D, U in D-perp",
      "g(w2X, U) = eps * g(wX, wU) = g(X, fwU)")(
    _double_adjoint, a="w", b="w", c="f", draws=_XU)

# -- projector-sum identities on D ----------------------------------------------

_case("dsum.metric.phi", "both", "X,Y in D", "g(phi X, phi Y) = sum_i g(pr_i X, pr_i Y)")(
    _projsum_metric, m="apply_phi", coeff=None)
_case("dsum.metric.f", "both", "X,Y in D",
      "g(fX, fY) = sum_i cos^2(theta_i) * g(pr_i X, pr_i Y)")(
    _projsum_metric, m="f", coeff="cos2")
_case("dsum.metric.w", "both", "X,Y in D",
      "g(wX, wY) = sum_{i>=1} sin^2(theta_i) * g(pr_i X, pr_i Y)")(
    _projsum_metric, m="w", coeff="sin2", proper_only=True)
_case("f2.projsum", "both", "X in D", "f2X = eps * sum_i cos^2(theta_i) * pr_i X")(
    _projsum_vector, b="f", coeff="cos2")
_case("fw.projsum", "both", "X in D", "fwX = eps * sum_{i>=1} sin^2(theta_i) * pr_i X")(
    _projsum_vector, b="w", coeff="sin2")

# -- the four-line split systems --------------------------------------------------

_case("split.d", "both", "X in D (+ <xi> when contact)",
      "f2X + fwX = eps * (X - eta(X) xi)")(_split, a="f", draw="x_dxi", rhs=_eps_horizontal)
_case("split.d2", "both", "X in D (+ <xi> when contact)", "wfX + w2X = 0")(
    _split, a="w", draw="x_dxi")
_case("split.g", "both", "U in G", "f2U + fwU = 0")(_split, a="f", draw="u_g")
_case("split.g2", "both", "U in G", "wfU + w2U = eps * U")(
    _split, a="w", draw="u_g", rhs=lambda ctx, u: ctx.eps * u)

# -- w^2 on components -------------------------------------------------------------

@_case("w2.component", "both", "X_i in D_i",
       "w2(D_i) inside w(D_i); w2(D_i) = 0 when theta_i = pi/2")
def _w2comp(ctx):
    def residual(i, x, b):
        w2 = ctx.w(ctx.w(x))
        right = np.abs(ctx.sin2[:, i] - 1.0) <= PI2_TOL
        outside = ctx.rel(ctx.norm(w2 - b @ (np.swapaxes(b, -1, -2) @ w2)), x)
        return np.where(right, ctx.rel(ctx.norm(w2), x), outside), ctx.everywhere

    return _worst(ctx, (residual(i, ctx.cx[i], b) for i, b in zip(ctx.proper, ctx.duals)))


# -- norm relations ------------------------------------------------------------------

@_case("norm.f-sum", "both", "X in D",
       "|fX|^2 = sum_i cos^2(theta_i) * |X_i|^2")
def _nfsum(ctx):
    x = ctx.x_d
    total = sum(_weighted(ctx, "cos2", i, ctx.inner(cx, cx)) for i, cx in enumerate(ctx.cx))
    diff = ctx.inner(ctx.f(x), ctx.f(x)) - total
    return ctx.rel(diff, x, x)


@_case("norm.w-dualsum", "both", "U in w(D)",
       "|wU|^2 = sum_i cos^2(theta_i) * |U_i|^2")
def _nwdual(ctx):
    if not ctx.wu:
        return ctx.nowhere
    u = ctx.u_w
    total = sum(_weighted(ctx, "cos2", i, ctx.inner(ctx.wu[slot], ctx.wu[slot]))
                for slot, i in enumerate(ctx.proper))
    diff = ctx.inner(ctx.w(u), ctx.w(u)) - total
    return ctx.rel(diff, u, u)


@_case("norm.f-invariant", "both", "X_0 in D_0", "|fX_0| = |X_0|", side="D")
def _norm_invariant(ctx, side):
    if side.x0 is None:
        return ctx.nowhere
    diff = ctx.norm(side.own(side.x0)) - ctx.norm(side.x0)
    return ctx.rel(diff, side.x0)


@_case("norm.wx-sin", "both", "X_i in D_i", "|wX_i| = sin(theta_i) * |X_i|", side="D",
       twin=("norm.fu-sin", "U_i in w(D_i)", "|fU_i| = sin(theta_i) * |U_i|"))
def _norm_sin(ctx, side):
    return _worst(ctx, ((ctx.rel(ctx.norm(side.other(x)) - _weighted(ctx, "sin", i, ctx.norm(x)),
                                 x), held) for i, x, _, held in ctx.components(side)))


@_case("norm.wx-sumsq", "both", "X in sum of proper D_i",
       "|wX|^2 = sum_i sin^2(theta_i) * |X_i|^2", side="D",
       twin=("norm.fu-sumsq", "U in w(D)", "|fU|^2 = sum_i sin^2(theta_i) * |U_i|^2"))
def _norm_sumsq(ctx, side):
    if not side.xs:
        return ctx.nowhere
    total = sum(_weighted(ctx, "sin2", i, ctx.inner(x, x))
                for i, x, _, _ in ctx.components(side))
    ox = side.other(side.x)
    return ctx.rel(ctx.inner(ox, ox) - total, side.x, side.x)


# -- angle (conformality) relations -----------------------------------------------

def _own_and_phi_conformal(ctx, side, x, y):
    """Angle change of (x, y) under the side's own map and under phi."""
    return np.maximum(ctx.cos_diff(side.own(x), side.own(y), x, y),
                      ctx.cos_diff(ctx.apply_phi(x), ctx.apply_phi(y), x, y))


@_case("angle.f-invariant", "both", "X_0, Y_0 in D_0",
       "cos<(fX_0, fY_0) = cos<(phi X_0, phi Y_0) = cos<(X_0, Y_0)", side="D")
def _angle_invariant(ctx, side):
    if side.x0 is None:
        return ctx.nowhere
    return _own_and_phi_conformal(ctx, side, side.x0, side.y0)


@_case("angle.f-slant", "both", "X_i, Y_i in D_i, theta_i < pi/2",
       "cos<(fX_i, fY_i) = cos<(phi X_i, phi Y_i) = cos<(X_i, Y_i)", side="D")
def _angle_slant(ctx, side):
    return _worst(ctx, ((_own_and_phi_conformal(ctx, side, x, y), held)
                        for _, x, y, held in ctx.components(side, lambda c, s: c > PI2_TOL)))


_case("dual.w-metric-cos2", "both", "U_i, V_i in w(D_i)",
      "g(wU_i, wV_i) = cos^2(theta_i) * g(U_i, V_i)", side="w(D)")(
    _component_metric, m="own", coeff="cos2")
_case("angle.w-h", "both", "U_0, V_0 in H",
      "cos<(wU_0, wV_0) = cos<(U_0, V_0) = cos<(phi U_0, phi V_0)",
      side="w(D)")(_angle_invariant)
_case("angle.w-dual", "both", "U_i, V_i in w(D_i), theta_i < pi/2",
      "cos<(wU_i, wV_i) = cos<(U_i, V_i) = cos<(phi U_i, phi V_i)",
      side="w(D)")(_angle_slant)


@_case("angle.phi-dg", "both", "Z, W in D + G",
       "cos<(phi Z, phi W) = cos<(Z, W)")
def _aphidg(ctx):
    z, w = ctx.x_d + ctx.u_g, ctx.y_d + ctx.v_g
    return ctx.cos_diff(ctx.apply_phi(z), ctx.apply_phi(w), z, w)


_case("dual.wx-metric-sin2", "both", "X_i, Y_i in D_i",
      "g(wX_i, wY_i) = sin^2(theta_i) * g(X_i, Y_i)", side="D",
      twin=("dual.fu-metric-sin2", "U_i, V_i in w(D_i)",
            "g(fU_i, fV_i) = sin^2(theta_i) * g(U_i, V_i)"))(
    _component_metric, m="other", coeff="sin2")
_case("angle.wx-conformal", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(wX_i, wY_i) = cos<(X_i, Y_i)", side="D",
      twin=("angle.fu-conformal", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(fU_i, fV_i) = cos<(U_i, V_i)"))(_component_angle, m="other")

# -- summed relations across components ----------------------------------------------

_case("sum.w-metric", "both", "X, Y in sum of proper D_i",
      "g(wX, wY) = sum_i sin^2(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sum.f-metric", "U, V in w(D)",
            "g(fU, fV) = sum_i sin^2(theta_i) * g(U_i, V_i)"))(
    _summed_metric, m="other", coeff="sin2")
_case("sum.w-angle", "both", "X, Y in sum of proper D_i",
      "cos<(wX, wY) = cos<(sum sin(theta_i) X_i, sum sin(theta_i) Y_i)", side="D",
      twin=("sum.f-angle", "U, V in w(D)",
            "cos<(fU, fV) = cos<(sum sin(theta_i) U_i, sum sin(theta_i) V_i)"))(
    _summed_angle, m="other", coeff="sin")


def _all_positive_sin(ctx):
    """(P,) mask of the points where every proper theta_i > 0."""
    return np.all(ctx.sin[:, ctx.proper] > PI2_TOL, axis=1)


@_case("invsin.x-metric", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "g(X, Y) = sum_i g(wX_i, wY_i) / sin^2(theta_i)", side="D",
       twin=("invsin.u-metric", "U, V in w(D), theta_i > 0",
             "g(U, V) = sum_i g(fU_i, fV_i) / sin^2(theta_i)"))
def _invsin_metric(ctx, side):
    held = _all_positive_sin(ctx)
    if not side.xs or not held.any():
        return ctx.nowhere
    total = sum(ctx.inner(side.other(x), side.other(y)) / ctx.sin2[:, i, None]
                for i, x, y, _ in ctx.components(side))
    return _worst(ctx, [(ctx.rel(ctx.inner(side.x, side.y) - total, side.x, side.y), held)])


@_case("invsin.x-angle", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "cos<(X, Y) = cos<(sum wX_i / sin(theta_i), sum wY_i / sin(theta_i))", side="D",
       twin=("invsin.u-angle", "U, V in w(D), theta_i > 0",
             "cos<(U, V) = cos<(sum fU_i / sin(theta_i), sum fV_i / sin(theta_i))"))
def _invsin_angle(ctx, side):
    held = _all_positive_sin(ctx)
    if not side.xs or not held.any():
        return ctx.nowhere
    comps = ctx.components(side)
    sx = sum(side.other(x) / ctx.sin[:, i, None, None] for i, x, _, _ in comps)
    sy = sum(side.other(y) / ctx.sin[:, i, None, None] for i, _, y, _ in comps)
    return _worst(ctx, [(ctx.cos_diff(side.x, side.y, sx, sy), held)])


# -- sin^4 corollaries ------------------------------------------------------------

_case("sin4.fw-metric", "both", "X_i, Y_i in D_i",
      "g(fwX_i, fwY_i) = sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4.wf-metric", "U_i, V_i in w(D_i)",
            "g(wfU_i, wfV_i) = sin^4(theta_i) * g(U_i, V_i)"))(
    _component_metric, m="round_trip", coeff="sin4")
_case("sin4.fw-angle", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(fwX_i, fwY_i) = cos<(X_i, Y_i)", side="D",
      twin=("sin4.wf-angle", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(wfU_i, wfV_i) = cos<(U_i, V_i)"))(_component_angle, m="round_trip")
_case("sin4sum.fw-metric", "both", "X, Y in sum of proper D_i",
      "g(fwX, fwY) = sum_i sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4sum.wf-metric", "U, V in w(D)",
            "g(wfU, wfV) = sum_i sin^4(theta_i) * g(U_i, V_i)"))(
    _summed_metric, m="round_trip", coeff="sin4")
_case("sin4sum.fw-angle", "both", "X, Y in sum of proper D_i",
      "cos<(fwX, fwY) = cos<(sum sin^2(theta_i) X_i, sum sin^2(theta_i) Y_i)", side="D",
      twin=("sin4sum.wf-angle", "U, V in w(D)",
            "cos<(wfU, wfV) = cos<(sum sin^2(theta_i) U_i, sum sin^2(theta_i) V_i)"))(
    _summed_angle, m="round_trip", coeff="sin2")

# -- G-side component sums ---------------------------------------------------------

_case("gside.wf-projsum", "both", "U in w(D)", "wfU = eps * sum_i sin^2(theta_i) * U_i")(
    _gside_vector, b="f", coeff="sin2")
_case("gside.w2-projsum", "both", "U in w(D)", "w2U = eps * sum_i cos^2(theta_i) * U_i")(
    _gside_vector, b="w", coeff="cos2")
_case("gside.metric.w", "both", "U, V in w(D)",
      "g(wU, wV) = sum_i cos^2(theta_i) * g(U_i, V_i)")(_gside_metric, m="w", coeff="cos2")
_case("gside.metric.phi", "both", "U, V in w(D)", "g(phi U, phi V) = sum_i g(U_i, V_i)")(
    _gside_metric, m="apply_phi", coeff=None)


# -- H relations ----------------------------------------------------------------------

@_case("h.w2", "both", "U_0 in H", "w2U_0 = eps * U_0")
def _hw2(ctx):
    if ctx.u_h is None:
        return ctx.nowhere
    return ctx.rel(ctx.norm(ctx.w(ctx.w(ctx.u_h)) - ctx.eps * ctx.u_h), ctx.u_h)


@_case("h.metric", "both", "U_0, V_0 in H", "g(wU_0, wV_0) = g(U_0, V_0)")
def _hm(ctx):
    if ctx.u_h is None:
        return ctx.nowhere
    diff = ctx.inner(ctx.w(ctx.u_h), ctx.w(ctx.v_h)) - ctx.inner(ctx.u_h, ctx.v_h)
    return ctx.rel(diff, ctx.u_h, ctx.v_h)


_case("h.norm", "both", "U_0 in H", "|wU_0| = |U_0|", side="w(D)")(_norm_invariant)


# -- the right-angle special case -------------------------------------------------------------

@_case("pi2.fw", "both", "X_j in D_j with theta_j = pi/2", "fwX_j = eps * X_j", side="D",
       twin=("pi2.wf", "U_j in w(D_j) with theta_j = pi/2", "wfU_j = eps * U_j"))
def _pi2(ctx, side):
    return _worst(ctx, ((ctx.rel(ctx.norm(side.round_trip(x) - ctx.eps * x), x), held)
                        for _, x, _, held in ctx.components(
                            side, lambda c, s: abs(s - 1.0) <= PI2_TOL)))

