"""Exhaustive identity suite and the flat-ambient connection criteria.

Every identity carries a stable key in REGISTRY; the checked-in manifest
(taxonomy module) mirrors the key list, so coverage changes are visible
diffs. Each case evaluates both sides of its identity on seeded random
vectors drawn in the relevant subspaces at each sample point and reports the
worst relative residual. Keys whose setting does not match the structure
kind report "skipped(setting)"; keys quantified over an empty domain at all
sampled points (no invariant remainder H, no right-angle component) report
"skipped(vacuous)".

The paper proves most identities twice: once on the proper components D_i
with f and w, and once on their duals w(D_i) with the roles of f and w
swapped and the invariant part D_0 replaced by H. Each such twin pair is one
evaluator fn(ctx, side) registered under both keys; `PointContext.sides`
holds the two `Side`s ("D" and "w(D)") it runs on. Identities whose D side
sums over D_0 through projectors are not twins and keep their own evaluators.

The paper also proves its relations in families (the adjointness formulae,
the split systems, the cos^2/sin^2/sin^4 metric and angle relations). Each
family is one shape function; its members are `_case` rows that bind the
maps, the draw pair and the coefficient (table in docs/taxonomy.md):

    _adjoint           g(X, aY) = eps g(bX, Y)                   adj.*
    _double_adjoint    g(abX, Y) = eps g(bX, bY) = g(X, cbY)     adj2.*
    _projsum_metric    g(mX, mY) = sum_i c_i g(pr_i X, pr_i Y)    dsum.metric.*
    _projsum_vector    fbX = eps sum_i c_i pr_i X                f2.projsum, fw.projsum
    _split             a(fX) + a(wX) = rhs                       split.*
    _gside_vector      wbU = eps sum_i c_i U_i                   gside.*-projsum
    _gside_metric      g(mU, mV) = sum_i c_i g(U_i, V_i)         gside.metric.*
    _component_metric  g(mX_i, mY_i) = c_i g(X_i, Y_i)           on a Side
    _component_angle   cos<(mX_i, mY_i) = cos<(X_i, Y_i)         on a Side
    _summed_metric     g(mX, mY) = sum_i c_i g(X_i, Y_i)         on a Side
    _summed_angle      cos<(mX, mY) = cos<(sum c_i X_i, sum c_i Y_i)   on a Side

The connection criteria probe the flat-ambient covariant derivative of the
restricted endomorphism square by central differences within the submanifold
mask, and cross-tabulate the derivative verdicts against the classifier's
constancy verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classifier import classify, single_cluster_lambda
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, PointFrame
from .errors import SpecError, UnsupportedError
from .sampling import DEFAULT_SEED, rng_for

PI2_TOL = 1e-8
TINY = 1e-300


class PointContext:
    """Frame, dual slice, trig data, and seeded draws at one sample point."""

    def __init__(self, dec: Decomposition, point, trials: int, seed: int, pidx: int,
                 tolerances: Tolerances = DEFAULT_TOLERANCES):
        self.frame = dec.frame_at(point)
        self.dual = self.frame.dual()
        f = self.frame
        self.eps = f.epsilon
        self.contact = f.xi is not None
        ncomp = len(f.bases)
        inv = f.invariant_index
        self.cos2 = np.ones(ncomp)
        for i, lam in _lambdas(f, f.proper_indices, tolerances).items():
            self.cos2[i] = min(max(self.eps * lam, 0.0), 1.0)
        self.sin2 = 1.0 - self.cos2
        self.cos = np.sqrt(self.cos2)
        self.sin = np.sqrt(self.sin2)
        self.proper = f.proper_indices
        rng = rng_for(seed, 997, pidx)
        n = f.g.shape[0]
        t = trials
        norm = rng.standard_normal
        self.amb = (norm((n, t)), norm((n, t)))
        self.cx = [f.bases[i] @ norm((f.bases[i].shape[1], t)) for i in range(ncomp)]
        self.cy = [f.bases[i] @ norm((f.bases[i].shape[1], t)) for i in range(ncomp)]
        self.x_d = sum(self.cx) if ncomp else np.zeros((n, t))
        self.y_d = sum(self.cy) if ncomp else np.zeros((n, t))
        m = f.basis_perp.shape[1]
        self.u_perp = f.basis_perp @ norm((m, t)) if m else np.zeros((n, t))
        self.v_perp = f.basis_perp @ norm((m, t)) if m else np.zeros((n, t))
        gdim = f.basis_g.shape[1]
        self.u_g = f.basis_g @ norm((gdim, t)) if gdim else np.zeros((n, t))
        self.v_g = f.basis_g @ norm((gdim, t)) if gdim else np.zeros((n, t))
        self.wu = []
        self.wv = []
        for b in self.dual.duals:
            self.wu.append(b @ norm((b.shape[1], t)))
            self.wv.append(b @ norm((b.shape[1], t)))
        self.u_w = sum(self.wu) if self.wu else np.zeros((n, t))
        self.v_w = sum(self.wv) if self.wv else np.zeros((n, t))
        h = self.dual.h_basis
        self.u_h = h @ norm((h.shape[1], t)) if h.shape[1] else None
        self.v_h = h @ norm((h.shape[1], t)) if h.shape[1] else None
        self.x_dxi, self.y_dxi = self.x_d, self.y_d
        if self.contact:
            self.x_dxi = self.x_d + np.outer(f.xi_unit, norm(t))
            self.y_dxi = self.y_d + np.outer(f.xi_unit, norm(t))
        self.z_dg = self.x_d + self.u_g
        self.w_dg = self.y_d + self.v_g
        xs = [self.cx[i] for i in self.proper]
        ys = [self.cy[i] for i in self.proper]
        d0 = inv is not None
        self.sides = {
            "D": Side(f.f, f.w, xs, ys, sum(xs) if xs else np.zeros((n, t)),
                      sum(ys) if ys else np.zeros((n, t)),
                      self.cx[inv] if d0 else None, self.cy[inv] if d0 else None),
            "w(D)": Side(f.w, f.f, self.wu, self.wv, self.u_w, self.v_w,
                         self.u_h, self.v_h),
        }

    # residual helpers ------------------------------------------------------

    def rel(self, diff, a, b=None):
        """max |diff| / (|a| [,*|b|]) over the trial batch."""
        f = self.frame
        scale = f.norm(a)
        if b is not None:
            scale = scale * f.norm(b)
        return float(np.max(np.abs(diff) / np.maximum(scale, TINY)))

    def vec_rel(self, diff_vecs, a):
        f = self.frame
        return float(np.max(f.norm(diff_vecs) / np.maximum(f.norm(a), TINY)))

    def eta(self, v):
        return self.frame.inner(v, self.frame.xi_unit[:, None])

    def components(self, side, pred=None):
        """(i, X_i, Y_i) over the side's proper components, keeping those
        whose (cos, sin)(theta_i) satisfy `pred` when one is given."""
        return [(i, side.xs[slot], side.ys[slot]) for slot, i in enumerate(self.proper)
                if pred is None or pred(self.cos[i], self.sin[i])]


@dataclass(frozen=True)
class Side:
    """One side of the D_i <-> w(D_i) duality at a point.

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


def _worst(residuals):
    """Largest per-component residual; None when no component was quantified."""
    return max(residuals, default=None)


REGISTRY: list[IdentityCase] = []


# -- structure-level identities ------------------------------------------------

@_case("struct.compat", "both", "X,Y ambient",
       "g(phi X, Y) = eps * g(X, phi Y)")
def _compat(ctx):
    f = ctx.frame
    a, b = ctx.amb
    diff = f.inner(f.apply_phi(a), b) - ctx.eps * f.inner(a, f.apply_phi(b))
    return ctx.rel(diff, a, b)


@_case("struct.contact-metric", "contact", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y) - eta(X) * eta(Y)")
def _contact_metric(ctx):
    f = ctx.frame
    a, b = ctx.amb
    diff = f.inner(f.apply_phi(a), f.apply_phi(b)) - (
        f.inner(a, b) - ctx.eta(a) * ctx.eta(b))
    return ctx.rel(diff, a, b)


@_case("struct.contact-isometry", "contact", "X ambient, X perp xi",
       "|phi X| = |X| for X orthogonal to xi")
def _contact_isometry(ctx):
    f = ctx.frame
    a = ctx.amb[0] - np.outer(ctx.frame.xi_unit, ctx.eta(ctx.amb[0]))
    diff = f.norm(f.apply_phi(a)) - f.norm(a)
    return ctx.rel(diff, a)


@_case("struct.isometry", "hermitian", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y)")
def _isometry(ctx):
    f = ctx.frame
    a, b = ctx.amb
    diff = f.inner(f.apply_phi(a), f.apply_phi(b)) - f.inner(a, b)
    return ctx.rel(diff, a, b)


# -- identity families ------------------------------------------------------------------
#
# A family is one shape; each member is a `_case` row binding the shape's maps by
# name (a PointFrame method "f", "w", "apply_phi", or a Side map "own", "other",
# "round_trip"), its draw pair (PointContext attributes) and its coefficient.

def _weighted(ctx, coeff, i, v):
    """c_i * v, c_i the coefficient `coeff` of component i: "cos2", "sin2",
    "sin" or "sin4" of theta_i; v itself when `coeff` is None."""
    if coeff is None:
        return v
    return (ctx.sin2[i] ** 2 if coeff == "sin4" else getattr(ctx, coeff)[i]) * v


def _cos_diff(f, a, b, c, d):
    return float(np.max(np.abs(f.cos_angle(a, b) - f.cos_angle(c, d))))


def _adjoint(ctx, a, b, draws):
    """g(X, aY) = eps * g(bX, Y) on the draw pair (X, Y)."""
    f = ctx.frame
    x, y = (getattr(ctx, d) for d in draws)
    diff = f.inner(x, getattr(f, a)(y)) - ctx.eps * f.inner(getattr(f, b)(x), y)
    return ctx.rel(diff, x, y)


def _double_adjoint(ctx, a, b, c, draws):
    """g(abX, Y) = eps * g(bX, bY) = g(X, cbY) on the draw pair (X, Y)."""
    f = ctx.frame
    x, y = (getattr(ctx, d) for d in draws)
    a, b, c = getattr(f, a), getattr(f, b), getattr(f, c)
    lhs = f.inner(a(b(x)), y)
    mid = ctx.eps * f.inner(b(x), b(y))
    rhs = f.inner(x, c(b(y)))
    return max(ctx.rel(lhs - mid, x, y), ctx.rel(mid - rhs, x, y))


def _projsum_metric(ctx, m, coeff, proper_only=False):
    """g(mX, mY) = sum_i c_i * g(pr_i X, pr_i Y) for X, Y in D, i over all
    components (or the proper ones)."""
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    comps = ctx.proper if proper_only else range(len(f.bases))
    total = sum(_weighted(ctx, coeff, i, f.inner(f.pr(i, x), f.pr(i, y))) for i in comps)
    m = getattr(f, m)
    return ctx.rel(f.inner(m(x), m(y)) - total, x, y)


def _projsum_vector(ctx, b, coeff):
    """fbX = eps * sum_i c_i * pr_i X for X in D; terms with c_i = 0 (such as
    sin^2 on D_0) are left out."""
    f = ctx.frame
    x = ctx.x_d
    c = getattr(ctx, coeff)
    total = np.zeros_like(x)
    for i in range(len(f.bases)):
        if c[i] != 0.0:
            total += c[i] * f.pr(i, x)
    return ctx.vec_rel(f.f(getattr(f, b)(x)) - ctx.eps * total, x)


def _split(ctx, a, draw, rhs=None):
    """One line of the split systems: a(fX) + a(wX) = rhs(ctx, X), or 0."""
    f = ctx.frame
    x = getattr(ctx, draw)
    a = getattr(f, a)
    diff = a(f.f(x)) + a(f.w(x))
    if rhs is not None:
        diff = diff - rhs(ctx, x)
    return ctx.vec_rel(diff, x)


def _eps_horizontal(ctx, x):
    """eps * (X - eta(X) xi), eps * X without xi."""
    return ctx.eps * (x - (np.outer(ctx.frame.xi_unit, ctx.eta(x)) if ctx.contact else 0.0))


def _gside_vector(ctx, b, coeff):
    """wbU = eps * sum_i c_i * U_i for U in w(D)."""
    if not ctx.wu:
        return None
    f = ctx.frame
    target = ctx.eps * sum(_weighted(ctx, coeff, i, ctx.wu[slot])
                           for slot, i in enumerate(ctx.proper))
    return ctx.vec_rel(f.w(getattr(f, b)(ctx.u_w)) - target, ctx.u_w)


def _gside_metric(ctx, m, coeff):
    """g(mU, mV) = sum_i c_i * g(U_i, V_i) for U, V in w(D)."""
    if not ctx.wu:
        return None
    f = ctx.frame
    total = sum(_weighted(ctx, coeff, i, f.inner(ctx.wu[slot], ctx.wv[slot]))
                for slot, i in enumerate(ctx.proper))
    m = getattr(f, m)
    return ctx.rel(f.inner(m(ctx.u_w), m(ctx.v_w)) - total, ctx.u_w, ctx.v_w)


def _component_metric(ctx, side, m, coeff):
    """g(mX_i, mY_i) = c_i * g(X_i, Y_i) on each proper component of the side."""
    f = ctx.frame
    m = getattr(side, m)
    return _worst(ctx.rel(f.inner(m(x), m(y)) - _weighted(ctx, coeff, i, f.inner(x, y)),
                          x, y)
                  for i, x, y in ctx.components(side))


def _component_angle(ctx, side, m):
    """cos<(mX_i, mY_i) = cos<(X_i, Y_i) on each proper component with
    theta_i > 0."""
    f = ctx.frame
    m = getattr(side, m)
    return _worst(_cos_diff(f, m(x), m(y), x, y)
                  for _, x, y in ctx.components(side, lambda c, s: s > PI2_TOL))


def _summed_metric(ctx, side, m, coeff):
    """g(mX, mY) = sum_i c_i * g(X_i, Y_i) for X, Y in the side's proper sum."""
    if not side.xs:
        return None
    f = ctx.frame
    total = sum(_weighted(ctx, coeff, i, f.inner(x, y)) for i, x, y in ctx.components(side))
    m = getattr(side, m)
    return ctx.rel(f.inner(m(side.x), m(side.y)) - total, side.x, side.y)


def _summed_angle(ctx, side, m, coeff):
    """cos<(mX, mY) = cos<(sum_i c_i X_i, sum_i c_i Y_i) for X, Y in the
    side's proper sum."""
    if not side.xs:
        return None
    comps = ctx.components(side)
    sx = sum(_weighted(ctx, coeff, i, x) for i, x, _ in comps)
    sy = sum(_weighted(ctx, coeff, i, y) for i, _, y in comps)
    m = getattr(side, m)
    return _cos_diff(ctx.frame, m(side.x), m(side.y), sx, sy)


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
    f = ctx.frame

    def residual(i, x, b):
        w2 = f.w(f.w(x))
        if abs(ctx.sin2[i] - 1.0) <= PI2_TOL:
            return ctx.vec_rel(w2, x)
        return ctx.vec_rel(w2 - (b @ b.T @ f.g) @ w2, x)

    return _worst(residual(i, ctx.cx[i], b) for i, b in zip(ctx.proper, ctx.dual.duals))


# -- norm relations ------------------------------------------------------------------

@_case("norm.f-sum", "both", "X in D",
       "|fX|^2 = sum_i cos^2(theta_i) * |X_i|^2")
def _nfsum(ctx):
    f = ctx.frame
    x = ctx.x_d
    total = sum(ctx.cos2[i] * f.inner(ctx.cx[i], ctx.cx[i]) for i in range(len(f.bases)))
    diff = f.inner(f.f(x), f.f(x)) - total
    return ctx.rel(diff, x, x)


@_case("norm.w-dualsum", "both", "U in w(D)",
       "|wU|^2 = sum_i cos^2(theta_i) * |U_i|^2")
def _nwdual(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    u = ctx.u_w
    total = sum(ctx.cos2[i] * f.inner(ctx.wu[slot], ctx.wu[slot])
                for slot, i in enumerate(ctx.proper))
    diff = f.inner(f.w(u), f.w(u)) - total
    return ctx.rel(diff, u, u)


@_case("norm.f-invariant", "both", "X_0 in D_0", "|fX_0| = |X_0|", side="D")
def _norm_invariant(ctx, side):
    if side.x0 is None:
        return None
    f = ctx.frame
    diff = f.norm(side.own(side.x0)) - f.norm(side.x0)
    return ctx.rel(diff, side.x0)


@_case("norm.wx-sin", "both", "X_i in D_i", "|wX_i| = sin(theta_i) * |X_i|", side="D",
       twin=("norm.fu-sin", "U_i in w(D_i)", "|fU_i| = sin(theta_i) * |U_i|"))
def _norm_sin(ctx, side):
    f = ctx.frame
    return _worst(ctx.rel(f.norm(side.other(x)) - ctx.sin[i] * f.norm(x), x)
                  for i, x, _ in ctx.components(side))


@_case("norm.wx-sumsq", "both", "X in sum of proper D_i",
       "|wX|^2 = sum_i sin^2(theta_i) * |X_i|^2", side="D",
       twin=("norm.fu-sumsq", "U in w(D)", "|fU|^2 = sum_i sin^2(theta_i) * |U_i|^2"))
def _norm_sumsq(ctx, side):
    if not side.xs:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] * f.inner(x, x) for i, x, _ in ctx.components(side))
    ox = side.other(side.x)
    return ctx.rel(f.inner(ox, ox) - total, side.x, side.x)


# -- angle (conformality) relations -----------------------------------------------

def _own_and_phi_conformal(ctx, side, x, y):
    """Angle change of (x, y) under the side's own map and under phi."""
    f = ctx.frame
    return max(_cos_diff(f, side.own(x), side.own(y), x, y),
               _cos_diff(f, f.apply_phi(x), f.apply_phi(y), x, y))


@_case("angle.f-invariant", "both", "X_0, Y_0 in D_0",
       "cos<(fX_0, fY_0) = cos<(phi X_0, phi Y_0) = cos<(X_0, Y_0)", side="D")
def _angle_invariant(ctx, side):
    if side.x0 is None:
        return None
    return _own_and_phi_conformal(ctx, side, side.x0, side.y0)


@_case("angle.f-slant", "both", "X_i, Y_i in D_i, theta_i < pi/2",
       "cos<(fX_i, fY_i) = cos<(phi X_i, phi Y_i) = cos<(X_i, Y_i)", side="D")
def _angle_slant(ctx, side):
    return _worst(_own_and_phi_conformal(ctx, side, x, y)
                  for _, x, y in ctx.components(side, lambda c, s: c > PI2_TOL))


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
    f = ctx.frame
    return _cos_diff(f, f.apply_phi(ctx.z_dg), f.apply_phi(ctx.w_dg), ctx.z_dg, ctx.w_dg)


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
    return all(ctx.sin[i] > PI2_TOL for i in ctx.proper)


@_case("invsin.x-metric", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "g(X, Y) = sum_i g(wX_i, wY_i) / sin^2(theta_i)", side="D",
       twin=("invsin.u-metric", "U, V in w(D), theta_i > 0",
             "g(U, V) = sum_i g(fU_i, fV_i) / sin^2(theta_i)"))
def _invsin_metric(ctx, side):
    if not side.xs or not _all_positive_sin(ctx):
        return None
    f = ctx.frame
    total = sum(f.inner(side.other(x), side.other(y)) / ctx.sin2[i]
                for i, x, y in ctx.components(side))
    return ctx.rel(f.inner(side.x, side.y) - total, side.x, side.y)


@_case("invsin.x-angle", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "cos<(X, Y) = cos<(sum wX_i / sin(theta_i), sum wY_i / sin(theta_i))", side="D",
       twin=("invsin.u-angle", "U, V in w(D), theta_i > 0",
             "cos<(U, V) = cos<(sum fU_i / sin(theta_i), sum fV_i / sin(theta_i))"))
def _invsin_angle(ctx, side):
    if not side.xs or not _all_positive_sin(ctx):
        return None
    comps = ctx.components(side)
    sx = sum(side.other(x) / ctx.sin[i] for i, x, _ in comps)
    sy = sum(side.other(y) / ctx.sin[i] for i, _, y in comps)
    return _cos_diff(ctx.frame, side.x, side.y, sx, sy)


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
        return None
    f = ctx.frame
    return ctx.vec_rel(f.w(f.w(ctx.u_h)) - ctx.eps * ctx.u_h, ctx.u_h)


@_case("h.metric", "both", "U_0, V_0 in H", "g(wU_0, wV_0) = g(U_0, V_0)")
def _hm(ctx):
    if ctx.u_h is None:
        return None
    f = ctx.frame
    diff = f.inner(f.w(ctx.u_h), f.w(ctx.v_h)) - f.inner(ctx.u_h, ctx.v_h)
    return ctx.rel(diff, ctx.u_h, ctx.v_h)


_case("h.norm", "both", "U_0 in H", "|wU_0| = |U_0|", side="w(D)")(_norm_invariant)


# -- the right-angle special case -------------------------------------------------------------

@_case("pi2.fw", "both", "X_j in D_j with theta_j = pi/2", "fwX_j = eps * X_j", side="D",
       twin=("pi2.wf", "U_j in w(D_j) with theta_j = pi/2", "wfU_j = eps * U_j"))
def _pi2(ctx, side):
    return _worst(ctx.vec_rel(side.round_trip(x) - ctx.eps * x, x)
                  for _, x, _ in ctx.components(side, lambda c, s: abs(s - 1.0) <= PI2_TOL))


_DUAL_PREFIXES = ("gside.", "h.", "dual.", "invsin.u", "sum.f-", "sin4.wf",
                  "sin4sum.wf", "norm.w-dualsum", "norm.fu", "angle.w-",
                  "angle.fu", "pi2.wf", "w2.component")

DUAL_KEYS = tuple(case.key for case in REGISTRY
                  if any(case.key.startswith(p) for p in _DUAL_PREFIXES))


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

class SuiteReport:
    def __init__(self, entries, tol, trials, seed):
        self.entries = entries
        self.tol = tol
        self.trials = trials
        self.seed = seed

    @property
    def passed(self) -> bool:
        return all(e["verdict"] != "fail" for e in self.entries)

    def failed_keys(self) -> list[str]:
        return [e["key"] for e in self.entries if e["verdict"] == "fail"]

    def entry(self, key: str) -> dict:
        for e in self.entries:
            if e["key"] == key:
                return e
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        return {"tolerance": self.tol, "trials": self.trials, "seed": self.seed,
                "passed": self.passed, "cases": self.entries}


def run_identity_suite(dec: Decomposition, points, trials: int = 50,
                       tolerances: Tolerances = DEFAULT_TOLERANCES,
                       seed: int = DEFAULT_SEED, keys=None) -> SuiteReport:
    """Evaluate every applicable registry identity at each point and report
    the worst residual per key. Report-only: never raises on a failing
    identity."""
    points = list(points)
    if not points:
        raise SpecError("identity suite needs at least one point")
    if trials < 1:
        raise SpecError("trials must be >= 1")
    tol = tolerances.identity
    setting = "contact" if dec.structure.is_contact else "hermitian"
    wanted = set(keys) if keys is not None else None
    contexts = [PointContext(dec, p, trials, seed, i, tolerances)
                for i, p in enumerate(points)]
    entries = []
    for case in REGISTRY:
        if wanted is not None and case.key not in wanted:
            continue
        entry = {"key": case.key, "setting": case.settings, "domain": case.domain,
                 "statement": case.statement, "max_residual": None,
                 "witness_point": None, "verdict": None}
        if case.settings not in ("both", setting):
            entry["verdict"] = "skipped(setting)"
            entries.append(entry)
            continue
        worst = None
        witness = None
        for ctx in contexts:
            r = case.evaluator(ctx)
            if r is None:
                continue
            if worst is None or r > worst:
                worst = r
                witness = ctx.frame.x.tolist()
        if worst is None:
            entry["verdict"] = "skipped(vacuous)"
        else:
            entry["max_residual"] = worst
            entry["witness_point"] = witness
            entry["verdict"] = "pass" if worst <= tol else "fail"
        entries.append(entry)
    return SuiteReport(entries, tol, trials, seed)


# ---------------------------------------------------------------------------
# Connection criteria (flat ambient space only)
# ---------------------------------------------------------------------------

@dataclass
class CovariantProbe:
    """Central-difference step and zero threshold of the connection probes."""
    h: float = DEFAULT_TOLERANCES.fd_step
    zero_threshold: float = DEFAULT_TOLERANCES.zero_threshold


def _require_flat_masked(dec: Decomposition, need_mask: bool = True):
    if not dec.structure.metric_is_euclidean:
        raise UnsupportedError("connection probes support the euclidean metric only")
    if need_mask and dec.mask is None:
        raise UnsupportedError("connection probes need a submanifold mask")


def _check_in_mask(dec: Decomposition, direction: np.ndarray):
    if dec.mask is None:
        return
    outside = [i for i in range(dec.structure.n) if (i + 1) not in dec.mask]
    if outside and float(np.max(np.abs(direction[outside]), initial=0.0)) > 1e-12:
        raise SpecError("probe direction leaves the submanifold mask")


def _displaced_frames(dec: Decomposition, x: np.ndarray, d: np.ndarray, h: float):
    """The frames at x + hX and x - hX of a central difference along X, built
    outside the decomposition's frame cache (they are needed once)."""
    _check_in_mask(dec, d)
    return PointFrame(dec, x + h * d), PointFrame(dec, x - h * d)


def nabla_f2(dec: Decomposition, probe: CovariantProbe, point, direction, y) -> np.ndarray:
    """(nabla_X f^2) Y in flat ambient space by central differences of the
    ambient matrix field of f^2|D, with Y extended constantly along X (any
    smooth extension gives the same value, and the constant one is free).

    `y` is one vector (n,) or the columns of an (n, r) matrix; the displaced
    fields at x +- hX are computed once for all columns."""
    _require_flat_masked(dec, need_mask=False)
    x = np.asarray(getattr(point, "coords", point), dtype=float)
    d = np.asarray(getattr(direction, "comps", direction), dtype=float)
    yv = np.asarray(getattr(y, "comps", y), dtype=float)
    if float(np.max(np.abs(d))) == 0.0:
        return np.zeros_like(yv)
    h = probe.h
    fp, fm = _displaced_frames(dec, x, d, h)
    return ((fp.f2_ambient() - fm.f2_ambient()) / (2.0 * h)) @ yv


def _lambdas(frame, indices, tolerances: Tolerances) -> dict[int, float]:
    """lambda_i at a frame for each component index in `indices`
    (`classifier.single_cluster_lambda` on its block of the frame's f^2
    Gram)."""
    return {i: single_cluster_lambda(frame, frame.dec.components[i].name,
                                     frame.f2_component(i), tolerances)
            for i in indices}


def eigenvalue_directional_derivative(dec: Decomposition, point, comp_index: int, direction,
                                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """X(lambda_i): central difference of the component's single-cluster
    eigenvalue, read at x +- hX as the trace mean of its f^2 block, with
    h = `tolerances.fd_step`."""
    h = tolerances.fd_step
    x = np.asarray(getattr(point, "coords", point), dtype=float)
    d = np.asarray(getattr(direction, "comps", direction), dtype=float)
    lam_p, lam_m = (_lambdas(frame, [comp_index], tolerances)[comp_index]
                    for frame in _displaced_frames(dec, x, d, h))
    return (lam_p - lam_m) / (2.0 * h)


def _probe_directions(frame, tm_dirs) -> list[list]:
    """The directions X of the probe at one sample point, each once, as
    [X, the components whose basis column X is, whether X is a masked
    coordinate direction]. Basis columns come first, in component order."""
    dirs: dict[tuple, list] = {}
    for ci, basis in enumerate(frame.bases):
        for col in basis.T:
            dirs.setdefault(tuple(col.tolist()), [col, set(), False])[1].add(ci)
    for d in tm_dirs:
        dirs.setdefault(tuple(d.tolist()), [d, set(), False])[2] = True
    return list(dirs.values())


def connection_criterion_report(dec: Decomposition, probe: CovariantProbe, points,
                                tolerances: Tolerances = DEFAULT_TOLERANCES,
                                seed: int = DEFAULT_SEED,
                                classification=None) -> dict:
    """Per component: (a) max |(nabla_X f^2) Y| over X, Y in D_i,
    (b) max |X(lambda_i)| over X in D_i, (c) the same over all masked
    directions; cross-tabulated against the classifier's constancy verdicts.

    Each displaced point x +- hX is visited once. Its ambient f^2 gives the
    central difference (nabla_X f^2) for every component X lies in, and
    lambda_i there for every component differentiated along X: the trace
    mean of the component's f^2 block, which is the mean of its single
    eigenvalue cluster. The displaced frame is built in full, outside the
    frame cache, and the cluster count and lambda band are still checked there
    (`classifier.single_cluster_lambda`), so a component whose cluster splits
    at x +- hX raises ComponentError.

    The hypotheses behind the underlying equivalences (covariant derivatives
    staying inside D) are sample-checked only, never certified; entries say
    "sampled" to make that explicit.
    """
    _require_flat_masked(dec)
    points = list(points)
    if classification is None:
        classification = classify(dec, points, tolerances, seed=seed)
    by_name = {e["name"]: e for e in classification.components}
    tm_dirs = dec.tm_directions()
    comps = dec.components
    every = range(len(comps))
    h = probe.h
    max_nabla = [0.0] * len(comps)
    max_dlam_in = [0.0] * len(comps)
    max_dlam_tm = [0.0] * len(comps)
    for point in points:
        frame = dec.frame_at(point)
        for d, within, along_tm in _probe_directions(frame, tm_dirs):
            fp, fm = _displaced_frames(dec, frame.x, d, h)
            checked = every if along_tm else sorted(within)
            lam_p = _lambdas(fp, checked, tolerances)
            lam_m = _lambdas(fm, checked, tolerances)
            df2 = (fp.f2_ambient() - fm.f2_ambient()) / (2.0 * h)
            for ci in within:
                val = df2 @ frame.component_basis(ci)
                max_nabla[ci] = max(max_nabla[ci],
                                    float(np.max(np.linalg.norm(val, axis=0))))
            for ci in checked:
                dl = abs((lam_p[ci] - lam_m[ci]) / (2.0 * h))
                if ci in within:
                    max_dlam_in[ci] = max(max_dlam_in[ci], dl)
                if along_tm:
                    max_dlam_tm[ci] = max(max_dlam_tm[ci], dl)
    rows = []
    consistent_all = True
    for ci, comp in enumerate(comps):
        derivative_constant = max_dlam_tm[ci] <= probe.zero_threshold
        classifier_constant = by_name[comp.name]["verdict"] in ("invariant", "slant")
        consistent = derivative_constant == classifier_constant
        consistent_all = consistent_all and consistent
        rows.append({
            "component": comp.name,
            "max_nabla_f2": max_nabla[ci],
            "max_dlambda_within": max_dlam_in[ci],
            "max_dlambda_tm": max_dlam_tm[ci],
            "derivative_constant": derivative_constant,
            "classifier_constant": classifier_constant,
            "consistent": consistent,
            "hypothesis_scope": "sampled",
        })
    return {
        "zero_threshold": probe.zero_threshold,
        "step": probe.h,
        "components": rows,
        "consistent": consistent_all,
    }
