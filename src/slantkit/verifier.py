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

The connection criteria probe the flat-ambient covariant derivative of the
restricted endomorphism square by central differences within the submanifold
mask, and cross-tabulate the derivative verdicts against the classifier's
constancy verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import classify, single_cluster_lambda
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition
from .errors import SpecError, UnsupportedError
from .linalg import complement_columns
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
        self.inv = inv
        rng = rng_for(seed, 997, pidx)
        n = f.g.shape[0]
        t = trials
        norm = rng.standard_normal
        self.amb = (norm((n, t)), norm((n, t)))
        self.cx = [f.bases[i] @ norm((f.bases[i].shape[1], t)) for i in range(ncomp)]
        self.cy = [f.bases[i] @ norm((f.bases[i].shape[1], t)) for i in range(ncomp)]
        self.x_d = sum(self.cx) if ncomp else np.zeros((n, t))
        self.y_d = sum(self.cy) if ncomp else np.zeros((n, t))
        self.basis_perp = complement_columns(f.g, f.basis_d)
        m = self.basis_perp.shape[1]
        self.u_perp = self.basis_perp @ norm((m, t)) if m else np.zeros((n, t))
        self.v_perp = self.basis_perp @ norm((m, t)) if m else np.zeros((n, t))
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
        if self.contact:
            xin = f.xi / math.sqrt(max(float(f.xi @ f.g @ f.xi), TINY))
            self.x_dxi = self.x_d + np.outer(xin, norm(t))
            self.y_dxi = self.y_d + np.outer(xin, norm(t))
            self.xi_unit = xin
        else:
            self.x_dxi = self.x_d
            self.y_dxi = self.y_d
            self.xi_unit = None
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
        return self.frame.inner(v, self.xi_unit[:, None])

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

    A twin evaluator fn(ctx, side) is registered once per side of the
    duality, `side` naming the `PointContext.sides` entry it sees. `twin`, a
    (key, domain, statement) triple, registers the w(D) side right after the
    D side; a twin whose keys are not adjacent registers its w(D) side with
    a later `_case(..., side="w(D)")(fn)`."""
    def wrap(fn):
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
    a = ctx.amb[0] - np.outer(ctx.xi_unit, ctx.eta(ctx.amb[0]))
    diff = f.norm(f.apply_phi(a)) - f.norm(a)
    return ctx.rel(diff, a)


@_case("struct.isometry", "hermitian", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y)")
def _isometry(ctx):
    f = ctx.frame
    a, b = ctx.amb
    diff = f.inner(f.apply_phi(a), f.apply_phi(b)) - f.inner(a, b)
    return ctx.rel(diff, a, b)


# -- skew/self-adjointness of f and w -------------------------------------------------------------

@_case("adj.f-on-d", "both", "X,Y in D", "g(X, fY) = eps * g(fX, Y)")
def _adj_a(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    diff = f.inner(x, f.f(y)) - ctx.eps * f.inner(f.f(x), y)
    return ctx.rel(diff, x, y)


@_case("adj.f-vs-w", "both", "X in D, U in D-perp", "g(X, fU) = eps * g(wX, U)")
def _adj_b(ctx):
    f = ctx.frame
    x, u = ctx.x_d, ctx.u_perp
    diff = f.inner(x, f.f(u)) - ctx.eps * f.inner(f.w(x), u)
    return ctx.rel(diff, x, u)


@_case("adj.w-on-perp", "both", "U,V in D-perp", "g(U, wV) = eps * g(wU, V)")
def _adj_c(ctx):
    f = ctx.frame
    u, v = ctx.u_perp, ctx.v_perp
    diff = f.inner(u, f.w(v)) - ctx.eps * f.inner(f.w(u), v)
    return ctx.rel(diff, u, v)


def _two_eq(ctx, lhs, mid, rhs, a, b):
    d1 = lhs - mid
    d2 = mid - rhs
    return max(ctx.rel(d1, a, b), ctx.rel(d2, a, b))


@_case("adj2.f-square", "both", "X,Y in D",
       "g(f2X, Y) = eps * g(fX, fY) = g(X, f2Y)")
def _adj2_a(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    return _two_eq(ctx, f.inner(f.f(f.f(x)), y), ctx.eps * f.inner(f.f(x), f.f(y)),
                   f.inner(x, f.f(f.f(y))), x, y)


@_case("adj2.fw-on-d", "both", "X,Y in D",
       "g(fwX, Y) = eps * g(wX, wY) = g(X, fwY)")
def _adj2_b(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    return _two_eq(ctx, f.inner(f.f(f.w(x)), y), ctx.eps * f.inner(f.w(x), f.w(y)),
                   f.inner(x, f.f(f.w(y))), x, y)


@_case("adj2.wf-on-perp", "both", "U,V in D-perp",
       "g(wfU, V) = eps * g(fU, fV) = g(U, wfV)")
def _adj2_c(ctx):
    f = ctx.frame
    u, v = ctx.u_perp, ctx.v_perp
    return _two_eq(ctx, f.inner(f.w(f.f(u)), v), ctx.eps * f.inner(f.f(u), f.f(v)),
                   f.inner(u, f.w(f.f(v))), u, v)


@_case("adj2.w-square-perp", "both", "U,V in D-perp",
       "g(w2U, V) = eps * g(wU, wV) = g(U, w2V)")
def _adj2_d(ctx):
    f = ctx.frame
    u, v = ctx.u_perp, ctx.v_perp
    return _two_eq(ctx, f.inner(f.w(f.w(u)), v), ctx.eps * f.inner(f.w(u), f.w(v)),
                   f.inner(u, f.w(f.w(v))), u, v)


@_case("adj2.wf-cross", "both", "X in D, U in D-perp",
       "g(wfX, U) = eps * g(fX, fU) = g(X, f2U)")
def _adj2_e(ctx):
    f = ctx.frame
    x, u = ctx.x_d, ctx.u_perp
    return _two_eq(ctx, f.inner(f.w(f.f(x)), u), ctx.eps * f.inner(f.f(x), f.f(u)),
                   f.inner(x, f.f(f.f(u))), x, u)


@_case("adj2.w-square-cross", "both", "X in D, U in D-perp",
       "g(w2X, U) = eps * g(wX, wU) = g(X, fwU)")
def _adj2_f(ctx):
    f = ctx.frame
    x, u = ctx.x_d, ctx.u_perp
    return _two_eq(ctx, f.inner(f.w(f.w(x)), u), ctx.eps * f.inner(f.w(x), f.w(u)),
                   f.inner(x, f.f(f.w(u))), x, u)


# -- projector-sum identities on D ----------------------------------------------

def _proj_sum(ctx, coeffs, vecs):
    f = ctx.frame
    out = np.zeros_like(vecs)
    for i in range(len(f.bases)):
        if coeffs[i] != 0.0:
            out += coeffs[i] * f.pr(i, vecs)
    return out


@_case("dsum.metric.phi", "both", "X,Y in D",
       "g(phi X, phi Y) = sum_i g(pr_i X, pr_i Y)")
def _dm_phi(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    total = sum(f.inner(f.pr(i, x), f.pr(i, y)) for i in range(len(f.bases)))
    diff = f.inner(f.apply_phi(x), f.apply_phi(y)) - total
    return ctx.rel(diff, x, y)


@_case("dsum.metric.f", "both", "X,Y in D",
       "g(fX, fY) = sum_i cos^2(theta_i) * g(pr_i X, pr_i Y)")
def _dm_f(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    total = sum(ctx.cos2[i] * f.inner(f.pr(i, x), f.pr(i, y))
                for i in range(len(f.bases)))
    diff = f.inner(f.f(x), f.f(y)) - total
    return ctx.rel(diff, x, y)


@_case("dsum.metric.w", "both", "X,Y in D",
       "g(wX, wY) = sum_{i>=1} sin^2(theta_i) * g(pr_i X, pr_i Y)")
def _dm_w(ctx):
    f = ctx.frame
    x, y = ctx.x_d, ctx.y_d
    total = sum(ctx.sin2[i] * f.inner(f.pr(i, x), f.pr(i, y)) for i in ctx.proper)
    diff = f.inner(f.w(x), f.w(y)) - total
    return ctx.rel(diff, x, y)


@_case("f2.projsum", "both", "X in D",
       "f2X = eps * sum_i cos^2(theta_i) * pr_i X")
def _f2sum(ctx):
    f = ctx.frame
    x = ctx.x_d
    diff = f.f(f.f(x)) - ctx.eps * _proj_sum(ctx, ctx.cos2, x)
    return ctx.vec_rel(diff, x)


@_case("fw.projsum", "both", "X in D",
       "fwX = eps * sum_{i>=1} sin^2(theta_i) * pr_i X")
def _fwsum(ctx):
    f = ctx.frame
    x = ctx.x_d
    coeffs = np.where(np.arange(len(f.bases)) == ctx.inv, 0.0, ctx.sin2) \
        if ctx.inv is not None else ctx.sin2
    diff = f.f(f.w(x)) - ctx.eps * _proj_sum(ctx, coeffs, x)
    return ctx.vec_rel(diff, x)


# -- the four-line split systems --------------------------------------------------

@_case("split.d", "both", "X in D (+ <xi> when contact)",
       "f2X + fwX = eps * (X - eta(X) xi)")
def _split_d(ctx):
    f = ctx.frame
    x = ctx.x_dxi
    target = ctx.eps * (x - (np.outer(ctx.xi_unit, ctx.eta(x)) if ctx.contact else 0.0))
    diff = f.f(f.f(x)) + f.f(f.w(x)) - target
    return ctx.vec_rel(diff, x)


@_case("split.d2", "both", "X in D (+ <xi> when contact)",
       "wfX + w2X = 0")
def _split_d2(ctx):
    f = ctx.frame
    x = ctx.x_dxi
    diff = f.w(f.f(x)) + f.w(f.w(x))
    return ctx.vec_rel(diff, x)


@_case("split.g", "both", "U in G", "f2U + fwU = 0")
def _split_g(ctx):
    f = ctx.frame
    u = ctx.u_g
    diff = f.f(f.f(u)) + f.f(f.w(u))
    return ctx.vec_rel(diff, u)


@_case("split.g2", "both", "U in G", "wfU + w2U = eps * U")
def _split_g2(ctx):
    f = ctx.frame
    u = ctx.u_g
    diff = f.w(f.f(u)) + f.w(f.w(u)) - ctx.eps * u
    return ctx.vec_rel(diff, u)


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

def _cos_diff(f, a, b, c, d):
    return float(np.max(np.abs(f.cos_angle(a, b) - f.cos_angle(c, d))))


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


@_case("dual.w-metric-cos2", "both", "U_i, V_i in w(D_i)",
       "g(wU_i, wV_i) = cos^2(theta_i) * g(U_i, V_i)")
def _wmcos(ctx):
    f = ctx.frame
    return _worst(ctx.rel(f.inner(f.w(u), f.w(v)) - ctx.cos2[i] * f.inner(u, v), u, v)
                  for i, u, v in zip(ctx.proper, ctx.wu, ctx.wv))


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


@_case("dual.wx-metric-sin2", "both", "X_i, Y_i in D_i",
       "g(wX_i, wY_i) = sin^2(theta_i) * g(X_i, Y_i)", side="D",
       twin=("dual.fu-metric-sin2", "U_i, V_i in w(D_i)",
             "g(fU_i, fV_i) = sin^2(theta_i) * g(U_i, V_i)"))
def _metric_sin2(ctx, side):
    f = ctx.frame
    return _worst(ctx.rel(f.inner(side.other(x), side.other(y))
                          - ctx.sin2[i] * f.inner(x, y), x, y)
                  for i, x, y in ctx.components(side))


@_case("angle.wx-conformal", "both", "X_i, Y_i in D_i, theta_i > 0",
       "cos<(wX_i, wY_i) = cos<(X_i, Y_i)", side="D",
       twin=("angle.fu-conformal", "U_i, V_i in w(D_i), theta_i > 0",
             "cos<(fU_i, fV_i) = cos<(U_i, V_i)"))
def _angle_conformal(ctx, side):
    f = ctx.frame
    return _worst(_cos_diff(f, side.other(x), side.other(y), x, y)
                  for _, x, y in ctx.components(side, lambda c, s: s > PI2_TOL))


# -- summed relations across components ----------------------------------------------

@_case("sum.w-metric", "both", "X, Y in sum of proper D_i",
       "g(wX, wY) = sum_i sin^2(theta_i) * g(X_i, Y_i)", side="D",
       twin=("sum.f-metric", "U, V in w(D)",
             "g(fU, fV) = sum_i sin^2(theta_i) * g(U_i, V_i)"))
def _sum_metric(ctx, side):
    if not side.xs:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] * f.inner(x, y) for i, x, y in ctx.components(side))
    return ctx.rel(f.inner(side.other(side.x), side.other(side.y)) - total, side.x, side.y)


@_case("sum.w-angle", "both", "X, Y in sum of proper D_i",
       "cos<(wX, wY) = cos<(sum sin(theta_i) X_i, sum sin(theta_i) Y_i)", side="D",
       twin=("sum.f-angle", "U, V in w(D)",
             "cos<(fU, fV) = cos<(sum sin(theta_i) U_i, sum sin(theta_i) V_i)"))
def _sum_angle(ctx, side):
    if not side.xs:
        return None
    comps = ctx.components(side)
    sx = sum(ctx.sin[i] * x for i, x, _ in comps)
    sy = sum(ctx.sin[i] * y for i, _, y in comps)
    return _cos_diff(ctx.frame, side.other(side.x), side.other(side.y), sx, sy)


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

@_case("sin4.fw-metric", "both", "X_i, Y_i in D_i",
       "g(fwX_i, fwY_i) = sin^4(theta_i) * g(X_i, Y_i)", side="D",
       twin=("sin4.wf-metric", "U_i, V_i in w(D_i)",
             "g(wfU_i, wfV_i) = sin^4(theta_i) * g(U_i, V_i)"))
def _sin4_metric(ctx, side):
    f = ctx.frame
    return _worst(ctx.rel(f.inner(side.round_trip(x), side.round_trip(y))
                          - ctx.sin2[i] ** 2 * f.inner(x, y), x, y)
                  for i, x, y in ctx.components(side))


@_case("sin4.fw-angle", "both", "X_i, Y_i in D_i, theta_i > 0",
       "cos<(fwX_i, fwY_i) = cos<(X_i, Y_i)", side="D",
       twin=("sin4.wf-angle", "U_i, V_i in w(D_i), theta_i > 0",
             "cos<(wfU_i, wfV_i) = cos<(U_i, V_i)"))
def _sin4_angle(ctx, side):
    f = ctx.frame
    return _worst(_cos_diff(f, side.round_trip(x), side.round_trip(y), x, y)
                  for _, x, y in ctx.components(side, lambda c, s: s > PI2_TOL))


@_case("sin4sum.fw-metric", "both", "X, Y in sum of proper D_i",
       "g(fwX, fwY) = sum_i sin^4(theta_i) * g(X_i, Y_i)", side="D",
       twin=("sin4sum.wf-metric", "U, V in w(D)",
             "g(wfU, wfV) = sum_i sin^4(theta_i) * g(U_i, V_i)"))
def _sin4sum_metric(ctx, side):
    if not side.xs:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] ** 2 * f.inner(x, y) for i, x, y in ctx.components(side))
    lhs = f.inner(side.round_trip(side.x), side.round_trip(side.y))
    return ctx.rel(lhs - total, side.x, side.y)


@_case("sin4sum.fw-angle", "both", "X, Y in sum of proper D_i",
       "cos<(fwX, fwY) = cos<(sum sin^2(theta_i) X_i, sum sin^2(theta_i) Y_i)", side="D",
       twin=("sin4sum.wf-angle", "U, V in w(D)",
             "cos<(wfU, wfV) = cos<(sum sin^2(theta_i) U_i, sum sin^2(theta_i) V_i)"))
def _sin4sum_angle(ctx, side):
    if not side.xs:
        return None
    comps = ctx.components(side)
    sx = sum(ctx.sin2[i] * x for i, x, _ in comps)
    sy = sum(ctx.sin2[i] * y for i, _, y in comps)
    return _cos_diff(ctx.frame, side.round_trip(side.x), side.round_trip(side.y),
                     sx, sy)


# -- G-side component sums ---------------------------------------------------------

@_case("gside.wf-projsum", "both", "U in w(D)",
       "wfU = eps * sum_i sin^2(theta_i) * U_i")
def _gwf(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    target = ctx.eps * sum(ctx.sin2[i] * ctx.wu[slot]
                           for slot, i in enumerate(ctx.proper))
    return ctx.vec_rel(f.w(f.f(ctx.u_w)) - target, ctx.u_w)


@_case("gside.w2-projsum", "both", "U in w(D)",
       "w2U = eps * sum_i cos^2(theta_i) * U_i")
def _gw2(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    target = ctx.eps * sum(ctx.cos2[i] * ctx.wu[slot]
                           for slot, i in enumerate(ctx.proper))
    return ctx.vec_rel(f.w(f.w(ctx.u_w)) - target, ctx.u_w)


@_case("gside.metric.w", "both", "U, V in w(D)",
       "g(wU, wV) = sum_i cos^2(theta_i) * g(U_i, V_i)")
def _gmw(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    total = sum(ctx.cos2[i] * f.inner(ctx.wu[slot], ctx.wv[slot])
                for slot, i in enumerate(ctx.proper))
    return ctx.rel(f.inner(f.w(ctx.u_w), f.w(ctx.v_w)) - total, ctx.u_w, ctx.v_w)


@_case("gside.metric.phi", "both", "U, V in w(D)",
       "g(phi U, phi V) = sum_i g(U_i, V_i)")
def _gmphi(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    total = sum(f.inner(ctx.wu[slot], ctx.wv[slot]) for slot in range(len(ctx.wu)))
    return ctx.rel(f.inner(f.apply_phi(ctx.u_w), f.apply_phi(ctx.v_w)) - total,
                   ctx.u_w, ctx.v_w)


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
                       tol: float | None = None,
                       tolerances: Tolerances = DEFAULT_TOLERANCES,
                       seed: int = DEFAULT_SEED, keys=None) -> SuiteReport:
    """Evaluate every applicable registry identity at each point and report
    the worst residual per key. Report-only: never raises on a failing
    identity."""
    points = list(points)
    if not points:
        raise SpecError("identity suite needs at least one point")
    tol = tolerances.identity if tol is None else tol
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
    _check_in_mask(dec, d)
    if float(np.max(np.abs(d))) == 0.0:
        return np.zeros_like(yv)
    h = probe.h
    fp = dec.frame_at(x + h * d).f2_ambient()
    fm = dec.frame_at(x - h * d).f2_ambient()
    return ((fp - fm) / (2.0 * h)) @ yv


def _lambdas(frame, indices, tolerances: Tolerances) -> dict[int, float]:
    """lambda_i at a frame for each component index in `indices`
    (`classifier.single_cluster_lambda` on its block of the frame's f^2
    Gram)."""
    return {i: single_cluster_lambda(frame, frame.dec.components[i].name,
                                     frame.f2_component(i), tolerances)
            for i in indices}


def eigenvalue_directional_derivative(dec: Decomposition, point, comp_index: int,
                                      direction, h: float | None = None,
                                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """X(lambda_i): central difference of the component's single-cluster
    eigenvalue, read at x +- hX as the trace mean of its f^2 block. The step
    `h` defaults to `tolerances.fd_step`."""
    h = tolerances.fd_step if h is None else h
    x = np.asarray(getattr(point, "coords", point), dtype=float)
    d = np.asarray(getattr(direction, "comps", direction), dtype=float)
    _check_in_mask(dec, d)
    lams = []
    for displaced in (x + h * d, x - h * d):
        lams.append(_lambdas(dec.frame_at(displaced), [comp_index], tolerances)[comp_index])
    return (lams[0] - lams[1]) / (2.0 * h)


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
    eigenvalue cluster. The displaced frame is built in full, and the
    cluster count and lambda band are still checked there
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
    # Points outer: the displaced frames of one point are dropped before the
    # next point.
    for point in points:
        frame = dec.frame_at(point)
        with dec.transient_frames():
            for d, within, along_tm in _probe_directions(frame, tm_dirs):
                _check_in_mask(dec, d)
                fp = dec.frame_at(frame.x + h * d)
                fm = dec.frame_at(frame.x - h * d)
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
