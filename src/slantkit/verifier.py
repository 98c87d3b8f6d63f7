"""Exhaustive identity suite and the flat-ambient connection criteria.

Every identity carries a stable key in REGISTRY; the checked-in manifest
(taxonomy module) mirrors the key list, so coverage changes are visible
diffs. Each case evaluates both sides of its identity on seeded random
vectors drawn in the relevant subspaces at each sample point and reports the
worst relative residual. Keys whose setting does not match the structure
kind report "skipped(setting)"; keys quantified over an empty domain at all
sampled points (no invariant remainder H, no right-angle component) report
"skipped(vacuous)".

The connection criteria probe the flat-ambient covariant derivative of the
restricted endomorphism square by central differences within the submanifold
mask, and cross-tabulate the derivative verdicts against the classifier's
constancy verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import classify, component_slant
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition
from .errors import SpecError, UnsupportedError
from .sampling import DEFAULT_SEED, rng_for

HALF_PI = math.pi / 2.0
PI2_TOL = 1e-8
TINY = 1e-300


class PointContext:
    """Frame, dual slice, trig data, and seeded draws at one sample point."""

    def __init__(self, dec: Decomposition, point, trials: int, seed: int, pidx: int):
        self.frame = dec.frame_at(point)
        self.dual = self.frame.dual()
        f = self.frame
        self.eps = f.epsilon
        self.contact = f.xi is not None
        ncomp = len(f.bases)
        inv = f.invariant_index
        self.cos2 = np.empty(ncomp)
        for i in range(ncomp):
            if i == inv:
                self.cos2[i] = 1.0
            else:
                evals = np.linalg.eigvalsh(f.f2_component(i))
                self.cos2[i] = min(max(self.eps * float(np.mean(evals)), 0.0), 1.0)
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
        self.x_prop = (sum(self.cx[i] for i in self.proper)
                       if self.proper else np.zeros((n, t)))
        self.y_prop = (sum(self.cy[i] for i in self.proper)
                       if self.proper else np.zeros((n, t)))
        from .linalg import complement_columns
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

    def slant_pairs(self, pred):
        """(slot, comp index) pairs of proper components satisfying pred on
        (cos, sin); slot indexes the dual basis list."""
        out = []
        for slot, i in enumerate(self.proper):
            if pred(self.cos[i], self.sin[i]):
                out.append((slot, i))
        return out


@dataclass(frozen=True)
class IdentityCase:
    key: str
    settings: str      # "both" | "contact" | "hermitian"
    domain: str
    statement: str
    evaluator: object = field(repr=False)


def _case(key, settings, domain, statement):
    def wrap(fn):
        REGISTRY.append(IdentityCase(key, settings, domain, statement, fn))
        return fn
    return wrap


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
    worst = None
    for slot, i in enumerate(ctx.proper):
        xi_vec = ctx.cx[i]
        w2 = f.w(f.w(xi_vec))
        if abs(ctx.sin2[i] - 1.0) <= PI2_TOL:
            r = ctx.vec_rel(w2, xi_vec)
        else:
            b = ctx.dual.duals[slot]
            proj = b @ b.T @ f.g
            r = ctx.vec_rel(w2 - proj @ w2, xi_vec)
        worst = r if worst is None else max(worst, r)
    return worst


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


@_case("norm.f-invariant", "both", "X_0 in D_0", "|fX_0| = |X_0|")
def _nfinv(ctx):
    if ctx.inv is None:
        return None
    f = ctx.frame
    x0 = ctx.cx[ctx.inv]
    diff = f.norm(f.f(x0)) - f.norm(x0)
    return ctx.rel(diff, x0)


@_case("norm.wx-sin", "both", "X_i in D_i", "|wX_i| = sin(theta_i) * |X_i|")
def _nwx(ctx):
    f = ctx.frame
    worst = None
    for i in ctx.proper:
        xi_vec = ctx.cx[i]
        diff = f.norm(f.w(xi_vec)) - ctx.sin[i] * f.norm(xi_vec)
        r = ctx.rel(diff, xi_vec)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("norm.fu-sin", "both", "U_i in w(D_i)", "|fU_i| = sin(theta_i) * |U_i|")
def _nfu(ctx):
    f = ctx.frame
    worst = None
    for slot, i in enumerate(ctx.proper):
        ui = ctx.wu[slot]
        diff = f.norm(f.f(ui)) - ctx.sin[i] * f.norm(ui)
        r = ctx.rel(diff, ui)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("norm.wx-sumsq", "both", "X in sum of proper D_i",
       "|wX|^2 = sum_i sin^2(theta_i) * |X_i|^2")
def _nwxsum(ctx):
    if not ctx.proper:
        return None
    f = ctx.frame
    x = ctx.x_prop
    total = sum(ctx.sin2[i] * f.inner(ctx.cx[i], ctx.cx[i]) for i in ctx.proper)
    diff = f.inner(f.w(x), f.w(x)) - total
    return ctx.rel(diff, x, x)


@_case("norm.fu-sumsq", "both", "U in w(D)",
       "|fU|^2 = sum_i sin^2(theta_i) * |U_i|^2")
def _nfusum(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    u = ctx.u_w
    total = sum(ctx.sin2[i] * f.inner(ctx.wu[slot], ctx.wu[slot])
                for slot, i in enumerate(ctx.proper))
    diff = f.inner(f.f(u), f.f(u)) - total
    return ctx.rel(diff, u, u)


# -- angle (conformality) relations -----------------------------------------------

def _cos_diff(f, a, b, c, d):
    return float(np.max(np.abs(f.cos_angle(a, b) - f.cos_angle(c, d))))


@_case("angle.f-invariant", "both", "X_0, Y_0 in D_0",
       "cos<(fX_0, fY_0) = cos<(phi X_0, phi Y_0) = cos<(X_0, Y_0)")
def _afinv(ctx):
    if ctx.inv is None:
        return None
    f = ctx.frame
    x0, y0 = ctx.cx[ctx.inv], ctx.cy[ctx.inv]
    return max(_cos_diff(f, f.f(x0), f.f(y0), x0, y0),
               _cos_diff(f, f.apply_phi(x0), f.apply_phi(y0), x0, y0))


@_case("angle.f-slant", "both", "X_i, Y_i in D_i, theta_i < pi/2",
       "cos<(fX_i, fY_i) = cos<(phi X_i, phi Y_i) = cos<(X_i, Y_i)")
def _afslant(ctx):
    f = ctx.frame
    worst = None
    for _, i in ctx.slant_pairs(lambda c, s: c > PI2_TOL):
        xi_vec, yi_vec = ctx.cx[i], ctx.cy[i]
        r = max(_cos_diff(f, f.f(xi_vec), f.f(yi_vec), xi_vec, yi_vec),
                _cos_diff(f, f.apply_phi(xi_vec), f.apply_phi(yi_vec), xi_vec, yi_vec))
        worst = r if worst is None else max(worst, r)
    return worst


@_case("dual.w-metric-cos2", "both", "U_i, V_i in w(D_i)",
       "g(wU_i, wV_i) = cos^2(theta_i) * g(U_i, V_i)")
def _wmcos(ctx):
    f = ctx.frame
    worst = None
    for slot, i in enumerate(ctx.proper):
        ui, vi = ctx.wu[slot], ctx.wv[slot]
        diff = f.inner(f.w(ui), f.w(vi)) - ctx.cos2[i] * f.inner(ui, vi)
        r = ctx.rel(diff, ui, vi)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("angle.w-h", "both", "U_0, V_0 in H",
       "cos<(wU_0, wV_0) = cos<(U_0, V_0) = cos<(phi U_0, phi V_0)")
def _awh(ctx):
    if ctx.u_h is None:
        return None
    f = ctx.frame
    u0, v0 = ctx.u_h, ctx.v_h
    return max(_cos_diff(f, f.w(u0), f.w(v0), u0, v0),
               _cos_diff(f, f.apply_phi(u0), f.apply_phi(v0), u0, v0))


@_case("angle.w-dual", "both", "U_i, V_i in w(D_i), theta_i < pi/2",
       "cos<(wU_i, wV_i) = cos<(U_i, V_i) = cos<(phi U_i, phi V_i)")
def _awdual(ctx):
    f = ctx.frame
    worst = None
    for slot, i in ctx.slant_pairs(lambda c, s: c > PI2_TOL):
        ui, vi = ctx.wu[slot], ctx.wv[slot]
        r = max(_cos_diff(f, f.w(ui), f.w(vi), ui, vi),
                _cos_diff(f, f.apply_phi(ui), f.apply_phi(vi), ui, vi))
        worst = r if worst is None else max(worst, r)
    return worst


@_case("angle.phi-dg", "both", "Z, W in D + G",
       "cos<(phi Z, phi W) = cos<(Z, W)")
def _aphidg(ctx):
    f = ctx.frame
    return _cos_diff(f, f.apply_phi(ctx.z_dg), f.apply_phi(ctx.w_dg), ctx.z_dg, ctx.w_dg)


@_case("dual.wx-metric-sin2", "both", "X_i, Y_i in D_i",
       "g(wX_i, wY_i) = sin^2(theta_i) * g(X_i, Y_i)")
def _wxsin(ctx):
    f = ctx.frame
    worst = None
    for i in ctx.proper:
        xi_vec, yi_vec = ctx.cx[i], ctx.cy[i]
        diff = f.inner(f.w(xi_vec), f.w(yi_vec)) - ctx.sin2[i] * f.inner(xi_vec, yi_vec)
        r = ctx.rel(diff, xi_vec, yi_vec)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("dual.fu-metric-sin2", "both", "U_i, V_i in w(D_i)",
       "g(fU_i, fV_i) = sin^2(theta_i) * g(U_i, V_i)")
def _fusin(ctx):
    f = ctx.frame
    worst = None
    for slot, i in enumerate(ctx.proper):
        ui, vi = ctx.wu[slot], ctx.wv[slot]
        diff = f.inner(f.f(ui), f.f(vi)) - ctx.sin2[i] * f.inner(ui, vi)
        r = ctx.rel(diff, ui, vi)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("angle.wx-conformal", "both", "X_i, Y_i in D_i, theta_i > 0",
       "cos<(wX_i, wY_i) = cos<(X_i, Y_i)")
def _awx(ctx):
    f = ctx.frame
    worst = None
    for _, i in ctx.slant_pairs(lambda c, s: s > PI2_TOL):
        r = _cos_diff(f, f.w(ctx.cx[i]), f.w(ctx.cy[i]), ctx.cx[i], ctx.cy[i])
        worst = r if worst is None else max(worst, r)
    return worst


@_case("angle.fu-conformal", "both", "U_i, V_i in w(D_i), theta_i > 0",
       "cos<(fU_i, fV_i) = cos<(U_i, V_i)")
def _afu(ctx):
    f = ctx.frame
    worst = None
    for slot, i in ctx.slant_pairs(lambda c, s: s > PI2_TOL):
        r = _cos_diff(f, f.f(ctx.wu[slot]), f.f(ctx.wv[slot]), ctx.wu[slot], ctx.wv[slot])
        worst = r if worst is None else max(worst, r)
    return worst


# -- summed relations across components ----------------------------------------------

@_case("sum.w-metric", "both", "X, Y in sum of proper D_i",
       "g(wX, wY) = sum_i sin^2(theta_i) * g(X_i, Y_i)")
def _swm(ctx):
    if not ctx.proper:
        return None
    f = ctx.frame
    x, y = ctx.x_prop, ctx.y_prop
    total = sum(ctx.sin2[i] * f.inner(ctx.cx[i], ctx.cy[i]) for i in ctx.proper)
    return ctx.rel(f.inner(f.w(x), f.w(y)) - total, x, y)


@_case("sum.f-metric", "both", "U, V in w(D)",
       "g(fU, fV) = sum_i sin^2(theta_i) * g(U_i, V_i)")
def _sfm(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] * f.inner(ctx.wu[slot], ctx.wv[slot])
                for slot, i in enumerate(ctx.proper))
    return ctx.rel(f.inner(f.f(ctx.u_w), f.f(ctx.v_w)) - total, ctx.u_w, ctx.v_w)


@_case("sum.w-angle", "both", "X, Y in sum of proper D_i",
       "cos<(wX, wY) = cos<(sum sin(theta_i) X_i, sum sin(theta_i) Y_i)")
def _swa(ctx):
    if not ctx.proper:
        return None
    f = ctx.frame
    sx = sum(ctx.sin[i] * ctx.cx[i] for i in ctx.proper)
    sy = sum(ctx.sin[i] * ctx.cy[i] for i in ctx.proper)
    return _cos_diff(f, f.w(ctx.x_prop), f.w(ctx.y_prop), sx, sy)


@_case("sum.f-angle", "both", "U, V in w(D)",
       "cos<(fU, fV) = cos<(sum sin(theta_i) U_i, sum sin(theta_i) V_i)")
def _sfa(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    su = sum(ctx.sin[i] * ctx.wu[slot] for slot, i in enumerate(ctx.proper))
    sv = sum(ctx.sin[i] * ctx.wv[slot] for slot, i in enumerate(ctx.proper))
    return _cos_diff(f, f.f(ctx.u_w), f.f(ctx.v_w), su, sv)


def _all_positive_sin(ctx):
    return all(ctx.sin[i] > PI2_TOL for i in ctx.proper)


@_case("invsin.x-metric", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "g(X, Y) = sum_i g(wX_i, wY_i) / sin^2(theta_i)")
def _ixm(ctx):
    if not ctx.proper or not _all_positive_sin(ctx):
        return None
    f = ctx.frame
    total = sum(f.inner(f.w(ctx.cx[i]), f.w(ctx.cy[i])) / ctx.sin2[i] for i in ctx.proper)
    return ctx.rel(f.inner(ctx.x_prop, ctx.y_prop) - total, ctx.x_prop, ctx.y_prop)


@_case("invsin.u-metric", "both", "U, V in w(D), theta_i > 0",
       "g(U, V) = sum_i g(fU_i, fV_i) / sin^2(theta_i)")
def _ium(ctx):
    if not ctx.wu or not _all_positive_sin(ctx):
        return None
    f = ctx.frame
    total = sum(f.inner(f.f(ctx.wu[slot]), f.f(ctx.wv[slot])) / ctx.sin2[i]
                for slot, i in enumerate(ctx.proper))
    return ctx.rel(f.inner(ctx.u_w, ctx.v_w) - total, ctx.u_w, ctx.v_w)


@_case("invsin.x-angle", "both", "X, Y in sum of proper D_i, theta_i > 0",
       "cos<(X, Y) = cos<(sum wX_i / sin(theta_i), sum wY_i / sin(theta_i))")
def _ixa(ctx):
    if not ctx.proper or not _all_positive_sin(ctx):
        return None
    f = ctx.frame
    sx = sum(f.w(ctx.cx[i]) / ctx.sin[i] for i in ctx.proper)
    sy = sum(f.w(ctx.cy[i]) / ctx.sin[i] for i in ctx.proper)
    return _cos_diff(f, ctx.x_prop, ctx.y_prop, sx, sy)


@_case("invsin.u-angle", "both", "U, V in w(D), theta_i > 0",
       "cos<(U, V) = cos<(sum fU_i / sin(theta_i), sum fV_i / sin(theta_i))")
def _iua(ctx):
    if not ctx.wu or not _all_positive_sin(ctx):
        return None
    f = ctx.frame
    su = sum(f.f(ctx.wu[slot]) / ctx.sin[i] for slot, i in enumerate(ctx.proper))
    sv = sum(f.f(ctx.wv[slot]) / ctx.sin[i] for slot, i in enumerate(ctx.proper))
    return _cos_diff(f, ctx.u_w, ctx.v_w, su, sv)


# -- sin^4 corollaries ------------------------------------------------------------

@_case("sin4.fw-metric", "both", "X_i, Y_i in D_i",
       "g(fwX_i, fwY_i) = sin^4(theta_i) * g(X_i, Y_i)")
def _s4fw(ctx):
    f = ctx.frame
    worst = None
    for i in ctx.proper:
        a = f.f(f.w(ctx.cx[i]))
        b = f.f(f.w(ctx.cy[i]))
        diff = f.inner(a, b) - ctx.sin2[i] ** 2 * f.inner(ctx.cx[i], ctx.cy[i])
        r = ctx.rel(diff, ctx.cx[i], ctx.cy[i])
        worst = r if worst is None else max(worst, r)
    return worst


@_case("sin4.wf-metric", "both", "U_i, V_i in w(D_i)",
       "g(wfU_i, wfV_i) = sin^4(theta_i) * g(U_i, V_i)")
def _s4wf(ctx):
    f = ctx.frame
    worst = None
    for slot, i in enumerate(ctx.proper):
        a = f.w(f.f(ctx.wu[slot]))
        b = f.w(f.f(ctx.wv[slot]))
        diff = f.inner(a, b) - ctx.sin2[i] ** 2 * f.inner(ctx.wu[slot], ctx.wv[slot])
        r = ctx.rel(diff, ctx.wu[slot], ctx.wv[slot])
        worst = r if worst is None else max(worst, r)
    return worst


@_case("sin4.fw-angle", "both", "X_i, Y_i in D_i, theta_i > 0",
       "cos<(fwX_i, fwY_i) = cos<(X_i, Y_i)")
def _s4fwa(ctx):
    f = ctx.frame
    worst = None
    for _, i in ctx.slant_pairs(lambda c, s: s > PI2_TOL):
        r = _cos_diff(f, f.f(f.w(ctx.cx[i])), f.f(f.w(ctx.cy[i])), ctx.cx[i], ctx.cy[i])
        worst = r if worst is None else max(worst, r)
    return worst


@_case("sin4.wf-angle", "both", "U_i, V_i in w(D_i), theta_i > 0",
       "cos<(wfU_i, wfV_i) = cos<(U_i, V_i)")
def _s4wfa(ctx):
    f = ctx.frame
    worst = None
    for slot, i in ctx.slant_pairs(lambda c, s: s > PI2_TOL):
        r = _cos_diff(f, f.w(f.f(ctx.wu[slot])), f.w(f.f(ctx.wv[slot])),
                      ctx.wu[slot], ctx.wv[slot])
        worst = r if worst is None else max(worst, r)
    return worst


@_case("sin4sum.fw-metric", "both", "X, Y in sum of proper D_i",
       "g(fwX, fwY) = sum_i sin^4(theta_i) * g(X_i, Y_i)")
def _s4sfw(ctx):
    if not ctx.proper:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] ** 2 * f.inner(ctx.cx[i], ctx.cy[i]) for i in ctx.proper)
    lhs = f.inner(f.f(f.w(ctx.x_prop)), f.f(f.w(ctx.y_prop)))
    return ctx.rel(lhs - total, ctx.x_prop, ctx.y_prop)


@_case("sin4sum.wf-metric", "both", "U, V in w(D)",
       "g(wfU, wfV) = sum_i sin^4(theta_i) * g(U_i, V_i)")
def _s4swf(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    total = sum(ctx.sin2[i] ** 2 * f.inner(ctx.wu[slot], ctx.wv[slot])
                for slot, i in enumerate(ctx.proper))
    lhs = f.inner(f.w(f.f(ctx.u_w)), f.w(f.f(ctx.v_w)))
    return ctx.rel(lhs - total, ctx.u_w, ctx.v_w)


@_case("sin4sum.fw-angle", "both", "X, Y in sum of proper D_i",
       "cos<(fwX, fwY) = cos<(sum sin^2(theta_i) X_i, sum sin^2(theta_i) Y_i)")
def _s4sfwa(ctx):
    if not ctx.proper:
        return None
    f = ctx.frame
    sx = sum(ctx.sin2[i] * ctx.cx[i] for i in ctx.proper)
    sy = sum(ctx.sin2[i] * ctx.cy[i] for i in ctx.proper)
    return _cos_diff(f, f.f(f.w(ctx.x_prop)), f.f(f.w(ctx.y_prop)), sx, sy)


@_case("sin4sum.wf-angle", "both", "U, V in w(D)",
       "cos<(wfU, wfV) = cos<(sum sin^2(theta_i) U_i, sum sin^2(theta_i) V_i)")
def _s4swfa(ctx):
    if not ctx.wu:
        return None
    f = ctx.frame
    su = sum(ctx.sin2[i] * ctx.wu[slot] for slot, i in enumerate(ctx.proper))
    sv = sum(ctx.sin2[i] * ctx.wv[slot] for slot, i in enumerate(ctx.proper))
    return _cos_diff(f, f.w(f.f(ctx.u_w)), f.w(f.f(ctx.v_w)), su, sv)


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


@_case("h.norm", "both", "U_0 in H", "|wU_0| = |U_0|")
def _hn(ctx):
    if ctx.u_h is None:
        return None
    f = ctx.frame
    diff = f.norm(f.w(ctx.u_h)) - f.norm(ctx.u_h)
    return ctx.rel(diff, ctx.u_h)


# -- the right-angle special case -------------------------------------------------------------

@_case("pi2.fw", "both", "X_j in D_j with theta_j = pi/2", "fwX_j = eps * X_j")
def _pi2fw(ctx):
    f = ctx.frame
    worst = None
    for _, i in ctx.slant_pairs(lambda c, s: abs(s - 1.0) <= PI2_TOL):
        xj = ctx.cx[i]
        r = ctx.vec_rel(f.f(f.w(xj)) - ctx.eps * xj, xj)
        worst = r if worst is None else max(worst, r)
    return worst


@_case("pi2.wf", "both", "U_j in w(D_j) with theta_j = pi/2", "wfU_j = eps * U_j")
def _pi2wf(ctx):
    f = ctx.frame
    worst = None
    for slot, i in ctx.slant_pairs(lambda c, s: abs(s - 1.0) <= PI2_TOL):
        uj = ctx.wu[slot]
        r = ctx.vec_rel(f.w(f.f(uj)) - ctx.eps * uj, uj)
        worst = r if worst is None else max(worst, r)
    return worst


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
    contexts = [PointContext(dec, p, trials, seed, i) for i, p in enumerate(points)]
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


def eigenvalue_directional_derivative(dec: Decomposition, point, comp_index: int,
                                      direction, h: float | None = None,
                                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """X(lambda_i): central difference of the component eigenvalue, matching
    the single cluster at the displaced points by nearest lambda. The step
    `h` defaults to `tolerances.fd_step`."""
    h = tolerances.fd_step if h is None else h
    x = np.asarray(getattr(point, "coords", point), dtype=float)
    d = np.asarray(getattr(direction, "comps", direction), dtype=float)
    _check_in_mask(dec, d)
    lam_p = component_slant(dec, x + h * d, comp_index, tolerances).lam
    lam_m = component_slant(dec, x - h * d, comp_index, tolerances).lam
    return (lam_p - lam_m) / (2.0 * h)


def connection_criterion_report(dec: Decomposition, probe: CovariantProbe, points,
                                tolerances: Tolerances = DEFAULT_TOLERANCES,
                                seed: int = DEFAULT_SEED,
                                classification=None) -> dict:
    """Per component: (a) max |(nabla_X f^2) Y| over X, Y in D_i,
    (b) max |X(lambda_i)| over X in D_i, (c) the same over all masked
    directions; cross-tabulated against the classifier's constancy verdicts.

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
    max_nabla = [0.0] * len(comps)
    max_dlam_in = [0.0] * len(comps)
    max_dlam_tm = [0.0] * len(comps)
    # Points outer: the displaced frames of one point are shared by all its
    # components and dropped before the next point.
    for point in points:
        frame = dec.frame_at(point)
        with dec.transient_frames():
            for ci in range(len(comps)):
                basis = frame.component_basis(ci)
                for col in range(basis.shape[1]):
                    x_dir = basis[:, col]
                    val = nabla_f2(dec, probe, frame.x, x_dir, basis)
                    max_nabla[ci] = max(max_nabla[ci],
                                        float(np.max(np.linalg.norm(val, axis=0))))
                    dl = eigenvalue_directional_derivative(dec, frame.x, ci, x_dir,
                                                          probe.h, tolerances)
                    max_dlam_in[ci] = max(max_dlam_in[ci], abs(dl))
                for d in tm_dirs:
                    dl = eigenvalue_directional_derivative(dec, frame.x, ci, d,
                                                          probe.h, tolerances)
                    max_dlam_tm[ci] = max(max_dlam_tm[ci], abs(dl))
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
