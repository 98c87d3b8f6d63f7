"""Exhaustive identity suite and the flat-ambient connection criteria.

Every identity carries a stable key in REGISTRY; the checked-in manifest
(taxonomy module) mirrors the key list, so coverage changes are visible
diffs. Each case evaluates both sides of its identity on seeded random
vectors drawn in the relevant subspaces. The sample points and the
components are array axes: `PointContext` stacks the draws of all P points
and K components as (P, K, r, trials), each case runs once over the stack
and returns one residual per point, a (P,) vector: the worst relative
residual over the trials and the components quantified there, NaN when one
is NaN, -inf where none is. `run_identity_suite` folds it over the points:
`max_residual` is its largest entry, a NaN exceeding every number, and
`witness_point` the first point holding it. Keys whose setting does not
match the structure kind report "skipped(setting)"; keys quantified at no
sampled point (no invariant remainder H, no right-angle component) report
"skipped(vacuous)".

The suite works in frame coordinates: a vector is its coefficients in the
g-orthonormal adapted frame E = [basis_d | xi_unit | basis_g] of the
command's `FrameStack`, so g(u, v) is a dot product and every map is a
block-masked copy of the one matrix T = E^T g phi E (`FrameStack.phi_adapted`):
f keeps the D rows of T, w the others, and eta is one coordinate. A draw in
G or D-perp is normal in those coordinates; an ambient draw x enters as E^T g x.

A draw in components (D_i, w(D_i) or H) is a coefficient block (P, K, r,
trials): normal coefficients in the components' orthonormal bases (the r_i
coordinate columns of D_i, the stack's G-coordinate bases of w(D_i) and H),
zero-padded to the largest rank r. A map m on them is the image of the bases
(P, n, K * r): a column gather of T's copy on the D_i, one matmul elsewhere,
T_a @ image_b for a composite. The rows on a `forms.Side` read quadratic
forms of the image's Gram G, g(mX, mY) = X^T G Y, not n-row vectors: a
relation on each component reads G's (r, r) diagonal blocks, a sum over the
components all of G, mX = eps sum_i c_i X_i the norm form of m - eps c_i,
an angle the forms xy, xx and yy. A side row names its forms (`forms.Form`)
in its `_case` parameters, and a side makes all of its rows' forms at once,
on first use, so a key run alone has the bits of the full run;
`run_identity_suite` takes the rows side by side and drops each side's
tables after its last row. The structure axioms and the adjointness, split
and angle.phi-dg rows read full vectors (P, 1, n, trials).

The paper proves most identities twice: once on the proper components D_i
with f and w, and once on their duals w(D_i) with the roles of f and w
swapped and the invariant part D_0 replaced by H. Each such twin pair is one
evaluator fn(ctx, side) registered under both keys, run on the `Side`s "D"
and "w(D)" of `PointContext.sides`. "D0+D" spans all components D_0..D_k
(sin^2 is 0 on D_0, so a sum over the proper components may run over all
of them); "D_0" and "H" are the invariant parts.

The paper also proves its relations in families (the adjointness formulae,
the split systems, the cos^2/sin^2/sin^4 metric and angle relations). Each
family is one shape function; its members are `_case` rows that bind the
maps or forms, the draws and the coefficient (table in docs/taxonomy.md):

    _adjoint           g(X, aY) = eps g(bX, Y)                   adj.*
    _double_adjoint    g(abX, Y) = eps g(bX, bY) = g(X, cbY)     adj2.*
    _split             a(fX) + a(wX) = rhs                       split.*
    _summed_metric     g(mX, mY) = sum_i c_i g(X_i, Y_i)         on a Side
    _summed_vector     mX = eps sum_i c_i X_i                    on a Side
    _summed_angle      cos<(mX, mY) = cos<(sum c_i X_i, sum c_i Y_i)   on a Side
    _component_metric  g(mX_i, mY_i) = c_i g(X_i, Y_i)           on a Side
    _component_norm    |mX_i| = c_i |X_i|                        on a Side
    _component_angle   cos<(mX_i, mY_i) = cos<(X_i, Y_i)         on a Side
    _eps_fixed         mX_i = eps X_i                            on a Side

The connection criteria differentiate the restricted endomorphism square of
the flat ambient space exactly, along the directions of the submanifold mask,
from the tangents of the fields' fill programs, and cross-tabulate the derivative
verdicts against the classifier's constancy verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .classifier import classify, single_cluster_lambda, slant_lambdas
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, FrameStack
from .errors import SpecError, UnsupportedError
from .forms import TINY, Form, Side
from .sampling import DEFAULT_SEED, rng_for
from .tangents import first_order_models, frame_derivatives

PI2_TOL = 1e-8
PROBE_ELEMENTS = 1 << 18    # bounds P * (q * n * r + m * n * (n + r)), a `frame_derivatives` chunk


class PointContext:
    """The identity suite's data at all sample points in frame coordinates,
    stacked on a leading point axis P: the maps, the slant tables `cos`,
    `sin`, `cos2`, `sin2`, `sin4` (P, ncomp, 1), the full draws (P, 1, n,
    trials) (ambient, D-perp, G, and the sums over D) and the `sides`, which
    hold the component draws as coefficient blocks. Point p's draws come
    from `rng_for(seed, 997, p)` in a fixed order."""

    def __init__(self, dec: Decomposition, points, trials: int, seed: int,
                 tolerances: Tolerances):
        stack = dec.frame_stack(points)
        npts, n, t = len(stack.x), dec.structure.n, trials
        t_phi, off = stack.phi_adapted, stack.offsets
        in_d = np.arange(n)[:, None] < off[-1]
        t_f, t_w = np.where(in_d, t_phi, 0.0), np.where(in_d, 0.0, t_phi)
        # the maps hold arrays only (as the sides do), so that no reference
        # cycle keeps the context alive
        self.apply_phi, self.f, self.w = (partial(np.matmul, m[:, None]) for m in (t_phi, t_f, t_w))
        self.xi_row, self.e_xi = off[-1], np.eye(n)[:, off[-1]:off[-1] + 1]
        self.points, self.eps, self.proper = list(stack.x), stack.epsilon, stack.proper_indices
        self.contact = stack.xi is not None
        ncomp = len(stack.bases)
        self.cos2 = np.ones((npts, ncomp, 1))
        lam = slant_lambdas(stack, self.proper, tolerances)
        self.cos2[:, self.proper, 0] = np.minimum(np.maximum(self.eps * lam, 0.0), 1.0)
        self.sin2 = 1.0 - self.cos2
        self.cos, self.sin = np.sqrt(self.cos2), np.sqrt(self.sin2)
        # libm's pow, as a scalar sin^2 ** 2 rounds (numpy's square may differ by an ulp)
        self.sin4 = np.array([[[s ** 2] for s in row] for row in self.sin2[..., 0].tolist()])
        inv = np.divide(1.0, self.sin, out=np.zeros_like(self.sin), where=self.sin > PI2_TOL)
        slant = {"cos2": self.cos2, "sin2": self.sin2, "sin": self.sin, "sin4": self.sin4,
                 "1/sin": inv, "1/sin2": inv * inv}     # 1/sin 0 where sin <= PI2_TOL

        targets = []    # (P, r, t) views, each point's filled in this order

        def full(rows):
            """A full draw (P, 1, n, t), normal in the coordinates `rows`."""
            a = np.zeros((npts, 1, n, t))
            if rows.stop > rows.start:
                targets.append(a[:, 0, rows])
            return a

        def coefficients(bases, interleaved=False):
            """Two coefficient blocks (P, K, r, t) in the K `bases` (P, ., r_k),
            drawn slot by slot, both blocks' slot k together when interleaved."""
            ranks = [b.shape[-1] for b in bases]
            a, b = np.zeros((2, npts, len(ranks), max(ranks, default=0), t))
            slots = [out[:, k, :r] for k, r in enumerate(ranks) for out in (a, b)]
            targets.extend(slots if interleaved else slots[0::2] + slots[1::2])
            return a, b

        def in_g(bases, block):
            """The `bases` (P, |G|, r_k) of a coefficient block as (P, K, n, r)."""
            out = np.zeros(block.shape[:2] + (n,) + block.shape[2:3])
            for k, basis in enumerate(bases):
                out[:, k, stack.g_rows, :basis.shape[-1]] = basis
            return out

        amb = full(slice(0, n)), full(slice(0, n))
        X, Y = coefficients(stack.bases)
        self.u_perp, self.v_perp = full(slice(off[-1], n)), full(slice(off[-1], n))
        self.u_g, self.v_g = full(stack.g_rows), full(stack.g_rows)
        U, V = coefficients(stack.duals, interleaved=True)
        hs = [stack.h_basis] if stack.h_basis.shape[-1] else []
        u_h, v_h = coefficients(hs)
        xi = [full(slice(off[-1], off[-1] + 1)) for _ in range(2 * self.contact)]
        # one draw per point stream, split into the targets in their order;
        # the buffer holds as many points as fit in 2^14 values (128 kB), one
        # at least, so the temporary stays small whatever the point count
        ends = np.cumsum([0] + [v.shape[1] * v.shape[2] for v in targets])
        step = max(1, 2 ** 14 // int(ends[-1]))
        for p0 in range(0, npts, step):
            rows = np.empty((min(step, npts - p0), ends[-1]))
            for i, row in enumerate(rows):
                rng_for(seed, 997, p0 + i).standard_normal(out=row)
            for v, lo, hi in zip(targets, ends, ends[1:]):
                v[p0:p0 + len(rows)] = rows[:, lo:hi].reshape((len(rows),) + v.shape[1:])
        self.amb = tuple(np.swapaxes(stack.adapted, -1, -2)[:, None] @ (stack.g[:, None] @ a)
                         for a in amb)

        slot = np.arange(X.shape[2])
        cols = np.where(slot < np.diff(off)[:, None], np.array(off[:-1])[:, None] + slot, -1)
        x_basis = np.where(cols >= 0, np.eye(n)[:, cols], 0.0).transpose(1, 0, 2)[None]
        on_d, on_w = (t_f, t_w, t_phi), (t_w, t_f, t_phi)
        duals = in_g(stack.duals, U)

        prop, inv = slice(ncomp - len(self.proper), ncomp), slice(0, ncomp - len(self.proper))
        self.sides = {name: Side(on_d, X[:, sl], Y[:, sl], x_basis[:, sl], sl, self.eps, slant,
                                 SIDE_FORMS.get(name, {}), cols[sl], duals if name == "D" else None)
                      for name, sl in (("D", prop), ("D0+D", slice(0, ncomp)), ("D_0", inv))}
        self.sides["w(D)"] = Side(on_w, U, V, duals, prop, self.eps, slant,
                                  SIDE_FORMS.get("w(D)", {}))
        self.sides["H"] = Side(on_w, u_h, v_h, in_g(hs, u_h), None, self.eps, slant,
                               SIDE_FORMS.get("H", {}))
        # the sums over D's components, in the coordinates of D
        self.x_d, self.y_d = np.zeros((2, npts, 1, n, t))
        for full_d, coef in ((self.x_d, X), (self.y_d, Y)):
            full_d[:, 0, cols[cols >= 0]] = coef[:, cols >= 0]
        self.x_dxi, self.y_dxi = self.x_d, self.y_d
        if xi:
            self.x_dxi, self.y_dxi = self.x_d + xi[0], self.y_d + xi[1]
        self.nowhere = np.full(npts, -np.inf)   # the residual of a key quantified nowhere
        self._scales = {}

    # the first ambient draw less its xi part
    amb_perp = cached_property(lambda self: self.amb[0] - self.along_xi(self.eta(self.amb[0])))

    @staticmethod
    def inner(u, v):
        """g(u, v) of frame coordinates (..., n, t): their dot product over n."""
        return np.einsum("...it,...it->...t", u, v)

    def norm(self, u):
        return np.sqrt(np.maximum(self.inner(u, u), 0.0))

    def cos_angle(self, u, v):
        return self.inner(u, v) / np.maximum(self.norm(u) * self.norm(v), TINY)

    def eta(self, v):
        return v[..., self.xi_row, :]

    def along_xi(self, c):
        """The vectors c_k xi_unit for coefficients c (..., t)."""
        return self.e_xi * c[..., None, :]

    def held(self, side, pred):
        """(P, K) mask of the side's components where (cos, sin)(theta_i)
        satisfy `pred`, every one without a `pred`."""
        if pred is None:
            return True
        return pred(self.cos[:, side.comps, 0], self.sin[:, side.comps, 0])

    # residuals: the worst over the trials and the held components at each point, (P,) --

    def scale(self, a):
        """|a| of a draw the context holds, taken once (the entry keeps `a`, so keeps its id)."""
        if id(a) not in self._scales:
            self._scales[id(a)] = a, self.norm(a)
        return self._scales[id(a)][1]

    def rel(self, diff, a, b=None, held=True):
        """max |diff| / (|a| [,*|b|]) for draws a, b the context holds."""
        scale = self.scale(a)
        if b is not None:
            scale = scale * self.scale(b)
        return _rel(diff, scale, held)

    def cos_diff(self, cos_a, cos_b, held=True):
        """max |cos_a - cos_b| of two cosine tables (P, K, t)."""
        return _worst(np.max(np.abs(cos_a - cos_b), axis=-1), held)


SIDE_FORMS: dict[str, dict] = {}    # side name -> {a Form with q None: the Forms of it read}


@dataclass(frozen=True)
class IdentityCase:
    key: str
    settings: str      # "both" | "contact" | "hermitian"
    domain: str
    statement: str
    evaluator: object = field(repr=False)
    side: str | None = None     # the `PointContext.sides` entry it reads


def _case(key, settings, domain, statement, side=None, twin=None):
    """Register an evaluator under `key`.

    `_case(...)(fn)` registers fn(ctx); `_case(...)(shape, **params)` registers
    a family's shape with this member's parameters bound. A side evaluator
    fn(ctx, side, **params) sees the `PointContext.sides` entry `side`, and its
    `Form` parameters (alone or in a tuple) join that side's `SIDE_FORMS`; a
    twin is registered once per side of the duality. `twin`, a (key, domain,
    statement) triple, registers the w(D) side right after the D side."""
    def wrap(fn, **params):
        ev = partial(fn, **params) if params else fn
        if side is not None:
            for f in (f for v in params.values() for f in (v if type(v) is tuple else [v])):
                if isinstance(f, Form):
                    forms = SIDE_FORMS.setdefault(side, {}).setdefault(f._replace(q=None), [])
                    forms += [f] * (f not in forms)
            ev = partial(lambda fn, ctx: fn(ctx, ctx.sides[side]), ev)
        REGISTRY.append(IdentityCase(key, settings, domain, statement, ev, side))
        if twin is not None:
            _case(twin[0], settings, *twin[1:], side="w(D)")(fn, **params)
        return fn
    return wrap


def _worst(residuals, held=True):
    """Per point, the largest of the residuals (P, K) over the components
    held there (a (P, K) mask): a NaN wins, and -inf marks a point where
    none is held."""
    if held is not True:
        residuals = np.where(held, residuals, -np.inf)
    return np.max(residuals, axis=1, initial=-np.inf)


def _rel(diff, scale, held=True):
    """The worst over the trials of |diff| / scale (P, K, t), over the held
    components at each point (`_worst`)."""
    return _worst(np.max(np.abs(diff) / np.maximum(scale, TINY), axis=-1), held)


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
    a = ctx.amb_perp
    return ctx.rel(ctx.norm(ctx.apply_phi(a)) - ctx.scale(a), a)


@_case("struct.isometry", "hermitian", "X,Y ambient",
       "g(phi X, phi Y) = g(X, Y)")
def _isometry(ctx):
    a, b = ctx.amb
    diff = ctx.inner(ctx.apply_phi(a), ctx.apply_phi(b)) - ctx.inner(a, b)
    return ctx.rel(diff, a, b)


# -- identity families ------------------------------------------------------------------
#
# A family is one shape; each member is a `_case` row binding the shape's maps by
# name (a PointContext map "f", "w", "apply_phi"), or on a Side its `Form`s (of
# the images "own", "other", "phi", "square", "round_trip"), its draws and its
# coefficient.

def _total(side, coeff, v):
    """sum_i c_i * v_i (P, 1, t) over the side's components of v (P, K, t),
    c_i the slant table `coeff` (1 for None)."""
    if coeff is None:
        return v.sum(axis=1, keepdims=True)
    return np.swapaxes(side.slant[coeff], 1, 2) @ v


def _weighted(side, coeff, v):
    """c_i * v_i over the side's components (v (P, K, t)), c_i its slant
    table `coeff` ("cos2", "sin2", "sin" or "sin4" of theta_i) at each
    point; v itself when `coeff` is None."""
    return v if coeff is None else side.slant[coeff] * v


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


def _summed_metric(ctx, side, lhs, coeff):
    """g(mX, mY) = sum_i c_i * g(X_i, Y_i) for X, Y in the sum of the
    side's components, `lhs` the sum form of m, "xx" for Y = X."""
    draws, sums, forms = side.tables()
    scale = sums["norm"] * sums["norm" if lhs.q == "xx" else "norm_y"]
    return _rel(forms[lhs] - _total(side, coeff, draws[lhs.q]), scale)


def _summed_vector(ctx, side, lhs):
    """mX = eps * sum_i c_i * X_i for X in the sum of the side's components:
    `lhs`, the norm form of m shifted by eps c_i, is 0."""
    _, sums, forms = side.tables()
    return _rel(forms[lhs], sums["norm"])


def _summed_angle(ctx, side, lhs, rhs):
    """cos<(mX, mY) = cos<(sum_i c_i X_i, sum_i c_i Y_i) for X, Y in the sum
    of the side's components, `lhs` and `rhs` their cos forms."""
    forms = side.tables()[2]
    return ctx.cos_diff(forms[lhs], forms[rhs])


def _component_metric(ctx, side, lhs, coeff):
    """g(mX_i, mY_i) = c_i * g(X_i, Y_i) on each of the side's components,
    `lhs` the xy form of m."""
    draws, _, forms = side.tables()
    return _rel(forms[lhs] - _weighted(side, coeff, draws["xy"]), draws["norm"] * draws["norm_y"])


def _component_norm(ctx, side, lhs, coeff):
    """|mX_i| = c_i * |X_i| on each of the side's components, `lhs` the norm
    form of m."""
    draws, _, forms = side.tables()
    return _rel(forms[lhs] - _weighted(side, coeff, draws["norm"]), draws["norm"])


def _component_angle(ctx, side, maps, pred=None):
    """cos<(mX_i, mY_i) = cos<(X_i, Y_i) for the cos form of each map m of
    `maps` on each of the side's components where (cos, sin)(theta_i)
    satisfy `pred`."""
    draws, _, forms = side.tables()
    held, worst = ctx.held(side, pred), ctx.nowhere
    for m in maps:
        worst = np.maximum(worst, ctx.cos_diff(forms[m], draws["cos"], held))
    return worst


def _eps_fixed(ctx, side, lhs, pred=None):
    """mX_i = eps * X_i on each of the side's components where (cos,
    sin)(theta_i) satisfy `pred`: `lhs`, the norm form of m - eps, is 0."""
    draws, _, forms = side.tables()
    return _rel(forms[lhs], draws["norm"], ctx.held(side, pred))


def _below_right_angle(c, s):
    return c > PI2_TOL


def _above_zero(c, s):
    return s > PI2_TOL


def _right_angle(c, s):
    return np.abs(s - 1.0) <= PI2_TOL


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

# -- projector-sum identities on D: pr_i X = X_i ------------------------------------

_case("dsum.metric.phi", "both", "X,Y in D", "g(phi X, phi Y) = sum_i g(pr_i X, pr_i Y)",
      side="D0+D")(_summed_metric, lhs=Form("phi", "xy", False), coeff=None)
_case("dsum.metric.f", "both", "X,Y in D",
      "g(fX, fY) = sum_i cos^2(theta_i) * g(pr_i X, pr_i Y)", side="D0+D")(
    _summed_metric, lhs=Form("own", "xy", False), coeff="cos2")
_case("dsum.metric.w", "both", "X,Y in D",
      "g(wX, wY) = sum_{i>=1} sin^2(theta_i) * g(pr_i X, pr_i Y)", side="D0+D")(
    _summed_metric, lhs=Form("other", "xy", False), coeff="sin2")
_case("f2.projsum", "both", "X in D", "f2X = eps * sum_i cos^2(theta_i) * pr_i X",
      side="D0+D")(_summed_vector, lhs=Form("square", "norm", False, "cos2"))
_case("fw.projsum", "both", "X in D", "fwX = eps * sum_{i>=1} sin^2(theta_i) * pr_i X",
      side="D0+D")(_summed_vector, lhs=Form("round_trip", "norm", False, "sin2"))

# -- the four-line split systems --------------------------------------------------

_case("split.d", "both", "X in D (+ <xi> when contact)",
      "f2X + fwX = eps * (X - eta(X) xi)")(_split, a="f", draw="x_dxi", rhs=_eps_horizontal)
_case("split.d2", "both", "X in D (+ <xi> when contact)", "wfX + w2X = 0")(
    _split, a="w", draw="x_dxi")
_case("split.g", "both", "U in G", "f2U + fwU = 0")(_split, a="f", draw="u_g")
_case("split.g2", "both", "U in G", "wfU + w2U = eps * U")(
    _split, a="w", draw="u_g", rhs=lambda ctx, u: ctx.eps * u)

# -- w^2 on components -------------------------------------------------------------

def _w2comp(ctx, side, w2, outside):
    draws, _, forms = side.tables()
    right = np.abs(side.slant["sin2"][..., 0] - 1.0) <= PI2_TOL
    return np.maximum(_rel(forms[w2], draws["norm"], right),
                      _rel(forms[outside], draws["norm"], ~right))


_case("w2.component", "both", "X_i in D_i",
      "w2(D_i) inside w(D_i); w2(D_i) = 0 when theta_i = pi/2", side="D")(
    _w2comp, w2=Form("w2", "norm"), outside=Form("outside", "norm"))


# -- norm relations ------------------------------------------------------------------

_case("norm.f-sum", "both", "X in D", "|fX|^2 = sum_i cos^2(theta_i) * |X_i|^2",
      side="D0+D")(_summed_metric, lhs=Form("own", "xx", False), coeff="cos2")
_case("norm.w-dualsum", "both", "U in w(D)", "|wU|^2 = sum_i cos^2(theta_i) * |U_i|^2",
      side="w(D)")(_summed_metric, lhs=Form("own", "xx", False), coeff="cos2")
_case("norm.f-invariant", "both", "X_0 in D_0", "|fX_0| = |X_0|", side="D_0")(
    _component_norm, lhs=Form("own", "norm"), coeff=None)
_case("norm.wx-sin", "both", "X_i in D_i", "|wX_i| = sin(theta_i) * |X_i|", side="D",
      twin=("norm.fu-sin", "U_i in w(D_i)", "|fU_i| = sin(theta_i) * |U_i|"))(
    _component_norm, lhs=Form("other", "norm"), coeff="sin")
_case("norm.wx-sumsq", "both", "X in sum of proper D_i",
      "|wX|^2 = sum_i sin^2(theta_i) * |X_i|^2", side="D",
      twin=("norm.fu-sumsq", "U in w(D)", "|fU|^2 = sum_i sin^2(theta_i) * |U_i|^2"))(
    _summed_metric, lhs=Form("other", "xx", False), coeff="sin2")

# -- angle (conformality) relations -----------------------------------------------

_OWN_AND_PHI = (Form("own", "cos"), Form("phi", "cos"))

_case("angle.f-invariant", "both", "X_0, Y_0 in D_0",
      "cos<(fX_0, fY_0) = cos<(phi X_0, phi Y_0) = cos<(X_0, Y_0)", side="D_0")(
    _component_angle, maps=_OWN_AND_PHI)
_case("angle.f-slant", "both", "X_i, Y_i in D_i, theta_i < pi/2",
      "cos<(fX_i, fY_i) = cos<(phi X_i, phi Y_i) = cos<(X_i, Y_i)", side="D")(
    _component_angle, maps=_OWN_AND_PHI, pred=_below_right_angle)
_case("dual.w-metric-cos2", "both", "U_i, V_i in w(D_i)",
      "g(wU_i, wV_i) = cos^2(theta_i) * g(U_i, V_i)", side="w(D)")(
    _component_metric, lhs=Form("own", "xy"), coeff="cos2")
_case("angle.w-h", "both", "U_0, V_0 in H",
      "cos<(wU_0, wV_0) = cos<(U_0, V_0) = cos<(phi U_0, phi V_0)", side="H")(
    _component_angle, maps=_OWN_AND_PHI)
_case("angle.w-dual", "both", "U_i, V_i in w(D_i), theta_i < pi/2",
      "cos<(wU_i, wV_i) = cos<(U_i, V_i) = cos<(phi U_i, phi V_i)", side="w(D)")(
    _component_angle, maps=_OWN_AND_PHI, pred=_below_right_angle)


@_case("angle.phi-dg", "both", "Z, W in D + G",
       "cos<(phi Z, phi W) = cos<(Z, W)")
def _aphidg(ctx):
    z, w = ctx.x_d + ctx.u_g, ctx.y_d + ctx.v_g
    return ctx.cos_diff(ctx.cos_angle(ctx.apply_phi(z), ctx.apply_phi(w)), ctx.cos_angle(z, w))


_case("dual.wx-metric-sin2", "both", "X_i, Y_i in D_i",
      "g(wX_i, wY_i) = sin^2(theta_i) * g(X_i, Y_i)", side="D",
      twin=("dual.fu-metric-sin2", "U_i, V_i in w(D_i)",
            "g(fU_i, fV_i) = sin^2(theta_i) * g(U_i, V_i)"))(
    _component_metric, lhs=Form("other", "xy"), coeff="sin2")
_case("angle.wx-conformal", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(wX_i, wY_i) = cos<(X_i, Y_i)", side="D",
      twin=("angle.fu-conformal", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(fU_i, fV_i) = cos<(U_i, V_i)"))(
    _component_angle, maps=(Form("other", "cos"),), pred=_above_zero)

# -- summed relations across components ----------------------------------------------

_case("sum.w-metric", "both", "X, Y in sum of proper D_i",
      "g(wX, wY) = sum_i sin^2(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sum.f-metric", "U, V in w(D)",
            "g(fU, fV) = sum_i sin^2(theta_i) * g(U_i, V_i)"))(
    _summed_metric, lhs=Form("other", "xy", False), coeff="sin2")
_case("sum.w-angle", "both", "X, Y in sum of proper D_i",
      "cos<(wX, wY) = cos<(sum sin(theta_i) X_i, sum sin(theta_i) Y_i)", side="D",
      twin=("sum.f-angle", "U, V in w(D)",
            "cos<(fU, fV) = cos<(sum sin(theta_i) U_i, sum sin(theta_i) V_i)"))(
    _summed_angle, lhs=Form("other", "cos", False), rhs=Form("id", "cos", False, scale="sin"))


def _all_positive_sin(ctx):
    """(P,) mask of the points where every proper theta_i > 0."""
    return np.all(ctx.sin[:, ctx.proper, 0] > PI2_TOL, axis=1)


def _invsin_metric(ctx, side, lhs):
    _, sums, forms = side.tables()
    return _rel(sums["xy"] - _total(side, "1/sin2", forms[lhs]), sums["norm"] * sums["norm_y"],
                _all_positive_sin(ctx)[:, None])


def _invsin_angle(ctx, side, rhs):
    _, sums, forms = side.tables()
    return ctx.cos_diff(sums["cos"], forms[rhs], _all_positive_sin(ctx)[:, None])


_case("invsin.x-metric", "both", "X, Y in sum of proper D_i, theta_i > 0",
      "g(X, Y) = sum_i g(wX_i, wY_i) / sin^2(theta_i)", side="D",
      twin=("invsin.u-metric", "U, V in w(D), theta_i > 0",
            "g(U, V) = sum_i g(fU_i, fV_i) / sin^2(theta_i)"))(
    _invsin_metric, lhs=Form("other", "xy"))
_case("invsin.x-angle", "both", "X, Y in sum of proper D_i, theta_i > 0",
      "cos<(X, Y) = cos<(sum wX_i / sin(theta_i), sum wY_i / sin(theta_i))", side="D",
      twin=("invsin.u-angle", "U, V in w(D), theta_i > 0",
            "cos<(U, V) = cos<(sum fU_i / sin(theta_i), sum fV_i / sin(theta_i))"))(
    _invsin_angle, rhs=Form("other", "cos", False, scale="1/sin"))

# -- sin^4 corollaries ------------------------------------------------------------

_case("sin4.fw-metric", "both", "X_i, Y_i in D_i",
      "g(fwX_i, fwY_i) = sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4.wf-metric", "U_i, V_i in w(D_i)",
            "g(wfU_i, wfV_i) = sin^4(theta_i) * g(U_i, V_i)"))(
    _component_metric, lhs=Form("round_trip", "xy"), coeff="sin4")
_case("sin4.fw-angle", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(fwX_i, fwY_i) = cos<(X_i, Y_i)", side="D",
      twin=("sin4.wf-angle", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(wfU_i, wfV_i) = cos<(U_i, V_i)"))(
    _component_angle, maps=(Form("round_trip", "cos"),), pred=_above_zero)
_case("sin4sum.fw-metric", "both", "X, Y in sum of proper D_i",
      "g(fwX, fwY) = sum_i sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4sum.wf-metric", "U, V in w(D)",
            "g(wfU, wfV) = sum_i sin^4(theta_i) * g(U_i, V_i)"))(
    _summed_metric, lhs=Form("round_trip", "xy", False), coeff="sin4")
_case("sin4sum.fw-angle", "both", "X, Y in sum of proper D_i",
      "cos<(fwX, fwY) = cos<(sum sin^2(theta_i) X_i, sum sin^2(theta_i) Y_i)", side="D",
      twin=("sin4sum.wf-angle", "U, V in w(D)",
            "cos<(wfU, wfV) = cos<(sum sin^2(theta_i) U_i, sum sin^2(theta_i) V_i)"))(
    _summed_angle, lhs=Form("round_trip", "cos", False),
    rhs=Form("id", "cos", False, scale="sin2"))

# -- G-side component sums ---------------------------------------------------------

_case("gside.wf-projsum", "both", "U in w(D)", "wfU = eps * sum_i sin^2(theta_i) * U_i",
      side="w(D)")(_summed_vector, lhs=Form("round_trip", "norm", False, "sin2"))
_case("gside.w2-projsum", "both", "U in w(D)", "w2U = eps * sum_i cos^2(theta_i) * U_i",
      side="w(D)")(_summed_vector, lhs=Form("square", "norm", False, "cos2"))
_case("gside.metric.w", "both", "U, V in w(D)",
      "g(wU, wV) = sum_i cos^2(theta_i) * g(U_i, V_i)", side="w(D)")(
    _summed_metric, lhs=Form("own", "xy", False), coeff="cos2")
_case("gside.metric.phi", "both", "U, V in w(D)", "g(phi U, phi V) = sum_i g(U_i, V_i)",
      side="w(D)")(_summed_metric, lhs=Form("phi", "xy", False), coeff=None)

# -- H relations ----------------------------------------------------------------------

_case("h.w2", "both", "U_0 in H", "w2U_0 = eps * U_0", side="H")(
    _eps_fixed, lhs=Form("square", "norm", shift=True))
_case("h.metric", "both", "U_0, V_0 in H", "g(wU_0, wV_0) = g(U_0, V_0)", side="H")(
    _component_metric, lhs=Form("own", "xy"), coeff=None)
_case("h.norm", "both", "U_0 in H", "|wU_0| = |U_0|", side="H")(
    _component_norm, lhs=Form("own", "norm"), coeff=None)

# -- the right-angle special case -------------------------------------------------------------

_case("pi2.fw", "both", "X_j in D_j with theta_j = pi/2", "fwX_j = eps * X_j", side="D",
      twin=("pi2.wf", "U_j in w(D_j) with theta_j = pi/2", "wfU_j = eps * U_j"))(
    _eps_fixed, lhs=Form("round_trip", "norm", shift=True), pred=_right_angle)


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
    """Evaluate every applicable registry identity over the stacked sample
    points and report the worst residual per key, with the first point
    holding it as witness (a NaN residual is the worst). Report-only: never
    raises on a failing identity; SpecError on a key not in REGISTRY."""
    points = list(points)
    if not points:
        raise SpecError("identity suite needs at least one point")
    if trials < 1:
        raise SpecError("trials must be >= 1")
    wanted = None if keys is None else set(keys)
    unknown = sorted((wanted or set()) - {case.key for case in REGISTRY})
    if unknown:
        raise SpecError(f"unknown identity keys: {', '.join(unknown)}")
    tol = tolerances.identity
    setting = "contact" if dec.structure.is_contact else "hermitian"
    ctx = PointContext(dec, points, trials, seed, tolerances)
    cases = [case for case in REGISTRY if wanted is None or case.key in wanted]
    residuals = {}
    # side by side, so that one side's tables are held at a time
    for side in dict.fromkeys(case.side for case in cases):
        for case in cases:
            if case.side == side and case.settings in ("both", setting):
                residuals[case.key] = case.evaluator(ctx)
        if side is not None:
            ctx.sides[side].release()
    entries = []
    for case in cases:
        entry = {"key": case.key, "setting": case.settings, "domain": case.domain,
                 "statement": case.statement, "max_residual": None,
                 "witness_point": None, "verdict": "skipped(setting)"}
        if case.key in residuals:
            p = int(np.argmax(residuals[case.key]))   # the first nan, else the first largest
            worst = float(residuals[case.key][p])
            if worst == -np.inf:
                entry["verdict"] = "skipped(vacuous)"
            else:
                entry["max_residual"] = worst
                entry["witness_point"] = ctx.points[p].tolist()
                entry["verdict"] = "pass" if worst <= tol else "fail"
        entries.append(entry)
    return SuiteReport(entries, tol, trials, seed)


# ---------------------------------------------------------------------------
# Connection criteria (flat ambient space only)
# ---------------------------------------------------------------------------

def _require_flat_masked(dec: Decomposition, need_mask: bool = True):
    if not dec.structure.metric_is_euclidean:
        raise UnsupportedError("connection probes support the euclidean metric only")
    if need_mask and dec.mask is None:
        raise UnsupportedError("connection probes need a submanifold mask")


def _check_in_mask(dec: Decomposition, direction: np.ndarray):
    """SpecError when a direction (n,), or one of a stack (..., n), has a
    part outside the submanifold mask."""
    if dec.mask is None:
        return
    outside = [i for i in range(dec.structure.n) if (i + 1) not in dec.mask]
    if outside and float(np.max(np.abs(direction[..., outside]), initial=0.0)) > 1e-12:
        raise SpecError("probe direction leaves the submanifold mask")


def _displaced_frames(dec: Decomposition, x: np.ndarray, d: np.ndarray, h: float) -> FrameStack:
    """The frame stack of x + hX and x - hX for a central difference along X,
    outside the decomposition's frame cache (it is needed once). SpecError
    when the step h leaves a coordinate that X moves unchanged."""
    _check_in_mask(dec, d)
    plus, minus = x + h * d, x - h * d
    moved = d != 0.0
    if np.any((plus == x)[moved]) or np.any((minus == x)[moved]):
        raise SpecError(f"fd_step {h!r} leaves a coordinate of {x.tolist()} unchanged "
                        "along the probe direction; the central difference needs a larger step")
    return FrameStack(dec, [plus, minus])


def nabla_f2(dec: Decomposition, point, direction, y,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """(nabla_X f^2) Y in flat ambient space by central differences of the
    ambient matrix field of f^2|D at x +- hX, h = `tolerances.fd_step`, with
    Y extended constantly along X (any smooth extension gives the same
    value, and the constant one is free). The connection probe computes it
    exactly; this is its finite-difference oracle.

    `y` is one vector (n,) or the columns of an (n, r) matrix; the displaced
    fields at x +- hX are computed once for all columns."""
    _require_flat_masked(dec, need_mask=False)
    x = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    yv = np.asarray(y, dtype=float)
    if float(np.max(np.abs(d))) == 0.0:
        return np.zeros_like(yv)
    h = tolerances.fd_step
    fp, fm = _displaced_frames(dec, x, d, h).frames
    return ((fp.f2_ambient() - fm.f2_ambient()) / (2.0 * h)) @ yv


def eigenvalue_directional_derivative(dec: Decomposition, point, comp_index: int, direction,
                                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """X(lambda_i): central difference of the component's single-cluster
    eigenvalue (`classifier.single_cluster_lambda` on its block of the f^2
    Gram) at x +- hX, with h = `tolerances.fd_step`; the finite-difference
    oracle of the connection probe."""
    h = tolerances.fd_step
    x = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    lam_p, lam_m = slant_lambdas(_displaced_frames(dec, x, d, h), [comp_index], tolerances)[:, 0]
    return float(lam_p - lam_m) / (2.0 * h)


def _stacked_directions(stack: FrameStack):
    """The probe's directions X at every point (P, q, n), the component
    whose basis column each row is (q, c), and whether it is a masked
    coordinate direction (q, 1). A basis column that is the same masked
    coordinate direction at every point shares that direction's row; every
    other column has its own, so q is the same at every point. Basis columns
    come first, in order, then the other coordinate directions."""
    units = {tuple(d.tolist()): d for d in stack.dec.tm_directions()}
    rows: dict = {}   # key -> [X (P, n), the component of the column, along a coordinate]
    for col, ci in zip(np.moveaxis(stack.basis_d, -1, 0), stack.owner):
        key = tuple(col[0].tolist())
        rows[key if key in units and (col == col[0]).all() else len(rows)] = [col, ci, False]
    for key, unit in units.items():
        rows.setdefault(key, [np.broadcast_to(unit, stack.x.shape), -1, False])[2] = True
    dirs, owner, along_tm = zip(*rows.values())
    return (np.stack(dirs, axis=1), np.array(owner)[:, None] == np.arange(len(stack.bases)),
            np.array(along_tm)[:, None])


def connection_criterion_report(dec: Decomposition, points,
                                tolerances: Tolerances = DEFAULT_TOLERANCES,
                                seed: int = DEFAULT_SEED,
                                classification=None) -> dict:
    """Per component: (a) max |(nabla_X f^2) Y| over X, Y in D_i,
    (b) max |X(lambda_i)| over X in D_i, (c) the same over all masked
    directions; cross-tabulated against the classifier's constancy verdicts.

    The derivatives are exact, from the tangents of the fields' fill
    programs at the sample points (`tangents.frame_derivatives` on point
    chunks of at most PROBE_ELEMENTS = P * (q * n * r + m * n * (n + r))
    elements, m * n * (n + r) the dense Jacobians of phi and, unless constant,
    of the fields' fill); no frame is built at x +- hX. The step h
    (`tolerances.fd_step`) sets the first-order models on which the checks of
    such frames run (a component whose cluster splits there to first order
    raises ComponentError), and the central difference that stands in for a
    fill's derivatives where one of its tangents faults. `nabla_f2` and
    `eigenvalue_directional_derivative` are the finite-difference oracles. A
    basis column with a part outside the submanifold mask is a SpecError.

    The hypotheses behind the underlying equivalences (covariant derivatives
    staying inside D) are sample-checked only, never certified; entries say
    "sampled" to make that explicit.
    """
    _require_flat_masked(dec)
    points = list(points)
    if classification is None:
        classification = classify(dec, points, tolerances, seed=seed)
    by_name = {e["name"]: e for e in classification.components}
    comps = dec.components
    max_nabla = max_dlam_in = max_dlam_tm = np.zeros(len(comps))
    if points:
        stack, coords = dec.frame_stack(points), [i - 1 for i in dec.mask]
        h = tolerances.fd_step
        dirs, within, along_tm = _stacked_directions(stack)
        _check_in_mask(dec, dirs)
        checked, off = within | along_tm, stack.offsets
        q, n = dirs.shape[1:]
        r = 0 if dec.fill.program().constant else off[-1]    # the fields' Jacobian's width
        chunk = max(1, PROBE_ELEMENTS // (n * (q * off[-1] + len(coords) * (n + r))))
        for lo in range(0, len(points), chunk):
            part = slice(lo, lo + chunk)
            d_f2, norms = frame_derivatives(stack, part, dirs[part], coords, h)
            # one cluster in the band on each M_i +- h dM_i (dM_i symmetrised), where checked
            dm = (0.5 * (d + d.swapaxes(-1, -2))       # each symmetrised block, one at a time
                  for d in (d_f2[..., a:b, a:b] for a, b in zip(off, off[1:])))
            models = [first_order_models(stack.f2[part, a:b, a:b], d, h)
                      for a, b, d in zip(off, off[1:], dm)]
            single_cluster_lambda(dec.component_names(), models, "to first order near",
                                  stack.x[part, None, None], stack.epsilon, tolerances, checked)
            nabla = np.maximum.reduceat(norms, off[:-1], axis=-1)
            traces = np.add.reduceat(np.einsum("pqii->pqi", d_f2), off[:-1], axis=-1)
            dlam = np.abs(traces) / np.diff(off)
            max_nabla = np.maximum(max_nabla, np.where(within, nabla, 0.0).max(axis=(0, 1)))
            max_dlam_in = np.maximum(max_dlam_in, np.where(within, dlam, 0.0).max(axis=(0, 1)))
            max_dlam_tm = np.maximum(max_dlam_tm, np.where(along_tm, dlam, 0.0).max(axis=(0, 1)))
    rows = []
    consistent_all = True
    for ci, comp in enumerate(comps):
        derivative_constant = bool(max_dlam_tm[ci] <= tolerances.zero_threshold)
        classifier_constant = by_name[comp.name]["verdict"] in ("invariant", "slant")
        consistent = derivative_constant == classifier_constant
        consistent_all = consistent_all and consistent
        rows.append({
            "component": comp.name,
            "max_nabla_f2": float(max_nabla[ci]),
            "max_dlambda_within": float(max_dlam_in[ci]),
            "max_dlambda_tm": float(max_dlam_tm[ci]),
            "derivative_constant": derivative_constant,
            "classifier_constant": classifier_constant,
            "consistent": consistent,
            "hypothesis_scope": "sampled",
        })
    return {
        "zero_threshold": tolerances.zero_threshold,
        "step": tolerances.fd_step,
        "components": rows,
        "consistent": consistent_all,
    }
