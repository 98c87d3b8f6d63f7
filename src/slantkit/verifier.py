"""Exhaustive identity suite and the flat-ambient connection criteria.

Every identity carries a stable key in REGISTRY; the checked-in manifest
(taxonomy module) mirrors the key list, so coverage changes are visible
diffs. Each identity holds for all vectors of a subspace, and each case
reads its largest relative residual over all of them off one small matrix,
as the structure check does: nothing is drawn at random. The sample points
and the components are array axes: each case runs once over the stack of P
points and K components and returns one residual per point, a (P,) vector:
the worst over the components quantified there, NaN when one is NaN, -inf
where none is. `run_identity_suite` folds it over the points:
`max_residual` is its largest entry, a NaN exceeding every number, and
`witness_point` the first point holding it. Keys whose setting does not
match the structure kind report "skipped(setting)"; keys quantified at no
sample point (no invariant remainder H, no right-angle component) report
"skipped(vacuous)".

The suite works in frame coordinates: a vector is its coefficients in the
g-orthonormal adapted frame E = [basis_d | xi_unit | basis_g] of the
command's `FrameStack`, so g(u, v) is a dot product and every map is a
block-masked copy of the one matrix T = E^T g phi E (`FrameStack.phi_adapted`):
f keeps the D rows of T, w the others, and eta is one coordinate. D, D-perp,
G and their sums are sets of coordinates; the components D_i, w(D_i) and H
are the orthonormal bases of a `forms.Side`, where a map m is its image of
the bases (P, n, K * r) and g(mX, mY) = X^T G Y with G that image's Gram.

With s_1 >= ... >= s_q the singular values of a map on a q-dimensional
subspace (kappa = s_1 / s_q), each family's supremum over the subspace is
(docs/taxonomy.md has the proof of the last):

    bilinear  |g(X, RY)| / (|X| |Y|)                 s1(R)
    vector    |MX| / |X|                             s1(M)
    norm      | |mX| - c |X| | / |X|                 max_j |s_j - c|
    angle     |cos<(AX, AY) - cos<(X, Y)|            2 (kappa - 1) / (kappa + 1)

An angle relation between two maps, cos<(AX, AY) = cos<(CX, CY) with C
invertible, is the angle form of A C^-1 (substitute Z = CX).

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
maps, the subspaces and the coefficient (table in docs/taxonomy.md):

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
from .forms import Side
from .linalg import singular_values, spectral_norms
from .sampling import DEFAULT_SEED
from .structure import frame_axiom_residuals
from .tangents import first_order_models, frame_derivatives

PI2_TOL = 1e-8
PROBE_ELEMENTS = 1 << 18    # bounds P * (q * n * r + m * n * (n + r)), a `frame_derivatives` chunk


class PointContext:
    """The identity suite's data at all sample points in frame coordinates,
    stacked on a leading point axis P: phi, f and w (P, n, n), the
    coordinates `rows` of D, D-perp, G, D + <xi>, D + G and xi-perp, the
    slant tables `cos`, `sin`, `cos2`, `sin2`, `sin4` (P, ncomp) and the
    `sides`, which hold the components' bases and the maps on them."""

    def __init__(self, dec: Decomposition, points, tolerances: Tolerances):
        stack = dec.frame_stack(points)
        npts, n = len(stack.x), dec.structure.n
        t_phi, off = stack.phi_adapted, stack.offsets
        d, self.contact = off[-1], stack.xi is not None
        in_d = np.arange(n)[:, None] < d
        self.phi, self.f, self.w = t_phi, np.where(in_d, t_phi, 0.0), np.where(in_d, 0.0, t_phi)
        self.points, self.eps, self.proper = list(stack.x), stack.epsilon, stack.proper_indices
        every, g_rows = np.arange(n), np.arange(n)[stack.g_rows]
        self.rows = {"D": every[:d], "perp": every[d:], "G": g_rows,
                     "D+xi": every[:d + self.contact], "D+G": np.concatenate([every[:d], g_rows]),
                     "xi-perp": np.delete(every, d) if self.contact else every}
        self.identity, self.horizontal, self.xi = np.eye(n), np.eye(n), None
        if self.contact:    # horizontal: X - eta(X) xi
            self.horizontal[d, d] = 0.0
            self.xi = np.broadcast_to(self.identity[d], (npts, n))

        ncomp = len(stack.bases)
        self.cos2 = np.ones((npts, ncomp))
        lam = slant_lambdas(stack, self.proper, tolerances)
        self.cos2[:, self.proper] = np.minimum(np.maximum(self.eps * lam, 0.0), 1.0)
        self.sin2 = 1.0 - self.cos2
        self.cos, self.sin = np.sqrt(self.cos2), np.sqrt(self.sin2)
        # libm's pow, as a scalar sin^2 ** 2 rounds (numpy's square may differ by an ulp)
        self.sin4 = np.array([[s ** 2 for s in row] for row in self.sin2.tolist()])
        # 1/sin is 0 where sin <= PI2_TOL
        inv = np.divide(1.0, self.sin, out=np.zeros_like(self.sin), where=self.sin > PI2_TOL)
        slant = {"cos": self.cos, "sin": self.sin, "cos2": self.cos2, "sin2": self.sin2,
                 "sin4": self.sin4, "1/sin": inv, "1/sin2": inv * inv}

        def padded(bases, rows):
            """The K `bases` (P, |rows|, r_k) in the coordinates `rows`, zero-padded
            to the largest rank and laid side by side (P, n, K * r)."""
            r = max((b.shape[-1] for b in bases), default=0)
            out = np.zeros((npts, n, len(bases), r))
            for k, basis in enumerate(bases):
                out[:, rows, k, :basis.shape[-1]] = basis
            return out.reshape(npts, n, -1)

        prop = slice(ncomp - len(self.proper), ncomp)
        duals = padded(stack.duals, stack.g_rows)
        hs = [stack.h_basis] if stack.h_basis.shape[-1] else []

        def d_side(comps):
            """The Side of D's components `comps` (a slice): coordinate columns."""
            ranks = np.diff(off)[comps]
            slot = np.arange(max(ranks, default=0))
            cols = np.where(slot < ranks[:, None], np.array(off[:-1])[comps, None] + slot, -1)
            cols = cols.ravel()
            basis = np.where(cols >= 0, self.identity[:, cols], 0.0)[None]
            return Side((self.f, self.w, self.phi), basis, ranks, comps, slant, cols,
                        duals if comps == prop else None)

        on_w = (self.w, self.f, self.phi)
        self.sides = {"D": d_side(prop), "D0+D": d_side(slice(0, ncomp)),
                      "D_0": d_side(slice(0, prop.start)),
                      "w(D)": Side(on_w, duals, [b.shape[-1] for b in stack.duals], prop, slant),
                      "H": Side(on_w, padded(hs, stack.g_rows), [b.shape[-1] for b in hs], None,
                                slant)}
        self.nowhere = np.full(npts, -np.inf)   # the residual of a key quantified nowhere

    @cached_property
    def axioms(self):
        """The structure axioms' residuals (`structure.frame_axiom_residuals`)."""
        return frame_axiom_residuals(self.phi, self.xi, self.eps)


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
    fn(ctx, side, **params) sees the `PointContext.sides` entry `side`, and
    reads -inf at every point where the side has no component; a twin is
    registered once per side of the duality. `twin`, a (key, domain,
    statement) triple, registers the w(D) side right after the D side."""
    def wrap(fn, **params):
        ev = partial(fn, **params) if params else fn
        if side is not None:
            ev = partial(_on_side, ev, side)
        REGISTRY.append(IdentityCase(key, settings, domain, statement, ev, side))
        if twin is not None:
            _case(twin[0], settings, *twin[1:], side="w(D)")(fn, **params)
        return fn
    return wrap


def _on_side(fn, name, ctx):
    side = ctx.sides[name]
    return fn(ctx, side) if side.ranks.size else ctx.nowhere


def _worst(residuals, held=True):
    """Per point, the largest of the residuals (P, K) over the components
    held there (a (P, K) mask): a NaN wins, and -inf marks a point where
    none is held."""
    if held is not True:
        residuals = np.where(held, residuals, -np.inf)
    return np.max(residuals, axis=1, initial=-np.inf)


def _angle(s, rank):
    """The angle residual 2 (kappa - 1) / (kappa + 1) of a map with singular
    values s (..., r), kappa = s_1 / s_rank (`rank` broadcasts against
    s[..., 0]; the values past it are the zero padding's). The zero map
    reads 1: the cosine of a zero vector is 0."""
    s_min = np.take_along_axis(s, np.broadcast_to(np.asarray(rank)[..., None] - 1,
                                                  s.shape[:-1] + (1,)), axis=-1)[..., 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s[..., 0] == 0.0, 1.0, 2.0 * (s[..., 0] - s_min) / (s[..., 0] + s_min))


REGISTRY: list[IdentityCase] = []


# -- structure-level identities ------------------------------------------------

def _axiom(ctx, name):
    return ctx.axioms[name]


_case("struct.compat", "both", "X,Y ambient", "g(phi X, Y) = eps * g(X, phi Y)")(
    _axiom, name="compatibility")
_case("struct.contact-metric", "contact", "X,Y ambient",
      "g(phi X, phi Y) = g(X, Y) - eta(X) * eta(Y)")(_axiom, name="metric-law")


@_case("struct.contact-isometry", "contact", "X ambient, X perp xi",
       "|phi X| = |X| for X orthogonal to xi")
def _contact_isometry(ctx):
    """The largest |s_j - 1| over the singular values of phi on xi-perp."""
    return np.max(np.abs(singular_values(ctx.phi[:, :, ctx.rows["xi-perp"]]) - 1.0), axis=-1)


_case("struct.isometry", "hermitian", "X,Y ambient", "g(phi X, phi Y) = g(X, Y)")(
    _axiom, name="metric-law")


# -- identity families ------------------------------------------------------------------
#
# A family is one shape; each member is a `_case` row binding the shape's maps by
# name (a PointContext map "f", "w", "phi", or a Side image "own", "other", "phi",
# "square", "round_trip"), its coordinates or side, and its coefficient.

def _adjoint(ctx, a, b, rows):
    """g(X, aY) = eps * g(bX, Y) for X, Y in the coordinates `rows`: s1 of
    a - eps b^T there."""
    rx, ry = (ctx.rows[r] for r in rows)
    a, b = getattr(ctx, a), getattr(ctx, b)
    bt = np.swapaxes(b[:, ry[:, None], rx], -1, -2)
    return spectral_norms(a[:, rx[:, None], ry] - ctx.eps * bt)


def _double_adjoint(ctx, a, b, c, rows):
    """g(abX, Y) = eps * g(bX, bY) = g(X, cbY) for X, Y in the coordinates
    `rows`: the larger of s1((ab)^T - eps b^T b) and s1(eps b^T b - cb) there."""
    rx, ry = (ctx.rows[r] for r in rows)
    a, b, c = (getattr(ctx, m) for m in (a, b, c))
    bx, by = b[:, :, rx], b[:, :, ry]
    mid = ctx.eps * (np.swapaxes(bx, -1, -2) @ by)
    lhs = np.swapaxes(a[:, ry] @ bx, -1, -2)
    return np.maximum(spectral_norms(lhs - mid), spectral_norms(mid - c[:, rx] @ by))


def _split(ctx, a, rows, rhs=None):
    """One line of the split systems, a(fX) + a(wX) = eps * rhs X (or 0) for
    X in the coordinates `rows`: s1 of af + aw - eps rhs there."""
    x, a = ctx.rows[rows], getattr(ctx, a)
    m = a @ ctx.f[:, :, x] + a @ ctx.w[:, :, x]
    return spectral_norms(m if rhs is None else m - ctx.eps * getattr(ctx, rhs)[:, x])


def _weight(side, coeff):
    """c_i (P, K) of each of the side's components, the slant table `coeff`
    ("cos2", "sin2", "sin" or "sin4" of theta_i); 1 for None."""
    return np.ones((1, 1)) if coeff is None else side.slant[coeff]


def _held(side, pred):
    """(P, K) mask of the side's components where (cos, sin)(theta_i)
    satisfy `pred`, every one without a `pred`."""
    return True if pred is None else pred(side.slant["cos"], side.slant["sin"])


def _summed_metric(ctx, side, m, coeff):
    """g(mX, mY) = sum_i c_i * g(X_i, Y_i) for X, Y in the sum of the side's
    components (Y = X for the norm rows): s1(G - diag(c_i)), G the Gram of
    m's image."""
    col = side.column(coeff)
    return spectral_norms(side.gram(m, False) - np.eye(col.shape[-1]) * col)


def _summed_vector(ctx, side, m, coeff):
    """mX = eps * sum_i c_i * X_i for X in the sum of the side's components:
    s1 of m's image less eps c_i times the bases."""
    return spectral_norms(side.image(m) - ctx.eps * side.column(coeff) * side.image("id"))


def _summed_angle(ctx, side, m, coeff):
    """cos<(mX, mY) = cos<(CX, CY), C = diag(c_i), for X, Y in the sum of
    the side's components: with Z = CX, the angle residual of m C^-1, the
    slant table `coeff` naming 1/c_i."""
    return _angle(singular_values(side.image(m) * side.column(coeff)), side.ranks.sum())


def _component_metric(ctx, side, m, coeff):
    """g(mX_i, mY_i) = c_i * g(X_i, Y_i) on each of the side's components:
    s1(G_ii - c_i I)."""
    c = _weight(side, coeff)[..., None, None]
    return _worst(spectral_norms(side.gram(m, True) - c * side.eye))


def _component_norm(ctx, side, m, coeff):
    """|mX_i| = c_i * |X_i| on each of the side's components: the largest
    |s_j - c_i| over the singular values of m on D_i."""
    s = singular_values(side.blocks(side.image(m)))
    return _worst(np.max(np.where(side.valid, np.abs(s - _weight(side, coeff)[..., None]), -np.inf),
                         axis=-1, initial=-np.inf))


def _component_angle(ctx, side, maps, pred=None):
    """cos<(mX_i, mY_i) = cos<(X_i, Y_i) for each map m of `maps` on each of
    the side's components where (cos, sin)(theta_i) satisfy `pred`: the
    angle residual of m on D_i."""
    held, worst = _held(side, pred), ctx.nowhere
    for m in maps:
        s = singular_values(side.blocks(side.image(m)))
        worst = np.maximum(worst, _worst(_angle(s, side.ranks), held))
    return worst


def _eps_fixed(ctx, side, m, pred=None):
    """mX_i = eps * X_i on each of the side's components where (cos,
    sin)(theta_i) satisfy `pred`: s1 of m - eps on D_i."""
    diff = side.blocks(side.image(m) - ctx.eps * side.image("id"))
    return _worst(spectral_norms(diff), _held(side, pred))


def _below_right_angle(c, s):
    return c > PI2_TOL


def _above_zero(c, s):
    return s > PI2_TOL


def _right_angle(c, s):
    return np.abs(s - 1.0) <= PI2_TOL


# -- skew/self-adjointness of f and w -------------------------------------------------------------

# coordinate pairs: X,Y in D; X in D, U in D-perp; U,V in D-perp
_XY, _XU, _UV = ("D", "D"), ("D", "perp"), ("perp", "perp")

_case("adj.f-on-d", "both", "X,Y in D", "g(X, fY) = eps * g(fX, Y)")(
    _adjoint, a="f", b="f", rows=_XY)
_case("adj.f-vs-w", "both", "X in D, U in D-perp", "g(X, fU) = eps * g(wX, U)")(
    _adjoint, a="f", b="w", rows=_XU)
_case("adj.w-on-perp", "both", "U,V in D-perp", "g(U, wV) = eps * g(wU, V)")(
    _adjoint, a="w", b="w", rows=_UV)
_case("adj2.f-square", "both", "X,Y in D", "g(f2X, Y) = eps * g(fX, fY) = g(X, f2Y)")(
    _double_adjoint, a="f", b="f", c="f", rows=_XY)
_case("adj2.fw-on-d", "both", "X,Y in D", "g(fwX, Y) = eps * g(wX, wY) = g(X, fwY)")(
    _double_adjoint, a="f", b="w", c="f", rows=_XY)
_case("adj2.wf-on-perp", "both", "U,V in D-perp",
      "g(wfU, V) = eps * g(fU, fV) = g(U, wfV)")(
    _double_adjoint, a="w", b="f", c="w", rows=_UV)
_case("adj2.w-square-perp", "both", "U,V in D-perp",
      "g(w2U, V) = eps * g(wU, wV) = g(U, w2V)")(
    _double_adjoint, a="w", b="w", c="w", rows=_UV)
_case("adj2.wf-cross", "both", "X in D, U in D-perp",
      "g(wfX, U) = eps * g(fX, fU) = g(X, f2U)")(
    _double_adjoint, a="w", b="f", c="f", rows=_XU)
_case("adj2.w-square-cross", "both", "X in D, U in D-perp",
      "g(w2X, U) = eps * g(wX, wU) = g(X, fwU)")(
    _double_adjoint, a="w", b="w", c="f", rows=_XU)

# -- projector-sum identities on D: pr_i X = X_i ------------------------------------

_case("dsum.metric.phi", "both", "X,Y in D", "g(phi X, phi Y) = sum_i g(pr_i X, pr_i Y)",
      side="D0+D")(_summed_metric, m="phi", coeff=None)
_case("dsum.metric.f", "both", "X,Y in D",
      "g(fX, fY) = sum_i cos^2(theta_i) * g(pr_i X, pr_i Y)", side="D0+D")(
    _summed_metric, m="own", coeff="cos2")
_case("dsum.metric.w", "both", "X,Y in D",
      "g(wX, wY) = sum_{i>=1} sin^2(theta_i) * g(pr_i X, pr_i Y)", side="D0+D")(
    _summed_metric, m="other", coeff="sin2")
_case("f2.projsum", "both", "X in D", "f2X = eps * sum_i cos^2(theta_i) * pr_i X",
      side="D0+D")(_summed_vector, m="square", coeff="cos2")
_case("fw.projsum", "both", "X in D", "fwX = eps * sum_{i>=1} sin^2(theta_i) * pr_i X",
      side="D0+D")(_summed_vector, m="round_trip", coeff="sin2")

# -- the four-line split systems --------------------------------------------------

_case("split.d", "both", "X in D (+ <xi> when contact)",
      "f2X + fwX = eps * (X - eta(X) xi)")(_split, a="f", rows="D+xi", rhs="horizontal")
_case("split.d2", "both", "X in D (+ <xi> when contact)", "wfX + w2X = 0")(
    _split, a="w", rows="D+xi")
_case("split.g", "both", "U in G", "f2U + fwU = 0")(_split, a="f", rows="G")
_case("split.g2", "both", "U in G", "wfU + w2U = eps * U")(
    _split, a="w", rows="G", rhs="identity")

# -- w^2 on components -------------------------------------------------------------

def _w2comp(ctx, side):
    """s1 of w^2 on D_i where theta_i = pi/2, else of w^2 less its part in w(D_i)."""
    right = _held(side, _right_angle)
    inside, outside = (spectral_norms(side.blocks(side.image(m))) for m in ("w2", "outside"))
    return np.maximum(_worst(inside, right), _worst(outside, ~right))


_case("w2.component", "both", "X_i in D_i",
      "w2(D_i) inside w(D_i); w2(D_i) = 0 when theta_i = pi/2", side="D")(_w2comp)


# -- norm relations ------------------------------------------------------------------

_case("norm.f-sum", "both", "X in D", "|fX|^2 = sum_i cos^2(theta_i) * |X_i|^2",
      side="D0+D")(_summed_metric, m="own", coeff="cos2")
_case("norm.w-dualsum", "both", "U in w(D)", "|wU|^2 = sum_i cos^2(theta_i) * |U_i|^2",
      side="w(D)")(_summed_metric, m="own", coeff="cos2")
_case("norm.f-invariant", "both", "X_0 in D_0", "|fX_0| = |X_0|", side="D_0")(
    _component_norm, m="own", coeff=None)
_case("norm.wx-sin", "both", "X_i in D_i", "|wX_i| = sin(theta_i) * |X_i|", side="D",
      twin=("norm.fu-sin", "U_i in w(D_i)", "|fU_i| = sin(theta_i) * |U_i|"))(
    _component_norm, m="other", coeff="sin")
_case("norm.wx-sumsq", "both", "X in sum of proper D_i",
      "|wX|^2 = sum_i sin^2(theta_i) * |X_i|^2", side="D",
      twin=("norm.fu-sumsq", "U in w(D)", "|fU|^2 = sum_i sin^2(theta_i) * |U_i|^2"))(
    _summed_metric, m="other", coeff="sin2")

# -- angle (conformality) relations -----------------------------------------------

_OWN_AND_PHI = ("own", "phi")

_case("angle.f-invariant", "both", "X_0, Y_0 in D_0",
      "cos<(fX_0, fY_0) = cos<(phi X_0, phi Y_0) = cos<(X_0, Y_0)", side="D_0")(
    _component_angle, maps=_OWN_AND_PHI)
_case("angle.f-slant", "both", "X_i, Y_i in D_i, theta_i < pi/2",
      "cos<(fX_i, fY_i) = cos<(phi X_i, phi Y_i) = cos<(X_i, Y_i)", side="D")(
    _component_angle, maps=_OWN_AND_PHI, pred=_below_right_angle)
_case("dual.w-metric-cos2", "both", "U_i, V_i in w(D_i)",
      "g(wU_i, wV_i) = cos^2(theta_i) * g(U_i, V_i)", side="w(D)")(
    _component_metric, m="own", coeff="cos2")
_case("angle.w-h", "both", "U_0, V_0 in H",
      "cos<(wU_0, wV_0) = cos<(U_0, V_0) = cos<(phi U_0, phi V_0)", side="H")(
    _component_angle, maps=_OWN_AND_PHI)
_case("angle.w-dual", "both", "U_i, V_i in w(D_i), theta_i < pi/2",
      "cos<(wU_i, wV_i) = cos<(U_i, V_i) = cos<(phi U_i, phi V_i)", side="w(D)")(
    _component_angle, maps=_OWN_AND_PHI, pred=_below_right_angle)


@_case("angle.phi-dg", "both", "Z, W in D + G",
       "cos<(phi Z, phi W) = cos<(Z, W)")
def _aphidg(ctx):
    dg = ctx.rows["D+G"]
    return _angle(singular_values(ctx.phi[:, :, dg]), len(dg))


_case("dual.wx-metric-sin2", "both", "X_i, Y_i in D_i",
      "g(wX_i, wY_i) = sin^2(theta_i) * g(X_i, Y_i)", side="D",
      twin=("dual.fu-metric-sin2", "U_i, V_i in w(D_i)",
            "g(fU_i, fV_i) = sin^2(theta_i) * g(U_i, V_i)"))(
    _component_metric, m="other", coeff="sin2")
_case("angle.wx-conformal", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(wX_i, wY_i) = cos<(X_i, Y_i)", side="D",
      twin=("angle.fu-conformal", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(fU_i, fV_i) = cos<(U_i, V_i)"))(
    _component_angle, maps=("other",), pred=_above_zero)

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
    _summed_angle, m="other", coeff="1/sin")


def _all_positive_sin(ctx, side, shape, **params):
    """A shape's residual at the points where every proper theta_i > 0."""
    held = np.all(ctx.sin[:, ctx.proper] > PI2_TOL, axis=1)
    return np.where(held, shape(ctx, side, **params), -np.inf)


def _invsin_metric(ctx, side):
    """The residual is block diagonal: the largest s1(I - G_ii / sin^2) over
    the components, G the Gram of the other map's image."""
    gram = side.gram("other", True) * side.slant["1/sin2"][..., None, None]
    return _worst(spectral_norms(side.eye - gram))


_case("invsin.x-metric", "both", "X, Y in sum of proper D_i, theta_i > 0",
      "g(X, Y) = sum_i g(wX_i, wY_i) / sin^2(theta_i)", side="D",
      twin=("invsin.u-metric", "U, V in w(D), theta_i > 0",
            "g(U, V) = sum_i g(fU_i, fV_i) / sin^2(theta_i)"))(
    _all_positive_sin, shape=_invsin_metric)
_case("invsin.x-angle", "both", "X, Y in sum of proper D_i, theta_i > 0",
      "cos<(X, Y) = cos<(sum wX_i / sin(theta_i), sum wY_i / sin(theta_i))", side="D",
      twin=("invsin.u-angle", "U, V in w(D), theta_i > 0",
            "cos<(U, V) = cos<(sum fU_i / sin(theta_i), sum fV_i / sin(theta_i))"))(
    _all_positive_sin, shape=_summed_angle, m="other", coeff="1/sin")

# -- sin^4 corollaries ------------------------------------------------------------

_case("sin4.fw-metric", "both", "X_i, Y_i in D_i",
      "g(fwX_i, fwY_i) = sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4.wf-metric", "U_i, V_i in w(D_i)",
            "g(wfU_i, wfV_i) = sin^4(theta_i) * g(U_i, V_i)"))(
    _component_metric, m="round_trip", coeff="sin4")
_case("sin4.fw-angle", "both", "X_i, Y_i in D_i, theta_i > 0",
      "cos<(fwX_i, fwY_i) = cos<(X_i, Y_i)", side="D",
      twin=("sin4.wf-angle", "U_i, V_i in w(D_i), theta_i > 0",
            "cos<(wfU_i, wfV_i) = cos<(U_i, V_i)"))(
    _component_angle, maps=("round_trip",), pred=_above_zero)
_case("sin4sum.fw-metric", "both", "X, Y in sum of proper D_i",
      "g(fwX, fwY) = sum_i sin^4(theta_i) * g(X_i, Y_i)", side="D",
      twin=("sin4sum.wf-metric", "U, V in w(D)",
            "g(wfU, wfV) = sum_i sin^4(theta_i) * g(U_i, V_i)"))(
    _summed_metric, m="round_trip", coeff="sin4")
_case("sin4sum.fw-angle", "both", "X, Y in sum of proper D_i",
      "cos<(fwX, fwY) = cos<(sum sin^2(theta_i) X_i, sum sin^2(theta_i) Y_i)", side="D",
      twin=("sin4sum.wf-angle", "U, V in w(D)",
            "cos<(wfU, wfV) = cos<(sum sin^2(theta_i) U_i, sum sin^2(theta_i) V_i)"))(
    _summed_angle, m="round_trip", coeff="1/sin2")

# -- G-side component sums ---------------------------------------------------------

_case("gside.wf-projsum", "both", "U in w(D)", "wfU = eps * sum_i sin^2(theta_i) * U_i",
      side="w(D)")(_summed_vector, m="round_trip", coeff="sin2")
_case("gside.w2-projsum", "both", "U in w(D)", "w2U = eps * sum_i cos^2(theta_i) * U_i",
      side="w(D)")(_summed_vector, m="square", coeff="cos2")
_case("gside.metric.w", "both", "U, V in w(D)",
      "g(wU, wV) = sum_i cos^2(theta_i) * g(U_i, V_i)", side="w(D)")(
    _summed_metric, m="own", coeff="cos2")
_case("gside.metric.phi", "both", "U, V in w(D)", "g(phi U, phi V) = sum_i g(U_i, V_i)",
      side="w(D)")(_summed_metric, m="phi", coeff=None)

# -- H relations ----------------------------------------------------------------------

_case("h.w2", "both", "U_0 in H", "w2U_0 = eps * U_0", side="H")(_eps_fixed, m="square")
_case("h.metric", "both", "U_0, V_0 in H", "g(wU_0, wV_0) = g(U_0, V_0)", side="H")(
    _component_metric, m="own", coeff=None)
_case("h.norm", "both", "U_0 in H", "|wU_0| = |U_0|", side="H")(
    _component_norm, m="own", coeff=None)

# -- the right-angle special case -------------------------------------------------------------

_case("pi2.fw", "both", "X_j in D_j with theta_j = pi/2", "fwX_j = eps * X_j", side="D",
      twin=("pi2.wf", "U_j in w(D_j) with theta_j = pi/2", "wfU_j = eps * U_j"))(
    _eps_fixed, m="round_trip", pred=_right_angle)


_DUAL_PREFIXES = ("gside.", "h.", "dual.", "invsin.u", "sum.f-", "sin4.wf",
                  "sin4sum.wf", "norm.w-dualsum", "norm.fu", "angle.w-",
                  "angle.fu", "pi2.wf", "w2.component")

DUAL_KEYS = tuple(case.key for case in REGISTRY
                  if any(case.key.startswith(p) for p in _DUAL_PREFIXES))


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

class SuiteReport:
    def __init__(self, entries, tol):
        self.entries = entries
        self.tol = tol

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
        return {"tolerance": self.tol, "passed": self.passed, "cases": self.entries}


def run_identity_suite(dec: Decomposition, points,
                       tolerances: Tolerances = DEFAULT_TOLERANCES, keys=None) -> SuiteReport:
    """Evaluate every applicable registry identity over the stacked sample
    points and report the worst residual per key, with the first point
    holding it as witness (a NaN residual is the worst). Report-only: never
    raises on a failing identity; SpecError on a key not in REGISTRY."""
    points = list(points)
    if not points:
        raise SpecError("identity suite needs at least one point")
    wanted = None if keys is None else set(keys)
    unknown = sorted((wanted or set()) - {case.key for case in REGISTRY})
    if unknown:
        raise SpecError(f"unknown identity keys: {', '.join(unknown)}")
    tol = tolerances.identity
    setting = "contact" if dec.structure.is_contact else "hermitian"
    ctx = PointContext(dec, points, tolerances)
    cases = [case for case in REGISTRY if wanted is None or case.key in wanted]
    residuals = {}
    # side by side, so that one side's images are held at a time
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
    return SuiteReport(entries, tol)


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
