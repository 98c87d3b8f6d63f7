"""Distributions, decompositions, and the f/w split of phi relative to them.

A `DistributionFrame` is a rank-r distribution given by r vector fields. A
`Decomposition` fixes the ambient structure, an optional invariant component
D0, and the proper components D1..Dk, whose fields are the columns of one
fill (`Decomposition.fill`). Its data at a command's sample points is one
`FrameStack`, built once, every array with the points as a leading axis P:
every field and check is evaluated over the points at once, each check
naming its own first failing point.
`PointFrame` is one point's view of it.

For a tangent Z, fZ is the component of phi(Z) inside D and wZ the remainder
in the orthogonal complement. In the contact-like case D is required to be
orthogonal to xi, and the complement used for the dual theory is
G = (D + <xi>)-perp; the w-component of phi(Z) automatically lies in G since
eta annihilates the image of phi.

The split is read in frame coordinates: in the g-orthonormal adapted frame
E = [basis_d | xi_unit (contact-like kinds) | basis_g], v = E c has the
coordinates c = E^T g v, g is the dot product and phi the matrix
T = E^T g phi E (`FrameStack.phi_adapted`), whose D rows are f and other rows
w. The f^2 Gram is the square of its D block T_DD (`phi_dd`), built from
basis_d alone, so commands that read only slant values build no complement.
w(D_i) is spanned by the block T[G, D_i], and H is their complement in G.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DimensionError, EvalError, InvariantError, ModelError, RankError, SpecError
from .expr import LiteralFill, literal_table
from .linalg import complement_columns, g_inner, mgs_columns, mgs_each, spectral_norms
from .structure import StructureField

PAIRWISE_ORTHO_TOL = 1e-10
F2_SYMMETRY_RTOL = 1e-9
F_ON_H_TOL = 1e-9
W_INJECTIVITY_TOL = 1e-8


def f2_gram(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The f^2 Gram `mat`, the square of an operator on orthonormal frame
    coordinates, symmetrized, for one point `x` or a stack. For a compatible
    phi it is symmetric in exact arithmetic: `check_f2_symmetric`."""
    check_f2_symmetric(mat, "at", x)
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def check_f2_symmetric(mat: np.ndarray, place: str, x: np.ndarray):
    """ModelError when an f^2 Gram `mat`, or a matrix of a stack of them
    (..., r, r), is not finite or has a relative asymmetry above
    F2_SYMMETRY_RTOL, `place` ("at", say) the point `x` (n,) or the member's
    own point (..., n). A flagged member is decided alone, as unstacked."""
    mats = mat.reshape(-1, *mat.shape[-2:])
    xs = np.broadcast_to(x, mat.shape[:-2] + x.shape[-1:]).reshape(len(mats), -1)
    asym = np.linalg.norm(mats - np.swapaxes(mats, -1, -2), axis=(-2, -1))
    scale = np.linalg.norm(mats, axis=(-2, -1))
    finite = np.isfinite(mats).all(axis=(-2, -1))
    for i in np.flatnonzero(~finite | (asym > 0.5 * F2_SYMMETRY_RTOL * scale) & (asym > 0.5e-14)):
        if not finite[i]:
            raise ModelError(f"restricted endomorphism square is not finite {place} "
                             f"{xs[i].tolist()}; the decomposition or structure is invalid")
        scale = max(float(np.linalg.norm(mats[i])), 1e-300)
        asym = float(np.linalg.norm(mats[i] - mats[i].T))
        if asym > F2_SYMMETRY_RTOL * scale and asym > 1e-14:
            raise ModelError(
                f"restricted endomorphism square is asymmetric (residual {asym:.3e}) "
                f"{place} {xs[i].tolist()}; the decomposition or structure is invalid")


def check_orthogonality(names: list[str], owner: np.ndarray, gram: np.ndarray,
                        xi_part: np.ndarray | None, place: str, x: np.ndarray):
    """InvariantError when an off-diagonal block of `gram`, the Gram
    basis_d^T g basis_d of each member of a stack (..., r, r), exceeds
    PAIRWISE_ORTHO_TOL, or when `xi_part` = xi^T g basis_d (..., r) does;
    `owner` holds the component of each column of basis_d. Names the first
    failing member (C order: point-major), then its first failing pair
    (i, j), i < j, or else its first component not orthogonal to xi,
    `place` ("at", say) its point: `x` (n,) or one per member (..., n)."""
    xi_part = np.zeros(gram.shape[:-1]) if xi_part is None else xi_part
    lead = np.broadcast_shapes(gram.shape[:-2], xi_part.shape[:-1])
    pairs = np.broadcast_to((np.abs(gram) > PAIRWISE_ORTHO_TOL)
                            & (owner[:, None] < owner[None, :]), lead + gram.shape[-2:])
    off_xi = np.broadcast_to(np.abs(xi_part) > PAIRWISE_ORTHO_TOL, lead + xi_part.shape[-1:])
    for idx in map(tuple, np.argwhere(pairs.any(axis=(-2, -1)) | off_xi.any(axis=-1))[:1]):
        point = np.broadcast_to(x, lead + x.shape[-1:])[idx].tolist()
        rows, cols = np.nonzero(pairs[idx])
        if rows.size:
            i, j = min(zip(owner[rows], owner[cols]))
            raise InvariantError(f"components {names[i]!r} and {names[j]!r} are not "
                                 f"orthogonal {place} {point}")
        raise InvariantError(f"component {names[owner[np.argmax(off_xi[idx])]]!r} is not "
                             f"orthogonal to xi {place} {point}")


def orthonormal_bases(names: list[str], g: np.ndarray, raws: list[np.ndarray], place: str,
                      x: np.ndarray) -> list[np.ndarray]:
    """`mgs_each(g, raws)` of the components' fields `raws`, (P, ..., n, r_i)
    each with the points as the leading axis. RankError names the first
    failing point, then component: `place` ("at", say) its point x[p]."""
    try:
        return mgs_each(g, raws)
    except RankError:
        for gp, xp, *raw in zip(g, x, *raws):
            for name, a in zip(names, raw):
                try:
                    mgs_columns(gp, a)
                except RankError as exc:
                    raise RankError(f"component {name!r} {place} {xp.tolist()}: {exc}") from None
        raise


class DistributionFrame:
    """A named rank-r distribution spanned by r vector fields.

    With a coordinate mask present (1-based indices of the submanifold's
    coordinates), every field must have identically zero components outside
    the mask; this is what restricts tangent data to a linear-subspace
    submanifold.
    """

    def __init__(self, name: str, fields, mask: tuple[int, ...] | None = None):
        fields = list(fields)
        if not fields:
            raise SpecError(f"distribution {name!r} has no fields")
        n = fields[0].n
        if any(f.n != n for f in fields):
            raise DimensionError(f"distribution {name!r} mixes field dimensions")
        if mask is not None:
            mask = tuple(sorted(set(map(int, mask))))
            if mask and (mask[0] < 1 or mask[-1] > n):
                raise DimensionError(f"mask indices for {name!r} outside 1..{n}")
            # the entries of the fields' literal table (NaN where no literal) that are
            # not 0, field by field
            for at in np.flatnonzero(literal_table(chain(*(f.components for f in fields)))):
                if at % n + 1 not in mask:
                    raise InvariantError(f"distribution {name!r}: field component x{at % n + 1} "
                                         "is not the literal 0 outside the submanifold mask")
        self.name, self.mask, self.n = name, mask, n
        self.fields, self.rank = tuple(fields), len(fields)


class Decomposition:
    """An ordered orthogonal decomposition D = D0 + D1 + ... + Dk relative to
    a structure; D0 (if present) is declared invariant."""

    def __init__(self, structure: StructureField, proper, invariant: DistributionFrame | None = None,
                 mask: tuple[int, ...] | None = None):
        proper = list(proper)
        if not proper and invariant is None:
            raise SpecError("a decomposition needs at least one component")
        comps = ([invariant] if invariant is not None else []) + proper
        n = structure.n
        for c in comps:
            if c.n != n:
                raise DimensionError(f"component {c.name!r} dimension differs from ambient")
        masks = {c.mask for c in comps if c.mask is not None}
        if mask is not None:
            mask = tuple(sorted(set(map(int, mask))))
        if masks:
            if len(masks) > 1 or (mask is not None and mask not in masks):
                raise SpecError("components carry inconsistent submanifold masks")
            mask = next(iter(masks))
        self.structure, self.invariant, self.proper = structure, invariant, tuple(proper)
        self.mask, self.components = mask, tuple(comps)
        self._frames: dict[tuple, PointFrame] = {}
        self._stacks: dict[tuple, FrameStack] = {}

    def component_names(self) -> list[str]:
        return [c.name for c in self.components]

    entries = cached_property(lambda d: [f.components for c in d.components for f in c.fields])

    @cached_property
    def fill(self) -> LiteralFill:
        """The components' R = sum r_i fields, in order, as the columns of one
        fill (n, R), walked field by field as phi's is column by column. An
        entry is named `vector field[j][i]`: component i of field j."""
        return LiteralFill(chain(*self.entries), (len(self.entries), self.structure.n),
                           "vector field", transpose=True)

    def raw_at(self, x: np.ndarray) -> np.ndarray:
        """The fields as the columns (..., n, R) of one matrix at x (..., n)."""
        return self.fill.at(x)

    def frame_stack(self, points) -> "FrameStack":
        """The frame stack of `points`, built once per sequence of points."""
        xs = [np.asarray(p, dtype=float) for p in points]
        key = tuple(tuple(x.tolist()) for x in xs)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = FrameStack(self, xs)
            for x, frame in zip(key, stack.frames):
                self._frames.setdefault(x, frame)
        return stack

    def frame_at(self, point) -> "PointFrame":
        """The frame at `point`, from a stack holding it or an unkept one-point stack."""
        x = np.asarray(point, dtype=float)
        return self._frames.get(tuple(x.tolist())) or FrameStack(self, [x]).frames[0]

    def tm_directions(self) -> list[np.ndarray]:
        """Unit coordinate directions spanning TM (per the mask), or the full
        ambient frame when no mask is set."""
        idx = [i - 1 for i in self.mask] if self.mask else list(range(self.structure.n))
        eye = np.eye(self.structure.n)
        return [eye[:, i] for i in idx]


def _view(name: str) -> cached_property:
    """One point's slice of the stack's array `name` (None stays None)."""
    return cached_property(lambda self: None if (a := getattr(self.stack, name)) is None
                           else a[self.p])


class PointFrame:
    """The data of a decomposition at one point: the p-th slices of a
    `FrameStack`'s arrays, taken on first read; it computes none of them.
    Component i has columns offsets[i]:offsets[i + 1] of `basis_d`."""

    def __init__(self, stack: "FrameStack", p: int):
        self.stack, self.p, self.dec = stack, p, stack.dec
        self.epsilon, self.offsets = stack.epsilon, stack.offsets
        self.proper_indices, self.invariant_index = stack.proper_indices, stack.invariant_index

    x, g, phi, xi, xi_unit, basis_d, basis_g = map(_view, (
        "x", "g", "phi", "xi", "xi_unit", "basis_d", "basis_g"))
    bases = cached_property(lambda self: [b[self.p] for b in self.stack.bases])

    # -- the metric on ambient vectors (n,) or batches (n, ...) -----------------

    def inner(self, u, v):
        return g_inner(self.g, u, v)

    def norm(self, u):
        return np.sqrt(np.maximum(self.inner(u, u), 0.0))

    def cos_angle(self, u, v):
        return self.inner(u, v) / np.maximum(self.norm(u) * self.norm(v), 1e-300)

    # -- restricted endomorphism squares and the dual slice ----------------------

    def f2_full(self) -> np.ndarray:
        """Matrix of f^2|D in the orthonormal basis of D; read-only."""
        return self.stack.f2[self.p]

    def f2_component(self, i: int) -> np.ndarray:
        """Matrix of f^2|D_i: the i-th diagonal block of `f2_full`."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.f2_full()[lo:hi, lo:hi]

    def f2_ambient(self) -> np.ndarray:
        """f^2 as an ambient-operator matrix (P_D phi)^2 P_D = basis_d f2 basis_d^T g."""
        return self.basis_d @ self.f2_full() @ self.basis_d.T @ self.g

    def dual(self) -> "DualDecomposition":
        duals, h_basis, f_on_h = self.stack._dual
        bg = self.basis_g
        return DualDecomposition(self.x, bg, [bg @ d[self.p] for d in duals],
                                 bg @ h_basis[self.p], float(f_on_h[self.p]))


class FrameStack:
    """The frame data of a decomposition at P points, the leading axis of
    every array. The fields (the components' kept as `raws`) are evaluated
    over the stack, or where that faults, point by point as stacks of one,
    so the first point to fault raises. Built on first use: `phi_dd` and `f2`
    from basis_d alone, the adapted frame `adapted` with `basis_g` and
    `phi_adapted`, and the dual slice (`duals`, `h_basis`) in the
    coordinates `g_rows` of G. A point's slice equals its own stack's.

    Each stage (the build, `f2`, `_dual`) runs its checks in a fixed order,
    each once over all points: the first check that fails raises, naming
    that check's first failing point, so a fault at one point only gives
    the message of that point's own stack."""

    def __init__(self, dec: Decomposition, xs):
        self.dec, self.epsilon = dec, dec.structure.epsilon
        self.x = np.array(xs, dtype=float).reshape(len(xs), dec.structure.n)
        ncomp = len(dec.components)
        self.invariant_index = 0 if dec.invariant is not None else None
        self.proper_indices = list(range(ncomp - len(dec.proper), ncomp))
        s, ranks = dec.structure, [c.rank for c in dec.components]
        self.offsets = (0, *accumulate(ranks))
        try:
            self.g, self.phi, self.xi, self.xi_unit, raw = self._fields(self.x)
        except (EvalError, RankError):      # the first point to fault raises, as in its own stack
            for x in self.x:
                self._fields(x[None])
            raise
        self.raws = [raw[..., lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]
        self.bases = orthonormal_bases(dec.component_names(), self.g, self.raws, "at", self.x)
        self.owner = np.repeat(np.arange(len(ranks)), ranks)
        self.g_rows = slice(self.offsets[-1] + (self.xi is not None), s.n)
        self.basis_d = np.concatenate(self.bases, axis=-1)
        g_basis = self.g @ self.basis_d
        check_orthogonality(dec.component_names(), self.owner,
                            np.swapaxes(self.basis_d, -1, -2) @ g_basis,
                            None if self.xi is None else (self.xi[:, None] @ g_basis)[:, 0],
                            "at", self.x)
        self.frames = [PointFrame(self, p) for p in range(len(self.x))]

    def _fields(self, x: np.ndarray) -> tuple:
        """g, phi, xi, xi_unit (None, None if hermitian) and the raws at x (P, n)."""
        dec = self.dec
        g, phi, xi = dec.structure.fields_at(x)
        xi_unit = None
        if xi is not None:
            nrm = np.sqrt(np.maximum((xi[:, None] @ g @ xi[..., None])[:, 0, 0], 0.0))
            for p in np.flatnonzero(nrm < 1e-12)[:1]:
                raise RankError(f"xi vanishes at {x[p].tolist()}")
            xi_unit = xi / nrm[:, None]
        return g, phi, xi, xi_unit, dec.raw_at(x)

    @cached_property
    def phi_dd(self) -> np.ndarray:
        """T_DD = basis_d^T g phi basis_d, the D block of phi in frame coordinates."""
        return np.swapaxes(self.basis_d, -1, -2) @ self.g @ self.phi @ self.basis_d

    @cached_property
    def f2(self) -> np.ndarray:
        f2 = f2_gram(self.phi_dd @ self.phi_dd, self.x)
        f2.setflags(write=False)
        return f2

    @cached_property
    def adapted(self) -> np.ndarray:
        """E = [basis_d | xi_unit | basis_g] (P, n, n), g-orthonormal; basis_g
        is the complement of the columns before it (`complement_columns`)."""
        lead = self.basis_d if self.xi is None else np.concatenate(
            [self.basis_d, self.xi_unit[..., None]], axis=-1)
        return np.concatenate([lead, complement_columns(self.g, lead)], axis=-1)

    basis_g = property(lambda self: self.adapted[..., self.g_rows])

    @cached_property
    def phi_adapted(self) -> np.ndarray:
        """T = E^T g phi E: phi in frame coordinates."""
        return np.swapaxes(self.adapted, -1, -2) @ self.g @ self.phi @ self.adapted

    @cached_property
    def _dual(self):
        """In G coordinates: (orthonormal bases of w(D_i), spanned by the
        blocks T[G, D_i], one of H, their complement in G, and the largest
        |f| on H's basis), per point."""
        t, rows, off, proper = self.phi_adapted, self.g_rows, self.offsets, self.proper_indices
        ws = [t[:, rows, off[i]:off[i + 1]] for i in proper]
        low = np.array([np.linalg.norm(w, axis=-2).min(axis=-1, initial=1.0)
                        for w in ws]) < W_INJECTIVITY_TOL
        for p, slot in np.argwhere(low.T)[:1]:      # the first point, then component
            raise RankError(
                f"w collapses on component {self.dec.components[proper[slot]].name!r} at "
                f"{self.x[p].tolist()} (slant value 0 there); the dual is undefined")
        eye = np.eye(self.basis_g.shape[-1])
        duals = mgs_each(eye, ws)
        h_basis = complement_columns(eye, np.concatenate(
            [np.zeros((len(self.x), len(eye), 0)), *duals], axis=-1))
        f_on_h = np.linalg.norm(t[:, :off[-1], rows] @ h_basis, axis=-2).max(axis=-1, initial=0.0)
        for x, residual in zip(self.x, f_on_h):
            if residual > F_ON_H_TOL:
                raise ModelError(
                    f"f does not vanish on the computed H (residual {residual:.3e}) at "
                    f"{x.tolist()}; the decomposition or structure is invalid")
        return duals, h_basis, f_on_h

    duals = property(lambda self: self._dual[0])
    h_basis = property(lambda self: self._dual[1])


class DualDecomposition:
    """One point's slice of the dual decomposition: an n x r_i orthonormal
    basis per proper component (`duals`) and one of H (`h_basis`)."""

    def __init__(self, point: np.ndarray, basis_g: np.ndarray, duals: list[np.ndarray],
                 h_basis: np.ndarray, f_on_h_residual: float):
        self.point, self.basis_g, self.duals = point, basis_g, duals
        self.h_basis, self.f_on_h_residual = h_basis, f_on_h_residual

    @property
    def h_dim(self) -> int:
        return self.h_basis.shape[1]

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(), "dual_bases": [b.tolist() for b in self.duals],
                "h_basis": self.h_basis.tolist(), "f_on_h_residual": self.f_on_h_residual}


class InvarianceReport:
    """Outcome of check_f_invariance: the largest leak and cross, and the
    witness of the later of the two kinds' maxima."""

    def __init__(self, passed: bool, max_leak: float, max_cross: float, witness: dict, tol: float):
        self.passed, self.max_leak, self.max_cross = passed, max_leak, max_cross
        self.witness, self.tol = witness, tol


def check_f_invariance(dec: Decomposition, points,
                       tol: float = DEFAULT_TOLERANCES.invariance) -> InvarianceReport:
    """How much f leaks out of each component, and how far phi(D_i) is from
    being orthogonal to D_j (i != j), at the worst unit vector of D_i: read
    off the blocks of T_DD (`FrameStack.phi_dd`). The leak of D_i is the
    largest singular value of its columns outside its own rows, and its
    cross to D_j the largest row norm of block (j, i); a block with a NaN
    gives NaN, one with an inf inf. Each (point, component)'s leak and
    crosses are reduced by `invariance_maxima`."""
    points = list(points)
    if not points:
        raise SpecError("check_f_invariance needs at least one point")
    stack = dec.frame_stack(points)
    off, inv, k = stack.offsets, stack.invariant_index, len(stack.offsets) - 1
    events = np.zeros((len(points), k, k + 1))
    for i, (lo, hi) in enumerate(zip(off, off[1:])):
        cols = stack.phi_dd[:, :, lo:hi]
        events[:, i, 0] = spectral_norms(np.concatenate([cols[:, :lo], cols[:, hi:]], axis=1))
        events[:, i, 1:] = np.maximum.reduceat(np.linalg.norm(cols, axis=-1), off[:-1], 1)
    due = np.concatenate([np.ones((k, 1), bool), ~np.eye(k, dtype=bool)], axis=1)
    if inv is not None:
        due[inv, 1:] = due[:, 1 + inv] = False
    worst, witness = invariance_maxima(np.where(due, events, 0.0), dec.component_names(), stack.x)
    return InvarianceReport(worst["f-leak"] <= tol and worst["phi-cross"] <= tol,
                            worst["f-leak"], worst["phi-cross"], witness, tol)


def invariance_maxima(events: np.ndarray, names: list[str], x: np.ndarray):
    """({kind: its maximum}, witness) of the events (P, K, 1 + K) at the
    points x: at (p, i), slot 0 is component i's leak and slot 1 + j its
    cross to D_j (0 where none is due). As a walk over them in C order that
    keeps each kind's worst value so far (0.0 at first) and makes each new
    strict maximum the witness: the later of the two kinds' first maxima;
    a NaN is never one."""
    flat = np.where(events > 0.0, events, 0.0).reshape(-1)
    slot = np.arange(flat.size) % events.shape[-1]
    worst, witness, last = {}, {}, -1
    for kind, values in (("f-leak", np.where(slot == 0, flat, 0.0)),
                         ("phi-cross", np.where(slot > 0, flat, 0.0))):
        at = int(np.argmax(values))
        worst[kind] = float(values[at])
        if worst[kind] > 0.0 and at > last:
            p, i, j = np.unravel_index(at, events.shape)
            last, witness = at, {"kind": kind, **(
                {"component": names[i]} if j == 0 else {"components": [names[i], names[j - 1]]}),
                "point": x[p].tolist(), "residual": worst[kind]}
    return worst, witness
