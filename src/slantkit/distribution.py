"""Distributions, decompositions, and the f/w split of phi relative to them.

A `DistributionFrame` is a rank-r distribution given by r vector fields. A
`Decomposition` fixes the ambient structure, an optional invariant component
D0, and the proper components D1..Dk; at each sample point it materializes a
`PointFrame`, the one place that computes the per-point data every downstream
computation shares. phi, the metric, xi and its unit, the orthonormal bases of
the components and of D, and the projector onto D are built with the frame;
the per-component projectors, the complements of D and of G (with the
projector onto G), the f^2 Gram and the dual slice are built on first use.

For a tangent Z, fZ is the component of phi(Z) inside D and wZ the remainder
in the orthogonal complement. In the contact-like case D is required to be
orthogonal to xi, and the complement used for the dual theory is
G = (D + <xi>)-perp; the w-component of phi(Z) automatically lies in G since
eta annihilates the image of phi.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    DimensionError,
    InvariantError,
    ModelError,
    RankError,
    SpecError,
)
from .linalg import (
    AmbientPoint,
    TangentVector,
    complement_columns,
    g_inner,
    mgs_columns,
    mgs_each,
    projector_matrix,
)
from .sampling import DEFAULT_SEED, rng_for
from .structure import StructureField

PAIRWISE_ORTHO_TOL = 1e-10
F2_SYMMETRY_RTOL = 1e-9


def f2_gram(g: np.ndarray | None, basis: np.ndarray, op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis^T g op(op(basis)): the square of the operator `op` on the
    g-orthonormal columns of `basis` (`g` None for the euclidean metric),
    symmetrized. For a compatible phi it is symmetric in exact arithmetic,
    so `check_f2_symmetric` raises ModelError naming the point `x` on an
    asymmetric one."""
    image = op @ (op @ basis)
    mat = basis.T @ (image if g is None else g @ image)
    check_f2_symmetric(mat, "at", x)
    return 0.5 * (mat + mat.T)


def check_f2_symmetric(mat: np.ndarray, place: str, x: np.ndarray):
    """ModelError when an f^2 Gram `mat`, or a matrix of a stack of them
    (..., r, r), has a relative asymmetry above F2_SYMMETRY_RTOL; the
    message puts it `place` ("at", say) the point `x`."""
    for member in mat.reshape(-1, *mat.shape[-2:]):
        scale = max(float(np.linalg.norm(member)), 1e-300)
        asym = float(np.linalg.norm(member - member.T))
        if asym > F2_SYMMETRY_RTOL * scale and asym > 1e-14:
            raise ModelError(
                f"restricted endomorphism square is asymmetric (residual {asym:.3e}) "
                f"{place} {x.tolist()}; the decomposition or structure is invalid")


def check_orthogonality(names: list[str], owner: np.ndarray, gram: np.ndarray,
                        xi_part: np.ndarray | None, place: str, x: np.ndarray):
    """InvariantError when an off-diagonal block of `gram`, the Gram
    basis_d^T g basis_d (..., r, r) of one frame or a stack, exceeds
    PAIRWISE_ORTHO_TOL, or when `xi_part` = xi^T g basis_d (..., r) does;
    `owner` holds the component of each column of basis_d. Names the first
    failing pair (i, j), i < j, or the first component not orthogonal to
    xi, `place` ("at", say) the point `x`."""
    cross = (np.abs(gram) > PAIRWISE_ORTHO_TOL) & (owner[:, None] < owner[None, :])
    if cross.any():
        *_, rows, cols = np.nonzero(cross)
        i, j = min(zip(owner[rows], owner[cols]))
        raise InvariantError(f"components {names[i]!r} and {names[j]!r} are not "
                             f"orthogonal {place} {x.tolist()}")
    if xi_part is not None:
        off = np.nonzero(np.abs(xi_part) > PAIRWISE_ORTHO_TOL)[-1]
        if off.size:
            raise InvariantError(f"component {names[owner[off.min()]]!r} is not orthogonal "
                                 f"to xi {place} {x.tolist()}")


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
            mask = tuple(sorted(set(int(i) for i in mask)))
            if mask and (mask[0] < 1 or mask[-1] > n):
                raise DimensionError(f"mask indices for {name!r} outside 1..{n}")
            outside = [i for i in range(1, n + 1) if i not in mask]
            for f in fields:
                for i in outside:
                    if not f.is_zero_component(i - 1):
                        raise InvariantError(
                            f"distribution {name!r}: field component x{i} is not the "
                            "literal 0 outside the submanifold mask")
        self.name = name
        self.fields = tuple(fields)
        self.mask = mask
        self.n = n

    @property
    def rank(self) -> int:
        return len(self.fields)

    def raw_at(self, point) -> np.ndarray:
        return np.column_stack([f.at(point) for f in self.fields])

    def raw_jacobian(self, x: np.ndarray, coords, h: float) -> np.ndarray | None:
        """Derivatives of `raw_at` along the coordinates `coords` (0-based):
        (len(coords), n, rank), or None when every field is constant."""
        jacs = [f.jacobian(x, coords, h) for f in self.fields]
        if all(jac is None for jac in jacs):
            return None
        zero = np.zeros((len(coords), self.n))
        return np.stack([zero if jac is None else jac for jac in jacs], axis=-1)


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
            mask = tuple(sorted(set(int(i) for i in mask)))
        if masks:
            if len(masks) > 1 or (mask is not None and mask not in masks):
                raise SpecError("components carry inconsistent submanifold masks")
            mask = next(iter(masks))
        self.structure = structure
        self.invariant = invariant
        self.proper = tuple(proper)
        self.mask = mask
        self._frames: dict[tuple, PointFrame] = {}

    @property
    def components(self) -> tuple[DistributionFrame, ...]:
        if self.invariant is not None:
            return (self.invariant,) + self.proper
        return self.proper

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self.components)

    def component_names(self) -> list[str]:
        return [c.name for c in self.components]

    def frame_at(self, point) -> "PointFrame":
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        key = tuple(x.tolist())
        frame = self._frames.get(key)
        if frame is None:
            frame = PointFrame(self, x)
            self._frames[key] = frame
        return frame

    def tm_directions(self) -> list[np.ndarray]:
        """Unit coordinate directions spanning TM (per the mask), or the full
        ambient frame when no mask is set."""
        idx = [i - 1 for i in self.mask] if self.mask else list(range(self.structure.n))
        eye = np.eye(self.structure.n)
        return [eye[:, i] for i in idx]


class PointFrame:
    """All pointwise data of a decomposition at one sample point.

    Eager: `g`, `phi`, `xi` and its g-unit `xi_unit` (None for hermitian
    kinds), the g-orthonormal `bases` of the components, their stack
    `basis_d` with its column layout (`offsets`: component i holds columns
    offsets[i]:offsets[i + 1]; `owner`: the component of each column), and
    `proj_d`. Built on
    first use (`cached_property`) and kept: the component projectors behind
    `pr`, `basis_perp` (complement of D), `basis_g` (of G), `proj_g`, the
    f^2 Gram (`f2_full`) and the dual slice (`dual`). The connection probe
    differentiates a frame's data at its own point
    (`tangents.frame_derivatives`) and builds no frame at a displaced point;
    only its finite-difference oracles do. Immutable once built.
    """

    def __init__(self, dec: Decomposition, x: np.ndarray):
        s = dec.structure
        self.dec = dec
        self.x = x
        self.point = AmbientPoint(x)
        self.g = s.metric_at(x)
        self._inner_g = None if s.metric_is_euclidean else self.g
        self.phi = s.phi_at(x)
        self.epsilon = s.epsilon
        self.xi = self.xi_unit = None
        if s.is_contact:
            self.xi = s.xi_at(x)
            nrm = float(np.sqrt(max(self.xi @ self.g @ self.xi, 0.0)))
            if nrm < 1e-12:
                raise RankError("xi vanishes at the sample point")
            self.xi_unit = self.xi / nrm
        raws = [comp.raw_at(x) for comp in dec.components]
        try:
            self.bases = mgs_each(self.g, raws)
        except RankError:
            for comp, raw in zip(dec.components, raws):      # name the first one that fails
                try:
                    mgs_columns(self.g, raw)
                except RankError as exc:
                    raise RankError(f"component {comp.name!r} at {x.tolist()}: {exc}") from None
            raise
        ranks = [b.shape[1] for b in self.bases]
        self.offsets = (0, *accumulate(ranks))
        self.owner = np.repeat(np.arange(len(ranks)), ranks)
        self.basis_d = (np.column_stack(self.bases)
                        if self.bases else np.zeros((s.n, 0)))
        g_basis = self.g @ self.basis_d
        check_orthogonality(dec.component_names(), self.owner,
                            self.basis_d.T @ g_basis,
                            None if self.xi is None else self.xi @ g_basis, "at", x)
        self.proj_d = projector_matrix(self.g, self.basis_d)

    # -- basic maps ------------------------------------------------------------

    def inner(self, u, v):
        return g_inner(self._inner_g, u, v)

    def norm(self, u):
        return np.sqrt(np.maximum(self.inner(u, u), 0.0))

    def cos_angle(self, u, v):
        return self.inner(u, v) / np.maximum(self.norm(u) * self.norm(v), 1e-300)

    def apply_phi(self, v):
        return self.phi @ v

    def f(self, v):
        return self.proj_d @ (self.phi @ v)

    def w(self, v):
        pv = self.phi @ v
        return pv - self.proj_d @ pv

    @cached_property
    def _proj_comp(self) -> list[np.ndarray]:
        return [projector_matrix(self.g, b) for b in self.bases]

    def pr(self, i: int, v):
        return self._proj_comp[i] @ v

    def component_basis(self, i: int) -> np.ndarray:
        return self.bases[i]

    @property
    def proper_indices(self) -> list[int]:
        offset = 1 if self.dec.invariant is not None else 0
        return list(range(offset, len(self.bases)))

    @property
    def invariant_index(self) -> int | None:
        return 0 if self.dec.invariant is not None else None

    # -- complements -----------------------------------------------------------

    @cached_property
    def basis_perp(self) -> np.ndarray:
        """Orthonormal basis of the complement of D."""
        return complement_columns(self.g, self.basis_d)

    @cached_property
    def basis_g(self) -> np.ndarray:
        """Orthonormal basis of G, the complement of D + <xi> for
        contact-like structures; `basis_perp` otherwise."""
        if self.xi is None:
            return self.basis_perp
        return complement_columns(self.g, np.column_stack([self.basis_d, self.xi_unit[:, None]]))

    @cached_property
    def proj_g(self) -> np.ndarray:
        return projector_matrix(self.g, self.basis_g)

    # -- restricted endomorphism squares ----------------------------------------

    @cached_property
    def _f2(self) -> np.ndarray:
        f2 = f2_gram(self._inner_g, self.basis_d, self.proj_d @ self.phi, self.x)
        f2.setflags(write=False)
        return f2

    def f2_full(self) -> np.ndarray:
        """Matrix of f^2|D in the orthonormal basis of D (`f2_gram` with
        op = P_D phi); read-only."""
        return self._f2

    def f2_component(self, i: int) -> np.ndarray:
        """Matrix of f^2|D_i in the orthonormal basis of D_i: the i-th
        diagonal block of `f2_full`."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self._f2[lo:hi, lo:hi]

    def f2_ambient(self) -> np.ndarray:
        """f^2 as an ambient-operator matrix: project, apply phi, twice over."""
        op = self.proj_d @ self.phi
        return op @ op @ self.proj_d

    # -- dual decomposition (built by the duality module) ------------------------

    @cached_property
    def _dual(self):
        from .duality import build_dual
        return build_dual(self.dec, self.x)

    def dual(self):
        return self._dual


def _stacked(what: str, arrays: list) -> np.ndarray:
    """np.stack, or ModelError naming `what` when the shapes differ per point."""
    if len({a.shape for a in arrays}) > 1:
        raise ModelError(f"{what} changes shape across the sample points")
    return np.stack(arrays)


class FrameStack:
    """The frame data of sample points stacked on a leading point axis P,
    from their `PointFrame`s and dual slices: `g`, `phi`, `proj_d`
    (P, n, n), `xi_unit` (P, n) or None, and the (P, n, r) bases `bases`
    of the components (with their projectors, applied by `pr`), `basis_perp`,
    `basis_g`, `duals` of the proper components and `h_basis`. The ranks,
    dim w(D_i) = r_i and dim H = dim G - sum r_i are the same at every
    point, so each stack is rectangular (ModelError otherwise). The maps and
    metric are `PointFrame`'s, acting on every point at once through the
    stacked `inner`; each point's slice is its frame's result bit for bit."""

    def __init__(self, frames: list[PointFrame]):
        duals = [fr.dual() for fr in frames]
        first = frames[0]
        self.g, self.phi, self.proj_d, self.basis_perp, self.basis_g = (
            _stacked(a, [getattr(fr, a) for fr in frames])
            for a in ("g", "phi", "proj_d", "basis_perp", "basis_g"))
        self._inner_g = None if first._inner_g is None else self.g
        self.xi_unit = None if first.xi is None else _stacked(
            "xi_unit", [fr.xi_unit for fr in frames])
        self.bases = [_stacked("bases", [fr.bases[i] for fr in frames])
                      for i in range(len(first.bases))]
        self._proj_comp = [projector_matrix(self.g, b) for b in self.bases]
        self.duals = [_stacked("duals", [d.duals[slot] for d in duals])
                      for slot in range(len(first.proper_indices))]
        self.h_basis = _stacked("h_basis", [d.h_basis for d in duals])

    apply_phi, f, w, pr = PointFrame.apply_phi, PointFrame.f, PointFrame.w, PointFrame.pr
    norm, cos_angle = PointFrame.norm, PointFrame.cos_angle

    def inner(self, u, v):
        return g_inner(self._inner_g, u, v, stacked=True)


class FWSplit:
    """phi(v) split into the component inside D and the remainder."""

    __slots__ = ("f_part", "w_part")

    def __init__(self, f_part: TangentVector, w_part: TangentVector):
        self.f_part = f_part
        self.w_part = w_part


def fw_split(dec: Decomposition, point, v) -> FWSplit:
    """Split phi(v) into f and w parts relative to the decomposition."""
    frame = dec.frame_at(point)
    comps = np.asarray(getattr(v, "comps", v), dtype=float)
    if comps.shape[0] != dec.structure.n:
        raise DimensionError("vector dimension differs from ambient dimension")
    return FWSplit(TangentVector(frame.f(comps), frame.point),
                   TangentVector(frame.w(comps), frame.point))


def f_squared_matrix(dec: Decomposition, point) -> np.ndarray:
    """Matrix of f o f restricted to D in a g-orthonormalized basis of D.

    Assembling in an orthonormal frame makes the matrix symmetric in exact
    arithmetic, so any asymmetry beyond rounding signals a modeling error and
    raises ModelError.
    """
    return dec.frame_at(point).f2_full()


class InvarianceReport:
    def __init__(self, passed: bool, max_leak: float, max_cross: float, witness: dict,
                 tol: float, seed: int):
        self.passed = passed
        self.max_leak = max_leak
        self.max_cross = max_cross
        self.witness = witness
        self.tol = tol
        self.seed = seed

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tol,
            "seed": self.seed,
            "max_f_leak": self.max_leak,
            "max_phi_cross": self.max_cross,
            "witness": self.witness,
        }


def check_f_invariance(dec: Decomposition, points, trials: int = 25,
                       tol: float = DEFAULT_TOLERANCES.invariance,
                       seed: int = DEFAULT_SEED) -> InvarianceReport:
    """Measure, on random in-component vectors, how much f leaks out of each
    component and how far phi(D_i) is from being orthogonal to D_j (i != j)."""
    points = list(points)
    if not points:
        raise SpecError("check_f_invariance needs at least one point")
    max_leak = 0.0
    max_cross = 0.0
    witness = {}
    for pidx, point in enumerate(points):
        frame = dec.frame_at(point)
        rng = rng_for(seed, 211, pidx)
        for i, basis in enumerate(frame.bases):
            coeff = rng.standard_normal((basis.shape[1], trials))
            vecs = basis @ coeff
            norms = np.maximum(frame.norm(vecs), 1e-300)
            fv = frame.f(vecs)
            leak = frame.norm(fv - frame.pr(i, fv)) / norms
            worst = float(np.max(leak))
            if worst > max_leak:
                max_leak = worst
                witness = {"kind": "f-leak", "component": dec.components[i].name,
                           "point": frame.x.tolist(), "residual": worst}
            phiv = frame.phi @ vecs
            for j in range(len(frame.bases)):
                if j == i or (i == frame.invariant_index) or (j == frame.invariant_index):
                    continue
                cross = np.abs(frame.bases[j].T @ frame.g @ phiv) / norms[None, :]
                worst = float(np.max(cross)) if cross.size else 0.0
                if worst > max_cross:
                    max_cross = worst
                    witness = {"kind": "phi-cross", "components":
                               [dec.components[i].name, dec.components[j].name],
                               "point": frame.x.tolist(), "residual": worst}
    passed = max_leak <= tol and max_cross <= tol
    return InvarianceReport(passed, max_leak, max_cross, witness, tol, seed)
