import math

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.classifier import classify, component_slant
from slantkit.distribution import (
    Decomposition,
    DistributionFrame,
    check_f_invariance,
)
from slantkit.duality import build_dual, dual_roundtrip_check
from slantkit.errors import InvariantError, ModelError, RankError
from slantkit.gallery import build_fixture
from slantkit.linalg import mgs_columns, principal_angle_values
from slantkit.sampling import rng_for
from slantkit.specfile import load_manifold_spec
from slantkit.verifier import connection_criterion_report

from frame_maps import FrameMaps, pivoted_columns
from test_verifier import _rolling_spec, _turned


def unit_frame(name, n, indices, mask=None):
    fields = []
    for i in indices:
        comps = ["1" if j == i else "0" for j in range(1, n + 1)]
        fields.append(fe.VectorFieldExpr.parse(comps, n))
    return DistributionFrame(name, fields, mask=mask)


class TestFWSplit:
    def test_ex1_anti_invariant_block(self, ex1):
        # j = 1 coefficients are 0 and 1: phi e3 = eps * e6 lands fully in w
        p = np.zeros(11)
        frame = FrameMaps(ex1.decomposition, p)
        v = np.eye(11)[:, 2]
        assert np.allclose(frame.f(v), 0.0, atol=1e-14)
        expected = np.zeros(11)
        expected[5] = -1.0
        assert np.allclose(frame.w(v), expected, atol=1e-14)

    def test_invariant_component_has_no_w(self, ex1):
        rng = rng_for(3, 1)
        for pt in ex1.default_points()[:4]:
            v = np.zeros(11)
            v[:2] = rng.standard_normal(2)
            assert np.linalg.norm(FrameMaps(ex1.decomposition, pt).w(v)) < 1e-14

    def test_ex3_j2_weights(self, ex3):
        # j = 2 coefficients: 1/sqrt(10) on the f side, 3/sqrt(10) on the w side
        p = np.zeros(10)
        frame = FrameMaps(ex3.decomposition, p)
        v = np.eye(10)[:, 6]
        expected_f = np.zeros(10)
        expected_f[7] = 1 / math.sqrt(10)
        assert np.allclose(frame.f(v), expected_f, atol=1e-14)
        assert np.linalg.norm(frame.w(v)) == pytest.approx(3 / math.sqrt(10))

    def test_reconstruction_everywhere(self, ex4_zero):
        rng = rng_for(11, 2)
        for pt in ex4_zero.default_points()[:6]:
            frame = FrameMaps(ex4_zero.decomposition, pt)
            for _ in range(5):
                v = rng.standard_normal(11)
                recon = frame.f(v) + frame.w(v)
                assert np.linalg.norm(recon - frame.phi @ v) <= 1e-10 * np.linalg.norm(v)

    def test_contact_w_lands_in_g(self, ex1):
        # for v in D + <xi>, the remainder is orthogonal to xi
        rng = rng_for(13, 1)
        for pt in ex1.default_points()[:4]:
            v = np.zeros(11)
            idx = [0, 1, 2, 3, 6, 7, 10]
            v[idx] = rng.standard_normal(len(idx))
            w_part = FrameMaps(ex1.decomposition, pt).w(v)
            assert abs(ex1.structure.eta(pt, w_part)) < 1e-12


class TestFSquared:
    def test_ex1_j2_block(self, ex1):
        p = np.zeros(11)
        mat = ex1.decomposition.frame_at(p).f2_component(2)
        assert np.allclose(mat, np.diag([-0.36, -0.36]), atol=1e-15)

    def test_anti_invariant_zero(self, ex1):
        p = np.zeros(11)
        mat = ex1.decomposition.frame_at(p).f2_component(1)
        assert np.allclose(mat, 0.0, atol=1e-15)

    def test_invariant_identity(self, ex1):
        p = np.zeros(11)
        mat = ex1.decomposition.frame_at(p).f2_component(0)
        assert np.allclose(mat, -np.eye(2), atol=1e-15)

    def test_full_matrix_symmetric_and_ranged(self, ex5_one):
        for pt in ex5_one.default_points()[:6]:
            mat = ex5_one.decomposition.frame_at(pt).f2_full()
            assert np.allclose(mat, mat.T)
            evals = np.linalg.eigvalsh(mat)
            eps = ex5_one.structure.epsilon
            assert np.all(eps * evals >= -1e-9)
            assert np.all(eps * evals <= 1 + 1e-9)

    def test_asymmetry_raises_model_error(self):
        # a nilpotent, non-compatible phi makes the restricted square
        # asymmetric; that must surface as ModelError, not silent averaging
        from slantkit.structure import KIND_HERMITIAN, StructureField
        n = 3
        cols = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
        s = StructureField(n, -1, KIND_HERMITIAN,
                           [[fe.parse(src, n) for src in col] for col in cols])
        dec = Decomposition(s, [unit_frame("D", n, [1, 2, 3])])
        with pytest.raises(ModelError):
            dec.frame_at(np.zeros(n)).f2_full()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_raises_model_error(self, bad):
        # eigvalsh returns finite eigenvalues for a Gram with a NaN entry, and
        # the symmetry screen's comparisons are False on NaN
        from slantkit.distribution import check_f2_symmetric
        mats = np.stack([np.diag([0.3, 0.5, 0.9])] * 3)
        mats[1, 2, 2] = mats[2, 0, 1] = bad
        xs = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ModelError, match=r"not finite at \[3\.0, 4\.0, 5\.0\];"):
            check_f2_symmetric(mats, "at", xs)
        with pytest.raises(ModelError, match=r"not finite at \[6\.0, 7\.0, 8\.0\];"):
            check_f2_symmetric(mats[2], "at", xs[2])
        check_f2_symmetric(mats[0], "at", xs[0])


class TestCheckFInvariance:
    def test_gallery_passes(self, ex1):
        rep = check_f_invariance(ex1.decomposition, ex1.default_points()[:5],
                                 trials=10, tol=1e-10)
        assert rep.passed

    def test_mixed_halves_fail(self, ex1):
        n = 11
        mixed = Decomposition(
            ex1.structure,
            [unit_frame("A", n, [4, 7], mask=ex1.mask),
             unit_frame("B", n, [3, 8], mask=ex1.mask)],
            mask=ex1.mask)
        rep = check_f_invariance(mixed, [np.zeros(n)], trials=10, tol=1e-10)
        assert not rep.passed
        assert rep.witness["kind"] in ("f-leak", "phi-cross")

    def test_single_component_trivial_pass(self, ex1):
        n = 11
        whole = Decomposition(
            ex1.structure,
            [unit_frame("P", n, [3, 4, 7, 8], mask=ex1.mask)],
            mask=ex1.mask)
        rep = check_f_invariance(whole, ex1.default_points()[:3], trials=10, tol=1e-10)
        assert rep.passed


class TestAdjointness:
    """Sampled checks of the bilinear adjointness relations tying f and w."""

    @pytest.fixture()
    def setup(self, ex5_one):
        pts = ex5_one.default_points()[:4]
        return ex5_one.decomposition, pts

    def test_first_order_relations(self, setup):
        dec, pts = setup
        rng = rng_for(41, 1)
        eps = dec.structure.epsilon
        for pt in pts:
            fr = FrameMaps(dec, pt)
            perp = np.eye(10) - fr.proj_d
            for _ in range(10):
                x = fr.proj_d @ rng.standard_normal(10)
                y = fr.proj_d @ rng.standard_normal(10)
                u = perp @ rng.standard_normal(10)
                v = perp @ rng.standard_normal(10)
                scale = 1e-10 * (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(y) + np.linalg.norm(u) + np.linalg.norm(v))
                assert abs(fr.inner(x, fr.f(y)) - eps * fr.inner(fr.f(x), y)) <= scale
                assert abs(fr.inner(x, fr.f(u)) - eps * fr.inner(fr.w(x), u)) <= scale
                assert abs(fr.inner(u, fr.w(v)) - eps * fr.inner(fr.w(u), v)) <= scale

    def test_second_order_relations(self, setup):
        dec, pts = setup
        rng = rng_for(42, 1)
        eps = dec.structure.epsilon
        for pt in pts:
            fr = FrameMaps(dec, pt)
            perp = np.eye(10) - fr.proj_d
            for _ in range(6):
                x = fr.proj_d @ rng.standard_normal(10)
                y = fr.proj_d @ rng.standard_normal(10)
                u = perp @ rng.standard_normal(10)
                v = perp @ rng.standard_normal(10)
                f, w, ip = fr.f, fr.w, fr.inner
                tol = 1e-10 * 16
                assert abs(ip(f(f(x)), y) - eps * ip(f(x), f(y))) <= tol
                assert abs(eps * ip(f(x), f(y)) - ip(x, f(f(y)))) <= tol
                assert abs(ip(f(w(x)), y) - eps * ip(w(x), w(y))) <= tol
                assert abs(ip(w(f(u)), v) - eps * ip(f(u), f(v))) <= tol
                assert abs(ip(w(w(u)), v) - eps * ip(w(u), w(v))) <= tol
                assert abs(ip(w(f(x)), u) - eps * ip(f(x), f(u))) <= tol
                assert abs(ip(w(w(x)), u) - eps * ip(w(x), w(u))) <= tol


def test_mask_zero_component_enforced():
    with pytest.raises(InvariantError):
        DistributionFrame("bad", [fe.VectorFieldExpr.parse(["1", "1", "0"], 3)],
                          mask=(1, 3))


def _field_frame(name, n, *columns, mask=None):
    """A component spanned by one field per column, each given as
    {1-based coordinate index: coefficient}."""
    return DistributionFrame(name, [
        fe.VectorFieldExpr.parse([str(col.get(i, 0)) for i in range(1, n + 1)], n)
        for col in columns], mask=mask)


def test_components_must_be_orthogonal(ex1):
    overlapping = Decomposition(
        ex1.structure,
        [unit_frame("A", 11, [3, 4], mask=ex1.mask),
         _field_frame("B", 11, {3: 1, 7: 1}, mask=ex1.mask)],
        mask=ex1.mask)
    with pytest.raises(InvariantError, match=r"^components 'A' and 'B' are not orthogonal at "):
        overlapping.frame_at(np.zeros(11))
    # A-B and A-C overlap, A-C the more and through both columns of A (so
    # first and last among the entries): the first pair in (i, j) order is named
    three = Decomposition(
        ex1.structure,
        [unit_frame("A", 11, [3, 4], mask=ex1.mask),
         _field_frame("B", 11, {4: 1, 7: 1}, mask=ex1.mask),
         _field_frame("C", 11, {3: 2, 4: 1, 7: -1}, mask=ex1.mask)],
        mask=ex1.mask)
    with pytest.raises(InvariantError, match=r"^components 'A' and 'B' are not orthogonal at "):
        three.frame_at(np.zeros(11))


@pytest.mark.parametrize("components, message", [
    # two rank-2 components share one stacked call; the second one fails
    ({"A": [{3: 1}, {4: 1}], "B": [{7: 1}, {7: 2}]}, "'B' at .*: column 1"),
    # A and C (rank 2) are stacked before B (rank 1); C fails, but B comes first
    ({"A": [{3: 1}, {4: 1}], "B": [{7: 0}], "C": [{8: 1}, {8: -1}]}, "'B' at .*: column 0"),
])
def test_dependent_component_is_named(ex1, components, message):
    dec = Decomposition(ex1.structure, [_field_frame(name, 11, *cols, mask=ex1.mask)
                                        for name, cols in components.items()], mask=ex1.mask)
    with pytest.raises(RankError, match=rf"^component {message} is dependent on the previous ones$"):
        dec.frame_at(np.zeros(11))


def test_components_must_be_orthogonal_to_xi(ex1):
    # xi = e11: B and C both have an xi part, C the larger; B comes first
    dec = Decomposition(
        ex1.structure,
        [_field_frame("A", 11, {4: 1}, mask=ex1.mask),
         _field_frame("B", 11, {3: 2, 11: 1}, mask=ex1.mask),
         _field_frame("C", 11, {3: 1, 7: 1, 11: -2}, mask=ex1.mask)],
        mask=ex1.mask)
    with pytest.raises(InvariantError, match=r"^component 'B' is not orthogonal to xi at "):
        dec.frame_at(np.zeros(11))


def test_eigenvalue_range_negative_eps(ex1):
    # restricted squares have spectrum inside [-1, 0] when eps = -1
    for pt in ex1.default_points()[:5]:
        evals = np.linalg.eigvalsh(ex1.decomposition.frame_at(pt).f2_full())
        assert np.all(evals <= 1e-12)
        assert np.all(evals >= -1 - 1e-12)


def test_per_point_calls_keep_no_stack_of_their_own():
    # after a command's stack exists, the per-point functions read its frames
    # or build a one-point stack they do not keep
    fx = build_fixture("ex9", k=3, epsilon=-1, gamma=1.5)
    dec = fx.decomposition
    points = fx.default_points()[:10]
    report = classify(dec, points)
    for pt in points:
        for i in range(len(dec.components)):
            component_slant(dec, pt, i)
        build_dual(dec, pt)
        dual_roundtrip_check(dec, pt)
    connection_criterion_report(dec, points, classification=report)
    assert len(dec._stacks) == 1
    assert len(dec._frames) == 10


def test_frame_at_keeps_no_one_point_stack():
    # before any command, a per-point call builds its point's frame and keeps nothing
    fx = build_fixture("ex9", k=3, epsilon=-1, gamma=1.5)
    dec = fx.decomposition
    for pt in fx.default_points()[:10]:
        component_slant(dec, pt, 1)
    assert len(dec._stacks) == 0
    assert len(dec._frames) == 0


def test_frames_keep_the_fields_their_bases_came_from():
    # the connection probe reads a frame's raw fields instead of evaluating them again
    fx = build_fixture("ex9", k=2, epsilon=-1, gamma=1.5)
    dec, points = _turned(fx), fx.default_points()[:4]
    stack = dec.frame_stack(points)
    for p, pt in enumerate(points):
        for lo, hi, raw, basis in zip(stack.offsets, stack.offsets[1:], stack.raws, stack.bases):
            assert np.array_equal(raw[p], dec.raw_at(pt)[:, lo:hi])
            assert np.allclose(mgs_columns(stack.g[p], raw[p]), basis[p], rtol=0, atol=1e-12)


def _differential_cases():
    """(name, decomposition, points) with bases that are not coordinate-aligned,
    a moving frame, a contact-like kind, a nonzero H and a conformal metric."""
    ex1 = build_fixture("ex1", k=2, epsilon=-1)
    ex8 = build_fixture("ex8", k=2, epsilon=1, gamma=0.5)
    ex9 = build_fixture("ex9", k=2, epsilon=-1, gamma=1.5)
    ex9_turned = _turned(ex9)
    rolling = _rolling_spec()
    conformal = dict(rolling, metric=[["1 + x3^2/4" if i == j else "0" for j in range(6)]
                                      for i in range(6)])
    cases = [("ex1-turned", _turned(ex1), ex1.default_points()[:3]),
             ("ex8-turned", _turned(ex8), ex8.default_points()[:3]),
             ("ex9-turned", ex9_turned, ex9.default_points()[:3]),
             ("ex9-turned-with-h", Decomposition(ex9.structure, ex9_turned.proper[:1],
                                                 invariant=ex9_turned.invariant, mask=ex9.mask),
              ex9.default_points()[:3])]
    for name, doc in (("rolling", rolling), ("rolling-conformal", conformal)):
        spec = load_manifold_spec(doc)
        cases.append((name, spec.decomposition, spec.points))
    return cases


_DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize("name, dec, points", _DIFFERENTIAL_CASES,
                         ids=[case[0] for case in _DIFFERENTIAL_CASES])
def test_adapted_frame_against_ambient_formulas(name, dec, points):
    """The frame-coordinate algebra of `FrameStack` against the ambient
    formulas written out here: P_D = B B^T g, f = P_D phi, w = phi - f,
    P_G = I - P_D - xi xi^T g, w(D_i) = span P_G phi(D_i), and H the
    complement of the w(D_i) in G by pivoted deflation, all to 1e-12."""
    stack = dec.frame_stack(points)
    rd = stack.offsets[-1]
    rng = rng_for(17, 1)
    if name.endswith("-with-h"):
        assert stack.h_basis.shape[-1] == 4
    for p in range(len(stack.x)):
        e, t, g, phi = stack.adapted[p], stack.phi_adapted[p], stack.g[p], stack.phi[p]
        n = len(g)
        basis_d = stack.basis_d[p]
        proj_d = basis_d @ basis_d.T @ g
        f_ref = proj_d @ phi
        w_ref = phi - f_ref
        assert np.max(np.abs(e.T @ g @ e - np.eye(n))) <= 1e-12
        v = rng.standard_normal((n, 5))
        c = e.T @ g @ v
        image = t @ c
        scale = np.max(np.abs(v))
        assert np.max(np.abs(e[:, :rd] @ image[:rd] - f_ref @ v)) <= 1e-12 * scale
        assert np.max(np.abs(e[:, rd:] @ image[rd:] - w_ref @ v)) <= 1e-12 * scale
        gram = basis_d.T @ g @ f_ref @ f_ref @ basis_d
        assert np.max(np.abs(stack.f2[p] - 0.5 * (gram + gram.T))) <= 1e-12
        proj_g = np.eye(n) - proj_d
        if stack.xi is not None:
            xi = stack.xi_unit[p]
            proj_g -= np.outer(xi, xi @ g)
        basis_g = stack.basis_g[p]
        proj_h = proj_g
        for slot, i in enumerate(stack.proper_indices):
            want = mgs_columns(g, proj_g @ phi @ stack.bases[i][p])
            got = basis_g @ stack.duals[slot][p]
            assert got.shape == want.shape
            assert np.max(principal_angle_values(g, got, want)) <= 1e-12
            proj_h = proj_h - want @ want.T @ g
        h_dim = n - rd - (stack.xi is not None) - sum(b.shape[-1] for b in stack.duals)
        got = basis_g @ stack.h_basis[p]
        assert got.shape == (n, h_dim)
        if h_dim:
            want = mgs_columns(g, pivoted_columns(g, proj_h, h_dim))
            assert np.max(principal_angle_values(g, got, want)) <= 1e-12
