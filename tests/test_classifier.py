import json
import math

import numpy as np
import pytest

from slantkit import cli, duality, gallery
from slantkit import expr as fe
from slantkit.classifier import (
    alpha_theta,
    classify,
    component_slant,
    discover,
    single_cluster_lambda,
    slant_lambdas,
    slant_spectra,
    _TangentSpace,
)
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.distribution import Decomposition, DistributionFrame
from slantkit.errors import ComponentError, ModelError, SpecError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.sampling import box_points, rng_for
from slantkit.structure import KIND_CONTACT, KIND_HERMITIAN, StructureField
from slantkit.taxonomy import VERDICT_LATTICE, lattice_closure

from frame_maps import FrameMaps


class TestSlantSpectrum:
    def test_ex1_clusters(self, ex1):
        # k = 2: invariant cluster at eps, then lambda = -(3/5)^2 and 0
        spec = slant_spectra(ex1.decomposition.frame_stack([np.zeros(11)]))[0]
        lams = sorted(c.lam for c in spec.clusters)
        assert lams == pytest.approx([-1.0, -0.36, 0.0])
        thetas = {round(c.theta, 6) for c in spec.clusters}
        assert round(math.acos(0.6), 6) in thetas
        assert round(math.pi / 2, 6) in thetas
        assert sum(c.multiplicity for c in spec.clusters) == 6

    def test_invariant_cluster(self, ex1):
        cl = component_slant(ex1.decomposition, np.zeros(11), 0)
        assert cl.lam == pytest.approx(-1.0)
        assert cl.theta == pytest.approx(0.0)

    def test_ex5_at_unit_norm_point(self):
        # eps = +1, gamma = 1, ||x||^2 = 1, first proper block:
        # lambda = 1/5 and theta = arccos(1/sqrt(5))
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        p = np.zeros(10)
        p[2] = 1.0
        cl = component_slant(fx.decomposition, p, 1)
        assert cl.lam == pytest.approx(0.2, abs=1e-12)
        assert cl.theta == pytest.approx(math.acos(1 / math.sqrt(5)), abs=1e-12)
        assert cl.theta == pytest.approx(fx.theta_closed_form(1, p), abs=1e-12)

    def test_model_error_outside_band(self):
        # a rotation declared with eps = +1 has f^2 = -I, so eps*lambda = -1
        # sits far outside [0, 1] and must raise
        from slantkit import expr as fe
        from slantkit.distribution import DistributionFrame
        from slantkit.structure import KIND_HERMITIAN, StructureField
        cols = [["0", "1"], ["-1", "0"]]
        s = StructureField(2, 1, KIND_HERMITIAN,
                           [[fe.parse(src, 2) for src in col] for col in cols])
        frame = DistributionFrame("D", [
            fe.VectorFieldExpr.parse(["1", "0"], 2),
            fe.VectorFieldExpr.parse(["0", "1"], 2)])
        dec = Decomposition(s, [frame])
        with pytest.raises(ModelError):
            slant_spectra(dec.frame_stack([np.zeros(2)]))


class TestComponentSlant:
    def test_component_coarser_than_eigenstructure(self, ex1):
        from slantkit import expr as fe
        from slantkit.distribution import DistributionFrame
        n = 11
        fields = []
        for i in (3, 4, 7, 8):
            fields.append(fe.VectorFieldExpr.parse(
                ["1" if j == i else "0" for j in range(1, n + 1)], n))
        merged = Decomposition(
            ex1.structure, [DistributionFrame("P", fields, mask=ex1.mask)],
            invariant=None, mask=ex1.mask)
        with pytest.raises(ComponentError):
            component_slant(merged, np.zeros(n), 0)


class TestComponentIndexAndNaN:
    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_components_is_a_spec_error(self, ex1, index):
        # ex1 k = 2 has the components D0, D1, D2
        with pytest.raises(SpecError, match=rf"^component index {index} outside 0\.\.2$"):
            component_slant(ex1.decomposition, np.zeros(11), index)

    def test_nan_matrix_is_a_model_error(self, ex1):
        frame = ex1.decomposition.frame_at(np.zeros(11))
        with pytest.raises(ModelError, match=r"^eps\*lambda = nan outside"):
            single_cluster_lambda(["D1"], [np.full((2, 2), np.nan)], "at", frame.x, frame.epsilon)

    def test_nan_member_of_a_stack_is_a_model_error(self, ex1):
        stack = ex1.decomposition.frame_stack(ex1.default_points()[:2])
        mats = np.stack([np.zeros((2, 2)), np.full((2, 2), np.nan)])
        with pytest.raises(ModelError, match=r"^eps\*lambda = nan outside"):
            single_cluster_lambda(["D1"], [mats], "at", stack.x, stack.epsilon)


def _thetas(stack, indices):
    """The slant values (P,) of the one component of `indices` over the stack."""
    lam = slant_lambdas(stack, indices)
    return alpha_theta(lam, stack.epsilon, DEFAULT_TOLERANCES.lambda_band)[1][:, 0].tolist()


class TestSlantFunctionTable:
    def test_constant_component(self, ex1):
        stack = ex1.decomposition.frame_stack(ex1.default_points()[:6])
        values = _thetas(stack, [2])
        assert max(values) - min(values) < 1e-12
        assert values[0] == pytest.approx(math.acos(0.6))

    def test_invariant_component(self, ex1):
        stack = ex1.decomposition.frame_stack(ex1.default_points()[:4])
        values = _thetas(stack, [0])
        assert all(t == pytest.approx(0.0) for t in values)

    def test_pointwise_boundary_value(self):
        # ex5 at gamma = 1: theta_1(0) = pi/2 since the numerator vanishes
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        stack = fx.decomposition.frame_stack([np.zeros(10)])
        values = _thetas(stack, [1])
        assert values[0] == pytest.approx(math.pi / 2)


class TestClassify:
    def test_ex1_is_k_slant(self, ex1):
        rep = classify(ex1.decomposition, ex1.default_points()[:8])
        assert rep.labels["k-slant"]
        assert rep.labels["skew-CR"]
        assert not rep.labels["generic"]
        assert rep.named_cases == ["almost-bi-slant"]
        assert rep.k == 2

    def test_ex4_gamma_zero_claims(self, ex4_zero):
        rep = classify(ex4_zero.decomposition, ex4_zero.default_points()[:10])
        assert rep.labels["k-pointwise-slant"]
        assert not rep.labels["pointwise-k-slant"]
        assert not rep.labels["generic"]
        witness = rep.evidence["pointwise-k-slant"]["point"]
        assert np.linalg.norm(witness) < 1e-6  # the origin separates the claim

    def test_ex8_positive_gamma_generic(self):
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5, delta=1.0)
        rep = classify(fx.decomposition, fx.default_points()[:10])
        assert rep.labels["generic"]
        assert rep.labels["pointwise-k-slant"]
        assert not rep.labels["k-slant"]

    def test_needs_two_points(self, ex1):
        with pytest.raises(SpecError):
            classify(ex1.decomposition, [np.zeros(11)])

    def test_component_order_invariant_first_then_ascending(self, ex1):
        rep = classify(ex1.decomposition, ex1.default_points()[:4])
        names = [c["name"] for c in rep.components]
        assert names[0] == "D0"
        thetas = [c["theta"][0] for c in rep.components[1:]]
        assert thetas == sorted(thetas)

    def test_lattice_on_all_fixture_reports(self):
        configs = [
            ("ex1", dict()), ("ex3", dict()),
            ("ex4", dict(gamma=0.0, delta=1.0)), ("ex4", dict(gamma=2.0, delta=1.0)),
            ("ex5", dict(gamma=1.0)), ("ex5", dict(gamma=3.0)),
            ("ex8", dict(gamma=0.0, delta=0.5)), ("ex8", dict(gamma=2.0, delta=2.0)),
            ("ex9", dict(gamma=1.0)), ("ex9", dict(gamma=1.5)),
        ]
        for fid, kwargs in configs:
            fx = build_fixture(fid, k=2, epsilon=-1, **kwargs)
            rep = classify(fx.decomposition, fx.default_points()[:8])
            for src, targets in VERDICT_LATTICE.items():
                if rep.labels[src]:
                    for dst in targets:
                        assert rep.labels[dst], (fid, kwargs, src, dst)
            for label in rep.labels:
                if rep.labels[label]:
                    for implied in lattice_closure(label):
                        assert rep.labels[implied]

    def test_alpha_margin_flag(self):
        # a huge gamma pushes every alpha within the margin of 1 while the
        # clusters stay separated, so the open-interval flag must fire
        fx = build_fixture("ex4", k=2, epsilon=-1, gamma=1000.0, delta=1.0)
        rep = classify(fx.decomposition, fx.default_points()[:6],
                       tolerances=DEFAULT_TOLERANCES)
        assert rep.alpha_flags
        assert all(f["alpha_max"] > 1 - 1e-6 for f in rep.alpha_flags)


class TestNamedCases:
    def test_bi_slant_without_invariant(self, ex3):
        # ex3 j=1 has angle pi/2, so the proper pair is hemi-slant
        dec = Decomposition(ex3.structure, list(ex3.decomposition.proper),
                            invariant=None, mask=ex3.mask)
        rep = classify(dec, ex3.default_points()[:4])
        assert "bi-slant" in rep.named_cases
        assert "hemi-slant" in rep.named_cases
        assert rep.labels["proper"]

    def test_hemi_slant_detected(self, ex1):
        dec = Decomposition(ex1.structure, list(ex1.decomposition.proper),
                            invariant=None, mask=ex1.mask)
        rep = classify(dec, ex1.default_points()[:4])
        assert "bi-slant" in rep.named_cases
        assert "hemi-slant" in rep.named_cases  # theta_1 = pi/2

    def test_pointwise_bi_slant(self):
        fx = build_fixture("ex9", k=2, epsilon=-1, gamma=1.5)
        dec = Decomposition(fx.structure, list(fx.decomposition.proper),
                            invariant=None, mask=fx.mask)
        rep = classify(dec, fx.default_points()[:6])
        assert "pointwise bi-slant" in rep.named_cases


class TestConformality:
    """Angle preservation of f and w on proper components with theta < pi/2,
    and the norm relations tying f/w notes to the slant value."""

    def test_norm_relations(self, ex5_one):
        dec = ex5_one.decomposition
        rng = rng_for(71, 1)
        for pt in ex5_one.default_points()[:5]:
            fr = FrameMaps(dec, pt)
            for ci in fr.proper_indices:
                cl = component_slant(dec, pt, ci)
                b = fr.bases[ci]
                for _ in range(6):
                    x = b @ rng.standard_normal(b.shape[1])
                    nx = np.linalg.norm(x)
                    fx_ = fr.f(x)
                    wx = fr.w(x)
                    phix = fr.apply_phi(x)
                    assert abs(np.linalg.norm(fx_) - math.cos(cl.theta) * np.linalg.norm(phix)) <= 1e-9 * max(nx, 1)
                    assert abs(np.linalg.norm(wx) - math.sin(cl.theta) * nx) <= 1e-9 * max(nx, 1)

    def test_angle_preservation(self, ex5_one):
        dec = ex5_one.decomposition
        rng = rng_for(72, 1)
        for pt in ex5_one.default_points()[1:5]:
            fr = FrameMaps(dec, pt)
            for ci in fr.proper_indices:
                cl = component_slant(dec, pt, ci)
                if cl.theta > math.pi / 2 - 1e-8:
                    continue
                b = fr.bases[ci]
                for _ in range(4):
                    x = b @ rng.standard_normal(b.shape[1])
                    y = b @ rng.standard_normal(b.shape[1])
                    def cosang(u, v):
                        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
                    assert abs(cosang(fr.f(x), fr.f(y)) - cosang(x, y)) < 1e-8
                    assert abs(cosang(fr.w(x), fr.w(y)) - cosang(x, y)) < 1e-8

    def test_f2_formula(self, ex5_one):
        # f2 X = eps * sum cos^2(theta_i) pr_i X on random X in D
        dec = ex5_one.decomposition
        eps = dec.structure.epsilon
        rng = rng_for(73, 1)
        for pt in ex5_one.default_points()[:5]:
            fr = FrameMaps(dec, pt)
            cos2 = []
            for ci in range(len(fr.bases)):
                cl = component_slant(dec, pt, ci)
                cos2.append(eps * cl.lam)
            for _ in range(5):
                x = fr.proj_d @ rng.standard_normal(10)
                target = eps * sum(c * fr.pr(i, x) for i, c in enumerate(cos2))
                assert np.linalg.norm(fr.f(fr.f(x)) - target) <= 1e-9 * np.linalg.norm(x)


class TestDiscovery:
    def test_ex1_discovery_matches_declared(self, ex1):
        rep = discover(ex1.structure, ex1.default_points()[:6], mask=ex1.mask)
        assert rep.labels["k-slant"]
        assert rep.labels["skew-CR"]
        assert rep.k == 2  # two non-invariant clusters
        ranks = sorted(c["rank"] for c in rep.components)
        assert ranks == [2, 2, 2]

    def test_ex8_discovery_pointwise(self):
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5, delta=1.0)
        rep = discover(fx.structure, fx.default_points()[:6], mask=fx.mask)
        assert rep.labels["generic"]
        assert rep.labels["pointwise-k-slant"]

    def test_ex4_gamma_zero_discovery_unstable(self, ex4_zero):
        # at the origin the proper clusters merge: eigenstructure not stable
        with pytest.raises(ComponentError):
            discover(ex4_zero.structure, ex4_zero.default_points()[:6],
                     mask=ex4_zero.mask)

    def test_mask_of_xi_alone(self, ex1):
        # D = TM minus xi would be {0}
        with pytest.raises(SpecError, match="no direction besides xi"):
            discover(ex1.structure, ex1.default_points()[:2], mask=(ex1.structure.n,))

    def test_xi_off_the_coordinate_axes(self, ex1):
        # ex1 turned in the (x1, x11) plane: xi' = R e11 is no coordinate
        # direction, so D = TM minus xi is no coordinate span either
        base = discover(ex1.structure, ex1.default_points()[:6], mask=ex1.mask)
        structure, rot = _rotated_ex1(ex1, 1, 11, 0.7)
        found = discover(structure, [rot @ p for p in ex1.default_points()[:6]],
                         mask=ex1.mask)
        assert found.labels == base.labels
        assert found.named_cases == base.named_cases
        assert [c["rank"] for c in found.components] == [c["rank"] for c in base.components]
        for got, want in zip(found.components, base.components):
            assert np.max(np.abs(np.subtract(got["theta"], want["theta"]))) <= \
                DEFAULT_TOLERANCES.angle_const

    def test_xi_off_the_axes_under_a_non_diagonal_metric(self, ex1):
        # ex1 carried by a linear map A of the masked coordinates that turns
        # xi off the axes and shears them: phi' = A phi A^-1, xi' = A xi and
        # the constant metric g' = A^-T A^-1 make A an isometry
        structure, a = _sheared_ex1(ex1)
        g = structure.metric_at(np.zeros(structure.n))
        assert np.count_nonzero(g - np.diag(np.diag(g))) > 0
        outside = [i for i in range(structure.n) if i + 1 not in ex1.mask]
        dec = _TangentSpace(structure, ex1.mask)
        comp = dec.components[0]
        points = [a @ p for p in ex1.default_points()[:6]]
        for x in points:
            cols, xi = dec.raw_at(x), structure.xi_at(x)
            assert cols.shape == (structure.n, comp.rank)
            assert np.max(np.abs(cols.T @ g @ cols - np.eye(comp.rank))) <= 1e-12
            assert np.max(np.abs(cols.T @ g @ xi)) <= 1e-12
            assert not np.any(cols[outside])
        base = discover(ex1.structure, ex1.default_points()[:6], mask=ex1.mask)
        found = discover(structure, points, mask=ex1.mask)
        assert found.labels == base.labels
        assert found.named_cases == base.named_cases
        assert [c["rank"] for c in found.components] == [c["rank"] for c in base.components]

    def test_xi_outside_the_mask_exits_2(self, ex1, tmp_path, capsys):
        # turned in the (x5, x11) plane, xi' leaves the masked coordinates
        structure, _ = _rotated_ex1(ex1, 5, 11, 0.7)
        doc = dict(fixture_to_spec_dict(ex1, points=ex1.default_points()[:4]),
                   phi_columns=[[fe.to_source(e) for e in col]
                                for col in structure.phi_columns],
                   xi=structure.xi.to_sources(), decomposition=None)
        path = tmp_path / "ex1-turned.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", str(path)]) == 2
        assert "xi does not lie inside the masked tangent space" in capsys.readouterr().err


def _literal(value: float) -> str:
    return np.format_float_positional(float(value), unique=True, trim="-")


def _sheared_ex1(ex1):
    """ex1's constant structure carried by A = R S, with R the rotation by
    0.7 in the (x1, x11) plane and S a shear and scaling inside the masked
    coordinates: phi' = A phi A^-1, xi' = A xi, metric A^-T A^-1. Returns
    (structure, A)."""
    n = ex1.structure.n
    _, rot = _rotated_ex1(ex1, 1, 11, 0.7)
    shear = np.eye(n)
    shear[0, 1], shear[6, 2], shear[7, 7] = 0.5, -0.3, 1.5
    a = rot @ shear
    a_inv = np.linalg.inv(a)
    phi = a @ ex1.structure.phi_at(np.zeros(n)) @ a_inv
    xi = a @ ex1.structure.xi_at(np.zeros(n))
    metric = a_inv.T @ a_inv
    metric = 0.5 * (metric + metric.T)
    structure = StructureField(
        n, ex1.structure.epsilon, KIND_CONTACT,
        [[fe.parse(_literal(v), n) for v in phi[:, c]] for c in range(n)],
        metric=[[fe.parse(_literal(v), n) for v in row] for row in metric],
        xi=fe.VectorFieldExpr.parse([_literal(v) for v in xi], n))
    return structure, a


def _rotated_ex1(ex1, a: int, b: int, angle: float):
    """ex1's constant structure turned by R, the rotation by `angle` in the
    (x_a, x_b) plane: phi' = R phi R^T and xi' = R xi. Returns (structure, R)."""
    n = ex1.structure.n
    rot = np.eye(n)
    i, j = a - 1, b - 1
    rot[[i, i, j, j], [i, j, i, j]] = (math.cos(angle), -math.sin(angle),
                                       math.sin(angle), math.cos(angle))
    phi = rot @ ex1.structure.phi_at(np.zeros(n)) @ rot.T
    xi = rot @ ex1.structure.xi_at(np.zeros(n))
    structure = StructureField(
        n, ex1.structure.epsilon, KIND_CONTACT,
        [[fe.parse(_literal(v), n) for v in phi[:, c]] for c in range(n)],
        xi=fe.VectorFieldExpr.parse([_literal(v) for v in xi], n))
    return structure, rot


def _golden_case(fid, k, epsilon, gamma):
    fx = build_fixture(fid, k=k, epsilon=epsilon, gamma=gamma)
    return fx.decomposition, box_points(fx.structure.n, fx.mask, 6, seed=11)


def _cos_block_case():
    """ex3 (k = 2, eps = +1) with block 1's coefficients cos(x3) / sin(x3),
    no D0, mask (3, 4, 7, 8): D1's slant value is x3, so the
    proper-positivity rule fires at x3 = 0."""
    fx = build_fixture("ex3", k=2, epsilon=1)
    n = fx.structure.n
    cols = [[fe.to_source(e) for e in col] for col in fx.structure.phi_columns]
    gallery._hermitian_block(cols, 1, 1, "cos(x3)", "sin(x3)")
    structure = StructureField(n, 1, KIND_HERMITIAN,
                               [[fe.parse(src, n) for src in col] for col in cols])
    mask = (3, 4, 7, 8)
    proper = [DistributionFrame(name, [fe.VectorFieldExpr.parse(gallery._unit_field(n, i), n)
                                       for i in span], mask=mask)
              for name, span in (("D1", (3, 4)), ("D2", (7, 8)))]
    points = [np.eye(n)[2] * x3 for x3 in (0.0, 0.5, 1.0)]
    return Decomposition(structure, proper, mask=mask), points


# The golden-report cases (tests/test_golden.py).
_GOLDEN_CASES = [
    ("ex1", 2, -1, None), ("ex3", 2, 1, None), ("ex4", 2, -1, 0.5), ("ex9", 3, 1, 2.0)]


# Declared and discovery mode decide their labels through the same function.
@pytest.mark.parametrize("build", [
    *(pytest.param(lambda c=c: _golden_case(*c), id="-".join(map(str, c)))
      for c in _GOLDEN_CASES),
    pytest.param(_cos_block_case, id="ex3-cos-block")])
def test_classify_and_discover_agree_on_golden_cases(build):
    dec, pts = build()
    declared = classify(dec, pts)
    found = discover(dec.structure, pts, mask=dec.mask)
    assert found.labels == declared.labels
    assert found.named_cases == declared.named_cases


def test_discovery_evidence_names_proper_positivity():
    dec, pts = _cos_block_case()
    declared = classify(dec, pts)
    found = discover(dec.structure, pts, mask=dec.mask)
    assert sorted(found.evidence) == sorted(declared.evidence)
    for rep, name in ((declared, "D1"), (found, "C2")):
        rule = rep.evidence["proper-positivity"]
        assert rule == {"reason": f"proper component {name!r} has slant value 0",
                        "point": pts[0].tolist()}
        # the pointwise labels fail by this rule, k-slant by the varying slant value
        assert rep.evidence["pointwise-k-slant"] == rule
        assert rep.evidence["k-pointwise-slant"] == rule
        assert "not constant" in rep.evidence["k-slant"]["reason"]


def _eigh_lambda(frame, basis, proj):
    """Reference lambda: the eigvalsh mean of the square of proj phi on the
    orthonormal columns of `basis`, formed here rather than read from the
    frame's f^2 Gram."""
    op = proj @ frame.phi
    mat = basis.T @ frame.g @ op @ op @ basis
    return float(np.mean(np.linalg.eigvalsh(0.5 * (mat + mat.T))))


@pytest.mark.parametrize("fid, k, epsilon, gamma", _GOLDEN_CASES)
def test_trace_mean_lambda_matches_eigh_mean(fid, k, epsilon, gamma):
    """component_slant and the dual's lambda (`duality._roundtrip_columns`)
    are trace means; each equals the eigvalsh mean of the same block within
    1e-12."""
    fx = build_fixture(fid, k=k, epsilon=epsilon, gamma=gamma)
    dec = fx.decomposition
    for pt in box_points(fx.structure.n, fx.mask, 3, seed=11):
        frame, maps = dec.frame_at(pt), FrameMaps(dec, pt)
        for i, basis in enumerate(frame.bases):
            want = _eigh_lambda(frame, basis, maps.proj_d)
            assert component_slant(dec, pt, i).lam == pytest.approx(want, abs=1e-12)
        columns = duality._roundtrip_columns(dec.frame_stack([pt]), DEFAULT_TOLERANCES)
        for basis, (*_, theta_dual, _) in zip(frame.dual().duals, columns):
            want = _eigh_lambda(frame, basis, maps.proj_g)
            cos2 = math.cos(float(theta_dual[0])) ** 2
            assert cos2 == pytest.approx(min(max(epsilon * want, 0.0), 1.0), abs=1e-12)
