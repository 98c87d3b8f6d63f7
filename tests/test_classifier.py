import math

import numpy as np
import pytest

from slantkit.classifier import (
    classify,
    component_slant,
    discover,
    slant_function_table,
    slant_spectrum,
)
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.distribution import Decomposition
from slantkit.errors import ComponentError, ModelError, SpecError
from slantkit.gallery import build_fixture
from slantkit.sampling import box_points, rng_for
from slantkit.taxonomy import VERDICT_LATTICE, lattice_closure


class TestSlantSpectrum:
    def test_ex1_clusters(self, ex1):
        # k = 2: invariant cluster at eps, then lambda = -(3/5)^2 and 0
        spec = slant_spectrum(ex1.decomposition, np.zeros(11))
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

    def test_eigenbasis_orthonormal(self, ex3):
        spec = slant_spectrum(ex3.decomposition, np.zeros(10))
        for c in spec.clusters:
            b = c.eigenbasis
            assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) < 1e-10

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
            slant_spectrum(dec, np.zeros(2))


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


class TestSlantFunctionTable:
    def test_constant_component(self, ex1):
        table = slant_function_table(ex1.decomposition, 2, ex1.default_points()[:6])
        values = [t for _, t in table]
        assert max(values) - min(values) < 1e-12
        assert values[0] == pytest.approx(math.acos(0.6))

    def test_invariant_component(self, ex1):
        table = slant_function_table(ex1.decomposition, 0, ex1.default_points()[:4])
        assert all(t == pytest.approx(0.0) for _, t in table)

    def test_pointwise_boundary_value(self):
        # ex5 at gamma = 1: theta_1(0) = pi/2 since the numerator vanishes
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        table = slant_function_table(fx.decomposition, 1, [np.zeros(10)])
        assert table[0][1] == pytest.approx(math.pi / 2)


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
            fr = dec.frame_at(pt)
            for ci in fr.proper_indices:
                cl = component_slant(dec, pt, ci)
                b = fr.component_basis(ci)
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
            fr = dec.frame_at(pt)
            for ci in fr.proper_indices:
                cl = component_slant(dec, pt, ci)
                if cl.theta > math.pi / 2 - 1e-8:
                    continue
                b = fr.component_basis(ci)
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
            fr = dec.frame_at(pt)
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


# The golden-report cases (tests/test_golden.py): declared and discovery mode
# decide their labels through the same slant-table statistics.
@pytest.mark.parametrize("fid, k, epsilon, gamma", [
    ("ex1", 2, -1, None), ("ex3", 2, 1, None), ("ex4", 2, -1, 0.5), ("ex9", 3, 1, 2.0)])
def test_classify_and_discover_agree_on_golden_cases(fid, k, epsilon, gamma):
    fx = build_fixture(fid, k=k, epsilon=epsilon, gamma=gamma)
    pts = box_points(fx.structure.n, fx.mask, 6, seed=11)
    declared = classify(fx.decomposition, pts)
    found = discover(fx.structure, pts, mask=fx.mask)
    assert found.labels == declared.labels
    assert found.named_cases == declared.named_cases
