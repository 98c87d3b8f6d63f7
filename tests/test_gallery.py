import math

import numpy as np
import pytest

from slantkit.errors import ParamError
from slantkit.gallery import (
    FIXTURE_IDS,
    build_fixture,
    fixture_oracle_check,
    fixture_to_spec_dict,
)
from slantkit.specfile import load_manifold_spec, spec_digest


class TestBuildFixture:
    def test_ex1_shape(self, ex1):
        assert ex1.structure.n == 11
        assert ex1.structure.is_contact
        names = ex1.decomposition.component_names()
        assert names == ["D0", "D1", "D2"]
        assert ex1.mask == (1, 2, 3, 4, 7, 8, 11)
        # xi is the last coordinate field
        assert np.allclose(ex1.structure.xi_at(np.zeros(11)), np.eye(11)[:, 10])

    def test_ex9_closed_form(self):
        fx = build_fixture("ex9", k=2, epsilon=-1, gamma=1.0)
        p = np.zeros(10)
        p[2] = 1.0  # ||x||^2 = 1
        # theta_1 = arccos(1/sqrt(5)): numerator t = 1, E^2 = 2+2+1
        assert fx.theta_closed_form(1, p) == pytest.approx(math.acos(1 / math.sqrt(5)))

    def test_ex4_origin_right_angles(self):
        fx = build_fixture("ex4", k=2, epsilon=-1, gamma=0.0, delta=2.0)
        for j in (1, 2):
            assert fx.theta_closed_form(j, np.zeros(11)) == pytest.approx(math.pi / 2)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            build_fixture("ex1", k=1)
        with pytest.raises(ParamError):
            build_fixture("ex2")
        with pytest.raises(ParamError):
            build_fixture("ex4", gamma=-0.5)
        with pytest.raises(ParamError):
            build_fixture("ex4", delta=0.0)
        with pytest.raises(ParamError):
            build_fixture("ex5", gamma=0.5)
        with pytest.raises(ParamError):
            build_fixture("ex3", gamma=1.0)
        with pytest.raises(ParamError):
            build_fixture("ex1", epsilon=0)

    def test_larger_k(self):
        fx = build_fixture("ex1", k=5, epsilon=1)
        assert fx.structure.n == 23
        assert len(fx.decomposition.proper) == 5
        p = np.zeros(23)
        for j in range(1, 6):
            assert fx.theta_closed_form(j, p) == pytest.approx(
                math.acos((j * j - 1) / (j * j + 1)))

    def test_default_points_respect_mask(self, ex1):
        pts = ex1.default_points()
        outside = [i for i in range(11) if (i + 1) not in ex1.mask]
        assert np.allclose(pts[0], 0.0)      # origin first
        for p in pts:
            assert np.allclose(np.asarray(p)[outside], 0.0)
        assert len(pts) == 1 + len(ex1.mask) + 16


class TestOracleChecks:
    @pytest.mark.parametrize("fid,kwargs", [
        ("ex1", {}),
        ("ex3", {}),
        ("ex4", dict(gamma=0.0, delta=1.0)),
        ("ex5", dict(gamma=1.5)),
        ("ex8", dict(gamma=0.0, delta=0.5)),
        ("ex9", dict(gamma=1.0)),
    ])
    def test_fixture_oracle(self, fid, kwargs):
        fx = build_fixture(fid, k=2, epsilon=-1, **kwargs)
        rep = fixture_oracle_check(fx, points=fx.default_points()[:8])
        assert rep["passed"], {k: v for k, v in rep.items() if k != "classification"}

    def test_ex8_gamma_zero_is_pointwise_k_slant_but_not_generic(self):
        # the boundary case separating the two finest labels: the slant
        # functions stay distinct everywhere, yet one eigenvalue function
        # touches 0 at the origin only
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.0, delta=1.0)
        rep = fixture_oracle_check(fx, points=fx.default_points()[:8])
        assert rep["passed"]
        cls = rep["classification"]
        assert cls.labels["pointwise-k-slant"]
        assert not cls.labels["generic"]
        assert np.linalg.norm(cls.evidence["generic"]["point"]) < 1e-9

    def test_ex4_gamma_zero_witness_at_origin(self, ex4_zero):
        rep = fixture_oracle_check(ex4_zero, points=ex4_zero.default_points()[:8])
        assert rep["passed"]
        cls = rep["classification"]
        assert not cls.labels["pointwise-k-slant"]
        assert np.linalg.norm(cls.evidence["pointwise-k-slant"]["point"]) < 1e-6


class TestSpecEmission:
    def test_roundtrip_through_spec_format(self, ex1):
        doc = fixture_to_spec_dict(ex1)
        spec = load_manifold_spec(doc)
        assert spec.structure.n == 11
        assert not spec.discovery
        assert spec.mask == ex1.mask
        # the re-loaded decomposition reproduces the same slant data
        from slantkit.classifier import component_slant
        p = spec.points[0]
        for idx in (1, 2):
            a = component_slant(spec.decomposition, p, idx).theta
            b = component_slant(ex1.decomposition, p, idx).theta
            assert a == pytest.approx(b, abs=1e-14)

    def test_emitted_docs_share_nothing_with_the_fixture(self, ex1):
        first = fixture_to_spec_dict(ex1)
        doc = fixture_to_spec_dict(ex1)
        doc["phi_columns"][0][0] = doc["xi"][0] = "x3"
        doc["distributions"]["D1"][0][2] = "7"
        doc["submanifold_mask"].append(5)
        doc["decomposition"]["proper"].pop()
        assert fixture_to_spec_dict(ex1) == first
        assert spec_digest(fixture_to_spec_dict(ex1)) == spec_digest(first)

    def test_digest_stable(self, ex1):
        doc = fixture_to_spec_dict(ex1)
        assert spec_digest(doc) == spec_digest(load_manifold_spec(doc).raw)

    def test_all_ids_emit(self):
        for fid in FIXTURE_IDS:
            fx = build_fixture(fid, k=2, epsilon=1,
                               gamma=None if fid in ("ex1", "ex3") else 1.0,
                               delta=1.0 if fid in ("ex4", "ex8") else None)
            doc = fixture_to_spec_dict(fx)
            spec = load_manifold_spec(doc)
            assert spec.structure.epsilon == 1
