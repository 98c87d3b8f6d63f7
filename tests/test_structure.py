import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.errors import KindError, SpecError
from slantkit.gallery import build_fixture
from slantkit.sampling import rng_for
from slantkit.structure import (
    KIND_CONTACT,
    KIND_HERMITIAN,
    StructureField,
    validate_structure,
)


def parse_columns(cols, n):
    return [[fe.parse(src, n) for src in col] for col in cols]


def simple_hermitian(epsilon=-1):
    """phi e1 = e2, phi e2 = eps e1 on R^2."""
    cols = [["0", "1"], [str(epsilon), "0"]]
    return StructureField(2, epsilon, KIND_HERMITIAN, parse_columns(cols, 2))


class TestPhiAt:
    def test_ex1_first_column(self, ex1):
        phi = ex1.structure.phi_at(np.zeros(11))
        assert np.allclose(phi[:, 0], np.eye(11)[:, 1])  # image of e1 is e2

    def test_zero_structure_matrix(self):
        cols = [["0", "0"], ["0", "0"]]
        s = StructureField(2, -1, KIND_HERMITIAN, parse_columns(cols, 2))
        assert np.allclose(s.phi_at(np.zeros(2)), 0.0)
        verdict = validate_structure(s, [np.zeros(2)], trials=5)
        assert not verdict.passed

    def test_ex4_column_at_origin(self):
        # gamma = 0, delta = 1, j = 1: the image of e3 at the origin is
        # eps * e6 (the first coefficient vanishes, the second is 1)
        fx = build_fixture("ex4", k=2, epsilon=-1, gamma=0.0, delta=1.0)
        phi = fx.structure.phi_at(np.zeros(11))
        col = phi[:, 2]
        expected = np.zeros(11)
        expected[5] = -1.0
        assert np.allclose(col, expected, atol=1e-15)


class TestValidate:
    def test_ex1_passes(self, ex1):
        pts = [p for p in ex1.default_points()[:10]]
        verdict = validate_structure(ex1.structure, pts, trials=10, tol=1e-10)
        assert verdict.passed
        assert set(verdict.residuals) == {
            "compatibility", "metric-law", "squared-endomorphism",
            "xi-unit", "phi-xi", "eta-phi"}

    def test_identity_phi_fails(self):
        cols = [["1", "0"], ["0", "1"]]
        s = StructureField(2, -1, KIND_HERMITIAN, parse_columns(cols, 2))
        verdict = validate_structure(s, [np.zeros(2)], trials=5)
        assert not verdict.passed
        # phi^2 = I but eps = -1 wants -I: residual 2 on unit vectors
        assert verdict.residuals["squared-endomorphism"] == pytest.approx(2.0, rel=1e-6)

    def test_ex9_passes(self):
        fx = build_fixture("ex9", k=2, epsilon=-1, gamma=1.0)
        pts = fx.default_points()[:10]
        verdict = validate_structure(fx.structure, pts, trials=10)
        assert verdict.passed

    def test_eval_error_becomes_witnessed_failure(self):
        cols = [["1/x1", "0"], ["0", "1"]]
        s = StructureField(2, 1, KIND_HERMITIAN, parse_columns(cols, 2))
        verdict = validate_structure(s, [np.zeros(2)], trials=3)
        assert not verdict.passed
        assert verdict.witness["axiom"] == "evaluation"

    def test_needs_points(self, ex1):
        with pytest.raises(SpecError):
            validate_structure(ex1.structure, [], trials=3)


class TestEta:
    def test_eta_of_xi_direction(self, ex1):
        p = np.zeros(11)
        v = np.eye(11)[:, 10]  # the unit field spanning ker(phi)
        assert ex1.structure.eta(p, v) == pytest.approx(1.0)

    def test_eta_of_e1(self, ex1):
        assert ex1.structure.eta(np.zeros(11), np.eye(11)[:, 0]) == 0.0

    def test_eta_annihilates_phi_image(self):
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5, delta=1.0)
        rng = rng_for(7, 1)
        for pt in fx.default_points()[:4]:
            x = rng.standard_normal(11)
            img = fx.structure.phi_at(pt) @ x
            assert abs(fx.structure.eta(pt, img)) < 1e-12

    def test_kind_error_on_hermitian(self, ex3):
        with pytest.raises(KindError):
            ex3.structure.eta(np.zeros(10), np.eye(10)[:, 0])


def test_compatibility_invariant_across_gallery(ex1, ex3, ex4_zero, ex5_one):
    # |g(phi X, Y) - eps g(X, phi Y)| <= 1e-10 * scale on 100 seeded triples
    for fx in (ex1, ex3, ex4_zero, ex5_one):
        pts = fx.default_points()[:5]
        rng = rng_for(99, 5)
        n = fx.structure.n
        eps = fx.structure.epsilon
        for pt in pts:
            phi = fx.structure.phi_at(pt)
            for _ in range(20):
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                lhs = (phi @ x) @ y
                rhs = eps * (x @ (phi @ y))
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_ker_phi_is_xi_line(ex1):
    # contact-like gallery structures: exactly one singular value below 1e-10
    fx4 = build_fixture("ex4", k=2, epsilon=1, gamma=0.5, delta=2.0)
    for fx in (ex1, fx4):
        for pt in fx.default_points()[:5]:
            sv = np.linalg.svd(fx.structure.phi_at(pt), compute_uv=False)
            assert int(np.sum(sv < 1e-10)) == 1


def test_contact_isometry_off_xi(ex1):
    # ||phi X||^2 = ||X||^2 - eta(X)^2 within 1e-9 relative
    rng = rng_for(17, 3)
    for pt in ex1.default_points()[:5]:
        phi = ex1.structure.phi_at(pt)
        xi = ex1.structure.xi_at(pt)
        for _ in range(10):
            x = rng.standard_normal(11)
            lhs = np.linalg.norm(phi @ x) ** 2
            rhs = np.linalg.norm(x) ** 2 - float(x @ xi) ** 2
            assert abs(lhs - rhs) <= 1e-9 * np.linalg.norm(x) ** 2


def test_structure_field_validation_errors():
    with pytest.raises(SpecError):
        StructureField(2, 0, KIND_HERMITIAN, [[fe.parse("0", 2)] * 2] * 2)
    with pytest.raises(SpecError):
        StructureField(2, 1, "weird", [[fe.parse("0", 2)] * 2] * 2)
    with pytest.raises(SpecError):
        StructureField(2, 1, KIND_CONTACT, [[fe.parse("0", 2)] * 2] * 2)  # no xi
