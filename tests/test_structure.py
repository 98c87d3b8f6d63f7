import math
import re

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit import structure
from slantkit.errors import EvalError, KindError, MetricError, SpecError
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


class TestNonFiniteEntries:
    """An entry that evaluates to inf or nan raises EvalError naming its spec
    position, its source and the point."""

    HUGE = "1" + "0" * 200
    INF = f"({HUGE}*{HUGE})"   # finite literals, overflowing product

    def test_phi_entry(self):
        cols = [["0", "1"], [f"0*{self.INF}", "0"]]
        s = StructureField(2, -1, KIND_HERMITIAN, parse_columns(cols, 2))
        with pytest.raises(EvalError, match=r"nan of phi_columns\[1\]\[0\] at \[0.5, 0.0\]"
                                             + re.escape(f" in '0*{self.INF}'")):
            s.phi_at(np.array([0.5, 0.0]))

    def test_metric_entry(self):
        cols = [["0", "1"], ["-1", "0"]]
        metric = parse_columns([["1", "0"], [self.INF, "1"]], 2)
        s = StructureField(2, -1, KIND_HERMITIAN, parse_columns(cols, 2), metric=metric)
        with pytest.raises(EvalError, match=r"inf of metric\[1\]\[0\] at \[0.0, 1.0\]"):
            s.metric_at(np.array([0.0, 1.0]))

    def test_vector_field_entry(self):
        field = fe.VectorFieldExpr.parse(["x1", f"x1 - {self.INF}"], 2)
        with pytest.raises(EvalError, match=r"-inf of vector field\[1\] at \[1.0, 0.0\]"):
            field.at(np.array([1.0, 0.0]))


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

    def test_nan_residual_is_the_witness(self, monkeypatch, ex3):
        """A nan residual compares false against every number; it must still
        become the axiom's worst residual and the witness, and fail."""
        monkeypatch.setattr(structure, "_axiom_residuals", lambda *_: {
            "compatibility": np.array([0.0, float("nan"), 1e-12])})
        points = [np.full(10, float(i)) for i in range(3)]
        verdict = validate_structure(ex3.structure, points, trials=3)
        assert not verdict.passed
        assert math.isnan(verdict.residuals["compatibility"])
        assert verdict.witness["axiom"] == "compatibility"
        assert verdict.witness["point"] == points[1].tolist()
        assert math.isnan(verdict.witness["residual"])


    def test_later_nan_beats_an_earlier_larger_residual(self, monkeypatch, ex3):
        monkeypatch.setattr(structure, "_axiom_residuals", lambda *_: {
            "compatibility": np.array([5.0, 1e-3]),
            "metric-law": np.array([1e-12, float("nan")])})
        points = [np.full(10, float(i)) for i in range(2)]
        verdict = validate_structure(ex3.structure, points, trials=3)
        assert not verdict.passed
        assert verdict.residuals["compatibility"] == 5.0
        assert math.isnan(verdict.residuals["metric-law"])
        assert verdict.witness["axiom"] == "metric-law"
        assert verdict.witness["point"] == points[1].tolist()

    def test_ties_go_to_the_first_point_then_the_first_axiom(self, monkeypatch, ex3):
        monkeypatch.setattr(structure, "_axiom_residuals", lambda *_: {
            "compatibility": np.array([1.0, 2.0, 2.0]),
            "metric-law": np.array([2.0, 2.0, 0.5])})
        points = [np.full(10, float(i)) for i in range(3)]
        verdict = validate_structure(ex3.structure, points, trials=3)
        assert verdict.residuals == {"compatibility": 2.0, "metric-law": 2.0}
        assert verdict.witness == {"axiom": "metric-law", "point": points[0].tolist(),
                                   "residual": 2.0}

    def test_zero_table_has_no_witness(self, monkeypatch, ex3):
        monkeypatch.setattr(structure, "_axiom_residuals", lambda *_: {
            "compatibility": np.zeros(2), "metric-law": np.zeros(2)})
        verdict = validate_structure(ex3.structure, [np.zeros(10)] * 2, trials=3)
        assert verdict.passed
        assert verdict.witness == {"axiom": None, "point": None, "residual": 0.0}

    def test_failing_points_between_good_ones_keep_their_places(self, monkeypatch):
        """Points 1 and 3 fail evaluation (x1 = 0, then x2 = 0); the first of
        them is the witness, and the good points keep the pair streams of
        their indices."""
        cols = [["1/x1", "0"], ["0", "1/x2"]]
        s = StructureField(2, 1, KIND_HERMITIAN, parse_columns(cols, 2))
        points = [np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([-3.0, 0.5]),
                  np.array([1.0, 0.0])]
        seen = {}

        def spy(s, g, phi, xi, pairs):
            seen.update(phi=phi, xi=xi, pairs=pairs)
            return {"compatibility": np.zeros(len(pairs))}

        monkeypatch.setattr(structure, "_axiom_residuals", spy)
        verdict = validate_structure(s, points, trials=4, seed=11)
        assert not verdict.passed
        assert verdict.witness["axiom"] == "evaluation"
        assert verdict.witness["point"] == [0.0, 1.0]
        assert "'1/x1'" in verdict.witness["error"]
        assert verdict.residuals == {"compatibility": 0.0, "evaluation": float("inf")}
        assert seen["xi"] is None
        assert np.array_equal(seen["phi"], np.stack([s.phi_at(points[0]), s.phi_at(points[2])]))
        want = [rng_for(11, 101, idx).standard_normal((2, 4, 2)) for idx in (0, 2)]
        assert np.array_equal(seen["pairs"], np.stack(want))

def indefinite_ex3():
    """ex3 k=2 with the explicit metric diag(-1, 1, ..., 1)."""
    fx = build_fixture("ex3", k=2, epsilon=1)
    n = fx.structure.n
    metric = [["-1" if i == j == 0 else "1" if i == j else "0" for j in range(n)]
              for i in range(n)]
    return fx, StructureField(n, 1, KIND_HERMITIAN, fx.structure.phi_columns,
                              metric=parse_columns(metric, n))


class TestMetricPositive:
    def test_metric_at_raises_naming_the_point(self):
        fx, s = indefinite_ex3()
        point = fx.default_points()[0]
        with pytest.raises(MetricError, match=re.escape(f"at {point.tolist()}")):
            s.metric_at(point)

    def test_validate_witnesses_metric_positive(self):
        fx, s = indefinite_ex3()
        points = fx.default_points()[:3]
        verdict = validate_structure(s, points, trials=5)
        assert not verdict.passed
        assert verdict.residuals == {"metric-positive": float("inf")}
        assert verdict.witness["axiom"] == "metric-positive"
        assert verdict.witness["point"] == points[0].tolist()
        assert "not positive definite" in verdict.witness["error"]

    def test_literal_identity_metric_skips_the_check(self):
        fx = build_fixture("ex3", k=2, epsilon=1)
        n = fx.structure.n
        eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        s = StructureField(n, 1, KIND_HERMITIAN, fx.structure.phi_columns,
                           metric=parse_columns(eye, n))
        assert s.metric_is_euclidean
        assert validate_structure(s, fx.default_points()[:3], trials=5).passed


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
