import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from slantkit import tangents, verifier
from slantkit.classifier import classify, component_slant
from slantkit.cli import main
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.distribution import Decomposition, DistributionFrame, PointFrame
from slantkit.errors import (ComponentError, InvariantError, RankError, SpecError,
                             UnsupportedError)
from slantkit.expr import VectorFieldExpr
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.specfile import load_manifold_spec
from slantkit.verifier import (
    REGISTRY,
    PointContext,
    connection_criterion_report,
    eigenvalue_directional_derivative,
    nabla_f2,
    run_identity_suite,
)
from test_duality import sub_decomposition_with_h

CONTACT_ONLY = {"struct.contact-metric", "struct.contact-isometry"}
HERMITIAN_ONLY = {"struct.isometry"}


def test_registry_keys_unique():
    keys = [c.key for c in REGISTRY]
    assert len(keys) == len(set(keys))
    assert len(keys) >= 60


class TestSuite:
    def test_ex1_full_pass(self, ex1):
        rep = run_identity_suite(ex1.decomposition, ex1.default_points()[:4])
        assert rep.passed
        verdicts = {e["key"]: e["verdict"] for e in rep.entries}
        for key in HERMITIAN_ONLY:
            assert verdicts[key] == "skipped(setting)"
        for key in ("h.w2", "h.metric", "h.norm", "angle.w-h"):
            assert verdicts[key] == "skipped(vacuous)"  # H = {0} on the gallery
        # right-angle case applies: ex1 j=1 has theta = pi/2
        assert verdicts["pi2.fw"] == "pass"
        assert verdicts["pi2.wf"] == "pass"

    def test_ex3_contact_keys_skipped(self, ex3):
        rep = run_identity_suite(ex3.decomposition, ex3.default_points()[:3])
        assert rep.passed
        verdicts = {e["key"]: e["verdict"] for e in rep.entries}
        for key in CONTACT_ONLY:
            assert verdicts[key] == "skipped(setting)"
        assert verdicts["struct.isometry"] == "pass"

    def test_pointwise_fixture_passes(self):
        fx = build_fixture("ex8", k=2, epsilon=1, gamma=0.5, delta=2.0)
        rep = run_identity_suite(fx.decomposition, fx.default_points()[:4])
        assert rep.passed, rep.failed_keys()

    def test_corrupted_phi_fails_compatibility(self, ex1):
        doc = fixture_to_spec_dict(ex1)
        # perturb the e1-coefficient of the image of e2 by 1e-3
        assert doc["phi_columns"][1][0] == "-1"
        doc["phi_columns"][1][0] = "-1 + 1/1000"
        spec = load_manifold_spec(doc)
        rep = run_identity_suite(spec.decomposition, spec.points[:4])
        assert not rep.passed
        compat = rep.entry("struct.compat")
        assert compat["verdict"] == "fail"
        assert compat["max_residual"] >= 1e-4
        adj = rep.entry("adj.f-on-d")
        assert adj["verdict"] == "fail"
        assert 1e-4 <= adj["max_residual"] <= 1e-2  # linear in the perturbation

    def test_report_shape(self, ex1):
        rep = run_identity_suite(ex1.decomposition, ex1.default_points()[:2])
        doc = rep.to_json_dict()
        assert set(doc) == {"tolerance", "passed", "cases"}    # the CLI adds trials and seed
        for case in doc["cases"]:
            assert {"key", "setting", "max_residual", "witness_point",
                    "verdict"} <= set(case)
        json.dumps(doc)  # serializable

    def test_needs_points(self, ex1):
        with pytest.raises(SpecError):
            run_identity_suite(ex1.decomposition, [])


def _with_residuals(monkeypatch, key, residuals):
    """Replace `key`'s evaluator by one returning the per-point `residuals`."""
    monkeypatch.setattr(verifier, "REGISTRY", [
        dataclasses.replace(case, evaluator=lambda ctx: np.array(residuals))
        if case.key == key else case for case in REGISTRY])


class TestFold:
    """How `run_identity_suite` folds a key's per-point residuals."""

    @pytest.mark.parametrize("residuals, witness", [
        ([1e-16, float("nan"), 1e-12], 1),    # a nan after a finite residual
        ([float("nan"), 1e-16, 1e-12], 0),    # a nan before one
        ([1e-16, float("nan"), float("nan")], 1),
    ])
    def test_nan_residual_is_the_witness(self, monkeypatch, ex3, residuals, witness):
        """A nan residual compares false against every number; wherever it
        falls among the points, the first nan must become the key's worst
        residual, with its point as witness, and fail."""
        _with_residuals(monkeypatch, "adj.f-on-d", residuals)
        points = ex3.default_points()[:3]
        rep = run_identity_suite(ex3.decomposition, points, keys=["adj.f-on-d"])
        entry = rep.entry("adj.f-on-d")
        assert not rep.passed
        assert entry["verdict"] == "fail"
        assert math.isnan(entry["max_residual"])
        assert entry["witness_point"] == points[witness].tolist()

    def test_first_of_tied_points_is_the_witness(self, monkeypatch, ex3):
        _with_residuals(monkeypatch, "adj.f-on-d", [1e-16, 3e-16, 3e-16])
        points = ex3.default_points()[:3]
        entry = run_identity_suite(ex3.decomposition, points, keys=["adj.f-on-d"]).entry(
            "adj.f-on-d")
        assert (entry["max_residual"], entry["verdict"]) == (3e-16, "pass")
        assert entry["witness_point"] == points[1].tolist()

    @pytest.mark.parametrize("first, second", [(1.0, float("nan")), (float("nan"), 1.0)])
    def test_nan_component_is_the_points_residual(self, first, second):
        """Inside a point, a nan residual of one component wins over the
        other components, in either order; a component not held at a point
        does not count there. Rows are points, columns components."""
        got = verifier._worst(np.array([[first, second], [2.0, 1.0]]))
        assert math.isnan(got[0]) and got[1] == 2.0
        got = verifier._worst(np.array([[1.0, float("nan")], [2.0, 5.0]]),
                              np.array([[True, False], [True, True]]))
        assert got.tolist() == [1.0, 5.0]
        assert verifier._worst(np.zeros((2, 0))).tolist() == [-np.inf] * 2

    def test_unknown_keys_are_a_spec_error(self, ex3):
        with pytest.raises(SpecError, match=r"unknown identity keys: adj.f-on-D, no.such-key$"):
            run_identity_suite(ex3.decomposition, ex3.default_points()[:2],
                               keys=["adj.f-on-D", "adj.f-on-d", "no.such-key"])


def unequal_rank_spec(fid, epsilon, merged_first=False):
    """ex1 or ex3 at k = 3 with block 3's coefficients set to block 2's, D1
    (theta = pi/2) split into D1a = <e3> and D1b = <e4>, and D2 + D3 merged
    into D23 = <e7, e8, e11, e12>: components of ranks 2 (D0), 1, 1 and 4,
    D23 first among the proper ones when `merged_first`."""
    fx = build_fixture(fid, k=3, epsilon=epsilon)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:5])
    cols = doc["phi_columns"]
    for c in range(6, 10):      # block j sits on the coordinates 4j-1 .. 4j+2
        for r in range(6, 10):
            cols[c + 4][r + 4] = cols[c][r]
    n = doc["ambient_dim"]
    doc["distributions"] = {"D0": doc["distributions"]["D0"], "D1a": [_unit(3, n)],
                            "D1b": [_unit(4, n)],
                            "D23": [_unit(i, n) for i in (7, 8, 11, 12)]}
    proper = ["D1a", "D1b", "D23"]
    doc["decomposition"] = {"invariant": "D0",
                            "proper": proper[2:] + proper[:2] if merged_first else proper}
    return doc


@pytest.mark.parametrize("merged_first", [False, True], ids=["split-first", "merged-first"])
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", ["ex1", "ex3"])
def test_unequal_ranks(fid, epsilon, merged_first, tmp_path, capsys):
    """Components of ranks 1, 1 and 4 (duals too) stack on one component
    axis: every key passes or is skipped, the right-angle keys hold on D1a
    and D1b, and classify and dual exit 0."""
    doc = unequal_rank_spec(fid, epsilon, merged_first)
    spec = load_manifold_spec(doc)
    stack = spec.decomposition.frame_stack(spec.points)
    assert sorted(b.shape[-1] for b in stack.bases) == [1, 1, 2, 4]
    assert sorted(d.shape[-1] for d in stack.duals) == [1, 1, 4]
    rep = run_identity_suite(spec.decomposition, spec.points)
    verdicts = {e["key"]: e["verdict"] for e in rep.entries}
    assert set(verdicts.values()) == {"pass", "skipped(setting)", "skipped(vacuous)"}
    assert verdicts["pi2.fw"] == verdicts["pi2.wf"] == "pass"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 0
    assert main(["dual", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["ex9", "ex1-with-H"])
def test_each_side_key_alone_has_the_bits_of_the_full_run(name):
    """A side's images and Grams are made on first use, whichever of its
    rows comes first, so a side key run alone (keys=[key]) reports the
    residual and witness of the full run to the bit. ex1's sub-decomposition has a
    nonzero H; between them the two quantify every side key somewhere."""
    fx = build_fixture("ex9" if name == "ex9" else "ex1", k=3 if name == "ex9" else 2)
    dec = fx.decomposition if name == "ex9" else sub_decomposition_with_h(fx)
    points = fx.default_points()[:4]
    full = {e["key"]: e for e in run_identity_suite(dec, points).entries}
    side_keys = [case.key for case in REGISTRY if case.side is not None]
    assert len(side_keys) == 47
    for key in side_keys:
        alone = run_identity_suite(dec, points, keys=[key]).entry(key)
        assert json.dumps(alone) == json.dumps(full[key]), key


SUITE_PEAK_BOUND_MB = 2.69 * 1.1    # the measured peak plus 10%


def test_suite_memory_is_bounded():
    """The suite's tracemalloc peak on ex9 at k = 16 (n = 66, 17 components)
    and 8 points, the frame stack built beforehand: 2.69 MB. Each row reads
    one small matrix per point and component, and phi, f and w (P, n, n)
    are the largest arrays; the sampled suite's draws at 50 trials put the
    peak at 5.47 MB."""
    fx = build_fixture("ex9", k=16, epsilon=-1, gamma=1.5)
    points = fx.default_points()[:8]
    fx.decomposition.frame_stack(points).h_basis    # the stack and its dual slice, outside the peak
    tracemalloc.start()
    try:
        rep = run_identity_suite(fx.decomposition, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= SUITE_PEAK_BOUND_MB * 1e6, peak


# The probe's tracemalloc peak before the fills' Jacobians ran over the point
# stack, plus 10%: 3.25 MB on identities-k8 (ex9 at k = 8, 8 seeded points)
# and 8.96 MB on ex9 at k = 16 (8 default points). With live fields (every
# field entry 1 as 1 + 0*x1*x2), the peak while each field had its own fill,
# plus 10%: 6.54 MB at k = 8 and 5.89 MB at k = 16.
PROBE_PEAK_BOUND_MB = {(8, False): 3.25 * 1.1, (16, False): 8.96 * 1.1,
                       (8, True): 6.54 * 1.1, (16, True): 5.89 * 1.1}


@pytest.mark.parametrize("k,live", [pytest.param(k, live, id=f"{k}-live-fields" if live else str(k))
                                    for live in (False, True) for k in (8, 16)])
def test_probe_memory_is_bounded(k, live):
    """The connection probe's tracemalloc peak, with the classification and
    the frame stack built beforehand. Each point chunk's dense Jacobians, of
    phi and of the decomposition's fill where a field is live, count against
    PROBE_ELEMENTS beside the frame derivatives, so stacking the fills'
    Jacobians over a chunk keeps the peak within 10% of the per-point and
    per-field Jacobians'."""
    fx = build_fixture("ex9", k=k, epsilon=-1, gamma=1.5)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:1])
    doc["sample_points"] = {"seed": 0, "count": 8} if k == 8 else [
        p.tolist() for p in fx.default_points()[:8]]
    if live:
        for field in (f for fields in doc["distributions"].values() for f in fields):
            field[:] = ["1 + 0*x1*x2" if e == "1" else e for e in field]
    spec = load_manifold_spec(doc)
    classification = classify(spec.decomposition, spec.points)
    spec.decomposition.frame_stack(spec.points).f2
    tracemalloc.start()
    try:
        rep = connection_criterion_report(spec.decomposition, spec.points,
                                          classification=classification)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["consistent"]
    assert peak <= PROBE_PEAK_BOUND_MB[k, live] * 1e6, peak


class TestRightAnglePoints:
    """ex5 with gamma = 1 has theta_i = pi/2 at the origin and below pi/2
    elsewhere, for every proper component; the spec samples the origin
    between two other points."""

    @pytest.fixture(scope="class")
    def setup(self):
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        pts = fx.default_points()
        spec = load_manifold_spec(fixture_to_spec_dict(fx, points=[pts[3], np.zeros(10), pts[5]]))
        rep = run_identity_suite(spec.decomposition, spec.points)
        ctx = PointContext(spec.decomposition, spec.points, DEFAULT_TOLERANCES)
        return spec.decomposition, [np.asarray(p) for p in spec.points], rep, ctx

    def test_right_angle_keys_take_their_witness_there(self, setup):
        _, points, rep, ctx = setup
        assert np.all(ctx.sin[1, 1:] == 1.0) and np.all(ctx.sin[[0, 2], 1:] < 1.0)
        for key in ("pi2.fw", "pi2.wf"):
            entry = rep.entry(key)
            assert entry["verdict"] == "pass"
            assert entry["witness_point"] == points[1].tolist()

    def test_below_right_angle_keys_leave_those_points_out(self, setup):
        _, points, rep, ctx = setup
        for key in ("angle.f-slant", "angle.w-dual"):
            residuals = next(c for c in REGISTRY if c.key == key).evaluator(ctx)
            assert residuals[1] == -np.inf
            assert np.all(np.isfinite(residuals[[0, 2]]))
            assert rep.entry(key)["witness_point"] != points[1].tolist()

    def test_keys_quantified_at_no_point_are_vacuous(self, setup):
        dec, points, _, _ = setup
        only_right = run_identity_suite(dec, [points[1]])
        none_right = run_identity_suite(dec, [points[0], points[2]])
        for key in ("angle.f-slant", "angle.w-dual"):
            assert only_right.entry(key)["verdict"] == "skipped(vacuous)"
        for key in ("pi2.fw", "pi2.wf"):
            assert none_right.entry(key)["verdict"] == "skipped(vacuous)"
            assert none_right.entry(key)["witness_point"] is None

    def test_tied_points_give_the_first_as_witness(self, setup):
        _, points, rep, ctx = setup
        tied = 0
        for case in REGISTRY:
            entry = rep.entry(case.key)
            if entry["verdict"] not in ("pass", "fail"):
                continue
            residuals = case.evaluator(ctx)
            holders = np.flatnonzero(residuals == residuals.max())
            tied += len(holders) > 1
            assert entry["witness_point"] == points[holders[0]].tolist(), case.key
        assert tied


class TestNablaF2:
    def test_constant_phi_zero_derivative(self, ex3):
        frame = ex3.decomposition.frame_at(np.zeros(10))
        y = frame.bases[1][:, 0]
        x_dir = frame.bases[1][:, 1]
        val = nabla_f2(ex3.decomposition, np.zeros(10), x_dir, y)
        assert np.linalg.norm(val) <= 1e-6

    def test_pointwise_phi_nonzero_derivative(self):
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        p = np.zeros(10)
        p[2] = 1.0  # on M with nonzero norm
        e3 = np.eye(10)[:, 2]
        val = nabla_f2(fx.decomposition, p, e3, np.eye(10)[:, 3])
        assert np.linalg.norm(val) > DEFAULT_TOLERANCES.zero_threshold

    def test_zero_direction_exact_zero(self, ex1):
        val = nabla_f2(ex1.decomposition, np.zeros(11), np.zeros(11),
                       np.eye(11)[:, 2])
        assert np.all(val == 0.0)

    def test_linearity_in_y(self, ex5_one):
        p = np.zeros(10)
        p[2] = 0.5
        x_dir = np.eye(10)[:, 2]
        y1 = np.eye(10)[:, 3]
        y2 = np.eye(10)[:, 6]
        v1 = nabla_f2(ex5_one.decomposition, p, x_dir, y1)
        v2 = nabla_f2(ex5_one.decomposition, p, x_dir, y2)
        v12 = nabla_f2(ex5_one.decomposition, p, x_dir, y1 + 2 * y2)
        assert np.linalg.norm(v12 - v1 - 2 * v2) <= 1e-6 * (1 + np.linalg.norm(v12))

    def test_matrix_y_matches_columns(self, ex5_one):
        p = np.zeros(10)
        p[2] = 0.5
        x_dir = np.eye(10)[:, 2]
        ys = np.eye(10)[:, [3, 6, 7]]
        batched = nabla_f2(ex5_one.decomposition, p, x_dir, ys)
        assert batched.shape == ys.shape
        for col in range(ys.shape[1]):
            one = nabla_f2(ex5_one.decomposition, p, x_dir, ys[:, col])
            np.testing.assert_allclose(batched[:, col], one, rtol=1e-12, atol=1e-12)

    def test_additivity_in_x_to_first_order(self, ex5_one):
        p = np.zeros(10)
        p[2] = 0.5
        p[3] = 0.5
        y = np.eye(10)[:, 3]
        xa = np.eye(10)[:, 2]
        xb = np.eye(10)[:, 3]
        va = nabla_f2(ex5_one.decomposition, p, xa, y)
        vb = nabla_f2(ex5_one.decomposition, p, xb, y)
        vab = nabla_f2(ex5_one.decomposition, p, xa + xb, y)
        scale = 1 + np.linalg.norm(va) + np.linalg.norm(vb)
        assert np.linalg.norm(vab - va - vb) <= 1e-6 * scale

    def test_direction_outside_mask_rejected(self, ex1):
        with pytest.raises(SpecError):
            nabla_f2(ex1.decomposition, np.zeros(11), np.eye(11)[:, 4],
                     np.eye(11)[:, 2])

    def test_non_euclidean_unsupported(self):
        from slantkit import expr as fe
        from slantkit.distribution import DistributionFrame
        from slantkit.structure import KIND_HERMITIAN, StructureField
        n = 2
        cols = [["0", "1"], ["-1", "0"]]
        metric = [["2", "0"], ["0", "1"]]
        s = StructureField(n, -1, KIND_HERMITIAN,
                           [[fe.parse(c, n) for c in col] for col in cols],
                           metric=[[fe.parse(c, n) for c in row] for row in metric])
        dec = Decomposition(s, [DistributionFrame("D", [
            fe.VectorFieldExpr.parse(["1", "0"], n),
            fe.VectorFieldExpr.parse(["0", "1"], n)])])
        with pytest.raises(UnsupportedError):
            nabla_f2(dec, np.zeros(n), np.eye(n)[:, 0], np.eye(n)[:, 1])


def test_derivative_calls_leave_frame_cache_unchanged():
    """nabla_f2 and eigenvalue_directional_derivative build their frames at
    x +- hX outside the frame cache: only the sample points stay resident."""
    fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
    dec = fx.decomposition
    points = fx.default_points()[:5]
    dec.frame_stack(points)
    resident = len(dec._frames)
    for p in points:
        basis = dec.frame_at(p).bases[1]
        nabla_f2(dec, p, basis[:, 0], basis[:, 1])
        eigenvalue_directional_derivative(dec, p, 1, basis[:, 0])
        assert len(dec._frames) == resident == len(points)


class TestEigenDerivative:
    def test_constant_fixture(self, ex1):
        for ci in (1, 2):
            d = eigenvalue_directional_derivative(
                ex1.decomposition, np.zeros(11), ci, np.eye(11)[:, 2])
            assert abs(d) <= 1e-6

    def test_matches_closed_form(self):
        # ex5 gamma=1, j=1 at t=1 along the point's own axis:
        # d(lambda)/ds = 0.32 (hand-derived from lambda = t^2 / (2t^2+2t+1))
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        p = np.zeros(10)
        p[2] = 1.0
        d = eigenvalue_directional_derivative(fx.decomposition, p, 1, np.eye(10)[:, 2])
        assert d == pytest.approx(0.32, abs=1e-6)


def _component_outer_rows(dec, points, tol=DEFAULT_TOLERANCES):
    """Reference for the probe maxima: components outer, one
    nabla_f2 call per (X, Y) column pair, displaced frames rebuilt per call."""
    rows = []
    for ci, comp in enumerate(dec.components):
        max_nabla = max_in = max_tm = 0.0
        for point in points:
            frame = dec.frame_at(point)
            basis = frame.bases[ci]
            for col in range(basis.shape[1]):
                for ycol in range(basis.shape[1]):
                    val = nabla_f2(dec, frame.x, basis[:, col], basis[:, ycol], tol)
                    max_nabla = max(max_nabla, float(np.linalg.norm(val)))
                max_in = max(max_in, abs(eigenvalue_directional_derivative(
                    dec, frame.x, ci, basis[:, col], tol)))
            for d in dec.tm_directions():
                max_tm = max(max_tm, abs(eigenvalue_directional_derivative(
                    dec, frame.x, ci, d, tol)))
        rows.append((comp.name, max_nabla, max_in, max_tm))
    return rows


def _component_slant_rows(dec, points, tol=DEFAULT_TOLERANCES):
    """Reference for the probe maxima with lambda_i(x +- hX) from
    `component_slant`: eigh and clustering at every displaced point."""
    h = tol.fd_step
    rows = []
    for ci, comp in enumerate(dec.components):
        max_nabla = max_in = max_tm = 0.0
        for point in points:
            x = dec.frame_at(point).x
            basis = dec.frame_at(point).bases[ci]

            def dlam(d):
                lam_p = component_slant(dec, x + h * d, ci).lam
                lam_m = component_slant(dec, x - h * d, ci).lam
                return abs((lam_p - lam_m) / (2.0 * h))

            for col in basis.T:
                val = nabla_f2(dec, x, col, basis, tol)
                max_nabla = max(max_nabla, float(np.max(np.linalg.norm(val, axis=0))))
                max_in = max(max_in, dlam(col))
            for d in dec.tm_directions():
                max_tm = max(max_tm, dlam(d))
        rows.append((comp.name, max_nabla, max_in, max_tm))
    return rows


def _turned(fx, angle=0.3):
    """fx's decomposition with the two coordinate fields of each component
    turned by a constant angle inside their plane: the same distributions,
    with orthonormal bases that are not coordinate-aligned."""
    n = fx.structure.n
    c, s = f"cos({angle})", f"sin({angle})"

    def turn(comp):
        a, b = (f.to_sources().index("1") for f in comp.fields)
        u, v = ["0"] * n, ["0"] * n
        u[a], u[b], v[a], v[b] = c, s, f"-{s}", c
        return DistributionFrame(comp.name, [VectorFieldExpr.parse(u, n),
                                             VectorFieldExpr.parse(v, n)], mask=fx.mask)

    dec = fx.decomposition
    return Decomposition(fx.structure, [turn(comp) for comp in dec.proper],
                         invariant=turn(dec.invariant), mask=fx.mask)


def _rolling_spec(at_rest: bool = False) -> dict:
    """Hermitian-kind spec, n = 6, phi the standard complex structure: D0 a
    complex line and D1 a slant plane with angle 0.7 + 0.2 x2, both turned
    by a rotation of angle 0.4 + 0.3 x1 + 0.2 x3 in the (z1, z3) plane
    (z1 = x1 + i x2, z3 = x5 + i x6), which commutes with phi. Their
    projectors move with the point.

    `at_rest` drops the 0.4, so the first sample point (x1 = x3 = 0) has
    D0's basis e5, e6 and D1's first column e1, coordinate directions there
    and not at the second point; and it adds 0.3 x1 to D1's angle, so the
    largest |X(lambda_1)| over the coordinate directions is along e1 at the
    second point, where D1's first column is turned by 0.48 off e1."""
    n = 6
    cols = [["0"] * n for _ in range(n)]
    for a in (1, 3, 5):
        cols[a - 1][a] = "1"
        cols[a][a - 1] = "-1"
    if at_rest:
        b, t = "(0.3*x1 + 0.2*x3)", "(0.7 + 0.2*x2 + 0.3*x1)"
        points = [[0.0, 2.0, 0.0, 0.1, 0.0, 0.2], [1.2, -0.4, 0.6, -0.3, 0.2, 0.0]]
    else:
        b, t = "(0.4 + 0.3*x1 + 0.2*x3)", "(0.7 + 0.2*x2)"
        points = [[0.3, -0.2, 0.5, 0.1, 0.0, 0.2], [-0.4, 0.6, 0.1, -0.3, 0.2, 0.0]]

    def turn(v):
        return [f"cos{b}*({v[0]}) - sin{b}*({v[4]})", f"cos{b}*({v[1]}) - sin{b}*({v[5]})",
                v[2], v[3], f"sin{b}*({v[0]}) + cos{b}*({v[4]})",
                f"sin{b}*({v[1]}) + cos{b}*({v[5]})"]

    return {"ambient_dim": n, "epsilon": -1, "kind": "hermitian-like", "metric": "euclidean",
            "phi_columns": cols, "submanifold_mask": [1, 2, 3, 4, 5, 6],
            "distributions": {"D0": [turn(_unit(5, n)), turn(_unit(6, n))],
                              "D1": [turn(_unit(1, n)),
                                     turn(["0", f"cos{t}", f"sin{t}", "0", "0", "0"])]},
            "decomposition": {"invariant": "D0", "proper": ["D1"]},
            "sample_points": points}


FD_ORACLE_PARAMS = {"ex1": dict(k=2, epsilon=-1), "ex3": dict(k=2, epsilon=1),
                    "ex4": dict(k=2, epsilon=-1, gamma=0.5), "ex5": dict(k=2, epsilon=1, gamma=2.0),
                    "ex8": dict(k=2, epsilon=1, gamma=0.0), "ex9": dict(k=2, epsilon=-1, gamma=1.5)}
FD_ORACLE_CASES = [f"{fid}{turn}" for fid in FD_ORACLE_PARAMS for turn in ("", "-turned")]
FD_ORACLE_CASES += ["rolling", "rolling-at-rest"]


def _fd_oracle_case(case: str):
    """(decomposition, points) of a case of the finite-difference sweep."""
    if case.startswith("rolling"):
        spec = load_manifold_spec(_rolling_spec(at_rest=case.endswith("at-rest")))
        return spec.decomposition, spec.points
    fid, _, turned = case.partition("-")
    fx = build_fixture(fid, **FD_ORACLE_PARAMS[fid])
    return (_turned(fx) if turned else fx.decomposition), fx.default_points()[:2]


def _unit(i: int, n: int = 10) -> list[str]:
    return ["1" if j == i else "0" for j in range(1, n + 1)]


def _blocks_spec(angle_a: str, angle_b: str, proper: dict, points: list) -> dict:
    """Hermitian-kind spec, n = 10: the invariant pair e1, e2 (D0) and the
    hermitian slant blocks on e3..e6 and e7..e10 with angles `angle_a` and
    `angle_b`; `proper` maps the proper components to their fields."""
    n = 10
    cols = [["0"] * n for _ in range(n)]

    def put(col, row, src):
        cols[col - 1][row - 1] = src

    put(1, 2, "1")
    put(2, 1, "-1")
    for a, angle in ((3, angle_a), (7, angle_b)):   # the hermitian block on a .. a+3
        c1, c2 = f"cos({angle})", f"sin({angle})"
        b, c, d = a + 1, a + 2, a + 3
        for col, row, src in ((a, b, c1), (a, d, c2), (b, a, f"-({c1})"), (b, c, f"-({c2})"),
                              (c, b, c2), (c, d, f"-({c1})"), (d, a, f"-({c2})"), (d, c, c1)):
            put(col, row, src)
    return {"ambient_dim": n, "epsilon": -1, "kind": "hermitian-like", "metric": "euclidean",
            "phi_columns": cols, "submanifold_mask": [1, 2, 3, 4, 7, 8],
            "distributions": {"D0": [_unit(1), _unit(2)], **proper},
            "decomposition": {"invariant": "D0", "proper": list(proper)},
            "sample_points": points}


def _split_spec() -> dict:
    """Hermitian-kind spec, n = 10, D1 = span(e3, e4, e7, e8) merging two
    slant blocks with angles 0.5 and 0.5 + x1: one eigenvalue cluster where
    x1 = 0, two elsewhere."""
    return _blocks_spec("0.5", "0.5 + x1", {"D1": [_unit(3), _unit(4), _unit(7), _unit(8)]},
                        [[0, 0.3, 0.2, -0.1, 0, 0, 0.4, 0.1, 0, 0],
                         [0, -0.5, 0.1, 0.3, 0, 0, -0.2, 0.6, 0, 0]])


def _pair_spec(angle_a: str, d2_first: list[str] | None = None) -> dict:
    """Hermitian-kind spec, n = 10, D1 = span(e3, e4) with slant angle
    `angle_a` and D2 = span(`d2_first` (default e7), e8) with angle 1.1; both
    sample points have x1 = 0 and x2 = 2."""
    return _blocks_spec(angle_a, "1.1", {"D1": [_unit(3), _unit(4)],
                                         "D2": [d2_first or _unit(7), _unit(8)]},
                        [[0, 2, 0.2, -0.1, 0, 0, 0.4, 0.1, 0, 0],
                         [0, 2, 0.1, 0.3, 0, 0, -0.2, 0.6, 0, 0]])


class TestConnectionReport:
    def test_constant_fixtures_consistent(self, ex1, ex3):
        for fx in (ex1, ex3):
            rep = connection_criterion_report(fx.decomposition,
                                              fx.default_points()[:4])
            assert rep["consistent"]
            for row in rep["components"]:
                assert row["max_nabla_f2"] <= 1e-4
                assert row["max_dlambda_tm"] <= 1e-4
                assert row["derivative_constant"]

    def test_pointwise_fixture_flags_variation(self, ex5_one):
        rep = connection_criterion_report(ex5_one.decomposition,
                                          ex5_one.default_points()[:5])
        assert rep["consistent"]
        d1 = next(r for r in rep["components"] if r["component"] == "D1")
        assert d1["max_dlambda_tm"] >= 1e-2
        assert not d1["derivative_constant"]
        assert not d1["classifier_constant"]

    def test_displaced_frames_dropped_and_report_unchanged(self):
        """Only the sample points' frames stay resident, and the exact
        derivatives agree with the central-difference oracle within 1e-8,
        which bounds the oracle's own O(h^2) + O(eps/h) error at h = 1e-5."""
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5)
        points = fx.default_points()[:3]
        dec = fx.decomposition
        rep = connection_criterion_report(dec, points)
        assert len(dec._frames) == len(points)
        assert rep["consistent"]
        oracle = _component_outer_rows(build_fixture("ex8", k=2, epsilon=-1, gamma=0.5)
                                       .decomposition, points)
        got = [(r["component"], r["max_nabla_f2"], r["max_dlambda_within"],
                r["max_dlambda_tm"]) for r in rep["components"]]
        assert [g[0] for g in got] == [o[0] for o in oracle]
        assert np.allclose([g[1:] for g in got], [o[1:] for o in oracle], rtol=0, atol=1e-8)

    @pytest.mark.parametrize("case", ["ex5", "ex5-rotated", "ex3-rotated", "ex8-rotated"])
    def test_probe_matches_component_slant_oracle(self, case):
        """lambda_i at x +- hX from eigh and clustering (`component_slant`)
        gives the same maxima as the trace means, within 1e-9."""
        params = {"ex5": dict(k=2, epsilon=1, gamma=2.0), "ex3": dict(k=2, epsilon=-1),
                  "ex8": dict(k=2, epsilon=-1, gamma=0.5)}
        fid, _, rotated = case.partition("-")
        decs = []
        for _ in range(2):   # separate frame caches for the report and the oracle
            fx = build_fixture(fid, **params[fid])
            decs.append(_turned(fx) if rotated else fx.decomposition)
        points = fx.default_points()[:3]
        if rotated:
            basis = decs[0].frame_at(points[0]).bases[1]
            assert np.count_nonzero(np.abs(basis) > 1e-3) == 4   # not coordinate-aligned
        rep = connection_criterion_report(decs[0], points)
        got = [(r["component"], r["max_nabla_f2"], r["max_dlambda_within"],
                r["max_dlambda_tm"]) for r in rep["components"]]
        want = _component_slant_rows(decs[1], points)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.allclose([g[1:] for g in got], [w[1:] for w in want], rtol=0, atol=1e-9)

    def test_cluster_split_at_displaced_point_raises(self, capsys, tmp_path):
        """D1 is one cluster at both sample points (x1 = 0) and splits by
        about 8e-6 at x +- h e1; the probe raises ComponentError there."""
        path = tmp_path / "split.json"
        path.write_text(json.dumps(_split_spec()))
        spec = load_manifold_spec(path)
        dec = spec.decomposition
        for point in spec.points:   # one cluster at the sample points
            assert component_slant(dec, point, 1).multiplicity == 4
        with pytest.raises(ComponentError, match=r"'D1' carries 2 eigenvalue clusters"):
            connection_criterion_report(dec, spec.points)
        assert main(["identities", str(path)]) == 0
        assert main(["identities", str(path), "--connection"]) == 1
        assert capsys.readouterr().err.startswith("failure: component 'D1' carries 2")

    @pytest.mark.parametrize("case", FD_ORACLE_CASES)
    def test_probe_matches_finite_difference_oracle(self, case):
        """Every gallery fixture, with coordinate and turned bases, and a
        decomposition whose components turn with the point: the exact maxima
        lie within 1e-8 of the central-difference oracle's, and the
        derivative verdicts are the oracle's."""
        decs, points = [], None
        for _ in range(2):   # separate frame caches for the report and the oracle
            dec, points = _fd_oracle_case(case)
            decs.append(dec)
        rep = connection_criterion_report(decs[0], points)
        want = _component_outer_rows(decs[1], points)
        got = rep["components"]
        assert [r["component"] for r in got] == [w[0] for w in want]
        assert np.allclose([[r["max_nabla_f2"], r["max_dlambda_within"], r["max_dlambda_tm"]]
                            for r in got], [w[1:] for w in want], rtol=0, atol=1e-8)
        assert ([r["derivative_constant"] for r in got]
                == [w[3] <= DEFAULT_TOLERANCES.zero_threshold for w in want])
        if case == "rolling":   # the components' projectors move with the point
            assert min(r["max_nabla_f2"] for r in got) > 0.1
        if case == "rolling-at-rest":   # basis columns on the coordinate axes at point 0 only
            units = [sum(np.count_nonzero(col) == 1 and np.max(np.abs(col)) == 1.0
                         for basis in decs[0].frame_at(p).bases for col in basis.T)
                     for p in points]
            assert units == [3, 0]

    def test_connection_builds_frames_at_sample_points_only(self, tmp_path, monkeypatch):
        built = []
        build = PointFrame.__init__

        def counting(frame, *args):
            build(frame, *args)
            built.append(tuple(frame.x.tolist()))

        monkeypatch.setattr(PointFrame, "__init__", counting)
        fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5)
        points = fx.default_points()[:3]
        path = tmp_path / "ex8.json"
        path.write_text(json.dumps(fixture_to_spec_dict(fx, points=points)))
        assert main(["identities", str(path), "--connection"]) == 0
        assert sorted(built) == sorted(tuple(p.tolist()) for p in points)

    def test_exact_probe_does_not_depend_on_the_step(self, tmp_path, capsys):
        """A step too small to move the point changes no derivative: on ex8
        the largest X(lambda_2) is 0.32 with fd_step 1e-300 as with 1e-5."""
        path = tmp_path / "ex8.json"
        assert main(["gallery", "emit", "ex8", "--k", "2", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        rows = []
        for step in (1e-300, 1e-12, 1e-5):
            path.write_text(json.dumps(dict(doc, tolerances={"fd_step": step})))
            out = tmp_path / "report.json"
            assert main(["identities", str(path), "--connection", "--json", str(out)]) == 0
            rows.append([(r["component"], r["max_nabla_f2"], r["max_dlambda_tm"])
                         for r in json.loads(out.read_text())["connection"]["components"]])
        assert rows[0] == rows[1] == rows[2]
        assert rows[0][2][2] == pytest.approx(0.32, abs=1e-12)

    def test_oracle_rejects_a_step_that_does_not_move_the_point(self):
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.0)
        p = np.zeros(10)
        p[2] = 1.0
        tiny = DEFAULT_TOLERANCES.override({"fd_step": 1e-300})
        with pytest.raises(SpecError, match="fd_step 1e-300"):
            eigenvalue_directional_derivative(fx.decomposition, p, 1, np.eye(10)[:, 2], tiny)
        with pytest.raises(SpecError, match="fd_step 1e-300"):
            nabla_f2(fx.decomposition, p, np.eye(10)[:, 2], np.eye(10)[:, 3], tiny)

    @pytest.mark.parametrize("angle", ["0.5 + 0.2*abs(x2 - 2)", "0.5 + 0.1*x1^x2"])
    def test_faulting_tangents_take_the_fill_fallback(self, angle, tmp_path, monkeypatch,
                                                      capsys):
        """abs at 0 (along x2, the direction that moves its operand) and a
        point-dependent exponent at base 0 have no tangent there; their
        derivatives are central differences of the fill, and
        every maximum reads 0 with every verdict consistent, as it did when
        the probe differenced displaced frames. A step that leaves x2 = 2
        unchanged is a SpecError naming fd_step."""
        calls = []
        difference = tangents._central_difference

        def counting(fill, x, j, h):
            calls.append(j)
            return difference(fill, x, j, h)

        monkeypatch.setattr(tangents, "_central_difference", counting)
        doc = _pair_spec(angle)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["identities", str(path), "--connection", "--json", str(out)]) == 0
        assert calls
        conn = json.loads(out.read_text())["connection"]
        assert conn["consistent"]
        for row in conn["components"]:
            assert row["max_nabla_f2"] == row["max_dlambda_within"] == row["max_dlambda_tm"] == 0.0
            assert row["derivative_constant"] and row["classifier_constant"]
        path.write_text(json.dumps(dict(doc, tolerances={"fd_step": 1e-300})))
        capsys.readouterr()
        assert main(["identities", str(path), "--connection"]) == 2
        assert "fd_step 1e-300 leaves x2 = 2.0 unchanged" in capsys.readouterr().err

    def test_fallback_evaluates_the_displaced_point(self, tmp_path, capsys):
        """sqrt(x1) has no tangent at x1 = 0, and its fallback evaluates
        sqrt(-h): the command fails as before, with EvalError (exit 2)."""
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps(_pair_spec("0.5 + 0.1*sqrt(x1)")))
        assert main(["identities", str(path)]) == 0
        capsys.readouterr()
        assert main(["identities", str(path), "--connection"]) == 2
        assert "sqrt of negative value -1e-05" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["pair", "xi"])
    def test_orthogonality_lost_at_displaced_point_raises(self, case, tmp_path):
        """Orthogonal where x1 = 0 (every sample point) and not at x +- h e1,
        to first order: D2's first field e7 + x1 e3 against D1 = span(e3, e4),
        or, on ex1, xi = e11 + x1 e3 against the same D1."""
        if case == "pair":
            tilted = _unit(7)
            tilted[2] = "x1"
            doc, message = _pair_spec("0.5", d2_first=tilted), "'D1' and 'D2' are not orthogonal"
        else:
            fx = build_fixture("ex1", k=2, epsilon=-1)
            points = fx.default_points()[:2]
            for p in points:
                p[0] = 0.0
            doc = fixture_to_spec_dict(fx, points=points)
            doc["xi"][2] = "x1"
            message = "'D1' is not orthogonal to xi"
        path = tmp_path / "tilt.json"
        path.write_text(json.dumps(doc))
        spec = load_manifold_spec(path)
        for point in spec.points:
            spec.decomposition.frame_at(point)
        with pytest.raises(InvariantError, match=f"{message} to first order"):
            connection_criterion_report(spec.decomposition, spec.points)
        assert main(["identities", str(path)]) == 0
        assert main(["identities", str(path), "--connection"]) == 1

    def test_rank_lost_at_displaced_point_raises(self, tmp_path):
        """D2's second field (1 - x1/h) e8 is e8 at every sample point and
        vanishes at x + h e1 (h = fd_step) to first order. D2 has the rank of
        D1 and its first-order models are checked in one stacked call; the
        error names D2."""
        doc = _pair_spec("0.5")
        assert DEFAULT_TOLERANCES.fd_step == 1e-5
        doc["distributions"]["D2"][1][7] = "1 - 100000*x1"
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(doc))
        spec = load_manifold_spec(path)
        with pytest.raises(RankError, match=r"^component 'D2' to first order near \[0\.0, 2\.0, "
                                            r".*\]: column 1 is dependent on the previous ones$"):
            connection_criterion_report(spec.decomposition, spec.points)
        assert main(["identities", str(path)]) == 0

    @pytest.mark.parametrize("fault", ["rank", "orthogonality", "split"])
    def test_probe_fault_at_a_later_point_is_named(self, fault, tmp_path, capsys):
        """x1 = 0 at four sample points, and x2 = 2 at the third, 0 at the
        others. The fields move with x1 * x2, so a first-order model at
        x +- h e1 fails at the third point only, and the error names it:
        D2's second field (1 - 50000 x1 x2) e8 vanishes at x + h e1, D2's
        first field e7 + x1 x2 e3 tilts into D1, or D1's two blocks (angles
        0.5 and 0.5 + x1 x2) split into two clusters."""
        points = [[0.0, 2.0 if p == 2 else 0.0, 0.1 * p + 0.2, -0.1, 0.0, 0.0, 0.4, 0.1 * p,
                   0.0, 0.0] for p in range(4)]
        if fault == "split":
            doc = _blocks_spec("0.5", "0.5 + x1*x2",
                               {"D1": [_unit(3), _unit(4), _unit(7), _unit(8)]}, points)
            error, message = ComponentError, "component 'D1' carries 2 eigenvalue clusters"
        else:
            doc = dict(_pair_spec("0.5"), sample_points=points)
            if fault == "rank":
                doc["distributions"]["D2"][1][7] = "1 - 50000*x1*x2"
                error, message = RankError, "component 'D2'"
            else:
                doc["distributions"]["D2"][0][2] = "x1*x2"
                error, message = InvariantError, "components 'D1' and 'D2' are not orthogonal"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_manifold_spec(path)
        with pytest.raises(error, match=re.escape(message)) as err:
            connection_criterion_report(spec.decomposition, spec.points)
        assert f"to first order near {points[2]}" in str(err.value)
        assert main(["identities", str(path)]) == 0
        capsys.readouterr()
        assert main(["identities", str(path), "--connection"]) == 1
        assert f"to first order near {points[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["phi", "fields"])
    def test_derivative_error_names_the_first_failing_point(self, where, tmp_path, capsys):
        """ex3 with two entries that stay 0 or 1 but fail to differentiate:
        sqrt(x3 - 0.25) has no tangent at the third point (x3 = 0.25), and
        its fallback evaluates sqrt(-h); 1/x1 has a derivative of -1e400 at
        the second (x1 = 1e-200), so 0*(1/x1) has a NaN one. Whether both sit
        in phi or in two fields of D1, the probe fails at the second point,
        as it did when it took the points one at a time."""
        doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
        points = doc["sample_points"][:3]
        for point, (x1, x3) in zip(points, [(0.7, 0.5), (1e-200, 0.5), (0.7, 0.25)]):
            point[0], point[2] = x1, x3
        if where == "phi":
            doc["phi_columns"][0][0], doc["phi_columns"][1][1] = "0*sqrt(x3 - 0.25)", "0*(1/x1)"
        else:
            doc["distributions"]["D1"][0][2] = "1 + 0*sqrt(x3 - 0.25)"
            doc["distributions"]["D1"][1][3] = "1 + 0*(1/x1)"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(doc, sample_points=points)))
        assert main(["identities", str(path)]) == 0
        capsys.readouterr()
        assert main(["identities", str(path), "--connection"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value nan of derivative of ")
        assert f"at {points[1]} in " in err

    def test_requires_mask(self, ex1):
        dec = Decomposition(ex1.structure, list(ex1.decomposition.proper),
                            invariant=ex1.decomposition.invariant, mask=None)
        # strip masks off the frames too
        for comp in dec.components:
            comp.mask = None
        dec.mask = None
        with pytest.raises(UnsupportedError):
            connection_criterion_report(dec, [np.zeros(11)] * 2)

    def test_basis_leaving_mask_rejected(self, ex1):
        """A decomposition given a mask over components that carry none may
        hold a basis column outside the mask: here D0 = span(e3, e6), which
        phi keeps invariant, with x6 outside ex1's mask. The probe rejects
        that direction instead of differentiating its masked part only."""
        unit = [VectorFieldExpr.parse(_unit(i, 11), 11) for i in (3, 6)]
        dec = Decomposition(ex1.structure,
                            [DistributionFrame("D1", list(ex1.decomposition.proper[1].fields))],
                            invariant=DistributionFrame("D0", unit), mask=ex1.mask)
        assert 6 not in dec.mask
        with pytest.raises(SpecError, match="leaves the submanifold mask"):
            connection_criterion_report(dec, [np.zeros(11), np.full(11, 0.1)])


# The 16 identities proved once on the proper components D_i and once on
# their duals w(D_i); each pair shares one evaluator.
TWIN_PAIRS = [
    ("norm.f-invariant", "h.norm"),
    ("norm.wx-sin", "norm.fu-sin"),
    ("norm.wx-sumsq", "norm.fu-sumsq"),
    ("angle.f-invariant", "angle.w-h"),
    ("angle.f-slant", "angle.w-dual"),
    ("dual.wx-metric-sin2", "dual.fu-metric-sin2"),
    ("angle.wx-conformal", "angle.fu-conformal"),
    ("sum.w-metric", "sum.f-metric"),
    ("sum.w-angle", "sum.f-angle"),
    ("invsin.x-metric", "invsin.u-metric"),
    ("invsin.x-angle", "invsin.u-angle"),
    ("sin4.fw-metric", "sin4.wf-metric"),
    ("sin4.fw-angle", "sin4.wf-angle"),
    ("sin4sum.fw-metric", "sin4sum.wf-metric"),
    ("sin4sum.fw-angle", "sin4sum.wf-angle"),
    ("pi2.fw", "pi2.wf"),
]

# Pairs quantified over the invariant part: D_0 on the D side, H on the dual.
INVARIANT_PAIRS = {("norm.f-invariant", "h.norm"), ("angle.f-invariant", "angle.w-h")}


def _sub_decomposition(fx, proper, with_d0):
    """Keep the listed proper components (0-based) of a gallery fixture; the
    dropped ones and their images make up a nonzero H."""
    dec = fx.decomposition
    return Decomposition(fx.structure, [dec.proper[i] for i in proper],
                         invariant=dec.invariant if with_d0 else None, mask=fx.mask)


def _twin_cases(ex1):
    """name -> (decomposition, points, has D_0, has H, right-angle slant
    values, slant values below pi/2) on the sampled points."""
    from test_duality import sub_decomposition_with_h
    ex3 = build_fixture("ex3", k=2, epsilon=1)
    ex9 = build_fixture("ex9", k=3, epsilon=1, gamma=2.0)
    return {
        "ex1": (ex1.decomposition, ex1, True, False, True, True),
        "ex9-k3": (ex9.decomposition, ex9, True, False, False, True),
        "ex1-D0D1-with-H": (sub_decomposition_with_h(ex1), ex1, True, True, True, False),
        "ex3-D2-with-H": (_sub_decomposition(ex3, [1], False), ex3, False, True, False, True),
        "ex3-D0D2-with-H": (_sub_decomposition(ex3, [1], True), ex3, True, True, False, True),
    }


@pytest.fixture(scope="module")
def twin_verdicts(ex1):
    keys = {key for pair in TWIN_PAIRS for key in pair}
    out = {}
    for name, (dec, fx, *flags) in _twin_cases(ex1).items():
        rep = run_identity_suite(dec, fx.default_points()[:4], keys=keys)
        out[name] = ({e["key"]: e["verdict"] for e in rep.entries}, *flags)
    return out


@pytest.mark.parametrize("d_key, w_key", TWIN_PAIRS, ids=[d for d, _ in TWIN_PAIRS])
def test_twin_pair_verdicts(twin_verdicts, d_key, w_key):
    def expect(quantified):
        return "pass" if quantified else "skipped(vacuous)"

    for name, (verdicts, d0, h, right, below_right) in twin_verdicts.items():
        got = (verdicts[d_key], verdicts[w_key])
        if (d_key, w_key) in INVARIANT_PAIRS:
            assert got == (expect(d0), expect(h)), name
        elif d_key == "pi2.fw":
            assert got == (expect(right),) * 2, name
        elif d_key == "angle.f-slant":
            assert got == (expect(below_right),) * 2, name
        else:
            assert got == ("pass", "pass"), name


def test_probe_reads_only_the_checked_pairs(monkeypatch):
    """The probe's first-order cluster check reads a component's models only
    along the directions it checks for that component: its own basis columns
    and the masked coordinate directions. D1's fields of ex3 rotated within
    D1 give basis columns that are no coordinate direction; a split model of
    D0 along one of them leaves the report as it was, while one along a
    checked direction raises."""
    fx = build_fixture("ex3", k=2, epsilon=-1)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:4])
    f1, f2 = doc["distributions"]["D1"]
    doc["distributions"]["D1"] = [["0" if a == b == "0" else f"({a}) {op} ({b})"
                                   for a, b in zip(f1, f2)] for op in "+-"]
    spec = load_manifold_spec(doc)
    dec, frame_derivatives = spec.decomposition, tangents.frame_derivatives
    _, within, along_tm = verifier._stacked_directions(dec.frame_stack(spec.points))
    checked = within | along_tm
    assert not checked[:, 0].all()          # D0 skips D1's rotated columns
    off = dec.frame_stack(spec.points).offsets
    base = connection_criterion_report(dec, spec.points)

    def split_at(row):
        """frame_derivatives with D0's block split along direction `row`,
        its diagonal (so each trace) unchanged."""
        def split(*args):
            d_f2, norms = frame_derivatives(*args)
            d_f2 = d_f2.copy()
            d_f2[:, row, off[0], off[0] + 1] += 1e-2
            d_f2[:, row, off[0] + 1, off[0]] += 1e-2
            return d_f2, norms
        return split
    monkeypatch.setattr(verifier, "frame_derivatives", split_at(np.flatnonzero(~checked[:, 0])[0]))
    assert connection_criterion_report(dec, spec.points) == base
    monkeypatch.setattr(verifier, "frame_derivatives", split_at(np.flatnonzero(checked[:, 0])[0]))
    with pytest.raises(ComponentError, match=r"^component 'D0' carries 2 eigenvalue clusters .* "
                                             r"to first order near"):
        connection_criterion_report(dec, spec.points)
