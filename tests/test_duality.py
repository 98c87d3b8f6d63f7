import math
import re

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.classifier import component_slant
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.distribution import Decomposition, DistributionFrame, FrameStack
from slantkit.duality import (
    _roundtrip_columns,
    build_dual,
    dual_report,
    dual_roundtrip_check,
    expected_span_check,
)
from slantkit.errors import ComponentError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.linalg import principal_angle_values
from slantkit.sampling import rng_for
from slantkit.specfile import load_manifold_spec
from slantkit.verifier import DUAL_KEYS, run_identity_suite

from frame_maps import FrameMaps


def _replace_f2(stack, edit):
    """Give a stack the f^2 Gram `edit(stack.f2)`, from which its sources'
    lambdas are read."""
    stack.__dict__["f2"] = edit(stack.f2)


def sub_decomposition_with_h(ex1):
    """ex1 restricted to D0 + D1 only: the complement then carries a nonzero
    invariant remainder H spanned by the old D2 block and its image."""
    n = 11
    def unit(name, idxs):
        fields = [fe.VectorFieldExpr.parse(
            ["1" if j == i else "0" for j in range(1, n + 1)], n) for i in idxs]
        return DistributionFrame(name, fields, mask=ex1.mask)
    return Decomposition(ex1.structure, [unit("D1", [3, 4])],
                         invariant=unit("D0", [1, 2]), mask=ex1.mask)


class TestBuildDual:
    def test_ex1_dual_spans(self, ex1):
        for pt in ex1.default_points()[:4]:
            res = expected_span_check(ex1.decomposition, pt, ex1.expected_duals)
            assert res["passed"], res

    def test_ex3_dual_spans(self, ex3):
        for pt in ex3.default_points()[:4]:
            res = expected_span_check(ex3.decomposition, pt, ex3.expected_duals)
            assert res["passed"], res

    def test_dims_match(self, ex4_zero):
        for pt in ex4_zero.default_points()[:4]:
            dd = build_dual(ex4_zero.decomposition, pt)
            frame = ex4_zero.decomposition.frame_at(pt)
            for slot, i in enumerate(frame.proper_indices):
                assert dd.duals[slot].shape[1] == frame.bases[i].shape[1]

    def test_duals_pairwise_orthogonal(self, ex5_one):
        for pt in ex5_one.default_points()[:4]:
            dd = build_dual(ex5_one.decomposition, pt)
            for a in range(len(dd.duals)):
                for b in range(a + 1, len(dd.duals)):
                    cross = dd.duals[a].T @ dd.duals[b]
                    assert np.max(np.abs(cross)) < 1e-9

    def test_empty_h_on_gallery(self, ex1):
        dd = build_dual(ex1.decomposition, np.zeros(11))
        assert dd.h_dim == 0

    def test_fully_invariant_means_h_is_g(self, ex1):
        n = 11
        inv = DistributionFrame("D0", [fe.VectorFieldExpr.parse(
            ["1" if j == i else "0" for j in range(1, n + 1)], n) for i in (1, 2)],
            mask=ex1.mask)
        dec = Decomposition(ex1.structure, [], invariant=inv, mask=ex1.mask)
        dd = build_dual(dec, np.zeros(n))
        assert dd.duals == []
        assert dd.h_dim == dd.basis_g.shape[1] == 8

    def test_nonzero_h_with_f_vanishing(self, ex1):
        dec = sub_decomposition_with_h(ex1)
        for pt in ex1.default_points()[:4]:
            dd = build_dual(dec, pt)
            assert dd.h_dim == 4
            assert dd.f_on_h_residual <= 1e-9
            frame = FrameMaps(dec, pt)
            fh = frame.proj_d @ (frame.phi @ dd.h_basis)
            assert np.max(np.abs(fh)) < 1e-9


class TestRoundtrip:
    def test_ex1_all_components(self, ex1):
        for pt in ex1.default_points()[:5]:
            rep = dual_roundtrip_check(ex1.decomposition, pt)
            assert rep.passed
            for e in rep.entries:
                assert e["roundtrip_max_angle"] < 1e-8
                assert abs(e["theta_source"] - e["theta_dual"]) < 1e-8
                assert e["dim"] == e["dim_source"]

    def test_ex9_pointwise_roundtrip(self):
        fx = build_fixture("ex9", k=2, epsilon=1, gamma=1.0)
        for pt in fx.default_points()[:5]:
            rep = dual_roundtrip_check(fx.decomposition, pt)
            assert rep.passed

    def test_right_angle_component_roundtrip(self, ex1):
        # theta = pi/2: f o w acts as -identity (eps = -1), span comes back
        pt = np.zeros(11)
        frame = FrameMaps(ex1.decomposition, pt)
        dd = build_dual(ex1.decomposition, pt)
        slot = 0  # D1 (j = 1) is the pi/2 component
        i = frame.proper_indices[slot]
        assert component_slant(ex1.decomposition, pt, i).theta == pytest.approx(math.pi / 2)
        b = frame.bases[i]
        fw = frame.proj_d @ (frame.phi @ dd.duals[slot])
        # fwX = eps X on the right-angle block
        for col in range(b.shape[1]):
            x = b[:, col]
            val = frame.proj_d @ (frame.phi @ (frame.phi @ x - frame.proj_d @ (frame.phi @ x)))
            assert np.allclose(val, -x, atol=1e-12)
        angles = principal_angle_values(frame.g, frame.bases[i],
                                        np.linalg.qr(fw)[0])
        assert angles[-1] < 1e-8

    def test_dual_slant_matches_source(self, ex5_one):
        for pt in ex5_one.default_points()[:4]:
            frame = ex5_one.decomposition.frame_at(pt)
            dd = build_dual(ex5_one.decomposition, pt)
            columns = _roundtrip_columns(ex5_one.decomposition.frame_stack([pt]),
                                         DEFAULT_TOLERANCES)
            for i, (*_, theta_dual, _) in zip(frame.proper_indices, columns):
                src = component_slant(ex5_one.decomposition, pt, i).theta
                assert abs(src - float(theta_dual[0])) < 1e-8

    def test_dual_slant_two_clusters_names_the_dual(self, ex1):
        # D1 + D2 declared as one proper component: its dual carries the
        # clusters of both
        dec = ex1.decomposition
        d1, d2 = dec.proper
        merged = Decomposition(
            dec.structure, [DistributionFrame("D12", d1.fields + d2.fields, mask=ex1.mask)],
            invariant=dec.invariant, mask=ex1.mask)
        # the source D12 carries the same two clusters and is read first; a
        # one-cluster f^2 Gram in its place lets the round trip reach the dual
        stack = FrameStack(merged, [np.zeros(11)])
        _replace_f2(stack, lambda f2: np.broadcast_to(-0.36 * np.eye(f2.shape[-1]), f2.shape))
        with pytest.raises(ComponentError,
                           match=re.escape("component 'w(D12)' carries 2 eigenvalue clusters")):
            _roundtrip_columns(stack, DEFAULT_TOLERANCES)

    def test_every_source_is_read_before_any_dual(self, ex1):
        """The round trip reads the sources' lambdas in one call, then the
        duals': with the dual of D1 split in two and the later source D2
        split too, the error names D2."""
        dec = ex1.decomposition
        stack = FrameStack(dec, [np.zeros(11)])
        (w1, w2), h_basis, f_on_h = stack._dual
        mixed = np.concatenate([w1[..., :1], w2[..., :1]], axis=-1)     # w(D1) and w(D2) columns
        stack.__dict__["_dual"] = [mixed, w2], h_basis, f_on_h
        with pytest.raises(ComponentError, match=re.escape("component 'w(D1)' carries 2 eig")):
            _roundtrip_columns(stack, DEFAULT_TOLERANCES)
        lo = stack.offsets[2]

        def split_d2(f2):
            f2 = f2.copy()
            f2[:, lo, lo] += 0.1
            return f2
        _replace_f2(stack, split_d2)
        with pytest.raises(ComponentError, match=re.escape("component 'D2' carries 2 eig")):
            _roundtrip_columns(stack, DEFAULT_TOLERANCES)


class TestDualIdentitySuite:
    def test_gallery_all_pass(self, ex1):
        rep = run_identity_suite(ex1.decomposition, ex1.default_points()[:3],
                                 trials=30, keys=DUAL_KEYS)
        assert rep.passed
        keys = {e["key"] for e in rep.entries}
        assert keys == set(DUAL_KEYS)

    def test_h_identities_exercised(self, ex1):
        dec = sub_decomposition_with_h(ex1)
        rep = run_identity_suite(dec, ex1.default_points()[:3], trials=30, keys=DUAL_KEYS)
        assert rep.passed
        for key in ("h.w2", "h.metric", "h.norm", "angle.w-h"):
            entry = rep.entry(key)
            assert entry["verdict"] == "pass", entry

    def test_sum_metric_relation(self, ex5_one):
        # g(wX, wY) = sum sin^2(theta_i) g(X_i, Y_i) on random draws
        dec = ex5_one.decomposition
        rng = rng_for(5, 5)
        for pt in ex5_one.default_points()[:4]:
            fr = FrameMaps(dec, pt)
            sin2 = {}
            for i in fr.proper_indices:
                cl = component_slant(dec, pt, i)
                sin2[i] = math.sin(cl.theta) ** 2
            for _ in range(5):
                parts_x = {i: fr.bases[i] @ rng.standard_normal(2)
                           for i in fr.proper_indices}
                parts_y = {i: fr.bases[i] @ rng.standard_normal(2)
                           for i in fr.proper_indices}
                x = sum(parts_x.values())
                y = sum(parts_y.values())
                lhs = fr.inner(fr.w(x), fr.w(y))
                rhs = sum(sin2[i] * fr.inner(parts_x[i], parts_y[i])
                          for i in fr.proper_indices)
                scale = np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= 1e-9 * max(scale, 1.0)


def test_dual_report_aggregation(ex3):
    rep = dual_report(ex3.decomposition, ex3.default_points()[:4])
    assert rep["passed"]
    assert rep["points_checked"] == 4
    assert {r["component"] for r in rep["components"]} == {"D1", "D2"}


def _turned_ex9(points):
    """ex9 (k = 3, gamma = 1.5) with each component's two coordinate fields
    turned by 0.3 inside their plane: the same distributions, whose round-trip
    angles and theta gaps are round-off that varies over the points (the
    coordinate-aligned fields give exact zeros)."""
    doc = fixture_to_spec_dict(build_fixture("ex9", k=3, epsilon=-1, gamma=1.5), points=points)
    n = doc["ambient_dim"]
    for name, fields in doc["distributions"].items():
        a, b = (field.index("1") for field in fields)
        u, v = ["0"] * n, ["0"] * n
        u[a], u[b], v[a], v[b] = "cos(0.3)", "sin(0.3)", "-sin(0.3)", "cos(0.3)"
        doc["distributions"][name] = [u, v]
    return load_manifold_spec(doc).decomposition


def test_dual_report_rows_reduce_the_per_point_checks():
    """Each row of the stacked report is, bit for bit, the max or all over
    the points of `dual_roundtrip_check`, the one-point view of the same
    columns. theta varies over the points, and a principal tolerance at the
    median round-trip angle makes some (point, component) pairs fail."""
    fx = build_fixture("ex9", k=3, epsilon=-1, gamma=1.5)
    points = fx.default_points()[:2] + fx.default_points()[-4:]    # origin, e_1, box points
    dec = _turned_ex9(points)
    angles = [e["roundtrip_max_angle"] for p in points
              for e in dual_roundtrip_check(dec, p).entries]
    tol = DEFAULT_TOLERANCES.override({"principal": float(np.median(angles))})
    rep = dual_report(dec, points, tol)
    checks = [dual_roundtrip_check(dec, p, tol) for p in points]
    assert len({c.entries[0]["theta_source"] for c in checks}) == len(points)
    assert 0 < sum(e["passed"] for c in checks for e in c.entries) < len(angles)
    assert rep["passed"] == all(c.passed for c in checks)
    assert rep["points_checked"] == len(points)
    assert rep["h_dim"] == build_dual(dec, points[0]).h_dim
    assert [row["component"] for row in rep["components"]] == ["D1", "D2", "D3"]
    for slot, row in enumerate(rep["components"]):
        entries = [c.entries[slot] for c in checks]
        assert all(e["component"] == row["component"] for e in entries)
        assert row["dim"] == entries[0]["dim"]
        assert row["max_angle"] == max(e["roundtrip_max_angle"] for e in entries)
        assert row["max_theta_gap"] == max(abs(e["theta_source"] - e["theta_dual"])
                                           for e in entries)
        assert row["passed"] == all(e["passed"] for e in entries)


def test_dual_json_roundtrip(ex1):
    dd = build_dual(ex1.decomposition, np.zeros(11))
    doc = dd.to_json_dict()
    assert len(doc["dual_bases"]) == 2
    assert np.asarray(doc["dual_bases"][0]).shape == (11, 2)
