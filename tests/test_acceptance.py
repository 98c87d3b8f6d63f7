"""Acceptance criteria, one test group per criterion (c1..c8).

The conftest prints one PASS/FAIL line per criterion at the end of the run.
Every tolerance is pinned here, none deferred. Criterion 3's ex8 clause
"iff gamma > 0" is read through ex8's own closed forms (the very ones
criterion 2 pins): they give cos(theta_j(0)) = (j-1)/sqrt(1+(j-1)^2) at the
origin, pairwise distinct for distinct j, so ex8 is pointwise-k-slant for
every gamma >= 0. What it loses at gamma = 0 is genericity (one eigenvalue
function touches 0 at the origin only), and that is what the clause asserts.
"""

import json
import math
import time

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.classifier import classify, component_slant
from slantkit.cli import main as cli_main
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.duality import dual_roundtrip_check, expected_span_check
from slantkit.errors import ParseError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.linalg import mgs_columns, principal_angle_values, projector_matrix
from slantkit.sampling import box_points
from slantkit.specfile import load_manifold_spec
from slantkit.taxonomy import VERDICT_LATTICE
from slantkit.verifier import (
    REGISTRY,
    connection_criterion_report,
    run_identity_suite,
)

SEED = 20240811


def sample20(fx):
    """The origin plus 19 seeded box points, restricted to the submanifold."""
    return [np.zeros(fx.structure.n)] + box_points(fx.structure.n, fx.mask, 19, seed=SEED)


# --------------------------------------------------------------------------
# criterion 1: constant-angle reproduction, |delta| <= 1e-10, < 5 s/fixture
# --------------------------------------------------------------------------

@pytest.mark.parametrize("epsilon", [-1, 1])
def test_c1_ex1_constant_angles(epsilon):
    for k in range(2, 9):
        fx = build_fixture("ex1", k=k, epsilon=epsilon)
        start = time.monotonic()
        pts = sample20(fx)
        for p in pts:
            for j in range(1, k + 1):
                measured = component_slant(fx.decomposition, p, j).theta
                expected = math.acos((j * j - 1) / (j * j + 1))
                assert abs(measured - expected) <= 1e-10, (k, j)
        assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("epsilon", [-1, 1])
def test_c1_ex3_constant_angles(epsilon):
    for k in range(2, 9):
        fx = build_fixture("ex3", k=k, epsilon=epsilon)
        start = time.monotonic()
        for p in sample20(fx):
            for j in range(1, k + 1):
                measured = component_slant(fx.decomposition, p, j).theta
                expected = math.acos((j - 1) / math.sqrt(2 * (j * j + 1)))
                assert abs(measured - expected) <= 1e-10, (k, j)
        assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# criterion 2: pointwise slant functions match the closed forms, <= 1e-8
# --------------------------------------------------------------------------

def _theta_ex4(j, t, gamma, delta):
    return math.acos((t + gamma) / math.sqrt(t * t + 2 * gamma * t
                                             + j * j * delta * delta + gamma * gamma))


def _theta_ex8(j, t, gamma, delta):
    beta = (j - 1) * delta + gamma
    return math.acos((t + beta) / math.sqrt(t * t + 2 * beta * t
                                            + delta * delta + beta * beta))


def _theta_ex5(j, t, gamma):
    e2 = 2 * t * t + 2 * (gamma + j - 1) * t + (gamma * gamma - 2 * gamma + j * j + 1)
    return math.acos((t + gamma - 1) / math.sqrt(e2))


def _theta_ex9(j, t, gamma):
    e2 = (2 * t * t + 2 * (j + gamma - 1) * t
          + (j * j + gamma * gamma + 2 * j * gamma - 4 * (j + gamma) + 5))
    return math.acos((t + j + gamma - 2) / math.sqrt(e2))


@pytest.mark.parametrize("fid,oracle,gammas,deltas", [
    ("ex4", _theta_ex4, (0.0, 0.5, 2.0), (0.5, 1.0, 2.0)),
    ("ex8", _theta_ex8, (0.0, 0.5, 2.0), (0.5, 1.0, 2.0)),
    ("ex5", _theta_ex5, (1.0, 1.5, 3.0), (None,)),
    ("ex9", _theta_ex9, (1.0, 1.5, 3.0), (None,)),
])
@pytest.mark.parametrize("epsilon", [-1, 1])
def test_c2_pointwise_closed_forms(fid, oracle, gammas, deltas, epsilon):
    for gamma in gammas:
        for delta in deltas:
            kwargs = dict(gamma=gamma) if delta is None else dict(gamma=gamma, delta=delta)
            fx = build_fixture(fid, k=2, epsilon=epsilon, **kwargs)
            for p in sample20(fx):
                t = float(p @ p)
                for j in (1, 2):
                    measured = component_slant(fx.decomposition, p, j).theta
                    expected = oracle(j, t, gamma) if delta is None else oracle(j, t, gamma, delta)
                    assert abs(measured - expected) <= 1e-8, (fid, gamma, delta, j)


# --------------------------------------------------------------------------
# criterion 3: classification claims and the verdict lattice
# --------------------------------------------------------------------------

def _classified(fid, gamma=None, delta=None, epsilon=-1):
    kwargs = {}
    if gamma is not None:
        kwargs["gamma"] = gamma
    if delta is not None:
        kwargs["delta"] = delta
    fx = build_fixture(fid, k=2, epsilon=epsilon, **kwargs)
    pts = fx.default_points(seed=SEED)[:10]
    return fx, classify(fx.decomposition, pts)


def test_c3_ex4_pointwise_k_slant_iff_gamma_positive():
    for gamma in (0.0, 0.5, 2.0):
        _, rep = _classified("ex4", gamma=gamma, delta=1.0)
        assert rep.labels["pointwise-k-slant"] == (gamma > 0), gamma
        if gamma == 0:
            witness = np.asarray(rep.evidence["pointwise-k-slant"]["point"])
            assert np.linalg.norm(witness) <= 1e-6  # witness at the origin


def test_c3_ex8_pointwise_k_slant_iff_gamma_positive_as_stated():
    """ex8 is pointwise-k-slant for every gamma >= 0. The expected label is
    taken from the closed forms pinned by criterion 2, not from the
    classifier: the two slant values must be separated by more than
    angle_distinct at every classified point. At the origin they are
    (pi/2, pi/4) when gamma = 0, a gap of pi/4. Criterion 3's "iff gamma > 0"
    clause for ex8 is genericity, asserted in the next test."""
    tol = DEFAULT_TOLERANCES.angle_distinct
    for gamma in (0.0, 0.5, 2.0):
        fx, rep = _classified("ex8", gamma=gamma, delta=1.0)
        pts = [np.asarray(p, dtype=float) for p in rep.points]
        assert len(pts) == 10
        expected = all(
            abs(_theta_ex8(1, float(p @ p), gamma, 1.0)
                - _theta_ex8(2, float(p @ p), gamma, 1.0)) > tol
            for p in pts)
        assert rep.labels["pointwise-k-slant"] == expected, (
            f"ex8 gamma={gamma}: classified pointwise-k-slant="
            f"{rep.labels['pointwise-k-slant']}, closed forms give {expected}")
        if gamma == 0:
            assert any(np.linalg.norm(p) == 0.0 for p in pts)
            origin = np.zeros(fx.structure.n)
            measured = [component_slant(fx.decomposition, origin, j).theta for j in (1, 2)]
            assert measured == pytest.approx([math.pi / 2, math.pi / 4], abs=1e-8)
            assert "pointwise-k-slant" not in rep.evidence


def test_c3_ex8_generic_iff_gamma_positive():
    # the mathematically consistent reading of the same leg: genericity is
    # what ex8 loses at gamma = 0, witnessed at the origin
    for gamma in (0.0, 0.5, 2.0):
        _, rep = _classified("ex8", gamma=gamma, delta=1.0)
        assert rep.labels["generic"] == (gamma > 0), gamma
        assert rep.labels["k-pointwise-slant"]
        if gamma == 0:
            witness = np.asarray(rep.evidence["generic"]["point"])
            assert np.linalg.norm(witness) <= 1e-6


def test_c3_ex5_ex9_generic_iff_gamma_above_one():
    for fid in ("ex5", "ex9"):
        for gamma in (1.0, 1.5, 3.0):
            _, rep = _classified(fid, gamma=gamma)
            assert rep.labels["generic"] == (gamma > 1), (fid, gamma)


def test_c3_ex1_ex3_k_slant():
    for fid in ("ex1", "ex3"):
        for epsilon in (-1, 1):
            _, rep = _classified(fid, epsilon=epsilon)
            assert rep.labels["k-slant"], (fid, epsilon)


def test_c3_lattice_never_violated():
    configs = [("ex1", None, None), ("ex3", None, None),
               ("ex4", 0.0, 1.0), ("ex4", 2.0, 0.5),
               ("ex5", 1.0, None), ("ex5", 3.0, None),
               ("ex8", 0.0, 2.0), ("ex8", 0.5, 1.0),
               ("ex9", 1.0, None), ("ex9", 1.5, None)]
    for fid, gamma, delta in configs:
        for epsilon in (-1, 1):
            _, rep = _classified(fid, gamma=gamma, delta=delta, epsilon=epsilon)
            for src, targets in VERDICT_LATTICE.items():
                if rep.labels[src]:
                    for dst in targets:
                        assert rep.labels[dst], (fid, gamma, epsilon, src, dst)


# --------------------------------------------------------------------------
# criterion 4: duality
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fid", ["ex1", "ex3"])
def test_c4_duality(fid):
    fx = build_fixture(fid, k=2, epsilon=-1)
    pts = fx.default_points(seed=SEED)[:8]
    for p in pts:
        span = expected_span_check(fx.decomposition, p, fx.expected_duals, tol=1e-8)
        assert span["passed"], span
        rt = dual_roundtrip_check(fx.decomposition, p)
        assert rt.passed
        for e in rt.entries:
            assert e["roundtrip_max_angle"] < 1e-8
            assert abs(e["theta_source"] - e["theta_dual"]) <= 1e-8
            assert e["dim"] == e["dim_source"]


# --------------------------------------------------------------------------
# criterion 5: identity suite over 10 points x 100 trials, and sensitivity
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fid,epsilon", [("ex1", -1), ("ex3", 1)])
def test_c5_identity_suite_full(fid, epsilon):
    fx = build_fixture(fid, k=2, epsilon=epsilon)
    pts = sample20(fx)[:10]
    rep = run_identity_suite(fx.decomposition, pts, trials=100, seed=SEED)
    failed = rep.failed_keys()
    assert not failed, failed
    for entry in rep.entries:
        if entry["verdict"] == "pass":
            assert entry["max_residual"] <= 1e-9, entry["key"]
        else:
            assert entry["verdict"].startswith("skipped"), entry


def test_c5_every_key_exercised_somewhere(ex1):
    """Each registry key must pass on at least one decomposition: the gallery
    covers all but the H keys, which a sub-decomposition with nonempty
    invariant remainder exercises."""
    from test_duality import sub_decomposition_with_h
    fx3 = build_fixture("ex3", k=2, epsilon=1)
    passed: set[str] = set()
    for dec, pts in [
        (ex1.decomposition, ex1.default_points(seed=SEED)[:4]),
        (fx3.decomposition, fx3.default_points(seed=SEED)[:4]),
        (sub_decomposition_with_h(ex1), ex1.default_points(seed=SEED)[:4]),
    ]:
        rep = run_identity_suite(dec, pts, trials=30, seed=SEED)
        assert not rep.failed_keys()
        passed |= {e["key"] for e in rep.entries if e["verdict"] == "pass"}
    assert passed == {c.key for c in REGISTRY}


def test_c5_sensitivity_to_phi_perturbation(ex1):
    doc = fixture_to_spec_dict(ex1, points=ex1.default_points(seed=SEED)[:6])
    doc["phi_columns"][1][0] = "-1 + 1/1000"
    spec = load_manifold_spec(doc)
    rep = run_identity_suite(spec.decomposition, spec.points, trials=50, seed=SEED)
    compat = rep.entry("struct.compat")
    assert compat["verdict"] == "fail"
    assert compat["max_residual"] >= 1e-4


# --------------------------------------------------------------------------
# criterion 6: connection criteria
# --------------------------------------------------------------------------

def test_c6_constant_fixtures_flat():
    for fid in ("ex1", "ex3"):
        fx = build_fixture(fid, k=2, epsilon=-1)
        rep = connection_criterion_report(fx.decomposition,
                                          fx.default_points(seed=SEED)[:5])
        assert rep["consistent"]
        for row in rep["components"]:
            assert row["max_nabla_f2"] <= 1e-4, row
            assert row["max_dlambda_within"] <= 1e-4, row
            assert row["max_dlambda_tm"] <= 1e-4, row


def test_c6_pointwise_fixtures_vary():
    for fid in ("ex5", "ex9"):
        fx = build_fixture(fid, k=2, epsilon=-1, gamma=1.0)
        dec = fx.decomposition
        # at a point with ||x|| = 1, some masked direction sees the eigenvalue move
        p = np.zeros(fx.structure.n)
        p[2] = 1.0
        from slantkit.verifier import eigenvalue_directional_derivative
        best = 0.0
        for d in dec.tm_directions():
            for ci in range(1, 3):
                best = max(best, abs(eigenvalue_directional_derivative(dec, p, ci, d)))
        assert best >= 1e-2, fid
        rep = connection_criterion_report(dec, fx.default_points(seed=SEED)[:5])
        assert rep["consistent"], fid


def test_c6_agreement_on_every_fixture():
    configs = [("ex1", None, None), ("ex3", None, None), ("ex4", 0.5, 1.0),
               ("ex5", 1.0, None), ("ex8", 0.0, 1.0), ("ex9", 1.0, None)]
    for fid, gamma, delta in configs:
        kwargs = {}
        if gamma is not None:
            kwargs["gamma"] = gamma
        if delta is not None:
            kwargs["delta"] = delta
        fx = build_fixture(fid, k=2, epsilon=-1, **kwargs)
        rep = connection_criterion_report(fx.decomposition,
                                          fx.default_points(seed=SEED)[:5])
        assert rep["consistent"], fid


# --------------------------------------------------------------------------
# criterion 7: property suite and determinism
# --------------------------------------------------------------------------

def test_c7_eigenvalue_range_everywhere():
    configs = [("ex1", None, None), ("ex3", None, None), ("ex4", 0.0, 1.0),
               ("ex4", 2.0, 2.0), ("ex5", 1.0, None), ("ex5", 3.0, None),
               ("ex8", 0.5, 0.5), ("ex9", 1.5, None)]
    for fid, gamma, delta in configs:
        kwargs = {}
        if gamma is not None:
            kwargs["gamma"] = gamma
        if delta is not None:
            kwargs["delta"] = delta
        for epsilon in (-1, 1):
            fx = build_fixture(fid, k=2, epsilon=epsilon, **kwargs)
            for p in fx.default_points(seed=SEED)[:8]:
                frame = fx.decomposition.frame_at(p)
                evals = np.linalg.eigvalsh(frame.f2_full())
                s = epsilon * evals
                assert np.all(s >= -1e-9), (fid, epsilon)
                assert np.all(s <= 1 + 1e-9), (fid, epsilon)


def test_c7_linalg_invariants():
    rng = np.random.default_rng(SEED)
    g = np.eye(6)
    for _ in range(25):
        mat = rng.normal(size=(6, 3))
        if np.linalg.cond(mat) > 1e6:
            continue
        m = mgs_columns(g, mat)
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-10
        proj = projector_matrix(g, m)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        assert np.trace(proj) == pytest.approx(3.0, abs=1e-10)
        v = mat @ rng.normal(size=3)
        assert np.linalg.norm(proj @ v - v) <= 1e-10 * max(1.0, np.linalg.norm(v))
        other = mgs_columns(g, rng.normal(size=(6, 2)))
        assert np.allclose(principal_angle_values(g, m, other),
                           principal_angle_values(g, other, m))


def test_c7_report_determinism(tmp_path, capsys):
    fx = build_fixture("ex5", k=2, epsilon=1, gamma=1.5)
    doc = fixture_to_spec_dict(fx, points=fx.default_points(seed=SEED)[:6])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["classify", str(spec_path), "--seed", "11",
                         "--json", str(out)])
        capsys.readouterr()
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --------------------------------------------------------------------------
# criterion 8: parser corpus
# --------------------------------------------------------------------------

VALID_CORPUS = [
    "0", "1", "42", "3.5", "0.125", ".5", "2.", "007",
    "pi", "norm2", "x1", "x2", "x3", "x4",
    "-x1", "-pi", "-(norm2)", "-1.5",
    "x1 + x2", "x1 - x2", "x1*x2", "x1/x2", "x1^2", "2^x1",
    "x1 + 2*x2", "1 - 2 - 3", "8/4/2", "2^3^2", "-2^2", "2^-3",
    "(x1)", "((x2))", "( x1 + x2 ) * x3",
    "sqrt(4)", "sqrt(norm2)", "abs(-3)", "sin(pi)", "cos(0)", "arccos(1)",
    "sqrt(norm2^2 + 4)", "arccos((x1 - x1))",
    "(norm2 + 1)/sqrt(2*norm2^2 + 2*norm2 + 2)",
    "(norm2 + 0)/sqrt(norm2^2 + 0*norm2 + 1)",
    "sin(cos(sqrt(abs(x1))))", "1 + 2 + 3 + 4 + 5",
    "x1*x2*x3*x4", "x1^2 + x2^2 - 2*x1*x2",
    "3/5", "0/2", "arccos(3/5)", "arccos(0/2)",
    "2*pi", "pi/2", "norm2^2", "norm2*norm2",
    "1/(1 + norm2)", "sqrt(2)*sqrt(2)", "abs(x1 - x2)",
    "cos(pi/4)^2 + sin(pi/4)^2", "-(x1 + x2)", "-(x1*x2)",
    "1.25*x3 - 0.75", "sqrt((x1 + x2)^2)",
]

INVALID_CORPUS = [
    "", "   ", "x0", "x5", "x", "x1x2", "1 2", "1..2", "3.4.5",
    "1+", "+1", "*3", "/2", "^2", "2^", "2**3", "()", "(", ")", "(1", "1)",
    "sqrt", "sqrt 4", "sqrt()", "foo(3)", "nor m2", "Pi", "NORM2",
    "arccos(1,2)", "sin()", "--x1", "x1 $ x2", "2e5", "1e-3",
    "x1 ++ x2", "[x1]", "x-1",
]


def test_c8_valid_corpus_parses_and_roundtrips():
    assert len(VALID_CORPUS) >= 50
    n = 4
    for src in VALID_CORPUS:
        e = fe.parse(src, n)
        printed = fe.to_source(e)
        assert fe.parse(printed, n) == e, src


def test_c8_invalid_corpus_rejected():
    assert len(INVALID_CORPUS) >= 30
    n = 4
    for src in INVALID_CORPUS:
        with pytest.raises(ParseError):
            fe.parse(src, n)


def test_c8_valid_corpus_evaluates_where_defined():
    point = np.array([0.5, 0.25, 1.0, 2.0])
    for src in VALID_CORPUS:
        e = fe.parse(src, 4)
        value = fe.evaluate(e, point)  # every corpus entry is defined here
        assert math.isfinite(value), src
