"""The exact identity suite (`slantkit.verifier`) against two references:
the per-point brute-force one that builds each row's residual matrix
explicitly (`tests/exact_oracle.py`), and the sampled evaluators it replaced
(`tests/suite_oracle.py`), whose worst residual over seeded vector pairs is
a lower bound of each row's supremum.

The cases are every gallery fixture with eps = +-1 and k = 2, 3, ex3 under
the conformal metric (1 + x3^2/4) I, decompositions whose components have
unequal ranks, ex9 at k = 9 (ten components) with one trial, and 60 box
points of ex5 (eps = +1, k = 2, gamma = 2) at 50 trials. Each runs as it is,
where every residual is at round-off, and with phi in frame coordinates
(`FrameStack.phi_adapted`) perturbed by seeded noise of size 1e-3, where
every row reads a residual of that order.

Every applicable key is -inf (quantified nowhere) and NaN where both
references are. Its finite residuals are within REFERENCE_BOUND of the
brute-force reference's, and the rows whose matrices gather entries of T
(GATHER_KEYS) match it bit for bit. The sampled residuals are never above
the exact ones by more than ROUND_OFF (the largest excess seen is 7.8e-16)."""

import functools

import numpy as np
import pytest

import exact_oracle
import suite_oracle
from slantkit import verifier
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from slantkit.linalg import singular_values
from slantkit.sampling import DEFAULT_SEED
from slantkit.specfile import load_manifold_spec
from test_verifier import unequal_rank_spec


def _conformal_ex3(epsilon):
    fx = build_fixture("ex3", k=2, epsilon=epsilon)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:5])
    n = doc["ambient_dim"]
    doc["metric"] = [["1 + x3^2/4" if i == j else "0" for j in range(n)] for i in range(n)]
    return load_manifold_spec(doc)


def _suite_inputs(name):
    """(decomposition, points, trials of the sampled oracle) of a named case."""
    kind, _, rest = name.partition(":")
    if kind == "gallery":
        fid, epsilon, k = rest.split(",")
        fx = build_fixture(fid, k=int(k), epsilon=int(epsilon))
        return fx.decomposition, fx.default_points()[:5], 13
    if kind == "conformal":
        spec = _conformal_ex3(int(rest))
        return spec.decomposition, spec.points, 13
    if kind == "unequal":
        fid, epsilon, order = rest.split(",")
        spec = load_manifold_spec(unequal_rank_spec(fid, int(epsilon), order == "merged-first"))
        return spec.decomposition, spec.points, 13
    if kind == "many-points":
        fx = build_fixture("ex5", k=2, epsilon=1, gamma=2.0)
        doc = fixture_to_spec_dict(fx, points=fx.default_points()[:1])
        doc["sample_points"] = {"seed": 1, "count": 60}
        return fx.decomposition, load_manifold_spec(doc).points, 50
    fx = build_fixture("ex9", k=9, epsilon=1, gamma=2.0)    # "one-trial"
    return fx.decomposition, fx.default_points()[:3], 1


CASES = ([f"gallery:{fid},{eps},{k}" for fid in FIXTURE_IDS for eps in (-1, 1) for k in (2, 3)]
         + ["conformal:-1", "conformal:1"]
         + [f"unequal:{fid},{eps},{order}" for fid in ("ex1", "ex3") for eps in (-1, 1)
            for order in ("split-first", "merged-first")]
         + ["one-trial", "many-points"])


def test_registries_agree():
    rows = [(c.key, c.settings, c.domain, c.statement) for c in verifier.REGISTRY]
    assert rows == [(c.key, c.settings, c.domain, c.statement) for c in suite_oracle.REGISTRY]


REFERENCE_BOUND = 1e-14     # times max(1, |residual|); the largest move seen is 2.7e-15
ROUND_OFF = 1e-14           # times max(1, exact residual)
GATHER_KEYS = ("struct.compat", "struct.contact-isometry", "adj.", "angle.phi-dg",
               "angle.f-invariant", "angle.f-slant", "angle.wx-conformal", "norm.f-invariant",
               "norm.wx-sin")
PERTURBATION = 1e-3


@functools.cache
def _residuals(case, perturbed):
    """(key, exact, brute-force reference, sampled) of every key applicable
    to `case`, with phi in frame coordinates perturbed if `perturbed`."""
    dec, points, trials = _suite_inputs(case)
    stack = dec.frame_stack(points)
    stack.h_basis       # the duals and H of the unperturbed phi
    if perturbed:
        noise = np.random.default_rng(len(case)).standard_normal(stack.phi_adapted.shape)
        stack.__dict__["phi_adapted"] = stack.phi_adapted + PERTURBATION * noise
    setting = "contact" if dec.structure.is_contact else "hermitian"
    ctx = verifier.PointContext(dec, points, DEFAULT_TOLERANCES)
    reference = exact_oracle.residuals(ctx, stack, setting)
    old = suite_oracle.PointContext(dec, points, trials, 3, DEFAULT_TOLERANCES)
    out = []
    for case_new, case_old in zip(verifier.REGISTRY, suite_oracle.REGISTRY):
        if case_new.settings in ("both", setting):
            got, sampled = case_new.evaluator(ctx), case_old.evaluator(old)
            assert got.shape == sampled.shape == (len(points),), case_new.key
            out.append((case_new.key, got, reference[case_new.key], sampled))
    return out


def _same_kinds(key, got, want):
    for kind in (np.isfinite, np.isnan, np.isneginf):
        assert (kind(got) == kind(want)).all(), (key, got, want)


@pytest.mark.parametrize("case", CASES)
def test_residuals_match_the_oracle_within_bound(case):
    """The exact kernels against the brute-force reference."""
    for perturbed in (False, True):
        checked = 0
        for key, got, want, _ in _residuals(case, perturbed):
            _same_kinds(key, got, want)
            finite = np.isfinite(want)
            bound = REFERENCE_BOUND * np.maximum(1.0, np.abs(want[finite]))
            assert (np.abs(got[finite] - want[finite]) <= bound).all(), (key, got, want)
            checked += finite.any()
        assert checked >= 55


@pytest.mark.parametrize("case", CASES)
def test_residuals_match_the_oracle_bit_for_bit(case):
    """The rows whose matrices gather entries of T, which the reference
    reads through products with coordinate columns: both are exact, so the
    singular values are those of the same matrices."""
    for perturbed in (False, True):
        checked = 0
        for key, got, want, _ in _residuals(case, perturbed):
            if key.startswith(GATHER_KEYS):
                assert got.tobytes() == want.tobytes(), (key, got, want)
                checked += 1
        assert checked >= 8


@pytest.mark.parametrize("case", CASES)
def test_sampled_residuals_stay_below_the_exact(case):
    """Each exact residual is the supremum of the sampled statistic."""
    for perturbed in (False, True):
        for key, got, _, sampled in _residuals(case, perturbed):
            _same_kinds(key, got, sampled)
            finite = np.isfinite(got)
            bound = got[finite] + ROUND_OFF * np.maximum(1.0, got[finite])
            assert (sampled[finite] <= bound).all(), (key, got, sampled)
            if perturbed:   # every row reads the perturbation
                assert (got[finite] > PERTURBATION * 1e-3).all(), (key, got)


def _cos(x, y):
    return (x * y).sum(axis=0) / (np.linalg.norm(x, axis=0) * np.linalg.norm(y, axis=0))


@pytest.mark.parametrize("seed", range(12))
def test_angle_supremum_is_attained_and_never_exceeded(seed):
    """The angle residual of a map m (n, r) is 2 (kappa - 1) / (kappa + 1):
    4000 seeded pairs never exceed it, and the pair cos(a) v_1 +- sin(a) v_r
    of the extreme right singular vectors, tan^2(a) = kappa, attains it."""
    rng = np.random.default_rng(seed)
    r = 2 + seed % 5
    m = rng.standard_normal((r + seed % 3, r)) * np.exp(rng.uniform(-1.0, 1.0, r))
    s = singular_values(m)
    kappa = s[0] / s[-1]
    sup = verifier._angle(s, r)
    assert sup == pytest.approx(2.0 * (kappa - 1.0) / (kappa + 1.0), rel=1e-14)
    x, y = rng.standard_normal((2, r, 4000))
    assert np.abs(_cos(m @ x, m @ y) - _cos(x, y)).max() <= sup * (1.0 + 1e-12)
    v = np.linalg.svd(m)[2]
    a = np.arctan(np.sqrt(kappa))
    x, y = (np.cos(a) * v[0] + sign * np.sin(a) * v[-1] for sign in (1.0, -1.0))
    attained = abs(_cos(m @ x, m @ y) - _cos(x, y))
    assert attained == pytest.approx(sup, rel=1e-12)


def test_rank_one_defect_fails_the_exact_suite_only():
    """identities-k8's spec (ex9 at k = 8, n = 34, 8 seeded points) with a
    defect delta u v^T, delta twice the identity tolerance, added to phi
    in frame coordinates at one point: the sampled oracle at 50 trials reads
    struct.compat and struct.isometry as passing, while the exact suite
    fails both with that point as witness."""
    fx = build_fixture("ex9", k=8, epsilon=-1, gamma=1.5)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:1])
    doc["sample_points"] = {"seed": 0, "count": 8}
    spec = load_manifold_spec(doc)
    dec, points, tol = spec.decomposition, spec.points, DEFAULT_TOLERANCES.identity
    stack = dec.frame_stack(points)
    stack.h_basis
    u, v = np.random.default_rng(34).standard_normal((2, stack.phi_adapted.shape[-1]))
    defect = 2.0 * tol * np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    stack.__dict__["phi_adapted"] = stack.phi_adapted + np.where(
        np.arange(len(points)) == 5, 1.0, 0.0)[:, None, None] * defect
    rep = verifier.run_identity_suite(dec, points)
    old = suite_oracle.PointContext(dec, points, 50, DEFAULT_SEED, DEFAULT_TOLERANCES)
    for key in ("struct.compat", "struct.isometry"):
        entry = rep.entry(key)
        assert entry["verdict"] == "fail", entry
        assert entry["witness_point"] == np.asarray(points[5]).tolist()
        sampled = next(c for c in suite_oracle.REGISTRY if c.key == key).evaluator(old)
        assert sampled.max() <= tol, (key, sampled)
