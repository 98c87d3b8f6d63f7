"""The identity suite on coefficient blocks (`slantkit.verifier`) against
the per-component evaluators on full n-row vectors that it replaced
(`tests/suite_oracle.py`), on every gallery fixture with eps = +-1 and
k = 2, 3, on ex3 under the conformal metric (1 + x3^2/4) I, on
decompositions whose components have unequal ranks, at one trial on ten
components, where a sum over the component axis must not pair its terms up,
and on 60 box points of ex5 (eps = +1, k = 2, gamma = 2) at 50 trials.

Every applicable key's residual at every point is finite, NaN or -inf where
the oracle's is, and a finite one is within RESIDUAL_BOUND of it: the
quadratic forms sum their products in another order than the oracle's n-row
products (the largest move seen on these cases is 4.4e-16). The keys that read no
component draw (structure axioms, adjointness, split systems, angle.phi-dg)
see the same full vectors and maps as the oracle, and their residuals are
the same bit for bit, sign bit included."""

import functools

import numpy as np
import pytest

import suite_oracle
from slantkit import verifier
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from slantkit.specfile import load_manifold_spec
from test_verifier import unequal_rank_spec


def _conformal_ex3(epsilon):
    fx = build_fixture("ex3", k=2, epsilon=epsilon)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:5])
    n = doc["ambient_dim"]
    doc["metric"] = [["1 + x3^2/4" if i == j else "0" for j in range(n)] for i in range(n)]
    return load_manifold_spec(doc)


def _suite_inputs(name):
    """(decomposition, points, trials) of a named case."""
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


RESIDUAL_BOUND = 1e-15
FULL_VECTOR_KEYS = ("struct.", "adj.", "adj2.", "split.", "angle.phi-dg")


@functools.cache
def _residuals(case):
    """(key, new residuals, oracle residuals) of every key applicable to `case`."""
    dec, points, trials = _suite_inputs(case)
    setting = "contact" if dec.structure.is_contact else "hermitian"
    new = verifier.PointContext(dec, points, trials, 3, DEFAULT_TOLERANCES)
    old = suite_oracle.PointContext(dec, points, trials, 3, DEFAULT_TOLERANCES)
    out = []
    for case_new, case_old in zip(verifier.REGISTRY, suite_oracle.REGISTRY):
        if case_new.settings in ("both", setting):
            got, want = case_new.evaluator(new), case_old.evaluator(old)
            assert got.shape == want.shape == (len(points),), case_new.key
            out.append((case_new.key, got, want))
    return out


@pytest.mark.parametrize("case", CASES)
def test_residuals_match_the_oracle_within_bound(case):
    checked = 0
    for key, got, want in _residuals(case):
        for kind in (np.isfinite, np.isnan, np.isneginf):
            assert (kind(got) == kind(want)).all(), (key, got, want)
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= RESIDUAL_BOUND, \
            (key, got, want)
        checked += finite.any()
    assert checked >= 55


@pytest.mark.parametrize("case", CASES)
def test_residuals_match_the_oracle_bit_for_bit(case):
    """The keys that read only full vectors."""
    checked = 0
    for key, got, want in _residuals(case):
        if key.startswith(FULL_VECTOR_KEYS):
            assert got.tobytes() == want.tobytes(), (key, got, want)
            checked += 1
    assert checked >= 16
