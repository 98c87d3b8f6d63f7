"""Differential tests of the classifier statistics, computed as array passes
over the point stack (`slant_spectra`, `alpha_theta`, `_analyze_tracks`,
`_first_coincidence`, `_first_agreeing_pair`, `check_f_invariance`),
against the per-point versions they replaced (`classifier_oracle`). Report
JSON must be byte-identical and errors must have the same text. The exact
f-invariance check also bounds the sampled one it replaced."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import classifier_oracle as oracle
from slantkit import classifier, distribution
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.errors import SlantKitError
from slantkit.gallery import FIXTURE_IDS, build_fixture

TOL = DEFAULT_TOLERANCES


def _outcome(fn):
    """(JSON of the result, None) or (None, the error as text)."""
    try:
        return json.dumps(fn()), None
    except SlantKitError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _report(fn):
    return _outcome(lambda: fn().to_json_dict())


def _spectra_json(spectra):
    return [s.to_json_dict() for s in spectra]


def _assert_spectra_same(stack, points=None):
    """Spectra and track statistics of a stack, new against the oracle; the
    track dict is internal, so its keys are compared sorted."""
    points = list(stack.x) if points is None else points
    assert (_outcome(lambda: _spectra_json(classifier.slant_spectra(stack, TOL)))
            == _outcome(lambda: _spectra_json(oracle.slant_spectra(stack, TOL))))
    new = _outcome(lambda: dict(sorted(classifier._analyze_tracks(
        classifier._spectrum_table(stack.f2, stack.epsilon, TOL), stack.x, stack.epsilon, TOL,
        points).items())))
    old = _outcome(lambda: dict(sorted(oracle._analyze_tracks(
        oracle.slant_spectra(stack, TOL), stack.epsilon, TOL, points).items())))
    assert new == old


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_gallery_reports_match_the_oracle(fid, epsilon, k):
    """classify and discover on every fixture, declared and in discovery
    mode; gamma at the boundary where clusters merge at some points."""
    gammas = {"ex4": [None, 0.0], "ex5": [None, 1.0], "ex8": [None, 0.0], "ex9": [None, 1.0]}
    for gamma in gammas.get(fid, [None]):
        fx = build_fixture(fid, k=k, epsilon=epsilon, gamma=gamma)
        points = fx.default_points()
        for seed in (0, 3):
            assert (_report(lambda: classifier.classify(fx.decomposition, points, TOL, seed))
                    == _report(lambda: oracle.classify(fx.decomposition, points, TOL, seed)))
        assert (_report(lambda: classifier.discover(fx.structure, points, fx.mask, TOL))
                == _report(lambda: oracle.discover(fx.structure, points, fx.mask, TOL)))
        _assert_spectra_same(fx.decomposition.frame_stack(points), points)


def _stack(spectra, epsilon=-1, seed=0):
    """A stand-in for a FrameStack whose f^2 Gram at point p has the
    eigenvalues spectra[p], in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    mats = []
    for ev in spectra:
        q, _ = np.linalg.qr(rng.standard_normal((len(ev), len(ev))))
        mats.append((q * np.asarray(ev, dtype=float)) @ q.T)
    f2 = np.array(mats)
    f2 = 0.5 * (f2 + np.swapaxes(f2, -1, -2))
    return SimpleNamespace(f2=f2, x=rng.standard_normal((len(spectra), 3)), epsilon=epsilon)


def _cluster(value, m, rng, spread=1e-11):
    return list(value + spread * rng.standard_normal(m))


def test_cluster_count_varies_with_the_point():
    rng = np.random.default_rng(1)
    spectra = [_cluster(-0.2, 2, rng) + _cluster(-0.6, 2, rng),
               _cluster(-0.2, 2, rng) + _cluster(-0.6, 2, rng),
               _cluster(-0.4, 4, rng),
               _cluster(-0.1, 1, rng) + _cluster(-0.2, 1, rng) + _cluster(-0.6, 2, rng)]
    _assert_spectra_same(_stack(spectra))
    _assert_spectra_same(_stack(spectra[2:] + spectra[:2]))
    _assert_spectra_same(_stack([spectra[3], spectra[0], spectra[2]]))     # counts 3, 2, 1
    _assert_spectra_same(_stack([spectra[0], spectra[3], spectra[2]]))     # counts 2, 3, 1


def test_count_witness_point_comes_from_the_stack():
    """Points given as lists of ints: the count witness names the stack's
    float point, as the per-point spectra did."""
    fx = build_fixture("ex4", k=2, epsilon=-1, gamma=0.0)
    points = [[int(v) for v in p] for p in fx.default_points()[:9]]
    assert (_report(lambda: classifier.discover(fx.structure, points, fx.mask, TOL))
            == _report(lambda: oracle.discover(fx.structure, points, fx.mask, TOL)))
    assert "'point': [1.0, 0.0, " in _report(
        lambda: classifier.discover(fx.structure, points, fx.mask, TOL))[1]


def test_cluster_multiplicities_vary_with_the_point():
    rng = np.random.default_rng(2)
    spectra = [_cluster(-0.2, 1, rng) + _cluster(-0.6, 3, rng),
               _cluster(-0.2, 3, rng) + _cluster(-0.6, 1, rng),
               _cluster(-0.2, 1, rng) + _cluster(-0.6, 3, rng)]
    _assert_spectra_same(_stack(spectra))


@pytest.mark.parametrize("m", [8, 9, 16, 17, 130])
def test_wide_clusters_sum_like_the_oracle(m):
    """numpy's pairwise sum unrolls at 8 elements and splits blocks of 128:
    the stacked means must still be the per-point means, bit for bit."""
    rng = np.random.default_rng(m)
    spectra = [_cluster(-1.0, 2, rng) + _cluster(-0.3 - 0.01 * p, m, rng, 3e-9)
               + _cluster(0.0, 3, rng) for p in range(5)]
    stack = _stack(spectra)
    _assert_spectra_same(stack)
    means = classifier._spectrum_table(stack.f2, stack.epsilon, TOL)[0][:, 1]
    evals = np.linalg.eigvalsh(stack.f2)
    assert means.tolist() == [float(np.mean(e[2:2 + m])) for e in evals]


@pytest.mark.parametrize("bad, first", [
    ({3: [-1.5, 0.1], 5: [-1.5]}, 1.5),
    ({3: [0.2], 4: [-1.5, 0.1]}, -0.2),
    ({4: [-2.0], 5: [0.3]}, 2.0),
])
def test_first_out_of_band_lambda_raises(bad, first):
    """eps*lambda past the band at later points, one or two clusters a
    point: the first (point, cluster) raises the oracle's ModelError."""
    rng = np.random.default_rng(3)
    spectra = [_cluster(-0.2, 2, rng) + _cluster(-0.6, 1, rng) + _cluster(-0.9, 1, rng)
               for _ in range(6)]
    for p, values in bad.items():
        spectra[p] += values
        spectra[p] = spectra[p][len(values):]
    _assert_spectra_same(_stack(spectra))
    error = _outcome(lambda: classifier.slant_spectra(_stack(spectra), TOL))[1]
    assert float(error.split()[3]) == pytest.approx(first)


def test_a_nan_in_a_gram_matches_the_oracle():
    """Whatever eigvalsh makes of a NaN entry, the spectra and tracks are
    the oracle's."""
    stack = _stack([[-0.2, -0.6], [-0.2, -0.6], [-0.3, -0.5]])
    for p in range(3):
        f2 = stack.f2.copy()
        f2[p, 0, 0] = np.nan
        _assert_spectra_same(SimpleNamespace(f2=f2, x=stack.x, epsilon=-1))


@pytest.mark.parametrize("spectrum", [
    [-0.3, -0.3 + 6e-9, -0.3 + 1.2e-8],       # one cluster the certificate does not clear
    [-0.3, -0.3, -0.6],                         # two clusters
    [-0.1, -0.3, -0.6, -0.6],                   # three
    [-0.3, -0.3, 0.2],                          # a cluster off the band
    [-1.5, -0.3, 0.2],                          # two off the band: the first raises
    [np.nan, -0.3],
])
def test_cluster_count_matches_the_oracle(spectrum):
    """`single_cluster_lambda`'s count of a matrix the certificate did not
    clear: the same ComponentError or ModelError text as the oracle's."""
    for eps in (-1, 1):
        mat = _stack([eps * np.asarray(spectrum)], eps).f2[0]
        if np.isnan(spectrum[0]):
            mat[0, 0] = np.nan
        where = "at [0.0, 1.0]"
        assert (_outcome(lambda: classifier._count_clusters(eps, "D1", mat, TOL, where))
                == _outcome(lambda: oracle._count_clusters(eps, "D1", mat, TOL, where)))


def test_type_instability_and_alpha_flags():
    """A cluster at 0 at one point only (type witness), and interior
    clusters whose alpha comes within the margin of 0 and 1."""
    rng = np.random.default_rng(4)
    for eps in (-1, 1):
        spectra = [[0.0, 0.3 * eps, eps * (1 - 1e-13)], [1e-3 * eps, 0.3 * eps, eps],
                   [2e-13, 0.35 * eps, eps]]
        _assert_spectra_same(_stack(spectra, eps))
        spectra = [[eps * 1e-13 + 1e-9 * rng.standard_normal(), 0.3 * eps,
                    eps * (1 - 2e-12)] for _ in range(4)]
        _assert_spectra_same(_stack(spectra, eps))


def test_slant_thetas_match_the_oracle():
    """theta of each lambda of an array (`alpha_theta`), against the oracle's
    one value at a time."""
    stack = SimpleNamespace(epsilon=-1)
    s = np.array([-0.0, 0.0, 1e-300, -1e-300, 0.25, 0.5, 1.0, 1.0 + 1e-7, -5e-7, 1e-9,
                  np.nextafter(1.0, 2.0), 5e-324])      # eps * lambda, inside the band

    def thetas(lam):
        return classifier.alpha_theta(lam, stack.epsilon, TOL.lambda_band)[1].tolist()
    for eps in (-1, 1):
        stack.epsilon = eps
        lam = eps * s
        assert (_outcome(lambda: thetas(lam))
                == _outcome(lambda: oracle.slant_thetas(stack, lam, TOL)))
        assert [np.float64(t).tobytes() for t in thetas(lam)] == [
            np.float64(t).tobytes() for t in oracle.slant_thetas(stack, lam, TOL)]
        for bad in (np.nan, -1.1 * eps, 2e-6 * eps):
            lam_bad = np.concatenate([lam, [bad, -5.0 * eps]])
            assert (_outcome(lambda: thetas(lam_bad))
                    == _outcome(lambda: oracle.slant_thetas(stack, lam_bad, TOL)))
            assert _outcome(lambda: oracle.slant_thetas(stack, lam_bad, TOL))[0] is None


@pytest.mark.parametrize("seed", range(40))
def test_pair_statistics_match_the_oracle(seed):
    """Slant tables drawn from a few values, so that ties and near ties
    decide; a NaN in some tables."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7), rng.integers(0, 6)
    table = rng.choice([0.1, 0.1 + 5e-7, 0.1 + 2e-6, 0.7, 1.2], size=(rows, cols))
    if seed % 3 == 0 and table.size:
        table[rng.integers(rows), rng.integers(cols)] = np.nan
    for tol in (1e-6, 1e-12, 1.0):
        assert classifier._first_coincidence(table, tol) == oracle._first_coincidence(table, tol)
        assert (classifier._first_agreeing_pair(table, tol)
                == oracle._first_agreeing_pair(table, tol))


def _oracle_events(leak, cross, names, inv):
    events = []
    for i in range(len(names)):
        events.append(("f-leak", names[i], leak[:, i]))
        events += [("phi-cross", [names[i], names[j]], cross[:, i, j])
                   for j in range(len(names)) if j != i and inv not in (i, j)]
    return events


@pytest.mark.parametrize("seed", range(60))
def test_invariance_witness_matches_the_oracle(seed):
    """Leak and cross tables with ties, zeros and NaNs: the maxima and the
    witness of the stacked reduction are the oracle's event walk's."""
    rng = np.random.default_rng(seed)
    points, k = rng.integers(1, 5), rng.integers(1, 5)
    inv = rng.integers(k) if seed % 2 else None
    pool = [0.0, 0.0, 1e-12, 3e-11, 3e-11, 2e-10, np.nan]
    leak = rng.choice(pool, size=(points, k))
    cross = rng.choice(pool, size=(points, k, k))
    names = [f"D{i}" for i in range(k)]
    x = rng.standard_normal((points, 2))
    due = ~np.eye(k, dtype=bool)
    if inv is not None:
        due[inv] = due[:, inv] = False
    events = np.concatenate([leak[..., None], np.where(due, cross, 0.0)], axis=-1)
    worst, witness = distribution.invariance_maxima(events, names, x)
    want = oracle.events_report(_oracle_events(leak, cross, names, inv), x.tolist(), 1e-10)
    assert (worst["f-leak"], worst["phi-cross"], witness) == (
        want.max_leak, want.max_cross, want.witness)


def _invariance(rep):
    return rep.passed, rep.max_leak, rep.max_cross, rep.witness


def _assert_exact_invariance(dec, points, seeds):
    """check_f_invariance is the per-point exact oracle's report, bit for
    bit, and no maximum of the sampled check (10 trials per seed) is above
    the exact one."""
    exact = distribution.check_f_invariance(dec, points, tol=TOL.invariance)
    assert _invariance(exact) == _invariance(oracle.exact_f_invariance(dec, points, TOL.invariance))
    for seed in seeds:
        sampled = oracle.check_f_invariance(dec, points, 10, TOL.invariance, seed)
        assert sampled.max_leak <= exact.max_leak * (1.0 + 1e-14)
        assert sampled.max_cross <= exact.max_cross * (1.0 + 1e-14)
    return exact


@pytest.mark.parametrize("fid, k, epsilon, gamma, delta, count", [
    ("ex9", 8, -1, 1.5, None, 8),       # the benchmark's three workloads
    ("ex8", 6, -1, 0.5, 1.0, 10),
    ("ex5", 2, 1, 2.0, None, 60),
    ("ex1", 3, 1, None, None, 5),
    ("ex3", 2, -1, None, None, 5),
])
def test_invariance_draws_match_the_oracle(fid, k, epsilon, gamma, delta, count):
    """The stacked exact check is the per-point oracle's, and the seeded
    draws of the sampled check stay below it."""
    fx = build_fixture(fid, k=k, epsilon=epsilon, gamma=gamma, delta=delta)
    assert _assert_exact_invariance(fx.decomposition, fx.default_points(count=count),
                                    (0, 7)).passed


@pytest.mark.parametrize("seed", range(30))
def test_invariance_of_a_stack_with_nans_matches_the_oracle(seed):
    """check_f_invariance over a stand-in stack whose T_DD has NaNs, exact
    zeros and repeated blocks, an invariant component in half the cases."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 4, size=rng.integers(1, 5))
    off = (0, *np.cumsum(ranks).tolist())
    phi_dd = rng.choice([0.0, 0.0, 1e-11, -1e-11, 0.5, np.nan], size=(4, off[-1], off[-1]),
                        p=[0.4, 0.2, 0.1, 0.1, 0.15, 0.05])
    phi_dd[2] = phi_dd[1]
    stack = SimpleNamespace(offsets=off, invariant_index=0 if seed % 2 else None,
                            phi_dd=phi_dd, x=rng.standard_normal((4, 2)))
    dec = SimpleNamespace(frame_stack=lambda points: stack,
                          component_names=lambda: [f"D{i}" for i in range(len(ranks))])
    _assert_exact_invariance(dec, list(stack.x), (seed,))


def test_invariance_of_a_stack_with_infs():
    """A block with an inf (and no NaN) is an inf event, and so the maximum;
    one with a NaN is a NaN event, never one."""
    phi_dd = np.zeros((2, 3, 3))
    phi_dd[0, 2, 0] = np.nan        # D0 -> D1 at point 0
    phi_dd[1, 0, 1] = np.inf        # D1 -> D0 at point 1
    stack = SimpleNamespace(offsets=(0, 1, 3), invariant_index=None, phi_dd=phi_dd,
                            x=np.eye(2))
    dec = SimpleNamespace(frame_stack=lambda points: stack,
                          component_names=lambda: ["D0", "D1"])
    rep = _assert_exact_invariance(dec, list(stack.x), ())
    assert (rep.max_leak, rep.max_cross) == (np.inf, np.inf)
    assert rep.witness == {"kind": "phi-cross", "components": ["D1", "D0"], "point": [0.0, 1.0],
                           "residual": np.inf}


def test_invariance_violation_matches_the_oracle(ex1):
    """Components swapped so that f leaks: the witness and the ModelError
    text of classify are the oracle's."""
    from slantkit.distribution import Decomposition, DistributionFrame
    dec = ex1.decomposition
    d1, d2 = dec.proper
    mixed = [DistributionFrame("D1", [d1.fields[0], d2.fields[1]]),
             DistributionFrame("D2", [d2.fields[0], d1.fields[1]])]
    bad = Decomposition(dec.structure, mixed, dec.invariant, mask=dec.mask)
    points = ex1.default_points()[:6]
    assert not _assert_exact_invariance(bad, points, (1,)).passed
    assert (_report(lambda: classifier.classify(bad, points))
            == _report(lambda: oracle.classify(bad, points)))
    assert _report(lambda: classifier.classify(bad, points))[0] is None


# ---------------------------------------------------------------------------
# The slant-value reader on a component axis against the per-component oracle
# ---------------------------------------------------------------------------

RANKS = (1, 2, 3, 8, 9, 13)


def _random_blocks(rng, ranks, lead, eps):
    """One f^2 block (*lead, r, r) per rank: lambda I, lambda inside the band,
    plus a symmetric perturbation that the certificate clears (1e-12) or,
    past rank 2, mostly not (2e-9, one cluster still)."""
    blocks = []
    for r in ranks:
        lam = eps * rng.uniform(0.0, 1.0, lead)
        scale = rng.choice([1e-12, 2e-9], lead)[..., None, None]
        mat = lam[..., None, None] * np.eye(r) + scale * rng.standard_normal(lead + (r, r))
        blocks.append(0.5 * (mat + np.swapaxes(mat, -1, -2)))
    return blocks


def _read_both(names, blocks, x, eps, checked=None):
    """The reader's (lambda bytes, error) against the oracle's per-component
    calls, each over the members its mask checks (the probe's selection of
    `checked` directions along the third axis)."""
    def new():
        lam = classifier.single_cluster_lambda(names, blocks, "at", x, eps, TOL,
                                               True if checked is None else checked)
        cols = [lam[..., i] if checked is None else lam[:, :, checked[:, i], i]
                for i in range(len(names))]
        return [c.tobytes().hex() for c in cols]

    def old():
        cols = [oracle.single_cluster_lambda(
            name, b if checked is None else b[:, :, checked[:, i]], "at", x, eps, TOL)
            for i, (name, b) in enumerate(zip(names, blocks))]
        return [np.asarray(c, dtype=float).tobytes().hex() for c in cols]
    return _outcome(new), _outcome(old)


@pytest.mark.parametrize("seed", range(12))
def test_reader_matches_the_per_component_oracle(seed):
    """Random stacks of blocks of mixed ranks, equal and unequal: the bits of
    every lambda and the first error (type and text) are the oracle's."""
    rng = np.random.default_rng(seed)
    for eps in (-1, 1):
        ranks = list(rng.choice(RANKS, size=rng.integers(1, 6)))
        if seed % 3 == 0:
            ranks += [ranks[0]]             # a rank twice
        names = [f"D{i + 1}" for i in range(len(ranks))]
        x = rng.standard_normal((5, 4))
        blocks = _random_blocks(rng, ranks, (5,), eps)
        new, old = _read_both(names, blocks, x, eps)
        assert new == old and old[1] is None

        i, j = (int(v) for v in rng.integers(len(ranks), size=2))
        bad = [b.copy() for b in blocks]
        if ranks[i] > 1:                    # a split cluster at point 3
            bad[i][3, 0, 0] += 0.05 * eps
        bad[i][1] = eps * 3.0 * np.eye(ranks[i])    # eps*lambda off the band at point 1
        bad[j][2, 0, 0] = np.nan
        new, old = _read_both(names, bad, x, eps)
        assert new == old and old[0] is None


def test_reader_errors_in_component_order():
    """A split cluster at a later point than a lambda off the band: the
    cluster error comes first. Two failing components: the earlier one is
    named. A NaN entry fails the band."""
    rng = np.random.default_rng(5)
    eps, names = -1, ["D1", "D2", "D3"]
    x = rng.standard_normal((4, 3))
    blocks = _random_blocks(rng, [3, 2, 3], (4,), eps)
    split = [b.copy() for b in blocks]
    split[2][3, 0, 0] += 0.1
    split[2][1] = eps * 3.0 * np.eye(3)     # off the band, and cleared by the certificate
    new, old = _read_both(names, split, x, eps)
    assert new == old and old[1].startswith("ComponentError: component 'D3' carries 2")
    split[1][2] = -eps * 0.5 * np.eye(2)
    new, old = _read_both(names, split, x, eps)
    assert new == old and old[1].startswith("ModelError: eps*lambda = ")
    nan = [b.copy() for b in blocks]
    nan[0][0, 1, 1] = np.nan
    new, old = _read_both(names, nan, x, eps)
    assert new == old and old[1] == ("ModelError: eps*lambda = nan outside [0, 1] beyond the "
                                      "tolerance band; structure or decomposition is invalid")


@pytest.mark.parametrize("seed", range(6))
def test_reader_with_the_probe_mask(seed):
    """First-order models (P, 2, q, r_i, r_i) with the probe's mask (q, K) of
    checked directions: faults at unchecked directions are not read; the
    rest matches the oracle's read of the checked directions alone."""
    rng = np.random.default_rng(100 + seed)
    eps = (-1, 1)[seed % 2]
    ranks = list(rng.choice(RANKS, size=3))
    names = [f"D{i + 1}" for i in range(3)]
    q = 5
    checked = rng.random((q, 3)) < 0.6
    checked[0] = True
    x = rng.standard_normal((3, 1, 1, 6))
    blocks = _random_blocks(rng, ranks, (3, 2, q), eps)
    for i in range(3):                      # faults where the mask skips them
        skip = np.flatnonzero(~checked[:, i])
        if skip.size:
            blocks[i][1, 0, skip[0]] = eps * 7.0 * np.eye(ranks[i])
            if ranks[i] > 1:
                blocks[i][2, 1, skip[-1], 0, 0] += 0.2
    new, old = _read_both(names, blocks, x, eps, checked)
    assert new == old and old[1] is None
    i = int(rng.integers(3))
    blocks[i][2, 1, 0] = eps * 9.0 * np.eye(ranks[i])     # a checked direction off the band
    new, old = _read_both(names, blocks, x, eps, checked)
    assert new == old and old[0] is None


def test_reader_of_no_component():
    """A decomposition of D0 alone has no proper component: the dual and the
    suite read lambda (P, 0)."""
    lam = classifier.single_cluster_lambda([], [], "at", np.zeros((3, 2)), -1, TOL)
    assert lam.shape == (3, 0)
