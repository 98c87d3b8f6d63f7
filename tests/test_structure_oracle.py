"""The stacked axiom kernel `slantkit.structure._axiom_residuals` against the
per-point kernel it replaced (`tests/structure_oracle.py`): the same residual
at every point and axiom, bit for bit, on every gallery fixture under its own
metric, a conformal metric and a sheared constant one.

Off the gallery, where xi is not a coordinate vector, `xi-unit` and `phi-xi`
sum g(xi, xi) and g(phi xi, phi xi) in another order than the oracle's
`xi @ g @ xi`, so those two may differ by a few ulps; every other axiom still
matches bit for bit on random structures."""

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.gallery import FIXTURE_IDS, build_fixture
from slantkit.sampling import rng_for
from slantkit.structure import KIND_CONTACT, KIND_HERMITIAN, StructureField, _axiom_residuals
from structure_oracle import _axiom_residuals as oracle_residuals

METRICS = {
    "own": None,
    "conformal": lambda i, j: "1 + x3^2/4" if i == j else "0",
    "sheared": lambda i, j: "1" if i == j else "0.3" if abs(i - j) == 1 else "0",
}


def _with_metric(s: StructureField, entry) -> StructureField:
    if entry is None:
        return s
    metric = [[fe.parse(entry(i, j), s.n) for j in range(s.n)] for i in range(s.n)]
    return StructureField(s.n, s.epsilon, s.kind, s.phi_columns, metric=metric, xi=s.xi)


def _stacked_and_oracle(s: StructureField, points, trials: int, seed: int = 0):
    pairs = [rng_for(seed, 101, idx).standard_normal((s.n, trials, 2))
             for idx in range(len(points))]
    xi = np.stack([s.xi_at(x) for x in points]) if s.is_contact else None
    stacked = _axiom_residuals(s, np.stack([s.metric_at(x) for x in points]),
                               np.stack([s.phi_at(x) for x in points]), xi, np.stack(pairs))
    return stacked, [oracle_residuals(s, x, p) for x, p in zip(points, pairs)]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_stacked_kernel_matches_the_oracle_bit_for_bit(fid, epsilon, metric):
    fx = build_fixture(fid, k=2, epsilon=epsilon)
    s = _with_metric(fx.structure, METRICS[metric])
    points = fx.default_points()
    stacked, oracle = _stacked_and_oracle(s, points, trials=25)
    assert all(list(stacked) == list(row) for row in oracle)    # axiom order too
    for name, column in stacked.items():
        assert column.shape == (len(points),)
        assert [_bits(v) for v in column] == [_bits(row[name]) for row in oracle], name


@pytest.mark.parametrize("case", range(8))
def test_random_structures_match_the_oracle(case):
    rng = np.random.default_rng(case)
    n, contact = int(rng.integers(2, 12)), case % 2 == 0
    lit = lambda v: f"({v:.15f})"
    phi = rng.standard_normal((n, n))
    cols = [[fe.parse(f"{lit(phi[r, c])}*(1 + x1/7)", n) for r in range(n)] for c in range(n)]
    a = rng.standard_normal((n, n))
    gmat = a @ a.T + n * np.eye(n)
    metric = ([[fe.parse(lit(gmat[i, j]), n) for j in range(n)] for i in range(n)]
              if case % 4 < 2 else None)
    xi = (fe.VectorFieldExpr.parse([f"{lit(rng.standard_normal())} + sin(x{j % n + 1})"
                                    for j in range(n)], n) if contact else None)
    s = StructureField(n, 1 if case % 3 else -1, KIND_CONTACT if contact else KIND_HERMITIAN,
                       cols, metric=metric, xi=xi)
    points = list(rng.standard_normal((5, n)))
    stacked, oracle = _stacked_and_oracle(s, points, trials=7, seed=case)
    for name, column in stacked.items():
        want = np.array([row[name] for row in oracle])
        if name in ("xi-unit", "phi-xi"):
            np.testing.assert_array_max_ulp(column, want, maxulp=8)
        else:
            assert [_bits(v) for v in column] == [_bits(v) for v in want], name
