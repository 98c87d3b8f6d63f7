"""The stacked axiom kernel `slantkit.structure._axiom_residuals` against its
per-point references (`tests/structure_oracle.py`).

`exact_residuals` reads each axiom's supremum off its matrix at one point
with `np.linalg.norm(a, 2)`: the stacked kernel gives the same residual at
every point and axiom, bit for bit, on every gallery fixture under its own
metric, a conformal metric and a sheared constant one. Off the gallery,
where xi is not a coordinate vector, `xi-unit` and `phi-xi` may differ from
the reference by a few ulps; every other axiom still matches bit for bit on
random structures.

The sampled kernel the exact one replaced is the lower bound: its worst
residual over seeded vector pairs is never above the supremum, on random
structures of both kinds, eps +-1, and the euclidean or a random SPD metric."""

import numpy as np
import pytest

from slantkit import expr as fe
from slantkit.gallery import FIXTURE_IDS, build_fixture
from slantkit.structure import KIND_CONTACT, KIND_HERMITIAN, StructureField, _axiom_residuals
from structure_oracle import _axiom_residuals as sampled_residuals
from structure_oracle import exact_residuals

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


def _stacked_and_oracle(s: StructureField, points):
    xi = np.stack([s.xi_at(x) for x in points]) if s.is_contact else None
    stacked = _axiom_residuals(s, np.stack([s.metric_at(x) for x in points]),
                               np.stack([s.phi_at(x) for x in points]), xi)
    return stacked, [exact_residuals(s, x) for x in points]


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _random_structure(rng, contact: bool, epsilon: int, spd: bool) -> StructureField:
    """phi, xi and (if `spd`) a constant SPD metric with random entries, so
    every axiom fails by O(1); phi varies with x1 and xi with every coordinate."""
    n = int(rng.integers(2, 12))
    lit = lambda v: f"({v:.15f})"
    phi = rng.standard_normal((n, n))
    cols = [[fe.parse(f"{lit(phi[r, c])}*(1 + x1/7)", n) for r in range(n)] for c in range(n)]
    a = rng.standard_normal((n, n))
    gmat = a @ a.T + n * np.eye(n)
    metric = [[fe.parse(lit(gmat[i, j]), n) for j in range(n)] for i in range(n)] if spd else None
    xi = (fe.VectorFieldExpr.parse([f"{lit(rng.standard_normal())} + sin(x{j % n + 1})"
                                    for j in range(n)], n) if contact else None)
    return StructureField(n, epsilon, KIND_CONTACT if contact else KIND_HERMITIAN,
                          cols, metric=metric, xi=xi)


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_stacked_kernel_matches_the_oracle_bit_for_bit(fid, epsilon, metric):
    fx = build_fixture(fid, k=2, epsilon=epsilon)
    s = _with_metric(fx.structure, METRICS[metric])
    points = fx.default_points()
    stacked, oracle = _stacked_and_oracle(s, points)
    assert all(list(stacked) == list(row) for row in oracle)    # axiom order too
    for name, column in stacked.items():
        assert column.shape == (len(points),)
        assert [_bits(v) for v in column] == [_bits(row[name]) for row in oracle], name


@pytest.mark.parametrize("case", range(8))
def test_random_structures_match_the_oracle(case):
    rng = np.random.default_rng(case)
    s = _random_structure(rng, case % 2 == 0, 1 if case % 3 else -1, case % 4 < 2)
    points = list(rng.standard_normal((5, s.n)))
    stacked, oracle = _stacked_and_oracle(s, points)
    for name, column in stacked.items():
        want = np.array([row[name] for row in oracle])
        if name in ("xi-unit", "phi-xi"):
            np.testing.assert_array_max_ulp(column, want, maxulp=8)
        else:
            assert [_bits(v) for v in column] == [_bits(v) for v in want], name


@pytest.mark.parametrize("case", range(40))
def test_exact_residuals_bound_the_sampled_ones(case):
    """Each exact residual is the supremum of the sampled statistic: on 200
    seeded pairs per point, sampled <= exact up to the last bits."""
    rng = np.random.default_rng(1000 + case)
    s = _random_structure(rng, bool(case & 1), 1 if case & 2 else -1, bool(case & 4))
    points = list(rng.standard_normal((4, s.n)))
    stacked, _ = _stacked_and_oracle(s, points)
    for p, x in enumerate(points):
        sampled = sampled_residuals(s, x, rng.standard_normal((s.n, 200, 2)))
        assert list(sampled) == list(stacked)
        for name, value in sampled.items():
            exact = stacked[name][p]
            assert 0.0 < value <= exact * (1.0 + 1e-14), (name, p, value, exact)
