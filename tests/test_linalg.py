import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slantkit import expr as fe
from slantkit.distribution import Decomposition, DistributionFrame
from slantkit.errors import RankError, SymmetryError
from slantkit.linalg import (
    CHOLQR2_COND_MAX,
    complement_columns,
    g_inner,
    _mgs_loop,
    mgs_columns,
    mgs_each,
    principal_angle_values,
    projector_matrix,
    sym_eigen,
)
from slantkit.structure import KIND_HERMITIAN, StructureField

from frame_maps import pivoted_columns


def vec(comps):
    return np.asarray(comps, dtype=float)


def basis(cols):
    """The (n, r) matrix whose columns are `cols`."""
    return np.array(cols, dtype=float).T


class TestInner:
    def test_orthogonal_canonical(self):
        g = np.eye(3)
        assert g_inner(g, vec([1, 0, 0]), vec([0, 1, 0])) == 0.0

    def test_squared_norm(self):
        g = np.eye(3)
        assert g_inner(g, vec([1, 2, 2]), vec([1, 2, 2])) == 9.0

    def test_weighted(self):
        # direct bilinear-form expansion: 2*1*1 + 1*1*(-1) = 1
        g = np.diag([2.0, 1.0])
        assert g_inner(g, vec([1, 1]), vec([1, -1])) == pytest.approx(1.0)

    def test_symmetry(self):
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        u, v = vec([1, 2]), vec([-3, 0.5])
        assert g_inner(g, u, v) == pytest.approx(g_inner(g, v, u))

    # Oracle: the three-operand einsum g_ij u^i v^j, written out directly.
    @pytest.mark.parametrize("metric", ["none", "eye", "spd"])
    @pytest.mark.parametrize("shapes", [((6,), (6,)), ((6, 9), (6, 9)),
                                        ((6, 9), (6, 1)), ((6, 1), (6, 9))])
    def test_g_inner_matches_three_operand_einsum(self, metric, shapes):
        n = 6
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        gmat = {"none": None, "eye": np.eye(n), "spd": a @ a.T + n * np.eye(n)}[metric]
        u = rng.standard_normal(shapes[0])
        v = rng.standard_normal(shapes[1])
        oracle = np.einsum("i...,ij,j...->...", u, np.eye(n) if gmat is None else gmat, v)
        got = g_inner(gmat, u, v)
        assert got.shape == oracle.shape
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _structure(metric):
        n = 2
        cols = [["0", "1"], ["-1", "0"]]
        return StructureField(n, -1, KIND_HERMITIAN,
                              [[fe.parse(c, n) for c in col] for col in cols],
                              metric=[[fe.parse(c, n) for c in row] for row in metric])

    def test_metric_is_euclidean_only_for_literal_identity(self):
        assert self._structure([["1", "0"], ["0", "1"]]).metric_is_euclidean
        assert not self._structure([["2", "0"], ["0", "1"]]).metric_is_euclidean
        assert not self._structure([["1", "0"], ["0", "1 + x1"]]).metric_is_euclidean

    def test_point_frame_inner_non_euclidean(self):
        n = 2
        s = self._structure([["2", "0"], ["0", "1"]])
        dec = Decomposition(s, [DistributionFrame("D", [
            fe.VectorFieldExpr.parse(["1", "0"], n),
            fe.VectorFieldExpr.parse(["0", "1"], n)])])
        frame = dec.frame_at(np.zeros(n))
        g = np.diag([2.0, 1.0])
        rng = np.random.default_rng(8)
        u = rng.standard_normal((n, 7))
        v = rng.standard_normal((n, 7))
        want = np.array([u[:, t] @ g @ v[:, t] for t in range(7)])
        np.testing.assert_allclose(frame.inner(u, v), want, rtol=1e-13)
        assert frame.inner(u[:, 0], v[:, 0]) == pytest.approx(want[0], rel=1e-13)
        np.testing.assert_allclose(frame.inner(u, v[:, :1]),
                                   [u[:, t] @ g @ v[:, 0] for t in range(7)], rtol=1e-13)
        np.testing.assert_allclose(frame.norm(u) ** 2,
                                   [u[:, t] @ g @ u[:, t] for t in range(7)], rtol=1e-13)


class TestGramSchmidt:
    def test_axis_scaling(self):
        g = np.eye(2)
        out = mgs_columns(g, basis([[2, 0], [0, 3]]))
        assert np.allclose(out, np.eye(2))
        assert np.max(np.abs(out.T @ g @ out - np.eye(2))) < 1e-12

    def test_gram_matrix_identity(self):
        g = np.eye(2)
        m = mgs_columns(g, basis([[1, 1], [1, 0]]))
        assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-12

    def test_span_preserved(self):
        g = np.eye(3)
        raw = basis([[1, 1, 0], [0, 1, 1]])
        out = mgs_columns(g, raw)
        angles = principal_angle_values(g, out, mgs_columns(g, raw))
        assert np.max(angles) < 1e-10

    def test_metric_orthonormality(self):
        g = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = mgs_columns(g, basis([[1, 1], [1, 0]]))
        assert np.max(np.abs(m.T @ g @ m - np.eye(2))) < 1e-10


class TestProjector:
    def test_axis(self):
        g = np.eye(2)
        p = projector_matrix(g, basis([[1, 0]]))
        assert np.allclose(p, [[1, 0], [0, 0]])

    def test_diagonal_unit(self):
        g = np.eye(2)
        s = 1 / math.sqrt(2)
        p = projector_matrix(g, basis([[s, s]]))
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent(self):
        g = np.eye(4)
        b = mgs_columns(g, basis([[1, 2, 0, 1], [0, 1, 1, -1]]))
        p = projector_matrix(g, b)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p) == pytest.approx(2.0)

    def test_g_self_adjoint(self):
        g = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = mgs_columns(g, basis([[1, 1]]))
        p = projector_matrix(g, b)
        assert np.max(np.abs(g @ p - p.T @ g)) < 1e-10


def _deflation_oracle(g, cand, rank):
    """Reference for `frame_maps.pivoted_columns`: the deflation written out inline,
    operation for operation, so the two must agree bit for bit."""
    cand = np.array(cand, dtype=float)
    out = np.empty((cand.shape[0], rank))
    for j in range(rank):
        norms = np.sqrt(np.maximum(g_inner(g, cand, cand), 0.0))
        idx = int(np.argmax(norms))
        if norms[idx] < 1e-10:
            raise RankError("collapsed")
        q = cand[:, idx] / norms[idx]
        out[:, j] = q
        cand -= np.outer(q, q @ g @ cand)
    return out


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _kahan(n, theta):
    """Kahan's upper-triangular matrix: its R factor is itself, and its
    condition grows exponentially with n."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def _near_dependent(n, eps):
    """Three random columns, the last one `eps` (relative) off the span of the others."""
    a = np.random.default_rng(1).standard_normal((n, 3))
    a[:, 2] = a[:, 0] - 0.5 * a[:, 1] + eps * a[:, 2]
    return a


class TestMgsColumns:
    """`mgs_columns` (CholeskyQR2) against `_mgs_loop`, the Gram-Schmidt loop
    it replaced and still falls back to."""

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_loop_for_every_rank(self, seed):
        n = 9
        rng = np.random.default_rng(seed)
        g = _spd(rng, n)
        for r in range(1, n + 1):
            raw = rng.standard_normal((n, r))
            got = mgs_columns(g, raw)
            assert np.max(np.abs(got - _mgs_loop(g, raw))) <= 1e-14
            assert np.max(np.abs(got.T @ g @ got - np.eye(r))) <= 1e-13

    def test_zero_columns(self):
        g = _spd(np.random.default_rng(0), 5)
        assert mgs_columns(g, np.zeros((5, 0))).shape == (5, 0)
        assert mgs_columns(g, np.zeros((3, 5, 0))).shape == (3, 5, 0)

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_stack_equals_members(self, r):
        n = 7
        rng = np.random.default_rng(r)
        g, gs = _spd(rng, n), np.stack([_spd(rng, n) for _ in range(4)])
        raws = rng.standard_normal((2, 4, n, r))
        got = mgs_columns(g, raws)
        for a, b in np.ndindex(2, 4):
            assert np.array_equal(got[a, b], mgs_columns(g, raws[a, b]))
        got = mgs_columns(gs, raws[0])
        for b in range(4):
            assert np.array_equal(got[b], mgs_columns(gs[b], raws[0, b]))
        # mixed shapes: one stacked call per shape, results in input order
        mixed = [raws[0, 0], rng.standard_normal((n, r + 1)), raws[0, 1]]
        for onb, raw in zip(mgs_each(g, mixed), mixed):
            assert np.array_equal(onb, mgs_columns(g, raw))

    @pytest.mark.parametrize("raw", [
        _near_dependent(6, 1e-9),                              # relative pivot ~1e-9
        _kahan(15, 0.5),                                       # condition ~4e8
        _kahan(20, 0.6),                                       # first factorisation fails
    ], ids=["near-dependent", "kahan", "kahan-not-pd"])
    def test_fallback_is_the_loop_bit_for_bit(self, raw):
        n = raw.shape[0]
        g = np.eye(n)
        gram = raw.T @ raw
        try:
            bound = (np.sqrt(np.max(np.diag(gram)))
                     * np.linalg.norm(np.linalg.inv(np.linalg.cholesky(gram))))
        except np.linalg.LinAlgError:
            bound = np.inf
        assert bound > CHOLQR2_COND_MAX
        assert np.array_equal(mgs_columns(g, raw), _mgs_loop(g, raw))
        # in a stack, the member on the fallback leaves its neighbour alone
        good = np.random.default_rng(0).standard_normal(raw.shape)
        got = mgs_columns(g, np.stack([good, raw]))
        assert np.array_equal(got[0], mgs_columns(g, good))
        assert np.array_equal(got[1], _mgs_loop(g, raw))

    @pytest.mark.parametrize("raw, message", [
        (np.zeros((3, 1)), "column 0 is dependent on the previous ones"),
        (np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
         "column 2 is dependent on the previous ones"),
    ])
    def test_rank_error_message(self, raw, message):
        g = np.eye(3)
        with pytest.raises(RankError, match=f"^{message}$"):
            _mgs_loop(g, raw)
        with pytest.raises(RankError, match=f"^{message}$"):
            mgs_columns(g, raw)
        with pytest.raises(RankError, match=f"^{message}$"):
            mgs_columns(g, np.stack([np.eye(3)[:, :raw.shape[1]], raw]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_follows_the_loop(self, bad):
        raw = np.random.default_rng(0).standard_normal((5, 3))
        raw[1, 1] = bad
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(mgs_columns(np.eye(5), raw),
                                          _mgs_loop(np.eye(5), raw))


class TestPivotedColumns:
    """`frame_maps.pivoted_columns`, the tests' oracle for the span of H."""

    @pytest.mark.parametrize("metric", ["eye", "spd"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_oracle(self, metric, seed):
        n, r = 9, 3
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        g = np.eye(n) if metric == "eye" else a @ a.T + n * np.eye(n)
        onb = mgs_columns(g, rng.standard_normal((n, r)))
        complement_cand = np.eye(n) - projector_matrix(g, onb)
        dense_cand = rng.standard_normal((n, n + 2))
        for cand, rank in ((complement_cand, n - r), (dense_cand, n)):
            got = pivoted_columns(g, cand, rank)
            assert np.array_equal(got, _deflation_oracle(g, cand, rank))
            np.testing.assert_allclose(got.T @ g @ got, np.eye(rank), atol=1e-9)

    def test_first_index_wins_ties(self):
        cand = np.diag([1.0, 2.0, 2.0])
        got = pivoted_columns(np.eye(3), cand, 3)
        assert np.array_equal(got, np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize("cand, rank", [
        (np.zeros((3, 2)), 1),
        (np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), 3),
    ])
    def test_rank_deficient_raises(self, cand, rank):
        with pytest.raises(RankError):
            pivoted_columns(np.eye(3), cand, rank)


class TestComplementColumns:
    """`complement_columns`, one complete QR in the Cholesky geometry, by its
    properties: g-orthonormal, g-orthogonal to `onb`, and the span of the
    pivoted deflation over the columns of I - P that it replaced."""

    @pytest.mark.parametrize("metric", ["eye", "spd"])
    @pytest.mark.parametrize("seed", range(4))
    def test_properties(self, metric, seed):
        n = 9
        rng = np.random.default_rng(seed)
        g = np.eye(n) if metric == "eye" else _spd(rng, n)
        for r in (0, 1, 3, n - 1, n):
            onb = mgs_columns(g, rng.standard_normal((n, r)))
            got = complement_columns(g, onb)
            assert got.shape == (n, n - r)
            assert np.max(np.abs(got.T @ g @ got - np.eye(n - r)), initial=0.0) <= 1e-12
            assert np.max(np.abs(onb.T @ g @ got), initial=0.0) <= 1e-12
            if 0 < r < n:
                cand = np.eye(n) - projector_matrix(g, onb)
                pivoted = mgs_columns(g, _deflation_oracle(g, cand, n - r))
                assert np.max(principal_angle_values(g, got, pivoted)) <= 1e-12


class TestStackedKernels:
    """`frame_maps.pivoted_columns`, `complement_columns` and
    `principal_angle_values` over a stack (P, n, m) equal the unstacked call on each member bit for
    bit, as `TestMgsColumns` checks for `mgs_columns`."""

    @staticmethod
    def _stack(seed, count=5, n=8, r=3):
        rng = np.random.default_rng(seed)
        gs = np.stack([np.eye(n)] + [_spd(rng, n) for _ in range(count - 1)])
        onb = mgs_columns(gs, rng.standard_normal((count, n, r)))
        return rng, gs, onb

    @pytest.mark.parametrize("seed", range(3))
    def test_complement_columns(self, seed):
        _, gs, onb = self._stack(seed)
        got = complement_columns(gs, onb)
        for g, b, member in zip(gs, onb, got):
            assert np.array_equal(member, complement_columns(g, b))
        shared = complement_columns(gs[0], onb)     # one metric for the whole stack
        for b, member in zip(onb, shared):
            assert np.array_equal(member, complement_columns(gs[0], b))

    @pytest.mark.parametrize("seed", range(3))
    def test_principal_angle_values(self, seed):
        rng, gs, onb = self._stack(seed)
        other = mgs_columns(gs, onb + 1e-3 * rng.standard_normal(onb.shape))
        wide = mgs_columns(gs, rng.standard_normal(onb.shape[:-1] + (5,)))
        for b in (onb, other, wide):
            got = principal_angle_values(gs, onb, b)
            for g, a, member, angles in zip(gs, onb, b, got):
                assert np.array_equal(angles, principal_angle_values(g, a, member))

    def test_pivoted_columns_with_tied_pivots(self):
        """Members whose candidate norms tie (the first index wins in each)
        beside a random one, against one shared metric and against a stack."""
        rng, gs, _ = self._stack(0, count=3, n=4)
        cand = np.stack([np.diag([1.0, 2.0, 2.0, 1.0]), np.eye(4),
                         rng.standard_normal((4, 4))])
        for g in (np.eye(4), gs):
            got = pivoted_columns(g, cand, 4)
            for p in range(3):
                gp = g if g.ndim == 2 else g[p]
                assert np.array_equal(got[p], pivoted_columns(gp, cand[p], 4))
                assert np.array_equal(got[p], _deflation_oracle(gp, cand[p], 4))
        assert np.array_equal(pivoted_columns(np.eye(4), cand, 4)[0], np.eye(4)[:, [1, 2, 0, 3]])

    def test_collapsing_member_raises_its_own_error(self):
        """The first member whose deflation collapses raises the message of
        its unstacked call, even when a later member collapses sooner."""
        full = np.eye(3)
        after_two = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        after_one = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(RankError) as alone:
            pivoted_columns(np.eye(3), after_two, 3)
        assert str(alone.value) == "pivoted deflation collapsed after 2 of 3 columns"
        with pytest.raises(RankError) as stacked:
            pivoted_columns(np.eye(3), np.stack([full, after_two, after_one]), 3)
        assert str(stacked.value) == str(alone.value)


class TestSymEigen:
    def test_repeated_eigenvalue(self):
        w, v = sym_eigen(np.diag([-0.36, -0.36]))
        assert np.allclose(w, [-0.36, -0.36])
        assert np.allclose(v @ v.T, np.eye(2))

    def test_zero_matrix(self):
        w, _ = sym_eigen(np.zeros((2, 2)))
        assert np.allclose(w, [0.0, 0.0])

    def test_offdiag(self):
        w, v = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        for j in range(2):
            assert np.allclose(np.array([[0, 1], [1, 0]]) @ v[:, j], w[j] * v[:, j])

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sign_convention(self):
        _, v = sym_eigen(np.diag([1.0, 2.0]))
        for j in range(2):
            nz = np.flatnonzero(np.abs(v[:, j]) > 1e-12)
            assert v[nz[0], j] > 0


class TestPrincipalAngles:
    def test_same_span(self):
        g = np.eye(2)
        a = basis([[1, 0]])
        assert principal_angle_values(g, a, a) == pytest.approx([0.0])

    def test_orthogonal(self):
        g = np.eye(2)
        a = basis([[1, 0]])
        b = basis([[0, 1]])
        assert principal_angle_values(g, a, b) == pytest.approx([math.pi / 2])

    def test_quarter(self):
        g = np.eye(2)
        s = 1 / math.sqrt(2)
        a = basis([[1, 0]])
        b = basis([[s, s]])
        assert principal_angle_values(g, a, b) == pytest.approx([math.pi / 4])

    def test_symmetric_in_arguments(self):
        g = np.eye(3)
        a = mgs_columns(g, basis([[1, 2, 0], [0, 1, 1]]))
        b = mgs_columns(g, basis([[1, 0, 1]]))
        assert np.allclose(principal_angle_values(g, a, b), principal_angle_values(g, b, a))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.randoms(use_true_random=False))
def test_gram_schmidt_property(n, r, rnd):
    r = min(r, n)
    rng = np.random.default_rng(rnd.getrandbits(32))
    mat = rng.normal(size=(n, r))
    # resample until decently conditioned (condition <= 1e6 per the contract)
    while np.linalg.cond(mat) > 1e6:
        mat = rng.normal(size=(n, r))
    g = np.eye(n)
    m = mgs_columns(g, mat)
    assert np.max(np.abs(m.T @ m - np.eye(r))) < 1e-10
    proj = projector_matrix(g, m)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    # members of the span are fixed points
    v = mat @ rng.normal(size=r)
    assert np.linalg.norm(proj @ v - v) <= 1e-10 * max(np.linalg.norm(v), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_sym_eigen_reconstruction(n, rnd):
    rng = np.random.default_rng(rnd.getrandbits(32))
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    w, v = sym_eigen(a)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.linalg.norm(a - v @ np.diag(w) @ v.T) <= 1e-9 * max(np.linalg.norm(a), 1e-30)
    for j in range(n):
        assert np.linalg.norm(a @ v[:, j] - w[j] * v[:, j]) <= 1e-10 * max(np.linalg.norm(a), 1.0)
