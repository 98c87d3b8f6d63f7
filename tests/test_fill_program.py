"""Differential tests of the fill program: `LiteralFill.values` and
`tangents.fill_jacobian`, run as one table of operations over a point stack,
against the compiled per-point fills they replaced (`fill_oracle`). Values
and Jacobians must agree bit for bit, errors must have the same text, and
the central-difference fallback must be called at the same points along the
same directions, in the same order."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expr_oracle
import fill_oracle
from slantkit import expr as fe
from slantkit import tangents
from slantkit.errors import SlantKitError
from slantkit.gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from slantkit.sampling import box_points
from slantkit.specfile import load_manifold_spec
from slantkit.structure import KIND_HERMITIAN, StructureField

H = 1e-5


def _bits(a) -> tuple | None:
    """The exact bits of `a`, but a NaN entry only as a NaN at its position:
    IEEE 754 leaves open which operand's NaN a product of two NaNs returns,
    so its sign bit may depend on how the compiler ordered the operands."""
    if a is None:
        return None
    nan = np.isnan(a)
    return a.dtype, a.shape, nan.tobytes(), np.where(nan, np.nan, a).tobytes()


def _outcome(fn):
    """(bits of the result, None) or (None, the error as text)."""
    try:
        return _bits(fn()), None
    except (SlantKitError, ArithmeticError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _recording(calls):
    difference = tangents._central_difference

    def record(fill, x, j, h):
        calls.append((x.tobytes(), j))
        return difference(fill, x, j, h)

    return record


def _oracle_jacobian(fill, xs, coords, calls):
    """The oracle's Jacobians at each point of xs (P, n), stacked; None when
    the fill is constant."""
    jacs = [fill_oracle.jacobian(fill, x, coords, H, _recording(calls)) for x in xs]
    return None if jacs[0] is None else np.stack(jacs)


def _assert_same(fill, xs, coords, monkeypatch):
    """Values and Jacobians of `fill` over the stack xs (P, n) against the
    oracle's, point by point."""
    assert _outcome(lambda: fill.values(xs)) == _outcome(lambda: fill_oracle.at(fill, xs))
    got_calls, want_calls = [], []
    monkeypatch.setattr(tangents, "_central_difference", _recording(got_calls))
    got = _outcome(lambda: tangents.fill_jacobian(fill, xs, coords, H))
    monkeypatch.undo()
    want = _outcome(lambda: _oracle_jacobian(fill, xs, coords, want_calls))
    assert got == want
    assert got_calls == want_calls


def _fills(dec):
    s = dec.structure
    return [s.phi_fill, s.metric_fill] + ([s.xi.fill] if s.is_contact else []) + [dec.fill]


@pytest.mark.parametrize("metric", ["own", "conformal"])
@pytest.mark.parametrize("epsilon", [-1, 1])
@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_gallery_fills_match_the_oracle(fid, epsilon, metric, monkeypatch):
    fx = build_fixture(fid, k=2, epsilon=epsilon)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:2])
    n = doc["ambient_dim"]
    if metric == "conformal":
        doc["metric"] = [["1 + x3^2/4" if i == j else "0" for j in range(n)] for i in range(n)]
    dec = load_manifold_spec(doc).decomposition
    xs = np.array(fx.default_points()[:16])   # the origin, the axis points, box points
    for fill in _fills(dec):
        _assert_same(fill, xs, [j - 1 for j in fx.mask], monkeypatch)


# -- every node and every fault class -----------------------------------------

# literals that meet the faults: exact zeros of both signs, clamps, overflow
_VALUES = (0.0, -0.0, 0.5, -1.0, 1.0, 2.0, 1e-300, 1e300, 1.0 + 5e-13, 1e-12)
# nodes the parser never builds: every point faults and the walker decides
_FOREIGN = (fe.Call("tan", fe.Coord(1)), fe.Num(math.inf), fe.Num(math.nan), fe.Num(2))


def _trees(n=3):
    leaves = st.one_of(
        st.sampled_from(_VALUES).map(fe.Num),
        st.floats(-4.0, 4.0).map(fe.Num),
        st.integers(1, n).map(fe.Coord),
        st.just(fe.Pi()),
        st.just(fe.Norm2()),
        st.sampled_from(_FOREIGN),
    )

    def extend(children):
        return st.one_of(
            children.map(fe.Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: fe.Bin(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(fe.FUNCTIONS), children).map(
                lambda t: fe.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


_COORDINATE = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -1.0, 1.0, 2.0, 1e-300, 1e200)),
                        st.floats(-3.0, 3.0))
_STACK = st.lists(st.lists(_COORDINATE, min_size=3, max_size=3), min_size=1, max_size=4).map(
    np.array)


@settings(max_examples=300, deadline=None)
@example([fe.parse("0*x1", 1), fe.Bin("*", fe.Num(-0.0), fe.Coord(1))], np.array([[1.0, 2.0, 3.0]]),
         [0])   # literals 0.0 and -0.0 are two rows
@example([fe.Call("abs", fe.Neg(fe.Call("abs", fe.Norm2())))],
         np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e200]]),
         [2, 0])   # norm2 overflows at the third point: abs's tangent rule multiplies NaN by NaN
@given(st.lists(st.one_of(_trees(), st.sampled_from(_VALUES).map(fe.Num)), min_size=1,
                max_size=4), _STACK, st.sampled_from([[0, 1, 2], [2, 0], [1]]))
def test_random_fills_match_the_oracle(entries, xs, coords):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fill = fe.LiteralFill(entries, (len(entries),), "vector field")
        _assert_same(fill, xs, coords, monkeypatch)


@pytest.mark.parametrize("src", [
    "abs(x1)", "abs(x1)*x2", "sqrt(x1)", "x1^0.5", "x1^x2", "(x1 - 1)^x2", "arccos(x1 + 1)",
    "1/x1", "sqrt(-1 - x1^2)", "sin(10^400*x2)", "0*abs(x1) + x2*x3", "norm2*abs(x2 - x3)",
])
def test_fault_classes_match_the_oracle(src, monkeypatch):
    """Each fault class at the origin and on the axes, beside a point where
    the entry is smooth."""
    xs = np.array([[0.0, 0.0, 0.0], [0.0, 1.5, -0.5], [0.75, -1.5, 2.0], [-0.0, 2.0, 2.0]])
    fill = fe.LiteralFill([fe.Num(0.0), fe.parse(src, 3), fe.parse("x2*x3", 3), fe.Num(4.0)],
                          (2, 2), "metric")
    _assert_same(fill, xs, [0, 1, 2], monkeypatch)


def test_math_rows_match_the_oracle_on_a_dense_stack(monkeypatch):
    """pow, sin, cos, arccos and the tangents' log run per element through
    `math`: numpy's own functions differ from it in the last bit at some
    inputs on common hosts (np.arccos at about 9% of points in (-1, 1),
    np.log at about 0.2% of points in (0, 5)), which 2000 points show."""
    xs = np.random.default_rng(11).uniform(0.05, 0.95, (2000, 3))
    fill = fe.LiteralFill([fe.parse(src, 3) for src in [
        "sin(3*x1)", "cos(x1*x2)", "arccos(x1 - x3)", "x1^x2", "(4*x2)^2.5"]], (5,), "vector field")
    _assert_same(fill, xs, [0, 1, 2], monkeypatch)


def test_a_coordinate_beyond_the_point_is_the_walkers_error(monkeypatch):
    fill = fe.LiteralFill([fe.parse("x1", 3), fe.parse("x3 + 1", 3)], (2,), "vector field")
    _assert_same(fill, np.array([[1.0, 2.0], [0.5, 0.0]]), [0, 1], monkeypatch)


# -- memory: each row's arrays live until their last use ------------------------

LONG_JACOBIAN_PEAK_BOUND = 200_000   # bytes


def test_long_fill_jacobian_memory_is_bounded():
    """Three entries of 400 terms over 64 points and 3 directions: the
    program's 2400-odd rows hold (64, 1) values and (64, 3) tangents. Kept
    to the end they peak near 2 MB; dropped at their last use, the live set
    is a few rows and the peak about 70 kB."""
    entries = [fe.parse("+".join(f"x{(i + t) % 3 + 1}*{t}.{i}" for t in range(400)), 3)
               for i in range(3)]
    fill = fe.LiteralFill(entries, (3,), "vector field")
    xs = np.array(box_points(3, (1, 2, 3), 64, seed=3))
    fill.program()
    tracemalloc.start()
    try:
        jac = tangents.fill_jacobian(fill, xs, [0, 1, 2], H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = [[sum(float(f"{t}.{i}") for t in range(400) if (i + t) % 3 == j) for i in range(3)]
            for j in range(3)]
    np.testing.assert_allclose(jac, np.broadcast_to(want, (64, 3, 3)), rtol=1e-12)
    assert peak <= LONG_JACOBIAN_PEAK_BOUND, peak


# -- the structure's fills against per-entry walks, in walk order ---------------

# literal zeros of both signs, a non-finite literal, another literal and live
# entries; each a shared object, as a spec's repeated texts are
_ENTRIES = (fe.Num(0.0), fe.Num(-0.0), fe.Num(math.inf), fe.Num(2.5),
            *(fe.parse(src, 3) for src in ("x1", "1/x2", "x1*x2 - x3", "sqrt(x3)", "x1^x2",
                                           "0*x1")))


def _walked(nesting, xs, transpose):
    """Each entry's `_eval` at each point (P, *nesting), laid out as the fill
    lays it out."""
    table = np.array([[[fe._eval(e, x) for e in part] for part in nesting] for x in xs])
    return table.transpose(0, 2, 1) if transpose else table


@settings(max_examples=300, deadline=None)
@example([fe.Num(0.0)] * 9, [fe.Num(0.0)] * 3 + [fe.Num(math.inf)] + [fe.Num(0.0)] * 5,
         np.array([[1.0, 2.0, 3.0]]))    # the metric's only non-finite entry is a literal
@given(st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9),
       st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9), _STACK)
def test_structure_fills_match_the_walker_in_walk_order(phi, metric, xs):
    """phi (walked column by column) and the metric (row by row) over a
    stack: the values of per-entry `_eval` walks, bit for bit, or their
    error; C-contiguous; and `require_finite` names the oracle's first
    non-finite entry: at the first point that has one, the first in the
    spec's nesting."""
    cols, rows = [phi[i:i + 3] for i in (0, 3, 6)], [metric[i:i + 3] for i in (0, 3, 6)]
    s = StructureField(3, -1, KIND_HERMITIAN, cols, metric=rows)
    for fill, nesting, label in ((s.phi_fill, cols, "phi_columns"),
                                 (s.metric_fill, rows, "metric")):
        want = _outcome(lambda: _walked(nesting, xs, fill.transpose))
        assert _outcome(lambda: fill.values(xs)) == want
        if want[1] is None:
            values = fill.values(xs)
            nested = values.transpose(0, 2, 1) if fill.transpose else values
            assert values.flags.c_contiguous
            assert (_outcome(lambda: fill.require_finite(values, xs))
                    == _outcome(lambda: expr_oracle.require_finite(nested, nesting, xs, label)))
