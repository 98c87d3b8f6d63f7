import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slantkit import expr as fe
from slantkit.errors import EvalError, ParseError
from slantkit.structure import KIND_HERMITIAN, StructureField


def ev(src, point, n=None):
    n = n if n is not None else len(point)
    return fe.evaluate(fe.parse(src, n), np.asarray(point, dtype=float))


class TestParse:
    def test_linear(self):
        assert ev("x1 + 2*x2", [1, 3]) == pytest.approx(7.0)

    def test_norm_coefficient(self):
        # pointwise-fixture style coefficient: parses and evaluates finitely
        e = fe.parse("(norm2 + 1)/sqrt(2*norm2^2 + 2*norm2 + 2)", 4)
        v = fe.evaluate(e, np.array([1.0, 0.0, 0.0, 0.0]))
        assert v == pytest.approx(2 / math.sqrt(6))

    def test_coordinate_out_of_range(self):
        with pytest.raises(ParseError):
            fe.parse("x9", 4)

    def test_precedence(self):
        assert ev("2 + 3*4", [0.0]) == 14.0
        assert ev("2*3^2", [0.0]) == 18.0
        assert ev("-2^2", [0.0]) == -4.0
        assert ev("2^-2", [0.0]) == 0.25
        assert ev("2^3^2", [0.0]) == 512.0
        assert ev("8/4/2", [0.0]) == 1.0
        assert ev("1 - 2 - 3", [0.0]) == -4.0

    def test_offset_reported(self):
        with pytest.raises(ParseError) as err:
            fe.parse("x1 + $", 2)
        assert err.value.offset == 5


class TestEval:
    def test_norm2(self):
        assert ev("norm2", [3, 4]) == 25.0

    def test_sqrt_at_origin(self):
        assert ev("sqrt(norm2^2 + 4)", [0.0, 0.0]) == 2.0

    def test_pointwise_coefficient_vanishes_at_origin(self):
        # gamma = 0, delta = 1, j = 1 coefficient: (norm2+0)/sqrt(norm2^2+1)
        assert ev("(norm2 + 0)/sqrt(norm2^2 + 0*norm2 + 1)", [0.0, 0.0, 0.0]) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/x1", [0.0])

    def test_sqrt_negative(self):
        with pytest.raises(EvalError) as err:
            ev("sqrt(x1)", [-1.0])
        assert err.value.subexpr is not None

    def test_arccos_clamps_roundoff(self):
        assert ev("arccos(x1)", [1.0 + 1e-13]) == pytest.approx(0.0)

    def test_arccos_rejects_far_out(self):
        with pytest.raises(EvalError):
            ev("arccos(x1)", [1.5])

    def test_trig_of_overflow(self):
        # a product of two finite literals overflows to inf; math.sin and
        # math.cos reject it with ValueError, which must surface as EvalError
        huge = "1" + "0" * 200
        for func in ("sin", "cos"):
            with pytest.raises(EvalError, match=f"{func} of inf"):
                ev(f"{func}(x1*{huge}*{huge})", [1.0])

    def test_pi(self):
        assert ev("cos(pi)", [0.0]) == pytest.approx(-1.0)


# --- round-trip property: parse(to_source(e)) is structurally equal -----------

def _expr_strategy(n=3, depth=3):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(fe.Num),
        # every finite double, rendered as a positional literal of up to 309 digits
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(fe.Num),
        st.integers(1, n).map(fe.Coord),
        st.just(fe.Pi()),
        st.just(fe.Norm2()),
    )

    def extend(children):
        return st.one_of(
            children.map(fe.Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: fe.Bin(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(fe.FUNCTIONS), children).map(
                lambda t: fe.Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_expr_strategy())
def test_print_parse_roundtrip(e):
    assert fe.parse(fe.to_source(e), 3) == e


@settings(max_examples=100, deadline=None)
@given(_expr_strategy(), st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_roundtrip_preserves_value(e, coords):
    x = np.asarray(coords)
    try:
        v1 = fe.evaluate(e, x)
    except (EvalError, OverflowError):
        return
    v2 = fe.evaluate(fe.parse(fe.to_source(e), 3), x)
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


@settings(max_examples=200, deadline=None)
@example("1" + "0" * 400, "")
@example("9" * 309, "5")
@example("1" + "0" * 308, "")
@given(st.text("0123456789", min_size=1, max_size=420), st.text("0123456789", max_size=40))
def test_long_literal_roundtrip(int_digits, frac_digits):
    """A literal either round-trips through to_source, or overflows a double
    and raises ParseError at its own position."""
    literal = int_digits + ("." + frac_digits if frac_digits else "")
    try:
        e = fe.parse("x1 + " + literal, 1)
    except ParseError as err:
        assert math.isinf(float(literal))
        assert err.offset == 5
        return
    assert fe.parse(fe.to_source(e), 1) == e


def test_vector_field():
    vf = fe.VectorFieldExpr.parse(["x2", "-(x1)", "0"], 3)
    assert np.allclose(vf.at([1.0, 2.0, 5.0]), [2.0, -1.0, 0.0])
    assert vf.is_zero_component(2)
    assert not vf.is_zero_component(0)
    back = fe.VectorFieldExpr.parse(vf.to_sources(), 3)
    assert np.allclose(back.at([0.5, -0.25, 9.0]), vf.at([0.5, -0.25, 9.0]))


# --- literal fill: bare Num entries are copied, the rest walked per point -------

def _walk(entries, x):
    """The tree walker over a nested list of expressions, entry by entry."""
    if isinstance(entries, (list, tuple)):
        return [_walk(e, x) for e in entries]
    return fe._eval(entries, x)


def _same(got, want):
    """Bit-for-bit equality of two float arrays."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _outcome(fn, x):
    try:
        return fn(x), None
    except EvalError as exc:
        return None, str(exc)


_MIXED = st.one_of(st.floats(-5.0, 5.0).map(fe.Num), _expr_strategy(n=3))
_POINT = st.lists(st.floats(-3, 3), min_size=3, max_size=3).map(np.asarray)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_MIXED, min_size=3, max_size=3), min_size=3, max_size=3), _POINT)
def test_literal_fill_phi_matches_tree_walker(cols, x):
    s = StructureField(3, -1, KIND_HERMITIAN, cols)

    def walked(x):
        mat = np.array(_walk(cols, x), dtype=float).T
        fe.require_finite(mat.T, s.phi_columns, x, "phi_columns")
        return mat

    got, got_err = _outcome(s.phi_at, x)
    want, want_err = _outcome(walked, x)
    assert got_err == want_err
    assert want_err is not None or _same(got, want)


def _metric_entry(i, j):
    """Strictly diagonally dominant entries (so the metric is positive
    definite), literal or not."""
    if i == j:
        return st.one_of(st.floats(3.0, 6.0).map(fe.Num),
                         _expr_strategy(n=3).map(lambda e: fe.Bin("+", fe.Num(3.0),
                                                                  fe.Call("cos", e))))
    return st.one_of(st.floats(-0.9, 0.9).map(fe.Num),
                     _expr_strategy(n=3).map(lambda e: fe.Call("sin", e)))


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.tuples(*[_metric_entry(i, j) for j in range(i, 3)]) for i in range(3)]),
       _POINT)
def test_literal_fill_metric_matches_tree_walker(upper, x):
    # a metric must be symmetric (metric_at rejects one that is not), so
    # each entry below the diagonal repeats its mirror image
    metric = [[upper[min(i, j)][abs(j - i)] for j in range(3)] for i in range(3)]
    cols = [[fe.Num(0.0), fe.Num(1.0), fe.Num(0.0)], [fe.Num(-1.0), fe.Num(0.0), fe.Num(0.0)],
            [fe.Num(0.0)] * 3]
    s = StructureField(3, -1, KIND_HERMITIAN, cols, metric=metric)

    def walked(x):
        mat = np.array(_walk(metric, x), dtype=float)
        fe.require_finite(mat, s.metric_exprs, x, "metric")
        return 0.5 * (mat + mat.T)

    got, got_err = _outcome(s.metric_at, x)
    want, want_err = _outcome(walked, x)
    assert got_err == want_err
    assert want_err is not None or _same(got, want)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MIXED, min_size=3, max_size=3), _POINT)
def test_literal_fill_vector_field_matches_tree_walker(comps, x):
    field = fe.VectorFieldExpr(comps)

    def walked(x):
        values = np.array(_walk(comps, x), dtype=float)
        fe.require_finite(values, field.components, x, "vector field")
        return values

    got, got_err = _outcome(field.at, x)
    want, want_err = _outcome(walked, x)
    assert got_err == want_err
    assert want_err is not None or _same(got, want)


def test_literal_fill_does_not_fold_constants():
    """Only bare Num entries are filled once; a constant subexpression such
    as 1/0 is evaluated, and raises, at every point."""
    field = fe.VectorFieldExpr.parse(["1/0", "2"], 2)
    assert [idx for idx, _ in field._fill.live] == [(0,)]
    with pytest.raises(EvalError, match="division by zero"):
        field.at(np.zeros(2))
