import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slantkit import expr as fe
from slantkit import tangents
from slantkit.errors import EvalError, ParseError, SpecError
from slantkit.gallery import build_fixture, fixture_to_spec_dict
from slantkit.specfile import load_manifold_spec
from slantkit.structure import KIND_HERMITIAN, StructureField

import expr_oracle


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

    def test_coordinate_beyond_int_digit_limit(self):
        """int() refuses a string of over 4300 digits: such a coordinate is
        out of range like any other, at the offset of its token, and leading
        zeros still count for nothing. A token of over 32 characters is
        echoed by its first 32 and its length."""
        for src, offset in (("x" + "1" * 5000, 0), ("1 + x" + "9" * 5000, 4)):
            with pytest.raises(ParseError, match=r"out of range 1\.\.3 \(offset") as err:
                fe.parse(src, 3)
            assert err.value.offset == offset
            assert str(err.value) == (f"coordinate {src[offset:offset + 32]}... (5001 characters) "
                                      f"out of range 1..3 (offset {offset})")
        assert fe.parse("x" + "0" * 5000 + "2", 3) == fe.Coord(2)

    def test_precedence(self):
        assert ev("2 + 3*4", [0.0]) == 14.0
        assert ev("2*3^2", [0.0]) == 18.0
        assert ev("-2^2", [0.0]) == -4.0
        assert ev("2^-2", [0.0]) == 0.25
        assert ev("2^3^2", [0.0]) == 512.0
        assert ev("8/4/2", [0.0]) == 1.0
        assert ev("1 - 2 - 3", [0.0]) == -4.0

    def test_nesting_bound(self):
        """Trees MAX_DEPTH deep, and MAX_DEPTH // 6 levels of parentheses,
        function arguments or exponents, parse and evaluate under the default
        recursion limit; one level more is a ParseError."""
        forms = (lambda k: "+".join(["x1"] * k), lambda k: "(" * k + "x1" + ")" * k,
                 lambda k: "sin(" * k + "x1" + ")" * k, lambda k: "x1^" * k + "x1")
        for form, k in zip(forms, (fe.MAX_DEPTH,) + (fe.MAX_DEPTH // 6,) * 3):
            e = fe.parse(form(k), 1)
            text = fe.to_source(e)
            assert fe.to_source(fe.parse(text, 1)) == text
            value = fe.evaluate(e, [0.5])
            assert fe.LiteralFill([e], (1,), "entry").at(np.array([0.5]))[0] == value
            with pytest.raises(ParseError, match="nested too deeply"):
                fe.parse(form(k + 1), 1)

    def test_offset_reported(self):
        with pytest.raises(ParseError) as err:
            fe.parse("x1 + $", 2)
        assert err.value.offset == 5

    @pytest.mark.parametrize("src, offset", [
        ("\u00b2", 0), ("x1\u00b2", 0), ("x\u00b2", 0), ("1 + \u0663", 4), ("x\u0661", 0),
        ("2\u00b2", 1), ("\uff11", 0)])
    def test_only_ascii_digits(self, src, offset):
        """Unicode digits (superscripts, Arabic-Indic, fullwidth) are not
        digits of the grammar: a ParseError at their position, never a
        number or a coordinate."""
        with pytest.raises(ParseError) as err:
            fe.parse(src, 3)
        assert err.value.offset == offset

    def test_unicode_digit_in_a_spec_entry_is_a_parse_error(self, tmp_path):
        doc = fixture_to_spec_dict(build_fixture("ex3", k=2))
        doc["phi_columns"][0][1] = "\u00b2"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"^phi_columns\[0\]\[1\]: unexpected character"):
            load_manifold_spec(path)

    @pytest.mark.parametrize("src", [
        ".", "1.", ".5", " 0 ", "0", "007", "12.50", "\t3.25\n", "1e3", "0x1", "-0", "1_0",
        "1" * 400, "  " + "9" * 400 + ".5", "0." + "1" * 400, "\u00b2", "\u0663", "1 .5", "+1",
        "1..2", "\u20031\u2003"])
    def test_literal_fast_path_agrees_with_the_grammar(self, src):
        """`parse` reads a bare literal from its one token, without the
        grammar; the result, or the error with its message and offset, is
        the grammar's, as the character-by-character parser of
        `expr_oracle` reads it."""
        def outcome(read):
            try:
                return read()
            except ParseError as exc:
                return str(exc)
        want = outcome(lambda: expr_oracle._Parser(src, 2).parse())
        got = outcome(lambda: fe.parse(src, 2))
        assert got == want and type(got) is type(want)
        if isinstance(want, fe.Num):
            assert math.copysign(1.0, got.value) == math.copysign(1.0, want.value)


def _parsed(parse, src, n):
    """The tree's repr, or the error's type, message and offset."""
    try:
        return repr(parse(src, n))
    except Exception as exc:  # noqa: BLE001 - any difference is a finding
        return type(exc), str(exc), getattr(exc, "offset", None)


_LEVELS = fe.MAX_DEPTH // 6
_TEXTS = st.recursive(
    st.sampled_from(["x1", "x2", "2.5", "norm2", "pi", "0", "x4", "1 +", "$"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
        inner.map(lambda e: f"({e})"), inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(fe.FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})")),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@example(["sin(x1^x1)", "(" * (_LEVELS - 2) + "sin(x1^x1)" + ")" * (_LEVELS - 2)])  # fits
@example(["sin(x1^x1)", "(" * (_LEVELS - 1) + "sin(x1^x1)" + ")" * (_LEVELS - 1)])  # too deep
@example(["(" * (_LEVELS - 1) + "sin(x1)" + ")" * (_LEVELS - 1), "cos((sin(x1)))"])
@example(["x1^x1", "(" * (_LEVELS - 1) + "sin(x1^x1)" + ")" * (_LEVELS - 1)])  # a whole text
@example(["sin(x1^x1)", "cos(sin(x1^x1))",     # a group reused inside a group reused deeper
          "(" * (_LEVELS - 2) + "cos(sin(x1^x1))" + ")" * (_LEVELS - 2)])
@example(["x1*(x2+1)", "(x1*(x2+1))", "sin((x1*(x2+1)))^2", "x1*(x2+1"])
@given(st.lists(_TEXTS, min_size=2, max_size=6))
def test_parses_sharing_nodes_agree_with_the_grammar(texts):
    """Texts parsed in turn with one node table, as a spec load parses them:
    a group or text read before is reused only where its nesting fits, so
    each gives the oracle's tree or error."""
    nodes = {}
    for src in texts:
        assert _parsed(lambda s, n: fe.parse(s, n, nodes), src, 3) == _parsed(
            expr_oracle.parse, src, 3), src


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
    assert vf.fill.literals.tolist() == [0.0, 0.0, 0.0]
    assert [axis.tolist() for axis in vf.fill.where] == [[0, 1]]
    back = fe.VectorFieldExpr.parse(vf.to_sources(), 3)
    assert np.allclose(back.at([0.5, -0.25, 9.0]), vf.at([0.5, -0.25, 9.0]))


# --- the nodes: immutable values, as frozen dataclasses were ----------------

# (a builder of the node, its field names, its repr as the dataclasses printed
# it, a builder of a node of its class that differs, or None)
_NODE_CASES = [
    (lambda: fe.Num(2.0), ("value",), "Num(value=2.0)", lambda: fe.Num(-0.5)),
    (lambda: fe.Coord(3), ("index",), "Coord(index=3)", lambda: fe.Coord(1)),
    (fe.Pi, (), "Pi()", None),
    (fe.Norm2, (), "Norm2()", None),
    (lambda: fe.Neg(fe.Coord(1)), ("operand",), "Neg(operand=Coord(index=1))",
     lambda: fe.Neg(fe.Coord(2))),
    (lambda: fe.Bin("+", fe.Coord(1), fe.Num(2.0)), ("op", "left", "right"),
     "Bin(op='+', left=Coord(index=1), right=Num(value=2.0))",
     lambda: fe.Bin("-", fe.Coord(1), fe.Num(2.0))),
    (lambda: fe.Call("sin", fe.Bin("^", fe.Coord(2), fe.Neg(fe.Pi()))), ("func", "arg"),
     "Call(func='sin', arg=Bin(op='^', left=Coord(index=2), right=Neg(operand=Pi())))",
     lambda: fe.Call("sin", fe.Bin("^", fe.Coord(2), fe.Neg(fe.Norm2())))),
]


@pytest.mark.parametrize("build, names, text, differ", _NODE_CASES,
                         ids=[text.split("(")[0] for _, _, text, _ in _NODE_CASES])
def test_node_is_an_immutable_value(build, names, text, differ):
    node, twin = build(), build()
    cls, fields = type(node), tuple(getattr(node, name) for name in names)
    assert cls.__match_args__ == names
    assert cls(*fields) == node and cls(**dict(zip(names, fields))) == node
    assert node is not twin and node == twin and not node != twin
    assert hash(node) == hash(twin) == hash(fields)
    assert repr(node) == text
    if differ is not None:
        assert node != differ() and not node == differ()
    for case in _NODE_CASES:
        other = case[0]()
        if type(other) is not cls:
            assert node != other and node.__eq__(other) is NotImplemented
    for name in names + ("value",):
        with pytest.raises(AttributeError):
            setattr(node, name, fe.Num(1.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == text
    for copied in [copy.deepcopy(node)] + [pickle.loads(pickle.dumps(node, protocol))
                                           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(copied) is cls and copied == node and repr(copied) == text
        assert copied is not node and hash(copied) == hash(node)


def test_nodes_of_two_classes_differ():
    assert fe.Pi() != fe.Norm2() and fe.Num(1.0) != fe.Coord(1)
    assert fe.Num(1) == fe.Num(1.0) and fe.Num(-0.0) == fe.Num(0.0)


def test_a_sum_max_depth_deep_compares_hashes_and_prints():
    """One Python frame per tree level: a tree as deep as the parser allows
    compares, hashes and prints under the default recursion limit."""
    src = "+".join(["x1"] * fe.MAX_DEPTH)
    node, twin = fe.parse(src, 1), fe.parse(src, 1)
    assert node == twin and not node != twin
    assert hash(node) == hash(twin)
    assert node != fe.parse(src + "*x1", 1)
    text = repr(node)
    assert text == repr(twin) and text.count("Bin(op='+'") == fe.MAX_DEPTH - 1


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

# Entries on which a fill's program faults and re-walks, so each must raise
# the walker's EvalError; and a long sum, which must come out bit-identical.
_FAULTING = ("1/(x1-x1)", "sqrt(-1-x1^2)", "arccos(2+x1^2)", "(-1-x1^2)^0.5", "10^400")
_LONG_SUM = "+".join(f"x{i % 3 + 1}*{i}.25" for i in range(400))


def _fill_examples(place):
    """An @example per entry above, at one point; `place(entry)` builds the
    test's first argument around the parsed entry."""
    def decorate(test):
        for src in (*_FAULTING, _LONG_SUM):
            test = example(place(fe.parse(src, 3)), np.array([0.75, -1.5, 2.0]))(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None)
@_fill_examples(lambda e: [[fe.Coord(2), fe.Num(1.0), e], [fe.Num(0.0)] * 3,
                           [fe.Coord(3), fe.Num(0.0), fe.parse("1/(x2-x2)", 3)]])
@given(st.lists(st.lists(_MIXED, min_size=3, max_size=3), min_size=3, max_size=3), _POINT)
def test_literal_fill_phi_matches_tree_walker(cols, x):
    s = StructureField(3, -1, KIND_HERMITIAN, cols)

    def walked(x):
        mat = np.array(_walk(cols, x), dtype=float).T
        expr_oracle.require_finite(mat.T, s.phi_columns, x, "phi_columns")
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
@_fill_examples(lambda e: ((fe.Bin("+", fe.Num(3.0), fe.Bin("^", e, fe.Num(2.0))), fe.Num(0.5),
                            fe.Num(0.0)), (fe.Num(4.0), fe.Call("sin", fe.Coord(1))),
                           (fe.Num(5.0),)))
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
        expr_oracle.require_finite(mat, s.metric_exprs, x, "metric")
        return 0.5 * (mat + mat.T)

    got, got_err = _outcome(s.metric_at, x)
    want, want_err = _outcome(walked, x)
    assert got_err == want_err
    assert want_err is not None or _same(got, want)


@settings(max_examples=150, deadline=None)
@_fill_examples(lambda e: [fe.Coord(1), e, fe.Call("sqrt", fe.Num(-1.0))])
@given(st.lists(_MIXED, min_size=3, max_size=3), _POINT)
def test_literal_fill_vector_field_matches_tree_walker(comps, x):
    field = fe.VectorFieldExpr(comps)

    def walked(x):
        values = np.array(_walk(comps, x), dtype=float)
        expr_oracle.require_finite(values, field.components, x, "vector field")
        return values

    got, got_err = _outcome(field.at, x)
    want, want_err = _outcome(walked, x)
    assert got_err == want_err
    assert want_err is not None or _same(got, want)


def test_literal_fill_does_not_fold_constants():
    """Only bare Num entries are filled once; a constant subexpression such
    as 1/0 is evaluated, and raises, at every point."""
    field = fe.VectorFieldExpr.parse(["1/0", "2"], 2)
    assert field.fill.live == [field.components[0]]
    assert [axis.tolist() for axis in field.fill.where] == [[0]]
    with pytest.raises(EvalError, match="division by zero"):
        field.at(np.zeros(2))


@pytest.mark.parametrize("literal_first", [True, False])
def test_a_non_finite_literal_is_named_in_walk_order(literal_first):
    """A non-finite literal, which the parser never builds, is named like a
    live entry: the first non-finite entry in walk order raises."""
    entries = [fe.Num(math.inf), fe.parse("x1/x2", 2)]
    if not literal_first:
        entries.reverse()
    fill = fe.LiteralFill(entries, (2,), "entry")
    source = "inf" if literal_first else "x1/x2"
    with pytest.raises(EvalError, match=re.escape(
            f"non-finite value inf of entry[0] at [1e+300, 1e-300] in '{source}'")):
        fill.at(np.array([1e300, 1e-300]))


def test_literal_fill_rewalks_what_it_cannot_compile():
    """A point shorter than the highest coordinate used, and a node the parser
    never builds, fault the fill's program at every point; the re-walk raises
    the walker's error."""
    field = fe.VectorFieldExpr(fe.parse(src, 3) for src in ["x1", "x3+1"])
    with pytest.raises(EvalError, match="coordinate x3 beyond point dimension 2"):
        field.at(np.array([1.0, 2.0]))
    field = fe.VectorFieldExpr([fe.Coord(1), fe.Call("tan", fe.Coord(1))])
    with pytest.raises(EvalError, match="unknown function tan"):
        field.at(np.array([1.0, 2.0]))


def test_literal_fill_of_long_entries_matches_the_walker():
    """Three sums of 400 terms: one program of about 2400 rows, whose
    values are the walker's, in order."""
    entries = [fe.parse("+".join(f"x{(i + t) % 3 + 1}*{t}.{i}" for t in range(400)), 3)
               for i in range(3)]
    fill = fe.LiteralFill(entries, (3,), "vector field")
    x = np.array([0.75, -1.5, 2.0])
    assert _same(fill.at(x), np.array(_walk(entries, x)))
    assert len(fill.program().rows) > 2400


# --- Jacobians: tangent rules, literal-0 tangents, the central-difference fallback ---

_POINT3 = np.array([0.7, 1.3, -0.4])
# one entry per tangent rule, and entries sharing subtrees
_SMOOTH = ("x1 + x2", "x1 - x2", "-x3", "x1*x2", "x1/x2", "2/x2", "x1^3", "x2^x1", "2^x3",
           "(x1 + 1)^x2", "sin(x1*x2)", "cos(x3)", "abs(x1 - x2)", "sqrt(x1^2 + 1)",
           "arccos(x1/4)", "norm2", "pi*x3", "(norm2 + 1)/sqrt(2*norm2^2 + 3)",
           "sqrt(2*norm2^2 + 3) - norm2*x1", "3/5 + x1*(2 - 1)")


def _central(fill, x, h=1e-6):
    return np.array([(fill.at(x + h * e) - fill.at(x - h * e)) / (2 * h) for e in np.eye(len(x))])


def _jacobian(field, x, coords, h):
    """A field's Jacobian, checked finite as the connection probe takes it."""
    jac = tangents.fill_jacobian(field.fill, x, coords, h)
    if jac is not None:
        field.fill.require_finite(jac, x, derivative=True)
    return jac


def test_jacobian_matches_central_differences(monkeypatch):
    fallbacks = []
    monkeypatch.setattr(tangents, "_central_difference",
                        lambda fill, x, j, h: fallbacks.append(j))
    entries = [fe.parse(src, 3) for src in _SMOOTH]
    fill = fe.LiteralFill(entries, (len(entries),), "vector field")
    jac = tangents.fill_jacobian(fill, _POINT3, [0, 1, 2], 1e-5)
    assert jac.shape == (3, len(entries))
    np.testing.assert_allclose(jac, _central(fill, _POINT3), rtol=1e-8, atol=1e-8)
    assert not fallbacks
    # a subset of the coordinates, in any order
    np.testing.assert_array_equal(tangents.fill_jacobian(fill, _POINT3, [2, 0], 1e-5),
                                  jac[[2, 0]])


def test_jacobian_compiled_on_first_call_only():
    """The field's fill and its program are built on their first use (here
    `at`); the Jacobian runs the same program, with no second build."""
    field = fe.VectorFieldExpr.parse(["x1*x2", "sin(x3)", "0"], 3)
    assert "fill" not in vars(field)
    field.at(_POINT3)
    program = field.fill._program
    assert program is not None
    jac = _jacobian(field, _POINT3, [0, 1, 2], 1e-5)
    assert field.fill._program is program
    np.testing.assert_allclose(jac, [[1.3, 0, 0], [0.7, 0, 0], [0, math.cos(-0.4), 0]])


def test_constant_fills_have_no_jacobian():
    """Entries free of coordinates have literal-0 tangents: no Jacobian."""
    field = fe.VectorFieldExpr.parse(["3/5", "pi", "1", "sqrt(2)*cos(1)"], 4)
    assert _jacobian(field, np.zeros(4), [0, 1], 1e-5) is None
    assert _jacobian(fe.VectorFieldExpr.parse(["0", "x2"], 2), np.zeros(2), [0], 1e-5) is not None


@pytest.mark.parametrize("src, x", [
    ("abs(x1)", [0.0, 2.0]),                   # abs at 0
    ("x1^x2", [0.0, 2.0]),                     # point-dependent exponent at base 0
    ("(x1 - 1)^x2", [0.0, 2.0]),               # ... and at a negative base
    ("arccos(x1)", [1 + 5e-13, 2.0]),          # an active clamp
    ("sqrt(x1 - x2 + 2)", [0.0, 2.0 + 5e-13]),  # an active clamp
])
def test_faulting_tangents_fall_back_to_central_differences(src, x, monkeypatch):
    """Where a derivative is undefined or a clamp is active, the tangent
    faults and the derivatives along that direction are the central
    difference of `at`, which raises the walker's EvalError where a
    displaced point leaves the domain."""
    x = np.array(x)
    field = fe.VectorFieldExpr.parse([src, "x2*x2"], 2)
    calls = []
    difference = tangents._central_difference

    def counting(fill, x, j, h):
        calls.append(j)
        return difference(fill, x, j, h)

    monkeypatch.setattr(tangents, "_central_difference", counting)
    try:
        want = _central(field.fill, x, h=1e-5)
    except EvalError:
        want = None
    if want is None:
        with pytest.raises(EvalError):
            _jacobian(field, x, [0, 1], 1e-5)
    else:
        np.testing.assert_allclose(_jacobian(field, x, [0, 1], 1e-5), want, rtol=0, atol=1e-9)
    assert calls


def test_abs_at_zero_falls_back_only_along_directions_that_move_it(monkeypatch):
    """At u = 0 the tangent of abs(u) is 0 along a direction that leaves u
    unchanged (|u| moves to second order only); only the direction that
    moves u faults and falls back to the central difference, and the
    Jacobian is the one every direction's fallback gave."""
    field = fe.VectorFieldExpr.parse(["abs(x1)", "x2*x3", "0"], 3)
    x = np.array([0.0, 1.5, -0.5])
    calls = []
    difference = tangents._central_difference

    def counting(fill, x, j, h):
        calls.append(j)
        return difference(fill, x, j, h)

    monkeypatch.setattr(tangents, "_central_difference", counting)
    jac = _jacobian(field, x, [0, 1, 2], 1e-5)
    assert calls == [0]
    np.testing.assert_allclose(jac, _central(field.fill, x, h=1e-5), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(jac[1:], [[0.0, -0.5, 0.0], [0.0, 1.5, 0.0]])


def test_jacobian_of_what_the_fill_cannot_compile_is_the_walkers_error():
    """A node the parser never builds faults the fill's program at every
    point, so every direction falls back; the fallback's walk raises the
    walker's EvalError."""
    field = fe.VectorFieldExpr([fe.Coord(1), fe.Call("tan", fe.Coord(1))])
    with pytest.raises(EvalError, match="unknown function tan"):
        _jacobian(field, np.array([1.0, 2.0]), [0, 1], 1e-5)


def test_sqrt_at_zero_falls_back_into_an_eval_error():
    field = fe.VectorFieldExpr.parse(["sqrt(x1)"], 1)
    assert field.at(np.zeros(1))[0] == 0.0
    with pytest.raises(EvalError, match="sqrt of negative value -1e-05"):
        _jacobian(field, np.zeros(1), [0], 1e-5)


def test_fallback_rejects_a_step_that_does_not_move_the_coordinate():
    field = fe.VectorFieldExpr.parse(["abs(x2 - 2)", "x2"], 2)
    with pytest.raises(SpecError, match=r"fd_step 1e-300 leaves x2 = 2.0 unchanged"):
        _jacobian(field, np.array([0.0, 2.0]), [0, 1], 1e-300)
    # exact tangents need no step
    field = fe.VectorFieldExpr.parse(["x1*x2", "0"], 2)
    np.testing.assert_array_equal(_jacobian(field, np.array([0.0, 2.0]), [0, 1], 1e-300),
                                  [[2.0, 0.0], [0.0, 0.0]])


def test_non_finite_derivative_is_an_eval_error():
    field = fe.VectorFieldExpr.parse(["1/x1", "x2"], 2)
    with pytest.raises(EvalError, match=r"non-finite value -inf of derivative of vector field"):
        _jacobian(field, np.array([1e-200, 1.0]), [0, 1], 1e-5)
