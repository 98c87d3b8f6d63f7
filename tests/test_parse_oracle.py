"""The tokenizing parser of `slantkit.expr` against the character-by-character
parser it replaced, kept in `expr_oracle`: on every input both give the same
tree, or an error of the same type with the same message and offset. The
inputs are C8's corpora, the parser cases of test_expr.py and generated text.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slantkit import expr as fe

import expr_oracle
from test_acceptance import INVALID_CORPUS, VALID_CORPUS
from test_expr import _FAULTING, _LONG_SUM, _SMOOTH


def outcome(parse, src, n):
    """The tree's repr (which tells -0.0 from 0.0), or the error's type,
    message and offset."""
    try:
        return repr(parse(src, n))
    except Exception as exc:  # noqa: BLE001 - any difference is a finding
        return type(exc), str(exc), getattr(exc, "offset", None)


def assert_agrees(src, n=4):
    assert outcome(fe.parse, src, n) == outcome(expr_oracle.parse, src, n), src


def test_c8_corpora_agree():
    for src in VALID_CORPUS + INVALID_CORPUS:
        assert_agrees(src)


_DEPTH, _LEVELS = fe.MAX_DEPTH, fe.MAX_DEPTH // 6
# The parser cases of test_expr.py, with n as they use it.
_EXPR_CASES = [
    ("x1 + 2*x2", 2), ("(norm2 + 1)/sqrt(2*norm2^2 + 2*norm2 + 2)", 4), ("x9", 4),
    ("2 + 3*4", 1), ("2*3^2", 1), ("-2^2", 1), ("2^-2", 1), ("2^3^2", 1), ("8/4/2", 1),
    ("1 - 2 - 3", 1), ("x1 + $", 2), ("norm2", 2), ("sqrt(norm2^2 + 4)", 2),
    ("(norm2 + 0)/sqrt(norm2^2 + 0*norm2 + 1)", 3), ("1/x1", 1), ("sqrt(x1)", 1),
    ("arccos(x1)", 1), ("cos(pi)", 1), ("x2", 3), ("-(x1)", 3), ("0", 3), ("1/0", 2),
    ("1" + "0" * 400, 1), ("x1 + " + "1" + "0" * 400, 1), ("x1 + " + "9" * 309 + ".5", 1),
    ("x1 + 1" + "0" * 308, 1), ("x1*1" + "0" * 200 + "*1" + "0" * 200, 1),
    ("x" + "1" * 31, 3), ("1 + x" + "9" * 32, 3), ("x" + "0" * 40 + "7", 3),
    *[(src, 3) for src in ("\u00b2", "x1\u00b2", "x\u00b2", "1 + \u0663", "x\u0661",
                           "2\u00b2", "\uff11")],
    *[(src, 2) for src in (".", "1.", ".5", " 0 ", "0", "007", "12.50", "\t3.25\n", "1e3",
                           "0x1", "-0", "1_0", "1" * 400, "  " + "9" * 400 + ".5",
                           "0." + "1" * 400, "\u00b2", "\u0663", "1 .5", "+1", "1..2",
                           "\u20031\u2003")],
    *[(src, 3) for src in (*_FAULTING, _LONG_SUM, *_SMOOTH)],
    *[(form(k), 1) for k in (_LEVELS, _LEVELS + 1)
      for form in (lambda k: "(" * k + "x1" + ")" * k, lambda k: "sin(" * k + "x1" + ")" * k,
                   lambda k: "x1^" * k + "x1")],
    *[("+".join(["x1"] * k), 1) for k in (_DEPTH, _DEPTH + 1)],
]


@pytest.mark.parametrize("src, n", _EXPR_CASES)
def test_expr_cases_agree(src, n):
    assert_agrees(src, n)


def test_tokenizer_classes_are_the_oracles_character_tests():
    """The oracle tests each character with str.isspace and str.isalnum;
    the tokenizer's \\S and \\w must pick the same characters, on every code
    point of this Python's Unicode tables."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\S", every) == [c for c in every if not c.isspace()]
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]


# Pieces of valid and invalid text: every token kind, spacing (Unicode too),
# non-ASCII digits and letters, and the literals that overflow a double.
_PIECES = ("x1", "x2", "x3", "x4", "x0", "x", "x01", "1", "0", "2.5", ".", ".5", "3.", "007",
           "pi", "norm2", "Pi", "sin", "cos", "sqrt", "abs", "arccos", "foo", "_a", "\u00e9",
           "(", ")", "(", ")", "+", "-", "*", "/", "^", "-", "^", ",", "$", "[", " ", "  ",
           "\t", "\n", "\u2003", "\u00a0", "\u00b2", "\u0663", "\uff11", "1" * 400,
           "0." + "9" * 400)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join), st.integers(1, 4))
def test_token_soup_agrees(src, n):
    assert_agrees(src, n)


@settings(max_examples=300, deadline=None)
@example("")
@example("\u2003")
@given(st.text())
def test_arbitrary_text_agrees(src):
    assert_agrees(src, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(_LEVELS - 2, _LEVELS + 2),
       st.sampled_from(["({}", "sin({}", "-({}", "x1{}^{}", "x1^-{}", "abs{}({}", "-x1^{}"]),
       st.sampled_from(["", " ", "\t ", "\u2003"]), st.booleans())
def test_nesting_bound_agrees(k, opener, space, closed):
    """Error offsets at the nesting bound: right after the '(' or operator
    before the factor one level too deep, wherever spaces fall."""
    tail = (space + ")") * k if "(" in opener and closed else ""
    assert_agrees(opener.replace("{}", space) * k + space + "x1" + tail, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(_DEPTH - 3, _DEPTH + 2), st.sampled_from("+-*/"),
       st.sampled_from(["", " ", "\u2003"]), st.sampled_from(["{}", "sin({})", "-{}", "({})^2"]))
def test_depth_bound_agrees(k, op, space, wrap):
    """Error offsets at the depth bound: the next token after the operand
    that made a node too deep, or right after a call's ')'."""
    assert_agrees(wrap.format((space + op + space).join(["x1"] * k)) + space, 1)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.one_of(st.sampled_from(["x1", "x2", "pi", "norm2", "0", "2.5", "x7"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
        inner.map(lambda e: f"({e})"), inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(fe.FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})")),
    max_leaves=20), st.sampled_from(["", " ", "\u2003"]))
def test_generated_expressions_agree(src, space):
    assert_agrees(src.replace("(", "(" + space).replace("+", space + "+"), 3)
