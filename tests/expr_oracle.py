"""The recursive-descent parser that `slantkit.expr.parse` replaced, kept as
the oracle of the differential parser tests, and the finiteness check that
`LiteralFill.require_finite` replaced, kept as the oracle of its names.

The parser reads the grammar of `slantkit.expr` one character at a time,
through `peek` and `skip_ws`, and builds the same frozen nodes. `parse` here
is the grammar alone: no bare-literal shortcut. `require_finite` walks the
spec's own nesting of entries (phi's columns, the metric's rows, a field's
components), given the values in that nesting.
"""

import math

import numpy as np

from slantkit.errors import DimensionError, EvalError, ParseError
from slantkit.expr import (FUNCTIONS, MAX_DEPTH, Bin, Call, Coord, Expr, Neg, Norm2, Num, Pi,
                           to_source)

_DIGITS = frozenset("0123456789")    # str.isdigit would take any Unicode digit


class _Parser:
    """Recursive descent; each method returns (node, height), the height
    counting nodes from the returned one down to its deepest leaf."""

    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.pos = 0
        self.nesting = 0  # factor() calls under way

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def node(self, e: Expr, *child_heights: int) -> tuple[Expr, int]:
        """An operation node with its height; leaves have height 1."""
        height = 1 + max(child_heights)
        if height > MAX_DEPTH:
            raise self.error("expression nested too deeply")
        return e, height

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.src):
            raise self.error("empty expression")
        e, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.error("trailing input")
        return e

    def expr(self) -> tuple[Expr, int]:
        left, height = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op in ("+", "-"):
                self.pos += 1
                right, right_height = self.term()
                left, height = self.node(Bin(op, left, right), height, right_height)
            else:
                return left, height

    def term(self) -> tuple[Expr, int]:
        left, height = self.factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op in ("*", "/"):
                self.pos += 1
                right, right_height = self.factor()
                left, height = self.node(Bin(op, left, right), height, right_height)
            else:
                return left, height

    def factor(self) -> tuple[Expr, int]:
        # every recursion of the grammar passes through here: a parenthesis
        # or function argument by way of expr and term, an exponent directly
        if self.nesting > MAX_DEPTH // 6:
            raise self.error("expression nested too deeply")
        self.nesting += 1
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            operand, height = self.power()
            result = self.node(Neg(operand), height)
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            exponent, exponent_height = self.factor()
            return self.node(Bin("^", base, exponent), height, exponent_height)
        return base, height

    def atom(self) -> tuple[Expr, int]:
        self.skip_ws()
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            result = self.expr()
            self.skip_ws()
            self.expect(")")
            return result
        if ch in _DIGITS or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        raise self.error(f"unexpected character {ch!r}")

    def number(self) -> tuple[Expr, int]:
        start = self.pos
        while self.peek() in _DIGITS:
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            while self.peek() in _DIGITS:
                self.pos += 1
        text = self.src[start:self.pos]
        if text in ("", "."):
            self.pos = start
            raise self.error("malformed number")
        value = float(text)
        if not math.isfinite(value):
            # Num(inf) would render as "inf", which is outside the grammar
            self.pos = start
            raise self.error("number literal overflows a double")
        return Num(value), 1

    def identifier(self) -> tuple[Expr, int]:
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.src[start:self.pos]
        if name == "pi":
            return Pi(), 1
        if name == "norm2":
            return Norm2(), 1
        if name in FUNCTIONS:
            self.skip_ws()
            if self.peek() != "(":
                self.pos = start
                raise self.error(f"function {name!r} needs an argument list")
            self.pos += 1
            arg, height = self.expr()
            self.skip_ws()
            self.expect(")")
            return self.node(Call(name, arg), height)
        if name[:1] == "x" and name[1:] and set(name[1:]) <= _DIGITS:
            idx = int(name[1:])
            if not 1 <= idx <= self.n:
                self.pos = start
                shown = name if len(name) <= 32 else f"{name[:32]}... ({len(name)} characters)"
                raise self.error(f"coordinate {shown} out of range 1..{self.n}")
            return Coord(idx), 1
        self.pos = start
        raise self.error(f"unknown identifier {name!r}")


def parse(src: str, n: int) -> Expr:
    """Parse `src` as a scalar field over x1..xn."""
    if not isinstance(src, str) or not src.strip():
        raise ParseError("empty expression", 0)
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    return _Parser(src, n).parse()


def require_finite(values: np.ndarray, entries, x: np.ndarray, label: str):
    """Raise EvalError naming the first non-finite entry of an assembled
    array at x (n,), or over a stack x (..., n) that leads `values`, point by
    point; `entries` holds its expressions, indexed like the rest of `values`
    (a Jacobian's trailing derivative axis indexes no expression)."""
    if np.isfinite(values).all():
        return
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    lead, entry = x.ndim - 1, entries
    for i in idx[lead:]:
        if not isinstance(entry, (tuple, list)):
            break
        entry = entry[i]
    where = "".join(f"[{i}]" for i in idx[lead:])
    raise EvalError(f"non-finite value {values[idx]} of {label}{where} at "
                    f"{x[idx[:lead]].tolist()}", to_source(entry))
