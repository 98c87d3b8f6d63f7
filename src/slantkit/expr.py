"""Scalar-field expression language in coordinates x1..xn.

Grammar (whitespace insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?          # '^' right-associative
    atom   := number | 'pi' | 'norm2' | coord | func '(' expr ')' | '(' expr ')'
    coord  := 'x' digits                  # 1-based, must be <= n
    func   := 'sqrt' | 'abs' | 'sin' | 'cos' | 'arccos'

`norm2` is a nullary identifier denoting the squared euclidean norm of the
evaluation point. Parsed expressions are immutable and safe to share across
threads; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvalError, ParseError

FUNCTIONS = ("sqrt", "abs", "sin", "cos", "arccos")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 1-based


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Norm2:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Coord | Pi | Norm2 | Neg | Bin | Call

ScalarFieldExpr = Expr  # the domain-type name used by the other modules


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

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
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.error("trailing input")
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op in ("+", "-"):
                self.pos += 1
                left = Bin(op, left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op in ("*", "/"):
                self.pos += 1
                left = Bin(op, left, self.factor())
            else:
                return left

    def factor(self) -> Expr:
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.skip_ws()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        raise self.error(f"unexpected character {ch!r}")

    def number(self) -> Num:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            while self.peek().isdigit():
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
        return Num(value)

    def identifier(self) -> Expr:
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.src[start:self.pos]
        if name == "pi":
            return Pi()
        if name == "norm2":
            return Norm2()
        if name in FUNCTIONS:
            self.skip_ws()
            if self.peek() != "(":
                self.pos = start
                raise self.error(f"function {name!r} needs an argument list")
            self.pos += 1
            arg = self.expr()
            self.skip_ws()
            self.expect(")")
            return Call(name, arg)
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.n:
                self.pos = start
                raise self.error(f"coordinate {name} out of range 1..{self.n}")
            return Coord(idx)
        self.pos = start
        raise self.error(f"unknown identifier {name!r}")


def parse(src: str, n: int) -> Expr:
    """Parse `src` as a scalar field over x1..xn."""
    if not isinstance(src, str) or not src.strip():
        raise ParseError("empty expression", 0)
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    return _Parser(src, n).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_source(e: Expr) -> str:
    """Render an AST back to grammar-conforming text; parse(to_source(e))
    is structurally equal to e."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        # positional (no exponent) so the literal stays inside the grammar;
        # unique=True keeps the shortest digits that round-trip exactly
        return np.format_float_positional(e.value, unique=True, trim="-")
    if isinstance(e, Coord):
        return f"x{e.index}"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Norm2):
        return "norm2"
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        # unary minus binds between '*' and '^'; its operand is a power
        text = "-" + _render(e.operand, 4)
        return f"({text})" if parent_prec > 3 else text
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        if e.op == "^":
            # right-associative: left child is an atom, right child a factor
            text = _render(e.left, prec + 1) + "^" + _render(e.right, 3)
        else:
            # left-associative: right child needs one more binding level
            text = _render(e.left, prec) + e.op + _render(e.right, prec + 1)
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an expression node: {e!r}")


ARCCOS_CLAMP = 1e-12
SQRT_CLAMP = 1e-12


def evaluate(e: Expr, point) -> float:
    """Evaluate at an AmbientPoint or a plain coordinate array."""
    coords = np.asarray(getattr(point, "coords", point), dtype=float)
    return _eval(e, coords)


def _eval(e: Expr, x: np.ndarray) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Coord):
        if e.index > x.shape[0]:
            raise EvalError(f"coordinate x{e.index} beyond point dimension {x.shape[0]}")
        return float(x[e.index - 1])
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Norm2):
        return float(x @ x)
    if isinstance(e, Neg):
        return -_eval(e.operand, x)
    if isinstance(e, Call):
        v = _eval(e.arg, x)
        if e.func == "sqrt":
            if v < -SQRT_CLAMP:
                raise EvalError(f"sqrt of negative value {v}", to_source(e))
            return math.sqrt(max(v, 0.0))
        if e.func == "abs":
            return abs(v)
        if e.func in ("sin", "cos") and math.isinf(v):
            raise EvalError(f"{e.func} of {v}", to_source(e))
        if e.func == "sin":
            return math.sin(v)
        if e.func == "cos":
            return math.cos(v)
        if e.func == "arccos":
            if abs(v) > 1.0 + ARCCOS_CLAMP:
                raise EvalError(f"arccos argument {v} out of [-1, 1]", to_source(e))
            return math.acos(min(1.0, max(-1.0, v)))
        raise EvalError(f"unknown function {e.func}", to_source(e))
    if isinstance(e, Bin):
        a = _eval(e.left, x)
        b = _eval(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero", to_source(e))
            return a / b
        if e.op == "^":
            try:
                return math.pow(a, b)
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"power undefined: {a}^{b} ({exc})", to_source(e)) from None
        raise EvalError(f"unknown operator {e.op}", to_source(e))
    raise TypeError(f"not an expression node: {e!r}")


def require_finite(values: np.ndarray, entries, x: np.ndarray, label: str):
    """Raise EvalError naming the first non-finite entry of an assembled
    array; `entries` holds its expressions, indexed like `values`."""
    if np.isfinite(values).all():
        return
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    entry = entries
    for i in idx:
        entry = entry[i]
    where = "".join(f"[{i}]" for i in idx)
    raise EvalError(f"non-finite value {values[idx]} of {label}{where} at {x.tolist()}",
                    to_source(entry))


class LiteralFill:
    """Evaluates an array of expressions at points. Bare `Num` entries are
    copied from an array built once; only the other entries are walked per
    point, in the order given. Constant subexpressions are not folded, so
    `1/0` still raises EvalError when it is evaluated.

    `items` yields (index into an array of `shape`, expression)."""

    __slots__ = ("literals", "live")

    def __init__(self, shape: tuple[int, ...], items):
        self.literals = np.zeros(shape)
        self.live = []
        for idx, entry in items:
            if isinstance(entry, Num):
                self.literals[idx] = entry.value
            else:
                self.live.append((idx, entry))

    def at(self, x: np.ndarray) -> np.ndarray:
        out = self.literals.copy()
        for idx, entry in self.live:
            out[idx] = _eval(entry, x)
        return out


class VectorFieldExpr:
    """A vector field with one scalar expression per ambient coordinate."""

    __slots__ = ("components", "_fill")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise DimensionError("a vector field needs at least one component")
        self.components = comps
        self._fill = LiteralFill((len(comps),), (((i,), c) for i, c in enumerate(comps)))

    @classmethod
    def parse(cls, sources, n: int) -> "VectorFieldExpr":
        sources = list(sources)
        if len(sources) != n:
            raise DimensionError(f"vector field needs {n} components, got {len(sources)}")
        return cls(parse(s, n) for s in sources)

    @property
    def n(self) -> int:
        return len(self.components)

    def at(self, point) -> np.ndarray:
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        values = self._fill.at(x)
        require_finite(values, self.components, x, "vector field")
        return values

    def is_zero_component(self, index: int) -> bool:
        """True when component `index` (0-based) is the literal constant 0."""
        c = self.components[index]
        return isinstance(c, Num) and c.value == 0.0

    def to_sources(self) -> list[str]:
        return [to_source(c) for c in self.components]
