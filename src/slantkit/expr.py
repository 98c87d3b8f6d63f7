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

`LiteralFill` evaluates an array of expressions over a stack of points
through one generated straight-line Python function, compiled on its first
use. The tree walker `_eval` stays the oracle: it serves `evaluate`, the
differential tests compare the compiled fills against it, and a fill whose
compiled code meets a domain fault re-walks its entries with it, so `_eval`
alone raises EvalError.

`LiteralFill.jacobian` differentiates the same entries in forward mode: the
emitter below takes a tangent writer (module `tangents`) that adds a tangent
statement to each value statement.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
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

# Deepest expression tree the parser accepts, in nodes from root to leaf; a
# sum x1+x1+... of MAX_DEPTH terms is that deep. _eval, to_source and the fill
# emitter recurse once per tree level, the parser three times per level of
# parentheses, function argument or exponent; those nest at most
# MAX_DEPTH // 6 deep. Both bounds keep every recursion well under CPython's
# default limit of 1000 frames.
MAX_DEPTH = 600
# One token per match: a number, a word (an identifier, or a run of Unicode
# digits and letters that no identifier starts with) or any other non-space
# character. No match starts at a space, so findall skips spaces. \S and \w
# test each character as `not str.isspace` and `str.isalnum or "_"` do; only
# the ASCII 0-9 are digits of a number or a coordinate.
_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]*|\w+|\S")
_COORD = re.compile(r"x[0-9]+")


class _Parser:
    """Recursive descent over the tokens of `_TOKEN`; each method returns
    (node, height), the height counting nodes from the returned one down to
    its deepest leaf. Token offsets are found only for an error."""

    def __init__(self, src: str, tokens: list[str], n: int):
        self.src = src
        self.tokens = tokens + [""]  # "": the end of input
        self.n = n
        self.i = 0  # the next token
        self.nesting = 0  # factor() calls under way

    def error(self, message: str, i: int, end: bool = False) -> ParseError:
        """ParseError at the start of token i, or at its end; at the end of
        the input past the last token."""
        if i >= len(self.tokens) - 1:
            return ParseError(message, len(self.src))
        start = [m.start() for m in _TOKEN.finditer(self.src)][i]
        return ParseError(message, start + len(self.tokens[i]) if end else start)

    def node(self, e: Expr, *child_heights: int, closed: bool = False) -> tuple[Expr, int]:
        """An operation node with its height; leaves have height 1. Too deep,
        the error stands at the next token, or after a `closed` call's ')'."""
        height = 1 + max(child_heights)
        if height > MAX_DEPTH:
            raise self.error("expression nested too deeply", self.i - closed, closed)
        return e, height

    def expect(self, tok: str):
        if self.tokens[self.i] != tok:
            raise self.error(f"expected {tok!r}", self.i)
        self.i += 1

    def parse(self) -> Expr:
        e, _ = self.expr()
        if self.tokens[self.i]:
            raise self.error("trailing input", self.i)
        return e

    def expr(self) -> tuple[Expr, int]:
        left, height = self.term()
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            right, right_height = self.term()
            left, height = self.node(Bin(op, left, right), height, right_height)
        return left, height

    def term(self) -> tuple[Expr, int]:
        left, height = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            right, right_height = self.factor()
            left, height = self.node(Bin(op, left, right), height, right_height)
        return left, height

    def factor(self) -> tuple[Expr, int]:
        """factor := '-'? atom ('^' factor)?, the atom read in place. Every
        recursion of the grammar passes through here: a parenthesis or
        function argument by way of expr and term, an exponent directly; a
        nesting error stands right after the '(' or operator just read."""
        if self.nesting > MAX_DEPTH // 6:
            raise self.error("expression nested too deeply", self.i - 1, end=True)
        self.nesting += 1
        tokens = self.tokens
        negate = tokens[self.i] == "-"
        self.i += negate
        tok, at = tokens[self.i], self.i
        self.i += 1
        if not tok:
            raise self.error("unexpected end of input", at)
        if tok == "(":
            base, height = self.expr()
            self.expect(")")
        elif tok[0] in "0123456789.":
            if tok == ".":
                raise self.error("malformed number", at)
            if not math.isfinite(value := float(tok)):
                # Num(inf) would render as "inf", which is outside the grammar
                raise self.error("number literal overflows a double", at)
            base, height = Num(value), 1
        elif tok == "pi":
            base, height = Pi(), 1
        elif tok == "norm2":
            base, height = Norm2(), 1
        elif tok in FUNCTIONS:
            if tokens[self.i] != "(":
                raise self.error(f"function {tok!r} needs an argument list", at)
            self.i += 1
            arg, height = self.expr()
            self.expect(")")
            base, height = self.node(Call(tok, arg), height, closed=True)
        elif _COORD.fullmatch(tok):
            digits = tok[1:].lstrip("0")    # int() refuses a string of over 4300 digits
            if len(digits) > len(str(self.n)) or not 1 <= (idx := int(digits or "0")) <= self.n:
                shown = tok if len(tok) <= 32 else f"{tok[:32]}... ({len(tok)} characters)"
                raise self.error(f"coordinate {shown} out of range 1..{self.n}", at)
            base, height = Coord(idx), 1
        elif tok[0].isalpha() or tok[0] == "_":
            raise self.error(f"unknown identifier {tok!r}", at)
        else:
            raise self.error(f"unexpected character {tok[0]!r}", at)
        if tokens[self.i] == "^":
            self.i += 1
            exponent, exponent_height = self.factor()
            base, height = self.node(Bin("^", base, exponent), height, exponent_height)
        if negate:
            base, height = self.node(Neg(base), height)
        self.nesting -= 1
        return base, height


def parse(src: str, n: int) -> Expr:
    """Parse `src` as a scalar field over x1..xn."""
    tokens = _TOKEN.findall(src) if isinstance(src, str) else []
    if not tokens:
        raise ParseError("empty expression", 0)
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    # a bare literal is read here; its errors (overflow) are the parser's
    if len(tokens) == 1 and tokens[0][0] in "0123456789" and math.isfinite(v := float(tokens[0])):
        return Num(v)
    return _Parser(src, tokens, n).parse()


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
    """Evaluate at a point given by its coordinate array (n,)."""
    coords = np.asarray(point, dtype=float)
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


def _sqrt(v: float) -> float:
    """_eval's clamped sqrt; ValueError where _eval raises EvalError."""
    if v < -SQRT_CLAMP:
        raise ValueError(v)
    return math.sqrt(max(v, 0.0))


def _acos(v: float) -> float:
    """_eval's clamped arccos; ValueError where _eval raises EvalError."""
    if abs(v) > 1.0 + ARCCOS_CLAMP:
        raise ValueError(v)
    return math.acos(min(1.0, max(-1.0, v)))


# The compiled fill's whole vocabulary: each walker operation as Python source
# over operands that are locals, literals or coordinates. math.sin and math.cos
# raise ValueError on inf and math.pow raises ValueError or OverflowError
# exactly where _eval raises EvalError; Python's float '/' raises
# ZeroDivisionError exactly where _eval's divisor check does.
_BINARY = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "pow({}, {})"}
_CALLS = {"sqrt": "_sqrt", "abs": "abs", "sin": "sin", "cos": "cos", "arccos": "_acos"}
_GLOBALS = {"pow": math.pow, "sin": math.sin, "cos": math.cos, "_sqrt": _sqrt, "_acos": _acos}
# What a compiled fill raises on a domain fault, including an IndexError for
# a point shorter than its highest coordinate.
_FAULTS = (ArithmeticError, ValueError, IndexError)


class _Emitter:
    """Writes straight-line Python for a list of expressions: one statement
    per distinct operation, each operand evaluated before it as in _eval, so
    every float operation matches the walker's. Identical subtrees share one
    local, because evaluation is pure; the entries of a fill repeat most of
    their subexpressions, so this cuts the statements to compile several-fold.
    The source holds only float literals (repr), coordinate indices and the
    names of _GLOBALS.

    A `tangents` writer, when given, sees each new value statement (its
    `emitted`) and writes the generated function (its `function`)."""

    def __init__(self, tangents):
        self.lines: list[str] = []
        self.locals: dict[str, str] = {}  # right-hand side -> its local
        self.uses_norm2 = False
        self.tangents = tangents

    def size(self) -> int:
        """Statements written so far."""
        return len(self.lines) + (0 if self.tangents is None else self.tangents.size())

    def operand(self, e: Expr) -> str:
        """Python source for the value of `e`: a literal, a coordinate, or
        the local holding it, whose statement is appended when new."""
        if isinstance(e, Num) and type(e.value) is float and math.isfinite(e.value):
            return repr(e.value)
        if isinstance(e, Coord) and type(e.index) is int:
            return f"c[{e.index - 1}]"
        if isinstance(e, Pi):
            return repr(math.pi)
        if isinstance(e, Norm2):
            self.uses_norm2 = True
            return "n2"
        if isinstance(e, Neg):
            args = ("neg", self.operand(e.operand))
            value = "-" + args[1]
        elif isinstance(e, Bin) and e.op in _BINARY:
            args = (e.op, self.operand(e.left), self.operand(e.right))
            value = _BINARY[e.op].format(*args[1:])
        elif isinstance(e, Call) and e.func in _CALLS:
            args = (e.func, self.operand(e.arg))
            value = f"{_CALLS[e.func]}({args[1]})"
        else:
            # not a node the parser builds: fault, so that _eval decides
            self.lines.append("raise ValueError")
            return "None"
        if value not in self.locals:
            self.locals[value] = name = f"t{len(self.locals)}"
            self.lines.append(f"{name} = {value}")
            if self.tangents is not None:
                self.tangents.emitted(name, args)
        return self.locals[value]


# Statements per generated function, about. CPython's compiler holds a whole
# source in memory at once (about 3.5 kB per statement on CPython 3.11), so a
# fill of many long entries is compiled as several functions, each ending at
# an entry boundary.
_CHUNK_STATEMENTS = 1000


def _compile(entries, tangents: type | None) -> list[tuple[Callable | None, int]]:
    """(function, number of entries) per run of entries, in order: functions
    x -> [value of each entry at x], or a `tangents` writer's functions when
    its type is given. Their code nests no expressions, so no entry can
    exceed CPython's parser limits."""

    def emitter():
        return _Emitter(None if tangents is None else tangents())

    parts, current, results = [], emitter(), []
    for e in entries:
        results.append(current.operand(e))
        if current.size() >= _CHUNK_STATEMENTS:
            parts.append((_function(current, results), len(results)))
            current, results = emitter(), []
    if results:
        parts.append((_function(current, results), len(results)))
    return parts


def _function(emitter: _Emitter, results: list[str]) -> Callable | None:
    if emitter.tangents is not None:
        return emitter.tangents.function(emitter, results)
    body = ["c = x.tolist()"]
    if emitter.uses_norm2:
        body.append("n2 = float(x @ x)")
    body += emitter.lines
    body.append(f"return [{', '.join(results)}]")
    return _define("def fill(x):\n" + "".join(f"    {line}\n" for line in body), _GLOBALS)


def _define(source: str, scope: dict) -> Callable:
    """The function `fill` that `source` defines, with the names of `scope`."""
    scope = dict(scope)
    exec(compile(source, "<slantkit.expr.LiteralFill>", "exec"), scope)
    return scope["fill"]


class LiteralFill:
    """Evaluates an array of expressions of `shape` at each point of a stack
    x (..., n) as (..., *shape); a point (n,) is a stack of one. Bare `Num`
    entries are copied from an array built once. The other entries run as
    one compiled function, built on the first `at` and called once per point,
    their values scattered into the stack at once; on a domain fault at a
    point `at` discards its values there and walks the same entries in the
    order given, so the error is `_eval`'s. Constant subexpressions are not
    folded, so `1/0` still raises EvalError when it is evaluated. `jacobian`
    compiles its tangent code on its own first call.

    `items` yields (index into an array of `shape`, expression)."""

    __slots__ = ("literals", "live", "_where", "_parts", "_tangent_parts")

    def __init__(self, shape: tuple[int, ...], items):
        self.literals = np.zeros(shape)
        self.live = []
        for idx, entry in items:
            if isinstance(entry, Num):
                self.literals[idx] = entry.value
            else:
                self.live.append((idx, entry))
        self._parts = self._tangent_parts = None

    def _build(self, tangents: type | None) -> list[tuple[Callable | None, int]]:
        self._where = tuple(np.array(axis) for axis in zip(*(idx for idx, _ in self.live)))
        return _compile([entry for _, entry in self.live], tangents)

    def at(self, x: np.ndarray) -> np.ndarray:
        xs = x.reshape(-1, x.shape[-1])
        out = np.repeat(self.literals[None], len(xs), axis=0)
        if self.live and len(xs):
            if self._parts is None:
                self._parts = [part for part, _ in self._build(None)]
            values = []
            for xp in xs:
                try:
                    row = []
                    for part in self._parts:
                        row += part(xp)
                except _FAULTS:
                    row = [_eval(entry, xp) for _, entry in self.live]
                values.append(row)
            out[(slice(None),) + self._where] = values
        return out.reshape(x.shape[:-1] + self.literals.shape)

    def jacobian(self, x: np.ndarray, coords, h: float) -> np.ndarray | None:
        """Derivatives of the entries at x along the coordinate directions
        `coords` (0-based): (len(coords), *shape), or None when no entry
        depends on the point (`tangents.fill_jacobian`, h the step of its
        central-difference fallback)."""
        from .tangents import fill_jacobian
        return fill_jacobian(self, x, coords, h)


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
        """The field at a point (n,), or at each point of a stack (..., n)."""
        x = np.asarray(point, dtype=float)
        values = self._fill.at(x)
        require_finite(values, self.components, x, "vector field")
        return values

    def jacobian(self, x: np.ndarray, coords, h: float) -> np.ndarray | None:
        """Derivatives (len(coords), n) along the coordinates `coords`
        (0-based), or None where the field is constant (`LiteralFill.jacobian`)."""
        jac = self._fill.jacobian(x, coords, h)
        if jac is not None:
            require_finite(jac.T, self.components, x, "derivative of vector field")
        return jac

    def is_zero_component(self, index: int) -> bool:
        """True when component `index` (0-based) is the literal constant 0."""
        c = self.components[index]
        return isinstance(c, Num) and c.value == 0.0

    def to_sources(self) -> list[str]:
        return [to_source(c) for c in self.components]
