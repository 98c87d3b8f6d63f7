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
evaluation point. Parsed expressions are trees of the node classes below,
which share a base class (`_Node`) that makes them immutable, so a tree is
safe to share across threads; evaluation is pure.

`LiteralFill` evaluates an array of expressions (phi, the metric, xi, or all
of a decomposition's fields: one fill each) over a stack of points. It is
built from its entries in walk order (phi column by column, the fields field
by field, the metric row by row): its literal entries form one table, built
by one array call and never evaluated, and the distinct trees of the others
run as one straight-line program, a table of operations built on first use
and run over the whole stack, one array operation per row. The parses of one
spec share equal subtrees, which the program walks once. No spec text
becomes Python code. The tree walker `_eval` stays the oracle: it serves
`evaluate`, and a point at which the program faults is walked instead, so
`_eval` alone raises a domain error. Each fill knows the spec name of its
entries, and it alone raises for a non-finite value or derivative, naming
the entry and the point. `tangents.fill_jacobian` runs the same table
forward over points and directions.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from functools import cached_property

import numpy as np

from .errors import DimensionError, EvalError, ParseError

FUNCTIONS = ("sqrt", "abs", "sin", "cos", "arccos")


_set = object.__setattr__


class _Node:
    """Base of the tree nodes: each class names its fields in `__slots__`.
    A node is immutable and behaves like a frozen dataclass: it equals only
    a node of its own class with equal fields, hashes as the tuple of its
    fields, prints as `Bin(op='+', left=Coord(index=1), right=Num(value=2.0))`,
    and pickles and copies through its constructor. The classes are written
    out because a dataclass compiles its generated methods at every import
    of the module, which every spec load pays.

    `==`, `hash` and `repr` recurse by direct Python calls, one frame per
    tree level, so a tree MAX_DEPTH deep stays within the default recursion
    limit. A call from C, such as the tuple hash asking a child for its
    hash, costs CPython 3.11 two levels of that limit; so a node keeps its
    hash once computed (`_hash`), and computes its children's first. Two
    threads that compute it at once store the same value."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self, other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        for value in self._fields():
            if isinstance(value, _Node):
                value.__hash__()
        _set(self, "_hash", hash(self._fields()))
        return self._hash

    def __repr__(self):
        return _text(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


def _same(a: _Node, b: _Node) -> bool:
    """Whether two nodes of one class have equal fields, compared as tuples
    compare them (identity first); a child of the same class by recursion."""
    for x, y in zip(a._fields(), b._fields()):
        if x is y:
            continue
        if isinstance(x, _Node) and x.__class__ is y.__class__:
            if not _same(x, y):
                return False
        elif x != y:
            return False
    return True


def _text(e: _Node) -> str:
    parts = []
    for name in e.__slots__:
        value = getattr(e, name)
        parts.append(f"{name}={_text(value) if isinstance(value, _Node) else repr(value)}")
    return f"{e.__class__.__qualname__}({', '.join(parts)})"


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Coord(_Node):
    __slots__ = ("index",)  # 1-based

    def __init__(self, index: int):
        _set(self, "index", index)


class Pi(_Node):
    __slots__ = ()


class Norm2(_Node):
    __slots__ = ()


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)


class Bin(_Node):
    __slots__ = ("op", "left", "right")  # op: one of + - * / ^

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(_Node):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        _set(self, "func", func)
        _set(self, "arg", arg)


Expr = Num | Coord | Pi | Norm2 | Neg | Bin | Call

# Deepest expression tree the parser accepts, in nodes from root to leaf; a
# sum x1+x1+... of MAX_DEPTH terms is that deep. _eval, to_source, the fill
# program's builder and a node's ==, hash and repr recurse once per tree level,
# the parser four times per level of parentheses or function argument and
# twice per exponent; those nest at most MAX_DEPTH // 6 deep. Both bounds keep
# every recursion well under CPython's default limit of 1000 frames.
MAX_DEPTH = 600
# One token per match: an operator or parenthesis (tried first, as the most
# common), a number, a word (an identifier, or a run of Unicode digits and
# letters that no identifier starts with) or any other non-space character.
# No match starts at a space, so findall skips spaces. \S and \w test each
# character as `not str.isspace` and `str.isalnum or "_"` do; only the ASCII
# 0-9 are digits of a number or a coordinate.
_TOKEN = re.compile(r"[-+*/^()]|[0-9]+(?:\.[0-9]*)?|\.[0-9]*|\w+|\S")
_COORD = re.compile(r"x[0-9]+")


class _Parser:
    """Precedence climbing over the tokens of `_TOKEN`: `expr` reads the sums
    and products of one level in one loop, and `factor` a signed power,
    recursing only into a parenthesis, a function argument or an exponent.
    Each returns (node, height), the height counting nodes from the returned
    one down to its deepest leaf; a node too deep is an error at the next
    token, or right after a call's ')'. A node equal to one in `nodes` is
    that node: a leaf is keyed by its token, an operation by its op and its
    operands' identities. Token offsets are found only for an error."""

    def __init__(self, src: str, tokens: list[str], n: int, nodes: dict):
        self.src = src
        self.tokens = tokens + [""]  # "": the end of input
        self.n = n
        self.nodes = nodes
        self.i = 0  # the next token
        self.nesting = 0  # parentheses, function arguments and exponents open
        self.deepest = 0  # the most of them open at once so far

    def error(self, message: str, i: int, end: bool = False) -> ParseError:
        """ParseError at the start of token i, or at its end; at the end of
        the input past the last token."""
        if i >= len(self.tokens) - 1:
            return ParseError(message, len(self.src))
        start = [m.start() for m in _TOKEN.finditer(self.src)][i]
        return ParseError(message, start + len(self.tokens[i]) if end else start)

    def inner(self, read: Callable) -> tuple[Expr, int]:
        """`read()` one level of parentheses, argument or exponent deeper."""
        self.nesting += 1
        self.deepest = max(self.deepest, self.nesting)
        e, height = read()
        self.nesting -= 1
        return e, height

    def group(self) -> tuple[Expr, int]:
        """The expression of the parenthesis or argument list just opened,
        and its ')'. The tokens of a group or a text read before in these
        parses are that read, kept in `nodes` as (node, height, the levels it
        opens), when those levels fit here."""
        tokens, start, base = self.tokens, self.i, self.nesting
        try:
            end, opened = start, 1
            while opened:       # find the ')' that closes the group
                close = tokens.index(")", end)
                opened += tokens[end:close].count("(") - 1
                end = close + 1
            key = (tuple(tokens[start:end - 1]),)
        except ValueError:      # no ')' does: the read below raises
            key = None
        if (hit := self.nodes.get(key)) is not None and base + hit[2] <= MAX_DEPTH // 6:
            self.i, self.deepest = end, max(self.deepest, base + hit[2])
            return hit[:2]
        outer, self.deepest = self.deepest, base
        e, height = self.inner(self.expr)
        self.expect(")")
        if key is not None:
            self.nodes[key] = e, height, self.deepest - base
        self.deepest = max(outer, self.deepest)
        return e, height

    def expect(self, tok: str):
        if self.tokens[self.i] != tok:
            raise self.error(f"expected {tok!r}", self.i)
        self.i += 1

    def parse(self) -> Expr:
        if (hit := self.nodes.get(key := (tuple(self.tokens[:-1]),))) is not None:
            return hit[0]       # a text or group read before
        e, height = self.expr()
        if self.tokens[self.i]:
            raise self.error("trailing input", self.i)
        self.nodes[key] = e, height, self.deepest + 1
        return e

    def expr(self) -> tuple[Expr, int]:
        """expr := term (('+'|'-') term)*, term := factor (('*'|'/') factor)*;
        each operator's node is made once its right operand is read."""
        tokens, nodes, add, total, total_height = self.tokens, self.nodes, None, None, 0
        while True:
            left, height = self.factor()
            while (op := tokens[self.i]) == "*" or op == "/":
                self.i += 1
                right, right_height = self.factor()
                key = op, id(left), id(right)
                left = nodes.get(key) or nodes.setdefault(key, Bin(op, left, right))
                if (height := max(height, right_height) + 1) > MAX_DEPTH:
                    raise self.error("expression nested too deeply", self.i)
            if add:
                key = add, id(total), id(left)
                left = nodes.get(key) or nodes.setdefault(key, Bin(add, total, left))
                if (height := max(total_height, height) + 1) > MAX_DEPTH:
                    raise self.error("expression nested too deeply", self.i)
            if (add := tokens[self.i]) != "+" and add != "-":
                return left, height
            self.i += 1
            total, total_height = left, height

    def factor(self) -> tuple[Expr, int]:
        """factor := '-'? atom ('^' factor)?, the atom read in place. Every
        recursion of the grammar passes through here; one level too many is
        an error right after the '(' or operator just read."""
        if self.nesting > MAX_DEPTH // 6:
            raise self.error("expression nested too deeply", self.i - 1, end=True)
        tokens, nodes, at = self.tokens, self.nodes, self.i
        negate = tokens[at] == "-"
        at += negate
        tok = tokens[at]
        self.i = at + 1
        height = 1
        if (base := nodes.get(tok)) is not None:    # a leaf read before
            pass
        elif not tok:
            raise self.error("unexpected end of input", at)
        elif tok[0] in "0123456789.":
            if tok == ".":
                raise self.error("malformed number", at)
            if not math.isfinite(value := float(tok)):
                # Num(inf) would render as "inf", which is outside the grammar
                raise self.error("number literal overflows a double", at)
            base = nodes[tok] = Num(value)
        elif tok == "norm2" or tok == "pi":
            base = nodes[tok] = Norm2() if tok == "norm2" else Pi()
        elif tok == "(":
            base, height = self.group()
        elif tok in FUNCTIONS:
            if tokens[self.i] != "(":
                raise self.error(f"function {tok!r} needs an argument list", at)
            self.i += 1
            arg, height = self.group()
            base = nodes.get(key := (tok, id(arg))) or nodes.setdefault(key, Call(tok, arg))
            if (height := height + 1) > MAX_DEPTH:
                raise self.error("expression nested too deeply", self.i - 1, end=True)
        elif _COORD.fullmatch(tok):
            digits = tok[1:].lstrip("0")    # int() refuses a string of over 4300 digits
            if len(digits) > len(str(self.n)) or not 1 <= (idx := int(digits or "0")) <= self.n:
                shown = tok if len(tok) <= 32 else f"{tok[:32]}... ({len(tok)} characters)"
                raise self.error(f"coordinate {shown} out of range 1..{self.n}", at)
            base = nodes[tok] = Coord(idx)
        elif tok[0].isalpha() or tok[0] == "_":
            raise self.error(f"unknown identifier {tok!r}", at)
        else:
            raise self.error(f"unexpected character {tok[0]!r}", at)
        if tokens[self.i] == "^":
            self.i += 1
            exponent, exponent_height = self.inner(self.factor)
            key = "^", id(base), id(exponent)
            base = nodes.get(key) or nodes.setdefault(key, Bin("^", base, exponent))
            if (height := max(height, exponent_height) + 1) > MAX_DEPTH:
                raise self.error("expression nested too deeply", self.i)
        if negate:
            base = nodes.get(key := ("neg", id(base))) or nodes.setdefault(key, Neg(base))
            if (height := height + 1) > MAX_DEPTH:
                raise self.error("expression nested too deeply", self.i)
        return base, height


def parse(src: str, n: int, nodes: dict | None = None) -> Expr:
    """Parse `src` as a scalar field over x1..xn. The parses that share the
    dict `nodes` (those of one spec, over one n) share their equal subtrees,
    which the program of a fill walks once, and read each token sequence of
    a parenthesis, an argument list or a text once; by default a parse
    shares only within itself."""
    tokens = _TOKEN.findall(src) if isinstance(src, str) else []
    if not tokens:
        raise ParseError("empty expression", 0)
    if n < 1:
        raise DimensionError("ambient dimension must be >= 1")
    nodes = {} if nodes is None else nodes
    # a bare literal is read here; its errors (overflow) are the parser's
    if len(tokens) == 1 and tokens[0][0] in "0123456789" and math.isfinite(v := float(tokens[0])):
        return nodes.get(tokens[0]) or nodes.setdefault(tokens[0], Num(v))
    return _Parser(src, tokens, n, nodes).parse()


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


def _acos(v: float) -> float:
    """_eval's clamped arccos; ValueError where _eval raises EvalError."""
    if abs(v) > 1.0 + ARCCOS_CLAMP:
        raise ValueError(v)
    return math.acos(min(1.0, max(-1.0, v)))


def each(fn: Callable, *args) -> tuple[np.ndarray, np.ndarray]:
    """`fn` on the Python floats of the broadcast arrays or floats `args`,
    element by element: (values, fault), fault True where fn raised
    ValueError or OverflowError, the value there nan."""
    shape = np.broadcast_shapes(*map(np.shape, args))
    values, fault = [], []
    for v in zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in args)):
        try:
            values.append(fn(*v))
            fault.append(False)
        except (ValueError, OverflowError):
            values.append(math.nan)
            fault.append(True)
    return np.array(values).reshape(shape), np.array(fault).reshape(shape)


# The walker's operations over arrays of points. + - * /, negation and abs are
# exact IEEE operations, so numpy gives them the bits that Python floats give;
# pow, sin, cos and arccos run per element through `math` (`each`), whose
# results numpy's own functions do not match bit for bit. math.sin and
# math.cos raise ValueError on inf, and math.pow ValueError or OverflowError,
# exactly where _eval raises EvalError.
_BINARY = ("+", "-", "*", "/", "^")
_ARRAY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
              "neg": np.negative, "abs": np.abs}
_MATH_OPS = {"^": math.pow, "sin": math.sin, "cos": math.cos, "arccos": _acos}
_LEAVES = ("num", "x", "norm2")


class _Program:
    """The straight-line program of the distinct trees of a fill's live
    entries, one result each: one row per distinct operation, each after its
    operands, in _eval's order. Identical subtrees share one row, because
    evaluation is pure; the entries of a fill repeat most of their
    subexpressions. A row is a literal ("num", value),
    ("num", 0.0, sign) for a zero, a coordinate ("x", 0-based index),
    ("norm2",), or an operation of the walker and the rows of its operands,
    such as ("/", 3, 7)."""

    __slots__ = ("rows", "results", "literals", "steps", "coords", "broken", "constant")

    def __init__(self, trees):
        rows: list[tuple] = []
        index: dict[tuple, int] = {}   # row -> its position
        seen: dict[int, int] = {}      # id of a node met before -> its row
        moves: list[bool] = []         # per row, whether it depends on the point
        self.broken = False

        def row(e: Expr) -> int:
            if (r := seen.get(id(e))) is not None:
                return r
            t, moving = type(e), False
            if t is Bin and e.op in _BINARY:
                a, b = row(e.left), row(e.right)
                key, moving = (e.op, a, b), moves[a] or moves[b]
            elif t is Num and type(e.value) is float and math.isfinite(e.value):
                key = ("num", e.value) if e.value else ("num", e.value, math.copysign(1, e.value))
            elif t is Norm2:
                key, moving = ("norm2",), True
            elif t is Coord and type(e.index) is int:
                key, moving = ("x", e.index - 1), True
            elif t is Call and e.func in FUNCTIONS:
                a = row(e.arg)
                key, moving = (e.func, a), moves[a]
            elif t is Neg:
                a = row(e.operand)
                key, moving = ("neg", a), moves[a]
            elif t is Pi:
                key = ("num", math.pi)
            else:   # a node the parser never builds: every point faults
                self.broken, key = True, ("num", 1.0)
            if (r := index.get(key)) is None:
                r = index[key] = len(rows)
                rows.append(key)
                moves.append(moving)
            seen[id(e)] = r
            return r

        self.results = [row(tree) for tree in trees]
        self.rows = rows
        self.constant = not self.broken and not any(moves[r] for r in self.results)
        self.coords = [key[1] for key in rows if key[0] == "x"]
        # per row, the rows whose last use it is; results live to the end
        last = {j: i for i, key in enumerate(rows) if key[0] not in _LEAVES for j in key[1:]}
        for r in self.results:
            last.pop(r, None)
        dying = [[] for _ in rows]
        for j, i in last.items():
            dying[i].append(j)
        self.literals = [key[1] if key[0] == "num" else None for key in rows]
        # (row, op, its array op or None, operands a and b or None, rows dying
        # there) per row but the literals; a is the coordinate of an "x" row
        self.steps = [(i, key[0], _ARRAY_OPS.get(key[0]), *(key[1:] + (None, None))[:2], dying[i])
                      for i, key in enumerate(rows) if key[0] != "num"]

    def run(self, x: np.ndarray, seeds: np.ndarray | None = None, rule: Callable | None = None):
        """The results over the points x (P, n): their values (P, L) and the
        points (P,) at which the program faults. With directions `seeds`
        (M, n), their tangents (P, M, L) instead, and the (point, direction)
        pairs (P, M) at which a value or a tangent faults: `rule(op, v, a,
        da, b, db)` gives a row's tangent and its faults from the row's value
        v, its operands a, b (None for a unary op) and their tangents (None
        for a literal 0, not both). Values are (P, 1) or floats, tangents
        (P or 1, M). Each row's arrays are dropped after their last use, so
        the memory held is the live set's."""
        P, n = x.shape
        L, M = len(self.results), 0 if seeds is None else len(seeds)
        if self.broken or not all(-n <= k < n for k in self.coords):
            # _eval decides at every point: an unknown node, or a coordinate beyond the point
            return (np.zeros((P, L)), np.ones(P, bool)) if seeds is None else (
                np.zeros((P, M, L)), np.ones((P, M), bool))
        fault, dfault = np.zeros((P, 1), bool), np.zeros((P, M), bool)
        vals, tans = list(self.literals), [None] * len(self.rows)
        with np.errstate(all="ignore"):
            for i, op, fn, a, b, dying in self.steps:
                if op == "x":
                    v = x[:, a, None]
                    tans[i] = seeds[None, :, a] if M else None
                elif op == "norm2":
                    v = np.array([float(xp @ xp) for xp in x]).reshape(P, 1)
                    tans[i] = 2.0 * (x @ seeds.T) if M else None
                else:
                    ops = (vals[a],) if b is None else (vals[a], vals[b])
                    if fn is not None:
                        v = fn(*ops)
                        if op == "/":
                            fault |= ops[1] == 0.0
                    elif op == "sqrt":
                        fault |= ops[0] < -SQRT_CLAMP
                        # Python's max(v, 0.0) keeps v = -0.0 (np.maximum does not), and NaN
                        v = np.sqrt(np.where(0.0 > ops[0], 0.0, ops[0]))
                    else:
                        v, faulted = each(_MATH_OPS[op], *ops)
                        fault |= faulted
                    if M and (tans[a] is not None or b is not None and tans[b] is not None):
                        tans[i], faulted = rule(op, v, ops[0], tans[a], *(
                            (None, None) if b is None else (ops[1], tans[b])))
                        dfault |= faulted
                vals[i] = v
                for j in dying:
                    vals[j] = tans[j] = None
        if seeds is None:
            return np.concatenate([v if isinstance(v, np.ndarray) and v.ndim == 2 else
                                   np.full((P, 1), v) for v in map(vals.__getitem__, self.results)],
                                  axis=1), fault[:, 0]
        out = np.zeros((P, M, L))
        for col, r in enumerate(self.results):
            if tans[r] is not None:
                out[..., col] = tans[r]
        return out, dfault | fault


def literal_table(entries) -> np.ndarray:
    """The values of the bare `Num` entries of a sequence, NaN at any other
    node: one array call."""
    return np.array([e.value if e.__class__ is Num else math.nan for e in entries], float)


class LiteralFill:
    """Evaluates an array of expressions at each point of a stack x (..., n)
    as (..., *array shape); a point (n,) is a stack of one. `entries` are the
    expressions in walk order, the spec's own nesting of `shape`; the array
    is that nesting, or with `transpose` its transpose (phi's column c, row r
    is the array's (r, c)). Bare `Num` entries fill the table `literals`.
    Only the entries that can be non-finite, the live ones (any other node)
    and any non-finite literal, are kept as Python items (`named`, by walk
    position). The distinct trees of the live ones (`live`) run as one
    straight-line program (`_Program`, built on first use) over the whole
    stack, whose results go to their entries' places (`where`, `picks`). A
    point at which the program faults (a division by exact 0, a clamp
    violated, a `math` domain or range error, a coordinate beyond the
    point's length) is walked instead, tree by tree in the walk order of
    their first entries, so that its error is `_eval`'s. Constant
    subexpressions are not folded, so `1/0` still raises EvalError when it
    is evaluated.

    `label` names the spec entry and an entry's name is its index in the
    nesting, so the fill alone reports a non-finite value: `values`
    evaluates, `at` also runs `require_finite`. Its Jacobian is
    `tangents.fill_jacobian`, checked by the same method. Every array it
    returns is C-contiguous."""

    __slots__ = ("literals", "label", "transpose", "named", "live", "where", "picks", "_program")

    def __init__(self, entries, shape: tuple[int, ...], label: str, transpose: bool = False):
        entries = list(entries)
        table = literal_table(entries)
        self.named = {k: entries[k] for k in np.flatnonzero(~np.isfinite(table)).tolist()}
        at = [k for k, e in self.named.items() if e.__class__ is not Num]    # the live entries
        table[at] = 0.0
        code: dict[int, int] = {}       # the id of a live tree -> its place in `live`
        self.picks = np.array([code.setdefault(id(self.named[k]), len(code)) for k in at], np.intp)
        self.live = list({id(self.named[k]): self.named[k] for k in at}.values())
        where = np.unravel_index(np.array(at, np.intp), shape)
        self.where = where[::-1] if transpose else where
        table = table.reshape(shape)
        self.literals = np.ascontiguousarray(table.T) if transpose else table
        self.label, self.transpose, self._program = label, transpose, None

    def program(self) -> _Program:
        if self._program is None:
            self._program = _Program(self.live)
        return self._program

    def values(self, x: np.ndarray) -> np.ndarray:
        """The entries at a point x (n,) or at each point of a stack (..., n),
        unchecked."""
        xs = x.reshape(-1, x.shape[-1])
        out = np.repeat(self.literals[None], len(xs), axis=0)
        if self.live and len(xs):
            values, fault = self.program().run(xs)
            for p in np.flatnonzero(fault):
                values[p] = [_eval(tree, xs[p]) for tree in self.live]
            out[(slice(None),) + self.where] = values[:, self.picks]
        return out.reshape(x.shape[:-1] + self.literals.shape)

    def at(self, point) -> np.ndarray:
        """`values` at a point or a stack, all finite."""
        x = np.asarray(point, dtype=float)
        values = self.values(x)
        self.require_finite(values, x)
        return values

    def require_finite(self, values: np.ndarray, x: np.ndarray, derivative: bool = False):
        """EvalError naming the first non-finite entry of `values`, this
        fill's values (..., *shape) at the points x (..., n), or with
        `derivative` its Jacobian (..., m, *shape): at the first point that
        has one, its first entry in walk order, then that entry's first
        direction. Only a live entry or a non-finite literal can be one."""
        bad = ~np.isfinite(values)
        if not bad.any():
            return
        xs = x.reshape(-1, x.shape[-1])
        bad = bad.reshape(len(xs), -1, *self.literals.shape)    # (P, m or 1, *shape)
        p = int(np.argmax(bad.reshape(len(xs), -1).any(axis=1)))
        walk = bad[p].any(axis=0).T if self.transpose else bad[p].any(axis=0)
        k = int(np.argmax(walk))
        name = tuple(int(i) for i in np.unravel_index(k, walk.shape))
        idx = name[::-1] if self.transpose else name
        m = int(np.argmax(bad[(p, slice(None)) + idx]))
        what = f"derivative of {self.label}" if derivative else self.label
        where = "".join(f"[{i}]" for i in name + (m,) * derivative)
        raise EvalError(f"non-finite value {values.reshape(bad.shape)[(p, m) + idx]} of {what}"
                        f"{where} at {xs[p].tolist()}", to_source(self.named[k]))


class VectorFieldExpr:
    """A vector field with one scalar expression per ambient coordinate."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise DimensionError("a vector field needs at least one component")
        self.components = comps

    fill = cached_property(lambda self: LiteralFill(self.components, (self.n,), "vector field"))

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
        return self.fill.at(point)

    def to_sources(self) -> list[str]:
        return [to_source(c) for c in self.components]
