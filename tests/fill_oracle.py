"""The compiled fills that `slantkit.expr.LiteralFill`'s operation table
replaced, kept as the oracle of the differential fill tests.

A fill's live entries were written as straight-line Python source, one
statement per distinct operation (`_Emitter`), compiled with CPython's own
compiler (`_compile`, `_define`) and run once per point; the tangent writer
(`_TangentWriter`) added a tangent statement per value statement and ran
the tangent code once per direction. `at` and `jacobian` below are the
drivers `LiteralFill.at` and `tangents.fill_jacobian` had, point by point.
"""

import math
from collections.abc import Callable

import numpy as np

from slantkit.expr import SQRT_CLAMP, Bin, Call, Coord, Expr, Neg, Norm2, Num, Pi, _acos, _eval


def _sqrt(v: float) -> float:
    """_eval's clamped sqrt; ValueError where _eval raises EvalError."""
    if v < -SQRT_CLAMP:
        raise ValueError(v)
    return math.sqrt(max(v, 0.0))


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


_TANGENT_GLOBALS = dict(_GLOBALS, sqrt=math.sqrt, log=math.log, _FAULTS=_FAULTS)


def _tangent(op: str, v: str, a: str, da: str | None, b: str, db: str | None):
    """Source of the tangent of `v = op(a[, b])` (b "" for a unary op) from
    the operand tangents `da`, `db`, or None when it is literal 0 (as `da`
    or `db` may be). An undefined derivative faults: abs at 0 along a
    direction that moves its operand (along one that does not, |u| changes
    to second order only, so its tangent is 0), sqrt or arccos where it has
    none or a clamp is active, pow at base 0 with an exponent below 1, or at
    a base <= 0 with a point-dependent exponent (log)."""
    if da is None and db is None:
        return None
    if op in ("+", "-"):
        if da is None:
            return db if op == "+" else f"-{db}"
        return da if db is None else f"{da} {op} {db}"
    if op == "*":
        terms = [f"{da} * {b}"] if da is not None else []
        terms += [f"{a} * {db}"] if db is not None else []
        return " + ".join(terms)
    if op == "/":
        if db is None:
            return f"{da} / {b}"
        return f"-{v} * {db} / {b}" if da is None else f"({da} - {v} * {db}) / {b}"
    if op == "^":
        if db is None:
            return f"{b} * pow({a}, {b} - 1.0) * {da}"
        if da is None:
            return f"{v} * {db} * log({a})"
        return f"{v} * ({db} * log({a}) + {b} * {da} / {a})"
    return {"neg": "-{da}", "sin": "cos({a}) * {da}", "cos": "-sin({a}) * {da}",
            "abs": "(0.0 if {da} == 0.0 else {a} / abs({a}) * {da})",
            "sqrt": "{da} / (2.0 * {v})",
            "arccos": "-{da} / sqrt(1.0 - {a} * {a})"}[op].format(a=a, da=da, v=v)


class _TangentWriter:
    """The tangent writer of an `_Emitter`: for each value statement
    `tK = ...` that depends on the point, a tangent statement `dtK = ...`
    along the seed `dc`; a subtree free of coordinates has a literal-0
    tangent and no statement."""

    def __init__(self):
        self.lines: list[str] = []
        self.tangents: dict[str, str] = {}  # operand -> its nonzero tangent

    def size(self) -> int:
        return len(self.lines)

    def tangent(self, operand: str) -> str | None:
        if operand.startswith("c[") or operand == "n2":
            return "d" + operand
        if operand == "None":   # a node the parser never builds: its value code raises
            return operand
        return self.tangents.get(operand)

    def emitted(self, name: str, args: tuple):
        op, a, b = (*args, "")[:3]
        source = _tangent(op, name, a, self.tangent(a), b, self.tangent(b))
        if source is not None:
            self.tangents[name] = "d" + name
            self.lines.append(f"d{name} = {source}")

    def function(self, emitter, results: list[str]) -> Callable | None:
        """(x, seeds) -> per seed, [derivative of each of `results` along it]
        or None where the tangent code faulted; None when every derivative
        is literal 0."""
        tangents = [self.tangent(r) or "0.0" for r in results]
        if all(t == "0.0" for t in tangents):
            return None
        norm2 = emitter.uses_norm2
        body = ["c = x.tolist()"] + (["n2 = float(x @ x)"] if norm2 else []) + emitter.lines
        seed = ["dc = dx.tolist()"] + (["dn2 = 2.0 * float(x @ dx)"] if norm2 else [])
        seed += self.lines + [f"out.append([{', '.join(tangents)}])"]
        return _define("def fill(x, seeds):\n"
                       + "".join(f"    {line}\n" for line in body)
                       + "    out = []\n    for dx in seeds:\n        try:\n"
                       + "".join(f"            {line}\n" for line in seed)
                       + "        except _FAULTS:\n            out.append(None)\n"
                       + "    return out\n", _TANGENT_GLOBALS)


_COMPILED: dict[tuple, tuple] = {}   # (id of a fill, writer) -> (the fill, its parts)


def _entries(fill) -> list[tuple]:
    """The fill's live entries in walk order: (index into its array, tree)."""
    return [(tuple(map(int, idx)), fill.live[c]) for idx, c in zip(zip(*fill.where), fill.picks)]


def _parts(fill, tangents: type | None) -> list[tuple[Callable | None, int]]:
    """`_compile` of the fill's live entries, once per fill."""
    key = (id(fill), tangents)
    if key not in _COMPILED or _COMPILED[key][0] is not fill:
        _COMPILED[key] = (fill, _compile([entry for _, entry in _entries(fill)], tangents))
    return _COMPILED[key][1]


def _where(fill) -> tuple:
    return tuple(np.array(axis) for axis in zip(*(idx for idx, _ in _entries(fill))))


def at(fill, x: np.ndarray) -> np.ndarray:
    """`fill`'s values at each point of a stack x (..., n): one compiled
    function per run of entries, called once per point; on a fault at a
    point, the walk of its entries in order."""
    xs = x.reshape(-1, x.shape[-1])
    out = np.repeat(fill.literals[None], len(xs), axis=0)
    if fill.live and len(xs):
        parts = [part for part, _ in _parts(fill, None)]
        values = []
        for xp in xs:
            try:
                row = []
                for part in parts:
                    row += part(xp)
            except _FAULTS:
                row = [_eval(entry, xp) for _, entry in _entries(fill)]
            values.append(row)
        out[(slice(None),) + _where(fill)] = values
    return out.reshape(x.shape[:-1] + fill.literals.shape)


def jacobian(fill, x: np.ndarray, coords, h: float, difference) -> np.ndarray | None:
    """Derivatives of `fill`'s entries at a point x (n,) along the coordinate
    directions `coords`: (len(coords), *shape), or None when no entry
    depends on the point. Where the tangent code faults, that direction's
    derivatives are `difference(fill, x, j, h)`."""
    parts = _parts(fill, _TangentWriter)
    if all(part is None for part, _ in parts):
        return None
    coords = list(coords)
    seeds = np.eye(x.shape[0])[coords]
    values = np.zeros((len(coords), len(_entries(fill))))
    faulted = set()
    start = 0
    for part, count in parts:
        try:
            rows = [] if part is None else part(x, seeds)
        except _FAULTS:   # in the value code: every direction falls back
            rows = [None] * len(coords)
        for m, row in enumerate(rows):
            if row is None:
                faulted.add(m)
            else:
                values[m, start:start + count] = row
        start += count
    out = np.zeros((len(coords),) + fill.literals.shape)
    out[(slice(None),) + _where(fill)] = values
    for m in sorted(faulted):
        out[m] = difference(fill, x, coords[m], h)
    return out
