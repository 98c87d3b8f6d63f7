"""Exact first derivatives for the connection probe.

`fill_jacobian` differentiates an `expr.LiteralFill` in forward mode: a
second generated function carries, next to each value statement of the
fill's emitter, its tangent along a seed direction (`_TangentWriter`).
`frame_derivatives` differentiates a frame's projectors and f^2 Gram in
closed form from the tangents of phi, xi and the component fields, at the
frame's own point.

Only `identities --connection` needs them, so `LiteralFill.jacobian` and the
connection probe import this module on first use, and no other command
compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from . import expr as fe
from .distribution import PointFrame, check_f2_symmetric, check_orthogonality
from .errors import RankError, SpecError, UnsupportedError
from .linalg import mgs_columns

_GLOBALS = dict(fe._GLOBALS, sqrt=math.sqrt, log=math.log, _FAULTS=fe._FAULTS)


def _tangent(op: str, v: str, a: str, da: str | None, b: str, db: str | None):
    """Source of the tangent of `v = op(a[, b])` (b "" for a unary op) from
    the operand tangents `da`, `db`, or None when it is literal 0 (as `da`
    or `db` may be). An undefined derivative faults: abs, sqrt or arccos
    where it has none or a clamp is active, pow at base 0 with an exponent
    below 1, or at a base <= 0 with a point-dependent exponent (log)."""
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
            "abs": "{a} / abs({a}) * {da}", "sqrt": "{da} / (2.0 * {v})",
            "arccos": "-{da} / sqrt(1.0 - {a} * {a})"}[op].format(a=a, da=da, v=v)


class _TangentWriter:
    """The tangent writer of an `expr._Emitter`: for each value statement
    `tK = ...` that depends on the point, a tangent statement `dtK = ...`
    along the seed `dc`; a subtree free of coordinates has a literal-0
    tangent and no statement. The emitter dispatches on the expression nodes
    and hands over only source text, so a writer works with any instance of
    the expr module."""

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
        return fe._define("def fill(x, seeds):\n"
                          + "".join(f"    {line}\n" for line in body)
                          + "    out = []\n    for dx in seeds:\n        try:\n"
                          + "".join(f"            {line}\n" for line in seed)
                          + "        except _FAULTS:\n            out.append(None)\n"
                          + "    return out\n", _GLOBALS)


def fill_jacobian(fill: fe.LiteralFill, x: np.ndarray, coords, h: float) -> np.ndarray | None:
    """Derivatives of the entries of `fill` at x along the coordinate
    directions `coords` (0-based): (len(coords), *shape), or None when no
    entry depends on the point. The tangent code is compiled on the first
    call and runs once per direction. Where it faults, that direction's
    derivatives are the central difference of `fill.at` with step h
    (`_central_difference`)."""
    if fill._tangent_parts is None:
        fill._tangent_parts = fill._build(_TangentWriter)
    if all(part is None for part, _ in fill._tangent_parts):
        return None
    coords = list(coords)
    seeds = np.eye(x.shape[0])[coords]
    values = np.zeros((len(coords), len(fill.live)))
    faulted = set()
    start = 0
    for part, count in fill._tangent_parts:
        try:
            rows = [] if part is None else part(x, seeds)
        except fe._FAULTS:   # in the value code: every direction falls back
            rows = [None] * len(coords)
        for m, row in enumerate(rows):
            if row is None:
                faulted.add(m)
            else:
                values[m, start:start + count] = row
        start += count
    out = np.zeros((len(coords),) + fill.literals.shape)
    out[(slice(None),) + fill._where] = values
    for m in sorted(faulted):
        out[m] = _central_difference(fill, x, coords[m], h)
    return out


def _central_difference(fill: fe.LiteralFill, x: np.ndarray, j: int, h: float) -> np.ndarray:
    """(fill.at(x + h e_j) - fill.at(x - h e_j)) / 2h; SpecError naming
    fd_step when h leaves x_j unchanged."""
    step = np.zeros_like(x)
    step[j] = h
    plus, minus = x + step, x - step
    if plus[j] == x[j] or minus[j] == x[j]:
        raise SpecError(f"fd_step {h!r} leaves x{j + 1} = {float(x[j])!r} unchanged; the "
                        "central-difference fallback of a derivative needs a larger step")
    return (fill.at(plus) - fill.at(minus)) / (2.0 * h)


def frame_derivatives(frame: PointFrame, dirs: np.ndarray, coords: list[int],
                      h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivatives of `frame`'s data along the rows X of `dirs` (q, n),
    which lie in the masked coordinates `coords`: the derivative of the
    unsymmetrized f^2 Gram in the frame's basis (q, r, r), and the column
    norms (q, r) of (nabla_X f^2) basis_d. h is the step of the first-order
    checks and of the fills' fallback.

    Euclidean metric, Q = basis_d, Phi = Q^T phi Q, S = Q^T dphi Q. Per
    component dQ_i = (I - P_i) dA_i R_i^-1 with R_i = Q_i^T A_i, so that
    dP_D = dQ Q^T + Q dQ^T. With C = Q^T dQ, E = dP_D phi Q and V = dP_D Q,
    the ambient F = (P_D phi)^2 P_D (whose Gram is Phi^2) has
        dF Q = Q K + E Phi,   K = S Phi + Phi S + Q^T phi E + Phi Q^T phi V,
        d(Q^T F Q) = Q^T dF Q + C^T Phi^2 + Phi^2 C.

    The construction checks of frames at x +- hX run on the first-order
    models value +- h * derivative, with their tolerances and errors: xi
    does not vanish, the components' fields keep their rank, the components
    stay orthogonal to each other and to xi, and the f^2 Gram stays
    symmetric."""
    dec, x = frame.dec, frame.x
    s = dec.structure
    if not s.metric_is_euclidean:
        raise UnsupportedError("frame derivatives support the euclidean metric only")
    q, n = dirs.shape
    steps = dirs[:, coords]

    def along(jac):
        """A Jacobian (m, ...) contracted with each direction: (q, ...)."""
        if jac is None:
            return None
        return (steps @ jac.reshape(len(coords), -1)).reshape((q,) + jac.shape[1:])

    Q, phi, off = frame.basis_d, frame.phi, frame.offsets
    near = "to first order near"
    models = (h, -h)
    dxi = along(s.xi.jacobian(x, coords, h)) if s.is_contact else None
    if dxi is not None and np.any(np.linalg.norm(
            frame.xi + np.multiply.outer(models, dxi), axis=-1) < 1e-12):
        raise RankError(f"xi vanishes {near} {x.tolist()}")
    dQ = None
    for i, comp in enumerate(dec.components):
        dA = along(comp.raw_jacobian(x, coords, h))
        if dA is None:
            continue
        basis, raw = frame.bases[i], comp.raw_at(x)
        for model in (raw + step * dA[a] for step in models for a in range(q)):
            try:
                mgs_columns(frame.g, model)
            except RankError as exc:
                raise RankError(f"component {comp.name!r} {near} {x.tolist()}: {exc}") from None
        if dQ is None:
            dQ = np.zeros((q, n, Q.shape[1]))
        dQ[:, :, off[i]:off[i + 1]] = ((dA - basis @ (basis.T @ dA))
                                       @ np.linalg.inv(basis.T @ raw))
    C = None if dQ is None else Q.T @ dQ
    if C is not None or dxi is not None:
        dgram = 0.0 if C is None else C + C.transpose(0, 2, 1)
        xi_part = dxi_part = None
        if frame.xi is not None:
            xi_part = frame.xi @ Q
            dxi_part = (0.0 if dxi is None else dxi @ Q) + (0.0 if dQ is None else frame.xi @ dQ)
        for step in models:
            check_orthogonality(dec.component_names(), frame.owner, Q.T @ Q + step * dgram,
                                None if xi_part is None else xi_part + step * dxi_part, near, x)
    Phi = Q.T @ phi @ Q
    Phi2 = Phi @ Phi
    jac = s.phi_jacobian(x, coords, h)
    K = np.zeros((q,) + Phi.shape)
    if jac is not None:
        S = along(Q.T @ jac @ Q)
        K = S @ Phi + Phi @ S
    if dQ is None:
        d_f2, norms = K, np.linalg.norm(K, axis=1)
    else:
        E = dQ @ Phi + Q @ (dQ.transpose(0, 2, 1) @ (phi @ Q))
        V = dQ + Q @ C.transpose(0, 2, 1)
        K = K + Q.T @ (phi @ E) + Phi @ (Q.T @ (phi @ V))
        d_f2 = K + Q.T @ (E @ Phi) + C.transpose(0, 2, 1) @ Phi2 + Phi2 @ C
        norms = np.linalg.norm(Q @ K + E @ Phi, axis=1)
    for step in models:
        check_f2_symmetric(Phi2 + step * d_f2, near, x)
    return d_f2, norms
