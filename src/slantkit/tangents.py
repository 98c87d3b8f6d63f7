"""Exact first derivatives for the connection probe.

`fill_jacobian` differentiates an `expr.LiteralFill` in forward mode: a
second generated function carries, next to each value statement of the
fill's emitter, its tangent along a seed direction (`_TangentWriter`).
`frame_derivatives` differentiates the projectors and f^2 Grams of a
`FrameStack` in closed form from the tangents of phi, xi and the component
fields, along directions of each point, over a chunk of the stack's points
at once.

Only `identities --connection` needs them, so `LiteralFill.jacobian` and the
connection probe import this module on first use, and no other command
compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from . import expr as fe
from .distribution import FrameStack, check_f2_symmetric, check_orthogonality, orthonormal_bases
from .errors import RankError, SpecError, UnsupportedError

_GLOBALS = dict(fe._GLOBALS, sqrt=math.sqrt, log=math.log, _FAULTS=fe._FAULTS)


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


def frame_derivatives(stack: FrameStack, part: slice, dirs: np.ndarray, coords: list[int],
                      h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivatives of the frame data at the points `part` of `stack`
    along each point's rows X of `dirs` (P, q, n), which lie in the masked
    coordinates `coords`: the derivative of the unsymmetrized f^2 Gram in
    the frame's basis (P, q, r, r), and the column norms (P, q, r) of
    (nabla_X f^2) basis_d. h is the step of the first-order checks and of
    the fills' fallback. The fills' Jacobians run point by point, all else
    over the stack.

    Euclidean metric, Q = basis_d, Phi = Q^T phi Q, S = Q^T dphi Q. Per
    component dQ_i = (I - P_i) dA_i R_i^-1 with R_i = Q_i^T A_i, so that
    dP_D = dQ Q^T + Q dQ^T. With C = Q^T dQ, E = dP_D phi Q and V = dP_D Q,
    the ambient F = (P_D phi)^2 P_D (whose Gram is Phi^2) has
        dF Q = Q K + E Phi,   K = S Phi + Phi S + Q^T phi E + Phi Q^T phi V,
        d(Q^T F Q) = Q^T dF Q + C^T Phi^2 + Phi^2 C.

    The construction checks of frames at x +- hX run on the first-order
    models value +- h * derivative, with their tolerances and errors, in
    this order, each over all points: xi does not vanish, the components'
    fields keep their rank, the components stay orthogonal to each other
    and to xi, and the f^2 Gram stays symmetric. The first check that fails
    raises, naming its first failing point."""
    dec, x = stack.dec, stack.x[part]
    s = dec.structure
    if not s.metric_is_euclidean:
        raise UnsupportedError("frame derivatives support the euclidean metric only")
    npts, q, n = dirs.shape
    steps = dirs[..., coords]
    near, x_models = "to first order near", x[:, None, None]   # the point of each model

    def along(fill_jacobian, contract=lambda p, jac: jac):
        """A fill's Jacobian (m, ...) at each point, `contract(p, jac)` as it
        is made, along the point's directions: (P, q, ...); None if constant."""
        jacs = []
        for p, xp in enumerate(x):
            if (jac := fill_jacobian(xp, coords, h)) is None:
                return None
            jacs.append(contract(p, jac))
        jac = np.stack(jacs)
        return (steps @ jac.reshape(npts, len(coords), -1)).reshape((npts, q) + jac.shape[2:])

    def models(value, deriv):
        """value +- h * deriv, the first-order models at x +- hX: (P, 2, q, ...)
        from value (P, ...) and deriv (P, q, ...)."""
        return np.stack([value[:, None] + step * deriv for step in (h, -h)], axis=1)

    Q, phi, g, off = stack.basis_d[part], stack.phi[part], stack.g[part], stack.offsets
    Qt = np.swapaxes(Q, -1, -2)
    xi = None if stack.xi is None else stack.xi[part]
    dxi = along(s.xi.jacobian) if s.is_contact else None
    if dxi is not None:
        vanish = (np.linalg.norm(models(xi, dxi), axis=-1) < 1e-12).any(axis=(1, 2))
        for p in np.flatnonzero(vanish)[:1]:
            raise RankError(f"xi vanishes {near} {x[p].tolist()}")
    dQ = None
    for i, comp in enumerate(dec.components):
        dA = along(comp.raw_jacobian)
        if dA is None:
            continue
        basis, raw = stack.bases[i][part], stack.raws[i][part]
        orthonormal_bases([comp.name], g[:, None, None], [models(raw, dA)], near, x)
        if dQ is None:
            dQ = np.zeros((npts, q, n, Q.shape[-1]))
        bt = np.swapaxes(basis, -1, -2)
        dQ[..., off[i]:off[i + 1]] = ((dA - basis[:, None] @ (bt[:, None] @ dA))
                                      @ np.linalg.inv(bt @ raw)[:, None])
    C = None if dQ is None else Qt[:, None] @ dQ
    if C is not None or dxi is not None:
        dgram = 0.0 if C is None else C + np.swapaxes(C, -1, -2)
        xi_models = None if xi is None else models(
            (xi[:, None] @ Q)[:, 0], (0.0 if dxi is None else dxi @ Q)
            + (0.0 if dQ is None else (xi[:, None, None] @ dQ)[:, :, 0]))
        check_orthogonality(dec.component_names(), stack.owner, models(Qt @ Q, dgram),
                            xi_models, near, x_models)
    Phi = Qt @ phi @ Q
    Phi2 = Phi @ Phi
    S = along(s.phi_jacobian, lambda p, jac: Qt[p] @ jac @ Q[p])
    Q, Qt, phi, Phi, Phi2 = (a[:, None] for a in (Q, Qt, phi, Phi, Phi2))   # over the q axis
    K = np.zeros((npts, q) + Phi.shape[2:]) if S is None else S @ Phi + Phi @ S
    if dQ is None:
        d_f2, norms = K, np.linalg.norm(K, axis=-2)
    else:
        Ct = np.swapaxes(C, -1, -2)
        E = dQ @ Phi + Q @ (np.swapaxes(dQ, -1, -2) @ (phi @ Q))
        V = dQ + Q @ Ct
        K = K + Qt @ (phi @ E) + Phi @ (Qt @ (phi @ V))
        d_f2 = K + Qt @ (E @ Phi) + Ct @ Phi2 + Phi2 @ C
        norms = np.linalg.norm(Q @ K + E @ Phi, axis=-2)
    check_f2_symmetric(models(Phi2[:, 0], d_f2), near, x_models)
    return d_f2, norms
