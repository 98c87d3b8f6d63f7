"""Exact first derivatives for the connection probe.

`fill_jacobian` differentiates an `expr.LiteralFill` in forward mode: the
fill's program runs over a stack of points and directions, each row's
tangent next to its value, by the rules of `_tangent`. `frame_derivatives`
differentiates the projectors and f^2 Grams of a `FrameStack` in closed form
from the tangents of phi, xi and the components' fields (one fill), along
the directions of each point, over a chunk of the stack's points at once;
each fill checks its own Jacobian (`LiteralFill.require_finite`).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import expr as fe
from .distribution import FrameStack, check_f2_symmetric, check_orthogonality, orthonormal_bases
from .errors import RankError, SlantKitError, SpecError, UnsupportedError


def _tangent(op: str, v, a, da, b, db):
    """The tangent of the row `v = op(a[, b])` (b None for a unary op) from
    the operand tangents `da`, `db` (None for a literal 0, not both), as
    arrays over points (P, 1) and directions (P or 1, M), and where it faults:
    False or a mask that broadcasts to (P, M). Each rule is the one Python
    float expression of the chain rule, evaluated in the same order, so its
    bits are those of the scalar rule. An undefined derivative faults: abs at
    0 along a direction that moves its operand (along one that does not, |u|
    changes to second order only, so its tangent is 0), sqrt or arccos where
    it has none or a clamp is active, pow at base 0 with an exponent below 1,
    or at a base <= 0 with a point-dependent exponent (log)."""
    if op in ("+", "-"):
        if da is None:
            return (db if op == "+" else -db), False
        return (da if db is None else da + db if op == "+" else da - db), False
    if op == "*":
        if db is None:
            return da * b, False
        return (a * db if da is None else da * b + a * db), False
    if op == "/":   # b == 0 faults the value already
        if db is None:
            return da / b, False
        return (-v * db / b if da is None else (da - v * db) / b), False
    if op == "^":
        if db is None:
            power, fault = fe.each(math.pow, a, b - 1.0)
            return b * power * da, fault
        log, fault = fe.each(math.log, a)   # a <= 0 faults, a == 0 among them
        return (v * db * log if da is None else v * (db * log + b * da / a)), fault
    if op == "neg":
        return -da, False
    if op in ("sin", "cos"):
        slope, fault = fe.each(math.cos if op == "sin" else math.sin, a)
        return (slope * da if op == "sin" else -slope * da), fault
    if op == "abs":
        return np.where(da == 0.0, 0.0, a / np.abs(a) * da), (da != 0.0) & (a == 0.0)
    if op == "sqrt":
        return da / (2.0 * v), v == 0.0
    root = 1.0 - a * a   # arccos; math.sqrt faults below 0, the division at 0
    return -da / np.sqrt(root), root <= 0.0


def fill_jacobian(fill: fe.LiteralFill, x: np.ndarray, coords, h: float) -> np.ndarray | None:
    """Derivatives of the entries of `fill` along the coordinate directions
    `coords` (0-based) at a point x (n,) or at each point of a stack
    (..., n): (..., len(coords), *shape), or None when no entry depends on
    the point; unchecked. The fill's program runs once over all points and
    directions. A point at which a value faults sends every direction, a
    tangent fault its own direction, to the central difference of
    `fill.values` with step h (`_central_difference`), in point order."""
    program = fill.program()
    if program.constant:
        return None
    coords = list(coords)
    xs = x.reshape(-1, x.shape[-1])
    tangents, fault = program.run(xs, np.eye(x.shape[-1])[coords], _tangent)
    out = np.zeros((len(xs), len(coords)) + fill.literals.shape)
    out[(slice(None), slice(None)) + program.where] = tangents
    for p, m in zip(*np.nonzero(fault)):
        out[p, m] = _central_difference(fill, xs[p], coords[m], h)
    return out.reshape(x.shape[:-1] + out.shape[1:])


def _central_difference(fill: fe.LiteralFill, x: np.ndarray, j: int, h: float) -> np.ndarray:
    """(fill.values(x + h e_j) - fill.values(x - h e_j)) / 2h; SpecError
    naming fd_step when h leaves x_j unchanged."""
    step = np.zeros_like(x)
    step[j] = h
    plus, minus = x + step, x - step
    if plus[j] == x[j] or minus[j] == x[j]:
        raise SpecError(f"fd_step {h!r} leaves x{j + 1} = {float(x[j])!r} unchanged; the "
                        "central-difference fallback of a derivative needs a larger step")
    return (fill.values(plus) - fill.values(minus)) / (2.0 * h)


def first_order_models(value: np.ndarray, deriv: np.ndarray, h: float) -> np.ndarray:
    """value +- h * deriv, the first-order models at x +- hX: (P, 2, q, ...)
    from value (P, ...) and deriv (P, q, ...)."""
    return np.stack([value[:, None] + step * deriv for step in (h, -h)], axis=1)


def frame_derivatives(stack: FrameStack, part: slice, dirs: np.ndarray, coords: list[int],
                      h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivatives of the frame data at the points `part` of `stack`
    along each point's rows X of `dirs` (P, q, n), which lie in the masked
    coordinates `coords`: the derivative of the unsymmetrized f^2 Gram in
    the frame's basis (P, q, r, r), and the column norms (P, q, r) of
    (nabla_X f^2) basis_d. h is the step of the first-order checks and of
    the fills' fallback. Everything runs over the chunk's points at once.

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
    npts, q = dirs.shape[:2]
    steps = dirs[..., coords]
    near, x_models = "to first order near", x[:, None, None]   # the point of each model

    def jacobian(fill, x):
        """`fill_jacobian` of `fill` at x, checked finite by the fill."""
        jac = fill_jacobian(fill, x, coords, h)
        if jac is not None:
            fill.require_finite(jac, x, derivative=True)
        return jac

    def along(fill, contract=lambda jac: jac):
        """The Jacobian (P, m, ...) of `fill` over the points, finite and
        `contract`ed, along each point's directions: (P, q, ...); None if
        constant. Where it raises, the points are taken one at a time, so
        that the first failing point raises alone."""
        try:
            jac = jacobian(fill, x)
        except SlantKitError:
            for xp in x:
                jacobian(fill, xp)
            raise
        if jac is None:
            return None
        jac = contract(jac)
        return (steps @ jac.reshape(npts, len(coords), -1)).reshape((npts, q) + jac.shape[2:])

    models = partial(first_order_models, h=h)
    Q, phi, g, off = stack.basis_d[part], stack.phi[part], stack.g[part], stack.offsets
    Qt = np.swapaxes(Q, -1, -2)
    xi = None if stack.xi is None else stack.xi[part]
    dxi = along(s.xi.fill) if s.is_contact else None
    if dxi is not None:
        vanish = (np.linalg.norm(models(xi, dxi), axis=-1) < 1e-12).any(axis=(1, 2))
        for p in np.flatnonzero(vanish)[:1]:
            raise RankError(f"xi vanishes {near} {x[p].tolist()}")
    dQ = along(dec.fill)    # dA of every component's fields (P, q, n, R), then dQ in place
    if dQ is not None:
        cols = [slice(lo, hi) for lo, hi in zip(off, off[1:])]
        orthonormal_bases(dec.component_names(), g[:, None, None],
                          [models(raw[part], dQ[..., c]) for raw, c in zip(stack.raws, cols)],
                          near, x)
        for basis, raw, c in zip(stack.bases, stack.raws, cols):
            basis, raw, bt = basis[part], raw[part], np.swapaxes(basis[part], -1, -2)
            dQ[..., c] = ((dQ[..., c] - basis[:, None] @ (bt[:, None] @ dQ[..., c]))
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
    S = along(s.phi_fill, lambda jac: Qt[:, None] @ jac @ Q[:, None])
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
