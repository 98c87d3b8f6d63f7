"""The dual slant decomposition inside the orthogonal complement.

For a decomposition D = D0 + D1 + ... + Dk with complement G (of D, or of
D + <xi> in the contact-like case), the images w(D_i) are pairwise orthogonal
subspaces of G of the same dimensions as the D_i, and G splits as
G = w(D_1) + ... + w(D_k) + H with f(H) = {0}. H is computed as a numerical
orthogonal complement and f(H) ~ 0 is asserted rather than assumed, so
broken inputs surface as ModelError instead of silent nonsense.

The dual has no closed-form frame in general. Its bases are part of a
command's frame stack (`distribution.FrameStack`), built once over all sample
points in the G coordinates of the adapted frame, where w(D_i) is spanned by
the block T[G, D_i]. The round-trip checks run over that stack: each kernel
once per distinct rank, and the one slant reader once for all sources and
once for all duals, over a component axis.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .classifier import alpha_theta, single_cluster_lambda, slant_lambdas
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, DualDecomposition, FrameStack, f2_gram
from .linalg import each_by_shape, mgs_each, principal_angle_values


def build_dual(dec: Decomposition, point) -> DualDecomposition:
    """w(D_i) of each proper component and H at one point: its frame's dual slice."""
    return dec.frame_at(point).dual()


class DualRoundtripReport:
    def __init__(self, point, entries, passed, h_dim):
        self.point, self.entries, self.passed, self.h_dim = point, entries, passed, h_dim


def dual_roundtrip_check(dec: Decomposition, point,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> DualRoundtripReport:
    """Verify f(w(D_i)) = D_i (principal angles), dim w(D_i) = dim D_i, and
    that each dual component carries the same slant value as its source, at
    one point: `_roundtrip_columns` of a one-point stack built for this call."""
    x = np.asarray(point, dtype=float)
    stack = FrameStack(dec, [x])
    entries = [{"component": name, "dim": dim, "dim_source": rank,
                "roundtrip_max_angle": float(angle[0]), "theta_source": float(src[0]),
                "theta_dual": float(dual[0]), "passed": bool(ok[0])}
               for name, dim, rank, angle, src, dual, ok in _roundtrip_columns(stack, tolerances)]
    return DualRoundtripReport(x, entries, all(e["passed"] for e in entries),
                               stack.h_basis.shape[-1])


def _roundtrip_columns(stack: FrameStack, tolerances: Tolerances) -> list[tuple]:
    """The round trip of each proper component, in order, as (name,
    dim w(D_i), dim D_i, angle, theta_source, theta_dual, passed), the last
    four columns (P,) over the stack's points: the largest principal angle
    between f(w(D_i)) = T[D, G] W_i (frame coordinates) and D_i, the slant
    values of D_i and of w(D_i) (read from W_i^T T_GG^2 W_i in G
    coordinates), and whether the angle is below `tolerances.principal` and
    the slant values agree within 1e-8 (the dimensions agree by
    construction). Each kernel runs once per distinct rank, and every
    source's lambda is read before any dual's."""
    duals, off, proper, eps = stack.duals, stack.offsets, stack.proper_indices, stack.epsilon
    f_on_g, eye = stack.phi_adapted[:, :off[-1], stack.g_rows], np.eye(off[-1])
    t_gg = stack.phi_adapted[:, stack.g_rows, stack.g_rows]
    angles = each_by_shape(partial(principal_angle_values, eye),
                           mgs_each(eye, [f_on_g @ wb for wb in duals]),
                           [eye[None, :, off[i]:off[i + 1]] for i in proper])
    names = [stack.dec.components[i].name for i in proper]
    lam = [slant_lambdas(stack, proper, tolerances)]
    grams = each_by_shape(lambda wb: f2_gram(np.swapaxes(wb, -1, -2) @ (t_gg @ (t_gg @ wb)),
                                             stack.x), duals)
    lam.append(single_cluster_lambda([f"w({name})" for name in names], grams, "at", stack.x,
                                     eps, tolerances))
    theta_src, theta_dual = alpha_theta(np.stack(lam), eps, tolerances.lambda_band)[1]
    return [(name, wb.shape[-1], stack.bases[i].shape[-1], a[:, -1], src, dual,
             (a[:, -1] < tolerances.principal) & (abs(src - dual) <= 1e-8))
            for name, i, wb, a, src, dual in zip(names, proper, duals, angles, theta_src.T,
                                                 theta_dual.T)]


def dual_report(dec: Decomposition, points, tolerances: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Round-trip and slant agreement of the dual: each component's columns
    (`_roundtrip_columns`) reduced over the points."""
    points = list(points)
    if not points:
        return {"passed": True, "points_checked": 0, "h_dim": 0, "components": []}
    stack = dec.frame_stack(points)
    rows = [{"component": name, "dim": dim, "max_angle": float(angle.max()),
             "max_theta_gap": float(abs(src - dual).max()), "passed": bool(ok.all())}
            for name, dim, _, angle, src, dual, ok in _roundtrip_columns(stack, tolerances)]
    rows.sort(key=lambda row: row["component"])
    return {"passed": all(row["passed"] for row in rows), "points_checked": len(points),
            "h_dim": stack.h_basis.shape[-1], "components": rows}


def expected_span_columns(stack: FrameStack, expected_indices: list[set[int]],
                          tol: float = DEFAULT_TOLERANCES.principal) -> list[tuple]:
    """Each proper component's computed dual basis against an expected
    coordinate span (1-based indices), in order, as (sorted indices,
    max_angle, passed), the last two (P,) over the stack's points: the
    largest principal angle between the dual and the g-orthonormalised span,
    and whether it is below `tol` with the dual of the span's dimension.
    The angles run once per distinct pair of ranks (`each_by_shape`), so g
    is factorised once per pair, not once per component."""
    g, n = stack.g, stack.dec.structure.n
    targets = mgs_each(g, [np.broadcast_to(np.eye(n)[:, sorted(i - 1 for i in idx)],
                                           (len(g), n, len(idx))) for idx in expected_indices])
    duals = [stack.basis_g @ stack.duals[slot] for slot in range(len(expected_indices))]
    angles = each_by_shape(partial(principal_angle_values, g), duals, targets)
    worst = [a[:, -1] if a.shape[-1] else np.zeros(len(g)) for a in angles]
    return [(sorted(idx), w, (w < tol) & (dual.shape[-1] == len(idx)))
            for idx, dual, w in zip(expected_indices, duals, worst)]


def expected_span_check(dec: Decomposition, point, expected_indices: list[set[int]],
                        tol: float = DEFAULT_TOLERANCES.principal) -> dict:
    """`expected_span_columns` at one point, of a one-point stack built for
    this call. Used by the gallery oracles."""
    stack = FrameStack(dec, [np.asarray(point, dtype=float)])
    spans = [{"expected": idx, "max_angle": float(worst[0]), "passed": bool(ok[0])}
             for idx, worst, ok in expected_span_columns(stack, expected_indices, tol)]
    return {"point": stack.x[0].tolist(), "passed": all(s["passed"] for s in spans),
            "spans": spans}
