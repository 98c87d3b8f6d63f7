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
the block T[G, D_i]; the round-trip checks run over that stack.
"""

from __future__ import annotations

import numpy as np

from .classifier import single_cluster_lambda, slant_lambdas, slant_thetas
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition, DualDecomposition, FrameStack, f2_gram
from .linalg import mgs_each, principal_angle_values


def build_dual(dec: Decomposition, point) -> DualDecomposition:
    """w(D_i) of each proper component and H at one point: its frame's dual slice."""
    return dec.frame_at(point).dual()


def _dual_lambda(stack: FrameStack, slot: int, tolerances: Tolerances) -> np.ndarray:
    """lambda (P,) of the dual w(D_i) of the proper component in `slot`:
    `single_cluster_lambda` on the square of P_G phi restricted to it, W^T
    T_GG^2 W in G coordinates, whose ComponentError names w(D_i)."""
    t_gg, wb = stack.phi_adapted[:, stack.g_rows, stack.g_rows], stack.duals[slot]
    mat = f2_gram(np.swapaxes(wb, -1, -2) @ (t_gg @ (t_gg @ wb)), stack.x)
    name = stack.dec.components[stack.proper_indices[slot]].name
    return single_cluster_lambda(f"w({name})", mat, "at", stack.x, stack.epsilon, tolerances)


class DualRoundtripReport:
    def __init__(self, point, entries, passed, h_dim):
        self.point = point
        self.entries = entries
        self.passed = passed
        self.h_dim = h_dim


def dual_roundtrip_check(dec: Decomposition, point,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> DualRoundtripReport:
    """Verify f(w(D_i)) = D_i (principal angles), dim w(D_i) = dim D_i, and
    that each dual component carries the same slant value as its source, at
    one point (`dual_roundtrips` of a one-point stack built for this call)."""
    x = np.asarray(point, dtype=float)
    return dual_roundtrips(FrameStack(dec, [x]), tolerances)[0]


def dual_roundtrips(stack: FrameStack, tolerances: Tolerances = DEFAULT_TOLERANCES
                    ) -> list[DualRoundtripReport]:
    """`dual_roundtrip_check` at every point of the stack, each kernel one
    stacked call per component, in frame coordinates: f(w(D_i)) = T[D, G] W_i."""
    duals, off = stack.duals, stack.offsets
    f_on_g, eye = stack.phi_adapted[:, :off[-1], stack.g_rows], np.eye(off[-1])
    fw_onbs = mgs_each(eye, [f_on_g @ wb for wb in duals])
    columns = []
    for slot, i in enumerate(stack.proper_indices):
        angles = principal_angle_values(eye, fw_onbs[slot], eye[:, off[i]:off[i + 1]])
        theta_src = slant_thetas(stack, slant_lambdas(stack, [i], tolerances)[0], tolerances)
        theta_dual = slant_thetas(stack, _dual_lambda(stack, slot, tolerances), tolerances)
        columns.append((angles, theta_src, theta_dual))
    reports = []
    for p, x in enumerate(stack.x):
        entries = []
        passed = True
        for (angles, theta_src, theta_dual), i, wb in zip(columns, stack.proper_indices, duals):
            max_angle = float(angles[p, -1]) if angles.shape[-1] else 0.0
            rank = stack.bases[i].shape[-1]
            ok = (max_angle < tolerances.principal and wb.shape[-1] == rank
                  and abs(theta_src[p] - theta_dual[p]) <= 1e-8)
            passed = passed and ok
            entries.append({"component": stack.dec.components[i].name, "dim": wb.shape[-1],
                            "dim_source": rank, "roundtrip_max_angle": max_angle,
                            "theta_source": theta_src[p], "theta_dual": theta_dual[p],
                            "passed": ok})
        reports.append(DualRoundtripReport(x, entries, passed, stack.h_basis.shape[-1]))
    return reports


def dual_report(dec: Decomposition, points, tolerances: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Round-trip and slant agreement of the dual, aggregated over points."""
    points = list(points)
    comp_rows: dict[str, dict] = {}
    passed = True
    h_dim = 0
    for rt in dual_roundtrips(dec.frame_stack(points), tolerances) if points else ():
        passed = passed and rt.passed
        h_dim = rt.h_dim
        for e in rt.entries:
            row = comp_rows.setdefault(e["component"], {
                "component": e["component"], "dim": e["dim"],
                "max_angle": 0.0, "max_theta_gap": 0.0, "passed": True})
            row["max_angle"] = max(row["max_angle"], e["roundtrip_max_angle"])
            row["max_theta_gap"] = max(row["max_theta_gap"],
                                       abs(e["theta_source"] - e["theta_dual"]))
            row["passed"] = row["passed"] and e["passed"]
    return {
        "passed": passed,
        "points_checked": len(points),
        "h_dim": h_dim,
        "components": [comp_rows[name] for name in sorted(comp_rows)],
    }


def expected_span_check(dec: Decomposition, point, expected_indices: list[set[int]],
                        tol: float = DEFAULT_TOLERANCES.principal) -> dict:
    """Compare each computed dual basis with an expected coordinate span
    (1-based indices). Used by the gallery oracles."""
    frame = dec.frame_at(point)
    dd = frame.dual()
    n = dec.structure.n
    results = []
    passed = True
    targets = mgs_each(frame.g, [np.eye(n)[:, sorted(i - 1 for i in idx_set)]
                                 for idx_set in expected_indices])
    for slot, idx_set in enumerate(expected_indices):
        angles = principal_angle_values(frame.g, dd.duals[slot], targets[slot])
        worst = float(angles[-1]) if angles.size else 0.0
        ok = worst < tol and dd.duals[slot].shape[1] == len(idx_set)
        passed = passed and ok
        results.append({"expected": sorted(idx_set), "max_angle": worst, "passed": ok})
    return {"point": frame.x.tolist(), "passed": passed, "spans": results}
