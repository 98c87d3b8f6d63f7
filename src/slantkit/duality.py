"""The dual slant decomposition inside the orthogonal complement.

For a decomposition D = D0 + D1 + ... + Dk with complement G (of D, or of
D + <xi> in the contact-like case), the images w(D_i) are pairwise orthogonal
subspaces of G of the same dimensions as the D_i, and G splits as
G = w(D_1) + ... + w(D_k) + H with f(H) = {0}. H is computed here as a
numerical orthogonal complement and f(H) ~ 0 is asserted rather than assumed,
so broken inputs surface as ModelError instead of silent nonsense.

The dual is materialized per point: it generally has no closed-form frame,
and pointwise bases suffice for every verification performed here.
"""

from __future__ import annotations

import numpy as np

from .classifier import component_slant, cluster_eigenvalues, _lambda_to_alpha_theta
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition
from .errors import RankError, ModelError
from .linalg import (
    g_inner,
    mgs_columns,
    pivoted_columns,
    principal_angle_values,
    projector_matrix,
    sym_eigen,
)
from .sampling import DEFAULT_SEED


F_ON_H_TOL = 1e-9
W_INJECTIVITY_TOL = 1e-8


class DualDecomposition:
    """Per-point slice of the dual decomposition."""

    def __init__(self, point: np.ndarray, basis_g: np.ndarray, duals: list[np.ndarray],
                 h_basis: np.ndarray, f_on_h_residual: float):
        self.point = point
        self.basis_g = basis_g
        self.duals = duals          # one n x r_i orthonormal basis per proper component
        self.h_basis = h_basis      # n x dim(H), possibly zero columns
        self.f_on_h_residual = f_on_h_residual

    @property
    def dims(self) -> list[int]:
        return [b.shape[1] for b in self.duals]

    @property
    def h_dim(self) -> int:
        return self.h_basis.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "dual_bases": [b.tolist() for b in self.duals],
            "h_basis": self.h_basis.tolist(),
            "f_on_h_residual": self.f_on_h_residual,
        }


def build_dual(dec: Decomposition, point, f_on_h_tol: float = F_ON_H_TOL) -> DualDecomposition:
    """Construct w(D_i) for every proper component and the invariant
    remainder H at one point."""
    frame = dec.frame_at(point)
    g = frame.g
    basis_g = frame.basis_g
    duals = []
    for i in frame.proper_indices:
        b = frame.component_basis(i)
        w = frame.proj_g @ (frame.phi @ b)       # w-part lands in G exactly
        norms = np.sqrt(np.maximum(g_inner(g, w, w), 0.0))
        if float(norms.min(initial=1.0)) < W_INJECTIVITY_TOL:
            name = dec.components[i].name
            raise RankError(
                f"w collapses on component {name!r} at {frame.x.tolist()} "
                "(slant value 0 there); the dual is undefined")
        duals.append(mgs_columns(g, w))
    used = sum(b.shape[1] for b in duals)
    h_dim = basis_g.shape[1] - used
    if h_dim > 0:
        proj_h = projector_matrix(g, basis_g)
        for b in duals:
            proj_h = proj_h - projector_matrix(g, b)
        cand = proj_h @ basis_g
        h_basis = mgs_columns(g, pivoted_columns(g, cand, h_dim))
    else:
        h_basis = np.zeros((dec.structure.n, 0))
    residual = 0.0
    if h_basis.shape[1]:
        fh = frame.proj_d @ (frame.phi @ h_basis)
        residual = float(np.max(np.sqrt(np.maximum(
            g_inner(g, fh, fh), 0.0))))
        if residual > f_on_h_tol:
            raise ModelError(
                f"f does not vanish on the computed H (residual {residual:.3e}) at "
                f"{frame.x.tolist()}; the decomposition or structure is invalid")
    return DualDecomposition(frame.x, basis_g, duals, h_basis, residual)


def dual_slant_theta(dec: Decomposition, point, dual_basis: np.ndarray,
                     tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Slant value of a dual component w(D_i), read off the square of the
    G-component of phi restricted to it."""
    frame = dec.frame_at(point)
    mat = frame.f2_matrix_on(dual_basis, proj=frame.proj_g)
    evals, _ = sym_eigen(mat)
    groups = cluster_eigenvalues(evals, tolerances.cluster)
    if len(groups) != 1:
        raise ModelError(f"dual component carries {len(groups)} eigenvalue clusters "
                         f"at {frame.x.tolist()}")
    lam = float(np.mean(evals))
    _, theta = _lambda_to_alpha_theta(lam, frame.epsilon, tolerances.lambda_band)
    return theta


class DualRoundtripReport:
    def __init__(self, point, entries, passed, h_dim):
        self.point = point
        self.entries = entries
        self.passed = passed
        self.h_dim = h_dim

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(), "passed": self.passed,
                "h_dim": self.h_dim, "components": self.entries}


def dual_roundtrip_check(dec: Decomposition, point, tol: float | None = None,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> DualRoundtripReport:
    """Verify f(w(D_i)) = D_i (principal angles), dim w(D_i) = dim D_i, and
    that each dual component carries the same slant value as its source."""
    tol = tolerances.principal if tol is None else tol
    frame = dec.frame_at(point)
    dd = build_dual(dec, point)
    entries = []
    passed = True
    for slot, i in enumerate(frame.proper_indices):
        name = dec.components[i].name
        wb = dd.duals[slot]
        fw = frame.proj_d @ (frame.phi @ wb)
        fw_onb = mgs_columns(frame.g, fw)
        angles = principal_angle_values(frame.g, fw_onb, frame.component_basis(i))
        max_angle = float(angles[-1]) if angles.size else 0.0
        theta_src = component_slant(dec, point, i, tolerances).theta
        theta_dual = dual_slant_theta(dec, point, wb, tolerances)
        ok = (max_angle < tol and wb.shape[1] == frame.component_basis(i).shape[1]
              and abs(theta_src - theta_dual) <= 1e-8)
        passed = passed and ok
        entries.append({
            "component": name,
            "dim": wb.shape[1],
            "dim_source": frame.component_basis(i).shape[1],
            "roundtrip_max_angle": max_angle,
            "theta_source": theta_src,
            "theta_dual": theta_dual,
            "passed": ok,
        })
    return DualRoundtripReport(frame.x, entries, passed, dd.h_dim)


def dual_identity_suite(dec: Decomposition, points, trials: int = 50,
                        tol: float | None = None,
                        tolerances: Tolerances = DEFAULT_TOLERANCES,
                        seed: int = DEFAULT_SEED):
    """The G-side identities (projector sums, metric relations, H relations,
    sin^4 corollaries) evaluated on seeded random vectors; a filtered view of
    the full identity registry so both reports agree key for key."""
    from .verifier import DUAL_KEYS, run_identity_suite
    return run_identity_suite(dec, points, trials=trials, tol=tol,
                              tolerances=tolerances, seed=seed, keys=DUAL_KEYS)


def dual_report(dec: Decomposition, points, tolerances: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Round-trip and slant agreement of the dual, aggregated over points."""
    points = list(points)
    comp_rows: dict[str, dict] = {}
    passed = True
    h_dim = 0
    for point in points:
        rt = dual_roundtrip_check(dec, point, tolerances=tolerances)
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
                        tol: float = 1e-8) -> dict:
    """Compare each computed dual basis with an expected coordinate span
    (1-based indices). Used by the gallery oracles."""
    frame = dec.frame_at(point)
    dd = build_dual(dec, point)
    n = dec.structure.n
    results = []
    passed = True
    for slot, idx_set in enumerate(expected_indices):
        cols = sorted(i - 1 for i in idx_set)
        target = np.eye(n)[:, cols]
        target = mgs_columns(frame.g, target)
        angles = principal_angle_values(frame.g, dd.duals[slot], target)
        worst = float(angles[-1]) if angles.size else 0.0
        ok = worst < tol and dd.duals[slot].shape[1] == len(cols)
        passed = passed and ok
        results.append({"expected": sorted(idx_set), "max_angle": worst, "passed": ok})
    return {"point": frame.x.tolist(), "passed": passed, "spans": results}
