"""Per-point references of the structure axiom kernel
`slantkit.structure._axiom_residuals`.

`exact_residuals` evaluates the metric, phi and xi of one point itself and
takes each axiom's largest relative residual over all vectors as the
2-norm (`np.linalg.norm(a, 2)`) of its matrix in a g-orthonormal frame; the
stacked kernel must give the same numbers bit for bit at every point.

`_axiom_residuals` is the sampled kernel that the exact one replaced: each
axiom's worst relative residual over a batch of seeded vector pairs. A
supremum over all vectors is never below it, so it stays as a lower bound.
"""

import numpy as np

from slantkit.linalg import g_inner
from slantkit.structure import StructureField


def exact_residuals(s: StructureField, x: np.ndarray) -> dict:
    """Largest relative residual per axiom over all vectors at one point."""
    g, phi = s.metric_at(x), s.phi_at(x)
    xi = s.xi_at(x) if s.is_contact else None
    t, e = phi, xi
    if not s.metric_is_euclidean:
        low = np.linalg.cholesky(g)         # g = U^T U with U = low^T
        t = np.linalg.solve(low, phi.T @ low).T
        e = None if xi is None else low.T @ xi[:, None]
    proj = np.eye(s.n) if e is None else np.eye(s.n) - np.outer(e, e)
    eps = s.epsilon
    out = {"compatibility": float(np.linalg.norm(t.T - eps * t, 2)),
           "metric-law": float(np.linalg.norm(t.T @ t - proj, 2))}
    if e is not None:
        e = np.reshape(e, (s.n, 1))
        out["xi-unit"] = abs(float(e[:, 0] @ e[:, 0]) - 1.0)
        out["phi-xi"] = float(np.linalg.norm((t @ e)[:, 0]))
        out["eta-phi"] = float(np.linalg.norm((t.T @ e)[:, 0]))
    out["squared-endomorphism"] = float(np.linalg.norm(t @ t - eps * proj, 2))
    return out


def _axiom_residuals(s: StructureField, x: np.ndarray, pairs: np.ndarray) -> dict:
    """Worst relative residual per axiom at one point over a batch of vector
    pairs (n x t x 2)."""
    g = s.metric_at(x)
    gk = None if s.metric_is_euclidean else g
    phi = s.phi_at(x)
    X = pairs[:, :, 0]
    Y = pairs[:, :, 1]
    phiX = phi @ X
    phiY = phi @ Y
    nX = np.sqrt(g_inner(gk, X, X))
    nY = np.sqrt(g_inner(gk, Y, Y))
    scale = np.maximum(nX * nY, 1e-300)

    out = {}
    compat = g_inner(gk, phiX, Y) - s.epsilon * g_inner(gk, X, phiY)
    out["compatibility"] = float(np.max(np.abs(compat) / scale))

    phi2X = phi @ phiX
    if s.is_contact:
        xi = s.xi_at(x)
        etaX = g_inner(gk, X, xi[:, None])
        etaY = g_inner(gk, Y, xi[:, None])
        target = s.epsilon * (X - xi[:, None] * etaX[None, :])
        law = g_inner(gk, phiX, phiY) - (g_inner(gk, X, Y) - etaX * etaY)
        out["metric-law"] = float(np.max(np.abs(law) / scale))
        out["xi-unit"] = abs(float(xi @ g @ xi) - 1.0)
        phixi = phi @ xi
        out["phi-xi"] = float(np.sqrt(max(phixi @ g @ phixi, 0.0)))
        out["eta-phi"] = float(np.max(np.abs(g_inner(gk, phiX, xi[:, None]))
                                      / np.maximum(nX, 1e-300)))
    else:
        target = s.epsilon * X
        law = g_inner(gk, phiX, phiY) - g_inner(gk, X, Y)
        out["metric-law"] = float(np.max(np.abs(law) / scale))
    diff = phi2X - target
    out["squared-endomorphism"] = float(
        np.max(np.sqrt(g_inner(gk, diff, diff)) / np.maximum(nX, 1e-300)))
    return out
