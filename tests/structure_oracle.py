"""The per-point axiom kernel that `slantkit.structure._axiom_residuals`
replaced, kept as the oracle of the differential structure tests.

It evaluates the metric, phi and xi of one point itself and returns each
axiom's worst relative residual there as a float; the stacked kernel must
give the same numbers bit for bit at every point.
"""

import numpy as np

from slantkit.linalg import g_inner
from slantkit.structure import StructureField


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
