"""Seeded sampling helpers.

Every random draw in the package flows through `rng_for`, keyed by the run
seed plus integer stream labels, so verdicts are reproducible and independent
of evaluation order.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 53081

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream...) tuples."""
    key = [int(seed) & _MASK64] + [int(s) & _MASK64 for s in streams]
    return np.random.default_rng(key)


BOX_STREAM = 7             # the rng_for stream of box points
DEFAULT_BOX = (-2.0, 2.0)  # the box of gallery points and of spec generators without one


def box_points(n: int, mask: tuple[int, ...] | None, count: int, box=DEFAULT_BOX,
               seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """Seeded uniform points in the box, embedded through the mask.

    `mask` lists the 1-based ambient coordinates that belong to the
    submanifold; coordinates outside it stay zero. Without a mask the points
    fill the whole ambient space.
    """
    free = [i - 1 for i in mask] if mask else list(range(n))
    out = np.zeros((count, n))
    # one draw of all the points, row by row: the values of one draw per point
    out[:, free] = rng_for(seed, BOX_STREAM).uniform(*box, size=(count, len(free)))
    return list(out)


def default_sample_points(n: int, mask: tuple[int, ...] | None, count: int = 16,
                          seed: int = DEFAULT_SEED) -> list[np.ndarray]:
    """Origin, unit points along each in-mask axis, then seeded box points."""
    free = [i - 1 for i in mask] if mask else list(range(n))
    pts = [np.zeros(n)]
    for i in free:
        p = np.zeros(n)
        p[i] = 1.0
        pts.append(p)
    pts.extend(box_points(n, mask, count, seed=seed))
    return pts
