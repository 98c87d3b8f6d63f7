"""Tolerance knobs shared across modules, with the defaults pinned here.

Gallery-scale separations are 1e-2 or larger; the defaults leave at least
three orders of margin in both directions and every one of them is
overridable from the CLI or a spec file's "tolerances" object.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import SpecError


@dataclass(frozen=True)
class Tolerances:
    structure: float = 1e-9        # structure axiom residuals, relative
    invariance: float = 1e-10      # f-leak / phi-cross residuals
    cluster: float = 1e-8          # absolute gap on eigenvalues of f^2
    angle_const: float = 1e-6      # radians; constancy of a slant function
    angle_distinct: float = 1e-6   # radians; distinctness of slant values
    identity: float = 1e-9         # identity-suite residuals, relative
    principal: float = 1e-8        # span comparisons (principal angles)
    alpha_margin: float = 1e-6     # flag alphas this close to 0 or 1
    lambda_band: float = 1e-6      # admissible overshoot of eps*lambda past [0, 1]
    fd_step: float = 1e-5          # h of the connection probe's first-order checks at x +- hX,
                                   # and the step of its central-difference fallback
    zero_threshold: float = 1e-4   # below this a derivative of the connection probe counts as zero

    def override(self, mapping: dict | None) -> "Tolerances":
        if mapping is None:
            return self
        if not isinstance(mapping, dict):
            raise SpecError("tolerances must be an object of name -> number")
        known = set(self.__dataclass_fields__)
        bad = set(mapping) - known
        if bad:
            raise SpecError(f"unknown tolerance keys: {sorted(bad)}")
        values = {}
        for key, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise SpecError(f"tolerance {key} must be a number, not {value!r}")
            value = float(value)
            if not 0 < value < math.inf:
                raise SpecError(f"tolerance {key} must be positive and finite")
            values[key] = value
        return replace(self, **values)


DEFAULT_TOLERANCES = Tolerances()
