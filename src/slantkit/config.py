"""Tolerance knobs shared across modules, with the defaults pinned here.

Gallery-scale separations are 1e-2 or larger; the defaults leave at least
three orders of margin in both directions and every one of them is
overridable from the CLI or a spec file's "tolerances" object.

`Tolerances` is a plain immutable class, not a dataclass: a dataclass
compiles its generated methods at every import of the module, and every
spec load imports this one.
"""

from __future__ import annotations

import math
import numbers

from .errors import SpecError


class Tolerances:
    """The knobs below, each with its default unless given by keyword. An
    instance is immutable; it compares, hashes and prints by its values in
    this order, which `vars()` gives."""

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

    def __init__(self, **values: float):
        unknown = values.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"Tolerances() got unexpected keyword arguments {sorted(unknown)}")
        vars(self).update(_DEFAULTS, **values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"Tolerances({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def override(self, mapping: dict | None) -> "Tolerances":
        if mapping is None:
            return self
        if not isinstance(mapping, dict):
            raise SpecError("tolerances must be an object of name -> number")
        bad = set(mapping) - vars(self).keys()
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
        return Tolerances(**{**vars(self), **values})


_DEFAULTS = {name: vars(Tolerances)[name] for name in Tolerances.__annotations__}
DEFAULT_TOLERANCES = Tolerances()
