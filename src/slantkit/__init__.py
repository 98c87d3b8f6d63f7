"""slantkit: numerical analysis of slant distributions on Riemannian
manifolds carrying a compatible structural endomorphism.

The usual entry points:

    from slantkit import build_fixture, classify, run_identity_suite

The exported names load their module on first use (PEP 562), so `import
slantkit` imports no submodule, and `load_manifold_spec` imports only config,
distribution, errors, expr, linalg, sampling, specfile and structure.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classifier": ("classify", "discover"),
    "config": ("DEFAULT_TOLERANCES", "Tolerances"),
    "distribution": ("Decomposition", "DistributionFrame", "check_f_invariance"),
    "duality": ("build_dual", "dual_roundtrip_check"),
    "gallery": ("build_fixture", "fixture_oracle_check"),
    "specfile": ("load_manifold_spec",),
    "structure": ("StructureField", "validate_structure"),
    "verifier": ("connection_criterion_report", "run_identity_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    """An exported name, or a submodule, imported on first use. Any other
    name raises AttributeError, which `from . import mod` relies on."""
    module = f"{__name__}.{_HOME.get(name, name)}"
    try:
        value = importlib.import_module(module)
    except ModuleNotFoundError as exc:
        if exc.name != module and name.isidentifier():
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(value, name) if name in _HOME else value


def __dir__():
    return sorted({*globals(), *__all__})
