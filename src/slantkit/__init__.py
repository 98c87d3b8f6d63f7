"""slantkit: numerical analysis of slant distributions on Riemannian
manifolds carrying a compatible structural endomorphism.

The usual entry points:

    from slantkit import build_fixture, classify, run_identity_suite
"""

__version__ = "0.1.0"

from .classifier import classify, discover  # noqa: E402
from .config import DEFAULT_TOLERANCES, Tolerances  # noqa: E402
from .distribution import (  # noqa: E402
    Decomposition,
    DistributionFrame,
    check_f_invariance,
)
from .duality import build_dual, dual_roundtrip_check  # noqa: E402
from .gallery import build_fixture, fixture_oracle_check  # noqa: E402
from .specfile import load_manifold_spec  # noqa: E402
from .structure import StructureField, validate_structure  # noqa: E402
from .verifier import (  # noqa: E402
    connection_criterion_report,
    run_identity_suite,
)

__all__ = [
    "__version__",
    "DEFAULT_TOLERANCES",
    "Decomposition",
    "DistributionFrame",
    "StructureField",
    "Tolerances",
    "build_dual",
    "build_fixture",
    "check_f_invariance",
    "classify",
    "connection_criterion_report",
    "discover",
    "dual_roundtrip_check",
    "fixture_oracle_check",
    "load_manifold_spec",
    "run_identity_suite",
    "validate_structure",
]
