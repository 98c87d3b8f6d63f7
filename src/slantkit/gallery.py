"""Programmatic constructors for the built-in example manifolds.

Six fixtures, all flat euclidean ambient spaces with linear-subspace
submanifolds cut out by zeroing two coordinates per block:

* ex1 (contact kind) and ex3 (hermitian kind): constant coefficients, one
  slant angle per block;
* ex4, ex8 (contact kind) and ex5, ex9 (hermitian kind): coefficients depend
  on the squared norm of the point, one slant function per block, with the
  parameter gamma (and delta where applicable) steering whether the slant
  functions stay separated and away from the degenerate values.

Each fixture carries its spec document (the CLI file format, without sample
points), the structure and decomposition D0 + D1 + ... + Dk that the spec
loader builds from it, the closed-form slant expressions used as oracles,
and the coordinate spans of the expected dual components.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import expr as fe
from .classifier import classify
from .config import DEFAULT_TOLERANCES, Tolerances
from .distribution import Decomposition
from .duality import dual_report, expected_span_check
from .errors import ParamError
from .sampling import DEFAULT_SEED, default_sample_points
from .specfile import load_manifold_spec
from .structure import KIND_CONTACT, KIND_HERMITIAN, StructureField, validate_structure
from .verifier import run_identity_suite

FIXTURE_IDS = ("ex1", "ex3", "ex4", "ex5", "ex8", "ex9")


@dataclass
class GalleryFixture:
    id: str
    params: dict
    structure: StructureField
    decomposition: Decomposition
    closed_form_thetas: list[fe.Expr]   # one per proper component, D1..Dk order
    expected_duals: list[set[int]]      # 1-based coordinate spans of w(D_j)
    doc: dict                           # its spec document, without sample points

    @property
    def k(self) -> int:
        return self.params["k"]

    @property
    def mask(self) -> tuple[int, ...]:
        return self.decomposition.mask

    def default_points(self, seed: int = DEFAULT_SEED, count: int = 16) -> list[np.ndarray]:
        return default_sample_points(self.structure.n, self.mask, count=count, seed=seed)

    def theta_closed_form(self, j: int, point) -> float:
        """Oracle slant value of proper component j (1-based)."""
        return fe.evaluate(self.closed_form_thetas[j - 1], point)

    def expected_labels(self) -> dict:
        """The labels each fixture is known to satisfy, by parameter range.

        ex4/ex5 lose pointwise separation at the origin at the boundary
        parameter (all slant values hit pi/2 there); ex8/ex9 keep their slant
        functions separated everywhere but lose genericity at the boundary
        because one eigenvalue function touches 0 at the origin only.
        """
        gamma = self.params.get("gamma")
        if self.id in ("ex1", "ex3"):
            return {"k-slant": True, "k-pointwise-slant": True,
                    "pointwise-k-slant": True, "generic": False, "skew-CR": True}
        if self.id == "ex4":
            return {"k-slant": False, "k-pointwise-slant": True,
                    "pointwise-k-slant": gamma > 0, "generic": gamma > 0,
                    "skew-CR": False}
        if self.id == "ex8":
            return {"k-slant": False, "k-pointwise-slant": True,
                    "pointwise-k-slant": True, "generic": gamma > 0,
                    "skew-CR": False}
        if self.id == "ex5":
            return {"k-slant": False, "k-pointwise-slant": True,
                    "pointwise-k-slant": gamma > 1, "generic": gamma > 1,
                    "skew-CR": False}
        return {"k-slant": False, "k-pointwise-slant": True,
                "pointwise-k-slant": True, "generic": gamma > 1,
                "skew-CR": False}


def _fmt(value: float) -> str:
    """Nonnegative float as an expression literal (round-trips exactly)."""
    if value < 0:
        raise ParamError(f"internal: negative literal {value}")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return np.format_float_positional(float(value), unique=True, trim="-")


def _signed(term: str, sign: int) -> str:
    return term if sign >= 0 else f"-({term})"


def _unit_field(n: int, index: int) -> list[str]:
    """Constant coordinate field e_index (1-based) as component strings."""
    return ["1" if i == index else "0" for i in range(1, n + 1)]


def _zero_columns(n: int) -> list[list[str]]:
    return [["0"] * n for _ in range(n)]


def _set(cols, col: int, row: int, src: str):
    cols[col - 1][row - 1] = src


def _contact_block(cols, j: int, eps: int, c1: str, c2: str):
    """phi on the coordinates 4j-1 .. 4j+2, contact-kind sign pattern."""
    a, b, c, d = 4 * j - 1, 4 * j, 4 * j + 1, 4 * j + 2
    _set(cols, a, b, c1)
    _set(cols, a, d, _signed(c2, eps))
    _set(cols, b, a, _signed(c1, eps))
    _set(cols, b, c, _signed(c2, eps))
    _set(cols, c, b, c2)
    _set(cols, c, d, _signed(c1, -eps))
    _set(cols, d, a, c2)
    _set(cols, d, c, _signed(c1, -1))


def _hermitian_block(cols, j: int, eps: int, c1: str, c2: str):
    """phi on the coordinates 4j-1 .. 4j+2, hermitian-kind sign pattern."""
    a, b, c, d = 4 * j - 1, 4 * j, 4 * j + 1, 4 * j + 2
    _set(cols, a, b, c1)
    _set(cols, a, d, c2)
    _set(cols, b, a, _signed(c1, eps))
    _set(cols, b, c, _signed(c2, -1))
    _set(cols, c, b, _signed(c2, -eps))
    _set(cols, c, d, _signed(c1, eps))
    _set(cols, d, a, _signed(c2, eps))
    _set(cols, d, c, c1)


def _coefficients(fid: str, j: int, gamma: float, delta: float) -> tuple[str, str]:
    """(c1, c2) expression strings for block j; c1^2 + c2^2 = 1 identically."""
    if fid == "ex1":
        return (f"{j * j - 1}/{j * j + 1}", f"{2 * j}/{j * j + 1}")
    if fid == "ex3":
        root = f"sqrt({2 * (j * j + 1)})"
        return (f"{j - 1}/{root}", f"{j + 1}/{root}")
    if fid == "ex4":
        e = (f"sqrt(norm2^2 + {_fmt(2 * gamma)}*norm2 + "
             f"{_fmt(j * j * delta * delta + gamma * gamma)})")
        return (f"(norm2 + {_fmt(gamma)})/{e}", f"{_fmt(j * delta)}/{e}")
    if fid == "ex8":
        beta = (j - 1) * delta + gamma
        e = (f"sqrt(norm2^2 + {_fmt(2 * beta)}*norm2 + "
             f"{_fmt(delta * delta + beta * beta)})")
        return (f"(norm2 + {_fmt(beta)})/{e}", f"{_fmt(delta)}/{e}")
    if fid == "ex5":
        const = gamma * gamma - 2 * gamma + j * j + 1
        e = (f"sqrt(2*norm2^2 + {_fmt(2 * (gamma + j - 1))}*norm2 + {_fmt(const)})")
        return (f"(norm2 + {_fmt(gamma - 1)})/{e}", f"(norm2 + {j})/{e}")
    if fid == "ex9":
        const = j * j + gamma * gamma + 2 * j * gamma - 4 * (j + gamma) + 5
        e = (f"sqrt(2*norm2^2 + {_fmt(2 * (j + gamma - 1))}*norm2 + {_fmt(const)})")
        return (f"(norm2 + {_fmt(j + gamma - 2)})/{e}", f"(norm2 + 1)/{e}")
    raise ParamError(f"unknown fixture id {fid!r}")


def build_fixture(fid: str, k: int = 2, epsilon: int = -1,
                  gamma: float | None = None, delta: float | None = None) -> GalleryFixture:
    """Assemble one fixture; parameters are validated against their
    admissible ranges."""
    if fid not in FIXTURE_IDS:
        raise ParamError(f"unknown fixture id {fid!r}; choose from {FIXTURE_IDS}")
    if k < 2:
        raise ParamError("fixtures need k >= 2")
    if epsilon not in (-1, 1):
        raise ParamError("epsilon must be -1 or +1")
    contact = fid in ("ex1", "ex4", "ex8")
    pointwise = fid in ("ex4", "ex5", "ex8", "ex9")
    params: dict = {"k": k, "epsilon": epsilon}
    if fid in ("ex4", "ex8"):
        gamma = 0.0 if gamma is None else float(gamma)
        delta = 1.0 if delta is None else float(delta)
        if gamma < 0:
            raise ParamError(f"{fid} needs gamma >= 0")
        if delta <= 0:
            raise ParamError(f"{fid} needs delta > 0")
        params.update(gamma=gamma, delta=delta)
    elif fid in ("ex5", "ex9"):
        gamma = 1.0 if gamma is None else float(gamma)
        if gamma < 1:
            raise ParamError(f"{fid} needs gamma >= 1")
        if delta is not None:
            raise ParamError(f"{fid} takes no delta")
        params.update(gamma=gamma)
    elif gamma is not None or delta is not None:
        raise ParamError(f"{fid} takes no gamma/delta")

    n = 4 * k + 3 if contact else 4 * k + 2
    cols = _zero_columns(n)
    _set(cols, 1, 2, "1")
    _set(cols, 2, 1, _signed("1", epsilon))
    thetas = []
    for j in range(1, k + 1):
        c1, c2 = _coefficients(fid, j, params.get("gamma", 0.0), params.get("delta", 1.0))
        if contact:
            _contact_block(cols, j, epsilon, c1, c2)
        else:
            _hermitian_block(cols, j, epsilon, c1, c2)
        thetas.append(fe.parse(f"arccos({c1})", n))

    mask = sorted({1, 2} | {4 * j - 1 for j in range(1, k + 1)}
                  | {4 * j for j in range(1, k + 1)} | ({n} if contact else set()))
    doc = {
        "ambient_dim": n,
        "epsilon": epsilon,
        "kind": KIND_CONTACT if contact else KIND_HERMITIAN,
        "metric": "euclidean",
        "phi_columns": [[fe.to_source(fe.parse(src, n)) for src in col] for col in cols],
        "submanifold_mask": mask,
        "distributions": {"D0": [_unit_field(n, 1), _unit_field(n, 2)], **{
            f"D{j}": [_unit_field(n, 4 * j - 1), _unit_field(n, 4 * j)]
            for j in range(1, k + 1)}},
        "decomposition": {"invariant": "D0", "proper": [f"D{j}" for j in range(1, k + 1)]},
    }
    if contact:
        doc["xi"] = _unit_field(n, n)
    # the loader needs sample points; the fixture owns none, so the origin stands in
    spec = load_manifold_spec({**doc, "sample_points": [[0] * n]})
    duals = [{4 * j + 1, 4 * j + 2} for j in range(1, k + 1)]
    params["pointwise"] = pointwise
    return GalleryFixture(fid, params, spec.structure, spec.decomposition, thetas, duals, doc)


def fixture_to_spec_dict(fx: GalleryFixture, points=None, seed: int = DEFAULT_SEED) -> dict:
    """The fixture as a manifold spec document (the CLI file format): a copy
    of its document, which shares nothing with it, and the sample points."""
    if points is None:
        points = fx.default_points(seed=seed)
    return {**copy.deepcopy(fx.doc), "sample_points": [np.asarray(p).tolist() for p in points]}


def fixture_oracle_check(fx: GalleryFixture, points=None, tol: float = 1e-8,
                         tolerances: Tolerances = DEFAULT_TOLERANCES,
                         seed: int = DEFAULT_SEED, trials: int = 25) -> dict:
    """Run the whole pipeline on a fixture and compare every outcome with the
    fixture's stated claims: structure validity, closed-form slant values,
    classification labels, dual spans, dual round-trips, identity suite."""
    if points is None:
        points = fx.default_points(seed=seed)
    points = list(points)
    report: dict = {"fixture": fx.id, "params": {k: v for k, v in fx.params.items()
                                                 if k != "pointwise"}}
    verdict = validate_structure(fx.structure, points, trials=trials,
                                 tol=tolerances.structure, seed=seed)
    report["structure_passed"] = verdict.passed

    classification = classify(fx.decomposition, points, tolerances, seed=seed)
    thetas = {c["name"]: c["theta"] for c in classification.components}
    report["max_theta_error"] = worst_theta = max(
        abs(thetas[f"D{j}"][pi] - fx.theta_closed_form(j, point))
        for pi, point in enumerate(points) for j in range(1, fx.k + 1))
    report["theta_passed"] = worst_theta <= tol

    expected = fx.expected_labels()
    label_results = {}
    for label, want in expected.items():
        got = classification.labels[label]
        label_results[label] = {"expected": want, "got": got, "passed": got == want}
    report["labels"] = label_results
    report["labels_passed"] = all(v["passed"] for v in label_results.values())
    report["classification"] = classification

    span_ok = all(expected_span_check(fx.decomposition, point, fx.expected_duals,
                                      tol=tolerances.principal)["passed"] for point in points)
    roundtrip_ok = dual_report(fx.decomposition, points, tolerances)["passed"]
    report["dual_spans_passed"] = span_ok
    report["dual_roundtrip_passed"] = roundtrip_ok

    suite = run_identity_suite(fx.decomposition, points, trials=trials,
                               tolerances=tolerances, seed=seed)
    report["identities_passed"] = suite.passed
    report["identities_failed_keys"] = suite.failed_keys()

    report["passed"] = all([
        verdict.passed, report["theta_passed"], report["labels_passed"],
        span_ok, roundtrip_ok, suite.passed,
    ])
    return report

