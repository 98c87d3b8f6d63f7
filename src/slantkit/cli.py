"""Command-line front end.

    slantkit validate SPEC [--json PATH] [--seed N] [--trials N] [tol flags]
    slantkit classify SPEC [--json PATH] [--seed N] [--force] [tol flags]
    slantkit dual SPEC [--json PATH] [--seed N] [tol flags]
    slantkit identities SPEC [--json PATH] [--seed N] [--trials N]
                        [--connection] [tol flags]
    slantkit gallery list
    slantkit gallery emit ID [--k K] [--epsilon E] [--gamma G] [--delta D]
                        [--out PATH]

Exit codes: 0 success, 1 mathematical failure (with a witness in the
report), 2 input or usage error. Reports are deterministic: on one host with
one BLAS kernel, the same spec, seed, and tolerances produce byte-identical
JSON. Across BLAS kernels, floats agree within their tolerances, and the
verdicts, labels, named cases, exit codes and the witness of any failed
check stay the same.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .classifier import classify, discover
from .config import Tolerances
from .duality import dual_report
from .errors import (
    EvalError,
    ParamError,
    ParseError,
    SlantKitError,
    SpecError,
    UnsupportedError,
)
from .gallery import FIXTURE_IDS, build_fixture, fixture_to_spec_dict
from .report import make_run_report, render_markdown, report_json
from .sampling import DEFAULT_SEED
from .specfile import load_manifold_spec, spec_digest
from .structure import validate_structure
from .verifier import connection_criterion_report, run_identity_suite

USAGE_ERROR = 2
MATH_FAILURE = 1

_TOL_FLAGS = {
    "cluster_tol": "cluster",
    "angle_tol": "angle_const",
    "distinct_tol": "angle_distinct",
    "structure_tol": "structure",
    "identity_tol": "identity",
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("spec", help="path to a manifold spec JSON file")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="also write the full report as JSON")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--cluster-tol", type=float, default=None)
    p.add_argument("--angle-tol", type=float, default=None,
                   help="constancy tolerance on slant values (radians)")
    p.add_argument("--distinct-tol", type=float, default=None,
                   help="distinctness tolerance on slant values (radians)")
    p.add_argument("--structure-tol", type=float, default=None)
    p.add_argument("--identity-tol", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and kept: parsing
    leaves it as it was, so a process that runs many commands builds it
    once."""
    parser = argparse.ArgumentParser(prog="slantkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("validate", help="check the structure axioms"))
    p = sub.add_parser("classify", help="slant taxonomy verdicts")
    _add_common(p)
    p.add_argument("--force", action="store_true",
                   help="classify even when structure validation fails")
    _add_common(sub.add_parser("dual", help="dual decomposition round-trips"))
    p = sub.add_parser("identities", help="run the identity suite")
    _add_common(p)
    p.add_argument("--connection", action="store_true",
                   help="also run the flat-ambient connection criteria "
                        "(needs euclidean metric and a mask)")
    g = sub.add_parser("gallery", help="list built-in fixtures or emit their specs")
    gsub = g.add_subparsers(dest="gallery_command", required=True)
    gsub.add_parser("list")
    pe = gsub.add_parser("emit")
    pe.add_argument("fixture", choices=FIXTURE_IDS)
    pe.add_argument("--k", type=int, default=2)
    pe.add_argument("--epsilon", type=int, default=-1, choices=(-1, 1))
    pe.add_argument("--gamma", type=float, default=None)
    pe.add_argument("--delta", type=float, default=None)
    pe.add_argument("--out", metavar="PATH", default=None)
    return parser


def _tolerances(spec, args) -> Tolerances:
    overrides = {}
    for flag, field in _TOL_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return spec.tolerances.override(overrides)


def _emit(report: dict, args, title: str):
    print(render_markdown(report, title))
    if args.json_path:
        Path(args.json_path).write_text(report_json(report))


def _load(args):
    spec = load_manifold_spec(args.spec)
    return spec, _tolerances(spec, args)


def cmd_validate(args) -> int:
    spec, tol = _load(args)
    verdict = validate_structure(spec.structure, spec.points, trials=args.trials,
                                 tol=tol.structure, seed=args.seed)
    report = make_run_report(spec.digest(), args.seed, structure=verdict.to_json_dict())
    _emit(report, args, "Structure validation report")
    return 0 if verdict.passed else MATH_FAILURE


def cmd_classify(args) -> int:
    spec, tol = _load(args)
    verdict = validate_structure(spec.structure, spec.points, trials=args.trials,
                                 tol=tol.structure, seed=args.seed)
    if not verdict.passed and not args.force:
        report = make_run_report(spec.digest(), args.seed, structure=verdict.to_json_dict())
        _emit(report, args, "Classification report (structure failed)")
        print("structure validation failed; use --force to classify anyway",
              file=sys.stderr)
        return MATH_FAILURE
    if spec.discovery:
        cls = discover(spec.structure, spec.points, mask=spec.mask,
                       tolerances=tol, seed=args.seed)
    else:
        cls = classify(spec.decomposition, spec.points, tolerances=tol, seed=args.seed)
    report = make_run_report(spec.digest(), args.seed, structure=verdict.to_json_dict(),
                             classification=cls.to_json_dict())
    _emit(report, args, "Classification report")
    return 0


def cmd_dual(args) -> int:
    spec, tol = _load(args)
    if spec.discovery:
        raise SpecError("the dual command needs a declared decomposition")
    verdict = validate_structure(spec.structure, spec.points, trials=args.trials,
                                 tol=tol.structure, seed=args.seed)
    dual = dual_report(spec.decomposition, spec.points, tolerances=tol)
    report = make_run_report(spec.digest(), args.seed, structure=verdict.to_json_dict(),
                             dual=dual)
    _emit(report, args, "Dual decomposition report")
    return 0 if (verdict.passed and dual["passed"]) else MATH_FAILURE


def cmd_identities(args) -> int:
    spec, tol = _load(args)
    if spec.discovery:
        raise SpecError("the identities command needs a declared decomposition")
    verdict = validate_structure(spec.structure, spec.points, trials=args.trials,
                                 tol=tol.structure, seed=args.seed)
    suite = run_identity_suite(spec.decomposition, spec.points, trials=args.trials,
                               tolerances=tol, seed=args.seed)
    connection = None
    if args.connection:
        connection = connection_criterion_report(spec.decomposition, spec.points,
                                                 tolerances=tol, seed=args.seed)
    report = make_run_report(spec.digest(), args.seed, structure=verdict.to_json_dict(),
                             identities=suite.to_json_dict(), connection=connection)
    _emit(report, args, "Identity suite report")
    ok = verdict.passed and suite.passed and (connection is None or connection["consistent"])
    return 0 if ok else MATH_FAILURE


def cmd_gallery(args) -> int:
    if args.gallery_command == "list":
        for fid in FIXTURE_IDS:
            print(fid)
        return 0
    fx = build_fixture(args.fixture, k=args.k, epsilon=args.epsilon,
                       gamma=args.gamma, delta=args.delta)
    doc = fixture_to_spec_dict(fx)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (digest {spec_digest(doc)[:12]})")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    commands = {"validate": cmd_validate, "classify": cmd_classify, "dual": cmd_dual,
                "identities": cmd_identities, "gallery": cmd_gallery}
    try:
        return commands[args.command](args)
    except (SpecError, ParseError, ParamError, UnsupportedError, EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)      # OSError: a report or spec not written
        return USAGE_ERROR
    except SlantKitError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
