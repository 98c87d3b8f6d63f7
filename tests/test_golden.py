"""Golden reports: the CLI's JSON reports on a fixed set of gallery specs keep
their verdicts, and their residuals stay within the tolerances that govern
them.

`tests/golden/<case>.json` holds, per command, the seed-independent view of
the report (`perfbench/checks.reduce_report`); the comparison is
`perfbench/checks.reference_mismatches`, the same one the benchmark applies
to its own workloads, which are deliberately not repeated here. Regenerate
the files only when a change is meant to change reports, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from slantkit import cli
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.gallery import build_fixture, fixture_to_spec_dict

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 11
POINTS = 6
TRIALS = 50

CASES = {
    "ex1-k2": dict(fid="ex1", k=2, epsilon=-1),
    "ex3-k2": dict(fid="ex3", k=2, epsilon=1),
    "ex4-k2": dict(fid="ex4", k=2, epsilon=-1, gamma=0.5),
    "ex9-k3": dict(fid="ex9", k=3, epsilon=1, gamma=2.0),
}

# command name -> (CLI arguments after the spec path, spec variant)
COMMANDS = {
    "validate": (("validate",), "declared"),
    "classify": (("classify",), "declared"),
    "dual": (("dual",), "declared"),
    "connection": (("identities", "--connection"), "declared"),
    "discover": (("classify",), "discovery"),
}


def _load_checks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


def spec_docs(case: str) -> dict:
    fx = build_fixture(**CASES[case])
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:1])
    doc["sample_points"] = {"seed": SEED, "count": POINTS}
    return {"declared": doc, "discovery": dict(doc, decomposition=None)}


def run_report(workdir: Path, case: str, command: str) -> dict:
    args, variant = COMMANDS[command]
    spec_path = workdir / f"{case}-{variant}.json"
    spec_path.write_text(json.dumps(spec_docs(case)[variant]))
    json_path = workdir / f"{case}-{command}.json"
    argv = [args[0], str(spec_path), "--json", str(json_path), "--seed", str(SEED),
            "--trials", str(TRIALS), *args[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0, f"{case} {command}: exit code {rc}"
    return json.loads(json_path.read_text())


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case, command):
    golden = json.loads((GOLDEN / f"{case}.json").read_text())
    assert golden["seed"] == SEED and golden["trials"] == TRIALS
    report = run_report(tmp_path, case, command)
    mismatches = checks.reference_mismatches(report, golden["commands"][command], SEED,
                                             DEFAULT_TOLERANCES.principal)
    assert not mismatches, "\n".join(mismatches[:10])


def capture(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        commands = {c: checks.reduce_report(run_report(workdir, case, c))
                    for c in sorted(COMMANDS)}
        doc = {"case": case, "params": CASES[case], "seed": SEED, "points": POINTS,
               "trials": TRIALS, "commands": commands}
        path = GOLDEN / f"{case}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        capture(Path(tmp))
