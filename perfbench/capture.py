"""Capture the reference reports that every benchmark run compares against.

    python3 perfbench/capture.py [WORKLOAD ...]

For each workload (all by default) this runs every benchmark command once at
REFERENCE_SEED and writes `perfbench/reference/<workload>.json`: the
seed-independent view (`checks.reduce_report`) of each command's `--json`
report. A report whose values disagree with the fixture's closed forms is
not written. Re-capture only when a change to slantkit is meant to change
its reports, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from checks import oracle_mismatches, reduce_report
from workloads import COMMANDS, TRIALS, WORKLOADS

REFERENCE_SEED = 0


def capture(name: str) -> dict:
    from slantkit import cli
    from slantkit.config import DEFAULT_TOLERANCES as tol
    workload = WORKLOADS[name]
    fx = workload.fixture_obj()
    docs = dict(zip(("declared", "discovery"), workload.spec_docs(fx, REFERENCE_SEED)))
    run.OUT.mkdir(exist_ok=True)
    commands = {}
    for metric, args, variant in COMMANDS:
        spec_path = run.OUT / f"capture-{name}-{variant}.json"
        spec_path.write_text(json.dumps(docs[variant]))
        json_path = run.OUT / f"capture-{name}-{metric}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(run.command_argv(args, spec_path, json_path, REFERENCE_SEED))
        if rc != 0:
            run.fail(f"{name} {metric}: exit code {rc}")
        report = json.loads(json_path.read_text())
        bad = oracle_mismatches(report, fx, variant == "discovery",
                                tol.angle_const, tol.cluster)
        if bad:
            run.fail(f"{name} {metric}: " + "; ".join(bad[:5]))
        commands[metric] = reduce_report(report)
    return {"workload": name, "seed": REFERENCE_SEED, "trials": TRIALS,
            "commands": commands}


def main(names) -> int:
    run.import_slantkit()
    for name in names or sorted(WORKLOADS):
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(capture(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
