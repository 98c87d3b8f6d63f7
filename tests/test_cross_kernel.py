"""What a report keeps across BLAS kernels.

On one host with one BLAS kernel, reports are byte-identical (C7). Across
kernels, the floats of a report may move in their last bits; the verdicts,
labels, named cases, exit codes and the witness of every failed check stay
the same, and every float agrees within the tightest tolerance. The witness
of a passing check is the argmax of residuals at round-off and may move.

A `DYNAMIC_ARCH` OpenBLAS picks its kernel at load time from
`OPENBLAS_CORETYPE`, so a small CLI sweep runs once per kernel, each in its
own child process, and the two runs are compared.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slantkit
from slantkit.config import DEFAULT_TOLERANCES
from slantkit.gallery import build_fixture, fixture_to_spec_dict

KERNELS = ("Haswell", "Sandybridge")
FLOAT_TOL = min(vars(DEFAULT_TOLERANCES).values())


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


def _runs_haswell_kernels() -> bool:
    try:
        return " avx2 " in Path("/proc/cpuinfo").read_text().replace("\n", " ")
    except OSError:
        return False


pytestmark = [
    pytest.mark.skipif(not _dynamic_openblas(),
                       reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS"),
    pytest.mark.skipif(not _runs_haswell_kernels(),
                       reason="the CPU cannot run the Haswell kernels (no AVX2 flag)"),
]

# Runs the CLI in-process over (spec, arguments) pairs; prints one JSON list
# of [exit code, stdout, stderr, report text] per run.
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
from slantkit import cli
out = []
for i, (spec, args) in enumerate(json.loads(sys.argv[1])):
    report = Path(sys.argv[2]) / f"report-{i}.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([args[0], spec, *args[1:], "--json", str(report)])
    out.append([code, stdout.getvalue(), stderr.getvalue(),
                report.read_text() if report.exists() else None])
print(json.dumps(out))
"""


def _specs(tmp_path) -> dict[str, Path]:
    fixtures = {
        "ex5": build_fixture("ex5", k=3, epsilon=1, gamma=2.0),
        "ex9": build_fixture("ex9", k=3, epsilon=-1, gamma=1.5),
        "ex1": build_fixture("ex1", k=2, epsilon=1),
    }
    docs = {name: fixture_to_spec_dict(fx, points=fx.default_points()[:6])
            for name, fx in fixtures.items()}
    docs["ex1-discovery"] = dict(docs["ex1"], decomposition=None)
    docs["broken"] = dict(docs["ex5"], phi_columns=[list(col) for col in docs["ex5"]["phi_columns"]])
    docs["broken"]["phi_columns"][0][1] = "1.5"     # breaks every structure axiom
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _sweep(paths) -> list:
    runs = [(name, args) for name in ("ex5", "ex9", "ex1")
            for args in (["classify"], ["dual"], ["identities", "--connection"])]
    runs += [("ex1-discovery", ["classify"]), ("broken", ["validate"]),
             ("broken", ["identities"])]
    return [(str(paths[name]), args) for name, args in runs]


def _run(kernel: str, sweep, out_dir: Path) -> list:
    out_dir.mkdir()
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(slantkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(sweep), str(out_dir)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _same_report(a, b, path: str = ""):
    """a and b agree but for float bits and the witnesses of passing checks."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        passing = a.get("passed") is True or a.get("verdict") == "pass"
        for key in a:
            if not (passing and key in ("witness", "witness_point")):
                _same_report(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same_report(x, y, f"{path}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        assert math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (path, a, b)
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def test_reports_keep_their_verdicts_across_blas_kernels(tmp_path):
    sweep = _sweep(_specs(tmp_path))
    first, second = (_run(kernel, sweep, tmp_path / kernel) for kernel in KERNELS)
    assert sorted({code for code, *_ in first}) == [0, 1]
    moved = 0
    for (spec, args), (code, out, err, report), (code2, out2, err2, report2) in zip(
            sweep, first, second):
        where = f"{' '.join(args)} {Path(spec).name}"
        assert (code, err) == (code2, err2), where
        # the summary's lines without a number: verdicts, labels, named cases
        assert ([line for line in out.splitlines() if not any(c.isdigit() for c in line)]
                == [line for line in out2.splitlines() if not any(c.isdigit() for c in line)]
                ), where
        assert (report is None) == (report2 is None), where
        if report is not None:
            _same_report(json.loads(report), json.loads(report2), where)
            moved += report != report2
    # the sweep holds runs whose bytes the kernel changes; else it shows nothing
    assert moved > 0
