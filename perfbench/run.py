"""slantkit benchmark: CLI wall time on gallery workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. One process per run, closed loop: the commands run one after another
through `slantkit.cli.main([...])` on a spec generated from the seed.

`--trace 0` times set-up (repeated `import slantkit` + `load_manifold_spec`)
and each command over passes that fill `--seconds`. Each time metric is the
run's median, scaled by how fast the host ran a fixed reference kernel
during the run (`host_reference`), so that a run on a momentarily slow host
reads like one on a fast host. `--trace 1` runs every command once untraced
and once with spans recorded at each layer's public functions, and reports
the per-layer metrics derived from the spans (unscaled).
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
`failed` count correctness checks (their ratio is the error rate).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PER_PASS = 2
PASS_SHARE_S = 0.3
# Typical time of host_reference() on the reference host; time metrics are
# scaled by REFERENCE_S / (median host_reference time in the run).
REFERENCE_S = 0.02
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
from checks import oracle_mismatches, reference_mismatches  # noqa: E402
from workloads import COMMANDS, TRIALS, WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_slantkit():
    if not (SRC / "slantkit" / "__init__.py").is_file():
        fail(f"no slantkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import slantkit
    if Path(slantkit.__file__).resolve().parent != (SRC / "slantkit").resolve():
        fail(f"imported slantkit from {slantkit.__file__}, not from {SRC}")


def purge_slantkit():
    for key in [k for k in sys.modules if k == "slantkit" or k.startswith("slantkit.")]:
        del sys.modules[key]


def measure_setup(spec_path: Path, repeats: int) -> list[float]:
    """Wall time of `import slantkit` through `load_manifold_spec`, on a fresh
    import of the package each time (numpy stays imported). Modules already
    held by the caller keep working; only `sys.modules` is refreshed."""
    samples = []
    for _ in range(repeats):
        purge_slantkit()
        gc.collect()
        t0 = time.perf_counter()
        import slantkit  # noqa: F401
        from slantkit.specfile import load_manifold_spec
        load_manifold_spec(str(spec_path))
        samples.append(time.perf_counter() - t0)
    return samples


def _tree(depth: int):
    return (depth, _tree(depth - 1), _tree(depth - 1)) if depth else (0, None, None)


def _walk(node) -> int:
    value, left, right = node
    return value + (_walk(left) if left else 0) + (_walk(right) if right else 0)


def host_reference() -> float:
    """Wall time of a fixed, interpreter-bound piece of work that never
    changes with slantkit: building and walking a tuple tree and filling a
    dict of formatted strings, much as spec loading and expression
    evaluation do. Timed next to every command, it measures how fast the
    host runs Python at that moment."""
    t0 = time.perf_counter()
    total = 0
    for _ in range(10):
        total += _walk(_tree(11))
        table = {f"x{i}": i * 0.5 for i in range(2000)}
        total += len(",".join(table))
    return time.perf_counter() - t0


def blas_threads():
    """OpenBLAS thread count of the numpy in this process, if it can be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def command_argv(args, spec_path: Path, json_path: Path, seed: int) -> list[str]:
    """CLI arguments of one benchmark command (`args` from COMMANDS)."""
    return [args[0], str(spec_path), "--json", str(json_path), "--seed", str(seed),
            "--trials", str(TRIALS), *args[1:]]


class Runner:
    """Runs CLI commands in-process and checks their reports."""

    def __init__(self, workload, fx, seed, spec_paths, reference, tolerances):
        from slantkit import cli
        self.cli = cli
        self.workload = workload
        self.fx = fx
        self.seed = seed
        self.spec_paths = spec_paths
        self.reference = reference
        self.tol = tolerances
        self.attempted = 0
        self.failed = 0
        self.first_bytes: dict[str, bytes] = {}

    def check(self, ok: bool, what: str, details=()):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
            for line in list(details)[:5]:
                print(f"    {line}", file=sys.stderr)

    def invoke(self, metric, args, variant, tracer=None) -> float:
        """Run one command; returns its wall time and records its checks."""
        json_path = OUT / f"{self.workload.name}-{metric}.json"
        argv = command_argv(args, self.spec_paths[variant], json_path, self.seed)
        if json_path.exists():
            json_path.unlink()
        gc.collect()
        sink = io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed check, not a dead run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.command_done()
        self.check(rc == 0 and error is None and json_path.exists(),
                   f"{metric}: exit code {rc}", [error or sink.getvalue()[-400:]])
        if not json_path.exists():
            return elapsed
        data = json_path.read_bytes()
        first = self.first_bytes.get(metric)
        if first is None:
            self.first_bytes[metric] = data
            report = json.loads(data)
            self.check_report(metric, variant, report)
        else:
            self.check(data == first, f"{metric}: report bytes differ on a repeat")
        return elapsed

    def check_report(self, metric, variant, report):
        ref = self.reference["commands"][metric]
        self.check_list(f"{metric}: reference", reference_mismatches(
            report, ref, self.seed, self.tol.principal))
        self.check_list(f"{metric}: closed forms", oracle_mismatches(
            report, self.fx, variant == "discovery", self.tol.angle_const, self.tol.cluster))

    def check_list(self, what, mismatches):
        self.check(not mismatches, f"{what} ({len(mismatches)} mismatches)", mismatches)


def timed_run(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Passes over all commands until the next pass would end after
    `seconds` (at least MIN_PASSES). Within a pass each command repeats until
    it has run for PASS_SHARE_S, so short commands collect as many samples
    as long ones collect seconds. Set-up repeats and the host reference are
    spread over the passes too, so every metric samples the whole run."""
    samples: dict[str, list[float]] = {m: [] for m, _, _ in COMMANDS}
    samples["setup_s"] = []
    samples["host_reference"] = []
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        samples["setup_s"] += measure_setup(runner.spec_paths["declared"], SETUP_PER_PASS)
        for metric, args, variant in COMMANDS:
            spent = 0.0
            while spent < PASS_SHARE_S:
                samples["host_reference"].append(host_reference())
                elapsed = runner.invoke(metric, args, variant)
                samples[metric].append(elapsed)
                spent += elapsed
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - t0) > start + seconds:
            return samples


def traced_run(runner: Runner, trace_path: Path) -> tuple[dict, float, float]:
    """One untraced and one traced pass over all commands."""
    from tracing import Tracer, layer_metrics
    untraced = sum(runner.invoke(m, a, v) for m, a, v in COMMANDS)
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    try:
        for metric, args, variant in COMMANDS:
            first = len(tracer.spans)
            wall = runner.invoke(metric, args, variant, tracer)
            traced += wall
            roots = sum(1 for s in tracer.spans[first:] if s[1] == -1)
            self_sum = sum(tracer.self_times()[first:])
            print(f"command {metric} traced_wall={wall:.6f} span_self_sum={self_sum:.6f} "
                  f"spans={len(tracer.spans) - first}")
            runner.check(roots == 1 and abs(wall - self_sum) <= max(1e-3, 0.01 * wall),
                         f"{metric}: span self times sum to {self_sum:.6f} s, "
                         f"traced wall time {wall:.6f} s")
    finally:
        tracer.remove()
    tracer.write(trace_path)
    return layer_metrics(tracer), untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads_env = os.environ.pop("SLANTKIT_THREADS", None)
    import_slantkit()
    import numpy
    from slantkit.config import DEFAULT_TOLERANCES

    workload = WORKLOADS[args.workload]
    reference_path = HERE / "reference" / f"{workload.name}.json"
    if not reference_path.is_file():
        fail(f"missing reference reports {reference_path}; run perfbench/capture.py")
    reference = json.loads(reference_path.read_text())

    OUT.mkdir(exist_ok=True)
    fx = workload.fixture_obj()
    declared, discovery = workload.spec_docs(fx, args.seed)
    spec_paths = {"declared": OUT / f"{workload.name}-spec.json",
                  "discovery": OUT / f"{workload.name}-spec-discovery.json"}
    spec_paths["declared"].write_text(json.dumps(declared))
    spec_paths["discovery"].write_text(json.dumps(discovery))

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "blas_threads": blas_threads(),
           "SLANTKIT_THREADS": "unset" if threads_env is None else f"unset (was {threads_env})"}
    npoints = workload.points
    info = {"workload": workload.name, "fixture": workload.fixture, "k": workload.k,
            "n": fx.structure.n, "epsilon": workload.epsilon, "gamma": workload.gamma,
            "delta": workload.delta, "points": npoints, "trials": TRIALS,
            "generator_seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    print("env " + json.dumps(env, sort_keys=True))
    print("workload " + json.dumps(info, sort_keys=True))

    metrics: dict[str, dict] = {}
    runner = Runner(workload, fx, args.seed, spec_paths, reference, DEFAULT_TOLERANCES)

    if args.trace == 0:
        samples = timed_run(runner, args.seconds)
        host = statistics.median(samples.pop("host_reference"))
        scale = REFERENCE_S / host
        print(f"host_reference median={host:.6f} s, scale {scale:.6f} (reference {REFERENCE_S} s)")
        for metric, values in samples.items():
            raw = statistics.median(values)
            metrics[metric] = {"value": raw * scale, "unit": "s"}
            print(f"metric {metric} value={raw * scale:.6f} raw_median={raw:.6f} "
                  f"raw_min={min(values):.6f} raw_max={max(values):.6f} n={len(values)} "
                  f"unit=s samples={json.dumps([round(v, 6) for v in values])}")
        pass_s = sum(metrics[m]["value"] for m, _, _ in COMMANDS)
        metrics["points_per_s"] = {"value": npoints / pass_s, "unit": "1/s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        print(f"metric points_per_s value={npoints / pass_s:.6f} n=1 unit=1/s "
              f"({npoints} points / {pass_s:.6f} s, the sum of the command medians)")
        print(f"metric peak_rss_mb value={rss:.3f} n=1 unit=MB")
    else:
        trace_path = OUT / f"trace-{workload.name}.json"
        layers, untraced, traced = traced_run(runner, trace_path)
        layers["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"layer {name} value={value} unit={unit}")
        print(f"trace written to {trace_path.relative_to(ROOT)}")

    print(f"checks attempted={runner.attempted} failed={runner.failed} "
          f"error_rate={runner.failed / max(runner.attempted, 1)}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
