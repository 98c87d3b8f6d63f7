"""The benchmark (`perfbench/`) relies on slantkit in two ways checked here.
Its trace (`perfbench/tracing.py`, run by `--trace 1`) wraps slantkit
functions and methods it looks up by name: every name it lists must resolve,
so that renaming or deleting one fails here rather than in a traced benchmark
run. And its set-up timing imports slantkit afresh between commands that run
through the `cli` imported first: the reports must not change."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_functions_resolve():
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_traced_methods_resolve():
    missing = []
    for mod, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing


def _slantkit_modules():
    return {k: m for k, m in sys.modules.items() if k == "slantkit" or k.startswith("slantkit.")}


@contextlib.contextmanager
def _fresh_set_up(spec):
    """One sample of perfbench's `measure_setup`: slantkit leaves
    `sys.modules`, then `import slantkit` and `load_manifold_spec(spec)`
    import it afresh, while callers keep the modules they imported first.
    The first modules are put back afterwards."""
    saved = _slantkit_modules()
    for key in saved:
        del sys.modules[key]
    try:
        import slantkit  # noqa: F401
        from slantkit.specfile import load_manifold_spec
        load_manifold_spec(str(spec))
        yield
    finally:
        for key in _slantkit_modules():
            del sys.modules[key]
        sys.modules.update(saved)


@pytest.mark.parametrize("fid, params", [("ex8", dict(k=2, epsilon=-1, gamma=0.5)),
                                         ("ex5", dict(k=2, epsilon=1, gamma=2.0))],
                         ids=["ex8", "ex5"])
def test_benchmark_commands_survive_a_fresh_set_up(tmp_path, fid, params):
    """The six benchmark commands, run through the held `cli` after a fresh
    set-up, write the reports of the held package byte for byte, and import
    nothing: the fresh package holds only what the spec loader imported, so
    no command compiles a module while it is timed."""
    from slantkit import cli
    from slantkit.gallery import build_fixture, fixture_to_spec_dict

    fx = build_fixture(fid, **params)
    doc = fixture_to_spec_dict(fx, points=fx.default_points()[:4])
    specs = {"declared": tmp_path / "declared.json", "discovery": tmp_path / "discovery.json"}
    specs["declared"].write_text(json.dumps(doc))
    specs["discovery"].write_text(json.dumps(dict(doc, decomposition=None)))

    def reports(tag):
        out = {}
        for metric, args, variant in workloads.COMMANDS:
            path = tmp_path / f"{tag}-{metric}.json"
            argv = [args[0], str(specs[variant]), "--json", str(path), "--seed", "3",
                    "--trials", str(workloads.TRIALS), *args[1:]]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, metric
            out[metric] = path.read_bytes()
        return out

    held = reports("held")
    with _fresh_set_up(specs["declared"]):
        loaded = set(_slantkit_modules())
        fresh = reports("fresh")
        assert sorted(set(_slantkit_modules()) - loaded) == []
    assert fresh == held
