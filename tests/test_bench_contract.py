"""The benchmark's trace (`perfbench/tracing.py`, run by `--trace 1`) wraps
slantkit functions and methods it looks up by name. Every name it lists must
resolve, so that renaming or deleting one fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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


def test_connection_probe_survives_a_fresh_import(tmp_path):
    """The benchmark's set-up passes import slantkit afresh (purging
    `sys.modules`) while its runner keeps calling the `cli` it imported
    first. Code the probe imports on first use then comes from the fresh
    package and meets objects of the first one; the report must not
    change."""
    import contextlib
    import io
    import json
    import sys

    from slantkit import cli
    from slantkit.gallery import build_fixture, fixture_to_spec_dict

    fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5)
    spec = tmp_path / "ex8.json"
    spec.write_text(json.dumps(fixture_to_spec_dict(fx, points=fx.default_points()[:3])))

    def connection(name):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["identities", str(spec), "--connection", "--json", str(out)]) == 0
        return json.loads(out.read_text())["connection"]

    def ours():
        return {k: m for k, m in sys.modules.items() if k == "slantkit" or k.startswith("slantkit.")}

    saved = ours()
    for key in saved:
        del sys.modules[key]
    try:
        importlib.import_module("slantkit")
        fresh = connection("fresh.json")
    finally:
        for key in ours():
            del sys.modules[key]
        sys.modules.update(saved)
    assert fresh == connection("held.json")


def test_dual_and_classify_survive_a_fresh_import(tmp_path):
    """As above for `dual` and `classify` (declared and discovery): their
    frames, complements and dual slices are built while slantkit is
    imported afresh, and the reports must not change."""
    import contextlib
    import io
    import json
    import sys

    from slantkit import cli
    from slantkit.gallery import build_fixture, fixture_to_spec_dict

    specs = {}
    for fid, params in (("ex8", dict(k=2, epsilon=-1, gamma=0.5)),
                        ("ex5", dict(k=2, epsilon=1, gamma=2.0))):
        fx = build_fixture(fid, **params)
        doc = fixture_to_spec_dict(fx, points=fx.default_points()[:4])
        for variant, dec in (("declared", doc["decomposition"]), ("discovery", None)):
            specs[fid, variant] = tmp_path / f"{fid}-{variant}.json"
            specs[fid, variant].write_text(json.dumps(dict(doc, decomposition=dec)))

    def reports(tag):
        out = {}
        for (fid, variant), spec in specs.items():
            for command in (("classify",) if variant == "discovery" else ("classify", "dual")):
                path = tmp_path / f"{tag}-{fid}-{variant}-{command}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([command, str(spec), "--json", str(path)]) == 0
                out[fid, variant, command] = path.read_bytes()
        return out

    def ours():
        return {k: m for k, m in sys.modules.items() if k == "slantkit" or k.startswith("slantkit.")}

    saved = ours()
    for key in saved:
        del sys.modules[key]
    try:
        importlib.import_module("slantkit")
        fresh = reports("fresh")
    finally:
        for key in ours():
            del sys.modules[key]
        sys.modules.update(saved)
    assert fresh == reports("held")
