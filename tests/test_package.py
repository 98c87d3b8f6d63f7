import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slantkit

REMOVED = ("slant_spectrum", "slant_function_table", "dual_slant_theta", "dual_identity_suite",
           "FWSplit", "fw_split", "f_squared_matrix")


def test_every_export_resolves():
    missing = [name for name in slantkit.__all__ if not hasattr(slantkit, name)]
    assert missing == []
    assert set(slantkit.__all__) <= set(dir(slantkit))
    bound = {}
    exec("from slantkit import *", bound)
    assert {name: bound[name] for name in slantkit.__all__} == {
        name: getattr(slantkit, name) for name in slantkit.__all__}
    assert bound["classify"] is importlib.import_module("slantkit.classifier").classify


def test_submodules_are_attributes_and_other_names_are_not():
    assert slantkit.verifier is importlib.import_module("slantkit.verifier")
    with pytest.raises(AttributeError, match="no_such_name"):
        slantkit.no_such_name
    assert not hasattr(slantkit, "no.such.module")


# What `import slantkit` and then a spec load import, in a fresh interpreter,
# and the dataclasses that the loaded modules define.
_IMPORT_PROBE = """
import dataclasses, json, sys
def ours():
    return sorted(k for k in sys.modules if k.startswith("slantkit."))
import slantkit
bare = ours()
from slantkit.specfile import load_manifold_spec
load_manifold_spec(sys.argv[1])
loaded = ours()
defined = [f"{m}.{name}" for m in loaded for name, obj in vars(sys.modules[m]).items()
           if isinstance(obj, type) and obj.__module__ == m and dataclasses.is_dataclass(obj)]
print(json.dumps([bare, loaded, defined]))
"""

SPEC_LOADER_MODULES = ["config", "distribution", "errors", "expr", "linalg", "sampling",
                       "specfile", "structure"]


@pytest.fixture(scope="module")
def spec_load_probe(tmp_path_factory):
    from slantkit.gallery import build_fixture, fixture_to_spec_dict
    fx = build_fixture("ex8", k=2, epsilon=-1, gamma=0.5)
    spec = tmp_path_factory.mktemp("probe") / "ex8.json"
    spec.write_text(json.dumps(fixture_to_spec_dict(fx, points=fx.default_points()[:2])))
    env = dict(os.environ, PYTHONPATH=str(Path(slantkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(spec)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_and_spec_load_import_only_what_they_use(spec_load_probe):
    """`import slantkit` imports no submodule (its exports load on first
    use), and loading a spec imports only the spec loader's modules."""
    bare, loaded, _ = spec_load_probe
    assert bare == []
    assert loaded == [f"slantkit.{name}" for name in SPEC_LOADER_MODULES]


def test_spec_load_defines_no_dataclass(spec_load_probe):
    """A dataclass compiles its generated methods at every import of its
    module; no module that a spec load imports defines one."""
    assert spec_load_probe[2] == []


def test_removed_per_point_functions_are_not_exported():
    assert set(REMOVED).isdisjoint(slantkit.__all__)
    assert [name for name in REMOVED if hasattr(slantkit, name)] == []


def _unread_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of `path` that no expression
    of the module reads (`__future__` imports aside)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    package = Path(slantkit.__file__).parent
    unread = [entry for path in sorted(package.glob("*.py")) for entry in _unread_imports(path)]
    assert unread == []


# Builtins that turn text into running code. Spec text is read by the parser and
# evaluated through `expr`'s operation table; no module may hand it to these.
CODE_BUILTINS = ("exec", "eval", "compile")


def _code_builtins_used(path: Path) -> list[str]:
    """Each read of exec, eval or compile in `path`, as a bare name or an
    attribute of `builtins`; `re.compile` and other methods are not builtins."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            name = node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "builtins"):
            name = node.attr
        else:
            continue
        if name in CODE_BUILTINS:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_turns_text_into_code():
    package = Path(slantkit.__file__).parent
    used = [entry for path in sorted(package.glob("*.py")) for entry in _code_builtins_used(path)]
    assert used == []
