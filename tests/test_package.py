import ast
from pathlib import Path

import slantkit

REMOVED = ("slant_spectrum", "slant_function_table", "dual_slant_theta", "dual_identity_suite",
           "FWSplit", "fw_split", "f_squared_matrix")


def test_every_export_resolves():
    missing = [name for name in slantkit.__all__ if not hasattr(slantkit, name)]
    assert missing == []


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
    # __init__ imports its names to re-export them
    package = Path(slantkit.__file__).parent
    unread = [entry for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for entry in _unread_imports(path)]
    assert unread == []
