"""The package imports exactly the third-party libraries that pyproject declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_the_declared_dependencies():
    imported = set().union(*map(_top_level_imports, (ROOT / "src" / "diamondgmc").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"diamondgmc"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in declared}


def test_only_cascade_starts_threads():
    # one thread fan-out, ``cascade.for_each``, serves every threaded loop
    importers = {
        path.stem for path in (ROOT / "src" / "diamondgmc").glob("*.py")
        if "concurrent" in _top_level_imports(path)
    }
    assert importers == {"cascade"}
