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


# Public names that only code outside src/ calls, with the reason each stays.
_CALLED_FROM_OUTSIDE = {
    "cascade.read_population": "the benchmark gate, perfbench/run.py, reads population.bin through it",
}


def test_every_public_function_and_class_is_called():
    # a name counts as used when a top-level statement other than its own
    # definition, in any module of the package, reads it
    defined, used = {}, set()
    for path in (ROOT / "src" / "diamondgmc").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[f"{path.stem}.{owner}"] = owner
            used |= {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
            } - {owner}
    uncalled = {qual for qual, name in defined.items() if name not in used}
    assert uncalled == set(_CALLED_FROM_OUTSIDE)


def test_no_module_reads_another_modules_private_name():
    # a name with one leading underscore stays in its module: no module of the
    # package imports one from another, or reads one as an attribute of another
    modules = {path.stem for path in (ROOT / "src" / "diamondgmc").glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = set()
    for path in (ROOT / "src" / "diamondgmc").glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "diamondgmc"):
                reads |= {f"{path.stem}: {a.name}" for a in node.names if private(a.name)}
                imported |= {a.asname or a.name for a in node.names if a.name in modules}
        reads |= {
            f"{path.stem}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported and private(node.attr)
        }
    assert reads == set()


def test_one_budget_table_and_one_budget_check():
    # every budget constant is assigned in the table of errors.py, and the
    # one check there, check_budget, is the only place a BudgetError is raised
    raises, assigned = [], set()
    for path in (ROOT / "src" / "diamondgmc").glob("*.py"):
        tree = ast.parse(path.read_text())
        # breadth first, so an inner function's name overwrites its outer one's
        owner = {
            id(node): func.name
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        raises += [
            f"{path.stem}.{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and re.match(r"BudgetError\b", ast.unparse(node.exc))
        ]
        assigned |= {
            f"{path.stem}.{target.id}"
            for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.endswith("_BUDGET")
        }
    assert raises == ["errors.check_budget"]
    assert {name.split(".")[0] for name in assigned} == {"errors"}
