"""The layering of the import graph, read from each module's source with ast.

Every import statement counts, at any depth, so a lazy import inside a
function is held to the same rules as one at the top of the module.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mintime"

# The geometry and the characteristics define the problem; they import only each other.
_LOWER = ("model", "manifold", "characteristics")


def _imports(source: str) -> list[tuple[str, tuple[str, ...]]]:
    """(module, names) of every import in source, a module of the flat mintime
    package: relative imports resolve into mintime, and `from . import x`
    gives the module mintime.x with no names, as `import x` does."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"mintime.{module}" if module else "mintime"
            names = tuple(alias.name for alias in node.names)
            if module == "mintime":
                out.extend((f"mintime.{name}", ()) for name in names)
            else:
                out.append((module, names))
    return out


def _module_imports(name: str) -> list[tuple[str, tuple[str, ...]]]:
    return _imports((SRC / f"{name}.py").read_text())


def test_the_parser_reads_every_form_of_import():
    src = "import math\nimport mintime.cli\ndef f():\n    from . import oracle as o\nfrom .synthesis import _invert, value\n"
    assert _imports(src) == [("math", ()), ("mintime.cli", ()), ("mintime.synthesis", ("_invert", "value")),
                             ("mintime.oracle", ())]


def test_the_exact_reference_imports_nothing_from_mintime():
    mods = [mod for mod, _ in _imports((TESTS / "exact.py").read_text())]
    assert mods and not [mod for mod in mods if mod.split(".")[0] == "mintime"]


@pytest.mark.parametrize("name", _LOWER)
def test_the_problem_layers_import_no_solution_layer(name):
    """model, manifold and characteristics import nothing from synthesis,
    oracle, isochrone, simulator or cli: of mintime they take only each
    other, never the package, whose first read imports every module."""
    allowed = {f"mintime.{low}" for low in _LOWER}
    inside = [mod for mod, _ in _module_imports(name) if mod.split(".")[0] == "mintime"]
    assert set(inside) <= allowed, name


def test_the_oracle_takes_from_the_synthesis_only_the_grid_report_comparison():
    taken = [names for mod, names in _module_imports("oracle") if mod == "mintime.synthesis"]
    assert all(names and set(names) <= {"_invert", "locus_distance"} for names in taken)


def _package_reads_at_import(source: str) -> list[int]:
    """Lines of the imports that source runs at module level, outside any
    function, and that read the mintime package: `from . import x` and
    `from mintime import x`."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "mintime")):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_the_finder_sees_package_reads_at_module_level_only():
    src = ("from . import model\nfrom .model import State\nimport mintime.model\n"
           "if True:\n    from mintime import oracle\nclass C:\n    from . import x\n"
           "def f():\n    from . import oracle\n")
    assert sorted(_package_reads_at_import(src)) == [1, 5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_the_package_at_import(path):
    """A package read while a module runs its body would enter the package's
    loader, which imports every module, with that module half made."""
    assert _package_reads_at_import(path.read_text()) == [], path.name
