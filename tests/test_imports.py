"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import projlat

MODULES = sorted(Path(projlat.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement anywhere in the module that no
    other expression reads; names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


def test_unused_import_is_caught():
    source = "from .gf import GF, parse_field\nparse_field('2')\n"
    assert unused_imports(source) == {"GF"}
    assert unused_imports("import os.path\n__all__ = ['os']\n") == set()


def local_package_imports(source: str) -> list[str]:
    """The package modules imported inside a function body: every
    relative import, and every import of projlat, made by a statement
    below a def. Imports of other packages, such as the pool's lazy
    multiprocessing, are not counted."""
    tree = ast.parse(source)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "projlat"
            ):
                found.append(f"{func.name}: {'.' * node.level}{node.module or ''}")
            elif isinstance(node, ast.Import):
                found += [
                    f"{func.name}: {a.name}" for a in node.names if a.name.split(".")[0] == "projlat"
                ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_from_the_package(path):
    """Every module imports the package's names at its top, where an
    import cycle would show at once."""
    assert local_package_imports(path.read_text()) == []


def test_function_local_package_import_is_caught():
    source = (
        "def f():\n    from .gf import GF\n    import projlat.maps\n    import multiprocessing\n"
        "def g():\n    from . import autos\n"
    )
    assert local_package_imports(source) == ["f: .gf", "f: projlat.maps", "g: ."]


def refusal_sites(source: str) -> list[str | None]:
    """The function around each raise of AmbientTooLarge, innermost first;
    None for a raise at module level."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "AmbientTooLarge":
                    sites.append(func)
            visit(child, func)

    visit(ast.parse(source), None)
    return sites


def test_ambient_refusals_are_raised_in_one_function():
    """Every refusal of an ambient goes through lattice.check_limit, the one
    place that writes its message."""
    sample = "def f():\n    raise AmbientTooLarge('x')\nraise AmbientTooLarge\n"
    assert refusal_sites(sample) == ["f", None]
    sites = [(path.name, func) for path in MODULES for func in refusal_sites(path.read_text())]
    assert sites == [("lattice.py", "check_limit")]
