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
