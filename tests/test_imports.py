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
