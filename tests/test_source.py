"""The shape of the source: checks over the modules of src/paradirac."""

import ast
import pathlib

import pytest

import paradirac

MODULES = sorted(pathlib.Path(paradirac.__file__).parent.glob("*.py"))


def _unused_imports(path):
    """The names a module's top-level imports bind that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []
