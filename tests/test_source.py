"""The shape of the source: checks over the modules of src/paradirac."""

import ast
import pathlib

import pytest

import paradirac

MODULES = sorted(pathlib.Path(paradirac.__file__).parent.glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
# every name any module reads, bare or as an attribute
READ = {node.id if isinstance(node, ast.Name) else node.attr for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def _unused_imports(path):
    """The names a module's top-level imports bind that it never reads."""
    tree = TREES[path]
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


def _private_definitions(path):
    """The names of a module's top-level functions, classes and constants that begin with one _."""
    names = set()
    for node in TREES[path].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_dead_private_helper(path):
    assert sorted(_private_definitions(path) - READ) == []
