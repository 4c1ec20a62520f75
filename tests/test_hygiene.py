"""Static checks of the package source: every import is used, and every
module-level private name is used somewhere in the package.

Both catch what a deletion leaves behind, such as a constant whose only
reader went away.  Names listed in a module's ``__all__`` count as used,
since they are exported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stieltjes"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def loaded_names(tree):
    """Names read in ``tree``: plain names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """The names each import statement of ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def module_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = loaded_names(tree) | exported(tree)
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{name} imports unused names: {unused}"


def test_every_private_module_name_is_used():
    used = set()
    for tree in MODULES.values():
        used |= loaded_names(tree) | set(imported_names(tree))
    unused = sorted(
        f"{name}:{private}" for name, tree in MODULES.items()
        for private in module_private_names(tree)
        if private.startswith("_") and not private.startswith("__")
        and private not in used)
    assert not unused, f"private names nothing uses: {unused}"


def test_the_checks_see_a_leftover():
    tree = ast.parse("import os\nfrom math import pi\n_UNUSED = (5, 9)\n"
                     "__all__ = ['pi']\n")
    assert set(imported_names(tree)) - loaded_names(tree) - exported(tree) \
        == {"os"}
    assert list(module_private_names(tree)) == ["_UNUSED", "__all__"]
    assert "_UNUSED" not in loaded_names(tree)
