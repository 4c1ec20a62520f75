"""Static checks of the package source: every import is used, and every
private name, at module level or in a class body, is used somewhere in the
package.

They catch what a deletion leaves behind, such as a constant or a method
whose only reader went away.  Names listed in a module's ``__all__`` count
as used, since they are exported.
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


def class_private_members(tree):
    """(class, member) for each private method and class attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) \
                    else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((node.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__"))


def package_reads():
    used = set()
    for tree in MODULES.values():
        used |= loaded_names(tree) | set(imported_names(tree))
    return used


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = loaded_names(tree) | exported(tree)
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{name} imports unused names: {unused}"


def test_every_private_module_name_is_used():
    used = package_reads()
    unused = sorted(
        f"{name}:{private}" for name, tree in MODULES.items()
        for private in module_private_names(tree)
        if private.startswith("_") and not private.startswith("__")
        and private not in used)
    assert not unused, f"private names nothing uses: {unused}"


def test_every_private_class_member_is_used():
    used = package_reads()
    unused = sorted(
        f"{name}:{cls}.{member}" for name, tree in MODULES.items()
        for cls, member in class_private_members(tree) if member not in used)
    assert not unused, f"private class members nothing reads: {unused}"


def test_the_checks_see_a_leftover():
    tree = ast.parse("import os\nfrom math import pi\n_UNUSED = (5, 9)\n"
                     "__all__ = ['pi']\n")
    assert set(imported_names(tree)) - loaded_names(tree) - exported(tree) \
        == {"os"}
    assert list(module_private_names(tree)) == ["_UNUSED", "__all__"]
    assert "_UNUSED" not in loaded_names(tree)
    tree = ast.parse("class Norm:\n    _SCALE = 2\n    __slots__ = ()\n"
                     "    def __call__(self, v):\n        return self._at(v)\n"
                     "    def _at(self, v):\n        return v\n"
                     "    def _dual_at(self, v):\n        return v\n")
    members = list(class_private_members(tree))
    assert members == [("Norm", "_SCALE"), ("Norm", "_at"),
                       ("Norm", "_dual_at")]
    assert [m for _, m in members if m not in loaded_names(tree)] == \
        ["_SCALE", "_dual_at"]
