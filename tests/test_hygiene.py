"""Static checks of the package source: every import is used, every
private name, at module level or in a class body, is used somewhere in the
package, and the slow optional imports happen inside functions.

They catch what a deletion leaves behind, such as a constant or a method
whose only reader went away.  Names listed in a module's ``__all__`` count
as used, since they are exported.  ``scipy`` and ``jsonschema`` take longer
to import than a typical CLI problem takes to run, so importing either at
module level would slow every cold start.
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


def eager_imports(tree, roots=("scipy", "jsonschema")):
    """(line, module) for each import of a package in ``roots`` that runs
    when the module or a class body runs, not inside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            found.extend((child.lineno, module) for module in modules
                         if module.partition(".")[0] in roots)
            visit(child)

    visit(tree)
    return found


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


@pytest.mark.parametrize("name", sorted(MODULES))
def test_scipy_and_jsonschema_are_imported_inside_functions(name):
    eager = eager_imports(MODULES[name])
    assert not eager, f"{name} imports at load time: {eager}"


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
    tree = ast.parse("import scipy.optimize\nimport numpy, jsonschema\n"
                     "try:\n    from scipy import linalg\n"
                     "except ImportError:\n    pass\n"
                     "class Solver:\n    from jsonschema import validate\n"
                     "def solve():\n    from scipy.optimize import linprog\n"
                     "    def inner():\n        import jsonschema\n"
                     "from . import scipy_free\nimport scipyx\n")
    assert eager_imports(tree) == [(1, "scipy.optimize"), (2, "jsonschema"),
                                   (4, "scipy"), (8, "jsonschema")]
