"""Static checks of the package source: every import is used, every
private name, at module level or in a class body, is used somewhere in the
package, every default of a private function or method is passed by some
call in the package, no module but ``functions`` imports the piece
kernels, and the slow optional imports happen inside functions.  Two
runtime checks join them: the package exports exactly the names its
modules export, each of which resolves, and every array a function holds
or caches is read-only, on copies too.

They catch what a deletion leaves behind, such as a constant or a method
whose only reader went away, or a parameter whose only setter did.  Names
listed in a module's ``__all__`` count as used, since they are exported.
``scipy`` and ``jsonschema`` take longer to import than a typical CLI
problem takes to run, so importing either at module level would slow
every cold start.  A writeable cached array could be changed under the
function that computed it, or under its copies.
"""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import numpy as np
import pytest

import stieltjes
from stieltjes.functions import PiecewiseFunction, random_spline
from stieltjes.integrals import _envelopes
from stieltjes.spaces import Seminorm

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


def private_defaults(tree):
    """(function, parameter, position) for each defaulted parameter of a
    private function or method in ``tree``: its place among the positional
    arguments a call passes, self or cls not counted, or None for a
    keyword-only one."""
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def call_arguments(tree):
    """(callee, positional count, keyword names) for each call in ``tree``
    of a name or an attribute; a starred argument passes every position
    and a double-starred one every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        count = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            count = float("inf")
        keywords = {k.arg for k in node.keywords}
        yield callee, count, keywords


def unpassed_defaults(trees):
    """``function(parameter)`` for each private default in ``trees`` that
    no call in them passes."""
    calls = [c for tree in trees for c in call_arguments(tree)]
    return sorted(
        f"{function}({parameter})" for tree in trees
        for function, parameter, position in private_defaults(tree)
        if not any(callee == function and (
            None in keywords or parameter in keywords
            or (position is not None and count > position))
            for callee, count, keywords in calls))


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


def test_every_private_default_is_passed():
    # a default that no call overrides is a constant in disguise, or the
    # leftover of a caller that went away
    unset = unpassed_defaults(list(MODULES.values()))
    assert not unset, f"private defaults no call passes: {unset}"


# the piecewise-polynomial kernels: other modules reach pieces through the
# functions that use them, so each rule on pieces has its one home there
PIECE_KERNELS = {"_horner", "_shift_poly", "_split_rows", "_segments"}


def kernel_imports(tree):
    """The piece kernels that ``tree`` imports from a module."""
    return sorted(PIECE_KERNELS.intersection(
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names))


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"functions.py"}))
def test_only_functions_splits_pieces(name):
    found = kernel_imports(MODULES[name])
    assert not found, f"{name} imports piece kernels: {found}"


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
    tree = ast.parse("from .functions import (_horner, dual_compose,\n"
                     "    _segments)\ndef f():\n"
                     "    from .functions import _split_rows\n")
    assert kernel_imports(tree) == ["_horner", "_segments", "_split_rows"]


def test_the_default_check_sees_a_leftover():
    tree = ast.parse("def _scale(v, by=2.0, *, floor=0.0):\n    return v\n"
                     "class Norm:\n    def _at(self, v, p=1, q=2):\n"
                     "        return v\n    def __call__(self, v, r=0):\n"
                     "        return self._at(v, 3) + _scale(v, floor=1)\n"
                     "def _spread(*a, width=1):\n"
                     "    return _spread(*a, **{})\n")
    assert sorted(private_defaults(tree)) == [
        ("_at", "p", 1), ("_at", "q", 2), ("_scale", "by", 1),
        ("_scale", "floor", None), ("_spread", "width", None)]
    assert unpassed_defaults([tree]) == ["_at(q)", "_scale(by)"]


def test_the_package_exports_what_its_modules_export():
    # a name deleted from a module but left in the package's list, or the
    # reverse, fails here; the package's name semivariation is the function
    modules = tuple(importlib.import_module(f"stieltjes.{name}") for name in
                    ("functions", "integrals", "representation",
                     "semivariation", "spaces"))
    errors = importlib.import_module("stieltjes.errors")
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type)
                     and issubclass(obj, errors.StieltjesError)}
    assert len(set(stieltjes.__all__)) == len(stieltjes.__all__)
    assert set(stieltjes.__all__) == error_classes.union(
        *(m.__all__ for m in modules))
    for module in (stieltjes,) + modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def held_arrays(tree):
    """The arrays in ``tree``, nested in tuples, lists and dict values."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (tuple, list, dict)):
        for item in tree.values() if isinstance(tree, dict) else tree:
            yield from held_arrays(item)


def writeable_attributes(f):
    """Names of the attributes of ``f`` that hold a writeable array."""
    return sorted({name for name, value in vars(f).items()
                   for arr in held_arrays(value) if arr.flags.writeable})


def with_caches(f):
    """``f`` with every cache of derived data filled."""
    f.jump_points()
    f._jump_times
    if f.dim is None:
        f._derivative_sups
    _envelopes(f, (Seminorm.weighted_sup(np.ones(f.dim or 1)),))
    return f


CACHES = {"_jumps", "_size", "_jump_times", "_envelope_cache"}


def spline_and_steps():
    g = random_spline((0.0, 1.0), np.random.default_rng(5),
                      complex_field=True)
    return [g + PiecewiseFunction.step((0.0, 1.0), [0.3, 1.0], [2.0, -1.0],
                                       0.0),
            PiecewiseFunction.step((0.0, 1.0), [0.5, 1.0],
                                   [[1.0, -2.0], [0.5, 0.0]], [0.0, 0.0])]


@pytest.mark.parametrize("copy_of", [
    lambda f: f, copy.copy, copy.deepcopy,
    lambda f: pickle.loads(pickle.dumps(f))],
    ids=["original", "copy", "deepcopy", "pickle"])
def test_held_and_cached_arrays_are_read_only(copy_of):
    for f in spline_and_steps():
        g = copy_of(with_caches(f))
        names = set(vars(g))
        assert CACHES <= names
        assert f.dim is not None or "_derivative_sups" in names
        assert writeable_attributes(g) == []
        # caches filled after the copy are read-only as well
        h = with_caches(copy_of(PiecewiseFunction(f.breakpoints, f.coeffs,
                                                  f.values)))
        assert writeable_attributes(h) == []


def test_the_cache_check_sees_a_writeable_cache():
    f = with_caches(spline_and_steps()[1])
    assert writeable_attributes(f) == []
    f.__dict__["_jumps"] = np.zeros(2)
    f._envelope_cache["probe"] = (np.ones(2),)
    assert writeable_attributes(f) == ["_envelope_cache", "_jumps"]
