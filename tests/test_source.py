"""Leftovers in the package source: imports a module never reads, imports
in a function body that the function never reads, private module-level
names that no module of the package reads, and public module-level names
that the package neither exports nor reads.  And the independence of the
tests' reference model, which may import the standard library only.

All are read from the syntax tree alone (stdlib ast), so a name counts
as read wherever it appears as a loaded name, an attribute, an imported
name or inside a quoted annotation.
"""

import ast
import pathlib
import sys

import pytest

from rif_forge import _EXPORTS

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rif_forge"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
REFERENCE_MODEL = pathlib.Path(__file__).resolve().parent / "reference_model.py"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield from (arg.annotation for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                        if arg is not None and arg.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names(tree) -> set[str]:
    """The ids of every name read, those inside quoted annotations included."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= names(ast.parse(node.value, mode="eval"))
    return out


def read_names(tree) -> set[str]:
    """Every name the module reads: its names, attributes and imported names."""
    out = names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def imported(nodes) -> list[str]:
    """The names that the import statements among nodes bind."""
    bound = []
    for node in nodes:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return bound


def unused_imports(tree) -> list[str]:
    """The module-level imports the module never reads, then, as
    "function: name", each import in a function body that the function
    (its nested functions included) never reads."""
    used = names(tree)
    unused = [name for name in imported(tree.body) if name not in used]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = names(fn)
            unused += [f"{fn.name}: {name}" for name in imported(ast.walk(fn)) if name not in used]
    return unused


def definitions(tree) -> list[str]:
    """The module-level names the module binds by def, class or assignment,
    but for click command callbacks: functions decorated by a call of a
    command or group method, which click reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                       and d.func.attr in ("command", "group") for d in node.decorator_list):
                bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return bound


def private_definitions(tree) -> list[str]:
    """The module-level names starting with one underscore that the module binds."""
    return [name for name in definitions(tree) if name.startswith("_") and not name.startswith("__")]


def public_definitions(tree) -> list[str]:
    """The module-level names not starting with an underscore that the module binds."""
    return [name for name in definitions(tree) if not name.startswith("_")]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module]) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_read(module):
    read = set().union(*map(read_names, MODULES.values()))
    assert [name for name in private_definitions(MODULES[module]) if name not in read] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_name_is_exported_or_read(module):
    exported = set(_EXPORTS.get(module, "").split())
    read = set().union(*map(read_names, MODULES.values()))
    assert [name for name in public_definitions(MODULES[module]) if name not in exported | read] == []


def foreign_imports(tree) -> list[str]:
    """The modules the tree imports from outside the standard library, a
    relative import by its dots."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]


def test_the_reference_model_imports_only_the_standard_library():
    # the model is the tests' oracle only while it shares no code with the package
    assert foreign_imports(ast.parse(REFERENCE_MODEL.read_text(encoding="utf-8"))) == []


def attribute_users(tree, attr: str) -> list[str]:
    """The module-level statements and the class-body statements that name
    the attribute attr: a def by its name, any other as "<module>"."""
    units = [n for n in tree.body if not isinstance(n, ast.ClassDef)]
    units += [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
    return sorted(getattr(u, "name", "<module>") for u in units
                  if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(u)))


def test_derived_data_is_kept_through_one_memo():
    # what a space derives is read and written by space._kept alone, which
    # keys it by function and arguments; the space's _store starts it empty
    users = {module: attribute_users(tree, "_derived") for module, tree in MODULES.items()}
    assert {module: names for module, names in users.items() if names} == {"space": ["_kept", "_store"]}


def test_the_checks_catch_leftovers():
    tree = ast.parse("from functools import cached_property\nimport os\n_UNREAD = 1\nUNREAD = 2\n"
                     "def _dead():\n    return os.sep\n"
                     "def late():\n    import json\n    from . import a, b\n    return b\n"
                     "@main.command()\ndef cmd():\n    pass\n")
    assert unused_imports(tree) == ["cached_property", "late: json", "late: a"]
    assert private_definitions(tree) == ["_UNREAD", "_dead"]
    assert public_definitions(tree) == ["UNREAD", "late"]
    assert not {"_UNREAD", "UNREAD", "_dead", "late"} & read_names(tree)
    assert foreign_imports(tree) == ["."]
    tree = ast.parse("import json, rif_forge.space\nfrom perfbench import reference\ndef f():\n    import hypothesis\n")
    assert foreign_imports(tree) == ["rif_forge.space", "perfbench", "hypothesis"]
