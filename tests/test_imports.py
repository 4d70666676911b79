"""Every name a library module imports is used in that module, every
private name the library defines is used somewhere in it, and every
private attribute it stores on ``self`` is read somewhere in it.  A model
pair is checked, encoded and enumerated only where :data:`PAIR_CALLS`
allows.

``ast`` checks, so they need no linter.  An imported name counts as used
when the module loads it anywhere, names it inside a quoted annotation, or
lists it in ``__all__`` (a re-export).  A private function, class, constant,
method or stored attribute counts as used when any library module loads
it, as a name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

import fuzzykripke

MODULES = sorted(Path(fuzzykripke.__file__).parent.glob("*.py"))


def imported(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced(tree)
    unused = [f"line {line}: {name}" for name, line in imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_quoted_annotations_and_reexports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from a import B, C, D, E\n"
        "if TYPE_CHECKING:\n"
        "    from m import K\n"
        "def f(x: 'K') -> 'list[B]':\n"
        "    return x\n"
        "__all__ = ['C']\n"
    )
    used = referenced(tree)
    assert [name for name in imported(tree) if name not in used] == ["D", "E"]


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private module-level functions, classes and constants of a
    module and the private methods of its classes, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update((m.name, m.lineno) for m in node.body if isinstance(m, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items() if private(name)}


def loaded(tree: ast.Module) -> set[str]:
    """Every name the module loads, alone or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*map(loaded, trees.values()))
    dead = [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in used
    ]
    assert not dead, f"private names used nowhere in the library: {', '.join(dead)}"


def test_the_private_name_check_sees_attributes_and_skips_dunders():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "class _Base:\n"
        "    def __init__(self):\n"
        "        self._store = _helper()\n"
        "    def _check(self):\n"
        "        pass\n"
        "    def _compose(self, other):\n"
        "        return other\n"
        "class Public(_Base):\n"
        "    compose = _Base._compose\n"
    )
    defined = private_definitions(tree)
    assert sorted(defined) == ["_Base", "_LIMIT", "_UNUSED", "_check", "_compose", "_helper"]
    assert [name for name in defined if name not in loaded(tree)] == ["_UNUSED", "_check"]


def stored(tree: ast.Module) -> dict[str, int]:
    """The private attributes the module stores on ``self`` (``self._x = ...``
    in any assignment target, or ``object.__setattr__(self, "_x", ...)``),
    with the line of the first store."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.setdefault(node.attr, node.lineno)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                and isinstance(node.args[1], ast.Constant)):
            names.setdefault(node.args[1].value, node.lineno)
    return {name: line for name, line in names.items() if private(name)}


def unread_state(trees: dict[str, ast.Module]) -> list[str]:
    used = set().union(*map(loaded, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in stored(tree).items()
        if name not in used
    ]


def test_every_stored_private_attribute_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    dead = unread_state(trees)
    assert not dead, f"private attributes stored but read nowhere in the library: {', '.join(dead)}"


def test_the_stored_attribute_check_sees_every_store_and_only_reads():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._rows, self._spare = [], []\n"
        "        object.__setattr__(self, '_frozen', 1)\n"
        "        self._count: int = 0\n"
        "        self._count += 1\n"
        "        self.public = 2\n"
        "    def size(self):\n"
        "        return len(self._rows) + self._frozen\n"
    )
    assert sorted(stored(tree)) == ["_count", "_frozen", "_rows", "_spare"]
    assert sorted(unread_state({"box.py": tree})) == ["box.py line 3: _spare", "box.py line 5: _count"]


def test_a_list_left_behind_in_the_enumerator_fails_the_stored_attribute_check():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    source = (Path(fuzzykripke.__file__).parent / "syntax.py").read_text(encoding="utf-8")
    anchor = "        self._count = 0\n"
    assert source.count(anchor) == 1
    trees["syntax.py"] = ast.parse(source.replace(anchor, anchor + "        self._gen_rows = []\n"))
    [dead] = unread_state(trees)
    assert dead.startswith("syntax.py line ") and dead.endswith(": _gen_rows")


# Where a model pair may be checked (``check_comparable``) and a model's
# tables encoded (``encoded``): the pair builder ``model.level_pair`` does
# both for every entry point that works on the pair in levels.  One model
# is encoded to evaluate formulae (``eval_levels``), and the formula-set
# entry points, which evaluate their formulae on each model through
# ``model.formula_levels``, check the pair themselves.  No library function
# builds an enumeration (``FormulaEnumeration``): the ladder, the fragment
# reports, the invariance bound and the duality check all read the union
# iterate and count their classes in closed form, so the enumeration is
# left to users who want class representatives, and to the tests as their
# oracle.  No library function calls the invariance or duality entry
# points either, the CLI's commands included.  A value universe
# (``Universe``) is built only where values enter one: the union of
# universes, the loader's table, a model's universe of no values, and the
# one pass of the ``FuzzyVec``/``FuzzyMat`` constructors, so that no
# second value table grows up beside it.
PAIR_CALLS = {
    "check_comparable": {"level_pair", "phi_equivalent", "greatest_weak", "check_weak"},
    "encoded": {"level_pair", "KripkeModel.eval_levels"},
    "FormulaEnumeration": set(),
    "invariance_check": set(),
    "duality_transfer": set(),
    "Universe": {"union", "_ValueTable.containers", "KripkeModel.__init__", "_encode"},
}


def pair_calls(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each call of a name in :data:`PAIR_CALLS`, as a function or a
    method, with the innermost function around it (``Class.method`` for a
    method, None at module level) and its line."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in PAIR_CALLS:
                    found.append((name, function, child.lineno))
            inner = function
            if isinstance(child, ast.FunctionDef):
                inner = f"{node.name}.{child.name}" if isinstance(node, ast.ClassDef) else child.name
            visit(child, inner)

    visit(tree, None)
    return found


def stray_pair_calls(trees: dict[str, ast.Module]) -> list[str]:
    return [
        f"{module} line {line}: {name} in {function}"
        for module, tree in trees.items()
        for name, function, line in pair_calls(tree)
        if function not in PAIR_CALLS[name]
    ]


def test_a_pair_is_checked_and_encoded_only_by_its_builder():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    stray = stray_pair_calls(trees)
    assert not stray, f"a call that PAIR_CALLS does not allow: {', '.join(stray)}"


def test_the_pair_check_sees_functions_methods_and_module_level_calls():
    tree = ast.parse(
        "def level_pair(m1, m2, u):\n"
        "    check_comparable(m1, m2)\n"
        "    return m1.encoded(u), m2.encoded(u)\n"
        "class KripkeModel:\n"
        "    def eval_levels(self, u):\n"
        "        return self.encoded(u)\n"
        "def greatest_pre(m1, m2, u):\n"
        "    model.check_comparable(m1, m2)\n"
        "    def encode():\n"
        "        return m1.encoded(u)\n"
        "    return level_pair(m1, m2, u)\n"
        "check_comparable(a, b)\n"
        "def hm_check(m1, m2, fragment):\n"
        "    return syntax.FormulaEnumeration(m1, m2, fragment)\n"
        "def invariance_check(m1, m2, fragment):\n"
        "    return FormulaEnumeration(m1, m2, fragment)\n"
        "def cmd_hm(args):\n"
        "    return hm.invariance_check(args.a, args.b, args.fragment)\n"
        "class Model:\n"
        "    def eval_levels(self, u):\n"
        "        return self.encoded(u)\n"
        "def _encode_rows(algebra, rows):\n"
        "    return levels.Universe(table)\n"
        "class FuzzyMat:\n"
        "    def __init__(self, rows):\n"
        "        self.universe = Universe(rows)\n"
        "    def _encode(self, rows):\n"
        "        return Universe(rows)\n"
    )
    assert stray_pair_calls({"m.py": tree}) == [
        "m.py line 8: check_comparable in greatest_pre",
        "m.py line 10: encoded in encode",
        "m.py line 12: check_comparable in None",
        "m.py line 14: FormulaEnumeration in hm_check",
        "m.py line 16: FormulaEnumeration in invariance_check",
        "m.py line 18: invariance_check in cmd_hm",
        "m.py line 21: encoded in Model.eval_levels",
        "m.py line 23: Universe in _encode_rows",
        "m.py line 26: Universe in FuzzyMat.__init__",
        "m.py line 28: Universe in FuzzyMat._encode",
    ]
