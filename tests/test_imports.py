"""Every name a library module imports is used in that module.

An ``ast`` check, so it needs no linter.  A name counts as used when the
module loads it anywhere, names it inside a quoted annotation, or lists it
in ``__all__`` (a re-export).
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
