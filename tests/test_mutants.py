"""The mutant table stays aimed: every mutated text occurs exactly once in
its file, and every test it names exists.  Running the mutants is
``python tests/mutants.py``, outside tier-1."""

import ast

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutated_text_occurs_once(mutant):
    source = (SRC / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
