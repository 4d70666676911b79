"""Formula grammar, fragments, duality, and semantic enumeration."""

from fractions import Fraction

import random
import re
import sys
import time

import numpy as np
import pytest
from conftest import GODEL_ENUM_POOL, path_model, random_model, random_pair
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzykripke.syntax as sx
from fuzzykripke import levels
from fuzzykripke.algebra import Algebra, AlgebraError, format_value
from fuzzykripke.bisim import SimType, union_iterate
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.hm import THETA_FOR_FRAGMENT, hm_check, invariance_check
from fuzzykripke.model import (
    KripkeModel, ModelError, check_comparable, formula_constants, level_pair,
)
from fuzzykripke.syntax import (
    And,
    Box,
    BoxInv,
    Const,
    Diamond,
    DiamondInv,
    FormulaEnumeration,
    Fragment,
    Implies,
    ParseError,
    Var,
    classify,
    dual,
    modal_depth,
    parse,
    parse_corpus,
    to_text,
)
from fuzzykripke.weak import class_count, fragment_weak

# -- parsing ------------------------------------------------------------------


def test_core_connectives_and_precedence():
    assert parse("p & q -> r") == Implies(And(Var("p"), Var("q")), Var("r"))
    assert parse("p -> q -> r") == Implies(Var("p"), Implies(Var("q"), Var("r")))
    assert parse("p -> q & r") == Implies(Var("p"), And(Var("q"), Var("r")))
    assert parse("(p -> q) & r") == And(Implies(Var("p"), Var("q")), Var("r"))
    assert parse("<>_1 p & q") == And(Diamond(1, Var("p")), Var("q"))
    assert parse("<>_1 (p & q)") == Diamond(1, And(Var("p"), Var("q")))
    assert parse("[]_2 <>-_1 p") == Box(2, DiamondInv(1, Var("p")))
    assert parse("[]-_3 p") == BoxInv(3, Var("p"))
    assert parse("0.25") == Const(Fraction(1, 4))
    assert parse("2/3") == Const(Fraction(2, 3))


def test_derived_connectives_expand():
    p, q = Var("p"), Var("q")
    zero = Const(Fraction(0))
    assert parse("!p") == Implies(p, zero)
    assert parse("p <-> q") == And(Implies(p, q), Implies(q, p))
    # join is definable on a chain: max(p, q)
    assert parse("p | q") == And(
        Implies(Implies(p, q), q), Implies(Implies(q, p), p)
    )


def test_nesting_beyond_the_limit_is_a_parse_error():
    limit = sx.MAX_NESTING
    p = Var("p")
    # parentheses, prefix operators and right-nested implications recurse;
    # left-nested conjunctions build a tree as high
    deep = {
        "(" * limit + "p" + ")" * limit: p,
        "!" * limit + "p": None,
        "[]_1 " * limit + "p": None,
        "p -> " * limit + "p": None,
        " & ".join(["p"] * (limit + 1)): None,
    }
    for text, want in deep.items():
        f = parse(text)
        assert want is None or f == want
        assert parse(to_text(f)) == f
    for text in ("(" * (limit + 1) + "p" + ")" * (limit + 1), "!" * (limit + 1) + "p",
                 "<>-_2 " * (limit + 1) + "p", "p -> " * (limit + 1) + "p",
                 "p <-> " * (limit // 2 + 1) + "p", " & ".join(["p"] * (limit + 2)),
                 " | ".join(["p"] * (limit // 3 + 2)), "(" * 3000 + "p" + ")" * 3000):
        with pytest.raises(ParseError, match=f"nested deeper than {limit} levels"):
            parse(text)


def test_parsing_at_the_nesting_limit_keeps_its_stack_headroom():
    # a parenthesis costs seven frames of the parser, a prefix operator or a
    # right-nested implication two; a formula at the limit must fit in these
    # many frames above the caller, or it comes nearer the recursion limit
    limit = sx.MAX_NESTING
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    for text, frames in (("(" * limit + "p" + ")" * limit, 720),
                         ("p -> " * limit + "p", 220), ("!" * limit + "p", 220)):
        sys.setrecursionlimit(depth + frames)
        try:
            parse(text)
        finally:
            sys.setrecursionlimit(old)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("(p & q")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("p @ q")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("1.5")
    assert "outside [0, 1]" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("1/0")
    assert "zero denominator" in str(err.value)
    with pytest.raises(ParseError, match=r"^unexpected trailing input 'q' \(at position 2\)$"):
        parse("p q")
    # more digits than Python converts to an integer
    with pytest.raises(ParseError, match="^malformed truth value"):
        parse("p & " + "1" * 5000)
    with pytest.raises(ParseError):
        parse("<> p")  # modality requires an index
    with pytest.raises(ParseError):
        parse("")


def atoms():
    return st.one_of(
        st.sampled_from([Var("p"), Var("q"), Var("r")]),
        st.builds(Const, st.fractions(min_value=0, max_value=1, max_denominator=20)),
    )


def formulas():
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Diamond, st.integers(1, 3), sub),
            st.builds(Box, st.integers(1, 3), sub),
            st.builds(DiamondInv, st.integers(1, 3), sub),
            st.builds(BoxInv, st.integers(1, 3), sub),
        ),
        max_leaves=25,
    )


@given(formulas())
@settings(max_examples=300)
def test_print_parse_round_trip(f):
    assert parse(to_text(f)) == f


def ref_text(f, level=0):
    """The printer as a recursion over the tree: ``level`` is what the place
    of ``f`` needs, 1 under ->, 2 under &, 3 under a prefix operator."""
    if isinstance(f, Const):
        return format_value(f.value)
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Implies):
        text = f"{ref_text(f.left, 2)} -> {ref_text(f.right, 1)}"
        return f"({text})" if level > 1 else text
    if isinstance(f, And):
        text = f"{ref_text(f.left, 2)} & {ref_text(f.right, 3)}"
        return f"({text})" if level > 2 else text
    head = {Diamond: "<>", Box: "[]", DiamondInv: "<>-", BoxInv: "[]-"}[type(f)]
    return f"{head}_{f.index} {ref_text(f.child, 3)}"


@given(formulas(), formulas())
@settings(max_examples=200)
def test_printing_matches_tree_recursion(f, g):
    # disj shares each operand twice, so the printer sees a DAG
    for h in (f, sx.disj(f, g), sx.iff(sx.disj(g, f), f), Box(1, sx.disj(f, f))):
        assert to_text(h) == ref_text(h)


def test_printing_a_chain_of_disjunctions_matches_tree_recursion():
    for atom in ("p", "<>_1 0.5", "(p -> q)", "!p & q"):
        for terms in range(1, 8):
            f = parse(" | ".join([atom] * terms))
            assert to_text(f) == ref_text(f)


def test_a_text_past_the_bound_is_refused_before_it_is_built(monkeypatch):
    # the text of a chain of | triples per term: 14 terms print, 15 do not
    assert len(to_text(parse(" | ".join(["p"] * 14)))) == 25_509_153 <= sx.MAX_TEXT
    for terms in (15, 34):
        with pytest.raises(ValueError, match=r"^formula text of 51018317 characters is longer than"):
            to_text(parse(" | ".join(["p"] * terms)))
    # the size checked is the length of the text, parentheses included
    for text in ("[]_1 (p -> q)", "<>-_2 []_1 p", "(p -> q) -> p & (q | 0.5)", "!(p <-> q)",
                 "[]-_1 (<>_2 (p & q) -> p) & 1/3"):
        f = parse(text)
        size = len(to_text(f))
        monkeypatch.setattr(sx, "MAX_TEXT", size)
        assert parse(to_text(f)) == f
        monkeypatch.setattr(sx, "MAX_TEXT", size - 1)
        with pytest.raises(ValueError, match=rf"^formula text of {size} characters is longer than"):
            to_text(f)
        monkeypatch.undo()


def test_a_refused_text_is_measured_not_built():
    # the lengths are summed before any text is built: the 34-term refusal
    # stays small, and the 14-term text is the one printed before
    import hashlib
    import tracemalloc

    too_long = parse(" | ".join(["p"] * 34))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^formula text of 51018317 characters"):
            to_text(too_long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    text = to_text(parse(" | ".join(["p"] * 14)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "363680d726fcf3de6f1bf8f52ee45fb3df39b7f6cec95d4fac1ea626b0ac7184"
    )


# -- corpus files ---------------------------------------------------------------


def test_parse_corpus_skips_comments_and_blanks():
    text = "# a heading\np & q\n\n<>_1 p  # trailing note\n   \n0.5\n"
    got = [to_text(f) for f in parse_corpus(text)]
    assert got == ["p & q", "<>_1 p", "0.5"]


def test_parse_corpus_reports_line():
    with pytest.raises(ParseError) as err:
        parse_corpus("p\nq @\n")
    assert str(err.value).startswith("line 2:")


# -- duality and classification ---------------------------------------------------


def test_dual_swaps_modal_directions():
    f = parse("<>_1 p & []_2 (q -> <>-_3 0.5)")
    assert to_text(dual(f)) == "<>-_1 p & []-_2 (q -> <>_3 0.5)"


@given(formulas())
@settings(max_examples=200)
def test_dual_is_an_involution(f):
    assert dual(dual(f)) == f


def test_modal_depth():
    assert modal_depth(parse("p & 0.5")) == 0
    assert modal_depth(parse("<>_1 p")) == 1
    assert modal_depth(parse("<>_1 ([]_2 p & q)")) == 2
    assert modal_depth(parse("[]-_1 p & <>_1 <>_1 q")) == 2


def test_classify_fragments():
    assert classify(parse("p & (q -> 0.5)")) is Fragment.PROPOSITIONAL
    assert classify(parse("<>_1 p")) is Fragment.PLUS
    assert classify(parse("[]_1 p & q")) is Fragment.PLUS
    assert classify(parse("<>-_1 p")) is Fragment.MINUS
    assert classify(parse("[]-_2 p")) is Fragment.MINUS
    assert classify(parse("<>_1 <>-_1 p")) is Fragment.FULL
    assert classify(parse("<>_1 p & []-_1 q")) is Fragment.FULL


@given(formulas())
@settings(max_examples=200)
def test_classify_matches_operator_usage(f):
    text = to_text(f)
    has_fwd = "<>_" in text or "[]_" in text
    has_bwd = "<>-" in text or "[]-" in text
    expected = {
        (False, False): Fragment.PROPOSITIONAL,
        (True, False): Fragment.PLUS,
        (False, True): Fragment.MINUS,
        (True, True): Fragment.FULL,
    }[(has_fwd, has_bwd)]
    assert classify(f) is expected


# Every walk over a formula visits each distinct node once; these references
# recurse over the tree instead, which is exponential on shared DAGs.


def ref_depth(f):
    if isinstance(f, (Const, Var)):
        return 0
    if isinstance(f, (And, Implies)):
        return max(ref_depth(f.left), ref_depth(f.right))
    return 1 + ref_depth(f.child)


def ref_modalities(f):
    if isinstance(f, (Const, Var)):
        return set()
    if isinstance(f, (And, Implies)):
        return ref_modalities(f.left) | ref_modalities(f.right)
    return {type(f)} | ref_modalities(f.child)


def ref_classify(f):
    used = ref_modalities(f)
    fwd, inv = bool(used & {Diamond, Box}), bool(used & {DiamondInv, BoxInv})
    return {
        (False, False): Fragment.PROPOSITIONAL,
        (True, False): Fragment.PLUS,
        (False, True): Fragment.MINUS,
        (True, True): Fragment.FULL,
    }[(fwd, inv)]


def ref_dual(f):
    if isinstance(f, (Const, Var)):
        return f
    if isinstance(f, And):
        return And(ref_dual(f.left), ref_dual(f.right))
    if isinstance(f, Implies):
        return Implies(ref_dual(f.left), ref_dual(f.right))
    swap = {Box: BoxInv, BoxInv: Box, Diamond: DiamondInv, DiamondInv: Diamond}
    return swap[type(f)](f.index, ref_dual(f.child))


def ref_constants(f):
    if isinstance(f, Const):
        return {f.value}
    if isinstance(f, Var):
        return set()
    if isinstance(f, (And, Implies)):
        return ref_constants(f.left) | ref_constants(f.right)
    return ref_constants(f.child)


@given(formulas(), formulas())
@settings(max_examples=200)
def test_walks_match_tree_recursion(f, g):
    godel = Algebra.from_spec("godel")
    # disj shares each operand twice, so the walks see a DAG
    for h in (f, sx.disj(f, g), sx.iff(sx.disj(g, f), f)):
        assert modal_depth(h) == ref_depth(h)
        assert classify(h) is ref_classify(h)
        assert dual(h) == ref_dual(h)
        assert formula_constants(godel, [h]) == ref_constants(h)
    assert formula_constants(godel, [f, g]) == ref_constants(f) | ref_constants(g)


def test_the_first_constant_off_the_carrier_is_reported():
    # children before parents, left before right, formula by formula
    crisp = Algebra.from_spec("boolean")
    for texts, bad in ((["0.3 & 0.7", "0.2"], "3/10"), (["1 -> (0 & 0.7)", "0.3"], "7/10"),
                       (["<>_1 p", "[]-_2 (0.2 -> 0.5)"], "1/5")):
        with pytest.raises(AlgebraError, match=f"value {bad} is not"):
            formula_constants(crisp, [parse(t) for t in texts])


def test_walks_are_linear_on_a_chain_of_disjunctions():
    # the parser admits 34 terms; the tree of the chain has about 3**34 nodes
    godel = Algebra.from_spec("godel")
    for text, depth, fragment in ((" | ".join(["p"] * 34), 0, Fragment.PROPOSITIONAL),
                                  (" | ".join(["<>_1 0.5"] * 33), 1, Fragment.PLUS)):
        f = parse(text)
        start = time.perf_counter()
        assert modal_depth(f) == depth
        assert classify(f) is fragment
        assert classify(dual(f)) is (Fragment.MINUS if depth else fragment)
        assert modal_depth(dual(dual(f))) == depth
        assert formula_constants(godel, [f]) == ({Fraction(1, 2)} if depth else set())
        assert time.perf_counter() - start < 1.0


# -- semantic enumeration -----------------------------------------------------------


def showcase():
    return load_pair("sim_showcase")


def class_list(e):
    """Everything an enumeration reports per class, in order: the level
    rows, the representative and its modal depth, and the budget flag."""
    lv1, lv2 = e.level_vectors()
    classes = [
        (lv1[i].tolist(), lv2[i].tolist(), e.formula(i), modal_depth(e.formula(i)))
        for i in range(len(e))
    ]
    return classes, e.truncated


def test_enumeration_seeds_and_values():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.FULL)
    # the value universe: every constant that appears in either model plus 0 and 1
    assert e.values == tuple(
        Fraction(t) for t in ("0", "1/5", "3/10", "2/5", "7/10", "4/5", "9/10", "1")
    )
    assert len(e) == 190
    assert not e.truncated


def test_enumeration_deduplicates_by_both_vectors():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    lv1, lv2 = e.level_vectors()
    seen = set()
    for i in range(len(e)):
        key = (tuple(e.universe.decode(lv1[i])), tuple(e.universe.decode(lv2[i])))
        assert key not in seen
        seen.add(key)


def test_enumeration_is_sound_for_its_models():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(1)
    step = max(1, len(e) // 40)
    lv1, lv2 = e.level_vectors()
    for i in range(0, len(e), step):
        f = e.formula(i)
        assert list(a.eval_vec(f).values) == e.universe.decode(lv1[i])
        assert list(b.eval_vec(f).values) == e.universe.decode(lv2[i])
        assert modal_depth(f) <= 1


def top_nodes(e):
    """The node types at the root of every class representative."""
    return {type(f) for f in e.formulas()}


def test_enumeration_respects_fragment_and_boxes():
    a, b = showcase()
    nodes_prop = top_nodes(FormulaEnumeration(a, b, Fragment.PROPOSITIONAL))
    assert nodes_prop <= {Const, Var, And, Implies}
    nodes_minus = top_nodes(FormulaEnumeration(a, b, Fragment.MINUS).extend_to_depth(1))
    assert Diamond not in nodes_minus and Box not in nodes_minus
    assert DiamondInv in nodes_minus and BoxInv in nodes_minus
    nodes_full = top_nodes(FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(1))
    assert {Diamond, Box, DiamondInv, BoxInv} <= nodes_full


def test_staged_extension_equals_direct():
    a, b = showcase()
    direct = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    staged = FormulaEnumeration(a, b, Fragment.PLUS)
    staged.extend_generators(1)
    staged.extend_to_depth(1)
    assert class_list(direct) == class_list(staged)


def test_extension_preserves_prefix():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.PLUS)
    before, _ = class_list(e)
    e.extend_to_depth(1)
    assert class_list(e)[0][: len(before)] == before


def test_generator_rows_are_exactly_the_non_binary_classes():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(1)
    gens = set(e.generator_indices())
    for i, f in enumerate(e.formulas()):
        assert (i in gens) == (not isinstance(f, (And, Implies)))


@pytest.mark.parametrize("kind", ["dense", "radix", "bytes"])
def test_the_build_table_names_each_constructor_and_older_operands(monkeypatch, kind):
    """Each class's build entry (code, a, b) names the constructor of its
    representative and operands it was built from: older classes, or a
    constant, variable or relation index.  The representative evaluates to
    the class's level rows on both models.  The closure's partners of
    connective c, the classes of code > c, are the classes not made by &
    (c = 0) and the generators (c = 1)."""
    monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
    a, b = showcase()
    back = load_pair("backward_only")
    for e in (FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(1),
              FormulaEnumeration(*back, Fragment.PLUS).extend_to_depth(1),
              FormulaEnumeration(a, b, Fragment.FULL, budget=500).extend_to_depth(1)):
        assert e.dense == (kind == "dense") and e.truncated == (e.budget == 500)
        formulas = e.formulas()
        codes = e._build[: len(e), 0]
        lv1, lv2 = e.level_vectors()
        m1, m2 = e.models
        for k, (code, x, y) in enumerate(e._build[: len(e)].tolist()):
            f = formulas[k]
            assert list(m1.eval_vec(f).values) == e.universe.decode(lv1[k])
            assert list(m2.eval_vec(f).values) == e.universe.decode(lv2[k])
            assert type(f) is sx._BUILD[code]
            if isinstance(f, (And, Implies)):
                assert x < k and y < k and f == type(f)(formulas[x], formulas[y])
            elif isinstance(f, Const):
                assert f.value == e.constants[x]
            elif isinstance(f, Var):
                assert f.name == e.variables[x]
            else:
                assert y < k and f == type(f)(e.indices[x], formulas[y])
        not_meets = [k for k, f in enumerate(formulas) if not isinstance(f, And)]
        gens = [k for k, f in enumerate(formulas) if not isinstance(f, (And, Implies))]
        assert list(e.generator_indices()) == gens
        assert np.hstack(e.generator_vectors()).tolist() == np.hstack([lv1, lv2])[gens].tolist()
        assert np.flatnonzero(codes > 0).tolist() == not_meets
        assert np.flatnonzero(codes > 1).tolist() == gens


# The known rows are kept either in a dense table of mixed-radix keys, with
# candidate keys summed from the connective tables, or in a sorted array of
# keys (radix integers, or row bytes when a key would not fit in an int64).
# The class list may depend neither on which nor on the memory bound.


def fallback_keys(kind):
    """A replacement for ``syntax._row_keys`` that never takes the dense
    table, or with ``kind`` "dense" always takes it."""
    row_keys = sx._row_keys

    def layout(size, width):
        radix, _ = row_keys(size, width)
        return (None if kind == "bytes" else radix), kind == "dense"

    return layout


@pytest.mark.parametrize("algebra", ["boolean", "chain:3", "chain:5", "godel"])
def test_dense_and_fallback_keys_give_the_same_class_list(monkeypatch, algebra):
    alg = Algebra.from_spec(algebra)
    rng = random.Random(f"dense-{algebra}")
    pool = GODEL_ENUM_POOL if algebra == "godel" else None
    variables = ("p", "q") if algebra == "boolean" else ("p",)
    pairs = [random_pair(rng, alg, 3, variables, pool=pool) for _ in range(4)]

    def lists():
        out, dense = [], []
        for a, b in pairs:
            for fragment in ("plus", "minus", "full"):
                e = FormulaEnumeration(a, b, Fragment(fragment), budget=1500)
                dense.append(e.dense)
                out.append(class_list(e))
                for depth in (1, 2):
                    out.append(class_list(e.extend_to_depth(depth)))
                    if not e.truncated:
                        # a cut within the last block of the full run
                        out.append(class_list(
                            FormulaEnumeration(a, b, Fragment(fragment), budget=len(e) // 2 + 1)
                            .extend_to_depth(depth)
                        ))
                    else:
                        out.append(out[-1])
        return out, dense

    want, dense = lists()
    assert all(dense)
    assert any(truncated for _, truncated in want)
    for kind in ("radix", "bytes"):
        monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
        got, dense = lists()
        assert not any(dense)
        assert got == want
        monkeypatch.undo()


class _Full(Exception):
    pass


def reference_class_list(a, b, fragment, depth, budget, square=False, iff=False,
                         generators=False, origins=None):
    """The enumeration spelled out with Python loops and a set of rows.

    Atoms (constants, then variables); then per pass, per connective, the
    pairs (new row i, row j known at the pass start) in row-major order:
    i & j for every j not made by &, then i -> j for every generator j
    (constant, variable or modal row); then per depth the modal rows of
    every class, index by index, and their closure.  A row joins the first
    time it occurs, while the budget lasts.

    With ``square`` each pass forms every pair (i, j) under &, -> and the
    converse j -> i, and with ``iff`` under <-> too, as the enumerator once
    did: the same classes in another order.  With ``generators`` the last
    depth is left open, as extend_generators leaves it.  ``origins``, a
    list, receives per class the (first row of its pass, connective) that
    made it, (first row of its depth, "modal", segment) for the segment-th
    (index, modality) of a modal step, or None.  The modal rows are
    computed entry by entry, not by the level kernel.
    """
    e = FormulaEnumeration(a, b, fragment, budget=1)  # for its vocabulary only
    top = int(e.universe.top)
    rows, formulas, kinds, seen = [], [], [], set()
    origins = [] if origins is None else origins

    def add(row, formula, kind="gen", origin=None):
        if row not in seen:
            if len(rows) >= budget:
                raise _Full
            seen.add(row)
            rows.append(row)
            formulas.append(formula)
            kinds.append(kind)
            origins.append(origin)

    def residuum(x, y):
        return top if x <= y else y

    # (level function, class formula, kind of class, which partners; bool takes all)
    if square:
        connectives = (
            (min, lambda i, j: And(formulas[min(i, j)], formulas[max(i, j)]), "&", bool),
            (residuum, lambda i, j: Implies(formulas[i], formulas[j]), "->", bool),
            (lambda x, y: residuum(y, x), lambda i, j: Implies(formulas[j], formulas[i]), "->",
             bool),
            (lambda x, y: top if x == y else min(x, y),
             lambda i, j: sx.iff(formulas[min(i, j)], formulas[max(i, j)]), "&", bool),
        )[: 4 if iff else 3]
    else:
        connectives = (
            (min, lambda i, j: And(formulas[i], formulas[j]), "&", lambda kind: kind != "&"),
            (residuum, lambda i, j: Implies(formulas[i], formulas[j]), "->",
             lambda kind: kind == "gen"),
        )

    def saturate(start):
        while start < len(rows):
            n_all = len(rows)
            for c, (op, node, kind, partner) in enumerate(connectives):
                partners = [j for j in range(n_all) if partner(kinds[j])]
                for i in range(start, n_all):
                    for j in partners:
                        add(tuple(map(op, rows[i], rows[j])), node(i, j), kind, (start, c))
            start = n_all

    def modal(rel, x, m):
        """The modality ``m`` of the value row ``x``: per world u, the meet of
        residua (box) or the join of meets (diamond) along row u of ``rel``,
        or along column u when ``m`` is inverse."""
        edges = [[rel[v][u] if m.inverse else rel[u][v] for v in range(len(x))]
                 for u in range(len(x))]
        if m.box:
            return [min([residuum(r, z) for r, z in zip(row, x)], default=top) for row in edges]
        return [max([min(r, z) for r, z in zip(row, x)], default=0) for row in edges]

    encode = e.universe.encode
    rel1, val1 = a.encoded(e.universe)
    rel2, val2 = b.encoded(e.universe)
    rel1 = {idx: r.tolist() for idx, r in rel1.items()}
    rel2 = {idx: r.tolist() for idx, r in rel2.items()}
    try:
        for c in e.constants:
            add((int(encode([c])[0]),) * (len(a.worlds) + len(b.worlds)), Const(c))
        for p in e.variables:
            add(tuple(val1[p].tolist() + val2[p].tolist()), Var(p))
        saturate(0)
        for d in range(depth):
            snap = len(rows)
            segment = 0
            for idx in e.indices:
                for node in e._modalities:
                    m = sx._MODALITIES[node]
                    for k in range(snap):
                        row = tuple(modal(rel1[idx], rows[k][: len(a.worlds)], m)
                                    + modal(rel2[idx], rows[k][len(a.worlds) :], m))
                        add(row, node(idx, formulas[k]), origin=(snap, "modal", segment))
                    segment += 1
            if not (generators and d == depth - 1):
                saturate(snap)
    except _Full:
        return rows, formulas, True
    return rows, formulas, False


@pytest.mark.parametrize("algebra", ["boolean", "chain:3", "chain:5", "godel"])
def test_enumeration_matches_the_loop_reference(monkeypatch, algebra):
    alg = Algebra.from_spec(algebra)
    rng = random.Random(f"loops-{algebra}")
    pool = GODEL_ENUM_POOL if algebra == "godel" else None
    for _ in range(3):
        a, b = random_pair(rng, alg, 3, pool=pool)
        for fragment, depth, budget in (("plus", 1, 300), ("full", 1, 100), ("minus", 2, 200)):
            want = reference_class_list(a, b, Fragment(fragment), depth, budget)
            for row_keys in (sx._row_keys, fallback_keys("radix"), fallback_keys("bytes")):
                monkeypatch.setattr(sx, "_row_keys", row_keys)
                e = FormulaEnumeration(a, b, Fragment(fragment), budget=budget)
                e.extend_to_depth(depth)
                got = [tuple(r) for r in np.hstack(e.level_vectors()).tolist()]
                assert (got, e.formulas(), e.truncated) == want


@pytest.mark.parametrize(
    "algebra, n1, n2, weight, end",
    [("boolean", 5, 4, "1", "1"), ("chain:3", 4, 3, "0.5", "1"), ("godel", 4, 3, "0.7", "0.3")],
)
def test_depth_three_matches_the_loop_reference_directly_and_staged(algebra, n1, n2, weight, end):
    a = path_model(algebra, n1, weight, end, "s")
    b = path_model(algebra, n2, weight, end, "t")
    grew = False
    budget = 300 if algebra == "godel" else 400  # some godel lists are cut at depth 3
    for fragment in ("plus", "minus", "full"):
        fragment = Fragment(fragment)
        want = reference_class_list(a, b, fragment, 3, budget)
        grew |= len(want[0]) > len(FormulaEnumeration(a, b, fragment, budget).extend_to_depth(2))
        for steps in (
            [("to", 3)],
            [("gen", 3), ("to", 3)],
            [("gen", 2), ("to", 1), ("gen", 3), ("to", 2), ("to", 3)],
        ):
            e = FormulaEnumeration(a, b, fragment, budget=budget)
            for kind, depth in steps:
                (e.extend_generators if kind == "gen" else e.extend_to_depth)(depth)
            got = [tuple(r) for r in np.hstack(e.level_vectors()).tolist()]
            assert (got, e.formulas(), e.truncated) == want, steps
            assert e.depth == 3 or e.truncated
    assert grew  # depth 3 made classes that depth 2 did not


def assert_the_classes_of_the_four_connective_closure(monkeypatch, a, b, fragment, depth):
    """Closed at every depth up to ``depth`` and open at every depth up to
    ``depth + 1``, under dense, radix and byte keys, the enumeration has
    the class count and row set of the full square under &, ->, the
    converse -> and <->: its & with the classes not made by & and its ->
    into the generators lose no class.

    The reference lists the classes of each depth after those of the
    depths below, the modal ones first, so each stage is a prefix of it."""
    rows, formulas, truncated = reference_class_list(
        a, b, fragment, depth + 1, sx.BUDGET, square=True, iff=True, generators=True
    )
    assert not truncated
    depths = [(modal_depth(f), type(f) in sx._MODALITIES) for f in formulas]
    for kind in ("dense", "radix", "bytes"):
        monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
        for generators in (False, True):
            e = FormulaEnumeration(a, b, fragment)
            for d in range(int(generators), depth + 1 + generators):  # depth 0 is never open
                (e.extend_generators if generators else e.extend_to_depth)(d)
                n = sum(k < d or k == d and (modal or not generators) for k, modal in depths)
                assert not e.truncated and e.depth == d and len(e) == n
                assert e.dense == (kind == "dense")
                assert set(map(tuple, np.hstack(e.level_vectors()).tolist())) == set(rows[:n])
        monkeypatch.undo()


def test_the_core_connectives_close_the_classes():
    assert [op for op, _ in sx._CONNECTIVES] == [And, Implies]


@pytest.mark.parametrize("algebra", ["boolean", "chain:3", "chain:5", "godel"])
def test_seeded_pairs_have_the_classes_of_the_four_connective_closure(monkeypatch, algebra):
    alg = Algebra.from_spec(algebra)
    rng = random.Random(f"iff-{algebra}")
    pool = GODEL_ENUM_POOL if algebra == "godel" else None
    for _ in range(4):
        a, b = random_pair(rng, alg, 2, pool=pool)
        for fragment in ("plus", "minus", "full"):
            assert_the_classes_of_the_four_connective_closure(
                monkeypatch, a, b, Fragment(fragment), 3)


def test_path_pairs_have_the_classes_of_the_four_connective_closure(monkeypatch):
    # the loops of the full square are quadratic in the class count, so the
    # pairs run to depth 4 in the fragments that keep it to a few hundred
    weights = {"boolean": ("1", "1"), "chain:3": ("0.5", "1"), "godel": ("0.7", "0.3")}
    for algebra, sizes, fragments in (
        ("boolean", (3, 4, 5, 6), ("plus", "minus")),
        ("boolean", (3, 4), ("full",)),
        ("chain:3", (3, 4, 5), ("plus",)),
        ("chain:3", (3, 4), ("minus",)),
        ("chain:3", (3,), ("full",)),
        ("godel", (3, 4), ("plus",)),
        ("godel", (3,), ("minus",)),
    ):
        for n in sizes:
            a = path_model(algebra, n, *weights[algebra], "s")
            b = path_model(algebra, n - 1, *weights[algebra], "t")
            for fragment in fragments:
                assert_the_classes_of_the_four_connective_closure(
                    monkeypatch, a, b, Fragment(fragment), 4)


@pytest.mark.parametrize(
    "name, depth",
    [("crisp_pair", 3), ("fully_equivalent", 3), ("backward_only", 0), ("sim_showcase", 0)],
)
def test_bundled_pairs_have_the_classes_of_the_four_connective_closure(monkeypatch, name, depth):
    a, b = load_pair(name)
    for fragment in ("plus", "minus", "full"):
        assert_the_classes_of_the_four_connective_closure(
            monkeypatch, a, b, Fragment(fragment), depth)


# A third oracle shares no code with the closure.  The classes of depth
# <= d are the rows f with f(p) & B(p, q) <= f(q), for B the meet of the
# generators' biimplications over the worlds of both models (see the
# comment above syntax._CONNECTIVES), and those rows have a closed-form
# count.  It costs O(worlds**2) per class, not the loop references'
# O(classes**2), so it reaches pairs they cannot.


def generator_fold(e):
    """B over the worlds of both models: the meet of the biimplications
    of the generator rows of ``e``."""
    gens = np.hstack(e.generator_vectors())
    return levels.biimplication_fold(gens.T, gens.T, e.universe.top)


def extensional_oracle(e):
    """Whether every class row of ``e`` is extensional under B, and the
    count of the extensional rows, C(P, 0, 0) over the worlds P of both
    models: C(S, a, lo) = max(0, a - lo) + the product of C(S_k, a + 1,
    max(lo, a)) over the blocks S_k of S at cut a + 1 (the classes of
    B > a), and C = 1 past top."""
    assert len(e.constants) == len(e.universe)  # every level is a seeded constant
    rows, b = np.hstack(e.level_vectors()), generator_fold(e)
    top = int(e.universe.top)
    extensional = bool((np.minimum(rows[:, :, None], b) <= rows[:, None, :]).all())

    def count(s, a, lo):
        if a > top:
            return 1
        ways = 1
        while s:
            p, *s = s
            ways *= count([p] + [q for q in s if b[p, q] > a], a + 1, max(lo, a))
            s = [q for q in s if b[p, q] <= a]
        return max(0, a - lo) + ways

    return extensional, count(list(range(b.shape[0])), 0, 0)


def oracle_cases():
    """Bundled, seeded and path pairs with their fragments and depths."""
    cases = [(*load_pair(name), fragment, depth)
             for name in ("sim_showcase", "backward_only", "fully_equivalent", "crisp_pair")
             for fragment in ("prop", "plus", "minus", "full") for depth in (0, 1, 2)]
    rng = random.Random("oracle")
    for algebra in ("boolean", "chain:3", "chain:5", "godel"):
        pool = GODEL_ENUM_POOL if algebra == "godel" else None
        for _ in range(4):
            a, b = random_pair(rng, Algebra.from_spec(algebra), 3, pool=pool)
            cases += [(a, b, fragment, depth)
                      for fragment in ("plus", "full") for depth in (1, 2, 3)]
    for n in (4, 5, 6):
        a = path_model("godel", n, "0.7", "0.3", "s")
        b = path_model("godel", n - 1, "0.7", "0.3", "t")
        cases += [(a, b, fragment, depth)
                  for fragment in ("plus", "minus", "full") for depth in (0, 1, 2, 3, 4)]
    return cases


def test_the_classes_are_the_extensional_rows_and_their_closed_form_count():
    """A budget cut keeps budget many of them, and only a count past the
    budget is cut.  The walk that counts the B_d-extensional rows also
    forms them: as many rows as ``class_count`` gives, each extensional
    under B_d, and as a set the classes of the enumeration; None past the
    budget, as on the two longest path pairs at full depths 3 and 4."""
    budget = 20_000
    formed = 0
    for a, b, fragment, depth in oracle_cases():
        e = FormulaEnumeration(a, b, Fragment(fragment), budget).extend_to_depth(depth)
        extensional, count = extensional_oracle(e)
        assert extensional and len(e) == min(count, budget) and e.truncated == (count > budget)
        pair = level_pair(a, b)
        iterate = union_iterate(pair, THETA_FOR_FRAGMENT.get(Fragment(fragment)), depth)
        constants, top = pair.constants, len(pair.constants) - 1
        cuts = np.searchsorted(constants, iterate).astype(iterate.dtype)
        rows = sx.class_rows(cuts, top, budget)
        if e.truncated:
            assert rows is None
            continue
        assert rows.dtype == iterate.dtype and len(rows) == class_count(cuts, top, budget)
        assert (np.minimum(rows[:, :, None], cuts) <= rows[:, None, :]).all()
        classes = {r.tobytes() for r in constants[rows]}
        assert classes == {r.tobytes() for r in np.hstack(e.level_vectors())}
        formed += 1
    assert formed == len(oracle_cases()) - 4


def test_the_union_iterates_are_the_generator_folds_and_their_count_is_the_oracles():
    """The graded ladder on the worlds P of both models: B_d, the fold of
    the generators of depth <= d over P x P, is the d-th Jacobi iterate
    of the matched kind (none for prop) on the disjoint union against
    itself, or its fixpoint.  The library's count of the B_d-extensional
    rows is the oracle's, or budget + 1 past the budget.  The two runs
    whose generators pass the budget (full, depth 4, on the two longest
    path pairs) keep only the count, which is past the budget."""
    budget = 20_000
    compared = 0
    for a, b, fragment, depth in oracle_cases():
        e = FormulaEnumeration(a, b, Fragment(fragment), budget).extend_generators(depth)
        kind = THETA_FOR_FRAGMENT.get(Fragment(fragment))
        iterate = union_iterate(level_pair(a, b), kind, depth)
        got = class_count(iterate, int(e.universe.top), budget)
        if e.truncated:
            assert got == budget + 1 and fragment == "full" and depth == 4
            continue
        assert np.array_equal(iterate, generator_fold(e)), (fragment, depth)
        _, count = extensional_oracle(e)
        assert got == min(count, budget + 1)
        compared += 1
    assert compared == len(oracle_cases()) - 2


def test_the_class_count_runs_over_a_long_chain_and_stops_past_the_budget():
    """No frame per level: 5,000 levels and two worlds apart only at the
    level below top count the equal rows and the two rows that differ
    there; a count past the budget reads budget + 1."""
    top = 4_999
    b = np.array([[top, top - 1], [top - 1, top]], dtype=np.uint16)
    assert class_count(b, top, 10**6) == top + 1 + 2
    assert class_count(b, top, top + 2) == top + 3
    assert class_count(b, top, top + 1) == top + 2
    rows = sx.class_rows(b, top, 10**6)
    assert len({r.tobytes() for r in rows}) == top + 3 and sx.class_rows(b, top, top + 2) is None
    apart = np.array([[top, 0], [0, top]], dtype=np.uint16)
    assert class_count(apart, top, 10**9) == (top + 1) ** 2
    assert class_count(apart, top, 10**6) == 10**6 + 1


@pytest.mark.parametrize("narrowed", ["crisp", "dropped"])
def test_a_closure_with_a_narrowed_implication_row_fails_the_oracle(monkeypatch, narrowed):
    """With -> cut to its crisp part (top where x <= z, else 0) the
    closure makes rows that are not extensional; with no -> row at all it
    makes too few."""
    crisp = (Implies, lambda x, z, top: np.multiply(x <= z, top, dtype=z.dtype))
    rows = (sx._CONNECTIVES[0], crisp) if narrowed == "crisp" else sx._CONNECTIVES[:1]
    monkeypatch.setattr(sx, "_CONNECTIVES", rows)
    for a, b, fragment, depth in oracle_cases()[:12]:  # sim_showcase
        e = FormulaEnumeration(a, b, Fragment(fragment)).extend_to_depth(depth)
        extensional, count = extensional_oracle(e)
        if narrowed == "crisp":
            assert not extensional
        else:
            assert extensional and len(e) < count


def one_world_pair(values):
    """Two one-world Godel models whose variables take ``values``, the
    first half on the left and the second on the right: width 2."""
    alg = Algebra.godel()
    half = len(values) // 2

    def model(vals, world):
        return KripkeModel(alg, [world], {1: FuzzyMat(alg, [[vals[0]]])},
                           {f"p{k}": FuzzyVec(alg, [v]) for k, v in enumerate(vals)})

    return model(values[:half], "s"), model(values[half:], "t")


@pytest.mark.parametrize("kind", ["dense", "radix", "bytes"])
def test_pair_keys_are_the_keys_of_the_formed_block(monkeypatch, kind):
    """The candidate keys of every connective, summed column by column or
    keyed from the formed block, are the keys of the formed block: on
    partner sets on both sides of _SMALL levels and of one row, at width 6
    (the showcase pair) and width 2, over a uint8 and a uint16 universe."""
    monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
    rng = np.random.default_rng(21)
    pairs = [showcase(), one_world_pair([Fraction(k, 5) for k in range(6)]),
             one_world_pair([Fraction(k, 301) for k in range(300)])]
    for a, b in pairs:
        e = FormulaEnumeration(a, b, Fragment.FULL, budget=1)  # for its layout only
        width, size = len(a.worlds) + len(b.worlds), len(e.universe)
        assert e.dense == (kind == "dense") and (size > 256) == (e._dt == np.uint16)
        for count in (1, sx._SMALL // width, sx._SMALL // width + 1, 3 * sx._SMALL):
            rows = rng.integers(0, size, (count, width)).astype(e._dt)
            for lhs_count in (1, 7):
                lhs = rng.integers(0, size, (lhs_count, width)).astype(e._dt)
                for c, (_, fn) in enumerate(sx._CONNECTIVES):
                    block = fn(lhs[:, None, :], rows[None, :, :], e.universe.top)
                    want = e._keys(block.reshape(-1, width))
                    assert np.array_equal(e._pair_keys(c, lhs, rows), want)


def test_pairs_past_the_int64_bound_take_byte_keys_by_themselves():
    # 11 values over 10 + 9 worlds: a radix key would need 11**19 > 2**63
    alg = Algebra.godel()
    pool = [Fraction(k, 10) for k in range(11)]
    rng = random.Random("bytes")
    a = random_model(rng, alg, 10, pool=pool)
    b = random_model(rng, alg, 9, pool=pool)
    for depth, budget in ((0, 40), (1, 60)):
        e = FormulaEnumeration(a, b, Fragment.FULL, budget=budget).extend_to_depth(depth)
        assert len(e.universe) == 11 and not e.dense and e._radix is None
        got = [tuple(r) for r in np.hstack(e.level_vectors()).tolist()]
        assert (got, e.formulas(), e.truncated) == reference_class_list(
            a, b, Fragment.FULL, depth, budget
        )


def test_showcase_takes_the_dense_path_below_the_batch_bound(monkeypatch):
    a, b = showcase()
    dense = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    assert dense.dense
    # with a key table larger than BATCH the sorted-key fallback runs, in
    # smaller chunks, to the same class list
    monkeypatch.setattr(levels, "BATCH", len(dense.values) ** 5)
    small = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    assert not small.dense
    assert class_list(small) == class_list(dense)


@pytest.mark.parametrize("kind", ["dense", "radix", "bytes"])
def test_the_class_list_does_not_depend_on_the_memory_bound(monkeypatch, kind):
    """A pass absorbs one connective over all its new rows before the
    next, so the chunks that levels.BATCH cuts it into keep the order."""
    a, b = showcase()
    monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
    lists = []
    for batch in (1 << 23, 1 << 12):
        monkeypatch.setattr(levels, "BATCH", batch)
        e = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(2)
        assert e.dense == (kind == "dense") and len(e) == 950
        lists.append(class_list(e))
    assert lists[0] == lists[1]


def halves_cases():
    """Enumerations whose closures run several passes of & and -> blocks."""
    rng = random.Random("halves")
    cases = [(*load_pair("sim_showcase"), Fragment.FULL, 0),
             (*load_pair("sim_showcase"), Fragment.PLUS, 1),
             (*load_pair("backward_only"), Fragment.PLUS, 1)]
    cases += [(*random_pair(rng, Algebra.chain(5), 3), Fragment.PLUS, 1) for _ in range(2)]
    return cases


@pytest.mark.parametrize("start, n_all", [(0, 9), (0, 40), (7, 50), (12, 13), (20, 90)])
def test_a_pass_skips_only_pairs_it_formed_before(monkeypatch, start, n_all):
    """A pass over the new rows start..n_all-1 of a store forms, in
    row-major order, x & y for the y not made by & and x -> g for the
    generators g, except when x and y are both constants, which are closed
    under both.  Every other pair of the full square it leaves out has a
    partner that the closure formed before from a pair of older classes:
    a & class, or under -> also an -> class.

    The store is the first n_all classes of the showcase pair, cut by the
    budget; the pass runs under every key layout and two memory bounds."""
    a, b = showcase()
    for kind in ("dense", "radix", "bytes"):
        monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
        for batch in (1 << 23, 1 << 12):
            monkeypatch.setattr(levels, "BATCH", batch)
            e = FormulaEnumeration(a, b, Fragment.FULL, budget=n_all)
            assert e.truncated and len(e) == n_all and e.dense == (kind == "dense")
            calls = []
            pair_keys = FormulaEnumeration._pair_keys

            def record(self, c, lhs, rows, calls=calls, pair_keys=pair_keys):
                calls.append((c, lhs.copy(), rows.copy()))
                return pair_keys(self, c, lhs, rows)

            monkeypatch.setattr(FormulaEnumeration, "_pair_keys", record)
            e.budget, e.truncated = sx.BUDGET, False
            e._saturate(start)
            monkeypatch.setattr(FormulaEnumeration, "_pair_keys", pair_keys)

            index = {tuple(r): k for k, r in enumerate(np.hstack(e.level_vectors()).tolist())}
            formed = [(c, index[tuple(x)], index[tuple(y)])
                      for c, lhs, rows in calls for x in lhs.tolist() for y in rows.tolist()]
            formed = [pair for pair in formed if pair[1] < n_all]  # the first pass only
            ops = [sx._BUILD[code] for code in e._build[: len(e), 0].tolist()]
            args = e._build[: len(e), 1:].tolist()
            made_by = (lambda j: ops[j] is And, lambda j: ops[j] in (And, Implies))
            square = [(c, i, j) for c in (0, 1) for i in range(start, n_all) for j in range(n_all)]
            constants = {i for i, op in enumerate(ops) if op is Const}
            assert constants == set(range(len(e.constants)))
            assert formed == [(c, i, j) for c, i, j in square
                              if not made_by[c](j) and not {i, j} <= constants]
            skipped = [(c, i, j) for c, i, j in square if made_by[c](j)]
            assert all(max(args[j]) < j for _, _, j in skipped)
            assert bool(skipped) == any(op in (And, Implies) for op in ops[:n_all])
        monkeypatch.undo()


def test_the_halved_meet_and_the_old_row_converse_keep_the_class_list(monkeypatch):
    """The closure once also formed the meets of a large frontier's second
    half with its first and the converse -> of each new row with the older
    rows.  Those pairs add no class: under every key layout and two memory
    bounds, the meet and both implications of any two enumerated classes
    name an enumerated class, and the class count and row set are those of
    the full-square loops of the reference."""
    for a, b, fragment, depth in halves_cases():
        square, _, truncated = reference_class_list(a, b, fragment, depth, sx.BUDGET, square=True)
        assert not truncated
        for kind in ("dense", "radix", "bytes"):
            monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
            for batch in (1 << 23, 1 << 12):
                monkeypatch.setattr(levels, "BATCH", batch)
                e = FormulaEnumeration(a, b, fragment).extend_to_depth(depth)
                assert not e.truncated and e.dense == (kind == "dense")
                rows = np.hstack(e.level_vectors())
                assert len(rows) == len(square) and set(map(tuple, rows.tolist())) == set(square)
                known = e._keys(rows)
                top = e.universe.top
                for _, fn in sx._CONNECTIVES:  # -> of (j, i) is the converse of (i, j)
                    block = fn(rows[:, None, :], rows[None, :, :], top)
                    assert np.isin(e._keys(block.reshape(-1, rows.shape[1])), known).all()
            monkeypatch.undo()


def test_budget_cuts_inside_the_meet_and_implication_blocks_keep_the_class_list(monkeypatch):
    """A pass forms x & y for the y not made by &, then x -> g for the
    generators g.  Under every key layout and two memory bounds, the class
    list cut by budgets strictly inside a pass's & block and inside its ->
    block is a prefix of that of the loops of the reference."""
    cut_in = np.zeros(2, dtype=int)  # budgets inside a & block, inside a -> block
    for a, b, fragment, depth in halves_cases():
        origins = []
        rows, formulas, truncated = reference_class_list(
            a, b, fragment, depth, sx.BUDGET, origins=origins)
        assert not truncated
        budgets = []
        for c in (0, 1):
            # a budget k keeps class k - 1 and cuts class k, made by the same block
            inside = [k for k in range(1, len(rows))
                      if origins[k] is not None and origins[k] == origins[k - 1]
                      and origins[k][1] == c]
            budgets += inside[:: max(1, len(inside) // 3)]
            cut_in[c] += len(inside) > 0
        for kind in ("dense", "radix", "bytes"):
            monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
            for batch in (1 << 23, 1 << 12):
                monkeypatch.setattr(levels, "BATCH", batch)
                for budget in budgets + [len(rows)]:
                    e = FormulaEnumeration(a, b, fragment, budget=budget).extend_to_depth(depth)
                    got = [tuple(r) for r in np.hstack(e.level_vectors()).tolist()]
                    assert e.dense == (kind == "dense")
                    assert (got, e.formulas(), e.truncated) == (
                        rows[:budget], formulas[:budget], budget < len(rows))
            monkeypatch.undo()
    assert cut_in.all()


def test_budget_cuts_inside_a_modal_step_keep_the_class_list(monkeypatch):
    """A modal step deduplicates the rows of every (index, modality) in one
    call.  Under every key layout and two memory bounds, the class list
    cut by budgets strictly inside the step's second and last (index,
    modality) segment is a prefix of that of the loops of the reference,
    whose modal rows do not come from the level kernel."""
    cases = [(*load_pair("sim_showcase"), Fragment.FULL, 1),     # 4 segments
             (*load_pair("sim_showcase"), Fragment.PLUS, 2),     # 2
             (*load_pair("backward_only"), Fragment.PLUS, 2),    # 2 indices, 4
             (*load_pair("backward_only"), Fragment.FULL, 1)]    # 8
    cut_in = np.zeros(2, dtype=int)  # budgets inside a second, inside a last segment
    for a, b, fragment, depth in cases:
        origins = []
        rows, formulas, truncated = reference_class_list(
            a, b, fragment, depth, sx.BUDGET, generators=True, origins=origins)
        assert not truncated
        last = len(a.indices) * len(FormulaEnumeration(a, b, fragment, 1)._modalities) - 1
        step = origins[-1][0]  # the first row of the last depth: the list ends in its step
        budgets = []
        for c, segment in enumerate((1, last)):
            # a budget k keeps class k - 1 and cuts class k, of the same segment
            inside = [k for k in range(1, len(rows))
                      if origins[k] == origins[k - 1] == (step, "modal", segment)]
            budgets += inside[:: max(1, len(inside) // 3)]
            cut_in[c] += len(inside) > 0
        for kind in ("dense", "radix", "bytes"):
            monkeypatch.setattr(sx, "_row_keys", fallback_keys(kind))
            for batch in (1 << 23, 1 << 12):
                monkeypatch.setattr(levels, "BATCH", batch)
                for budget in budgets + [len(rows)]:
                    e = FormulaEnumeration(a, b, fragment, budget=budget)
                    e.extend_generators(depth)
                    got = [tuple(r) for r in np.hstack(e.level_vectors()).tolist()]
                    assert e.dense == (kind == "dense")
                    assert (got, e.formulas(), e.truncated) == (
                        rows[:budget], formulas[:budget], budget < len(rows))
            monkeypatch.undo()
    assert cut_in.all()


@pytest.mark.parametrize("fragment, depth, most", [("full", 1, 293_786), ("plus", 2, 175_327)])
def test_the_closure_pairs_an_operand_only_with_what_it_cannot_be_split_into(
    monkeypatch, fragment, depth, most
):
    """The candidate keys the closure forms on the showcase pair.  The full
    square of every pass, as the enumerator once formed it, gives 3,181,713
    at full/1 and 1,641,744 at plus/2; with each unordered pair once (the
    converse -> against the older rows only, the & without its mirror),
    2,521,292 and 1,401,947."""
    formed = []
    pair_keys = FormulaEnumeration._pair_keys

    def count(self, *args):
        keys = pair_keys(self, *args)
        formed.append(keys.size)
        return keys

    monkeypatch.setattr(FormulaEnumeration, "_pair_keys", count)
    e = FormulaEnumeration(*showcase(), Fragment(fragment)).extend_to_depth(depth)
    assert not e.truncated and e.dense
    assert sum(formed) <= most


def test_an_extension_past_the_last_new_class_takes_no_step_per_depth():
    """Once a modal step adds no class no deeper one can, so the class list
    of depth 10**9 is that of the depth where it stopped growing."""
    a, b = load_pair("crisp_pair")
    fixed = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    assert len(FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(2)) == len(fixed)
    start = time.perf_counter()
    deep = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(10**9)
    assert time.perf_counter() - start < 1.0
    assert deep.depth == 10**9 and class_list(deep) == class_list(fixed)
    staged = FormulaEnumeration(a, b, Fragment.PLUS).extend_generators(10**9)
    assert staged.depth == 10**9 and class_list(staged.extend_to_depth(10**9)) == class_list(fixed)


def test_budget_truncation_sets_flag():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.FULL, budget=120)
    assert e.truncated
    assert len(e) <= 120
    # extending a truncated enumeration must not resurrect completeness
    e.extend_to_depth(1)
    assert e.truncated


def test_every_enumerated_formula_prints_to_text_that_parses_back(rng):
    algebras = [Algebra.boolean(), Algebra.chain(3), Algebra.godel()]
    for k in range(6):
        alg = algebras[k % 3]
        pool = GODEL_ENUM_POOL if alg.kind == "godel" else None
        a, b = random_pair(rng, alg, variables=("p", "q_1"), indices=(0, 12), pool=pool)
        for fragment in Fragment:
            e = FormulaEnumeration(a, b, fragment, budget=3000).extend_to_depth(1)
            for f in e.formulas():
                assert parse(to_text(f)) == f


def test_formula_reconstruction_uses_core_syntax():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(1)
    f = e.formula(len(e) - 1)
    assert parse(to_text(f)) == f


def test_enumeration_rejects_negative_depth():
    a, b = showcase()
    e = FormulaEnumeration(a, b, Fragment.PLUS)
    for extend in (e.extend_generators, e.extend_to_depth):
        with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
            extend(-1)
    assert e.depth == 0 and len(e) == len(FormulaEnumeration(a, b, Fragment.PLUS))


def test_an_incomparable_pair_is_refused_before_any_enumeration(monkeypatch):
    """The enumerator asks check_comparable first, so a pair whose algebras,
    index sets or variable sets differ is refused with its message and no
    closure pass runs."""
    a, _ = showcase()
    crisp, _ = load_pair("crisp_pair")
    two = KripkeModel(a.algebra, a.worlds, {**a.relations, 2: a.relations[1]}, a.valuation)
    renamed = KripkeModel(a.algebra, a.worlds, a.relations, {"q": a.valuation["p"]})

    def refuse(self, start):
        raise AssertionError("an incomparable pair reached the closure")

    monkeypatch.setattr(FormulaEnumeration, "_saturate", refuse)
    with pytest.raises(AssertionError, match="reached the closure"):
        FormulaEnumeration(a, a, Fragment.PLUS)
    for other, error in ((crisp, AlgebraError), (two, ModelError), (renamed, ModelError)):
        for pair in ((a, other), (other, a)):
            with pytest.raises(error) as refused:
                check_comparable(*pair)
            with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
                FormulaEnumeration(*pair, Fragment.FULL)


@pytest.mark.parametrize("run, error, message", [
    (lambda a, b: hm_check(a, b, "plus", budget=0), AlgebraError, "mixed algebras: godel vs boolean"),
    (lambda a, b: fragment_weak(a, b, "plus", 1, budget=0), ValueError, "budget must be positive, got 0"),
    (lambda a, b: fragment_weak(a, b, "plus", -1), AlgebraError, "mixed algebras: godel vs boolean"),
    (lambda a, b: hm_check(a, b, "plus", max_depth=-1), ValueError, "depth must be nonnegative, got -1"),
    (lambda a, b: invariance_check(a, b, SimType.FB, "plus", 1, budget=0), AlgebraError,
     "mixed algebras: godel vs boolean"),
], ids=["hm-budget", "weak-budget", "weak-depth", "hm-depth", "invariance-budget"])
def test_each_entry_point_refuses_in_its_own_order(run, error, message):
    """With an incomparable pair and a bad budget or depth, each entry
    point names the first thing it checks: ``hm_check`` and
    ``invariance_check`` the pair before the budget and ``hm_check`` the
    depth before the pair; ``fragment_weak`` the budget, then the pair,
    then the depth, as the enumeration does."""
    a, _ = showcase()
    crisp, _ = load_pair("crisp_pair")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run(a, crisp)
