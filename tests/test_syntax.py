"""Formula grammar, fragments, duality, and semantic enumeration."""

from fractions import Fraction

import random
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
from fuzzykripke.fixtures import load_pair
from fuzzykripke.model import formula_constants
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


# The known rows are kept either in a dense table of mixed-radix keys, with
# candidate keys summed from the connective tables, or in a sorted array of
# keys (radix integers, or row bytes when a key would not fit in an int64).
# The class list may not depend on which.


def fallback_keys(kind):
    """A replacement for ``syntax._row_keys`` that never takes the dense table."""
    row_keys = sx._row_keys

    def layout(size, width):
        radix, _ = row_keys(size, width)
        return (radix if kind == "radix" else None), False

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


def reference_class_list(a, b, fragment, depth, budget):
    """The enumeration spelled out with Python loops and a set of rows.

    Atoms (constants, then variables); then per pass, per block of new rows
    (blocks as large as levels.BATCH allows), per connective, every pair
    (new row i, known row j) in row-major order; then per depth the modal
    rows of every class, index by index, and their closure.  A row joins
    the first time it occurs, while the budget lasts.
    """
    e = FormulaEnumeration(a, b, fragment, budget=1)  # for its vocabulary only
    top = int(e.universe.top)
    rows, formulas, seen = [], [], set()

    def add(row, formula):
        if row not in seen:
            if len(rows) >= budget:
                raise _Full
            seen.add(row)
            rows.append(row)
            formulas.append(formula)

    connectives = (
        (lambda x, y: min(x, y), lambda i, j: And(formulas[min(i, j)], formulas[max(i, j)])),
        (lambda x, y: top if x <= y else y, lambda i, j: Implies(formulas[i], formulas[j])),
        (lambda x, y: top if y <= x else x, lambda i, j: Implies(formulas[j], formulas[i])),
        (lambda x, y: top if x == y else min(x, y),
         lambda i, j: sx.iff(formulas[min(i, j)], formulas[max(i, j)])),
    )

    def saturate(start):
        while start < len(rows):
            n_all, width = len(rows), len(rows[0])
            chunk = max(1, levels.BATCH // max(1, n_all * width))
            for base in range(start, n_all, chunk):
                for op, node in connectives:
                    for i in range(base, min(base + chunk, n_all)):
                        for j in range(n_all):
                            add(tuple(map(op, rows[i], rows[j])), node(i, j))
            start = n_all

    encode = e.universe.encode
    rel1, val1 = a.encoded(e.universe)
    rel2, val2 = b.encoded(e.universe)
    try:
        for c in e.constants:
            add((int(encode([c])[0]),) * (len(a.worlds) + len(b.worlds)), Const(c))
        for p in e.variables:
            add(tuple(val1[p].tolist() + val2[p].tolist()), Var(p))
        saturate(0)
        for _ in range(depth):
            snap = len(rows)
            lv = np.array(rows, dtype=e.universe.dtype)
            for idx in e.indices:
                for node in e._modalities:
                    m = sx._MODALITIES[node]
                    top = e.universe.top
                    out1 = levels.modal(rel1[idx], lv[:, : len(a.worlds)], top,
                                        box=m.box, inverse=m.inverse)
                    out2 = levels.modal(rel2[idx], lv[:, len(a.worlds) :], top,
                                        box=m.box, inverse=m.inverse)
                    for k, row in enumerate(np.hstack([out1, out2]).tolist()):
                        add(tuple(row), node(idx, formulas[k]))
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
    # with a key table larger than BATCH the sorted-key fallback runs; its
    # blocks are smaller, so the order may differ, but not the classes
    monkeypatch.setattr(levels, "BATCH", len(dense.values) ** 5)
    small = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    assert not small.dense
    rows = sorted(map(tuple, np.hstack(dense.level_vectors()).tolist()))
    assert sorted(map(tuple, np.hstack(small.level_vectors()).tolist())) == rows


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
