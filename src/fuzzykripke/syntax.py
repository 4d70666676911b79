"""Modal formula syntax: AST, parser, printer, and semantic enumeration.

Concrete syntax
---------------

    variables    [a-z][a-z0-9_]*
    constants    rationals in [0, 1]:  0, 1, 0.3, 0.25, 2/3  (algebra.VALUE_PATTERN)
    connectives  !A   A & B   A | B   A -> B   A <-> B
    modalities   []_i A   <>_i A   []-_i A   <>-_i A     (integer index i)

Precedence, tightest first: ! and modalities, &, |, ->, <->;  -> and <->
associate to the right, & and | to the left.  Parentheses group.  A
formula nests at most ``MAX_NESTING`` levels deep; a deeper one is a
:class:`ParseError`, not a recursion error.

The core AST keeps only constants, variables, conjunction, implication and
the four modalities; !A, A | B and A <-> B are abbreviations expanded at
parse time (negation as A -> 0, disjunction in its residuated form
((A -> B) -> B) & ((B -> A) -> A), which is max on a linear carrier).

Corpus files hold one formula per line; '#' starts a comment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from . import levels
from .algebra import VALUE_PATTERN, ZERO, AlgebraError, format_value, parse_value

if TYPE_CHECKING:
    from .model import KripkeModel, LevelPair


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    index: int
    child: "Formula"


@dataclass(frozen=True)
class Diamond:
    index: int
    child: "Formula"


@dataclass(frozen=True)
class BoxInv:
    index: int
    child: "Formula"


@dataclass(frozen=True)
class DiamondInv:
    index: int
    child: "Formula"


Formula = Union[Const, Var, And, Implies, Box, Diamond, BoxInv, DiamondInv]


class _Modality(NamedTuple):
    head: str       # the printed head, as in ``<>-_1``
    box: bool       # a meet of residua, else a join of meets
    inverse: bool   # along the converse of the relation
    dual: type      # the same modality in the other direction


# every modality, in the order the enumerator generates them
_MODALITIES = {
    Diamond: _Modality("<>", False, False, DiamondInv),
    Box: _Modality("[]", True, False, BoxInv),
    DiamondInv: _Modality("<>-", False, True, Diamond),
    BoxInv: _Modality("[]-", True, True, Box),
}


def _children(f: Formula) -> tuple:
    if isinstance(f, (And, Implies)):
        return f.left, f.right
    if isinstance(f, (Const, Var)):
        return ()
    return (f.child,)


def _fold(formulas: Iterable[Formula], visit: Callable) -> list:
    """``visit(node, *values of its children)`` for each distinct node of
    ``formulas``, children first and left before right; returns the values
    of ``formulas``.

    Nodes are told apart by identity, so the shared DAG that ``disj``
    builds (each operand twice in its expansion, 3**k tree nodes for k
    terms) costs its distinct nodes.  The walk keeps its own stack and
    never recurses.
    """
    memo: dict = {}  # id(node) -> (node, value); holding the node keeps its id unique
    out = []
    for root in formulas:
        stack = [(root, None)]  # (node, its children once they are on the stack)
        while stack:
            node, kids = stack.pop()
            if kids is not None:
                memo[id(node)] = node, visit(node, *[memo[id(k)][1] for k in kids])
            elif id(node) not in memo:
                kids = _children(node)
                if kids:
                    stack.append((node, kids))
                    stack += [(k, None) for k in reversed(kids)]
                else:
                    memo[id(node)] = node, visit(node)
        out.append(memo[id(root)][1])
    return out


class Fragment(str, Enum):
    """Sublanguages by which modalities may occur."""

    PROPOSITIONAL = "prop"
    PLUS = "plus"      # no inverse modalities
    MINUS = "minus"    # no forward modalities
    FULL = "full"

    def __str__(self):
        return self.value


def neg(a: Formula) -> Formula:
    """!A as the abbreviation A -> 0."""
    return Implies(a, Const(ZERO))


def disj(a: Formula, b: Formula) -> Formula:
    """A | B in its residuated form ((A -> B) -> B) & ((B -> A) -> A)."""
    return And(Implies(Implies(a, b), b), Implies(Implies(b, a), a))


def iff(a: Formula, b: Formula) -> Formula:
    """A <-> B as (A -> B) & (B -> A)."""
    return And(Implies(a, b), Implies(b, a))


def modal_depth(f: Formula) -> int:
    """Deepest nesting of modal operators."""
    return _fold([f], lambda node, *kids: max(kids, default=0) + (type(node) in _MODALITIES))[0]


def classify(f: Formula) -> Fragment:
    """The least fragment containing ``f``.

    Propositional formulae belong to every fragment; a formula classified
    ``plus`` uses forward modalities only, ``minus`` inverse only.
    """
    inverse = set()  # the direction of every modality used

    def visit(node, *_):
        if type(node) in _MODALITIES:
            inverse.add(_MODALITIES[type(node)].inverse)

    _fold([f], visit)
    if len(inverse) == 2:
        return Fragment.FULL
    if inverse:
        return Fragment.MINUS if True in inverse else Fragment.PLUS
    return Fragment.PROPOSITIONAL


def dual(f: Formula) -> Formula:
    """Swap every modality with its inverse counterpart."""

    def visit(node, *kids):
        if type(node) in _MODALITIES:
            return _MODALITIES[type(node)].dual(node.index, *kids)
        return type(node)(*kids) if kids else node

    return _fold([f], visit)[0]


# -- connectives, printer and parser -------------------------------------------


class _Binary(NamedTuple):
    spelling: str     # the operator token
    build: Callable   # the node of ``A op B``, or its expansion
    right: bool       # associates to the right, else to the left
    height: int       # the tree height the expansion adds over its operands


# the binary connectives, loosest first: a row's index is its precedence
_BINARY = (
    _Binary("<->", iff, True, 2),
    _Binary("->", Implies, True, 1),
    _Binary("|", disj, False, 3),
    _Binary("&", And, False, 1),
)

_UNARY = len(_BINARY)  # the precedence of atoms, negation and modalities

# the precedence of each binary node of the core AST
_PRECEDENCE = {row.build: k for k, row in enumerate(_BINARY) if isinstance(row.build, type)}


MAX_TEXT = 1 << 25
"""The longest text :func:`to_text` builds, in characters.  A formula
shares subformulae, but its text spells out each occurrence: the text of
a chain of ``|`` triples per term (25,509,153 characters at 14 terms),
and the parser accepts chains of 34 terms."""


def to_text(f: Formula) -> str:
    """Render a formula; ``parse(to_text(f))`` reproduces ``f`` exactly.

    Each distinct node is rendered once, with its precedence, and its
    parent adds parentheses where the operand binds too loosely.  A first
    walk sums the lengths alone, so a text longer than :data:`MAX_TEXT`
    raises :class:`ValueError` before any text is built."""

    def size(node, *kids):
        parts, level = _layout(node, *kids)
        total = sum(p if isinstance(p, int) else len(p) for p in parts)
        if total > MAX_TEXT:
            raise ValueError(f"formula text of {total} characters is longer than {MAX_TEXT}")
        return total, level

    def text(node, *kids):
        parts, level = _layout(node, *kids)
        return "".join(parts), level

    _fold([f], size)
    return _fold([f], text)[0][0]


def _layout(node: Formula, *kids) -> tuple[list, int]:
    """The parts of the text of ``node`` from the ``(part, precedence)`` of
    each operand, in order and in parentheses where the operand binds too
    loosely, and the precedence of ``node``."""
    if type(node) in _PRECEDENCE:
        level = _PRECEDENCE[type(node)]
        spelling, _, right, _ = _BINARY[level]
        (left, left_level), (rest, rest_level) = kids
        return [*_wrap(left, left_level < level + right), f" {spelling} ",
                *_wrap(rest, rest_level < level + (not right))], level
    if kids:
        [(text, level)] = kids
        head = f"{_MODALITIES[type(node)].head}_{node.index} "
        return [head, *_wrap(text, level < _UNARY)], _UNARY
    return [format_value(node.value) if isinstance(node, Const) else node.name], _UNARY


def _wrap(part, wrap: bool) -> tuple:
    return ("(", part, ")") if wrap else (part,)


class ParseError(ValueError):
    """A syntax error, carrying the character position it occurred at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


VARIABLE_PATTERN = r"[a-z][a-z0-9_]*"  # every variable of a model matches it in full

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<modal>(?:<>|\[\])-?_\d+)
  | (?P<op>{"|".join(re.escape(row.spelling) for row in _BINARY)})
  | (?P<not>!)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<const>{VALUE_PATTERN})
  | (?P<var>{VARIABLE_PATTERN})
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


MAX_NESTING = 100
"""The deepest formula the parser accepts: at most this many parentheses and
operators open at once, and a syntax tree at most this high (the derived
connectives count with their expansions).  Printing walks the shared
nodes without recursing, but comparison and hashing recurse along the
tree, so the bound keeps them far from Python's recursion limit."""


class _Parser:
    """Recursive descent; each method returns a formula and its height."""

    _BY_HEAD = {m.head: node for node, m in _MODALITIES.items()}

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> tuple[str, str, int]:
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def _nested(self, parse, pos: int, *args) -> tuple[Formula, int]:
        """``parse(*args)`` one level deeper, refused beyond :data:`MAX_NESTING`."""
        self.open += 1
        if self.open > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", pos)
        out = parse(*args)
        self.open -= 1
        return out

    @staticmethod
    def _node(f: Formula, height: int, pos: int) -> tuple[Formula, int]:
        if height > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", pos)
        return f, height

    def parse(self) -> Formula:
        f, _ = self._binary(0)
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def _binary(self, level: int) -> tuple[Formula, int]:
        """A chain of the connective ``_BINARY[level]`` over operands that
        bind more tightly; a right operand of a right-associative one is
        a chain of its own."""
        spelling, build, right, added = _BINARY[level]
        tighter = level + 1 < len(_BINARY)
        f, height = self._binary(level + 1) if tighter else self._unary()
        while self._peek()[1] == spelling:
            pos = self._next()[2]
            if right:
                g, g_height = self._nested(self._binary, pos, level)
            else:
                g, g_height = self._binary(level + 1) if tighter else self._unary()
            f, height = self._node(build(f, g), max(height, g_height) + added, pos)
        return f, height

    def _unary(self) -> tuple[Formula, int]:
        kind, text, pos = self._peek()
        if kind == "not":
            self._next()
            child, height = self._nested(self._unary, pos)
            return self._node(neg(child), height + 1, pos)
        if kind == "modal":
            self._next()
            head, index = text.split("_")
            child, height = self._nested(self._unary, pos)
            return self._node(self._BY_HEAD[head](int(index), child), height + 1, pos)
        return self._atom()

    def _atom(self) -> tuple[Formula, int]:
        kind, text, pos = self._next()
        if kind == "const":
            try:
                return Const(parse_value(text)), 0
            except AlgebraError as exc:
                raise ParseError(str(exc), pos) from None
        if kind == "var":
            return Var(text), 0
        if kind == "lp":
            f = self._nested(self._binary, pos, 0)
            self._expect("rp")
            return f
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse a single formula from concrete syntax."""
    return _Parser(text).parse()


def parse_corpus(text: str) -> list[Formula]:
    """Parse a corpus: one formula per line, '#' comments, blank lines skipped."""
    formulas = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            formulas.append(parse(body))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.args[0]}", exc.position) from None
    return formulas


# -- semantic enumeration ----------------------------------------------------
#
# Formulae are enumerated up to semantic equivalence ON A GIVEN PAIR of
# models: the key of a formula is the pair of its value vectors over the two
# world sets.  Values are interned into the levels of the pair's value
# universe (the occurring values plus 0 and 1, which is closed under every
# connective on a chain), so all the saturation work runs on the level
# kernel of :mod:`.levels`; exact Fractions are recovered at the boundary.
#
# The class store is one growing (count, width) level matrix, width =
# n1 + n2, and beside it one (count, 3) build table: the code of the class's
# constructor in _BUILD and two operands (see FormulaEnumeration).  Closing
# the store under the binary connectives pairs each new row x with the rows
# known when its pass starts: connective c pairs with the classes of code
# > c, so x & y only for the y not made by &, and x -> g only for the
# generators g (constants, variables and modal rows).  That gives every
# class of the full square, by pointwise Heyting identities on a chain:
#
#   x & (u & z) = (x & u) & z           a meet with a meet splits;
#   x -> (u & z) = (x -> u) & (x -> z)  so do implications into a meet
#   x -> (u -> g) = (x & u) -> g        and into an implication.
#
# The one pair left, x -> m with x older than the generator m, is
# /\_c (((m -> c) & x) -> c) over the constants c: each term is at least
# x -> m, and where x > m the term at c = m is m.  Every row takes its
# values among 0, 1 and the values the models use, all seeded as
# constants, so the closure forms each term.
#
# So the classes of depth <= d are exactly the level rows f with
# f(p) & B(p, q) <= f(q) for all worlds p, q of both models, where
# B(p, q) = /\_g (g(p) <-> g(q)) over the generators g of depth <= d.
# Each generator is such a row, and & and -> keep the law (the Heyting
# congruence law).  Conversely f = \/_p (f(p) & X_p) with the term
# X_p = /\_g ((g -> g(p)) & (g(p) -> g)), values read as constants, and
# x | y = ((x -> y) -> y) & ((y -> x) -> x): X_p(q) = B(p, q), so the
# join at q is f(q), by the law and B(q, q) = 1.  B for depth d + 1 is one
# Jacobi sweep of the matched bisimulation kind from B for depth d, on the
# disjoint union of the models against itself: the proof of that modal
# step, and the class count, are in the docstring of :mod:`.weak`, which
# computes an uncut fragment's weak report from them.
#
# Duplicates are found by key.  With L levels a row has the exact
# mixed-radix key sum_c row[c] * L**(width-1-c).  When L**width is at most
# levels.BATCH, a dense boolean table indexed by key marks the known rows,
# so membership is one gather, and a candidate block past _SMALL levels
# is keyed one column per gather from the connective's L x L level table
# (FormulaEnumeration._pair_keys): only its new rows are formed.  Above
# that bound the candidate rows are formed in blocks and keyed by their
# radix integer (or by their raw bytes, when that would not fit in an
# int64); the known keys are kept in a sorted array.  Either way only
# genuinely new classes ever touch Python-level code, and both ways give
# the same class list.

def _meet(x, y, top):
    return np.minimum(x, y)


# the binary closure, in generation order, connective c with build code c:
# the constructor of the class of the pair (i, j), operands (i, j), and the
# level function of the connective on (row i, row j).  No <->:
# (A -> B) & (B -> A) is a meet the closure holds
_CONNECTIVES = (
    (And, _meet),
    (Implies, levels.residuum),
)

# the build codes: the connectives, then the atoms, then the modalities
_BUILD = (*(op for op, _ in _CONNECTIVES), Const, Var, *_MODALITIES)
_ATOMS = len(_CONNECTIVES)  # the code of Const, and the first generator code


BUDGET = 200_000
"""The default class budget of an enumeration, and of everything that runs one."""

_SMALL = 256
"""Arrays of at most this many entries cost less to compute outright than
the numpy calls it takes to avoid them."""


def _row_keys(size: int, width: int) -> tuple[Optional[np.ndarray], bool]:
    """How rows of ``width`` levels below ``size`` are keyed.

    Returns the mixed-radix weights of the columns, or None when a key
    would not fit in an int64 (rows are then keyed by their bytes), and
    whether the known keys go into a dense table: only when that table has
    at most :data:`levels.BATCH` entries.  (Every model has a world, so
    width >= 2 and the L x L connective tables are no larger.)
    """
    if size ** width >= 1 << 63:
        return None, False
    dtype = np.int32 if size ** width < 1 << 31 else np.int64
    return size ** np.arange(width - 1, -1, -1, dtype=dtype), size ** width <= levels.BATCH


def _keys(block: np.ndarray, radix: Optional[np.ndarray]) -> np.ndarray:
    """The key of every level row of ``block`` (m, width), shape (m,): its
    radix key under the weights ``radix`` of :func:`_row_keys`, or its
    bytes when they are None."""
    if radix is not None:
        return block.astype(radix.dtype) @ radix
    row = np.dtype((np.void, block.shape[1] * block.dtype.itemsize))
    return np.ascontiguousarray(block).view(row).reshape(-1)


def _admitted(fragment: Fragment) -> tuple:
    """The modalities of ``fragment``, in generation order: every one for
    FULL, else those of its direction."""
    return tuple(
        node for node, m in _MODALITIES.items()
        if fragment in (Fragment.FULL, Fragment.MINUS if m.inverse else Fragment.PLUS)
    )


def _modal_images(pair: "LevelPair", modalities: tuple, rows: np.ndarray) -> np.ndarray:
    """Every modality of ``modalities`` at every index of ``pair``, applied
    to every level row of ``rows`` (over the worlds of both models), per
    model: one block of rows per (index, modality), indices outermost."""
    (m1, _), top = pair.models, pair.universe.top
    n1, f = len(m1.worlds), len(rows)
    out = np.empty((len(m1.indices) * len(modalities) * f, rows.shape[1]), rows.dtype)
    segments = [(i, node) for i in m1.indices for node in modalities]
    for s, (i, node) in enumerate(segments):
        m, block = _MODALITIES[node], out[s * f : (s + 1) * f]
        for rel, lo, hi in ((pair.relations[0][i], 0, n1), (pair.relations[1][i], n1, None)):
            block[:, lo:hi] = levels.modal(rel, rows[:, lo:hi], top, box=m.box, inverse=m.inverse)
    return out


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")


class FormulaEnumeration:
    """Depth-layered, deduplicated formula enumeration over a model pair.

    Layer d holds one representative per distinct pair of value vectors
    among all fragment formulae of modal depth <= d, over the variables and
    indices of a comparable pair and the constants of its levels (both
    from :func:`.model.level_pair`); every modality of the fragment is
    admitted.  The class list only ever grows when the depth
    is extended, and the generation order is deterministic, so a lower
    depth is always a prefix of a higher one.
    When the class budget is exhausted, ``truncated`` flips to True and
    generation stops, so the folds of a cut enumeration only over-approximate
    those of the whole.  ``dense`` tells whether known rows are marked in a
    dense key table.  ``models`` is the pair ``(m1, m2)``.  The ladder and
    the fragment reports count their classes in closed form instead (see
    :func:`class_count`); an enumeration gives the representatives.

    Each class is stored as one level row and one build entry (code, a, b):
    the code names its constructor in ``_BUILD``, and the operands are two
    older classes (``&``, ``->``), the position of a constant or variable
    (``a``, with ``b`` = 0), or the position of a relation index in
    ``indices`` and a child class (a modality).

    ``depth`` is the modal depth the class list reaches.  The classes of
    that newest depth start at one cursor; :meth:`extend_generators` can
    leave them open under the binary connectives, and the next extension
    closes them before it goes deeper.
    """

    def __init__(
        self,
        m1: "KripkeModel",
        m2: "KripkeModel",
        fragment: Fragment,
        budget: int = BUDGET,
    ):
        from .model import level_pair

        _check_budget(budget)
        self._pair = pair = level_pair(m1, m2)
        self.models = pair.models
        self.algebra = m1.algebra
        self.fragment = Fragment(fragment)
        self.budget = budget
        self.truncated = False
        self.depth = 0
        self._level = 0  # the first class of the newest depth
        self._closed = False  # whether that depth is closed under the connectives

        self.variables = tuple(sorted(m1.valuation))
        self.indices = m1.indices
        self.universe = pair.universe
        constants = pair.constants
        self.constants = tuple(self.universe.decode(constants))
        self._modalities = _admitted(self.fragment)

        self.values: tuple[Fraction, ...] = self.universe.values
        self._dt = self.universe.dtype
        self._n1 = len(m1.worlds)

        # one level row and one build entry per class
        width = self._n1 + len(m2.worlds)
        self._rows = np.zeros((256, width), dtype=self._dt)
        self._build = np.zeros((256, 3), dtype=np.intp)
        self._count = 0
        self._built: list[Formula] = []  # representatives of a prefix of the classes

        # the known rows: a dense table of radix keys, or a sorted key array
        self._radix, self.dense = _row_keys(len(self.universe), width)
        if self.dense:
            self._seen = np.zeros(len(self.universe) ** width, dtype=bool)
            lv = np.arange(len(self.universe), dtype=self._dt)
            self._tables = np.stack(
                [fn(lv[:, None], lv[None, :], self.universe.top) for _, fn in _CONNECTIVES]
            )
        else:
            self._known = self._keys(self._rows[:0])

        self._seed_atoms(constants)
        self._close()

    # -- construction internals -------------------------------------------

    def _keys(self, block: np.ndarray) -> np.ndarray:
        """The key of every level row of ``block`` (m, width), shape (m,)."""
        return _keys(block, self._radix)

    def _pair_keys(self, c: int, lhs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The flat keys (a * len(rows) + b) of combining row ``lhs[a]`` with
        row ``rows[b]`` under connective ``c`` of ``_CONNECTIVES``.

        Without a dense table, or when ``rows`` holds at most :data:`_SMALL`
        levels, the candidate block is formed and keyed.  Else entry (a,
        column, level) of ``weighted`` is that column's part of the key of
        ``lhs[a]`` with a row at that level there: one gather per column.
        """
        if not self.dense or rows.size <= _SMALL:
            block = _CONNECTIVES[c][1](lhs[:, None, :], rows[None, :, :], self.universe.top)
            return self._keys(block.reshape(-1, rows.shape[1]))
        weighted = self._tables[c][lhs] * self._radix[:, None]
        keys = np.take(weighted[:, 0], rows[:, 0], axis=1)
        for col in range(1, rows.shape[1]):
            keys += np.take(weighted[:, col], rows[:, col], axis=1)
        return keys.reshape(-1)

    def _absorb(self, keys: np.ndarray) -> np.ndarray:
        """Positions of the keys that name new classes, in order; marks them known.

        Only the first occurrence of a repeated key counts, and the positions
        are cut at the budget (setting ``truncated``).
        """
        if self.dense:
            new = np.flatnonzero(~np.take(self._seen, keys))
        elif self._known.size:
            pos = np.searchsorted(self._known, keys)
            pos[pos == self._known.size] = 0  # out of range: the comparison rejects it
            new = np.flatnonzero(self._known[pos] != keys)
        else:
            new = np.arange(keys.size)
        if new.size == 0:
            return new
        _, first = np.unique(keys[new], return_index=True)
        new = new[np.sort(first)]
        room = max(0, self.budget - self._count)
        if new.size > room:
            new = new[:room]
            self.truncated = True
        if self.dense:
            self._seen[keys[new]] = True
        else:
            self._known = np.sort(np.concatenate([self._known, keys[new]]))
        return new

    def _append(self, rows: np.ndarray, code, a, b) -> None:
        """Add one class per level row of ``rows``, built as (code, a, b):
        each an integer, or an array with one entry per row."""
        lo, hi = self._count, self._count + rows.shape[0]
        cap = self._rows.shape[0]
        if hi > cap:
            while cap < hi:
                cap *= 2
            self._rows, self._build = (
                np.concatenate([x[:lo], np.zeros((cap - lo, x.shape[1]), x.dtype)])
                for x in (self._rows, self._build)
            )
        self._rows[lo:hi] = rows
        build = self._build[lo:hi]
        build[:, 0], build[:, 1], build[:, 2] = code, a, b
        self._count = hi

    def _seed_atoms(self, constants: np.ndarray) -> None:
        consts = np.repeat(constants[:, None], self._rows.shape[1], axis=1)
        block = np.vstack([consts, np.concatenate(self._pair.valuations, axis=1)])
        build = np.array([(_ATOMS, k, 0) for k in range(len(self.constants))]
                         + [(_ATOMS + 1, k, 0) for k in range(len(self.variables))])
        fresh = self._absorb(self._keys(block))
        self._append(block[fresh], *build[fresh].T)

    def _saturate(self, start: int) -> None:
        """Close rows[start:] under the binary connectives.

        Each pass pairs its new rows with the rows known when it starts,
        one connective at a time, the pairs (new i, partner j) in row-major
        order: connective c pairs with the rows of code > c, so under & the
        rows not made by &, under -> the generators (see the comment above
        :data:`_CONNECTIVES`).  The constants, the first classes, are
        closed under both connectives, so a constant pairs only with the
        rows that are not constants.  Rows born during a pass form the next
        frontier.  Chunks of new rows bound peak memory and do not change
        the order.
        """
        top = self.universe.top
        width = self._rows.shape[1]
        consts = len(self.constants)
        while start < self._count and not self.truncated:
            n_all = self._count
            all_rows, codes = self._rows[:n_all], self._build[:n_all, 0]
            for c, (_, fn) in enumerate(_CONNECTIVES):
                every = np.flatnonzero(codes > c)
                chunk = max(1, levels.BATCH // (len(every) * width))
                segments = [(max(start, consts), n_all, every)]
                if start < consts:  # the first pass
                    segments.insert(0, (start, consts, every[consts:]))
                for lo, hi, cols in segments:
                    partners = all_rows[cols]
                    for base in range(lo, hi, chunk):
                        lhs = all_rows[base : min(base + chunk, hi)]
                        fresh = self._absorb(self._pair_keys(c, lhs, partners))
                        if fresh.size:
                            i, j = base + fresh // len(cols), cols[fresh % len(cols)]
                            self._append(fn(all_rows[i], all_rows[j], top), c, i, j)
                        if self.truncated:
                            return
            start = n_all

    def _close(self) -> None:
        """Close the newest depth under the binary connectives, once."""
        if not self._closed:
            self._saturate(self._level)
            self._closed = True

    def _modal_step(self) -> None:
        """Generate the modal classes of depth ``self.depth + 1``.

        Children are the classes of the newest depth, which must be closed:
        a modality of an older class lands in a class an earlier step made.
        The new depth stays propositionally open until :meth:`_close`.
        """
        children = self._rows[self._level : self._count]
        base, f = self._level, len(children)
        self._level, self._closed = self._count, False
        self.depth += 1
        # every index and modality in turn, deduplicated together
        block = _modal_images(self._pair, self._modalities, children)
        build = np.empty((len(self.indices), len(self._modalities), f, 3), dtype=np.intp)
        build[..., 0] = np.array([_BUILD.index(node) for node in self._modalities])[:, None]
        build[..., 1] = np.arange(len(self.indices))[:, None, None]
        build[..., 2] = np.arange(base, base + f)
        fresh = self._absorb(self._keys(block))
        self._append(block[fresh], *build.reshape(-1, 3)[fresh].T)

    def extend_generators(self, depth: int) -> "FormulaEnumeration":
        """Grow the class list until the modal classes of ``depth`` exist.

        The propositional closure of the final depth is skipped: folds of
        biimplications (and anything else a meet of the atomic and modal
        rows determines) do not need it, and it is by far the most
        expensive part of a depth.  A later :meth:`extend_to_depth` call
        picks up exactly where this left off.

        A depth that adds no class has no children for a deeper modal
        step, so the class list is then final: ``depth`` jumps to the
        target at once.
        """
        _check_depth(depth)
        while self.depth < depth and not self.truncated:
            self._close()
            if self._level == self._count:
                self.depth = depth
                break
            self._modal_step()
        return self

    def extend_to_depth(self, depth: int) -> "FormulaEnumeration":
        """Grow the class list to cover all formulae of modal depth ``depth``."""
        if self.extend_generators(depth).depth == depth:
            self._close()
        return self

    # -- results ------------------------------------------------------------

    def formula(self, index: int) -> Formula:
        """Reconstruct the representative formula of class ``index``.

        The args of a class name earlier classes only, so the
        representatives are built forward, each once, up to ``index``.
        """
        index = range(self._count)[index]
        built = self._built
        for code, a, b in self._build[len(built) : index + 1].tolist():
            op = _BUILD[code]
            if code < _ATOMS:
                built.append(op(built[a], built[b]))
            elif op is Const:
                built.append(Const(self.constants[a]))
            elif op is Var:
                built.append(Var(self.variables[a]))
            else:
                built.append(op(self.indices[a], built[b]))
        return built[index]

    def formulas(self) -> list[Formula]:
        return [self.formula(i) for i in range(self._count)]

    def level_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Level-index vectors of every class, as two aligned array views.

        The first array is (count, worlds of the first model), the second
        (count, worlds of the second); row k belongs to class k.  The views
        share storage with the enumeration and must not be written to.
        """
        rows = self._rows[: self._count]
        return rows[:, : self._n1], rows[:, self._n1 :]

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the atomic and modal classes, in enumeration order.

        The biimplication of a conjunction or implication is bounded below
        by the meet of the biimplications of the parts (a Heyting
        congruence law), so a meet of per-formula biimplications over all
        formulae of depth <= d equals the meet over just these generator
        classes.  Biimplication folds can skip the binary rows; residuum
        folds cannot (the law fails one-sidedly for implication).
        """
        return tuple(np.flatnonzero(self._build[: self._count, 0] >= _ATOMS).tolist())

    def generator_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`level_vectors`, restricted to the generator classes."""
        rows = self._rows[: self._count][self._build[: self._count, 0] >= _ATOMS]
        return rows[:, : self._n1], rows[:, self._n1 :]

    def __len__(self):
        return self._count


# -- the classes in closed form ----------------------------------------------
#
# The comment above _CONNECTIVES shows that the classes of depth <= d are the
# level rows extensional under B_d, which :func:`.bisim.union_iterate`
# computes; the docstring of :mod:`.weak` proves the modal step.  So the
# classes need no enumeration: they are counted, and when their count fits a
# budget formed, by one walk over the cuts of B_d.


def _class_walk(b: np.ndarray, top: int, budget: int, rows: bool):
    """The walk of :func:`class_count`: the count, or ``budget + 1`` past
    the budget, and with ``rows`` the rows it counts (None past the
    budget), as level rows of ``b``'s dtype, zero outside their block.

    A block carries its rows next to its count: the constant rows it gains
    over the levels it merges with nothing, the Cartesian product of its
    parts' rows where it merges, and the constant row one level below the
    cut.  The counts of a merge are taken before its rows, so no row set
    past the budget is formed.
    """
    firsts, counts = list(range(len(b))), [1] * len(b)  # the blocks past top
    held = [np.eye(1, len(b), p, b.dtype) * top for p in firsts] if rows else None
    cut = top + 1
    for value in np.unique(np.append(b, 0))[::-1].tolist():
        above = b >= value
        first = above.argmax(axis=1).tolist()  # the first world of each block
        grown = cut - value - 1
        merged: dict = {}
        for k, world in enumerate(firsts):
            merged.setdefault(first[world], []).append(k)
        counts = [int(value > 0) + math.prod(counts[k] + grown for k in part)
                  for part in merged.values()]
        if max(counts) > budget:
            return budget + 1, None
        if rows:
            if grown:
                gained = np.arange(value, cut - 1, dtype=b.dtype)[:, None]
                held = [np.vstack([x, gained * (b[p] >= cut)]) for x, p in zip(held, firsts)]
            parts, held = held, []
            for key, part in merged.items():
                block = parts[part[0]]
                for k in part[1:]:
                    block = (block[:, None] + parts[k][None]).reshape(-1, len(b))
                if value:
                    block = np.vstack([block, np.multiply(above[key], value - 1, dtype=b.dtype)])
                held.append(block)
        firsts, cut = list(merged), value
    return counts[0], held[0] if rows else None


def class_count(b: np.ndarray, top: int, budget: int) -> int:
    """The number of rows f of levels 0..``top`` over the worlds of ``b``
    with f(p) /\\ b(p, q) <= f(q) for all worlds p and q, where ``b`` is a
    min-transitive similarity on those levels (top on its diagonal); or
    ``budget + 1`` as soon as the count is known to pass ``budget``.

    The cuts b >= a are nested equivalences.  On a block S of the cut at
    a, the count C(S, a) is 1 for a past top, and else [a > 0] + the
    product of C(S_k, a + 1) over the blocks S_k of S at cut a + 1: below
    a, f is one value on S; else it is at least a there, and blocks that
    b keeps apart at a are free of each other.  The cuts change only at
    the values of b, so the blocks are merged one value at a time, from
    top down to 0; a block that merges with nothing over k levels gains
    k.  Every count is at least 1, so the count of the whole passes the
    budget once any block's count does.
    """
    return _class_walk(b, top, budget, False)[0]


def class_rows(b: np.ndarray, top: int, budget: int) -> Optional[np.ndarray]:
    """The rows that :func:`class_count` counts, one per row of the result
    (in no set order, in ``b``'s dtype), from the same walk; or None when
    their count passes ``budget``."""
    return _class_walk(b, top, budget, True)[1]


def _open_count(pair: "LevelPair", fragment: Fragment, classes: np.ndarray, budget: int) -> int:
    """The level rows ``classes`` of ``pair`` together with their images
    under every modality of ``fragment`` at every index, each distinct row
    counted once; or ``budget + 1`` past ``budget``.  When ``classes`` are
    the classes of depth <= d - 1, this is the count after
    ``FormulaEnumeration.extend_generators(d)``: an image of a class is a
    class of depth <= d, new or not.  The images are formed and keyed in
    blocks of at most :data:`levels.BATCH` entries."""
    modalities = _admitted(fragment)
    width = classes.shape[1]
    radix, _ = _row_keys(len(pair.universe), width)
    segments = max(1, len(pair.models[0].indices) * len(modalities))
    chunk = max(1, levels.BATCH // (segments * width))
    keys = [_keys(classes, radix)]
    for lo in range(0, len(classes), chunk):
        images = _modal_images(pair, modalities, classes[lo : lo + chunk])
        keys.append(np.unique(_keys(images, radix)))
    return min(budget + 1, len(np.unique(np.concatenate(keys))))
