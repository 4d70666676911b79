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

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from . import levels
from .algebra import ONE, VALUE_PATTERN, ZERO, AlgebraError, format_value, parse_value

if TYPE_CHECKING:
    from .model import KripkeModel


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


def to_text(f: Formula) -> str:
    """Render a formula; ``parse(to_text(f))`` reproduces ``f`` exactly.

    Each distinct node is rendered once, with its precedence, and its
    parent adds parentheses where the operand binds too loosely."""

    def visit(node, *kids):
        if type(node) in _PRECEDENCE:
            level = _PRECEDENCE[type(node)]
            spelling, _, right, _ = _BINARY[level]
            (left, left_level), (rest, rest_level) = kids
            if left_level < level + right:
                left = f"({left})"
            if rest_level < level + (not right):
                rest = f"({rest})"
            return f"{left} {spelling} {rest}", level
        if kids:
            text, level = kids[0]
            text = f"({text})" if level < _UNARY else text
            return f"{_MODALITIES[type(node)].head}_{node.index} {text}", _UNARY
        return (format_value(node.value) if isinstance(node, Const) else node.name), _UNARY

    return _fold([f], visit)[0][0]


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
# n1 + n2, and closing it under the binary connectives pairs every new row
# against every known row.  Duplicates are found by key.  With L levels a
# row has the exact mixed-radix key  sum_c row[c] * L**(width-1-c).
#
# When L**width is at most levels.BATCH, a dense boolean table
# indexed by key marks the known rows, so membership is one gather.  The
# key of combining rows i and j under a connective is then summed over the
# columns from the connective's L x L level table at (row_i[c], row_j[c]),
# a few columns per gather (:meth:`FormulaEnumeration._pair_parts`), so the
# (pairs, width) candidate block is not formed (except while the known rows
# are few, see _SMALL): only the new rows are, from their pair.
#
# Above that bound the candidate rows are formed in blocks and keyed by
# their radix integer (or by their raw bytes, when that would not fit in
# an int64); the known keys are kept in a sorted array.  Either way only
# genuinely new classes ever touch Python-level code, and both ways give
# the same class list.

def _meet(x, y, top):
    return np.minimum(x, y)


def _converse_residuum(x, y, top):
    return levels.residuum(y, x, top)


# the binary closure, in generation order: the constructor of the class,
# whether the class of the pair (i, j) has args (i, j), (j, i) or the sorted
# pair, and the level function of the connective on (row i, row j)
_CONNECTIVES = (
    (And, "sorted", _meet),
    (Implies, "forward", levels.residuum),
    (Implies, "converse", _converse_residuum),
    (iff, "sorted", levels.biimplication),
)


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


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")


class FormulaEnumeration:
    """Depth-layered, deduplicated formula enumeration over a model pair.

    Layer d holds one representative per distinct pair of value vectors
    among all fragment formulae of modal depth <= d, over the variables and
    indices both models declare and the constants 0, 1 and every value the
    models use; every modality of the fragment is admitted.  The class list
    only ever grows when the depth is extended, and the generation order is
    deterministic, so a lower depth is always a prefix of a higher one.
    When the class budget is exhausted, ``truncated`` flips to True and
    generation stops.  ``dense`` tells whether known rows are marked in a
    dense key table.

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
        budget: int = 200_000,
    ):
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        m1.algebra.check_same(m2.algebra)
        self.algebra = m1.algebra
        self.fragment = Fragment(fragment)
        self.budget = budget
        self.truncated = False
        self.depth = 0
        self._level = 0  # the first class of the newest depth
        self._closed = False  # whether that depth is closed under the connectives

        self.variables = tuple(sorted(set(m1.valuation) & set(m2.valuation)))
        self.indices = tuple(sorted(set(m1.indices) & set(m2.indices)))
        self.constants = tuple(sorted({ZERO, ONE, *m1.used_values(), *m2.used_values()}))
        self.universe = levels.union([m1.universe, m2.universe], self.constants)

        # a modality is admitted by FULL and by the fragment of its direction
        self._modalities = tuple(
            node for node, m in _MODALITIES.items()
            if self.fragment in (Fragment.FULL, Fragment.MINUS if m.inverse else Fragment.PLUS)
        )

        self.values: tuple[Fraction, ...] = self.universe.values
        self._dt = self.universe.dtype
        self._n1 = len(m1.worlds)
        self._n2 = len(m2.worlds)
        self._rel1, self._val1 = m1.encoded(self.universe)
        self._rel2, self._val2 = m2.encoded(self.universe)

        # one level row per class; the constructor of its representative
        # and the constructor's args run parallel, for rebuilding
        width = self._n1 + self._n2
        self._rows = np.zeros((256, width), dtype=self._dt)
        self._count = 0
        self._ops: list[Callable] = []
        self._args: list = []
        self._gen_rows: list[int] = []
        self._built: list[Formula] = []  # representatives of a prefix of the classes

        # the known rows: a dense table of radix keys, or a sorted key array
        self._radix, self.dense = _row_keys(len(self.universe), width)
        if self.dense:
            self._seen = np.zeros(len(self.universe) ** width, dtype=bool)
            lv = np.arange(len(self.universe), dtype=self._dt)
            self._tables = np.stack(
                [fn(lv[:, None], lv[None, :], self.universe.top) for _, _, fn in _CONNECTIVES]
            )
        else:
            self._row_bytes = np.dtype((np.void, width * self._dt.itemsize))
            self._known = self._keys(self._rows[:0])

        self._seed_atoms()
        self._close()

    # -- construction internals -------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        rows = np.zeros((cap, self._rows.shape[1]), dtype=self._dt)
        rows[: self._count] = self._rows[: self._count]
        self._rows = rows

    def _keys(self, block: np.ndarray) -> np.ndarray:
        """The key of every level row of ``block`` (m, width), shape (m,)."""
        if self._radix is not None:
            return block.astype(self._radix.dtype) @ self._radix
        return np.ascontiguousarray(block).view(self._row_bytes).reshape(-1)

    def _pair_keys(self, lhs: np.ndarray, rows: np.ndarray):
        """Per connective, in order, the flat keys (a * len(rows) + b) of
        combining row ``lhs[a]`` with row ``rows[b]``.

        The sorted-key fallback forms each candidate block.  The dense path
        forms one only when ``rows`` is small; otherwise it sums the keys
        from the parts of :meth:`_pair_parts`.
        """
        if not self.dense:
            top, width = self.universe.top, rows.shape[1]
            for _, _, fn in _CONNECTIVES:
                yield self._keys(fn(lhs[:, None, :], rows[None, :, :], top).reshape(-1, width))
        elif rows.size <= _SMALL:
            keys = self._tables[:, lhs[:, None, :], rows[None, :, :]] @ self._radix
            yield from keys.reshape(len(keys), -1)
        else:
            groups, digits = self._digit_groups(rows)
            parts = self._pair_parts(lhs, groups)
            for c in range(len(self._tables)):
                keys = np.take(parts[0][c], digits[0], axis=1)
                for group, group_digits in zip(parts[1:], digits[1:]):
                    keys += np.take(group[c], group_digits, axis=1)
                yield keys.reshape(-1)

    def _digit_groups(self, rows: np.ndarray) -> tuple[list, np.ndarray]:
        """The column groups of :meth:`_pair_parts` for pairing with ``rows``,
        and the digits every row spells on each group, shape (groups, rows).

        A group has g columns, g as large as keeps L**g within a quarter of
        len(rows), so building a group's parts costs less than gathering
        from them, or within :data:`_SMALL`.
        """
        size, width = len(self.universe), rows.shape[1]
        g = 1
        while g < width and size ** (g + 1) <= max(len(rows) // 4, _SMALL):
            g += 1
        groups = [range(lo, min(lo + g, width)) for lo in range(0, width, g)]
        place = np.zeros((len(groups), width), dtype=np.intp)
        for k, cols in enumerate(groups):
            place[k, cols] = size ** np.arange(len(cols) - 1, -1, -1)
        return groups, place @ rows.T.astype(np.intp)

    def _pair_parts(self, lhs: np.ndarray, groups: list) -> list:
        """Per column group, the key parts of combining ``lhs`` rows with rows
        that spell each digit string on the group's columns.

        Entry (connective, a, s) of a group's parts is the part of the radix
        key of ``tables[connective][lhs[a], row]`` that the group's columns
        contribute, for any row spelling s there.  The key of ``lhs[a]``
        with row b is the sum over groups of the entry at b's digits, so the
        (a, b, width) candidate block is never formed.
        """
        # (connective, a, column, level): each column's weighted table row
        weighted = self._tables[:, lhs] * self._radix[:, None]
        out = []
        for cols in groups:
            parts = weighted[:, :, cols[0]]
            for c in cols[1:]:
                parts = (parts[..., None] + weighted[:, :, c, None, :]).reshape(
                    len(self._tables), len(lhs), -1
                )
            out.append(parts)
        return out

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

    def _append(self, rows: np.ndarray, op: Callable, args: list) -> None:
        """Add one class of constructor ``op`` per level row of ``rows``."""
        k = rows.shape[0]
        self._grow(self._count + k)
        self._rows[self._count : self._count + k] = rows
        self._ops.extend([op] * k)
        self._args.extend(args)
        if op not in (And, Implies, iff):
            self._gen_rows.extend(range(self._count, self._count + k))
        self._count += k

    def _absorb_block(self, block: np.ndarray, op: Callable, args_for) -> bool:
        """Turn every new level row of ``block`` into a class of constructor ``op``.

        ``args_for`` maps a row position in ``block`` to the ``args`` of the
        class it creates; it is called only for rows that are genuinely new.
        Returns False once the budget is exhausted.
        """
        fresh = self._absorb(self._keys(block)).tolist()
        self._append(block[fresh], op, list(map(args_for, fresh)))
        return not self.truncated

    def _seed_atoms(self) -> None:
        width = self._n1 + self._n2
        block = np.repeat(self.universe.encode(self.constants)[:, None], width, axis=1)
        self._absorb_block(block, Const, self.constants.__getitem__)
        if self.variables and not self.truncated:
            block = np.array(
                [np.concatenate([self._val1[p], self._val2[p]]) for p in self.variables]
            )
            self._absorb_block(block, Var, self.variables.__getitem__)

    def _saturate(self, start: int) -> None:
        """Close rows[start:] under the binary connectives against everything.

        Each pass pairs the newest rows against a snapshot of the whole
        store; rows born during a pass form the next frontier, so every pair
        is eventually combined.  Candidates are produced in fixed-size
        batches to bound peak memory.
        """
        top = self.universe.top
        width = self._rows.shape[1]
        while start < self._count and not self.truncated:
            n_all = self._count
            all_rows = self._rows[:n_all].copy()
            chunk = max(1, levels.BATCH // max(1, n_all * width))
            for base in range(start, n_all, chunk):
                lhs = all_rows[base : base + chunk]
                pair_keys = self._pair_keys(lhs, all_rows)
                for (op, order, fn), keys in zip(_CONNECTIVES, pair_keys):
                    fresh = self._absorb(keys)
                    if fresh.size:
                        i, j = base + fresh // n_all, fresh % n_all
                        rows = fn(all_rows[i], all_rows[j], top)
                        if order == "sorted":
                            i, j = np.minimum(i, j), np.maximum(i, j)
                        elif order == "converse":
                            i, j = j, i
                        self._append(rows, op, list(zip(i.tolist(), j.tolist())))
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
        vec1, vec2 = children[:, : self._n1].copy(), children[:, self._n1 :].copy()
        base, top = self._level, self.universe.top
        self._level, self._closed = self._count, False
        self.depth += 1
        for idx in self.indices:
            for node in self._modalities:
                m = _MODALITIES[node]
                out1 = levels.modal(self._rel1[idx], vec1, top, box=m.box, inverse=m.inverse)
                out2 = levels.modal(self._rel2[idx], vec2, top, box=m.box, inverse=m.inverse)
                block = np.concatenate([out1, out2], axis=1)
                if not self._absorb_block(block, node, lambda k, idx=idx: (idx, base + k)):
                    return

    def extend_generators(self, depth: int) -> "FormulaEnumeration":
        """Grow the class list until the modal classes of ``depth`` exist.

        The propositional closure of the final depth is skipped: folds of
        biimplications (and anything else a meet of the atomic and modal
        rows determines) do not need it, and it is by far the most
        expensive part of a depth.  A later :meth:`extend_to_depth` call
        picks up exactly where this left off.
        """
        _check_depth(depth)
        while self.depth < depth and not self.truncated:
            self._close()
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
        for i in range(len(built), index + 1):
            op, args = self._ops[i], self._args[i]
            if op in (Const, Var):
                built.append(op(args))
            elif op in _MODALITIES:
                built.append(op(args[0], built[args[1]]))
            else:
                built.append(op(built[args[0]], built[args[1]]))
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

        The biimplication of a conjunction, implication or equivalence is
        bounded below by the meet of the biimplications of the parts (a
        Heyting congruence law), so a meet of per-formula biimplications
        over all formulae of depth <= d equals the meet over just these
        generator classes.  Biimplication folds can skip the binary rows;
        residuum folds cannot (the law fails one-sidedly for implication).
        """
        return tuple(self._gen_rows)

    def generator_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`level_vectors`, restricted to the generator classes."""
        idx = np.asarray(self._gen_rows, dtype=np.intp)
        rows = self._rows[idx]
        return rows[:, : self._n1], rows[:, self._n1 :]

    def __len__(self):
        return self._count
