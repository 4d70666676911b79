"""Modal formula syntax: AST, parser, printer, and semantic enumeration.

Concrete syntax
---------------

    variables    [a-z][a-z0-9_]*
    constants    rationals in [0, 1]:  0, 1, 0.3, 0.25, 2/3
    connectives  !A   A & B   A | B   A -> B   A <-> B
    modalities   []_i A   <>_i A   []-_i A   <>-_i A     (integer index i)

Precedence, tightest first: ! and modalities, &, |, ->, <->;  -> and <->
associate to the right, & and | to the left.  Parentheses group.

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
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from . import levels
from .algebra import ZERO, format_value

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

_FORWARD = (Box, Diamond)
_INVERSE = (BoxInv, DiamondInv)
_MODAL = _FORWARD + _INVERSE
_BINARY = (And, Implies)


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
    if isinstance(f, (Const, Var)):
        return 0
    if isinstance(f, _BINARY):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 1 + modal_depth(f.child)


def classify(f: Formula) -> Fragment:
    """The least fragment containing ``f``.

    Propositional formulae belong to every fragment; a formula classified
    ``plus`` uses forward modalities only, ``minus`` inverse only.
    """
    fwd = inv = False
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, _MODAL):
            if isinstance(node, _FORWARD):
                fwd = True
            else:
                inv = True
            stack.append(node.child)
    if fwd and inv:
        return Fragment.FULL
    if fwd:
        return Fragment.PLUS
    if inv:
        return Fragment.MINUS
    return Fragment.PROPOSITIONAL


def dual(f: Formula) -> Formula:
    """Swap every modality with its inverse counterpart."""
    if isinstance(f, (Const, Var)):
        return f
    if isinstance(f, And):
        return And(dual(f.left), dual(f.right))
    if isinstance(f, Implies):
        return Implies(dual(f.left), dual(f.right))
    if isinstance(f, Box):
        return BoxInv(f.index, dual(f.child))
    if isinstance(f, BoxInv):
        return Box(f.index, dual(f.child))
    if isinstance(f, Diamond):
        return DiamondInv(f.index, dual(f.child))
    return Diamond(f.index, dual(f.child))


# -- printer ----------------------------------------------------------------

_LEVEL_IMPLIES = 1
_LEVEL_AND = 2
_LEVEL_UNARY = 3


def _to_text(f: Formula, level: int) -> str:
    if isinstance(f, Const):
        return format_value(f.value)
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Implies):
        text = f"{_to_text(f.left, _LEVEL_AND)} -> {_to_text(f.right, _LEVEL_IMPLIES)}"
        return f"({text})" if level > _LEVEL_IMPLIES else text
    if isinstance(f, And):
        text = f"{_to_text(f.left, _LEVEL_AND)} & {_to_text(f.right, _LEVEL_UNARY)}"
        return f"({text})" if level > _LEVEL_AND else text
    op = {Box: "[]", Diamond: "<>", BoxInv: "[]-", DiamondInv: "<>-"}[type(f)]
    return f"{op}_{f.index} {_to_text(f.child, _LEVEL_UNARY)}"


def to_text(f: Formula) -> str:
    """Render a formula; ``parse(to_text(f))`` reproduces ``f`` exactly."""
    return _to_text(f, 0)


# -- parser -----------------------------------------------------------------


class ParseError(ValueError):
    """A syntax error, carrying the character position it occurred at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<diamond><>-?_\d+)
  | (?P<box>\[\]-?_\d+)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<not>!)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<const>\d+(?:\.\d+|/\d+)?)
  | (?P<var>[a-z][a-z0-9_]*)
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek()[0] == "iff":
            self._next()
            return iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._disj()
        if self._peek()[0] == "imp":
            self._next()
            return Implies(left, self._implies())
        return left

    def _disj(self) -> Formula:
        f = self._conj()
        while self._peek()[0] == "or":
            self._next()
            f = disj(f, self._conj())
        return f

    def _conj(self) -> Formula:
        f = self._unary()
        while self._peek()[0] == "and":
            self._next()
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        kind, text, pos = self._peek()
        if kind == "not":
            self._next()
            return neg(self._unary())
        if kind in ("box", "diamond"):
            self._next()
            head, index_text = text.split("_")
            index = int(index_text)
            inverse = head.endswith("-")
            child = self._unary()
            if kind == "box":
                return BoxInv(index, child) if inverse else Box(index, child)
            return DiamondInv(index, child) if inverse else Diamond(index, child)
        return self._atom()

    def _atom(self) -> Formula:
        kind, text, pos = self._next()
        if kind == "const":
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise ParseError(f"constant {text} has a zero denominator", pos) from None
            if value > 1:
                raise ParseError(f"constant {text} is outside [0, 1]", pos)
            return Const(value)
        if kind == "var":
            return Var(text)
        if kind == "lp":
            f = self._iff()
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
# The class store is one growing (count, n1 + n2) level matrix.  Closing it
# under the binary connectives pairs every new row against every known row
# in batched array operations; candidate rows are packed into fixed-width
# uint64 words for duplicate detection, so only genuinely new classes ever
# touch Python-level code.

_UNARY_OPS = {
    Fragment.PROPOSITIONAL: (),
    Fragment.PLUS: ("diamond", "box"),
    Fragment.MINUS: ("diamondinv", "boxinv"),
    Fragment.FULL: ("diamond", "box", "diamondinv", "boxinv"),
}

_NODE_FOR_OP = {"diamond": Diamond, "box": Box, "diamondinv": DiamondInv, "boxinv": BoxInv}


class SemanticClass:
    """One semantic equivalence class with its first-found representative."""

    __slots__ = ("op", "args", "vec1", "vec2", "depth")

    def __init__(self, op, args, vec1, vec2, depth):
        self.op = op
        self.args = args
        self.vec1 = vec1
        self.vec2 = vec2
        self.depth = depth


class FormulaEnumeration:
    """Depth-layered, deduplicated formula enumeration over a model pair.

    Layer d holds one representative per distinct pair of value vectors
    among all fragment formulae of modal depth <= d (over the configured
    variables, constants and indices).  The class list only ever grows when
    the depth is extended, and the generation order is deterministic, so a
    lower depth is always a prefix of a higher one.  When the class budget
    is exhausted, ``truncated`` flips to True and generation stops.
    """

    def __init__(
        self,
        m1: "KripkeModel",
        m2: "KripkeModel",
        fragment: Fragment,
        variables: Optional[Iterable[str]] = None,
        constants: Optional[Iterable[Fraction]] = None,
        indices: Optional[Iterable[int]] = None,
        budget: int = 200_000,
        include_boxes: bool = True,
    ):
        m1.algebra.check_same(m2.algebra)
        self.algebra = m1.algebra
        self.fragment = Fragment(fragment)
        self.budget = budget
        self.truncated = False
        self.depth = -1

        if variables is None:
            names = sorted(set(m1.valuation) & set(m2.valuation))
        else:
            names = sorted(set(variables))
            for name in names:
                if name not in m1.valuation or name not in m2.valuation:
                    raise ValueError(f"variable {name!r} is not declared in both models")
        if indices is None:
            idx = sorted(set(m1.indices) & set(m2.indices))
        else:
            idx = sorted(set(indices))
            for i in idx:
                if i not in m1.relations or i not in m2.relations:
                    raise ValueError(f"index {i} is not declared in both models")
        self.variables = tuple(names)
        self.indices = tuple(idx)

        if constants is None:
            self.universe = levels.Universe(chain(m1.entries(), m2.entries()))
            self.constants = self.universe.values
        else:
            self.constants = tuple(sorted({self.algebra.check_value(c) for c in constants}))
            self.universe = levels.Universe(chain(m1.entries(), m2.entries(), self.constants))
        if not self.variables and not self.constants:
            raise ValueError("enumeration needs at least one variable or constant")

        ops = _UNARY_OPS[self.fragment]
        if not include_boxes:
            ops = tuple(op for op in ops if not op.startswith("box"))
        self._unary_ops = ops

        self.values: tuple[Fraction, ...] = self.universe.values
        self._dt = self.universe.dtype
        self._n1 = len(m1.worlds)
        self._n2 = len(m2.worlds)
        self._rel1, self._val1 = m1.encoded(self.universe)
        self._rel2, self._val2 = m2.encoded(self.universe)

        # one level row per class; op/args/depth run parallel for rebuilding
        width = self._n1 + self._n2
        self._row_bytes = width * np.dtype(self._dt).itemsize
        self._pad_bytes = ((self._row_bytes + 7) // 8) * 8
        self._rows = np.zeros((256, width), dtype=self._dt)
        self._count = 0
        self._ops: list[str] = []
        self._args: list = []
        self._class_depth: list[int] = []
        self._gen_rows: list[int] = []
        self._by_key: dict[bytes, int] = {}
        self._keys_sorted: Optional[np.ndarray] = (
            np.empty(0, dtype=np.uint64) if self._pad_bytes == 8 else None
        )
        self._formula_cache: dict[int, Formula] = {}

        self._seed_atoms()
        self._saturate(0)
        self.depth = 0
        self._modal_depth = 0
        self._sat_base = self._count

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

    def _pack(self, block: np.ndarray) -> np.ndarray:
        """Pack level rows (m, width) into fixed-width uint64 keys (m, w)."""
        m = block.shape[0]
        raw = np.ascontiguousarray(block).view(np.uint8).reshape(m, self._row_bytes)
        if self._pad_bytes != self._row_bytes:
            padded = np.zeros((m, self._pad_bytes), dtype=np.uint8)
            padded[:, : self._row_bytes] = raw
            raw = padded
        return raw.view(np.uint64)

    def _known_mask(self, words: np.ndarray) -> np.ndarray:
        """Which single-word keys already name a class (sorted-array lookup)."""
        keys = self._keys_sorted
        if keys.size == 0:
            return np.zeros(words.shape, dtype=bool)
        pos = np.searchsorted(keys, words)
        pos[pos == keys.size] = 0  # out of range: comparison below rejects it
        return keys[pos] == words

    _BINARY_OPS = ("and", "implies", "iff")

    def _append(self, row: np.ndarray, key: bytes, op: str, args, depth: int) -> None:
        self._grow(self._count + 1)
        self._rows[self._count] = row
        self._by_key[key] = self._count
        self._ops.append(op)
        self._args.append(args)
        self._class_depth.append(depth)
        if op not in self._BINARY_OPS:
            self._gen_rows.append(self._count)
        self._count += 1

    def _absorb(self, block: np.ndarray, op: str, args_for, depth_for) -> bool:
        """Turn every new level row of ``block`` into a class of operator ``op``.

        ``args_for`` and ``depth_for`` map a row position in ``block`` to the
        metadata of the class it creates; they are called only for rows that
        are genuinely new.  Returns False once the budget is exhausted.
        """
        if block.shape[0] == 0:
            return True
        packed = self._pack(block)
        if packed.shape[1] == 1:
            words = packed[:, 0]
            candidates = np.nonzero(~self._known_mask(words))[0]
            if candidates.size == 0:
                return True
            _, first = np.unique(words[candidates], return_index=True)
            order = candidates[np.sort(first)]
        else:
            _, first = np.unique(packed, axis=0, return_index=True)
            order = np.sort(first)
        fresh: list[int] = []
        for flat in order:
            flat = int(flat)
            key = packed[flat].tobytes()
            if key in self._by_key:
                continue
            if self._count >= self.budget:
                self.truncated = True
                break
            self._append(block[flat], key, op, args_for(flat), depth_for(flat))
            fresh.append(flat)
        if self._keys_sorted is not None and fresh:
            new_words = packed[np.asarray(fresh, dtype=np.intp), 0]
            self._keys_sorted = np.sort(np.concatenate([self._keys_sorted, new_words]))
        return not self.truncated

    def _seed_atoms(self) -> None:
        width = self._n1 + self._n2
        if self.constants:
            block = np.repeat(self.universe.encode(self.constants)[:, None], width, axis=1)
            self._absorb(block, "const", lambda f: self.constants[f], lambda f: 0)
        if self.variables and not self.truncated:
            block = np.array(
                [np.concatenate([self._val1[p], self._val2[p]]) for p in self.variables]
            )
            self._absorb(block, "var", lambda f: self.variables[f], lambda f: 0)

    def _saturate(self, start: int) -> None:
        """Close rows[start:] under the binary connectives against everything.

        Each pass pairs the newest rows against a snapshot of the whole
        store; rows born during a pass form the next frontier, so every pair
        is eventually combined.  Candidates are produced in fixed-size
        batches to bound peak memory.
        """
        top = self.universe.top
        while start < self._count and not self.truncated:
            n_all = self._count
            all_rows = self._rows[:n_all].copy()
            all_depth = self._class_depth[:n_all]
            rhs = all_rows[None, :, :]
            chunk = max(1, levels.BATCH // max(1, n_all * all_rows.shape[1]))
            base = start
            while base < n_all and not self.truncated:
                hi = min(base + chunk, n_all)
                f = hi - base
                lhs = all_rows[base:hi, None, :]

                def pair(flat: int, base=base) -> tuple[int, int]:
                    return base + flat // n_all, flat % n_all

                def depth_for(flat: int) -> int:
                    i, j = pair(flat)
                    di, dj = all_depth[i], all_depth[j]
                    return di if di >= dj else dj

                def args_sym(flat: int) -> tuple[int, int]:
                    i, j = pair(flat)
                    return (j, i) if j <= i else (i, j)

                def args_fwd(flat: int) -> tuple[int, int]:
                    i, j = pair(flat)
                    return (i, j)

                def args_rev(flat: int) -> tuple[int, int]:
                    i, j = pair(flat)
                    return (j, i)

                produced = (
                    ("and", args_sym, lambda: np.minimum(lhs, rhs)),
                    ("implies", args_fwd, lambda: levels.residuum(lhs, rhs, top)),
                    ("implies", args_rev, lambda: levels.residuum(rhs, lhs, top)),
                    ("iff", args_sym, lambda: levels.biimplication(lhs, rhs, top)),
                )
                for op, args_for, make in produced:
                    cand = make().reshape(f * n_all, -1)
                    if not self._absorb(cand, op, args_for, depth_for):
                        return
                base = hi
            start = n_all

    def _modal_step(self) -> None:
        """Generate the modal classes of depth ``self.depth + 1``.

        Children are the fully saturated classes of the current depth; the
        new level stays propositionally open until :meth:`_finish_level`.
        """
        snap = self._count
        vec1 = self._rows[:snap, : self._n1].copy()
        vec2 = self._rows[:snap, self._n1 :].copy()
        child_depth = self._class_depth[:snap]

        def depth_for(flat: int) -> int:
            return child_depth[flat] + 1

        top = self.universe.top
        for idx in self.indices:
            for op in self._unary_ops:
                out1 = levels.modal(op, self._rel1[idx], vec1, top)
                out2 = levels.modal(op, self._rel2[idx], vec2, top)
                block = np.concatenate([out1, out2], axis=1)

                def args_for(flat: int, idx=idx) -> tuple[int, int]:
                    return (idx, flat)

                if not self._absorb(block, op, args_for, depth_for):
                    break
            if self.truncated:
                break
        self._sat_base = snap
        self._modal_depth = self.depth + 1

    def _finish_level(self) -> None:
        """Close the pending modal level under the binary connectives."""
        self._saturate(self._sat_base)
        self.depth = self._modal_depth
        self._sat_base = self._count

    def extend_generators(self, depth: int) -> "FormulaEnumeration":
        """Grow the class list until the modal classes of ``depth`` exist.

        The propositional closure of the final level is skipped: folds of
        biimplications (and anything else a meet of the atomic and modal
        rows determines) do not need it, and it is by far the most
        expensive part of a level.  A later :meth:`extend_to_depth` call
        picks up exactly where this left off.
        """
        while self._modal_depth < depth and not self.truncated:
            if self._modal_depth > self.depth:
                self._finish_level()
            else:
                self._modal_step()
        return self

    def extend_to_depth(self, depth: int) -> "FormulaEnumeration":
        """Grow the class list to cover all formulae of modal depth ``depth``."""
        while self.depth < depth and not self.truncated:
            if self._modal_depth == self.depth:
                self._modal_step()
            self._finish_level()
        return self

    # -- results ------------------------------------------------------------

    _BINARY_NODE = {"and": And, "implies": Implies, "iff": iff}

    def formula(self, index: int) -> Formula:
        """Reconstruct the representative formula of class ``index``."""
        cache = self._formula_cache
        stack = [index]
        while stack:
            i = stack.pop()
            if i in cache:
                continue
            op = self._ops[i]
            args = self._args[i]
            if op == "const":
                cache[i] = Const(args)
            elif op == "var":
                cache[i] = Var(args)
            elif op in self._BINARY_NODE:
                a, b = args
                if a in cache and b in cache:
                    cache[i] = self._BINARY_NODE[op](cache[a], cache[b])
                else:
                    stack.extend((i, a, b))
            else:
                child = args[1]
                if child in cache:
                    cache[i] = _NODE_FOR_OP[op](args[0], cache[child])
                else:
                    stack.extend((i, child))
        return cache[index]

    def formulas(self) -> list[Formula]:
        return [self.formula(i) for i in range(self._count)]

    def class_at(self, index: int) -> SemanticClass:
        """Metadata record of class ``index`` (vectors as level indices)."""
        row = self._rows[index]
        return SemanticClass(
            self._ops[index],
            self._args[index],
            tuple(int(l) for l in row[: self._n1]),
            tuple(int(l) for l in row[self._n1 :]),
            self._class_depth[index],
        )

    def vectors(self, index: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """The exact value vectors of class ``index`` on the two models."""
        decode = self.universe.decode
        row = self._rows[index]
        return tuple(decode(row[: self._n1])), tuple(decode(row[self._n1 :]))

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


def enumerate_formulas(
    m1: "KripkeModel",
    m2: "KripkeModel",
    fragment: Fragment,
    depth: int,
    variables: Optional[Iterable[str]] = None,
    constants: Optional[Iterable[Fraction]] = None,
    indices: Optional[Iterable[int]] = None,
    budget: int = 200_000,
    include_boxes: bool = True,
) -> FormulaEnumeration:
    """Enumerate fragment formulae to ``depth``, deduplicated semantically."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    enum = FormulaEnumeration(
        m1, m2, fragment,
        variables=variables, constants=constants, indices=indices,
        budget=budget, include_boxes=include_boxes,
    )
    return enum.extend_to_depth(depth)
