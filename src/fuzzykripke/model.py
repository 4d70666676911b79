"""Fuzzy multimodal Kripke models: construction, evaluation, reversal.

A model is (W, {R_i}, V): a nonempty finite world set, one fuzzy relation
on W per index i, and a fuzzy set V_p over W per propositional variable p.
Formula values follow the usual residuated semantics; for a world w:

    V(w, t)        = t                      (truth constant)
    V(w, p)        = V_p(w)
    V(w, A & B)    = V(w, A) /\\ V(w, B)
    V(w, A -> B)   = V(w, A) -> V(w, B)
    V(w, []_i A)   = meet_u  R_i(w, u) -> V(u, A)
    V(w, <>_i A)   = join_u  R_i(w, u) /\\ V(u, A)
    V(w, []-_i A)  = meet_u  R_i(u, w) -> V(u, A)
    V(w, <>-_i A)  = join_u  R_i(u, w) /\\ V(u, A)

The reverse model transposes every relation, which swaps each modality
with its inverse: evaluating A on the reverse equals evaluating dual(A)
on the original.

File format: a JSON object with keys ``algebra`` (descriptor string),
``worlds`` (list of names), ``indices`` (list of integers), ``relations``
(map from index to a row-major matrix of decimal strings) and
``valuation`` (map from variable to a vector of decimal strings).  Values
are parsed exactly (JSON integers are exact too; JSON floats and booleans
are rejected); everything is validated eagerly on load so that
evaluation never revalidates.  The loader keeps one spelling table per
document and reads each matrix, row after row, in one pass of lookups:
a new spelling is parsed where the pass meets it and mapped straight to
a table index, a JSON integer is looked up in the same pass by its
text, every other entry costs a dict lookup, and each distinct value is
checked against the carrier once.  Every entry is still type-checked,
and the first bad entry in document order is the one reported.  A
repeated key in a JSON object and an index declared twice are errors.
The table becomes the document's value universe, so every relation and
valuation is a level array over it (one take through a table-to-level
remap), and the model keeps that universe.  A model pair is put into
the levels of one universe in one place, :func:`level_pair`.
Evaluation runs on level arrays (:mod:`.levels`), and output formats
each universe value once.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .algebra import Algebra, AlgebraError, parse_value
from .fuzzrel import FuzzyMat, FuzzyVec, _matrix_ids
from .levels import MAX_VALUES, ModelError, Universe, biimplication_fold, modal, residuum, union
from .syntax import VARIABLE_PATTERN, _MODALITIES, And, Const, Formula, Implies, Var, _fold


class KripkeModel:
    """An immutable fuzzy multimodal Kripke model."""

    __slots__ = (
        "algebra", "worlds", "indices", "relations", "valuation", "universe", "_index_of",
    )

    def __init__(
        self,
        algebra: Algebra,
        worlds: Iterable[str],
        relations: Mapping[int, FuzzyMat],
        valuation: Mapping[str, FuzzyVec],
    ):
        worlds = tuple(worlds)
        _check_world_names(worlds)
        if not worlds:
            raise ModelError("a model needs at least one world")
        if len(set(worlds)) != len(worlds):
            raise ModelError("world names must be distinct")
        n = len(worlds)
        rels = {}
        for i, mat in relations.items():
            if not isinstance(i, int) or isinstance(i, bool):
                raise ModelError(f"relation index {i!r} is not an integer")
            if i < 0:
                raise ModelError(f"relation index {i} is negative")
            algebra.check_same(mat.algebra)
            if mat.shape != (n, n):
                raise ModelError(
                    f"relation {i} has shape {mat.shape}, expected {(n, n)}"
                )
            rels[i] = mat
        vals = {}
        for name, vec in valuation.items():
            if not isinstance(name, str) or not re.fullmatch(VARIABLE_PATTERN, name):
                raise ModelError(f"variable {name!r} is not spelled {VARIABLE_PATTERN}")
            algebra.check_same(vec.algebra)
            if len(vec) != n:
                raise ModelError(
                    f"valuation of {name!r} has length {len(vec)}, expected {n}"
                )
            vals[name] = vec
        # the union of the value tables: for a loaded document, its table
        tables = [x.universe for x in (*rels.values(), *vals.values())]
        universe = union(tables or [Universe(())])
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "indices", tuple(sorted(rels)))
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "valuation", vals)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_index_of", {w: i for i, w in enumerate(worlds)})

    def __setattr__(self, name, value):
        raise AttributeError("KripkeModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.worlds == other.worlds
            and self.relations == other.relations
            and self.valuation == other.valuation
        )

    def __repr__(self):
        return (
            f"KripkeModel(algebra={self.algebra.spec()!r}, worlds={list(self.worlds)}, "
            f"indices={list(self.indices)}, variables={sorted(self.valuation)})"
        )

    # -- structure ----------------------------------------------------------

    def world_index(self, world: str) -> int:
        try:
            return self._index_of[world]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def reverse(self) -> "KripkeModel":
        """The model with every relation transposed."""
        return KripkeModel(
            self.algebra,
            self.worlds,
            {i: rel.inverse() for i, rel in self.relations.items()},
            self.valuation,
        )

    def encoded(self, universe: Universe) -> tuple[dict, dict]:
        """The relations (by index) and the valuation (by variable) as level
        arrays of ``universe``, which must hold every value of the model:
        one remap per source universe, so the tables of a loaded model,
        which share the document's, cost one take each."""
        remaps = {}

        def take(x):
            if x.universe is not universe and x.universe not in remaps:
                remaps[x.universe] = universe.encode(x.universe.values)
            return remaps[x.universe][x.levels] if x.universe in remaps else x.levels

        return (
            {i: take(rel) for i, rel in self.relations.items()},
            {p: take(vec) for p, vec in self.valuation.items()},
        )

    # -- evaluation ----------------------------------------------------------

    def eval_levels(self, formulas: Iterable[Formula], universe: Universe) -> np.ndarray:
        """Level vectors of ``formulas``, one row each, over all worlds.

        ``universe`` must hold every value of the model and every constant
        of the formulae (see :func:`formula_constants`).
        """
        rels, vals = self.encoded(universe)
        n = len(self.worlds)
        top = universe.top

        def visit(f: Formula, *args):
            # an undeclared name is a value that propagates, so the error
            # raised is the first one a recursive evaluation would meet: a
            # node's own name before its operands', left before right
            if isinstance(f, Var):
                if f.name not in vals:
                    return ModelError(f"undeclared variable {f.name!r}")
                return vals[f.name]
            if type(f) in _MODALITIES and f.index not in rels:
                return ModelError(f"undeclared relation index {f.index}")
            for arg in args:
                if isinstance(arg, ModelError):
                    return arg
            if isinstance(f, Const):
                return np.repeat(universe.encode((f.value,)), n)
            if isinstance(f, And):
                return np.minimum(*args)
            if isinstance(f, Implies):
                return residuum(*args, top)
            m = _MODALITIES[type(f)]
            return modal(rels[f.index], args[0][None, :], top, box=m.box, inverse=m.inverse)[0]

        rows = _fold(formulas, visit)
        for row in rows:
            if isinstance(row, ModelError):
                raise row
        return np.array(rows, dtype=universe.dtype).reshape(len(rows), n)

    def eval_vec(self, f: Formula) -> FuzzyVec:
        """The value vector of ``f`` over all worlds."""
        universe = union([self.universe], formula_constants(self.algebra, [f]))
        return FuzzyVec._from_levels(self.algebra, self.eval_levels([f], universe)[0], universe)

    def eval(self, world: str, f: Formula) -> Fraction:
        """The value of ``f`` at one world."""
        return self.eval_vec(f)[self.world_index(world)]

    # -- serialization --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "KripkeModel":
        if not isinstance(data, dict):
            raise ModelError("model document must be a JSON object")
        for key in ("algebra", "worlds", "indices", "relations", "valuation"):
            if key not in data:
                raise ModelError(f"model document is missing {key!r}")
        algebra = Algebra.from_spec(str(data["algebra"]))
        worlds = _require(data["worlds"], list, "'worlds' must be a list of names")
        _check_world_names(worlds)
        declared = []
        for i in _require(data["indices"], list, "'indices' must be a list of integers"):
            if not isinstance(i, int) or isinstance(i, bool):
                raise ModelError(f"relation index {i!r} is not an integer")
            declared.append(i)
        if len(set(declared)) < len(declared):
            raise ModelError(f"relation index {_repeated(declared)} is declared twice")
        raw_relations = _require(data["relations"], dict, "'relations' must be an object")
        if set(map(str, declared)) != set(map(str, raw_relations)):
            raise ModelError("declared indices and relation keys do not match")
        table = _ValueTable(algebra)
        relations = {}
        for key, rows in raw_relations.items():
            relations[int(key)] = table.matrix(rows, f"relation {key}")
        valuation = {}
        raw_valuation = _require(data["valuation"], dict, "'valuation' must be an object")
        for name, entries in raw_valuation.items():
            valuation[name] = table.vector(entries, f"valuation of {name!r}")
        return cls(algebra, worlds, *table.containers(relations, valuation))

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra.spec(),
            "worlds": list(self.worlds),
            "indices": list(self.indices),
            "relations": {str(i): rel.format() for i, rel in sorted(self.relations.items())},
            "valuation": {name: vec.format() for name, vec in sorted(self.valuation.items())},
        }

    @classmethod
    def from_json(cls, text: str) -> "KripkeModel":
        return cls.from_dict(_read_json(text))

    def to_json(self) -> str:
        return _render_json(self.to_dict()) + "\n"

    @classmethod
    def load(cls, path) -> "KripkeModel":
        with open(path, encoding="utf-8") as fh:
            data = _read_json(fh.read(), path)
        try:
            return cls.from_dict(data)
        except (ModelError, AlgebraError) as exc:
            raise type(exc)(f"{path}: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _read_json(text: str, source: str = ""):
    """``json.loads(text)``, with its errors as :class:`ModelError`; a
    ``source`` is named in the message.  An object that repeats a key is
    an error, not the last of its values."""
    where = f" in {source}" if source else ""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ModelError(f"invalid JSON{where}: {exc}") from None
    except RecursionError:
        raise ModelError(f"invalid JSON{where}: nested too deeply") from None


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"repeated key {json.dumps(_repeated(key for key, _ in pairs))}")
    return obj


def _repeated(items: Iterable):
    """The first item equal to an earlier one; there must be one."""
    seen = set()
    return next(x for x in items if x in seen or seen.add(x))


def _check_world_names(worlds) -> None:
    for w in worlds:
        if not isinstance(w, str):
            raise ModelError(f"world name {json.dumps(w, default=repr)} is not a string")


def _require(value, kind: type, message: str):
    if not isinstance(value, kind):
        raise ModelError(message)
    return value


class _ValueTable(dict):
    """Spelling -> table index, for the values of one document, with every
    spelling parsed once.

    A lookup of a new spelling parses it in place and gives it the index
    of its value, a new one when the value is new: equal values spelled
    differently share an index.  ``values`` lists the distinct values by
    table index, in order of first occurrence.  Only strings are keys: a
    JSON integer (exact type ``int``) is looked up by its text, and any
    other lookup raises :class:`TypeError`, so ``True`` or ``1.0`` never
    reads as a value.  A matrix or vector is read as table indices and
    checked against the carrier as a whole, before the next one is read,
    so errors come in the order of a per-entry loader.
    """

    __slots__ = ("algebra", "values", "by_value", "_checked")

    def __init__(self, algebra: Algebra):
        super().__init__()
        self.algebra = algebra
        self.values: list[Fraction] = []  # the distinct values, by table index
        self.by_value: dict = {}  # (numerator, denominator) -> table index
        self._checked = 0

    def __missing__(self, text):
        if type(text) is int:
            return self[str(text)]
        if type(text) is not str:
            raise TypeError(f"{type(text).__name__} is not a spelling")
        value = parse_value(text)
        i = self[text] = self.by_value.setdefault(value.as_integer_ratio(), len(self.values))
        if i == len(self.values):
            self.values.append(value)
        return i

    def _ids(self, rows: list, where: str, lengths: Optional[list] = None) -> np.ndarray:
        """Table indices of the entries of ``rows``, lists of decimal strings
        (or integers) read one after the other in one pass of lookups: the
        values of ``where``, a matrix whose rows have the ``lengths``, or a
        vector (one row) when ``lengths`` is None.  The error raised names
        the first bad entry: one that is neither a string nor an integer by
        exact type, or whose text does not parse or is too long to form."""
        try:
            return np.fromiter(
                map(self.__getitem__, chain.from_iterable(rows)), np.intp, sum(map(len, rows))
            )
        except (TypeError, ValueError):  # an AlgebraError, or an integer too long for str
            for k, entry in enumerate(chain.from_iterable(rows)):
                try:  # the entries before the bad one are in the table now
                    self[entry]
                except TypeError:
                    raise ModelError(
                        f"{_entry(where, lengths, k)}: {json.dumps(entry)} is not an "
                        'exact value; write it as a string such as "0.3"'
                    ) from None
                except ValueError as exc:
                    raise AlgebraError(f"{_entry(where, lengths, k)}: {exc}") from None
            raise

    def _check(self, where: str) -> None:
        """Check the values first seen since the last call, in order, and
        that the table still fits in a :class:`Universe`."""
        for value in self.values[self._checked:]:
            self.algebra.check_value(value)
        self._checked = len(self.values)
        known = self.by_value  # every universe holds 0 and 1
        size = len(self.values) + ((0, 1) not in known) + ((1, 1) not in known)
        if size > MAX_VALUES:
            raise ModelError(f"{where}: value universe of {size} values is too large")

    def matrix(self, rows, where: str) -> np.ndarray:
        """Table indices of a JSON matrix: a list of rows of decimal strings.

        Anything else, a string where a list belongs or a JSON float among
        the values, raises :class:`ModelError` naming the entry; a malformed
        or out-of-range spelling raises :class:`AlgebraError` naming it.  An
        empty or ragged matrix is a :class:`ModelError` naming ``where``.
        The rows before the first one that is not a list are read first,
        so an earlier bad entry is reported before that row.
        """
        _require(rows, list, f"{where} must be a list of rows")
        kinds = list(map(type, rows))
        stop = min(map(kinds.index, set(kinds) - {list}), default=len(rows))
        lengths = list(map(len, rows[:stop]))
        ids = self._ids(rows[:stop], where, lengths)
        if stop < len(rows):
            raise ModelError(f"{where}, row {stop} must be a list of values")
        self._check(where)
        try:
            return _matrix_ids(ids, lengths)
        except ValueError as exc:
            raise ModelError(f"{where}: {exc}") from None

    def vector(self, entries, where: str) -> np.ndarray:
        _require(entries, list, f"{where} must be a list of values")
        ids = self._ids([entries], where)
        self._check(where)
        if not len(ids):
            raise ModelError(f"{where}: fuzzy vector must be nonempty")
        return ids

    def containers(self, matrices: dict, vectors: dict) -> tuple[dict, dict]:
        """The index arrays of :meth:`matrix` and :meth:`vector` as fuzzy
        matrices and vectors over the table's universe."""
        universe = Universe(self.values)
        remap = universe.encode(self.values)
        return (
            {k: FuzzyMat._from_levels(self.algebra, remap[ids], universe)
             for k, ids in matrices.items()},
            {k: FuzzyVec._from_levels(self.algebra, remap[ids], universe)
             for k, ids in vectors.items()},
        )


def _entry(where: str, lengths: Optional[list], k: int) -> str:
    """The name of entry ``k`` of a flat list whose rows have the ``lengths``."""
    if lengths is None:
        return f"{where}, entry {k}"
    starts = list(accumulate(lengths, initial=0))
    row = bisect_right(starts, k) - 1  # the last row to begin at k: empty rows hold nothing
    return f"{where}, row {row}, entry {k - starts[row]}"


def parse_matrix(algebra: Algebra, rows, where: str) -> FuzzyMat:
    """A fuzzy matrix from a JSON matrix of decimal strings, read and
    checked as a model's relations are (see :meth:`_ValueTable.matrix`)."""
    table = _ValueTable(algebra)
    return table.containers({0: table.matrix(rows, where)}, {})[0][0]


def formula_constants(algebra: Algebra, formulas: Iterable[Formula]) -> set[Fraction]:
    """The truth constants occurring in ``formulas``, checked against ``algebra``."""
    found = set()

    def visit(node, *_):
        if isinstance(node, Const):
            found.add(algebra.check_value(node.value))

    _fold(formulas, visit)
    return found


def formula_levels(m1: KripkeModel, m2: KripkeModel, formulas: list, *extra: FuzzyMat):
    """The value universe of a model pair, the constants of ``formulas``
    and the entries of the ``extra`` matrices, with the level vectors of
    ``formulas`` on each model (one row per formula)."""
    universe = union(
        [m1.universe, m2.universe, *(mat.universe for mat in extra)],
        formula_constants(m1.algebra, formulas),
    )
    return universe, m1.eval_levels(formulas, universe), m2.eval_levels(formulas, universe)


def _render_json(node, indent: str = "") -> str:
    """JSON with leaf lists kept on one line, for readable model files."""
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = indent + "  "
        parts = [
            f'{inner}{json.dumps(key)}: {_render_json(value, inner)}'
            for key, value in node.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + indent + "}"
    if isinstance(node, list):
        try:  # a list of strings, such as a matrix row, in one pass
            return "[" + ", ".join(map(encode_basestring_ascii, node)) + "]"
        except TypeError:
            pass
        if all(not isinstance(item, (dict, list)) for item in node):
            return json.dumps(node)
        inner = indent + "  "
        parts = [f"{inner}{_render_json(item, inner)}" for item in node]
        return "[\n" + ",\n".join(parts) + "\n" + indent + "]"
    return json.dumps(node)


# read only after an identity check, since 1 == True and 0 == False
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dump_json(node, indent: str = "\n") -> str:
    """``json.dumps(node, indent=2)``, byte for byte, for a report: dicts
    with string keys, lists, tuples, strings, integers, booleans and None.
    Any other value, a float among them, raises :class:`TypeError`: every
    number a report holds is exact.  Unlike the encoder of :mod:`json`
    with an indent, it builds no closures, so it leaves no reference
    cycles behind."""
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = indent + "  "
        items = []
        for key, value in node.items():
            # the scalars of a report inline, anything else by a call
            if type(value) is str:
                text = encode_basestring_ascii(value)
            elif value is None or value is True or value is False:
                text = _CONSTANTS[value]
            elif type(value) is int:
                text = int.__repr__(value)
            else:
                text = _dump_json(value, inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        inner = indent + "  "
        try:  # a list of strings, such as a matrix row, in one pass
            items = list(map(encode_basestring_ascii, node))
        except TypeError:
            if set(map(type, node)) == {int}:  # a list of integers, also in one pass
                items = list(map(int.__repr__, node))
            else:
                items = [_dump_json(item, inner) for item in node]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if node is None or node is True or node is False:
        return _CONSTANTS[node]
    if isinstance(node, int):
        return int.__repr__(node)
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def check_comparable(m1: KripkeModel, m2: KripkeModel) -> None:
    """Models can be related only over one algebra, index set and vocabulary."""
    m1.algebra.check_same(m2.algebra)
    if m1.indices != m2.indices:
        raise ModelError(
            f"index sets differ: {list(m1.indices)} vs {list(m2.indices)}"
        )
    if set(m1.valuation) != set(m2.valuation):
        raise ModelError(
            f"variable sets differ: {sorted(m1.valuation)} vs {sorted(m2.valuation)}"
        )


class LevelPair(NamedTuple):
    """A comparable model pair in the levels of one universe."""

    universe: Universe
    relations: tuple[dict, dict]  # per model: the level matrices by index
    valuations: tuple[np.ndarray, np.ndarray]  # per model: one row per variable, in sorted order
    models: tuple[KripkeModel, KripkeModel]

    @property
    def constants(self) -> np.ndarray:
        """The constants a formula class over the pair takes, as levels:
        0, top and every level an entry holds, increasing.  Computed on
        each read, since only the class counts and the enumeration read
        them."""
        tables = (*self.relations[0].values(), *self.relations[1].values(), *self.valuations)
        zero_top = np.array([0, self.universe.top], self.universe.dtype)
        return np.unique(np.concatenate([zero_top, *(x.ravel() for x in tables)]))


def level_pair(m1: KripkeModel, m2: KripkeModel, *extra: Universe) -> LevelPair:
    """The pair in the levels of the union of its universes and ``extra``,
    once :func:`check_comparable` accepts it: the one place a pair's tables
    are encoded."""
    check_comparable(m1, m2)
    universe = union([m1.universe, m2.universe, *extra])
    (rels1, vals1), (rels2, vals2) = m1.encoded(universe), m2.encoded(universe)
    valuations = tuple(
        np.array([vals[p] for p in sorted(m1.valuation)], universe.dtype).reshape(-1, len(m.worlds))
        for m, vals in ((m1, vals1), (m2, vals2))
    )
    return LevelPair(universe, (rels1, rels2), valuations, (m1, m2))


@dataclass
class EquivalenceResult:
    """Outcome of a formula-set equivalence check between two models."""

    equivalent: bool
    pairing_left: dict  # world of m1 -> matching world of m2
    pairing_right: dict  # world of m2 -> matching world of m1
    unmatched: Optional[tuple[str, str]]  # (side, world) of the first failure

    def __bool__(self):
        return self.equivalent


def phi_equivalent(
    m1: KripkeModel, m2: KripkeModel, formulas: Iterable[Formula]
) -> EquivalenceResult:
    """Is every world value-matched by some world across ``formulas``?

    Two models are equivalent for a formula set when each world of either
    model has a counterpart in the other agreeing on the value of every
    formula in the set: where the meet of the formulas' biimplications is
    1, as :func:`.weak.psi_equivalent` reads it.  Returns each world's
    first counterpart, or the first world with none (left before right).
    """
    check_comparable(m1, m2)
    formulas = list(formulas)
    if not formulas:
        raise ModelError("equivalence over an empty formula set is undefined")
    universe, lv1, lv2 = formula_levels(m1, m2, formulas)
    agree = biimplication_fold(lv1.T, lv2.T, universe.top) == universe.top
    for side, worlds, matched in (("left", m1.worlds, agree.any(axis=1)),
                                  ("right", m2.worlds, agree.any(axis=0))):
        if not matched.all():
            return EquivalenceResult(False, {}, {}, (side, worlds[matched.argmin()]))
    return EquivalenceResult(
        True,
        dict(zip(m1.worlds, (m2.worlds[j] for j in agree.argmax(axis=1).tolist()))),
        dict(zip(m2.worlds, (m1.worlds[i] for i in agree.argmax(axis=0).tolist()))),
        None,
    )
