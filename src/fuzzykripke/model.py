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
document: each distinct spelling is parsed once and mapped straight to a
table index, every other entry costs a dict lookup, and each distinct
value is checked against the carrier once.  Every entry is still
type-checked, and the first bad entry in document order is the one
reported.  The table becomes the document's value universe, so every
relation and valuation is a level array over it (one take through a
table-to-level remap), and the model keeps that universe.  Evaluation
runs on those level arrays (:mod:`.levels`), and output formats each
universe value once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

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
        arrays of ``universe``, which must hold every value of the model."""
        return (
            {i: universe.recode(rel.universe, rel.levels) for i, rel in self.relations.items()},
            {p: universe.recode(vec.universe, vec.levels) for p, vec in self.valuation.items()},
        )

    def used_values(self) -> Iterator[Fraction]:
        """The values the relations and the valuation hold, each at least
        once: the tables may hold values no entry uses."""
        for x in (*self.relations.values(), *self.valuation.values()):
            values = x.universe.values
            yield from (values[i] for i in np.unique(x.levels).tolist())

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
        for w in worlds:
            if not isinstance(w, str):
                raise ModelError(f"world name {json.dumps(w)} is not a string")
        declared = []
        for i in _require(data["indices"], list, "'indices' must be a list of integers"):
            if not isinstance(i, int) or isinstance(i, bool):
                raise ModelError(f"relation index {i!r} is not an integer")
            declared.append(i)
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
        relations, valuation = table.containers(relations, valuation)
        try:
            return cls(algebra, worlds, relations, valuation)
        except ValueError as exc:
            raise ModelError(str(exc)) from None

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
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _read_json(text: str, source: str = ""):
    """``json.loads(text)``, with its errors as :class:`ModelError`; a
    ``source`` is named in the message."""
    where = f" in {source}" if source else ""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ModelError(f"invalid JSON{where}: {exc}") from None
    except RecursionError:
        raise ModelError(f"invalid JSON{where}: nested too deeply") from None


def _require(value, kind: type, message: str):
    if not isinstance(value, kind):
        raise ModelError(message)
    return value


class _ValueTable:
    """The distinct values of one document, with every spelling parsed once.

    ``index`` maps each spelling seen to the table index of its value;
    ``values`` lists the distinct values by table index, in order of first
    occurrence, and equal values spelled differently share an index.  A
    matrix or vector is read as table indices and checked against the
    carrier as a whole, before the next one is read, so errors come in
    the order of a per-entry loader.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.index: dict = {}
        self.values: list[Fraction] = []
        self._by_value: dict = {}
        self._checked = 0

    def entries(self, entries, where: str, row: Optional[int] = None) -> list[int]:
        """Table indices of a JSON list of decimal strings (or integers):
        the values of ``where``, or of its row ``row``.

        ``index`` holds spellings only, so a list of known strings is one
        lookup per entry; any other list takes the per-entry path, which
        rejects non-strings and parses (and indexes) each new spelling.
        """
        index = self.index
        if isinstance(entries, list):
            try:
                return list(map(index.__getitem__, entries))
            except (KeyError, TypeError):
                pass
        if row is not None:
            where = f"{where}, row {row}"
        _require(entries, list, f"{where} must be a list of values")
        out = []
        for k, v in enumerate(entries):
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ModelError(
                    f"{where}, entry {k}: {json.dumps(v)} is not an exact value; "
                    'write it as a string such as "0.3"'
                )
            text = str(v)
            i = index.get(text)
            if i is None:
                try:
                    value = parse_value(text)
                except AlgebraError as exc:
                    raise AlgebraError(f"{where}, entry {k}: {exc}") from None
                i = index[text] = self._by_value.setdefault(
                    value.as_integer_ratio(), len(self.values)
                )
                if i == len(self.values):
                    self.values.append(value)
            out.append(i)
        return out

    def _check(self, where: str) -> None:
        """Check the values first seen since the last call, in order, and
        that the table still fits in a :class:`Universe`."""
        for value in self.values[self._checked:]:
            self.algebra.check_value(value)
        self._checked = len(self.values)
        known = self._by_value  # every universe holds 0 and 1
        size = len(self.values) + ((0, 1) not in known) + ((1, 1) not in known)
        if size > MAX_VALUES:
            raise ModelError(f"{where}: value universe of {size} values is too large")

    def matrix(self, rows, where: str) -> np.ndarray:
        """Table indices of a JSON matrix: a list of rows of decimal strings.

        Anything else, a string where a list belongs or a JSON float among
        the values, raises :class:`ModelError` naming the entry; a malformed
        or out-of-range spelling raises :class:`AlgebraError` naming it.  An
        empty or ragged matrix is a :class:`ModelError` naming ``where``.
        """
        _require(rows, list, f"{where} must be a list of rows")
        ids = [self.entries(row, where, r) for r, row in enumerate(rows)]
        self._check(where)
        try:
            return _matrix_ids(ids)
        except ValueError as exc:
            raise ModelError(f"{where}: {exc}") from None

    def vector(self, entries, where: str) -> np.ndarray:
        ids = self.entries(entries, where)
        self._check(where)
        if not ids:
            raise ModelError(f"{where}: fuzzy vector must be nonempty")
        return np.array(ids, dtype=np.intp)

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
        if all(not isinstance(item, (dict, list)) for item in node):
            return json.dumps(node)
        inner = indent + "  "
        parts = [f"{inner}{_render_json(item, inner)}" for item in node]
        return "[\n" + ",\n".join(parts) + "\n" + indent + "]"
    return json.dumps(node)


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
