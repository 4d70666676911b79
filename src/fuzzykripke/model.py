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
evaluation never revalidates.  Evaluation runs on level arrays
(:mod:`.levels`) and decodes once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .algebra import Algebra, format_value, parse_value
from .fuzzrel import FuzzyMat, FuzzyVec
from .levels import Universe, modal, residuum
from .syntax import _NODE_FOR_OP, And, Const, Formula, Implies, Var

_OP_FOR_NODE = {node: op for op, node in _NODE_FOR_OP.items()}


class ModelError(ValueError):
    """A malformed model file or an ill-posed model operation."""


class KripkeModel:
    """An immutable fuzzy multimodal Kripke model."""

    __slots__ = ("algebra", "worlds", "indices", "relations", "valuation", "_index_of")

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
            if not isinstance(i, int):
                raise ModelError(f"relation index {i!r} is not an integer")
            algebra.check_same(mat.algebra)
            if mat.shape != (n, n):
                raise ModelError(
                    f"relation {i} has shape {mat.shape}, expected {(n, n)}"
                )
            rels[i] = mat
        vals = {}
        for name, vec in valuation.items():
            algebra.check_same(vec.algebra)
            if len(vec) != n:
                raise ModelError(
                    f"valuation of {name!r} has length {len(vec)}, expected {n}"
                )
            vals[name] = vec
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "indices", tuple(sorted(rels)))
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "valuation", vals)
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

    def entries(self) -> Iterator[Fraction]:
        """Every relation and valuation entry, repeats included: the values a
        level universe of the model must hold."""
        return chain(
            chain.from_iterable(row for rel in self.relations.values() for row in rel.rows),
            chain.from_iterable(vec.values for vec in self.valuation.values()),
        )

    def encoded(self, universe: Universe) -> tuple[dict, dict]:
        """The relations (by index) and the valuation (by variable) as level
        arrays of ``universe``, which must hold every value of the model."""
        return (
            {i: universe.encode(rel.rows) for i, rel in self.relations.items()},
            {p: universe.encode(vec.values) for p, vec in self.valuation.items()},
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

        def value(f: Formula) -> np.ndarray:
            if isinstance(f, Const):
                return universe.encode((f.value,) * n)
            if isinstance(f, Var):
                try:
                    return vals[f.name]
                except KeyError:
                    raise ModelError(f"undeclared variable {f.name!r}") from None
            if isinstance(f, And):
                return np.minimum(value(f.left), value(f.right))
            if isinstance(f, Implies):
                return residuum(value(f.left), value(f.right), top)
            try:
                rel = rels[f.index]
            except KeyError:
                raise ModelError(f"undeclared relation index {f.index}") from None
            return modal(_OP_FOR_NODE[type(f)], rel, value(f.child)[None, :], top)[0]

        rows = [value(f) for f in formulas]
        return np.array(rows, dtype=universe.dtype).reshape(len(rows), n)

    def eval_vec(self, f: Formula) -> FuzzyVec:
        """The value vector of ``f`` over all worlds."""
        universe = Universe(chain(self.entries(), formula_constants(self.algebra, [f])))
        return FuzzyVec(self.algebra, universe.decode(self.eval_levels([f], universe)[0]))

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
            _require(w, str, f"world name {json.dumps(w)} is not a string")
        declared = []
        for i in _require(data["indices"], list, "'indices' must be a list of integers"):
            if not isinstance(i, int) or isinstance(i, bool):
                raise ModelError(f"relation index {i!r} is not an integer")
            declared.append(i)
        raw_relations = _require(data["relations"], dict, "'relations' must be an object")
        if set(map(str, declared)) != set(map(str, raw_relations)):
            raise ModelError("declared indices and relation keys do not match")
        relations = {}
        for key, rows in raw_relations.items():
            relations[int(key)] = FuzzyMat(algebra, parse_rows(rows, f"relation {key}"))
        valuation = {}
        raw_valuation = _require(data["valuation"], dict, "'valuation' must be an object")
        for name, entries in raw_valuation.items():
            valuation[name] = FuzzyVec(
                algebra, _parse_entries(entries, f"valuation of {name!r}")
            )
        try:
            return cls(algebra, worlds, relations, valuation)
        except ValueError as exc:
            raise ModelError(str(exc)) from None

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra.spec(),
            "worlds": list(self.worlds),
            "indices": list(self.indices),
            "relations": {
                str(i): [[format_value(v) for v in row] for row in rel.rows]
                for i, rel in sorted(self.relations.items())
            },
            "valuation": {
                name: [format_value(v) for v in vec]
                for name, vec in sorted(self.valuation.items())
            },
        }

    @classmethod
    def from_json(cls, text: str) -> "KripkeModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_json(self) -> str:
        return _render_json(self.to_dict()) + "\n"

    @classmethod
    def load(cls, path) -> "KripkeModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _require(value, kind: type, message: str):
    if not isinstance(value, kind):
        raise ModelError(message)
    return value


def _parse_entries(entries, where: str) -> list[Fraction]:
    """Exact values of a JSON list of decimal strings (or integers)."""
    _require(entries, list, f"{where} must be a list of values")
    out = []
    for k, v in enumerate(entries):
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise ModelError(
                f"{where}, entry {k}: {json.dumps(v)} is not an exact value; "
                'write it as a string such as "0.3"'
            )
        out.append(parse_value(str(v)))
    return out


def parse_rows(rows, where: str) -> list[list[Fraction]]:
    """Exact values of a JSON matrix: a list of rows of decimal strings.

    Anything else, a string where a list belongs or a JSON float among the
    values, raises :class:`ModelError` naming the entry.
    """
    _require(rows, list, f"{where} must be a list of rows")
    return [_parse_entries(row, f"{where}, row {r}") for r, row in enumerate(rows)]


def formula_constants(algebra: Algebra, formulas: Iterable[Formula]) -> set[Fraction]:
    """The truth constants occurring in ``formulas``, checked against ``algebra``."""
    found = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            found.add(algebra.check_value(node.value))
        elif isinstance(node, (And, Implies)):
            stack += (node.left, node.right)
        elif not isinstance(node, Var):
            stack.append(node.child)
    return found


def formula_levels(m1: KripkeModel, m2: KripkeModel, formulas: list, *extra: FuzzyMat):
    """The value universe of a model pair, the constants of ``formulas``
    and the entries of the ``extra`` matrices, with the level vectors of
    ``formulas`` on each model (one row per formula)."""
    universe = Universe(chain(
        m1.entries(), m2.entries(), formula_constants(m1.algebra, formulas),
        *(chain.from_iterable(mat.rows) for mat in extra),
    ))
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
    formula in the set.  Returns the greedy pairing found, or the first
    world with no counterpart.
    """
    check_comparable(m1, m2)
    formulas = list(formulas)
    if not formulas:
        raise ModelError("equivalence over an empty formula set is undefined")
    _, lv1, lv2 = formula_levels(m1, m2, formulas)
    profile1, profile2 = lv1.T.tolist(), lv2.T.tolist()
    pairing_left = {}
    pairing_right = {}
    for i, w in enumerate(m1.worlds):
        match = next((j for j, p in enumerate(profile2) if p == profile1[i]), None)
        if match is None:
            return EquivalenceResult(False, {}, {}, ("left", w))
        pairing_left[w] = m2.worlds[match]
    for j, w in enumerate(m2.worlds):
        match = next((i for i, p in enumerate(profile1) if p == profile2[j]), None)
        if match is None:
            return EquivalenceResult(False, {}, {}, ("right", w))
        pairing_right[w] = m1.worlds[match]
    return EquivalenceResult(True, pairing_left, pairing_right, None)
