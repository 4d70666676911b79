"""Fuzzing the input boundary: model documents, formulas, corpora, the CLI.

The library may refuse any input, but only with its own errors
(``ModelError``, ``AlgebraError``, ``ParseError``), and every command line
run ends with exit status 0, 1 or 2, never with a traceback.  The
documents are drawn near the valid ones, so that most of them get past the
first check: a few worlds, values mostly in (and sometimes just outside)
the value grammar, shapes sometimes off by one, and now and then a key
that is missing or holds the wrong kind of JSON.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzykripke.algebra import AlgebraError
from fuzzykripke.cli import main
from fuzzykripke.model import KripkeModel, ModelError, _render_json
from fuzzykripke.syntax import ParseError, parse, parse_corpus

LIBRARY_ERRORS = (ModelError, AlgebraError, ParseError)

FUZZ = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SPELLINGS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "0.25", "1/3", "2/3", "0.3", " 0.7 ", "0.50"]),
    st.sampled_from(["1.5", "3/2", "1/0", "-0", "+1", "1e-5", ".5", "5.", "1_0", "x", ""]),
    st.from_regex(r"\d{1,2}(\.\d{1,2}|/\d{1,2})?", fullmatch=True),
    st.text(max_size=5),
)

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.text(max_size=3), sub, max_size=3),
    max_leaves=6,
)

# values of the godel and chain:3 carriers, as strings and JSON integers
VALID = st.sampled_from(["0", "1", "0.5", "1/2", " 0.50 ", 0, 1])
# mostly value spellings; sometimes a JSON integer or any JSON at all
ENTRIES = st.one_of(VALID, SPELLINGS, SPELLINGS, st.integers(-2, 3), JSON_JUNK)


@st.composite
def documents(draw, worlds=None):
    """A model document of ``worlds`` worlds (0-3 if None).  Half of them
    are well formed, given a world; in the others the entries, the shapes
    and the algebra may be off, and one in five misses or spoils a key."""
    clean = draw(st.booleans())
    n = draw(st.integers(int(clean), 3)) if worlds is None else worlds
    size = st.just(n) if clean or draw(st.booleans()) else st.integers(max(0, n - 1), n + 1)
    entries = VALID if clean else ENTRIES

    def vector():
        length = draw(size)
        return draw(st.lists(entries, min_size=length, max_size=length))

    indices = draw(st.lists(st.integers(0, 3), max_size=2, unique=True))
    algebras = ["godel", "chain:3"] if clean else ["godel", "boolean", "chain:1", "chain:x", "x"]
    doc = {
        "algebra": draw(st.sampled_from(algebras)),
        "worlds": [f"w{k}" for k in range(n)],
        "indices": indices,
        "relations": {str(i): [vector() for _ in range(draw(size))] for i in indices},
        "valuation": {p: vector() for p in draw(st.lists(st.sampled_from("pq"), unique=True))},
    }
    if not clean and draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_JUNK)
    return doc


@FUZZ
@given(documents())
def test_the_loader_raises_only_library_errors(doc):
    for load in (KripkeModel.from_dict, lambda d: KripkeModel.from_json(json.dumps(d))):
        try:
            model = load(doc)
        except LIBRARY_ERRORS:
            continue
        assert KripkeModel.from_json(model.to_json()) == model


@FUZZ
@given(st.one_of(st.text(max_size=30), st.text(alphabet='{}[]",:0123456789.-e ', max_size=30)))
def test_json_text_raises_only_library_errors(text):
    try:
        KripkeModel.from_json(text)
    except LIBRARY_ERRORS:
        pass


FORMULA_TEXT = st.text(alphabet="pqr01./25<>[]-_&|!() #\nxe", max_size=40)


@FUZZ
@given(FORMULA_TEXT)
def test_parsing_raises_only_parse_errors(text):
    for read in (parse, parse_corpus):
        try:
            read(text)
        except ParseError:
            pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            return exc.code


COMMANDS = (
    ("eval", "{a}", "{formula}"),
    ("eval", "{a}", "{formula}", "--world", "w0", "--format", "json"),
    ("bisim", "{a}", "{b}", "--type", "rb"),
    ("bisim", "{a}", "{b}", "--type", "fs", "--format", "json"),
    ("weak", "{a}", "{b}", "--corpus", "{corpus}"),
    ("weak", "{a}", "{b}", "--fragment", "plus", "--depth", "1", "--budget", "300"),
    ("hm", "{a}", "{b}", "--fragment", "full", "--depth-cap", "1", "--budget", "300"),
    ("check", "{a}", "{b}", "--type", "fb", "--relation", "{relation}"),
    ("reverse", "{a}"),
)


@FUZZ
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(documents(n), documents(n))),
    FORMULA_TEXT,
    st.one_of(st.lists(st.lists(ENTRIES, max_size=3), max_size=3), JSON_JUNK),
    st.sampled_from(COMMANDS),
)
def test_every_cli_run_exits_0_1_or_2(workdir, pair, formula, relation, command):
    files = {
        "a": json.dumps(pair[0]),
        "b": json.dumps(pair[1]),
        "corpus": formula,
        "relation": json.dumps({"relation": relation}),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = workdir / name
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(formula=formula, **paths) for arg in command]
    assert run(argv) in (0, 1, 2)


def ref_render_json(node, indent=""):
    """The model writer as it tested each list for a leaf entry by entry."""
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = indent + "  "
        parts = [f"{inner}{json.dumps(key)}: {ref_render_json(value, inner)}"
                 for key, value in node.items()]
        return "{\n" + ",\n".join(parts) + "\n" + indent + "}"
    if isinstance(node, list):
        if all(not isinstance(item, (dict, list)) for item in node):
            return json.dumps(node)
        inner = indent + "  "
        parts = [f"{inner}{ref_render_json(item, inner)}" for item in node]
        return "[\n" + ",\n".join(parts) + "\n" + indent + "]"
    return json.dumps(node)


@FUZZ
@given(documents())
def test_the_model_writer_equals_the_entry_by_entry_writer(doc):
    assert _render_json(doc) == ref_render_json(doc)
    try:
        model = KripkeModel.from_dict(doc)
    except LIBRARY_ERRORS:
        return
    assert model.to_json() == ref_render_json(model.to_dict()) + "\n"


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [[], ["0"]], {"indices": []}, {"indices": [0, 2, 3]}, [0, "1"], ["1", 0],
    ["1", None, True], [["0.5", "1"], ["0", {"p": []}]], ["é", "w’", "\U0001f600", "\"\\"],
    {"worlds": ["ü", "ω"], "indices": [], "relations": {}, "valuation": {}},
])
def test_the_model_writer_equals_the_entry_by_entry_writer_at_the_edges(doc):
    assert _render_json(doc) == ref_render_json(doc)


def test_a_model_with_non_ascii_worlds_and_no_valuation_is_written_as_before():
    doc = {"algebra": "godel", "worlds": ["ü", "w’"], "indices": [0],
           "relations": {"0": [["0.5", "1"], ["0", "1/3"]]}, "valuation": {}}
    model = KripkeModel.from_dict(doc)
    assert model.to_json() == ref_render_json(model.to_dict()) + "\n"
    assert KripkeModel.from_json(model.to_json()) == model
