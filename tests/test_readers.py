"""Every input reader either returns or raises a SchemaError, whatever it
is given. The JSON inputs are mostly objects with the reader's own keys and
well-typed values, about half of them with one fault (a mistyped, missing,
repeated or foreign key), among blank, non-object and non-JSON lines. The
text inputs (a profile library, a FASTA file, a config file) are mostly
well-formed lines with a few faults. The trace of a session run on any
script that its reader accepts, or on any remote reply, is saved and read
back equal, and so is any annotations file or built store that loads."""

import dataclasses
import json
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MSCL_RESIDUES, http_backend, http_tool_call
from oracles import random_profile
from protagent.agent import load_trace, render_trace, run_tool_agent, save_trace
from protagent.backends import ScriptedBackend
from protagent.cli import main
from protagent.config import RunConfig, load_config_file
from protagent.domains import parse_hmm_library, write_hmm_library
from protagent.errors import SchemaError, parse_file, to_json
from protagent.evaluation import load_benchmark
from protagent.executor import build_standard_registry
from protagent.homology import (
    AnnotationRecord,
    load_annotations,
    load_built_store,
    load_reference_store,
    save_built_store,
)
from protagent.seq import Sequence

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
short_text = st.text(max_size=6)
text_list = st.lists(short_text, max_size=2)
accession = st.text("ABC123", min_size=1, max_size=3)
arguments = st.dictionaries(short_text, st.integers() | short_text, max_size=2)

FAULTS = ["none"] * 6 + ["mistype"] * 4 + ["drop", "repeat", "foreign"]
# A value of each JSON type, none of them empty, or any JSON value.
mistyped = st.sampled_from([None, True, 7, 2.5, "x", ["x"], {"x": 1}]) | json_value


@st.composite
def pairs(draw, fields: dict) -> list:
    """(key, value) pairs of one object: every field well typed, then in
    about half the objects one fault: a field mistyped or left out, a key
    repeated, or a foreign key added."""
    out = [(key, draw(good)) for key, good in fields.items()]
    fault, i = draw(st.sampled_from(FAULTS)), draw(st.integers(0, len(out) - 1))
    if fault == "mistype":
        out[i] = (out[i][0], draw(mistyped))
    elif fault == "drop":
        del out[i]
    elif fault in ("repeat", "foreign"):
        out.append((out[i][0] if fault == "repeat" else draw(st.text(max_size=3)), draw(json_value)))
    return draw(st.permutations(out))


def obj(fields: dict):
    return pairs(fields).map(dict)


@st.composite
def mostly(draw, common, rare):
    """Mostly `common`, else `rare`."""
    return draw(rare if draw(st.integers(0, 4)) == 4 else common)


def object_text(kv: list) -> str:
    """An object's JSON text with every pair kept, repeats included."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in kv) + "}"


def jsonl(fields: dict):
    """The text of a JSON-lines file: mostly object lines, else a blank,
    non-object or non-JSON line."""
    other = st.sampled_from(["", "  ", "{", "nope"]) | json_value.map(json.dumps)
    return st.lists(mostly(pairs(fields).map(object_text), other), max_size=4).map("\n".join)


def json_file(document):
    """The text of a JSON file: mostly `document`, else any JSON value."""
    return mostly(document, json_value).map(json.dumps)


ANNOTATION = {
    "accessions": st.lists(accession, min_size=1, max_size=2),
    "protein_name": short_text,
    "function": text_list,
    "catalytic_activity": text_list,
    "ec": text_list,
    "cofactor": text_list,
    "subcellular_location": text_list,
    "go": text_list,
}
CASE = {
    "case_id": mostly(st.text("abcdef", min_size=1, max_size=3), st.sampled_from(["..", "a/b", "a b"])),
    "task": short_text,
    "question": short_text,
    "sequence": st.sampled_from(["MLKV", "ml kv", "WWKV", "MLBV"]),
    "reference_answer": st.text(min_size=1, max_size=6),
}
TOOL_NAME = st.sampled_from(["seq_basic_props", "tmbed_predict", "pfam_hmmscan", "x"])
# Mostly an object, as a tool expects, else any JSON value: a model may send one.
call_arguments = mostly(arguments | st.just({"sequence_ref": "query"}), json_value)
SCRIPT_CALL = {"name": TOOL_NAME, "arguments": call_arguments}
SCRIPT_TURN = {
    "content": mostly(short_text, st.none()),
    "tool_calls": mostly(st.lists(obj(SCRIPT_CALL), max_size=2), st.none()),
}
STORE_ENTRY = {
    "accession": accession,
    "sequence": st.sampled_from(["MLKV", "ml kv", "WWKV", "MLBV"]),
    "annotation": obj(ANNOTATION),
}
WIRE_FUNCTION = {"name": TOOL_NAME, "arguments": mostly(call_arguments.map(json.dumps), st.none() | json_value)}
WIRE_CALL = {"id": short_text, "type": st.just("function"), "function": obj(WIRE_FUNCTION)}
REPLY = {
    "content": mostly(short_text | st.just("<answer>x</answer>"), st.none()),
    "tool_calls": mostly(st.lists(obj(WIRE_CALL), max_size=2), st.none()),
}
TRACE_CALL = {"call_id": short_text, "name": short_text, "arguments": arguments}
MESSAGE = {
    "role": st.sampled_from(["system", "user", "assistant", "tool"]),
    "content": mostly(short_text, st.none()),
    "tool_calls": mostly(st.lists(obj(TRACE_CALL), max_size=2), st.none()),
    "tool_call_id": mostly(st.text(min_size=1, max_size=4), st.none()),
}
TRACE = {
    "session_id": short_text,
    "created_at": short_text,
    "paradigm": st.sampled_from(["direct", "rag", "tool_agent"]),
    "messages": st.lists(obj(MESSAGE), max_size=3),
    "audit": st.lists(arguments, max_size=2),
}


HMM_LINES = write_hmm_library([random_profile(random.Random(5), "P", 2)]).splitlines()
# A token of a profile line: a number, "*", a word, or any short text.
hmm_token = st.sampled_from(["*", "0", "-0.5", "-1000", "1e400", "nan", "-inf", "x", "LENG", "//"]) | short_text


@st.composite
def hmm_library(draw):
    """The text of a library of one or two valid two-node profiles, with up
    to three faults: a line dropped or repeated, or one of its tokens
    replaced."""
    lines = HMM_LINES * draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["drop", "repeat", "token"]))
        if fault == "drop":
            del lines[i]
        elif fault == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(hmm_token)
            lines[i] = "  ".join(tokens)
    return "\n".join(lines) + "\n"


# FASTA lines: mostly a header naming an annotated accession or residues,
# else an empty header, a blank line or a bad residue.
fasta = st.lists(
    mostly(accession.map(">{}".format) | st.sampled_from(["MLKV", "ml kv"]),
           st.sampled_from([">", "> A1", "", "  ", "MLBV", "M1"])),
    max_size=6,
).map("\n".join)
CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
config_value = st.integers().map(str) | st.floats().map(repr) | short_text
config_line = mostly(
    st.tuples(st.sampled_from(CONFIG_KEYS) | short_text, config_value).map(" = ".join),
    st.sampled_from(["", "# comment", "junk", "=", "a = b = c"]) | short_text,
)

QUERY = Sequence(id="query", residues=MSCL_RESIDUES)
TOOLS = build_standard_registry()  # no store or library: those tools answer with error envelopes


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("readers") / "input")


def assert_round_trips(trace, path: str) -> None:
    """save_trace then load_trace gives the trace back; compared as JSON text,
    so that a NaN argument counts as equal to itself."""
    save_trace(trace, path)
    assert json.dumps(to_json(load_trace(path))) == json.dumps(to_json(trace))


def test_to_json_converts_dataclasses_and_tuples_only():
    @dataclasses.dataclass(frozen=True)
    class Record:
        name: str
        parts: tuple
        extra: dict

    record = Record(name="r", parts=(1, ("x", None)), extra={"kept": (1, 2)})
    out = to_json((record, 2.5))
    assert out == [{"name": "r", "parts": [1, ["x", None]], "extra": {"kept": (1, 2)}}, 2.5]
    assert list(out[0]) == ["name", "parts", "extra"]  # declaration order
    assert out[0]["extra"] is record.extra  # a dict is JSON already: not walked or copied


def load(reader, path: str, text: str):
    """What `reader` returns for a file holding `text`, or None for a
    SchemaError; any other exception fails the test."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        return reader(path)
    except SchemaError:
        return None


@PROPERTY
@given(jsonl(SCRIPT_TURN))
def test_from_jsonl_returns_or_raises_typed(input_path, text):
    load(ScriptedBackend.from_jsonl, input_path, text)


@PROPERTY
@given(jsonl(SCRIPT_TURN))
def test_accepted_script_traces_round_trip(input_path, text):
    backend = load(ScriptedBackend.from_jsonl, input_path, text)
    if backend is not None:
        assert_round_trips(run_tool_agent(backend, TOOLS, "Q?", QUERY).trace, input_path)


@PROPERTY
@given(mostly(obj(REPLY), json_value))
def test_reply_traces_round_trip(input_path, message):
    # A reply the backend refuses ends the session with backend_error; that
    # trace must read back too.
    with pytest.MonkeyPatch.context() as mp:
        backend = http_backend(mp, message)
        result = run_tool_agent(backend, TOOLS, "Q?", QUERY, max_turns=2)
    assert_round_trips(result.trace, input_path)


@PROPERTY
@given(jsonl(CASE))
def test_load_benchmark_returns_or_raises_typed(input_path, text):
    load(load_benchmark, input_path, text)


@PROPERTY
@given(jsonl(ANNOTATION | {"accession": accession}))
def test_load_annotations_keeps_every_given_field(input_path, text):
    records = load(load_annotations, input_path, text)
    if records is None:
        return
    for line in filter(str.strip, text.split("\n")):
        given_fields = json.loads(line)
        payload = to_json(records[given_fields.get("accession", given_fields["accessions"][0])])
        assert {k: given_fields[k] for k in payload if k in given_fields} == {
            k: v for k, v in payload.items() if k in given_fields
        }


@PROPERTY
@given(jsonl(ANNOTATION | {"accession": accession}))
def test_accepted_annotations_write_back_equal(input_path, text):
    records = load(load_annotations, input_path, text)
    for record in (records or {}).values():
        assert AnnotationRecord.from_json(json.loads(json.dumps(to_json(record)))) == record


@PROPERTY
@given(json_file(st.fixed_dictionaries({"entries": st.lists(obj(STORE_ENTRY), max_size=3)})))
def test_load_built_store_returns_or_raises_typed(input_path, text):
    load(load_built_store, input_path, text)


@PROPERTY
@given(json_file(st.fixed_dictionaries({"entries": st.lists(obj(STORE_ENTRY), max_size=3)})))
def test_accepted_built_stores_write_back_equal(input_path, text):
    entries = load(load_built_store, input_path, text)
    if entries is not None:
        save_built_store(entries, input_path)
        assert load_built_store(input_path) == entries


@PROPERTY
@given(hmm_library())
def test_parse_hmm_library_returns_or_raises_typed(input_path, text):
    library = load(lambda path: parse_file(path, parse_hmm_library), input_path, text)
    if library is not None:
        assert write_hmm_library(library) == write_hmm_library(parse_hmm_library(write_hmm_library(library)))


@PROPERTY
@given(fasta, jsonl(ANNOTATION | {"accession": accession}))
def test_load_reference_store_returns_or_raises_typed(input_path, fasta_text, annotations):
    annotations_path = input_path + ".jsonl"
    with open(annotations_path, "w", encoding="utf-8") as fh:
        fh.write(annotations)
    load(lambda path: load_reference_store(path, annotations_path), input_path, fasta_text)


@PROPERTY
@given(st.lists(config_line, max_size=5).map("\n".join))
def test_load_config_file_returns_or_raises_typed(input_path, text):
    values = load(load_config_file, input_path, text)
    if values is not None:
        assert set(values) <= set(CONFIG_KEYS)


@PROPERTY
@given(json_file(obj(TRACE)))
def test_load_trace_renders_or_raises_typed(input_path, text):
    trace = load(load_trace, input_path, text)
    if trace is not None:
        assert isinstance(render_trace(trace), str)



@pytest.mark.parametrize("reader", [load_benchmark, load_annotations, load_built_store, load_trace])
def test_json_nested_too_deep_is_schema_error(tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(SchemaError, match="recursion"):
        reader(str(path))


@pytest.mark.parametrize("reader", [ScriptedBackend.from_jsonl, load_benchmark, load_annotations, load_built_store,
                                    load_trace])
@pytest.mark.parametrize(
    "value",
    [{"question": "What \ud800?"}, {"\udc00": 1}, {"a": [["ok", "\udfff"]]}],
    ids=["in-a-value", "in-a-key", "nested"],
)
def test_lone_surrogate_is_schema_error(tmp_path, reader, value):
    # json.dumps writes the surrogate as its escape, which decodes back to it.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value) + "\n")
    with pytest.raises(SchemaError, match="lone surrogate"):
        reader(str(path))


def test_surrogate_pair_and_escaped_backslash_still_load(tmp_path):
    path = tmp_path / "annotations.jsonl"
    names = ["smile 😀", "\\ud800 is text"]  # an escaped pair; a backslash, then text
    path.write_text("".join(json.dumps({"accessions": [f"A{i}"], "protein_name": n}) + "\n"
                            for i, n in enumerate(names)))
    assert "\\ud83d\\ude00" in path.read_text() and "\\\\ud800" in path.read_text()
    records = load_annotations(str(path))
    assert [records[f"A{i}"].protein_name for i in range(2)] == ["smile \U0001F600", "\\ud800 is text"]


@pytest.mark.parametrize("reader, text", [
    (load_built_store, '{"entries": [], "entries": []}'),
    (load_trace, '{"session_id": "s", "created_at": "t", "paradigm": "direct", "messages": [],'
                 ' "audit": [{"call": 1, "call": 2}]}'),
], ids=["built-store", "trace"])
def test_whole_file_key_repeated_is_schema_error(tmp_path, reader, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match="duplicate key"):
        reader(str(path))


NOT_OBJECTS = pytest.mark.parametrize("arguments", [[1], "x", 5], ids=["list", "string", "number"])


def assert_shown(path: str) -> None:
    result = CliRunner().invoke(main, ["trace", "show", path])
    assert result.exit_code == 0, result.output
    assert "<tool_call>" in result.output and "invalid_arguments" in result.output


@NOT_OBJECTS
def test_script_arguments_that_are_not_an_object_round_trip(tmp_path, arguments):
    script = tmp_path / "script.jsonl"
    script.write_text(json.dumps({"content": None, "tool_calls": [{"name": "seq_basic_props",
                                                                     "arguments": arguments}]}) + "\n")
    result = run_tool_agent(ScriptedBackend.from_jsonl(str(script)), TOOLS, "Q?", QUERY)
    assert_round_trips(result.trace, str(tmp_path / "trace.json"))
    assert_shown(str(tmp_path / "trace.json"))


@NOT_OBJECTS
def test_reply_arguments_that_are_not_an_object_round_trip(monkeypatch, tmp_path, arguments):
    backend = http_backend(monkeypatch, {"content": None, "tool_calls": [http_tool_call(json.dumps(arguments))]})
    result = run_tool_agent(backend, TOOLS, "Q?", QUERY, max_turns=1)
    assert_round_trips(result.trace, str(tmp_path / "trace.json"))
    assert_shown(str(tmp_path / "trace.json"))
