import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MSCL_RESIDUES, StubReply, data_path, http_backend, http_tool_call
from protagent import agent, backends
from protagent.agent import (
    RAG_TOOL_ORDER,
    extract_answer,
    load_trace,
    render_payload,
    render_trace,
    run_direct,
    run_rag,
    run_tool_agent,
    save_trace,
    trace_from_json,
)
from protagent.backends import ChatMessage, DecodingParams, ScriptedBackend
from protagent.errors import BackendError, SchemaError, to_json
from protagent.executor import SessionLimits, ToolCall, ToolRegistry, build_standard_registry
from protagent.seq import Sequence


def fixed_now():
    return "2026-01-01T00:00:00+00:00"


def fixed_timer():
    counter = itertools.count()
    return lambda: next(counter) * 0.001


def scripted(*turns) -> ScriptedBackend:
    return ScriptedBackend(turns=list(turns))


def assistant(content=None, tool_calls=None) -> ChatMessage:
    return ChatMessage(role="assistant", content=content, tool_calls=tool_calls)


# --- answer extraction ------------------------------------------------------


def test_extract_answer_none_cases():
    assert extract_answer(None) is None
    assert extract_answer("") is None
    assert extract_answer("no tags here") is None
    assert extract_answer("<answer>unclosed") is None
    assert extract_answer("stray </answer> close") is None


def test_extract_answer_takes_last_well_formed():
    text = "<answer>first</answer> middle <answer> second </answer>"
    assert extract_answer(text) == "second"


def test_extract_answer_ignores_trailing_malformed():
    text = "<answer>good</answer> and then <answer>unclosed"
    assert extract_answer(text) == "good"


# --- trace plumbing ---------------------------------------------------------


def test_trace_round_trip(tmp_path, registry, mscl_seq):
    backend = scripted(assistant(content="<answer>ok</answer>"))
    result = run_direct(backend, "What is it?", mscl_seq, now=fixed_now)
    path = tmp_path / "trace.json"
    save_trace(result.trace, str(path))
    assert load_trace(str(path)) == result.trace


def trace_with(*messages) -> dict:
    return {"session_id": "s", "created_at": "t", "paradigm": "direct", "messages": list(messages)}


def message(**fields) -> dict:
    return {"role": "assistant", "content": "x", "tool_calls": None, "tool_call_id": None, **fields}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="invalid-json"),
        pytest.param("[1]", id="list"),
        pytest.param("null", id="null"),
        pytest.param({"session_id": "s"}, id="no-messages"),
        pytest.param({**trace_with(), "messages": "ab"}, id="messages-string"),
        pytest.param(trace_with(5), id="message-number"),
        pytest.param(trace_with({"content": "x"}), id="message-without-role"),
        pytest.param(trace_with({"role": "assistant", "content": None}), id="assistant-without-content"),
        pytest.param(trace_with({"role": "assistant", "tool_calls": [{"name": "x"}]}), id="tool-call-without-id"),
        pytest.param({**trace_with(), "audit": "abc"}, id="audit-string"),
        pytest.param({**trace_with(), "audit": [1]}, id="audit-entry-number"),
        pytest.param({**trace_with(), "session_id": 5}, id="session-id-number"),
        pytest.param({**trace_with(), "created_at": None}, id="created-at-null"),
        pytest.param({**trace_with(), "paradigm": ["direct"]}, id="paradigm-list"),
        pytest.param(trace_with(message(role=7)), id="role-number"),
        pytest.param(trace_with(message(role="robot")), id="role-unknown"),
        pytest.param(trace_with(message(content=5)), id="content-number"),
        pytest.param(trace_with(message(content=["x"])), id="content-list"),
        pytest.param(trace_with(message(role="tool", tool_call_id=5)), id="tool-call-id-number"),
        pytest.param(trace_with(message(tool_calls="seq_basic_props")), id="tool-calls-string"),
        pytest.param(trace_with(message(tool_calls=[5])), id="tool-call-number"),
        pytest.param(trace_with(message(tool_calls=[{"call_id": 1, "name": "x", "arguments": {}}])),
                     id="call-id-number"),
        pytest.param(trace_with(message(tool_calls=[{"call_id": "c", "name": None, "arguments": {}}])),
                     id="name-null"),
    ],
)
def test_load_trace_raises_only_schema_errors(tmp_path, text):
    path = tmp_path / "trace.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    with pytest.raises(SchemaError) as info:
        load_trace(str(path))
    # read_json's refusal or load_trace's, naming the file once either way
    message = str(info.value)
    assert message.startswith(f"{path} is not") and message.count(str(path)) == 1


@pytest.mark.parametrize(
    "document, named",
    [
        pytest.param([1], "a trace must be a JSON object, got list", id="list"),
        pytest.param({**trace_with(), "messages": "ab"}, "messages must be a list of objects", id="messages-string"),
        pytest.param(trace_with(5), "messages must be a list of objects", id="message-number"),
    ],
)
def test_load_trace_names_the_mistyped_field(tmp_path, document, named):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SchemaError) as info:
        load_trace(str(path))
    assert str(info.value) == f"{path} is not a saved trace: TypeError: {named}"


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"role": "robot", "content": "x"}, id="role-unknown"),
        pytest.param({"role": "user", "content": 5}, id="content-number"),
        pytest.param({"role": "tool", "content": "x", "tool_call_id": 5}, id="tool-call-id-number"),
        pytest.param({"role": "tool", "content": "x"}, id="tool-without-id"),
        pytest.param({"role": "assistant"}, id="assistant-empty"),
        pytest.param({"role": "assistant", "tool_calls": ()}, id="tool-calls-empty"),
        pytest.param({"role": "assistant", "tool_calls": [ToolCall("c", "x", {})]}, id="tool-calls-list"),
        pytest.param({"role": "assistant", "tool_calls": ({"call_id": "c"},)}, id="tool-call-dict"),
    ],
)
def test_chat_message_refuses_what_breaks_its_rules(fields):
    with pytest.raises(SchemaError):
        ChatMessage(**fields)


def test_render_trace_layout():
    trace = trace_from_json(
        {
            "session_id": "s",
            "created_at": "t",
            "paradigm": "tool_agent",
            "messages": [
                {"role": "user", "content": "question"},
                {
                    "role": "assistant",
                    "content": "thinking",
                    "tool_calls": [{"call_id": "c1", "name": "seq_basic_props", "arguments": {"sequence_ref": "query"}}],
                },
                {"role": "tool", "content": "{\"length\": 5}", "tool_call_id": "c1"},
            ],
            "audit": [],
        }
    )
    text = render_trace(trace)
    assert "<|im_start|>user\nquestion\n<|im_end|>" in text
    assert "<tool_call>" in text
    assert '"name": "seq_basic_props"' in text
    assert "<tool_response>\n{\"length\": 5}\n</tool_response>" in text
    assert text.count("<|im_end|>") == 3


def test_render_payload_stable():
    assert render_payload({"a": 1, "b": "ü"}) == '{"a": 1, "b": "ü"}'


# --- direct paradigm --------------------------------------------------------


def test_run_direct_answer_found(mscl_seq):
    backend = scripted(assistant(content="reasoning <answer>a channel</answer>"))
    result = run_direct(backend, "Q?", mscl_seq, now=fixed_now)
    assert result.stop_reason == "answer_found"
    assert result.final_answer == "a channel"
    assert result.tool_calls_made == 0
    assert result.trace.audit == ()
    assert [m.role for m in result.trace.messages] == ["system", "user", "assistant"]
    assert "```" + mscl_seq.residues + "```" in result.trace.messages[1].content


def test_run_direct_no_answer(mscl_seq):
    backend = scripted(assistant(content="rambling"))
    result = run_direct(backend, "Q?", mscl_seq)
    assert result.stop_reason == "max_turns"
    assert result.final_answer is None


def test_run_direct_backend_error(mscl_seq):
    result = run_direct(scripted(), "Q?", mscl_seq)
    assert result.stop_reason == "backend_error"


def test_run_direct_offers_no_tools(mscl_seq):
    seen = []

    class Probe:
        def complete(self, messages, tools, decoding):
            seen.append(tools)
            return assistant(content="<answer>x</answer>")

    run_direct(Probe(), "Q?", mscl_seq)
    assert seen == [None]


def test_run_direct_refuses_model_tool_calls(mscl_seq):
    call = ToolCall(call_id="x1", name="seq_basic_props", arguments={"sequence_ref": "query"})
    result = run_direct(scripted(assistant(content="<answer>a channel</answer>", tool_calls=(call,))), "Q?", mscl_seq)
    assert [m.role for m in result.trace.messages] == ["system", "user", "assistant", "tool"]
    refusal = result.trace.messages[-1]
    assert refusal.tool_call_id == "x1"
    assert json.loads(refusal.content)["error_kind"] == "budget_exhausted"
    assert result.trace.audit == ()  # never executed
    assert (result.stop_reason, result.final_answer) == ("answer_found", "a channel")  # the answer stands


# --- rag paradigm -----------------------------------------------------------


def test_run_rag_prepends_four_tool_blocks(registry, mscl_seq):
    backend = scripted(assistant(content="<answer>membrane channel</answer>"))
    result = run_rag(backend, registry, "Q?", mscl_seq, now=fixed_now, timer=fixed_timer())
    user = result.trace.messages[1]
    assert user.role == "user"
    positions = [user.content.find(f"[TOOL RESULT: {name}]") for name in RAG_TOOL_ORDER]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    assert result.stop_reason == "answer_found"
    assert result.tool_calls_made == 0
    assert len(result.trace.audit) == 4
    assert [a["call"]["name"] for a in result.trace.audit] == list(RAG_TOOL_ORDER)


def test_run_rag_refuses_model_tool_calls(registry, mscl_seq):
    turn = assistant(
        content=None,
        tool_calls=(ToolCall(call_id="x1", name="seq_basic_props", arguments={"sequence_ref": "query"}),),
    )
    result = run_rag(scripted(turn), registry, "Q?", mscl_seq)
    assert len(result.trace.audit) == 4  # the refused call is never executed
    refusal = result.trace.messages[-1]
    assert refusal.role == "tool"
    assert json.loads(refusal.content)["error_kind"] == "budget_exhausted"
    assert result.final_answer is None


def test_run_rag_degrades_on_tool_failure(mscl_seq):
    from protagent.executor import build_standard_registry

    bare = build_standard_registry()  # homology and domain stores missing
    backend = scripted(assistant(content="<answer>best effort</answer>"))
    result = run_rag(backend, bare, "Q?", mscl_seq)
    assert result.stop_reason == "answer_found"
    user = result.trace.messages[1].content
    assert "error_kind" in user  # failures serialized into the context block


# --- tool-agent paradigm ----------------------------------------------------


def test_run_tool_agent_replay(registry, mscl_seq):
    backend = ScriptedBackend.from_jsonl(data_path("replay.jsonl"))
    result = run_tool_agent(backend, registry, "Q?", mscl_seq, now=fixed_now, timer=fixed_timer())
    assert result.stop_reason == "answer_found"
    assert result.tool_calls_made == 4
    assert result.final_answer.startswith(
        "This protein is a **large-conductance mechanosensitive channel"
    )
    roles = [m.role for m in result.trace.messages]
    assert roles == ["user"] + ["assistant", "tool"] * 4 + ["assistant"]
    assert [a["call"]["name"] for a in result.trace.audit] == [
        "seq_basic_props",
        "mmseqs2_besthit_uniprot",
        "tmbed_predict",
        "pfam_hmmscan",
    ]
    assert all(a["response"]["ok"] for a in result.trace.audit)


def test_tool_calls_win_over_answer_span(registry, mscl_seq):
    turns = [
        assistant(
            content="premature <answer>guess</answer>",
            tool_calls=(ToolCall(call_id="c0", name="seq_basic_props", arguments={"sequence_ref": "query"}),),
        ),
        assistant(content="<answer>informed</answer>"),
    ]
    result = run_tool_agent(scripted(*turns), registry, "Q?", mscl_seq)
    assert result.final_answer == "informed"
    assert result.tool_calls_made == 1


def test_budget_exhaustion_stops_session(registry, mscl_seq):
    call = ToolCall(call_id="c", name="seq_basic_props", arguments={"sequence_ref": "query"})
    turns = [assistant(tool_calls=(call,)) for _ in range(4)]
    result = run_tool_agent(
        scripted(*turns), registry, "Q?", mscl_seq, limits=SessionLimits(max_calls=2)
    )
    assert result.stop_reason == "budget_exhausted"
    assert result.tool_calls_made == 2


def test_max_turns_ceiling(registry, mscl_seq):
    call = ToolCall(call_id="c", name="seq_basic_props", arguments={"sequence_ref": "query"})
    turns = [assistant(tool_calls=(call,)) for _ in range(5)]
    result = run_tool_agent(scripted(*turns), registry, "Q?", mscl_seq, max_turns=3)
    assert result.stop_reason == "max_turns"
    assert result.final_answer is None


def test_backend_error_mid_session(registry, mscl_seq):
    call = ToolCall(call_id="c", name="seq_basic_props", arguments={"sequence_ref": "query"})
    result = run_tool_agent(scripted(assistant(tool_calls=(call,))), registry, "Q?", mscl_seq)
    assert result.stop_reason == "backend_error"
    assert result.tool_calls_made == 1  # work before the failure is preserved


def test_scripted_backend_malformed_line_names_line(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"content": "a"}\n\n{"content": \n')
    with pytest.raises(SchemaError) as exc:
        ScriptedBackend.from_jsonl(str(path))
    assert "line 3" in str(exc.value)
    for line in ('"just a string"', '{"tool_calls": [{"arguments": {}}]}'):
        path.write_text(line + "\n")
        with pytest.raises(SchemaError, match="line 1"):
            ScriptedBackend.from_jsonl(str(path))


def test_scripted_backend_rejects_non_list_tool_calls(tmp_path):
    path = tmp_path / "script.jsonl"
    for tool_calls in (1, True, False, 0, {}, "seq_basic_props", {"name": "seq_basic_props"}):
        path.write_text('{"content": "a"}\n' + json.dumps({"content": "b", "tool_calls": tool_calls}) + "\n")
        with pytest.raises(SchemaError, match="line 2: tool_calls must be a list or null"):
            ScriptedBackend.from_jsonl(str(path))
    path.write_text('{"content": "a", "tool_calls": null}\n')
    assert ScriptedBackend.from_jsonl(str(path)).turns[0].tool_calls is None


def test_scripted_backend_rejects_non_string_content(tmp_path):
    path = tmp_path / "script.jsonl"
    for content in (5, ["part"], {"text": "a"}):
        path.write_text('{"content": "a"}\n' + json.dumps({"content": content}) + "\n")
        with pytest.raises(SchemaError, match="line 2: content must be a string or null"):
            ScriptedBackend.from_jsonl(str(path))
    path.write_text('{"content": null, "tool_calls": [{"name": "seq_basic_props"}]}\n')
    assert ScriptedBackend.from_jsonl(str(path)).turns[0].content is None


def test_scripted_backend_rejects_null_content_without_tool_calls(tmp_path):
    path = tmp_path / "script.jsonl"
    for line in ('{"content": null}', "{}", '{"content": null, "tool_calls": []}'):
        path.write_text('{"content": "a"}\n' + line + "\n")
        with pytest.raises(SchemaError, match="line 2: null content needs tool calls"):
            ScriptedBackend.from_jsonl(str(path))


def test_scripted_call_ids_follow_file_lines(tmp_path):
    path = tmp_path / "script.jsonl"
    call = {"name": "seq_basic_props", "arguments": {"sequence_ref": "query"}}
    path.write_text(json.dumps({"tool_calls": [call, call]}) + "\n\n" + json.dumps({"tool_calls": [call]}) + "\n")
    backend = ScriptedBackend.from_jsonl(str(path))
    assert [[c.call_id for c in t.tool_calls] for t in backend.turns] == [["call_0_0", "call_0_1"], ["call_2_0"]]
    path.write_text('{"content": "done", "tool_calls": null}\n')  # the shape chat APIs return
    assert ScriptedBackend.from_jsonl(str(path)).turns[0].tool_calls is None


def test_scripted_backend_exhaustion_raises():
    backend = scripted()
    with pytest.raises(BackendError):
        backend.complete([], None, None)


def test_tool_agent_passes_schemas(registry, mscl_seq):
    seen = []

    class Probe:
        def complete(self, messages, tools, decoding):
            seen.append(tools)
            return assistant(content="<answer>x</answer>")

    run_tool_agent(Probe(), registry, "Q?", mscl_seq)
    assert seen and seen[0] == registry.schemas()


def test_deterministic_traces(registry, mscl_seq):
    def run():
        backend = ScriptedBackend.from_jsonl(data_path("replay.jsonl"))
        return run_tool_agent(backend, registry, "Q?", mscl_seq, now=fixed_now, timer=fixed_timer())

    t1 = json.dumps(to_json(run().trace), sort_keys=True)
    t2 = json.dumps(to_json(run().trace), sort_keys=True)
    assert t1 == t2


# --- the one session loop, over all three paradigms -------------------------

QUERY = Sequence(id="query", residues=MSCL_RESIDUES)
BARE = build_standard_registry()  # no store or library: those tools answer with error envelopes
# An empty registry offers `[]` as tools, which must still invoke and audit every call.
REGISTRIES = [BARE, ToolRegistry()]
STOP_REASONS = ("answer_found", "max_turns", "backend_error", "budget_exhausted")

# A reply: whether it holds an answer span, and the names it calls (one unknown).
reply_st = st.tuples(st.booleans(), st.lists(st.sampled_from(["seq_basic_props", "tmbed_predict", "no_such_tool"]),
                                             max_size=3))


def reply(turn: int, has_answer: bool, names: list[str]) -> ChatMessage:
    calls = tuple(ToolCall(f"c{turn}_{i}", name, {"sequence_ref": "query"}) for i, name in enumerate(names))
    content = "<answer>a channel</answer>" if has_answer else (None if calls else "thinking")
    return assistant(content=content, tool_calls=calls or None)


@settings(max_examples=150, deadline=None)
@given(
    paradigm=st.sampled_from(["direct", "rag", "tool_agent"]),
    replies=st.lists(reply_st, max_size=4),
    budget=st.integers(min_value=0, max_value=3),
    registry=st.sampled_from(REGISTRIES),
)
def test_session_loop_answers_every_call_once(paradigm, replies, budget, registry):
    backend = scripted(*(reply(turn, *r) for turn, r in enumerate(replies)))
    invoked, real_invoke = [], agent.invoke

    def recording_invoke(registry, call, ctx):
        invoked.append(call.call_id)
        return real_invoke(registry, call, ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "invoke", recording_invoke)
        if paradigm == "direct":
            result = run_direct(backend, "Q?", QUERY)
        elif paradigm == "rag":
            result = run_rag(backend, registry, "Q?", QUERY)
        else:
            result = run_tool_agent(backend, registry, "Q?", QUERY, limits=SessionLimits(max_calls=budget))
    messages = result.trace.messages
    model_calls = []
    for at, m in enumerate(messages):
        if m.role == "assistant" and m.tool_calls:
            ids = [tc.call_id for tc in m.tool_calls]
            answers = messages[at + 1 : at + 1 + len(ids)]
            assert [(a.role, a.tool_call_id) for a in answers] == [("tool", call_id) for call_id in ids]
            model_calls += ids
    assert [m.tool_call_id for m in messages if m.role == "tool"] == model_calls  # one answer each, no stray
    assert [entry["call"]["call_id"] for entry in result.trace.audit] == invoked
    if paradigm == "tool_agent":
        assert invoked == model_calls
        assert result.tool_calls_made == min(len(invoked), budget)
    else:
        assert invoked == (["rag_0", "rag_1", "rag_2", "rag_3"] if paradigm == "rag" else [])
        assert result.tool_calls_made == 0
        refused = [json.loads(m.content)["error_kind"] for m in messages if m.role == "tool"]
        assert refused == ["budget_exhausted"] * len(model_calls)
    assert result.stop_reason in STOP_REASONS


# --- remote backend response parsing (requests.post is replaced; no network) --


def test_http_backend_parses_tool_calls(monkeypatch):
    message = {
        "content": None,
        "tool_calls": [http_tool_call('{"sequence_ref": "query"}'), http_tool_call("{not json"), http_tool_call(None)],
    }
    turn = http_backend(monkeypatch, message).complete([], None, DecodingParams())
    assert [tc.arguments for tc in turn.tool_calls] == [{"sequence_ref": "query"}, {"__malformed__": "{not json"}, {}]


def test_http_backend_ids_idless_calls_uniquely_per_session(monkeypatch, registry, mscl_seq):
    call = {"type": "function", "function": {"name": "seq_basic_props", "arguments": '{"sequence_ref": "query"}'}}
    backend = http_backend(monkeypatch, {"content": None, "tool_calls": [call]})
    trace = run_tool_agent(backend, registry, "Q?", mscl_seq, max_turns=3).trace
    tool_ids = [m.tool_call_id for m in trace.messages if m.role == "tool"]
    audit_ids = [entry["call"]["call_id"] for entry in trace.audit]
    assert tool_ids == ["call_1_0", "call_3_0", "call_5_0"]
    assert all(audit_ids.count(call_id) == 1 for call_id in tool_ids)


def test_http_backend_arguments_nested_too_deep_are_malformed(monkeypatch, registry, mscl_seq):
    deep = "[" * 100_000
    backend = http_backend(monkeypatch, {"content": None, "tool_calls": [http_tool_call(deep)]})
    turn = backend.complete([], None, DecodingParams())
    assert [tc.arguments for tc in turn.tool_calls] == [{"__malformed__": deep}]
    result = run_tool_agent(backend, registry, "Q?", mscl_seq)
    assert result.stop_reason != "backend_error"
    first_tool = next(m for m in result.trace.messages if m.role == "tool")
    assert json.loads(first_tool.content)["error_kind"] == "invalid_arguments"


def test_http_backend_arguments_repeating_a_key_are_malformed(monkeypatch, registry, mscl_seq):
    raw = '{"sequence_ref": "query", "sequence_ref": "other"}'
    backend = http_backend(monkeypatch, {"content": None, "tool_calls": [http_tool_call(raw)]})
    assert backend.complete([], None, DecodingParams()).tool_calls[0].arguments == {"__malformed__": raw}
    result = run_tool_agent(backend, registry, "Q?", mscl_seq, max_turns=1)
    first_tool = next(m for m in result.trace.messages if m.role == "tool")
    assert json.loads(first_tool.content)["error_kind"] == "invalid_arguments"


def test_http_backend_body_repeating_a_key_is_backend_error(monkeypatch):
    backend = http_backend(monkeypatch, {"content": "x"})
    reply = StubReply(None)
    reply.text = '{"choices": [{"message": {"content": "a"}}], "choices": [{"message": {"content": "b"}}]}'
    monkeypatch.setattr(backends.requests, "post", lambda *args, **kwargs: reply)
    with pytest.raises(BackendError, match="duplicate key 'choices'"):
        backend.complete([], None, DecodingParams())


def test_http_backend_body_nested_too_deep_is_backend_error(monkeypatch, registry, mscl_seq):
    backend = http_backend(monkeypatch, {"content": "x"})
    reply = StubReply(None)
    reply.text = "[" * 100_000 + "]" * 100_000
    monkeypatch.setattr(backends.requests, "post", lambda *args, **kwargs: reply)
    with pytest.raises(BackendError, match="non-JSON body"):
        backend.complete([], None, DecodingParams())


def test_http_backend_lone_surrogate_in_content_is_backend_error(monkeypatch, registry, mscl_seq, tmp_path):
    backend = http_backend(monkeypatch, {"content": "<answer>x \ud800</answer>"})
    with pytest.raises(BackendError, match="lone surrogate"):
        backend.complete([], None, DecodingParams())
    result = run_tool_agent(backend, registry, "Q?", mscl_seq)
    assert result.stop_reason == "backend_error"
    save_trace(result.trace, str(tmp_path / "trace.json"))
    assert load_trace(str(tmp_path / "trace.json")) == result.trace


def test_http_backend_lone_surrogate_in_arguments_is_malformed(monkeypatch, registry, mscl_seq, tmp_path):
    # The arguments string holds the escape itself, so the reply body holds it
    # escaped twice and decodes to a backslash; only decoding the arguments
    # makes the surrogate.
    raw = '{"sequence_ref": "\\ud800"}'
    backend = http_backend(monkeypatch, {"content": None, "tool_calls": [http_tool_call(raw)]})
    assert backend.complete([], None, DecodingParams()).tool_calls[0].arguments == {"__malformed__": raw}
    result = run_tool_agent(backend, registry, "Q?", mscl_seq, max_turns=1)
    first_tool = next(m for m in result.trace.messages if m.role == "tool")
    assert json.loads(first_tool.content)["error_kind"] == "invalid_arguments"
    save_trace(result.trace, str(tmp_path / "trace.json"))
    assert load_trace(str(tmp_path / "trace.json")) == result.trace


@pytest.mark.parametrize(
    "message",
    [
        "not an object",
        {"content": [{"type": "text", "text": "<answer>x</answer>"}]},
        {"content": None, "tool_calls": ["not an object"]},
        {"content": None, "tool_calls": [http_tool_call({"sequence_ref": "query"})]},
        {"content": None},  # neither content nor tool calls
        {"content": None, "tool_calls": []},
        {},
        {"content": None, "tool_calls": 5},
        {"content": "a", "tool_calls": {"id": "c0"}},
        {"content": None, "tool_calls": [{**http_tool_call("{}"), "id": 7}]},
        {"content": None, "tool_calls": [{"id": "c0", "function": {"name": 5, "arguments": "{}"}}]},
        {"content": None, "tool_calls": [{"id": "c0", "function": {"arguments": "{}"}}]},
    ],
)
def test_http_backend_malformed_message_is_backend_error(monkeypatch, registry, mscl_seq, message):
    backend = http_backend(monkeypatch, message)
    with pytest.raises(BackendError):
        backend.complete([], None, DecodingParams())
    assert run_tool_agent(backend, registry, "Q?", mscl_seq).stop_reason == "backend_error"
