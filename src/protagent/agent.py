"""Multi-turn reasoning loop: three inference paradigms over one backend.

The three runners differ only in their opening messages and whether tools
are offered. One session loop, `_converse`, runs all three and produces
the SessionResult whose ConversationTrace is the persisted audit artifact.
With a scripted backend and injected clocks the traces are byte-identical
across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from .backends import ChatMessage, DecodingParams, LlmBackend, calls_from_json
from .errors import BackendError, SchemaError, read_json, to_json, write_json
from .executor import SessionContext, SessionLimits, ToolCall, ToolRegistry, invoke
from .seq import Sequence
from .templates import BASELINE_TEMPLATE, RAG_TEMPLATE, TOOL_AGENT_TEMPLATE, sequence_block

DEFAULT_MAX_TURNS = 12

# Fixed order of the up-front RAG evidence blocks.
RAG_TOOL_ORDER = ("seq_basic_props", "mmseqs2_besthit_uniprot", "pfam_hmmscan", "tmbed_predict")


def render_payload(payload) -> str:
    """Canonical JSON used for tool message content and trace comparison."""
    return json.dumps(payload, ensure_ascii=False)


def extract_answer(text: str | None) -> str | None:
    """Content of the last well-formed <answer>...</answer> span, trimmed."""
    if not text:
        return None
    spans = []
    start = 0
    while True:
        open_at = text.find("<answer>", start)
        if open_at < 0:
            break
        close_at = text.find("</answer>", open_at + len("<answer>"))
        if close_at < 0:
            break
        spans.append(text[open_at + len("<answer>") : close_at])
        start = close_at + len("</answer>")
    return spans[-1].strip() if spans else None


@dataclass(frozen=True)
class ConversationTrace:
    session_id: str
    created_at: str
    paradigm: str
    messages: tuple[ChatMessage, ...]
    audit: tuple[dict, ...]


@dataclass(frozen=True)
class SessionResult:
    trace: ConversationTrace
    final_answer: str | None
    stop_reason: str  # answer_found | max_turns | backend_error | budget_exhausted
    tool_calls_made: int


def _message_from_json(obj: dict) -> ChatMessage:
    return ChatMessage(
        role=obj["role"],
        content=obj.get("content"),
        tool_calls=calls_from_json(
            obj.get("tool_calls"), lambda i, tc: ToolCall(tc["call_id"], tc["name"], tc["arguments"])
        ),
        tool_call_id=obj.get("tool_call_id"),
    )


def _objects(obj: dict, key: str, default=None) -> list:
    value = obj.get(key, default)
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise TypeError(f"{key} must be a list of objects")
    return value


def trace_from_json(obj) -> ConversationTrace:
    """Rebuild a trace from its `to_json(trace)` form; TypeError for a
    document that is not an object, a mistyped session_id, created_at or
    paradigm, or messages or audit that are not lists of objects."""
    if not isinstance(obj, dict):
        raise TypeError(f"a trace must be a JSON object, got {type(obj).__name__}")
    for key in ("session_id", "created_at", "paradigm"):
        if not isinstance(obj[key], str):
            raise TypeError(f"{key} must be a string, got {obj[key]!r}")
    return ConversationTrace(
        session_id=obj["session_id"],
        created_at=obj["created_at"],
        paradigm=obj["paradigm"],
        messages=tuple(_message_from_json(m) for m in _objects(obj, "messages")),
        audit=tuple(_objects(obj, "audit", [])),
    )


def load_trace(path: str) -> ConversationTrace:
    """Read a trace written by save_trace; SchemaError naming the file once
    for any file that is not one (one that read_json refuses, a missing or
    mistyped field, a message that breaks ChatMessage's or ToolCall's rules)."""
    obj = read_json(path)
    try:
        return trace_from_json(obj)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path} is not a saved trace: {type(exc).__name__}: {exc}") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path} is not a saved trace: {exc}") from exc


def save_trace(trace: ConversationTrace, path: str) -> None:
    write_json(path, to_json(trace))


def render_trace(trace: ConversationTrace) -> str:
    """Human-readable rendering in the chat-markup layout."""
    out = []
    for m in trace.messages:
        if m.role == "tool":
            out.append("<|im_start|>user")
            out.append("<tool_response>")
            out.append(m.content or "")
            out.append("</tool_response>")
        else:
            out.append(f"<|im_start|>{m.role}")
            if m.content:
                out.append(m.content)
            for tc in m.tool_calls or ():
                out.append("<tool_call>")
                out.append(render_payload({"name": tc.name, "arguments": tc.arguments}))
                out.append("</tool_call>")
        out.append("<|im_end|>")
        out.append("")
    return "\n".join(out)


def _default_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# What a session that offers no tools answers each tool call with.
_REFUSAL = {"error_kind": "budget_exhausted", "message": "tool calls are not available in this mode"}


def _tool_message(call: ToolCall, payload) -> ChatMessage:
    return ChatMessage(role="tool", content=render_payload(payload), tool_call_id=call.call_id)


def _converse(paradigm, backend, registry, ctx, created_at, messages, decoding, tools, max_turns,
              session_id) -> SessionResult:
    """The one session loop: up to `max_turns` model turns after the opening
    `messages`, each tool call answered by one tool message, in call order.
    A session that offers tools (`tools` is not None, even when empty) runs
    the calls through `invoke`, and they win over an answer span in the same
    turn; one that offers none refuses each call unexecuted, and the turn's
    answer stands. Stops on an answer, the turn ceiling, an exhausted call
    budget or a backend error."""
    decoding = decoding or DecodingParams()
    stop, answer = "max_turns", None
    for _turn in range(max_turns):
        try:
            assistant = backend.complete(messages, tools, decoding)
        except BackendError:
            stop = "backend_error"
            break
        messages.append(assistant)
        calls = assistant.tool_calls or ()
        if tools is None:
            messages += [_tool_message(tc, _REFUSAL) for tc in calls]
        elif calls:
            responses = [invoke(registry, tc, ctx) for tc in calls]
            messages += [_tool_message(tc, resp.payload) for tc, resp in zip(calls, responses)]
            if any(not resp.ok and resp.payload.get("error_kind") == "budget_exhausted" for resp in responses):
                stop = "budget_exhausted"
                break
            continue
        answer = extract_answer(assistant.content)
        if answer is not None:
            stop = "answer_found"
            break
    audit = tuple({"call": to_json(call), "response": to_json(resp)} for call, resp in ctx.audit)
    trace = ConversationTrace(session_id, created_at, paradigm, tuple(messages), audit)
    return SessionResult(trace, answer, stop, ctx.calls_made if tools is not None else 0)


def run_direct(
    backend: LlmBackend,
    question: str,
    seq: Sequence,
    decoding: DecodingParams | None = None,
    session_id: str = "session",
    now: Callable[[], str] | None = None,
) -> SessionResult:
    """Single round, no tools offered."""
    messages = [
        ChatMessage(role="system", content=BASELINE_TEMPLATE),
        ChatMessage(role="user", content=f"{question}\n{sequence_block(seq)}"),
    ]
    ctx = SessionContext(query_sequence=seq)
    return _converse("direct", backend, None, ctx, (now or _default_now)(), messages, decoding, None, 1, session_id)


def run_rag(
    backend: LlmBackend,
    registry: ToolRegistry,
    question: str,
    seq: Sequence,
    decoding: DecodingParams | None = None,
    session_id: str = "session",
    now: Callable[[], str] | None = None,
    timer: Callable[[], float] | None = None,
) -> SessionResult:
    """All four tools invoked up front; single model round; no tools offered.

    Tool failures degrade gracefully: the error envelope is serialized
    into the context block and the run proceeds. The audit holds exactly
    the four up-front invocations.
    """
    created_at = (now or _default_now)()
    ctx = SessionContext(query_sequence=seq, limits=SessionLimits(max_calls=len(RAG_TOOL_ORDER)))
    if timer is not None:
        ctx.clock = timer
    blocks = []
    for i, tool_name in enumerate(RAG_TOOL_ORDER):
        call = ToolCall(call_id=f"rag_{i}", name=tool_name, arguments={"sequence_ref": "query"})
        resp = invoke(registry, call, ctx)
        blocks.append(f"[TOOL RESULT: {tool_name}]\n{render_payload(resp.payload)}")
    messages = [
        ChatMessage(role="system", content=RAG_TEMPLATE),
        ChatMessage(role="user", content="\n\n".join([question, sequence_block(seq)] + blocks)),
    ]
    return _converse("rag", backend, registry, ctx, created_at, messages, decoding, None, 1, session_id)


def run_tool_agent(
    backend: LlmBackend,
    registry: ToolRegistry,
    question: str,
    seq: Sequence,
    decoding: DecodingParams | None = None,
    limits: SessionLimits | None = None,
    max_turns: int = DEFAULT_MAX_TURNS,
    session_id: str = "session",
    now: Callable[[], str] | None = None,
    timer: Callable[[], float] | None = None,
) -> SessionResult:
    """Interleaved tool-call loop over every tool of `registry`."""
    ctx = SessionContext(query_sequence=seq, limits=limits or SessionLimits())
    if timer is not None:
        ctx.clock = timer
    messages = [ChatMessage(role="user", content=f"{TOOL_AGENT_TEMPLATE}\n{question}\n{sequence_block(seq)}")]
    return _converse("tool_agent", backend, registry, ctx, (now or _default_now)(), messages, decoding,
                     registry.schemas(), max_turns, session_id)
