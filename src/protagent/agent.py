"""Multi-turn reasoning loop: three inference paradigms over one backend.

All three runners produce a SessionResult whose ConversationTrace is the
persisted audit artifact. With a scripted backend and injected clocks the
traces are byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from .backends import ChatMessage, DecodingParams, LlmBackend
from .errors import BackendError, SchemaError
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

    def to_json(self) -> dict:
        return {
            "session_id": self.session_id,
            "created_at": self.created_at,
            "paradigm": self.paradigm,
            "messages": [_message_to_json(m) for m in self.messages],
            "audit": list(self.audit),
        }


@dataclass(frozen=True)
class SessionResult:
    paradigm: str  # direct | rag | tool_agent
    trace: ConversationTrace
    final_answer: str | None
    stop_reason: str  # answer_found | max_turns | backend_error | budget_exhausted
    tool_calls_made: int


def _message_to_json(m: ChatMessage) -> dict:
    return {
        "role": m.role,
        "content": m.content,
        "tool_calls": [
            {"call_id": tc.call_id, "name": tc.name, "arguments": tc.arguments} for tc in m.tool_calls
        ]
        if m.tool_calls
        else None,
        "tool_call_id": m.tool_call_id,
    }


def _message_from_json(obj: dict) -> ChatMessage:
    calls = obj.get("tool_calls")
    return ChatMessage(
        role=obj["role"],
        content=obj.get("content"),
        tool_calls=tuple(
            ToolCall(call_id=tc["call_id"], name=tc["name"], arguments=tc["arguments"]) for tc in calls
        )
        if calls
        else None,
        tool_call_id=obj.get("tool_call_id"),
    )


def trace_from_json(obj: dict) -> ConversationTrace:
    return ConversationTrace(
        session_id=obj["session_id"],
        created_at=obj["created_at"],
        paradigm=obj["paradigm"],
        messages=tuple(_message_from_json(m) for m in obj["messages"]),
        audit=tuple(obj.get("audit", [])),
    )


def load_trace(path: str) -> ConversationTrace:
    """Read a trace written by save_trace; SchemaError for any file that is
    not one (invalid JSON, a missing or mistyped field)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return trace_from_json(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"{path} is not a saved trace: {type(exc).__name__}: {exc}") from exc


def save_trace(trace: ConversationTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_json(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


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


def _audit_to_json(ctx: SessionContext) -> tuple[dict, ...]:
    return tuple(
        {
            "call": {"call_id": call.call_id, "name": call.name, "arguments": call.arguments},
            "response": {
                "call_id": resp.call_id,
                "ok": resp.ok,
                "payload": resp.payload,
                "elapsed": resp.elapsed,
            },
        }
        for call, resp in ctx.audit
    )


def _finish(paradigm, session_id, created_at, messages, ctx, answer, stop_reason, calls_made) -> SessionResult:
    trace = ConversationTrace(
        session_id=session_id,
        created_at=created_at,
        paradigm=paradigm,
        messages=tuple(messages),
        audit=_audit_to_json(ctx) if ctx is not None else (),
    )
    return SessionResult(
        paradigm=paradigm,
        trace=trace,
        final_answer=answer,
        stop_reason=stop_reason,
        tool_calls_made=calls_made,
    )


def run_direct(
    backend: LlmBackend,
    question: str,
    seq: Sequence,
    decoding: DecodingParams | None = None,
    session_id: str = "session",
    now: Callable[[], str] | None = None,
) -> SessionResult:
    """Single round, no tools offered."""
    decoding = decoding or DecodingParams()
    created_at = (now or _default_now)()
    messages = [
        ChatMessage(role="system", content=BASELINE_TEMPLATE),
        ChatMessage(role="user", content=f"{question}\n{sequence_block(seq)}"),
    ]
    try:
        assistant = backend.complete(messages, None, decoding)
    except BackendError:
        return _finish("direct", session_id, created_at, messages, None, None, "backend_error", 0)
    messages.append(assistant)
    answer = extract_answer(assistant.content)
    stop = "answer_found" if answer is not None else "max_turns"
    return _finish("direct", session_id, created_at, messages, None, answer, stop, 0)


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
    """All four tools invoked up front; single model round; tool budget 0.

    Tool failures degrade gracefully: the error envelope is serialized
    into the context block and the run proceeds. Model-initiated tool
    calls are refused without execution, so the audit holds exactly the
    four up-front invocations.
    """
    decoding = decoding or DecodingParams()
    created_at = (now or _default_now)()
    ctx = SessionContext(query_sequence=seq, limits=SessionLimits(max_calls=len(RAG_TOOL_ORDER)))
    if timer is not None:
        ctx.clock = timer
    blocks = []
    for i, tool_name in enumerate(RAG_TOOL_ORDER):
        call = ToolCall(call_id=f"rag_{i}", name=tool_name, arguments={"sequence_ref": "query"})
        resp = invoke(registry, call, ctx)
        blocks.append(f"[TOOL RESULT: {tool_name}]\n{render_payload(resp.payload)}")
    user_content = "\n\n".join([question, sequence_block(seq)] + blocks)
    messages = [
        ChatMessage(role="system", content=RAG_TEMPLATE),
        ChatMessage(role="user", content=user_content),
    ]
    try:
        assistant = backend.complete(messages, None, decoding)
    except BackendError:
        return _finish("rag", session_id, created_at, messages, ctx, None, "backend_error", 0)
    messages.append(assistant)
    # Refuse model-initiated calls without executing them (budget 0).
    for tc in assistant.tool_calls or ():
        refusal = {"error_kind": "budget_exhausted", "message": "tool calls are not available in this mode"}
        messages.append(ChatMessage(role="tool", content=render_payload(refusal), tool_call_id=tc.call_id))
    answer = extract_answer(assistant.content)
    stop = "answer_found" if answer is not None else "max_turns"
    return _finish("rag", session_id, created_at, messages, ctx, answer, stop, 0)


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
    """Interleaved tool-call loop.

    Assistant tool calls are executed in message order, one tool message
    appended per call. A turn with both tool calls and an answer span
    keeps investigating: the tool calls win. Stops on the first call-free
    answer span, the turn ceiling, or an exhausted call budget.
    """
    decoding = decoding or DecodingParams()
    created_at = (now or _default_now)()
    ctx = SessionContext(query_sequence=seq, limits=limits or SessionLimits())
    if timer is not None:
        ctx.clock = timer
    messages = [
        ChatMessage(
            role="user",
            content=f"{TOOL_AGENT_TEMPLATE}\n{question}\n{sequence_block(seq)}",
        )
    ]
    tools = registry.schemas()
    stop = "max_turns"
    answer = None
    for _turn in range(max_turns):
        try:
            assistant = backend.complete(messages, tools, decoding)
        except BackendError:
            stop = "backend_error"
            break
        messages.append(assistant)
        if assistant.tool_calls:
            budget_hit = False
            for tc in assistant.tool_calls:
                resp = invoke(registry, tc, ctx)
                messages.append(
                    ChatMessage(role="tool", content=render_payload(resp.payload), tool_call_id=tc.call_id)
                )
                if not resp.ok and resp.payload.get("error_kind") == "budget_exhausted":
                    budget_hit = True
            if budget_hit:
                stop = "budget_exhausted"
                break
            continue
        answer = extract_answer(assistant.content)
        if answer is not None:
            stop = "answer_found"
            break
    return _finish("tool_agent", session_id, created_at, messages, ctx, answer, stop, ctx.calls_made)
