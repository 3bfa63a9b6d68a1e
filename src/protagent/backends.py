"""Chat-completion backends: a remote HTTP client and a scripted replay.

The wire protocol is the de-facto chat-completion function-calling shape:
POST {model, messages, tools, temperature, max_tokens}, response carrying
one assistant message with optional structured tool calls. API keys come
from an environment variable only, never from config files.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Protocol

import requests

from .errors import BackendError, SchemaError, decode_json, read_jsonl
from .executor import ToolCall

REQUEST_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_tokens: int = 4096


ROLES = ("system", "user", "assistant", "tool")


@dataclass(frozen=True)
class ChatMessage:
    """One message of a conversation; every reader (script, remote reply,
    trace) builds one, so these are the message rules. SchemaError unless the
    role is in ROLES, content and tool_call_id are strings or null, tool_calls
    is null or a nonempty tuple of ToolCall, a tool message has a
    tool_call_id and an assistant message has content or calls."""

    role: str
    content: str | None = None
    tool_calls: tuple[ToolCall, ...] | None = None
    tool_call_id: str | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise SchemaError(f"role must be one of {', '.join(ROLES)}, got {self.role!r}")
        for key in ("content", "tool_call_id"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise SchemaError(f"{key} must be a string or null, got {getattr(self, key)!r}")
        calls = self.tool_calls
        if calls is not None and not (isinstance(calls, tuple) and calls and all(isinstance(c, ToolCall) for c in calls)):
            raise SchemaError(f"tool_calls must be null or a nonempty tuple of ToolCall, got {calls!r}")
        if self.role == "tool" and self.tool_call_id is None:
            raise SchemaError("a tool message needs a tool_call_id")
        if self.role == "assistant" and self.content is None and calls is None:
            raise SchemaError("null content needs tool calls")

    def to_wire(self) -> dict:
        msg: dict = {"role": self.role, "content": self.content}
        if self.tool_calls:
            msg["tool_calls"] = [
                {
                    "id": tc.call_id,
                    "type": "function",
                    "function": {"name": tc.name, "arguments": json.dumps(tc.arguments)},
                }
                for tc in self.tool_calls
            ]
        if self.tool_call_id:
            msg["tool_call_id"] = self.tool_call_id
        return msg


class LlmBackend(Protocol):
    def complete(
        self, messages: list[ChatMessage], tools: list[dict] | None, decoding: DecodingParams
    ) -> ChatMessage:
        ...


@dataclass
class ScriptedBackend:
    """Replays a fixed list of assistant turns; deterministic by design."""

    turns: list[ChatMessage]
    cursor: int = field(default=0)

    @classmethod
    def from_jsonl(cls, path: str) -> "ScriptedBackend":
        """Load canned turns: one JSON object per line, keyed by turn order.

        Each line: {"content": str | null, "tool_calls": [{"name", "arguments"}]}.
        Besides read_jsonl's checks, a line that breaks ChatMessage's or
        ToolCall's rules, or a tool call that is not an object with a name,
        raises SchemaError naming the 1-based line. The calls on line N are
        `call_{N-1}_{i}`, so blank lines count.
        """
        return cls(turns=read_jsonl(path, "script", _scripted_turn))

    def complete(self, messages, tools, decoding) -> ChatMessage:
        if self.cursor >= len(self.turns):
            raise BackendError(f"scripted backend exhausted after {len(self.turns)} turns")
        turn = self.turns[self.cursor]
        self.cursor += 1
        return turn


def calls_from_json(calls, make_call) -> tuple[ToolCall, ...] | None:
    """ChatMessage.tool_calls from a JSON list or null, each call made by
    `make_call(i, call)`; a value of another type is a SchemaError."""
    if calls is None:
        return None
    if not isinstance(calls, list):
        raise SchemaError("tool_calls must be a list or null")
    return tuple(make_call(i, tc) for i, tc in enumerate(calls)) or None


def _scripted_turn(line_no: int, obj: dict) -> ChatMessage:
    try:
        return ChatMessage(
            role="assistant",
            content=obj.get("content"),
            tool_calls=calls_from_json(
                obj.get("tool_calls"),
                lambda i, tc: ToolCall(f"call_{line_no - 1}_{i}", tc["name"], tc.get("arguments", {})),
            ),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"every tool call must be an object with a name ({type(exc).__name__}: {exc})") from exc


def _wire_call(turn: int, i: int, tc: dict) -> ToolCall:
    """Tool call i of the reply to a request of `turn` messages. One without
    an id gets `call_{turn}_{i}`: the conversation grows every turn, so
    these ids are unique within a session. `function.arguments` is a JSON
    string (null or empty for none); one that decode_json refuses becomes
    {"__malformed__": <the string>} for the executor."""
    function = tc["function"]
    name, raw = function["name"], function.get("arguments")
    if not isinstance(raw, (str, type(None))):
        raise SchemaError(f"tool call arguments must be a JSON string, got {raw!r}")
    try:
        arguments = decode_json(raw or "{}")
    except (json.JSONDecodeError, RecursionError, SchemaError):
        arguments = {"__malformed__": raw}
    return ToolCall(tc.get("id", f"call_{turn}_{i}"), name, arguments)


class HttpChatBackend:
    """Remote chat-completion endpoint speaking the function-calling protocol."""

    def __init__(self, endpoint: str, model: str, api_key_env: str = "PROTAGENT_API_KEY"):
        api_key = os.environ.get(api_key_env)
        if not api_key:
            raise SchemaError(f"environment variable {api_key_env} is not set (required for remote backend)")
        self.endpoint = endpoint
        self.model = model
        self._api_key = api_key

    def complete(self, messages, tools, decoding: DecodingParams) -> ChatMessage:
        body = {
            "model": self.model,
            "messages": [m.to_wire() for m in messages],
            "temperature": decoding.temperature,
            "max_tokens": decoding.max_tokens,
        }
        if tools:
            body["tools"] = tools
        try:
            resp = requests.post(
                self.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {self._api_key}"},
                timeout=REQUEST_TIMEOUT_S,
            )
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise BackendError(f"chat endpoint request failed: {exc}") from exc
        try:
            message = decode_json(resp.text)["choices"][0]["message"]
            if not isinstance(message, dict):
                raise TypeError(f"message is not an object: {message!r}")
            return ChatMessage(
                role="assistant",
                content=message.get("content"),
                tool_calls=calls_from_json(message.get("tool_calls"), functools.partial(_wire_call, len(messages))),
            )
        except (json.JSONDecodeError, RecursionError) as exc:
            raise BackendError(f"chat endpoint returned non-JSON body: {exc}") from exc
        except (SchemaError, LookupError, TypeError) as exc:
            raise BackendError(f"unusable chat completion: {type(exc).__name__}: {exc}") from exc
