"""Chat-completion backends: a remote HTTP client and a scripted replay.

The wire protocol is the de-facto chat-completion function-calling shape:
POST {model, messages, tools, temperature, max_tokens}, response carrying
one assistant message with optional structured tool calls. API keys come
from an environment variable only, never from config files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Protocol

import requests

from .errors import BackendError, ConfigError, SchemaError
from .executor import ToolCall

REQUEST_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_tokens: int = 4096


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant | tool
    content: str | None = None
    tool_calls: tuple[ToolCall, ...] | None = None
    tool_call_id: str | None = None

    def __post_init__(self):
        if self.role == "tool" and not self.tool_call_id:
            raise ValueError("tool messages must carry tool_call_id")
        if self.role == "assistant" and self.content is None and not self.tool_calls:
            raise ValueError("assistant messages must carry content or tool_calls")

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
        Malformed JSON, a line that is not an object, content that is neither
        a string nor null, null content without tool calls, or a tool call
        without a name raises SchemaError naming the 1-based line.
        """
        turns = []
        with open(path, encoding="utf-8") as fh:
            for turn_idx, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"script line {turn_idx + 1} is not valid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise SchemaError(f"script line {turn_idx + 1} is not a JSON object")
                if not isinstance(obj.get("content"), (str, type(None))):
                    raise SchemaError(f"script line {turn_idx + 1}: content must be a string or null")
                tool_calls = obj.get("tool_calls") or []
                if obj.get("content") is None and not tool_calls:
                    raise SchemaError(f"script line {turn_idx + 1}: null content needs tool calls")
                if not all(isinstance(tc, dict) and "name" in tc for tc in tool_calls):
                    raise SchemaError(f"script line {turn_idx + 1}: every tool call needs a name")
                calls = tuple(
                    ToolCall(
                        call_id=f"call_{turn_idx}_{i}",
                        name=tc["name"],
                        arguments=tc.get("arguments", {}),
                    )
                    for i, tc in enumerate(tool_calls)
                ) or None
                turns.append(ChatMessage(role="assistant", content=obj.get("content"), tool_calls=calls))
        return cls(turns=turns)

    def complete(self, messages, tools, decoding) -> ChatMessage:
        if self.cursor >= len(self.turns):
            raise BackendError(f"scripted backend exhausted after {len(self.turns)} turns")
        turn = self.turns[self.cursor]
        self.cursor += 1
        return turn


class HttpChatBackend:
    """Remote chat-completion endpoint speaking the function-calling protocol."""

    def __init__(self, endpoint: str, model: str, api_key_env: str = "PROTAGENT_API_KEY"):
        api_key = os.environ.get(api_key_env)
        if not api_key:
            raise ConfigError(f"environment variable {api_key_env} is not set (required for remote backend)")
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
            data = resp.json()
        except requests.RequestException as exc:
            raise BackendError(f"chat endpoint request failed: {exc}") from exc
        except ValueError as exc:
            raise BackendError(f"chat endpoint returned non-JSON body: {exc}") from exc
        try:
            message = data["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"unexpected chat completion shape: {exc}") from exc
        if not isinstance(message, dict):
            raise BackendError(f"chat completion message is not an object: {message!r}")
        if not isinstance(message.get("content"), (str, type(None))):
            raise BackendError(f"chat completion content is not a string: {message['content']!r}")
        if message.get("content") is None and not message.get("tool_calls"):
            raise BackendError("chat completion message has neither content nor tool calls")
        calls = None
        if message.get("tool_calls"):
            parsed = []
            for tc in message["tool_calls"]:
                function = tc.get("function", {}) if isinstance(tc, dict) else None
                if not isinstance(function, dict):
                    raise BackendError(f"tool call is not an object with a 'function' object: {tc!r}")
                raw = function.get("arguments")
                if raw is not None and not isinstance(raw, str):
                    raise BackendError(f"tool call arguments must be a JSON string, got {raw!r}")
                try:
                    arguments = json.loads(function["arguments"] or "{}")
                except (KeyError, json.JSONDecodeError):
                    arguments = {"__malformed__": raw}
                parsed.append(
                    ToolCall(
                        call_id=tc.get("id", f"call_{len(parsed)}"),
                        name=function.get("name", ""),
                        arguments=arguments,
                    )
                )
            calls = tuple(parsed)
        return ChatMessage(role="assistant", content=message.get("content"), tool_calls=calls)
