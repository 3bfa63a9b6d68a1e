"""Unified tool executor: registry, argument resolution, dispatch, audit.

Every invocation returns a ToolResponse; handler exceptions, timeouts,
unknown tools, and exhausted call budgets all become ok=False envelopes
with `error_kind` and `message` fields, never raised exceptions. The
session audit log records one entry per invocation, in order.

Handlers run on the calling thread. The timeout is checked when the
handler returns, against the session clock, and is not preemptive: a
handler that overruns DEFAULT_TIMEOUT_S runs to completion, and its result is
then replaced by a `timeout` envelope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import domains, homology, props, topology
from .errors import ProtAgentError
from .seq import Sequence, validate_sequence

DEFAULT_MAX_CALLS = 10
DEFAULT_TIMEOUT_S = 30.0


class DuplicateToolError(ProtAgentError):
    """Raised when a tool name is registered twice."""


class NotSupportedError(ProtAgentError):
    """Raised by stub handlers whose capability is deliberately disabled."""


class ResolutionError(ProtAgentError):
    """Argument resolution failure; carries the envelope error kind."""

    def __init__(self, error_kind: str, message: str):
        super().__init__(message)
        self.error_kind = error_kind


_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v)),
}


@dataclass(frozen=True)
class ParamSpec:
    type: str
    description: str = ""

    def __post_init__(self):
        if self.type not in _TYPE_CHECKS:
            raise ValueError(f"parameter type must be one of {sorted(_TYPE_CHECKS)}, got {self.type!r}")


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    description: str
    parameters: dict[str, ParamSpec]
    handler: Callable[[dict, "SessionContext"], dict]

    def schema(self) -> dict:
        """Function-calling schema in the chat wire shape."""
        return {
            "type": "function",
            "function": {
                "name": self.name,
                "description": self.description,
                "parameters": {
                    "type": "object",
                    "properties": {
                        name: {"type": spec.type, "description": spec.description}
                        for name, spec in self.parameters.items()
                    },
                    "required": [],
                },
            },
        }


@dataclass(frozen=True)
class ToolCall:
    call_id: str
    name: str
    arguments: dict[str, Any]


@dataclass(frozen=True)
class ToolResponse:
    call_id: str
    ok: bool
    payload: Any
    elapsed: float


@dataclass(frozen=True)
class SessionLimits:
    max_calls: int = DEFAULT_MAX_CALLS


@dataclass
class SessionContext:
    """Per-session state: the query sequence (`sequence_ref` "query"),
    limits, and the audit log."""

    query_sequence: Sequence
    limits: SessionLimits = field(default_factory=SessionLimits)
    audit: list[tuple[ToolCall, ToolResponse]] = field(default_factory=list)
    calls_made: int = 0
    clock: Callable[[], float] = time.perf_counter


class ToolRegistry:
    """Name-keyed tool descriptors; immutable by convention after setup."""

    def __init__(self):
        self._tools: dict[str, ToolDescriptor] = {}

    def register(self, descriptor: ToolDescriptor) -> None:
        if descriptor.name in self._tools:
            raise DuplicateToolError(f"tool {descriptor.name!r} already registered")
        self._tools[descriptor.name] = descriptor

    def get(self, name: str) -> ToolDescriptor | None:
        return self._tools.get(name) if isinstance(name, str) else None

    def names(self) -> list[str]:
        return list(self._tools)

    def schemas(self) -> list[dict]:
        return [d.schema() for d in self._tools.values()]


def resolve_arguments(registry: ToolRegistry, call: ToolCall, ctx: SessionContext) -> dict:
    """Validate arguments against the tool schema and dereference sequences.

    Every argument must be declared and of its ParamSpec type: a `string`
    is a str, a `number` an int that is not a bool or a finite float. Then
    `sequence_ref` is replaced by a `sequence` key bound to the session's
    query sequence (the only name is "query"), and a literal `sequence` is
    validated.
    """
    descriptor = registry.get(call.name)
    if descriptor is None:
        raise ResolutionError("unknown_tool", f"no tool named {call.name!r}")
    if not isinstance(call.arguments, dict):
        raise ResolutionError("invalid_arguments", f"arguments must be an object, got {call.arguments!r}")
    args = dict(call.arguments)
    for key, value in args.items():
        spec = descriptor.parameters.get(key)
        if spec is None:
            raise ResolutionError("invalid_arguments", f"unknown argument {key!r} for tool {call.name!r}")
        if not _TYPE_CHECKS[spec.type](value):
            raise ResolutionError("invalid_arguments", f"argument {key!r} must be a {spec.type}, got {value!r}")
    if "sequence_ref" in args and "sequence" in args:
        raise ResolutionError("ambiguous_argument", "both 'sequence' and 'sequence_ref' given")
    if "sequence_ref" in args:
        ref = args.pop("sequence_ref")
        if ref != "query":
            raise ResolutionError("unknown_reference", f"no sequence named {ref!r} in this session")
        args["sequence"] = ctx.query_sequence
    elif "sequence" in args:
        try:
            args["sequence"] = validate_sequence("inline", args["sequence"])
        except ProtAgentError as exc:
            raise ResolutionError("invalid_arguments", str(exc)) from exc
    if "sequence" in descriptor.parameters and "sequence" not in args:
        raise ResolutionError("invalid_arguments", "either 'sequence' or 'sequence_ref' is required")
    return args


def _error_response(call: ToolCall, kind: str, message: str, elapsed: float = 0.0) -> ToolResponse:
    return ToolResponse(
        call_id=call.call_id,
        ok=False,
        payload={"error_kind": kind, "message": message},
        elapsed=elapsed,
    )


def invoke(registry: ToolRegistry, call: ToolCall, ctx: SessionContext) -> ToolResponse:
    """Execute one tool call; never raises. Records the outcome in the audit."""
    response = _invoke_inner(registry, call, ctx)
    ctx.audit.append((call, response))
    return response


def _invoke_inner(registry: ToolRegistry, call: ToolCall, ctx: SessionContext) -> ToolResponse:
    if ctx.calls_made >= ctx.limits.max_calls:
        return _error_response(
            call, "budget_exhausted", f"session call budget of {ctx.limits.max_calls} exhausted"
        )
    ctx.calls_made += 1
    try:
        args = resolve_arguments(registry, call, ctx)
    except ResolutionError as exc:
        return _error_response(call, exc.error_kind, str(exc))
    descriptor = registry.get(call.name)
    start = ctx.clock()
    failure = None
    try:
        payload = descriptor.handler(args, ctx)
    except NotSupportedError as exc:
        failure = ("not_supported", str(exc))
    except ResolutionError as exc:  # an argument only the handler can check
        failure = (exc.error_kind, str(exc))
    except ProtAgentError as exc:
        failure = ("tool_error", str(exc))
    except Exception as exc:  # handler bugs become envelopes, not crashes
        failure = ("tool_error", f"{type(exc).__name__}: {exc}")
    elapsed = ctx.clock() - start
    if elapsed > DEFAULT_TIMEOUT_S:
        failure = ("timeout", f"tool {call.name!r} exceeded {DEFAULT_TIMEOUT_S}s")
    if failure is not None:
        return _error_response(call, *failure, elapsed)
    return ToolResponse(call_id=call.call_id, ok=True, payload=payload, elapsed=elapsed)


_SEQ_PARAMS = {
    "sequence_ref": ParamSpec("string", "name of a session sequence, e.g. 'query'"),
    "sequence": ParamSpec("string", "literal amino-acid sequence"),
}


def _not_supported(args, ctx):
    raise NotSupportedError(
        "python_eval is not supported in this build; register a sandboxed evaluator to enable it"
    )


def build_standard_registry(
    index: homology.ReferenceIndex | None = None,
    annotations: dict[str, homology.AnnotationRecord] | None = None,
    hmm_library: list[domains.ProfileHmm] | None = None,
) -> ToolRegistry:
    """Registry with the four evidence tools plus the python_eval stub,
    which always returns a not_supported envelope.

    Tools whose backing store is not supplied still exist on the wire and
    return tool_error envelopes when called.
    """

    def props_handler(args, ctx):
        return props.compute_basic_props(args["sequence"]).to_payload()

    def homology_handler(args, ctx):
        min_seq_id = args.get("min_seq_id", homology.DEFAULT_MIN_SEQ_ID)
        if not 0 <= min_seq_id <= 1:
            raise ResolutionError("invalid_arguments", f"min_seq_id must be in [0, 1], got {min_seq_id!r}")
        if index is None or annotations is None:
            raise ProtAgentError("no reference store configured for homology search")
        hit = homology.search_best_hit(index, args["sequence"], min_seq_id=min_seq_id)
        if hit is None:
            return {"best_hit": None, "uniprot_annotation": None}
        return homology.make_evidence(hit, annotations)

    def domains_handler(args, ctx):
        if hmm_library is None:
            raise ProtAgentError("no profile library configured for domain scan")
        return domains.scan(hmm_library, args["sequence"]).to_payload()

    def topology_handler(args, ctx):
        return topology.predict_topology(args["sequence"]).to_payload()

    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="seq_basic_props",
            description="Basic physicochemical properties: length, hydrophobic runs, complexity",
            parameters=dict(_SEQ_PARAMS),
            handler=props_handler,
        )
    )
    registry.register(
        ToolDescriptor(
            name="mmseqs2_besthit_uniprot",
            description="Homology best hit against the annotated reference store",
            parameters={**_SEQ_PARAMS, "min_seq_id": ParamSpec("number", "minimum sequence identity fraction")},
            handler=homology_handler,
        )
    )
    registry.register(
        ToolDescriptor(
            name="pfam_hmmscan",
            description="Profile-HMM domain scan with ranked and selected hits",
            parameters=dict(_SEQ_PARAMS),
            handler=domains_handler,
        )
    )
    registry.register(
        ToolDescriptor(
            name="tmbed_predict",
            description="Residue-level transmembrane topology prediction",
            parameters=dict(_SEQ_PARAMS),
            handler=topology_handler,
        )
    )
    registry.register(
        ToolDescriptor(
            name="python_eval",
            description="Compute additional properties with Python (disabled by default)",
            parameters={"code": ParamSpec("string", "Python expression to evaluate")},
            handler=_not_supported,
        )
    )
    return registry
