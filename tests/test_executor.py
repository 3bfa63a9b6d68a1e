import threading

import pytest

from protagent.executor import (
    DEFAULT_TIMEOUT_S,
    DuplicateToolError,
    ParamSpec,
    SessionContext,
    SessionLimits,
    ToolCall,
    ToolDescriptor,
    ToolRegistry,
    build_standard_registry,
    invoke,
    resolve_arguments,
)
from protagent.seq import Sequence

QUERY = Sequence(id="query", residues="MLKEFKEFALKGNVLDLAIAVVMG")


def ctx(**kwargs) -> SessionContext:
    return SessionContext(query_sequence=QUERY, **kwargs)


def call(name, arguments, call_id="c1") -> ToolCall:
    return ToolCall(call_id=call_id, name=name, arguments=arguments)


def echo_registry() -> ToolRegistry:
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="echo",
            description="returns its resolved sequence",
            parameters={
                "sequence_ref": ParamSpec("string"),
                "sequence": ParamSpec("string"),
                "note": ParamSpec("string"),
            },
            handler=lambda args, c: {"id": args["sequence"].id, "residues": args["sequence"].residues},
        )
    )
    return registry


def test_duplicate_registration_rejected():
    registry = echo_registry()
    with pytest.raises(DuplicateToolError):
        registry.register(
            ToolDescriptor(name="echo", description="", parameters={}, handler=lambda a, c: {})
        )


def test_schema_shape():
    schema = echo_registry().get("echo").schema()
    assert schema["type"] == "function"
    fn = schema["function"]
    assert fn["name"] == "echo"
    assert set(fn["parameters"]["properties"]) == {"sequence_ref", "sequence", "note"}
    assert fn["parameters"]["required"] == []


def test_sequence_ref_dereferences_session_sequence():
    resolved = resolve_arguments(echo_registry(), call("echo", {"sequence_ref": "query"}), ctx())
    assert resolved["sequence"] is QUERY


def test_literal_sequence_validated():
    resolved = resolve_arguments(echo_registry(), call("echo", {"sequence": "mlkv"}), ctx())
    assert resolved["sequence"].residues == "MLKV"


def test_unknown_tool_envelope():
    resp = invoke(echo_registry(), call("nope", {}), ctx())
    assert not resp.ok
    assert resp.payload["error_kind"] == "unknown_tool"


def test_unknown_reference_envelope():
    resp = invoke(echo_registry(), call("echo", {"sequence_ref": "ghost"}), ctx())
    assert resp.payload["error_kind"] == "unknown_reference"


def test_ambiguous_argument_envelope():
    resp = invoke(echo_registry(), call("echo", {"sequence_ref": "query", "sequence": "ML"}), ctx())
    assert resp.payload["error_kind"] == "ambiguous_argument"


def test_unknown_argument_envelope():
    resp = invoke(echo_registry(), call("echo", {"sequence_ref": "query", "bogus": 1}), ctx())
    assert resp.payload["error_kind"] == "invalid_arguments"


def test_missing_sequence_envelope():
    resp = invoke(echo_registry(), call("echo", {}), ctx())
    assert resp.payload["error_kind"] == "invalid_arguments"
    assert "sequence" in resp.payload["message"]


def test_invalid_literal_sequence_is_tool_input_error():
    resp = invoke(echo_registry(), call("echo", {"sequence": "ML0"}), ctx())
    assert not resp.ok


def test_budget_enforced_and_audited():
    registry = echo_registry()
    context = ctx(limits=SessionLimits(max_calls=2))
    for i in range(2):
        assert invoke(registry, call("echo", {"sequence_ref": "query"}, f"c{i}"), context).ok
    resp = invoke(registry, call("echo", {"sequence_ref": "query"}, "c2"), context)
    assert resp.payload["error_kind"] == "budget_exhausted"
    assert context.calls_made == 2
    assert len(context.audit) == 3  # refusals are audited too


def test_failed_calls_still_consume_budget():
    context = ctx(limits=SessionLimits(max_calls=2))
    registry = echo_registry()
    invoke(registry, call("echo", {"sequence_ref": "ghost"}), context)
    assert context.calls_made == 1


def test_handler_exception_becomes_tool_error():
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(name="boom", description="", parameters={}, handler=lambda a, c: 1 / 0)
    )
    resp = invoke(registry, call("boom", {}), ctx())
    assert resp.payload["error_kind"] == "tool_error"
    assert "ZeroDivisionError" in resp.payload["message"]


def jumping_clock(seconds: float):
    """A session clock that reads 0.0 before the handler and `seconds` after."""
    return iter([0.0, seconds]).__next__


def test_timeout_envelope():
    registry = ToolRegistry()
    registry.register(ToolDescriptor(name="slow", description="", parameters={}, handler=lambda a, c: {}))
    resp = invoke(registry, call("slow", {}), ctx(clock=jumping_clock(DEFAULT_TIMEOUT_S + 0.5)))
    assert resp.payload == {"error_kind": "timeout", "message": f"tool 'slow' exceeded {DEFAULT_TIMEOUT_S}s"}
    assert resp.elapsed == DEFAULT_TIMEOUT_S + 0.5
    # A handler that takes exactly the limit is within it.
    resp = invoke(registry, call("slow", {}), ctx(clock=jumping_clock(DEFAULT_TIMEOUT_S)))
    assert resp.ok and resp.payload == {}


def test_handler_runs_on_calling_thread():
    seen = []
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor(
            name="where", description="", parameters={}, handler=lambda a, c: seen.append(threading.get_ident())
        )
    )
    assert invoke(registry, call("where", {}), ctx()).ok
    assert seen == [threading.get_ident()]


def test_overrun_then_raise_is_timeout():
    def slow_boom(args, c):
        raise RuntimeError("late failure")

    registry = ToolRegistry()
    registry.register(ToolDescriptor(name="slow_boom", description="", parameters={}, handler=slow_boom))
    resp = invoke(registry, call("slow_boom", {}), ctx(clock=jumping_clock(DEFAULT_TIMEOUT_S + 1.0)))
    assert resp.payload["error_kind"] == "timeout"
    assert resp.elapsed > DEFAULT_TIMEOUT_S


def test_clock_read_twice_per_dispatched_call_only():
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads))

    registry = echo_registry()
    registry.register(ToolDescriptor(name="boom", description="", parameters={}, handler=lambda a, c: 1 / 0))
    context = ctx(limits=SessionLimits(max_calls=4), clock=clock)
    assert invoke(registry, call("echo", {"sequence_ref": "query"}), context).elapsed == 1.0
    assert len(reads) == 2
    assert invoke(registry, call("boom", {}), context).payload["error_kind"] == "tool_error"
    assert len(reads) == 4
    for name, arguments, kind in [
        ("nope", {}, "unknown_tool"),
        ("echo", {"sequence_ref": "ghost"}, "unknown_reference"),
        ("echo", {"sequence_ref": "query"}, "budget_exhausted"),
    ]:
        assert invoke(registry, call(name, arguments), context).payload["error_kind"] == kind
    assert len(reads) == 4


def test_non_object_arguments_envelope():
    for arguments in ([1, 2], "query", 5):
        resp = invoke(echo_registry(), call("echo", arguments), ctx())
        assert resp.payload["error_kind"] == "invalid_arguments"


def test_python_eval_not_supported(registry):
    resp = invoke(registry, call("python_eval", {"code": "1+1"}), ctx())
    assert resp.payload["error_kind"] == "not_supported"


def test_standard_registry_names(registry):
    assert registry.names() == [
        "seq_basic_props",
        "mmseqs2_besthit_uniprot",
        "pfam_hmmscan",
        "tmbed_predict",
        "python_eval",
    ]
    assert len(registry.schemas()) == 5


def test_standard_registry_dispatch(registry, mscl_seq):
    context = SessionContext(query_sequence=mscl_seq)
    resp = invoke(registry, call("seq_basic_props", {"sequence_ref": "query"}), context)
    assert resp.ok and resp.payload["length"] == 117
    resp = invoke(registry, call("mmseqs2_besthit_uniprot", {"sequence_ref": "query"}), context)
    assert resp.ok and resp.payload["best_hit"]["target"] == "Q4L656"
    resp = invoke(registry, call("tmbed_predict", {"sequence_ref": "query"}), context)
    assert resp.ok and resp.payload["prediction"]["has_tm_signal_heuristic"] is True
    resp = invoke(registry, call("pfam_hmmscan", {"sequence_ref": "query"}), context)
    assert resp.ok and resp.payload["selected_domains"][0]["pfam_id"] == "MscL"
    assert len(context.audit) == 4


def test_unconfigured_store_yields_tool_error(mscl_seq):
    registry = build_standard_registry()  # no stores wired in
    context = SessionContext(query_sequence=mscl_seq)
    resp = invoke(registry, call("mmseqs2_besthit_uniprot", {"sequence_ref": "query"}), context)
    assert resp.payload["error_kind"] == "tool_error"
    resp = invoke(registry, call("pfam_hmmscan", {"sequence_ref": "query"}), context)
    assert resp.payload["error_kind"] == "tool_error"


def test_min_seq_id_argument_passes_through(registry, mscl_seq):
    context = SessionContext(query_sequence=mscl_seq)
    resp = invoke(
        registry, call("mmseqs2_besthit_uniprot", {"sequence_ref": "query", "min_seq_id": 0.99}), context
    )
    assert resp.ok and resp.payload["best_hit"]["pident"] == 100.0


def test_named_sequences_resolve():
    # "query" is the one name a session has; any other is unknown.
    other = Sequence(id="other", residues="WWWW")
    context = SessionContext(query_sequence=other)
    resolved = resolve_arguments(echo_registry(), call("echo", {"sequence_ref": "query"}), context)
    assert resolved["sequence"] is other
    for ref in ("other", "Query", ""):
        resp = invoke(echo_registry(), call("echo", {"sequence_ref": ref}), context)
        assert resp.payload["error_kind"] == "unknown_reference", ref


def test_min_seq_id_outside_unit_interval_is_invalid_arguments(registry, mscl_seq):
    for min_seq_id in (5, -3, 1.0001, -0.5, 10**400):
        context = SessionContext(query_sequence=mscl_seq)
        arguments = {"sequence_ref": "query", "min_seq_id": min_seq_id}
        resp = invoke(registry, call("mmseqs2_besthit_uniprot", arguments), context)
        assert resp.payload["error_kind"] == "invalid_arguments", min_seq_id
        assert "min_seq_id" in resp.payload["message"]
    for min_seq_id in (0, 1):
        arguments = {"sequence_ref": "query", "min_seq_id": min_seq_id}
        assert invoke(registry, call("mmseqs2_besthit_uniprot", arguments), ctx()).ok


# JSON values of every kind, and the non-finite floats a lenient parser lets through.
NON_STRINGS = [["query"], {"ref": "query"}, None, True, False, float("nan"), float("inf"), 0, 0.5, 10**400]
NON_NUMBERS = [["query"], {"ref": "query"}, None, True, False, float("nan"), float("-inf"), "query", ""]
WELL_TYPED = {"string": ["query", ""], "number": [0, 0.5, 10**400]}


def test_mistyped_arguments_are_envelopes_never_raises(registry, mscl_seq):
    checked = 0
    for name in registry.names():
        parameters = registry.get(name).parameters
        for param, spec in parameters.items():
            refused = NON_STRINGS if spec.type == "string" else NON_NUMBERS
            for value in refused + WELL_TYPED[spec.type]:
                arguments = {"sequence_ref": "query"} if "sequence_ref" in parameters else {}
                if param == "sequence":
                    del arguments["sequence_ref"]
                arguments[param] = value
                resp = invoke(registry, call(name, arguments), SessionContext(query_sequence=mscl_seq))
                if any(value is v for v in refused):
                    assert resp.payload["error_kind"] == "invalid_arguments", (name, param, value)
                    assert repr(param) in resp.payload["message"]
                    checked += 1
    # Nine string parameters (two per evidence tool, python_eval's code) and min_seq_id.
    assert checked == 9 * len(NON_STRINGS) + len(NON_NUMBERS)


def test_unhashable_values_outside_the_schema_are_envelopes(registry):
    assert invoke(registry, call(["echo"], {}), ctx()).payload["error_kind"] == "unknown_tool"
    resp = invoke(registry, call("python_eval", {"sequence_ref": ["query"]}), ctx())
    assert resp.payload["error_kind"] == "invalid_arguments"
    assert "'sequence_ref'" in resp.payload["message"]


def test_param_spec_rejects_unknown_types():
    with pytest.raises(ValueError, match="integer"):
        ParamSpec("integer")
