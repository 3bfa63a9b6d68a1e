import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path
from oracles import recursive_lcs
from protagent.agent import ConversationTrace, SessionResult
from protagent.errors import SchemaError
from protagent.evaluation import (
    evaluate_run,
    lcs_length,
    load_benchmark,
    render_report,
    rouge1_recall,
    rougeL_recall,
    synth_cold_start_prompt,
    tokenize,
)

token_st = st.sampled_from(["alpha", "beta", "gamma"])
tokens_st = st.lists(token_st, min_size=0, max_size=8)
text_pair_st = st.tuples(
    st.lists(token_st, min_size=1, max_size=8).map(" ".join),
    tokens_st.map(" ".join),
)


def result(answer, stop="answer_found"):
    trace = ConversationTrace(session_id="s", created_at="t", paradigm="direct", messages=(), audit=())
    return SessionResult(
        trace=trace,
        final_answer=answer,
        stop_reason=stop if answer is not None else "max_turns",
        tool_calls_made=0,
    )


# --- tokenization and metrics -----------------------------------------------


def test_tokenize_lowercases_and_splits_on_punctuation():
    assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]
    assert tokenize("EC 1.2.3.4") == ["ec", "1", "2", "3", "4"]
    assert tokenize("...") == []


def test_rouge1_clipped_counts():
    # 'the' appears once in the reference, so repeating it is not rewarded
    assert rouge1_recall("the cat sat", "the the the") == pytest.approx(1 / 3)
    assert rouge1_recall("the cat sat", "sat cat the") == pytest.approx(1.0)
    assert rouge1_recall("the cat sat", "dog") == 0.0


def test_rougeL_order_sensitive():
    assert rougeL_recall("a b c d", "a b c d") == pytest.approx(1.0)
    assert rougeL_recall("a b c d", "d c b a") == pytest.approx(1 / 4)
    assert rougeL_recall("a b c d", "a x b x d") == pytest.approx(3 / 4)


def test_empty_reference_rejected():
    with pytest.raises(SchemaError, match="reference tokenizes to nothing"):
        rouge1_recall("!!!", "anything")
    with pytest.raises(SchemaError, match="reference tokenizes to nothing"):
        rougeL_recall("", "anything")


def test_empty_prediction_scores_zero():
    assert rouge1_recall("the cat", "") == 0.0
    assert rougeL_recall("the cat", "") == 0.0


@given(tokens_st, tokens_st)
def test_lcs_matches_recursive_oracle(a, b):
    assert lcs_length(a, b) == recursive_lcs(tuple(a), tuple(b))


@given(text_pair_st)
def test_rougeL_never_exceeds_rouge1(pair):
    ref, pred = pair
    assert rougeL_recall(ref, pred) <= rouge1_recall(ref, pred) + 1e-12


@given(st.lists(token_st, min_size=1, max_size=8).map(" ".join))
def test_identity_scores_one(ref):
    assert rouge1_recall(ref, ref) == pytest.approx(1.0)
    assert rougeL_recall(ref, ref) == pytest.approx(1.0)


@given(text_pair_st, tokens_st.map(" ".join))
@settings(max_examples=200)
def test_appending_text_never_lowers_recall(pair, junk):
    ref, pred = pair
    longer = (pred + " " + junk).strip()
    assert rouge1_recall(ref, longer) >= rouge1_recall(ref, pred) - 1e-12
    assert rougeL_recall(ref, longer) >= rougeL_recall(ref, pred) - 1e-12


# --- benchmark loading ------------------------------------------------------


def test_load_bundled_benchmark():
    cases = load_benchmark(data_path("cases.jsonl"))
    assert [c.case_id for c in cases] == ["mscl-1", "toy-2", "toy-3"]
    assert cases[0].task == "general_function"
    assert cases[0].sequence.length == 117


def test_load_benchmark_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"case_id": "x", "task": "t"}) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_benchmark(str(path))
    assert "line 1" in str(exc.value)


def test_case_requires_reference(tmp_path):
    # A reference with no [a-z0-9]+ token cannot be scored by ROUGE, so it is
    # refused when the file is read, before any session runs.
    path = tmp_path / "bad.jsonl"
    for reference in ("", "蛋白质", "—"):
        row = {"case_id": "x", "task": "t", "question": "q", "sequence": "ML", "reference_answer": reference}
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="benchmark line 1: .*reference_answer has no word ROUGE can score"):
            load_benchmark(str(path))


def case_row(case_id):
    return {"case_id": case_id, "task": "t", "question": "q", "sequence": "MLKV", "reference_answer": "r"}


def test_load_benchmark_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(case_row("a")) + "\n\n" + '{"case_id": "b", "task": \n')
    with pytest.raises(SchemaError) as exc:
        load_benchmark(str(path))
    assert "line 3" in str(exc.value)
    assert "not valid JSON" in str(exc.value)


def test_load_benchmark_rejects_non_object_line_and_non_string_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in ("[1, 2]", json.dumps({**case_row("a"), "case_id": 5})):
        path.write_text(line + "\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_benchmark(str(path))


def test_load_benchmark_rejects_duplicate_case_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    rows = [case_row("a"), case_row("b"), case_row("a")]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(SchemaError) as exc:
        load_benchmark(str(path))
    message = str(exc.value)
    assert "'a'" in message
    assert "line 3" in message and "line 1" in message


def test_load_benchmark_rejects_key_repeated_within_a_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps(case_row("a"))[:-1] + ', "reference_answer": "wrong"}'
    path.write_text(json.dumps(case_row("b")) + "\n" + line + "\n")
    with pytest.raises(SchemaError, match=r"benchmark line 2: duplicate key 'reference_answer' \(first at key 5\)"):
        load_benchmark(str(path))


def test_load_benchmark_rejects_unsafe_case_ids(tmp_path):
    path = tmp_path / "bad.jsonl"
    for case_id in ("", ".", "..", "../../escaped", "a/b", "a\\b", "a\0b"):
        path.write_text(json.dumps(case_row("ok")) + "\n" + json.dumps(case_row(case_id)) + "\n")
        with pytest.raises(SchemaError, match="line 2.*not a safe file name"):
            load_benchmark(str(path))
    path.write_text("".join(json.dumps(case_row(c)) + "\n" for c in ("mscl-1", "rag-0001", "dom-0001")))
    assert [c.case_id for c in load_benchmark(str(path))] == ["mscl-1", "rag-0001", "dom-0001"]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("task", 5, "task missing or not strings"),
        ("sequence", 5, "sequence missing or not strings"),
        ("reference_answer", 5, "reference_answer missing or not strings"),
        ("question", None, "question missing or not strings"),
        ("case_id", "a b", "sequence id must be nonempty without whitespace"),
        ("sequence", "MLBV", "invalid residue 'B'"),
    ],
)
def test_load_benchmark_rejects_bad_field_naming_line(tmp_path, field, value, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(case_row("ok")) + "\n" + json.dumps({**case_row("x"), field: value}) + "\n")
    with pytest.raises(SchemaError, match=f"line 2: .*{message}"):
        load_benchmark(str(path))


# --- run scoring ------------------------------------------------------------


def test_evaluate_run_per_task_and_overall():
    cases = load_benchmark(data_path("cases.jsonl"))
    results = {
        "mscl-1": result("Channel that opens in response to stretch forces in the membrane lipid bilayer."),
        "toy-2": result(None),
        "toy-3": result("Toy kinase 2 (toy annotation)."),
    }
    report = evaluate_run(cases, results)
    assert report.case_count == 3
    assert report.failure_count == 1
    assert set(report.per_task) == {"general_function", "catalytic_activity"}
    assert report.per_task["catalytic_activity"]["rouge1"] == pytest.approx(1.0)
    # overall is the unweighted mean over tasks, not over cases
    expected = (report.per_task["general_function"]["rouge1"] + 1.0) / 2
    assert report.overall_rouge1 == pytest.approx(expected)


def test_evaluate_run_rejects_misaligned_results():
    cases = load_benchmark(data_path("cases.jsonl"))
    with pytest.raises(SchemaError, match="no session result for case 'mscl-1'"):
        evaluate_run(cases, {})
    full = {c.case_id: result("x y z") for c in cases}
    with pytest.raises(SchemaError, match=r"results for unknown case\(s\): ghost"):
        evaluate_run(cases, {**full, "ghost": result("a")})


def test_report_render_and_json():
    cases = load_benchmark(data_path("cases.jsonl"))
    results = {c.case_id: result("word") for c in cases}
    report = evaluate_run(cases, results)
    text = render_report(report)
    assert "Task" in text and "Avg." in text and "failures" in text
    payload = report.to_json()
    assert set(payload) == {"per_task", "overall", "case_count", "failure_count", "cases"}
    assert len(payload["cases"]) == 3


def test_synth_prompt_fills_slots():
    cases = load_benchmark(data_path("cases.jsonl"))
    prompt = synth_cold_start_prompt(cases[0])
    assert cases[0].question in prompt
    assert cases[0].sequence.residues in prompt
    assert cases[0].reference_answer in prompt
