import json
import os

import pytest
from click.testing import CliRunner

from conftest import MSCL_RESIDUES, data_path
from protagent.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def store_args():
    return [
        "--store-fasta", data_path("store.fasta"),
        "--store-annotations", data_path("store.annotations.jsonl"),
        "--hmm-library", data_path("toy.hmm"),
    ]


def test_tools_run_props(runner):
    result = runner.invoke(
        main, ["tools", "run", "seq_basic_props", "--sequence", MSCL_RESIDUES] + store_args()
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["length"] == 117
    assert payload["hydrophobic_run_max"] == 12


def test_tools_run_unknown_tool_fails(runner):
    result = runner.invoke(main, ["tools", "run", "nope", "--sequence", "MLKV"] + store_args())
    assert result.exit_code == 1
    assert json.loads(result.output)["error_kind"] == "unknown_tool"


def test_tools_run_homology(runner):
    result = runner.invoke(
        main,
        ["tools", "run", "mmseqs2_besthit_uniprot", "--sequence", MSCL_RESIDUES, "--min-seq-id", "0.3"]
        + store_args(),
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["best_hit"]["target"] == "Q4L656"


def test_ask_with_scripted_backend(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "ask",
            "--question", "What does this protein do?",
            "--sequence", MSCL_RESIDUES,
            "--paradigm", "tool_agent",
            "--backend", "scripted",
            "--script", data_path("replay.jsonl"),
            "--run-dir", str(tmp_path),
        ]
        + store_args(),
    )
    assert result.exit_code == 0, result.output
    assert "stop_reason: answer_found" in result.output
    assert "tool_calls_made: 4" in result.output
    assert "large-conductance mechanosensitive channel" in result.output
    trace_path = tmp_path / "traces" / "ask.json"
    assert trace_path.exists()
    trace = json.loads(trace_path.read_text())
    assert trace["paradigm"] == "tool_agent"
    assert len(trace["audit"]) == 4


def test_ask_requires_sequence(runner):
    result = runner.invoke(
        main,
        ["ask", "--question", "Q?", "--backend", "scripted", "--script", data_path("replay.jsonl")],
    )
    assert result.exit_code != 0
    assert "sequence" in result.output


def test_ask_sequence_file(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "ask",
            "--question", "Q?",
            "--sequence-file", data_path("mscl.fasta"),
            "--paradigm", "direct",
            "--backend", "scripted",
            "--script", data_path("direct_replies.jsonl"),
            "--run-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "a membrane channel protein" in result.output


def test_bench_writes_reports(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "bench",
            "--paradigm", "tool_agent",
            "--cases", data_path("cases.jsonl"),
            "--backend", "scripted",
            "--script", data_path("replay.jsonl"),
            "--run-dir", str(tmp_path),
            "--workers", "2",
        ]
        + store_args(),
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["case_count"] == 3
    assert report["failure_count"] == 0
    assert (tmp_path / "report.txt").exists()
    for case_id in ("mscl-1", "toy-2", "toy-3"):
        assert (tmp_path / "traces" / f"{case_id}.json").exists()
    assert "Avg." in result.output


def test_bench_rag_paradigm(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "bench",
            "--paradigm", "rag",
            "--cases", data_path("cases.jsonl"),
            "--backend", "scripted",
            "--script", data_path("rag_replies.jsonl"),
            "--run-dir", str(tmp_path),
        ]
        + store_args(),
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(c["tool_calls_made"] == 0 for c in report["cases"])


def bench_args(cases, script, run_dir):
    return [
        "bench",
        "--paradigm", "tool_agent",
        "--cases", str(cases),
        "--backend", "scripted",
        "--script", str(script),
        "--run-dir", str(run_dir),
    ] + store_args()


def test_bench_rejects_duplicate_case_ids(runner, tmp_path):
    with open(data_path("cases.jsonl"), encoding="utf-8") as fh:
        first = fh.readline()
    cases = tmp_path / "dup.jsonl"
    cases.write_text(first + first)
    result = runner.invoke(main, bench_args(cases, data_path("replay.jsonl"), tmp_path / "run"))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert "duplicate case_id 'mscl-1'" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "run" / "report.json").exists()


def test_bench_rejects_malformed_script(runner, tmp_path):
    script = tmp_path / "script.jsonl"
    script.write_text('{"content": \n')
    result = runner.invoke(main, bench_args(data_path("cases.jsonl"), script, tmp_path / "run"))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "script line 1 is not valid JSON" in result.output


def test_bench_missing_cases_file(runner, tmp_path):
    result = runner.invoke(main, bench_args(tmp_path / "absent.jsonl", data_path("replay.jsonl"), tmp_path / "run"))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "absent.jsonl" in result.output


def test_index_build_and_reuse(runner, tmp_path):
    out = tmp_path / "store.json"
    result = runner.invoke(
        main,
        [
            "index", "build",
            "--fasta", data_path("store.fasta"),
            "--annotations", data_path("store.annotations.jsonl"),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "wrote 4 entries" in result.output
    result = runner.invoke(
        main,
        [
            "tools", "run", "mmseqs2_besthit_uniprot",
            "--sequence", MSCL_RESIDUES,
            "--store-json", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["best_hit"]["target"] == "Q4L656"


def test_trace_show(runner, tmp_path):
    runner.invoke(
        main,
        [
            "ask",
            "--question", "Q?",
            "--sequence", MSCL_RESIDUES,
            "--backend", "scripted",
            "--script", data_path("replay.jsonl"),
            "--run-dir", str(tmp_path),
        ]
        + store_args(),
    )
    result = runner.invoke(main, ["trace", "show", str(tmp_path / "traces" / "ask.json")])
    assert result.exit_code == 0, result.output
    assert "<|im_start|>user" in result.output
    assert "<tool_call>" in result.output
    assert "<tool_response>" in result.output


def test_trace_show_bad_path(runner):
    result = runner.invoke(main, ["trace", "show", "/no/such/file.json"])
    assert result.exit_code != 0


def test_trace_show_non_trace_is_a_message(runner, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    result = runner.invoke(main, ["trace", "show", str(path)])
    assert result.exit_code == 1
    assert "cannot read trace" in result.output and "is not a saved trace" in result.output


def test_synth_prompts(runner, tmp_path):
    out = tmp_path / "prompts.jsonl"
    result = runner.invoke(
        main,
        [
            "synth",
            "--cases", data_path("cases.jsonl"),
            "--out", str(out),
            "--backend", "scripted",
            "--script", data_path("direct_replies.jsonl"),
        ],
    )
    assert result.exit_code == 0, result.output
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 3
    assert all("prompt" in r and "completion" not in r for r in rows)


def test_synth_fill_with_scripted_backend(runner, tmp_path):
    out = tmp_path / "prompts.jsonl"
    result = runner.invoke(
        main,
        [
            "synth",
            "--cases", data_path("cases.jsonl"),
            "--out", str(out),
            "--fill",
            "--backend", "scripted",
            "--script", data_path("direct_replies.jsonl"),
        ],
    )
    assert result.exit_code == 0, result.output
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["case_id"] for r in rows] == ["mscl-1", "toy-2", "toy-3"]
    # One backend serves every case: its single scripted reply fills the
    # first row, and the exhausted script becomes a per-row error.
    assert rows[0]["completion"] == "Reasoning... <answer>a membrane channel protein</answer>"
    assert all("exhausted" in r["completion_error"] and "completion" not in r for r in rows[1:])


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "--cases", data_path("cases.jsonl"), "--out", "{tmp}/p.jsonl", "--fill",
         "--backend", "scripted", "--script", "{tmp}/absent.jsonl"],
        ["tools", "run", "seq_basic_props", "--sequence-file", "{tmp}/absent.jsonl"],
        ["index", "build", "--fasta", "{tmp}/absent.jsonl", "--annotations",
         data_path("store.annotations.jsonl"), "--out", "{tmp}/store.json"],
    ],
    ids=["synth-script", "tools-run-sequence-file", "index-build-fasta"],
)
def test_missing_input_file_is_a_message(runner, tmp_path, args):
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert "absent.jsonl" in result.output


def test_synth_out_into_missing_directory_is_a_message(runner, tmp_path):
    out = tmp_path / "absent" / "p.jsonl"
    result = runner.invoke(main, ["synth", "--cases", data_path("cases.jsonl"), "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert str(out) in result.output


def test_config_file_and_override(runner, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "backend = scripted\n"
        f"script = {data_path('direct_replies.jsonl')}\n"
        "max_turns = 3  # comment\n"
    )
    result = runner.invoke(
        main,
        [
            "ask",
            "--question", "Q?",
            "--sequence", "MLKV",
            "--paradigm", "direct",
            "--config", str(cfg),
            "--run-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output


def test_config_unknown_key_rejected(runner, tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("bogus = 1\n")
    result = runner.invoke(main, ["ask", "--question", "Q?", "--sequence", "ML", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "bogus" in result.output


def test_remote_backend_requires_api_key_env(runner, monkeypatch):
    monkeypatch.delenv("PROTAGENT_API_KEY", raising=False)
    result = runner.invoke(
        main,
        [
            "ask",
            "--question", "Q?",
            "--sequence", "MLKV",
            "--backend", "remote",
            "--endpoint", "http://localhost:1/v1/chat/completions",
            "--model", "m",
        ],
    )
    assert result.exit_code != 0
    assert "PROTAGENT_API_KEY" in result.output
