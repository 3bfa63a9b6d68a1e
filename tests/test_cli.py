import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MSCL_RESIDUES, data_path
from protagent import cli
from protagent.cli import main
from protagent.errors import SchemaError


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


def test_bench_rejects_lone_surrogate_before_any_session(runner, tmp_path):
    with open(data_path("cases.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    rows[1]["question"] = "What \ud800?"
    cases = tmp_path / "cases.jsonl"
    cases.write_text("".join(json.dumps(row) + "\n" for row in rows))  # the surrogate as its escape
    result = runner.invoke(main, bench_args(cases, data_path("replay.jsonl"), tmp_path / "run"))
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert "benchmark line 2: lone surrogate '\\ud800'" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "run" / "traces").exists()
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


@pytest.mark.parametrize("command", ["ask", "bench"])
def test_run_dir_that_is_a_file_fails_before_any_session(runner, tmp_path, monkeypatch, command):
    sessions = []
    monkeypatch.setattr("protagent.cli._run_session", lambda *args: sessions.append(args))
    run_file = tmp_path / "run"
    run_file.write_text("not a directory\n")
    args = {
        "ask": ["ask", "--question", "Q?", "--sequence", MSCL_RESIDUES],
        "bench": ["bench", "--cases", data_path("cases.jsonl")],
    }[command]
    result = runner.invoke(
        main,
        args + [
            "--paradigm", "direct",
            "--backend", "scripted",
            "--script", data_path("direct_replies.jsonl"),
            "--run-dir", str(run_file),
        ],
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert f"Error: [Errno 20] Not a directory: '{run_file / 'traces'}'" in result.output
    assert sessions == []
    assert run_file.read_text() == "not a directory\n"


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


def test_built_store_and_tool_payloads_match_pinned_files(runner, tmp_path):
    # The bytes that `index build` and each `tools run` write, as pinned in
    # tests/data/pinned; CI compares the console script's output to the same files.
    def pinned(name):
        with open(data_path(os.path.join("pinned", name)), encoding="utf-8") as fh:
            return fh.read()

    store = tmp_path / "store.json"
    args = ["--fasta", data_path("store.fasta"), "--annotations", data_path("store.annotations.jsonl")]
    assert runner.invoke(main, ["index", "build", *args, "--out", str(store)]).exit_code == 0
    assert store.read_text(encoding="utf-8") == pinned("store.json")
    for tool in ("seq_basic_props", "mmseqs2_besthit_uniprot", "pfam_hmmscan", "tmbed_predict"):
        result = runner.invoke(main, [
            "tools", "run", tool, "--sequence-file", data_path("mscl.fasta"),
            "--store-json", str(store), "--hmm-library", data_path("toy.hmm"),
        ])
        assert (tool, result.exit_code, result.output) == (tool, 0, pinned(f"{tool}.json"))


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
    assert f"Error: {path} is not a saved trace: TypeError: a trace must be a JSON object" in result.output
    assert result.output.count(str(path)) == 1


def test_trace_show_mistyped_messages_is_a_message(runner, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"session_id": "s", "created_at": "t", "paradigm": "direct", "messages": "ab"}))
    result = runner.invoke(main, ["trace", "show", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert f"Error: {path} is not a saved trace: TypeError: messages must be a list of objects" in result.output
    assert result.output.count(str(path)) == 1


def test_trace_show_mistyped_message_is_a_message(runner, tmp_path):
    path = tmp_path / "trace.json"
    messages = [{"role": "user", "content": "Q?"}, {"role": 7, "content": 5}]
    path.write_text(json.dumps({"session_id": "s", "created_at": "t", "paradigm": "direct", "messages": messages}))
    result = runner.invoke(main, ["trace", "show", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert f"Error: {path} is not a saved trace: role must be one of" in result.output
    assert result.output.count(str(path)) == 1


def test_trace_show_lone_surrogate_is_a_message(runner, tmp_path):
    path = tmp_path / "trace.json"
    messages = [{"role": "user", "content": "What \ud800?"}]
    path.write_text(json.dumps({"session_id": "s", "created_at": "t", "paradigm": "direct", "messages": messages}))
    result = runner.invoke(main, ["trace", "show", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert f"Error: {path}: lone surrogate" in result.output and result.output.count(str(path)) == 1


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


@pytest.mark.parametrize(
    "args",
    [
        ["tools", "run", "seq_basic_props", "--sequence-file", "{bad}"],
        ["tools", "run", "mmseqs2_besthit_uniprot", "--sequence", MSCL_RESIDUES, "--store-json", "{bad}"],
        ["tools", "run", "pfam_hmmscan", "--sequence", MSCL_RESIDUES, "--hmm-library", "{bad}"],
        ["ask", "--question", "Q?", "--sequence", MSCL_RESIDUES, "--config", "{bad}"],
        bench_args("{bad}", data_path("replay.jsonl"), "{tmp}/run"),
        bench_args(data_path("cases.jsonl"), "{bad}", "{tmp}/run"),
        ["index", "build", "--fasta", "{bad}", "--annotations", data_path("store.annotations.jsonl"),
         "--out", "{tmp}/store.json"],
        ["index", "build", "--fasta", data_path("store.fasta"), "--annotations", "{bad}", "--out", "{tmp}/store.json"],
        ["synth", "--cases", "{bad}", "--out", "{tmp}/p.jsonl"],
    ],
    ids=["sequence-file", "store-json", "hmm-library", "config", "bench-cases", "bench-script", "fasta",
         "annotations", "synth-cases"],
)
def test_non_utf8_input_file_is_a_message(runner, tmp_path, args):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe>q\nMLKV\n")
    result = runner.invoke(main, [a.format(tmp=tmp_path, bad=bad) for a in args])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception  # a message, not a traceback
    assert f"{bad} is not UTF-8 text" in result.output


@pytest.mark.parametrize(
    "args, text, message",
    [
        (["tools", "run", "seq_basic_props", "--sequence-file", "{bad}"], "MLKV\n",
         "sequence data before any header at line 1"),
        (["tools", "run", "pfam_hmmscan", "--sequence", MSCL_RESIDUES, "--hmm-library", "{bad}"], "WHAT IS THIS\n",
         "expected record header at line 1"),
        (["index", "build", "--fasta", "{bad}", "--annotations", data_path("store.annotations.jsonl"),
          "--out", "{tmp}/store.json"], ">A1\nML1V\n", "invalid residue '1' at line 2"),
        (["tools", "run", "seq_basic_props", "--sequence-file", "{bad}"], ">q1\nMLKV\n\n>q1 again\nWY\n",
         "line 4: duplicate id 'q1' (first on line 1)"),
        (["tools", "run", "pfam_hmmscan", "--sequence", MSCL_RESIDUES, "--hmm-library", "{bad}"],
         "HMMER3/f x\nNAME  A\nNAME  B\n", "line 3: duplicate header key 'NAME' (first on line 2)"),
    ],
    ids=["sequence-file", "hmm-library", "index-build-fasta", "sequence-file-repeated-id",
         "hmm-library-repeated-key"],
)
def test_malformed_text_input_names_the_file(runner, tmp_path, args, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    result = runner.invoke(main, [a.format(tmp=tmp_path, bad=bad) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception  # a message, not a traceback
    assert f"Error: {bad}: {message}" in result.output


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


def assert_error_message(result, text):
    """The CLI's error contract: `Error: <message>`, exit code 1, no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: ") and text in result.output, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["ask", "--question", "Q?", "--sequence", "MLKV", "--script", data_path("direct_replies.jsonl")],
        bench_args(data_path("cases.jsonl"), data_path("replay.jsonl"), "{tmp}/run"),
        ["tools", "run", "seq_basic_props", "--sequence", "MLKV"],
        ["synth", "--cases", data_path("cases.jsonl"), "--out", "{tmp}/p.jsonl"],
    ],
    ids=["ask", "bench", "tools-run", "synth"],
)
def test_every_command_checks_config_values(runner, tmp_path, args):
    cfg = tmp_path / "run.conf"
    cfg.write_text("workers = 0\n")
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args] + ["--config", str(cfg)])
    assert_error_message(result, "workers must be >= 1, got 0")
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ("backend = local\n", [], "backend must be 'remote' or 'scripted', got 'local'"),
        ("", ["--backend", "remote", "--model", "m"], "remote backend requires both endpoint and model"),
        ("", ["--backend", "scripted"], "scripted backend requires a script file"),
    ],
    ids=["unknown-backend", "remote-without-endpoint", "scripted-without-script"],
)
def test_backend_settings_are_checked_where_a_backend_is_built(runner, tmp_path, config, flags, message):
    cfg = tmp_path / "run.conf"
    cfg.write_text(config)
    args = ["ask", "--question", "Q?", "--sequence", "MLKV", "--config", str(cfg)] + flags
    assert_error_message(runner.invoke(main, args), message)
    # A command that builds no backend does not read these settings.
    result = runner.invoke(main, ["tools", "run", "seq_basic_props", "--sequence", "MLKV", "--config", str(cfg)])
    assert result.exit_code == 0, result.output


def test_bench_unscorable_reference_is_a_message_before_any_session(runner, tmp_path):
    with open(data_path("cases.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    rows[1]["reference_answer"] = "蛋白质"
    cases = tmp_path / "cases.jsonl"
    cases.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    result = runner.invoke(main, bench_args(cases, data_path("replay.jsonl"), tmp_path / "run"))
    assert_error_message(result, "benchmark line 2: case 'toy-2': reference_answer has no word ROUGE can score")
    assert not (tmp_path / "run" / "traces").exists()


def test_ask_trace_path_that_is_a_directory_is_a_message(runner, tmp_path):
    (tmp_path / "traces" / "ask.json").mkdir(parents=True)
    result = runner.invoke(
        main,
        [
            "ask",
            "--question", "Q?",
            "--sequence", MSCL_RESIDUES,
            "--paradigm", "direct",
            "--backend", "scripted",
            "--script", data_path("direct_replies.jsonl"),
            "--run-dir", str(tmp_path),
        ],
    )
    assert_error_message(result, f"Is a directory: '{tmp_path / 'traces' / 'ask.json'}'")


def test_bench_report_path_that_is_a_directory_is_a_message(runner, tmp_path):
    run = tmp_path / "run"
    (run / "report.json").mkdir(parents=True)
    result = runner.invoke(main, bench_args(data_path("cases.jsonl"), data_path("replay.jsonl"), run))
    assert_error_message(result, f"Is a directory: '{run / 'report.json'}'")
    for case_id in ("mscl-1", "toy-2", "toy-3"):
        assert (run / "traces" / f"{case_id}.json").exists()


def test_bench_failing_case_leaves_the_other_traces(runner, tmp_path, monkeypatch):
    # The first case fails inside its session; with one worker the other two
    # still run after it, and each trace is written when its session ends.
    run_session = cli._run_session

    def fail_first_case(*args):
        if args[-1] == "mscl-1":
            raise SchemaError("session for mscl-1 failed")
        return run_session(*args)

    monkeypatch.setattr("protagent.cli._run_session", fail_first_case)
    run = tmp_path / "run"
    args = bench_args(data_path("cases.jsonl"), data_path("replay.jsonl"), run) + ["--workers", "1"]
    result = runner.invoke(main, args)
    assert_error_message(result, "session for mscl-1 failed")
    assert sorted(os.listdir(run / "traces")) == ["toy-2.json", "toy-3.json"]
    assert not (run / "report.json").exists()


# --- every file input, fuzzed: a click message or success, never a traceback --

FUZZ = settings(max_examples=25, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A scratch directory holding a valid file for each input: the bundled
    data, plus a built store, a trace and a config file made here."""
    d = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    store = str(d / "store.json")
    runner.invoke(main, ["index", "build", "--fasta", data_path("store.fasta"),
                         "--annotations", data_path("store.annotations.jsonl"), "--out", store])
    runner.invoke(main, ["ask", "--question", "Q?", "--sequence", MSCL_RESIDUES, "--backend", "scripted",
                         "--script", data_path("replay.jsonl"), "--store-json", store,
                         "--hmm-library", data_path("toy.hmm"), "--run-dir", str(d / "ask")])
    (d / "run.conf").write_text("max_turns = 4\ntool_budget = 3\nworkers = 2\n")
    return d


def chunk(max_size: int):
    """Any bytes, or the UTF-8 bytes of any text."""
    return st.binary(max_size=max_size) | st.text(max_size=max_size).map(str.encode)


def fuzzed(valid: bytes):
    """Bytes of an input file: arbitrary ones, or the valid file with one
    slice replaced by arbitrary bytes (which may cut it short)."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 24), chunk(8))
    return chunk(48) | edit.map(lambda e: valid[: e[0]] + e[2] + valid[e[0] + e[1]:])


@pytest.mark.parametrize(
    "target",
    ["bench --cases", "bench --script", "bench --store-json", "bench --hmm-library", "bench --config",
     "trace show", "index build --fasta"],
)
@FUZZ
@given(data=st.data())
def test_fuzzed_input_file_is_never_a_traceback(fuzz_dir, target, data):
    d = fuzz_dir
    bad = str(d / "input")
    if target.startswith("bench"):
        files = {
            "--cases": data_path("cases.jsonl"),
            "--script": data_path("replay.jsonl"),
            "--store-json": str(d / "store.json"),
            "--hmm-library": data_path("toy.hmm"),
            "--config": str(d / "run.conf"),
        }
        option = target.split()[1]
        valid, files[option] = files[option], bad
        args = ["bench", "--paradigm", "tool_agent", "--backend", "scripted", "--run-dir", str(d / "run")]
        args += [a for option_file in files.items() for a in option_file]
    elif target == "trace show":
        valid = str(d / "ask" / "traces" / "ask.json")
        args = ["trace", "show", bad]
    else:
        valid = data_path("store.fasta")
        args = ["index", "build", "--fasta", bad, "--annotations", data_path("store.annotations.jsonl"),
                "--out", str(d / "built.json")]
    with open(valid, "rb") as fh:
        content = data.draw(fuzzed(fh.read()), label="content")
    with open(bad, "wb") as fh:
        fh.write(content)
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
