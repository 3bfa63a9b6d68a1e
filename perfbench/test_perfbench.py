"""Self-test of the benchmark on scaled-down workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.02


def _main(capsys, workload, seed=3, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                    scale=SCALE)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def _digest(lines):
    return next(line for line in lines if line.startswith("digest:"))


def test_benchmark_json_matches_the_code():
    assert all(workloads.WHY[w["name"]] == w["why"] for w in BENCHMARK["workloads"])
    assert list(workloads.WHY) == list(workloads.GENERATORS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert max(BENCHMARK["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_generation_is_deterministic_per_seed(tmp_path, workload):
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / label).mkdir()
        made[label] = workloads.GENERATORS[workload](seed, str(tmp_path / label), SCALE)
    names = sorted(os.listdir(tmp_path / "a"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert match == names and not mismatch and not errors
    assert made["a"].sessions == made["b"].sessions
    assert made["a"].sessions != made["c"].sessions
    assert not filecmp.cmp(tmp_path / "a" / "cases.jsonl", tmp_path / "c" / "cases.jsonl", shallow=False)


def test_light_scripts_plant_deliberate_envelopes(tmp_path):
    wl = workloads.tool_agent_light(2, str(tmp_path), SCALE)
    kinds = [sorted(set(s.expected_errors.values())) for s in wl.sessions]
    assert all("unknown_reference" in k for k in kinds)
    over = [s for s in wl.sessions if s.expected_stop == "budget_exhausted"]
    assert len(over) == len(wl.sessions) // 10
    assert all("budget_exhausted" in s.expected_errors.values() for s in over)


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_end_to_end_run_finds_planted_truths_and_prints_every_metric(capsys, workload):
    lines, result = _main(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split() == ["failed_ratio", "0", "1"] for line in lines)


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_traced_run_prints_every_layer_metric_and_keeps_outputs(capsys, workload):
    untraced_lines, _ = _main(capsys, workload, seed=4)
    lines, result = _main(capsys, workload, seed=4, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _digest(lines) == _digest(untraced_lines)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["executor.calls"] > 0 and metrics["agent.save_trace_ms.n"] > 0
    if workload != "tool_agent_light":
        assert metrics["homology.search_ms.n"] > 0 and metrics["domains.viterbi_ms.n"] > 0
        assert metrics["homology.build_index_s"] > 0
    else:
        assert metrics["executor.errors.unknown_reference"] > 0
        assert metrics["executor.errors.budget_exhausted"] > 0


def test_same_seed_prints_same_digest_and_other_seed_another(capsys):
    first, _ = _main(capsys, "tool_agent_light", seed=8)
    second, _ = _main(capsys, "tool_agent_light", seed=8)
    other, _ = _main(capsys, "tool_agent_light", seed=9)
    assert _digest(first) == _digest(second) != _digest(other)


def test_checks_flag_outcomes_that_miss_the_planted_truth(tmp_path):
    wl = workloads.rag_homology(1, str(tmp_path), SCALE)
    setup = pipeline.set_up(wl)
    turns = {s.case_id: pipeline.scripted_turns(s) for s in wl.sessions}
    result = pipeline.run_pass(wl, setup, setup.cases, turns, str(tmp_path / "run"))
    truth = next(s for s in wl.sessions if s.homolog is not None)
    session = result.results[truth.case_id]
    assert pipeline.check_session(truth, session) is None
    wrong = workloads.Session(truth.case_id, truth.turns, truth.expected_stop, homolog="PB999999")
    assert "planted homolog" in pipeline.check_session(wrong, session)
    wrong = workloads.Session(truth.case_id, truth.turns, "budget_exhausted", homolog=truth.homolog)
    assert "script implies" in pipeline.check_session(wrong, session)
    wrong = workloads.Session(truth.case_id, truth.turns, truth.expected_stop, domains=(("PBD009", 1, 20),))
    assert "not selected" in pipeline.check_session(wrong, session)


def test_probe_samples_the_kernel_and_ends_its_process():
    with probe.Probe() as speed:
        speed.sample()
        speed.sample()
    assert speed.proc.returncode == 0
    assert len(speed.samples) == 2 and speed.slowness() > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tool_agent_light", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
