"""The `protagent bench` pipeline, timed: set-up, sessions, traces, report.

`set_up` does what `bench` does before its first session (load the store,
build the index, parse the profile library, build the registry, load the
cases). `batches` splits the cases into bench runs of near-equal work.
`run_pass` runs the cases of one batch, one session at a time, then writes
their traces, scores them and writes the report, as `bench` does.
`check_session` compares a session's outcome with what the generator
planted; `checked_pass` runs one batch in a fresh run directory and checks
every session and the output digest. `sample_setups` times set-ups.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

from protagent import agent, domains, evaluation, executor, homology
from protagent.backends import ChatMessage, DecodingParams, ScriptedBackend
from protagent.executor import SessionLimits, ToolCall

from workloads import Session, Workload

FIXED_NOW = "2026-01-01T00:00:00+00:00"
DECODING = DecodingParams()

# setup_s is the median of set-ups sampled in two windows, before and after
# the batches, each lasting at least 2 s (at most 100 set-ups): the machine's
# speed drifts over seconds, and one short window would catch a single fast
# or slow moment. An expensive set-up still runs at least 3 times in all.
SETUP_WINDOW_S = 2.0
SETUP_WINDOW_MAX = 100

# Every timed set-up and batch starts right after a full collection, so the
# collector's state left by earlier work (how full each generation is) does
# not decide where its next full pass falls. Forty set-ups of
# tool_agent_domains in one process took 31-98 ms without it, 41-68 ms with
# it (2-vCPU Xeon virtual machine).

# The cases are run as this many bench runs (batches) of equal size, so a
# run's length is set by --seconds to within one batch (a few seconds), not
# one whole pass over the cases.
BATCHES = 10


def _now() -> str:
    return FIXED_NOW


def _timer() -> float:
    return 0.0


@dataclass
class Setup:
    registry: executor.ToolRegistry
    cases: list[evaluation.QaCase]


def set_up(wl: Workload) -> Setup:
    entries = None
    if wl.store_json:
        entries = homology.load_built_store(wl.store_json)
    elif wl.store_fasta:
        entries = homology.load_reference_store(wl.store_fasta, wl.store_annotations)
    index = annotations = library = None
    if entries is not None:
        index = homology.build_index(entries)
        annotations = {e.accession: e.annotation for e in entries}
    if wl.hmm_library:
        with open(wl.hmm_library, encoding="utf-8") as fh:
            library = domains.parse_hmm_library(fh.read())
    registry = executor.build_standard_registry(index=index, annotations=annotations, hmm_library=library)
    return Setup(registry, evaluation.load_benchmark(wl.cases_path))


def sample_setups(wl: Workload, samples: list[float], fewest: int) -> Setup:
    """Time set-ups into `samples` for one window; returns the last set-up."""
    start = len(samples)
    while True:
        setup = None  # release the previous index before building the next
        gc.collect()
        t0 = time.perf_counter()
        setup = set_up(wl)
        samples.append(time.perf_counter() - t0)
        taken = samples[start:]
        if len(taken) >= fewest and (sum(taken) >= SETUP_WINDOW_S or len(taken) >= SETUP_WINDOW_MAX):
            return setup


def batches(cases: list[evaluation.QaCase], count: int = BATCHES) -> list[list[evaluation.QaCase]]:
    """`count` batches of near-equal work: the cases, ranked by sequence
    length, are dealt out forwards and backwards in turn, and each batch
    keeps the cases' order."""
    ranked = sorted(range(len(cases)), key=lambda i: (len(cases[i].sequence), i))
    count = min(count, len(cases))
    dealt: list[list[int]] = [[] for _ in range(count)]
    for position, i in enumerate(ranked):
        turn, seat = divmod(position, count)
        dealt[seat if turn % 2 == 0 else count - 1 - seat].append(i)
    return [[cases[i] for i in sorted(batch)] for batch in dealt]


def scripted_turns(session: Session) -> list[ChatMessage]:
    return [
        ChatMessage(
            role="assistant",
            content=turn["content"],
            tool_calls=tuple(ToolCall(**call) for call in turn["tool_calls"]) or None,
        )
        for turn in session.turns
    ]


@dataclass
class PassResult:
    results: dict[str, agent.SessionResult]
    raised: dict[str, str]  # case_id -> exception text
    session_s: list[float]
    wall_s: float


def _run_session(wl: Workload, setup: Setup, case: evaluation.QaCase, turns: list[ChatMessage]):
    backend = ScriptedBackend(turns=turns)
    if wl.paradigm == "rag":
        return agent.run_rag(backend, setup.registry, case.question, case.sequence, DECODING,
                             session_id=case.case_id, now=_now, timer=_timer)
    return agent.run_tool_agent(backend, setup.registry, case.question, case.sequence, DECODING,
                                limits=SessionLimits(max_calls=wl.tool_budget),
                                session_id=case.case_id, now=_now, timer=_timer)


def run_pass(wl: Workload, setup: Setup, cases: list[evaluation.QaCase], turns: dict[str, list[ChatMessage]],
             run_dir: str) -> PassResult:
    """One bench run over `cases`; only the bench work is inside `wall_s`."""
    traces_dir = os.path.join(run_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    results, raised, session_s = {}, {}, []
    gc.collect()
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            results[case.case_id] = _run_session(wl, setup, case, turns[case.case_id])
        except Exception as exc:  # a raising session is a failed session, not a failed run
            raised[case.case_id] = f"{type(exc).__name__}: {exc}"
        session_s.append(time.perf_counter() - t0)
    for case_id, result in results.items():
        agent.save_trace(result.trace, os.path.join(traces_dir, f"{case_id}.json"))
    report = evaluation.evaluate_run([c for c in cases if c.case_id in results], results)
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    with open(os.path.join(run_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(evaluation.render_report(report))
    return PassResult(results, raised, session_s, time.perf_counter() - start)


def _audit(result: agent.SessionResult, tool: str) -> dict | None:
    for entry in result.trace.audit:
        if entry["call"]["name"] == tool:
            return entry["response"]["payload"]
    return None


def check_session(truth: Session, result: agent.SessionResult) -> str | None:
    """Why the session failed against its planted truth, or None if it did not."""
    if result.stop_reason != truth.expected_stop:
        return f"stopped on {result.stop_reason}, script implies {truth.expected_stop}"
    errors = {
        entry["call"]["call_id"]: entry["response"]["payload"]["error_kind"]
        for entry in result.trace.audit
        if not entry["response"]["ok"]
    }
    if errors != truth.expected_errors:
        return f"error envelopes {errors}, scripted {truth.expected_errors}"
    if truth.homolog is not None:
        payload = _audit(result, "mmseqs2_besthit_uniprot")
        target = (payload or {}).get("best_hit") and payload["best_hit"]["target"]
        if target != truth.homolog:
            return f"best hit {target}, planted homolog {truth.homolog}"
    if truth.domains:
        selected = (_audit(result, "pfam_hmmscan") or {}).get("selected_domains", [])
        for name, lo, hi in truth.domains:
            if not any(h["pfam_id"] == name and h["ali_from"] <= hi and lo <= h["ali_to"] for h in selected):
                return f"planted domain {name} {lo}-{hi} not selected"
    return None


def output_digest(run_dir: str) -> str:
    """SHA-256 over every written trace and report.json, names included."""
    digest = hashlib.sha256()
    traces_dir = os.path.join(run_dir, "traces")
    paths = [os.path.join(traces_dir, name) for name in sorted(os.listdir(traces_dir))]
    for path in paths + [os.path.join(run_dir, "report.json")]:
        digest.update(os.path.relpath(path, run_dir).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def checked_pass(wl: Workload, setup: Setup, cases: list[evaluation.QaCase], turns: dict[str, list[ChatMessage]],
                 truths: dict[str, Session], workdir: str) -> tuple[list[float], float, list[str], str]:
    """One batch in a fresh run directory, as each `bench` run has. Returns
    the session times, the batch wall time, a line per failed session and
    the output digest; the session results are dropped."""
    run_dir = os.path.join(workdir, "run")
    result = run_pass(wl, setup, cases, turns, run_dir)
    failed = [f"{case_id}: raised {text}" for case_id, text in result.raised.items()]
    for case_id, session in result.results.items():
        reason = check_session(truths[case_id], session)
        if reason is not None:
            failed.append(f"{case_id}: {reason}")
    digest = output_digest(run_dir)
    shutil.rmtree(run_dir)
    return result.session_s, result.wall_s, failed, digest
