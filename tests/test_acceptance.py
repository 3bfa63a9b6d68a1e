"""Acceptance gate: one test per release criterion.

Each criterion records a PASS/FAIL line that is echoed in the terminal
summary (see conftest.pytest_terminal_summary) and also printed inline.
"""

import itertools
import json
import random
import time

from conftest import data_path
from oracles import brute_viterbi_bits, gotoh_local_score, random_profile, recursive_lcs
from protagent import agent, domains, evaluation, homology, topology
from protagent.agent import RAG_TOOL_ORDER, render_payload, run_direct, run_rag, run_tool_agent
from protagent.backends import ChatMessage, ScriptedBackend
from protagent.executor import SessionContext, ToolCall, invoke
from protagent.props import compute_basic_props
from protagent.seq import CANONICAL_RESIDUES, Sequence

RESULTS = []


def check(label: str, ok: bool, detail: str = ""):
    RESULTS.append((label, ok))
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def fixed_now():
    return "2026-01-01T00:00:00+00:00"


def fixed_timer():
    counter = itertools.count()
    return lambda: next(counter) * 0.001


def random_residues(rng, lo, hi):
    return "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(rng.randint(lo, hi)))


# --- criterion 1: basic sequence properties ---------------------------------


def test_acceptance_basic_props(mscl_seq):
    payload = compute_basic_props(mscl_seq).to_payload()
    check(
        "props: channel sequence values",
        payload["length"] == 117
        and payload["hydrophobic_run_max"] == 12
        and abs(payload["low_complexity_index_0to1"] - 0.1171) < 0.05
        and payload["heuristics"] == {"looks_membrane_like": False, "looks_low_complexity_like": False},
        f"got {payload}",
    )
    best = float("inf")
    for _ in range(10):
        t0 = time.perf_counter()
        compute_basic_props(mscl_seq)
        best = min(best, time.perf_counter() - t0)
    check("props: sub-millisecond runtime", best < 1e-3, f"best of 10 runs: {best * 1e3:.3f} ms")


# --- criterion 2: homology search -------------------------------------------


def test_acceptance_homology_self_hit(store_index):
    mscl = store_index.entries[0].sequence
    hit = homology.search_best_hit(store_index, Sequence(id="query", residues=mscl.residues))
    check(
        "homology: self-query is a perfect hit",
        hit is not None and hit.target == "Q4L656" and hit.pident == 100.0 and hit.alnlen == 117,
        f"got {hit}",
    )


def test_acceptance_alignment_oracle():
    rng = random.Random(202)
    mismatches = 0
    for _ in range(200):
        a = random_residues(rng, 1, 40)
        b = random_residues(rng, 1, 40)
        aln = homology.smith_waterman(Sequence(id="a", residues=a), Sequence(id="b", residues=b))
        got = 0 if aln is None else aln.score
        if got != gotoh_local_score(a, b):
            mismatches += 1
    check("homology: 200 random alignments match the independent oracle", mismatches == 0,
          f"{mismatches} mismatches")


def test_acceptance_homology_determinism(store_index):
    rng = random.Random(7)
    mscl = store_index.entries[0].sequence.residues
    mutated = list(mscl)
    for pos in rng.sample(range(len(mutated)), 25):
        mutated[pos] = rng.choice(CANONICAL_RESIDUES)
    q = Sequence(id="query", residues="".join(mutated))
    reversed_index = homology.build_index(store_index.entries[::-1])
    payloads = {
        json.dumps(homology.search_best_hit(index, q).to_payload(), sort_keys=True)
        for index in [store_index] * 10 + [reversed_index]
    }
    check("homology: 10 repeats and a reversed-order index give byte-identical best hits",
          len(payloads) == 1, f"{len(payloads)} distinct payloads")


def test_acceptance_homology_store_scale(mscl_seq):
    rng = random.Random(99)
    entries = [
        homology.ReferenceEntry(
            accession=f"T{i:04d}",
            sequence=Sequence(id=f"T{i:04d}", residues=random_residues(rng, 60, 120)),
            annotation=homology.AnnotationRecord(accessions=(f"T{i:04d}",), protein_name=f"toy {i}"),
        )
        for i in range(999)
    ]
    entries.append(
        homology.ReferenceEntry(
            accession="Q4L656", sequence=Sequence(id="Q4L656", residues=mscl_seq.residues),
            annotation=homology.AnnotationRecord(accessions=("Q4L656",), protein_name="channel"),
        )
    )
    index = homology.build_index(entries)
    t0 = time.perf_counter()
    hit = homology.search_best_hit(index, mscl_seq)
    elapsed = time.perf_counter() - t0
    check("homology: search over a 1000-entry store finds the planted hit in <5s",
          hit is not None and hit.target == "Q4L656" and elapsed < 5.0,
          f"{elapsed:.2f}s, hit={hit and hit.target}")


# --- criterion 3: domain scan ------------------------------------------------


def test_acceptance_profile_round_trip(hmm_library):
    with open(data_path("toy.hmm"), encoding="utf-8") as fh:
        text = fh.read()
    reparsed = domains.parse_hmm_library(text)
    check(
        "domains: parse -> serialize -> parse is the identity on the bundled library",
        domains.write_hmm_library(reparsed) == text
        and domains.parse_hmm_library(domains.write_hmm_library(hmm_library)) == hmm_library,
    )


def test_acceptance_viterbi_oracle():
    rng = random.Random(404)
    worst = 0.0
    mismatched_none = 0
    for trial in range(100):
        hmm = random_profile(rng, f"A{trial}", rng.randint(1, 3))
        res = random_residues(rng, 1, 4)
        got = domains.viterbi_score(hmm, Sequence(id="t", residues=res))
        expected = brute_viterbi_bits(hmm, res)
        if (got is None) != (expected is None):
            mismatched_none += 1
        elif got is not None:
            worst = max(worst, abs(got[0] - expected))
    check("domains: 100 random models match brute-force enumeration within 1e-9",
          mismatched_none == 0 and worst < 1e-9,
          f"worst |delta|={worst:.2e}, hit/none disagreements={mismatched_none}")


def test_acceptance_domain_scan_selection(hmm_library, mscl_seq):
    result = domains.scan(hmm_library, mscl_seq)
    ranked = [h.pfam_id for h in result.hits]
    check(
        "domains: bundled-library scan ranks all five hits and selects only the channel family",
        ranked == ["MscL", "ToyDom4", "ToyDom2", "ToyDom1", "ToyDom3"]
        and [h.pfam_id for h in result.selected_domains] == ["MscL"]
        and result.hits[0].score == 473.1,
        f"ranked={ranked}, selected={[h.pfam_id for h in result.selected_domains]}",
    )


# --- criterion 4: topology prediction ----------------------------------------


def test_acceptance_topology_channel(mscl_seq):
    pred = topology.predict_topology(mscl_seq)
    check(
        "topology: channel sequence crosses the membrane-signal heuristic",
        pred.tm_signal_letter_hits >= 15 and pred.has_tm_signal_heuristic is True,
        f"{pred.tm_signal_letter_hits} strong-signal residues",
    )


def test_acceptance_topology_consistency():
    rng = random.Random(505)
    import re

    bad = kept = demoted = 0
    for i in range(1000):
        # 10 residues is the shortest the 19-residue window takes; every
        # other sequence gets a hydrophobic stretch, so runs to keep and to
        # demote both occur.
        res = random_residues(rng, 10, 120)
        if i % 2:
            cut = rng.randint(0, len(res))
            res = res[:cut] + "".join(rng.choice("AILMFVW") for _ in range(rng.randint(5, 25))) + res[cut:]
        s = Sequence(id="t", residues=res)
        pred = topology.predict_topology(s)
        lines = pred.raw_pred.splitlines()
        ok = (
            len(lines) == 3
            and lines[1] == res
            and len(lines[2]) == len(res)
            and set(lines[2]) <= {".", "H", "h"}
            and pred.tm_signal_letter_hits == lines[2].count("H")
            and all(m.end() - m.start() >= 7 for m in re.finditer(r"[Hh]+", lines[2]))
        )
        if not ok:
            bad += 1
        kept += "H" in lines[2] or "h" in lines[2]
        means = topology.window_means(s)
        demoted += any(m >= topology.DEFAULT_WEAK_THRESHOLD and c == "." for m, c in zip(means, lines[2]))
    check("topology: 1000 random sequences keep the output contract", bad == 0 and kept >= 300 and demoted >= 300,
          f"{bad} violations, {kept} with kept runs, {demoted} with demoted runs")


# --- criterion 5: evaluation metrics -----------------------------------------


def test_acceptance_lcs_exhaustive():
    alphabet = ("a", "b", "c")
    seqs = [
        tup
        for n in range(5)
        for tup in itertools.product(alphabet, repeat=n)
    ]
    bad = sum(
        1
        for x in seqs
        for y in seqs
        if evaluation.lcs_length(list(x), list(y)) != recursive_lcs(x, y)
    )
    check(
        "eval: LCS matches the recursive oracle on all token pairs up to length 4",
        bad == 0,
        f"{bad} of {len(seqs) ** 2} pairs disagree",
    )


def test_acceptance_metric_properties():
    rng = random.Random(606)
    alphabet = ["alpha", "beta", "gamma"]
    bad = 0
    for _ in range(10000):
        ref = " ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        pred = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        junk = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        r1 = evaluation.rouge1_recall(ref, pred)
        rl = evaluation.rougeL_recall(ref, pred)
        if not (
            rl <= r1 + 1e-12
            and evaluation.rouge1_recall(ref, ref) == 1.0
            and evaluation.rougeL_recall(ref, ref) == 1.0
            and evaluation.rouge1_recall(ref, (pred + " " + junk).strip()) >= r1 - 1e-12
            and evaluation.rougeL_recall(ref, (pred + " " + junk).strip()) >= rl - 1e-12
        ):
            bad += 1
    check("eval: 10k random pairs keep metric invariants", bad == 0, f"{bad} violations")


# --- criterion 6: scripted agent replay --------------------------------------


def run_replay(registry, mscl_seq):
    backend = ScriptedBackend.from_jsonl(data_path("replay.jsonl"))
    return run_tool_agent(backend, registry, "What does this protein do?", mscl_seq,
                          now=fixed_now, timer=fixed_timer())


def test_acceptance_agent_replay(registry, mscl_seq):
    t0 = time.perf_counter()
    result = run_replay(registry, mscl_seq)
    elapsed = time.perf_counter() - t0
    check(
        "agent: replayed session ends with answer_found after exactly 4 tool calls",
        result.stop_reason == "answer_found" and result.tool_calls_made == 4,
        f"stop={result.stop_reason}, calls={result.tool_calls_made}",
    )
    check(
        "agent: final answer names the large-conductance mechanosensitive channel",
        result.final_answer.startswith("This protein is a **large-conductance mechanosensitive channel"),
        repr(result.final_answer[:80]),
    )
    mismatches = 0
    for entry in result.trace.audit:
        call = ToolCall(call_id="direct", name=entry["call"]["name"], arguments=entry["call"]["arguments"])
        ctx = SessionContext(query_sequence=mscl_seq)
        direct = invoke(registry, call, ctx)
        if render_payload(direct.payload) != render_payload(entry["response"]["payload"]):
            mismatches += 1
    check("agent: every replayed tool payload is byte-identical to direct invocation",
          mismatches == 0, f"{mismatches} of 4 payloads differ")
    other = run_replay(registry, mscl_seq)
    check(
        "agent: repeated replay produces a byte-identical trace",
        json.dumps(result.trace.to_json(), sort_keys=True) == json.dumps(other.trace.to_json(), sort_keys=True),
    )
    check("agent: replayed session finishes in <10s", elapsed < 10.0, f"{elapsed:.2f}s")


# --- criterion 7: paradigm contracts ------------------------------------------


def test_acceptance_paradigm_contracts(registry, mscl_seq):
    turn = ChatMessage(
        role="assistant",
        content="<answer>done</answer>",
        tool_calls=(ToolCall(call_id="x", name="seq_basic_props", arguments={"sequence_ref": "query"}),),
    )
    result = run_rag(ScriptedBackend(turns=[turn]), registry, "Q?", mscl_seq,
                     now=fixed_now, timer=fixed_timer())
    user = result.trace.messages[1].content
    positions = [user.find(f"[TOOL RESULT: {name}]") for name in RAG_TOOL_ORDER]
    check(
        "paradigms: retrieval prompt carries the four evidence blocks in fixed order",
        all(p >= 0 for p in positions) and positions == sorted(positions),
        f"positions={positions}",
    )
    check(
        "paradigms: retrieval audit holds only the four up-front calls even when the model asks for more",
        len(result.trace.audit) == 4
        and [a["call"]["name"] for a in result.trace.audit] == list(RAG_TOOL_ORDER)
        and result.tool_calls_made == 0,
        f"audit={[a['call']['name'] for a in result.trace.audit]}",
    )

    seen_tools = []

    class Probe:
        def complete(self, messages, tools, decoding):
            seen_tools.append(tools)
            return ChatMessage(role="assistant", content="<answer>x</answer>")

    run_direct(Probe(), "Q?", mscl_seq)
    check("paradigms: the no-tools baseline offers the model no tool schemas", seen_tools == [None])
