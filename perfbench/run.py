"""Seeded in-process benchmark of the protagent bench pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload is generated from the seed
under .perfbench-work/ and removed at exit. The program is imported from the
checkout's src/ and nowhere else. One process runs one workload, one session
at a time, with the scripted backend, so the model's time is not measured.

The cases are split into batches of near-equal work, and each batch is one
bench run in a fresh run directory. --trace 0 runs the batches in turn until
S seconds have passed and every batch has run at least once. The end-to-end
metrics describe one pass over every case: each batch's wall time and each
case's session time are averaged over that batch's runs. setup_s is the
median of set-ups timed before and after the batches. A fixed kernel is
timed in a child process before each batch and around the set-ups
(probe.py); the end-to-end times are divided by the run's slowness, so they
read as at the reference machine speed, and the times as measured are
printed beside them. --trace 1 sets up once with tracing on, then runs each
batch untraced and at once traced, in turn, for as long; it writes the spans
of the first traced run of each batch to .perfbench-spans/ and prints the
per-layer metrics derived from them, plus the tracing overhead (traced vs
untraced cases/s).

Every session is checked against the generator's planted truth, and the
SHA-256 of the traces and report.json written by every run of a batch must
agree. The printed digest is the SHA-256 of the batches' digests in order.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-spans"

# name, unit, better: the end-to-end metrics of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("session_p50_ms", "ms", "lower"),
    ("session_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0) -> int:
    """Run one workload; `scale` shrinks it for the self-test."""
    args = _parse(argv)
    if not (SRC / "protagent" / "__init__.py").is_file():
        print(f"error: no protagent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import protagent

    if Path(protagent.__file__).resolve().parent != SRC / "protagent":
        print(f"error: protagent imported from {protagent.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.GENERATORS)}",
              file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with probe.Probe() as speed:
            _run(args, str(workdir), scale, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


def _run(args, workdir: str, scale: float, speed) -> None:
    import pipeline
    import probe
    import tracing
    import workloads

    wl = workloads.GENERATORS[args.workload](args.seed, workdir, scale)
    truths = {s.case_id: s for s in wl.sessions}
    turns = {s.case_id: pipeline.scripted_turns(s) for s in wl.sessions}
    # The generated workload and its scripts are the benchmark's own objects,
    # alive for the whole run; frozen, the collector's full passes scan only
    # what the program allocates, as in a `bench` run.
    gc.collect()
    gc.freeze()

    tracer = tracing.Tracer()
    setup_s: list[float] = []
    speed.sample()
    if args.trace:
        with tracer.installed():
            setup = pipeline.set_up(wl)
    else:
        setup = pipeline.sample_setups(wl, setup_s, fewest=2)

    # A traced run times each batch untraced and then traced, side by side.
    # Only the first traced run of each batch keeps its spans, so the
    # per-layer counts cover every case exactly once.
    batches = pipeline.batches(setup.cases)
    runs: list[tuple[int, bool, list[float], float]] = []  # batch, traced, session seconds, wall seconds
    failures: list[str] = []
    digests: list[set[str]] = [set() for _ in batches]
    deadline = time.perf_counter() + args.seconds
    step = 0
    while step < len(batches) or time.perf_counter() < deadline:
        index = step % len(batches)
        speed.sample()
        for traced in (False, True) if args.trace else (False,):
            recorder = tracer if step < len(batches) else tracing.Tracer()
            with recorder.installed() if traced else contextlib.nullcontext():
                session_s, wall_s, failed, digest = pipeline.checked_pass(
                    wl, setup, batches[index], turns, truths, workdir)
            runs.append((index, traced, session_s, wall_s))
            failures += failed
            digests[index].add(digest)
        step += 1

    speed.sample()
    if not args.trace:
        setup = None  # release the set-up the batches used before sampling more
        setup = pipeline.sample_setups(wl, setup_s, fewest=1)
        speed.sample()
    slowness = speed.slowness()

    attempted = sum(len(session_s) for _, _, session_s, _ in runs)
    steady = all(len(seen) == 1 for seen in digests)
    digest = hashlib.sha256(" ".join(sorted(seen)[0] for seen in digests).encode()).hexdigest()
    print(f"workload {wl.name} ({wl.paradigm}), seed {args.seed}, trace {args.trace}: "
          f"{len(setup.cases)} cases in {len(batches)} batches, {len(runs)} batch runs, one session at a time")
    print("batch wall s: " + " ".join(f"{i}:{wall_s:.3f}{'(traced)' if t else ''}" for i, t, _, wall_s in runs))
    print(f"why: {workloads.WHY[wl.name]}")
    print(f"digest: sha256:{digest}")
    print(f"sessions: attempted {attempted}, failed {len(failures)}")
    for line in failures[:10]:
        print(f"  failed {line}")
    if not steady:
        print("  runs of the same batch wrote different outputs")
    print(f"machine slowness {slowness:.4f}: median probe {statistics.median(speed.samples) * 1e3:.3f} ms "
          f"over {len(speed.samples)} samples, reference {probe.REFERENCE_S * 1e3:g} ms")

    def one_pass(want_traced):
        """Wall time and per-case session times of one pass over every case:
        each batch's wall time and each case's session time are averaged over
        the batch's runs, so which batches a run had time to repeat does not
        change the mix of cases measured."""
        by_batch: dict[int, list[tuple[list[float], float]]] = {}
        for index, traced, session_s, wall_s in runs:
            if traced == want_traced:
                by_batch.setdefault(index, []).append((session_s, wall_s))
        wall = sum(statistics.mean(w for _, w in taken) for taken in by_batch.values())
        session = [statistics.mean(case) for taken in by_batch.values() for case in zip(*(s for s, _ in taken))]
        return wall, session

    def cases_per_s(want_traced):
        wall, session = one_pass(want_traced)
        return len(session) / wall

    if args.trace:
        values = tracing.layer_metrics(tracer.spans, cases_per_s(True), cases_per_s(False))
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        session_ms = [s * 1e3 for s in one_pass(False)[1]]
        timed = {
            "setup_s": statistics.median(setup_s),
            "cases_per_s": cases_per_s(False),
            "session_p50_ms": statistics.median(session_ms),
            "session_p90_ms": tracing.p90(session_ms),
        }
        print("as timed: " + ", ".join(f"{name} {value:.6g}" for name, value in timed.items()))
        # Times as they would read at the reference machine speed; see probe.py.
        values = {name: value * slowness if name == "cases_per_s" else value / slowness
                  for name, value in timed.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"setup samples {len(setup_s)}, sessions {len(session_ms)} (each the mean of its runs)")
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    # Printed but not listed in BENCHMARK.json, whose metrics must never read
    # 0; the result line's attempted and failed carry the same counts.
    print(f"{'failed_ratio':36s} {len(failures) / attempted:14.6g} 1")
    print(json.dumps({
        "correct": not failures and steady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
