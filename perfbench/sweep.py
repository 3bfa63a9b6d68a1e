"""Run workloads over many seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                               [--record perfbench/trajectory.jsonl --label NAME]

Each (workload, seed) runs in a fresh process of perfbench/run.py with the
run length from BENCHMARK.json. For every metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound. It also prints each seed's output digest. --record
appends one JSON line with the numbers, the git SHA and the machine to a
trajectory file, so later changes can be compared with this entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One benchmark process; returns its result object and output digest."""
    command = [sys.executable if arg == "python3" else arg for arg in BENCHMARK["command"]]
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split(None, 1)[1] for line in lines if line.startswith("digest:"))
    return json.loads(lines[-1]), digest


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the summary to this JSON-lines file")
    parser.add_argument("--label", default="", help="name of the recorded entry")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    seconds = BENCHMARK["run_seconds"]
    entry = {"label": args.label, "git_sha": git_sha(), "machine": machine(), "trace": args.trace,
             "run_seconds": seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workloads": {}}
    for workload in args.workloads.split(","):
        results, digests = [], {}
        for seed in _seeds(args.seeds):
            result, digest = run_one(workload, seed, seconds, args.trace)
            results.append(result)
            digests[seed] = digest
            print(f"{workload} seed {seed}: correct {result['correct']}, failed {result['failed']}"
                  f"/{result['attempted']}, digest {digest[:23]}", flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = first["unit"]
            s, bound = metrics[name], bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound:.2f}  spread/bound {s['spread'] / bound:.2f}"
            print(f"  {name:36s} median {s['median']:12.6g} {s['unit']:8s} q1 {s['q1']:12.6g} "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}{verdict}")
        entry["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "digests": digests,
            "metrics": metrics,
        }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    return 0 if all(w["correct"] for w in entry["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
