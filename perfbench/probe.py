"""Machine-speed probe: a fixed pure-Python kernel timed in its own process.

The benchmark runs on a few virtual CPUs of a shared host whose speed moves
by up to a third within minutes, for every process alike: on a 2-vCPU
Xeon virtual machine a fixed loop took 9.0 ms in one 45 s run and 12.3 ms in
a run five minutes later, while the same workload's cases/s fell from 6.4 to
4.6. So the benchmark times this kernel between its timed units and divides
its end-to-end times by the run's `slowness`, the median kernel time over
REFERENCE_S: a time is reported as it would read on a machine on which one
kernel call takes REFERENCE_S.

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the scaled times exactly as much as the
measured ones. It runs in a child interpreter that the benchmark starts once
per run and waits on, so threads, heap or locks the program leaves behind
cannot change it.

    python3 perfbench/probe.py    # serve: one median kernel time per input line
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.015
CALLS = 5  # kernel calls per sample; a sample is their median
TABLE_SIZE = 100_000
LOOKUPS = 6_000


def make_table() -> tuple[dict[str, list[tuple[int, int]]], list[str]]:
    """A k-mer-index-like dict of lists of tuples, larger than the CPU's
    caches, and a fixed list of random keys to look up in it."""
    rng = random.Random(7)
    table = {f"{rng.getrandbits(40):010x}": [(i, j) for j in range(3)] for i in range(TABLE_SIZE)}
    keys = list(table)
    return table, [keys[rng.randrange(TABLE_SIZE)] for _ in range(LOOKUPS)]


def kernel(table: dict[str, list[tuple[int, int]]], lookups: list[str]) -> int:
    """Local-alignment-style dynamic programming over two fixed sequences
    (list indexing, integer max and compares), then random lookups in the
    table: the two kinds of work in the program's alignment, profile and
    prefilter loops, about half the time each."""
    a = [(i * 7919) % 20 for i in range(64)]
    b = [(i * 104729) % 20 for i in range(64)]
    best = 0
    for _ in range(2):
        prev = [0] * (len(b) + 1)
        for x in a:
            row = [0]
            for j, y in enumerate(b, 1):
                score = max(prev[j - 1] + (5 if x == y else -1), prev[j] - 2, row[-1] - 2, 0)
                row.append(score)
                if score > best:
                    best = score
            prev = row
    for key in lookups:
        for _, offset in table[key]:
            best += offset
    return best


def sample_once(table: dict[str, list[tuple[int, int]]], lookups: list[str]) -> float:
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel(table, lookups)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probe:
    """The probe's child process; `sample` times the kernel there while this
    process waits. Use as a context manager: leaving it ends the child and
    waits for it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with code {self.proc.wait()}")
        self.samples.append(float(line))

    def slowness(self) -> float:
        """Median kernel time over REFERENCE_S: above 1 on a slower machine."""
        return statistics.median(self.samples) / REFERENCE_S


def _serve() -> None:
    table, lookups = make_table()
    for _ in sys.stdin:
        print(repr(sample_once(table, lookups)), flush=True)


if __name__ == "__main__":
    _serve()
