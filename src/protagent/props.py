"""Sequence basic-properties tool: length, hydrophobic runs, complexity.

The low-complexity index is 1 - H/Hmax, where H is the Shannon entropy
(base 2) of the global residue composition over the 20-letter alphabet
(X excluded from counts) and Hmax = log2(20). Repetitive composition
pushes the index toward 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import SchemaError
from .seq import Sequence

HYDROPHOBIC_SET = frozenset("ACFILMVW")

# Run of 18 approximates one full transmembrane helix.
MEMBRANE_RUN_THRESHOLD = 18
LOW_COMPLEXITY_THRESHOLD = 0.5

_H_MAX = math.log2(20)


@dataclass(frozen=True)
class BasicProps:
    length: int
    hydrophobic_run_max: int
    low_complexity_index_0to1: float
    looks_membrane_like: bool
    looks_low_complexity_like: bool

    def to_payload(self) -> dict:
        """Wire payload for the seq_basic_props tool."""
        return {
            "length": self.length,
            "hydrophobic_run_max": self.hydrophobic_run_max,
            "low_complexity_index_0to1": round(self.low_complexity_index_0to1, 4),
            "heuristics": {
                "looks_membrane_like": self.looks_membrane_like,
                "looks_low_complexity_like": self.looks_low_complexity_like,
            },
        }


def max_hydrophobic_run(seq: Sequence) -> int:
    """Length of the longest contiguous run of hydrophobic residues.

    X breaks a run.
    """
    best = cur = 0
    for c in seq.residues:
        if c in HYDROPHOBIC_SET:
            cur += 1
            if cur > best:
                best = cur
        else:
            cur = 0
    return best


def low_complexity_index(seq: Sequence) -> float:
    """Compositional bias in [0, 1]; 1 means a single-residue homopolymer."""
    counts = Counter(c for c in seq.residues if c != "X")
    total = sum(counts.values())
    if total == 0:
        raise SchemaError(
            f"sequence {seq.id!r} is entirely X; composition entropy undefined"
        )
    entropy = -sum((n / total) * math.log2(n / total) for n in counts.values())
    return 1.0 - entropy / _H_MAX


def compute_basic_props(seq: Sequence) -> BasicProps:
    run = max_hydrophobic_run(seq)
    lci = low_complexity_index(seq)
    return BasicProps(
        length=seq.length,
        hydrophobic_run_max=run,
        low_complexity_index_0to1=lci,
        looks_membrane_like=run >= MEMBRANE_RUN_THRESHOLD,
        looks_low_complexity_like=lci >= LOW_COMPLEXITY_THRESHOLD,
    )
