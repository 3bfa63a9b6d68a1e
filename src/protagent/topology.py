"""Transmembrane topology prediction by windowed hydropathy.

A stand-in for embedding-based predictors: matches the wire contract
(three-line raw_pred block plus 'H'-count heuristic), not their
algorithm. Per-residue Kyte-Doolittle hydropathy is averaged over a
centered window (truncated at the edges); strong means are marked 'H',
weak ones 'h', and runs shorter than the minimum are demoted to '.'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DegenerateWindowError
from .seq import Sequence

KYTE_DOOLITTLE = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5,
    "Q": -3.5, "E": -3.5, "G": -0.4, "H": -3.2, "I": 4.5,
    "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8, "P": -1.6,
    "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
    "X": 0.0,
}

DEFAULT_WINDOW = 19
DEFAULT_STRONG_THRESHOLD = 1.6
DEFAULT_WEAK_THRESHOLD = 0.9
MIN_SEGMENT_RUN = 7
HEURISTIC_MIN_HITS = 15


@dataclass(frozen=True)
class TopologyPrediction:
    raw_pred: str
    tm_signal_letter_hits: int
    has_tm_signal_heuristic: bool

    def to_payload(self) -> dict:
        return {
            "prediction": {
                "raw_pred": self.raw_pred,
                "tm_signal_letter_hits": self.tm_signal_letter_hits,
                "has_tm_signal_heuristic": self.has_tm_signal_heuristic,
            }
        }


def window_means(seq: Sequence) -> list[float]:
    """Hydropathy means over DEFAULT_WINDOW residues centred on each
    residue; edge windows are truncated."""
    half = DEFAULT_WINDOW // 2
    values = [KYTE_DOOLITTLE[c] for c in seq.residues]
    n = len(values)
    means = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        means.append(sum(values[lo:hi]) / (hi - lo))
    return means


def predict_topology(seq: Sequence) -> TopologyPrediction:
    """Per-residue topology states over { '.', 'H', 'h' }."""
    if DEFAULT_WINDOW > 2 * seq.length:
        raise DegenerateWindowError(f"window {DEFAULT_WINDOW} too large for sequence of length {seq.length}")
    states = [
        "H" if m >= DEFAULT_STRONG_THRESHOLD else "h" if m >= DEFAULT_WEAK_THRESHOLD else "."
        for m in window_means(seq)
    ]
    line = "".join(states)
    # Demote helix-like runs too short to span a membrane.
    out = list(line)
    for m in re.finditer(r"[Hh]+", line):
        if m.end() - m.start() < MIN_SEGMENT_RUN:
            for i in range(m.start(), m.end()):
                out[i] = "."
    state_line = "".join(out)
    hits = state_line.count("H")
    return TopologyPrediction(
        raw_pred=f">{seq.id}\n{seq.residues}\n{state_line}",
        tm_signal_letter_hits=hits,
        has_tm_signal_heuristic=hits >= HEURISTIC_MIN_HITS,
    )
