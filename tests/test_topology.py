import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protagent.errors import DegenerateWindowError
from protagent.seq import CANONICAL_RESIDUES, Sequence
from protagent.topology import (
    DEFAULT_STRONG_THRESHOLD,
    DEFAULT_WEAK_THRESHOLD,
    DEFAULT_WINDOW,
    KYTE_DOOLITTLE,
    predict_topology,
    window_means,
)

# Sequences from 10 residues up, the shortest the 19-residue window takes,
# with hydrophobic stretches so that helix-like runs, kept and demoted, occur.
residues_st = st.lists(
    st.text(alphabet=CANONICAL_RESIDUES + "X", min_size=1, max_size=40)
    | st.text(alphabet="AILMFVW", min_size=1, max_size=30),
    min_size=1,
    max_size=8,
).map("".join).filter(lambda res: len(res) >= 10)


def seq(res: str) -> Sequence:
    return Sequence(id="t", residues=res)


def threshold_states(s: Sequence) -> str:
    """The state line the thresholds alone give, before runs are demoted."""
    return "".join(
        "H" if m >= DEFAULT_STRONG_THRESHOLD else "h" if m >= DEFAULT_WEAK_THRESHOLD else "."
        for m in window_means(s)
    )


def test_window_means_truncated_edges():
    res = "ILVA" * 6 + "G"  # hydropathies 4.5, 3.8, 4.2, 1.8, ..., -0.4
    values = [KYTE_DOOLITTLE[c] for c in res]
    means = window_means(seq(res))
    assert len(means) == 25
    assert means[0] == pytest.approx(sum(values[:10]) / 10)
    assert means[5] == pytest.approx(sum(values[:15]) / 15)
    assert means[9] == pytest.approx(sum(values[:19]) / 19)
    assert means[12] == pytest.approx(sum(values[3:22]) / 19)
    assert means[15] == pytest.approx(sum(values[6:]) / 19)
    assert means[24] == pytest.approx(sum(values[15:]) / 10)


def test_window_must_be_odd_and_big_enough():
    # window_means centres DEFAULT_WINDOW // 2 residues on each side, so an
    # even window would silently average one residue more than it names.
    assert DEFAULT_WINDOW % 2 == 1 and DEFAULT_WINDOW >= 5


def test_degenerate_window_rejected():
    with pytest.raises(DegenerateWindowError):
        predict_topology(seq("L" * 9))
    assert predict_topology(seq("L" * 10)).tm_signal_letter_hits == 10


def test_poly_leucine_all_strong():
    pred = predict_topology(seq("L" * 40))
    states = pred.raw_pred.splitlines()[2]
    assert states == "H" * 40
    assert pred.tm_signal_letter_hits == 40
    assert pred.has_tm_signal_heuristic is True


def test_hydrophilic_sequence_no_signal():
    pred = predict_topology(seq("DEKR" * 10))
    states = pred.raw_pred.splitlines()[2]
    assert states == "." * 40
    assert pred.has_tm_signal_heuristic is False


def test_short_runs_demoted():
    # A 14-residue hydrophobic island in a hydrophilic context: its window
    # means pass the weak threshold at 6 residues, a run the thresholds alone
    # keep, but shorter than 7, so it is demoted entirely.
    res = "DEKRDEKRDEKR" + "F" * 14 + "DEKRDEKRDEKR"
    assert threshold_states(seq(res)) == "." * 16 + "h" * 6 + "." * 16
    pred = predict_topology(seq(res))
    assert pred.raw_pred.splitlines()[2] == "." * len(res)
    assert pred.tm_signal_letter_hits == 0


def test_x_is_neutral():
    means = window_means(seq("X" * 25))
    assert all(m == 0.0 for m in means)


def test_raw_pred_layout():
    s = Sequence(id="myid", residues="L" * 20)
    pred = predict_topology(s)
    lines = pred.raw_pred.splitlines()
    assert lines[0] == ">myid"
    assert lines[1] == "L" * 20
    assert len(lines[2]) == 20


@given(residues_st)
def test_states_align_with_sequence(res):
    pred = predict_topology(seq(res))
    lines = pred.raw_pred.splitlines()
    assert len(lines) == 3
    assert lines[1] == res
    assert len(lines[2]) == len(res)
    assert set(lines[2]) <= {".", "H", "h"}
    assert pred.tm_signal_letter_hits == lines[2].count("H")
    assert pred.has_tm_signal_heuristic == (pred.tm_signal_letter_hits >= 15)
    # no surviving helix-like run shorter than the minimum
    for m in re.finditer(r"[Hh]+", lines[2]):
        assert m.end() - m.start() >= 7


@given(residues_st)
def test_states_match_window_means(res):
    # Each state is the thresholds' state, but '.' across a run of H and h
    # shorter than 7.
    s = seq(res)
    demoted = re.sub(r"[Hh]+", lambda m: m.group() if len(m.group()) >= 7 else "." * len(m.group()),
                     threshold_states(s))
    assert predict_topology(s).raw_pred.splitlines()[2] == demoted


def test_hydropathy_table_spot_checks():
    assert KYTE_DOOLITTLE["I"] == 4.5
    assert KYTE_DOOLITTLE["R"] == -4.5
    assert KYTE_DOOLITTLE["G"] == -0.4
    assert len(KYTE_DOOLITTLE) == 21
