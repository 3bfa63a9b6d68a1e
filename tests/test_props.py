import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protagent.errors import SchemaError
from protagent.props import (
    HYDROPHOBIC_SET,
    compute_basic_props,
    low_complexity_index,
    max_hydrophobic_run,
)
from protagent.seq import CANONICAL_RESIDUES, Sequence

residues_st = st.text(alphabet=CANONICAL_RESIDUES + "X", min_size=1, max_size=300)


def seq(res: str) -> Sequence:
    return Sequence(id="t", residues=res)


def oracle_run(res: str) -> int:
    # independent: split on non-hydrophobic residues and take the longest piece
    import re

    pattern = "[^" + "".join(sorted(HYDROPHOBIC_SET)) + "]"
    return max((len(p) for p in re.split(pattern, res)), default=0)


def oracle_lci(res: str) -> float:
    from collections import Counter

    counts = Counter(c for c in res if c != "X")
    total = sum(counts.values())
    h = -sum((n / total) * math.log2(n / total) for n in counts.values())
    return 1.0 - h / math.log2(20)


def test_run_simple_cases():
    assert max_hydrophobic_run(seq("MLKV")) == 2
    assert max_hydrophobic_run(seq("DDDD")) == 0
    assert max_hydrophobic_run(seq("LLLLL")) == 5


def test_run_broken_by_x():
    assert max_hydrophobic_run(seq("LLXLL")) == 2


def test_lci_homopolymer_is_one():
    assert low_complexity_index(seq("AAAAAAAA")) == pytest.approx(1.0)


def test_lci_all_twenty_residues_is_zero():
    assert low_complexity_index(seq(CANONICAL_RESIDUES)) == pytest.approx(0.0)


def test_lci_ignores_x():
    assert low_complexity_index(seq("AXAXA")) == low_complexity_index(seq("AAA"))


def test_lci_all_x_rejected():
    with pytest.raises(SchemaError, match="'t' is entirely X; composition entropy undefined"):
        low_complexity_index(seq("XXXX"))


def test_payload_shape_and_rounding():
    payload = compute_basic_props(seq("MLKV" * 10)).to_payload()
    assert set(payload) == {"length", "hydrophobic_run_max", "low_complexity_index_0to1", "heuristics"}
    assert set(payload["heuristics"]) == {"looks_membrane_like", "looks_low_complexity_like"}
    assert payload["low_complexity_index_0to1"] == round(oracle_lci("MLKV" * 10), 4)


def test_membrane_heuristic_threshold():
    assert compute_basic_props(seq("L" * 17 + "D" * 10)).looks_membrane_like is False
    assert compute_basic_props(seq("L" * 18 + "D" * 10)).looks_membrane_like is True


def test_low_complexity_heuristic_threshold():
    assert compute_basic_props(seq("A" * 50)).looks_low_complexity_like is True
    assert compute_basic_props(seq(CANONICAL_RESIDUES * 3)).looks_low_complexity_like is False


@given(residues_st)
def test_run_matches_oracle(res):
    assert max_hydrophobic_run(seq(res)) == oracle_run(res)


@given(residues_st.filter(lambda r: set(r) != {"X"}))
def test_lci_matches_oracle_and_bounds(res):
    lci = low_complexity_index(seq(res))
    assert lci == pytest.approx(oracle_lci(res))
    assert -1e-12 <= lci <= 1.0 + 1e-12


@given(residues_st.filter(lambda r: set(r) != {"X"}))
def test_props_invariants(res):
    props = compute_basic_props(seq(res))
    assert 0 <= props.hydrophobic_run_max <= props.length
    assert props.length == len(res)
