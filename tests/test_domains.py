import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MSCL_RESIDUES, data_path
from oracles import (
    brute_viterbi_bits,
    random_profile,
    reference_float_viterbi,
    reference_least_cost_to_match,
    reference_viterbi,
)
from protagent.domains import (
    SCALE,
    DomainHit,
    ProfileHmm,
    parse_hmm_library,
    scan,
    select_domains,
    viterbi_score,
    write_hmm_library,
)
from protagent.errors import SchemaError, to_json
from protagent.seq import CANONICAL_RESIDUES, Sequence


def seq(res: str, sid: str = "t") -> Sequence:
    return Sequence(id=sid, residues=res)


def library_text() -> str:
    with open(data_path("toy.hmm"), encoding="utf-8") as fh:
        return fh.read()


# --- parsing ----------------------------------------------------------------


def test_parse_bundled_library(hmm_library):
    assert [p.name for p in hmm_library] == ["MscL", "ToyDom1", "ToyDom2", "ToyDom3", "ToyDom4"]
    assert hmm_library[0].accession == "PF01741.24"
    assert hmm_library[0].model_length == 117


def test_serialize_parse_is_identity_on_bundled_library(hmm_library):
    text = library_text()
    assert write_hmm_library(parse_hmm_library(text)) == text
    assert parse_hmm_library(write_hmm_library(hmm_library)) == hmm_library


def test_parse_rejects_missing_leng():
    text = "HMMER3/f x\nNAME  A\nHMM  ...\n     ...\n//\n"
    with pytest.raises(SchemaError, match="record 'A': missing LENG"):
        parse_hmm_library(text)


def test_parse_rejects_missing_terminator():
    text = library_text()
    truncated = text[: text.rindex("//")]
    with pytest.raises(SchemaError, match="missing '//' terminator"):
        parse_hmm_library(truncated)


def test_parse_rejects_wrong_row_count():
    text = library_text()
    lines = text.splitlines()
    # drop the last node block (three lines before the final '//')
    del lines[-4:-1]
    with pytest.raises(SchemaError, match="emission rows for LENG"):
        parse_hmm_library("\n".join(lines) + "\n")


def test_parse_rejects_non_numeric_value():
    text = library_text().replace("0.", "q.", 1)
    with pytest.raises(SchemaError, match=r"non-numeric field 'q\."):
        parse_hmm_library(text)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["NAME  Again"], "line 367: duplicate header key 'NAME' (first on line 363)"),
        (["LENG  28"], "line 367: duplicate header key 'LENG' (first on line 366)"),
        (["DESC  another"], "line 367: duplicate header key 'DESC' (first on line 365)"),
        # A header key is a line's first token, so two STATS lines repeat one.
        (["STATS LOCAL MSV -9.0 0.7", "STATS LOCAL VITERBI -9.5 0.7"],
         "line 368: duplicate header key 'STATS' (first on line 367)"),
    ],
    ids=["NAME", "LENG", "DESC", "STATS"],
)
def test_parse_rejects_repeated_header_key(rows, message):
    # Rows go in before ToyDom1's ALPH line, line 367. Every record of the
    # bundled library has the same keys: only a repeat within one record's
    # header is refused.
    lines = library_text().split("\n")
    assert lines[366] == "ALPH  amino"
    lines[366:366] = rows
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse_hmm_library("\n".join(lines))


def test_parse_rejects_junk_header():
    with pytest.raises(SchemaError, match="expected record header at line 1, got 'WHAT IS THIS'"):
        parse_hmm_library("WHAT IS THIS\n")


def test_profile_validates_emission_normalization():
    rng = random.Random(1)
    p = random_profile(rng, "P", 2)
    bad_rows = (p.match_emissions[0], tuple(v + 0.5 for v in p.match_emissions[1]))
    with pytest.raises(SchemaError, match="match emissions at node 2 sum to"):
        ProfileHmm(
            name="P",
            accession="PF1.1",
            description="",
            model_length=2,
            match_emissions=bad_rows,
            insert_emissions=p.insert_emissions,
            transitions=p.transitions,
        )


def test_star_means_probability_zero():
    text = library_text()
    profiles = parse_hmm_library(text)
    rewritten = write_hmm_library(profiles)
    if "*" in rewritten.split("\n", 10)[-1]:
        assert any(math.isinf(v) for p in profiles for row in p.transitions for v in row)


def test_round_trip_random_profiles():
    rng = random.Random(5)
    profiles = [random_profile(rng, f"R{i}", rng.randint(1, 6)) for i in range(4)]
    text = write_hmm_library(profiles)
    fixed_point = parse_hmm_library(text)
    assert write_hmm_library(fixed_point) == text


# --- scoring ----------------------------------------------------------------


def test_viterbi_matches_brute_force_small():
    rng = random.Random(11)
    for trial in range(40):
        hmm = random_profile(rng, f"V{trial}", rng.randint(1, 3))
        res = "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(rng.randint(1, 4)))
        got = viterbi_score(hmm, seq(res))
        expected = brute_viterbi_bits(hmm, res)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected


def test_viterbi_reports_consistent_coordinates():
    rng = random.Random(13)
    for trial in range(30):
        hmm = random_profile(rng, f"C{trial}", rng.randint(2, 6))
        res = "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(rng.randint(3, 12)))
        got = viterbi_score(hmm, seq(res))
        if got is None:
            continue
        bits, hmm_from, hmm_to, ali_from, ali_to = got
        assert bits > 0
        assert 1 <= hmm_from <= hmm_to <= hmm.model_length
        assert 1 <= ali_from <= ali_to <= len(res)


def test_x_scores_zero_log_odds():
    rng = random.Random(17)
    hmm = random_profile(rng, "XP", 1)
    got = viterbi_score(hmm, seq("X"))
    assert got is None  # a single X entry scores exactly 0, not above


# --- kernel vs reference ----------------------------------------------------


def neg_ln(probs):
    return tuple(math.inf if p == 0.0 else -math.log(p) for p in probs)


def normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


def profile_from_probs(name, match_rows, insert_rows, trans_rows):
    return ProfileHmm(
        name=name,
        accession="PF00000.1",
        description="kernel test profile",
        model_length=len(match_rows),
        match_emissions=tuple(neg_ln(r) for r in match_rows),
        insert_emissions=tuple(neg_ln(r) for r in insert_rows),
        transitions=tuple(neg_ln(r) for r in trans_rows),
    )


UNIFORM_ROW = [1.0 / 20] * 20


def tie_heavy_profile(rng, name, length):
    """Profile whose every score is a whole number of bits, so equal-scoring paths are common.

    Against the uniform background, emission probabilities 0.05, 0.2 and 0.4
    score exactly 0, 2 and 3 bits, and transition probabilities 1, 0.5 and
    0.25 score exactly 0, -1 and -2 bits: path sums are exact, and paths
    through different cells tie exactly.
    """

    def emission_row():
        kind = rng.random()
        if kind < 0.4:
            return UNIFORM_ROW
        levels = [0.2] * 4 + [0.05] * 4 if kind < 0.7 else [0.4] + [0.2] * 2 + [0.05] * 4
        row = levels + [0.0] * (20 - len(levels))
        rng.shuffle(row)
        return row

    def transition_row():
        out_of_match = rng.choice([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        return out_of_match + rng.choice([[0.5, 0.5], [1.0, 0.0]]) + rng.choice([[0.5, 0.5], [1.0, 0.0]])

    match_rows = [emission_row() for _ in range(length)]
    insert_rows = [emission_row() for _ in range(length)]
    trans_rows = [transition_row() for _ in range(length)]
    return profile_from_probs(name, match_rows, insert_rows, trans_rows)


def starred_profile(rng, name, length):
    """Random profile with zero-probability ('*') emissions and transitions."""

    def row(size, zeros):
        weights = [rng.random() + 0.05 for _ in range(size)]
        for i in rng.sample(range(size), zeros):
            weights[i] = 0.0
        return normalized(weights)

    trans_rows = []
    for _ in range(length):
        mm = row(3, rng.choice((0, 1, 2)))
        im = row(2, rng.choice((0, 1)))
        dm = row(2, rng.choice((0, 1)))
        trans_rows.append(mm + im + dm)
    return profile_from_probs(
        name,
        [row(20, rng.randint(1, 19)) for _ in range(length)],
        [row(20, rng.randint(0, 19)) for _ in range(length)],
        trans_rows,
    )


def peaked_profile(rng, name, length):
    """One favoured residue per match node, like a real domain family."""
    consensus = "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(length))
    match_rows = [
        normalized([12.0 if r == c else 1.0 for r in sorted(CANONICAL_RESIDUES)]) for c in consensus
    ]
    trans = [0.9, 0.05, 0.05, 0.6, 0.4, 0.7, 0.3]
    return profile_from_probs(name, match_rows, [UNIFORM_ROW] * length, [trans] * length), consensus


def assert_kernel_matches_reference(hmm, res):
    got = viterbi_score(hmm, seq(res))
    expected = reference_viterbi(hmm, res)
    # exact equality: same bits and all four coordinates
    assert got == expected, (hmm.name, res, got, expected)
    return got


def test_viterbi_equals_reference_on_random_profiles():
    rng = random.Random(2024)
    alphabet = CANONICAL_RESIDUES + "X"
    hits = 0
    for trial in range(2000):
        hmm = random_profile(rng, f"E{trial}", rng.randint(1, 8))
        res = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        hits += assert_kernel_matches_reference(hmm, res) is not None
    assert 500 < hits < 2000


def test_viterbi_equals_reference_on_tie_heavy_profiles():
    rng = random.Random(31)
    hits = 0
    for trial in range(400):
        hmm = tie_heavy_profile(rng, f"T{trial}", rng.randint(1, 8))
        letters = rng.sample(CANONICAL_RESIDUES, 4) + ["X"]
        res = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        hits += assert_kernel_matches_reference(hmm, res) is not None
    assert hits > 100


def test_viterbi_equals_reference_with_zero_probabilities():
    rng = random.Random(37)
    hits = 0
    for trial in range(400):
        hmm = starred_profile(rng, f"S{trial}", rng.randint(1, 8))
        assert any(math.isinf(v) for row in hmm.match_emissions for v in row)
        res = "".join(rng.choice(CANONICAL_RESIDUES + "X") for _ in range(rng.randint(1, 12)))
        hits += assert_kernel_matches_reference(hmm, res) is not None
    assert hits > 100


def test_viterbi_equals_reference_on_bundled_library(hmm_library):
    for hmm in hmm_library:
        assert_kernel_matches_reference(hmm, MSCL_RESIDUES)


def test_viterbi_equals_reference_on_peaked_profiles():
    rng = random.Random(41)
    for trial in range(4):
        hmm, consensus = peaked_profile(rng, f"K{trial}", rng.randint(30, 80))
        n = rng.randint(80, 250)
        res = "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(n))
        at = rng.randint(0, n - len(consensus))
        planted = res[:at] + consensus + res[at + len(consensus):]
        assert_kernel_matches_reference(hmm, planted)
        assert_kernel_matches_reference(hmm, res)


def test_viterbi_equals_reference_on_perfbench_shaped_profiles():
    # The benchmark's profiles: a 0.6 peak over a skewed background (also the
    # COMPO row), background inserts, one transition row for every node.
    rng = random.Random(47)
    letters = sorted(CANONICAL_RESIDUES)
    background = normalized([rng.random() + 0.2 for _ in letters])
    trans = [0.90, 0.05, 0.05, 0.60, 0.40, 0.70, 0.30]
    for trial in range(4):
        length = rng.randint(30, 80)
        consensus = rng.choices(letters, background, k=length)
        match_rows = [
            [0.6 if r == c else 0.4 * bg / (1.0 - background[letters.index(c)]) for bg, r in zip(background, letters)]
            for c in consensus
        ]
        hmm = ProfileHmm(
            name=f"B{trial}",
            accession="PB00000.1",
            description="benchmark-shaped profile",
            model_length=length,
            match_emissions=tuple(neg_ln(r) for r in match_rows),
            insert_emissions=(neg_ln(background),) * length,
            transitions=(neg_ln(trans),) * length,
            background=tuple(background),
        )
        n = rng.randint(80, 250)
        res = "".join(rng.choices(letters, background, k=n))
        at = rng.randint(0, n - length)
        sampled = "".join(rng.choices(letters, row)[0] for row in match_rows)
        assert_kernel_matches_reference(hmm, res[:at] + sampled + res[at + length:])
        assert_kernel_matches_reference(hmm, res)


def test_integer_bits_stay_near_float_bits():
    # Each of a path's at most n emissions and n + L transitions is rounded
    # by at most half a unit, so the best path moves by less than that sum.
    rng = random.Random(53)
    for trial in range(4):
        hmm, consensus = peaked_profile(rng, f"F{trial}", rng.randint(30, 80))
        n = rng.randint(80, 250)
        res = "".join(rng.choice(CANONICAL_RESIDUES) for _ in range(n))
        at = rng.randint(0, n - len(consensus))
        for query in (res, res[:at] + consensus + res[at + len(consensus):]):
            got = viterbi_score(hmm, seq(query))
            expected = reference_float_viterbi(hmm, query)
            assert abs(got[0] - expected[0]) <= 2 * (n + hmm.model_length) * 0.5 / SCALE


def sink_and_climb_profile():
    """Two nodes; M_1 emits only A, and I_1 emits W at 0.95 and C at 0.0005."""
    only_a = [1.0 if r == "A" else 0.0 for r in sorted(CANONICAL_RESIDUES)]
    return profile_from_probs(
        "Chain",
        [only_a, UNIFORM_ROW],
        [row_with({"C": 0.0005, "W": 0.95}), UNIFORM_ROW],
        [[0.25, 0.5, 0.25, 0.001, 0.999, 0.5, 0.5], [0.9, 0.05, 0.05, 0.5, 0.5, 0.5, 0.5]],
    )


def test_viterbi_keeps_an_insert_chain_that_sinks_and_climbs():
    # M_1 emits only A, so after "A" the only live cells at node 1 are its
    # inserts: ten C's sink them ~66 bits below zero, thirty W's lift them
    # back by ~127. The winner enters at residue 1 and leaves I_1 for M_2,
    # so no floor above the sunk cells may cut them off.
    res = "A" + "C" * 10 + "W" * 30
    got = assert_kernel_matches_reference(sink_and_climb_profile(), res)
    assert got[1:] == (1, 2, 1, 41) and got[0] > 50


def row_with(probs):
    """Emission row with the given probabilities by letter, the rest spread evenly."""
    others = [r for r in sorted(CANONICAL_RESIDUES) if r not in probs]
    rest = (1.0 - sum(probs.values())) / len(others)
    return [probs.get(r, rest) for r in sorted(CANONICAL_RESIDUES)]


def test_viterbi_tie_breaks_inside_insert_and_delete_states():
    # Against the uniform background, probabilities 0.2, 0.4 and 0.8 score
    # exactly 2, 3 and 4 bits; transitions 0.5 and 0.25 score -1 and -2.
    # Insert tie: on "ACCD", I_1 at residue 3 is reached equally (1 bit)
    # from M_1 at residue 2 (origin 2,1) and from I_1 at residue 2 (origin
    # 1,1); the smaller origin carries on to the best cell M_2 at residue 4.
    insert_tie = profile_from_probs(
        "InsTie",
        [row_with({"A": 0.4, "C": 0.2}), row_with({"D": 0.8})],
        [UNIFORM_ROW] * 2,
        [[0.25, 0.5, 0.25, 0.5, 0.5, 0.5, 0.5]] * 2,
    )
    assert viterbi_score(insert_tie, seq("ACCD")) == (4.0, 1, 2, 1, 4)
    # Delete tie: on "AA", D_3 at residue 1 is reached equally (0 bits)
    # through D_2 from M_1 (origin 1,1) and straight from M_2 (origin 1,2);
    # M_4 at residue 2 then ties the fresh M_4 at residue 1 on 3 bits and
    # wins on the smaller origin.
    delete_tie = profile_from_probs(
        "DelTie",
        [row_with({"A": 0.2}), row_with({"A": 0.2}), row_with({"A": 0.0}), row_with({"A": 0.4})],
        [UNIFORM_ROW] * 4,
        [
            [0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.5, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5],
            [0.5, 0.25, 0.25, 0.5, 0.5, 1.0, 0.0],
            [0.5, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5],
        ],
    )
    assert viterbi_score(delete_tie, seq("AA")) == (3.0, 1, 4, 1, 2)
    # Insert tie at the need: on "ACD", I_1 at residue 2 holds exactly 0 bits
    # (M_1's 2 less MI's 2) and emits C at 0 bits; no insert emission beats
    # II (probability 0), so 0 is the least I_1 score that can reach M.
    # Through IM at probability 1 it enters M_2 at residue 3 at 0 bits, ties
    # the fresh M_2 there and wins on the smaller origin (1, 1).
    insert_need_tie = profile_from_probs(
        "InsNeedTie",
        [row_with({"A": 0.2}), row_with({"D": 0.8})],
        [UNIFORM_ROW] * 2,
        [[0.5, 0.25, 0.25, 1.0, 0.0, 0.5, 0.5]] * 2,
    )
    assert viterbi_score(insert_need_tie, seq("ACD")) == (4.0, 1, 2, 1, 3)
    # End-cell tie: on "ACDW", M_1 M_2 M_3 ends at (residue 3, node 3) and
    # M_1 I_1 I_1 M_2 at (residue 4, node 2), both 9 bits from origin (1, 1);
    # the first end cell in (residue, node) order wins, not the smaller node.
    end_tie = profile_from_probs(
        "EndTie",
        [row_with({"A": 0.8}), row_with({"C": 0.4, "W": 0.4}), row_with({"D": 0.8})],
        [row_with({"C": 0.4, "D": 0.4}), UNIFORM_ROW, UNIFORM_ROW],
        [[0.5, 0.25, 0.25, 0.5, 0.5, 0.5, 0.5]] * 3,
    )
    assert viterbi_score(end_tie, seq("ACDW")) == (9.0, 1, 3, 1, 3)
    assert_kernel_matches_reference(insert_tie, "ACCD")
    assert_kernel_matches_reference(delete_tie, "AA")
    assert_kernel_matches_reference(insert_need_tie, "ACD")
    assert_kernel_matches_reference(end_tie, "ACDW")


# Against the uniform background an emission of 0.05 * 2**b scores b bits
# and a transition of 2**-b scores -b bits, so the II costs below (0 to 3
# bits, or '*') tie insert emissions exactly. Each out-of-state row is in
# TRANSITION_ORDER; 0.0 is '*'.
MATCH_OUT = [(1.0, 0.0, 0.0), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5), (0.5, 0.0, 0.5)]
INSERT_OUT = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.75, 0.25), (0.875, 0.125)]  # IM, II
DELETE_OUT = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.75)]  # DM, DD


@st.composite
def whole_bit_rows(draw, most_bits):
    """An emission row whose best letter, one of A, C, D or E, scores 0 to
    most_bits whole bits; the rest share what is left, some of them at 0."""
    bits = draw(st.integers(0, most_bits))
    if bits == 0:
        return UNIFORM_ROW
    top = 0.05 * 2**bits
    zeros = draw(st.sampled_from(["", "W", "FGHIKLMNPQ"]))
    return row_with({draw(st.sampled_from("ACDE")): top} | {r: 0.0 for r in zeros})


@st.composite
def floor_case_profiles(draw):
    """Profiles that reach every floor case of the kernel: DM, DD, IM and II
    at probability 1 and at '*', and insert rows whose best emission (0 to
    3 bits) is below, equal to and above their node's II cost (0 to 3 bits,
    or '*')."""
    length = draw(st.integers(1, 6))
    return profile_from_probs(
        "Floors",
        [draw(whole_bit_rows(4)) for _ in range(length)],
        [draw(whole_bit_rows(3)) for _ in range(length)],
        [
            list(draw(st.sampled_from(MATCH_OUT)) + draw(st.sampled_from(INSERT_OUT)) + draw(st.sampled_from(DELETE_OUT)))
            for _ in range(length)
        ],
    )


@settings(max_examples=600, deadline=None, derandomize=True)
@given(floor_case_profiles(), st.text("ACDEWX", min_size=1, max_size=40))
def test_viterbi_equals_reference_at_every_floor(hmm, res):
    # The sequence, and its prefix at the top of the length class below, so
    # one profile is scored with the constants of two length classes.
    assert_kernel_matches_reference(hmm, res)
    if len(res) > 2:
        assert_kernel_matches_reference(hmm, res[: 1 << (len(res) - 1).bit_length() - 1])


def assert_floors_match_least_cost_to_match(hmm, length):
    """Each packed D and I floor is the largest value whose score is below its
    node's need, with the need capped at length class * A, which no cell
    reaches; where an insert chain can climb, the I floor is A - bias, below
    every cell that matters. Returns the I needs."""
    p = hmm.packed(length)
    match, insert, trans = hmm.score_tables()
    scores = [v for table in (match, insert) for row in table.values() for v in row] + sum(trans, [])
    a = 1 + max(abs(v) for v in scores if v > -math.inf)
    cap = (1 << max(length - 1, 1).bit_length()) * a
    unit = 1 << p.origin_bits
    mask = (1 << p.field) - 1

    def below(need):
        return (min(need, cap) + p.bias) * unit - 1

    need_d, need_y = reference_least_cost_to_match(hmm)
    assert need_d[-1] == math.inf  # the last node's D enters no M
    # The top field stands for a node past the last: no M cell reaches it.
    assert p.floor_d >> ((hmm.model_length - 1) * p.field) == below(math.inf)
    for k, (need, need_i) in enumerate(zip(need_d, need_y), start=1):
        if k > 1:  # D_k's floor sits at field k - 2; D_1 is never entered
            floor_d = p.floor_d >> ((k - 2) * p.field) & mask
            assert floor_d == below(need) < (need + p.bias) * unit, (hmm.name, k)
        floor_y = p.floor_y >> ((k - 1) * p.field) & mask
        if need_i is None:
            assert floor_y == a * unit, (hmm.name, k)
        else:
            assert floor_y == below(need_i) < (need_i + p.bias) * unit, (hmm.name, k)
    return need_y


@settings(max_examples=300, deadline=None, derandomize=True)
@given(floor_case_profiles(), st.integers(1, 300))
def test_packed_floors_sit_just_below_each_nodes_least_cost_to_match(hmm, length):
    assert_floors_match_least_cost_to_match(hmm, length)


def test_packed_floors_keep_the_old_floor_where_an_insert_chain_climbs(hmm_library):
    # I_1 of the sink-and-climb profile emits W 4.2 bits above its II cost:
    # its chain can climb, so it keeps the floor below every cell that
    # matters. I_2 is the last node's: no emission beats II, and it enters
    # no M.
    for length in (1, 41, 300):
        assert assert_floors_match_least_cost_to_match(sink_and_climb_profile(), length) == [None, math.inf]
    for hmm in hmm_library:
        assert_floors_match_least_cost_to_match(hmm, len(MSCL_RESIDUES))


def test_score_tables_are_built_on_first_scan_and_kept():
    # The kernel's score tables are its packed constants, one set per length
    # class: sequences of up to the next power of two residues.
    fresh = parse_hmm_library(library_text())
    assert all("_packed" not in p.__dict__ for p in fresh)
    scan(fresh, seq(MSCL_RESIDUES))
    tables = [p.packed(len(MSCL_RESIDUES)) for p in fresh]
    scan(fresh, seq(MSCL_RESIDUES))
    assert all(p.packed(len(MSCL_RESIDUES)) is t for p, t in zip(fresh, tables))
    assert all(p.packed(65) is t and p.packed(128) is t and p.packed(129) is not t for p, t in zip(fresh, tables))
    assert fresh == parse_hmm_library(library_text())  # the cache is not part of equality


def test_score_tables_are_whole_units_of_the_scale():
    hmm = parse_hmm_library(library_text())[0]
    match, insert, trans = hmm.score_tables()
    values = [v for table in (match, insert) for row in table.values() for v in row] + [v for row in trans for v in row]
    assert all(type(v) is int or v == -math.inf for v in values)
    assert all(v <= 0 for row in trans for v in row)
    bits = (-hmm.match_emissions[0][0] - math.log(hmm.background[0])) / math.log(2)
    assert match["A"][0] == round(bits * SCALE)


def test_profile_rejects_scores_viterbi_cannot_use():
    rng = random.Random(43)
    p = random_profile(rng, "N", 2)
    fields = dict(
        name="N",
        accession="PF1.1",
        description="",
        model_length=2,
        match_emissions=p.match_emissions,
        insert_emissions=p.insert_emissions,
        transitions=p.transitions,
    )
    nan_row = (math.nan,) + p.match_emissions[0][1:]
    bad_transition = "transition at node 2 is NaN or below 0"
    for bad, message in (
        ({"match_emissions": (nan_row, p.match_emissions[1])}, "match emissions at node 1 sum to nan"),
        ({"transitions": (p.transitions[0], (math.nan,) + p.transitions[1][1:])}, bad_transition),
        ({"transitions": (p.transitions[0], (-math.inf,) + p.transitions[1][1:])}, bad_transition),
        # a probability above 1: the kernel needs every transition score <= 0
        ({"transitions": (p.transitions[0], (-1.0,) + p.transitions[1][1:])}, bad_transition),
        ({"background": (0.0,) + tuple([1.0 / 19] * 19)}, "background needs 20 positive finite frequencies"),
        ({"background": (0.06,) * 20}, r"background frequencies sum to 1\.2\d*, not 1"),
    ):
        with pytest.raises(SchemaError, match=message):
            ProfileHmm(**{**fields, **bad})


@pytest.mark.parametrize(
    "row, message",
    [("COMPO", "COMPO row at line 9 has a value far below 0"), ("1", "match emissions at node 1 sum to inf")],
    ids=["compo", "match"],
)
def test_parse_rejects_value_whose_probability_overflows(row, message):
    lines = write_hmm_library([random_profile(random.Random(5), "P", 2)]).splitlines()
    i = next(n for n, line in enumerate(lines) if line.split()[0] == row)
    tokens = lines[i].split()
    tokens[1] = "-1000"  # exp(1000) overflows a float
    lines[i] = "  ".join(tokens)
    with pytest.raises(SchemaError, match=message):
        parse_hmm_library("\n".join(lines) + "\n")


RESIDUE_HEADER = "'HMM A C D E F G H I K L M N P Q R S T V W Y'"
TRANSITION_HEADER = "'m->m m->i m->d i->m i->i d->m d->d'"


# Reversed residues would give each emission column to the wrong residue; a
# missing transition line used to skip the COMPO row in its place, so a
# non-uniform background silently became uniform.
@pytest.mark.parametrize(
    "row, line, message",
    [
        (6, "HMM   Y  W  V  T  S  R  Q  P  N  M  L  K  I  H  G  F  E  D  C  A", f"line 7 must be {RESIDUE_HEADER}"),
        (7, None, f"line 8 must be {TRANSITION_HEADER}, got 'COMPO"),
        (7, "      m->m  m->i  m->d  i->m  i->i  d->d  d->m", f"line 8 must be {TRANSITION_HEADER}"),
    ],
    ids=["residues-reversed", "transitions-missing", "transitions-out-of-order"],
)
def test_parse_rejects_column_header_lines_out_of_order(row, line, message):
    lines = library_text().splitlines()
    assert lines[row].split()[0] == ("HMM" if row == 6 else "m->m")
    if line is None:
        del lines[row]
    else:
        lines[row] = line
    with pytest.raises(SchemaError, match=re.escape(f"record 'MscL': {message}")):
        parse_hmm_library("\n".join(lines) + "\n")


def test_parse_rejects_background_that_is_not_a_distribution():
    # Twenty -0.5 values are frequencies of e**0.5 each, summing to 32.97.
    head, rest = library_text().split("COMPO", 1)
    tail = rest.split("\n", 1)[1]
    with pytest.raises(SchemaError, match=r"'MscL': background frequencies sum to 32\.97\d*, not 1"):
        parse_hmm_library(head + "COMPO" + "  -0.5" * 20 + "\n" + tail)


def test_parse_rejects_zero_background_frequency():
    text = library_text()
    head, compo_and_rest = text.split("COMPO", 1)
    first_value = compo_and_rest.split()[0]
    with pytest.raises(SchemaError, match="background needs 20 positive finite frequencies"):
        parse_hmm_library(head + "COMPO" + compo_and_rest.replace(first_value, "*", 1))


# --- selection and scan -----------------------------------------------------


def hit(acc, ev, score_, ali_from, ali_to):
    return DomainHit(
        pfam_id=acc,
        pfam_acc=acc,
        query="q",
        evalue=ev,
        score=score_,
        hmm_from=1,
        hmm_to=5,
        ali_from=ali_from,
        ali_to=ali_to,
        coverage_query=0.1,
        desc="",
    )


def test_select_threshold_and_overlap():
    hits = [
        hit("PF1", 1e-10, 50.0, 10, 40),
        hit("PF2", 1e-4, 20.0, 30, 60),  # overlaps PF1
        hit("PF3", 1e-3, 15.0, 70, 90),  # disjoint, under threshold
        hit("PF4", 0.5, 5.0, 100, 120),  # over threshold
    ]
    selected = select_domains(hits)
    assert [h.pfam_acc for h in selected] == ["PF1", "PF3"]


def test_select_ties_break_on_accession():
    hits = [hit("PF9", 1e-5, 10.0, 1, 5), hit("PF2", 1e-5, 10.0, 1, 5)]
    assert select_domains(hits)[0].pfam_acc == "PF2"


def test_scan_empty_library_rejected(mscl_seq):
    with pytest.raises(SchemaError, match="domain scan with an empty profile library"):
        scan([], mscl_seq)


def test_scan_bundled_library_on_channel_sequence(hmm_library, mscl_seq):
    result = scan(hmm_library, mscl_seq)
    assert [h.pfam_id for h in result.hits] == ["MscL", "ToyDom4", "ToyDom2", "ToyDom1", "ToyDom3"]
    assert [h.pfam_id for h in result.selected_domains] == ["MscL"]
    top = result.hits[0]
    assert top.score == 473.1
    # exact: the payload keeps 4 significant digits (approx's 1e-12 absolute
    # tolerance would accept any E-value this small)
    assert top.evalue == 2.277e-142
    assert [h.evalue for h in result.hits[1:]] == [0.0005018, 0.008272, 0.02088, 0.02088]
    assert top.query == "query"
    assert 0 < top.coverage_query <= 1.0


def test_scan_payload_keys(hmm_library, mscl_seq):
    payload = to_json(scan(hmm_library, mscl_seq))
    assert set(payload) == {"hits", "selected_domains"}
    assert set(payload["hits"][0]) == {
        "pfam_id", "pfam_acc", "query", "evalue", "score",
        "hmm_from", "hmm_to", "ali_from", "ali_to", "coverage_query", "desc",
    }


def test_scan_evalue_ordering(hmm_library, mscl_seq):
    result = scan(hmm_library, mscl_seq)
    evs = [h.evalue for h in result.hits]
    assert evs == sorted(evs)
    assert all(ev <= 1.0 for ev in evs)
