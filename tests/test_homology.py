import gc
import json
import logging
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_local_score,
    gotoh_local_score,
    gotoh_row_maxima,
    reference_candidate_ordinals,
    reference_index_keys,
    reference_kmer_sites,
    reference_search_best_hit,
    reference_smith_waterman,
    rolling_kmer_codes,
    scalar_smith_waterman,
)
from protagent import homology
from protagent.blosum62 import BLOSUM62, score
from protagent.errors import SchemaError, to_json
from protagent.homology import (
    MAX_ENTRIES,
    MAX_ENTRY_RESIDUES,
    Alignment,
    AnnotationRecord,
    ReferenceEntry,
    _candidate_ordinals,
    _kmer_codes,
    build_index,
    e_value,
    bit_score,
    load_annotations,
    load_built_store,
    local_score,
    make_evidence,
    save_built_store,
    score_profile,
    search_best_hit,
    smith_waterman,
)
from protagent.seq import CANONICAL_RESIDUES, Sequence

short_st = st.text(alphabet=CANONICAL_RESIDUES, min_size=1, max_size=4)
medium_st = st.text(alphabet=CANONICAL_RESIDUES, min_size=1, max_size=30)


def seq(res: str, sid: str = "t") -> Sequence:
    return Sequence(id=sid, residues=res)


def annotation(acc: str) -> AnnotationRecord:
    return AnnotationRecord(accessions=(acc,), protein_name=f"protein {acc}")


def entry(acc: str, res: str) -> ReferenceEntry:
    return ReferenceEntry(accession=acc, sequence=seq(res, acc), annotation=annotation(acc))


# --- substitution matrix ----------------------------------------------------


def test_blosum62_is_symmetric_and_complete():
    letters = CANONICAL_RESIDUES + "X"
    for a in letters:
        for b in letters:
            assert BLOSUM62[(a, b)] == BLOSUM62[(b, a)]


def test_blosum62_spot_values():
    assert score("W", "W") == 11
    assert score("A", "A") == 4
    assert score("L", "I") == 2
    assert score("E", "W") == -3
    assert score("X", "A") == 0


# --- local alignment --------------------------------------------------------


def test_self_alignment_is_identity():
    aln = smith_waterman(seq("MLKEFK"), seq("MLKEFK"))
    assert aln.identities == aln.aligned_length == 6
    assert aln.score == sum(BLOSUM62[(c, c)] for c in "MLKEFK")
    assert (aln.query_start, aln.query_end) == (1, 6)
    assert (aln.target_start, aln.target_end) == (1, 6)


def test_no_alignment_returns_none():
    assert smith_waterman(seq("W"), seq("E")) is None


def test_gap_cost_open_plus_extend():
    # bridging a two-residue gap costs 11 + 1 = 12; four tryptophan
    # matches (44) make the bridged alignment beat the ungapped halves
    aln = smith_waterman(seq("WWWW"), seq("WWDDWW"))
    assert aln.score == 4 * 11 - (11 + 1)
    assert aln.aligned_length == 6
    assert aln.identities == 4


def test_leftmost_alignment_reported_on_ties():
    aln = smith_waterman(seq("LL"), seq("LLDLL"))
    assert aln.score == 8
    assert (aln.query_start, aln.target_start) == (1, 1)


@given(short_st, short_st)
@settings(max_examples=150, deadline=None)
def test_score_matches_exhaustive_enumeration(a, b):
    aln = smith_waterman(seq(a), seq(b))
    expected = brute_local_score(a, b)
    assert (0 if aln is None else aln.score) == expected


@given(medium_st, medium_st)
@settings(max_examples=150, deadline=None)
def test_score_matches_independent_gotoh(a, b):
    aln = smith_waterman(seq(a), seq(b))
    assert (0 if aln is None else aln.score) == gotoh_local_score(a, b)


@given(medium_st, medium_st)
@settings(max_examples=100, deadline=None)
def test_alignment_internal_consistency(a, b):
    aln = smith_waterman(seq(a), seq(b))
    if aln is None:
        return
    assert 1 <= aln.query_start <= aln.query_end <= len(a)
    assert 1 <= aln.target_start <= aln.target_end <= len(b)
    assert aln.identities <= aln.aligned_length
    span_q = aln.query_end - aln.query_start + 1
    span_t = aln.target_end - aln.target_start + 1
    assert aln.aligned_length >= max(span_q, span_t)


# --- exactness against the pointer-matrix kernel ---------------------------


def assert_matches_reference(a: str, b: str) -> Alignment | None:
    q, t = seq(a, "q"), seq(b, "t")
    aln = smith_waterman(q, t)
    assert aln == reference_smith_waterman(q, t), (a, b)
    return aln


def random_residues(rng: random.Random, alphabet: str, low: int, high: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def mutated_homolog(rng: random.Random, residues: str) -> str:
    """About 20% substitutions, 5% deletions and 5% insertions of 1-4 residues."""
    out = []
    for c in residues:
        r = rng.random()
        if r < 0.2:
            out.append(rng.choice(CANONICAL_RESIDUES + "X"))
        elif r < 0.25:
            continue
        else:
            out.append(c)
            if r < 0.3:
                out.append(random_residues(rng, CANONICAL_RESIDUES, 1, 4))
    return "".join(out) or residues


@pytest.mark.parametrize(
    "alphabet, pairs, max_len",
    [(CANONICAL_RESIDUES + "X", 600, 40), ("LD", 600, 16), ("WA", 600, 16), ("LLLLD", 300, 24)],
    ids=["21-letters", "LD", "WA", "LLLLD"],
)
def test_alignment_equals_reference_on_random_pairs(alphabet, pairs, max_len):
    # Two-letter alphabets make equal-score paths, and so every tie rule, common.
    rng = random.Random(alphabet)
    for _ in range(pairs):
        assert_matches_reference(random_residues(rng, alphabet, 1, max_len), random_residues(rng, alphabet, 1, max_len))


def test_alignment_equals_reference_on_mutated_homologs():
    rng = random.Random(11)
    for _ in range(80):
        a = random_residues(rng, CANONICAL_RESIDUES, 20, 100)
        assert_matches_reference(a, mutated_homolog(rng, a))
        assert_matches_reference(mutated_homolog(rng, a), a)


# Hand-built ties. Each pair has two optimal alignments that one tie rule
# tells apart; the kernel reports the first one named below, and flipping
# that rule reports the second.


def test_tie_gap_opens_rather_than_extends():
    # Two paths score 21 against MWWMGW: MMW-GW leaves one target letter
    # unaligned (5 - 1 + 11 - 11 + 6 + 11), and MW--GW, from the second M,
    # leaves two (5 + 11 - 12 + 6 + 11). Where the one-letter gap opens,
    # the two-letter gap extends at the same score, and the gap opens.
    assert assert_matches_reference("MMWGW", "MWWMGW") == Alignment(21, 1, 5, 1, 6, 4, 6)
    # The same pair transposed puts the tie in F (a gap in the target).
    assert assert_matches_reference("MWWMGW", "MMWGW") == Alignment(21, 1, 6, 1, 5, 4, 6)


def test_tie_diagonal_beats_gap_in_query():
    # AWAW|AWWW scores 23 ungapped; WA-WAW|WAAWWW also scores 23 through a
    # gap. At cell (2, 3) the diagonal (a fresh A|A) and E (WA|WA, then the
    # gap) both score 4, and the diagonal wins, although the gapped path
    # starts earlier.
    assert assert_matches_reference("WAWAW", "WAAWWW") == Alignment(23, 2, 5, 3, 6, 3, 4)


def test_tie_diagonal_beats_gap_in_target():
    # The same tie between the diagonal and F: at cell (3, 2) a fresh G|G
    # and WG|WG followed by a gap both score 6, so GWW|GWW (28) is
    # reported, not WGGWW|WG-WW (28).
    assert assert_matches_reference("WGGWWW", "WGWWG") == Alignment(28, 3, 5, 2, 4, 3, 3)


def test_tie_equal_ends_with_equal_start_report_the_first():
    # X scores 0 against E, so L|L and LX|LE both score 4 from (1, 1): the
    # end first in row-major order wins.
    assert assert_matches_reference("LX", "LE") == Alignment(4, 1, 1, 1, 1, 1, 1)


def test_tie_later_end_cell_with_smaller_start_wins():
    # AG|AG ends at (3, 2) from (2, 1), and AAG|AGG (A|G scores 0) ends at
    # (3, 3) from (1, 1); both score 10. The end cell first in row-major
    # order starts later, so only tracing back every end cell reports (1, 1).
    assert assert_matches_reference("AAG", "AGG") == Alignment(10, 1, 3, 1, 3, 2, 3)


@st.composite
def tie_heavy_pairs(draw):
    """A sequence over a small alphabet and a copy with up to three edits
    (a cut of up to 3 residues and an insert of up to 4), so that gapped and
    ungapped paths of equal score are common."""
    alphabet = draw(st.sampled_from(["WAG", "MWGX", "LD"]))
    a = draw(st.text(alphabet=alphabet, min_size=1, max_size=24))
    b = a
    for at, cut, insert in draw(
        st.lists(st.tuples(st.integers(0, len(a)), st.integers(0, 3), st.text(alphabet=alphabet, max_size=4)), max_size=3)
    ):
        b = b[:at] + insert + b[at + cut :]
    return a, b or a


@given(tie_heavy_pairs())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_alignment_equals_reference_on_tie_heavy_alphabets(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize(
    "a, b",
    [
        ("W", "W" * 3000),
        ("W" * 200, "W" * 3000),
        ("AG" * 100, "AG" * 1500),
        ("W" * 1000, "W" * 1000),
        # No path starts at (1, 1), so every end cell is traced back.
        ("W", "A" + "W" * 400),
        ("A" + "W" * 40, "W" * 400),
    ],
    ids=["W-x-W3000", "W200-x-W3000", "AG100-x-AG1500", "W1000-x-W1000", "W-x-AW400", "AW40-x-W400"],
)
def test_alignment_equals_scalar_kernel_on_long_ties(a, b):
    # Thousands of best-scoring end cells, or one path a thousand steps long.
    q, t = seq(a, "q"), seq(b, "t")
    assert smith_waterman(q, t) == scalar_smith_waterman(q, t)


# --- bit-parallel score pass ------------------------------------------------


def assert_score_matches_reference(a: str, b: str) -> int:
    """local_score with either sequence packed equals the reference
    alignment's score (0 for None); returns that score."""
    ref = reference_smith_waterman(seq(a, "q"), seq(b, "t"))
    want = ref.score if ref else 0
    assert local_score(score_profile(seq(a, "q"), len(b)), b) == want, (a, b)
    assert local_score(score_profile(seq(b, "q"), len(a)), a) == want, (b, a)
    return want


@pytest.mark.parametrize(
    "alphabet, pairs, max_len",
    [(CANONICAL_RESIDUES + "X", 400, 60), ("LD", 300, 30), ("WA", 300, 30), ("LLLLD", 200, 40)],
    ids=["21-letters", "LD", "WA", "LLLLD"],
)
def test_score_equals_reference_on_random_pairs(alphabet, pairs, max_len):
    rng = random.Random(f"score-{alphabet}")
    for _ in range(pairs):
        assert_score_matches_reference(
            random_residues(rng, alphabet, 1, max_len), random_residues(rng, alphabet, 1, max_len)
        )


def test_score_equals_reference_on_single_residues():
    letters = CANONICAL_RESIDUES + "X"
    for a in letters:
        for b in letters:
            assert assert_score_matches_reference(a, b) == max(BLOSUM62[(a, b)], 0)


def test_score_equals_reference_across_long_gaps():
    # Gaps of up to 40 residues in either sequence: E runs that take the
    # prefix scan several doublings to carry.
    rng = random.Random(17)
    gapped = 0
    for _ in range(40):
        a = random_residues(rng, CANONICAL_RESIDUES, 30, 90)
        cut = rng.randint(5, len(a) - 5)
        b = a[:cut] + random_residues(rng, CANONICAL_RESIDUES, 1, 40) + a[cut:]
        b = mutated_homolog(rng, b)
        gapped += assert_score_matches_reference(a, b) > assert_score_matches_reference(a[:cut], b)
    assert gapped > 20


def test_score_equals_reference_on_lopsided_lengths():
    # A short sequence packs narrow fields; a long one packed against it
    # keeps many positions in those narrow fields.
    rng = random.Random(23)
    for _ in range(30):
        short = random_residues(rng, "WCYHM", 2, 6)
        long = random_residues(rng, CANONICAL_RESIDUES, 100, 260)
        at = rng.randint(0, len(long))
        assert assert_score_matches_reference(short, long[:at] + short + long[at:]) > 0
        assert_score_matches_reference(short, long)


def test_score_equals_reference_with_runs_far_apart():
    # Packed against WWWWWW, the long query has 9-bit fields (B = 11 * 6,
    # B + 15 = 81), so the gap scan's shifts end at 64 fields, although the
    # packed query is longer; a longer shift would carry nothing.
    for gap in (100, 250, 257, 263, 270, 300, 520):
        assert assert_score_matches_reference("WWW" + "G" * gap + "WWW", "WWWWWW") == 33


def test_score_equals_reference_on_mutated_homologs():
    rng = random.Random(29)
    for _ in range(25):
        a = random_residues(rng, CANONICAL_RESIDUES + "X", 20, 120)
        assert_score_matches_reference(a, mutated_homolog(rng, a))


def test_score_fills_the_widest_field():
    # 3000 W|W pairs score 11 each, the bound B = 33000 itself: B + 15 =
    # 33015 takes 16 bits, and each field 18 with the headroom bit and the
    # guard.
    w = "W" * 3000
    profile = score_profile(seq(w), len(w))
    assert profile.width == 18
    assert local_score(profile, w) == 33000


@given(st.one_of(st.tuples(medium_st, medium_st), tie_heavy_pairs()))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_bounded_pass_gives_up_only_below_its_floor(pair):
    # A pass bounded below by floor returns None only when the unbounded
    # score is below floor, and otherwise exactly the unbounded peaks and
    # columns. A sequence against itself scores the sum of its residues'
    # bounds, so the bound is tight from the first column: one point above
    # the score, the pass must give up at once.
    a, b = pair
    profile = score_profile(seq(a, "q"), len(b))
    full = homology._score_pass(profile, b)
    score = homology._largest_field(profile, full[0])
    for floor in {0, max(0, score - 1), score, score + 1}:
        got = homology._score_pass(profile, b, floor)
        if got is None:
            assert score < floor, (a, b, floor)
        else:
            assert got == full, (a, b, floor)
    if a == b:
        assert homology._score_pass(profile, b, score + 1) is None, a


# --- field width and gap scan ------------------------------------------------

# Letters by their best BLOSUM62 score (the diagonal).
BEST_FOUR, BEST_FIVE = "AILSV", "RQEKMT"


def residues_scoring(rng: random.Random, total: int) -> str:
    """Random X-free residues whose diagonal scores sum to total (>= 12)."""
    out, left = [], total
    while left > 23:
        c = rng.choice(CANONICAL_RESIDUES)
        out.append(c)
        left -= BLOSUM62[(c, c)]
    # 12 <= left <= 23 is a sum of 4s and 5s.
    fives = left % 4
    out += [rng.choice(BEST_FIVE) for _ in range(fives)]
    out += [rng.choice(BEST_FOUR) for _ in range((left - 5 * fives) // 4)]
    rng.shuffle(out)
    return "".join(out)


def packed_fields(profile, packed: int) -> list[int]:
    mask = (1 << profile.width) - 1
    return [packed >> (i * profile.width) & mask for i in range(profile.length)]


def assert_field_maxima_match_reference(a: str, b: str) -> list[int]:
    """Each query position's best H cell from the packed pass over a's
    profile equals the reference DP's row maximum, with nothing above the
    top field; returns them."""
    profile = score_profile(seq(a, "q"), len(b))
    packed = homology._score_pass(profile, b)[0]
    assert packed >> (profile.length * profile.width) == 0
    got = packed_fields(profile, packed)
    assert got == gotoh_row_maxima(a, b), (a, b)
    return got


@pytest.mark.parametrize("k", [6, 9, 12])
@pytest.mark.parametrize("over", [-1, 0], ids=["2**k-1", "2**k"])
def test_self_alignment_scores_the_bound_at_width_edges(k, over):
    # Every letter's diagonal is its row maximum, so a self-alignment scores
    # the bound B exactly. B + 15 = 2**k - 1 fills k bits and 2**k needs
    # k + 1: the width is the narrowest that keeps the headroom bit below
    # the guard clear of B + 15, so it steps up by one between the two.
    bound = 2**k + over - 15
    rng = random.Random(f"bound-{k}{over}")
    q = seq(residues_scoring(rng, bound), "q")
    profile = score_profile(q, q.length)
    assert 2 ** (profile.width - 3) <= bound + 15 < 2 ** (profile.width - 2)
    assert local_score(profile, q.residues) == bound
    assert smith_waterman(q, q) == Alignment(bound, 1, q.length, 1, q.length, q.length, q.length)


def test_score_equals_reference_on_narrowest_fields():
    # Queries of letters whose best score is 4 (AILSV) or 0 (X) pack the
    # narrowest fields for their length. Each target holds the query's two
    # halves apart by a long gap, and each query holds a long insert, so E
    # and F both run far.
    rng = random.Random(41)
    for _ in range(40):
        q = random_residues(rng, BEST_FOUR + "XX", 4, 40)
        cut = rng.randint(1, len(q) - 1)
        target = (random_residues(rng, CANONICAL_RESIDUES, 20, 120) + q[:cut]
                  + random_residues(rng, CANONICAL_RESIDUES, 10, 60) + q[cut:]
                  + random_residues(rng, CANONICAL_RESIDUES, 20, 120))
        inserted = q[:cut] + random_residues(rng, BEST_FOUR + "X", 10, 40) + q[cut:]
        assert score_profile(seq(q), len(target)).width <= 10
        for query in (q, inserted):
            assert_score_matches_reference(query, target)
            assert_field_maxima_match_reference(query, target)
    assert score_profile(seq("AXXXXXXXXV"), 300).width == 7  # B = 8


@pytest.mark.parametrize("tail", ["X", "G"])
def test_gap_scan_takes_its_last_step(tail):
    # W * 10 against itself scores 110 = B (for X, the sum of best scores;
    # for G, 11 * the target length), so the fields are 9 bits and the
    # scan's shifts end at 64. In the last column the gap opened below the
    # tail (99) reaches the tail's last field 69 fields up, at 30: only the
    # shift of 64 carries it there.
    q = "W" * 10 + tail * 70
    assert score_profile(seq(q), 10).width == 9
    maxima = assert_field_maxima_match_reference(q, "W" * 10)
    assert maxima[10:] == [99 - k for k in range(70)]


# --- statistics -------------------------------------------------------------


def test_bit_score_and_evalue_formulas():
    import math

    bits = bit_score(100)
    assert bits == pytest.approx((0.267 * 100 - math.log(0.041)) / math.log(2))
    assert e_value(bits, 50, 1000) == pytest.approx(50 * 1000 * 2.0 ** (-bits))


# --- index and search -------------------------------------------------------


def test_build_index_rejects_empty_store():
    with pytest.raises(SchemaError, match="cannot build an index over zero entries"):
        build_index([])


def test_short_entries_warn_but_index(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        index = build_index([entry("A1", "MLK"), entry("A2", "MLKEFKEF")])
    assert "A1" in caplog.text
    assert index.total_residues == 11


def test_prefilter_requires_shared_kmers():
    index = build_index([entry("A1", "W" * 40)])
    assert search_best_hit(index, seq("MLKEFKEFALKGNVLDLAIA")) is None


def test_self_search_is_perfect_hit(store_index):
    mscl = store_index.entries[0].sequence
    hit = search_best_hit(store_index, Sequence(id="query", residues=mscl.residues))
    assert hit.target == "Q4L656"
    assert hit.pident == 100.0
    assert hit.alnlen == mscl.length


def test_min_seq_id_filters_weak_hits(store_index):
    mscl = store_index.entries[0].sequence
    q = Sequence(id="query", residues=mscl.residues)
    assert search_best_hit(store_index, q, min_seq_id=1.0).pident == 100.0


def test_accession_breaks_exact_ties():
    res = "MLKEFKEFALKGNVLDLAIAVVMG"
    index = build_index([entry("B2", res), entry("A1", res)])
    hit = search_best_hit(index, seq(res, "query"))
    assert hit.target == "A1"


def test_best_hit_independent_of_entry_order(store_entries):
    q = Sequence(id="query", residues=store_entries[0].sequence.residues)
    forward = search_best_hit(build_index(store_entries), q)
    assert forward is not None
    assert search_best_hit(build_index(store_entries[::-1]), q) == forward


def test_make_evidence_shape(store_index, store_annotations):
    mscl = store_index.entries[0].sequence
    hit = search_best_hit(store_index, Sequence(id="query", residues=mscl.residues))
    evidence = make_evidence(hit, store_annotations)
    assert set(evidence) == {"best_hit", "uniprot_annotation"}
    assert evidence["best_hit"]["target"] == "Q4L656"
    assert evidence["uniprot_annotation"]["protein_name"].startswith("Large-conductance")


def test_make_evidence_missing_annotation(store_index):
    mscl = store_index.entries[0].sequence
    hit = search_best_hit(store_index, Sequence(id="query", residues=mscl.residues))
    with pytest.raises(SchemaError, match="no annotation stored for accession 'Q4L656'"):
        make_evidence(hit, {})


# --- packed index against the dict postings --------------------------------


def test_build_index_rejects_overlong_entry_before_indexing(caplog):
    import logging

    entries = [entry("SHORT", "ML"), entry("LONG1", "A" * (MAX_ENTRY_RESIDUES + 1))]
    with caplog.at_level(logging.WARNING), pytest.raises(SchemaError, match="LONG1"):
        build_index(entries)
    assert "SHORT" not in caplog.text  # rejected before the first entry was indexed


def test_offsets_up_to_the_entry_limit_decode():
    # The longest entry allowed. The six 5-mers of the first block sit at
    # offsets 2**19 - 3 to 2**19 + 2, three on each side of bit 19; the last
    # block ends the entry, at offset 2**20 - 5.
    half = MAX_ENTRY_RESIDUES // 2
    res = "A" * (half - 3) + "MKWCHPQRDE" + "A" * (half - 17) + "CHWMKDEPQR"
    index = build_index([entry("W0", "MKWCHPQRDE"), entry("EDGE", res)])
    assert len(res) == MAX_ENTRY_RESIDUES
    assert _candidate_ordinals(index, seq("MKWCHPQRDE")) == [0, 1]
    assert _candidate_ordinals(index, seq("CHWMKDEPQR")) == [1]


def test_build_index_rejects_too_many_entries_before_iterating():
    class Uniterable(list):
        def __iter__(self):
            raise AssertionError("build_index iterated over the entries")

    with pytest.raises(SchemaError, match=str(MAX_ENTRIES)):
        build_index(Uniterable([entry("A1", "MLKEFKEF")] * (MAX_ENTRIES + 1)))


def assert_candidates_match_reference(entries, queries) -> int:
    """Equal candidate lists for every query; returns how many of them were
    nonempty, so a test can tell it was not vacuous."""
    index = build_index(entries)
    nonempty = 0
    for q in queries:
        query = seq(q, "query")
        got = _candidate_ordinals(index, query)
        assert sorted(got) == reference_candidate_ordinals(entries, query), q
        assert got == sorted(got, key=lambda o: (-reference_kmer_sites(q, entries[o].sequence.residues), o)), q
        nonempty += bool(got)
    return nonempty


def random_store(rng: random.Random, alphabet: str, n: int) -> list[ReferenceEntry]:
    """Entries of 1-90 residues, some shorter than 5, some with homopolymer
    runs (one k-mer at many offsets) and some with X."""
    entries = []
    for i in range(n):
        res = random_residues(rng, alphabet, 1, 60)
        if i % 3 == 0:
            cut = rng.randint(0, len(res))
            res = res[:cut] + rng.choice("LAXY") * rng.randint(5, 30) + res[cut:]
        entries.append(entry(f"R{i}", res))
    return entries


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6, 1000, 1001, 4099])
def test_kmer_codes_equal_rolling_reference(length):
    rng = random.Random(length)
    alphabet = CANONICAL_RESIDUES + "XXXX"
    for _ in range(30 if length <= 6 else 3):
        res = "".join(rng.choice(alphabet) for _ in range(length))
        assert list(_kmer_codes(res)) == rolling_kmer_codes(res)
    for c in "AXY":  # code 0, a run of X, the top code
        assert list(_kmer_codes(c * length)) == rolling_kmer_codes(c * length)


# Regions of one key or so each; the default; a single region.
@pytest.mark.parametrize("region_keys", [1, 128, 10**9], ids=["tiny-regions", "default-regions", "one-region"])
def test_build_index_keys_equal_sorted_reference(monkeypatch, caplog, region_keys):
    monkeypatch.setattr(homology, "_REGION_KEYS", region_keys)
    rng = random.Random(region_keys)
    # ACWY leaves most regions empty.
    for alphabet in (CANONICAL_RESIDUES + "X", "ACWY"):
        entries = random_store(rng, alphabet, 60)
        entries.insert(rng.randint(0, 60), entry("POLYA", "A" * 500))  # 496 keys of code 0
        short = [e.accession for e in entries if e.sequence.length < 5]
        assert short
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            keys = build_index(entries).keys
        assert keys.typecode == "Q"
        assert list(keys) == reference_index_keys(entries)
        assert all(f"entry {a} shorter than k=5" in caplog.text for a in short)
    assert len(build_index([entry("S1", "MLK"), entry("S2", "W")]).keys) == 0


def test_build_index_peak_memory_is_about_one_key_array():
    # The traced peak of the build over the bytes of the key array it
    # returns. This build reads 1.17; one that held its keys twice (in
    # buckets, then in the array) read 2.35, and one that kept every code
    # as well would add 0.5. Short entries keep the traced build fast.
    rng = random.Random(1000)
    entries = [entry(f"M{i}", random_residues(rng, CANONICAL_RESIDUES, 20, 40)) for i in range(1000)]
    gc.collect()
    tracemalloc.start()
    try:
        keys = build_index(entries).keys
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / (keys.itemsize * len(keys))
    assert ratio < 1.5, ratio


@pytest.mark.parametrize("alphabet", [CANONICAL_RESIDUES + "X", "LKDEX", "ACWY"], ids=["21-letters", "LKDEX", "ACWY"])
def test_candidates_equal_reference_on_random_stores(alphabet):
    rng = random.Random(alphabet)
    for _ in range(3):
        entries = random_store(rng, alphabet, 40)
        queries = [mutated_homolog(rng, e.sequence.residues) for e in rng.sample(entries, 10)]
        queries += [random_residues(rng, alphabet, 1, 80) for _ in range(5)]
        queries += ["L" * 12, "X" * 6, "A" * 4]
        nonempty = assert_candidates_match_reference(entries, queries)
        assert nonempty >= 8
        assert assert_candidates_match_reference(entries[::-1], queries) == nonempty


def test_candidates_equal_reference_at_code_edges():
    # AAAAA is code 0 and YYYYY the top code 21**5 - 1; AAAAC and YYYYX are
    # their neighbours; CCCCC and MKMKM occur nowhere in the store. A query
    # of six equal residues holds its 5-mer twice, on adjacent diagonals:
    # the two hits a candidate needs.
    entries = [
        entry("E0", "AAAAA"),
        entry("E1", "MAAAAAAAW"),
        entry("E2", "AAAAC"),
        entry("E3", "YYYYX"),
        entry("E4", "WYYYYYYY"),
        entry("E5", "YYYYY"),
    ]
    queries = ["AAAAA", "AAAAAA", "AAAAAAA", "AAAAAC", "YYYYYY", "YYYYYYY", "YYYYYX", "CCCCCC", "MKMKMK",
               "AAAAAYYYYY", "AAAAAAYYYYYY"]
    assert assert_candidates_match_reference(entries, queries) > 0
    assert assert_candidates_match_reference(entries[::-1], queries) > 0
    index = build_index(entries)
    assert sorted(_candidate_ordinals(index, seq("AAAAAA"))) == [0, 1]
    assert sorted(_candidate_ordinals(index, seq("YYYYYY"))) == [4, 5]
    assert _candidate_ordinals(index, seq("CCCCCC")) == []
    # The top code's one site is the last key; past WWWWW there is no key.
    index = build_index([entry("E0", "AAAAA"), entry("E1", "MYYYYY")])
    assert _candidate_ordinals(index, seq("YYYYYY")) == [1]
    index = build_index([entry("E0", "AAAAA"), entry("E1", "WWWWW")])
    assert [_candidate_ordinals(index, seq(q)) for q in ("YYYYYY", "WWWWWW")] == [[], [1]]


def test_candidates_equal_reference_at_band_edges():
    # Each query shares u and v with each entry on diagonals 13 to 21 apart,
    # from odd and even offsets; the threshold of 2 keeps the pairs at most
    # 16 apart.
    u, v, fill = "MKWCH", "PQRDE", "G" * 40
    entries = [
        entry(f"S{lead}-{gap}", "A" * lead + u + fill[:gap] + v)
        for lead in (0, 1, 2, 3)
        for gap in (0, 1, 2, 3)
    ]
    queries = [u + fill[:g] + v for g in (16, 17, 18, 19, 20, 21)]
    assert assert_candidates_match_reference(entries, queries) > 0


# --- persistence ------------------------------------------------------------


def test_annotation_record_requires_accession():
    with pytest.raises(SchemaError):
        AnnotationRecord(accessions=(), protein_name="x")


def test_annotation_json_round_trip():
    rec = AnnotationRecord(
        accessions=("P1", "P2"),
        protein_name="thing",
        function=("does stuff",),
        go=("GO:1",),
    )
    assert AnnotationRecord.from_json(to_json(rec)) == rec


def test_load_annotations_rejects_bad_json(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text("not json\n")
    with pytest.raises(SchemaError):
        load_annotations(str(path))


def test_built_store_round_trip(tmp_path, store_entries):
    path = tmp_path / "store.json"
    save_built_store(store_entries, str(path))
    loaded = load_built_store(str(path))
    assert [e.accession for e in loaded] == [e.accession for e in store_entries]
    assert loaded[0].annotation == store_entries[0].annotation
    assert loaded[0].sequence.residues == store_entries[0].sequence.residues


def test_load_built_store_rejects_other_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"foo": 1}))
    with pytest.raises(SchemaError):
        load_built_store(str(path))


GOOD_RECORD = {"accessions": ["P12345"], "protein_name": "thing", "go": ["GO:1"]}
MISTYPED_RECORDS = [
    pytest.param(5, id="number"),
    pytest.param(["P12345"], id="list"),
    pytest.param({**GOOD_RECORD, "protein_name": 5}, id="protein_name-number"),
    pytest.param({**GOOD_RECORD, "accessions": "P12345"}, id="accessions-string"),
    pytest.param({**GOOD_RECORD, "go": None}, id="go-null"),
    pytest.param({**GOOD_RECORD, "function": ["ok", 7]}, id="function-number-item"),
]


@pytest.mark.parametrize("record", MISTYPED_RECORDS)
def test_mistyped_annotation_records_are_schema_errors(tmp_path, record):
    with pytest.raises(SchemaError):
        AnnotationRecord.from_json(record)
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n\n" + json.dumps(record) + "\n")
    with pytest.raises(SchemaError, match="annotation line 3"):
        load_annotations(str(path))
    store = {"entries": [{"accession": "A1", "sequence": "MLKEFKEF", "annotation": GOOD_RECORD},
                         {"accession": "A2", "sequence": "MLKEFKEF", "annotation": record}]}
    path = tmp_path / "store.json"
    path.write_text(json.dumps(store))
    with pytest.raises(SchemaError, match="store entry 2"):
        load_built_store(str(path))


@pytest.mark.parametrize("line", ["[1]", "5", "null", '"P12345"'])
def test_non_object_annotation_line_names_line(tmp_path, line):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
    with pytest.raises(SchemaError, match="^annotation line 2 is not a JSON object$"):
        load_annotations(str(path))


def test_annotation_key_repeated_within_a_line_is_schema_error(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"accessions": ["A1"], "protein_name": "a", "go": ["GO:1"], "go": []}\n')
    with pytest.raises(SchemaError, match=r"annotation line 1: duplicate key 'go' \(first at key 3\)"):
        load_annotations(str(path))
    # a repeat inside a nested object counts too
    path.write_text('{"accessions": ["A1"], "protein_name": "a", "x": {"k": 1, "k": 2}}\n')
    with pytest.raises(SchemaError, match=r"annotation line 1: duplicate key 'k'"):
        load_annotations(str(path))


def test_load_annotations_rejects_non_string_accession(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({**GOOD_RECORD, "accession": ["P12345"]}) + "\n")
    with pytest.raises(SchemaError, match="annotation line 1"):
        load_annotations(str(path))


def store_entry(**fields) -> dict:
    return {"accession": "A1", "sequence": "MLKEFKEF", "annotation": GOOD_RECORD, **fields}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="invalid-json"),
        pytest.param("[1]", id="list"),
        pytest.param("5", id="number"),
        pytest.param({"entries": {"accession": "A1"}}, id="entries-object"),
        pytest.param({"entries": [5]}, id="entry-number"),
        pytest.param({"entries": [{"sequence": "MLKEFKEF", "annotation": GOOD_RECORD}]}, id="no-accession"),
        pytest.param({"entries": [store_entry(accession=5)]}, id="accession-number"),
        pytest.param({"entries": [store_entry(sequence=5)]}, id="sequence-number"),
        pytest.param({"entries": [store_entry(sequence={"s": "ML"})]}, id="sequence-object"),
        pytest.param({"entries": [store_entry(sequence="ML1")]}, id="sequence-bad-residue"),
        pytest.param({"entries": [{"accession": "A1", "sequence": "MLKEFKEF"}]}, id="no-annotation"),
        pytest.param({"entries": [store_entry(), store_entry(sequence="WWWWWWWW")]}, id="duplicate-accession"),
    ],
)
def test_load_built_store_raises_only_schema_errors(tmp_path, text):
    path = tmp_path / "store.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    with pytest.raises(SchemaError):
        load_built_store(str(path))


def test_load_reference_store_requires_annotations(tmp_path):
    fasta = tmp_path / "s.fasta"
    fasta.write_text(">A1\nMLKEFKEF\n")
    ann = tmp_path / "a.jsonl"
    ann.write_text(json.dumps({"accessions": ["OTHER"], "protein_name": "x"}) + "\n")
    message = f"{fasta}: entry 'A1' has no annotation record in {ann}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        homology.load_reference_store(str(fasta), str(ann))


def test_load_annotations_rejects_duplicate_accession(tmp_path):
    path = tmp_path / "ann.jsonl"
    first = {"accessions": ["A1"], "protein_name": "first"}
    second = {"accessions": ["B2"], "protein_name": "second", "accession": "A1"}
    path.write_text(json.dumps(first) + "\n\n" + json.dumps(second) + "\n")
    with pytest.raises(SchemaError, match=r"line 3: duplicate accession 'A1' \(first on line 1\)"):
        load_annotations(str(path))


def test_load_reference_store_rejects_duplicate_fasta_id(tmp_path):
    fasta = tmp_path / "s.fasta"
    fasta.write_text(">A1 first\nMLKEFKEFAL\n>B2\nMLKEF\nKEF\n>A1 second\nWWWWWWWWWW\n")
    ann = tmp_path / "a.jsonl"
    ann.write_text("".join(json.dumps({"accessions": [a], "protein_name": a}) + "\n" for a in ("A1", "B2")))
    with pytest.raises(SchemaError, match=re.escape(f"{fasta}: line 6: duplicate id 'A1' (first on line 1)")):
        homology.load_reference_store(str(fasta), str(ann))


# --- best-first search against the align-everything oracle ----------------


def assert_search_matches_reference(index, query, min_seq_ids=(0.0, 0.3, 0.6, 0.9, 1.0)) -> list:
    hits = []
    for min_seq_id in min_seq_ids:
        hit = search_best_hit(index, query, min_seq_id=min_seq_id)
        assert hit == reference_search_best_hit(index, query, min_seq_id=min_seq_id), (query, min_seq_id)
        hits.append(hit)
    return hits


def test_equal_scores_rank_by_accession_not_store_order():
    rng = random.Random(31)
    res = random_residues(rng, CANONICAL_RESIDUES, 60, 60)
    decoy = res[:30] + random_residues(rng, CANONICAL_RESIDUES, 30, 30)
    index = build_index([entry("Z9", res), entry("B0", decoy), entry("M5", res), entry("A1", res)])
    query = seq(mutated_homolog(rng, res), "query")
    hits = assert_search_matches_reference(index, query)
    assert hits[0].target == "A1"


# A positive-scoring neighbour of most residues: a swapped sequence keeps a
# high score against the original, at low identity.
NEIGHBOUR = {"I": "V", "V": "I", "L": "M", "M": "L", "K": "R", "R": "K", "E": "Q", "Q": "E",
             "D": "E", "N": "S", "S": "T", "T": "S", "F": "Y", "Y": "F", "H": "Y", "W": "Y"}


def neighbour_swapped(residues: str, keep: int) -> str:
    """The first `keep` residues as they are (shared k-mers for the
    prefilter), every later one swapped for its neighbour."""
    return residues[:keep] + "".join(NEIGHBOUR.get(c, c) for c in residues[keep:])


def test_top_scorer_failing_min_seq_id_gives_way():
    # TOP keeps the query's first 12 residues and swaps the rest for
    # positive-scoring neighbours: the best score, at low identity. EXACT is
    # a 25-residue piece of the query: less score, full identity.
    rng = random.Random(37)
    q = random_residues(rng, CANONICAL_RESIDUES, 90, 90)
    top = neighbour_swapped(q, 12)
    index = build_index([entry("TOP", top), entry("EXACT", q[40:65])])
    query = seq(q, "query")
    top_aln, exact_aln = (smith_waterman(query, e.sequence) for e in index.entries)
    assert top_aln.score > exact_aln.score
    assert top_aln.identities / top_aln.aligned_length < 0.8
    hits = assert_search_matches_reference(index, query, min_seq_ids=(0.0, 0.8, 1.0))
    assert [h.target for h in hits] == ["TOP", "EXACT", "EXACT"]


def test_search_equals_reference_on_random_stores():
    rng = random.Random(41)
    bases = [random_residues(rng, CANONICAL_RESIDUES + "X", 30, 150) for _ in range(25)]
    entries = [entry(f"B{i:02d}", b) for i, b in enumerate(bases[:20])]
    for i, b in enumerate(bases[:15]):
        entries.append(entry(f"H{i:02d}", mutated_homolog(rng, b)))
    # The last five bases only as a high-scoring, low-identity swap and an
    # exact piece that scores less.
    for i, b in enumerate(bases[20:], 20):
        entries += [entry(f"S{i:02d}", neighbour_swapped(b, 12)), entry(f"P{i:02d}", b[len(b) // 3 :][:25])]
    # Copies of bases under accessions that sort before the originals,
    # placed after them in the store.
    entries += [entry(f"A{i:02d}", bases[i]) for i in range(0, 20, 4)]
    entries += random_store(rng, CANONICAL_RESIDUES + "X", 20)
    index = build_index(entries)
    queries = [mutated_homolog(rng, b) for b in bases] + bases[20:] + [b[10:60] for b in bases[:5]]
    queries += [random_residues(rng, "CWHM", 20, 60) for _ in range(5)]  # share no 5-mer
    found = copies = passed_over = empty = 0
    for i, q in enumerate(queries):
        query = seq(q, f"q{i}")
        hits = assert_search_matches_reference(index, query)
        ordinals = _candidate_ordinals(index, query)
        top = max((aln.score for o in ordinals if (aln := smith_waterman(query, entries[o].sequence))), default=0)
        empty += not ordinals
        for hit in filter(None, hits):
            found += 1
            copies += hit.target.startswith("A")
            passed_over += round(bit_score(top), 1) > hit.bits
    # Not vacuous: 119 hits, 22 of them copies that win on accession alone,
    # 12 that rank below a candidate failing min_seq_id, and 6 queries with
    # no candidate.
    assert found >= 100 and copies >= 15 and passed_over >= 8 and empty >= 5


def test_search_repeatable_best_hit(store_index):
    rng = random.Random(3)
    mscl = store_index.entries[0].sequence.residues
    mutated = list(mscl)
    for pos in rng.sample(range(len(mutated)), 20):
        mutated[pos] = rng.choice(CANONICAL_RESIDUES)
    q = Sequence(id="query", residues="".join(mutated))
    hits = {json.dumps(to_json(search_best_hit(store_index, q))) for _ in range(5)}
    assert len(hits) == 1


def test_most_sites_scoring_below_another_is_passed_over():
    # MANY repeats a 10-residue piece of the query six times: the most k-mer
    # sites, so it is scored first, but a low score. HOMOLOG differs from the
    # query at every sixth residue: one shared 5-mer per block, the best
    # score, and 83% identity, so MANY wins above that.
    rng = random.Random(43)
    q = random_residues(rng, CANONICAL_RESIDUES, 90, 90)
    homolog = "".join(NEIGHBOUR.get(c, "W") if i % 6 == 5 else c for i, c in enumerate(q))
    index = build_index([entry("HOMOLOG", homolog), entry("MANY", q[:10] * 6)])
    query = seq(q, "query")
    assert _candidate_ordinals(index, query) == [1, 0]
    many_aln, homolog_aln = (smith_waterman(query, index.entries[o].sequence) for o in (1, 0))
    assert many_aln.score < homolog_aln.score
    hits = assert_search_matches_reference(index, query)
    assert [h.target for h in hits] == ["HOMOLOG", "HOMOLOG", "HOMOLOG", "MANY", "MANY"]


def test_later_candidate_tying_the_accepted_score_wins_on_accession():
    # Z1 is A1 with the query's first 20 residues after it: more sites, but
    # the query ends where A1 does, so the piece adds nothing to the score.
    # Z1 is scored and accepted first; A1 ties it and must still be scored,
    # and wins on its accession.
    rng = random.Random(47)
    q = random_residues(rng, CANONICAL_RESIDUES, 80, 80)
    index = build_index([entry("Z1", q[40:] + q[:20]), entry("A1", q[40:])])
    query = seq(q, "query")
    assert _candidate_ordinals(index, query) == [0, 1]
    z_aln, a_aln = (smith_waterman(query, e.sequence) for e in index.entries)
    assert z_aln.score == a_aln.score
    hits = assert_search_matches_reference(index, query)
    assert [h.target for h in hits] == ["A1"] * 5


def test_most_sites_failing_min_seq_id_sets_no_floor():
    # TOP is the whole query swapped for positive-scoring neighbours, then the
    # query's first 30 residues: the most sites and the best score, at low
    # identity. EXACT, a 25-residue piece of the query, scores less at full
    # identity; it is scored after TOP fails min_seq_id and must not be
    # abandoned.
    rng = random.Random(53)
    q = random_residues(rng, CANONICAL_RESIDUES, 90, 90)
    index = build_index([entry("EXACT", q[40:65]), entry("TOP", neighbour_swapped(q, 0) + q[:30])])
    query = seq(q, "query")
    assert _candidate_ordinals(index, query) == [1, 0]
    exact_aln, top_aln = (smith_waterman(query, e.sequence) for e in index.entries)
    assert top_aln.score > exact_aln.score
    assert top_aln.identities / top_aln.aligned_length < 0.3
    hits = assert_search_matches_reference(index, query)
    assert [h.target for h in hits] == ["TOP", "EXACT", "EXACT", "EXACT", "EXACT"]


def test_search_runs_one_pass_per_candidate_and_no_smith_waterman(monkeypatch):
    rng = random.Random(59)
    bases = [random_residues(rng, CANONICAL_RESIDUES, 40, 120) for _ in range(12)]
    entries = [entry(f"B{i:02d}", b) for i, b in enumerate(bases)]
    entries += [entry(f"H{i:02d}", mutated_homolog(rng, b)) for i, b in enumerate(bases)]
    index = build_index(entries)
    passes = []
    score_pass = homology._score_pass

    def counted(profile, target, floor=0):
        passes.append(target)
        return score_pass(profile, target, floor)

    def forbidden(a, b):
        raise AssertionError("search_best_hit called smith_waterman")

    monkeypatch.setattr(homology, "_score_pass", counted)
    monkeypatch.setattr(homology, "smith_waterman", forbidden)
    found = 0
    for i, b in enumerate(bases):
        query = seq(mutated_homolog(rng, b), f"q{i}")
        passes.clear()
        found += search_best_hit(index, query) is not None
        want = [entries[o].sequence.residues for o in _candidate_ordinals(index, query)]
        assert passes == want, i
    assert found >= 10
