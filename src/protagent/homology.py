"""Homology best-hit tool: k-mer prefiltered local alignment over an
annotated reference store.

Scoring: BLOSUM62 with affine gaps (open 11, extend 1; a gap of length L
costs open + (L-1)*extend). Bit scores use the published gapped-BLOSUM62
Karlin-Altschul constants; E-values use m*n*2^(-bits) with n the total
residue count of the store.

Search is best first and bounded, one packed Gotoh pass (_score_pass) per
prefilter candidate, over a query profile packed into plain ints, one field
per query position. A field is wide enough for the query's score bound
B + 15 plus one headroom bit and a guard bit, where B is the smaller of the
sum of each query residue's best BLOSUM62 score and 11 * the longest
candidate. The candidates are visited by (-k-mer sites, ordinal). The
accepted hit is the best-ranked candidate so far, by (-score, accession,
ordinal), that passes min_seq_id, and its score is the floor of every later
pass: a pass stops once the H cells it holds, plus each remaining target
residue's best score against the query's letters, cannot reach it. A pass
that outranks the accepted hit is traced back from the H and E columns it
kept (the SSW recipe: a SIMD score pass, then the alignment recovered from
what it stored), and replaces that hit if it passes min_seq_id.
smith_waterman is the same pass and traceback for one pair.
"""

from __future__ import annotations

import logging
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

from .blosum62 import BLOSUM62
from .errors import ProtAgentError, SchemaError, check_unique, parse_file, read_json, read_jsonl, to_json, write_json
from .seq import Sequence, parse_fasta, validate_sequence

log = logging.getLogger(__name__)

GAP_OPEN = 11
GAP_EXTEND = 1
KA_LAMBDA = 0.267
KA_K = 0.041

DEFAULT_K = 5
DEFAULT_MIN_SEQ_ID = 0.3
DEFAULT_KMER_HIT_THRESHOLD = 2
DIAGONAL_BAND = 16

_MAX_SUBSTITUTION = 11  # BLOSUM62's largest score (W|W)
_SCORE_BIAS = 4  # minus BLOSUM62's smallest score, so a packed score is >= 0

# Index keys are code << 42 | ordinal << 20 | offset in one unsigned 64-bit
# word: a 5-mer code (< 21**5 < 2**22) over a 22-bit entry ordinal and a
# 20-bit offset. Sorted, a k-mer's sites form one run in (ordinal, offset)
# order.
KMER_ALPHABET = "ACDEFGHIKLMNPQRSTVWXY"
_KMER_DIGITS = bytes.maketrans(KMER_ALPHABET.encode("ascii"), bytes(range(len(KMER_ALPHABET))))
_CODE_LIMIT = len(KMER_ALPHABET) ** DEFAULT_K  # every code is below it, and below 2**22
_REGION_KEYS = 128  # build_index sorts regions of about this many keys
_OFFSET_BITS = 20
_CODE_SHIFT = 42
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
_ORDINAL_MASK = (1 << (_CODE_SHIFT - _OFFSET_BITS)) - 1
MAX_ENTRY_RESIDUES = 1 << _OFFSET_BITS
MAX_ENTRIES = 1 << (_CODE_SHIFT - _OFFSET_BITS)

# Each letter's best BLOSUM62 score against any letter, never below 0: its
# diagonal, and 0 for X.
_BEST_SCORE = {q: max(0, *(BLOSUM62[(q, c)] for c in KMER_ALPHABET)) for q in KMER_ALPHABET}


@dataclass(frozen=True)
class AnnotationRecord:
    """Curated annotation attached to a reference entry."""

    accessions: tuple[str, ...]
    protein_name: str
    function: tuple[str, ...] = ()
    catalytic_activity: tuple[str, ...] = ()
    ec: tuple[str, ...] = ()
    cofactor: tuple[str, ...] = ()
    subcellular_location: tuple[str, ...] = ()
    go: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.accessions:
            raise SchemaError("annotation record requires at least one accession")

    @classmethod
    def from_json(cls, obj) -> "AnnotationRecord":
        """Read a record from its JSON object; SchemaError unless protein_name
        is a string and every other field present is a list of strings."""
        if not isinstance(obj, dict):
            raise SchemaError(f"annotation record is not a JSON object: {obj!r}")
        values = {}
        for f in fields(cls):
            if f.name not in obj:
                if f.default is MISSING:
                    raise SchemaError(f"annotation record missing field {f.name!r}")
                continue
            value = obj[f.name]
            if f.type == "str":
                if not isinstance(value, str):
                    raise SchemaError(f"annotation field {f.name!r} must be a string, got {value!r}")
            elif isinstance(value, list) and all(isinstance(v, str) for v in value):
                value = tuple(value)
            else:
                raise SchemaError(f"annotation field {f.name!r} must be a list of strings, got {value!r}")
            values[f.name] = value
        return cls(**values)


@dataclass(frozen=True)
class ReferenceEntry:
    accession: str
    sequence: Sequence
    annotation: AnnotationRecord


@dataclass(frozen=True)
class Alignment:
    """One optimal local alignment (1-based inclusive coordinates)."""

    score: int
    query_start: int
    query_end: int
    target_start: int
    target_end: int
    identities: int
    aligned_length: int


@dataclass(frozen=True)
class BestHit:
    query: str
    target: str
    pident: float
    alnlen: int
    evalue: float
    bits: float


@dataclass
class ReferenceIndex:
    """Exact k-mer index over a reference store: one sorted array of
    code << 42 | ordinal << 20 | offset keys, 8 bytes per indexed k-mer."""

    entries: list[ReferenceEntry]
    keys: array = field(repr=False)

    @cached_property
    def total_residues(self) -> int:
        return sum(e.sequence.length for e in self.entries)


def _code_fields(residues: str, width: int) -> int:
    """One int whose field i, `width` bytes wide from the lowest, holds the
    base-21 code of the 5-mer of residues starting at offset i (digits in
    KMER_ALPHABET order); the fields from len(residues) - 4 up hold partial
    codes. Each residue becomes a digit at the bottom of its own field, and
    five shifted multiply-adds sum the digits of every 5-mer at once; a code
    is below 2**22, so no field carries into the next."""
    digits = bytearray(width * len(residues))
    digits[::width] = residues.encode("ascii").translate(_KMER_DIGITS)
    d = int.from_bytes(digits, "little")
    bits = 8 * width
    return d * 21**4 + (d >> bits) * 21**3 + (d >> 2 * bits) * 21**2 + (d >> 3 * bits) * 21 + (d >> 4 * bits)


def _field_array(typecode: str, value: int, count: int) -> array:
    """Fields 0 to count - 1 of value, lowest first, as an array of
    `typecode` items of the same width."""
    out = array(typecode)
    size = out.itemsize * count
    out.frombytes((value & ((1 << 8 * size) - 1)).to_bytes(size, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _kmer_codes(residues: str) -> array:
    """Base-21 code of every 5-mer of residues (digits in KMER_ALPHABET
    order), by start offset; empty when residues is shorter than 5."""
    count = len(residues) - DEFAULT_K + 1
    if count <= 0:
        return array("I")
    return _field_array("I", _code_fields(residues, 4), count)


def build_index(entries: list[ReferenceEntry]) -> ReferenceIndex:
    """Build the sorted 5-mer key array of a store.

    Entries shorter than 5 residues contribute zero k-mers (warning, not
    fatal). A key holds at most MAX_ENTRIES entries and at most
    MAX_ENTRY_RESIDUES residues per entry; beyond them nothing is built.

    Two passes over the entries fill the one final array, so the build holds
    about one key array at its peak. The codes are cut into regions by their
    top bits, about 128 keys to a region. The first pass counts the keys of
    each region, which fixes where each region starts. The second makes
    each entry's keys at once, as the fields of one int, and writes each at
    the next free slot of its region, so a region's keys arrive in (ordinal,
    offset) order. Sorting each region that holds keys, in place, then
    sorts the array.
    """
    if not entries:
        raise SchemaError("cannot build an index over zero entries")
    if len(entries) > MAX_ENTRIES:
        raise SchemaError(f"a store holds at most {MAX_ENTRIES} entries, got {len(entries)}")
    for entry in entries:
        if entry.sequence.length > MAX_ENTRY_RESIDUES:
            raise SchemaError(
                f"entry {entry.accession} has {entry.sequence.length} residues; "
                f"the index holds at most {MAX_ENTRY_RESIDUES}"
            )
    total = longest = 0
    for entry in entries:
        length = entry.sequence.length
        if length < DEFAULT_K:
            log.warning("entry %s shorter than k=%d; indexed with zero k-mers", entry.accession, DEFAULT_K)
            continue
        total += length - DEFAULT_K + 1
        longest = max(longest, length)
    # A region is the codes sharing code >> shift.
    shift = max(0, (_CODE_LIMIT // max(1, total // _REGION_KEYS)).bit_length() - 1)
    last_region = (_CODE_LIMIT - 1) >> shift
    # Pass 1: keys per region, from each entry's codes shifted down to their
    # region in every 4-byte field at once.
    region_bits = (1 << last_region.bit_length()) - 1
    region_mask = int.from_bytes(region_bits.to_bytes(4, "little") * longest, "little")
    counts = Counter()
    for entry in entries:
        res = entry.sequence.residues
        count = len(res) - DEFAULT_K + 1
        if count > 0:
            counts.update(_field_array("I", _code_fields(res, 4) >> shift & region_mask, count))
    regions = sorted(counts)
    free = [0] * (last_region + 1)  # the next free slot of each region
    bounds = []
    end = 0
    for region in regions:
        free[region] = end
        end += counts[region]
        bounds.append(end)
    del counts
    # Pass 2: each entry's keys are code << 42 plus its sites, ordinal << 20
    # plus the offset, made from one-per-field and 0, 1, 2, ... ints.
    ones = int.from_bytes((b"\1" + bytes(7)) * longest, "little")
    offsets = int.from_bytes(b"".join(i.to_bytes(8, "little") for i in range(longest)), "little")
    keys = array("Q", [0]) * total
    region_shift = _CODE_SHIFT + shift
    for ordinal, entry in enumerate(entries):
        res = entry.sequence.residues
        count = len(res) - DEFAULT_K + 1
        if count <= 0:
            continue
        fields = (1 << 64 * count) - 1
        sites = (ones & fields) * (ordinal << _OFFSET_BITS) + (offsets & fields)
        for key in _field_array("Q", (_code_fields(res, 8) << _CODE_SHIFT) + sites, count):
            region = key >> region_shift
            at = free[region]
            keys[at] = key
            free[region] = at + 1
    start = 0
    for end in bounds:
        keys[start:end] = array("Q", sorted(keys[start:end]))
        start = end
    return ReferenceIndex(entries=entries, keys=keys)


@dataclass(frozen=True)
class ScoreProfile:
    """A query packed for _score_pass: one field of `width` bits per query
    position, position 0 lowest, the top bit of each field a guard and the
    bit below it headroom.

    `rows[c]` holds BLOSUM62[(q_j, c)] + 4 in field j for every letter c of
    KMER_ALPHABET. No local alignment of the query against a target of at
    most `longest` residues scores above B, the smaller of the sum of each
    query residue's best score (never below 0) and 11 * longest; a diagonal
    step adds at most 15 to an H cell. The width is the bit length of B + 15
    plus one headroom bit and the guard, so every H, E and F value is below
    2**(width - 2), and the gap scan of _score_pass may add up to
    2**(width - 3) to one without reaching the guard. The pass is exact on
    targets of at most `longest` residues.

    `bounds[c]` is the most one target residue c can add to an H cell: its
    best BLOSUM62 score against the query's letters, never below 0.
    """

    length: int
    width: int
    rows: dict[str, int]
    ones: int  # 1 in every field
    guards: int  # the guard bit of every field
    bounds: dict[str, int]


def score_profile(query: Sequence, longest: int) -> ScoreProfile:
    """Pack query for _score_pass over targets of at most longest residues."""
    n = query.length
    bound = min(sum(map(_BEST_SCORE.__getitem__, query.residues)), _MAX_SUBSTITUTION * longest)
    width = (bound + _MAX_SUBSTITUTION + _SCORE_BIAS).bit_length() + 2
    # One mask per query letter, 1 in the field of each of its positions;
    # each row is a sum of masks times scores.
    masks = {}
    bit = 1
    for q in query.residues:
        masks[q] = masks.get(q, 0) | bit
        bit <<= width
    rows = {c: sum((BLOSUM62[(q, c)] + _SCORE_BIAS) * m for q, m in masks.items()) for c in KMER_ALPHABET}
    ones = sum(masks.values())
    bounds = {c: max([0] + [BLOSUM62[(q, c)] for q in masks]) for c in KMER_ALPHABET}
    return ScoreProfile(n, width, rows, ones, ones << (width - 1), bounds)


def _score_pass(profile: ScoreProfile, target: str, floor: int = 0) -> tuple[int, list[int], list[int]] | None:
    """One packed Gotoh pass over target: (peaks, h_cols, e_cols), or None
    once no cell still to come can score floor.

    peaks is the fieldwise maximum of H, each query position's best H cell.
    h_cols[j] is the H column of target residue j (1-based) and e_cols[j] the
    E column it used; column 0 is the border, all 0. floor is at most
    2**(width - 1), above every score the profile can reach.

    The bound: a column's cells descend from the previous column's H (E and
    F are never above H) or start fresh, and gain at most the residue's
    entry in profile.bounds. So with `rest` the sum of those entries over
    the residues still to come, no later cell scores above the previous
    column's largest H + rest. The pass gives up when rest < floor, no field
    of peaks is >= floor and no field of H is >= floor - rest. A pass whose
    score is >= floor always runs to the end.

    One pass per target residue, each of a few operations on plain ints whose
    fields are the query positions (SWAR). H, E and F are floored at 0, which
    leaves H unchanged because H itself is. Here f carries E (the gap in the
    query, along target) from column to column, and e is F (the gap in the
    target, along the fields). The diagonal comes from the previous column's
    H one field up; f from the previous column's H and f.
    F[i] = max(H[i-1] - 11, F[i-1] - 1) is taken from H without F: a gap
    opened from an H that came from F never beats extending that F, since
    the open cost is at least the extend cost (Farrar's lazy-F argument). It
    is then a max-plus prefix scan of the opened gaps, by doubling shifts s:
    max(e shifted s fields up - s, e) = e + (the excess of the shifted e over
    e + s, where there is one), one guarded compare per step, since e + s
    stays below the guard (ScoreProfile). The scan stops at the first shift
    that changes nothing, after which no longer shift can. An opened gap e
    is below 2**(width - 2) and reaches only the fields fewer than e above
    it, so the shifts 1, 2, ..., 2**(width - 3) carry every gap its whole
    way.
    """
    width, rows, ones, guards, bounds = profile.width, profile.rows, profile.ones, profile.guards, profile.bounds
    top = width - 1
    bias, extend_open, gap_open = _SCORE_BIAS * ones, (GAP_OPEN - GAP_EXTEND) * ones, GAP_OPEN * ones
    # (shift in bits, decay) per doubling step of the gap scan.
    steps = [(width << k, ones << k) for k in range(width - 2)]
    h = f = best = 0
    h_cols, e_cols = [0], [0]
    rest, floors = sum(map(bounds.__getitem__, target)), floor * ones
    # Every fieldwise max(u, v) below is v + ((u - v) where u >= v, else 0):
    # with the guards set, u - v leaves a field's guard set exactly where
    # u >= v, and g - (g >> top) turns those guards into masks of their
    # fields' value bits. max(u - k, 0) for a constant k keeps u - k under
    # the same masks. Bits shifted past the top field are never cleared: a
    # borrow only runs upwards, and the masks cover the fields alone, so no
    # result keeps them.
    for c in target:
        if rest < floor:
            if ((best | guards) - floors) & guards:
                floor = 0  # the score reaches floor: run to the end
            elif not ((h | guards) - (floor - rest) * ones) & guards:
                return None
        rest -= bounds[c]
        # H without F: max(diagonal, E) = max(H(i-1, j-1) + s + 4, E + 4) - 4,
        # where E + 4 >= 4 makes the floor at 0 free.
        u = (h << width) + rows[c]
        v = f + bias
        d = (u | guards) - v
        g = d & guards
        h = v + (d & (g - (g >> top))) - bias
        # F opened from H without F one field down, floored at 0.
        d = ((h << width) | guards) - gap_open
        g = d & guards
        e = d & (g - (g >> top))
        if e:
            for shift, decay in steps:
                d = ((e << shift) | guards) - (e + decay)
                g = d & guards
                d &= g - (g >> top)
                if not d:
                    break
                e += d
            d = (h | guards) - e
            g = d & guards
            h = e + (d & (g - (g >> top)))
        h_cols.append(h)
        e_cols.append(f)
        # E for the next column: max(H - 11, E - 1) = max(H, E + 10) - 11, floored at 0.
        v = f + extend_open
        d = (h | guards) - v
        g = d & guards
        d = ((v + (d & (g - (g >> top)))) | guards) - gap_open
        g = d & guards
        f = d & (g - (g >> top))
        d = (best | guards) - h
        g = d & guards
        best = h + (d & (g - (g >> top)))
    return best, h_cols, e_cols


def _largest_field(profile: ScoreProfile, packed: int) -> int:
    """The largest field of packed: fold the upper half of the fields onto
    the lower."""
    width, guards, n = profile.width, profile.guards, profile.length
    top = width - 1
    while n > 1:
        half = (n + 1) >> 1
        low = (1 << (half * width)) - 1
        v = packed >> (half * width)
        d = ((packed & low) | (guards & low)) - v
        g = d & guards
        packed = v + (d & (g - (g >> top)))
        n = half
    return packed


def _trace_back(
    profile: ScoreProfile, query: str, target: str, h_cols: list[int], e_cols: list[int], best: int, peaks: int
) -> Alignment:
    """The alignment smith_waterman reports, traced back from the columns and
    peaks of a _score_pass of query's profile over target; best > 0 is the
    largest field of peaks.

    Each best-scoring end cell is traced back through the columns under
    these tie rules: in an H cell the diagonal beats E and E beats F on
    equal scores; a gap opens rather than extends on equal scores; a
    diagonal step from an H cell of 0 starts the path. Of the end cells, the
    one whose path has the smallest (query_start, target_start) is reported,
    then the first in row-major order.

    Every H, E and F value on an optimal path is > 0, so a field the pass
    floored at 0 never equals one, and testing a cell's value for equality
    with each predecessor in the order above picks the predecessor the
    recurrences chose. F is not stored: along a path its values follow from
    the H cells above. H values are exact whatever the field width, so any
    profile of query that fits target will do. The cost is the path lengths
    of the end cells traced; tracing stops at the first path that starts at
    (1, 1), which no other can beat.
    """
    width = profile.width
    mask = (1 << width) - 1
    # End cells in row-major order, each as (field shift, column): the
    # query positions whose fields of peaks hold best (a zero-field test on
    # peaks ^ best), then the columns where that field of H does. Lazily, so
    # that a path from (1, 1) ends the search before the columns are read.
    ones, guards = profile.ones, profile.guards
    zeros = ~(((peaks ^ best * ones) | guards) - ones) & guards
    shifts = []
    while zeros:
        guard = zeros & -zeros
        zeros ^= guard
        shifts.append(guard.bit_length() - width)
    ends = ((at, j) for at in shifts for j, h in enumerate(h_cols) if h >> at & mask == best)
    found = None
    for end_at, end_j in ends:
        # The path walks (i, j) with `at` the field shift of query position i
        # and v the value of the current H cell.
        i, j, at, v = end_at // width + 1, end_j, end_at, best
        identities = steps = 0
        while True:
            x = h_cols[j - 1] >> (at - width) & mask if at else 0
            c, d = query[i - 1], target[j - 1]
            if v == x + BLOSUM62[(c, d)]:
                steps += 1
                identities += c == d
                if not x:
                    break
                i, j, at, v = i - 1, j - 1, at - width, x
                continue
            if v == e_cols[j] >> at & mask:
                # E: back along target to the H cell the gap opened from.
                while True:
                    steps += 1
                    j -= 1
                    x = h_cols[j] >> at & mask
                    if x - GAP_OPEN == v:
                        break
                    v += GAP_EXTEND
            else:
                # F: back along query likewise.
                while True:
                    steps += 1
                    i -= 1
                    at -= width
                    x = h_cols[j] >> at & mask
                    if x - GAP_OPEN == v:
                        break
                    v += GAP_EXTEND
            v = x
        if found is None or (i, j) < found[:2]:
            found = (i, j, end_at // width + 1, end_j, identities, steps)
            if i == j == 1:
                break
    qs, ts, qe, te, identities, steps = found
    return Alignment(best, qs, qe, ts, te, identities, steps)


def smith_waterman(a: Sequence, b: Sequence) -> Alignment | None:
    """Optimal local alignment under affine gaps (Gotoh recurrences).

    BLOSUM62 scores; a gap of length L costs GAP_OPEN + (L-1)*GAP_EXTEND.
    Returns None when no alignment scores above zero.

    Score pass, then traceback: _score_pass over a's profile keeps, per
    residue of b, its H column and the E column it used, two ints of len(a)
    fields; _trace_back then follows the best-scoring end cells through
    them. The columns take about 2 * width bits per cell (4 MB for
    1000 x 1000 random residues, in 15-bit fields).

    search_best_hit does not call this: it runs the same two steps itself.
    This is the one-pair API: the oracle tests check it against the
    reference alignment, and perfbench/tracing.py wraps it by name.
    """
    profile = score_profile(a, len(b.residues))
    peaks, h_cols, e_cols = _score_pass(profile, b.residues)
    best = _largest_field(profile, peaks)
    if not best:
        return None
    return _trace_back(profile, a.residues, b.residues, h_cols, e_cols, best, peaks)


def bit_score(raw_score: int) -> float:
    return (KA_LAMBDA * raw_score - math.log(KA_K)) / math.log(2)


def e_value(bits: float, query_len: int, db_residues: int) -> float:
    return query_len * db_residues * (2.0 ** (-bits))


def _candidate_ordinals(index: ReferenceIndex, query: Sequence) -> list[int]:
    """Entries sharing >= DEFAULT_KMER_HIT_THRESHOLD k-mers on nearby
    diagonals, best first: by (-sites, ordinal), where an entry's sites are
    its k-mer matches with the query."""
    keys = index.keys
    diagonals: dict[int, list[int]] = {}
    for qpos, code in enumerate(_kmer_codes(query.residues)):
        lo = bisect_left(keys, code << _CODE_SHIFT)
        end = (code + 1) << _CODE_SHIFT
        if lo == len(keys) or keys[lo] >= end:
            continue  # absent from the store, as most query k-mers are
        hi = bisect_left(keys, end, lo)
        for key in keys[lo:hi]:
            diagonals.setdefault(key >> _OFFSET_BITS & _ORDINAL_MASK, []).append(qpos - (key & _OFFSET_MASK))
    out = []
    last = DEFAULT_KMER_HIT_THRESHOLD - 1
    for ordinal, diags in diagonals.items():
        diags.sort()
        for lo in range(len(diags) - last):
            if diags[lo + last] - diags[lo] <= DIAGONAL_BAND:
                out.append((-len(diags), ordinal))
                break
    return [ordinal for _, ordinal in sorted(out)]


def search_best_hit(index: ReferenceIndex, query: Sequence, min_seq_id: float = DEFAULT_MIN_SEQ_ID) -> BestHit | None:
    """Best hit by (lowest E-value, highest bits, lexicographic accession)
    among the prefilter candidates that pass min_seq_id.

    For a fixed query and store, bits and E-value are strictly monotone in
    the raw score, and equal scores give equal floats, so the hit is the
    candidate first in (-score, accession, ordinal) order among those that
    pass min_seq_id. Each candidate gets one _score_pass, in the best-first
    order and under the floor the module docstring describes; none is
    aligned twice.
    """
    if not index.entries:
        raise SchemaError("search against an empty index")
    ordinals = _candidate_ordinals(index, query)
    if not ordinals:
        return None
    entries = index.entries
    profile = score_profile(query, max(entries[o].sequence.length for o in ordinals))
    hit = None  # (rank, alignment, pident) of the accepted hit
    floor = 0
    for ordinal in ordinals:
        entry = entries[ordinal]
        target = entry.sequence.residues
        scored = _score_pass(profile, target, floor)
        if scored is None:
            continue
        peaks, h_cols, e_cols = scored
        score = _largest_field(profile, peaks)
        rank = (-score, entry.accession, ordinal)
        if not score or (hit is not None and rank > hit[0]):
            continue
        aln = _trace_back(profile, query.residues, target, h_cols, e_cols, score, peaks)
        pident = 100.0 * aln.identities / aln.aligned_length
        if pident >= min_seq_id * 100.0:
            hit, floor = (rank, aln, pident), score
    if hit is None:
        return None
    (_, accession, _), aln, pident = hit
    bits = bit_score(aln.score)
    return BestHit(
        query=query.id,
        target=accession,
        pident=round(pident, 1),
        alnlen=aln.aligned_length,
        evalue=float(f"{e_value(bits, query.length, index.total_residues):.4g}"),
        bits=round(bits, 1),
    )


def make_evidence(hit: BestHit, annotations: dict[str, AnnotationRecord]) -> dict:
    """Best-hit plus annotation payload, the tool's evidence object."""
    if hit.target not in annotations:
        raise SchemaError(f"no annotation stored for accession {hit.target!r}")
    return {
        "best_hit": to_json(hit),
        "uniprot_annotation": to_json(annotations[hit.target]),
    }


def load_annotations(path: str) -> dict[str, AnnotationRecord]:
    """Load a JSON-lines annotation store keyed by primary accession; a
    repeated accession is a SchemaError naming both lines."""
    first_line: dict[str, str] = {}

    def parse(line_no: int, obj: dict) -> tuple[str, AnnotationRecord]:
        record = AnnotationRecord.from_json(obj)
        accession = obj.get("accession", record.accessions[0])
        if not isinstance(accession, str):
            raise SchemaError(f"accession must be a string, got {accession!r}")
        check_unique(first_line, accession, f"on line {line_no}", "accession")
        return accession, record

    return dict(read_jsonl(path, "annotation", parse))


def save_built_store(entries: list[ReferenceEntry], path: str) -> None:
    """Write a validated single-file reference store."""
    obj = {
        "entries": [
            {
                "accession": e.accession,
                "sequence": e.sequence.residues,
                "annotation": to_json(e.annotation),
            }
            for e in entries
        ]
    }
    write_json(path, obj)


def load_built_store(path: str) -> list[ReferenceEntry]:
    """Load a store written by save_built_store.

    A file that read_json refuses, a file without an 'entries' list, an
    entry that is not an object with string accession and sequence and a
    valid annotation, and a repeated accession raise SchemaError; an entry's
    error names its 1-based position.
    """
    obj = read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise SchemaError(f"{path} is not a built reference store (no 'entries' list)")
    entries = []
    first_entry: dict[str, str] = {}
    for n, e in enumerate(obj["entries"], start=1):
        try:
            if not (isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("accession", "sequence"))):
                raise SchemaError("not an object with a string accession and sequence")
            check_unique(first_entry, e["accession"], f"at entry {n}", "accession")
            entries.append(
                ReferenceEntry(
                    accession=e["accession"],
                    sequence=validate_sequence(e["accession"], e["sequence"]),
                    annotation=AnnotationRecord.from_json(e.get("annotation")),
                )
            )
        except ProtAgentError as exc:
            raise SchemaError(f"{path}: store entry {n}: {exc}") from exc
    return entries


def load_reference_store(fasta_path: str, annotations_path: str) -> list[ReferenceEntry]:
    """Pair a FASTA file with its JSON-lines annotations by accession. A
    repeated FASTA id and a FASTA id without an annotation record are
    SchemaErrors naming the files."""
    sequences = parse_file(fasta_path, parse_fasta)
    annotations = load_annotations(annotations_path)
    entries = []
    for s in sequences:
        if s.id not in annotations:
            raise SchemaError(f"{fasta_path}: entry {s.id!r} has no annotation record in {annotations_path}")
        entries.append(ReferenceEntry(accession=s.id, sequence=s, annotation=annotations[s.id]))
    return entries
