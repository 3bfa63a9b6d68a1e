"""Homology best-hit tool: k-mer prefiltered local alignment over an
annotated reference store.

Scoring: BLOSUM62 with affine gaps (open 11, extend 1; a gap of length L
costs open + (L-1)*extend). Bit scores use the published gapped-BLOSUM62
Karlin-Altschul constants; E-values use m*n*2^(-bits) with n the total
residue count of the store.

Search is score first. A bit-parallel pass (local_score) computes the
optimal local score of every prefilter candidate over a query profile
packed into plain ints, one field per query position, with fields wide
enough for the bound 11 * min(len(query), longest candidate) + 15. The
candidates are ranked by that score, and smith_waterman aligns them in rank
order only until one passes min_seq_id.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

from .blosum62 import BLOSUM62
from .errors import EmptyIndexError, MissingAnnotationError, ProtAgentError, SchemaError
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

_IDENTITY = (1 << 32) + 1  # an identical diagonal step, in smith_waterman's path counts
_MAX_SUBSTITUTION = 11  # BLOSUM62's largest score (W|W)
_SCORE_BIAS = 4  # minus BLOSUM62's smallest score, so a packed score is >= 0

# Index keys are code << 42 | ordinal << 20 | offset in one unsigned 64-bit
# word: a 5-mer code (< 21**5 < 2**22) over a 22-bit entry ordinal and a
# 20-bit offset. Sorted, a k-mer's sites form one run in (ordinal, offset)
# order.
KMER_ALPHABET = "ACDEFGHIKLMNPQRSTVWXY"
_KMER_DIGIT = {c: d for d, c in enumerate(KMER_ALPHABET)}
_OFFSET_BITS = 20
_CODE_SHIFT = 42
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
_ORDINAL_MASK = (1 << (_CODE_SHIFT - _OFFSET_BITS)) - 1
MAX_ENTRY_RESIDUES = 1 << _OFFSET_BITS
MAX_ENTRIES = 1 << (_CODE_SHIFT - _OFFSET_BITS)


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

    # Every field but protein_name (annotated "str") is a tuple of strings,
    # written as a JSON list.
    def to_payload(self) -> dict:
        return {
            f.name: getattr(self, f.name) if f.type == "str" else list(getattr(self, f.name))
            for f in fields(self)
        }

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

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ReferenceIndex:
    """Exact k-mer index over a reference store: one sorted array of
    code << 42 | ordinal << 20 | offset keys, 8 bytes per indexed k-mer."""

    entries: list[ReferenceEntry]
    keys: array = field(repr=False)

    @cached_property
    def total_residues(self) -> int:
        return sum(e.sequence.length for e in self.entries)


def _kmer_codes(residues: str) -> list[int]:
    """Base-21 code of every 5-mer of residues (digits in KMER_ALPHABET
    order), by start offset; empty when residues is shorter than 5."""
    digits = [_KMER_DIGIT[c] for c in residues]
    lead_weight = 21 ** (DEFAULT_K - 1)
    code = 0
    for d in digits[: DEFAULT_K - 1]:
        code = code * 21 + d
    codes = []
    for lead, d in zip(digits, digits[DEFAULT_K - 1 :]):
        code = code * 21 + d
        codes.append(code)
        code -= lead * lead_weight
    return codes


def build_index(entries: list[ReferenceEntry]) -> ReferenceIndex:
    """Build the sorted 5-mer key array of a store.

    Entries shorter than 5 residues contribute zero k-mers (warning, not
    fatal). A key holds at most MAX_ENTRIES entries and at most
    MAX_ENTRY_RESIDUES residues per entry; beyond them nothing is built.
    """
    if not entries:
        raise EmptyIndexError("cannot build an index over zero entries")
    if len(entries) > MAX_ENTRIES:
        raise SchemaError(f"a store holds at most {MAX_ENTRIES} entries, got {len(entries)}")
    for entry in entries:
        if entry.sequence.length > MAX_ENTRY_RESIDUES:
            raise SchemaError(
                f"entry {entry.accession} has {entry.sequence.length} residues; "
                f"the index holds at most {MAX_ENTRY_RESIDUES}"
            )
    # One bucket per leading residue, each sorted on its own into an array of
    # the final size: no list of Python ints and no sort buffer ever spans
    # the whole store.
    lead_weight = 21 ** (DEFAULT_K - 1)
    buckets = [array("Q") for _ in KMER_ALPHABET]
    for ordinal, entry in enumerate(entries):
        res = entry.sequence.residues
        if len(res) < DEFAULT_K:
            log.warning("entry %s shorter than k=%d; indexed with zero k-mers", entry.accession, DEFAULT_K)
            continue
        for site, code in enumerate(_kmer_codes(res), ordinal << _OFFSET_BITS):
            buckets[code // lead_weight].append(code << _CODE_SHIFT | site)
    keys = array("Q", [0]) * sum(map(len, buckets))
    end = 0
    for lead, bucket in enumerate(buckets):
        buckets[lead] = None  # freed once copied
        start, end = end, end + len(bucket)
        keys[start:end] = array("Q", sorted(bucket))
    return ReferenceIndex(entries=entries, keys=keys)


def smith_waterman(a: Sequence, b: Sequence) -> Alignment | None:
    """Optimal local alignment under affine gaps (Gotoh recurrences).

    BLOSUM62 scores; a gap of length L costs GAP_OPEN + (L-1)*GAP_EXTEND.
    Returns None when no alignment scores above zero.

    One forward pass over two rows: O(len(b)) memory and no traceback. Every
    H, E and F cell carries the start cell and the counts of its path, the
    one a traceback from it would follow under these tie rules: in an H
    cell the diagonal beats E and E beats F on equal scores; a gap opens
    rather than extends on equal scores; a cell scoring <= 0 is a fresh
    start, so its diagonal successor starts at itself. Of the best-scoring
    end cells, the one whose path has the smallest (query_start,
    target_start) is reported, then the first in row-major order.
    """
    rb = b.residues
    width = len(rb) + 1
    neg = -(10 ** 9)
    # Per query letter: substitution scores along b, and the count
    # increment of a diagonal step (identities * 2**32 + diagonal steps).
    rows = {
        c: ([BLOSUM62[(c, d)] for d in rb], [_IDENTITY if c == d else 1 for d in rb])
        for c in set(a.residues)
    }
    # The previous row's H and F cells at columns 1..m: score, start cell
    # (query_start * width + target_start), counts. Starts and counts of
    # cells scoring <= 0 are never read, so they hold whatever came last.
    ph = phs = phc = pfs = pfc = [0] * (width - 1)
    pf = [neg] * (width - 1)
    best = best_start = best_end = best_counts = 0
    for i, c in enumerate(a.residues, 1):
        sub, step = rows[c]
        hr, hrs, hrc, fr, frs, frc = [], [], [], [], [], []
        # H at column j-1 of the previous row (x) and of this row (h); E at j-1.
        x = xs = xc = h = hs = hc = 0
        e, es, ec = neg, 0, 0
        cell = i * width
        for s, n, y, ys, yc, f, fs, fc in zip(sub, step, ph, phs, phc, pf, pfs, pfc):
            cell += 1
            # E: open from H to the left, or extend E.
            e -= GAP_EXTEND
            if h - GAP_OPEN >= e:
                e, es, ec = h - GAP_OPEN, hs, hc
            # F: open from H above, or extend F.
            f -= GAP_EXTEND
            if y - GAP_OPEN >= f:
                f, fs, fc = y - GAP_OPEN, ys, yc
            # H: the diagonal, a fresh start when H there is <= 0.
            h = x + s
            if x > 0:
                hs, hc = xs, xc + n
            else:
                hs, hc = cell, n
            if e > h:
                h, hs, hc = e, es, ec
            if f > h:
                h, hs, hc = f, fs, fc
            if h <= 0:
                h = 0
            elif h >= best and (h > best or hs < best_start):
                best, best_start, best_end, best_counts = h, hs, cell, hc
            hr.append(h)
            hrs.append(hs)
            hrc.append(hc)
            fr.append(f)
            frs.append(fs)
            frc.append(fc)
            x, xs, xc = y, ys, yc
        ph, phs, phc, pf, pfs, pfc = hr, hrs, hrc, fr, frs, frc

    if not best:
        return None
    qs, ts = divmod(best_start, width)
    qe, te = divmod(best_end, width)
    aligned_length = (qe - qs + 1) + (te - ts + 1) - (best_counts & 0xFFFFFFFF)
    return Alignment(best, qs, qe, ts, te, best_counts >> 32, aligned_length)


@dataclass(frozen=True)
class ScoreProfile:
    """A query packed for local_score: one field of `width` bits per query
    position, position 0 lowest, the top bit of each field a guard.

    `rows[c]` holds BLOSUM62[(q_j, c)] + 4 in field j for every letter c of
    KMER_ALPHABET. A field holds values below 2**(width - 1); the width comes
    from the score bound 11 * min(len(query), longest) + 15 (every aligned
    pair scores at most 11, and a diagonal step adds at most 15 to an H
    cell), so local_score is exact on targets of at most `longest` residues.
    """

    length: int
    width: int
    rows: dict[str, int]
    ones: int  # 1 in every field
    guards: int  # the guard bit of every field


def score_profile(query: Sequence, longest: int) -> ScoreProfile:
    """Pack query for local_score against targets of at most longest residues."""
    n = query.length
    width = (_MAX_SUBSTITUTION * min(n, longest) + _MAX_SUBSTITUTION + _SCORE_BIAS).bit_length() + 1
    # Each row as binary text, field n-1 first so that position 0 lands in
    # the lowest bits.
    backwards = query.residues[::-1]
    bits = [format(v, f"0{width}b") for v in range(_MAX_SUBSTITUTION + _SCORE_BIAS + 1)]
    rows = {}
    for c in KMER_ALPHABET:
        field_bits = {q: bits[BLOSUM62[(q, c)] + _SCORE_BIAS] for q in KMER_ALPHABET}
        rows[c] = int("".join(map(field_bits.__getitem__, backwards)), 2)
    ones = int(bits[1] * n, 2)
    return ScoreProfile(n, width, rows, ones, ones << (width - 1))


def local_score(profile: ScoreProfile, target: str) -> int:
    """The score smith_waterman reports for (query, target), 0 when it reports
    None: the largest H cell of the Gotoh recurrences, by whole rows.

    One pass per target residue, each of a few operations on plain ints whose
    fields are the query positions (SWAR). H, E and F are floored at 0, which
    leaves H unchanged because H itself is. The diagonal comes from the
    previous row's H one field up; F from the previous row's H and F.
    E[j] = max(H[j-1] - 11, E[j-1] - 1) is taken from H without E: a gap
    opened from an H that came from E never beats extending that E, since
    the open cost is at least the extend cost (Farrar's lazy-F argument). It
    is then a max-plus prefix scan of the opened gaps, by doubling shifts,
    stopped at the first shift that changes nothing, after which no longer
    shift can. A shift s changes something only where a field holds more
    than s, so the scan stops by s = 2**(width - 1), and every decay it
    subtracts fits a field.
    """
    width, rows, ones, guards = profile.width, profile.rows, profile.ones, profile.guards
    top = width - 1
    fields = (1 << (profile.length * width)) - 1
    bias, extend_open, gap_open = _SCORE_BIAS * ones, (GAP_OPEN - GAP_EXTEND) * ones, GAP_OPEN * ones
    h = f = best = 0
    # Every fieldwise max(u, v) below is v + ((u - v) where u >= v, else 0):
    # with the guards set, u - v leaves a field's guard set exactly where
    # u >= v, and g - (g >> top) turns those guards into masks of their
    # fields' value bits. max(u - k, 0) for a constant k keeps u - k under
    # the same masks.
    for c in target:
        # H without E: max(diagonal, F) = max(H(i-1, j-1) + s + 4, F + 4) - 4,
        # where F + 4 >= 4 makes the floor at 0 free.
        u = ((h << width) & fields) + rows[c]
        v = f + bias
        d = (u | guards) - v
        g = d & guards
        h = v + (d & (g - (g >> top))) - bias
        # E opened from H without E one field to the left, floored at 0.
        d = (((h << width) & fields) | guards) - gap_open
        g = d & guards
        e = d & (g - (g >> top))
        if e:
            shift = 1
            while True:
                d = (((e << (shift * width)) & fields) | guards) - shift * ones
                g = d & guards
                v = d & (g - (g >> top))
                d = (e | guards) - v
                g = d & guards
                v += d & (g - (g >> top))
                if v == e:
                    break
                e = v
                shift <<= 1
            d = (h | guards) - e
            g = d & guards
            h = e + (d & (g - (g >> top)))
        # F for the next row: max(H - 11, F - 1) = max(H, F + 10) - 11, floored at 0.
        v = f + extend_open
        d = (h | guards) - v
        g = d & guards
        d = ((v + (d & (g - (g >> top)))) | guards) - gap_open
        g = d & guards
        f = d & (g - (g >> top))
        d = (best | guards) - h
        g = d & guards
        best = h + (d & (g - (g >> top)))
    # The largest field: fold the upper half of the fields onto the lower.
    n = profile.length
    while n > 1:
        half = (n + 1) >> 1
        low = (1 << (half * width)) - 1
        v = best >> (half * width)
        d = ((best & low) | (guards & low)) - v
        g = d & guards
        best = v + (d & (g - (g >> top)))
        n = half
    return best


def bit_score(raw_score: int) -> float:
    return (KA_LAMBDA * raw_score - math.log(KA_K)) / math.log(2)


def e_value(bits: float, query_len: int, db_residues: int) -> float:
    return query_len * db_residues * (2.0 ** (-bits))


def _candidate_ordinals(index: ReferenceIndex, query: Sequence) -> list[int]:
    """Entries sharing >= DEFAULT_KMER_HIT_THRESHOLD k-mers on nearby diagonals."""
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
                out.append(ordinal)
                break
    return sorted(out)


def search_best_hit(index: ReferenceIndex, query: Sequence, min_seq_id: float = DEFAULT_MIN_SEQ_ID) -> BestHit | None:
    """Best hit by (lowest E-value, highest bits, lexicographic accession)
    among the prefilter candidates that pass min_seq_id.

    Score first: local_score scores every candidate, and the ones scoring
    above 0 are ranked by (-score, accession, ordinal). For a fixed query
    and store, bits and E-value are strictly monotone in the raw score, and
    equal scores give equal floats, so this is the order named above.
    smith_waterman then aligns the candidates in that order until one
    passes min_seq_id, and that one is the hit; the rest are never aligned.
    """
    if not index.entries:
        raise EmptyIndexError("search against an empty index")
    ordinals = _candidate_ordinals(index, query)
    if not ordinals:
        return None
    entries = index.entries
    profile = score_profile(query, max(entries[o].sequence.length for o in ordinals))
    ranked = []
    for ordinal in ordinals:
        entry = entries[ordinal]
        raw = local_score(profile, entry.sequence.residues)
        if raw > 0:
            ranked.append((-raw, entry.accession, ordinal))
    ranked.sort()
    for _, accession, ordinal in ranked:
        aln = smith_waterman(query, entries[ordinal].sequence)
        pident = 100.0 * aln.identities / aln.aligned_length
        if pident < min_seq_id * 100.0:
            continue
        bits = bit_score(aln.score)
        return BestHit(
            query=query.id,
            target=accession,
            pident=round(pident, 1),
            alnlen=aln.aligned_length,
            evalue=float(f"{e_value(bits, query.length, index.total_residues):.4g}"),
            bits=round(bits, 1),
        )
    return None


def make_evidence(hit: BestHit, annotations: dict[str, AnnotationRecord]) -> dict:
    """Best-hit plus annotation payload, the tool's evidence object."""
    if hit.target not in annotations:
        raise MissingAnnotationError(f"no annotation stored for accession {hit.target!r}")
    return {
        "best_hit": hit.to_payload(),
        "uniprot_annotation": annotations[hit.target].to_payload(),
    }


def load_annotations(path: str) -> dict[str, AnnotationRecord]:
    """Load a JSON-lines annotation store keyed by primary accession."""
    out: dict[str, AnnotationRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"annotation line {line_no} is not valid JSON: {exc}") from exc
            try:
                record = AnnotationRecord.from_json(obj)
            except SchemaError as exc:
                raise SchemaError(f"annotation line {line_no}: {exc}") from exc
            accession = obj.get("accession", record.accessions[0])
            if not isinstance(accession, str):
                raise SchemaError(f"annotation line {line_no}: accession must be a string, got {accession!r}")
            out[accession] = record
    return out


def save_built_store(entries: list[ReferenceEntry], path: str) -> None:
    """Write a validated single-file reference store."""
    obj = {
        "entries": [
            {
                "accession": e.accession,
                "sequence": e.sequence.residues,
                "annotation": e.annotation.to_payload(),
            }
            for e in entries
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_built_store(path: str) -> list[ReferenceEntry]:
    """Load a store written by save_built_store.

    Invalid JSON, a file without an 'entries' list, and an entry that is not
    an object with string accession and sequence and a valid annotation
    raise SchemaError; an entry's error names its 1-based position.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise SchemaError(f"{path} is not a built reference store (no 'entries' list)")
    entries = []
    for n, e in enumerate(obj["entries"], start=1):
        try:
            if not (isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("accession", "sequence"))):
                raise SchemaError("not an object with a string accession and sequence")
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
    """Pair a FASTA file with its JSON-lines annotations by accession."""
    with open(fasta_path, encoding="utf-8") as fh:
        records = parse_fasta(fh.read())
    annotations = load_annotations(annotations_path)
    entries = []
    for rec in records:
        acc = rec.sequence.id
        if acc not in annotations:
            raise MissingAnnotationError(f"FASTA entry {acc!r} has no annotation record")
        entries.append(ReferenceEntry(accession=acc, sequence=rec.sequence, annotation=annotations[acc]))
    return entries
