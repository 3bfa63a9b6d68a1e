"""Homology best-hit tool: k-mer prefiltered local alignment over an
annotated reference store.

Scoring: BLOSUM62 with affine gaps (open 11, extend 1; a gap of length L
costs open + (L-1)*extend). Bit scores use the published gapped-BLOSUM62
Karlin-Altschul constants; E-values use m*n*2^(-bits) with n the total
residue count of the store.
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
from .errors import EmptyIndexError, MissingAnnotationError, SchemaError
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
    def from_json(cls, obj: dict) -> "AnnotationRecord":
        values = {}
        for f in fields(cls):
            if f.name in obj:
                values[f.name] = obj[f.name] if f.type == "str" else tuple(obj[f.name])
            elif f.default is MISSING:
                raise SchemaError(f"annotation record missing field {f.name!r}")
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
    k: int
    keys: array = field(repr=False)

    @cached_property
    def total_residues(self) -> int:
        return sum(e.sequence.length for e in self.entries)


def _kmer_codes(residues: str, k: int) -> list[int]:
    """Base-21 code of every k-mer of residues (digits in KMER_ALPHABET
    order), by start offset; empty when residues is shorter than k."""
    digits = [_KMER_DIGIT[c] for c in residues]
    lead_weight = 21 ** (k - 1)
    code = 0
    for d in digits[: k - 1]:
        code = code * 21 + d
    codes = []
    for lead, d in zip(digits, digits[k - 1 :]):
        code = code * 21 + d
        codes.append(code)
        code -= lead * lead_weight
    return codes


def build_index(entries: list[ReferenceEntry], k: int = DEFAULT_K) -> ReferenceIndex:
    """Build the sorted k-mer key array of a store.

    Entries shorter than k contribute zero k-mers (warning, not fatal). A
    key holds k in [3, 5], at most MAX_ENTRIES entries and at most
    MAX_ENTRY_RESIDUES residues per entry; beyond them nothing is built.
    """
    if not entries:
        raise EmptyIndexError("cannot build an index over zero entries")
    if not 3 <= k <= 5:
        raise ValueError(f"k must be in [3, 5], got {k}")
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
    lead_weight = 21 ** (k - 1)
    buckets = [array("Q") for _ in KMER_ALPHABET]
    for ordinal, entry in enumerate(entries):
        res = entry.sequence.residues
        if len(res) < k:
            log.warning("entry %s shorter than k=%d; indexed with zero k-mers", entry.accession, k)
            continue
        for site, code in enumerate(_kmer_codes(res, k), ordinal << _OFFSET_BITS):
            buckets[code // lead_weight].append(code << _CODE_SHIFT | site)
    keys = array("Q", [0]) * sum(map(len, buckets))
    end = 0
    for lead, bucket in enumerate(buckets):
        buckets[lead] = None  # freed once copied
        start, end = end, end + len(bucket)
        keys[start:end] = array("Q", sorted(bucket))
    return ReferenceIndex(entries=entries, k=k, keys=keys)


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


def bit_score(raw_score: int) -> float:
    return (KA_LAMBDA * raw_score - math.log(KA_K)) / math.log(2)


def e_value(bits: float, query_len: int, db_residues: int) -> float:
    return query_len * db_residues * (2.0 ** (-bits))


def _candidate_ordinals(index: ReferenceIndex, query: Sequence, hit_threshold: int) -> list[int]:
    """Entries sharing >= hit_threshold k-mers on nearby diagonals."""
    keys = index.keys
    diagonals: dict[int, list[int]] = {}
    for qpos, code in enumerate(_kmer_codes(query.residues, index.k)):
        lo = bisect_left(keys, code << _CODE_SHIFT)
        end = (code + 1) << _CODE_SHIFT
        if lo == len(keys) or keys[lo] >= end:
            continue  # absent from the store, as most query k-mers are
        hi = bisect_left(keys, end, lo)
        for key in keys[lo:hi]:
            diagonals.setdefault(key >> _OFFSET_BITS & _ORDINAL_MASK, []).append(qpos - (key & _OFFSET_MASK))
    out = []
    for ordinal, diags in diagonals.items():
        diags.sort()
        for lo in range(len(diags) - hit_threshold + 1):
            if diags[lo + hit_threshold - 1] - diags[lo] <= DIAGONAL_BAND:
                out.append(ordinal)
                break
    return sorted(out)


def search_best_hit(
    index: ReferenceIndex,
    query: Sequence,
    min_seq_id: float = DEFAULT_MIN_SEQ_ID,
    kmer_hit_threshold: int = DEFAULT_KMER_HIT_THRESHOLD,
) -> BestHit | None:
    """Best hit by (lowest E-value, highest bits, lexicographic accession)."""
    if not index.entries:
        raise EmptyIndexError("search against an empty index")
    ordinals = _candidate_ordinals(index, query, kmer_hit_threshold)
    if not ordinals:
        return None

    db_residues = index.total_residues

    def align_one(ordinal: int) -> tuple[float, float, str, BestHit] | None:
        entry = index.entries[ordinal]
        aln = smith_waterman(query, entry.sequence)
        if aln is None:
            return None
        pident = 100.0 * aln.identities / aln.aligned_length
        if pident < min_seq_id * 100.0:
            return None
        bits = bit_score(aln.score)
        ev = e_value(bits, query.length, db_residues)
        hit = BestHit(
            query=query.id,
            target=entry.accession,
            pident=round(pident, 1),
            alnlen=aln.aligned_length,
            evalue=float(f"{ev:.4g}"),
            bits=round(bits, 1),
        )
        return (ev, -bits, entry.accession, hit)

    ranked = [r for r in map(align_one, ordinals) if r is not None]
    if not ranked:
        return None
    ranked.sort(key=lambda t: t[:3])
    return ranked[0][3]


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
            record = AnnotationRecord.from_json(obj)
            out[obj.get("accession", record.accessions[0])] = record
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
    """Load a store written by save_built_store."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if "entries" not in obj:
        raise SchemaError(f"{path} is not a built reference store (no 'entries' key)")
    return [
        ReferenceEntry(
            accession=e["accession"],
            sequence=validate_sequence(e["accession"], e["sequence"]),
            annotation=AnnotationRecord.from_json(e["annotation"]),
        )
        for e in obj["entries"]
    ]


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
