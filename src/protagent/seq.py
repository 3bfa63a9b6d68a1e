"""Canonical amino-acid sequence model and FASTA ingestion.

The alphabet is the 20 canonical amino acids plus X for unknown residues.
Ambiguity codes (B, Z) and rare residues (U, O) are rejected: downstream
scoring tables only define entries for the canonical set, and rejection is
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError, check_unique

CANONICAL_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
ALPHABET = frozenset(CANONICAL_RESIDUES) | {"X"}


@dataclass(frozen=True)
class Sequence:
    """Validated amino-acid sequence with a stable identifier."""

    id: str
    residues: str

    def __post_init__(self):
        if not self.id or any(c.isspace() for c in self.id):
            raise SchemaError(f"sequence id must be nonempty without whitespace, got {self.id!r}")
        if not self.residues:
            raise SchemaError(f"sequence {self.id!r} has no residues")
        for c in self.residues:
            if c not in ALPHABET:
                raise SchemaError(f"invalid residue {c!r} in sequence {self.id!r}")

    @property
    def length(self) -> int:
        return len(self.residues)

    def __len__(self) -> int:
        return len(self.residues)


def validate_sequence(seq_id: str, raw: str) -> Sequence:
    """Normalize raw residue text into a Sequence.

    Uppercases and strips all whitespace. Sequence rejects anything outside
    the 20-letter alphabet plus X.
    """
    cleaned = "".join(raw.split()).upper()
    if not cleaned:
        raise SchemaError(f"sequence {seq_id!r} is empty after stripping whitespace")
    return Sequence(id=seq_id, residues=cleaned)


def parse_fasta(text: str) -> list[Sequence]:
    """Parse FASTA text into sequences, preserving input order.

    The token up to the first whitespace in each header becomes the
    sequence id; the rest of the header is ignored. Sequence lines are
    concatenated, uppercased, and stripped of internal whitespace. LF and
    CRLF line endings are both accepted, and lines are numbered from 1 as a
    text editor numbers them. An id that two headers share is a SchemaError
    naming both lines.
    """
    if not text.strip():
        raise SchemaError("FASTA input is empty")

    records: list[Sequence] = []
    first_line: dict[str, str] = {}
    seq_id: str | None = None
    chunks: list[str] = []

    def flush():
        if seq_id is None:
            return
        if not chunks:
            raise SchemaError(f"FASTA record {seq_id!r} has an empty body")
        records.append(Sequence(seq_id, "".join(chunks)))

    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.startswith(">"):
            flush()
            tokens = line[1:].split(None, 1)
            if not tokens:
                raise SchemaError(f"empty FASTA header at line {line_no}")
            seq_id, chunks = tokens[0], []
            try:
                check_unique(first_line, seq_id, f"on line {line_no}", "id")
            except SchemaError as exc:
                raise SchemaError(f"line {line_no}: {exc}") from exc
        else:
            stripped = "".join(line.split()).upper()
            if not stripped:
                continue
            if seq_id is None:
                raise SchemaError(f"sequence data before any header at line {line_no}")
            for c in stripped:
                if c not in ALPHABET:
                    raise SchemaError(f"invalid residue {c!r} at line {line_no}")
            chunks.append(stripped)
    flush()
    return records
