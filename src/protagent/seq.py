"""Canonical amino-acid sequence model and FASTA ingestion.

The alphabet is the 20 canonical amino acids plus X for unknown residues.
Ambiguity codes (B, Z) and rare residues (U, O) are rejected: downstream
scoring tables only define entries for the canonical set, and rejection is
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError

CANONICAL_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
ALPHABET = frozenset(CANONICAL_RESIDUES) | {"X"}
FASTA_LINE_WIDTH = 60


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


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: full header text plus the validated sequence."""

    header: str
    sequence: Sequence

    @property
    def description(self) -> str:
        """Free text after the id token, empty if the header is the id alone."""
        parts = self.header.split(None, 1)
        return parts[1] if len(parts) > 1 else ""


def validate_sequence(seq_id: str, raw: str) -> Sequence:
    """Normalize raw residue text into a Sequence.

    Uppercases and strips all whitespace. Sequence rejects anything outside
    the 20-letter alphabet plus X.
    """
    cleaned = "".join(raw.split()).upper()
    if not cleaned:
        raise SchemaError(f"sequence {seq_id!r} is empty after stripping whitespace")
    return Sequence(id=seq_id, residues=cleaned)


def parse_fasta(text: str) -> list[FastaRecord]:
    """Parse FASTA text into records, preserving input order.

    The token up to the first whitespace in each header becomes the record
    id. Sequence lines are concatenated, uppercased, and stripped of
    internal whitespace. LF and CRLF line endings are both accepted.
    """
    if not text.strip():
        raise SchemaError("FASTA input is empty")

    records: list[FastaRecord] = []
    header: str | None = None
    chunks: list[str] = []

    def flush(line_no: int):
        if header is None:
            return
        trimmed = header.strip()
        if not trimmed:
            raise SchemaError(f"empty FASTA header before line {line_no}")
        seq_id = trimmed.split()[0]
        body = "".join(chunks)
        if not body:
            raise SchemaError(f"FASTA record {seq_id!r} has an empty body")
        records.append(FastaRecord(header=trimmed, sequence=Sequence(seq_id, body)))

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if line.startswith(">"):
            flush(line_no)
            header = line[1:]
            chunks = []
        else:
            stripped = "".join(line.split()).upper()
            if not stripped:
                continue
            if header is None:
                raise SchemaError(f"sequence data before any header at line {line_no}")
            for c in stripped:
                if c not in ALPHABET:
                    raise SchemaError(f"invalid residue {c!r} at line {line_no}")
            chunks.append(stripped)
    flush(line_no=len(text.splitlines()) + 1)
    return records


def write_fasta(records: list[FastaRecord]) -> str:
    """Serialize records back to FASTA text (inverse of parse_fasta), with
    FASTA_LINE_WIDTH residues per line."""
    out = []
    for rec in records:
        out.append(f">{rec.header}")
        res = rec.sequence.residues
        for i in range(0, len(res), FASTA_LINE_WIDTH):
            out.append(res[i : i + FASTA_LINE_WIDTH])
    return "\n".join(out) + "\n"
