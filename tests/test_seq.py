import pytest
from hypothesis import given
from hypothesis import strategies as st

from protagent.errors import SchemaError
from protagent.seq import (
    CANONICAL_RESIDUES,
    FastaRecord,
    Sequence,
    parse_fasta,
    validate_sequence,
    write_fasta,
)

residues_st = st.text(alphabet=CANONICAL_RESIDUES + "X", min_size=1, max_size=200)


def test_validate_accepts_canonical_and_x():
    seq = validate_sequence("s1", "ACDEFGHIKLMNPQRSTVWYX")
    assert seq.residues == "ACDEFGHIKLMNPQRSTVWYX"
    assert seq.length == 21


def test_validate_uppercases_and_strips_whitespace():
    seq = validate_sequence("s1", " ml kv\n")
    assert seq.residues == "MLKV"


def test_validate_rejects_empty():
    with pytest.raises(SchemaError, match="'s1' is empty after stripping whitespace"):
        validate_sequence("s1", "   ")


def test_validate_rejects_bad_residue():
    with pytest.raises(SchemaError, match="invalid residue 'B' in sequence 's1'") as exc:
        validate_sequence("s1", "MLKB")
    assert "B" in str(exc.value)


def test_parse_fasta_basic():
    records = parse_fasta(">acc1 some description\nMLKV\nACDE\n>acc2\nWY\n")
    assert [r.sequence.id for r in records] == ["acc1", "acc2"]
    assert records[0].sequence.residues == "MLKVACDE"
    assert records[0].description == "some description"
    assert records[1].sequence.residues == "WY"


def test_parse_fasta_crlf_and_lowercase():
    records = parse_fasta(">a\r\nmlk\r\nv\r\n")
    assert records[0].sequence.residues == "MLKV"


def test_parse_fasta_rejects_empty_input():
    with pytest.raises(SchemaError, match="FASTA input is empty"):
        parse_fasta("")


def test_parse_fasta_rejects_sequence_before_header():
    with pytest.raises(SchemaError, match="sequence data before any header at line 1"):
        parse_fasta("MLKV\n")


def test_parse_fasta_rejects_headerless_record():
    with pytest.raises(SchemaError, match="FASTA record 'a' has an empty body"):
        parse_fasta(">a\n>b\nML\n")


def test_invalid_residue_reports_line():
    with pytest.raises(SchemaError, match="invalid residue '1' at line 2"):
        parse_fasta(">a\nML1V\n")


def test_write_fasta_wraps_lines():
    seq = Sequence(id="a", residues="A" * 130)
    text = write_fasta([FastaRecord(header="a long one", sequence=seq)])
    lines = text.splitlines()
    assert lines[0] == ">a long one"
    assert [len(l) for l in lines[1:]] == [60, 60, 10]


@given(st.lists(st.tuples(st.from_regex(r"[A-Za-z0-9_.]{1,12}", fullmatch=True), residues_st), min_size=1, max_size=5))
def test_fasta_round_trip(pairs):
    records = [
        FastaRecord(header=f"{hid} desc", sequence=Sequence(id=hid, residues=res))
        for hid, res in pairs
    ]
    reparsed = parse_fasta(write_fasta(records))
    assert [r.sequence.residues for r in reparsed] == [r.sequence.residues for r in records]
    assert [r.sequence.id for r in reparsed] == [r.sequence.id for r in records]
