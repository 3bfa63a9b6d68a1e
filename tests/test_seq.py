import pytest
from hypothesis import given
from hypothesis import strategies as st

from protagent.errors import SchemaError
from protagent.seq import CANONICAL_RESIDUES, parse_fasta, validate_sequence

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
    assert [r.id for r in records] == ["acc1", "acc2"]
    assert records[0].residues == "MLKVACDE"
    assert records[1].residues == "WY"


def test_parse_fasta_crlf_and_lowercase():
    records = parse_fasta(">a\r\nmlk\r\nv\r\n")
    assert records[0].residues == "MLKV"


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


# Ids drawn from a few fixed ones repeat often; the regex adds variety.
ids_st = st.one_of(st.sampled_from(["A1", "a1", "P12345"]), st.from_regex(r"[A-Za-z0-9_.]{1,12}", fullmatch=True))


@st.composite
def fasta_texts(draw):
    """FASTA text of one to five records, with wrapped bodies, blank lines,
    descriptions and a mix of LF and CRLF endings; returned with each
    record's (id, residues) and the line of each header, counted as a text
    editor counts them: one more than the newlines before it."""
    text, records, header_lines = "", [], []

    def add(line):
        nonlocal text
        text += line + draw(st.sampled_from(["\n", "\r\n"]))

    for _ in range(draw(st.integers(1, 5))):
        sid, res = draw(ids_st), draw(residues_st)
        for _ in range(draw(st.integers(0, 2))):
            add("")
        header_lines.append(text.count("\n") + 1)
        add(">" + sid + draw(st.sampled_from(["", " desc", "\tmore words"])))
        width = draw(st.integers(1, 80))
        for i in range(0, len(res), width):
            add(res[i : i + width])
            if draw(st.booleans()):
                add("")
        records.append((sid, res))
    return text, records, header_lines


@given(fasta_texts())
def test_fasta_round_trip(case):
    text, records, header_lines = case
    ids = [sid for sid, _ in records]
    repeat = next((j for j, sid in enumerate(ids) if sid in ids[:j]), None)
    if repeat is None:
        assert [(s.id, s.residues) for s in parse_fasta(text)] == records
        return
    first = header_lines[ids.index(ids[repeat])]
    with pytest.raises(SchemaError) as exc:
        parse_fasta(text)
    assert str(exc.value) == f"line {header_lines[repeat]}: duplicate id {ids[repeat]!r} (first on line {first})"
