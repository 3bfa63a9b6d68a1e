"""Profile-HMM domain scan tool.

Reads a plain-text profile library (HMMER3-style ASCII subset), scores
sequences by local Viterbi in log-odds space, and reports ranked domain
hits plus a filtered non-overlapping selection.

Library format, per record:

    HMMER3/f  <comment>
    NAME  <family id>
    ACC   <accession>
    DESC  <free text>
    LENG  <match-state count>
    ALPH  amino
    HMM   <20 residue letters, alphabetical>
          m->m m->i m->d i->m i->i d->m d->d
      COMPO  <20 values>                      (optional background row)
      <k>  <20 match emission values>
           <20 insert emission values>
           <7 transition values>
      ...
    //

All stored values are negative natural logs of probabilities; '*' means
probability zero. Unrecognized header keys are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import (
    EmptyLibraryError,
    MalformedProfileError,
    ProfileParseError,
    TruncatedProfileError,
)
from .seq import CANONICAL_RESIDUES, Sequence

RESIDUE_ORDER = tuple(sorted(CANONICAL_RESIDUES))
_LN2 = math.log(2)

TRANSITION_ORDER = ("MM", "MI", "MD", "IM", "II", "DM", "DD")

DEFAULT_REPORT_THRESHOLD = 1.0
DEFAULT_SELECTION_THRESHOLD = 0.01

_UNIFORM_BACKGROUND = tuple([1.0 / 20] * 20)


@dataclass(frozen=True)
class ProfileHmm:
    name: str
    accession: str
    description: str
    model_length: int
    match_emissions: tuple[tuple[float, ...], ...]  # neg-ln, one 20-row per node
    insert_emissions: tuple[tuple[float, ...], ...]
    transitions: tuple[tuple[float, ...], ...]  # neg-ln, 7 per node (TRANSITION_ORDER)
    background: tuple[float, ...] = _UNIFORM_BACKGROUND  # frequencies

    def __post_init__(self):
        if self.model_length < 1:
            raise MalformedProfileError(f"profile {self.name!r}: model length must be >= 1")
        for rows, label in ((self.match_emissions, "match"), (self.insert_emissions, "insert")):
            if len(rows) != self.model_length:
                raise TruncatedProfileError(
                    f"profile {self.name!r}: {len(rows)} {label} emission rows for length {self.model_length}"
                )
            for k, row in enumerate(rows, start=1):
                total = sum(math.exp(-v) for v in row)
                if not abs(total - 1.0) <= 1e-6:  # also rejects NaN
                    raise MalformedProfileError(
                        f"profile {self.name!r}: {label} emissions at node {k} sum to {total}, not 1"
                    )
        if len(self.transitions) != self.model_length:
            raise TruncatedProfileError(
                f"profile {self.name!r}: {len(self.transitions)} transition rows for length {self.model_length}"
            )
        # Viterbi relies on every score being finite or -inf: no NaN, no +inf.
        for k, row in enumerate(self.transitions, start=1):
            if not all(v > -math.inf for v in row):
                raise MalformedProfileError(f"profile {self.name!r}: transition at node {k} is NaN or -inf")
        if len(self.background) != 20 or not all(0.0 < f < math.inf for f in self.background):
            raise MalformedProfileError(f"profile {self.name!r}: background needs 20 positive finite frequencies")

    @cached_property
    def score_tables(self):
        """Log-odds scores in bits, built on the first scan and kept.

        Returns (match, insert, steps). match and insert map each residue
        letter (X scores 0) to its per-node scores; steps[k - 1] holds the
        transition scores node k's Viterbi cells read: MM, IM, DM, MD, DD out
        of node k - 1 (-inf for the first node), then MI, II out of node k.
        """
        log_bg = [math.log(f) for f in self.background]

        def row_scores(rows, idx):
            return [-math.inf if math.isinf(row[idx]) else (-row[idx] - log_bg[idx]) / _LN2 for row in rows]

        match = {res: row_scores(self.match_emissions, idx) for idx, res in enumerate(RESIDUE_ORDER)}
        insert = {res: row_scores(self.insert_emissions, idx) for idx, res in enumerate(RESIDUE_ORDER)}
        match["X"] = insert["X"] = [0.0] * self.model_length
        trans = [tuple(-math.inf if math.isinf(v) else -v / _LN2 for v in row) for row in self.transitions]
        MM, MI, MD, IM, II, DM, DD = range(7)
        before = [(-math.inf,) * 7] + trans[:-1]
        steps = [(p[MM], p[IM], p[DM], p[MD], p[DD], t[MI], t[II]) for p, t in zip(before, trans)]
        return match, insert, steps


@dataclass(frozen=True)
class DomainHit:
    pfam_id: str
    pfam_acc: str
    query: str
    evalue: float
    score: float
    hmm_from: int
    hmm_to: int
    ali_from: int
    ali_to: int
    coverage_query: float
    desc: str

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DomainScanResult:
    hits: tuple[DomainHit, ...]
    selected_domains: tuple[DomainHit, ...]

    def to_payload(self) -> dict:
        return {
            "hits": [h.to_payload() for h in self.hits],
            "selected_domains": [h.to_payload() for h in self.selected_domains],
        }


def _parse_value(token: str, line_no: int) -> float:
    if token == "*":
        return math.inf
    try:
        return float(token)
    except ValueError as exc:
        raise ProfileParseError(f"non-numeric field {token!r} at line {line_no}") from exc


def parse_hmm_library(text: str) -> list[ProfileHmm]:
    """Parse zero or more profile records from library text."""
    profiles: list[ProfileHmm] = []
    lines = text.splitlines()
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if not line.startswith("HMMER3"):
            raise ProfileParseError(f"expected record header at line {i + 1}, got {line!r}")
        i += 1
        header: dict[str, str] = {}
        while i < n and lines[i].split() and lines[i].split()[0] != "HMM":
            parts = lines[i].split(None, 1)
            header[parts[0]] = parts[1].strip() if len(parts) > 1 else ""
            i += 1
        if i >= n:
            raise ProfileParseError(f"record {header.get('NAME', '?')!r}: missing HMM section")
        if "LENG" not in header:
            raise MalformedProfileError(f"record {header.get('NAME', '?')!r}: missing LENG")
        try:
            leng = int(header["LENG"])
        except ValueError as exc:
            raise ProfileParseError(f"record {header.get('NAME', '?')!r}: bad LENG {header['LENG']!r}") from exc
        i += 2  # skip HMM residue-order line and transition-order line
        background = _UNIFORM_BACKGROUND
        if i < n and lines[i].split() and lines[i].split()[0] == "COMPO":
            tokens = lines[i].split()[1:]
            if len(tokens) != 20:
                raise ProfileParseError(f"COMPO row at line {i + 1} has {len(tokens)} values, expected 20")
            background = tuple(math.exp(-_parse_value(t, i + 1)) for t in tokens)
            i += 1
        match_rows, insert_rows, transition_rows = [], [], []
        name = header.get("NAME", "?")
        while i < n:
            stripped = lines[i].strip()
            if stripped == "//":
                break
            if stripped.startswith("HMMER3") or not stripped:
                raise ProfileParseError(f"record {name!r}: missing '//' terminator")
            node_tokens = lines[i].split()
            expect = str(len(match_rows) + 1)
            if node_tokens[0] != expect:
                raise ProfileParseError(
                    f"record {name!r}: expected node {expect} at line {i + 1}, got {node_tokens[0]!r}"
                )
            if len(node_tokens) != 21:
                raise ProfileParseError(f"match row at line {i + 1} has {len(node_tokens) - 1} values, expected 20")
            match_rows.append(tuple(_parse_value(t, i + 1) for t in node_tokens[1:]))
            if i + 2 >= n:
                raise TruncatedProfileError(f"record {name!r}: truncated node block at line {i + 1}")
            ins_tokens = lines[i + 1].split()
            if len(ins_tokens) != 20:
                raise ProfileParseError(f"insert row at line {i + 2} has {len(ins_tokens)} values, expected 20")
            insert_rows.append(tuple(_parse_value(t, i + 2) for t in ins_tokens))
            tr_tokens = lines[i + 2].split()
            if len(tr_tokens) != 7:
                raise ProfileParseError(f"transition row at line {i + 3} has {len(tr_tokens)} values, expected 7")
            transition_rows.append(tuple(_parse_value(t, i + 3) for t in tr_tokens))
            i += 3
        else:
            raise ProfileParseError(f"record {name!r}: missing '//' terminator")
        if len(match_rows) != leng:
            raise TruncatedProfileError(
                f"record {name!r}: {len(match_rows)} emission rows for LENG {leng}"
            )
        profiles.append(
            ProfileHmm(
                name=name,
                accession=header.get("ACC", ""),
                description=header.get("DESC", ""),
                model_length=leng,
                match_emissions=tuple(match_rows),
                insert_emissions=tuple(insert_rows),
                transitions=tuple(transition_rows),
                background=background,
            )
        )
        i += 1  # past '//'
    return profiles


def _fmt(value: float) -> str:
    return "*" if math.isinf(value) else f"{value:.10f}"


def write_hmm_library(profiles: list[ProfileHmm]) -> str:
    """Serialize profiles back to library text (inverse of parse_hmm_library)."""
    out = []
    for p in profiles:
        out.append("HMMER3/f  protagent profile library")
        out.append(f"NAME  {p.name}")
        if p.accession:
            out.append(f"ACC   {p.accession}")
        if p.description:
            out.append(f"DESC  {p.description}")
        out.append(f"LENG  {p.model_length}")
        out.append("ALPH  amino")
        out.append("HMM   " + "  ".join(RESIDUE_ORDER))
        out.append("      " + "  ".join(t.lower()[0] + "->" + t.lower()[1] for t in TRANSITION_ORDER))
        out.append("  COMPO  " + "  ".join(_fmt(-math.log(f)) for f in p.background))
        for k in range(p.model_length):
            out.append(f"  {k + 1}  " + "  ".join(_fmt(v) for v in p.match_emissions[k]))
            out.append("     " + "  ".join(_fmt(v) for v in p.insert_emissions[k]))
            out.append("     " + "  ".join(_fmt(v) for v in p.transitions[k]))
        out.append("//")
    return "\n".join(out) + ("\n" if out else "")


def viterbi_score(hmm: ProfileHmm, seq: Sequence):
    """Best local path through the profile, scored in bits over background.

    A path enters at any match state and exits from any match state (free
    entry/exit), may pass through insert and delete states in between, and
    must score above zero to count. Returns (bits, hmm_from, hmm_to,
    ali_from, ali_to) or None for no hit. Ties break on the highest bits,
    then the smallest (ali_from, hmm_from), then the first end cell in
    row-major (residue, node) order.
    """
    match_rows, insert_rows, steps = hmm.score_tables
    width = hmm.model_length + 1
    neg = -math.inf
    # The previous row's cells at nodes 1..L: scores, and origins encoded as
    # ali_from * width + hmm_from, so comparing ints compares (ali_from, hmm_from).
    # Dead cells score -inf; the fresh entry at 0.0 is always live, so a dead
    # predecessor can never win a comparison.
    dead = [neg] * hmm.model_length
    pm = pi = pd = dead
    pmo = pio = pdo = [0] * hmm.model_length
    best, best_from, best_end = 0.0, 0, 0
    for j, c in enumerate(seq.residues, 1):
        vm, vmo, vi, vio, vd, vdo = [], [], [], [], [], []
        # Node k-1 of the previous row (M: a, I: b, D: d) and of this row (M: m, D: e).
        a = b = d = m = e = neg
        ao = bo = do = mo = eo = 0
        cell = j * width
        for sm, si, (tmm, tim, tdm, tmd, tdd, tmi, tii), x, xo, y, yo, z, zo in zip(
            match_rows[c], insert_rows[c], steps, pm, pmo, pi, pio, pd, pdo
        ):
            cell += 1
            # M_k: a fresh entry, or M/I/D at node k-1 of the previous row.
            s, o = 0.0, cell
            v = a + tmm
            if v >= s and (v > s or ao < o):
                s, o = v, ao
            v = b + tim
            if v >= s and (v > s or bo < o):
                s, o = v, bo
            v = d + tdm
            if v >= s and (v > s or do < o):
                s, o = v, do
            s += sm
            vm.append(s)
            vmo.append(o)
            if s >= best and (s > best or o < best_from):
                best, best_from, best_end = s, o, cell
            # I_k: M or I at node k of the previous row.
            v, vo = x + tmi, xo
            w = y + tii
            if w >= v and (w > v or yo < vo):
                v, vo = w, yo
            vi.append(v + si)
            vio.append(vo)
            # D_k: M or D at node k-1 of this row (silent).
            v, vo = m + tmd, mo
            w = e + tdd
            if w >= v and (w > v or eo < vo):
                v, vo = w, eo
            vd.append(v)
            vdo.append(vo)
            # Shift node k into the k-1 slots; single stores beat tuple swaps here.
            a = x
            ao = xo
            b = y
            bo = yo
            d = z
            do = zo
            m = s
            mo = o
            e = v
            eo = vo
        pm, pmo, pi, pio, pd, pdo = vm, vmo, vi, vio, vd, vdo

    if not best_end:
        return None
    ali_from, hmm_from = divmod(best_from, width)
    ali_to, hmm_to = divmod(best_end, width)
    return (best, hmm_from, hmm_to, ali_from, ali_to)


def select_domains(hits: list[DomainHit]) -> list[DomainHit]:
    """Greedy non-overlapping selection in E-value order.

    Scans hits in ascending-E order, keeps those at or below
    DEFAULT_SELECTION_THRESHOLD that do not overlap an already-selected hit
    on sequence coordinates.
    """
    ordered = sorted(hits, key=lambda h: (h.evalue, -h.score, h.pfam_acc))
    selected: list[DomainHit] = []
    for hit in ordered:
        if hit.evalue > DEFAULT_SELECTION_THRESHOLD:
            continue
        if any(hit.ali_from <= s.ali_to and s.ali_from <= hit.ali_to for s in selected):
            continue
        selected.append(hit)
    return selected


def scan(library: list[ProfileHmm], seq: Sequence) -> DomainScanResult:
    """Score every profile and assemble the ranked hit list.

    E = N_models * max(1, len/100) * 2^(-bits); hits above
    DEFAULT_REPORT_THRESHOLD are dropped.
    """
    if not library:
        raise EmptyLibraryError("domain scan with an empty profile library")
    length_factor = max(1.0, seq.length / 100.0)
    hits: list[DomainHit] = []
    for hmm in library:
        result = viterbi_score(hmm, seq)
        if result is None:
            continue
        bits, hmm_from, hmm_to, ali_from, ali_to = result
        evalue = len(library) * length_factor * (2.0 ** (-bits))
        if evalue > DEFAULT_REPORT_THRESHOLD:
            continue
        hits.append(
            DomainHit(
                pfam_id=hmm.name,
                pfam_acc=hmm.accession,
                query=seq.id,
                evalue=float(f"{evalue:.4g}"),
                score=round(bits, 1),
                hmm_from=hmm_from,
                hmm_to=hmm_to,
                ali_from=ali_from,
                ali_to=ali_to,
                coverage_query=round((ali_to - ali_from + 1) / seq.length, 4),
                desc=hmm.description,
            )
        )
    hits.sort(key=lambda h: (h.evalue, -h.score, h.pfam_acc))
    return DomainScanResult(
        hits=tuple(hits),
        selected_domains=tuple(select_domains(hits)),
    )
