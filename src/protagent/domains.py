"""Profile-HMM domain scan tool.

Reads a plain-text profile library (HMMER3-style ASCII subset), scores
sequences by local Viterbi in log-odds space, and reports ranked domain
hits plus a filtered non-overlapping selection.

Scores are fixed-point: each emission and transition log-odds score is
rounded once to a whole 1/SCALE bit (SCALE = 1000), paths add them exactly,
and a hit's bits are that integer over SCALE. Ties between paths break on
the highest score, then the smallest (ali_from, hmm_from), then the first
end cell in (residue, node) order.

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
probability zero. Unrecognized header keys are ignored; a key (a header
line's first token) repeated within one record is refused. The HMM line and
the transition line name the order of the columns below them, so each must
be exactly as shown; any other order is refused rather than read as this
one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import SchemaError, check_unique
from .seq import CANONICAL_RESIDUES, Sequence

RESIDUE_ORDER = tuple(sorted(CANONICAL_RESIDUES))
_LN2 = math.log(2)

TRANSITION_ORDER = ("MM", "MI", "MD", "IM", "II", "DM", "DD")

# The column headers of a library record: the HMM line and the line below it.
_RESIDUE_HEADER = ["HMM", *RESIDUE_ORDER]
_TRANSITION_HEADER = [f"{a}->{b}" for a, b in map(str.lower, TRANSITION_ORDER)]

DEFAULT_REPORT_THRESHOLD = 1.0
DEFAULT_SELECTION_THRESHOLD = 0.01

_UNIFORM_BACKGROUND = tuple([1.0 / 20] * 20)

SCALE = 1000  # profile scores are whole numbers of 1/SCALE bits


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
            raise SchemaError(f"profile {self.name!r}: model length must be >= 1")
        for rows, label in ((self.match_emissions, "match"), (self.insert_emissions, "insert")):
            if len(rows) != self.model_length:
                raise SchemaError(
                    f"profile {self.name!r}: {len(rows)} {label} emission rows for length {self.model_length}"
                )
            for k, row in enumerate(rows, start=1):
                try:
                    total = sum(math.exp(-v) for v in row)
                except OverflowError:  # a stored value far below 0
                    total = math.inf
                if not abs(total - 1.0) <= 1e-6:  # also rejects NaN
                    raise SchemaError(
                        f"profile {self.name!r}: {label} emissions at node {k} sum to {total}, not 1"
                    )
        if len(self.transitions) != self.model_length:
            raise SchemaError(
                f"profile {self.name!r}: {len(self.transitions)} transition rows for length {self.model_length}"
            )
        # Viterbi relies on every transition score being <= 0 or -inf: no NaN,
        # and no stored value below 0, which is a probability above 1.
        for k, row in enumerate(self.transitions, start=1):
            if not all(v >= 0.0 for v in row):
                raise SchemaError(
                    f"profile {self.name!r}: transition at node {k} is NaN or below 0 (a probability above 1)"
                )
        if len(self.background) != 20 or not all(0.0 < f < math.inf for f in self.background):
            raise SchemaError(f"profile {self.name!r}: background needs 20 positive finite frequencies")
        total = sum(self.background)
        if not abs(total - 1.0) <= 1e-6:
            raise SchemaError(f"profile {self.name!r}: background frequencies sum to {total}, not 1")

    def score_tables(self):
        """Log-odds scores in whole 1/SCALE bits, -inf where the probability is 0.

        Returns (match, insert, trans). match and insert map each residue
        letter (X scores 0) to its per-node scores; trans[k - 1] holds the
        seven transition scores out of node k, in TRANSITION_ORDER.
        """
        log_bg = [math.log(f) for f in self.background]

        def row_scores(rows, idx):
            return [
                -math.inf if math.isinf(row[idx]) else round((-row[idx] - log_bg[idx]) / _LN2 * SCALE) for row in rows
            ]

        match = {res: row_scores(self.match_emissions, idx) for idx, res in enumerate(RESIDUE_ORDER)}
        insert = {res: row_scores(self.insert_emissions, idx) for idx, res in enumerate(RESIDUE_ORDER)}
        match["X"] = insert["X"] = [0] * self.model_length
        trans = [[-math.inf if math.isinf(v) else round(-v / _LN2 * SCALE) for v in row] for row in self.transitions]
        return match, insert, trans

    @cached_property
    def _packed(self) -> dict[int, _PackedProfile]:
        """Packed kernel constants by length class, each built on its first scan."""
        return {}

    def packed(self, length: int) -> _PackedProfile:
        """Kernel constants for sequences of up to the next power of two residues."""
        length_class = 1 << max(length - 1, 1).bit_length()
        packed = self._packed.get(length_class)
        if packed is None:
            packed = self._packed[length_class] = _PackedProfile(self, length_class)
        return packed


class _PackedProfile:
    """One profile's score tables packed into plain ints, one field per node.

    Field k - 1 holds node k. A live cell of score s (in 1/SCALE bits) and
    origin o (ali_from * width + hmm_from) is (s + bias) << origin_bits |
    (max_origin - o), so one fieldwise max is the kernel's whole rule:
    higher score, then smaller origin. Each field has a guard bit on top.

    Bounds, for sequences of at most `length` residues and A (here a) above
    the largest absolute finite score of the profile: a path scores at most
    length * A, since each residue adds one emission and transitions are
    <= 0, so no cell reaches `cap` = length * A. Every max takes a floor or
    a fresh entry as one side, so a cell is never below 0 (0 itself where an
    emission is -inf), and a probability-zero transition costs `dead`, more
    than any cell holds.

    Floors. A D or I cell matters only if some continuation lifts it to a
    candidate >= 0 for M: that beats or ties the fresh entry at 0, and a tie
    goes to the smaller origin, the cell's. Each node's D, and its I before
    the emission, has a least score `need` that can do so, and its floor is
    below(need), the largest value whose score is under need (need capped
    at `cap`). A cell at or below its floor, and every cell grown from it,
    loses to a fresh entry, so clipping cells up to the floor changes no
    result; and a floor grows into nothing above the floors it feeds, so a
    row with no live cell of a state stays at that state's floors.

    - D_k: need_D[k] is the least cost from D_k to an M, its DD steps to
      some D_j and then DM_j: min(DM_k, DD_k + need_D[k + 1]). The last
      node's D reaches no M.
    - I_k, on Y_k = max(M_k - MI_k, I_k - II_k) of the previous row: if no
      insert emission at node k (X scores 0) beats II_k, a chain of Y_k from
      s stays <= s, and its best M candidate is s + e_max - IM_k, so
      need_Y[k] = IM_k - e_max (none for the last node, whose I reaches no
      M). If one does, a chain may sink far below 0 and climb back, and the
      floor is a - bias < -length * A: a cell needs >= -length * A to reach
      M at >= 0, and no continuation gains length * A.
    """

    def __init__(self, hmm: ProfileHmm, length: int):
        match, insert, trans = hmm.score_tables()
        nodes = hmm.model_length
        finite = [abs(v) for table in (match, insert) for row in table.values() for v in row if v > -math.inf]
        finite += [-v for row in trans for v in row if v > -math.inf]
        a = max(finite, default=0) + 1
        cap = length * a
        self.bias = bias = (length + 1) * a + 1
        self.width = width = nodes + 1
        self.origin_bits = ((length + 1) * width).bit_length()
        unit = 1 << self.origin_bits
        self.max_origin = max_origin = unit - 1
        dead = bias + length * a + 1
        # The largest field sum: a cell (<= bias + length * a) plus a cost (<= dead).
        self.field = field = (bias + length * a + dead).bit_length() + self.origin_bits + 1
        self.nodes = nodes
        self.fields = (1 << (nodes * field)) - 1
        ones = self.fields // ((1 << field) - 1)
        self.guards = ones << (field - 1)
        self.step = width * ones

        def pack(values):
            return sum(v << (f * field) for f, v in enumerate(values))

        def below(need):
            return (min(need, cap) + bias) * unit - 1

        # Transition costs, in score units: node k's at field k - 1.
        MM, MI, MD, IM, II, DM, DD = range(7)
        cost = [[dead if v == -math.inf else -v for v in row] for row in trans]
        self.mm, self.im, self.dm, self.ii = (pack(c[col] * unit for c in cost) for col in (MM, IM, DM, II))
        # D floors: node k's at field k - 2, where D_k is taken before its
        # shift up one field (D_1 is never entered). The top field stands for
        # a node past the last, which no cell reaches.
        need_d = [cap]
        for c in reversed(cost[:-1]):
            need_d.append(min(c[DM], c[DD] + need_d[-1]))
        self.floor_d = pack([below(need) for need in reversed(need_d[:-1])] + [below(cap)])
        self.floor_md = self.floor_d + pack(c[MD] * unit for c in cost)
        floor_y = []
        for k, c in enumerate(cost):
            top_insert = max(row[k] for row in insert.values())
            if top_insert > c[II]:
                floor_y.append(a * unit)
            else:
                floor_y.append(below(cap if k == nodes - 1 else c[IM] - top_insert))
        self.floor_y = pack(floor_y)
        self.floor_mi = self.floor_y + pack(c[MI] * unit for c in cost)
        # Fresh entries at row 0: node k at field k - 1, and node k + 1 at field
        # k - 1, where a candidate from node k waits for its shift.
        self.fresh_first = bias * unit + max_origin - 1
        self.fresh_next_mm = pack(bias * unit + max_origin - (f + 2) for f in range(nodes)) + self.mm
        # D_k from D_(k-s): the DD costs out of nodes k-s .. k-1, by doubling s.
        dd = [c[DD] for c in cost]
        self.dd_spans = []
        s = 1
        while s < nodes:
            span = [0] * s + [min(sum(dd[f - s : f]), dead) * unit for f in range(s, nodes)]
            self.dd_spans.append((s * field, pack(span)))
            s <<= 1

        def emissions(table):
            rows = {}
            for res, scores in table.items():
                live = [v > -math.inf for v in scores]
                mask = None if all(live) else pack(((1 << field) - 1) * ok for ok in live)
                rows[res] = (pack(v * unit if ok else 0 for v, ok in zip(scores, live)), mask)
            return rows

        self.match = emissions(match)
        self.insert = emissions(insert)


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


@dataclass(frozen=True)
class DomainScanResult:
    hits: tuple[DomainHit, ...]
    selected_domains: tuple[DomainHit, ...]


def _parse_value(token: str, line_no: int) -> float:
    if token == "*":
        return math.inf
    try:
        return float(token)
    except ValueError as exc:
        raise SchemaError(f"non-numeric field {token!r} at line {line_no}") from exc


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
            raise SchemaError(f"expected record header at line {i + 1}, got {line!r}")
        i += 1
        header: dict[str, str] = {}
        first_line: dict[str, str] = {}
        while i < n and lines[i].split() and lines[i].split()[0] != "HMM":
            parts = lines[i].split(None, 1)
            try:
                check_unique(first_line, parts[0], f"on line {i + 1}", "header key")
            except SchemaError as exc:
                raise SchemaError(f"line {i + 1}: {exc}") from exc
            header[parts[0]] = parts[1].strip() if len(parts) > 1 else ""
            i += 1
        name = header.get("NAME", "?")
        if i >= n:
            raise SchemaError(f"record {name!r}: missing HMM section")
        if "LENG" not in header:
            raise SchemaError(f"record {name!r}: missing LENG")
        try:
            leng = int(header["LENG"])
        except ValueError as exc:
            raise SchemaError(f"record {name!r}: bad LENG {header['LENG']!r}") from exc
        for expected in (_RESIDUE_HEADER, _TRANSITION_HEADER):
            if i >= n or lines[i].split() != expected:
                got = lines[i].strip() if i < n else "end of text"
                raise SchemaError(f"record {name!r}: line {i + 1} must be {' '.join(expected)!r}, got {got!r}")
            i += 1
        background = _UNIFORM_BACKGROUND
        if i < n and lines[i].split() and lines[i].split()[0] == "COMPO":
            tokens = lines[i].split()[1:]
            if len(tokens) != 20:
                raise SchemaError(f"COMPO row at line {i + 1} has {len(tokens)} values, expected 20")
            try:
                background = tuple(math.exp(-_parse_value(t, i + 1)) for t in tokens)
            except OverflowError as exc:  # a stored value far below 0: a frequency far above 1
                raise SchemaError(f"COMPO row at line {i + 1} has a value far below 0") from exc
            i += 1
        match_rows, insert_rows, transition_rows = [], [], []
        while i < n:
            stripped = lines[i].strip()
            if stripped == "//":
                break
            if stripped.startswith("HMMER3") or not stripped:
                raise SchemaError(f"record {name!r}: missing '//' terminator")
            node_tokens = lines[i].split()
            expect = str(len(match_rows) + 1)
            if node_tokens[0] != expect:
                raise SchemaError(
                    f"record {name!r}: expected node {expect} at line {i + 1}, got {node_tokens[0]!r}"
                )
            if len(node_tokens) != 21:
                raise SchemaError(f"match row at line {i + 1} has {len(node_tokens) - 1} values, expected 20")
            match_rows.append(tuple(_parse_value(t, i + 1) for t in node_tokens[1:]))
            if i + 2 >= n:
                raise SchemaError(f"record {name!r}: truncated node block at line {i + 1}")
            ins_tokens = lines[i + 1].split()
            if len(ins_tokens) != 20:
                raise SchemaError(f"insert row at line {i + 2} has {len(ins_tokens)} values, expected 20")
            insert_rows.append(tuple(_parse_value(t, i + 2) for t in ins_tokens))
            tr_tokens = lines[i + 2].split()
            if len(tr_tokens) != 7:
                raise SchemaError(f"transition row at line {i + 3} has {len(tr_tokens)} values, expected 7")
            transition_rows.append(tuple(_parse_value(t, i + 3) for t in tr_tokens))
            i += 3
        else:
            raise SchemaError(f"record {name!r}: missing '//' terminator")
        if len(match_rows) != leng:
            raise SchemaError(
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
        out.append("      " + "  ".join(_TRANSITION_HEADER))
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
    must score above zero to count. Scores are sums of whole 1/SCALE bits.
    Returns (bits, hmm_from, hmm_to, ali_from, ali_to) or None for no hit.
    Ties break on the highest bits, then the smallest (ali_from, hmm_from),
    then the first end cell in row-major (residue, node) order.

    One pass per residue over three plain ints, M, I and D, whose fields are
    the nodes (SWAR; see _PackedProfile). Every fieldwise max(u + c, v) - c
    below is u + ((v - u - c) where v >= u + c, else 0): with the guards set,
    v - (u + c) leaves a field's guard set exactly where v >= u + c, and
    g - (g >> top) turns those guards into masks of their fields' value bits.
    The result is never below u, so no field goes below 0.

    A row holds no D cell that can reach a match state when no M cell
    reaches its D floor through MD, which the guards of that max show; it
    holds no such I cell when every field of I, before its emission, is at
    its floor. Then the row's DD scan and the next row's D->M max, or the
    next row's I->M and II maxes, are skipped: a floor and all it grows lose
    every max they would enter.
    """
    p = hmm.packed(seq.length)
    field, guards, fields, step, top = p.field, p.guards, p.fields, p.step, p.field - 1
    mm, im, dm, ii, floor_y, floor_mi = p.mm, p.im, p.dm, p.ii, p.floor_y, p.floor_mi
    floor_d, floor_md = p.floor_d, p.floor_md
    match, insert, dd_spans, width = p.match, p.insert, p.dd_spans, p.width
    fresh_first, fresh_next_mm = p.fresh_first, p.fresh_next_mm
    m = i = d = best = 0
    i_live = d_live = False
    bests = []
    for c in seq.residues:
        fresh_first -= width
        fresh_next_mm -= step
        # M_k: a fresh entry, or M/I/D at node k-1 of the previous row. The
        # candidates are taken at node k-1's field, then shifted up one field.
        t = (m | guards) - fresh_next_mm
        g = t & guards
        x = fresh_next_mm - mm + (t & (g - (g >> top)))
        if i_live:
            t = (i | guards) - (x + im)
            g = t & guards
            x += t & (g - (g >> top))
        if d_live:
            t = (d | guards) - (x + dm)
            g = t & guards
            x += t & (g - (g >> top))
        # I_k: M or I at node k of the previous row, never below the floor.
        t = (m | guards) - floor_mi
        g = t & guards
        y = floor_y + (t & (g - (g >> top)))
        if i_live:
            t = (i | guards) - (y + ii)
            g = t & guards
            y += t & (g - (g >> top))
        i_live = y != floor_y
        if i_live:
            emit, live = insert[c]
            i = y + emit if live is None else (y + emit) & live
        emit, live = match[c]
        m = ((x << field) & fields | fresh_first) + emit
        if live is not None:
            m &= live
        # D_k: M at node k-1 of this row, then D at node k-s by doubling s,
        # stopped at the first shift that changes nothing: DD costs are >= 0,
        # so after that no longer shift can.
        t = (m | guards) - floor_md
        g = t & guards
        d_live = g != 0
        if d_live:
            d = ((floor_d + (t & (g - (g >> top)))) << field) & fields
            for shift, cost in dd_spans:
                t = ((d << shift) | guards) - (d + cost)
                g = t & guards
                t &= g - (g >> top)
                if not t:
                    break
                d += t
        t = (m | guards) - best
        g = t & guards
        best += t & (g - (g >> top))
        bests.append(best)

    mask = (1 << field) - 1
    ends = [(best >> (f * field)) & mask for f in range(p.nodes)]
    top_value = max(ends)
    score = (top_value >> p.origin_bits) - p.bias
    if score <= 0:
        return None
    # The first end cell: each field's best only grows row by row, so its
    # first row at the top value is found by bisection.
    ali_to, hmm_to = min(
        (bisect_left(bests, top_value, key=lambda b, f=f: (b >> (f * field)) & mask) + 1, f + 1)
        for f, v in enumerate(ends)
        if v == top_value
    )
    ali_from, hmm_from = divmod(p.max_origin - (top_value & p.max_origin), width)
    return (score / SCALE, hmm_from, hmm_to, ali_from, ali_to)


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
        raise SchemaError("domain scan with an empty profile library")
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
