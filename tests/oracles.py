"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: brute-force path
enumeration where feasible, and straightforward textbook formulations
otherwise, so agreement is meaningful.
"""

import math
from collections import Counter
from functools import lru_cache

from protagent.blosum62 import BLOSUM62
from protagent.domains import RESIDUE_ORDER, SCALE, ProfileHmm
from protagent.errors import SchemaError
from protagent.homology import (
    DEFAULT_MIN_SEQ_ID,
    KMER_ALPHABET,
    Alignment,
    BestHit,
    ReferenceIndex,
    _candidate_ordinals,
    bit_score,
    e_value,
    smith_waterman,
)
from protagent.seq import Sequence

GAP_OPEN = 11
GAP_EXTEND = 1
_IDENTITY = (1 << 32) + 1  # an identical diagonal step, in scalar_smith_waterman's path counts

_LN2 = math.log(2)


# --- local alignment -------------------------------------------------------


def _score_path(x, y, ops):
    """Score one explicit alignment path; gap run of length L costs open + (L-1)*extend."""
    score = 0
    i = j = 0
    run = None
    for op in ops:
        if op == "M":
            score += BLOSUM62[(x[i], y[j])]
            i += 1
            j += 1
            run = None
        else:
            if op == run:
                score -= GAP_EXTEND
            else:
                score -= GAP_OPEN
            run = op
            if op == "I":
                j += 1
            else:
                i += 1
    return score


def _all_paths(nx, ny):
    if nx == 0 and ny == 0:
        yield []
        return
    if nx > 0 and ny > 0:
        for rest in _all_paths(nx - 1, ny - 1):
            yield ["M"] + rest
    if ny > 0:
        for rest in _all_paths(nx, ny - 1):
            yield ["I"] + rest
    if nx > 0:
        for rest in _all_paths(nx - 1, ny):
            yield ["D"] + rest


def brute_local_score(a: str, b: str) -> int:
    """Exhaustive local-alignment score over every substring pair and path.

    Only practical for very short sequences. Returns 0 when nothing
    aligns with positive score.
    """
    best = 0
    for i1 in range(len(a)):
        for i2 in range(i1 + 1, len(a) + 1):
            for j1 in range(len(b)):
                for j2 in range(j1 + 1, len(b) + 1):
                    x, y = a[i1:i2], b[j1:j2]
                    for ops in _all_paths(len(x), len(y)):
                        if "M" not in ops:
                            continue
                        s = _score_path(x, y, ops)
                        if s > best:
                            best = s
    return best


def gotoh_local_score(a: str, b: str) -> int:
    """Independent affine-gap local alignment DP (score only)."""
    return max(gotoh_row_maxima(a, b), default=0)


def gotoh_row_maxima(a: str, b: str) -> list[int]:
    """The largest H cell of each row of the same DP, one per residue of a
    (0 where no cell of the row is positive)."""
    n, m = len(a), len(b)
    neg = float("-inf")
    H = [[0.0] * (m + 1) for _ in range(n + 1)]
    E = [[neg] * (m + 1) for _ in range(n + 1)]
    F = [[neg] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            E[i][j] = max(H[i][j - 1] - GAP_OPEN, E[i][j - 1] - GAP_EXTEND)
            F[i][j] = max(H[i - 1][j] - GAP_OPEN, F[i - 1][j] - GAP_EXTEND)
            H[i][j] = max(0.0, H[i - 1][j - 1] + BLOSUM62[(a[i - 1], b[j - 1])], E[i][j], F[i][j])
    return [int(max(row)) for row in H[1:]]


def reference_smith_waterman(a: Sequence, b: Sequence) -> Alignment | None:
    """Gotoh local alignment over full pointer matrices, with traceback.

    The straightforward formulation the production kernel must match
    exactly: H cells point to 'D'iag / 'E' / 'F' / '0' (fresh start),
    preferring D then E then F on equal scores; E and F cells point to 'H'
    (gap open, preferred on equal scores) or to themselves (extend). Every
    best-scoring end cell is traced back, and the alignment with the
    smallest (query_start, target_start, query_end, target_end) wins.
    """
    ra, rb = a.residues, b.residues
    n, m = len(ra), len(rb)
    neg = -(10 ** 9)

    # H: best score ending at (i, j); E: gap in query (consumes b); F: gap in target.
    h_rows = [[0] * (m + 1)]
    e_rows = [[neg] * (m + 1)]
    f_rows = [[neg] * (m + 1)]
    # Pointers: H cell from 'D'iag / 'E' / 'F' / '0' (fresh start);
    # E and F cells from 'H' (gap open) or their own state (extend).
    ph_rows = [["0"] * (m + 1)]
    pe_rows = [["H"] * (m + 1)]
    pf_rows = [["H"] * (m + 1)]
    best = 0
    ends: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        h_row = [0] * (m + 1)
        e_row = [neg] * (m + 1)
        f_row = [neg] * (m + 1)
        ph_row = ["0"] * (m + 1)
        pe_row = ["H"] * (m + 1)
        pf_row = ["H"] * (m + 1)
        ca = ra[i - 1]
        prev_h = h_rows[i - 1]
        prev_f = f_rows[i - 1]
        for j in range(1, m + 1):
            e_open = h_row[j - 1] - GAP_OPEN
            e_ext = e_row[j - 1] - GAP_EXTEND
            if e_open >= e_ext:
                e_row[j] = e_open
            else:
                e_row[j] = e_ext
                pe_row[j] = "E"
            f_open = prev_h[j] - GAP_OPEN
            f_ext = prev_f[j] - GAP_EXTEND
            if f_open >= f_ext:
                f_row[j] = f_open
            else:
                f_row[j] = f_ext
                pf_row[j] = "F"
            diag = prev_h[j - 1] + BLOSUM62[(ca, rb[j - 1])]
            h, p = 0, "0"
            if diag >= h:
                h, p = diag, "D"
            if e_row[j] > h:
                h, p = e_row[j], "E"
            if f_row[j] > h:
                h, p = f_row[j], "F"
            if h == 0:
                p = "0"
            h_row[j] = h
            ph_row[j] = p
            if h > best:
                best = h
                ends = [(i, j)]
            elif h == best and h > 0:
                ends.append((i, j))
        h_rows.append(h_row)
        e_rows.append(e_row)
        f_rows.append(f_row)
        ph_rows.append(ph_row)
        pe_rows.append(pe_row)
        pf_rows.append(pf_row)

    if best <= 0:
        return None

    candidates = [
        _sw_traceback(ra, rb, best, ph_rows, pe_rows, pf_rows, i, j) for i, j in ends
    ]
    return min(candidates, key=lambda al: (al.query_start, al.target_start, al.query_end, al.target_end))


def _sw_traceback(ra, rb, score, ph_rows, pe_rows, pf_rows, i, j) -> Alignment:
    query_end, target_end = i, j
    identities = 0
    aligned = 0
    state = "H"
    while True:
        if state == "H":
            p = ph_rows[i][j]
            if p == "D":
                aligned += 1
                if ra[i - 1] == rb[j - 1]:
                    identities += 1
                i -= 1
                j -= 1
                if ph_rows[i][j] == "0":
                    break
            elif p in ("E", "F"):
                state = p
            else:  # '0' — only reachable if the end cell itself is a fresh start
                break
        elif state == "E":
            aligned += 1
            state = "H" if pe_rows[i][j] == "H" else "E"
            j -= 1
        else:  # F
            aligned += 1
            state = "H" if pf_rows[i][j] == "H" else "F"
            i -= 1
    return Alignment(
        score=score,
        query_start=i + 1,
        query_end=query_end,
        target_start=j + 1,
        target_end=target_end,
        identities=identities,
        aligned_length=aligned,
    )


def scalar_smith_waterman(a: Sequence, b: Sequence) -> Alignment | None:
    """Optimal local alignment under affine gaps (Gotoh recurrences): the
    one-pass scalar kernel smith_waterman was before its packed score pass.

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


# --- k-mer prefilter ---------------------------------------------------------

K = 5
HIT_THRESHOLD = 2
DIAGONAL_BAND = 16


def rolling_kmer_codes(residues: str) -> list[int]:
    """Base-21 code of every 5-mer of residues (digits in KMER_ALPHABET
    order), by start offset, one residue at a time: take in the next digit,
    drop the leading one."""
    digits = [KMER_ALPHABET.index(c) for c in residues]
    lead_weight = 21 ** (K - 1)
    code = 0
    for d in digits[: K - 1]:
        code = code * 21 + d
    codes = []
    for lead, d in zip(digits, digits[K - 1 :]):
        code = code * 21 + d
        codes.append(code)
        code -= lead * lead_weight
    return codes


def reference_index_keys(entries) -> list[int]:
    """Every code << 42 | ordinal << 20 | offset key of a store, by one
    plain sort."""
    return sorted(
        code << 42 | ordinal << 20 | offset
        for ordinal, entry in enumerate(entries)
        for offset, code in enumerate(rolling_kmer_codes(entry.sequence.residues))
    )


def _reference_postings(entries) -> dict[str, list[tuple[int, int]]]:
    """The dict k-mer -> [(entry ordinal, offset)] inverted index."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for ordinal, entry in enumerate(entries):
        res = entry.sequence.residues
        if len(res) < K:
            continue
        for off in range(len(res) - K + 1):
            postings.setdefault(res[off : off + K], []).append((ordinal, off))
    for plist in postings.values():
        plist.sort()
    return postings


def reference_candidate_ordinals(entries, query: Sequence) -> list[int]:
    """Entries sharing >= HIT_THRESHOLD 5-mers on nearby diagonals, looked
    up by k-mer string in a dict of postings lists."""
    postings = _reference_postings(entries)
    res = query.residues
    diagonals: dict[int, list[int]] = {}
    for qpos in range(len(res) - K + 1):
        for ordinal, off in postings.get(res[qpos : qpos + K], ()):
            diagonals.setdefault(ordinal, []).append(qpos - off)
    out = []
    for ordinal, diags in diagonals.items():
        diags.sort()
        for lo in range(len(diags) - HIT_THRESHOLD + 1):
            if diags[lo + HIT_THRESHOLD - 1] - diags[lo] <= DIAGONAL_BAND:
                out.append(ordinal)
                break
    return sorted(out)


def reference_kmer_sites(query: str, target: str) -> int:
    """The pairs of equal 5-mers of query and target, counted by string."""
    counts = Counter(target[off : off + K] for off in range(len(target) - K + 1))
    return sum(counts[query[qpos : qpos + K]] for qpos in range(len(query) - K + 1))


def reference_search_best_hit(
    index: ReferenceIndex, query: Sequence, min_seq_id: float = DEFAULT_MIN_SEQ_ID
) -> BestHit | None:
    """Best hit by (lowest E-value, highest bits, lexicographic accession):
    every prefilter candidate aligned in full, then the ones passing
    min_seq_id ranked."""
    if not index.entries:
        raise SchemaError("search against an empty index")
    ordinals = _candidate_ordinals(index, query)
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


# --- profile-HMM local Viterbi ---------------------------------------------


def _profile_scores(hmm: ProfileHmm, scale=SCALE):
    """Per-node log-odds scores: whole 1/SCALE bits, or float bits when scale is None.

    Probability zero scores -inf either way.
    """

    def score(bits):
        return bits if scale is None else round(bits * scale)

    bg = hmm.background
    match_s, insert_s = [], []
    for k in range(hmm.model_length):
        match_s.append(
            {
                res: -math.inf if math.isinf(hmm.match_emissions[k][i])
                else score((-hmm.match_emissions[k][i] - math.log(bg[i])) / _LN2)
                for i, res in enumerate(RESIDUE_ORDER)
            }
        )
        insert_s.append(
            {
                res: -math.inf if math.isinf(hmm.insert_emissions[k][i])
                else score((-hmm.insert_emissions[k][i] - math.log(bg[i])) / _LN2)
                for i, res in enumerate(RESIDUE_ORDER)
            }
        )
        match_s[-1]["X"] = insert_s[-1]["X"] = score(0.0)
    trans_s = [tuple(-math.inf if math.isinf(v) else score(-v / _LN2) for v in row) for row in hmm.transitions]
    return match_s, insert_s, trans_s


def brute_viterbi_bits(hmm: ProfileHmm, residues: str):
    """Best local path through the profile by exhaustive enumeration.

    Free entry at any match state, free exit from any match state; paths
    are scored in whole 1/SCALE bits. Returns the best score in bits, or
    None if no path scores above 0. Only practical for tiny models and
    sequences.
    """
    match_s, insert_s, trans_s = _profile_scores(hmm)
    L, n = hmm.model_length, len(residues)
    MM, MI, MD, IM, II, DM, DD = range(7)
    best = [None]

    def note(score):
        if score > 0 and (best[0] is None or score > best[0]):
            best[0] = score

    def walk(state, k, j, score):
        # state is 'M', 'I', or 'D' at node k having consumed j residues
        if state == "M":
            note(score)
        t = trans_s[k - 1]
        if state == "M":
            if k < L and j < n:
                walk("M", k + 1, j + 1, score + t[MM] + match_s[k][residues[j]])
            if j < n:
                walk("I", k, j + 1, score + t[MI] + insert_s[k - 1][residues[j]])
            if k < L:
                walk("D", k + 1, j, score + t[MD])
        elif state == "I":
            if k < L and j < n:
                walk("M", k + 1, j + 1, score + t[IM] + match_s[k][residues[j]])
            if j < n:
                walk("I", k, j + 1, score + t[II] + insert_s[k - 1][residues[j]])
        else:  # D
            if k < L and j < n:
                walk("M", k + 1, j + 1, score + t[DM] + match_s[k][residues[j]])
            if k < L:
                walk("D", k + 1, j, score + t[DD])

    for k0 in range(1, L + 1):
        for j0 in range(1, n + 1):
            walk("M", k0, j0, match_s[k0 - 1][residues[j0 - 1]])
    return None if best[0] is None else best[0] / SCALE


def reference_viterbi(hmm: ProfileHmm, residues: str):
    """Local Viterbi over explicit (score, ali_from, hmm_from) tuple cells.

    The straightforward formulation the production kernel must match
    exactly, over the same whole 1/SCALE-bit scores: same bits, same
    coordinates, same tie-breaks (max score, then min (ali_from, hmm_from),
    then the first end cell in row-major order). Dead cells are guarded
    explicitly rather than relying on -inf arithmetic. Returns (bits,
    hmm_from, hmm_to, ali_from, ali_to) or None.
    """
    match_s, insert_s, trans_s = _profile_scores(hmm)
    L, n = hmm.model_length, len(residues)
    neg = -math.inf
    MM, MI, MD, IM, II, DM, DD = range(7)

    # Cells carry (score, ali_from, hmm_from); comparisons maximize score
    # and on ties minimize ali_from then hmm_from.
    dead = (neg, 0, 0)

    def better(x, y):
        if x[0] != y[0]:
            return x if x[0] > y[0] else y
        return x if (x[1], x[2]) <= (y[1], y[2]) else y

    vm_prev = [dead] * (L + 1)
    vi_prev = [dead] * (L + 1)
    vd_prev = [dead] * (L + 1)
    best = dead
    best_end = None
    for j in range(1, n + 1):
        c = residues[j - 1]
        vm = [dead] * (L + 1)
        vi = [dead] * (L + 1)
        vd = [dead] * (L + 1)
        for k in range(1, L + 1):
            em = match_s[k - 1][c]
            cand = (0, j, k)  # fresh entry at M_k
            if k > 1:
                t = trans_s[k - 2]
                prev = vm_prev[k - 1]
                if prev[0] > neg and t[MM] > neg:
                    cand = better(cand, (prev[0] + t[MM], prev[1], prev[2]))
                prev = vi_prev[k - 1]
                if prev[0] > neg and t[IM] > neg:
                    cand = better(cand, (prev[0] + t[IM], prev[1], prev[2]))
                prev = vd_prev[k - 1]
                if prev[0] > neg and t[DM] > neg:
                    cand = better(cand, (prev[0] + t[DM], prev[1], prev[2]))
            if em > neg:
                vm[k] = (cand[0] + em, cand[1], cand[2])
                if (
                    best_end is None
                    or vm[k][0] > best[0]
                    or (vm[k][0] == best[0] and (vm[k][1], vm[k][2]) < (best[1], best[2]))
                ):
                    best = vm[k]
                    best_end = (k, j)
            # insert state I_k (emits, stays at node k)
            ei = insert_s[k - 1][c]
            t = trans_s[k - 1]
            ic = dead
            prev = vm_prev[k]
            if prev[0] > neg and t[MI] > neg:
                ic = better(ic, (prev[0] + t[MI], prev[1], prev[2]))
            prev = vi_prev[k]
            if prev[0] > neg and t[II] > neg:
                ic = better(ic, (prev[0] + t[II], prev[1], prev[2]))
            if ic[0] > neg and ei > neg:
                vi[k] = (ic[0] + ei, ic[1], ic[2])
            # delete state D_k (silent, same j)
            if k > 1:
                t = trans_s[k - 2]
                dc = dead
                prev = vm[k - 1]
                if prev[0] > neg and t[MD] > neg:
                    dc = better(dc, (prev[0] + t[MD], prev[1], prev[2]))
                prev = vd[k - 1]
                if prev[0] > neg and t[DD] > neg:
                    dc = better(dc, (prev[0] + t[DD], prev[1], prev[2]))
                vd[k] = dc
        vm_prev, vi_prev, vd_prev = vm, vi, vd

    if best_end is None or best[0] <= 0:
        return None
    hmm_to, ali_to = best_end
    return (best[0] / SCALE, best[2], hmm_to, best[1], ali_to)


def reference_least_cost_to_match(hmm: ProfileHmm):
    """The least score, per node, from which a D or I cell can still reach M.

    Returns (need_d, need_y), one entry per node in whole 1/SCALE bits: a
    cell whose score is below its node's need can enter no match state at
    >= 0. need_d[k - 1] is the least cost of D_k's paths to an M, each DD
    chain D_k .. D_j followed by DM_j, enumerated one by one; math.inf where
    no such path has only finite steps. need_y[k - 1] applies to I_k before
    its emission: IM_k less the best insert emission (X included), or
    math.inf where I_k enters no M (IM_k is zero, or k is the last node).
    It is None where some insert emission beats II_k: there a chain of I_k
    cells can climb, and no such need holds.
    """
    _, insert_s, trans_s = _profile_scores(hmm)
    L = hmm.model_length
    MM, MI, MD, IM, II, DM, DD = range(7)
    need_d = []
    for k in range(1, L + 1):
        costs = []
        for j in range(k, L):  # D_j -> M_(j+1) exists for j < L
            steps = [trans_s[i - 1][DD] for i in range(k, j)] + [trans_s[j - 1][DM]]
            if all(s > -math.inf for s in steps):
                costs.append(-sum(steps))
        need_d.append(min(costs, default=math.inf))
    need_y = []
    for k in range(1, L + 1):
        top = max(insert_s[k - 1].values())
        im, ii = trans_s[k - 1][IM], trans_s[k - 1][II]
        if top > -ii:
            need_y.append(None)
        elif k == L or im == -math.inf:
            need_y.append(math.inf)
        else:
            need_y.append(-im - top)
    return need_d, need_y


def reference_float_viterbi(hmm: ProfileHmm, residues: str):
    """The local Viterbi kernel over float bits that the fixed-point one
    replaced: the same recurrences and tie rules, with unrounded scores.
    Returns (bits, hmm_from, hmm_to, ali_from, ali_to) or None.
    """
    match_s, insert_s, trans_s = _profile_scores(hmm, scale=None)
    match_rows = {res: [row[res] for row in match_s] for res in match_s[0]}
    insert_rows = {res: [row[res] for row in insert_s] for res in insert_s[0]}
    MM, MI, MD, IM, II, DM, DD = range(7)
    before = [(-math.inf,) * 7] + trans_s[:-1]
    steps = [(p[MM], p[IM], p[DM], p[MD], p[DD], t[MI], t[II]) for p, t in zip(before, trans_s)]
    width = hmm.model_length + 1
    neg = -math.inf
    dead = [neg] * hmm.model_length
    pm = pi = pd = dead
    pmo = pio = pdo = [0] * hmm.model_length
    best, best_from, best_end = 0.0, 0, 0
    for j, c in enumerate(residues, 1):
        vm, vmo, vi, vio, vd, vdo = [], [], [], [], [], []
        a = b = d = m = e = neg
        ao = bo = do = mo = eo = 0
        cell = j * width
        for sm, si, (tmm, tim, tdm, tmd, tdd, tmi, tii), x, xo, y, yo, z, zo in zip(
            match_rows[c], insert_rows[c], steps, pm, pmo, pi, pio, pd, pdo
        ):
            cell += 1
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
            v, vo = x + tmi, xo
            w = y + tii
            if w >= v and (w > v or yo < vo):
                v, vo = w, yo
            vi.append(v + si)
            vio.append(vo)
            v, vo = m + tmd, mo
            w = e + tdd
            if w >= v and (w > v or eo < vo):
                v, vo = w, eo
            vd.append(v)
            vdo.append(vo)
            a, ao, b, bo, d, do, m, mo, e, eo = x, xo, y, yo, z, zo, s, o, v, vo
        pm, pmo, pi, pio, pd, pdo = vm, vmo, vi, vio, vd, vdo
    if not best_end:
        return None
    ali_from, hmm_from = divmod(best_from, width)
    ali_to, hmm_to = divmod(best_end, width)
    return (best, hmm_from, hmm_to, ali_from, ali_to)


def random_profile(rng, name: str, model_length: int) -> ProfileHmm:
    """A structurally valid random profile with normalized rows."""

    def neg_ln_row(size):
        raw = [rng.random() + 0.05 for _ in range(size)]
        total = sum(raw)
        return tuple(-math.log(v / total) for v in raw)

    match_rows, insert_rows, trans_rows = [], [], []
    for _ in range(model_length):
        match_rows.append(neg_ln_row(20))
        insert_rows.append(neg_ln_row(20))
        mm = neg_ln_row(3)
        im = neg_ln_row(2)
        dm = neg_ln_row(2)
        trans_rows.append((mm[0], mm[1], mm[2], im[0], im[1], dm[0], dm[1]))
    return ProfileHmm(
        name=name,
        accession=f"PF{abs(hash(name)) % 90000 + 10000}.1",
        description="random test profile",
        model_length=model_length,
        match_emissions=tuple(match_rows),
        insert_emissions=tuple(insert_rows),
        transitions=tuple(trans_rows),
    )


# --- longest common subsequence --------------------------------------------


def recursive_lcs(a: tuple, b: tuple) -> int:
    """Memoized textbook recursion, independent of the rolling-row DP."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)
