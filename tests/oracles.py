"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: brute-force path
enumeration where feasible, and straightforward textbook formulations
otherwise, so agreement is meaningful.
"""

import math
from functools import lru_cache

from protagent.blosum62 import BLOSUM62
from protagent.domains import RESIDUE_ORDER, ProfileHmm
from protagent.errors import EmptyIndexError
from protagent.homology import (
    DEFAULT_MIN_SEQ_ID,
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
    n, m = len(a), len(b)
    neg = float("-inf")
    H = [[0.0] * (m + 1) for _ in range(n + 1)]
    E = [[neg] * (m + 1) for _ in range(n + 1)]
    F = [[neg] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            E[i][j] = max(H[i][j - 1] - GAP_OPEN, E[i][j - 1] - GAP_EXTEND)
            F[i][j] = max(H[i - 1][j] - GAP_OPEN, F[i - 1][j] - GAP_EXTEND)
            H[i][j] = max(0.0, H[i - 1][j - 1] + BLOSUM62[(a[i - 1], b[j - 1])], E[i][j], F[i][j])
            best = max(best, H[i][j])
    return int(best)


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


# --- k-mer prefilter ---------------------------------------------------------

K = 5
HIT_THRESHOLD = 2
DIAGONAL_BAND = 16


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


def reference_search_best_hit(
    index: ReferenceIndex, query: Sequence, min_seq_id: float = DEFAULT_MIN_SEQ_ID
) -> BestHit | None:
    """Best hit by (lowest E-value, highest bits, lexicographic accession):
    every prefilter candidate aligned in full, then the ones passing
    min_seq_id ranked."""
    if not index.entries:
        raise EmptyIndexError("search against an empty index")
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


def _profile_scores(hmm: ProfileHmm):
    bg = hmm.background
    match_s, insert_s = [], []
    for k in range(hmm.model_length):
        match_s.append(
            {
                res: (-hmm.match_emissions[k][i] - math.log(bg[i])) / _LN2
                for i, res in enumerate(RESIDUE_ORDER)
            }
        )
        insert_s.append(
            {
                res: (-hmm.insert_emissions[k][i] - math.log(bg[i])) / _LN2
                for i, res in enumerate(RESIDUE_ORDER)
            }
        )
        match_s[-1]["X"] = insert_s[-1]["X"] = 0.0
    trans_s = [tuple(-v / _LN2 for v in row) for row in hmm.transitions]
    return match_s, insert_s, trans_s


def brute_viterbi_bits(hmm: ProfileHmm, residues: str):
    """Best local path through the profile by exhaustive enumeration.

    Free entry at any match state, free exit from any match state;
    returns the best score in bits, or None if no path scores above 0.
    Only practical for tiny models and sequences.
    """
    match_s, insert_s, trans_s = _profile_scores(hmm)
    L, n = hmm.model_length, len(residues)
    MM, MI, MD, IM, II, DM, DD = range(7)
    best = [None]

    def note(score):
        if score > 0.0 and (best[0] is None or score > best[0]):
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
    return best[0]


def reference_viterbi(hmm: ProfileHmm, residues: str):
    """Local Viterbi over explicit (score, ali_from, hmm_from) tuple cells.

    The straightforward formulation the production kernel must match
    exactly: same bits, same coordinates, same tie-breaks (max bits, then
    min (ali_from, hmm_from), then the first end cell in row-major order).
    Dead cells are guarded explicitly rather than relying on -inf
    arithmetic. Returns (bits, hmm_from, hmm_to, ali_from, ali_to) or None.
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
            cand = (0.0, j, k)  # fresh entry at M_k
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

    if best_end is None or best[0] <= 0.0:
        return None
    hmm_to, ali_to = best_end
    return (best[0], best[2], hmm_to, best[1], ali_to)


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
