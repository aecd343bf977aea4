"""Best combination of nested, non-crossing 2-opt moves.

Two recurrences over tour intervals: F(i, j) is the best gain
obtainable inside [i, j] while keeping seq[i] and seq[j] pointing the
same way, and R(i, j) the best gain when the whole interval additionally
gets reversed by an enclosing 2-opt. Each either fixes an endpoint and
recurses, or pays one 2-opt on (i, j) and flips the interior. R is
infinite whenever the enclosing reversal would drag seq[i] past a
delivery it serves or seq[j] past its pickup; nested flips cannot undo
that. Such a cell stores ``math.inf``, which never wins a strict
comparison, so no read of R needs a guard. Each row looks up in ``pos``
where seq[i]'s delivery sits, ``cut``, and every cell from there on is
blocked. A per-call list ``pk`` holds, for each position j, the
position of seq[j]'s pickup when seq[j] is a delivery and -1 otherwise,
so R(i, j) is priced exactly when i > 0, j < cut and pk[j] < i; row 0
of R is never read. The 2-opt gain on (i, j) is read only by that R
cell and by F's case 3, which adds R(i + 1, j - 1). So a cell computes
the gain only where R(i, j) is priced or R(i + 1, j - 1) is finite; in
any other cell case 3 would add an infinite cell and could not win, and
F(i, j) is the better of cases 1 and 2. The root F over the full tour
is never positive because shrinking to the empty interval gains zero;
unless it is below ``-inst.eps`` the scan returns the empty move
without decoding.

A 2-opt on (i, i + 2) flips one visit and leaves the tour as it was.
Its computed gain is 0 on integer costs, but on float costs it can
round to about -1e-13 and win a strict comparison. Only case 3 at
j = i + 2 reads the single-visit cells F(i + 1, i + 1) and
R(i + 1, i + 1), so each row stores ``math.inf`` in its single-visit
cell, and such a flip never wins.

The tables are filled row by row, i descending and j ascending. Cell
(i, j) reads only row i + 1 and the cells of row i left of j, so a scan
allocates two rows of F and two of R and reuses them in turn, and the
2-opt gain on (i, j) comes from the two rows of the cost matrix at
seq[i] and seq[i+1] and the tour's edge costs. Each row carries the
cells (i + 1, j - 1) and (i, j - 1) of the cell before in locals. The
case tables are kept whole for decoding, one ``bytearray`` row per i,
since a case is 1 to 3. Every row starts as case 1, and a cell writes
its case only when case 2 or 3 wins.

Every case moves inward from one end of [i, j] or from both, so the
chosen cases form one path from the full tour down to an interval of
two visits. Decoding walks that path once, in a loop, and yields both
the gain and the reordered tour from one call.
"""

from __future__ import annotations

import math

from ..instance import Instance
from ..tour import MoveDelta, Tour


def two_k_opt_best(inst: Instance, tour: Tour) -> MoveDelta:
    """Evaluates the full nested-2-opt family in O(n^2) and decodes the best
    if it improves."""
    seq = tour.seq
    pos = tour.pos
    n = inst.n_pairs
    top = len(seq) - 1
    w = inst.work_cost()

    size = top + 1
    ones = b"\x01" * size
    FC = [bytearray(ones) for _ in range(size)]
    RC = [bytearray(ones) for _ in range(size)]

    # F_in and R_in hold row i + 1 and F_i and R_i row i. The two pairs
    # of buffers swap after each row, so row i reuses the lists of rows
    # i + 2, i + 4, ..., which wrote only cells from i + 2 on: cells i
    # and i + 1 still hold the 0 of a fresh row. Two-visit intervals
    # gain 0, and a flip over a single visit is barred by an infinite
    # cell.
    wrow = [w[v] for v in seq]
    edge = [w[seq[k]][seq[k + 1]] for k in range(top)]
    pk = [pos[v - n] if n < v <= 2 * n else -1 for v in seq]
    F_in = [0] * size
    R_in = [0] * size
    F_i = [0] * size
    R_i = [0] * size
    inf = math.inf
    F_in[top - 1] = R_in[top - 1] = inf
    for i in range(top - 2, -1, -1):
        F_i[i] = R_i[i] = inf
        FC_i = FC[i]
        RC_i = RC[i]
        w_i = wrow[i]
        w_in = wrow[i + 1]
        c_i = edge[i]
        # R(i, j) is blocked from seq[i]'s delivery on, R(i, i + 1) too;
        # row 0 is never read, so all of it counts as blocked.
        s_i = seq[i]
        cut = pos[s_i + n] if 0 < s_i <= n else top if i else 0
        if cut == i + 1:
            R_i[cut] = inf
        # Cells (i + 1, j - 1) and (i, j - 1) of the cell before.
        f_in = F_in[i + 1]
        r_in = R_in[i + 1]
        f_i = F_i[i + 1]
        r_i = R_i[i + 1]
        for j in range(i + 2, size):
            f_up = F_in[j]
            r_up = R_in[j]
            best = f_up
            if f_i < best:
                best = f_i
                FC_i[j] = 2
            if j < cut and pk[j] < i:
                d2 = w_i[seq[j - 1]] + w_in[seq[j]] - c_i - edge[j - 1]
                alt = d2 + r_in
                if alt < best:
                    best = alt
                    FC_i[j] = 3
                F_i[j] = f_i = best
                best = r_up
                if r_i < best:
                    best = r_i
                    RC_i[j] = 2
                alt = d2 + f_in
                if alt < best:
                    best = alt
                    RC_i[j] = 3
                R_i[j] = r_i = best
            else:
                R_i[j] = r_i = inf
                if r_in < inf:
                    # d2 + r_in, summed in the same order.
                    alt = w_i[seq[j - 1]] + w_in[seq[j]] - c_i - edge[j - 1] + r_in
                    if alt < best:
                        best = alt
                        FC_i[j] = 3
                F_i[j] = f_i = best
            f_in = f_up
            r_in = r_up
        F_in, F_i = F_i, F_in
        R_in, R_i = R_i, R_in

    # ``left`` collects the output front to back and ``right`` back to
    # front; inside a reversed interval seq[i] goes to the back.
    delta = F_in[top]
    if delta >= -inst.eps:
        return MoveDelta("2k-opt", (), 0)
    left = []
    right = []
    flips = []
    i, j, rev = 0, top, False
    while j > i + 1:
        case = (RC if rev else FC)[i][j]
        near, far = (right, left) if rev else (left, right)
        if case == 3:
            flips.append((i, j))
            rev = not rev
        if case != 2:
            near.append(seq[i])
            i += 1
        if case != 1:
            far.append(seq[j])
            j -= 1
    mid = seq[i : j + 1]
    if rev:
        mid.reverse()
    out = left + mid + right[::-1]
    return MoveDelta("2k-opt", tuple(sorted(flips)), delta, tuple(out))
