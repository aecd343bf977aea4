"""Relocation of one pickup-delivery pair to its best joint position.

Removing pair (x, x+n) from a tour leaves a shorter sequence rho; the
pair can go back either consecutively into one slot or split across two
slots with x first. Enumerating split placements naively costs O(n^2)
per pair, but the cheapest completion for the delivery only depends on
where the pickup went. One backward pass over the slots therefore does
it all in O(n): it carries the running minimum of the delivery's cost
over the slots after the current one, with the slot that attains it,
and prices the pickup at the current slot against that minimum. The
consecutive placements are priced in the same pass. Scanning backwards,
a candidate replaces the best on ties too, so the smallest slot wins,
as in the forward enumeration. The quadratic enumeration lives in
``oracles.py`` as this scan's reference.

Slots are named by the rho element they follow: inserting "at t" places
a visit between rho[t] and rho[t+1]. The last slot is len(rho)-2 since
nothing may follow the terminal.
"""

from __future__ import annotations

import math

from ..instance import Instance
from ..tour import MoveDelta, Tour


def best_insertion(w, rho, x: int, nx: int):
    """Cheapest joint insertion of x then nx into rho, in O(len(rho)).

    Returns (delta, ip, jp) where ip == jp marks consecutive insertion.
    Ties prefer consecutive placements, then smaller ip, then smaller
    jp, matching the naive scan order.
    """
    last = len(rho) - 2
    wx = w[x]
    wnx = w[nx]
    x_nx = wx[nx]

    # run is the cheapest delivery cost over the slots after t, found
    # at slot run_t. At t = last no slot follows, so the split candidate
    # there costs inf; it never wins, as consecutive ones are finite.
    best_c = best_s = run = math.inf
    best_ct = best_si = best_sj = run_t = -1
    v = rho[last + 1]
    for t in range(last, -1, -1):
        u = rho[t]
        base = w[u][v]
        d = wx[u] + x_nx + wnx[v] - base
        if d <= best_c:
            best_c = d
            best_ct = t
        d = wx[u] + wx[v] - base + run
        if d <= best_s:
            best_s = d
            best_si = t
            best_sj = run_t
        d = wnx[u] + wnx[v] - base
        if d <= run:
            run = d
            run_t = t
        v = u

    if best_c <= best_s:
        return best_c, best_ct, best_ct
    return best_s, best_si, best_sj


def removal_delta(w, seq, i: int, j: int):
    # i < j are the positions of the pair being taken out.
    x, nx = seq[i], seq[j]
    if j == i + 1:
        a, b = seq[i - 1], seq[j + 1]
        return w[a][b] - w[a][x] - w[x][nx] - w[nx][b]
    return (
        w[seq[i - 1]][seq[i + 1]]
        - w[seq[i - 1]][x]
        - w[x][seq[i + 1]]
        + w[seq[j - 1]][seq[j + 1]]
        - w[seq[j - 1]][nx]
        - w[nx][seq[j + 1]]
    )


def relocate_pair_best(inst: Instance, tour: Tour, x: int) -> MoveDelta:
    """Best improving relocation of pair (x, x+n), or the empty move."""
    nx = x + inst.n_pairs
    i, j = tour.pos[x], tour.pos[nx]
    seq = tour.seq
    w = inst.work_cost()
    d_rem = removal_delta(w, seq, i, j)
    rho = seq[:i] + seq[i + 1 : j] + seq[j + 1 :]
    d_ins, ip, jp = best_insertion(w, rho, x, nx)
    delta = d_rem + d_ins
    if delta >= -inst.eps:
        return MoveDelta("relocate-pair", (), 0)
    return MoveDelta("relocate-pair", (x, ip, jp), delta)
