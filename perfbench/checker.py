"""Output checks that share no code with the library's own.

A tour is checked against the parsed instance: it must be a
permutation of the customers bracketed by the depot and the terminal,
every pickup must come before its delivery, and its cost, summed again
from the parsed matrix, must equal the reported cost. Integer
instances must match exactly and report a Python int; float instances
match within a tolerance scaled by the largest cost.
"""

from __future__ import annotations

import hashlib

REL_TOL = 1e-9


def check_tour(inst, seq, cost) -> str | None:
    """Returns why the output is rejected, or None when it is valid."""
    n = inst.n_pairs
    nv = 2 * n + 1
    closed = inst.mode == "closed"
    terminal = 0 if closed else nv
    seq = list(seq)
    if len(seq) != nv + 1:
        return f"tour has {len(seq)} slots, expected {nv + 1}"
    if seq[0] != 0 or seq[-1] != terminal:
        return "tour does not start at the depot and end at the terminal"
    if sorted(seq[1:-1]) != list(range(1, nv)):
        return "tour is not a permutation of the customers"
    at = {v: t for t, v in enumerate(seq)}
    late = [p for p in range(1, n + 1) if at[p + n] < at[p]]
    if late:
        return f"deliveries before their pickups: {late[:5]}"

    m = inst.cost
    stops = seq if closed else seq[:-1]
    total = sum(m[stops[t]][stops[t + 1]] for t in range(len(stops) - 1))
    if inst.rounding == "nearest":
        if type(cost) is not int:
            return f"integer instance reported a {type(cost).__name__} cost"
        if total != cost:
            return f"reported cost {cost}, recomputed {total}"
    else:
        tol = REL_TOL * max(max(row) for row in m) * nv
        if not abs(total - cost) <= tol:
            return f"reported cost {cost!r}, recomputed {total!r}"
    return None


def fingerprint(value) -> str:
    """Short stable hash of a tour (a list of visit ids) or of instance text."""
    data = value if isinstance(value, str) else ",".join(map(str, value))
    return hashlib.sha256(data.encode()).hexdigest()[:12]
