"""Tour representation, feasibility checks and move application.

A tour is stored as a sequence of 2n+2 visit ids: the depot at slot 0,
the 2n customers, and a closing terminal. Closed tours end with the depot
again; open tours end with a virtual terminal (id 2n+1) whose travel
costs are all zero, which lets every move formula treat both modes
identically. A tour is feasible when each pickup appears before its
delivery.

Every tour edit lives here. ``insert_pair`` and ``four_opt_splice`` work
on bare sequences, so the constructors and the genetic search's repair
share them with ``apply_move``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance


@dataclass
class MoveDelta:
    """One candidate move: its family, parameters, and exact cost change.

    ``indices`` is interpreted per kind (positions, pair ids, slot ids).
    Scans that found nothing report ``feasible=False`` with a zero delta.
    Kinds that rebuild the whole sequence (2k-opt, bs) carry it in
    ``seq_after``.
    """

    kind: str
    indices: tuple
    delta: float
    feasible: bool
    seq_after: tuple | None = None

    def improves(self, eps: float) -> bool:
        return self.feasible and self.delta < -eps


def _edge_costs(inst: Instance, seq) -> list:
    w = inst.work_cost()
    return [w[u][v] for u, v in zip(seq, seq[1:])]


def tour_cost(inst: Instance, seq) -> float:
    return sum(_edge_costs(inst, seq))


def check_precedence(inst: Instance, seq) -> list:
    """Pickups whose delivery comes first in ``seq``, in pickup id order."""
    n = inst.n_pairs
    pos = [0] * (2 * n + 2)
    for t, v in enumerate(seq):
        pos[v] = t
    pos[seq[0]] = 0
    return [x for x in range(1, n + 1) if pos[x + n] < pos[x]]


class Tour:
    """A visit sequence with cached positions and cost.

    The constructor accepts the full internal sequence (terminal
    included) and does not require precedence feasibility, so repair
    procedures can hold violating tours. Structural validity (a
    permutation bracketed by depot and terminal) is always enforced.

    ``edge`` is derived state: ``edge[t]`` is the cost of the tour edge
    (seq[t], seq[t+1]). ``recost`` builds it and only ``apply_move``
    advances it. Both assign a new list, so copies share it safely.
    """

    __slots__ = ("inst", "seq", "pos", "cost", "edge")

    def __init__(self, inst: Instance, seq):
        self.inst = inst
        self.seq = list(seq)
        nv = inst.n_visits
        if len(self.seq) != nv + 1:
            raise ValueError(f"tour needs {nv + 1} slots, got {len(self.seq)}")
        if self.seq[0] != 0 or self.seq[-1] != inst.end:
            raise ValueError("tour must start at the depot and end at the terminal")
        if sorted(self.seq[1:nv]) != list(range(1, nv)):
            raise ValueError("tour must visit every customer exactly once")
        self.pos = [0] * (nv + 1)
        self._reindex()
        self.recost()

    def _reindex(self):
        for t in range(len(self.seq) - 1):
            self.pos[self.seq[t]] = t
        self.pos[self.seq[-1]] = len(self.seq) - 1
        self.pos[0] = 0

    @classmethod
    def from_visits(cls, inst: Instance, visits) -> "Tour":
        """Builds a tour from solution-file order.

        Closed tours list the depot twice (first and last); open tours
        list it only first, the virtual terminal being implicit.
        """
        seq = list(visits)
        if inst.mode == "open":
            seq = seq + [inst.end]
        return cls(inst, seq)

    def to_visits(self) -> list:
        if self.inst.mode == "open":
            return self.seq[:-1]
        return list(self.seq)

    @classmethod
    def identity(cls, inst: Instance) -> "Tour":
        return cls(inst, list(range(inst.n_visits)) + [inst.end])

    def copy(self) -> "Tour":
        dup = object.__new__(Tour)
        dup.inst = self.inst
        dup.seq = list(self.seq)
        dup.pos = list(self.pos)
        dup.cost = self.cost
        dup.edge = self.edge
        return dup

    def violations(self) -> list:
        return check_precedence(self.inst, self.seq)

    def is_feasible(self) -> bool:
        return not self.violations()

    def recost(self) -> float:
        self.edge = _edge_costs(self.inst, self.seq)
        self.cost = sum(self.edge)
        return self.cost

    def __repr__(self):
        return f"Tour(cost={self.cost}, seq={self.seq})"


def insert_pair(seq, x: int, nx: int, ip: int, jp: int) -> None:
    """Splices x and nx into ``seq`` in place at the slots an insertion
    scan chose: together after seq[ip] when ip == jp, otherwise x after
    seq[ip] and nx after seq[jp]."""
    if ip == jp:
        seq[ip + 1 : ip + 1] = (x, nx)
    else:
        seq[jp + 1 : jp + 1] = (nx,)
        seq[ip + 1 : ip + 1] = (x,)


# The blocks P2 P3 P4 that a 4-opt move puts between P1 and P5, as
# (block, reversed) in their new order; see neighborhoods/fouropt.py.
_FOUR_OPT_BLOCKS = {
    "4opt-type1": ((2, False), (1, False), (0, False)),
    "4opt-type2a": ((1, True), (2, True), (0, False)),
    "4opt-type2b": ((2, False), (0, True), (1, True)),
}


def four_opt_splice(seq, kind: str, cuts) -> list:
    """The sequence after a 4-opt move of ``kind`` with cuts (i1, i2, j1, j2)."""
    i1, i2, j1, j2 = cuts
    blocks = (seq[i1 + 1 : i2 + 1], seq[i2 + 1 : j1 + 1], seq[j1 + 1 : j2 + 1])
    out = seq[: i1 + 1]
    for b, rev in _FOUR_OPT_BLOCKS[kind]:
        out += blocks[b][::-1] if rev else blocks[b]
    return out + seq[j2 + 1 :]


def apply_move(inst: Instance, tour: Tour, move: MoveDelta) -> None:
    """Applies a MoveDelta in place, updating sequence, positions, edge
    costs and cost.

    Deltas are trusted: the cached cost is advanced by ``move.delta``
    rather than recomputed, which keeps integer instances exact.
    """
    if not move.feasible:
        raise ValueError("cannot apply a move from an empty scan")
    seq = tour.seq
    kind = move.kind

    if kind == "2opt":
        i, j = move.indices
        if j > i + 2:
            seq[i + 1 : j] = seq[j - 1 : i : -1]
    elif kind == "relocate-pair":
        x, ip, jp = move.indices
        nx = inst.partner(x)
        i, j = tour.pos[x], tour.pos[nx]
        if i > j:
            i, j = j, i
            x, nx = nx, x
        del seq[j]
        del seq[i]
        insert_pair(seq, x, nx, ip, jp)
    elif kind == "or-opt":
        a, L, t, rev = move.indices
        chunk = seq[a : a + L]
        if rev:
            chunk.reverse()
        del seq[a : a + L]
        seq[t + 1 : t + 1] = chunk
    elif kind in ("2k-opt", "bs"):
        tour.seq = seq = list(move.seq_after)
    elif kind in _FOUR_OPT_BLOCKS:
        tour.seq = seq = four_opt_splice(seq, kind, move.indices)
    else:
        raise ValueError(f"unknown move kind {kind!r}")

    tour._reindex()
    tour.edge = _edge_costs(inst, seq)
    tour.cost += move.delta
