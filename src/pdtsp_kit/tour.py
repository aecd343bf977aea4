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

from .instance import OPEN, Instance


@dataclass
class MoveDelta:
    """One move: its family, parameters, and exact cost change.

    ``indices`` is interpreted per kind (positions, pair ids, slot ids).
    Kinds that rebuild the whole sequence (2k-opt, bs) carry it in
    ``seq_after``.

    Every scan returns its best move that improves the tour by more than
    ``inst.eps``, or the empty move ``MoveDelta(kind, (), 0)`` when none
    does. Candidates keep each scan's own order and the first strict
    minimum wins, so an improving result is the scan's best candidate
    overall.
    """

    kind: str
    indices: tuple
    delta: float
    seq_after: tuple | None = None

    def improves(self, eps: float) -> bool:
        return self.delta < -eps


def tour_cost(inst: Instance, seq) -> float:
    """The cost of ``seq``, its edges added left to right.

    A plain loop rather than ``sum``: from Python 3.12 on, ``sum`` adds
    floats with compensation, which would make float costs, and so the
    tours that ties between them decide, depend on the Python version.
    """
    w = inst.work_cost()
    cost = 0
    for u, v in zip(seq, seq[1:]):
        cost += w[u][v]
    return cost


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

    ``scan_state`` is None, or what a scan derived from the current
    sequence and left for its next call. ``apply_move`` and ``recost``
    clear it, and ``copy`` shares it, so a scan must fill it in only
    for the sequence the copies share and never modify what it holds.
    """

    __slots__ = ("inst", "seq", "pos", "cost", "scan_state")

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
        self._reindex()
        self.recost()

    def _reindex(self):
        pos = self.pos = [0] * len(self.seq)
        for t, v in enumerate(self.seq):
            pos[v] = t
        pos[0] = 0  # a closed tour's last slot holds the depot too

    @classmethod
    def from_visits(cls, inst: Instance, visits) -> "Tour":
        """Builds a tour from solution-file order.

        Closed tours list the depot twice (first and last); open tours
        list it only first, the virtual terminal being implicit.
        """
        seq = list(visits)
        if inst.mode == OPEN:
            seq = seq + [inst.end]
        return cls(inst, seq)

    def to_visits(self) -> list:
        if self.inst.mode == OPEN:
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
        dup.scan_state = self.scan_state
        return dup

    def violations(self) -> list:
        return check_precedence(self.inst, self.seq)

    def is_feasible(self) -> bool:
        return not self.violations()

    def recost(self) -> float:
        self.scan_state = None
        self.cost = tour_cost(self.inst, self.seq)
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
    """Applies a MoveDelta in place, updating sequence, positions and
    cost, and clearing the scan state.

    Moves are trusted as the scans build them: a relocation names its
    pair's pickup in a precedence-feasible tour, and the cached cost is
    advanced by ``move.delta`` rather than recomputed, which keeps
    integer instances exact.
    """
    if not move.indices:
        raise ValueError("cannot apply the empty move")
    seq = tour.seq
    kind = move.kind

    if kind == "2opt":
        i, j = move.indices
        seq[i + 1 : j] = seq[j - 1 : i : -1]
    elif kind == "relocate-pair":
        x, ip, jp = move.indices
        nx = x + inst.n_pairs
        del seq[tour.pos[nx]]
        del seq[tour.pos[x]]
        insert_pair(seq, x, nx, ip, jp)
    elif kind == "or-opt":
        a, L, t, rev = move.indices
        chunk = seq[a : a + L]
        if rev:
            chunk.reverse()
        del seq[a : a + L]
        seq[t + 1 : t + 1] = chunk
    elif kind in ("2k-opt", "bs"):
        tour.seq = list(move.seq_after)
    elif kind in _FOUR_OPT_BLOCKS:
        tour.seq = four_opt_splice(seq, kind, move.indices)
    else:
        raise ValueError(f"unknown move kind {kind!r}")

    tour._reindex()
    tour.scan_state = None
    tour.cost += move.delta
