"""Problem data and file formats for the pickup-and-delivery TSP.

An instance holds 2n+1 visits: the depot (visit 0), pickups 1..n and
deliveries n+1..2n, where pickup x is matched with delivery x+n. Travel
costs are symmetric with a zero diagonal. Instances are exchanged in a
small self-describing text format and can be built from planar
coordinates, either with exact Euclidean costs or rounded to the nearest
integer (TSPLIB style, halves up).

The pair generator reproduces the three benchmark families: for each
still-unmatched vertex taken in index order, the partner is drawn
uniformly from its 5 nearest unmatched vertices (group A), its 10 nearest
(group B), or all of them (group C).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

CLOSED = "closed"
OPEN = "open"
MODES = (CLOSED, OPEN)

ROUND_NONE = "none"
ROUND_NEAREST = "nearest"
ROUNDINGS = (ROUND_NONE, ROUND_NEAREST)

GROUP_POOL = {"A": 5, "B": 10, "C": None}


class FormatError(ValueError):
    """Malformed instance or solution text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def build_cost_matrix(points, rounding: str = ROUND_NEAREST) -> list:
    """Pairwise Euclidean costs for a list of (x, y) points.

    With rounding "nearest" every cost is an int (halves round up), with
    "none" costs stay exact floats. The result is symmetric by
    construction since opposite coordinate differences square to the
    same value.
    """
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (x, y) points")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    if rounding == ROUND_NEAREST:
        rounded = np.floor(dist + 0.5).astype(int).tolist()
        # Share one int object per distinct cost; big matrices would
        # otherwise trash the cache with a million boxed duplicates.
        pool: dict = {}
        return [[pool.setdefault(v, v) for v in row] for row in rounded]
    return dist.tolist()


@dataclass(eq=False)
class Instance:
    """A pickup-and-delivery TSP instance in canonical labeling.

    Visit 0 is the depot, visits 1..n_pairs are pickups and visit x+n_pairs
    is the delivery matched with pickup x. ``cost`` is a dense symmetric
    (2n+1) x (2n+1) matrix. ``coords`` is kept when the costs came from
    points, with the depot first. ``mode`` selects whether the tour
    returns to the depot ("closed") or ends at its last visit ("open").
    """

    n_pairs: int
    cost: list
    mode: str = CLOSED
    name: str = "unnamed"
    coords: list | None = None
    rounding: str = ROUND_NONE
    _work: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.validate()
        self.integral = all(
            isinstance(v, (int, np.integer)) for row in self.cost for v in row
        )

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise ValueError("need at least one pickup-delivery pair")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rounding not in ROUNDINGS:
            raise ValueError(f"unknown rounding {self.rounding!r}")
        n = self.n_visits
        m = np.asarray(self.cost, dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"cost matrix must be {n}x{n}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("costs must be finite")
        if (m < 0).any():
            raise ValueError("costs must be nonnegative")
        if np.abs(np.diagonal(m)).max() != 0:
            raise ValueError("cost diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ValueError("cost matrix must be symmetric")
        if self.coords is not None:
            if len(self.coords) != n:
                raise ValueError(f"need {n} coordinate pairs, got {len(self.coords)}")
            if not np.isfinite(np.asarray(self.coords, dtype=float)).all():
                raise ValueError("coordinates must be finite")

    @property
    def n_visits(self) -> int:
        return 2 * self.n_pairs + 1

    @property
    def end(self) -> int:
        """Visit id closing the tour: the depot, or a virtual terminal when open."""
        return 0 if self.mode == CLOSED else self.n_visits

    @property
    def eps(self) -> float:
        """Improvement threshold: 0 for integer costs, an absolute 1e-9 otherwise."""
        return 0.0 if self.integral else 1e-9

    def partner(self, v: int) -> int:
        if not 1 <= v <= 2 * self.n_pairs:
            raise ValueError(f"visit {v} has no partner")
        return v + self.n_pairs if v <= self.n_pairs else v - self.n_pairs

    @property
    def pair_of(self) -> tuple:
        n = self.n_pairs
        return (None,) + tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))

    def work_cost(self) -> list:
        """Cost matrix used by every tour formula.

        For closed tours this is ``cost`` itself. For open tours it gains
        one virtual terminal (id 2n+1) at zero cost from everywhere, so
        that open and closed tours share identical move arithmetic.
        """
        if self.mode == CLOSED:
            return self.cost
        if self._work is None:
            zero = 0 if self.integral else 0.0
            w = [list(row) + [zero] for row in self.cost]
            w.append([zero] * (self.n_visits + 1))
            self._work = w
        return self._work

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n_pairs == other.n_pairs
            and self.mode == other.mode
            and self.name == other.name
            and self.rounding == other.rounding
            and self.coords == other.coords
            and self.cost == other.cost
        )


# ---------------------------------------------------------------------------
# Text format


def _tokenize(text: str):
    # Yields (line_no, tokens) for nonblank, noncomment lines.
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield line_no, stripped.split()


def _parse_number(token: str, line_no: int):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise FormatError(line_no, f"expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(line_no, f"expected a finite number, got {token!r}")
    return value


def parse_instance(text: str) -> Instance:
    """Parses the canonical instance format, relabeling pairs to 1..n / n+1..2n.

    The k-th PAIRING line maps its pickup to visit k and its delivery to
    visit k+n; coordinates or matrix rows and columns are permuted to
    match, so arbitrary labelings load into the canonical form.
    """
    lines = list(_tokenize(text))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise FormatError(last + 1, "unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    header = {}
    header_order = ("NAME", "PAIRS", "MODE", "ROUNDING", "EDGE_SOURCE")
    for key in header_order:
        line_no, toks = take()
        if toks[0] != key or len(toks) != 2:
            raise FormatError(line_no, f"expected '{key} <value>', got {' '.join(toks)!r}")
        header[key] = (toks[1], line_no)

    name = header["NAME"][0]
    try:
        n = int(header["PAIRS"][0])
    except ValueError:
        raise FormatError(header["PAIRS"][1], f"PAIRS must be an integer") from None
    if n < 1:
        raise FormatError(header["PAIRS"][1], "PAIRS must be at least 1")
    mode = header["MODE"][0]
    if mode not in MODES:
        raise FormatError(header["MODE"][1], f"MODE must be closed or open, got {mode!r}")
    rounding = header["ROUNDING"][0]
    if rounding not in ROUNDINGS:
        raise FormatError(
            header["ROUNDING"][1], f"ROUNDING must be none or nearest, got {rounding!r}"
        )
    source = header["EDGE_SOURCE"][0]
    if source not in ("coords", "matrix"):
        raise FormatError(
            header["EDGE_SOURCE"][1],
            f"EDGE_SOURCE must be coords or matrix, got {source!r}",
        )

    nv = 2 * n + 1
    coords = None
    matrix = None

    line_no, toks = take()
    if source == "coords":
        if toks != ["COORDS"]:
            raise FormatError(line_no, f"expected COORDS section, got {' '.join(toks)!r}")
        coords = [None] * nv
        for _ in range(nv):
            line_no, toks = take()
            if len(toks) != 3:
                raise FormatError(line_no, "coordinate lines are '<index> <x> <y>'")
            idx = _parse_number(toks[0], line_no)
            if not isinstance(idx, int) or not 0 <= idx < nv:
                raise FormatError(line_no, f"coordinate index out of range: {toks[0]}")
            if coords[idx] is not None:
                raise FormatError(line_no, f"coordinate index {idx} repeated")
            x = _parse_number(toks[1], line_no)
            y = _parse_number(toks[2], line_no)
            coords[idx] = (float(x), float(y))
    else:
        if toks != ["MATRIX"]:
            raise FormatError(line_no, f"expected MATRIX section, got {' '.join(toks)!r}")
        section_line = line_no
        values = []
        while len(values) < nv * nv:
            line_no, toks = take()
            for tok in toks:
                value = _parse_number(tok, line_no)
                if value < 0:
                    raise FormatError(line_no, f"matrix entries must be nonnegative, got {tok}")
                k = len(values)
                if k < nv * nv and k % (nv + 1) == 0 and value != 0:
                    raise FormatError(line_no, f"matrix diagonal must be zero, got {tok}")
                values.append(value)
        if len(values) > nv * nv:
            raise FormatError(line_no, f"matrix needs exactly {nv * nv} entries")
        matrix = [values[i * nv : (i + 1) * nv] for i in range(nv)]
        arr = np.asarray(matrix, dtype=float)
        if not np.array_equal(arr, arr.T):
            raise FormatError(section_line, "matrix is not symmetric")

    line_no, toks = take()
    if toks != ["PAIRING"]:
        raise FormatError(line_no, f"expected PAIRING section, got {' '.join(toks)!r}")
    seen = set()
    pairs = []
    for _ in range(n):
        line_no, toks = take()
        if len(toks) != 2:
            raise FormatError(line_no, "pairing lines are '<pickup> <delivery>'")
        p = _parse_number(toks[0], line_no)
        d = _parse_number(toks[1], line_no)
        for v in (p, d):
            if not isinstance(v, int) or not 1 <= v <= 2 * n:
                raise FormatError(line_no, f"pair visit out of range: {v}")
        if p == d:
            raise FormatError(line_no, f"visit {p} paired with itself")
        for v in (p, d):
            if v in seen:
                raise FormatError(line_no, f"visit {v} appears in two pairs")
            seen.add(v)
        pairs.append((p, d))

    line_no, toks = take()
    if toks != ["EOF"]:
        raise FormatError(line_no, f"expected EOF, got {' '.join(toks)!r}")

    # Permute raw labels into canonical ones: pairing line k gives pickup k
    # and delivery k+n.
    old_of_new = [0] * nv
    for k, (p, d) in enumerate(pairs, start=1):
        old_of_new[k] = p
        old_of_new[k + n] = d

    if coords is not None:
        coords = [coords[old] for old in old_of_new]
        cost = build_cost_matrix(coords, rounding)
    else:
        cost = [[matrix[a][b] for b in old_of_new] for a in old_of_new]

    return Instance(
        n_pairs=n, cost=cost, mode=mode, name=name, coords=coords, rounding=rounding
    )


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def render_instance(inst: Instance) -> str:
    """Writes the canonical format; parse_instance(render_instance(x)) == x."""
    out = [
        f"NAME {inst.name}",
        f"PAIRS {inst.n_pairs}",
        f"MODE {inst.mode}",
        f"ROUNDING {inst.rounding}",
    ]
    if inst.coords is not None:
        out.append("EDGE_SOURCE coords")
        out.append("COORDS")
        for idx, (x, y) in enumerate(inst.coords):
            out.append(f"{idx} {_format_value(x)} {_format_value(y)}")
    else:
        out.append("EDGE_SOURCE matrix")
        out.append("MATRIX")
        for row in inst.cost:
            out.append(" ".join(_format_value(v) for v in row))
    out.append("PAIRING")
    for k in range(1, inst.n_pairs + 1):
        out.append(f"{k} {k + inst.n_pairs}")
    out.append("EOF")
    return "\n".join(out) + "\n"


def parse_solution(text: str):
    """Reads a solution file: a COST line then a TOUR line of visit ids."""
    lines = list(_tokenize(text))
    if len(lines) < 2:
        line_no = lines[0][0] + 1 if lines else 1
        raise FormatError(line_no, "expected COST and TOUR lines")
    line_no, toks = lines[0]
    if toks[0] != "COST" or len(toks) != 2:
        raise FormatError(line_no, "expected 'COST <value>'")
    cost = _parse_number(toks[1], line_no)
    line_no, toks = lines[1]
    if toks[0] != "TOUR" or len(toks) < 2:
        raise FormatError(line_no, "expected 'TOUR <visit ids>'")
    visits = []
    for tok in toks[1:]:
        v = _parse_number(tok, line_no)
        if not isinstance(v, int):
            raise FormatError(line_no, f"tour entries must be integers, got {tok!r}")
        visits.append(v)
    return cost, visits


def render_solution(cost, visits) -> str:
    body = " ".join(str(v) for v in visits)
    return f"COST {_format_value(cost)}\nTOUR {body}\n"


# ---------------------------------------------------------------------------
# Pair generation


def generate_pairs(
    points,
    group: str,
    rng: random.Random,
    *,
    mode: str = CLOSED,
    rounding: str = ROUND_NEAREST,
    name: str | None = None,
) -> Instance:
    """Builds an instance by matching vertices into pickup-delivery pairs.

    ``points`` lists (x, y) positions with the depot first; the remaining
    count must be even. Scanning vertices in index order, each vertex not
    yet matched becomes a pickup and its delivery is drawn uniformly from
    the nearest still-unmatched vertices: 5 for group A, 10 for group B,
    all of them for group C. Pools draw from whatever is unmatched at
    that moment, so they never run dry. The result uses canonical labels
    with coordinates permuted accordingly.
    """
    if group not in GROUP_POOL:
        raise ValueError(f"unknown group {group!r}, expected A, B or C")
    pts = [(float(x), float(y)) for x, y in points]
    m = len(pts) - 1
    if m < 2 or m % 2:
        raise ValueError(f"need an even nonzero number of non-depot points, got {m}")
    n = m // 2
    arr = np.asarray(pts, dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))

    pool = GROUP_POOL[group]
    unmatched = set(range(1, m + 1))
    pairs = []
    for v in range(1, m + 1):
        if v not in unmatched:
            continue
        unmatched.discard(v)
        others = sorted(unmatched, key=lambda u: (dist[v][u], u))
        if pool is not None:
            others = others[:pool]
        d = others[rng.randrange(len(others))]
        unmatched.discard(d)
        pairs.append((v, d))

    order = [0] + [p for p, _ in pairs] + [d for _, d in pairs]
    coords = [pts[i] for i in order]
    cost = build_cost_matrix(coords, rounding)
    if name is None:
        name = f"gen-{group}-{n}"
    return Instance(
        n_pairs=n, cost=cost, mode=mode, name=name, coords=coords, rounding=rounding
    )
