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
import numbers
import random
import sys
from dataclasses import dataclass, field
from itertools import chain

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


def valid_name(name: str) -> bool:
    """Whether ``name`` can name an instance: one word of the instance
    format without '#', which starts a comment there, and without ',',
    '/' or '\\', since a name becomes part of file names and a CSV
    field."""
    return name.split() == [name] and not any(c in name for c in "#,/\\")


def round_half_up(value: float) -> int:
    """Nearest integer, halves rounded up; ``math.floor`` returns an int."""
    return math.floor(value + 0.5)


def _all_finite(values) -> bool:
    """``math.isfinite`` over ``values``, where an int beyond the float
    range, on which ``math.isfinite`` raises, counts as not finite."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def build_cost_matrix(points, rounding: str = ROUND_NEAREST) -> list:
    """Pairwise Euclidean costs for a list of (x, y) points.

    Each cost is ``sqrt(dx * dx + dy * dy)`` on the points as floats: two
    products, one sum and one correctly rounded square root. The matrix
    is symmetric by construction, since opposite coordinate differences
    square to the same value. ``math.hypot`` and ``math.dist`` round
    differently and would change costs. With rounding "nearest" every
    cost goes through ``round_half_up`` to an int, with "none" costs stay
    exact floats.

    The matrix is built row by row, every entry computed. Mirroring one
    triangle would halve the square roots, but the two triangles would
    then share float objects, scattering each row across memory; the
    scans walk rows, and descents on n = 200 float instances ran about
    12% slower that way.

    Raises ValueError for fewer than two points, a non-finite coordinate
    or a distance that overflows to infinity.
    """
    if rounding not in ROUNDINGS:
        raise ValueError(f"unknown rounding {rounding!r}")
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least two (x, y) points")
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise ValueError("coordinates must be finite")
    nearest = rounding == ROUND_NEAREST
    # Share one int object per distinct cost; big matrices would
    # otherwise trash the cache with a million boxed duplicates.
    pool: dict = {}
    sqrt = math.sqrt
    cost = []
    for xa, ya in pts:
        row = [sqrt((xa - xb) * (xa - xb) + (ya - yb) * (ya - yb)) for xb, yb in pts]
        if not all(map(math.isfinite, row)):
            raise ValueError("coordinates too far apart: a distance overflows")
        if nearest:
            row = [pool.setdefault(v, v) for v in map(round_half_up, row)]
        cost.append(row)
    return cost


@dataclass
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
    _work: list | None = field(default=None, init=False, repr=False, compare=False)
    # Or-opt's neighbor lists and nearest costs, built on its first scan
    # of a tour of 10 pairs or more; see neighborhoods/oropt.py.
    _screen: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Checks the instance and sets ``integral``.

        The matrix is checked in one pass over its rows, each check a
        builtin over the whole row: the set of entry types (``integral``
        holds when every type is a ``numbers.Integral``, numpy integers
        included), finiteness, the minimum (taken after finiteness, since
        ``min`` cannot see NaN), the diagonal entry and the row against
        its column of ``zip(*cost)``. A Python loop over the entries
        would cost several times as much on large instances.
        """
        if self.n_pairs < 1:
            raise ValueError("need at least one pickup-delivery pair")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rounding not in ROUNDINGS:
            raise ValueError(f"unknown rounding {self.rounding!r}")
        if not isinstance(self.name, str) or not valid_name(self.name):
            # render_instance must write a NAME that parse_instance accepts.
            raise ValueError("name must be one word without '#', ',', '/' or '\\'")
        n = self.n_visits
        cost = self.cost
        if len(cost) != n or set(map(len, cost)) != {n}:
            raise ValueError(f"cost matrix must be {n}x{n}")
        types = set()
        for i, (row, col) in enumerate(zip(cost, zip(*cost))):
            types.update(map(type, row))
            if not _all_finite(row):
                raise ValueError("costs must be finite")
            if min(row) < 0:
                raise ValueError("costs must be nonnegative")
            if row[i] != 0:
                raise ValueError("cost diagonal must be zero")
            if tuple(row) != col:
                raise ValueError("cost matrix must be symmetric")
        if self.coords is not None:
            if len(self.coords) != n:
                raise ValueError(f"need {n} coordinate pairs, got {len(self.coords)}")
            if not _all_finite(chain.from_iterable(self.coords)):
                raise ValueError("coordinates must be finite")
        self.integral = all(issubclass(t, numbers.Integral) for t in types)

    @property
    def n_visits(self) -> int:
        return 2 * self.n_pairs + 1

    @property
    def end(self) -> int:
        """Visit id closing the tour: the depot, or a virtual terminal when open."""
        return 0 if self.mode == CLOSED else self.n_visits

    @property
    def eps(self) -> float:
        """Improvement threshold: the int 0 for integer costs, an absolute
        1e-9 otherwise. An int keeps every scan's comparisons int-only."""
        return 0 if self.integral else 1e-9

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
        value = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise FormatError(line_no, f"expected a number, got {token!r}") from None
    # Exact comparisons: NaN and infinities fail them, and so does an int
    # beyond the float range, on which float() and math.isfinite raise
    # OverflowError.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise FormatError(line_no, f"expected a finite number, got {token!r}")
    return value


def parse_points(text: str) -> list:
    """Points for ``generate_pairs``, one 'x y' line each, depot first.

    Further fields on a line are ignored. The count of non-depot points
    must be even and nonzero; otherwise the error names the last line.
    """
    pts = []
    line_no = 1
    for line_no, tokens in _tokenize(text):
        if len(tokens) < 2:
            raise FormatError(line_no, f"expected 'x y', got {' '.join(tokens)!r}")
        pts.append(tuple(float(_parse_number(tok, line_no)) for tok in tokens[:2]))
    m = max(len(pts) - 1, 0)
    if m < 2 or m % 2:
        raise FormatError(
            line_no, f"need an even nonzero number of non-depot points, got {m}"
        )
    return pts


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

    name, name_line = header["NAME"]
    if not valid_name(name):
        raise FormatError(name_line, f"NAME may not hold ',', '/' or '\\', got {name!r}")
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

    section_line, toks = take()
    if source == "coords":
        if toks != ["COORDS"]:
            raise FormatError(
                section_line, f"expected COORDS section, got {' '.join(toks)!r}"
            )
        left = len(lines) - pos
        if left < nv:
            raise FormatError(
                header["PAIRS"][1],
                f"PAIRS {n} needs {nv} coordinate lines, only {left} lines follow",
            )
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
            raise FormatError(
                section_line, f"expected MATRIX section, got {' '.join(toks)!r}"
            )
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

    # The entries were checked one by one above, where a line can be
    # named; what spans the section (an overflowing distance, symmetry)
    # is reported at its first line.
    try:
        if coords is not None:
            coords = [coords[old] for old in old_of_new]
            cost = build_cost_matrix(coords, rounding)
        else:
            cost = [[matrix[a][b] for b in old_of_new] for a in old_of_new]
        return Instance(
            n_pairs=n, cost=cost, mode=mode, name=name, coords=coords, rounding=rounding
        )
    except ValueError as err:
        raise FormatError(section_line, str(err)) from None


def _format_value(v) -> str:
    if isinstance(v, numbers.Integral):
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
    """Reads a solution file: a COST line then a TOUR line of visit ids,
    and nothing after them."""
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
    if len(lines) > 2:
        line_no, toks = lines[2]
        raise FormatError(line_no, f"expected nothing after TOUR, got {' '.join(toks)!r}")
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
    dist = build_cost_matrix(pts, ROUND_NONE)

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
