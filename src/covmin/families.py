"""Constructors and exact covering-minima values for the special families.

Weighted simplices carry the exact covering-radius formula and the exact
first minimum; intermediate minima are conjectured values and are always
labeled as such, so certification paths can refuse to consume them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import IndexOutOfRange, InputError, NonPositiveWeight, UnsortedWeights
from .linalg import RatVec
from .polytope import Polytope

# provenance labels for table entries
EXACT_CONVENTION = "index-zero convention"
WIDTH_FORMULA = "reciprocal lattice width"
CR_FORMULA = "weighted covering radius formula"
BOX_FORMULA = "box reciprocal side formula"
CONJECTURED = "conjectured projection value"
DIRECT_SUM = "direct sum combination"
ORACLE = "covering radius oracle"


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive weights ``(w_0, ..., w_d)`` defining a weighted simplex."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise InputError("a weight vector needs at least two entries")
        if any(e <= 0 for e in entries):
            raise NonPositiveWeight(f"weights must be positive, got {entries}")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))

    def sorted(self) -> "WeightVector":
        return WeightVector(tuple(sorted(self.entries)))

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)


def weights(entries) -> WeightVector:
    return WeightVector(tuple(Fraction(e) for e in entries))


@dataclass(frozen=True)
class TableEntry:
    """Rational enclosure ``lo <= value <= hi`` of one covering minimum, with
    provenance; exact when ``lo == hi``."""

    lo: Fraction
    hi: Fraction
    provenance: str = ""
    conjectured: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError(f"entry with lo={self.lo} > hi={self.hi}")

    @staticmethod
    def exact(value, provenance: str, conjectured: bool = False) -> "TableEntry":
        v = Fraction(value)
        return TableEntry(v, v, provenance, conjectured)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise InputError(f"entry {self} is an interval, not exact")
        return self.lo

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        """``p/q`` when exact, ``[lo, hi]`` otherwise; the conjectured flag is
        shown by whoever shows the provenance."""
        return str(self.lo) if self.is_exact else f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class MinimaTable:
    """Covering minima ``mu_0 .. mu_d`` of one body/lattice pair."""

    entries: tuple[TableEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InputError("empty minima table")
        first = entries[0]
        if not (first.is_exact and first.lo == 0):
            raise InputError("table entry 0 must be exactly 0")
        prev = None
        for e in entries:
            if e.is_exact:
                if prev is not None and e.lo < prev:
                    raise InputError("exact table entries must be non-decreasing")
                prev = e.lo

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> TableEntry:
        if not 0 <= i <= self.d:
            raise IndexOutOfRange(f"index {i} outside 0..{self.d}")
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)


ZERO_ENTRY = TableEntry.exact(0, EXACT_CONVENTION)


# -- weighted simplices ------------------------------------------------------


def weighted_simplex(w: WeightVector) -> Polytope:
    """The simplex with vertices ``-w_0 * (1,..,1)`` and ``w_j e_j``."""
    d = w.d
    pts = [tuple(-w[0] for _ in range(d))]
    for j in range(1, d + 1):
        e = [Fraction(0)] * d
        e[j - 1] = w[j]
        pts.append(tuple(e))
    return Polytope(pts)


def _reciprocal_sum(ws) -> Fraction:
    return sum((Fraction(1) / w for w in ws), Fraction(0))


def _reciprocal_pair_sum(ws) -> Fraction:
    ws = list(ws)
    total = Fraction(0)
    for a in range(len(ws)):
        for b in range(a + 1, len(ws)):
            total += Fraction(1) / (ws[a] * ws[b])
    return total


def weighted_covering_radius(w: WeightVector) -> Fraction:
    """Exact covering radius of the weighted simplex with respect to Z^d."""
    return _reciprocal_pair_sum(w) / _reciprocal_sum(w)


def weighted_conjectured_minimum(w: WeightVector, i: int) -> Fraction:
    """Value of the i-th covering minimum attained by projecting to the first
    ``i`` coordinates (exact for ``i`` in ``{1, d}``, conjectured in between).

    Requires the weights sorted ascending.
    """
    if not w.is_sorted:
        raise UnsortedWeights("conjectured minimum formula needs ascending weights")
    if not 1 <= i <= w.d:
        raise IndexOutOfRange(f"index {i} outside 1..{w.d}")
    head = w.entries[: i + 1]
    return _reciprocal_pair_sum(head) / _reciprocal_sum(head)


def weighted_slice(w: WeightVector, indices) -> WeightVector:
    """Weight vector of the simplex's slice along the coordinates in ``indices``.

    ``indices`` selects 0-based coordinates, i.e. coordinate ``j`` keeps weight
    ``w_{j+1}``; the new leading weight is the harmonic combination of all
    dropped weights together with ``w_0``.
    """
    idx = sorted(set(int(j) for j in indices))
    if not idx or idx[0] < 0 or idx[-1] >= w.d:
        raise InputError(f"coordinate set {indices} invalid for dimension {w.d}")
    kept = [w[j + 1] for j in idx]
    dropped = [w[0]] + [w[j + 1] for j in range(w.d) if j not in idx]
    lead = Fraction(1) / _reciprocal_sum(dropped)
    return WeightVector(tuple([lead] + kept))


def weighted_minima_table(w: WeightVector) -> MinimaTable:
    """Full table for a weighted simplex: exact at 0, 1, d; conjectured between."""
    ws = w if w.is_sorted else w.sorted()
    entries = [ZERO_ENTRY]
    for i in range(1, ws.d + 1):
        value = weighted_conjectured_minimum(ws, i)
        if i == 1:
            entries.append(TableEntry.exact(value, WIDTH_FORMULA))
        elif i == ws.d:
            entries.append(TableEntry.exact(value, CR_FORMULA))
        else:
            entries.append(TableEntry.exact(value, CONJECTURED, conjectured=True))
    return MinimaTable(tuple(entries))


# -- direct sums -------------------------------------------------------------


def combine_direct_sum(A: MinimaTable, B: MinimaTable, i: int) -> tuple[TableEntry, int]:
    """Max-plus combination of two summand tables at index ``i``.

    Returns the entry together with the witness ``j`` (allocation to the first
    summand) attaining the upper endpoint, smallest such ``j`` on ties.  When
    an interval entry is involved the maximum propagates endpoint-wise.  A
    conjectured entry is only a proven lower bound, so the true value behind
    it may exceed it; the result is flagged conjectured whenever any
    admissible allocation uses one.
    """
    la, lb = A.d, B.d
    if not 0 <= i <= la + lb:
        raise IndexOutOfRange(f"index {i} outside 0..{la + lb}")
    best_lo = best_hi = witness = None
    conjectured = False
    for j in range(max(0, i - lb), min(la, i) + 1):
        ea, eb = A.entries[j], B.entries[i - j]
        lo, hi = ea.lo + eb.lo, ea.hi + eb.hi
        if best_lo is None or lo > best_lo:
            best_lo = lo
        if best_hi is None or hi > best_hi:
            best_hi, witness = hi, j
        conjectured = conjectured or ea.conjectured or eb.conjectured
    return TableEntry(best_lo, best_hi, DIRECT_SUM, conjectured), witness


def direct_sum_minima(A: MinimaTable, B: MinimaTable, i: int) -> TableEntry:
    """Covering minimum of a direct sum from its summands' tables."""
    return combine_direct_sum(A, B, i)[0]


def direct_sum_table(A: MinimaTable, B: MinimaTable) -> MinimaTable:
    return MinimaTable((ZERO_ENTRY,) + tuple(
        combine_direct_sum(A, B, i)[0] for i in range(1, A.d + B.d + 1)
    ))


# -- plain constructors -------------------------------------------------------


def terminal_simplex(d: int) -> Polytope:
    """conv of minus the all-ones vector and the standard basis vectors."""
    if d < 1:
        raise InputError("terminal simplex needs dimension >= 1")
    return weighted_simplex(weights([1] * (d + 1)))


def cube(d: int, r=1) -> Polytope:
    r = Fraction(r)
    if d < 1 or r <= 0:
        raise InputError("cube needs d >= 1 and r > 0")
    return box([(-r, r)] * d)


def box(intervals) -> Polytope:
    ivs = [(Fraction(a), Fraction(b)) for a, b in intervals]
    if any(a >= b for a, b in ivs):
        raise InputError("box intervals must have positive length")
    d = len(ivs)
    vertices = sorted(itertools.product(*ivs))
    # the canonical hull of a box is known outright; skip the brute force
    facets = []
    for i in range(d):
        plus = tuple(int(i == j) for j in range(d))
        minus = tuple(-int(i == j) for j in range(d))
        facets.append((plus, ivs[i][1]))
        facets.append((minus, -ivs[i][0]))
    return Polytope._from_hull(vertices, sorted(facets), d)


def crosspolytope(d: int) -> Polytope:
    if d < 1:
        raise InputError("crosspolytope needs dimension >= 1")
    pts = []
    for j in range(d):
        e = [Fraction(0)] * d
        e[j] = Fraction(1)
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    if d == 1:
        return Polytope(pts)
    facets = sorted(
        (sigma, Fraction(1)) for sigma in itertools.product((-1, 1), repeat=d)
    )
    return Polytope._from_hull(sorted(pts), facets, d)


def segment(a, b) -> Polytope:
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise InputError("segment needs a < b")
    return Polytope([(a,), (b,)])


def terminal_polytope(dims) -> Polytope:
    """Direct sum of terminal simplices of the given dimensions."""
    from .polytope import direct_sum

    dims = list(dims)
    if not dims:
        raise InputError("need at least one summand dimension")
    body = terminal_simplex(dims[0])
    for d in dims[1:]:
        body = direct_sum(body, terminal_simplex(d))
    return body


def box_minima_table(intervals) -> MinimaTable:
    """Every covering minimum of a box equals the largest reciprocal side length."""
    ivs = [(Fraction(a), Fraction(b)) for a, b in intervals]
    if any(a >= b for a, b in ivs):
        raise InputError("box intervals must have positive length")
    top = TableEntry.exact(max(1 / (b - a) for a, b in ivs), BOX_FORMULA)
    return MinimaTable((ZERO_ENTRY,) + (top,) * len(ivs))


def crosspolytope_table(d: int) -> MinimaTable:
    """The crosspolytope is the direct sum of ``d`` copies of ``[-1, 1]``."""
    if d < 1:
        raise InputError("crosspolytope needs dimension >= 1")
    return reduce(direct_sum_table, [box_minima_table([(-1, 1)])] * d)


# -- recognition --------------------------------------------------------------


def match_weighted_simplex(P: Polytope) -> WeightVector | None:
    """Recover the weight vector when ``P`` is a standard-position weighted simplex."""
    d = P.ambient_dim
    if d < 1 or not P.is_full_dimensional():
        return None
    verts = P.vertices
    if len(verts) != d + 1:
        return None
    axis_weight: dict[int, Fraction] = {}
    lead = None
    for v in verts:
        nonzero = [(j, x) for j, x in enumerate(v) if x != 0]
        if len(nonzero) == 1 and nonzero[0][1] > 0:
            j, x = nonzero[0]
            if j in axis_weight:
                return None
            axis_weight[j] = x
        elif len(set(v)) == 1 and v[0] < 0:
            if lead is not None:
                return None
            lead = -v[0]
        else:
            return None
    if lead is None or len(axis_weight) != d:
        return None
    return WeightVector(tuple([lead] + [axis_weight[j] for j in range(d)]))


def match_box(P: Polytope) -> list[tuple[Fraction, Fraction]] | None:
    """Recover the side intervals when ``P`` is an axis-aligned box.

    ``P`` lies in its bounding box, and a corner of that box lies in ``P``
    only if it is one of ``P``'s defining points.  So ``P`` is the box
    exactly when every corner is among its points; no hull is built.
    """
    # fewer points cannot hold 2^d distinct corners; a degenerate side fails below
    if len(P.points) < 2 ** P.ambient_dim:
        return None
    lo, hi = P.bbox()
    if not lo or any(a >= b for a, b in zip(lo, hi)):
        return None
    points = set(P.points)
    if all(corner in points for corner in itertools.product(*zip(lo, hi))):
        return list(zip(lo, hi))
    return None


def match_segment_sum(P: Polytope) -> list[list[RatVec]] | None:
    """Split ``P`` into coordinate blocks; None when it does not split.

    Coordinates join one block when some vertex is nonzero in both, and each
    block's summand is the hull of the vertices supported in it, so ``P`` is
    their hull.  It is their direct sum when every summand holds the origin,
    as ``direct_sum`` requires, and this holds when the origin is interior to
    ``P`` (project a positive convex combination of all vertices onto a
    block) or a vertex of ``P`` (a zero vertex belongs to every block).  Both
    are read off ``P``'s own facets and vertices, so no block needs a hull;
    other splits return None.  Returns the blocks ordered by least
    coordinate, each as its vertices in block coordinates plus the origin,
    which the summand holds.

    A sum of segments is the case of 1-dimensional blocks; the name is the
    one ``perfbench/tracer.py`` traces among the recognizers.
    """
    d = P.ambient_dim
    if d < 2 or not P.is_full_dimensional():
        return None
    verts = P.vertices
    blocks: list[set[int]] = []
    for v in verts:
        support = {j for j, x in enumerate(v) if x}
        for block in [b for b in blocks if b & support]:
            blocks.remove(block)
            support |= block
        if len(support) == d:
            return None
        if support:
            blocks.append(support)
    # P is full-dimensional and no block holds every coordinate: two or more blocks
    if not (any(not any(v) for v in verts) or P.has_interior_origin()):
        return None
    zero = Fraction(0)
    return [
        [tuple(v[j] for j in c) for v in verts if any(v[j] for j in c)] + [(zero,) * len(c)]
        for c in sorted(sorted(block) for block in blocks)
    ]


def _block_table(points: list[RatVec]) -> MinimaTable | None:
    if len(points[0]) == 1:
        return box_minima_table([(min(points)[0], max(points)[0])])
    return recognize(Polytope(points))


def recognize(P: Polytope) -> MinimaTable | None:
    """Closed-form minima table of ``P`` w.r.t. the standard lattice, or None.

    Tries a box, then a split into coordinate blocks, each recognized in turn
    and combined max-plus, then a weighted simplex; the first match picks the
    table.
    """
    sides = match_box(P)
    if sides is not None:
        return box_minima_table(sides)
    blocks = match_segment_sum(P)
    if blocks is not None:
        tables = [_block_table(points) for points in blocks]
        if any(t is None for t in tables):
            return None
        return reduce(direct_sum_table, tables)
    w = match_weighted_simplex(P)
    if w is not None:
        return weighted_minima_table(w)
    return None
