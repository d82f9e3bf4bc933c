"""Constructors and exact covering-minima values for the special families.

Weighted simplices carry the exact covering-radius formula and the exact
first minimum; intermediate minima are conjectured values and are always
labeled as such, so certification paths can refuse to consume them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IndexOutOfRange,
    InputError,
    NonPositiveWeight,
    UnsortedWeights,
    ZeroLength,
)
from .polytope import Polytope

# provenance labels for table entries
EXACT_CONVENTION = "index-zero convention"
WIDTH_FORMULA = "reciprocal lattice width"
CR_FORMULA = "weighted covering radius formula"
SEGMENT_SUM = "segment direct sum formula"
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


def _zero_entry() -> TableEntry:
    return TableEntry.exact(0, EXACT_CONVENTION)


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
    entries = [_zero_entry()]
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
    an interval entry is involved the maximum propagates endpoint-wise.  The
    result is flagged conjectured whenever dropping conjectured inputs would
    change it.
    """
    la, lb = A.d, B.d
    if not 0 <= i <= la + lb:
        raise IndexOutOfRange(f"index {i} outside 0..{la + lb}")
    lo_js = range(max(0, i - lb), min(la, i) + 1)
    best_lo = best_hi = None
    best_cert_lo = best_cert_hi = None
    witness = None
    for j in lo_js:
        ea, eb = A[j], B[i - j]
        lo, hi = ea.lo + eb.lo, ea.hi + eb.hi
        if best_lo is None or lo > best_lo:
            best_lo = lo
        if best_hi is None or hi > best_hi:
            best_hi = hi
            witness = j
        if not (ea.conjectured or eb.conjectured):
            if best_cert_lo is None or lo > best_cert_lo:
                best_cert_lo = lo
            if best_cert_hi is None or hi > best_cert_hi:
                best_cert_hi = hi
    conjectured = (best_cert_lo, best_cert_hi) != (best_lo, best_hi)
    return TableEntry(best_lo, best_hi, DIRECT_SUM, conjectured), witness


def direct_sum_minima(A: MinimaTable, B: MinimaTable, i: int) -> TableEntry:
    """Covering minimum of a direct sum from its summands' tables."""
    return combine_direct_sum(A, B, i)[0]


def direct_sum_table(A: MinimaTable, B: MinimaTable) -> MinimaTable:
    return MinimaTable(tuple(
        direct_sum_minima(A, B, i) for i in range(A.d + B.d + 1)
    ))


def segment_sum_minima(segments, i: int) -> Fraction:
    """i-th covering minimum of a direct sum of origin-containing segments.

    Equals the sum of the ``i`` largest reciprocal lengths; the max-plus
    combination over the summands forces picking the largest reciprocals.
    """
    recips = []
    for a, b in segments:
        a, b = Fraction(a), Fraction(b)
        if a == b:
            raise ZeroLength(f"segment [{a}, {b}] has zero length")
        if a > b:
            raise InputError(f"segment [{a}, {b}] reversed")
        if not a <= 0 <= b:
            raise InputError(f"segment [{a}, {b}] misses the origin")
        recips.append(Fraction(1) / (b - a))
    if not 0 <= i <= len(recips):
        raise IndexOutOfRange(f"index {i} outside 0..{len(recips)}")
    return sum(sorted(recips, reverse=True)[:i], Fraction(0))


def segment_sum_table(segments) -> MinimaTable:
    segs = list(segments)
    entries = [_zero_entry()]
    for i in range(1, len(segs) + 1):
        entries.append(TableEntry.exact(segment_sum_minima(segs, i), SEGMENT_SUM))
    return MinimaTable(tuple(entries))


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
    top = max(Fraction(1) / (b - a) for a, b in ivs)
    entries = [_zero_entry()]
    entries += [TableEntry.exact(top, BOX_FORMULA) for _ in ivs]
    return MinimaTable(tuple(entries))


def crosspolytope_table(d: int) -> MinimaTable:
    return segment_sum_table([(-1, 1)] * d)


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
    lo, hi = P.bbox()
    if not lo or any(a >= b for a, b in zip(lo, hi)):
        return None
    points = set(P.points)
    if all(corner in points for corner in itertools.product(*zip(lo, hi))):
        return list(zip(lo, hi))
    return None


def match_segment_sum(P: Polytope) -> list[tuple[Fraction, Fraction]] | None:
    """Recover the segments when ``P`` is a direct sum of axis segments.

    Matches generalized crosspolytopes ``conv{a_j e_j, b_j e_j}`` with
    ``a_j < 0 < b_j``; returns the per-axis segments ``[a_j, b_j]``.
    """
    d = P.ambient_dim
    if d < 1 or not P.is_full_dimensional():
        return None
    verts = P.vertices
    if len(verts) != 2 * d:
        return None
    lo = [None] * d
    hi = [None] * d
    for v in verts:
        nonzero = [(j, x) for j, x in enumerate(v) if x != 0]
        if len(nonzero) != 1:
            return None
        j, x = nonzero[0]
        if x > 0:
            if hi[j] is not None:
                return None
            hi[j] = x
        else:
            if lo[j] is not None:
                return None
            lo[j] = x
    if any(a is None for a in lo) or any(b is None for b in hi):
        return None
    return list(zip(lo, hi))


def recognize(P: Polytope) -> MinimaTable | None:
    """Closed-form minima table of ``P`` w.r.t. the standard lattice, or None.

    Tries a box, then a direct sum of segments, then a weighted simplex; the
    first match picks the table.
    """
    sides = match_box(P)
    if sides is not None:
        return box_minima_table(sides)
    segments = match_segment_sum(P)
    if segments is not None:
        return segment_sum_table(segments)
    w = match_weighted_simplex(P)
    if w is not None:
        return weighted_minima_table(w)
    return None
