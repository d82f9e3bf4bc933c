"""Certified numerical ground truth for covering minima.

The covering radius oracle runs branch and bound over the half-open basis
parallelepiped in lattice coordinates: dyadic cells carry upper bounds from
candidate lattice translates (the max of the gauge over a box is attained at
a corner because the gauge is convex) and the global lower bound is the best
exactly-evaluated point.  All certification arithmetic is integer or
rational; no floating point is involved anywhere.

Lattice width and successive minima are computed exactly by finite
enumeration over proven search boxes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .bounds import (
    KL_LEMMA,
    MONOTONE,
    BoundReport,
    intersection_bound,
    kl_bound,
    projection_recursion,
)
from .errors import (
    BudgetExceeded,
    Inconsistent,
    IndexOutOfRange,
    InputError,
    NotLAB,
    NotSymmetric,
    OriginMissing,
    OriginNotInterior,
    SliceDegenerate,
)
from .families import ORACLE, ZERO_ENTRY, MinimaTable, TableEntry, combine_direct_sum, recognize
from .lattice import Lattice, group_basis
from .linalg import RatVec, clear_denominators, mat_inverse, rank, vec
from .polytope import (
    Polytope,
    center_translate,
    coord_project,
    coord_slice,
    difference_body,
    direct_sum,
    is_locally_anti_blocking,
    lattice_coordinates,
)

DEFAULT_TOL = Fraction(1, 10_000)
DEFAULT_CELL_CAP = 400_000
DEFAULT_POINT_CAP = 2_000_000
ORACLE_DIM_CAP = 5
LAB_DIM_CAP = 6


@dataclass(frozen=True)
class CoveringCertificate:
    """Certified enclosure of a covering radius.

    ``deep_point`` is the sampled point whose exact distance-to-lattice gauge
    realizes the lower endpoint; ``translation`` is the shift applied to the
    body so the origin became interior (the covering radius is unaffected).
    """

    interval: TableEntry
    deep_point: RatVec
    cells_explored: int
    tolerance: Fraction
    translation: RatVec

    def __str__(self) -> str:
        return (
            f"mu in {self.interval} (tol {self.tolerance}, "
            f"{self.cells_explored} cells, deep point {self.deep_point})"
        )


@dataclass(frozen=True)
class SandwichResult:
    """Certified bracket for one covering minimum."""

    index: int
    lower: Fraction
    upper: Fraction
    lb_witness: object
    ub_witness: str

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        if self.is_exact:
            return f"mu_{self.index} = {self.lower} ({self.ub_witness})"
        return (
            f"mu_{self.index} in [{self.lower}, {self.upper}] "
            f"(lower: projection {self.lb_witness}, upper: {self.ub_witness})"
        )


class _GaugeGeometry:
    """Facet functionals of a centered body, expressed in lattice coordinates.

    The gauge of ``x - z`` for ``x = sum t_i b_i`` and ``z = sum m_i b_i``
    becomes ``max_F p_F . (t - m) / q`` with integer rows ``p_F`` and one
    common positive denominator ``q``.
    """

    def __init__(self, body: Polytope, lattice: Lattice):
        d = body.ambient_dim
        self.d = d
        rows = []
        for n, b in body.facets:
            if b <= 0:
                raise OriginNotInterior("gauge geometry needs the origin interior")
            image = [
                sum(Fraction(n[k]) * lattice.basis[j][k] for k in range(d))
                for j in range(d)
            ]
            rows.append(tuple(x / b for x in image))
        self.p, self.q = clear_denominators(rows)
        coords = [lattice.coefficients(v) for v in body.vertices]
        self.t_lo = tuple(min(c[i] for c in coords) for i in range(d))
        self.t_hi = tuple(max(c[i] for c in coords) for i in range(d))
        self._pm_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def pm(self, m: tuple[int, ...]) -> tuple[int, ...]:
        cached = self._pm_cache.get(m)
        if cached is None:
            cached = tuple(sum(row[j] * m[j] for j in range(self.d)) for row in self.p)
            self._pm_cache[m] = cached
        return cached

    def gauge_at(self, t, m) -> Fraction:
        y = [t[j] - m[j] for j in range(self.d)]
        worst = max(sum(row[j] * y[j] for j in range(self.d)) for row in self.p)
        return max(Fraction(0), Fraction(worst, self.q))

    def point_ranges(self, t_lo, t_hi, u: Fraction):
        """Integer ranges containing every m with ``t - m`` in ``u * body`` for
        some ``t`` in the given coordinate box."""
        ranges = []
        for i in range(self.d):
            lo = ceil(t_lo[i] - u * self.t_hi[i])
            hi = floor(t_hi[i] - u * self.t_lo[i])
            ranges.append(range(lo, hi + 1))
        return ranges

    def exact_min_scaled(self, c, E: int, start: Fraction | None = None) -> Fraction:
        """Exact ``min_m gauge(t - m)`` for the dyadic point ``t = c / 2^E``.

        ``start`` may be any proven upper bound for the minimum at ``t``; it
        shrinks the search box but never changes the result.  The candidate
        scan runs in integer arithmetic at the common scale ``q * 2^E``.
        """
        d = self.d
        scale = 1 << E
        pt = tuple(sum(row[j] * c[j] for j in range(d)) for row in self.p)
        m0 = tuple(ci >> E for ci in c)
        sh0 = self.pm(m0)
        best = Fraction(max(0, max(a - (b << E) for a, b in zip(pt, sh0))), self.q * scale)
        if start is not None and start < best:
            best = start
        if best == 0:
            return Fraction(0)
        t = tuple(Fraction(ci, scale) for ci in c)
        best_num = None
        for m in itertools.product(*self.point_ranges(t, t, best)):
            sh = self.pm(m)
            num = max(a - (b << E) for a, b in zip(pt, sh))
            if best_num is None or num < best_num:
                best_num = num
        if best_num is None:
            return best
        return max(Fraction(0), Fraction(best_num, self.q * scale))


def _cell_upper_bound(geom: _GaugeGeometry, n, e, u_window, seeds):
    """Upper bound for ``max_t min_m gauge(t - m)`` over one dyadic cell.

    Single translates give ``min_m max_corner gauge`` (exact box max by
    convexity); means over the two or three best translates prune cells that
    straddle flat covering seams.  Any candidate set is sound, so the window
    only affects tightness.
    """
    d = geom.d
    E = max(e)
    scale = 1 << E
    base = [n[i] << (E - e[i]) for i in range(d)]
    width = [1 << (E - e[i]) for i in range(d)]
    rows = geom.p
    nf = len(rows)
    base_vals = [sum(rows[f][j] * base[j] for j in range(d)) for f in range(nf)]
    deltas = [[rows[f][j] * width[j] for j in range(d)] for f in range(nf)]
    corner_vals = []
    for mask in itertools.product((0, 1), repeat=d):
        corner_vals.append(tuple(
            base_vals[f] + sum(deltas[f][j] for j in range(d) if mask[j])
            for f in range(nf)
        ))

    t_lo = [Fraction(base[i], scale) for i in range(d)]
    t_hi = [Fraction(base[i] + width[i], scale) for i in range(d)]
    if u_window is None:
        center = [(a + b) / 2 for a, b in zip(t_lo, t_hi)]
        m0 = tuple(floor(x) for x in center)
        u_window = geom.gauge_at(center, m0) + 1
    candidates = set(itertools.product(*geom.point_ranges(t_lo, t_hi, u_window)))
    candidates.update(seeds)
    # nearest-to-center candidates first so the abandon test bites immediately
    mid = [Fraction(2 * base[i] + width[i], 2 * scale) for i in range(d)]
    ordered = sorted(candidates, key=lambda m: (sum(abs(x - c) for x, c in zip(m, mid)), m))

    # first pass: corner max per candidate, abandoning as soon as it cannot win
    kept: list[tuple[int, tuple[int, ...]]] = []
    worst_kept = None
    for m in ordered:
        shifted = tuple(v << E for v in geom.pm(m))
        peak = 0
        alive = True
        for cv in corner_vals:
            g = max(a - b for a, b in zip(cv, shifted))
            if g > peak:
                peak = g
                if worst_kept is not None and peak >= worst_kept:
                    alive = False
                    break
        if alive:
            kept.append((peak, m))
            if len(kept) >= 3:
                kept.sort()
                kept = kept[:3]
                worst_kept = kept[-1][0]
    kept.sort()
    best_num, best_m = kept[0]
    ub = Fraction(best_num, geom.q * scale)

    # second pass: full corner vectors of the survivors for the pair bounds
    vectors = []
    for peak, m in kept:
        shifted = tuple(v << E for v in geom.pm(m))
        vectors.append((m, [
            max(0, max(a - b for a, b in zip(cv, shifted)))
            for cv in corner_vals
        ]))
    for (ma, ga), (mb, gb) in itertools.combinations(vectors, 2):
        pair_num = max(a + b for a, b in zip(ga, gb))
        pair_ub = Fraction(pair_num, 2 * geom.q * scale)
        if pair_ub < ub:
            ub = pair_ub
    second = kept[1][1] if len(kept) > 1 else best_m
    return ub, (best_m, second)


def covering_radius(
    K: Polytope,
    lattice: Lattice | None = None,
    tol: Fraction = DEFAULT_TOL,
    *,
    auto_translate: bool = True,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> CoveringCertificate:
    """Certified covering radius of a full-dimensional rational polytope.

    Subdivision splits the longest cell edge, lowest axis first on ties; a
    cell is discarded once its upper bound is within ``tol`` of the global
    lower bound, so the certificate interval has width at most ``tol``.

    Raises:
        BudgetExceeded: when more than ``cell_cap`` cells get processed.
        OriginNotInterior: origin not strictly inside and translation disabled.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise InputError("tolerance must be positive")
    d = K.ambient_dim
    if d > ORACLE_DIM_CAP:
        raise BudgetExceeded(
            f"covering radius subdivision is desk-scale only (dimension <= {ORACLE_DIM_CAP})"
        )
    lattice = lattice or Lattice.standard(d)
    if lattice.dim != d:
        raise InputError("lattice dimension mismatch")
    if auto_translate:
        body, shift = center_translate(K)
    else:
        body, shift = K, tuple(Fraction(0) for _ in range(d))
        if not body.has_interior_origin():
            raise OriginNotInterior("origin not strictly inside; enable auto translation")
    geom = _GaugeGeometry(body, lattice)

    lo = Fraction(0)
    deep_t: RatVec = tuple(Fraction(0) for _ in range(d))
    pruned_max = Fraction(0)
    point_memo: dict[RatVec, Fraction] = {}
    masks = list(itertools.product((0, 1), repeat=d))

    def sample(t, c, E, start=None):
        nonlocal lo, deep_t
        value = point_memo.get(t)
        if value is None:
            value = geom.exact_min_scaled(c, E, start)
            point_memo[t] = value
            if value > lo:
                lo = value
                deep_t = t
        return value

    root = (tuple([0] * d), tuple([0] * d))
    counter = itertools.count()
    root_ub, root_ms = _cell_upper_bound(geom, *root, u_window=None, seeds=())
    heap = [(-root_ub, next(counter), root, root_ub, root_ms)]
    cells = 0

    while heap:
        _, _, cell, ub, best_ms = heapq.heappop(heap)
        if ub <= lo + tol:
            if ub > pruned_max:
                pruned_max = ub
            continue
        cells += 1
        if cells > cell_cap:
            raise BudgetExceeded(f"covering radius subdivision exceeded {cell_cap} cells")
        n, e = cell
        E = max(e)
        for mask in masks:
            c = tuple((n[i] + mask[i]) << (E - e[i]) for i in range(d))
            t = tuple(Fraction(n[i] + mask[i], 1 << e[i]) for i in range(d))
            sample(t, c, E, start=ub)
        if ub <= lo + tol:
            if ub > pruned_max:
                pruned_max = ub
            continue
        axis = min(range(d), key=lambda i: e[i])
        u_window = max(ub, pruned_max)
        for half in (0, 1):
            cn = tuple(2 * n[i] + half if i == axis else n[i] for i in range(d))
            ce = tuple(e[i] + 1 if i == axis else e[i] for i in range(d))
            cub, cms = _cell_upper_bound(geom, cn, ce, u_window, best_ms)
            if cub > ub:
                cub, cms = ub, best_ms
            if cub <= lo + tol:
                if cub > pruned_max:
                    pruned_max = cub
                continue
            heapq.heappush(heap, (-cub, next(counter), (cn, ce), cub, cms))

    hi = max(lo, pruned_max)
    if hi - lo > tol:
        raise Inconsistent("certificate wider than tolerance; internal bug")
    return CoveringCertificate(
        TableEntry(lo, hi, ORACLE), lattice.from_coefficients(deep_t), cells, tol, vec(shift)
    )


# -- lattice width --------------------------------------------------------------


def lattice_width(
    K: Polytope,
    lattice: Lattice | None = None,
    *,
    enum_cap: int = DEFAULT_POINT_CAP,
) -> tuple[Fraction, RatVec]:
    """Exact lattice width and a minimizing dual-lattice functional.

    Starts from the dual basis functionals.  Any better functional has range
    below the incumbent over every vertex difference, which confines its dual
    coordinates to an exactly computable box; enumerating that box yields the
    true minimum.  Ties resolve to the lexicographically smallest functional
    (sign-normalized, so ``f`` and ``-f`` are identified).
    """
    d = K.ambient_dim
    lattice = lattice or Lattice.standard(d)
    verts = K.vertices

    def width_of(f) -> Fraction:
        values = [sum(fi * vi for fi, vi in zip(f, v)) for v in verts]
        return max(values) - min(values)

    def canonical(f) -> tuple:
        return min(tuple(f), tuple(-x for x in f))

    dual_rows = [vec(row) for row in lattice.dual_basis]
    best_f = canonical(dual_rows[0])
    best = width_of(best_f)
    for row in dual_rows[1:]:
        w = width_of(row)
        f = canonical(row)
        if (w, f) < (best, best_f):
            best, best_f = w, f

    base = verts[0]
    edges: list[tuple] = []
    for v in verts[1:]:
        candidate = tuple(a - b for a, b in zip(v, base))
        if rank(edges + [candidate]) > len(edges):
            edges.append(candidate)
        if len(edges) == d:
            break
    # f = sum k_i dual_i and |f . edge_j| <= width(f) <= best bound the k box
    W = tuple(
        tuple(sum(dual_rows[i][l] * edges[j][l] for l in range(d)) for i in range(d))
        for j in range(d)
    )
    Winv = mat_inverse(W)
    bounds = [sum(abs(x) for x in Winv[i]) * best for i in range(d)]
    ranges = [range(-floor(b), floor(b) + 1) for b in bounds]
    count = 1
    for r in ranges:
        count *= len(r)
        if count > enum_cap:
            raise BudgetExceeded(f"width search over {count}+ candidates exceeds cap")
    for coeffs in itertools.product(*ranges):
        if not any(coeffs):
            continue
        f = tuple(
            sum(coeffs[i] * dual_rows[i][l] for i in range(d)) for l in range(d)
        )
        w = width_of(f)
        if w < best:
            best, best_f = w, canonical(f)
        elif w == best:
            f = canonical(f)
            if f < best_f:
                best_f = f
    return best, vec(best_f)


# -- successive minima ------------------------------------------------------------


def successive_minima(
    C: Polytope,
    lattice: Lattice | None = None,
    *,
    enum_cap: int = DEFAULT_POINT_CAP,
) -> tuple[list[Fraction], list[RatVec]]:
    """Exact successive minima of a symmetric body, with witness vectors.

    Enumerates lattice points by increasing gauge inside a growing dilate and
    greedily collects linearly independent witnesses.
    """
    d = C.ambient_dim
    lattice = lattice or Lattice.standard(d)
    verts = set(C.vertices)
    if {tuple(-x for x in v) for v in verts} != verts:
        raise NotSymmetric("successive minima need a symmetric body")
    if not C.has_interior_origin():
        raise OriginNotInterior("successive minima need the origin interior")
    geom = _GaugeGeometry(C, lattice)
    zero = tuple(Fraction(0) for _ in range(d))
    r = Fraction(1)
    while True:
        ranges = geom.point_ranges(zero, zero, r)
        count = 1
        for rng in ranges:
            count *= len(rng)
            if count > enum_cap:
                raise BudgetExceeded("successive minima enumeration exceeds cap")
        scored = []
        for m in itertools.product(*ranges):
            if not any(m):
                continue
            # symmetry of C makes gauge(z) = gauge(-z), so the sign is immaterial
            g = geom.gauge_at(zero, m)
            if g <= r:
                scored.append((g, m))
        scored.sort()
        chosen: list[tuple[int, ...]] = []
        values: list[Fraction] = []
        for g, m in scored:
            if rank(chosen + [m]) > len(chosen):
                chosen.append(m)
                values.append(g)
                if len(chosen) == d:
                    break
        if len(chosen) == d:
            return values, [lattice.from_coefficients(m) for m in chosen]
        r *= 2


# -- covering radius dispatcher ----------------------------------------------------


def covering_radius_value(
    P: Polytope,
    tol: Fraction = DEFAULT_TOL,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> TableEntry:
    """Covering radius w.r.t. the standard lattice: exact closed form for
    recognized families, otherwise a certified oracle interval."""
    table = recognize(P)
    if table is not None:
        return table[P.ambient_dim]
    return covering_radius(P, tol=tol, cell_cap=cell_cap).interval


# -- locally anti-blocking bodies ----------------------------------------------------


def lab_minima(K: Polytope, i: int, tol: Fraction = DEFAULT_TOL) -> tuple[TableEntry, tuple[int, ...]]:
    """Exact i-th covering minimum of a proper locally anti-blocking body.

    Equals the largest covering radius among the size-``i`` coordinate
    slices; returns the certified entry and the witness index set (the
    lexicographically first one attaining the upper endpoint).
    """
    d = K.ambient_dim
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"index {i} outside 1..{d}")
    if not is_locally_anti_blocking(K):
        raise NotLAB("body is not locally anti-blocking")
    index_sets = list(itertools.combinations(range(d), i))
    slices = [coord_slice(K, idx) for idx in index_sets]
    entries = [covering_radius_value(piece, tol) for piece in slices]
    best_lo = max(entry.lo for entry in entries)
    best_hi = max(entry.hi for entry in entries)
    witness = next(idx for idx, entry in zip(index_sets, entries) if entry.hi == best_hi)
    exact = all(entry.is_exact for entry in entries)
    provenance = entries[0].provenance if exact else ORACLE
    return TableEntry(best_lo, best_hi, provenance), witness


# -- the sandwich ---------------------------------------------------------------------


def upper_bound_reports(Kt: Polytope, i: int, tol: Fraction = DEFAULT_TOL):
    """Every applicable upper-bound report for a body in standard-lattice
    coordinates: intersection bound, recursive projection bound, the
    successive-minima chain from the exact first minimum, and monotonicity
    from the covering radius."""
    d = Kt.ambient_dim
    reports = []
    try:
        reports.append(intersection_bound(
            Kt, Lattice.standard(d), i, lambda piece: covering_radius_value(piece, tol),
        ))
    except (SliceDegenerate, OriginNotInterior, BudgetExceeded):
        pass

    def leaf(P: Polytope, idx: int) -> TableEntry:
        if idx == 1:
            width, _ = lattice_width(P)
            return TableEntry.exact(Fraction(1) / width, "reciprocal width")
        return covering_radius_value(P, tol)

    try:
        reports.append(projection_recursion(Kt, i, leaf))
    except (OriginMissing, BudgetExceeded):
        pass

    if d <= 4:
        try:
            lambdas, _ = successive_minima(difference_body(Kt))
            width, _ = lattice_width(Kt)
            base = TableEntry.exact(Fraction(1) / width, "reciprocal width")
            if i > 1:
                reports.append(kl_bound(1, base, lambdas, i))
            else:
                reports.append(BoundReport("K", "Z^d", i, base, KL_LEMMA, "width"))
        except BudgetExceeded:
            pass

    try:
        entry = covering_radius_value(Kt, tol)
        reports.append(BoundReport("K", "Z^d", i, entry, MONOTONE, "covering radius"))
    except BudgetExceeded:
        pass
    return reports


def _rational_projection_lower(K: Polytope, lattice: Lattice, matrix, tol) -> Fraction:
    """Lower bound from an arbitrary rational projection given by matrix rows."""
    rows = [vec(r) for r in matrix]
    i = len(rows)
    images = [tuple(sum(r[j] * v[j] for j in range(K.ambient_dim)) for r in rows)
              for v in K.vertices]
    gens = [tuple(sum(r[j] * b[j] for j in range(K.ambient_dim)) for r in rows)
            for b in lattice.basis]
    basis = group_basis(gens, i)
    if len(basis) != i:
        raise InputError("projection image lattice is not full rank")
    proj_lattice = Lattice(tuple(basis))
    body_t = Polytope([proj_lattice.coefficients(x) for x in images])
    return covering_radius_value(body_t, tol).lo


def minima_sandwich(
    K: Polytope,
    lattice: Lattice | None = None,
    i: int = 1,
    tol: Fraction = DEFAULT_TOL,
    *,
    extra_projections: tuple = (),
) -> SandwichResult:
    """Certified bracket for the i-th covering minimum of a general body.

    Lower side: the best covering radius among rank-``i`` coordinate
    projections, optionally extended by rational projection matrices.  Upper
    side: the least of the intersection bound, the recursive projection
    bound, the successive-minima chain from the exact first minimum, and
    monotonicity from the covering radius.  Exact closed forms short-circuit
    recognized families and locally anti-blocking bodies.

    Raises:
        Inconsistent: if the certified lower bound exceeds the certified
            upper bound by more than ``2 tol`` (an implementation bug, never
            a mathematical outcome).
    """
    d = K.ambient_dim
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"index {i} outside 1..{d}")
    lattice = lattice or Lattice.standard(d)
    Kt = lattice_coordinates(K, lattice)

    table = recognize(Kt)
    if table is not None and not table[i].conjectured:
        entry = table[i]
        return SandwichResult(i, entry.lo, entry.hi, entry.provenance, entry.provenance)

    if table is None and Kt.has_interior_origin() and d <= LAB_DIM_CAP:
        if is_locally_anti_blocking(Kt):
            entry, witness = lab_minima(Kt, i, tol)
            return SandwichResult(i, entry.lo, entry.hi, witness, "locally anti-blocking")

    index_sets = list(itertools.combinations(range(d), i))
    projections = [coord_project(Kt, idx) for idx in index_sets]
    entries = [covering_radius_value(piece, tol) for piece in projections]
    lower = Fraction(0)
    lb_witness: object = index_sets[0]
    for idx, entry in zip(index_sets, entries):
        if entry.lo > lower:
            lower, lb_witness = entry.lo, idx
    for matrix in extra_projections:
        value = _rational_projection_lower(K, lattice, matrix, tol)
        if value > lower:
            lower, lb_witness = value, "user projection"

    reports = upper_bound_reports(Kt, i, tol)
    if not reports:
        raise InputError("no upper bound mechanism applies at this dimension")
    best = min(reports, key=lambda r: (r.hi, r.method))
    upper, ub_witness = best.hi, best.method
    if lower > upper + 2 * tol:
        raise Inconsistent(f"sandwich violated: lower {lower} > upper {upper} + 2 tol")
    return SandwichResult(i, lower, upper, lb_witness, ub_witness)


# -- direct sum verification -----------------------------------------------------------


@dataclass(frozen=True)
class DirectSumCheck:
    """The summands' combination at one index of a direct sum, against a
    bracket for that minimum computed from the sum itself."""

    index: int
    combined: TableEntry
    reference: TableEntry
    ok: bool


def _sandwich_table(P: Polytope, tol: Fraction) -> MinimaTable:
    entries = [ZERO_ENTRY]
    for i in range(1, P.ambient_dim + 1):
        s = minima_sandwich(P, None, i, tol)
        entries.append(TableEntry(s.lower, s.upper, str(s.ub_witness)))
    return MinimaTable(tuple(entries))


def _reference_entry(S: Polytope, i: int, tol: Fraction) -> TableEntry:
    """Bracket for ``mu_i(S)`` from the width and the raw oracle alone, so that
    neither ``recognize`` nor the direct-sum combination enters it."""
    d = S.ambient_dim
    if i == 0:
        return ZERO_ENTRY
    if i == 1:
        width, _ = lattice_width(S)
        return TableEntry.exact(Fraction(1) / width, "reciprocal width")

    def raw(piece: Polytope) -> TableEntry:
        return covering_radius(piece, tol=tol).interval

    if i == d:
        return raw(S)
    lower = max(raw(coord_project(S, idx)).lo for idx in itertools.combinations(range(d), i))
    upper = intersection_bound(S, Lattice.standard(d), i, raw).hi
    return TableEntry(lower, upper, ORACLE)


def verify_direct_sum(
    K: Polytope,
    L: Polytope,
    i: int,
    tol: Fraction = DEFAULT_TOL,
) -> DirectSumCheck:
    """Check the direct-sum combination at index ``i`` on concrete bodies.

    Combines the summands' sandwich tables and checks that the result lies,
    within ``2 tol``, inside a reference bracket for the sum ``S``: the
    reciprocal lattice width at ``i = 1``, the oracle's covering radius at
    the top index, and in between the largest oracle covering radius of a
    coordinate projection below and the intersection bound over oracle slice
    radii above.

    Raises:
        SliceDegenerate: in between, when a coordinate slice of ``S`` is
            lower-dimensional.
    """
    S = direct_sum(K, L)
    if not 0 <= i <= S.ambient_dim:
        raise IndexOutOfRange(f"index {i} outside 0..{S.ambient_dim}")
    combined = combine_direct_sum(_sandwich_table(K, tol), _sandwich_table(L, tol), i)[0]
    reference = _reference_entry(S, i, tol)
    ok = reference.lo - 2 * tol <= combined.lo and combined.hi <= reference.hi + 2 * tol
    return DirectSumCheck(i, combined, reference, ok)
