"""Upper-bound machinery for covering minima.

Three mechanisms: the projection bound (max-plus combination of a
projection's and a slice's minima), the intersection bound (max of the
covering radii of coordinate slices) and the successive-minima chain.
Closed-form specializations for terminal and weighted simplices, plus the
comparison table across mechanisms.

Bounds computed here are upper-bound certificates only when every input was
certified; anything touched by a conjectured table entry is flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    EmptySlice,
    IndexOutOfRange,
    InputError,
    OriginMissing,
    SliceDegenerate,
    UnsortedWeights,
)
from .families import MinimaTable, TableEntry, WeightVector, combine_direct_sum
from .lattice import Lattice
from .linalg import vec
from .polytope import Polytope, coord_slice, lattice_coordinates

PROJECTION_THM = "PROJECTION_THM"
INTERSECTION_THM = "INTERSECTION_THM"
KL_LEMMA = "KL_LEMMA"
COR_TERMINAL_PROJ = "COR_TERMINAL_PROJ"
PROP_WEIGHTED = "PROP_WEIGHTED"
COR_TERMINAL_INT = "COR_TERMINAL_INT"
MONOTONE = "MONOTONE"

CrOracle = Callable[[Polytope], TableEntry]


@dataclass(frozen=True)
class BoundReport:
    """An upper bound on one covering minimum, with its witness."""

    body: str
    lattice: str
    index: int
    entry: TableEntry
    method: str
    witness: object = None

    @property
    def hi(self) -> Fraction:
        return self.entry.hi

    def __str__(self) -> str:
        tag = " (conjectured)" if self.entry.conjectured else ""
        return (
            f"mu_{self.index}({self.body}, {self.lattice}) <= {self.entry} "
            f"via {self.method}, witness {self.witness}{tag}"
        )


def projection_bound(
    proj_table: MinimaTable,
    slice_table: MinimaTable,
    i: int,
    *,
    body: str = "K",
    lattice: str = "Z^d",
) -> BoundReport:
    """Upper bound from a rank-``l`` projection and the complementary slice.

    ``proj_table`` holds the minima of the projected pair, ``slice_table``
    those of the intersection with the orthogonal complement; the bound is
    the max-plus combination over all admissible allocations.
    """
    entry, witness = combine_direct_sum(proj_table, slice_table, i)
    return BoundReport(body, lattice, i, entry, PROJECTION_THM, witness)


def intersection_bound(
    K: Polytope,
    lattice: Lattice,
    i: int,
    cr_oracle: CrOracle,
    *,
    body: str = "K",
    lattice_id: str = "Z^d",
) -> BoundReport:
    """Upper bound by the largest covering radius among coordinate slices.

    Coordinates are taken with respect to the lattice's stored basis: the body
    is mapped to basis coefficients, sliced along every size-``i`` coordinate
    subspace, and each slice's covering radius with respect to the standard
    lattice is obtained from ``cr_oracle``.  Every slice must have dimension
    exactly ``i``.
    """
    d = K.ambient_dim
    if lattice.dim != d:
        raise InputError("lattice dimension mismatch")
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"index {i} outside 1..{d}")
    Kt = lattice_coordinates(K, lattice)
    best_lo = best_hi = None
    witness = None
    for idx in itertools.combinations(range(d), i):
        try:
            piece = coord_slice(Kt, idx)
        except EmptySlice as exc:
            raise SliceDegenerate(idx, f"slice at {idx} is empty") from exc
        if piece.dim != i:
            raise SliceDegenerate(idx)
        iv = cr_oracle(piece)
        if best_lo is None or iv.lo > best_lo:
            best_lo = iv.lo
        if best_hi is None or iv.hi > best_hi:
            best_hi = iv.hi
            witness = idx
    entry = TableEntry(best_lo, best_hi, INTERSECTION_THM)
    return BoundReport(body, lattice_id, i, entry, INTERSECTION_THM, witness)


def kl_bound(
    base_index: int,
    base: TableEntry,
    succ_minima,
    i: int,
    *,
    body: str = "K",
    lattice: str = "Z^d",
) -> BoundReport:
    """Chain a known minimum up to index ``i`` with successive minima steps.

    One step raises the index by one at the cost of the ``(d-j)``-th
    successive minimum of the difference body; ``succ_minima`` lists
    ``lambda_1 <= ... <= lambda_d``.
    """
    lambdas = [Fraction(x) for x in succ_minima]
    d = len(lambdas)
    if not 0 <= base_index < i <= d:
        raise IndexOutOfRange(f"cannot chain from {base_index} to {i} with d={d}")
    lo, hi = base.lo, base.hi
    used = []
    for j in range(base_index, i):
        pos = d - j
        step = lambdas[pos - 1]
        lo += step
        hi += step
        used.append(pos)
    entry = TableEntry(lo, hi, KL_LEMMA, base.conjectured)
    return BoundReport(body, lattice, i, entry, KL_LEMMA, tuple(used))


# -- closed forms for terminal and weighted simplices -------------------------


def terminal_projection_bound(d: int, i: int) -> Fraction:
    """Iterated projection bound for the terminal simplex: ``1/2 + sum (d-j)/(d-j+1)``."""
    if not 2 <= i <= d:
        raise IndexOutOfRange(f"need 2 <= i <= d, got i={i}, d={d}")
    return Fraction(1, 2) + sum(
        (Fraction(d - j, d - j + 1) for j in range(i - 1)), Fraction(0)
    )


def terminal_intersection_bound(d: int, i: int) -> Fraction:
    """Intersection bound for the terminal simplex: ``(i/2) (1 + (d-i)/(d+1))``."""
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"need 1 <= i <= d, got i={i}, d={d}")
    return Fraction(i, 2) * (1 + Fraction(d - i, d + 1))


def terminal_kl_bound(d: int, i: int) -> Fraction:
    """Successive-minima chain for the terminal simplex: ``1/2 + (i-1) d/(d+1)``."""
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"need 1 <= i <= d, got i={i}, d={d}")
    return Fraction(1, 2) + (i - 1) * Fraction(d, d + 1)


def weighted_intersection_bound(w: WeightVector, i: int) -> tuple[Fraction, bool]:
    """Intersection bound for a sorted weighted simplex, with maximizer check.

    Returns the bound value together with the result of exhaustively checking
    that among all size-``i`` coordinate sets the slice covering radius is
    maximal at the first ``i`` coordinates.
    """
    if not w.is_sorted:
        raise UnsortedWeights("intersection bound formula needs ascending weights")
    d = w.d
    if not 1 <= i < d:
        raise IndexOutOfRange(f"need 1 <= i < d, got i={i}, d={d}")
    inv = [Fraction(1) / x for x in w.entries]  # inv[k] = 1/w_k, k = 0..d
    tail = inv[0] + sum(inv[i + 1:], Fraction(0))
    head = sum(inv[1: i + 1], Fraction(0))
    pair = Fraction(0)
    for s in range(1, i + 1):
        for t in range(s + 1, i + 1):
            pair += inv[s] * inv[t]
    value = (tail * head + pair) / sum(inv, Fraction(0))

    # exhaustive check that F(I) = 2 C L(I) - L(I)^2 - Q(I) peaks at {1..i}
    C = sum(inv, Fraction(0))

    def score(subset):
        L = sum((inv[k] for k in subset), Fraction(0))
        Q = sum((inv[k] ** 2 for k in subset), Fraction(0))
        return 2 * C * L - L * L - Q

    target = score(range(1, i + 1))
    maximizer_ok = all(
        score(subset) <= target
        for subset in itertools.combinations(range(1, d + 1), i)
    )
    return value, maximizer_ok


def bound_table(d_values, i_values) -> list[tuple[int, int, Fraction, Fraction, Fraction, Fraction]]:
    """Comparison rows ``(d, i, projection, intersection, chain, conjectured)``.

    Only pairs with ``2 <= i <= d`` are emitted; the conjectured column is the
    projection lower bound ``i/2``.
    """
    rows = []
    for d in d_values:
        for i in i_values:
            if not 2 <= i <= d:
                continue
            rows.append((
                d,
                i,
                terminal_projection_bound(d, i),
                terminal_intersection_bound(d, i),
                terminal_kl_bound(d, i),
                Fraction(i, 2),
            ))
    return rows


# -- generic recursion over coordinate hyperplanes ----------------------------


def projection_recursion(
    K: Polytope,
    i: int,
    mu_leaf: Callable[[Polytope, int], TableEntry],
    *,
    body: str = "K",
    lattice: str = "Z^d",
) -> BoundReport:
    """Repeated projection bound along coordinate hyperplanes, memoized.

    Works in the current coordinates with the standard lattice; the body must
    contain the origin (the projection bound's hypothesis).  ``mu_leaf``
    resolves the recursion leaves: the reciprocal width at index 1 and the
    covering radius at top index.  Axes whose segment slice is degenerate are
    skipped; if no axis applies the leaf resolver is used directly.
    """
    d = K.ambient_dim
    if vec([Fraction(0)] * d) not in K:
        raise OriginMissing("projection recursion requires the origin in the body")
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"index {i} outside 1..{d}")

    projections: dict[tuple[int, ...], Polytope] = {tuple(range(d)): K}

    def project(sel: tuple[int, ...]) -> Polytope:
        if sel not in projections:
            projections[sel] = Polytope([tuple(p[k] for k in sel) for p in K.vertices])
        return projections[sel]

    memo: dict[tuple[tuple[int, ...], int], TableEntry] = {}

    def bound(sel: tuple[int, ...], idx: int) -> TableEntry:
        if idx == 0:
            return TableEntry.exact(0, "index-zero convention")
        key = (sel, idx)
        if key in memo:
            return memo[key]
        P = project(sel)
        n = len(sel)
        if idx in (1, n):
            result = mu_leaf(P, idx)
        else:
            result = None
            for pos in range(n):
                seg = coord_slice(P, (pos,))
                lo_pt, hi_pt = seg.bbox()
                length = hi_pt[0] - lo_pt[0]
                if length == 0:
                    continue
                mu_seg = Fraction(1) / length
                rest = sel[:pos] + sel[pos + 1:]
                keep = bound(rest, idx)
                step = bound(rest, idx - 1)
                cand_lo = max(keep.lo, step.lo + mu_seg)
                cand_hi = max(keep.hi, step.hi + mu_seg)
                conj = keep.conjectured or step.conjectured
                cand = TableEntry(cand_lo, cand_hi, "projection recursion", conj)
                if result is None or cand.hi < result.hi:
                    result = cand
            if result is None:
                result = mu_leaf(P, idx)
        memo[key] = result
        return result

    entry = bound(tuple(range(d)), i)
    return BoundReport(body, lattice, i, entry, PROJECTION_THM, "coordinate recursion")
