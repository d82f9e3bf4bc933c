"""Exact polytope geometry in vertex representation.

Polytopes store their defining points and lazily compute a canonical form:
the irredundant lexicographically sorted vertex list together with the full
facet system, obtained by brute force over point subsets.  That is entirely
adequate at desk scale (dimension <= ~6, a few dozen points) and keeps every
predicate exact, so set equality of polytopes is decidable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .errors import (
    BudgetExceeded,
    EmptySlice,
    InputError,
    NotFullDimensional,
    OriginMissing,
    OriginNotInterior,
)
from .linalg import RatVec, clear_denominators, dot, mat_solve, nullspace, primitive, rank, vec, vec_add, vec_sub

Facet = tuple[tuple[int, ...], Fraction]  # normal . x <= offset, normal primitive integer

HULL_SUBSET_CAP = 2_000_000


def index_set(indices, d: int) -> tuple[int, ...]:
    """Normalize a coordinate index set: distinct, sorted, within ``range(d)``."""
    out = tuple(sorted(int(i) for i in indices))
    if len(set(out)) != len(out):
        raise InputError(f"repeated indices in {indices}")
    if out and (out[0] < 0 or out[-1] >= d):
        raise InputError(f"indices {out} out of range for dimension {d}")
    return out


class Polytope:
    """Convex hull of finitely many rational points."""

    def __init__(self, points):
        pts = sorted({vec(p) for p in points})
        if not pts:
            raise InputError("a polytope needs at least one point")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise InputError("points of mixed dimension")
        self._points: tuple[RatVec, ...] = tuple(pts)
        self.ambient_dim = d
        self._hull: tuple[tuple[RatVec, ...], tuple[Facet, ...]] | None = None
        self._dim: int | None = None
        self._hash: int | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the affine hull."""
        if self._dim is None:
            p0 = self._points[0]
            self._dim = rank([vec_sub(p, p0) for p in self._points[1:]])
        return self._dim

    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    @property
    def points(self) -> tuple[RatVec, ...]:
        """Defining points, deduplicated and sorted; may include non-vertices."""
        return self._points

    @property
    def vertices(self) -> tuple[RatVec, ...]:
        """Canonical irredundant vertex list, sorted lexicographically."""
        return self._ensure_hull()[0]

    @property
    def facets(self) -> tuple[Facet, ...]:
        """Complete facet system ``normal . x <= offset`` with primitive integer normals."""
        return self._ensure_hull()[1]

    def _ensure_hull(self):
        if self._hull is None:
            self._hull = _hull(self._points, self.ambient_dim, self.dim)
        return self._hull

    @classmethod
    def _from_hull(cls, vertices, facets, ambient_dim):
        p = cls.__new__(cls)
        p._points = tuple(sorted(vertices))
        p.ambient_dim = ambient_dim
        p._hull = (p._points, tuple(facets))
        p._dim = ambient_dim
        p._hash = None
        return p

    # -- predicates ----------------------------------------------------------

    def __contains__(self, x) -> bool:
        x = vec(x)
        return all(dot(vec(n), x) <= b for n, b in self.facets)

    def has_interior_origin(self) -> bool:
        return self.is_full_dimensional() and all(b > 0 for _, b in self.facets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        if self.is_full_dimensional() and other.is_full_dimensional():
            return self.vertices == other.vertices
        return self._points == other._points

    def __hash__(self) -> int:
        # equal bodies share their bounding box, which needs no hull; memo
        # keys hash one body many times, so the value is kept
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.bbox()))
        return self._hash

    def __repr__(self) -> str:
        return f"Polytope({list(self._points)!r})"

    # -- simple derived data ---------------------------------------------------

    def translate(self, shift) -> "Polytope":
        shift = vec(shift)
        moved = [vec_add(p, shift) for p in self._points]
        if self._hull is not None:
            verts = tuple(sorted(vec_add(p, shift) for p in self._hull[0]))
            facets = tuple(
                sorted((n, b + dot(vec(n), shift)) for n, b in self._hull[1])
            )
            return Polytope._from_hull(verts, facets, self.ambient_dim)
        return Polytope(moved)

    def bbox(self) -> tuple[RatVec, RatVec]:
        lo = tuple(min(p[i] for p in self._points) for i in range(self.ambient_dim))
        hi = tuple(max(p[i] for p in self._points) for i in range(self.ambient_dim))
        return lo, hi


def _hyperplane_normal(diffs, d):
    """Primitive integer normal of the hyperplane with direction space ``diffs``.

    Returns None unless the difference vectors span exactly a ``(d-1)``-space.
    """
    kernel = nullspace(diffs, d)
    if len(kernel) != 1:
        return None
    ints, _ = clear_denominators(kernel)
    return primitive(ints[0])


def _hull(points, ambient_dim, dim):
    """Canonical (vertices, facets) of a full-dimensional point set."""
    if dim != ambient_dim:
        raise NotFullDimensional(
            f"affine hull has dimension {dim} < ambient {ambient_dim}"
        )
    d = ambient_dim
    if d == 0:
        return (points[0],), ()
    if comb(len(points), d) > HULL_SUBSET_CAP:
        raise BudgetExceeded(
            f"facet enumeration over {len(points)} points in dimension {d} exceeds cap"
        )
    facets: set[Facet] = set()
    for subset in itertools.combinations(points, d):
        base = subset[0]
        n = _hyperplane_normal([vec_sub(p, base) for p in subset[1:]], d)
        if n is None:
            continue
        nv = vec(n)
        off = dot(nv, base)
        values = [dot(nv, p) for p in points]
        if all(v <= off for v in values):
            facets.add((n, off))
        elif all(v >= off for v in values):
            facets.add((tuple(-x for x in n), -off))
    facet_list = tuple(sorted(facets))
    vertices = []
    for p in points:
        tight = [n for n, b in facet_list if dot(vec(n), p) == b]
        if len(tight) >= d and rank(tight) == d:
            vertices.append(p)
    return tuple(sorted(vertices)), facet_list


# -- spec operations -------------------------------------------------------


def gauge(P: Polytope, x) -> Fraction:
    """Minkowski functional ``min{t >= 0 : x in t P}``.

    Requires the origin strictly inside ``P``; then ``gauge(P, x) <= 1``
    exactly characterizes membership.
    """
    x = vec(x)
    worst = Fraction(0)
    for n, b in P.facets:
        if b <= 0:
            raise OriginNotInterior("gauge needs the origin strictly inside")
        val = dot(vec(n), x) / b
        if val > worst:
            worst = val
    return worst


def center_translate(P: Polytope) -> tuple[Polytope, RatVec]:
    """Translate by minus the vertex centroid, making the origin interior.

    Returns the translated polytope together with the shift that was applied.
    """
    verts = P.vertices
    d = P.ambient_dim
    k = len(verts)
    centroid = tuple(sum(v[i] for v in verts) / k for i in range(d))
    shift = tuple(-c for c in centroid)
    moved = P.translate(shift)
    if not moved.has_interior_origin():
        raise NotFullDimensional("vertex centroid not interior; polytope degenerate")
    return moved, shift


def lattice_coordinates(P: Polytope, lattice) -> Polytope:
    """``P`` in coefficients of ``lattice``'s basis, where the lattice is ``Z^d``.

    ``lattice`` None or the standard lattice returns ``P`` itself.
    """
    if lattice is None or lattice.is_identity():
        return P
    return Polytope([lattice.coefficients(v) for v in P.vertices])


def coord_project(P: Polytope, indices) -> Polytope:
    """Orthogonal projection onto the coordinates in ``indices``."""
    idx = index_set(indices, P.ambient_dim)
    return Polytope([tuple(p[i] for i in idx) for p in P._points])


def coord_slice(P: Polytope, indices) -> Polytope:
    """Exact slice ``P ∩ {x_k = 0 for k not in indices}`` in the retained coordinates.

    The facet system is restricted to the coordinate subspace and the slice's
    vertices are re-derived from it.  The result may be lower-dimensional;
    callers that need a full-dimensional slice must check ``dim``.

    Raises:
        EmptySlice: if the subspace misses the polytope.
    """
    idx = index_set(indices, P.ambient_dim)
    k = len(idx)
    if k == 0:
        if vec([Fraction(0)] * P.ambient_dim) in P:
            return Polytope([()])
        raise EmptySlice("origin not in polytope")
    system = [(tuple(Fraction(n[i]) for i in idx), b) for n, b in P.facets]
    candidates: set[RatVec] = set()
    for subset in itertools.combinations(system, k):
        m = tuple(row for row, _ in subset)
        b = tuple(off for _, off in subset)
        y = mat_solve(m, b)
        if y is None:
            continue
        if all(dot(row, y) <= off for row, off in system):
            candidates.add(y)
    if not candidates:
        raise EmptySlice(f"slice at {idx} is empty")
    return Polytope(sorted(candidates))


def direct_sum(K: Polytope, L: Polytope) -> Polytope:
    """Convex hull of two bodies embedded in complementary coordinate blocks.

    Both summands must contain the origin.
    """
    if L.ambient_dim == 0:
        _require_origin(K)
        return K
    if K.ambient_dim == 0:
        _require_origin(L)
        return L
    _require_origin(K)
    _require_origin(L)
    dk, dl = K.ambient_dim, L.ambient_dim
    zeros_l = (Fraction(0),) * dl
    zeros_k = (Fraction(0),) * dk
    pts = [p + zeros_l for p in K.vertices]
    pts += [zeros_k + q for q in L.vertices]
    return Polytope(pts)


def _require_origin(P: Polytope):
    if vec([Fraction(0)] * P.ambient_dim) not in P:
        raise OriginMissing("direct sum requires the origin in both summands")


def difference_body(P: Polytope) -> Polytope:
    """The symmetric body ``P - P`` (hull of all vertex differences)."""
    verts = P.vertices
    return Polytope([vec_sub(a, b) for a in verts for b in verts])


def is_locally_anti_blocking(P: Polytope) -> bool:
    """Whether every proper coordinate slice equals the matching projection.

    Requires the origin strictly inside (properness); compares canonical
    vertex sets exactly for every nonempty proper index set.
    """
    if not P.has_interior_origin():
        raise OriginNotInterior("locally anti-blocking test needs a proper body")
    d = P.ambient_dim
    for size in range(1, d):
        for idx in itertools.combinations(range(d), size):
            if coord_slice(P, idx) != coord_project(P, idx):
                return False
    return True
