"""Polytope geometry: hulls, gauge, slices, projections, direct sums."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covmin.errors import EmptySlice, NotFullDimensional, OriginMissing, OriginNotInterior
from covmin.linalg import dot, rank, vec, vec_sub
from covmin.polytope import (
    Polytope,
    center_translate,
    coord_project,
    coord_slice,
    difference_body,
    direct_sum,
    gauge,
    is_locally_anti_blocking,
)

F = Fraction


def cube(d, r=1):
    return Polytope(itertools.product((-r, r), repeat=d))


def crosspolytope(d):
    pts = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-x for x in e))
    return Polytope(pts)


def terminal_simplex(d):
    pts = [tuple([-1] * d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(tuple(e))
    return Polytope(pts)


T2 = terminal_simplex(2)


class TestHull:
    def test_standard_triangle(self):
        P = Polytope([(0, 0), (1, 0), (0, 1)])
        assert set(P.facets) == {
            ((-1, 0), F(0)),
            ((0, -1), F(0)),
            ((1, 1), F(1)),
        }

    def test_terminal_triangle_origin_strictly_inside(self):
        facets = T2.facets
        assert len(facets) == 3
        assert all(b > 0 for _, b in facets)

    def test_cube_facets(self):
        P = cube(3)
        normals = {n for n, _ in P.facets}
        assert normals == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }
        assert all(b == 1 for _, b in P.facets)

    def test_interior_points_dropped(self):
        P = Polytope([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
        assert P.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))

    def test_roundtrip_vertices(self):
        for P in (T2, cube(2), crosspolytope(3)):
            assert Polytope(P.vertices) == P

    def test_facets_tight_on_d_affinely_independent_vertices(self):
        for P in (T2, cube(3), crosspolytope(3)):
            d = P.ambient_dim
            for n, b in P.facets:
                tight = [v for v in P.vertices if dot(vec(n), v) == b]
                assert len(tight) >= d
                base = tight[0]
                assert rank([vec_sub(t, base) for t in tight[1:]]) == d - 1

    def test_not_full_dimensional(self):
        P = Polytope([(0, 0), (1, 1)])
        with pytest.raises(NotFullDimensional):
            _ = P.vertices

    def test_segment(self):
        P = Polytope([(F(-1, 3),), (1,)])
        assert set(P.facets) == {((1,), F(1)), ((-1,), F(1, 3))}


class TestGauge:
    def test_cube_is_sup_norm(self):
        assert gauge(cube(2), (F(1, 2), F(-3, 4))) == F(3, 4)

    def test_vertex_has_gauge_one(self):
        assert gauge(T2, (-1, -1)) == 1

    def test_weighted_vertex(self):
        s = Polytope([(-1, -1), (2, 0), (0, 3)])
        assert gauge(s, (2, 0)) == 1

    def test_origin(self):
        assert gauge(cube(2), (0, 0)) == 0

    def test_requires_interior_origin(self):
        P = Polytope([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(OriginNotInterior):
            gauge(P, (1, 1))

    @given(st.fractions(min_value=0, max_value=3, max_denominator=6),
           st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=6),
                     st.fractions(min_value=-2, max_value=2, max_denominator=6)))
    def test_positive_homogeneity(self, lam, x):
        for P in (cube(2), T2):
            assert gauge(P, (lam * x[0], lam * x[1])) == lam * gauge(P, x)

    @given(st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4)),
           st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4)))
    def test_midpoint_convexity(self, x, y):
        for P in (cube(2), T2, crosspolytope(2)):
            mid = tuple((a + b) / 2 for a, b in zip(x, y))
            assert gauge(P, mid) * 2 <= gauge(P, x) + gauge(P, y)


class TestCenterTranslate:
    def test_unit_square(self):
        Q, shift = center_translate(Polytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert shift == (F(-1, 2), F(-1, 2))
        assert Q.has_interior_origin()

    def test_terminal_already_centered(self):
        Q, shift = center_translate(terminal_simplex(3))
        assert shift == (0, 0, 0)
        assert Q.has_interior_origin()

    def test_centered_cube_shift_zero(self):
        _, shift = center_translate(cube(2))
        assert shift == (0, 0)


class TestProjectSlice:
    def test_project_terminal_to_terminal(self):
        assert coord_project(terminal_simplex(3), (0, 1)) == T2

    def test_project_cube_to_segment(self):
        assert coord_project(cube(3), (0,)) == Polytope([(-1,), (1,)])

    def test_slice_terminal(self):
        # slicing one coordinate off a terminal simplex shrinks the negative vertex
        got = coord_slice(terminal_simplex(3), (0, 1))
        assert got == Polytope([(F(-1, 2), F(-1, 2)), (1, 0), (0, 1)])

    def test_slice_cube(self):
        assert coord_slice(cube(3), (0, 1)) == cube(2)

    def test_slice_crosspolytope(self):
        assert coord_slice(crosspolytope(3), (0, 1)) == crosspolytope(2)

    def test_full_index_set_identity(self):
        for P in (T2, cube(3), crosspolytope(3)):
            full = tuple(range(P.ambient_dim))
            assert coord_slice(P, full) == P
            assert coord_project(P, full) == P

    def test_empty_slice(self):
        P = Polytope([(1, -1), (1, 1), (3, 0)])
        with pytest.raises(EmptySlice):
            coord_slice(P, (1,))

    def test_degenerate_slice_flagged_by_dim(self):
        P = Polytope([(0, 0), (1, 1), (1, -1)])
        s = coord_slice(P, (1,))
        assert s.dim == 0 < 1


class TestDirectSum:
    def test_three_segments_make_crosspolytope(self):
        seg = Polytope([(-1,), (1,)])
        assert direct_sum(direct_sum(seg, seg), seg) == crosspolytope(3)

    def test_t1_sum(self):
        t1 = Polytope([(-1,), (1,)])
        assert direct_sum(t1, t1) == crosspolytope(2)

    def test_zero_dim_identity(self):
        point = Polytope([()])
        assert direct_sum(T2, point) == T2
        assert direct_sum(point, T2) == T2

    def test_requires_origin(self):
        shifted = Polytope([(1,), (2,)])
        seg = Polytope([(-1,), (1,)])
        with pytest.raises(OriginMissing):
            direct_sum(shifted, seg)

    def test_block_projection_and_slice_recover_summands(self):
        K = T2
        L = Polytope([(F(-1, 2),), (1,)])
        S = direct_sum(K, L)
        assert coord_project(S, (0, 1)) == K
        assert coord_slice(S, (0, 1)) == K
        assert coord_project(S, (2,)) == L
        assert coord_slice(S, (2,)) == L

    def test_unimodular_simplex_from_unit_segments(self):
        seg01 = Polytope([(0,), (1,)])
        S = direct_sum(seg01, seg01)
        assert S == Polytope([(0, 0), (1, 0), (0, 1)])


class TestDifferenceBody:
    def test_symmetric(self):
        D = difference_body(T2)
        assert D == Polytope([tuple(-x for x in v) for v in D.vertices])

    def test_cube_difference(self):
        assert difference_body(cube(2)) == cube(2, 2)


class TestLocallyAntiBlocking:
    def test_cube(self):
        assert is_locally_anti_blocking(cube(3))

    def test_crosspolytope(self):
        assert is_locally_anti_blocking(crosspolytope(3))

    def test_terminal_simplex_is_not(self):
        assert not is_locally_anti_blocking(terminal_simplex(3))

    def test_needs_proper_body(self):
        P = Polytope([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(OriginNotInterior):
            is_locally_anti_blocking(P)
