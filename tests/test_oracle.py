"""Certified oracle: covering radius, width, successive minima, sandwich."""

import itertools
from fractions import Fraction

import pytest

from covmin.errors import BudgetExceeded, NotLAB, NotSymmetric
from covmin.families import (
    box,
    crosspolytope,
    cube,
    segment,
    terminal_polytope,
    terminal_simplex,
    weighted_covering_radius,
    weighted_simplex,
    weights,
)
from covmin.lattice import Lattice
from covmin.linalg import mat, mat_vec, rank, vec
from covmin.oracle import (
    covering_radius,
    covering_radius_value,
    lab_minima,
    lattice_width,
    minima_sandwich,
    successive_minima,
    verify_direct_sum,
)
from covmin.polytope import Polytope, center_translate, difference_body, gauge

F = Fraction
TOL = F(1, 1000)  # unit tests run at a loose tolerance; acceptance uses 1/10000


def brute_force_min_gauge(body, point, radius=3):
    """Independent check value: min gauge(point - z) over a crude z box."""
    d = body.ambient_dim
    centered, shift = center_translate(body)
    moved = tuple(p + s for p, s in zip(point, shift))
    # z ranges over a box that surely contains the minimizer for small bodies
    best = None
    for z in itertools.product(range(-radius, radius + 1), repeat=d):
        g = gauge(centered, tuple(m - zi for m, zi in zip(moved, z)))
        if best is None or g < best:
            best = g
    return best


class TestCoveringRadius:
    def test_terminal_2(self):
        cert = covering_radius(terminal_simplex(2), tol=TOL)
        assert F(1) in cert.interval
        assert cert.interval.width <= TOL

    def test_unit_cube_tiles(self):
        body = Polytope(itertools.product((0, 1), repeat=2))
        cert = covering_radius(body, tol=TOL)
        assert F(1) in cert.interval

    def test_segment(self):
        cert = covering_radius(segment(F(-1, 3), 1), tol=TOL)
        assert cert.interval.lo == cert.interval.hi == F(3, 4)

    def test_deep_point_realizes_lower_bound(self):
        cert = covering_radius(terminal_simplex(2), tol=TOL)
        # the deep point's exact distance to the lattice equals the lower bound
        recomputed = brute_force_min_gauge(terminal_simplex(2), cert.deep_point)
        assert recomputed == cert.interval.lo

    def test_monotone_refinement(self):
        for body in (terminal_simplex(2), cube(2), segment(F(-1, 3), 1)):
            coarse = covering_radius(body, tol=F(1, 100))
            fine = covering_radius(body, tol=F(1, 200))
            assert fine.interval.lo >= coarse.interval.lo
            assert fine.interval.hi <= coarse.interval.hi

    def test_unimodular_invariance(self):
        U = mat([[1, 1], [0, 1]])
        body = terminal_simplex(2)
        moved = Polytope([mat_vec(U, v) for v in body.vertices]).translate((3, -2))
        base = covering_radius(body, tol=TOL)
        other = covering_radius(moved, tol=TOL)
        assert base.interval.lo <= other.interval.hi
        assert other.interval.lo <= base.interval.hi

    def test_scaled_lattice(self):
        cert = covering_radius(cube(2), Lattice([[2, 0], [0, 2]]), tol=TOL)
        assert F(1) in cert.interval

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            covering_radius(terminal_simplex(2), tol=F(1, 10**6), cell_cap=5)

    def test_translation_reported(self):
        cert = covering_radius(Polytope(itertools.product((0, 1), repeat=2)), tol=TOL)
        assert cert.translation == (F(-1, 2), F(-1, 2))


class TestLatticeWidth:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_terminal(self, d):
        w, witness = lattice_width(terminal_simplex(d))
        assert w == 2
        assert all(x.denominator == 1 for x in witness)

    def test_cube(self):
        w, _ = lattice_width(cube(3))
        assert w == 2

    def test_weighted_sorted(self):
        body = weighted_simplex(weights([1, 2, 3]))
        w, witness = lattice_width(body)
        assert w == 3
        # independent exhaustive check over a crude box of functionals
        brute = min(
            max(sum(f[i] * v[i] for i in range(2)) for v in body.vertices)
            - min(sum(f[i] * v[i] for i in range(2)) for v in body.vertices)
            for f in itertools.product(range(-6, 7), repeat=2)
            if any(f)
        )
        assert brute == 3

    def test_witness_achieves_width(self):
        body = cube(2, F(3, 2))
        w, witness = lattice_width(body)
        values = [sum(a * b for a, b in zip(witness, v)) for v in body.vertices]
        assert max(values) - min(values) == w == 3


class TestSuccessiveMinima:
    @pytest.mark.parametrize("d", [2, 3])
    def test_terminal_difference(self, d):
        values, witnesses = successive_minima(difference_body(terminal_simplex(d)))
        assert values == [F(d, d + 1)] * d
        assert rank(witnesses) == d

    def test_scaled_cube(self):
        values, _ = successive_minima(cube(2, 2))
        assert values == [F(1, 2), F(1, 2)]

    def test_anisotropic_box(self):
        values, witnesses = successive_minima(box([(-1, 1), (-3, 3)]))
        assert values == [F(1, 3), F(1)]
        assert witnesses[0] in ((0, 1), (0, -1))

    def test_sorted_and_independent(self):
        values, witnesses = successive_minima(difference_body(terminal_simplex(3)))
        assert values == sorted(values)
        assert rank(witnesses) == 3

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            successive_minima(terminal_simplex(2))


class TestDispatcher:
    def test_box_exact(self):
        entry = covering_radius_value(box([(-1, 1), (F(-1, 2), F(1, 2))]))
        assert entry.is_exact and entry.value == 1

    def test_weighted_exact(self):
        entry = covering_radius_value(weighted_simplex(weights([F(1, 2), 1, 1])))
        assert entry.is_exact and entry.value == F(5, 4)

    def test_segment_sum_exact(self):
        entry = covering_radius_value(crosspolytope(3))
        assert entry.is_exact and entry.value == F(3, 2)

    def test_generic_certified(self):
        body = Polytope([(2, 0), (0, 2), (-1, -1), (1, -1)])
        entry = covering_radius_value(body, TOL)
        assert not entry.is_exact
        assert entry.hi - entry.lo <= TOL


class TestLabMinima:
    def test_cube_all_indices(self):
        for i in (1, 2, 3):
            entry, witness = lab_minima(cube(3), i, TOL)
            assert entry.is_exact and entry.value == F(1, 2)

    def test_crosspolytope(self):
        entry, witness = lab_minima(crosspolytope(3), 2, TOL)
        assert entry.is_exact and entry.value == 1
        assert witness == (0, 1)

    def test_anisotropic_box(self):
        entry, witness = lab_minima(
            box([(-1, 1), (F(-1, 2), F(1, 2)), (F(-1, 3), F(1, 3))]), 2, TOL
        )
        assert entry.is_exact and entry.value == F(3, 2)
        assert witness == (0, 2)  # lexicographically first slice attaining 3/2

    def test_rejects_terminal(self):
        with pytest.raises(NotLAB):
            lab_minima(terminal_simplex(3), 2, TOL)


class TestIntersectionBoundFromOracleSlices:
    @pytest.mark.parametrize("d,i", [(3, 2), (4, 2), (4, 3)])
    def test_terminal_matches_closed_form_within_tolerance(self, d, i):
        from covmin.bounds import intersection_bound, terminal_intersection_bound
        from covmin.lattice import Lattice

        report = intersection_bound(
            terminal_simplex(d), Lattice.standard(d), i,
            lambda piece: covering_radius(piece, tol=TOL).interval,
        )
        expect = terminal_intersection_bound(d, i)
        assert expect in report.entry
        assert report.entry.width <= TOL


class TestSandwich:
    def test_terminal3_middle_index(self):
        s = minima_sandwich(terminal_simplex(3), None, 2, TOL)
        assert s.lower == 1  # the projection to two coordinates is exact
        assert s.upper == F(5, 4)
        assert F(1) >= s.lower and F(1) <= s.upper

    def test_cube_exact(self):
        s = minima_sandwich(cube(3), None, 2, TOL)
        assert s.is_exact and s.lower == F(1, 2)

    def test_crosspolytope_exact(self):
        s = minima_sandwich(crosspolytope(3), None, 2, TOL)
        assert s.is_exact and s.lower == 1

    def test_terminal_sums_exact(self):
        # direct sums of recognized blocks take the max-plus combination
        for i, want in ((1, F(1, 2)), (2, F(1)), (3, F(3, 2))):
            s = minima_sandwich(terminal_polytope([1, 2]), None, i, TOL)
            assert s.is_exact and s.lower == want
        T22 = terminal_polytope([2, 2])
        for i in range(1, 5):
            s = minima_sandwich(T22, None, i, TOL)
            assert s.is_exact and s.lower == F(i, 2)

    def test_weighted_endpoints_exact(self):
        body = weighted_simplex(weights([1, 2, 3]))
        assert minima_sandwich(body, None, 1, TOL).lower == F(1, 3)
        assert minima_sandwich(body, None, 2, TOL).lower == weighted_covering_radius(
            weights([1, 2, 3])
        )

    def test_width_consistency(self):
        # the certified i=1 value equals the reciprocal of the exact width
        body = Polytope([(2, 0), (0, 2), (-1, -1), (1, -1)])
        w, _ = lattice_width(body)
        s = minima_sandwich(body, None, 1, TOL)
        assert s.lower <= F(1) / w <= s.upper

    def test_width_reciprocal_exact_for_weighted(self):
        w = weights([F(1, 2), 1, 3])
        body = weighted_simplex(w)
        width, _ = lattice_width(body)
        s = minima_sandwich(body, None, 1, TOL)
        assert s.is_exact and s.lower == F(1) / width == F(2, 3)

    def test_lower_monotone_in_index(self):
        body = Polytope([(2, 0), (0, 2), (-1, -1), (1, -1)])
        s1 = minima_sandwich(body, None, 1, TOL)
        s2 = minima_sandwich(body, None, 2, TOL)
        assert s1.lower <= s2.lower
        assert s1.lower <= s1.upper and s2.lower <= s2.upper

    def test_generic_lattice(self):
        s = minima_sandwich(cube(2, 2), Lattice([[2, 0], [0, 2]]), 1, TOL)
        assert s.is_exact and s.lower == F(1, 2)

    def test_terminal5_middle_bracket_without_oracle_runs(self):
        # recognition carries everything: no raw subdivision happens at d=5
        from covmin.bounds import terminal_intersection_bound

        s = minima_sandwich(terminal_simplex(5), None, 3, TOL)
        assert s.lower == F(3, 2)
        assert s.upper == terminal_intersection_bound(5, 3) == 2

    def test_terminal6_endpoints_exact(self):
        # the weighted formula is exact at i = 1 and i = d, also in dimension 6
        T6 = terminal_simplex(6)
        first = minima_sandwich(T6, None, 1)
        assert first.is_exact and first.lower == F(1, 2)
        assert first.ub_witness == "reciprocal lattice width"
        top = minima_sandwich(T6, None, 6)
        assert top.is_exact and top.lower == 3

    def test_extra_projection_strengthens_lower_bound(self):
        # sheared cube: its width direction is not a coordinate axis
        sheared = Polytope([(3, 2), (1, 0), (-1, 0), (-3, -2)])
        plain = minima_sandwich(sheared, None, 1, TOL)
        assert plain.lower == F(1, 4)  # best coordinate projection
        helped = minima_sandwich(
            sheared, None, 1, TOL, extra_projections=(((1, -1),),)
        )
        assert helped.lower == F(1, 2)
        assert helped.is_exact  # meets the exact reciprocal width upper bound


class TestVerifyDirectSum:
    def test_two_segments(self):
        check = verify_direct_sum(segment(-1, 1), segment(-1, 1), 2, TOL)
        assert check.ok
        assert (check.combined.lo, check.combined.hi) == (1, 1)
        # at the top index the reference is the raw oracle on the sum itself
        assert 1 in check.reference and check.reference.width <= TOL

    def test_mixed_segments(self):
        check = verify_direct_sum(segment(F(-1, 2), 1), segment(-1, F(1, 3)), 2, TOL)
        assert check.ok
        assert check.combined.lo == F(2, 3) + F(3, 4) == F(17, 12)

    def test_terminal_plus_segment(self):
        check = verify_direct_sum(terminal_simplex(2), segment(-1, 1), 3, TOL)
        assert check.ok
        assert check.combined.lo == F(3, 2)

    def test_every_index(self):
        S = (terminal_simplex(2), segment(-1, 1))
        for i, want in enumerate([0, F(1, 2), 1, F(3, 2)]):
            check = verify_direct_sum(*S, i, TOL)
            assert check.ok and check.index == i
            assert check.combined.value == want
        # the first index is checked against the sum's own lattice width
        check = verify_direct_sum(*S, 1, TOL)
        assert check.reference.value == F(1, 2)
