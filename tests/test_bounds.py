"""Upper-bound mechanisms and their closed-form specializations."""

import random
from fractions import Fraction

import pytest

from covmin.bounds import (
    INTERSECTION_THM,
    KL_LEMMA,
    PROJECTION_THM,
    bound_table,
    intersection_bound,
    kl_bound,
    projection_bound,
    projection_recursion,
    terminal_intersection_bound,
    terminal_kl_bound,
    terminal_projection_bound,
    weighted_intersection_bound,
)
from covmin.errors import IndexOutOfRange, OriginMissing, SliceDegenerate, UnsortedWeights
from covmin.families import (
    TableEntry,
    box_minima_table,
    crosspolytope_table,
    cube,
    match_box,
    match_weighted_simplex,
    terminal_simplex,
    weighted_covering_radius,
    weighted_minima_table,
    weighted_simplex,
    weights,
)
from covmin.lattice import Lattice
from covmin.polytope import Polytope

F = Fraction


def formula_cr(P):
    """Covering radius of a slice by exact family formulas (test-local oracle)."""
    sides = match_box(P)
    if sides is not None:
        return TableEntry.exact(max(F(1) / (b - a) for a, b in sides), "box formula")
    w = match_weighted_simplex(P)
    if w is not None:
        return TableEntry.exact(weighted_covering_radius(w), "cr formula")
    raise AssertionError(f"unrecognized slice {P}")


def exact_terminal_leaf(P, i):
    """Leaf resolver for the recursion on terminal simplices: exact values only."""
    w = match_weighted_simplex(P)
    assert w is not None
    if i == w.d:
        return TableEntry.exact(weighted_covering_radius(w), "cr formula")
    assert i == 1
    ws = w.sorted()
    return TableEntry.exact(1 / (ws[0] + ws[1]), "width formula")


class TestProjectionBound:
    def test_sharp_for_direct_sums(self):
        seg = box_minima_table([(-1, 1)])
        cross2 = crosspolytope_table(2)
        cross3 = crosspolytope_table(3)
        for i in range(4):
            report = projection_bound(seg, cross2, i)
            assert report.method == PROJECTION_THM
            assert report.entry.value == cross3[i].value
            assert not report.entry.conjectured

    def test_cube_loose_bound(self):
        square = box_minima_table([(-1, 1), (-1, 1)])
        seg = box_minima_table([(-1, 1)])
        report = projection_bound(square, seg, 2)
        assert report.entry.value == 1  # valid but loose; the true value is 1/2
        assert report.witness == 1

    def test_terminal_recursion_step(self):
        # one hyperplane split of the d=3 terminal simplex at i=2
        t2 = weighted_minima_table(weights([1, 1, 1]))
        seg = weighted_minima_table(weights([F(1, 3), 1]))
        report = projection_bound(t2, seg, 2)
        assert report.entry.value == max(F(1), F(1, 2) + F(3, 4))
        assert not report.entry.conjectured


class TestIntersectionBound:
    def test_cube_slices(self):
        report = intersection_bound(cube(3), Lattice.standard(3), 2, formula_cr)
        assert report.entry.value == F(1, 2)
        assert report.witness == (0, 1)
        assert report.method == INTERSECTION_THM

    @pytest.mark.parametrize("d,i", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_terminal_matches_closed_form(self, d, i):
        report = intersection_bound(terminal_simplex(d), Lattice.standard(d), i, formula_cr)
        assert report.entry.value == terminal_intersection_bound(d, i)

    def test_weighted_maximizer_witness(self):
        report = intersection_bound(
            weighted_simplex(weights([1, 2, 3])), Lattice.standard(2), 1, formula_cr
        )
        assert report.witness == (0,)
        assert report.entry.value == F(4, 11)

    def test_degenerate_slice_rejected(self):
        flat = Polytope([(0, 0), (1, 1), (1, -1)])
        off_origin = Polytope([(1, 1), (2, 1), (1, 2)])  # every axis slice is empty
        for P in (flat, off_origin):
            with pytest.raises(SliceDegenerate):
                intersection_bound(P, Lattice.standard(2), 1, formula_cr)

    def test_respects_lattice_basis(self):
        # doubling the lattice along x doubles the body in basis coordinates
        lat = Lattice([[2, 0], [0, 1]])
        report = intersection_bound(cube(2, 2), lat, 1, formula_cr)
        assert report.entry.value == F(1, 2)  # slices are [-1,1] and [-2,2] in coefficients


class TestKLChain:
    @pytest.mark.parametrize("d,i", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_terminal_chain(self, d, i):
        lam = [F(d, d + 1)] * d
        report = kl_bound(1, TableEntry.exact(F(1, 2), "width"), lam, i)
        assert report.entry.value == F(1, 2) + (i - 1) * F(d, d + 1)
        assert report.entry.value == terminal_kl_bound(d, i)
        assert report.method == KL_LEMMA

    def test_cube_chain_loose(self):
        lam = [F(1, 2)] * 3
        report = kl_bound(1, TableEntry.exact(F(1, 2), "width"), lam, 3)
        assert report.entry.value == F(3, 2)  # loose; every minimum of the cube is 1/2

    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRange):
            kl_bound(2, TableEntry.exact(1, "x"), [F(1, 2)] * 3, 2)


class TestTerminalClosedForms:
    def test_frozen_values(self):
        assert terminal_projection_bound(3, 2) == F(5, 4)
        assert terminal_projection_bound(4, 3) == F(41, 20)
        assert terminal_intersection_bound(3, 2) == F(5, 4)
        assert terminal_intersection_bound(4, 3) == F(9, 5)
        assert terminal_kl_bound(4, 3) == F(21, 10)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_projection_vs_kl(self, d):
        for i in range(2, d + 1):
            proj = terminal_projection_bound(d, i)
            chain = terminal_kl_bound(d, i)
            assert proj <= chain
            assert (proj == chain) == (i == 2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_weighted_matches_terminal_specialization(self, d):
        ones = weights([1] * (d + 1))
        for i in range(1, d):
            value, ok = weighted_intersection_bound(ones, i)
            assert ok
            assert value == terminal_intersection_bound(d, i)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_bounds_never_undercut_projection_lower_bound(self, d):
        for i in range(2, d + 1):
            assert terminal_projection_bound(d, i) >= F(i, 2)
            assert terminal_intersection_bound(d, i) >= F(i, 2)
            assert terminal_kl_bound(d, i) >= F(i, 2)

    def test_top_index_is_covering_radius(self):
        for d in range(1, 7):
            assert terminal_intersection_bound(d, d) == F(d, 2)


class TestWeightedIntersection:
    def test_value_cross_check(self):
        value, ok = weighted_intersection_bound(weights([1, 1, 2, 2]), 2)
        assert ok
        assert value == F(11, 12)

    def test_requires_sorted(self):
        with pytest.raises(UnsortedWeights):
            weighted_intersection_bound(weights([2, 1, 1]), 1)

    def test_maximizer_seeded(self):
        rng = random.Random(13)
        for _ in range(10):
            d = rng.randint(2, 6)
            w = weights(sorted(
                F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(d + 1)
            ))
            for i in range(1, d):
                _, ok = weighted_intersection_bound(w, i)
                assert ok


class TestBoundTable:
    def test_rows(self):
        rows = {(d, i): (p, n, k, c) for d, i, p, n, k, c in bound_table(range(3, 5), range(2, 4))}
        assert rows[(3, 2)] == (F(5, 4), F(5, 4), F(5, 4), F(1))
        assert rows[(4, 2)] == (F(13, 10), F(7, 5), F(13, 10), F(1))
        assert rows[(4, 3)] == (F(41, 20), F(9, 5), F(21, 10), F(3, 2))

    def test_skips_invalid_pairs(self):
        assert all(2 <= i <= d for d, i, *_ in bound_table(range(2, 6), range(1, 8)))


class TestProjectionRecursion:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_closed_form_on_terminal(self, d):
        P = terminal_simplex(d)
        for i in range(2, d):
            report = projection_recursion(P, i, exact_terminal_leaf)
            assert report.entry.value == terminal_projection_bound(d, i)
            assert not report.entry.conjectured

    def test_requires_origin(self):
        P = terminal_simplex(2).translate((10, 10))
        with pytest.raises(OriginMissing):
            projection_recursion(P, 1, exact_terminal_leaf)
