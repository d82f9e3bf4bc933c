"""Family constructors and their closed-form covering minima."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covmin.errors import IndexOutOfRange, InputError, NonPositiveWeight, UnsortedWeights
from covmin.families import (
    MinimaTable,
    TableEntry,
    box,
    box_minima_table,
    combine_direct_sum,
    crosspolytope,
    crosspolytope_table,
    cube,
    direct_sum_table,
    match_box,
    match_weighted_simplex,
    recognize,
    segment,
    terminal_polytope,
    terminal_simplex,
    weighted_conjectured_minimum,
    weighted_covering_radius,
    weighted_minima_table,
    weighted_simplex,
    weighted_slice,
    weights,
)
from covmin.polytope import Polytope, coord_slice, direct_sum

F = Fraction


def segment_sum(segments):
    """The body with vertices ``a_j e_j`` and ``b_j e_j``: a direct sum of segments."""
    d = len(segments)
    return Polytope([
        tuple(end if k == j else 0 for k in range(d))
        for j, seg in enumerate(segments) for end in seg
    ])


def largest_reciprocals(segments, i):
    """Sum of the ``i`` largest reciprocal segment lengths."""
    recips = sorted((1 / (F(b) - F(a)) for a, b in segments), reverse=True)
    return sum(recips[:i], F(0))

pos_weight = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)


class TestWeightedSimplex:
    def test_ones_gives_terminal(self):
        P = weighted_simplex(weights([1, 1, 1]))
        assert P == Polytope([(-1, -1), (1, 0), (0, 1)])
        assert P == terminal_simplex(2)

    def test_slice_of_terminal(self):
        P = weighted_simplex(weights([F(1, 2), 1, 1]))
        assert P == Polytope([(F(-1, 2), F(-1, 2)), (1, 0), (0, 1)])

    def test_two_entries_gives_segment(self):
        P = weighted_simplex(weights([F(1, 3), 2]))
        assert P == Polytope([(F(-1, 3),), (2,)])

    def test_positive_weights_required(self):
        with pytest.raises(NonPositiveWeight):
            weights([1, 0, 1])

    def test_origin_always_interior(self):
        for w in ([1, 2, 3], [F(1, 5), F(7, 2), 1, 1]):
            assert weighted_simplex(weights(w)).has_interior_origin()


class TestWeightedFormulas:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_terminal_covering_radius(self, d):
        assert weighted_covering_radius(weights([1] * (d + 1))) == F(d, 2)

    def test_slice_weight_example(self):
        assert weighted_covering_radius(weights([F(1, 2), 1, 1])) == F(5, 4)

    @given(pos_weight, pos_weight)
    def test_segment_case_is_reciprocal_length(self, a, b):
        assert weighted_covering_radius(weights([a, b])) == 1 / (a + b)

    @given(st.permutations([F(1, 2), 1, 2, 3]))
    def test_symmetric_under_permutation(self, perm):
        assert weighted_covering_radius(weights(perm)) == weighted_covering_radius(
            weights([F(1, 2), 1, 2, 3])
        )

    @pytest.mark.parametrize("d,i", [(d, i) for d in range(1, 6) for i in range(1, d + 1)])
    def test_terminal_conjectured_minimum(self, d, i):
        assert weighted_conjectured_minimum(weights([1] * (d + 1)), i) == F(i, 2)

    def test_first_minimum_example(self):
        assert weighted_conjectured_minimum(weights([1, 2, 3]), 1) == F(1, 3)

    @given(st.lists(pos_weight, min_size=2, max_size=5))
    def test_top_index_matches_covering_radius(self, ws):
        w = weights(sorted(ws))
        assert weighted_conjectured_minimum(w, w.d) == weighted_covering_radius(w)

    def test_requires_sorted(self):
        with pytest.raises(UnsortedWeights):
            weighted_conjectured_minimum(weights([2, 1, 1]), 1)


class TestWeightedSlice:
    @pytest.mark.parametrize("d,i", [(3, 1), (3, 2), (4, 2), (5, 3)])
    def test_terminal_slice_weights(self, d, i):
        w = weights([1] * (d + 1))
        got = weighted_slice(w, tuple(range(i)))
        assert got.entries == tuple([F(1, d - i + 1)] + [F(1)] * i)

    def test_full_set_identity(self):
        w = weights([F(2, 3), 1, 4])
        assert weighted_slice(w, (0, 1)).entries == w.entries

    def test_mixed_weights_example(self):
        w = weights([1, 1, 2, 2])
        got = weighted_slice(w, (1, 2))
        assert got.entries == (F(1, 2), F(2), F(2))

    def test_geometric_consistency(self):
        rng = random.Random(7)
        for _ in range(6):
            d = rng.choice([2, 3])
            w = weights([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d + 1)])
            P = weighted_simplex(w)
            for size in range(1, d + 1):
                for idx in itertools.combinations(range(d), size):
                    assert coord_slice(P, idx) == weighted_simplex(weighted_slice(w, idx))

    def test_geometric_consistency_dimension_five(self):
        w = weights([F(1, 2), 1, 1, F(3, 2), 2, 3])
        P = weighted_simplex(w)
        for size in range(1, 6):
            for idx in itertools.combinations(range(5), size):
                assert coord_slice(P, idx) == weighted_simplex(weighted_slice(w, idx))


class TestDirectSumTables:
    def test_crosspolytope_values(self):
        t = crosspolytope_table(3)
        assert [e.value for e in t] == [0, F(1, 2), 1, F(3, 2)]

    def test_unimodular_simplex_values(self):
        # conv(0, e_1, e_2, e_3): the zero vertex belongs to every block
        t = recognize(segment_sum([(0, 1)] * 3))
        assert [e.value for e in t] == [0, 1, 2, 3]

    def test_combination_matches_crosspolytope(self):
        seg = box_minima_table([(-1, 1)])
        cross2 = crosspolytope_table(2)
        for i in range(4):
            got = combine_direct_sum(seg, cross2, i)[0]
            assert got.value == crosspolytope_table(3)[i].value

    def test_additivity_at_top_index(self):
        a = weighted_minima_table(weights([F(1, 2), 1]))
        b = weighted_minima_table(weights([1, F(1, 3)]))
        top = combine_direct_sum(a, b, 2)[0]
        assert top.value == a[1].value + b[1].value

    def test_first_index_is_max(self):
        a = weighted_minima_table(weights([F(1, 2), 1]))  # mu_1 = 2/3
        b = weighted_minima_table(weights([1, 1]))  # mu_1 = 1/2
        assert combine_direct_sum(a, b, 1)[0].value == F(2, 3)

    def test_interval_propagation(self):
        a = MinimaTable((
            TableEntry.exact(0, "zero"),
            TableEntry(F(1, 2), F(3, 4), "oracle"),
        ))
        b = MinimaTable((
            TableEntry.exact(0, "zero"),
            TableEntry.exact(1, "exact"),
        ))
        got = combine_direct_sum(a, b, 2)[0]
        assert (got.lo, got.hi) == (F(3, 2), F(7, 4))

    def test_conjectured_flag_propagates_when_decisive(self):
        a = MinimaTable((
            TableEntry.exact(0, "zero"),
            TableEntry.exact(5, "guess", conjectured=True),
        ))
        b = MinimaTable((
            TableEntry.exact(0, "zero"),
            TableEntry.exact(1, "exact"),
        ))
        assert combine_direct_sum(a, b, 1)[0].conjectured
        # dominated conjecture does not taint the certified result
        assert not combine_direct_sum(b, b, 1)[0].conjectured

    def test_any_conjectured_allocation_flags(self):
        # mu_2(T_3) is only known to lie in [1, 5/4], so the allocation
        # 1/2 + mu_2(T_3) may exceed the others and the result is unproven
        t3 = weighted_minima_table(weights([1, 1, 1, 1]))
        got = combine_direct_sum(t3, t3, 3)[0]
        assert got.value == F(3, 2)
        assert got.conjectured

    def test_terminal_polytope_conjectured_table(self):
        t3 = weighted_minima_table(weights([1, 1, 1, 1]))
        t1 = weighted_minima_table(weights([1, 1]))
        combined = direct_sum_table(t3, t1)
        assert [e.lo for e in combined] == [F(i, 2) for i in range(5)]

    def test_index_out_of_range(self):
        a = crosspolytope_table(2)
        with pytest.raises(IndexOutOfRange):
            combine_direct_sum(a, a, 5)


class TestSegmentSums:
    def test_crosspolytope_entry(self):
        assert recognize(segment_sum([(-1, 1)] * 3))[2].value == 1

    def test_unit_lengths(self):
        assert recognize(segment_sum([(0, 1)] * 3))[3].value == 3

    def test_mixed_lengths_pick_largest_reciprocals(self):
        segs = [(-2, 2), (-1, 1), (F(-1, 2), F(1, 2))]
        got = recognize(segment_sum(segs))[2]
        brute = max(
            sum(F(1, 1) / (b - a) for a, b in pick)
            for pick in itertools.combinations(segs, 2)
        )
        assert got.value == brute == F(3, 2)

    def test_origin_required(self):
        # [1, 2] misses the origin, which lies on a facet of the hull
        assert recognize(segment_sum([(1, 2), (-1, 1), (-1, 1)])) is None

    def test_seeded_sums(self):
        rng = random.Random(31)
        for d in range(1, 6):
            for _ in range(8):
                segs = [(F(-rng.randint(1, 4), rng.randint(1, 3)),
                         F(rng.randint(1, 4), rng.randint(1, 3))) for _ in range(d)]
                if rng.random() < 0.25:
                    segs = [(0, b) for _, b in segs]  # the origin is a vertex
                t = recognize(segment_sum(segs))
                assert [e.value for e in t] == [largest_reciprocals(segs, i) for i in range(d + 1)]
                assert not any(e.conjectured for e in t)


class TestConstructors:
    def test_terminal_simplex(self):
        P = terminal_simplex(2)
        assert len(P.vertices) == 3
        assert P.has_interior_origin()

    def test_cube(self):
        assert cube(3, 1) == Polytope(itertools.product((-1, 1), repeat=3))

    def test_crosspolytope(self):
        assert crosspolytope(2) == Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_hulls_match_brute_force(self, d):
        # constructors preload the known hull; it must agree with the generic path
        for fast in (cube(d, F(3, 2)), crosspolytope(d), box([(F(-1, 3), F(1, 2))] * d)):
            generic = Polytope(fast.vertices)
            assert fast.vertices == generic.vertices
            assert fast.facets == generic.facets

    def test_segment_and_box(self):
        assert segment(F(-1, 2), 1) == Polytope([(F(-1, 2),), (1,)])
        for a, b in ((0, 0), (1, F(1, 2))):
            with pytest.raises(InputError):
                segment(a, b)
        b = box([(-1, 1), (F(-1, 2), F(1, 2))])
        assert len(b.vertices) == 4

    def test_terminal_polytope(self):
        P = terminal_polytope([1, 1, 1])
        assert P == crosspolytope(3)

    def test_box_table(self):
        t = box_minima_table([(-1, 1), (F(-1, 2), F(1, 2)), (F(-1, 3), F(1, 3))])
        assert [e.value for e in t] == [0, F(3, 2), F(3, 2), F(3, 2)]


class TestRecognition:
    def test_weighted_roundtrip(self):
        w = weights([F(1, 2), 1, 3])
        assert match_weighted_simplex(weighted_simplex(w)).entries == w.entries

    def test_weighted_rejects_cube(self):
        assert match_weighted_simplex(cube(2)) is None

    def test_weighted_rejects_translate(self):
        P = terminal_simplex(2).translate((F(1, 7), 0))
        assert match_weighted_simplex(P) is None

    def test_box_roundtrip(self):
        sides = [(F(-1), F(1)), (F(-1, 2), F(1, 3))]
        assert match_box(box(sides)) == sides

    def test_box_rejects_simplex(self):
        assert match_box(terminal_simplex(2)) is None

    def test_box_with_redundant_points(self):
        corners = list(itertools.product((-1, 3), (0, 2)))
        midpoints = [(1, 0), (1, 2), (-1, 1), (3, 1)]
        P = Polytope(corners + midpoints + [(F(1, 2), F(1, 3))])
        assert match_box(P) == [(F(-1), F(3)), (F(0), F(2))]

    def test_box_rejects_flat_diagonal(self):
        assert match_box(Polytope([(0, 0), (1, 1), (2, 2)])) is None
        assert match_box(Polytope([(0, 0, 0), (1, 1, 0), (1, 0, 0)])) is None

    def test_box_builds_no_hull(self, monkeypatch):
        import covmin.polytope

        def no_hull(*args):
            raise AssertionError("match_box built a hull")

        monkeypatch.setattr(covmin.polytope, "_hull", no_hull)
        assert match_box(terminal_simplex(5)) is None
        assert match_box(cube(5)) == [(F(-1), F(1))] * 5


class TestRecognize:
    def test_box_tables(self):
        assert recognize(cube(3)) == box_minima_table([(-1, 1)] * 3)
        sides = [(F(-1, 2), 1), (-2, F(1, 3))]
        assert recognize(box(sides)) == box_minima_table(sides)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_crosspolytope_tables(self, d):
        assert recognize(crosspolytope(d)) == crosspolytope_table(d)

    def test_unsorted_weighted_simplex(self):
        w = weights([3, F(1, 2), 2, 1])
        assert recognize(weighted_simplex(w)) == weighted_minima_table(w)

    def test_generic_polygon(self):
        assert recognize(Polytope([(2, 0), (0, 2), (-1, -1), (1, -1)])) is None

    def test_terminal_sum_exact(self):
        t = recognize(terminal_polytope([2, 2]))
        assert [e.value for e in t] == [0, F(1, 2), 1, F(3, 2), 2]
        assert not any(e.conjectured for e in t)

    def test_terminal_sum_conjectured_between(self):
        t = recognize(terminal_polytope([3, 3]))
        assert [i for i, e in enumerate(t) if e.conjectured] == [2, 3, 4, 5]

    def test_blocks_of_several_families(self):
        sides = [(-1, 1), (F(-1, 3), 2)]
        body = direct_sum(direct_sum(box(sides), terminal_simplex(2)), segment(-2, 1))
        want = direct_sum_table(
            direct_sum_table(box_minima_table(sides), weighted_minima_table(weights([1, 1, 1]))),
            box_minima_table([(-2, 1)]),
        )
        assert recognize(body) == want

    def test_unrecognized_block(self):
        polygon = Polytope([(2, 0), (0, 2), (-1, -1), (1, -1)])
        assert recognize(direct_sum(polygon, segment(-1, 1))) is None

    def test_split_block_missing_origin(self):
        # the x block is conv{1, 2}; the origin is on an edge, not a vertex
        assert recognize(Polytope([(1, 0), (2, 0), (0, 1), (0, -1)])) is None

    def test_combination_inside_generic_brackets(self):
        # brackets of the generic sandwich, which does not split the body
        t = recognize(terminal_polytope([1, 2]))
        assert t[3].value in TableEntry(F(24575, 16384), F(49153, 32768))
        t = recognize(segment_sum([(0, 1)] * 3))
        assert t[2].value in TableEntry(F(65535, 32768), F(2))


class TestTableValidation:
    def test_entry_zero_must_be_zero(self):
        with pytest.raises(InputError):
            MinimaTable((TableEntry.exact(1, "bad"),))

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            MinimaTable((
                TableEntry.exact(0, "zero"),
                TableEntry.exact(2, "a"),
                TableEntry.exact(1, "b"),
            ))

    def test_produced_tables_monotone(self):
        tables = [
            crosspolytope_table(4),
            weighted_minima_table(weights([F(1, 2), 1, 2, 3])),
            box_minima_table([(-1, 1), (-2, 2)]),
        ]
        for t in tables:
            values = [e.lo for e in t]
            assert values == sorted(values)


class TestTableEntry:
    def test_validates(self):
        with pytest.raises(InputError):
            TableEntry(F(1), F(0))

    def test_contains_and_width(self):
        e = TableEntry(F(1, 2), F(3, 2))
        assert F(1) in e and F(1, 2) in e and F(3, 2) in e
        assert F(2) not in e and F(1, 4) not in e
        assert e.width == 1
        exact = TableEntry.exact(F(3, 4), "exact")
        assert F(3, 4) in exact and F(1) not in exact
        assert exact.width == 0

    def test_rendering(self):
        assert str(TableEntry(F(1, 2), F(3, 2))) == "[1/2, 3/2]"
        assert str(TableEntry.exact(F(5, 4), "guess", conjectured=True)) == "5/4"
        assert str(TableEntry.exact(2, "exact")) == "2"
