"""Lattice primitives: duals, generated groups."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covmin.errors import BudgetExceeded
from covmin.lattice import Lattice, group_basis
from covmin.linalg import rank, vec

F = Fraction


class TestLattice:
    def test_membership(self):
        lat = Lattice([[2, 0], [0, 2]])
        assert vec([2, -4]) in lat
        assert vec([1, 0]) not in lat

    def test_dual_of_standard(self):
        lat = Lattice.standard(3)
        assert lat.dual_basis == lat.basis

    def test_dual_dual_is_original(self):
        lat = Lattice([[2, 1], [0, F(1, 3)]])
        assert lat.dual.dual.basis == lat.basis

    def test_dual_pairing_integral(self):
        lat = Lattice([[2, 1], [1, 1]])
        dual = lat.dual
        for f in dual.basis:
            for b in lat.basis:
                assert sum(a * c for a, c in zip(f, b)).denominator == 1


class TestGroupBasis:
    def test_standard_generators(self):
        basis = group_basis([vec([1, 0]), vec([0, 1])], 2)
        assert len(basis) == 2
        assert rank(basis) == 2

    def test_diagonal_projection(self):
        third = F(1, 3)
        basis = group_basis([vec([third, third, third])], 3)
        assert basis == [(third, third, third)]

    def test_gcd_collapse(self):
        basis = group_basis([vec([2, 0]), vec([3, 0])], 2)
        assert basis == [(F(1), F(0))]

    @given(st.lists(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                             min_size=2, max_size=2), min_size=1, max_size=4))
    def test_idempotent_and_spanning(self, gens):
        basis = group_basis(gens, 2)
        again = group_basis(basis, 2) if basis else []
        assert again == basis
        # every generator is an integer combination of the basis
        if basis:
            lat_rank = rank(basis)
            for g in gens:
                coeffs = _solve_in_span(basis, vec(g))
                if any(e != 0 for e in g):
                    assert coeffs is not None
                    assert all(c.denominator == 1 for c in coeffs)
            assert lat_rank == len(basis)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            group_basis([vec([F(1, 2**40), 0]), vec([0, 1])], 2, scale_bits=8)


def _solve_in_span(basis, target):
    """Coefficients expressing target over the basis rows, None if outside the span."""
    rows = [list(b) for b in basis]
    n = len(rows)
    aug = [[rows[j][i] for j in range(n)] + [target[i]] for i in range(len(target))]
    # gaussian elimination on a (dim x n) system
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = F(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    sol = [F(0)] * n
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][n]
    for i in range(len(aug)):
        lhs = sum(rows_dot for rows_dot in (sol[j] * rows[j][i] for j in range(n)))
        if lhs != target[i]:
            return None
    return sol
