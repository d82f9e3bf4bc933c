"""Exact linear algebra: the elimination kernel and its readers, HNF."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covmin.errors import InputError, Singular
from covmin.linalg import (
    clear_denominators,
    det,
    format_rat,
    hnf,
    identity,
    mat,
    mat_inverse,
    mat_mul,
    mat_solve,
    mat_vec,
    nullspace,
    parse_rat,
    primitive,
    rank,
    transpose,
    vec,
)

F = Fraction


def int_mat(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rat_rows(rows, cols):
    return st.lists(st.lists(small_rat, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    """Rational matrices up to 6 x 7.  Half of them are products ``L R``
    through a random inner size, so rank-deficient matrices are common."""
    n = rows or draw(st.integers(1, 6))
    m = cols or draw(st.integers(1, 7))
    if draw(st.booleans()):
        return mat(draw(rat_rows(n, m)))
    k = draw(st.integers(0, min(n, m)))
    L, R = draw(rat_rows(n, k)), draw(rat_rows(k, m))
    return tuple(
        tuple(sum((L[i][t] * R[t][j] for t in range(k)), F(0)) for j in range(m))
        for i in range(n)
    )


square_matrices = st.integers(1, 6).flatmap(lambda n: rat_matrices(n, n))


def cofactor_det(M):
    """Laplace expansion along the first row: slow, but shares no code with det."""
    if not M:
        return F(1)
    return sum(
        (-1) ** j * M[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(len(M)) if M[0][j]
    )


class TestRationals:
    def test_parse_roundtrip(self):
        for text in ["3/4", "-1/2", "5", "0", "-7/3"]:
            assert format_rat(parse_rat(text)) == text

    def test_parse_int(self):
        assert parse_rat(7) == 7

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            parse_rat(0.5)
        with pytest.raises(InputError):
            parse_rat("not a number")


class TestInverse:
    def test_identity(self):
        assert mat_inverse(identity(3)) == identity(3)

    def test_diagonal(self):
        assert mat_inverse(mat([[2, 0], [0, 2]])) == mat([[F(1, 2), 0], [0, F(1, 2)]])

    def test_unipotent(self):
        assert mat_inverse(mat([[1, 1], [0, 1]])) == mat([[1, -1], [0, 1]])

    def test_singular(self):
        with pytest.raises(Singular):
            mat_inverse(mat([[1, 2], [2, 4]]))

    @given(square_matrices)
    def test_inverse_multiplies_to_identity(self, M):
        if det(M) == 0:
            with pytest.raises(Singular):
                mat_inverse(M)
        else:
            assert mat_mul(M, mat_inverse(M)) == identity(len(M))


def assert_hnf_canonical(H):
    """Pivot columns strictly increase, pivots positive, entries above reduced."""
    last_pivot = -1
    seen_zero_row = False
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero row above a nonzero row"
        p = nz[0]
        assert p > last_pivot
        assert row[p] > 0
        last_pivot = p
    for i, row in enumerate(H):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        p = nz[0]
        for k in range(i):
            assert 0 <= H[k][p] < row[p]


class TestHNF:
    def test_identity(self):
        H, U = hnf(int_mat([[1, 0], [0, 1]]))
        assert H == ((1, 0), (0, 1))
        assert U == ((1, 0), (0, 1))

    def test_example_2x2(self):
        M = int_mat([[2, 4], [1, 3]])
        H, U = hnf(M)
        assert H[0][0] == 1
        assert mat_mul(mat(U), mat(M)) == mat(H)
        assert abs(det(mat(U))) == 1
        assert abs(det(mat(H))) == 2
        assert_hnf_canonical(H)

    def test_single_row(self):
        H, U = hnf(int_mat([[0, 3]]))
        assert mat_mul(mat(U), mat([[0, 3]])) == mat(H)
        assert abs(det(mat(U))) == 1
        assert_hnf_canonical(H)

    def test_negative_pivot_normalized(self):
        H, _ = hnf(int_mat([[-2, 0], [0, -5]]))
        assert H == ((2, 0), (0, 5))

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
    def test_hnf_properties(self, rows):
        M = int_mat(rows)
        H, U = hnf(M)
        assert mat_mul(mat(U), mat(M)) == mat(H)
        assert abs(det(mat(U))) == 1
        assert all(x == int(x) for row in U for x in row)
        assert_hnf_canonical(H)


class TestEliminationKernel:
    @given(square_matrices, st.data())
    def test_solve(self, M, data):
        b = vec(data.draw(st.lists(small_rat, min_size=len(M), max_size=len(M))))
        x = mat_solve(M, b)
        assert (x is None) == (det(M) == 0)
        if x is not None:
            assert mat_vec(M, x) == b

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(rat_matrices(n, n), rat_matrices(n, n))))
    def test_det_multiplicative(self, pair):
        A, B = pair
        assert det(mat_mul(A, B)) == det(A) * det(B)

    @settings(deadline=None)
    @given(square_matrices)
    def test_det_matches_cofactor_expansion(self, M):
        assert det(M) == cofactor_det(M)

    @given(rat_matrices())
    def test_rank_nullity(self, M):
        cols = len(M[0])
        kernel = nullspace(M, cols)
        assert rank(M) + len(kernel) == cols
        assert rank(M) == rank(transpose(M))
        for v in kernel:
            assert mat_vec(M, v) == (0,) * len(M)

    def test_nullspace_without_rows(self):
        assert nullspace([], 3) == list(identity(3))


class TestKernel:
    def test_simple_plane(self):
        # 1 at each free column, minus the reduced row at the pivot column
        assert nullspace([[1, 1, 1]], 3) == [(-1, 1, 0), (-1, 0, 1)]

    def test_kernel_annihilates(self):
        M = [[2, -1, 0, 3], [0, 4, -2, 1]]
        basis = nullspace(M, 4)
        assert len(basis) == 2
        for v in basis:
            for row in M:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_full_rank_kernel_empty(self):
        assert nullspace([[1, 0], [0, 1]], 2) == []

    def test_primitive_vector_recovered(self):
        # the rational kernel of (2 -1) is spanned by (1/2, 1); cleared and
        # made primitive it is (1, 2), as the hull's facet normals need
        ints, _ = clear_denominators(nullspace([[2, -1]], 2))
        assert [primitive(v) for v in ints] == [(1, 2)]


class TestMisc:
    def test_nullspace_orthogonal(self):
        ns = nullspace([vec([1, 1, 1])], 3)
        assert len(ns) == 2
        for v in ns:
            assert sum(v) == 0

    def test_rank(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([]) == 0

    def test_clear_denominators(self):
        ints, scale = clear_denominators([vec([F(1, 3), F(1, 2)])])
        assert scale == 6
        assert ints == [(2, 3)]

    def test_primitive(self):
        assert primitive((4, -6, 2)) == (2, -3, 1)
        assert primitive((0, 0)) == (0, 0)
