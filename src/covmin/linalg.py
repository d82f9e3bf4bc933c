"""Exact rational linear algebra on tuples of ``fractions.Fraction``.

Scalars are ``Fraction`` (always in lowest terms with positive denominator,
which the stdlib guarantees), vectors are tuples of Fractions, matrices are
tuples of row tuples.  Everything here is a pure function of its inputs and
all values are immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, Singular

Rat = Fraction
RatVec = tuple[Fraction, ...]
RatMat = tuple[RatVec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rat(text: str | int) -> Fraction:
    """Parse an exact rational from an int or a ``"p/q"`` / ``"p"`` string.

    Floats are rejected: exactness is the whole point of this package.
    """
    if isinstance(text, bool):
        raise InputError(f"expected a rational, got boolean {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise InputError(
            f"floating point value {text!r} rejected; write rationals as 'p/q' strings"
        )
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational from {text!r}: {exc}") from None


def format_rat(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when it is an integer."""
    return str(x)


def vec(entries) -> RatVec:
    return tuple(Fraction(e) for e in entries)


def mat(rows) -> RatMat:
    m = tuple(tuple(Fraction(e) for e in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise InputError("ragged matrix rows")
    return m


def identity(n: int) -> RatMat:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def vec_add(u: RatVec, v: RatVec) -> RatVec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: RatVec, v: RatVec) -> RatVec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def dot(u: RatVec, v: RatVec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def mat_vec(M: RatMat, v: RatVec) -> RatVec:
    return tuple(dot(row, v) for row in M)


def mat_mul(A: RatMat, B: RatMat) -> RatMat:
    bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in bt) for row in A)


def transpose(M: RatMat) -> RatMat:
    return tuple(zip(*M)) if M else ()


def mat_inverse(M: RatMat) -> RatMat:
    """Exact inverse of a square rational matrix.

    Raises:
        Singular: if the determinant is zero.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise InputError("mat_inverse needs a square matrix")
    a = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise Singular("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def mat_solve(M: RatMat, b: RatVec) -> RatVec | None:
    """Solve ``M x = b`` for square ``M``; ``None`` when ``M`` is singular."""
    n = len(M)
    a = [list(row) + [bi] for row, bi in zip(M, b, strict=True)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def det(M: RatMat) -> Fraction:
    n = len(M)
    a = [list(row) for row in M]
    sign = ONE
    result = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        result *= a[col][col]
        inv = ONE / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * result


def rank(M) -> int:
    """Rank of a rational matrix given as any iterable of rows."""
    a = [list(map(Fraction, row)) for row in M]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][col]
        for i in range(r + 1, rows):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def nullspace(M) -> list[RatVec]:
    """Basis of the rational kernel ``{x : M x = 0}`` via reduced echelon form."""
    a = [list(map(Fraction, row)) for row in M]
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for prow, pcol in enumerate(pivots):
            v[pcol] = -a[prow][fc]
        basis.append(tuple(v))
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b) = s*a + t*b`` and ``g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(M) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row Hermite normal form of an integer matrix.

    Returns ``(H, U)`` with ``H = U @ M``, ``U`` unimodular, and ``H`` in the
    convention used throughout this package: row echelon with zero rows at
    the bottom, each pivot (first nonzero entry of its row) positive, pivot
    columns strictly increasing, and every entry above a pivot reduced into
    ``[0, pivot)``.
    """
    A = [list(map(int, row)) for row in M]
    if A and any(len(row) != len(A[0]) for row in A):
        raise InputError("ragged matrix rows")
    m = len(A)
    n = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if A[i][c] == 0:
                continue
            g, s, t = _xgcd(A[r][c], A[i][c])
            ar, ai = A[r][c] // g, A[i][c] // g
            A[r], A[i] = (
                [s * x + t * y for x, y in zip(A[r], A[i])],
                [-ai * x + ar * y for x, y in zip(A[r], A[i])],
            )
            U[r], U[i] = (
                [s * x + t * y for x, y in zip(U[r], U[i])],
                [-ai * x + ar * y for x, y in zip(U[r], U[i])],
            )
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return tuple(map(tuple, A)), tuple(map(tuple, U))


def integer_kernel(M) -> list[tuple[int, ...]]:
    """Basis of the integer kernel ``{t in Z^n : M t = 0}`` of an integer matrix.

    Works by running :func:`hnf` on ``[M^T | I]``; rows whose ``M^T`` block is
    zero carry unimodular coordinates spanning the kernel lattice.
    """
    rows = [list(map(int, row)) for row in M]
    if not rows:
        return []
    k, n = len(rows), len(rows[0])
    stacked = [[rows[i][j] for i in range(k)] + [1 if j2 == j else 0 for j2 in range(n)] for j in range(n)]
    H, _ = hnf(stacked)
    return [tuple(row[k:]) for row in H if all(x == 0 for x in row[:k]) and any(row[k:])]


def clear_denominators(vectors) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational vectors by the lcm of all denominators to integer vectors.

    Returns ``(integer_vectors, scale)`` with ``integer = scale * rational``.
    """
    vs = [tuple(Fraction(e) for e in v) for v in vectors]
    scale = 1
    for v in vs:
        for e in v:
            scale = lcm(scale, e.denominator)
    ints = [tuple(int(e * scale) for e in v) for v in vs]
    return ints, scale


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = 0
    for e in v:
        g = gcd(g, int(e))
    if g == 0:
        return tuple(int(e) for e in v)
    return tuple(int(e) // g for e in v)
