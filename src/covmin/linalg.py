"""Exact rational linear algebra on tuples of ``fractions.Fraction``.

Scalars are ``Fraction`` (always in lowest terms with positive denominator,
which the stdlib guarantees), vectors are tuples of Fractions, matrices are
tuples of row tuples.  Everything here is a pure function of its inputs and
all values are immutable, so they can be shared freely across threads.

One kernel, :func:`_eliminate`, does every rational row reduction that
inverse, solve, determinant, rank and kernel read: fraction-free Gauss-Jordan
elimination (Bareiss 1968) in ``int``, exact because every entry it holds is
a minor of the row-scaled matrix.  :func:`hnf` (unimodular integer row
operations) is a different algorithm.
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


def _eliminate(rows, cols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators.  Pivots
    are sought in the first ``cols`` columns; later columns ride along.  The
    update ``(p*x - f*y) // prev`` divides exactly: every entry is a minor.

    Returns ``(a, pivots, sign, D, scale)``: the reduced integer rows, whose
    pivot entries all equal the last pivot ``D`` (so ``a / D`` is the reduced
    row echelon form), the pivot columns, the swap parity ``+-1`` and the
    product of the row scales; a nonsingular square input has determinant
    ``sign * D / scale``.
    """
    a = []
    scale = 1
    for row in rows:
        s = lcm(*[x.denominator for x in row])
        a.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    n = len(a)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(n):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
    return a, pivots, sign, prev, scale


def mat_inverse(M: RatMat) -> RatMat:
    """Exact inverse of a square rational matrix.

    Raises:
        Singular: if the determinant is zero.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise InputError("mat_inverse needs a square matrix")
    a, pivots, _, D, _ = _eliminate([(*row, *e) for row, e in zip(M, identity(n))], n)
    if len(pivots) < n:
        raise Singular("matrix is singular")
    return tuple(tuple(Fraction(x, D) for x in row[n:]) for row in a)


def mat_solve(M: RatMat, b: RatVec) -> RatVec | None:
    """Solve ``M x = b`` for square ``M``; ``None`` when ``M`` is singular."""
    n = len(M)
    a, pivots, _, D, _ = _eliminate([(*row, bi) for row, bi in zip(M, b, strict=True)], n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], D) for row in a)


def det(M: RatMat) -> Fraction:
    n = len(M)
    _, pivots, sign, D, scale = _eliminate(M, n)
    if len(pivots) < n:
        return ZERO
    return Fraction(sign * D, scale)


def rank(M) -> int:
    """Rank of a rational matrix given as any iterable of rows."""
    rows = list(M)
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def nullspace(M, cols: int) -> list[RatVec]:
    """Basis of ``{x in Q^cols : M x = 0}``, one vector per free column of the
    reduced echelon form (1 there, 0 at the other free columns); ``M`` may
    have no rows."""
    a, pivots, _, D, _ = _eliminate(M, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [ZERO] * cols
        v[fc] = ONE
        for row, pc in zip(a, pivots):
            v[pc] = Fraction(-row[fc], D)
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


def clear_denominators(vectors) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational vectors by the lcm of all denominators to integer vectors.

    Returns ``(integer_vectors, scale)`` with ``integer = scale * rational``.
    """
    vs = [tuple(Fraction(e) for e in v) for v in vectors]
    scale = lcm(*[e.denominator for v in vs for e in v])
    ints = [tuple(e.numerator * (scale // e.denominator) for e in v) for v in vs]
    return ints, scale


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = 0
    for e in v:
        g = gcd(g, int(e))
    if g == 0:
        return tuple(int(e) for e in v)
    return tuple(int(e) // g for e in v)
