"""Independent checks of covmin's answers.

Nothing here calls covmin or compares against stored output: gauges come
from the vertex lists alone (the least total weight over cones spanned by
``d`` points), widths and closed forms are recomputed from the inputs, and
every test is exact rational arithmetic.

``python3 perfbench/checks.py [--seed N]`` prints every closed form the
checks use for the three workloads at that seed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, lcm


class CheckFailed(Exception):
    """An answer failed an independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- exact linear algebra ------------------------------------------------------


def rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def affine_rank(points) -> int:
    return rank([tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]])


def int_det(m) -> int:
    """Determinant of a small integer matrix by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * int_det(minor)
    return total


def origin_strictly_inside(points) -> bool:
    """Whether the origin is an interior point of a planar point set's hull."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    origin = (0, 0)
    return len(hull) >= 3 and all(
        cross(a, b, origin) > 0 for a, b in zip(hull, hull[1:] + hull[:1])
    )


# -- gauge from a vertex list ----------------------------------------------------


class ConeGauge:
    """Gauge of ``conv(points)`` (origin strictly inside) without a facet list.

    ``gauge(x)`` is the least ``sum(lam)`` with ``x = sum lam_j p_j`` and
    ``lam >= 0``; an optimal basic solution uses ``d`` independent points, so
    the minimum runs over the cones they span.  Each cone stores its
    adjugate with integer entries, scaled so that membership is a sign test.
    """

    def __init__(self, points):
        self.d = d = len(points[0])
        scale = 1
        for p in points:
            for x in p:
                scale = lcm(scale, Fraction(x).denominator)
        self.scale = scale
        ints = sorted({tuple(int(Fraction(x) * scale) for x in p) for p in points})
        self.lo = [Fraction(min(p[i] for p in ints), scale) for i in range(d)]
        self.hi = [Fraction(max(p[i] for p in ints), scale) for i in range(d)]
        self.cones = []
        for subset in itertools.combinations(ints, d):
            cols = [[subset[j][i] for j in range(d)] for i in range(d)]
            det = int_det(cols)
            if det == 0:
                continue
            sign = 1 if det > 0 else -1
            # adj[j][i] = (-1)^(i+j) * minor(i, j) of the column matrix
            adj = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    minor = [row[:j] + row[j + 1:] for k, row in enumerate(cols) if k != i]
                    adj[j][i] = (-1) ** (i + j) * (int_det(minor) if minor else 1)
            rows = [tuple(sign * x for x in row) for row in adj]
            total = tuple(sum(col) for col in zip(*rows))
            self.cones.append((rows, total, abs(det)))

    def gauge(self, x) -> Fraction | None:
        """Exact gauge of ``x``; ``None`` when no cone holds it."""
        x = [Fraction(e) for e in x]
        q = 1
        for e in x:
            q = lcm(q, e.denominator)
        big = [int(e * q) for e in x]
        best = None
        for rows, total, det in self.cones:
            if all(sum(r * v for r, v in zip(row, big)) >= 0 for row in rows):
                value = Fraction(sum(t * v for t, v in zip(total, big)), det)
                if best is None or value < best:
                    best = value
        return None if best is None else best * self.scale / q

    def distance(self, x, bound) -> Fraction | None:
        """``min_m gauge(x - m)`` over integer ``m`` when it is at most ``bound``.

        Every ``m`` with ``gauge(x - m) <= bound`` lies in an explicit box, so
        enumerating that box is a proof; ``None`` means the minimum exceeds
        ``bound``.
        """
        x = [Fraction(e) for e in x]
        ranges = [
            range(ceil(x[i] - bound * self.hi[i]), floor(x[i] - bound * self.lo[i]) + 1)
            for i in range(self.d)
        ]
        best = None
        for m in itertools.product(*ranges):
            g = self.gauge([a - b for a, b in zip(x, m)])
            if g is not None and g <= bound and (best is None or g < best):
                best = g
        return best


def sample_points(rng, d, count=3):
    """Seeded rational points of the unit cube for the upper-end check."""
    out = []
    for _ in range(count):
        q = rng.choice((5, 7, 8, 9, 12))
        out.append(tuple(Fraction(rng.randrange(q), q) for _ in range(d)))
    return out


# -- closed forms ---------------------------------------------------------------


def weighted_covering_radius(w) -> Fraction:
    """Covering radius of the weighted simplex: sum_{j<k} 1/(w_j w_k) / sum_j 1/w_j."""
    inv = [1 / Fraction(x) for x in w]
    pairs = sum((a * b for a, b in itertools.combinations(inv, 2)), Fraction(0))
    return pairs / sum(inv)


def box_minimum(intervals) -> Fraction:
    """Every covering minimum of a box is its largest reciprocal side."""
    return max(1 / (Fraction(b) - Fraction(a)) for a, b in intervals)


def segment_sum_minimum(segments, i) -> Fraction:
    """mu_i of a direct sum of segments: the i largest reciprocal lengths, summed."""
    reciprocals = sorted((1 / (Fraction(b) - Fraction(a)) for a, b in segments), reverse=True)
    return sum(reciprocals[:i], Fraction(0))


def max_plus(a, b, i) -> Fraction:
    """Direct-sum combination max_j (a_j + b_{i-j}) of two minima tables."""
    return max(a[j] + b[i - j] for j in range(len(a)) if 0 <= i - j < len(b))


def terminal_upper_bound(d, i) -> Fraction:
    """Least of the paper's projection, intersection and chain bounds for T_d."""
    projection = Fraction(1, 2) + sum(
        (Fraction(d - j, d - j + 1) for j in range(i - 1)), Fraction(0))
    intersection = Fraction(i, 2) * (1 + Fraction(d - i, d + 1))
    chain = Fraction(1, 2) + (i - 1) * Fraction(d, d + 1)
    return min(projection, intersection, chain)


# -- answer checks ----------------------------------------------------------------


def check_covering(cert, points, tol, closed, samples):
    lo, hi = cert.interval.lo, cert.interval.hi
    require(hi - lo <= tol, f"interval [{lo}, {hi}] wider than {tol}")
    if closed is not None:
        require(lo <= closed <= hi, f"closed form {closed} outside [{lo}, {hi}]")
    body = [tuple(a + b for a, b in zip(p, cert.translation)) for p in points]
    gauge = ConeGauge(body)
    deep = gauge.distance(cert.deep_point, lo)
    require(deep == lo, f"deep point {cert.deep_point} has distance {deep}, not {lo}")
    for x in samples:
        value = gauge.distance(x, hi)
        require(value is not None, f"sample point {x} lies beyond the upper end {hi}")


def check_width(answer, points):
    width, f = answer
    d = len(points[0])
    require(all(Fraction(x).denominator == 1 for x in f) and any(f),
            f"witness {f} is not a nonzero integer vector")
    pts = [tuple(int(x) for x in p) for p in points]

    def width_of(g):
        values = [sum(a * b for a, b in zip(g, p)) for p in pts]
        return max(values) - min(values)

    require(width_of([int(x) for x in f]) == width,
            f"witness {f} has width {width_of([int(x) for x in f])}, not {width}")
    reach = 2 if d <= 4 else 1
    for g in itertools.product(range(-reach, reach + 1), repeat=d):
        if any(g):
            require(width_of(g) >= width, f"functional {g} beats the reported width {width}")


def check_successive_minima(answer, points, closed):
    values, witnesses = answer
    d = len(points[0])
    require(len(values) == d and len(witnesses) == d, "wrong number of minima")
    require(all(a <= b for a, b in zip(values, values[1:])), f"minima {values} decrease")
    require(all(Fraction(x).denominator == 1 for w in witnesses for x in w),
            f"witnesses {witnesses} are not lattice vectors")
    require(int_det([[int(x) for x in w] for w in witnesses]) != 0,
            "witnesses are linearly dependent")
    gauge = ConeGauge(points)
    for value, w in zip(values, witnesses):
        require(gauge.gauge(w) == value, f"witness {w} has gauge {gauge.gauge(w)}, not {value}")
    if closed is not None:
        require(list(values) == list(closed), f"minima {values}, expected {closed}")


def check_sandwich(s, i, tol, closed, lower_limit, upper_limit):
    require(s.index == i, f"answer for index {s.index}, asked {i}")
    require(s.lower <= s.upper + 2 * tol, f"lower {s.lower} above upper {s.upper}")
    if closed is not None:
        require(s.lower <= closed <= s.upper,
                f"closed form {closed} outside [{s.lower}, {s.upper}]")
    if lower_limit is not None:
        require(s.lower >= lower_limit, f"lower {s.lower} below {lower_limit}")
    if upper_limit is not None:
        require(s.upper <= upper_limit, f"upper {s.upper} above {upper_limit}")


def check_sandwich_body(answers, width, tol):
    for i, j in itertools.combinations_with_replacement(sorted(answers), 2):
        require(answers[i].lower <= answers[j].upper + 2 * tol,
                f"lower_{i} {answers[i].lower} above upper_{j} {answers[j].upper}")
    if 1 in answers:
        first = answers[1]
        require(first.lower <= 1 / width <= first.upper,
                f"1/width {1 / width} outside [{first.lower}, {first.upper}]")


if __name__ == "__main__":
    import argparse

    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name in workloads.WORKLOADS:
        for query in workloads.build(name, args.seed):
            print(f"{name:9s}  {query.label:44s}  {query.closed or '-'}")
