"""Seeded query lists for the covmin benchmark.

A query is one call into covmin's public API, paired with an independent
check of its answer.  ``build(workload, seed)`` returns one round: the same
seed always gives the same bodies in the same order.  Bodies are built as
``Polytope`` objects with no hull computed; every hull is built inside a
timed query.

The call closures look functions up on the ``covmin`` package at call time,
so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "covmin" / "__init__.py").is_file():
    raise SystemExit(f"covmin sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import covmin  # noqa: E402

import checks  # noqa: E402

WORKLOADS = ("certify", "enumerate", "sandwich")
TOL = covmin.oracle.DEFAULT_TOL

# Weight vectors of the d = 3 weighted simplices with weights in {1, 2}; the
# first, all ones, is T_3.  Seeded weights a/b have a heavy cost tail.
WEIGHTS_12 = list(itertools.product((1, 2), repeat=4))

# A 4-dimensional lattice polytope whose width search box holds 30.5M
# candidates although its width is at most 4; lattice_width refuses it.
OVER_CAP_BODY = [
    (-2, -2, -1, -1), (-2, 1, 0, -1), (-2, 2, -2, 2), (1, 1, 2, -1),
    (1, 2, 1, 1), (2, -2, 2, -2), (2, 1, 2, -1), (2, 2, -1, -1),
]


@dataclass
class Query:
    """One timed call and the check of its answer.

    ``allowed_failure`` names the one exception the call may raise because of
    a known fault; any other exception fails the run.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    allowed_failure: str | None = None
    closed: str = ""  # the closed forms the check uses, for the listing in checks.py


# -- point sets built by the benchmark itself ---------------------------------


def frac_points(points):
    return [tuple(Fraction(x) for x in p) for p in points]


def weighted_points(w):
    d = len(w) - 1
    pts = [tuple(-w[0] for _ in range(d))]
    for j in range(d):
        pts.append(tuple(w[j + 1] if k == j else Fraction(0) for k in range(d)))
    return frac_points(pts)


def cross_points(d):
    pts = []
    for j in range(d):
        for s in (1, -1):
            pts.append(tuple(s if k == j else 0 for k in range(d)))
    return frac_points(pts)


def box_points(intervals):
    return frac_points(itertools.product(*intervals))


def segment_sum_points(segments):
    """Vertices ``a_j e_j`` and ``b_j e_j`` of a direct sum of axis segments."""
    d = len(segments)
    return frac_points(
        tuple(end if k == j else 0 for k in range(d)) for j in range(d) for end in segments[j]
    )


def box_label(intervals):
    return ",".join(f"[{a},{b}]" for a, b in intervals)


def difference_points(points):
    return sorted({tuple(a - b for a, b in zip(p, q)) for p in points for q in points})


def random_lattice_points(rng, d, n, r):
    """``n`` uniform integer points of ``[-r, r]^d`` spanning the space."""
    while True:
        pts = frac_points(
            tuple(rng.randint(-r, r) for _ in range(d)) for _ in range(n)
        )
        if checks.affine_rank(pts) == d:
            return pts


def random_polygon_points(rng, n, r, *, origin_interior=False):
    while True:
        pts = random_lattice_points(rng, 2, n, r)
        if not origin_interior or checks.origin_strictly_inside(pts):
            return pts


def seeded_weights(rng, d):
    return [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d + 1)]


def seeded_box(rng, d):
    sides = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    return [(-rng.choice(sides), rng.choice(sides)) for _ in range(d)]


# -- certify -----------------------------------------------------------------


def _covering_query(label, body, points, rng, closed=None):
    samples = checks.sample_points(rng, len(points[0]))

    def check(cert):
        checks.check_covering(cert, points, TOL, closed, samples)

    closed_text = "" if closed is None else f"mu = {closed}"
    return Query(label, lambda: covmin.covering_radius(body), check, closed=closed_text)


def certify(rng: random.Random) -> list[Query]:
    """``covering_radius`` at the default tolerance, once per distinct body."""
    queries = []
    for d in (2, 3):
        pts = weighted_points([Fraction(1)] * (d + 1))
        queries.append(_covering_query(
            f"terminal_simplex({d})", covmin.terminal_simplex(d), pts, rng, Fraction(d, 2)))
    for d in (3, 4):
        queries.append(_covering_query(
            f"crosspolytope({d})", covmin.crosspolytope(d), cross_points(d), rng,
            Fraction(d, 2)))
    for w in WEIGHTS_12[1:]:
        w = [Fraction(x) for x in w]
        queries.append(_covering_query(
            f"weighted_simplex({','.join(map(str, w))})",
            covmin.weighted_simplex(covmin.weights(w)), weighted_points(w), rng,
            checks.weighted_covering_radius(w)))
    for _ in range(3):
        w = seeded_weights(rng, 2)
        queries.append(_covering_query(
            f"weighted_simplex({','.join(map(str, w))})",
            covmin.weighted_simplex(covmin.weights(w)), weighted_points(w), rng,
            checks.weighted_covering_radius(w)))
    for d in (2, 3):
        ivs = seeded_box(rng, d)
        queries.append(_covering_query(
            f"box({box_label(ivs)})", covmin.box(ivs), box_points(ivs), rng, checks.box_minimum(ivs)))
    for k in range(3):
        pts = random_polygon_points(rng, 6, 5)
        queries.append(_covering_query(f"polygon#{k}", covmin.Polytope(pts), pts, rng))
    rng.shuffle(queries)
    return queries


# -- enumerate ---------------------------------------------------------------


def _width_query(label, body, points, allowed_failure=None):
    def check(answer):
        checks.check_width(answer, points)

    return Query(label, lambda: covmin.lattice_width(body), check, allowed_failure)


def _minima_query(label, points, closed=None):
    body = covmin.Polytope(points)

    def check(answer):
        checks.check_successive_minima(answer, points, closed)

    closed_text = "" if closed is None else "lambda = " + ", ".join(map(str, closed))
    return Query(label, lambda: covmin.successive_minima(body), check, closed=closed_text)


def enumerate_(rng: random.Random) -> list[Query]:
    """``lattice_width`` and ``successive_minima`` over their search boxes."""
    queries = []
    for d in (3, 4, 5):
        pts = weighted_points([Fraction(1)] * (d + 1))
        queries.append(_width_query(f"width terminal_simplex({d})", covmin.Polytope(pts), pts))
    # coordinates in [-1, 1] keep the width search box below the candidate
    # cap for every draw: |adj(W)| <= 8 per entry, so bounds <= 3 * 8 * 2
    for k in range(16):
        pts = random_lattice_points(rng, 3, 6, 1)
        queries.append(_width_query(f"width random3#{k}", covmin.Polytope(pts), pts))
    pts = frac_points(OVER_CAP_BODY)
    queries.append(_width_query(
        "width over-cap 4-body", covmin.Polytope(pts), pts, allowed_failure="BudgetExceeded"))
    for d in (2, 3, 4):
        pts = difference_points(weighted_points([Fraction(1)] * (d + 1)))
        queries.append(_minima_query(
            f"minima DB(terminal_simplex({d}))", pts, [Fraction(d, d + 1)] * d))
    # random lattice simplices: 4 affinely independent points of [-2, 2]^3
    for k in range(128):
        pts = difference_points(random_lattice_points(rng, 3, 4, 2))
        queries.append(_minima_query(f"minima DB(random simplex#{k})", pts))
    rng.shuffle(queries)
    return queries


# -- sandwich ----------------------------------------------------------------


class SandwichBody:
    """One body queried at every index ``1..d``, in ascending order.

    ``closed[i]`` is the exact minimum the benchmark computes itself, or
    absent; ``lower_limit[i]`` and ``upper_limit[i]`` bound the bracket where
    the paper's closed forms give bounds.
    """

    def __init__(self, label, body, closed=None, lower_limit=None, upper_limit=None,
                 indices=None):
        self.label = label
        self.body = body
        self.closed = closed or {}
        self.lower_limit = lower_limit or {}
        self.upper_limit = upper_limit or {}
        self.indices = indices or list(range(1, body.ambient_dim + 1))
        self.answers: dict[int, object] = {}

    def queries(self, allowed_failure=None) -> list[Query]:
        out = []
        for i in self.indices:
            def call(i=i):
                return covmin.minima_sandwich(self.body, None, i)

            def check(s, i=i):
                self.answers[i] = s
                checks.check_sandwich(s, i, TOL, self.closed.get(i),
                                      self.lower_limit.get(i), self.upper_limit.get(i))
                if i == self.indices[-1]:
                    self.check_body()

            out.append(Query(f"minima {self.label} i={i}", call, check, allowed_failure,
                             self.closed_text(i)))
        return out

    def closed_text(self, i) -> str:
        parts = []
        if i in self.closed:
            parts.append(f"mu_{i} = {self.closed[i]}")
        if i in self.lower_limit:
            parts.append(f"lower >= {self.lower_limit[i]}")
        if i in self.upper_limit:
            parts.append(f"upper <= {self.upper_limit[i]}")
        return "; ".join(parts)

    def check_body(self):
        width, _ = covmin.lattice_width(self.body)
        checks.check_sandwich_body(self.answers, width, TOL)
        self.answers = {}


def terminal_sandwich(d, indices=None) -> SandwichBody:
    closed = {1: Fraction(1, 2), d: Fraction(d, 2)}
    lower, upper = {}, {}
    for i in range(2, d):
        lower[i] = Fraction(i, 2) - TOL
        upper[i] = checks.terminal_upper_bound(d, i)
    return SandwichBody(f"terminal_simplex({d})", covmin.terminal_simplex(d), closed,
                        lower, upper, indices)


def sandwich(rng: random.Random) -> list[SandwichBody]:
    """``minima_sandwich`` at every index of each body, bodies in seeded order."""
    bodies = [terminal_sandwich(3), terminal_sandwich(4)]
    w = [Fraction(x) for x in rng.choice(WEIGHTS_12[1:])]
    ws = sorted(w)
    bodies.append(SandwichBody(
        f"weighted_simplex({','.join(map(str, w))})",
        covmin.weighted_simplex(covmin.weights(w)),
        {1: 1 / (ws[0] + ws[1]), 3: checks.weighted_covering_radius(w)}))
    t1 = [Fraction(0), Fraction(1, 2)]
    t2 = [Fraction(0), Fraction(1, 2), Fraction(1)]
    bodies.append(SandwichBody(
        "terminal_polytope([1, 2])", covmin.terminal_polytope([1, 2]),
        {i: checks.max_plus(t1, t2, i) for i in (1, 2, 3)}))
    for d in (3, 4):
        bodies.append(SandwichBody(
            f"crosspolytope({d})", covmin.crosspolytope(d),
            {i: Fraction(i, 2) for i in range(1, d + 1)}))
    ivs = seeded_box(rng, 4)
    bodies.append(SandwichBody(
        f"box({box_label(ivs)})", covmin.box(ivs),
        {i: checks.box_minimum(ivs) for i in range(1, 5)}))
    segments = seeded_box(rng, 4)
    bodies.append(SandwichBody(
        f"segment_sum({box_label(segments)})", covmin.Polytope(segment_sum_points(segments)),
        {i: checks.segment_sum_minimum(segments, i) for i in range(1, 5)}))
    for k in range(2):
        pts = random_polygon_points(rng, 6, 5, origin_interior=True)
        bodies.append(SandwichBody(f"polygon#{k}", covmin.Polytope(pts)))
    rng.shuffle(bodies)
    return bodies


def build(workload: str, seed: int) -> list[Query]:
    """One round of the workload's queries for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return certify(rng)
    if workload == "enumerate":
        return enumerate_(rng)
    if workload == "sandwich":
        queries = [q for body in sandwich(rng) for q in body.queries()]
        # T_6 fails at once: match_box hulls its 64-point bounding box
        queries += terminal_sandwich(6, [1, 6]).queries(allowed_failure="BudgetExceeded")
        return queries
    raise ValueError(f"unknown workload {workload!r}")
