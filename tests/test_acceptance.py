"""Acceptance criteria, one test per criterion at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in a
teed log) and asserts the criterion.  Conjectured intermediate values are
checked only for containment in certified brackets, never for equality.
"""

import itertools
import random
import time
from fractions import Fraction

from covmin.bounds import (
    bound_table,
    projection_bound,
    terminal_kl_bound,
    terminal_projection_bound,
    weighted_intersection_bound,
)
from covmin.families import (
    box_minima_table,
    crosspolytope,
    crosspolytope_table,
    cube,
    segment,
    terminal_simplex,
    weighted_covering_radius,
    weighted_simplex,
    weighted_slice,
    weights,
)
from covmin.oracle import (
    covering_radius,
    lab_minima,
    lattice_width,
    minima_sandwich,
    successive_minima,
)
from covmin.polytope import coord_slice, difference_body, direct_sum

F = Fraction
TOL = F(1, 10_000)


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_terminal_covering_radius():
    details = []
    ok = True
    for d in (2, 3):
        start = time.monotonic()
        cert = covering_radius(terminal_simplex(d), tol=TOL)
        elapsed = time.monotonic() - start
        good = (
            F(d, 2) in cert.interval
            and cert.interval.width <= 2 * TOL
            and elapsed <= 60
        )
        ok = ok and good
        details.append(f"d={d} interval {cert.interval} in {elapsed:.1f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_lattice_width():
    ok = True
    details = []
    for d in range(2, 6):
        w, _ = lattice_width(terminal_simplex(d))
        ok = ok and w == 2
        details.append(f"terminal d={d}: {w}")
    for d in range(2, 6):
        w, _ = lattice_width(cube(d))
        ok = ok and w == 2
    details.append("cubes d=2..5: 2")
    report(2, ok, "; ".join(details))


def test_criterion_3_weighted_formula_vs_oracle():
    rng = random.Random(2024)
    ok = True
    checked = 0
    for d in (2, 3):
        for _ in range(10 if d == 2 else 5):
            w = weights([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d + 1)])
            expect = weighted_covering_radius(w)
            cert = covering_radius(weighted_simplex(w), tol=TOL)
            mid = (cert.interval.lo + cert.interval.hi) / 2
            ok = ok and expect in cert.interval and abs(mid - expect) <= 2 * TOL
            checked += 1
    report(3, ok, f"{checked} seeded weight vectors, formula within 2e-4 of oracle")


def test_criterion_4_successive_minima_terminal():
    ok = True
    details = []
    for d in (2, 3, 4):
        values, _ = successive_minima(difference_body(terminal_simplex(d)))
        good = values == [F(d, d + 1)] * d
        ok = ok and good
        details.append(f"d={d}: {values[0]} x{d}")
    report(4, ok, "; ".join(details))


def test_criterion_5_bound_table_and_ordering():
    rows = {(d, i): rest for d, i, *rest in bound_table(range(3, 5), range(2, 4))}
    ok = tuple(rows[(3, 2)][:3]) == (F(5, 4), F(5, 4), F(5, 4))
    ok = ok and tuple(rows[(4, 2)][:3]) == (F(13, 10), F(7, 5), F(13, 10))
    ok = ok and tuple(rows[(4, 3)][:3]) == (F(41, 20), F(9, 5), F(21, 10))
    for d in range(2, 9):
        for i in range(2, d + 1):
            proj, chain = terminal_projection_bound(d, i), terminal_kl_bound(d, i)
            ok = ok and proj <= chain and (proj == chain) == (i == 2)
    report(5, ok, "exact table rows and projection<=chain ordering for d<=8")


def test_criterion_6_terminal3_sandwich():
    s = minima_sandwich(terminal_simplex(3), None, 2, TOL)
    ok = s.lower >= 1 - TOL and s.upper <= F(5, 4) and s.lower <= 1 <= s.upper
    report(6, ok, f"mu_2(terminal d=3) in [{s.lower}, {s.upper}], contains 1")


def test_criterion_7_lab_cube():
    ok = True
    details = []
    for i in (1, 2, 3):
        entry, _ = lab_minima(cube(3), i, TOL)
        ok = ok and entry.is_exact and entry.value == F(1, 2)
        details.append(f"mu_{i}=1/2")
    # oracle confirmation on the slices the corollary consumes, plus the cube
    for body in (segment(-1, 1), cube(2), cube(3)):
        cert = covering_radius(body, tol=TOL)
        mid = (cert.interval.lo + cert.interval.hi) / 2
        ok = ok and F(1, 2) in cert.interval and abs(mid - F(1, 2)) <= 2 * TOL
    report(7, ok, "; ".join(details) + "; oracle confirms 1/2 at every dimension")


def test_criterion_8_direct_sum_equality():
    table = crosspolytope_table(3)
    ok = tuple(e.value for e in table) == (0, F(1, 2), 1, F(3, 2))
    cert = covering_radius(crosspolytope(3), tol=TOL)
    mid = (cert.interval.lo + cert.interval.hi) / 2
    ok = ok and abs(mid - F(3, 2)) <= 2 * TOL
    seg_table = box_minima_table([(-1, 1)])
    cross2 = crosspolytope_table(2)
    for i in range(4):
        rep = projection_bound(seg_table, cross2, i)
        ok = ok and rep.entry.value == table[i].value
    rng = random.Random(1009)
    for _ in range(5):
        a = segment(F(-rng.randint(1, 3), rng.randint(1, 3)),
                    F(rng.randint(1, 3), rng.randint(1, 3)))
        b = segment(F(-rng.randint(1, 3), rng.randint(1, 3)),
                    F(rng.randint(1, 3), rng.randint(1, 3)))
        exact = (covering_radius(a, tol=TOL).interval.lo
                 + covering_radius(b, tol=TOL).interval.lo)
        szum = covering_radius(direct_sum(a, b), tol=TOL)
        mid = (szum.interval.lo + szum.interval.hi) / 2
        ok = ok and abs(mid - exact) <= 4 * TOL
    report(8, ok, "crosspolytope table vs oracle, block projection, 5 seeded additivity pairs")


def test_criterion_9_weighted_maximizer():
    rng = random.Random(13)
    ok = True
    checked = 0
    for _ in range(20):
        d = rng.randint(2, 6)
        w = weights(sorted(
            F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(d + 1)
        ))
        for i in range(1, d):
            _, maximal = weighted_intersection_bound(w, i)
            ok = ok and maximal
            checked += 1
    report(9, ok, f"{checked} exhaustive maximizer checks, first block always attains")


def test_criterion_10_slice_lemma():
    rng = random.Random(7)
    ok = True
    checked = 0
    for _ in range(10):
        d = rng.choice([2, 3, 4])
        w = weights([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d + 1)])
        body = weighted_simplex(w)
        for size in range(1, d + 1):
            for idx in itertools.combinations(range(d), size):
                same = coord_slice(body, idx) == weighted_simplex(weighted_slice(w, idx))
                ok = ok and same
                checked += 1
    report(10, ok, f"{checked} slice/weight identities as canonical vertex sets")
