"""Named verification suites: fixed-seed checks of every closed form against
the certified oracle, runnable from the CLI and reused by the acceptance
tests.  Each check records an expected/actual pair so failures are readable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    bound_table,
    kl_bound,
    terminal_kl_bound,
    terminal_projection_bound,
    weighted_intersection_bound,
)
from .families import (
    TableEntry,
    WeightVector,
    box,
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
from .oracle import (
    DEFAULT_TOL,
    covering_radius,
    lab_minima,
    lattice_width,
    minima_sandwich,
    successive_minima,
    verify_direct_sum,
)
from .polytope import Polytope, coord_slice, difference_body

SUITES = ("direct-sum", "lab", "weighted", "terminal", "kl")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: expected {self.expected}, got {self.actual}"


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(x) for x in value) + ")"
    return str(value)


def _check(name, passed, expected, actual) -> CheckResult:
    return CheckResult(name, bool(passed), _fmt(expected), _fmt(actual))


def _seeded_weights(rng: random.Random, d: int) -> WeightVector:
    return weights([
        Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d + 1)
    ])


def suite_direct_sum(tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    checks = []
    table = crosspolytope_table(3)
    values = tuple(entry.value for entry in table)
    checks.append(_check(
        "crosspolytope combination table", values == (0, Fraction(1, 2), 1, Fraction(3, 2)),
        "(0, 1/2, 1, 3/2)", values,
    ))
    pairs = [("segment + crosspolytope(2)", segment(-1, 1), crosspolytope(2))]
    rng = random.Random(1009)
    for k in range(5):
        a = segment(Fraction(-rng.randint(1, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        b = segment(Fraction(-rng.randint(1, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        pairs.append((f"segment sum seed {k}", a, b))
    for name, K, L in pairs:
        for i in range(1, K.ambient_dim + L.ambient_dim + 1):
            check = verify_direct_sum(K, L, i, tol)
            checks.append(_check(
                f"{name} at index {i}", check.ok,
                f"inside {check.reference} within 2 tol", check.combined,
            ))
    return checks


def suite_lab(tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    checks = []
    for i in (1, 2, 3):
        entry, _ = lab_minima(cube(3), i, tol)
        checks.append(_check(
            f"cube minimum at index {i}", entry.is_exact and entry.value == Fraction(1, 2),
            "1/2", entry,
        ))
    cert = covering_radius(cube(3), tol=tol)
    checks.append(_check(
        "cube oracle confirmation", Fraction(1, 2) in cert.interval
        and cert.interval.width <= 2 * tol,
        "1/2 within 2 tol", cert.interval,
    ))
    entry, _ = lab_minima(crosspolytope(3), 2, tol)
    checks.append(_check(
        "crosspolytope minimum at index 2", entry.lo <= 1 <= entry.hi
        and entry.hi - entry.lo <= 2 * tol,
        "1", entry,
    ))
    sides = [(-1, 1), (Fraction(-1, 2), Fraction(1, 2)), (Fraction(-1, 3), Fraction(1, 3))]
    entry, witness = lab_minima(box(sides), 2, tol)
    per_axis = max(
        max(Fraction(1) / (b - a) for a, b in pick)
        for pick in itertools.combinations([(Fraction(a), Fraction(b)) for a, b in sides], 2)
    )
    checks.append(_check(
        "anisotropic box slice value", entry.is_exact and entry.value == per_axis,
        per_axis, entry,
    ))
    slice_cert = covering_radius(box([sides[0], sides[2]]), tol=tol)
    checks.append(_check(
        "anisotropic box oracle confirmation", per_axis in slice_cert.interval,
        f"{per_axis} inside", slice_cert.interval,
    ))
    return checks


def suite_weighted(tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    checks = []
    rng = random.Random(2024)
    for d in (2, 3):
        count = 10 if d == 2 else 5
        for k in range(count):
            w = _seeded_weights(rng, d)
            expect = weighted_covering_radius(w)
            cert = covering_radius(weighted_simplex(w), tol=tol)
            mid = (cert.interval.lo + cert.interval.hi) / 2
            checks.append(_check(
                f"covering radius formula d={d} seed {k}",
                expect in cert.interval and abs(mid - expect) <= 2 * tol,
                expect, cert.interval,
            ))
    rng = random.Random(7)
    for k in range(10):
        d = rng.choice([2, 3, 4])
        w = _seeded_weights(rng, d)
        body = weighted_simplex(w)
        ok = True
        for size in range(1, d + 1):
            for idx in itertools.combinations(range(d), size):
                if coord_slice(body, idx) != weighted_simplex(weighted_slice(w, idx)):
                    ok = False
        checks.append(_check(
            f"slice weight identity seed {k} (d={d})", ok, "set equality", ok,
        ))
    rng = random.Random(13)
    for k in range(20):
        d = rng.randint(2, 6)
        w = weights(sorted(_seeded_weights(rng, d).entries))
        ok = all(weighted_intersection_bound(w, i)[1] for i in range(1, d))
        checks.append(_check(
            f"intersection maximizer seed {k} (d={d})", ok, "first block maximizes", ok,
        ))
    return checks


def suite_terminal(tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    checks = []
    for d in (2, 3):
        cert = covering_radius(terminal_simplex(d), tol=tol)
        checks.append(_check(
            f"terminal simplex covering radius d={d}",
            Fraction(d, 2) in cert.interval and cert.interval.width <= 2 * tol,
            Fraction(d, 2), cert.interval,
        ))
    for d in range(2, 6):
        width, _ = lattice_width(terminal_simplex(d))
        checks.append(_check(f"terminal width d={d}", width == 2, 2, width))
    width, _ = lattice_width(cube(3))
    checks.append(_check("cube width", width == 2, 2, width))
    expected_rows = {
        (3, 2): (Fraction(5, 4), Fraction(5, 4), Fraction(5, 4), Fraction(1)),
        (4, 2): (Fraction(13, 10), Fraction(7, 5), Fraction(13, 10), Fraction(1)),
        (4, 3): (Fraction(41, 20), Fraction(9, 5), Fraction(21, 10), Fraction(3, 2)),
    }
    rows = {(d, i): rest for d, i, *rest in bound_table(range(3, 5), range(2, 4))}
    for key, want in expected_rows.items():
        got = tuple(rows[key])
        checks.append(_check(f"bound table row {key}", got == want, want, got))
    ordering = all(
        terminal_projection_bound(d, i) <= terminal_kl_bound(d, i)
        and (terminal_projection_bound(d, i) == terminal_kl_bound(d, i)) == (i == 2)
        for d in range(2, 9)
        for i in range(2, d + 1)
    )
    checks.append(_check(
        "projection bound vs chain ordering d<=8", ordering,
        "projection <= chain, equal only at i=2", ordering,
    ))
    s = minima_sandwich(terminal_simplex(3), None, 2, tol)
    checks.append(_check(
        "terminal d=3 sandwich at index 2",
        s.lower >= 1 - tol and s.upper <= Fraction(5, 4) and s.lower <= 1 <= s.upper,
        "[1, 5/4] bracketing 1", f"[{s.lower}, {s.upper}]",
    ))
    return checks


def suite_kl(tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    checks = []
    for d in (2, 3, 4):
        values, _ = successive_minima(difference_body(terminal_simplex(d)))
        want = [Fraction(d, d + 1)] * d
        checks.append(_check(
            f"terminal difference body minima d={d}", values == want, want, values,
        ))
    rng = random.Random(41)
    made = 0
    while made < 4:
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
        body = Polytope(pts)
        if body.dim != 2:
            continue
        made += 1
        width, _ = lattice_width(body)
        lambdas, _ = successive_minima(difference_body(body))
        base = TableEntry.exact(Fraction(1) / width, "reciprocal width")
        chained = kl_bound(1, base, lambdas, 2)
        cert = covering_radius(body, tol=tol)
        checks.append(_check(
            f"chain dominates the oracle seed {made}",
            cert.interval.lo <= chained.hi + tol,
            f"upper bound >= {cert.interval.lo}", chained.hi,
        ))
    lam_cube = [Fraction(1, 2)] * 3
    chained = kl_bound(1, TableEntry.exact(Fraction(1, 2), "width"), lam_cube, 3)
    checks.append(_check(
        "cube chain value", chained.hi == Fraction(3, 2), Fraction(3, 2), chained.hi,
    ))
    return checks


def run_suite(name: str, tol: Fraction = DEFAULT_TOL) -> list[CheckResult]:
    suites = {
        "direct-sum": suite_direct_sum,
        "lab": suite_lab,
        "weighted": suite_weighted,
        "terminal": suite_terminal,
        "kl": suite_kl,
    }
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return suites[name](tol)
