"""Closed-loop benchmark of covmin's public API.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0

One process and one thread answer a seeded query list, each query sent
after the previous one returns.  A run repeats whole rounds of the list until
``--seconds`` have passed.  Every answer is checked independently; a wrong
answer, or an exception other than a query's known fault, stops the run with
exit code 1 and no result.  The last line of standard output is the JSON
result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  ``--workload all`` runs each workload in its own process and
prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(sorted_values, p: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import covmin and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


class Run:
    """Whole rounds of one query list, timed one query at a time."""

    def __init__(self, queries, tracer=None):
        self.queries = queries
        self.tracer = tracer
        self.latencies: list[float] = []  # answered queries only
        self.total_s = 0.0  # every query, failed ones too
        self.failures: Counter = Counter()
        self.attempted = 0
        self.rounds = 0
        self.bracket_gap = 0

    def round(self):
        for index, query in enumerate(self.queries):
            self.attempted += 1
            if self.tracer:
                self.tracer.query = index
                self.tracer.enabled = True
            start = perf_counter()
            try:
                answer = query.call()
            except Exception as exc:
                elapsed = perf_counter() - start
                name = type(exc).__name__
                if name != query.allowed_failure:
                    raise RuntimeError(f"{query.label}: unexpected {name}: {exc}") from exc
                self.total_s += elapsed
                self.failures[name] += 1
                continue
            finally:
                if self.tracer:
                    self.tracer.enabled = False
            elapsed = perf_counter() - start
            self.total_s += elapsed
            self.latencies.append(elapsed)
            query.check(answer)
            if hasattr(answer, "upper") and hasattr(answer, "lower"):
                self.bracket_gap += answer.upper - answer.lower
        self.rounds += 1

    def until(self, seconds: float):
        start = perf_counter()
        while True:
            self.round()
            if perf_counter() - start >= seconds:
                return

    @property
    def queries_per_s(self) -> float:
        return len(self.latencies) / self.total_s

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        ordered = sorted(self.latencies)
        p = tail_percentile(len(ordered))
        return {
            "setup_s": setup_s,
            "queries_per_s": self.queries_per_s,
            "query_p50_s": statistics.median(ordered),
            "query_tail_s": percentile(ordered, p) if p else ordered[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def result_json(run: Run, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_workload(args) -> int:
    import workloads
    from checks import CheckFailed
    from tracer import PER_LAYER, Tracer

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    queries = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = Run(queries, tracer)
    try:
        run.until(args.seconds)
    except (CheckFailed, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer:
            tracer.uninstall()

    n = len(run.latencies)
    p = tail_percentile(n)
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} round(s), "
          f"{run.attempted} attempted, {sum(run.failures.values())} failed "
          f"{dict(run.failures) or ''}".rstrip())
    print(f"query_tail_s is p{p} of {n} answered queries" if p else
          f"query_tail_s is the slowest of {n} answered queries")
    if args.trace:
        metrics = tracer.metrics(run.rounds, run.queries_per_s, run.bracket_gap / run.rounds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = run.end_to_end(setup_s)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    line = result_json(run, metrics, units)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(line + "\n")
    if tracer:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    print(line)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and set-up stay per workload."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covmin benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["certify", "enumerate", "sandwich", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covmin" / "__init__.py").is_file():
        print(f"covmin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
