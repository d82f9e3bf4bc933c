"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs a tiny slice of each workload (its cheapest queries, the known faults
included) through the benchmark's own loop and checks, in both trace modes,
and checks that the result line has the contracted keys and exactly the
metric names and units that BENCHMARK.json lists.  Exits 0 when all pass.
"""

import json
import sys

import run
import workloads
from tracer import PER_LAYER, Tracer

SLICES = {
    "certify": ("terminal_simplex(2)", "crosspolytope(3)", "box(", "polygon#"),
    "enumerate": ("width terminal_simplex(3)", "width random3#", "width over-cap",
                  "minima DB(terminal_simplex(2))", "minima DB(random simplex#0)"),
    "sandwich": ("minima crosspolytope(3)", "minima terminal_simplex(3)",
                 "minima terminal_simplex(6)"),
}
SEED = 1


def run_slice(name, queries, trace):
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    r = run.Run(queries, tracer)
    try:
        r.round()
    finally:
        if tracer:
            tracer.uninstall()
    if trace:
        metrics = tracer.metrics(r.rounds, r.queries_per_s, r.bracket_gap)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        metrics = r.end_to_end(run.measure_setup(name, SEED))
        units = dict(run.END_TO_END)
    return r, json.loads(run.result_json(r, metrics, units))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        queries = [q for q in workloads.build(name, SEED) if q.label.startswith(SLICES[name])]
        allowed = sum(q.allowed_failure is not None for q in queries)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r, result = run_slice(name, queries, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} differ from {want}")
            if result["attempted"] != len(queries) or result["failed"] != allowed:
                problems.append(f"{name} trace {trace}: attempted {result['attempted']}, "
                                f"failed {result['failed']}; expected {len(queries)}, {allowed}")
            print(f"{name:9s} trace {trace}: {len(queries)} queries, "
                  f"{result['failed']} failed, {len(got)} metrics")
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
