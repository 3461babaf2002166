"""binox benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload thin --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, runs passes over its jobs for
about ``--seconds`` seconds, checks every job's outcome and the repeatability
of its trace and report digests, prints each metric with its unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of untraced passes, with times
in reference seconds (speed.py) so the host's speed cancels. ``--trace 1``
runs one untraced pass, then traced passes with every binox layer wrapped,
and reports the per-layer metrics. perfbench/README.md lists the jobs and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import meter
from tracer import Tracer, layer_totals, leftover_wrappers
from workloads import GROWTH_SIZES, Workload

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("thin", "dense", "corpus")
SETUP_REPS = 15

END_TO_END = {
    "pass_s": "s",
    "explore_s": "s",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace_bytes": "bytes",
    "moves_per_vertex": "moves/vertex",
}

# Self seconds per pass of these span names (plus one traced set-up).
SELF_TIMES = (
    "families.generate", "graph.ball", "graph.relabel", "runtime.sense",
    "graph.signature", "explorer.local_ball", "explorer.check_local_iso",
    "explorer.harvest_ledger", "explorer.snapshot", "runtime.to_jsonl",
    "runtime.from_jsonl", "verify.phase_invariants", "verify.first_sensed_map",
    "verify.final_isomorphism", "verify.coverage", "verify.replay_ground",
    "verify.reconstruct_final_phi", "homotopy.verify_simplicial_covering",
    "graph.cluster_decomposition", "graph.layering", "graph.load_graph",
    "explorer.run", "explorer.plan_cluster_tour", "explorer.apply_ledger",
    "explorer.discover_new_clusters", "runtime.move", "suite.run_suite",
    "suite.evaluate_trace", "cli.main",
)
CALLS = ("graph.ball", "graph.signature", "runtime.move", "runtime.sense")
COUNTS = (
    "runtime.sensed_ball_edges", "explorer.phases", "explorer.pre_vertices",
    "explorer.new_vertices", "explorer.snapshot_edges",
    "explorer.budget_exhausted", "explorer.error_detected",
)
# Growth exponents between the workload's small and large jobs.
GROWTH_E2E = ("explore_s", "check_s", "trace_bytes")
GROWTH_SELF = ("explorer.snapshot", "runtime.to_jsonl", "runtime.from_jsonl", "verify.phase_invariants")


PER_LAYER = {f"{name}_s": "s" for name in SELF_TIMES}
PER_LAYER.update({f"{name}_calls": "count" for name in CALLS})
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER["explorer.new_per_pre_vertex"] = "ratio"
PER_LAYER.update({f"{name}.growth": "log2" for name in
                  GROWTH_E2E + tuple(f"{n}_s" for n in GROWTH_SELF) + ("explorer.snapshot_edges",)})
PER_LAYER["trace.overhead"] = "ratio"
PER_LAYER["trace.unattributed_s"] = "s"


def run_passes(run_pass, seconds, min_passes, after=None):
    """Passes until the next one would end after ``seconds`` of real time;
    ``after`` sees each result as soon as its pass ends."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        if after is not None:
            after(passes[-1])
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def count_failures(passes, reference):
    """One line per failed job of each pass: a wrong outcome, or a trace or
    report digest that differs from the reference pass."""
    ref = reference.digests()
    failures = {}
    for i, p in enumerate(passes):
        for j in p.jobs:
            if not j.ok:
                failures[i, j.key] = f"status={j.status} verdicts={j.verdicts} {j.error}"
        got = p.digests()
        for key in ref:
            if got.get(key) != ref[key]:
                failures.setdefault((i, key), "digest differs from the reference pass")
    return [f"pass {i}: {key}: {why}" for (i, key), why in failures.items()]


def exact_metrics(result):
    halted = [j for j in result.jobs if j.status == "halted"]
    return {
        "trace_bytes": sum(j.trace_bytes for j in result.jobs),
        "moves_per_vertex": sum(j.moves for j in halted) / max(1, sum(j.n for j in halted)),
    }


def measure(workload, seconds):
    """End-to-end metrics; every time is in reference seconds (speed.py),
    each set-up and pass scaled by the host speed sampled while it ran."""
    scales = []  # reference seconds per CPU second, one per pass

    def scaled(run):
        first = len(meter.samples)
        result = run()
        scales.append(meter.scale(first))
        return result

    with meter:
        # a set-up is too short to sample alone; all of them share one scale
        setups = [workload.setup() for _ in range(SETUP_REPS)]
        setup_s = statistics.median(setups) * meter.scale(0)
        passes = run_passes(lambda: scaled(workload.run_pass), seconds, min_passes=2)

    def per_pass(seconds_of):
        return statistics.median(seconds_of(p) * k for p, k in zip(passes, scales))

    metrics = {
        "pass_s": per_pass(lambda p: p.seconds),
        "explore_s": per_pass(lambda p: sum(j.explore_s for j in p.jobs)),
        "check_s": per_pass(lambda p: sum(j.check_s for j in p.jobs)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(exact_metrics(passes[0]))
    print(f"pass scales: {' '.join(f'{k:.4f}' for k in scales)}")
    return passes, count_failures(passes, passes[0]), metrics


def growth(large, small):
    """log2(large / small); 0.0 when the layer does not run on the workload."""
    return math.log2(large / small) if large > 0 and small > 0 else 0.0


def measure_traced(workload, seconds):
    start = perf_counter()
    workload.setup()
    base = run_passes(workload.run_pass, 0, min_passes=1)[0]
    tracer = Tracer(workload)
    per_pass = []  # (self seconds incl. set-up, calls, unattributed seconds)
    first = []  # spans and counts of the first traced pass

    def settle(result):
        spans, counts = tracer.take()
        self_s, calls, covered = layer_totals(spans)
        per_pass.append((self_s + setup_self, calls, result.seconds - covered))
        if not first:
            first.extend((spans, counts))

    workload.tracer = tracer
    with tracer:
        workload.setup(fresh_import=False)
        setup_self = layer_totals(tracer.take()[0])[0]
        traced = run_passes(workload.run_pass, seconds - (perf_counter() - start), 1, settle)
    workload.tracer = None

    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}_s"] = statistics.median(s[name] for s, _, _ in per_pass)
    for name in CALLS:
        metrics[f"{name}_calls"] = per_pass[0][1][name]
    # Counts are exact; the digests show every traced pass repeats the first.
    spans, counts = first
    totals = {name: sum(c[name] for c in counts.values()) for name in COUNTS}
    metrics.update(totals)
    metrics["explorer.new_per_pre_vertex"] = (
        totals["explorer.new_vertices"] / totals["explorer.pre_vertices"]
        if totals["explorer.pre_vertices"] else 0.0)

    small, large = GROWTH_SIZES[workload.name]
    keys = {size: {j.key for j in base.jobs if j.size == size} for size in (small, large)}
    for name in GROWTH_E2E:
        side = {size: sum(getattr(j, name) for j in base.jobs if j.key in keys[size])
                for size in keys}
        metrics[f"{name}.growth"] = growth(side[large], side[small])
    side = {size: layer_totals(spans, keys[size])[0] for size in keys}
    for name in GROWTH_SELF:
        metrics[f"{name}_s.growth"] = growth(side[large][name], side[small][name])
    edges = {size: sum(counts[k]["explorer.snapshot_edges"] for k in keys[size]) for size in keys}
    metrics["explorer.snapshot_edges.growth"] = growth(edges[large], edges[small])
    metrics["trace.overhead"] = statistics.median(p.seconds for p in traced) / base.seconds
    metrics["trace.unattributed_s"] = statistics.median(u for _, _, u in per_pass)

    passes = [base] + traced
    problems = count_failures(passes, base)
    problems += [f"wrapper left installed: {name}" for name in leftover_wrappers()]
    return passes, problems, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "binox" / "__init__.py").is_file():
        print(f"error: binox sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = Workload(args.workload, args.seed, work)
    try:
        if args.trace:
            passes, problems, metrics = measure_traced(workload, args.seconds)
            units = PER_LAYER
        else:
            passes, problems, metrics = measure(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = sum(len(p.jobs) for p in passes)
    failed = len(problems)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print(f"pass seconds: {' '.join(f'{p.seconds:.4f}' for p in passes)}")
    print(f"jobs attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6f}")
    for p in problems:
        print(f"problem: {p}")
    for key, digest in sorted(passes[0].digests().items()):
        print(f"digest {digest} {key}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
