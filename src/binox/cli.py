"""Command line interface.

    binox gen --spec johnson:5,2 --out g.json
    binox explore --graph g.json --root 0 --budget-factor 50 --trace run.jsonl
    binox check --graph g.json --trace run.jsonl
    binox suite --config suite.json --out results/

The trace streams: ``explore`` writes it as the run goes on, a chunk of
events at a time, so a killed run leaves a prefix of it; ``check`` reads and
checks it a chunk at a time, and prints its verdicts once the last line has
been read. Neither holds the whole trace.

Exit codes: ``check`` and ``suite`` exit 0 iff every requested check passed
(``check`` also needs a trace that ends in a terminal event);
``explore`` exits 0 iff the run halted (2 otherwise); any usage or input
error, or an output file that cannot be written, exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .explorer import explore
from .families import generate, parse_spec
from .graph import GraphFormatError, load_graph, save_graph
from .runtime import Environment, TraceFormatError, read_events
from .suite import (DEFAULT_CHECKS, ExperimentConfig, evaluate_trace, format_summary, move_budget,
                    run_suite)


def _error(message):
    """Report an input or usage error; its exit code is 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_gen(args):
    try:
        spec = parse_spec(args.spec, port_scheme=args.ports)
        g = generate(spec)
    except ValueError as e:
        return _error(e)
    if args.out:
        try:
            save_graph(g, args.out)
        except OSError as e:
            return _error(e)
        print(f"{spec.echo()} ports={args.ports}: n={g.n} m={g.m} -> {args.out}")
    else:
        print(g.to_json())
    return 0


def _cmd_explore(args):
    try:
        g = load_graph(args.graph)
    except GraphFormatError as e:
        return _error(e)
    if not (0 <= args.root < g.n):
        return _error(f"root {args.root} out of range for n={g.n}")
    try:
        budget = move_budget(args.budget_factor, g.n)
    except ValueError as e:
        return _error(e)
    try:
        with open(args.trace, "w") if args.trace else contextlib.nullcontext() as out:
            outcome = explore(Environment(g, args.root, budget, out))
        if args.map and outcome.final_map is not None:
            save_graph(outcome.final_map, args.map)
    except OSError as e:
        return _error(e)
    print(
        f"status={outcome.status} moves={outcome.moves} n={g.n} "
        f"moves_per_vertex={outcome.moves / g.n:.3f}"
    )
    return 0 if outcome.status == "halted" else 2


def _cmd_check(args):
    try:
        g = load_graph(args.graph)
    except GraphFormatError as e:
        return _error(e)
    names = DEFAULT_CHECKS
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in DEFAULT_CHECKS]
        if unknown:
            return _error(f"unknown checks {unknown}")
        if not names:
            return _error("--checks names no check")
    checks = dict.fromkeys(names, True)
    # The trace is read as it is checked; nothing is printed before its last
    # line has been read, so a malformed line anywhere gives no verdict.
    try:
        with open(args.trace, encoding="utf-8", errors="surrogateescape") as f:
            events = read_events(f)
            try:
                status, results, problems = evaluate_trace(events, g, checks)
            except TraceFormatError as e:  # the replay refuses the header's root
                events.throw(e)  # raised again with the header's line
                raise
    except (OSError, TraceFormatError) as e:
        return _error(f"{args.trace}: {e}")
    print(f"status={status}")
    for name in sorted(results):
        value = results[name]
        print(f"{name}: {'n/a' if value is None else 'pass' if value else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    if status == "incomplete":
        return _error("trace has no terminal event (halt, budget_exhausted or error_detected)")
    return 0 if not any(v is False for v in results.values()) else 1


def _cmd_suite(args):
    try:
        config = ExperimentConfig.from_json_dict(json.loads(Path(args.config).read_text()))
    except (OSError, ValueError, RecursionError) as e:  # RecursionError: deep nesting
        return _error(f"bad config: {e}")
    try:
        reports, summary = run_suite(config, out_dir=args.out)
    except (OSError, ValueError) as e:  # an unwritable --out, or a factor move_budget refuses
        return _error(e)
    print(format_summary(summary), end="")
    failed = [r for r in reports if not r.passed()]
    print(f"{len(reports)} runs, {len(failed)} with failing checks")
    return 0 if not failed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="binox",
        description="Exploration and mapping of anonymous port-numbered graphs "
        "by a mobile agent with radius-1 sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph from a family spec")
    p.add_argument("--spec", required=True, help="e.g. johnson:5,2 or chordal:n=100,rate=0.4,seed=7")
    p.add_argument("--ports", default="canonical", help="canonical or random:SEED")
    p.add_argument("--out", help="output graph JSON file (stdout if omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("explore", help="run the explorer on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--budget-factor", type=float, default=50.0)
    p.add_argument("--trace", help="write the run trace (JSON lines)")
    p.add_argument("--map", help="write the final map (graph JSON, as gen writes)")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("check", help="verify a trace against its graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--checks", help="comma list: " + ",".join(DEFAULT_CHECKS))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("suite", help="run an experiment suite from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="directory for report.json and summary.txt")
    p.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
