"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The run corpus (every
generator x port scheme x root combination with all checks enabled) is built
once per session and shared by the criteria that quantify over it.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

import binox
from binox.explorer import explore
from binox.families import _assign_ports, condition_failure, generate, parse_spec
from binox.graph import PortNumberedGraph, load_graph, save_graph
from binox.runtime import Environment
from binox.suite import DEFAULT_CHECKS, run_one
from binox.verify import verify_rooted_isomorphism

from conftest import rooted_embedding, to_nx, weetman_failure
from homotopy_oracles import is_simply_connected, unfold_tree_cover

CHORDAL_SIZES = (10, 25, 50, 100, 200)
CHORDAL_SEEDS = tuple(range(1, 8))
PORT_SCHEMES = ("random:7", "random:11", "random:22")
JOHNSON = ("johnson:4,2", "johnson:5,2", "johnson:6,2")
COMPLETE_SIZES = (10, 20, 50, 100)
PATH_SIZES = (10, 50, 200)
TREES = ("tree:n=12,seed=1", "tree:n=100,seed=2", "tree:n=200,seed=3")
ALL_CHECKS = dict.fromkeys(DEFAULT_CHECKS, True)
BUDGET_FACTOR = 50.0


def corpus_specs():
    specs = []
    for n in CHORDAL_SIZES:
        for seed in CHORDAL_SEEDS:
            specs.append(f"chordal:n={n},rate=0.4,seed={seed}")
    specs.extend(JOHNSON)
    specs.extend(f"complete:{n}" for n in COMPLETE_SIZES)
    specs.extend(f"path:{n}" for n in PATH_SIZES)
    specs.extend(TREES)
    return specs


def roots_for(n):
    return sorted({0, n // 3, (2 * n) // 3})


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def corpus():
    """Every criterion-1 run with all checks enabled; rows are plain dicts."""
    rows = []
    started = time.monotonic()
    for spec_str in corpus_specs():
        for scheme in PORT_SCHEMES:
            spec = parse_spec(spec_str, port_scheme=scheme)
            g = generate(spec)
            for root in roots_for(g.n):
                report, _outcome = run_one(
                    g, spec.echo(), scheme, root, BUDGET_FACTOR, ALL_CHECKS
                )
                rows.append(report)
    elapsed = time.monotonic() - started
    print(f"\n[corpus: {len(rows)} runs in {elapsed:.1f}s]")
    return {"rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="session")
def cycle_runs():
    """Criterion-3 runs: cycles with budget 50k, plus the prefix check."""
    results = []
    for k in range(4, 11):
        for scheme in ("canonical", "random:7"):
            g = generate(parse_spec(f"cycle:{k}", port_scheme=scheme))
            out = explore(Environment(g, 0, 50 * k))
            row = {"k": k, "scheme": scheme, "status": out.status, "prefix_ok": None}
            if out.status == "budget_exhausted":
                emap = out.final_map
                cover, _proj, _b = unfold_tree_cover(g, 0, emap.n)
                is_path = max(emap.degree(n) for n in range(emap.n)) <= 2
                row["prefix_ok"] = is_path and rooted_embedding(emap, cover, 0, 0) == []
            results.append(row)
    return results


def test_criterion_1_halting_exploration_on_weetman_families(corpus):
    rows = corpus["rows"]
    chordal_instances = {
        (r.spec, r.port_scheme) for r in rows if r.spec.startswith("chordal")
    }
    assert len(chordal_instances) >= 100
    bad = [
        r for r in rows
        if r.status != "halted"
        or r.checks.get("final_isomorphism") is not True
        or r.checks.get("coverage") is not True
    ]
    detail = f"{len(rows)} runs, {len(chordal_instances)} chordal instances, " \
             f"{corpus['elapsed']:.0f}s"
    if bad:
        detail += f"; first failure: {bad[0].spec} root={bad[0].root} " \
                  f"status={bad[0].status} problems={bad[0].problems[:2]}"
    verdict(1, "halting exploration on Weetman families", not bad, detail)


def test_criterion_2_linear_move_complexity(corpus):
    rows = corpus["rows"]
    max_mpv = {}
    for r in rows:
        if r.spec.startswith("chordal"):
            max_mpv[r.n] = max(max_mpv.get(r.n, 0.0), r.moves_per_vertex)
    ratio_ok = max_mpv[200] <= 2 * max_mpv[25]
    complete = [r for r in rows if r.spec.startswith("complete")]
    anchor = max(r.moves_per_vertex for r in complete if r.n == 20)
    bound = 2 * anchor
    complete_ok = all(r.moves <= bound * r.n for r in complete)
    detail = (
        f"chordal max m/n: " + ", ".join(f"n={n}: {max_mpv[n]:.2f}" for n in sorted(max_mpv))
        + f"; complete bound {bound:.2f}*n"
    )
    verdict(2, "linear move complexity", ratio_ok and complete_ok, detail)


def test_criterion_3_non_halting_on_cycles(cycle_runs):
    halted = [r for r in cycle_runs if r["status"] == "halted"]
    bad_prefix = [
        r for r in cycle_runs
        if r["status"] == "budget_exhausted" and not r["prefix_ok"]
    ]
    statuses = {r["status"] for r in cycle_runs}
    verdict(
        3,
        "non-halting on cycles with cover-prefix maps",
        not halted and not bad_prefix,
        f"{len(cycle_runs)} runs, statuses {sorted(statuses)}",
    )


def test_criterion_4_phase_invariants(corpus):
    rows = corpus["rows"]
    bad = [r for r in rows if r.checks.get("phase_invariants") is not True]
    detail = f"{len(rows)} runs checked phase by phase"
    if bad:
        detail = f"first failure: {bad[0].spec} root={bad[0].root} {bad[0].problems[:2]}"
    verdict(4, "per-phase homomorphism invariants incl. phase-1 ball", not bad, detail)


def test_criterion_5_structural_properties(corpus):
    rows = corpus["rows"]
    bad_tree = [r for r in rows if r.checks.get("cluster_tree") is not True]
    small = [s for s in corpus_specs() if generate(parse_spec(s)).n <= 12]
    not_sc = []
    for s in small:
        if is_simply_connected(generate(parse_spec(s))) != "yes":
            not_sc.append(s)
    detail = f"{len(rows)} cluster-tree checks, {len(small)} small instances through the " \
             f"simple-connectivity oracle"
    if bad_tree or not_sc:
        detail = f"cluster-tree failures: {len(bad_tree)}, not simply connected: {not_sc}"
    verdict(5, "cluster trees and simple connectivity", not bad_tree and not not_sc, detail)


def test_criterion_6_condition_checkers():
    misclassified = []
    for k in range(4, 11):
        g = generate(parse_spec(f"cycle:{k}"))
        w = weetman_failure(g)
        if w is None:
            misclassified.append(f"cycle:{k} accepted")
            continue
        dist = nx.single_source_shortest_path_length(to_nx(g), w["root"])
        if w["condition"] == "triangle":
            u, v = w["edge"]
            ok = (
                dist[u] == dist[v] >= 1
                and not [
                    x for x in range(g.n)
                    if dist[x] == dist[u] - 1 and g.has_edge(x, u) and g.has_edge(x, v)
                ]
            )
        else:
            v = w["vertex"]
            preds = [x for x in g.neighbors(v) if dist[x] == dist[v] - 1]
            ok = len(preds) >= 2 and not nx.is_connected(to_nx(g).subgraph(preds))
        if not ok:
            misclassified.append(f"cycle:{k} witness does not replay")
    accepted = 0
    for n in CHORDAL_SIZES:
        for seed in CHORDAL_SEEDS:
            g = generate(parse_spec(f"chordal:n={n},rate=0.4,seed={seed}"))
            if weetman_failure(g) is not None:
                misclassified.append(f"chordal n={n} seed={seed} rejected")
            else:
                accepted += 1
    for spec in JOHNSON:
        if weetman_failure(generate(parse_spec(spec))) is not None:
            misclassified.append(f"{spec} rejected")
        else:
            accepted += 1
    verdict(
        6,
        "condition checkers classify families correctly",
        not misclassified,
        f"{accepted} accepted, 7 cycles rejected with replayable witnesses"
        if not misclassified else "; ".join(misclassified[:3]),
    )


def test_criterion_7_covering_on_halt(corpus):
    rows = corpus["rows"]
    halted = [r for r in rows if r.status == "halted"]
    bad = [r for r in halted if r.checks.get("covering") is not True]
    detail = f"{len(halted)} halted runs"
    if bad:
        detail = f"first failure: {bad[0].spec} root={bad[0].root} {bad[0].problems[:2]}"
    verdict(7, "map is a simplicial covering at halt", not bad, detail)


def test_criterion_8_determinism():
    problems = []
    for spec_str, scheme, root in (
        ("chordal:n=50,rate=0.4,seed=1", "random:7", 16),
        ("johnson:5,2", "canonical", 4),
        ("cycle:6", "random:11", 0),
    ):
        g = generate(parse_spec(spec_str, port_scheme=scheme))
        budget = int(BUDGET_FACTOR * g.n)
        a = explore(Environment(g, root, budget))
        b = explore(Environment(g, root, budget))
        if a.trace.to_jsonl() != b.trace.to_jsonl():
            problems.append(f"trace differs for {spec_str}")
        ra, _ = run_one(g, spec_str, scheme, root, BUDGET_FACTOR, ALL_CHECKS)
        rb, _ = run_one(g, spec_str, scheme, root, BUDGET_FACTOR, ALL_CHECKS)
        if json.dumps(ra.to_json_dict(), sort_keys=True) != json.dumps(
            rb.to_json_dict(), sort_keys=True
        ):
            problems.append(f"report differs for {spec_str}")
    verdict(
        8,
        "byte-identical traces and reports on reruns",
        not problems,
        "3 configurations re-run" if not problems else "; ".join(problems),
    )


def atlas_dichotomy(max_n, budget_factor):
    """The paper's dichotomy on every connected graph of 2 to ``max_n``
    vertices (the networkx atlas), from every root, under three port
    schemes, each run with every check: a run halts exactly when the
    triangle and interval conditions hold at its root, every halted run
    passes every check, and every run keeps the phase invariants. Returns
    the tally of graphs and of run statuses."""
    tally = Counter()
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n > max_n:
            break
        if not (n >= 2 and nx.is_connected(G)):
            continue
        tally["graphs"] += 1
        pairs = sorted(tuple(sorted(e)) for e in G.edges())
        for scheme in ("canonical", "random:1", "random:2"):
            g = PortNumberedGraph(n, _assign_ports(n, pairs, scheme))
            for root in range(n):
                report, _ = run_one(g, f"atlas:{pairs}", scheme, root, budget_factor, ALL_CHECKS)
                conditions = condition_failure(g, root) is None
                where = (pairs, scheme, root, report.status, report.problems)
                assert (report.status == "halted") == conditions, where
                assert report.checks["phase_invariants"], where
                if conditions:
                    assert all(report.checks.values()), where
                tally[report.status] += 1
    return tally


def test_small_graphs_halt_exactly_where_both_conditions_hold():
    assert atlas_dichotomy(5, BUDGET_FACTOR) == {"graphs": 30, "halted": 324, "budget_exhausted": 87}


@pytest.mark.slow
def test_graphs_of_up_to_7_vertices_halt_exactly_where_both_conditions_hold():
    """The dichotomy on all 995 connected graphs of 2 to 7 vertices, with a
    small budget for the runs that never halt (run with ``-m slow``)."""
    assert atlas_dichotomy(7, 10.0) == {"graphs": 995, "halted": 9915, "budget_exhausted": 10025,
                                        "error_detected": 400}


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["tree:n=10000,seed=1", "chordal:n=10000,rate=0.4,seed=1"])
def test_scaled_runs_halt_with_linear_moves(spec):
    """The paper's guarantees beyond desk scale: halting, an isomorphic map
    and moves/n <= 2 at n = 10^4 (run with ``-m slow``)."""
    g = generate(parse_spec(spec, port_scheme="random:7"))
    report, _ = run_one(g, spec, "random:7", 0, BUDGET_FACTOR,
                        {"final_isomorphism": True, "phase_invariants": True})
    assert report.status == "halted"
    assert report.checks == {"final_isomorphism": True, "phase_invariants": True}
    assert report.moves_per_vertex <= 2


@pytest.mark.slow
def test_dense_run_halts_and_passes_every_check_through_the_cli(tmp_path, capsys):
    """complete:200 (7.9M sensed ball edges) through ``binox explore`` and
    ``binox check`` files: halted, moves/n <= 1, all five checks pass (run
    with ``-m slow``)."""
    from binox.cli import main

    g, trace = str(tmp_path / "g.json"), str(tmp_path / "t.jsonl")
    assert main(["gen", "--spec", "complete:200", "--ports", "random:1", "--out", g]) == 0
    assert main(["explore", "--graph", g, "--root", "0", "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "status=halted" in out
    assert float(out.rsplit("moves_per_vertex=", 1)[1].split()[0]) <= 1
    assert main(["check", "--graph", g, "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "status=halted" in out
    for name in ALL_CHECKS:
        assert f"{name}: pass" in out


# Starts ``binox`` with the given arguments, waits for it and prints its exit
# code and peak RSS (KB) as the last line on stderr.
_LAUNCHER = """import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "binox.cli", *sys.argv[1:]])
_pid, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def _binox_child(args, stdout):
    """Run ``binox`` with ``args`` in a child process; (exit code, the
    child's peak RSS in MB, as wait4 reports it for that child).

    A child that subprocess starts through vfork takes its parent's peak
    RSS into its own at exec, so binox is started by a small launcher
    process, not by this one, whose peak grows with the graphs it holds."""
    env = {**os.environ, "PYTHONPATH": str(Path(binox.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, check=True)
    rc, kb = proc.stderr.splitlines()[-1].split()
    return int(rc), int(kb) / 1024


@pytest.mark.slow
def test_tree_of_100000_vertices_explores_and_checks_in_bounded_memory(tmp_path):
    """tree:n=100000 through ``binox explore`` and ``binox check`` child
    processes: halted at <= 2 moves/vertex, the ``--map`` file reloads as a
    graph rooted-isomorphic to the tree, all five checks pass, explore
    (with ``--map``) below 230 MB and check below 270 MB peak RSS; each
    streams the trace instead of holding it (run with ``-m slow``)."""
    g, trace, out = tmp_path / "g.json", tmp_path / "t.jsonl", tmp_path / "out.txt"
    emap = tmp_path / "m.json"
    ground = generate(parse_spec("tree:n=100000,seed=1", port_scheme="random:1"))
    save_graph(ground, g)
    with open(out, "w") as f:
        rc, explore_mb = _binox_child(["explore", "--graph", str(g), "--root", "0",
                                       "--trace", str(trace), "--map", str(emap)], f)
    words = dict(w.split("=", 1) for w in out.read_text().split())
    assert rc == 0 and words["status"] == "halted"
    assert float(words["moves_per_vertex"]) <= 2
    assert verify_rooted_isomorphism(load_graph(emap), ground, 0) == []
    with open(out, "w") as f:
        rc, check_mb = _binox_child(["check", "--graph", str(g), "--trace", str(trace)], f)
    assert rc == 0
    report = out.read_text()
    assert "status=halted" in report
    assert all(f"{name}: pass" in report for name in ALL_CHECKS)
    assert explore_mb < 230 and check_mb < 270, (explore_mb, check_mb)
