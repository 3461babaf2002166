"""The ground-truth verifiers: isomorphism, coverage, phase invariants."""

import copy
import random

import pytest

from binox.explorer import explore
from binox.graph import Ball, PortNumberedGraph, ball
from binox.homotopy import verify_simplicial_covering
from binox.runtime import Environment, RunTrace
from binox.verify import (
    first_sensed_map,
    reconstruct_final_phi,
    replay_ground,
    verify_coverage,
    verify_phase_invariants,
    verify_rooted_isomorphism,
)

from conftest import gen


def run(spec_or_graph, root=0, factor=50):
    g = gen(spec_or_graph) if isinstance(spec_or_graph, str) else spec_or_graph
    env = Environment(g, root, max(1, int(factor * g.n)))
    return g, explore(env)


class TestRootedIsomorphism:
    def test_explorer_output_matches(self):
        g, out = run("complete:3")
        assert verify_rooted_isomorphism(out.final_map, g, 0).ok

    def test_accepts_snapshot_dicts_too(self):
        g, out = run("johnson:4,2")
        snap = out.trace.final_map()
        assert verify_rooted_isomorphism(snap, g, 0).ok

    def test_path_map_against_cycle_ground(self):
        # a 5-path pretending to map a 6-cycle: degree breaks at the far end
        path_map = PortNumberedGraph(5, [
            (0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1), (3, 0, 4, 1),
        ])
        g = gen("cycle:6")
        res = verify_rooted_isomorphism(path_map, g, 0)
        assert not res.ok
        assert any("vertex count" in p or "port set" in p for p in res.problems)

    def test_renaming_invariance(self):
        g, out = run("chordal:n=18,rate=0.4,seed=3")
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        h = g.renamed(perm)
        assert verify_rooted_isomorphism(out.final_map, h, perm[0]).ok

    def test_label_mismatch_detected(self):
        g = gen("path:3")
        wrong = PortNumberedGraph(3, [(0, 1, 0, 1), (1, 2, 0, 0)])
        res = verify_rooted_isomorphism(wrong, g, 0)
        assert not res.ok


class TestCoverage:
    def test_halted_runs_cover_everything(self):
        for spec in ("complete:5", "chordal:n=22,rate=0.5,seed=5", "tree:n=16,seed=2"):
            g, out = run(spec)
            assert out.status == "halted"
            assert verify_coverage(out.trace, g).ok

    def test_truncated_trace_leaves_vertices_unvisited(self):
        g, out = run("path:6")
        cut = RunTrace()
        cut.events = [
            ev for ev in out.trace.events[:-6]
        ]
        res = verify_coverage(cut, g)
        assert not res.ok
        assert any("unvisited" in p for p in res.problems)

    def test_single_vertex_zero_moves(self):
        g, out = run("path:1")
        assert out.moves == 0
        assert verify_coverage(out.trace, g).ok

    def test_replay_validates_in_ports(self):
        g, out = run("complete:4")
        bad = RunTrace()
        bad.events = copy.deepcopy(out.trace.events)
        for ev in bad.events:
            if ev["kind"] == "move":
                ev["in"] = ev["in"] + 40
                break
        _, problems = replay_ground(bad, g)
        assert problems


class TestPhaseInvariants:
    @pytest.mark.parametrize("spec,root", [
        ("complete:3", 0),
        ("johnson:5,2", 4),
        ("chordal:n=50,rate=0.4,seed=7", 21),
        ("cycle:3", 0),
    ])
    def test_pass_on_weetman_runs(self, spec, root):
        g, out = run(spec, root=root)
        results = verify_phase_invariants(out.trace, g)
        assert results, "no phases recorded"
        assert all(r.ok for _ph, r in results), [
            (ph, r.problems[:2]) for ph, r in results if not r.ok
        ]

    def test_hold_per_phase_even_on_non_halting_runs(self):
        # the per-phase map invariants hold on every graph until an error
        g, out = run("cycle:6")
        results = verify_phase_invariants(out.trace, g)
        assert all(r.ok for _ph, r in results)

    def test_corrupted_snapshot_breaks_surjectivity(self):
        # A halted run's last phase adds no vertices and so no edges. The
        # final map loses a horizontal edge the agent never walks, taken out
        # of the delta that inserted it, so the walk replays unchanged.
        g, out = run("complete:4")
        trace = RunTrace()
        trace.events = copy.deepcopy(out.trace.events)
        final = trace.final_map()
        adj = {}
        for (a, b, pa, pb) in final["edges"]:
            adj.setdefault(a, {})[pa] = b
            adj.setdefault(b, {})[pb] = a
        pos, walked = 0, set()
        for ev in trace.moves():
            nxt = adj[pos][ev["out"]]
            walked.add(frozenset((pos, nxt)))
            pos = nxt
        final_phase = trace.snapshots()[-1][0]
        horizontal = [(d, e) for _ph, d in trace.snapshots() for e in d["edges"]
                      if 0 not in e[:2] and frozenset(e[:2]) not in walked]
        assert horizontal
        delta, edge = horizontal[0]
        delta["edges"].remove(edge)
        assert first_sensed_map(trace, g)[1] == []
        results = dict(verify_phase_invariants(trace, g))
        assert not results[final_phase].ok
        assert any("surjectivity" in p for p in results[final_phase].problems)

    def test_failed_sense_in_a_phase_that_never_ended_is_reported(self):
        # one move senses a neighbour in phase 2, the second ends the budget
        g = gen("johnson:5,2")
        out = explore(Environment(g, 0, 1))
        assert out.status == "budget_exhausted"
        trace = RunTrace()
        trace.events = list(out.trace.events)
        ended = trace.snapshots()[-1][0]
        i = max(k for k, ev in enumerate(trace.events) if ev["kind"] == "sense")
        b = trace.events[i]["ball"]
        assert max(ev["phase"] for ev in trace.events[:i] if ev["kind"] == "phase_start") == ended + 1
        assert [ph for ph, r in verify_phase_invariants(trace, g)] == list(range(1, ended + 1))
        trace.events[i] = dict(trace.events[i], ball=Ball(b.size, [(0, 1, 0, 0), (0, 2, 1, 9)]))
        results = verify_phase_invariants(trace, g)
        assert [ph for ph, r in results] == list(range(1, ended + 2))
        assert all(r.ok for ph, r in results[:-1])
        assert not results[-1][1].ok
        assert results[-1][1].problems[0].endswith("the ball is not the ground ball")

    def test_phase1_map_is_the_homebase_ball(self):
        g, out = run("johnson:5,2")
        _, snap1 = out.trace.snapshots()[0]
        pg = PortNumberedGraph(snap1["n"], snap1["edges"])
        assert ball(pg, 0).signature() == ball(g, 0).signature()

    def test_single_phase_sensing_asserted(self):
        g, out = run("chordal:n=20,rate=0.4,seed=1")
        _first, problems = first_sensed_map(out.trace, g)
        assert problems == []

    def test_phi_is_path_independent(self):
        # recompute phi from scratch along a different edge order and compare
        g, out = run("chordal:n=25,rate=0.5,seed=2")
        phi, problems = reconstruct_final_phi(out.trace, g)
        assert problems == [] and phi is not None
        snap = out.trace.final_map()
        adj = {n: [] for n in range(snap["n"])}
        for (a, b, pa, pb) in snap["edges"]:
            adj[a].append((pa, b))
            adj[b].append((pb, a))
        for order in (False, True):
            image = {0: out.trace.header()["root"]}
            stack = [0]
            while stack:
                n = stack.pop()
                for (p, m) in sorted(adj[n], reverse=order):
                    w = g.step(image[n], p)[0]
                    if m in image:
                        assert image[m] == w
                    else:
                        image[m] = w
                        stack.append(m)
            assert [image[n] for n in range(snap["n"])] == phi


class TestCoveringAtHalt:
    @pytest.mark.parametrize("spec", [
        "complete:6", "johnson:4,2", "chordal:n=30,rate=0.4,seed=8",
    ])
    def test_reconstructed_phi_is_a_simplicial_covering(self, spec):
        g, out = run(spec)
        assert out.status == "halted"
        phi, problems = reconstruct_final_phi(out.trace, g)
        assert problems == []
        assert verify_simplicial_covering(out.final_map, g, phi) == []
