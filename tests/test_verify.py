"""The ground-truth verifiers: isomorphism, coverage, phase invariants."""

import copy
import random

import pytest

from binox.explorer import explore
from binox.graph import Ball, PortNumberedGraph, ball
from binox.homotopy import verify_simplicial_covering
from binox.runtime import Environment, RunTrace, TraceFormatError
from binox.verify import TraceReplay, verify_rooted_isomorphism

import phase_reference
from conftest import gen, moves, renamed, snapshots


def run(spec_or_graph, root=0, factor=50):
    g = gen(spec_or_graph) if isinstance(spec_or_graph, str) else spec_or_graph
    env = Environment(g, root, max(1, int(factor * g.n)))
    return g, explore(env)


class TestRootedIsomorphism:
    def test_explorer_output_matches(self):
        g, out = run("complete:3")
        assert verify_rooted_isomorphism(out.final_map, g, 0) == []

    def test_map_folded_from_the_trace_matches(self):
        g, out = run("johnson:4,2")
        assert verify_rooted_isomorphism(TraceReplay(out.trace.events, g).graph(), g, 0) == []

    def test_path_map_against_cycle_ground(self):
        # a 5-path pretending to map a 6-cycle: degree breaks at the far end
        path_map = PortNumberedGraph(5, [
            (0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1), (3, 0, 4, 1),
        ])
        g = gen("cycle:6")
        problems = verify_rooted_isomorphism(path_map, g, 0)
        assert any("vertex count" in p or "port set" in p for p in problems)

    def test_renaming_invariance(self):
        g, out = run("chordal:n=18,rate=0.4,seed=3")
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        h = renamed(g, perm)
        assert verify_rooted_isomorphism(out.final_map, h, perm[0]) == []

    def test_label_mismatch_detected(self):
        g = gen("path:3")
        wrong = PortNumberedGraph(3, [(0, 1, 0, 1), (1, 2, 0, 0)])
        assert verify_rooted_isomorphism(wrong, g, 0)


_STAR = [(0, 1, 0, 0), (0, 2, 1, 0), (0, 3, 2, 0)]


def _ring(n):
    """The n-cycle whose vertex j leaves on port 0 to j + 1, arriving on port 1."""
    return PortNumberedGraph(n, [(j, (j + 1) % n, 0, 1) for j in range(n)])


# (map, ground, phi) -> the exact problems of verify_rooted_isomorphism
# (map root 0, ground root 0) and of verify_simplicial_covering, in order.
FINAL_CHECK_CASES = {
    "three neighbours, two share an image": (
        PortNumberedGraph(4, _STAR), PortNumberedGraph(4, _STAR + [(1, 2, 1, 1)]), [0, 1, 1, 3],
        ["port set at map vertex 1: [0] vs [0, 1] at 1",
         "port set at map vertex 2: [0] vs [0, 1] at 2"],
        ["edge 0-2 ports (1,0) maps to 0->(2, 0), expected (1,0)",
         "local injectivity at 0: neighbours 1 and 2 both map to 1",
         "ball at 0 not isomorphic to ball at phi(0)=0",
         "degree at 1: 1 vs 2 at phi(1)=1",
         "degree at 2: 1 vs 2 at phi(2)=1"],
    ),
    "degree mismatch": (
        PortNumberedGraph(2, [(0, 1, 0, 0)]), PortNumberedGraph(3, [(0, 1, 0, 0), (1, 2, 1, 0)]),
        [0, 1],
        ["vertex count: map has 2, graph has 3",
         "port set at map vertex 1: [0] vs [0, 1] at 1"],
        ["degree at 1: 1 vs 2 at phi(1)=1"],
    ),
    "port mismatch": (
        PortNumberedGraph(2, [(0, 1, 0, 1)]), PortNumberedGraph(2, [(0, 1, 0, 0)]), [0, 1],
        ["edge at 0 port 0 (far 1) has no counterpart at 0",
         "not connected from its root: reached 1/2"],
        ["edge 0-1 ports (0,1) maps to 0->(1, 0), expected (1,1)",
         "ball at 0 not isomorphic to ball at phi(0)=0",
         "ball at 1 not isomorphic to ball at phi(1)=1"],
    ),
    "missed triangle": (
        _ring(6), _ring(3), [j % 3 for j in range(6)],
        ["vertex count: map has 6, graph has 3",
         "two vertices share an image (a proper cover, not an embedding)"],
        [f"ball at {j} not isomorphic to ball at phi({j})={j % 3}" for j in range(6)],
    ),
    "triangle unfolded": (
        _ring(3), _ring(6), [0, 1, 2],
        ["vertex count: map has 3, graph has 6",
         "vertex 1 reached as both 1 and 4",
         "vertex 2 reached as both 5 and 2"],
        ["edge 2-0 ports (0,1) maps to 2->(3, 1), expected (0,1)",
         "ball at 0 not isomorphic to ball at phi(0)=0",
         "ball at 1 not isomorphic to ball at phi(1)=1",
         "ball at 2 not isomorphic to ball at phi(2)=2"],
    ),
    "not connected from its root": (
        PortNumberedGraph(4, [(0, 1, 0, 0), (2, 3, 1, 0)]),
        PortNumberedGraph(4, [(0, 1, 0, 0), (1, 2, 1, 0), (2, 3, 1, 0)]), [0, 1, 2, 3],
        ["not connected from its root: reached 2/4",
         "port set at map vertex 1: [0] vs [0, 1] at 1"],
        ["degree at 1: 1 vs 2 at phi(1)=1",
         "degree at 2: 1 vs 2 at phi(2)=2"],
    ),
    "phi out of range": (
        PortNumberedGraph(2, [(0, 1, 0, 0)]), PortNumberedGraph(2, [(0, 1, 0, 0)]), [0, 2],
        [],
        ["phi(1)=2 out of range"],
    ),
}


@pytest.mark.parametrize("case", FINAL_CHECK_CASES)
def test_final_checks_report_exact_problems(case):
    h, g, phi, isomorphism, covering = FINAL_CHECK_CASES[case]
    assert verify_rooted_isomorphism(h, g, 0) == isomorphism
    assert verify_simplicial_covering(h, g, phi) == covering


@pytest.mark.parametrize("root", [-1, 5])
def test_replay_refuses_a_root_outside_the_graph(root):
    g, out = run("path:5")
    events = [dict(out.trace.events[0], root=root)] + out.trace.events[1:]
    with pytest.raises(TraceFormatError) as e:
        TraceReplay(events, g)
    assert str(e.value) == f"root {root} out of range for n=5 (trace recorded on another graph?)"


class TestCoverage:
    def test_halted_runs_cover_everything(self):
        for spec in ("complete:5", "chordal:n=22,rate=0.5,seed=5", "tree:n=16,seed=2"):
            g, out = run(spec)
            assert out.status == "halted"
            assert TraceReplay(out.trace.events, g).coverage() == []

    def test_truncated_trace_leaves_vertices_unvisited(self):
        g, out = run("path:6")
        cut = RunTrace()
        cut.events = [
            ev for ev in out.trace.events[:-6]
        ]
        problems = TraceReplay(cut.events, g).coverage()
        assert any("unvisited" in p for p in problems)

    def test_single_vertex_zero_moves(self):
        g, out = run("path:1")
        assert out.moves == 0
        assert TraceReplay(out.trace.events, g).coverage() == []

    def test_replay_validates_in_ports(self):
        g, out = run("complete:4")
        bad = RunTrace()
        bad.events = copy.deepcopy(out.trace.events)
        for ev in bad.events:
            if ev["kind"] == "move":
                ev["in"] = ev["in"] + 40
                break
        assert TraceReplay(bad.events, g).coverage()[0].startswith("move ")


class TestPhaseInvariants:
    @pytest.mark.parametrize("spec,root", [
        ("complete:3", 0),
        ("johnson:5,2", 4),
        ("chordal:n=50,rate=0.4,seed=7", 21),
        ("cycle:3", 0),
    ])
    def test_pass_on_weetman_runs(self, spec, root):
        g, out = run(spec, root=root)
        replay = TraceReplay(out.trace.events, g)
        assert replay.ended, "no phases recorded"
        assert replay.failed == [], [(ph, found[:2]) for ph, found in replay.failed]

    def test_hold_per_phase_even_on_non_halting_runs(self):
        # the per-phase map invariants hold on every graph until an error
        g, out = run("cycle:6")
        replay = TraceReplay(out.trace.events, g)
        assert replay.ended and replay.failed == []

    def test_corrupted_snapshot_breaks_surjectivity(self):
        # A halted run's last phase adds no vertices and so no edges. The
        # final map loses a horizontal edge the agent never walks, taken out
        # of the delta that inserted it, so the walk replays unchanged.
        g, out = run("complete:4")
        trace = RunTrace()
        trace.events = copy.deepcopy(out.trace.events)
        final = phase_reference.final_map(trace)
        adj = {}
        for (a, b, pa, pb) in final["edges"]:
            adj.setdefault(a, {})[pa] = b
            adj.setdefault(b, {})[pb] = a
        pos, walked = 0, set()
        for ev in moves(trace):
            nxt = adj[pos][ev["out"]]
            walked.add(frozenset((pos, nxt)))
            pos = nxt
        final_phase = snapshots(trace)[-1][0]
        horizontal = [(d, e) for _ph, d in snapshots(trace) for e in d["edges"]
                      if 0 not in e[:2] and frozenset(e[:2]) not in walked]
        assert horizontal
        delta, edge = horizontal[0]
        delta["edges"].remove(edge)
        replay = TraceReplay(trace.events, g)
        assert replay.replay_problems() == []
        failed = dict(replay.failed)
        assert final_phase in failed
        assert any("surjectivity" in p for p in failed[final_phase])

    def test_failed_sense_in_a_phase_that_never_ended_is_reported(self):
        # one move senses a neighbour in phase 2, the second ends the budget
        g = gen("johnson:5,2")
        out = explore(Environment(g, 0, 1))
        assert out.status == "budget_exhausted"
        trace = RunTrace()
        trace.events = list(out.trace.events)
        ended = snapshots(trace)[-1][0]
        i = max(k for k, ev in enumerate(trace.events) if ev["kind"] == "sense")
        b = trace.events[i]["ball"]
        assert max(ev["phase"] for ev in trace.events[:i] if ev["kind"] == "phase_start") == ended + 1
        replay = TraceReplay(trace.events, g)
        assert (replay.ended, replay.failed) == (ended, [])
        trace.events[i] = dict(trace.events[i], ball=Ball(b.size, [(0, 1, 0, 0), (0, 2, 1, 9)]))
        replay = TraceReplay(trace.events, g)
        assert replay.ended == ended
        assert [ph for ph, _found in replay.failed] == [ended + 1]
        assert replay.failed[0][1][0].endswith("the ball is not the ground ball")

    def test_walk_off_the_map_in_a_phase_that_never_ended_is_reported(self):
        # the one move of a budget of 1 lies in phase 2, which never ends
        g = gen("johnson:5,2")
        out = explore(Environment(g, 0, 1))
        trace = RunTrace()
        trace.events = copy.deepcopy(out.trace.events)
        ended = snapshots(trace)[-1][0]
        move = moves(trace)[-1]
        move["out"] += 1000
        replay = TraceReplay(trace.events, g)
        assert replay.ended == ended
        assert replay.failed == [(ended + 1, [
            f"trace walks port {move['out']} at map vertex 0 which is not in the map"
        ])]

    def test_phase1_map_is_the_homebase_ball(self):
        g, out = run("johnson:5,2")
        _, snap1 = snapshots(out.trace)[0]
        pg = PortNumberedGraph(snap1["n"], snap1["edges"])
        assert ball(pg, 0).signature() == ball(g, 0).signature()

    def test_single_phase_sensing_asserted(self):
        g, out = run("chordal:n=20,rate=0.4,seed=1")
        assert TraceReplay(out.trace.events, g).replay_problems() == []

    def test_phi_is_path_independent(self):
        # recompute phi from scratch along a different edge order and compare
        g, out = run("chordal:n=25,rate=0.5,seed=2")
        phi, problems = TraceReplay(out.trace.events, g).final_phi()
        assert problems == [] and phi is not None
        snap = phase_reference.final_map(out.trace)
        adj = {n: [] for n in range(snap["n"])}
        for (a, b, pa, pb) in snap["edges"]:
            adj[a].append((pa, b))
            adj[b].append((pb, a))
        for order in (False, True):
            image = {0: out.trace.events[0]["root"]}
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
        phi, problems = TraceReplay(out.trace.events, g).final_phi()
        assert problems == []
        assert verify_simplicial_covering(out.final_map, g, phi) == []
