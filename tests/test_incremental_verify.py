"""The checker's one replay against a from-scratch check of every folded
map and a walk of the moves over the ground, on honest traces and on traces
with corrupted deltas, moves and senses."""

import copy
import gc
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from binox.explorer import explore
from binox.graph import Ball, ball
from binox.runtime import Environment, RunTrace
from binox.suite import DEFAULT_CHECKS, evaluate_trace
from binox.verify import TraceReplay

import phase_reference
from conftest import gen, phase_ledgers, sensed_in, snapshots

SPECS = (
    [f"chordal:n={n},rate={r},seed={s}" for n in (6, 15, 30) for r in (0.0, 0.4, 0.8) for s in (1, 2)]
    + ["johnson:4,2", "johnson:5,2", "complete:5", "path:7"]
    + [f"tree:n={n},seed={s}" for n in (10, 25) for s in (3, 4)]
    + [f"cycle:{k}" for k in (3, 5, 6, 8)]
)

runs = st.tuples(
    st.sampled_from(SPECS),
    st.sampled_from(["canonical", "random:5", "random:41"]),
    st.integers(min_value=0, max_value=1000),
)


def explored(spec, ports, root_seed):
    g = gen(spec, ports)
    root = root_seed % g.n
    return g, explore(Environment(g, root, 50 * g.n))


def assert_agrees(trace, g):
    """The replay's sense record, failing phases, last ended phase and
    coverage are the reference's; returns the replay."""
    replay = TraceReplay(trace.events, g)
    assert (replay.first, replay.replay_problems()) == phase_reference.first_sensed_map(trace, g)
    assert (replay.failed, replay.ended) == phase_reference.failed_and_ended(trace, g)
    assert replay.coverage() == phase_reference.coverage(trace, g)
    return replay


@settings(max_examples=40, deadline=None)
@given(runs)
def test_honest_runs_agree_and_pass(run):
    g, out = explored(*run)
    replay = assert_agrees(out.trace, g)
    assert replay.ended and replay.failed == []
    if out.status == "halted":
        assert replay.coverage() == []
        assert replay.graph().to_json_dict() == out.final_map.to_json_dict()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [f"chordal:n={n},rate={r},seed={s}" for n in (12, 30) for r in (0.2, 0.6) for s in (1, 2)]
        + ["johnson:5,2", "johnson:6,3"]
        + [f"tree:n={n},seed={s}" for n in (10, 40) for s in (3, 4)]
        + [f"cycle:{k}" for k in (4, 7)]
    ),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([0.2, 0.5, 1, 50]),
)
def test_explored_from_the_sense_replay_is_what_the_explorer_marked(spec, ports, root_seed, factor):
    # small budgets cut runs off mid-phase; cycles never halt
    g = gen(spec, f"random:{ports}")
    with phase_ledgers() as ledgers:
        out = explore(Environment(g, root_seed % g.n, max(1, int(factor * g.n))))
    replay = TraceReplay(out.trace.events, g)
    first, problems = replay.first, replay.replay_problems()
    assert problems == []
    assert {v: ph for v, (ph, _u) in first.items()} == sensed_in(ledgers)


def _pick_edge(deltas, data):
    """(delta index, edge index) of a drawn edge; None if no delta has one."""
    with_edges = [k for k, d in enumerate(deltas) if d["edges"]]
    if not with_edges:
        return None
    k = data.draw(st.sampled_from(with_edges))
    return k, data.draw(st.integers(0, len(deltas[k]["edges"]) - 1))


def drop_edge(deltas, data, trace, g):
    picked = _pick_edge(deltas, data)
    if picked:
        k, i = picked
        del deltas[k]["edges"][i]


def _relabel_edge(deltas, data, side):
    picked = _pick_edge(deltas, data)
    if picked:
        k, i = picked
        e = list(deltas[k]["edges"][i])
        e[side] = data.draw(st.integers(0, e[side] + 3).filter(lambda q: q != e[side]))
        deltas[k]["edges"][i] = tuple(e)
        deltas[k]["edges"].sort()


def wrong_far_port(deltas, data, trace, g):
    _relabel_edge(deltas, data, 3)


def wrong_near_port(deltas, data, trace, g):
    _relabel_edge(deltas, data, 2)


def late_edge(deltas, data, trace, g):
    """Log an edge some phases after the one that inserted it."""
    picked = _pick_edge(deltas, data)
    if picked and picked[0] < len(deltas) - 1:
        k, i = picked
        later = deltas[data.draw(st.integers(k + 1, len(deltas) - 1))]
        later["edges"] = sorted(later["edges"] + [deltas[k]["edges"].pop(i)])


def clashing_edge(deltas, data, trace, g):
    """Add an edge that claims a port another edge already holds."""
    picked = _pick_edge(deltas, data)
    if picked:
        k, i = picked
        a, b, pa, pb = deltas[k]["edges"][i]
        later = deltas[data.draw(st.integers(k, len(deltas) - 1))]
        x = data.draw(st.integers(0, later["n"] - 1).filter(lambda v: v != b))
        q = data.draw(st.integers(0, 4))
        later["edges"] = sorted(later["edges"] + [(x, b, q, pb) if x < b else (b, x, pb, q)])


def drop_sense(deltas, data, trace, g):
    """Delete a sense event, so its vertex stays frontier (or becomes
    explored only where it is sensed again)."""
    senses = [i for i, ev in enumerate(trace.events) if ev["kind"] == "sense"]
    del trace.events[data.draw(st.sampled_from(senses))]


CORRUPTIONS = [
    drop_edge, wrong_far_port, wrong_near_port, late_edge, clashing_edge, drop_sense,
]


@settings(max_examples=150, deadline=None)
@given(runs, st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3), st.data())
def test_corrupted_deltas_agree_with_the_reference(run, corruptions, data):
    g, out = explored(*run)
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    deltas = [d for _ph, d in snapshots(trace)]
    for corrupt in corruptions:
        corrupt(deltas, data, trace, g)
    assert_agrees(trace, g)


def _pick_event(trace, kind, data, last=False):
    """A drawn event of ``kind`` (the last one if ``last``); None if there is none."""
    found = [ev for ev in trace.events if ev["kind"] == kind]
    if not found:
        return None
    return found[-1] if last else data.draw(st.sampled_from(found))


def _other(data, value):
    return data.draw(st.integers(0, value + 3).filter(lambda q: q != value))


def wrong_out_port(trace, data):
    ev = _pick_event(trace, "move", data)
    if ev:
        ev["out"] = _other(data, ev["out"])


def off_the_map_last_move(trace, data):
    """The last move takes a port no vertex of these graphs has; in a
    cut-off run it lies in the phase that never ended."""
    ev = _pick_event(trace, "move", data, last=True)
    if ev:
        ev["out"] = 1000 + ev["out"]


def wrong_in_port(trace, data):
    ev = _pick_event(trace, "move", data)
    if ev:
        ev["in"] = _other(data, ev["in"])


def wrong_arrival(trace, data):
    ev = _pick_event(trace, "sense", data)
    if ev:
        ev["arrival"] = data.draw(st.none() | st.integers(0, 6))


def swapped_balls(trace, data):
    a, b = _pick_event(trace, "sense", data), _pick_event(trace, "sense", data)
    if a:
        a["ball"], b["ball"] = b["ball"], a["ball"]


def wrong_ball_port(trace, data):
    ev = _pick_event(trace, "sense", data)
    if ev and ev["ball"].flat:
        flat = list(ev["ball"].flat)
        k = data.draw(st.sampled_from([k for k in range(len(flat)) if k % 4 >= 2]))
        flat[k] = _other(data, flat[k])
        ev["ball"] = Ball(ev["ball"].size, [flat[i:i + 4] for i in range(0, len(flat), 4)])


def duplicated_sense(trace, data):
    """Copy a sense event to a place inside some phase."""
    ev = _pick_event(trace, "sense", data)
    spots = [i + 1 for i, e in enumerate(trace.events) if e["kind"] in ("phase_start", "sense", "move")]
    if ev:
        trace.events.insert(data.draw(st.sampled_from(spots)), copy.deepcopy(ev))


WALK_CORRUPTIONS = [
    wrong_out_port, off_the_map_last_move, wrong_in_port, wrong_arrival, swapped_balls,
    wrong_ball_port, duplicated_sense,
]


@settings(max_examples=150, deadline=None)
@given(
    runs,
    st.sampled_from([0.2, 0.5, 1, 50]),
    st.lists(st.sampled_from(WALK_CORRUPTIONS), min_size=1, max_size=3),
    st.data(),
)
def test_corrupted_moves_and_senses_agree_with_the_reference(run, factor, corruptions, data):
    # small budgets cut runs off mid-phase, so a phase may never end
    spec, ports, root_seed = run
    g = gen(spec, ports)
    out = explore(Environment(g, root_seed % g.n, max(1, int(factor * g.n))))
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    for corrupt in corruptions:
        corrupt(trace, data)
    replay = assert_agrees(trace, g)
    assert replay.final_phi() == phase_reference.reconstruct_final_phi(trace, g)


def test_checks_postponed_while_phi_is_partial_are_caught_up():
    # Vertex 1 loses its only edge to an explored vertex until phase 3, so
    # phi is partial in phases 1 and 2 and their checks wait; the wrong far
    # port logged in phase 2 must be reported once phi is total again. The
    # wrong port is one no vertex of the graph has, so no later edge of
    # vertex 3 is refused for it.
    g, out = explored("chordal:n=6,rate=0.0,seed=1", "random:41", 0)
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    d1, d2, d3 = [d for _ph, d in snapshots(trace)][:3]
    assert d1["edges"][0][:2] == (0, 1) and d2["edges"][0][:2] == (2, 3) and not d3["edges"]
    d3["edges"].append(d1["edges"].pop(0))
    a, b, pa, pb = d2["edges"][0]
    d2["edges"][0] = (a, b, pa, pb + g.n)
    failed = assert_agrees(trace, g).failed
    assert [ph for ph, _found in failed[:3]] == [1, 2, 3]
    assert [found[-1] for _ph, found in failed[:2]] == ["frontier vertex 1 has no explored neighbour"] * 2
    assert any(p.startswith("edge 2-3") for p in failed[2][1])
    assert not any("refused" in p for _ph, found in failed for p in found)


def copied(trace):
    out = RunTrace()
    out.events = copy.deepcopy(trace.events)
    return out


def test_forged_edge_fails_the_triangle_at_the_corner_it_closes():
    # Map vertex 2, explored in phase 2, has the neighbours 3 and 4, which
    # the ground does not join. A forged 3-4 edge in phase 3 touches neither
    # 2 nor its phi: 2 is checked again only as the triangle's third corner.
    g, out = explored("chordal:n=6,rate=0.0,seed=1", "random:41", 0)
    trace = copied(out.trace)
    d3 = snapshots(trace)[2][1]
    assert d3["edges"] == []
    d3["edges"].append((3, 4, g.n, g.n))
    failed = assert_agrees(trace, g).failed
    assert failed[0][0] == 3
    triangle = "triangle preservation at explored 2: pair (3,4) mapped but ground lacks"
    assert any(p.startswith(triangle) for p in failed[0][1])


def test_frontier_neighbour_of_a_newly_explored_vertex_gets_its_phi():
    # Without the homebase's sense, vertex 0 stays frontier with no explored
    # neighbour in phase 1. Phase 2 explores 1 and adds no edge at 0: 0 gets
    # its phi only as a frontier neighbour of 1, and phi is total again.
    g, out = explored("path:6", "canonical", 0)
    trace = copied(out.trace)
    del trace.events[next(i for i, ev in enumerate(trace.events) if ev["kind"] == "sense")]
    d2 = snapshots(trace)[1][1]
    assert d2["n"] == 3 and all(0 not in e[:2] for e in d2["edges"])
    replay = assert_agrees(trace, g)
    assert replay.failed == [(1, ["frontier vertex 0 has no explored neighbour"])]
    assert replay.phi[0] == 0


def test_vertex_problem_of_a_partial_phase_is_reported_on_catch_up():
    # The edge that gives the new vertex 3 its only neighbour moves from
    # phase 3 to phase 4, so phi is partial in phase 3 alone. A forged 1-2
    # edge in phase 3 closes a triangle at 0, explored in phase 1: neither
    # phase touches 0 or changes a phi next to it, so only the catch-up of
    # phase 3's stale vertices and their neighbours checks 0 again.
    g, out = explored("chordal:n=6,rate=0.0,seed=1", "canonical", 0)
    trace = copied(out.trace)
    d3, d4 = [d for _ph, d in snapshots(trace)][2:4]
    assert d3["edges"] == [(1, 3, 1, 0), (1, 4, 2, 0)] and d4["edges"] == [(4, 5, 1, 0)]
    d4["edges"].append(d3["edges"].pop(0))
    d3["edges"].append((1, 2, g.n, g.n))
    failed = assert_agrees(trace, g).failed
    assert [ph for ph, _found in failed[:2]] == [3, 4]
    assert failed[0][1] == ["frontier vertex 3 has no explored neighbour"]
    triangle = "triangle preservation at explored 0: pair (1,2) mapped but ground lacks"
    assert any(p.startswith(triangle) for p in failed[1][1])


def test_two_senses_of_one_ground_vertex_next_to_one_vertex_fail_injectivity():
    # complete:4 from 0, forged: map vertex 1's port 1 (to ground 2) leads to
    # a new vertex 4 and its port 2 (to ground 3) to map vertex 2. Phase 2
    # walks 0 -> 2 -> 1 -> 4 and senses ground 2 at both 2 and 4, two
    # neighbours of 1.
    g = gen("complete:4")
    trace = RunTrace()
    trace.log({"kind": "header", "version": 5, "root": 0, "budget": 100})
    trace.log({"kind": "phase_start", "phase": 1})
    trace.log({"kind": "sense", "arrival": None, "ball": ball(g, 0)})
    trace.log({"kind": "phase_end", "phase": 1, "delta": {"n": 5, "edges": [
        (0, 1, 0, 0), (0, 2, 1, 0), (0, 3, 2, 0), (1, 2, 2, 1), (1, 4, 1, 1), (2, 3, 2, 2)]}})
    trace.log({"kind": "phase_start", "phase": 2})
    for out, arrival, at in [(1, 0, 2), (1, 1, 1), (1, 1, 2)]:
        trace.log({"kind": "move", "out": out, "in": arrival})
        trace.log({"kind": "sense", "arrival": arrival, "ball": ball(g, at)})
    trace.log({"kind": "phase_end", "phase": 2, "delta": {"n": 5, "edges": []}})
    trace.log({"kind": "halt"})
    replay = assert_agrees(trace, g)
    assert replay.first[2] == replay.first[4] == (2, 2)
    assert "local injectivity at 1: neighbours 2 and 4 both map to ground 2" in dict(replay.failed)[2]


class CountedChecks(TraceReplay):
    """A replay that lists, per phase_end, the vertices it ran
    ``_vertex_problems`` on."""

    def __init__(self, events, g):
        self.checked = []
        super().__init__(events, g)

    def apply(self, delta, newly):
        self.checked.append([])
        return super().apply(delta, newly)

    def _vertex_problems(self, n):
        self.checked[-1].append(n)
        return super()._vertex_problems(n)


@pytest.mark.parametrize("n", [200, 400])
def test_star_replay_checks_each_vertex_a_constant_number_of_times(n):
    # Each leaf after the hub's phase is a phase of its own that adds no
    # vertex and no edge; re-checking the hub there would cost Θ(n) a phase.
    g = gen(f"star:{n}")
    out = explore(Environment(g, 1, 50 * n))
    assert out.status == "halted"
    replay = CountedChecks(out.trace.events, g)
    assert replay.failed == [] and replay.ended == len(replay.checked)
    assert sum(map(len, replay.checked)) <= 3 * n
    hub = max(range(replay.map.n), key=replay.map.degree)
    leaf_only = [k for k, (_ph, d) in enumerate(snapshots(out.trace))
                 if d["n"] == n and not d["edges"]]
    assert len(leaf_only) == n - 2
    for k in leaf_only:
        assert hub not in replay.checked[k] and len(replay.checked[k]) == 1


@pytest.mark.slow
def test_star_check_time_grows_linearly():
    """evaluate_trace of a star with every check, at n = 2000, 4000 and
    8000: from 2000 to 8000 the log2 growth of the check's thread time is
    at most 1.15 per doubling (run with ``-m slow``)."""
    checks = dict.fromkeys(DEFAULT_CHECKS, True)
    runs = []
    for n in (2000, 4000, 8000):
        g = gen(f"star:{n}")
        runs.append((g, explore(Environment(g, 1, 50 * n)).trace.events))
    # The best of seven, taken in turn so that a slow spell of the host does
    # not fall on one size only. The objects alive before the timing are
    # frozen, so the collector's passes scan only what the check allocates,
    # not the traces of the other sizes and the rest of the test session.
    seconds = [float("inf")] * len(runs)
    gc.collect()
    gc.freeze()
    try:
        for _ in range(7):
            for i, (g, events) in enumerate(runs):
                start = time.thread_time()
                status, results, _problems = evaluate_trace(events, g, checks)
                seconds[i] = min(seconds[i], time.thread_time() - start)
                assert status == "halted" and all(results.values())
    finally:
        gc.unfreeze()
    assert math.log2(seconds[-1] / seconds[0]) / 2 <= 1.15, seconds


def test_coverage_walk_goes_on_where_the_map_walk_stops():
    # The phase-1 delta loses the edge the first move crosses: the map walk
    # stops there, the ground walk visits every vertex.
    g, out = explored("chordal:n=15,rate=0.4,seed=1", "random:5", 0)
    trace = copied(out.trace)
    first_move = next(ev for ev in trace.events if ev["kind"] == "move")
    d1 = snapshots(trace)[0][1]
    d1["edges"] = [e for e in d1["edges"] if (0, first_move["out"]) not in ((e[0], e[2]), (e[1], e[3]))]
    replay = assert_agrees(trace, g)
    assert replay.walk_problem == (2, f"trace walks port {first_move['out']} at map vertex 0 "
                                      "which is not in the map")
    assert replay.coverage() == []


def test_coverage_walk_that_breaks_on_the_ground():
    # a move in the middle takes a port no vertex has: both walks stop
    g, out = explored("chordal:n=15,rate=0.4,seed=1", "random:5", 0)
    trace = copied(out.trace)
    moves = [ev for ev in trace.events if ev["kind"] == "move"]
    k = len(moves) // 2
    moves[k]["out"] += 1000
    replay = assert_agrees(trace, g)
    problems = replay.coverage()
    assert problems[0].startswith(f"move {k + 1}: no port {moves[k]['out']} at ground ")
    assert problems[1:] and problems[-1].startswith("unvisited ground vertices: ")


def test_wrong_in_port_fails_the_phase_of_its_move():
    # the move's in-port and the next sense's arrival agree, the ground not
    g, out = explored("chordal:n=15,rate=0.4,seed=1", "canonical", 0)
    trace = copied(out.trace)
    i = next(i for i, ev in enumerate(trace.events) if ev["kind"] == "move")
    j = next(j for j in range(i, len(trace.events)) if trace.events[j]["kind"] == "sense")
    true_in = trace.events[i]["in"]
    trace.events[i]["in"] = trace.events[j]["arrival"] = 100
    problem = f"move 1: arrived on port {true_in}, trace says 100"
    replay = assert_agrees(trace, g)
    assert replay.failed == [(2, [problem])]
    assert replay.coverage() == [problem]


@pytest.mark.parametrize("spec", ["chordal:n=30,rate=0.4,seed=3", "cycle:7"])
def test_reloaded_trace_verifies_the_same(spec):
    g, out = explored(spec, "random:5", 0)
    loaded = RunTrace.from_jsonl(out.trace.to_jsonl())
    replay, loaded_replay = TraceReplay(out.trace.events, g), TraceReplay(loaded.events, g)
    assert (loaded_replay.failed, loaded_replay.ended) == (replay.failed, replay.ended)
    assert loaded_replay.coverage() == replay.coverage()
    assert loaded_replay.graph().edges == replay.graph().edges


def test_trace_grows_linearly_on_a_tree():
    # with a whole map per phase_end the ratio would be about 4
    size = {}
    for n in (800, 1600):
        _g, out = explored(f"tree:n={n},seed=1", "random:1", 0)
        assert out.status == "halted"
        size[n] = len(out.trace.to_jsonl())
    assert size[1600] / size[800] < 2.5
