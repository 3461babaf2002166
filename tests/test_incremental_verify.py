"""The one-pass phase verifier against a from-scratch check of every folded
map, on honest and corrupted delta traces."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from binox.explorer import explore
from binox.runtime import Environment, RunTrace
from binox.verify import first_sensed_map, verify_phase_invariants

import phase_reference
from conftest import gen

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


def as_data(results):
    return [(phase, r.ok, r.problems) for phase, r in results]


def assert_agrees(trace, g):
    assert first_sensed_map(trace, g) == phase_reference.first_sensed_map(trace, g)
    got = verify_phase_invariants(trace, g)
    assert as_data(got) == as_data(phase_reference.phase_invariants(trace, g))
    return got


@settings(max_examples=40, deadline=None)
@given(runs)
def test_honest_runs_agree_and_pass(run):
    g, out = explored(*run)
    results = assert_agrees(out.trace, g)
    assert results and all(r.ok for _ph, r in results)
    if out.status == "halted":
        assert out.trace.final_map() == out.final_map.snapshot()


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


def flip_vis(deltas, data, trace, g):
    k = data.draw(st.sampled_from([i for i, d in enumerate(deltas) if d["vis"]]))
    v = data.draw(st.sampled_from(sorted(deltas[k]["vis"])))
    deltas[k]["vis"][v] = k + 1 if deltas[k]["vis"][v] is None else None


def explored_unsensed(deltas, data, trace, g):
    """Mark explored a vertex that is never sensed: a frontier vertex left
    at the end of a non-halting run, or else one more vertex in the last
    delta."""
    first, _ = phase_reference.first_sensed_map(trace, g)
    created = {}
    for k, d in enumerate(deltas):
        for v in range(deltas[k - 1]["n"] if k else 0, d["n"]):
            created[v] = k
    never = sorted(v for v in created if v not in first)
    if never:
        v = data.draw(st.sampled_from(never))
        k = data.draw(st.integers(created[v], len(deltas) - 1))
    else:
        k = len(deltas) - 1
        v = deltas[k]["n"]
        deltas[k]["n"] += 1
    deltas[k]["vis"][v] = k + 1


CORRUPTIONS = [
    drop_edge, wrong_far_port, wrong_near_port, late_edge, clashing_edge, flip_vis,
    explored_unsensed,
]


@settings(max_examples=150, deadline=None)
@given(runs, st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3), st.data())
def test_corrupted_deltas_agree_with_the_reference(run, corruptions, data):
    g, out = explored(*run)
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    deltas = [d for _ph, d in trace.snapshots()]
    for corrupt in corruptions:
        corrupt(deltas, data, trace, g)
    assert_agrees(trace, g)


def test_checks_postponed_while_phi_is_partial_are_caught_up():
    # Vertex 1 loses its only edge to an explored vertex until phase 3, so
    # phi is partial in phases 1 and 2 and their checks wait; the wrong far
    # port logged in phase 2 must be reported once phi is total again.
    g, out = explored("chordal:n=6,rate=0.0,seed=1", "random:41", 0)
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    d1, d2, d3 = [d for _ph, d in trace.snapshots()][:3]
    assert d1["edges"][0][:2] == (0, 1) and d2["edges"][0][:2] == (2, 3) and not d3["edges"]
    d3["edges"].append(d1["edges"].pop(0))
    a, b, pa, pb = d2["edges"][0]
    d2["edges"][0] = (a, b, pa, pb + 1)
    results = assert_agrees(trace, g)
    assert [r.problems[-1] for _ph, r in results[:2]] == ["frontier vertex 1 has no explored neighbour"] * 2
    assert any(p.startswith("edge 2-3") for p in results[2][1].problems)


@pytest.mark.parametrize("spec", ["chordal:n=30,rate=0.4,seed=3", "cycle:7"])
def test_reloaded_trace_verifies_the_same(spec):
    g, out = explored(spec, "random:5", 0)
    loaded = RunTrace.from_jsonl(out.trace.to_jsonl())
    assert as_data(verify_phase_invariants(loaded, g)) == as_data(verify_phase_invariants(out.trace, g))
    assert loaded.final_map() == out.trace.final_map()


def test_trace_grows_linearly_on_a_tree():
    # with a whole map per phase_end the ratio would be about 4
    size = {}
    for n in (800, 1600):
        _g, out = explored(f"tree:n={n},seed=1", "random:1", 0)
        assert out.status == "halted"
        size[n] = len(out.trace.to_jsonl())
    assert size[1600] / size[800] < 2.5
