"""Kept horizontal counts against the per-vertex recount
``horizontal_count(nbrs, v)``: the triangle-listing table of a fixed
graph, the explorer's map as edges arrive, and the checker's replay
phase by phase on honest and corrupted traces."""

import copy
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from binox.explorer import ExplorationMap, PortCollisionError, explore
from binox.graph import PortNumberedGraph, horizontal_counts
from binox.runtime import Environment, RunTrace
from binox.verify import TraceReplay

import phase_reference
from conftest import gen, horizontal_count, snapshots
from test_incremental_verify import CORRUPTIONS, WALK_CORRUPTIONS, explored, runs


def recount(nbrs):
    return [horizontal_count(nbrs, v) for v in range(len(nbrs))]


@pytest.mark.parametrize("ports", ["canonical", "random:7"])
@pytest.mark.parametrize("spec", [
    "complete:1", "complete:2", "complete:12", "johnson:5,2", "johnson:7,3", "path:6",
    "cycle:3", "cycle:9", "tree:n=40,seed=2", "chordal:n=60,rate=0.0,seed=1",
    "chordal:n=60,rate=0.5,seed=2", "chordal:n=60,rate=1.0,seed=3",
])
def test_triangle_table_of_every_family_is_the_recount(spec, ports):
    g = gen(spec, ports)
    assert horizontal_counts(g._nbrs) == recount(g._nbrs)
    assert g._counts() == recount(g._nbrs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)
    if n > 1 else st.just([]),
)))
def test_triangle_table_of_a_random_graph_is_the_recount(graph):
    n, pairs = graph
    # distinct ports per vertex: the edge's position
    g = PortNumberedGraph(n, [(u, v, i, i) for i, (u, v) in enumerate(pairs)])
    assert horizontal_counts(g._nbrs) == recount(g._nbrs)
    assert g._counts() == recount(g._nbrs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                       st.integers(0, n - 1), st.integers(0, 3)), max_size=30),
)))
def test_map_counts_follow_every_insertion(graph):
    """Small port ranges make clashes, self edges, repeats and second
    edges between a pair common; a refused insertion changes no count."""
    n, inserts = graph
    emap = ExplorationMap()
    for _ in range(n):
        emap.add_vertex()
    assert emap._horizontal_counts == [0] * n
    for (a, pa, b, pb) in inserts:
        before = list(emap._horizontal_counts)
        try:
            emap.add_edge(a, pa, b, pb)
        except PortCollisionError:
            assert emap._horizontal_counts == before
        assert emap._horizontal_counts == recount(emap._nbrs)
        assert emap._counts() is emap._horizontal_counts  # the checks read the kept table


def test_halted_map_counts_are_the_ground_counts():
    g = gen("complete:30", "random:3")
    out = explore(Environment(g, 0, 50 * g.n))
    assert out.status == "halted"
    assert out.final_map._horizontal_counts == [29 * 28 // 2] * 30 == g._counts()


class CountedReplay(TraceReplay):
    """A replay that compares its map's kept counts with recounts after
    every phase, refused delta edges or not."""

    def apply(self, delta, newly):
        problems = super().apply(delta, newly)
        assert self.map._horizontal_counts == recount(self.map._nbrs)
        return problems


def assert_counts_and_results(trace, g):
    replay = CountedReplay(trace.events, g)
    assert (replay.failed, replay.ended) == phase_reference.failed_and_ended(trace, g)
    final = replay.graph()
    if final is not None:
        assert final._horizontal_counts == recount(final._nbrs)


@settings(max_examples=100, deadline=None)
@given(runs, st.lists(st.sampled_from(CORRUPTIONS), max_size=3), st.data())
def test_replay_counts_follow_corrupted_deltas(run, corruptions, data):
    g, out = explored(*run)
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    deltas = [d for _ph, d in snapshots(trace)]
    for corrupt in corruptions:
        corrupt(deltas, data, trace, g)
    assert_counts_and_results(trace, g)


@settings(max_examples=60, deadline=None)
@given(runs, st.sampled_from([0.2, 1, 50]),
       st.lists(st.sampled_from(WALK_CORRUPTIONS), max_size=2), st.data())
def test_replay_counts_follow_corrupted_walks(run, factor, corruptions, data):
    spec, ports, root_seed = run
    g = gen(spec, ports)
    out = explore(Environment(g, root_seed % g.n, max(1, int(factor * g.n))))
    trace = RunTrace()
    trace.events = copy.deepcopy(out.trace.events)
    for corrupt in corruptions:
        corrupt(trace, data)
    assert_counts_and_results(trace, g)
