"""The exploration algorithm: reference traces, ledger operations, cluster
tours, and the non-halting path on bad inputs."""

import gc
import itertools
import math
import random
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from binox import explorer
from binox.explorer import (
    ClusterExplorer,
    ExplorationMap,
    ExplorerInvariantError,
    MapUpdateError,
    PhaseLedger,
    PortCollisionError,
    apply_ledger,
    approach_path,
    check_local_iso,
    discover_new_clusters,
    explore,
    harvest_ledger,
    record_ball,
    walk_cluster,
)
from binox.cli import main
from binox.families import condition_failure
from binox.graph import PortNumberedGraph, ball, load_graph, save_graph, validate
from binox.runtime import Environment, ExplorationError, RunTrace, run_agent
from binox.suite import DEFAULT_CHECKS, evaluate_trace
from binox.verify import TraceReplay, verify_rooted_isomorphism

from conftest import (
    ball_signature,
    center_edges,
    connected_atlas,
    gen,
    horizontal_edges,
    phase_ledgers,
    rooted_embedding,
    sensed_in,
    snapshots,
)
from homotopy_oracles import unfold_tree_cover


def run(spec_or_graph, root=0, factor=50):
    g = gen(spec_or_graph) if isinstance(spec_or_graph, str) else spec_or_graph
    env = Environment(g, root, max(1, int(factor * g.n)))
    return g, explore(env)


class TestReferenceTraces:
    def test_path3_from_endpoint(self):
        g, out = run("path:3")
        assert out.status == "halted"
        assert out.moves == 2
        phases = [p for p, _ in snapshots(out.trace)]
        assert phases == [1, 2, 3]
        assert verify_rooted_isomorphism(out.final_map, g, 0) == []

    def test_k3_two_moves_and_phase1_full_ball(self):
        with phase_ledgers() as ledgers:
            g, out = run("complete:3")
        assert out.status == "halted"
        assert out.moves == 2
        # after phase 1 the map is already the whole ball: K3 itself
        first = snapshots(out.trace)[0][1]
        assert set(first) == {"n", "edges"} and first["n"] == 3 and len(first["edges"]) == 3
        assert sensed_in(ledgers) == {0: 1, 1: 2, 2: 2}
        assert verify_rooted_isomorphism(out.final_map, g, 0) == []

    def test_single_vertex_graph(self):
        g, out = run("path:1")
        assert out.status == "halted" and out.moves == 0
        assert out.final_map.n == 1

    def test_c6_exhausts_budget_with_a_path_prefix_of_the_cover(self):
        g, out = run("cycle:6")
        assert out.status == "budget_exhausted"
        emap = out.final_map
        assert max(emap.degree(n) for n in range(emap.n)) <= 2
        cover, _proj, _b = unfold_tree_cover(g, 0, emap.n)
        assert rooted_embedding(emap, cover, 0, 0) == []

    @pytest.mark.parametrize("spec,root", [
        ("johnson:4,2", 0),
        ("johnson:4,2", 5),
        ("johnson:5,2", 3),
        ("complete:6", 2),
        ("chordal:n=30,rate=0.5,seed=4", 11),
        ("tree:n=25,seed=9", 0),
        ("cycle:3", 1),
    ])
    def test_weetman_inputs_halt_with_isomorphic_map(self, spec, root):
        g, out = run(spec, root=root)
        assert out.status == "halted"
        assert verify_rooted_isomorphism(out.final_map, g, root) == []

    def test_arbitrary_port_numbers_explored_fine(self):
        # ports need not be 0..deg-1; the agent never assumes contiguity
        g = PortNumberedGraph(3, [(0, 1, 5, 9), (1, 2, 3, 40), (0, 2, 2, 0)])
        _, out = run(g, root=1)
        assert out.status == "halted"
        assert verify_rooted_isomorphism(out.final_map, g, 1) == []

    def test_each_vertex_sensed_exactly_once_on_halting_runs(self):
        # approach walks through explored vertices never re-record
        for spec in ("chordal:n=40,rate=0.5,seed=6", "johnson:5,2", "path:9"):
            g, out = run(spec, root=1)
            assert out.status == "halted"
            senses = [e for e in out.trace.events if e["kind"] == "sense"]
            assert len(senses) == g.n

    @pytest.mark.parametrize("root", [0, 5])
    def test_cluster_deeper_than_the_call_stack(self, root):
        # a fan: vertex 0 joined to every vertex of the path 1..1200, so the
        # tour of sphere 1 from root 0 walks a DFS tree 1200 deep
        n = 1200
        g = PortNumberedGraph(n + 1, [(0, v, v - 1, 0) for v in range(1, n + 1)]
                              + [(v, v + 1, 2, 1) for v in range(1, n)])
        _, out = run(g, root=root)
        assert out.status == "halted" and out.moves < 1.01 * g.n
        _, results, problems = evaluate_trace(out.trace.events, g, dict.fromkeys(DEFAULT_CHECKS, True))
        assert all(results.values()) and not problems

    def test_octahedron_no_duplication_through_equivalence(self):
        # the four sphere-1 vertices all see the antipode; the equivalence
        # closure must merge the four pre-vertices into one map vertex
        g, out = run("johnson:4,2")
        assert out.final_map.n == 6


class TestLedgerOperations:
    def k3_phase1_setup(self):
        g = gen("complete:3")
        emap = ExplorationMap()
        n0 = emap.add_vertex()
        ledger = PhaseLedger()
        record_ball(ledger, n0, ball(g, 0).relabel([0, 1, 2]))
        return g, emap, ledger, n0

    def test_k3_phase1_harvest(self):
        g, emap, ledger, n0 = self.k3_phase1_setup()
        harvest_ledger(emap, ledger, n0)
        assert len(ledger.pre_vertices) == 2
        assert ledger.equiv_pairs == []
        assert len(ledger.horizontal) == 1
        (n, p1, p2, r, s) = next(iter(ledger.horizontal))
        assert n == n0 and p1 < p2

    def test_k3_phase1_apply_builds_the_ball(self):
        g, emap, ledger, n0 = self.k3_phase1_setup()
        harvest_ledger(emap, ledger, n0)
        new_ids = apply_ledger(emap, ledger)
        assert new_ids == [1, 2]
        assert emap.n == 3
        assert len(emap.edges) == 3
        assert check_local_iso(emap, ledger, [n0]) is None
        comps = discover_new_clusters(emap, new_ids)
        assert comps == [[1, 2]]

    def test_check_local_iso_must_follow_apply(self):
        # before the map update the singleton map has degree 0: mismatch
        g, emap, ledger, n0 = self.k3_phase1_setup()
        harvest_ledger(emap, ledger, n0)
        assert check_local_iso(emap, ledger, [n0]) == n0

    def test_triangle_free_balls_produce_no_pairs_or_horizontals(self):
        g = gen("cycle:6")
        emap = ExplorationMap()
        n0 = emap.add_vertex()
        ledger = PhaseLedger()
        record_ball(ledger, n0, ball(g, 0).relabel([0, 1, 2]))
        harvest_ledger(emap, ledger, n0)
        assert len(ledger.pre_vertices) == 2
        assert ledger.equiv_pairs == [] and ledger.horizontal == set()
        new_ids = apply_ledger(emap, ledger)
        assert discover_new_clusters(emap, new_ids) == [[1], [2]]

    def test_empty_ledger_changes_nothing(self):
        emap = ExplorationMap()
        emap.add_vertex()
        assert apply_ledger(emap, PhaseLedger()) == []
        assert emap.n == 1

    def test_two_explored_vertices_merge_a_common_new_neighbour(self):
        # diamond: v0 adjacent to a, b; a-b adjacent; z adjacent to a and b.
        # After phase 1 the map holds {n0, A, B}; exploring {A, B} must
        # produce exactly one new vertex for z, through one equivalence pair
        # from each side.
        g = PortNumberedGraph(4, [
            (0, 1, 0, 0),   # v0-a
            (0, 2, 1, 0),   # v0-b
            (1, 2, 1, 1),   # a-b
            (1, 3, 2, 0),   # a-z
            (2, 3, 2, 1),   # b-z
        ])
        emap = ExplorationMap()
        n0 = emap.add_vertex()
        A = emap.add_vertex()
        B = emap.add_vertex()
        emap.add_edge(n0, 0, A, 0)
        emap.add_edge(n0, 1, B, 0)
        emap.add_edge(A, 1, B, 1)
        ledger = PhaseLedger()
        record_ball(ledger, A, ball(g, 1).relabel(list(range(4))))
        record_ball(ledger, B, ball(g, 2).relabel(list(range(4))))
        harvest_ledger(emap, ledger, A)
        harvest_ledger(emap, ledger, B)
        assert sorted(ledger.pre_vertices) == [(A, 2), (B, 2)]
        assert len(ledger.equiv_pairs) == 2  # seen from both triangles
        new_ids = apply_ledger(emap, ledger)
        assert new_ids == [3]  # one vertex, not two
        assert emap.degree(3) == 2
        assert check_local_iso(emap, ledger, [A, B]) is None

    def test_equivalence_closure_is_order_independent(self):
        ledger_a = PhaseLedger()
        ledger_b = PhaseLedger()
        keys = [(0, 0), (1, 0), (2, 0), (3, 0)]
        pairs = [(keys[0], keys[1]), (keys[1], keys[2]), (keys[2], keys[3])]
        for ledger, order in ((ledger_a, pairs), (ledger_b, pairs[::-1])):
            for i, k in enumerate(keys):
                ledger.pre_vertices[k] = i  # distinct in-ports at the new vertex
            ledger.equiv_pairs = list(order)
        for ledger in (ledger_a, ledger_b):
            emap = ExplorationMap()
            for n in range(4):
                emap.add_vertex()
            assert apply_ledger(emap, ledger) == [4]

    def test_new_ids_follow_each_class_smallest_member(self):
        # pre-vertex -> far port; classes {(0,0),(3,0),(4,0)}, {(1,0),(5,0)},
        # {(2,0)} and {(2,1),(6,0)}, whose union roots depend on the pairs'
        # order and orientation
        far = {(6, 0): 1, (5, 0): 1, (4, 0): 2, (3, 0): 1, (2, 1): 0, (2, 0): 0, (1, 0): 0,
               (0, 0): 0}
        pairs = [((0, 0), (3, 0)), ((3, 0), (4, 0)), ((1, 0), (5, 0)), ((2, 1), (6, 0))]
        new_of = {(0, 0): 7, (3, 0): 7, (4, 0): 7, (1, 0): 8, (5, 0): 8, (2, 0): 9,
                  (2, 1): 10, (6, 0): 10}
        for order in itertools.permutations(pairs):
            for flips in itertools.product((False, True), repeat=len(pairs)):
                ledger = PhaseLedger()
                ledger.pre_vertices = dict(far)
                ledger.equiv_pairs = [(b, a) if f else (a, b) for (a, b), f in zip(order, flips)]
                emap = ExplorationMap()
                for _ in range(7):
                    emap.add_vertex()
                assert apply_ledger(emap, ledger) == [7, 8, 9, 10]
                assert {k: emap.step(*k)[0] for k in far} == new_of

    @pytest.mark.parametrize("pair", [((0, 0), (1, 5)), ((1, 5), (0, 0))])
    def test_equivalence_naming_an_unknown_pre_vertex_raises(self, pair):
        ledger = PhaseLedger()
        ledger.pre_vertices = {(0, 0): 0, (1, 0): 1}
        ledger.equiv_pairs = [((0, 0), (1, 0)), pair]
        emap = ExplorationMap()
        emap.add_vertex()
        emap.add_vertex()
        with pytest.raises(MapUpdateError, match=r"unknown pre-vertex \(1, 5\)"):
            apply_ledger(emap, ledger)
        assert (emap.n, emap.m) == (2, 0)

    def test_port_collision_raises(self):
        emap = ExplorationMap()
        a = emap.add_vertex()
        b = emap.add_vertex()
        c = emap.add_vertex()
        emap.add_edge(a, 0, b, 0)
        assert emap.add_edge(a, 0, b, 0) is False  # duplicate: skipped
        with pytest.raises(PortCollisionError):
            emap.add_edge(a, 0, c, 0)
        with pytest.raises(PortCollisionError):
            emap.add_edge(a, 1, b, 0)
        with pytest.raises(PortCollisionError):
            emap.add_edge(a, 1, b, 1)  # parallel edge


def full_scan_harvest(emap, ledger, n):
    """harvest_ledger without the early return: every horizontal edge of
    every ball is looked at."""
    b = ledger.balls[n]
    center = {}
    for (p, q, j) in center_edges(b):
        got = emap.step(n, p)
        if got is not None and got[1] == q:
            center[j] = (p, got[0])
        else:
            center[j] = (p, None)
            ledger.pre_vertices[(n, p)] = q
    for (i, j, r, s) in horizontal_edges(b):
        pi, mi = center[i]
        pj, mj = center[j]
        if mi is not None:
            if mj is None and not emap.has_label(mi, r, s):
                ledger.equiv_pairs.append(((n, pj), (mi, r)))
        elif mj is not None:
            if not emap.has_label(mj, s, r):
                ledger.equiv_pairs.append(((n, pi), (mj, s)))
        else:
            rec = (n, pi, pj, r, s) if pi < pj else (n, pj, pi, s, r)
            ledger.horizontal.add(rec)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["johnson:5,2", "complete:6", "chordal:n=25,rate=0.6,seed=2",
                     "chordal:n=30,rate=0.3,seed=5"]),
    st.sampled_from(["random:3", "random:17"]),
    st.data(),
)
def test_harvest_skip_yields_the_full_scan_ledger(spec, ports, data):
    """On a map holding a random part of the halted map's edges, balls
    with some center edges mapped and some not give the same ledger."""
    g, out = run(gen(spec, ports))
    phi, problems = TraceReplay(out.trace.events, g).final_phi()
    assert not problems
    full = out.final_map
    keep = data.draw(st.lists(st.booleans(), min_size=len(full.edges),
                              max_size=len(full.edges)), label="kept edges")
    emap = ExplorationMap()
    for _ in range(full.n):
        emap.add_vertex()
    for (a, b, pa, pb), kept in zip(full.edges, keep):
        if kept:
            emap.add_edge(a, pa, b, pb)
    rng = random.Random(data.draw(st.integers(0, 99), label="relabel seed"))
    skip, scan = PhaseLedger(), PhaseLedger()
    for n in range(emap.n):
        ids = list(range(1, g.degree(phi[n]) + 1))
        rng.shuffle(ids)
        skip.balls[n] = scan.balls[n] = ball(g, phi[n], ids)
        harvest_ledger(emap, skip, n)
        full_scan_harvest(emap, scan, n)
    assert skip.pre_vertices == scan.pre_vertices
    assert skip.equiv_pairs == scan.equiv_pairs
    assert skip.horizontal == scan.horizontal


def sparse_ports(g, rng):
    """g with each vertex's ports mapped, order-preservingly, to distinct
    ints below 2**40."""
    port_of = []
    for v in range(g.n):
        ports = g.ports(v)
        port_of.append(dict(zip(ports, sorted(rng.sample(range(2**40), len(ports))))))
    return PortNumberedGraph(g.n, [
        (u, w, port_of[u][pu], port_of[w][pw]) for (u, w, pu, pw) in g.edges
    ])


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["johnson:5,2", "complete:6", "chordal:n=30,rate=0.5,seed=4",
                     "tree:n=20,seed=3", "path:6"]),
    st.sampled_from(["canonical", "random:5"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_sparse_large_ports_explore_like_their_ranks(spec, ports, seed):
    """The explorer only orders ports, so large sparse port numbers give the
    moves their ranks give, a map that passes every check, and a trace that
    reloads unchanged."""
    g = gen(spec, ports)
    h = sparse_ports(g, random.Random(seed))
    assert validate(h) == []
    ranked = explore(Environment(g, 0, 50 * g.n))
    sparse = explore(Environment(h, 0, 50 * h.n))
    assert sparse.status == ranked.status == "halted"
    assert sparse.moves == ranked.moves
    checks = dict.fromkeys(DEFAULT_CHECKS, True)
    _, results, problems = evaluate_trace(sparse.trace.events, h, checks)
    assert results == checks, problems
    text = sparse.trace.to_jsonl()
    assert RunTrace.from_jsonl(text).to_jsonl() == text


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["tree:n=30,seed=1", "tree:n=60,seed=8", "chordal:n=30,rate=0.5,seed=4",
                     "chordal:n=40,rate=0.2,seed=7", "johnson:5,2", "johnson:6,3"]),
    st.sampled_from(["canonical", "random:3", "random:29"]),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.5, 1, 1.5, 3, 50]),
)
def test_no_move_between_a_phase_last_sense_and_its_end(spec, ports, root_seed, factor):
    """A tour stops at its last first visit: in every phase that ends, no
    move comes after the phase's last sense."""
    g = gen(spec, ports)
    _, out = run(g, root=root_seed % g.n, factor=factor)
    last = None  # the kind of the phase's last sense or move
    for ev in out.trace.events:
        if ev["kind"] in ("sense", "move"):
            last = ev["kind"]
        elif ev["kind"] == "phase_start":
            last = None
        elif ev["kind"] == "phase_end":
            assert last == "sense", f"phase {ev['phase']} ends after a {last}"


APPROACH_SPECS = st.one_of(
    st.builds("tree:n={},seed={}".format, st.integers(2, 40), st.integers(0, 9)),
    st.builds("chordal:n={},rate=0.4,seed={}".format, st.integers(3, 40), st.integers(0, 9)),
    st.sampled_from(["johnson:5,2", "johnson:6,3", "johnson:7,2"]),
)


def reference_approach_path(emap, start, members):
    """The approach BFS that ``approach_path`` shortens: it dequeues every
    vertex, scans its ports in ascending order and stops at the first member
    it dequeues."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if x in members:
            path = []
            while prev[x] is not None:
                x, p = prev[x]
                path.append(p)
            return path[::-1]
        for p in emap.ports(x):
            y = emap.step(x, p)[0]
            if y not in prev:
                prev[y] = (x, p)
                queue.append(y)
    raise RuntimeError(f"cluster {sorted(members)} unreachable in map")


class TestClusterTour:
    def build_map(self, g):
        emap = ExplorationMap()
        for v in range(g.n):
            emap.add_vertex()
        for (u, v, pu, pv) in g.edges:
            emap.add_edge(u, pu, v, pv)
        return emap

    def walk(self, g, start, cluster, emap=None):
        """Walk ``cluster`` from ``start`` over a map of g, the agent in g
        itself; returns the phase ledger, the environment and the end."""
        env = Environment(g, start, 50 * g.n)
        ledger = PhaseLedger()
        if emap is None:
            emap = self.build_map(g)
        end = walk_cluster(env, emap, ledger, start, cluster)
        return ledger, env, end

    def test_singleton_adjacent_cluster_is_one_move(self):
        emap = self.build_map(gen("path:3"))
        assert approach_path(emap, 0, {1}) == [0]

    def test_cluster_containing_start_has_no_approach(self):
        emap = self.build_map(gen("complete:4"))
        assert approach_path(emap, 1, {1}) == []

    def test_k3_sibling_pair_costs_two_moves(self):
        ledger, env, end = self.walk(gen("complete:3"), 0, [1, 2])
        assert env.move_count == 2
        assert set(ledger.balls) == {1, 2} and end in (1, 2)

    def test_tour_visits_every_cluster_vertex(self):
        g = gen("chordal:n=40,rate=0.5,seed=13")
        emap = self.build_map(g)
        rng = random.Random(5)
        for _ in range(10):
            cluster = rng.sample(range(g.n), rng.randrange(2, 8))
            # restrict to one connected chunk of the sample
            chunk = {cluster[0]}
            grew = True
            while grew:
                grew = False
                for v in cluster:
                    if v not in chunk and any(w in chunk for w in emap.neighbors(v)):
                        chunk.add(v)
                        grew = True
            start = rng.randrange(g.n)
            ledger, env, end = self.walk(g, start, sorted(chunk), emap)
            senses = [e for e in env.trace.events if e["kind"] == "sense"]
            assert set(ledger.balls) == chunk and len(senses) == len(chunk)
            pos = start
            for ev in env.trace.events:
                if ev["kind"] == "move":
                    step = emap.step(pos, ev["out"])
                    assert step is not None and step[1] == ev["in"]
                    pos = step[0]
            assert pos == end

    @settings(max_examples=200, deadline=None)
    @given(APPROACH_SPECS, st.sampled_from(["canonical", "random:1", "random:4"]), st.data())
    def test_approach_path_is_the_full_bfs_path(self, spec, ports, data):
        emap = self.build_map(gen(spec, ports))
        start = data.draw(st.integers(0, emap.n - 1))
        members = set(data.draw(st.lists(st.integers(0, emap.n - 1), min_size=1, max_size=6)))
        assert approach_path(emap, start, members) == reference_approach_path(emap, start, members)

    @pytest.mark.parametrize("spec", ["tree:n=60,seed=2", "chordal:n=60,rate=0.4,seed=5",
                                      "johnson:6,2"])
    @pytest.mark.parametrize("ports", ["canonical", "random:1", "random:4"])
    def test_every_approach_of_a_run_is_the_full_bfs_path(self, spec, ports):
        g = gen(spec, ports)
        calls = []

        def checked(emap, start, members):
            got = approach_path(emap, start, members)
            calls.append(got == reference_approach_path(emap, start, members))
            return got

        with mock.patch.object(explorer, "approach_path", checked):
            for root in (0, g.n - 1):
                assert explore(Environment(g, root, 50 * g.n)).status == "halted"
        assert calls and all(calls)

    def test_unreachable_cluster_is_an_error(self):
        emap = ExplorationMap()
        emap.add_vertex()
        emap.add_vertex()  # isolated
        with pytest.raises(RuntimeError, match="unreachable"):
            approach_path(emap, 0, {1})

    def test_tour_missed_vertices_guard(self):
        # 0 and 2 are not joined through cluster vertices: the DFS from 0
        # cannot reach 2 without leaving the cluster
        with pytest.raises(ExplorerInvariantError, match=r"missed cluster vertices \[2\]"):
            self.walk(gen("path:3"), 0, [0, 2])

    def test_arriving_through_another_port_is_the_error_path(self):
        g = gen("path:3")
        emap = ExplorationMap()
        for _ in range(3):
            emap.add_vertex()
        emap.add_edge(0, 0, 1, 0)
        emap.add_edge(1, 1, 2, 7)  # the ground's far port at 2 is 0
        with pytest.raises(ExplorationError, match="arrived through port .*, map expected 7"):
            self.walk(g, 0, [2], emap)

    def test_record_ball_refuses_a_second_ball_in_one_phase(self):
        ledger = PhaseLedger()
        sensed = ball(gen("path:3"), 1)
        record_ball(ledger, 4, sensed)
        with pytest.raises(ExplorerInvariantError, match="map vertex 4 sensed twice in one phase"):
            record_ball(ledger, 4, sensed)


def interval_violation_gadget():
    """v0 with neighbours u, x, v chained u-x-v; w above adjacent to u and v
    only. The predecessors {u, v} of w are not connected: the interval
    condition fails at w, so w gets duplicated in the map."""
    return PortNumberedGraph(5, [
        (0, 1, 0, 0),  # v0-u
        (0, 2, 1, 0),  # v0-x
        (0, 3, 2, 0),  # v0-v
        (1, 2, 1, 1),  # u-x
        (2, 3, 2, 1),  # x-v
        (1, 4, 2, 0),  # u-w
        (3, 4, 2, 1),  # v-w
    ])


class TestNonWeetmanInputs:
    def test_gadget_is_invalid_weetman_but_valid_graph(self):
        g = interval_violation_gadget()
        assert validate(g) == []
        assert condition_failure(g, 0) == {"condition": "interval", "root": 0, "vertex": 4}

    def test_gadget_never_halts(self):
        g = interval_violation_gadget()
        _, out = run(g)
        assert out.status in ("budget_exhausted", "error_detected")

    def test_gadget_map_duplicates_the_top_vertex(self):
        g = interval_violation_gadget()
        _, out = run(g)
        problems = verify_rooted_isomorphism(out.final_map, g, 0)
        assert any("vertex count" in p for p in problems)

    def test_map_update_that_clashes_ends_the_run_as_an_error(self):
        # atlas G198 from root 1: the interval condition fails at vertex 3,
        # and phase 2's ledger adds a second edge at port 1 of map vertex 4
        g = connected_atlas(6)[198]
        assert (g.n, g.m) == (6, 11)
        assert condition_failure(g, 1) == {"condition": "interval", "root": 1, "vertex": 3}
        _, out = run(g, root=1)
        assert (out.status, out.moves) == ("error_detected", 4)
        assert out.trace.events[-1]["reason"] == (
            "map update impossible: port clash inserting 4-6 labelled (1,0): "
            "port 1@4 -> (5, 0), port 0@6 -> None")
        _, results, problems = evaluate_trace(out.trace.events, g, dict.fromkeys(DEFAULT_CHECKS, True))
        assert results == {"phase_invariants": True, "cluster_tree": True,
                           "final_isomorphism": None, "coverage": None, "covering": None}
        assert problems == []

    @pytest.mark.parametrize("k", range(4, 9))
    def test_cycles_never_halt(self, k):
        _, out = run(f"cycle:{k}")
        assert out.status in ("budget_exhausted", "error_detected")


class TestMapExport:
    @pytest.mark.parametrize("spec,root", [
        ("tree:n=40,seed=2", 7),
        ("chordal:n=30,rate=0.4,seed=5", 3),
        ("johnson:5,2", 4),
    ])
    def test_map_file_is_the_final_map_in_the_graph_format(self, tmp_path, capsys, spec, root):
        g = gen(spec, "random:1")
        graph, written, expected = tmp_path / "g.json", tmp_path / "m.json", tmp_path / "e.json"
        save_graph(g, graph)
        assert main(["explore", "--graph", str(graph), "--root", str(root), "--map", str(written)]) == 0
        _, out = run(g, root=root)
        assert out.status == "halted"
        save_graph(out.final_map, expected)
        assert written.read_bytes() == expected.read_bytes()
        assert verify_rooted_isomorphism(load_graph(written), g, root) == []

    def test_exported_map_reloads_as_a_valid_graph(self):
        from binox.graph import validate

        g, out = run("johnson:4,2")
        assert validate(out.final_map) == []


class TestMapBalls:
    """The map's balls come from the same builder as the ground graph's, and
    their signatures agree with the tests' reference read off the map's
    adjacency."""

    @pytest.mark.parametrize("spec,ports", [
        ("complete:8", "random:2"),
        ("johnson:5,2", "random:7"),
        ("chordal:n=40,rate=0.5,seed=6", "canonical"),
        ("tree:n=30,seed=4", "random:1"),
    ])
    def test_signature_on_a_halted_map(self, spec, ports):
        g = gen(spec, ports)
        _, out = run(g, root=1)
        assert out.status == "halted"
        emap = out.final_map
        for n in range(emap.n):
            assert ball_signature(emap, n) == emap.local_ball(n).signature()

    @pytest.mark.parametrize("k", [5, 8])
    def test_signature_on_a_budget_exhausted_partial_map(self, k):
        g = gen(f"cycle:{k}", "random:3")
        explorer = ClusterExplorer()
        with phase_ledgers() as ledgers:
            out = run_agent(explorer, Environment(g, 0, 10 * g.n))
        assert out.status == "budget_exhausted"
        emap = explorer.partial_result()
        assert emap.n > len(sensed_in(ledgers))  # the cut-off map still has unexplored vertices
        for n in range(emap.n):
            assert ball_signature(emap, n) == emap.local_ball(n).signature()


class _CountedGets(dict):
    """An adjacency dict that counts its ``get`` calls in ``gets``."""

    gets = 0

    def get(self, key, default=None):
        _CountedGets.gets += 1
        return dict.get(self, key, default)


@pytest.mark.parametrize("family", ["star", "fan"])
def test_hub_balls_probe_the_adjacency_a_linear_number_of_times(family):
    # Every sensed ball reads pairs of neighbours from the ground graph's
    # adjacency; at the hub, testing every pair made n**2 / 2 probes.
    for n in (200, 400, 800):
        g = gen(f"{family}:{n}", "random:1")
        g._nbrs = [_CountedGets(a) for a in g._nbrs]
        _CountedGets.gets = 0
        assert explore(Environment(g, 1, 50 * n)).status == "halted"
        assert _CountedGets.gets <= 6 * n


@pytest.mark.slow
def test_star_explore_time_grows_linearly():
    """explore from leaf 1 of star:n at n = 2000, 4000 and 8000, where the
    hub's ball holds n - 1 neighbours: from 2000 to 8000 the log2 growth of
    the thread time is at most 1.15 per doubling (run with ``-m slow``)."""
    graphs = [gen(f"star:{n}", "random:1") for n in (2000, 4000, 8000)]
    # The best of seven, taken in turn, with the live heap frozen, as in
    # test_star_check_time_grows_linearly.
    seconds = [float("inf")] * len(graphs)
    gc.collect()
    gc.freeze()
    try:
        for _ in range(7):
            for i, g in enumerate(graphs):
                start = time.thread_time()
                out = explore(Environment(g, 1, 50 * g.n))
                seconds[i] = min(seconds[i], time.thread_time() - start)
                assert out.status == "halted"
                del out
    finally:
        gc.unfreeze()
    assert math.log2(seconds[-1] / seconds[0]) / 2 <= 1.15, seconds


@pytest.mark.slow
def test_cycle_phase_cost_does_not_grow_with_the_map():
    """explore and evaluate_trace of cycle:7 from root 0 at budgets of 2000,
    4000 and 8000 moves: one phase per move, and the map a path that grows
    by one vertex a phase. A phase must cost what it changes, not the map's
    size: each doubling of the budget grows each thread time by at most 1.15
    in log2 (run with ``-m slow``). A set operation that walks the map, such
    as a key-view difference with the map's keys on its right, breaks it."""
    g = gen("cycle:7")
    checks = dict.fromkeys(DEFAULT_CHECKS, True)
    budgets = (2000, 4000, 8000)
    traces = [explore(Environment(g, 0, b)).trace.events for b in budgets]
    # The best of nine, taken in turn with the live heap frozen, as in
    # test_star_explore_time_grows_linearly.
    explore_s = [float("inf")] * len(budgets)
    check_s = [float("inf")] * len(budgets)
    gc.collect()
    gc.freeze()
    try:
        for _ in range(9):
            for i, (budget, events) in enumerate(zip(budgets, traces)):
                start = time.thread_time()
                out = explore(Environment(g, 0, budget))
                explore_s[i] = min(explore_s[i], time.thread_time() - start)
                assert (out.status, out.moves) == ("budget_exhausted", budget)
                del out
                start = time.thread_time()
                status, _results, _problems = evaluate_trace(events, g, checks)
                check_s[i] = min(check_s[i], time.thread_time() - start)
                assert status == "budget_exhausted"
    finally:
        gc.unfreeze()
    for seconds in (explore_s, check_s):
        assert all(math.log2(b / a) <= 1.15 for a, b in zip(seconds, seconds[1:])), (explore_s, check_s)
