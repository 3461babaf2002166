"""The exploration algorithm: reference traces, ledger operations, cluster
tours, and the non-halting path on bad inputs."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import binox
from binox.explorer import (
    ClusterExplorer,
    ClusterStack,
    ExplorationMap,
    PhaseLedger,
    PortCollisionError,
    apply_ledger,
    check_local_iso,
    discover_new_clusters,
    explore,
    harvest_ledger,
    plan_cluster_tour,
    record_ball,
)
from binox.graph import PortNumberedGraph, ball, ball_signature, validate
from binox.homotopy import unfold_tree_cover
from binox.runtime import Environment, RunTrace, run_agent
from binox.suite import DEFAULT_CHECKS, evaluate_trace
from binox.verify import reconstruct_final_phi, rooted_embedding, verify_rooted_isomorphism

from conftest import gen


def run(spec_or_graph, root=0, factor=50):
    g = gen(spec_or_graph) if isinstance(spec_or_graph, str) else spec_or_graph
    env = Environment(g, root, max(1, int(factor * g.n)))
    return g, explore(env)


class TestReferenceTraces:
    def test_path3_from_endpoint(self):
        g, out = run("path:3")
        assert out.status == "halted"
        assert out.moves == 2
        phases = [p for p, _ in out.trace.snapshots()]
        assert phases == [1, 2, 3]
        assert verify_rooted_isomorphism(out.final_map, g, 0).ok

    def test_k3_two_moves_and_phase1_full_ball(self):
        g, out = run("complete:3")
        assert out.status == "halted"
        assert out.moves == 2
        # after phase 1 the map is already the whole ball: K3 itself
        first = out.trace.snapshots()[0][1]
        assert first["n"] == 3 and len(first["edges"]) == 3
        assert first["vis"] == {0: 1, 1: None, 2: None}
        assert verify_rooted_isomorphism(out.final_map, g, 0).ok

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
        assert rooted_embedding(emap, cover, 0, 0).ok

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
        assert verify_rooted_isomorphism(out.final_map, g, root).ok

    def test_arbitrary_port_numbers_explored_fine(self):
        # ports need not be 0..deg-1; the agent never assumes contiguity
        g = PortNumberedGraph(3, [(0, 1, 5, 9), (1, 2, 3, 40), (0, 2, 2, 0)])
        _, out = run(g, root=1)
        assert out.status == "halted"
        assert verify_rooted_isomorphism(out.final_map, g, 1).ok

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
        results, problems = evaluate_trace(out.trace, g, dict.fromkeys(DEFAULT_CHECKS, True))
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
        emap.cluster_of[n0] = 0
        ledger = PhaseLedger()
        record_ball(emap, ledger, n0, ball(g, 0).relabel([0, 1, 2]), 1)
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
        record_ball(emap, ledger, n0, ball(g, 0).relabel([0, 1, 2]), 1)
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
        emap.explored_in[n0] = 1
        ledger = PhaseLedger()
        record_ball(emap, ledger, A, ball(g, 1).relabel(list(range(4))), 2)
        record_ball(emap, ledger, B, ball(g, 2).relabel(list(range(4))), 2)
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
                emap.explored_in[n] = 1
            assert apply_ledger(emap, ledger) == [4]

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
    for (p, q, j) in b.center_edges():
        got = emap.step(n, p)
        if got is not None and got[1] == q:
            center[j] = (p, got[0])
        else:
            center[j] = (p, None)
            ledger.pre_vertices[(n, p)] = q
    for (i, j, r, s) in b.horizontal_edges():
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
    phi, problems = reconstruct_final_phi(out.trace, g)
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
    results, problems = evaluate_trace(sparse.trace, h, checks)
    assert results == checks, problems
    text = sparse.trace.to_jsonl()
    assert RunTrace.from_jsonl(text).to_jsonl() == text


class TestClusterTour:
    def build_map(self, g):
        emap = ExplorationMap()
        for v in range(g.n):
            emap.add_vertex()
        for (u, v, pu, pv) in g.edges:
            emap.add_edge(u, pu, v, pv)
        return emap

    def test_singleton_adjacent_cluster_is_one_move(self):
        emap = self.build_map(gen("path:3"))
        plan = plan_cluster_tour(emap, 0, [1])
        assert plan == [(0, 1)]

    def test_cluster_containing_start_has_no_approach(self):
        emap = self.build_map(gen("complete:4"))
        plan = plan_cluster_tour(emap, 1, [1])
        assert plan == []

    def test_k3_sibling_pair_costs_two_moves(self):
        emap = self.build_map(gen("complete:3"))
        plan = plan_cluster_tour(emap, 0, [1, 2])
        assert len(plan) == 2
        assert {t for _p, t in plan} == {1, 2}

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
            plan = plan_cluster_tour(emap, start, sorted(chunk))
            seen = {start} | {t for _p, t in plan}
            assert chunk <= seen
            # every step is a real map edge
            pos = start
            for (p, target) in plan:
                stepped = emap.step(pos, p)
                assert stepped is not None and stepped[0] == target
                pos = target

    def test_unreachable_cluster_is_an_error(self):
        emap = ExplorationMap()
        emap.add_vertex()
        emap.add_vertex()  # isolated
        with pytest.raises(RuntimeError, match="unreachable"):
            plan_cluster_tour(emap, 0, [1])


class TestClusterStack:
    def test_lifo_and_push_once(self):
        st = ClusterStack()
        st.push(0)
        st.push(1)
        assert st.pop() == 1
        with pytest.raises(AssertionError):
            st.push(0)

    def test_guard_holds_under_python_O(self):
        code = "from binox.explorer import ClusterStack\nst = ClusterStack()\nst.push(3)\nst.push(3)\n"
        env = {**os.environ, "PYTHONPATH": str(Path(binox.__file__).resolve().parents[1])}
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                           text=True, env=env, timeout=60)
        assert r.returncode == 1
        assert "ExplorerInvariantError: cluster 3 pushed twice" in r.stderr


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
        from binox.families import check_interval_condition
        from binox.graph import validate

        g = interval_violation_gadget()
        assert validate(g) == []
        rep = check_interval_condition(g, 0)
        assert not rep.holds and rep.witness["vertex"] == 4

    def test_gadget_never_halts(self):
        g = interval_violation_gadget()
        _, out = run(g)
        assert out.status in ("budget_exhausted", "error_detected")

    def test_gadget_map_duplicates_the_top_vertex(self):
        g = interval_violation_gadget()
        _, out = run(g)
        mismatch = verify_rooted_isomorphism(out.final_map, g, 0)
        assert not mismatch.ok
        assert any("vertex count" in p for p in mismatch.problems)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_cycles_never_halt(self, k):
        _, out = run(f"cycle:{k}")
        assert out.status in ("budget_exhausted", "error_detected")


class TestMapExport:
    def test_snapshot_carries_cir_vis_homebase(self):
        g, out = run("complete:3")
        snap = out.final_map.snapshot()
        assert snap["homebase"] == 0
        assert set(snap) == {"n", "edges", "cir", "vis", "homebase"}
        assert snap["cir"][0] == 0
        assert all(v is not None for v in snap["vis"].values())
        # vis of the homebase is overwritten by its phase-1 visit
        assert snap["vis"][0] == 1

    def test_exported_map_reloads_as_a_valid_graph(self):
        from binox.graph import validate

        g, out = run("johnson:4,2")
        assert validate(out.final_map) == []


class TestMapBalls:
    """The map's balls come from the same builder as the ground graph's, and
    ball_signature reads them off the map's adjacency."""

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
        out = run_agent(explorer, Environment(g, 0, 10 * g.n))
        assert out.status == "budget_exhausted"
        emap = explorer.partial_result()
        assert emap.frontier()  # the cut-off map still has unexplored vertices
        for n in range(emap.n):
            assert ball_signature(emap, n) == emap.local_ball(n).signature()
