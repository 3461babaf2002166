"""Graph model: validation, balls, port navigation, layering, clusters."""

import copy
import json
import os
import random
import subprocess
import sys
from base64 import b64decode
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import binox
from binox.graph import (
    ROOT_CLUSTER,
    SEVERAL_PARENTS,
    Ball,
    GraphFormatError,
    PortNumberedGraph,
    ball,
    cluster_decomposition,
    from_json_dict,
    layering,
    load_graph,
    save_graph,
    validate,
)

import loader_reference
from conftest import (
    ball_signature,
    center_degree,
    center_edges,
    connected_atlas,
    dest,
    gen,
    horizontal_edges,
    port_pair,
    source_ids,
    to_nx,
)


class TestValidate:
    def test_k3_canonical_ok(self):
        g = gen("complete:3")
        assert validate(g) == []

    def test_duplicate_out_port(self):
        g = PortNumberedGraph(3, [(0, 1, 0, 0), (0, 2, 0, 1)])
        assert any("port injectivity" in p for p in validate(g))

    def test_two_disjoint_edges_disconnected(self):
        g = PortNumberedGraph(4, [(0, 1, 0, 0), (2, 3, 0, 0)])
        assert any("disconnected" in p for p in validate(g))

    def test_self_loop(self):
        g = PortNumberedGraph(2, [(0, 0, 0, 1), (0, 1, 2, 0)])
        assert any("self-loop" in p for p in validate(g))

    def test_parallel_edge(self):
        g = PortNumberedGraph(2, [(0, 1, 0, 0), (0, 1, 1, 1)])
        assert any("parallel" in p for p in validate(g))

    def test_out_of_range(self):
        g = PortNumberedGraph(2, [(0, 5, 0, 0)])
        assert any("out of range" in p for p in validate(g))

    @pytest.mark.parametrize("spec", [
        "complete:7", "cycle:9", "path:6", "johnson:5,2",
        "chordal:n=40,rate=0.5,seed=3", "tree:n=25,seed=1",
    ])
    def test_generators_produce_valid_graphs(self, spec):
        assert validate(gen(spec)) == []
        assert validate(gen(spec, ports="random:13")) == []


LOADER_SPECS = st.one_of(
    st.builds("tree:n={},seed={}".format, st.integers(2, 25), st.integers(0, 9)),
    st.builds("chordal:n={},rate=0.4,seed={}".format, st.integers(3, 25), st.integers(0, 9)),
    st.sampled_from(["johnson:5,2", "johnson:6,3", "complete:5", "path:2"]),
)
PORTS = st.sampled_from(["canonical", "random:1", "random:7"])
DEFECTS = ["none", "reversed edge", "out of range", "negative id", "self loop", "parallel edge",
           "reused port", "negative port", "bool", "three values", "not a list", "disconnected"]
# the defects a graph built from int tuples can have
INT_DEFECTS = [d for d in DEFECTS if d not in ("bool", "three values", "not a list")]


def damage(d, defect, data):
    """Give the graph dict ``d`` the defect ``defect`` (a name of DEFECTS)
    at an edge ``data`` draws."""
    n, edges = d["n"], d["edges"]
    i = data.draw(st.integers(0, len(edges) - 1))
    e = edges[i]
    if type(e) is not list or len(e) != 4:  # an earlier defect's item
        return
    end, port = data.draw(st.integers(0, 1)), data.draw(st.integers(2, 3))
    if defect == "reversed edge":
        edges[i] = [e[1], e[0], e[3], e[2]]
    elif defect == "out of range":
        e[end] = n + data.draw(st.integers(0, 3))
    elif defect == "negative id":
        e[end] = -data.draw(st.integers(1, 3))
    elif defect == "self loop":
        e[1] = e[0]
    elif defect == "parallel edge":
        edges.insert(data.draw(st.integers(0, len(edges))),
                     [e[1], e[0], data.draw(st.integers(0, 30)), data.draw(st.integers(0, 30))])
    elif defect == "reused port":
        # the port of another edge at the same end
        w = e[port - 2]
        taken = [f[2] if f[0] == w else f[3] for f in edges
                 if f is not e and type(f) is list and len(f) == 4 and w in f[:2]]
        if taken:
            e[port] = data.draw(st.sampled_from(taken))
    elif defect == "negative port":
        e[port] = -data.draw(st.integers(1, 3))
    elif defect == "bool":
        e[data.draw(st.integers(0, 3))] = data.draw(st.booleans())
    elif defect == "three values":
        del e[data.draw(st.integers(0, 3))]
    elif defect == "not a list":
        edges[i] = data.draw(st.sampled_from([5, "abcd", None, {"a": 1, "b": 2, "c": 3, "d": 4}]))
    elif defect == "disconnected":
        d["n"] = n + 1


def loaded(load, d):
    """The graph ``load`` builds from a copy of ``d``, or its error text."""
    try:
        g = load(copy.deepcopy(d))
    except GraphFormatError as e:
        return str(e)
    return g.n, g.edges, g._ports, g._nbrs


class TestLoaderAgainstReference:
    """The bulk-checked loader against ``loader_reference``, which checks,
    indexes and validates one edge at a time."""

    @settings(max_examples=400, deadline=None)
    @given(LOADER_SPECS, PORTS, st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=2),
           st.data())
    def test_from_json_dict_matches_the_reference(self, spec, ports, defects, data):
        d = gen(spec, ports).to_json_dict()
        for defect in defects:
            damage(d, defect, data)
        assert loaded(from_json_dict, d) == loaded(loader_reference.from_json_dict, d)

    @settings(max_examples=200, deadline=None)
    @given(LOADER_SPECS, PORTS, st.sampled_from(INT_DEFECTS), st.data())
    def test_graph_index_and_validate_match_the_reference(self, spec, ports, defect, data):
        # the graph built from tuples, as a caller in the program builds one
        d = gen(spec, ports).to_json_dict()
        damage(d, defect, data)
        edges = [tuple(e) for e in d["edges"]]
        g, ref = PortNumberedGraph(d["n"], edges), loader_reference._graph(d["n"], edges)
        assert (g.edges, g._ports, g._nbrs) == (ref.edges, ref._ports, ref._nbrs)
        assert validate(g) == loader_reference.validate(ref)


class TestBall:
    def test_k3_whole_graph(self):
        g = gen("complete:3")
        b = ball(g, 0)
        assert b.size == 3
        assert len(b.edges) == 3
        assert center_degree(b) == 2

    def test_c6_triangle_free(self):
        g = gen("cycle:6")
        for v in range(6):
            b = ball(g, v)
            assert b.size == 3
            assert len(b.edges) == 2
            assert horizontal_edges(b) == []

    def test_johnson_5_2_against_enumeration(self):
        # oracle: 2-subsets of {0..4}, adjacent iff they share one element
        subsets = list(combinations(range(5), 2))
        nbr_count = sum(1 for t in subsets[1:] if len(set(subsets[0]) & set(t)) == 1)
        assert nbr_count == 6
        nbrs = [t for t in subsets if t != subsets[0] and len(set(subsets[0]) & set(t)) == 1]
        horizontal = sum(
            1 for a, b in combinations(nbrs, 2) if len(set(a) & set(b)) == 1
        )
        assert horizontal == 9  # the neighbourhood is the 3x2 rook's graph

        g = gen("johnson:5,2")
        b = ball(g, 0)
        assert b.size == 7
        assert center_degree(b) == 6
        assert len(horizontal_edges(b)) == horizontal

    @pytest.mark.parametrize("spec", ["chordal:n=30,rate=0.5,seed=2", "johnson:4,2"])
    def test_ball_invariants(self, spec):
        g = gen(spec)
        G = to_nx(g)
        for v in range(g.n):
            b = ball(g, v)
            assert center_degree(b) == g.degree(v)
            assert b.size == g.degree(v) + 1
            # horizontal edge in the ball iff the two neighbours are adjacent
            src = source_ids(g, v)
            for (i, j, r, s) in horizontal_edges(b):
                assert G.has_edge(src[i], src[j])
                assert port_pair(g, src[i], src[j]) == (r, s)
            expected = sum(
                1 for a, b2 in combinations(G[v], 2) if G.has_edge(a, b2)
            )
            assert len(horizontal_edges(b)) == expected

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            ball(gen("path:3"), 7)

    def test_relabel_keeps_signature(self):
        g = gen("johnson:4,2")
        b = ball(g, 2)
        perm = [0, 3, 1, 4, 2] + list(range(5, b.size))
        assert b.relabel(perm).signature() == b.signature()
        with pytest.raises(ValueError):
            b.relabel([1, 0] + list(range(2, b.size)))

    @pytest.mark.parametrize("ports", ["canonical", "random:3", "random:29"])
    @pytest.mark.parametrize("spec", [
        "complete:9", "johnson:5,2", "johnson:6,3", "chordal:n=40,rate=0.5,seed=3",
        "tree:n=30,seed=2", "cycle:7", "path:1",
    ])
    def test_ball_signature_equals_the_built_balls(self, spec, ports):
        # the tests' reference signature, read off the adjacency
        g = gen(spec, ports)
        for v in range(g.n):
            assert ball_signature(g, v) == ball(g, v).signature()

    @pytest.mark.parametrize("seed", range(5))
    def test_relabel_normalizes_like_the_public_constructor(self, seed):
        g = gen("chordal:n=25,rate=0.6,seed=1", f"random:{seed}")
        rng = random.Random(seed)
        for v in range(g.n):
            b = ball(g, v)
            tail = list(range(1, b.size))
            rng.shuffle(tail)
            perm = [0] + tail
            relabelled = [(perm[u], perm[w], pu, pw) for (u, w, pu, pw) in b.edges]
            assert b.relabel(perm).edges == Ball(b.size, relabelled).edges
            assert all(u < w for (u, w, _pu, _pw) in b.relabel(perm).edges)

    @pytest.mark.parametrize("spec", ["star:60", "fan:60", "chordal:n=800,rate=1.0,seed=1",
                                      "tree:n=200,seed=3", "complete:12"])
    def test_ball_writes_the_edges_in_the_order_of_the_pair_scan(self, spec):
        # the reference: every pair of neighbours (k, m), k < m in port order
        g = gen(spec, "random:5")
        rng = random.Random(spec)
        for v in range(g.n):
            cps = g.ports(v)
            ids = list(range(1, len(cps) + 1))
            rng.shuffle(ids)
            expected = []
            for i, p in zip(ids, cps):
                expected += (0, i, p, g.step(v, p)[1])
            near = g.neighbors(v)
            for k, m in combinations(range(len(near)), 2):
                pq = port_pair(g, near[k], near[m])
                if pq:
                    i, j = ids[k], ids[m]
                    expected += (i, j, *pq) if i < j else (j, i, pq[1], pq[0])
            assert list(ball(g, v, ids).flat) == expected
        if spec.startswith(("star", "fan")):  # the hub looks up its neighbours' ranks
            assert binox.graph._SCAN_FACTOR * g.degree(1) < g.degree(0) - 1

    def test_edges_view_counts_the_flat_list(self):
        b = ball(gen("johnson:5,2", "random:4"), 3)
        assert len(b.edges) == len(list(b.edges)) == len(b.flat) // 4 == 6 + 9
        assert list(b.edges) == [tuple(b.flat[i:i + 4]) for i in range(0, len(b.flat), 4)]
        assert list(b64decode(b.to_json_dict()["edges"])) == list(b.flat)

    @pytest.mark.parametrize("spec", ["johnson:5,2", "chordal:n=20,rate=0.6,seed=4", "cycle:5"])
    def test_matches_decides_rooted_isomorphism(self, spec):
        g = gen(spec, "random:9")
        rng = random.Random(2)
        for v in range(g.n):
            ids = list(range(1, g.degree(v) + 1))
            rng.shuffle(ids)
            b = ball(g, v, ids)
            assert b.matches(g, v)
            for u in range(g.n):
                assert b.matches(g, u) == (b.signature() == ball_signature(g, u))

    def test_matches_rejects_repeated_center_edges_and_a_wrong_size(self):
        # path 1 - 0 - 2: ports 0 and 1 at the center, 0 at each end
        g = PortNumberedGraph(3, [(0, 1, 0, 0), (0, 2, 1, 0)])
        assert Ball(3, [(0, 1, 0, 0), (0, 2, 1, 0)]).matches(g, 0)
        assert Ball(3, [(0, 2, 0, 0), (0, 1, 1, 0)]).matches(g, 0)
        assert not Ball(3, [(0, 1, 0, 0), (0, 2, 0, 0)]).matches(g, 0)
        assert not Ball(3, [(0, 1, 0, 0), (0, 1, 1, 0)]).matches(g, 0)
        assert not Ball(4, [(0, 1, 0, 0), (0, 2, 1, 0)]).matches(g, 0)
        assert not Ball(2, [(0, 1, 0, 0), (0, 1, 1, 0)]).matches(g, 0)
        assert not Ball(3, [(0, 1, 0, 0), (0, 2, 1, 1)]).matches(g, 0)
        assert not Ball(3, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 1, 1)]).matches(g, 0)


class TestDest:
    def test_empty_path(self):
        g = gen("cycle:5")
        assert dest(g, 3, []) == 3

    def test_backtrack_identity_every_edge(self):
        g = gen("chordal:n=20,rate=0.4,seed=5", ports="random:3")
        for (u, v, pu, pv) in g.edges:
            assert dest(g, u, [pu]) == v
            assert dest(g, v, [pv]) == u
            assert dest(g, u, [pu, pv]) == u

    def test_c4_all_zero_ports_round_trip(self):
        g = gen("cycle:4")
        # independent walk over the raw edge list
        lookup = {}
        for (u, v, pu, pv) in g.edges:
            lookup[(u, pu)] = v
            lookup[(v, pv)] = u
        pos = 0
        for _ in range(4):
            pos = lookup[(pos, 0)]
        assert pos == 0
        assert dest(g, 0, [0, 0, 0, 0]) == 0

    def test_missing_port_is_none(self):
        g = gen("path:3")
        assert dest(g, 0, [5]) is None
        assert dest(g, 0, [0, 1, 1]) is None  # port 1 absent at the far endpoint

    def test_full_path_backtrack_round_trip(self):
        import random

        g = gen("chordal:n=25,rate=0.5,seed=4", ports="random:6")
        rng = random.Random(0)
        for _ in range(20):
            v = rng.randrange(g.n)
            forward, back = [], []
            cur = v
            for _ in range(rng.randrange(1, 8)):
                p = rng.choice(g.ports(cur))
                w, q = g.step(cur, p)
                forward.append(p)
                back.append(q)
                cur = w
            assert dest(g, v, forward) == cur
            assert dest(g, cur, list(reversed(back))) == v


class TestLayering:
    def test_k3(self):
        assert layering(gen("complete:3"), 0) == [0, 1, 1]

    def test_p5_from_endpoint(self):
        assert layering(gen("path:5"), 0) == [0, 1, 2, 3, 4]

    def test_c6_sphere_sizes(self):
        g = gen("cycle:6")
        dist = nx.single_source_shortest_path_length(to_nx(g), 0)  # oracle
        sizes = [0] * (max(dist.values()) + 1)
        for d in dist.values():
            sizes[d] += 1
        assert sizes == [1, 2, 2, 1]
        got = layering(g, 0)
        assert [got.count(d) for d in range(len(sizes))] == sizes
        assert got == [dist[v] for v in range(g.n)]

    @pytest.mark.parametrize("spec,root", [
        ("chordal:n=35,rate=0.4,seed=9", 4),
        ("johnson:5,2", 7),
        ("tree:n=20,seed=4", 11),
    ])
    def test_adjacent_spheres_differ_by_at_most_one(self, spec, root):
        g = gen(spec)
        dist = layering(g, root)
        assert dist[root] == 0
        for (u, v, _pu, _pv) in g.edges:
            assert abs(dist[u] - dist[v]) <= 1
        # every vertex is in one sphere
        assert len(dist) == g.n and min(dist) == 0

    def test_rejects_a_bad_root_and_a_disconnected_graph(self):
        with pytest.raises(ValueError, match="invalid root"):
            layering(gen("path:3"), 3)
        with pytest.raises(ValueError, match="connected"):
            layering(PortNumberedGraph(3, [(0, 1, 0, 0)]), 0)


ATLAS_6 = connected_atlas(6)


def cluster_oracle(g, root):
    """networkx's (dist, cluster_of, unique predecessor cluster or None per
    cluster, is the cluster graph a tree): the components of each sphere's
    induced subgraph, numbered sphere by sphere and by smallest vertex."""
    G = to_nx(g)
    dist = nx.single_source_shortest_path_length(G, root)
    comps = []
    for d in range(max(dist.values()) + 1):
        sphere = G.subgraph(v for v in G if dist[v] == d)
        comps += sorted((sorted(c) for c in nx.connected_components(sphere)), key=min)
    cluster_of = {v: c for c, comp in enumerate(comps) for v in comp}
    preds = [{cluster_of[y] for x in comp for y in G[x] if dist[y] == dist[x] - 1}
             for comp in comps]
    unique = [next(iter(p)) if len(p) == 1 else None for p in preds]
    Q = nx.quotient_graph(G, [set(c) for c in comps])
    return ([dist[v] for v in range(g.n)], [cluster_of[v] for v in range(g.n)],
            unique, nx.is_tree(Q))


class TestClusters:
    def test_k3(self):
        dist, cluster_of, parent = cluster_decomposition(gen("complete:3"), 0)
        assert dist == [0, 1, 1]
        assert cluster_of == [0, 1, 1]
        assert parent == [ROOT_CLUSTER, 0]

    def test_cluster_edge_guard_holds_under_python_O(self):
        # component() stubbed to return only its start vertex: the adjacent
        # sphere-1 vertices 1 and 2 of a triangle land in two clusters
        code = (
            "import binox.graph as G\n"
            "G.component = lambda g, start, within=None: {start}\n"
            "G.cluster_decomposition(G.PortNumberedGraph(3, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 1, 1)]), 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(binox.__file__).resolve().parents[1])}
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                           text=True, env=env, timeout=60)
        assert r.returncode == 1
        assert "AssertionError: cluster edge 1-2 between spheres 1 and 1" in r.stderr

    def test_c6_singletons_with_cycle(self):
        g = gen("cycle:6")
        # oracle: components of each sphere's induced subgraph
        G = to_nx(g)
        dist = nx.single_source_shortest_path_length(G, 0)
        comps = []
        for d in range(max(dist.values()) + 1):
            sphere = [v for v in G if dist[v] == d]
            comps.extend(nx.connected_components(G.subgraph(sphere)))
        assert len(comps) == 6
        _dist, cluster_of, parent = cluster_decomposition(g, 0)
        assert len(parent) == 6
        assert sorted(cluster_of) == list(range(6))  # every cluster a singleton
        assert SEVERAL_PARENTS in parent

    def test_j42_cluster_path(self):
        g = gen("johnson:4,2")
        for root in range(g.n):
            dist, cluster_of, parent = cluster_decomposition(g, root)
            shapes = [(dist[cluster_of.index(c)], cluster_of.count(c))
                      for c in range(len(parent))]
            assert shapes == [(0, 1), (1, 4), (2, 1)]
            assert parent == [ROOT_CLUSTER, 0, 1]

    @pytest.mark.parametrize("spec,root", [
        ("chordal:n=40,rate=0.5,seed=2", 0),
        ("chordal:n=40,rate=0.5,seed=2", 17),
        ("johnson:5,2", 3),
        ("cycle:9", 2),
    ] + [pytest.param(i, None, id=f"atlas-G{i}") for i in ATLAS_6])
    def test_clusters_refine_spheres(self, spec, root):
        """Against networkx, from ``root`` or, for an atlas graph (``spec``
        its index), from every root: the spheres, the clusters and their
        numbering, each cluster's unique predecessor cluster, and the tree
        verdict (the graph of clusters, each contracted to a vertex, is a
        tree); a cycle of four or more vertices is never a tree."""
        g = ATLAS_6[spec] if root is None else gen(spec)
        cycle = g.n >= 4 and all(g.degree(v) == 2 for v in range(g.n))
        for r in range(g.n) if root is None else [root]:
            dist, cluster_of, parent = cluster_decomposition(g, r)
            want_dist, want_cluster_of, unique, tree = cluster_oracle(g, r)
            assert (dist, cluster_of) == (want_dist, want_cluster_of), r
            assert len(parent) == len(unique)
            assert parent[0] == ROOT_CLUSTER
            for c in range(1, len(parent)):
                assert parent[c] == (SEVERAL_PARENTS if unique[c] is None else unique[c]), (r, c)
            assert (SEVERAL_PARENTS not in parent) == tree, r
            if cycle:
                assert SEVERAL_PARENTS in parent, r


class TestAncestor:
    def test_k3(self):
        _dist, _cluster_of, parent = cluster_decomposition(gen("complete:3"), 0)
        assert parent[1] == 0

    def test_p5_chain(self):
        _dist, _cluster_of, parent = cluster_decomposition(gen("path:5"), 0)
        for cid in range(1, 5):
            assert parent[cid] == cid - 1

    def test_c6_not_a_tree_at_antipode(self):
        g = gen("cycle:6")
        _dist, cluster_of, parent = cluster_decomposition(g, 0)
        far = cluster_of[3]  # the sphere-3 singleton
        assert parent[far] == SEVERAL_PARENTS
        assert parent.count(SEVERAL_PARENTS) == 1

    def test_root_cluster_has_no_ancestor(self):
        _dist, cluster_of, parent = cluster_decomposition(gen("path:5"), 0)
        assert cluster_of[0] == 0
        assert parent[0] == ROOT_CLUSTER
        assert parent.count(ROOT_CLUSTER) == 1


class TestGrow:
    def test_add_edge_returns_the_corners_it_closes(self):
        g = PortNumberedGraph(0, [])
        for _ in range(4):
            g.add_vertex()
        assert g.add_edge(0, 0, 1, 0) == set()
        assert g.add_edge(0, 1, 2, 0) == set()
        assert g.add_edge(2, 1, 1, 1) == {0}
        assert g.add_edge(3, 0, 0, 2) == set()
        assert g.add_edge(1, 2, 3, 1) == {0}
        assert g.add_edge(3, 2, 2, 2) == {0, 1}
        assert g.add_edge(3, 2, 2, 2) is False  # the same edge again
        assert g.add_edge(2, 2, 3, 2) is False
        assert g._counts() == [3] * 4
        assert g.m == 6


class TestJson:
    def test_round_trip(self, tmp_path):
        g = gen("chordal:n=25,rate=0.3,seed=8", ports="random:2")
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.to_json() == g.to_json()

    def test_loader_rejects_invalid_with_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 0, 0], [0, 2, 0, 0]]}))
        with pytest.raises(GraphFormatError, match="port injectivity"):
            load_graph(path)

    def test_loader_rejects_malformed_edge(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 0]]}))
        with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
            load_graph(path)

    def test_loader_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            load_graph(path)

    def test_from_json_dict_requires_fields(self):
        with pytest.raises(GraphFormatError):
            from_json_dict({"edges": []})
        with pytest.raises(GraphFormatError):
            from_json_dict({"n": -1, "edges": []})

    def test_arbitrary_injective_ports_are_legal(self):
        # ports are any injective naturals, not necessarily 0..deg-1
        g = from_json_dict({"n": 3, "edges": [[0, 1, 5, 9], [1, 2, 3, 40], [0, 2, 2, 0]]})
        assert validate(g) == []
        assert dest(g, 0, [5, 3, 0]) == 0
        b = ball(g, 1)
        assert center_degree(b) == 2
        assert sorted(p for (p, _q, _j) in center_edges(b)) == [3, 9]
