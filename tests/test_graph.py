"""Graph model: validation, balls, port navigation, layering, clusters."""

import json
import random
from itertools import combinations

import networkx as nx
import pytest

from binox.graph import (
    Ball,
    GraphFormatError,
    NotATreeError,
    PortNumberedGraph,
    ancestor_cluster,
    ball,
    ball_signature,
    cluster_decomposition,
    from_json_dict,
    layering,
    load_graph,
    save_graph,
    validate,
)

from conftest import gen, to_nx


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


class TestBall:
    def test_k3_whole_graph(self):
        g = gen("complete:3")
        b = ball(g, 0)
        assert b.size == 3
        assert len(b.edges) == 3
        assert b.center_degree() == 2

    def test_c6_triangle_free(self):
        g = gen("cycle:6")
        for v in range(6):
            b = ball(g, v)
            assert b.size == 3
            assert len(b.edges) == 2
            assert b.horizontal_edges() == []

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
        assert b.center_degree() == 6
        assert len(b.horizontal_edges()) == horizontal

    @pytest.mark.parametrize("spec", ["chordal:n=30,rate=0.5,seed=2", "johnson:4,2"])
    def test_ball_invariants(self, spec):
        g = gen(spec)
        G = to_nx(g)
        for v in range(g.n):
            b = ball(g, v)
            assert b.center_degree() == g.degree(v)
            assert b.size == g.degree(v) + 1
            # horizontal edge in the ball iff the two neighbours are adjacent
            src = b.source_ids
            for (i, j, r, s) in b.horizontal_edges():
                assert G.has_edge(src[i], src[j])
                assert g.port_pair(src[i], src[j]) == (r, s)
            expected = sum(
                1 for a, b2 in combinations(G[v], 2) if G.has_edge(a, b2)
            )
            assert len(b.horizontal_edges()) == expected

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
        g = gen(spec, ports)
        for v in range(g.n):
            assert ball_signature(g, v) == ball(g, v).signature()

    def test_ball_signature_rejects_an_invalid_vertex(self):
        with pytest.raises(ValueError):
            ball_signature(gen("path:3"), 3)

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

    def test_edges_view_counts_the_flat_list(self):
        b = ball(gen("johnson:5,2", "random:4"), 3)
        assert len(b.edges) == len(list(b.edges)) == len(b.flat) // 4 == 6 + 9
        assert list(b.edges) == [tuple(b.flat[i:i + 4]) for i in range(0, len(b.flat), 4)]
        assert b.to_json_dict()["edges"] is b.flat

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
        assert g.dest(3, []) == 3

    def test_backtrack_identity_every_edge(self):
        g = gen("chordal:n=20,rate=0.4,seed=5", ports="random:3")
        for (u, v, pu, pv) in g.edges:
            assert g.dest(u, [pu]) == v
            assert g.dest(v, [pv]) == u
            assert g.dest(u, [pu, pv]) == u

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
        assert g.dest(0, [0, 0, 0, 0]) == 0

    def test_missing_port_is_none(self):
        g = gen("path:3")
        assert g.dest(0, [5]) is None
        assert g.dest(0, [0, 1, 1]) is None  # port 1 absent at the far endpoint

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
            assert g.dest(v, forward) == cur
            assert g.dest(cur, list(reversed(back))) == v


class TestLayering:
    def test_k3(self):
        lay = layering(gen("complete:3"), 0)
        assert lay.spheres == ((0,), (1, 2))

    def test_p5_from_endpoint(self):
        lay = layering(gen("path:5"), 0)
        assert [len(s) for s in lay.spheres] == [1, 1, 1, 1, 1]

    def test_c6_sphere_sizes(self):
        g = gen("cycle:6")
        dist = nx.single_source_shortest_path_length(to_nx(g), 0)  # oracle
        sizes = [0] * (max(dist.values()) + 1)
        for d in dist.values():
            sizes[d] += 1
        assert sizes == [1, 2, 2, 1]
        lay = layering(g, 0)
        assert [len(s) for s in lay.spheres] == sizes
        assert all(lay.sphere_of[v] == dist[v] for v in range(g.n))

    @pytest.mark.parametrize("spec,root", [
        ("chordal:n=35,rate=0.4,seed=9", 4),
        ("johnson:5,2", 7),
        ("tree:n=20,seed=4", 11),
    ])
    def test_adjacent_spheres_differ_by_at_most_one(self, spec, root):
        g = gen(spec)
        lay = layering(g, root)
        assert lay.sphere_of[root] == 0
        for (u, v, _pu, _pv) in g.edges:
            assert abs(lay.sphere_of[u] - lay.sphere_of[v]) <= 1
        # spheres partition V
        assert sorted(v for s in lay.spheres for v in s) == list(range(g.n))


class TestClusters:
    def test_k3(self):
        dec = cluster_decomposition(gen("complete:3"), 0)
        assert [c.vertices for c in dec.clusters] == [(0,), (1, 2)]
        assert dec.is_tree()

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
        dec = cluster_decomposition(g, 0)
        assert len(dec.clusters) == 6
        assert all(len(c.vertices) == 1 for c in dec.clusters)
        assert not dec.is_tree()

    def test_j42_cluster_path(self):
        g = gen("johnson:4,2")
        for root in range(g.n):
            dec = cluster_decomposition(g, root)
            shapes = [(c.sphere, len(c.vertices)) for c in dec.clusters]
            assert shapes == [(0, 1), (1, 4), (2, 1)]
            assert dec.is_tree()

    @pytest.mark.parametrize("spec,root", [
        ("chordal:n=40,rate=0.5,seed=2", 0),
        ("chordal:n=40,rate=0.5,seed=2", 17),
        ("johnson:5,2", 3),
        ("cycle:9", 2),
    ])
    def test_clusters_refine_spheres(self, spec, root):
        g = gen(spec)
        dec = cluster_decomposition(g, root)
        lay = dec.layering
        for i, sphere in enumerate(lay.spheres):
            members = sorted(
                v for c in dec.clusters if c.sphere == i for v in c.vertices
            )
            assert members == list(sphere)
        for (a, b) in dec.edges:
            assert abs(dec.clusters[a].sphere - dec.clusters[b].sphere) == 1


class TestAncestor:
    def test_k3(self):
        dec = cluster_decomposition(gen("complete:3"), 0)
        assert ancestor_cluster(dec, 1) == 0

    def test_p5_chain(self):
        dec = cluster_decomposition(gen("path:5"), 0)
        for cid in range(1, 5):
            assert ancestor_cluster(dec, cid) == cid - 1

    def test_c6_not_a_tree_at_antipode(self):
        g = gen("cycle:6")
        dec = cluster_decomposition(g, 0)
        far = dec.cluster_of[3]  # the sphere-3 singleton
        with pytest.raises(NotATreeError):
            ancestor_cluster(dec, far)

    def test_root_cluster_has_no_ancestor(self):
        dec = cluster_decomposition(gen("path:5"), 0)
        with pytest.raises(ValueError):
            ancestor_cluster(dec, dec.root_cluster())


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
        assert g.dest(0, [5, 3, 0]) == 0
        b = ball(g, 1)
        assert b.center_degree() == 2
        assert sorted(p for (p, _q, _j) in b.center_edges()) == [3, 9]
