"""Generators and the structural condition checkers."""

from itertools import combinations

import networkx as nx
import pytest

from binox.families import (
    check_interval_condition,
    check_triangle_condition,
    generate,
    is_chordal,
    is_weetman,
    parse_spec,
)
from binox.graph import layering, validate

from conftest import gen, to_nx


def recheck_witness(g, report):
    """Replay a condition witness against the raw definitions (independent
    of the checker's internals)."""
    assert not report.holds and report.witness is not None
    w = report.witness
    dist = nx.single_source_shortest_path_length(to_nx(g), w["root"])
    if w["condition"] == "triangle":
        u, v = w["edge"]
        assert to_nx(g).has_edge(u, v)
        assert dist[u] == dist[v] >= 1
        common = [
            x for x in to_nx(g)
            if dist[x] == dist[u] - 1
            and to_nx(g).has_edge(x, u)
            and to_nx(g).has_edge(x, v)
        ]
        assert common == []
    else:
        v = w["vertex"]
        preds = [x for x in to_nx(g)[v] if dist[x] == dist[v] - 1]
        assert len(preds) >= 2
        assert not nx.is_connected(to_nx(g).subgraph(preds))


class TestGenerate:
    def test_johnson_5_2_against_enumeration(self):
        subsets = list(combinations(range(5), 2))
        expected = {
            (i, j)
            for i, a in enumerate(subsets)
            for j, b in enumerate(subsets)
            if i < j and len(set(a) & set(b)) == 1
        }
        assert (len(subsets), len(expected)) == (10, 30)
        g = gen("johnson:5,2")
        assert (g.n, g.m) == (10, 30)
        assert {(min(u, v), max(u, v)) for (u, v, _p, _q) in g.edges} == expected
        assert all(g.degree(v) == 6 for v in range(g.n))

    def test_johnson_4_2_octahedron(self):
        g = gen("johnson:4,2")
        assert (g.n, g.m) == (6, 12)
        assert all(g.degree(v) == 4 for v in range(g.n))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_johnson_k1_is_complete(self, n):
        g = gen(f"johnson:{n},1")
        assert g.n == n and g.m == n * (n - 1) // 2

    def test_cycle_path_complete_shapes(self):
        c = gen("cycle:6")
        assert (c.n, c.m) == (6, 6) and all(c.degree(v) == 2 for v in range(6))
        p = gen("path:7")
        assert (p.n, p.m) == (7, 6)
        k = gen("complete:5")
        assert (k.n, k.m) == (5, 10)

    def test_tree_is_a_tree(self):
        g = gen("tree:n=40,seed=6")
        assert g.m == g.n - 1
        assert nx.is_tree(to_nx(g))

    def test_single_vertex(self):
        g = gen("path:1")
        assert (g.n, g.m) == (1, 0)
        assert validate(g) == []

    @pytest.mark.parametrize("bad", ["johnson:2,5", "cycle:2", "path:0", "nosuch:4",
                                     "chordal:n=5,rate=2", "chordal:n=5,rate=-0.1"])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            generate(parse_spec(bad))

    def test_deterministic_byte_for_byte(self):
        a = gen("chordal:n=60,rate=0.5,seed=11", ports="random:4")
        b = gen("chordal:n=60,rate=0.5,seed=11", ports="random:4")
        assert a.to_json() == b.to_json()
        c = gen("chordal:n=60,rate=0.5,seed=12", ports="random:4")
        assert c.to_json() != a.to_json()

    def test_port_scheme_changes_ports_not_adjacency(self):
        a = gen("johnson:5,2")
        b = gen("johnson:5,2", ports="random:9")
        pairs = lambda g: {(min(u, v), max(u, v)) for (u, v, _p, _q) in g.edges}
        assert pairs(a) == pairs(b)
        assert a.to_json() != b.to_json()
        for v in range(b.n):
            assert sorted(b.ports(v)) == list(range(b.degree(v)))

    def test_parse_spec_echo_round_trip(self):
        for s in ["johnson:5,2", "chordal:n=100,rate=0.4,seed=7", "cycle:6",
                  "path:9", "complete:3", "tree:n=12,seed=2"]:
            assert parse_spec(s).echo() == s

    def test_parse_spec_rejects_garbage(self):
        for s in ["johnson:5", "chordal:n=2,bogus=1", "grid:3", ""]:
            with pytest.raises(ValueError):
                parse_spec(s)


class TestTriangleCondition:
    def test_k4_holds_everywhere(self):
        g = gen("complete:4")
        for v0 in range(4):
            assert check_triangle_condition(g, v0).holds

    def test_c5_fails_at_the_far_edge(self):
        g = gen("cycle:5")
        rep = check_triangle_condition(g, 0)
        assert not rep.holds
        u, v = rep.witness["edge"]
        lay = layering(g, 0)
        assert lay.sphere_of[u] == lay.sphere_of[v] == 2
        recheck_witness(g, rep)

    def test_trees_hold_vacuously(self):
        g = gen("path:5")
        for v0 in range(5):
            assert check_triangle_condition(g, v0).holds


class TestIntervalCondition:
    def test_trees_hold(self):
        g = gen("tree:n=15,seed=3")
        for v0 in range(g.n):
            assert check_interval_condition(g, v0).holds

    def test_c4_fails_at_the_antipode(self):
        g = gen("cycle:4")
        rep = check_interval_condition(g, 0)
        assert not rep.holds
        assert rep.witness["vertex"] == 2
        recheck_witness(g, rep)

    def test_j42_holds_exhaustively(self):
        g = gen("johnson:4,2")
        for v0 in range(g.n):
            assert check_interval_condition(g, v0).holds


class TestWeetman:
    def test_chordal_instances_are_weetman(self):
        assert is_weetman(gen("chordal:n=50,rate=0.3,seed=1")).holds

    @pytest.mark.parametrize("k", range(4, 9))
    def test_cycles_rejected_with_recheckable_witness(self, k):
        rep = is_weetman(gen(f"cycle:{k}"))
        assert not rep.holds
        recheck_witness(gen(f"cycle:{k}"), rep)

    def test_triangle_is_weetman(self):
        assert is_weetman(gen("cycle:3")).holds

    def test_complete_7(self):
        assert is_weetman(gen("complete:7")).holds

    @pytest.mark.parametrize("spec", ["johnson:4,2", "johnson:5,2", "johnson:6,2"])
    def test_johnson_graphs(self, spec):
        assert is_weetman(gen(spec)).holds

    def test_weetman_implies_cluster_tree_for_every_root(self):
        from binox.graph import cluster_decomposition

        for spec in ("chordal:n=20,rate=0.5,seed=5", "johnson:5,2", "complete:6"):
            g = gen(spec)
            assert is_weetman(g).holds
            for v0 in range(g.n):
                assert cluster_decomposition(g, v0).is_tree(), (spec, v0)

    def test_chordal_subset_of_weetman_over_many_seeds(self):
        # the containment is verified empirically, not assumed
        for n in (8, 12, 16, 20):
            for seed in range(30):
                g = gen(f"chordal:n={n},rate=0.5,seed={seed}")
                ok, _ = is_chordal(g)
                assert ok, f"generator broke chordality at n={n} seed={seed}"
                assert is_weetman(g).holds, f"chordal not Weetman at n={n} seed={seed}"


class TestChordal:
    def test_trees_are_chordal(self):
        ok, order = is_chordal(gen("tree:n=20,seed=2"))
        assert ok and sorted(order) == list(range(20))

    def test_c4_is_not(self):
        assert is_chordal(gen("cycle:4")) == (False, None)

    def test_octahedron_is_not(self):
        assert is_chordal(gen("johnson:4,2"))[0] is False

    def test_complete_is(self):
        assert is_chordal(gen("complete:8"))[0] is True

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_vs_networkx(self, seed):
        g = gen(f"chordal:n=45,rate=0.6,seed={seed}")
        ok, order = is_chordal(g)
        assert ok == nx.is_chordal(to_nx(g))
        assert ok
        # elimination ordering re-checked directly
        pos = {v: i for i, v in enumerate(order)}
        G = to_nx(g)
        for v in order:
            later = [w for w in G[v] if pos[w] > pos[v]]
            for a, b in combinations(later, 2):
                assert G.has_edge(a, b)

    @pytest.mark.parametrize("spec", ["cycle:5", "cycle:8", "johnson:5,2"])
    def test_non_chordal_vs_networkx(self, spec):
        g = gen(spec)
        assert is_chordal(g)[0] == nx.is_chordal(to_nx(g)) == False
