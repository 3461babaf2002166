"""Generators and the structural condition oracle."""

import json
from itertools import combinations
from unittest import mock

import networkx as nx
import pytest

from binox import families
from binox.cli import main
from binox.families import condition_failure, generate, parse_spec
from binox.graph import layering, validate
from binox.suite import DEFAULT_CHECKS, run_one

from conftest import connected_atlas, gen, to_nx, weetman_failure


def recheck_witness(g, w):
    """Replay a condition witness against the raw definitions (independent
    of the checker's internals)."""
    assert w is not None
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

    @pytest.mark.parametrize("ports", ["canonical", "random:3"])
    def test_star_is_a_tree_that_halts_with_every_check(self, ports):
        g = gen("star:30", ports)
        assert g.m == g.n - 1 == g.degree(0) and nx.is_tree(to_nx(g))
        if ports == "canonical":
            assert g.neighbors(0) == list(range(1, 30))
        all_checks = dict.fromkeys(DEFAULT_CHECKS, True)
        report, _ = run_one(g, "star:30", ports, 1, 50.0, all_checks)
        assert report.status == "halted"
        assert report.checks == all_checks

    @pytest.mark.parametrize("ports", ["canonical", "random:3"])
    def test_fan_is_chordal_and_halts_with_every_check(self, ports):
        g = gen("fan:30", ports)
        expected = {(0, v) for v in range(1, 30)} | {(v, v + 1) for v in range(1, 29)}
        assert {(u, v) for (u, v, _p, _q) in g.edges} == expected
        assert nx.is_chordal(to_nx(g)) and weetman_failure(g) is None
        all_checks = dict.fromkeys(DEFAULT_CHECKS, True)
        report, _ = run_one(g, "fan:30", ports, 1, 50.0, all_checks)
        assert report.status == "halted"
        assert report.checks == all_checks

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
                  "path:9", "complete:3", "star:8", "fan:8", "tree:n=12,seed=2"]:
            assert parse_spec(s).echo() == s

    def test_parse_spec_rejects_garbage(self):
        for s in ["johnson:5", "chordal:n=2,bogus=1", "grid:3", ""]:
            with pytest.raises(ValueError):
                parse_spec(s)
        for s, key in [("chordal:n=5,n=6", "n"), ("tree:n=5,seed=1,seed=2", "seed"),
                       ("chordal:n=9,rate=0.1, rate =0.1", "rate")]:
            with pytest.raises(ValueError, match=f"repeated parameter '{key}'"):
                parse_spec(s)
        for s in ["tree:seed=1", "chordal:rate=0.4", "tree:"]:
            with pytest.raises(ValueError, match=f"^bad generator spec '{s}': missing parameter 'n'$"):
                parse_spec(s)

    @pytest.mark.parametrize("spec,name,value", [
        ("complete:4_0", "n", "4_0"), ("complete:+4", "n", "+4"), ("complete: 4", "n", " 4"),
        ("chordal:n=1_0,rate=0.4", "n", "1_0"), ("tree:n=08,seed=1", "n", "08"),
        ("tree:n=8,seed=-3", "seed", "-3"), ("johnson:5,02", "k", "02"),
        ("path:\u0664", "n", "\u0664"),
    ])
    def test_spec_integers_are_plain_decimal(self, tmp_path, capsys, spec, name, value):
        # one spelling per number, as for port seeds: `gen` and a suite
        # config refuse the others
        message = (f"bad generator spec {spec!r}: {name} must be a natural number in plain "
                   f"decimal, got {value!r}")
        with pytest.raises(ValueError) as e:
            parse_spec(spec)
        assert str(e.value) == message
        assert main(["gen", "--spec", spec]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generators": [spec]}))
        assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 1
        assert capsys.readouterr() == ("", f"error: bad config: {message}\n")
        assert not (tmp_path / "res").exists()


def condition_reference(g, root):
    """The first triangle, then interval, failure at ``root``, recomputed by
    networkx from the definitions: the first same-sphere edge of ``g.edges``
    with no common neighbour one sphere closer, else the first vertex whose
    two or more closer neighbours induce a disconnected subgraph."""
    G = to_nx(g)
    dist = nx.single_source_shortest_path_length(G, root)
    for (u, v, _pu, _pv) in g.edges:
        if dist[u] == dist[v] and all(dist[x] != dist[u] - 1 for x in nx.common_neighbors(G, u, v)):
            return {"condition": "triangle", "root": root, "edge": sorted((u, v))}
    for v in range(g.n):
        closer = [x for x in G[v] if dist[x] == dist[v] - 1]
        if len(closer) >= 2 and not nx.is_connected(G.subgraph(closer)):
            return {"condition": "interval", "root": root, "vertex": v}
    return None


class TestTriangleCondition:
    def test_k4_holds_everywhere(self):
        g = gen("complete:4")
        for v0 in range(4):
            assert condition_failure(g, v0) is None

    def test_c5_fails_at_the_far_edge(self):
        g = gen("cycle:5")
        w = condition_failure(g, 0)
        assert w["condition"] == "triangle"
        u, v = w["edge"]
        dist = layering(g, 0)
        assert dist[u] == dist[v] == 2
        recheck_witness(g, w)

    def test_trees_hold_vacuously(self):
        g = gen("path:5")
        for v0 in range(5):
            assert condition_failure(g, v0) is None


class TestIntervalCondition:
    def test_trees_hold(self):
        g = gen("tree:n=15,seed=3")
        for v0 in range(g.n):
            assert condition_failure(g, v0) is None

    def test_c4_fails_at_the_antipode(self):
        g = gen("cycle:4")
        w = condition_failure(g, 0)
        assert w == {"condition": "interval", "root": 0, "vertex": 2}
        recheck_witness(g, w)

    def test_j42_holds_exhaustively(self):
        g = gen("johnson:4,2")
        for v0 in range(g.n):
            assert condition_failure(g, v0) is None


ATLAS_6 = connected_atlas(6)


@pytest.mark.parametrize("i", [i for i, g in ATLAS_6.items() if g.n >= 2], ids="atlas-G{}".format)
def test_condition_failure_matches_networkx_from_every_root(i):
    g = ATLAS_6[i]
    for root in range(g.n):
        assert condition_failure(g, root) == condition_reference(g, root), root


class TestWeetman:
    def test_chordal_instances_are_weetman(self):
        assert weetman_failure(gen("chordal:n=50,rate=0.3,seed=1")) is None

    @pytest.mark.parametrize("k", range(4, 9))
    def test_cycles_rejected_with_recheckable_witness(self, k):
        recheck_witness(gen(f"cycle:{k}"), weetman_failure(gen(f"cycle:{k}")))

    def test_triangle_is_weetman(self):
        assert weetman_failure(gen("cycle:3")) is None

    def test_complete_7(self):
        assert weetman_failure(gen("complete:7")) is None

    @pytest.mark.parametrize("spec", ["johnson:4,2", "johnson:5,2", "johnson:6,2"])
    def test_johnson_graphs(self, spec):
        assert weetman_failure(gen(spec)) is None

    @pytest.mark.parametrize("spec,condition", [
        pytest.param(spec, condition, id=spec) for spec, condition in [
            ("chordal:n=30,rate=0.4,seed=1", None), ("johnson:5,2", None),
            ("tree:n=20,seed=2", None), ("cycle:4", "interval"), ("cycle:5", "triangle"),
        ]
    ])
    def test_one_layering_per_root_and_the_verdict_of_both_checks(self, spec, condition):
        # C4 fails only the interval condition, C5 only the triangle condition
        g = gen(spec)
        roots = []
        layered = families.layering

        def counting(graph, v0):
            roots.append(v0)
            return layered(graph, v0)

        with mock.patch.object(families, "layering", counting):
            failure = weetman_failure(g)
        assert (failure and failure["condition"]) == condition
        assert failure == condition_reference(g, roots[-1])
        assert roots == list(range(g.n if failure is None else failure["root"] + 1))

    def test_weetman_implies_cluster_tree_for_every_root(self):
        from binox.graph import SEVERAL_PARENTS, cluster_decomposition

        for spec in ("chordal:n=20,rate=0.5,seed=5", "johnson:5,2", "complete:6"):
            g = gen(spec)
            assert weetman_failure(g) is None
            for v0 in range(g.n):
                _dist, _cluster_of, parent = cluster_decomposition(g, v0)
                assert SEVERAL_PARENTS not in parent, (spec, v0)

    def test_chordal_subset_of_weetman_over_many_seeds(self):
        # the containment is verified empirically, not assumed
        for n in (8, 12, 16, 20):
            for seed in range(30):
                g = gen(f"chordal:n={n},rate=0.5,seed={seed}")
                assert nx.is_chordal(to_nx(g)), f"generator broke chordality at n={n} seed={seed}"
                assert weetman_failure(g) is None, f"chordal not Weetman at n={n} seed={seed}"


class TestChordal:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_vs_networkx(self, seed):
        assert nx.is_chordal(to_nx(gen(f"chordal:n=45,rate=0.6,seed={seed}")))
