"""Loop homotopy oracles: moves, contractibility, simple connectivity,
tree unfolding, covering verification."""

import random

import pytest

from binox.graph import SEVERAL_PARENTS, cluster_decomposition
from binox.homotopy import verify_simplicial_covering

from conftest import gen
from homotopy_oracles import (
    BUDGET_EXHAUSTED,
    CONTRACTIBLE,
    NOT_CONTRACTIBLE_WITHIN_BUDGET,
    InstanceTooLargeError,
    cyclic_form,
    elementary_moves,
    fundamental_cycles,
    is_contractible,
    is_simply_connected,
    simple_cycles,
    unfold_tree_cover,
)
from test_ball_checks import covering_reference


def one_cyclic_deletion_apart(g, longer, shorter):
    """Independent validator: some rotation of ``longer`` minus one entry
    equals some rotation of ``shorter``, the deletion being one of the three
    elementary conditions (evaluated from the raw adjacency)."""
    L = len(longer)
    edge = lambda a, b: any(
        (u, v) in ((a, b), (b, a)) for (u, v, _p, _q) in g.edges
    )
    for r in range(L):
        rot = longer[r:] + longer[:r]
        for i in range(L):
            prv, cur, nxt = rot[i - 1], rot[i], rot[(i + 1) % L]
            legal = cur == nxt or prv == nxt or prv == cur or edge(prv, nxt)
            if not legal:
                continue
            rest = rot[:i] + rot[i + 1:]
            if cyclic_form(rest + rest[:1]) == cyclic_form(shorter + shorter[:1]):
                return True
    return False


def assert_trace_replays(g, answer):
    assert answer.trace is not None
    assert len(answer.trace[-1]) == 1
    for a, b in zip(answer.trace, answer.trace[1:]):
        longer, shorter = (a, b) if len(a) > len(b) else (b, a)
        assert len(longer) == len(shorter) + 1
        assert one_cyclic_deletion_apart(g, longer, shorter)


class TestElementaryMoves:
    def test_stationary_loop_contracts(self):
        g = gen("complete:3")
        assert (0, 0) in elementary_moves(g, (0, 0, 0))

    def test_backtrack_removal(self):
        g = gen("complete:3")
        moves = elementary_moves(g, (0, 1, 0))
        assert any(set(m) == {0} for m in moves)  # the stationary loop at 0

    def test_triangle_push(self):
        g = gen("complete:3")
        assert (0, 2, 0) in elementary_moves(g, (0, 1, 2, 0))

    def test_moves_can_grow(self):
        g = gen("cycle:4")
        assert any(len(m) > 3 for m in elementary_moves(g, (0, 1, 0)))

    @pytest.mark.parametrize("spec,loop", [
        ("complete:3", (0, 1, 2, 0)),
        ("johnson:4,2", (0, 1, 2, 0)),
        ("cycle:5", (0, 1, 1, 0, 0)),
    ])
    def test_relation_is_symmetric(self, spec, loop):
        g = gen(spec)
        for moved in elementary_moves(g, loop):
            assert loop in elementary_moves(g, moved), (loop, moved)

    def test_invalid_loops_rejected(self):
        g = gen("path:3")
        with pytest.raises(ValueError):
            elementary_moves(g, (0, 2, 0))  # not an edge
        with pytest.raises(ValueError):
            elementary_moves(g, (0, 1, 2))  # not closed


class TestContractibility:
    def test_any_tree_loop_contracts(self):
        g = gen("tree:n=12,seed=5")
        rng = random.Random(4)
        for _ in range(10):
            walk = [0]
            for _ in range(6):
                walk.append(rng.choice(g.neighbors(walk[-1])))
            loop = walk + walk[-2::-1]  # go back the same way: a closed loop
            ans = is_contractible(g, loop)
            assert ans.verdict == CONTRACTIBLE
            assert_trace_replays(g, ans)

    def test_c4_cycle_not_contractible_within_any_decent_budget(self):
        g = gen("cycle:4")
        for cap in (6, 8, 10):
            ans = is_contractible(g, (0, 1, 2, 3, 0), max_loop_length=cap)
            assert ans.verdict == NOT_CONTRACTIBLE_WITHIN_BUDGET

    def test_octahedron_hexagon_contracts(self):
        g = gen("johnson:4,2")
        hexagon = None
        for cyc in simple_cycles(g, 6, 100000):
            if len(cyc) == 7:  # closed sequence over all 6 vertices
                hexagon = cyc
                break
        assert hexagon is not None
        ans = is_contractible(g, hexagon)
        assert ans.verdict == CONTRACTIBLE
        assert_trace_replays(g, ans)

    def test_k3_triangle(self):
        g = gen("complete:3")
        ans = is_contractible(g, (0, 1, 2, 0))
        assert ans.verdict == CONTRACTIBLE and ans.steps == 2

    def test_budget_exhaustion_is_a_verdict(self):
        g = gen("cycle:8")
        ans = is_contractible(g, (0, 1, 2, 3, 4, 5, 6, 7, 0), max_steps=3)
        assert ans.verdict == BUDGET_EXHAUSTED

    def test_grown_induced_square_in_johnson(self):
        # an induced 4-cycle in J(5,2) only contracts after growing first
        g = gen("johnson:5,2")
        for cyc in simple_cycles(g, 4, 100000):
            if len(cyc) == 5:
                ans = is_contractible(g, cyc)
                assert ans.verdict == CONTRACTIBLE
                assert_trace_replays(g, ans)


class TestSimpleConnectivity:
    @pytest.mark.parametrize("spec", ["path:5", "tree:n=14,seed=8"])
    def test_trees_yes(self, spec):
        assert is_simply_connected(gen(spec)) == "yes"

    @pytest.mark.parametrize("k", range(4, 9))
    def test_cycles_no(self, k):
        assert is_simply_connected(gen(f"cycle:{k}")) == "no"

    @pytest.mark.parametrize("spec", [
        "johnson:4,2", "johnson:5,2", "complete:5", "complete:10",
        "chordal:n=10,rate=0.4,seed=1", "chordal:n=12,rate=0.6,seed=2",
    ])
    def test_small_weetman_yes(self, spec):
        assert is_simply_connected(gen(spec)) == "yes"

    def test_size_guard(self):
        with pytest.raises(InstanceTooLargeError):
            is_simply_connected(gen("complete:100"))

    def test_fundamental_cycles_are_simple_cycles(self):
        g = gen("johnson:5,2")
        cycles = fundamental_cycles(g)
        assert len(cycles) == g.m - g.n + 1
        for cyc in cycles:
            assert cyc[0] == cyc[-1]
            body = cyc[:-1]
            assert len(set(body)) == len(body)
            for a, b in zip(cyc, cyc[1:]):
                assert g.has_edge(a, b)

    @pytest.mark.parametrize("spec,root", [
        ("johnson:4,2", 1),
        ("complete:6", 0),
        ("chordal:n=12,rate=0.5,seed=4", 3),
        ("tree:n=10,seed=1", 5),
    ])
    def test_simply_connected_implies_cluster_tree(self, spec, root):
        g = gen(spec)
        assert is_simply_connected(g) == "yes"
        _dist, _cluster_of, parent = cluster_decomposition(g, root)
        assert SEVERAL_PARENTS not in parent


class TestTreeCover:
    def test_c6_radius_4_is_a_nine_path(self):
        g = gen("cycle:6")
        cover, proj, boundary = unfold_tree_cover(g, 0, 4)
        assert cover.n == 9 and cover.m == 8
        assert sorted(cover.degree(v) for v in range(9)) == [1, 1] + [2] * 7
        assert proj[0] == 0 and len(boundary) == 2
        assert covering_reference(cover, g, proj, exclude=boundary) == []
        # the cut-off boundary vertices lack degree, nothing else is wrong
        problems = verify_simplicial_covering(cover, g, proj)
        assert sorted(p.split(":")[0] for p in problems) == sorted(f"degree at {u}" for u in boundary)

    def test_path5_is_its_own_cover(self):
        g = gen("path:5")
        cover, proj, boundary = unfold_tree_cover(g, 0, 10)
        assert cover.n == 5 and boundary == []
        assert verify_simplicial_covering(cover, g, proj) == []

    def test_c4_radius_2_is_a_five_path(self):
        g = gen("cycle:4")
        cover, _proj, _b = unfold_tree_cover(g, 0, 2)
        assert cover.n == 5
        assert sorted(cover.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]

    def test_triangles_rejected(self):
        with pytest.raises(ValueError, match="triangle"):
            unfold_tree_cover(gen("complete:3"), 0, 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            unfold_tree_cover(gen("cycle:4"), 0, -1)


class TestCoveringVerifier:
    def test_identity_is_a_covering(self):
        g = gen("johnson:4,2")
        assert verify_simplicial_covering(g, g, list(range(g.n))) == []

    def test_collapsing_two_neighbours(self):
        # path b-a-c mapped onto a single edge folds b and c together
        from binox.graph import PortNumberedGraph

        h = PortNumberedGraph(3, [(0, 1, 0, 0), (0, 2, 1, 0)])
        target = PortNumberedGraph(2, [(0, 1, 0, 0)])
        viol = verify_simplicial_covering(h, target, [0, 1, 1])
        assert any("local injectivity" in v for v in viol)

    def test_degree_mismatch_reported(self):
        h = gen("path:2")
        g = gen("path:3")
        viol = verify_simplicial_covering(h, g, [0, 1])
        assert any("degree" in v for v in viol)

    def test_port_mismatch_reported(self):
        from binox.graph import PortNumberedGraph

        h = PortNumberedGraph(2, [(0, 1, 0, 1)])
        g = PortNumberedGraph(2, [(0, 1, 0, 0)])
        viol = verify_simplicial_covering(h, g, [0, 1])
        assert any("maps to" in v for v in viol)

    def test_ball_mismatch_reported(self):
        # triangle covered by a 6-cycle: degrees match, balls do not
        h = gen("cycle:6")
        g = gen("complete:3")
        phi = [v % 3 for v in [0, 1, 2, 3, 4, 5]]
        # align phi with the actual port labels by brute force: if no
        # relabelling works, the violation must mention balls or edges
        viol = verify_simplicial_covering(h, g, phi)
        assert viol  # C6 is a graph cover of K3 but never a ball-preserving one
