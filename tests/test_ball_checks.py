"""The ball checks that compare edge counts (``check_local_iso``, the
sense check of the phase invariants, ``verify_simplicial_covering``)
against signature references, on honest maps and balls and on ones with
one corrupted edge or port."""

import copy
import random
from functools import cache

from hypothesis import given, settings, strategies as st

from binox.explorer import ExplorationMap, PhaseLedger, check_local_iso, explore
from binox.graph import Ball, ball
from binox.homotopy import verify_simplicial_covering
from binox.runtime import Environment, RunTrace
from binox.verify import TraceReplay

from conftest import ball_signature, gen, horizontal_count, port_pair

SPECS = [
    "chordal:n=12,rate=0.5,seed=1",
    "chordal:n=20,rate=0.8,seed=2",
    "johnson:5,2",
    "johnson:6,3",
    "complete:6",
]


@cache
def halted(spec, ports):
    """(ground graph, final map, phi) of a halted run from vertex 0."""
    g = gen(spec, ports)
    out = explore(Environment(g, 0, 50 * g.n))
    phi, problems = TraceReplay(out.trace.events, g).final_phi()
    assert out.status == "halted" and not problems
    return g, out.final_map, phi


def first_signature_mismatch(emap, ledger, cluster):
    """check_local_iso by signatures: the first vertex whose recorded ball
    differs from the map's."""
    for n in cluster:
        if ledger.balls[n].signature() != ball_signature(emap, n):
            return n
    return None


def covering_reference(h, g, phi, exclude=()):
    """verify_simplicial_covering comparing ball signatures at every vertex
    not excluded."""
    problems = []
    if len(phi) != h.n:
        return [f"phi defined on {len(phi)} vertices, graph has {h.n}"]
    for u in range(h.n):
        if not (0 <= phi[u] < g.n):
            problems.append(f"phi({u})={phi[u]} out of range")
    if problems:
        return problems
    for (u, v, pu, pv) in h.edges:
        got = g.step(phi[u], pu)
        if got != (phi[v], pv):
            problems.append(
                f"edge {u}-{v} ports ({pu},{pv}) maps to {phi[u]}->{got}, expected ({phi[v]},{pv})"
            )
    for u in range(h.n):
        images = {}
        for w in h.neighbors(u):
            fw = phi[w]
            if fw in images:
                problems.append(
                    f"local injectivity at {u}: neighbours {images[fw]} and {w} both map to {fw}"
                )
            images[fw] = w
        if u in exclude:
            continue
        if h.degree(u) != g.degree(phi[u]):
            problems.append(
                f"degree at {u}: {h.degree(u)} vs {g.degree(phi[u])} at phi({u})={phi[u]}"
            )
            continue
        if ball_signature(h, u) != ball_signature(g, phi[u]):
            problems.append(f"ball at {u} not isomorphic to ball at phi({u})={phi[u]}")
    return problems


# One corruption of the map: drop, add or re-port one edge (all edges of a
# map on these graphs lie on triangles, so each is some vertex's horizontal
# edge). Ports stay injective, so the map stays a simple port-numbered graph.
# Each returns the damaged map, built through ``add_edge`` so that its kept
# horizontal counts follow the damage.

def _remove(emap, a, b):
    """``emap`` without its edge a-b (rebuilt from the other edges, in
    their order), and the edge's ports at a and at b."""
    pa, pb = port_pair(emap, a, b)
    gone = (a, b, pa, pb) if a < b else (b, a, pb, pa)
    rest = ExplorationMap()
    for _ in range(emap.n):
        rest.add_vertex()
    for (u, v, pu, pv) in emap.edges:
        if (u, v, pu, pv) != gone:
            rest.add_edge(u, pu, v, pv)
    return rest, pa, pb


def _fresh_port(emap, v):
    return max(emap._ports[v], default=-1) + 1


def drop_map_edge(emap, data):
    a, b, _pa, _pb = data.draw(st.sampled_from(emap.edges))
    return _remove(emap, a, b)[0]


def add_map_edge(emap, data):
    n = emap.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if b not in emap._nbrs[a]]
    if pairs:
        a, b = data.draw(st.sampled_from(pairs))
        emap.add_edge(a, _fresh_port(emap, a), b, _fresh_port(emap, b))
    return emap


def report_map_edge(emap, data):
    a, b, _pa, _pb = data.draw(st.sampled_from(emap.edges))
    if data.draw(st.booleans()):
        a, b = b, a
    emap, _pa, pb = _remove(emap, a, b)
    emap.add_edge(a, _fresh_port(emap, a), b, pb)
    return emap


MAP_DAMAGE = [None, drop_map_edge, add_map_edge, report_map_edge]


# One corruption of a recorded ball (an edge tuple in local ids).

def drop_ball_edge(edges, size, data):
    horizontal = [e for e in edges if e[0] != 0]
    if horizontal:
        edges.remove(data.draw(st.sampled_from(horizontal)))


def add_ball_edge(edges, size, data):
    joined = {(u, v) for (u, v, _pu, _pv) in edges}
    pairs = [(i, j) for i in range(1, size) for j in range(i + 1, size) if (i, j) not in joined]
    if pairs:
        i, j = data.draw(st.sampled_from(pairs))
        edges.append((i, j, data.draw(st.integers(0, size + 1)), data.draw(st.integers(0, size + 1))))


def _change_port(edges, candidates, side, data):
    if candidates:
        e = data.draw(st.sampled_from(candidates))
        new = list(e)
        new[side] = data.draw(st.integers(0, e[side] + 3).filter(lambda p: p != e[side]))
        edges[edges.index(e)] = tuple(new)


def report_ball_edge(edges, size, data):
    side = data.draw(st.sampled_from([2, 3]))
    _change_port(edges, [e for e in edges if e[0] != 0], side, data)


def change_far_port(edges, size, data):
    _change_port(edges, [e for e in edges if e[0] == 0], 3, data)


BALL_DAMAGE = [None, drop_ball_edge, add_ball_edge, report_ball_edge, change_far_port]

cases = st.tuples(st.sampled_from(SPECS), st.sampled_from(["random:3", "random:17"]))


@settings(max_examples=120, deadline=None)
@given(cases, st.sampled_from(MAP_DAMAGE), st.sampled_from(BALL_DAMAGE), st.data())
def test_check_local_iso_agrees_with_signatures(case, map_damage, ball_damage, data):
    g, final_map, phi = halted(*case)
    emap = copy.deepcopy(final_map)
    if map_damage:
        emap = map_damage(emap, data)
    rng = random.Random(data.draw(st.integers(0, 99), label="relabel seed"))
    ledger = PhaseLedger()
    for n in range(emap.n):
        raw = ball(g, phi[n])
        tail = list(range(1, raw.size))
        rng.shuffle(tail)
        ledger.balls[n] = raw.relabel([0] + tail)
    if ball_damage:
        n = data.draw(st.sampled_from(list(range(emap.n))), label="damaged ball")
        b = ledger.balls[n]
        edges = list(b.edges)
        ball_damage(edges, b.size, data)
        ledger.balls[n] = Ball(b.size, edges)
    cluster = data.draw(st.permutations(list(range(emap.n))), label="cluster order")
    assert check_local_iso(emap, ledger, cluster) == first_signature_mismatch(emap, ledger, cluster)


@cache
def traced(spec, ports):
    g = gen(spec, ports)
    return g, explore(Environment(g, 0, 50 * g.n))


@settings(max_examples=80, deadline=None)
@given(cases, st.sampled_from(BALL_DAMAGE), st.data())
def test_sense_check_agrees_with_signatures(case, ball_damage, data):
    """One sense event's ball corrupted: the phase invariants fail in the
    event's phase iff its signature differs from the sensed one."""
    g, out = traced(*case)
    trace = RunTrace()
    trace.events = list(out.trace.events)
    senses = [i for i, ev in enumerate(trace.events) if ev["kind"] == "sense"]
    i = data.draw(st.sampled_from(senses), label="damaged sense")
    sensed = trace.events[i]["ball"]
    edges = list(sensed.edges)
    if ball_damage:
        ball_damage(edges, sensed.size, data)
    damaged = Ball(sensed.size, edges)
    trace.events[i] = dict(trace.events[i], ball=damaged)
    phase = max(ev["phase"] for ev in trace.events[:i] if ev["kind"] == "phase_start")
    bad = [ph for ph, _found in TraceReplay(trace.events, g).failed]
    assert bad == ([phase] if damaged.signature() != sensed.signature() else [])


@settings(max_examples=120, deadline=None)
@given(cases, st.sampled_from(MAP_DAMAGE), st.data())
def test_covering_check_agrees_with_signatures(case, map_damage, data):
    g, final_map, phi = halted(*case)
    emap = copy.deepcopy(final_map)
    if map_damage:
        emap = map_damage(emap, data)
    h = emap
    got = verify_simplicial_covering(h, g, phi)
    assert got == covering_reference(h, g, phi)
    # an excluded vertex loses its degree and ball problems, and no other
    exclude = data.draw(st.sets(st.integers(0, h.n - 1), max_size=2), label="exclude")
    skipped = tuple(s for u in exclude for s in (f"degree at {u}:", f"ball at {u} "))
    assert covering_reference(h, g, phi, exclude) == [p for p in got if not p.startswith(skipped)]
    if map_damage is None:
        assert got == []


def test_horizontal_count_is_the_edge_count_among_neighbours():
    for spec in SPECS + ["cycle:5", "path:4", "tree:n=9,seed=2"]:
        g = gen(spec, "random:5")
        for v in range(g.n):
            assert horizontal_count(g._nbrs, v) == len(ball_signature(g, v)[1])
