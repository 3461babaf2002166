"""Randomized property checks over the generator space."""

import random

from hypothesis import given, settings, strategies as st

from binox.families import GeneratorSpec, generate, parse_spec
from binox.graph import ball, layering, validate
from binox.runtime import Environment

from conftest import center_degree, dest, renamed
from homotopy_oracles import elementary_moves

chordal_specs = st.builds(
    GeneratorSpec,
    family=st.just("chordal"),
    n=st.integers(min_value=2, max_value=40),
    rate=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=10_000),
    port_scheme=st.sampled_from(["canonical", "random:1", "random:33"]),
)


@settings(max_examples=40, deadline=None)
@given(chordal_specs)
def test_generated_graphs_always_validate(spec):
    assert validate(generate(spec)) == []


@settings(max_examples=25, deadline=None)
@given(chordal_specs)
def test_generation_is_reproducible(spec):
    assert generate(spec).to_json() == generate(spec).to_json()


@settings(max_examples=25, deadline=None)
@given(chordal_specs, st.data())
def test_backtracking_any_edge_returns(spec, data):
    g = generate(spec)
    if g.m == 0:
        return
    u, v, pu, pv = data.draw(st.sampled_from(g.edges))
    assert dest(g, u, [pu, pv]) == u


@settings(max_examples=25, deadline=None)
@given(chordal_specs, st.data())
def test_ball_center_matches_graph_degree(spec, data):
    g = generate(spec)
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    b = ball(g, v)
    assert center_degree(b) == g.degree(v)
    assert b.size == g.degree(v) + 1


@settings(max_examples=25, deadline=None)
@given(chordal_specs, st.data())
def test_layering_spheres_partition_and_edges_stay_close(spec, data):
    g = generate(spec)
    v0 = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    dist = layering(g, v0)
    assert len(dist) == g.n and dist[v0] == 0 and min(dist) == 0
    assert sorted(set(dist)) == list(range(max(dist) + 1))  # no sphere is empty
    assert all(abs(dist[u] - dist[v]) <= 1 for (u, v, _p, _q) in g.edges)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=5),
)
def test_elementary_moves_are_symmetric(seed, steps):
    g = generate(GeneratorSpec("chordal", n=9, rate=0.6, seed=seed))
    # build a short closed walk from vertex 0
    walk = [0]
    for i in range(steps):
        nbrs = g.neighbors(walk[-1])
        walk.append(nbrs[(seed + i) % len(nbrs)])
    loop = tuple(walk) + tuple(reversed(walk[:-1]))
    for moved in elementary_moves(g, loop):
        assert loop in elementary_moves(g, moved)


@settings(max_examples=15, deadline=None)
@given(chordal_specs, st.randoms(use_true_random=False))
def test_observation_bytes_survive_ground_renaming(spec, rnd):
    from binox.explorer import explore
    from binox.runtime import Environment

    g = generate(spec)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = renamed(g, perm)
    budget = 50 * g.n
    a = explore(Environment(g, 0, budget))
    b = explore(Environment(h, perm[0], budget))
    assert a.status == b.status
    assert a.trace.to_jsonl().splitlines()[1:] == b.trace.to_jsonl().splitlines()[1:]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([
        "chordal:n=30,rate=0.5,seed=3", "chordal:n=15,rate=0.0,seed=8",
        "johnson:5,2", "johnson:6,3", "complete:7", "cycle:6",
    ]),
    st.integers(min_value=0, max_value=10_000),
)
def test_sensed_ball_is_the_relabelled_ground_ball(spec, port_seed):
    """Environment.sense builds each ball in one pass; it must equal the
    ground ball relabelled by the shuffle the same RNG state gives."""
    g = generate(parse_spec(spec, port_scheme=f"random:{port_seed}"))
    for v in range(g.n):
        env = Environment(g, v, 1)
        rng = random.Random("observe:0")
        for _ in range(2):
            raw = ball(g, v)
            tail = list(range(1, raw.size))
            rng.shuffle(tail)
            expected = raw.relabel([0] + tail)
            got = env.sense().ball
            assert (got.size, got.flat) == (expected.size, expected.flat)
