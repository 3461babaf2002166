"""The whole-buffer check of a packed ball (``graph.in_ball_order``).

``Ball._from_naturals`` accepts a packed ball of ``WIDE_EDGES`` or more
edges when ``in_ball_order`` passes, and checks every other input, packed
or a list, with the per-pair checks. Either way it must store the same ``flat`` or raise the same error
text as the pair-by-pair reference (``ball_reference``), and every ball
that ``ball`` builds must pass, so that no sensed ball falls back.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from binox import graph
from binox.graph import WIDE_EDGES, Ball, ball, in_ball_order

from ball_reference import from_naturals
from conftest import gen


def loaded(size, flat):
    try:
        b = Ball._from_naturals(size, flat)
    except (TypeError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return b.size, type(b.flat), b.flat


def reference(size, flat):
    try:
        size, stored = from_naturals(size, flat)
    except (TypeError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return size, type(stored), stored


def agree(size, flat):
    """The loader and the reference give the same result; a ball the wide
    check accepts is one the reference accepts."""
    got = loaded(size, flat)
    assert got == reference(size, flat)
    assert not in_ball_order(size, flat) or type(got) is tuple
    return got


def sensed_balls(spec, count, seed):
    """The balls of ``count`` vertices of ``spec`` (ports ``random:7``),
    each with shuffled local ids as a sense builds them."""
    g = gen(spec, "random:7")
    rng = random.Random(seed)
    balls = []
    for v in rng.sample(range(g.n), min(count, g.n)):
        ids = list(range(1, g.degree(v) + 1))
        rng.shuffle(ids)
        balls.append(ball(g, v, ids))
    return balls


BALLS = [b for spec in ("complete:12", "complete:30", "johnson:9,4", "johnson:10,3")
         for b in sensed_balls(spec, 3, spec)]


def _swap(flat, size, i, j, value):
    flat[4 * i:4 * i + 4], flat[4 * j:4 * j + 4] = flat[4 * j:4 * j + 4], flat[4 * i:4 * i + 4]
    return size


def _copy_ends(flat, size, i, j, value):
    """Edge i takes edge j's ends: a pair repeats (unless i = j)."""
    flat[4 * i:4 * i + 2] = flat[4 * j:4 * j + 2]
    return size


def _append_copy(flat, size, i, j, value):
    flat += flat[4 * i:4 * i + 4]
    return size


def _reverse(flat, size, i, j, value):
    u, v, pu, pv = flat[4 * i:4 * i + 4]
    flat[4 * i:4 * i + 4] = (v, u, pv, pu)
    return size


def _drop(flat, size, i, j, value):
    del flat[4 * i:4 * i + 4]
    return size


def _overwrite_end(flat, size, i, j, value):
    flat[4 * i + j % 2] = value % (size + 2)
    return size


MUTATIONS = {
    "none": lambda flat, size, i, j, value: size,
    "swap two edges": _swap,
    "one edge takes another's ends": _copy_ends,
    "an edge twice": _append_copy,
    "reversed edge": _reverse,
    "dropped edge": _drop,
    "an end overwritten, up to size + 1": _overwrite_end,
    "size - 1": lambda flat, size, i, j, value: size - 1,
    "size + 1": lambda flat, size, i, j, value: size + 1,
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(BALLS))), st.sampled_from(sorted(MUTATIONS)), st.data())
def test_mutated_balls_load_as_the_reference_loads_them(index, name, data):
    b = BALLS[index]
    edges = len(b.flat) // 4
    i, j = data.draw(st.integers(0, edges - 1)), data.draw(st.integers(0, edges - 1))
    flat = bytearray(b.flat)
    size = MUTATIONS[name](flat, b.size, i, j, data.draw(st.integers(0, 255)))
    agree(size, bytes(flat))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_ball_mutation_loads_as_the_reference_loads_it(name):
    rng = random.Random(name)
    for b in BALLS:
        flat = bytearray(b.flat)
        edges = len(flat) // 4
        size = MUTATIONS[name](flat, b.size, rng.randrange(edges), rng.randrange(edges),
                               rng.randrange(256))
        agree(size, bytes(flat))


def test_the_sensed_balls_here_are_wide():
    assert all(type(b.flat) is bytes and len(b.flat) >= 4 * WIDE_EDGES for b in BALLS)


# -- balls below WIDE_EDGES, packed and as lists --------------------------------

SMALL_BALLS = [b for spec in ("tree:n=60,seed=1", "chordal:n=60,rate=0.4,seed=1", "complete:6")
               for b in sensed_balls(spec, 12, spec)]


def _lifted(flat):
    """``flat`` as a list with 300 added to every port: too big to pack."""
    lifted = list(flat)
    lifted[2::4] = [p + 300 for p in lifted[2::4]]
    lifted[3::4] = [p + 300 for p in lifted[3::4]]
    return lifted


def _center_last(flat, size, i, j, value):
    """A center edge moved behind every other edge."""
    c = 4 * (i % flat[0::4].count(0))
    edge = flat[c:c + 4]
    del flat[c:c + 4]
    flat += edge
    return size


SMALL_MUTATIONS = {
    "none": MUTATIONS["none"],
    "an edge twice": _append_copy,
    "reversed edge": _reverse,
    "a center edge moved last": _center_last,
}


def test_the_small_balls_here_are_packed_and_narrow():
    assert all(type(b.flat) is bytes and 0 < len(b.flat) < 4 * WIDE_EDGES for b in SMALL_BALLS)
    assert any(b.flat[0::4].count(0) < len(b.flat) // 4 for b in SMALL_BALLS)  # horizontal edges


@pytest.mark.parametrize("form", ["bytes", "list"])
@pytest.mark.parametrize("name", sorted(SMALL_MUTATIONS))
def test_small_ball_mutations_load_as_the_reference_loads_them(name, form):
    for b in SMALL_BALLS:
        base = bytearray(b.flat) if form == "bytes" else _lifted(b.flat)
        for i in range(len(base) // 4):
            flat = base[:]
            size = SMALL_MUTATIONS[name](flat, b.size, i, 0, 0)
            flat = bytes(flat) if form == "bytes" else flat
            got = loaded(size, flat)
            assert got == reference(size, flat)
            if name == "an edge twice":
                assert got.endswith(" is listed twice")
            else:
                assert got[1] is (bytes if form == "bytes" else list)


# -- the boundaries of each lane check ----------------------------------------

def fan_hub_ball(d):
    """The ball of a fan's hub with d neighbours 1..d, ports p - 1 at the
    center and 0 (then 1) at each neighbour: d center edges, then the path
    1-2, 2-3, ... as horizontal edges, in the order ``ball`` writes."""
    flat = []
    for i in range(1, d + 1):
        flat += (0, i, i - 1, 0)
    for i in range(1, d):
        flat += (i, i + 1, 1, 2)
    return d + 1, flat


def test_a_ball_of_exactly_wide_edges_takes_the_wide_check():
    size, flat = fan_hub_ball(WIDE_EDGES // 2 + 1)
    flat = bytes(flat[:4 * WIDE_EDGES])
    with mock.patch.object(graph, "in_ball_order", wraps=in_ball_order) as wide:
        assert agree(size, flat) == (size, bytes, flat)
        assert agree(size, flat[:-4]) == (size, bytes, flat[:-4])
    assert [len(c.args[1]) // 4 for c in wide.call_args_list] == [WIDE_EDGES]
    assert in_ball_order(size, flat)


def test_u_equal_to_v_fails_the_lane_check_and_v_one_above_u_passes():
    size, flat = fan_hub_ball(60)
    last = len(flat) - 4  # the horizontal edge (59, 60)
    assert in_ball_order(size, bytes(flat))
    for v, ok in ((59, False), (60, True)):
        bad = list(flat)
        bad[last + 1] = v
        assert in_ball_order(size, bytes(bad)) is ok
        agree(size, bytes(bad))
    bad = list(flat)
    bad[last:last + 2] = (60, 59)  # u > v
    assert not in_ball_order(size, bytes(bad))
    assert agree(size, bytes(bad))[2] == bytes(flat)[:last] + bytes((59, 60, 2, 1))


def test_byte_values_0_and_255():
    # 255 neighbours: local ids 1..255, ports 0..254, far ports 255
    flat = []
    for i in range(1, 256):
        flat += (0, i, i - 1, 255)
    flat += (254, 255, 0, 0)
    assert in_ball_order(256, bytes(flat))
    assert agree(256, bytes(flat)) == (256, bytes, bytes(flat))
    assert not in_ball_order(255, bytes(flat))  # the end 255 is not below size
    assert agree(255, bytes(flat)) == "ValueError: " + graph._BAD_BALL_EDGE.format(255)
    zero = list(flat)
    zero[1] = 0  # the center edge (0, 0)
    assert not in_ball_order(256, bytes(zero))
    agree(256, bytes(zero))


def test_equal_neighbouring_keys_fail_the_order_check():
    size, flat = fan_hub_ball(60)
    repeated = bytes(flat + flat[-4:])  # the last horizontal edge twice
    assert not in_ball_order(size, repeated)
    assert agree(size, repeated) == "ValueError: ball edges: edge (59, 60) is listed twice"
    swapped = flat[:-8] + flat[-4:] + flat[-8:-4]  # two horizontal edges out of order
    assert not in_ball_order(size, bytes(swapped))
    assert agree(size, bytes(swapped)) == (size, bytes, bytes(swapped))


def test_a_repeated_center_end_fails_the_wide_check():
    # ends 1, 1, 3, 4, ...: the horizontal keys still increase
    size, flat = fan_hub_ball(50)
    flat[5] = 1
    assert not in_ball_order(size, bytes(flat))
    assert agree(size, bytes(flat)) == "ValueError: ball edges: edge (0, 1) is listed twice"


def test_a_center_edge_after_a_horizontal_one_fails_the_wide_check():
    # the last center edge (0, d) behind the horizontal edge (d - 1, d): the
    # first d ends are still distinct and there is one edge after them
    d = 50
    size, flat = fan_hub_ball(d)
    flat = flat[:4 * (d - 1)] + flat[-4:] + flat[4 * (d - 1):4 * d]
    assert not in_ball_order(size, bytes(flat))
    expected = flat[:4 * (d - 1)] + flat[4 * d:] + flat[4 * (d - 1):4 * d]
    assert agree(size, bytes(flat)) == (size, bytes, bytes(expected))


def test_the_ends_of_a_horizontal_edge_in_either_order_of_position():
    # neighbour positions reversed: local id i sits at position d - i
    d = 50
    flat = []
    for i in range(d, 0, -1):
        flat += (0, i, d - i, 0)
    for i in range(d - 1, 0, -1):  # positions (d - i - 1, d - i): increasing
        flat += (i, i + 1, 1, 2)
    assert in_ball_order(d + 1, bytes(flat))
    agree(d + 1, bytes(flat))
    horizontal = [flat[k:k + 4] for k in range(4 * d, len(flat), 4)]
    backwards = bytes(flat[:4 * d] + [x for e in reversed(horizontal) for x in e])
    assert not in_ball_order(d + 1, backwards)
    assert agree(d + 1, backwards) == (d + 1, bytes, backwards)


def test_ends_that_are_no_center_neighbour():
    # local ids above the center's degree: loadable, not in ball order
    size, flat = fan_hub_ball(50)
    flat += (51, 52, 0, 0)
    agree(size + 2, bytes(flat))
    agree(size + 1, bytes(flat))


@pytest.mark.parametrize("size", [-1, 0, True, 61.0, "61"])
def test_only_a_natural_size_takes_the_wide_check(size):
    _, flat = fan_hub_ball(60)
    assert not in_ball_order(size, bytes(flat))
    agree(size, bytes(flat))


# -- every built ball passes ---------------------------------------------------

@pytest.mark.parametrize("spec", ["complete:20", "complete:60", "johnson:9,4", "johnson:10,3",
                                  "chordal:n=800,rate=1.0,seed=1", "fan:120"])
def test_every_wide_ball_that_ball_builds_is_in_ball_order(spec):
    g = gen(spec, "random:3")
    rng = random.Random(spec)
    wide = 0
    for v in range(g.n):
        ids = list(range(1, g.degree(v) + 1))
        rng.shuffle(ids)
        b = ball(g, v, ids)
        if type(b.flat) is bytes and len(b.flat) >= 4 * WIDE_EDGES:
            assert in_ball_order(b.size, b.flat), v
            wide += 1
    assert wide
