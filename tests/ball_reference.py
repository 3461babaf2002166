"""Pair-by-pair reference for loading a ball's flat edge list
(``Ball._from_naturals``).

The checks below are the loader's before packed balls of ``WIDE_EDGES`` or
more edges got the whole-buffer check (``graph.in_ball_order``): the ends of
every edge, then the order, then a count of every (u, v) pair. The loader
must store the same ``flat`` or raise the same ValueError text for every
input.
"""

from collections import Counter
from operator import eq, lt

from binox.graph import Ball

BAD_EDGE = (
    "ball edges: an edge is not [u, v, portAtU, portAtV] with "
    "distinct ends below size {} and ports >= 0"
)


def from_naturals(size, flat):
    """(size, stored flat) of the ball loaded from ``flat`` (bytes, or a
    list of ints >= 0); ValueError as the loader raises it."""
    if len(flat) % 4:
        raise ValueError(f"ball edges: {len(flat)} values, not four per edge")
    us, vs = flat[0::4], flat[1::4]
    normal = all(map(lt, us, vs))
    if flat and (
        max(vs if normal else us + vs) >= size
        or not normal and any(map(eq, us, vs))
    ):
        raise ValueError(BAD_EDGE.format(size))
    if normal and not any(us[:us.count(0)]):
        b = Ball._trusted(size, flat)
    else:
        it = iter(flat)
        b = Ball(size, zip(it, it, it, it))
    counts = Counter(zip(b.flat[0::4], b.flat[1::4]))
    repeated = [pair for pair, k in counts.items() if k > 1]
    if repeated:
        raise ValueError("ball edges: edge (%d, %d) is listed twice" % repeated[0])
    return b.size, b.flat
