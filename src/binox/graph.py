"""Port-numbered graph model.

A port-numbered graph is a simple connected undirected graph where every
vertex assigns a locally unique natural number (a port) to each incident
edge. Navigation is by ports: an agent leaves through an out-port and learns
the in-port at the far end. This module holds the ground-truth model plus the
structural decompositions built on it: radius-1 balls, BFS layering into
spheres, and the cluster decomposition of the spheres.
"""

from __future__ import annotations

import json
from binascii import a2b_base64, b2a_base64
from collections import Counter
from itertools import chain, islice
from operator import eq, itemgetter, lt
from pathlib import Path


class GraphFormatError(ValueError):
    """A graph file or dict failed structural validation."""


class PortCollisionError(ValueError):
    """An inserted edge does not fit a port-numbered graph: a self edge, a
    port already taken, or a second edge between two vertices."""


class Ball:
    """Radius-1 view: the subgraph induced by a vertex and its neighbours.

    Local ids are 0..size-1 with the center fixed at 0. Edges carry the real
    port numbers of the source graph at both endpoints and are stored in
    ``flat``, four ints per edge (u, v, port at u, port at v) with u < v,
    every center edge (u = 0) before every horizontal one: the order a trace
    writes, so a ball is built, sent and loaded without reordering. ``flat``
    is immutable ``bytes`` when every value is below 256, else a list (by
    content alone, so equal balls store equal objects); the agent and the
    trace share it. ``edges`` views them as tuples.
    """

    __slots__ = ("size", "flat")

    def __init__(self, size, edges):
        """A ball from (u, v, port at u, port at v) edges in either
        orientation and any order; reversed ones are normalized and the
        center edges moved before the others, each group in given order."""
        center, horizontal = [], []
        for (u, v, pu, pv) in edges:
            if u > v:
                u, v, pu, pv = v, u, pv, pu
            (horizontal if u else center).extend((u, v, pu, pv))
        self.size = size
        self.flat = _compact(center + horizontal)

    @classmethod
    def _trusted(cls, size, flat):
        """A ball of ``flat`` in its order (already four ints per edge, u < v,
        center edges first); for builders whose output needs no second pass."""
        b = cls.__new__(cls)
        b.size = size
        b.flat = flat if type(flat) is bytes else _compact(flat)
        return b

    @property
    def edges(self):
        return BallEdges(self.flat)

    def __repr__(self):
        return f"Ball(size={self.size}, edges={len(self.flat) >> 2})"

    def signature(self):
        """Canonical form deciding rooted port-preserving isomorphism.

        Two balls are isomorphic by a center-fixing, port-preserving map iff
        their signatures are equal: the center's ports force the whole vertex
        correspondence, so the (out_port, far_port) multiset plus the set of
        horizontal edges rewritten in terms of center ports is complete.
        """
        cp = {}  # complete before the first horizontal edge: center edges come first
        vertical, horizontal = [], []
        for (u, v, pu, pv) in self.edges:
            if u == 0:
                cp[v] = pu
                vertical.append((pu, pv))
            else:
                a, b = cp[u], cp[v]
                horizontal.append((a, b, pu, pv) if a < b else (b, a, pv, pu))
        return tuple(sorted(vertical)), tuple(sorted(horizontal))

    def relabel(self, new_id):
        """Return a copy with local ids mapped through ``new_id`` (a list).

        ``new_id[0]`` must stay 0: the center is always distinguished.
        """
        if new_id[0] != 0:
            raise ValueError("center must keep local id 0")
        flat = []
        for (u, v, pu, pv) in self.edges:
            a, b = new_id[u], new_id[v]
            flat += (a, b, pu, pv) if a < b else (b, a, pv, pu)
        return Ball._trusted(self.size, flat)

    def matches(self, g, v):
        """Is this the ball at ``v`` of the PortNumberedGraph ``g`` (the
        explorer's map is one) up to a relabelling of the non-center ids?

        The size must be v's degree d + 1 and the first d edges center
        edges, each the edge of g on its port with the same far port;
        distinct images then make them a bijection onto v's edges. Every
        later edge must be g's edge between the images of its ends, with
        the same ports, which a center edge never is. A ball lists no
        (u, v) pair twice (the builders read a simple graph and
        ``from_json_dict`` rejects a repeat), so those edges sit inside g's
        ball, and equal horizontal counts (compared first) make the two
        balls equal.
        """
        at = g._ports[v]
        d = len(at)
        size = self.size
        if size != d + 1:
            return False
        flat = self.flat
        image = [v] * size  # local id -> vertex of g
        it = iter(flat)
        edges = zip(it, it, it, it)
        for (u, w, pu, pw) in islice(edges, d):
            if u:
                return False
            got = at.get(pu)
            if got is None or got[1] != pw:
                return False
            image[w] = got[0]
        if len(set(image)) != size:
            return False
        horizontal = len(flat) // 4 - d
        if horizontal != g._counts()[v]:
            return False
        if horizontal:
            adj = [g._nbrs[x] for x in image]
            adj[0] = {}  # a center edge here is one too many
            for (u, w, pu, pw) in edges:
                if adj[u].get(image[w]) != (pu, pw):
                    return False
        return True

    def to_json_dict(self):
        """JSON-able form: ``edges`` is ``flat``, as base64 text if bytes."""
        if type(self.flat) is bytes:
            return {"size": self.size, "edges": b2a_base64(self.flat, newline=False).decode()}
        return {"size": self.size, "edges": self.flat}

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of ``to_json_dict``; keeps the loaded list unless an edge
        is reversed or a center edge follows a horizontal one, which are
        normalized.

        ValueError unless ``edges`` is the canonical base64 text of a byte
        string or a list of ints, four values per edge, with both ends
        distinct local ids below ``size``, both ports >= 0 and no (u, v)
        pair twice.
        """
        size, edges = d["size"], d["edges"]
        if type(edges) is str:
            return cls.from_packed(size, edges)
        if len(edges) % 4:
            raise ValueError(f"ball edges: {len(edges)} values, not four per edge")
        if not set(map(type, edges)) <= {int}:
            raise ValueError("ball edges: a value is not an integer")
        if edges and min(edges) < 0:
            raise ValueError(_BAD_BALL_EDGE.format(size))
        return cls._from_naturals(size, edges)

    @classmethod
    def from_packed(cls, size, text):
        """``from_json_dict`` of a ball whose ``edges`` is packed, without
        the dict: the bytes of ``text`` checked by ``_from_naturals``.
        ValueError unless ``text`` is canonical base64 (bad padding,
        non-zero trailing bits, a character outside the alphabet and a line
        break are refused): only the canonical text of some bytes encodes
        back to itself."""
        try:
            packed = a2b_base64(text)
        except ValueError:  # binascii.Error, or a character outside ASCII
            packed = None
        if packed is None or b2a_base64(packed, newline=False) != text.encode():
            raise ValueError("ball edges: not the canonical base64 text of a byte string")
        return cls._from_naturals(size, packed)

    @classmethod
    def _from_naturals(cls, size, flat):
        """``from_json_dict`` for bytes, or a list already known to hold
        ints >= 0 only; both are read in place. Bytes of at least
        ``WIDE_EDGES`` edges in the order ``ball`` writes are accepted by
        ``in_ball_order``; every other input takes the per-pair checks."""
        if type(flat) is bytes and len(flat) >= 4 * WIDE_EDGES and in_ball_order(size, flat):
            return cls._trusted(size, flat)
        if len(flat) % 4:
            raise ValueError(f"ball edges: {len(flat)} values, not four per edge")
        us, vs = flat[0::4], flat[1::4]
        normal = all(map(lt, us, vs))
        if flat and (
            max(vs if normal else us + vs) >= size
            or not normal and any(map(eq, us, vs))
        ):
            raise ValueError(_BAD_BALL_EDGE.format(size))
        if normal and not any(us[:us.count(0)]):
            b = cls._trusted(size, flat)
            pairs = zip(us, vs)  # b.flat holds flat's values in flat's order
        else:
            it = iter(flat)
            b = cls(size, zip(it, it, it, it))
            pairs = zip(b.flat[0::4], b.flat[1::4])
        if len(set(pairs)) < len(us):
            raise ValueError(_repeated_edge(b.flat))
        return b


_BAD_BALL_EDGE = (
    "ball edges: an edge is not [u, v, portAtU, portAtV] with "
    "distinct ends below size {} and ports >= 0"
)


# The fewest edges of a packed ball that ``Ball._from_naturals`` checks with
# ``in_ball_order``: below it, the per-pair checks take less time.
WIDE_EDGES = 40
_BYTE_VALUES = bytes(range(256))


def in_ball_order(size, flat):
    """Do the packed edges ``flat`` pass every check of ``from_json_dict``
    in the order ``ball`` writes them? That is: four bytes per edge, u < v
    and v < ``size`` on every edge, the center edges first with distinct far
    ends, then the horizontal edges by strictly increasing (smaller, larger)
    position of their ends among the far ends of the center edges. That
    order lists no (u, v) pair twice. False for any other input, valid or
    not; each check is a few operations on whole buffers, not one per edge.

    Lanes: a column of bytes is spread into fixed-width lanes of one big
    int. In a lane holding 256 + a - b (a, b bytes, 256 the guard bit) the
    difference never borrows from the next lane, and the guard bit stays
    set exactly when a >= b."""
    if len(flat) & 3 or type(size) is not int or size < 0:
        return False
    e = len(flat) >> 2
    us, vs = flat[0::4], flat[1::4]
    if vs.translate(None, _BYTE_VALUES[:size]):  # a far end at or above size
        return False
    # u < v on every edge: no 16-bit lane of (256 + u) - v keeps its guard
    ug = bytearray(b"\0\1") * e
    ug[0::2] = us
    v16 = bytearray(2 * e)
    v16[0::2] = vs
    if int.from_bytes(ug, "little") - int.from_bytes(v16, "little") & int.from_bytes(
            b"\0\1" * e, "little"):
        return False
    c = us.count(0)  # the center edges
    centers = vs[:c]
    if us[:c].count(0) != c or len(set(centers)) != c:
        return False
    # The positions p, q of the ends of each horizontal edge among the
    # centers, in 24-bit lanes. The guard bit 8 of (256 + p) - q tells
    # which is the smaller; the key k = smaller << 8 | larger. In the lane
    # of (2**16 + k) - (the next lane's k) the guard bit 16 must be clear,
    # except in the last lane, which has no next k.
    h = e - c
    position = bytes.maketrans(centers, _BYTE_VALUES[:c])
    p = bytearray(3 * h)
    p[0::3] = us[c:].translate(position)
    q = bytearray(3 * h)
    q[0::3] = vs[c:].translate(position)
    p, q = int.from_bytes(p, "little"), int.from_bytes(q, "little")
    g8 = int.from_bytes(b"\0\1\0" * h, "little")
    swap = (p ^ q) & (((p | g8) - q & g8) >> 8) * 255  # p ^ q where p >= q, else 0
    k = (p ^ swap) << 8 | q ^ swap
    g16 = g8 << 8
    return (k | g16) - (k >> 24) & g16 == (1 << 24 * h) >> 8


def _compact(flat):
    """``flat`` as bytes when every value is below 256, else as it is."""
    try:
        return bytes(flat)
    except ValueError:
        return flat


def _repeated_edge(flat):
    """The error text naming a (u, v) pair that ``flat`` lists twice."""
    counts = Counter(zip(flat[0::4], flat[1::4]))
    u, v = next(pair for pair, k in counts.items() if k > 1)
    return f"ball edges: edge ({u}, {v}) is listed twice"


class BallEdges:
    """A ball's flat edge list seen as (u, v, port at u, port at v) tuples;
    ``len`` is the edge count."""

    __slots__ = ("_flat",)

    def __init__(self, flat):
        self._flat = flat

    def __len__(self):
        return len(self._flat) >> 2

    def __iter__(self):
        it = iter(self._flat)
        return zip(it, it, it, it)

    def __eq__(self, other):
        if not isinstance(other, BallEdges):
            return NotImplemented
        return self._flat == other._flat


class PortNumberedGraph:
    """Ground-truth anonymous graph with injective per-vertex port labels.

    Construction is lenient so that ``validate`` can report problems instead
    of the constructor throwing; navigation methods assume a valid graph.
    A ground graph is never grown, so it is safe to share. A map grows
    through ``add_vertex`` and ``add_edge``, which refuse what a
    port-numbered graph cannot hold: the explorer's ``ExplorationMap`` and
    the checker's replay (``verify.TraceReplay``) build theirs this way.
    """

    def __init__(self, n, edges):
        self.n = n
        self.edges = list(map(tuple, edges))
        # out-port -> (neighbour, in-port at neighbour), and the reverse index,
        # of every edge whose ends are two vertex ids (validate reports any other)
        ports = self._ports = [dict() for _ in range(self.n)]
        nbrs = self._nbrs = [dict() for _ in range(self.n)]
        indexed = self.edges if _ends_ok(self.edges, self.n) else [
            e for e in self.edges if 0 <= e[0] < self.n and 0 <= e[1] < self.n and e[0] != e[1]
        ]
        for (u, v, pu, pv) in indexed:
            ports[u][pu] = (v, pv)
            ports[v][pv] = (u, pu)
            nbrs[u][v] = (pu, pv)
            nbrs[v][u] = (pv, pu)
        # A plain attribute, not a cached_property: filling one writes to
        # the instance __dict__, which slows every later attribute read.
        self._horizontal_counts = None

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self._nbrs[v])

    def ports(self, v):
        return sorted(self._ports[v])

    def neighbors(self, v):
        """Neighbours in ascending out-port order."""
        return [self._ports[v][p][0] for p in sorted(self._ports[v])]

    def step(self, v, port):
        """Cross one edge; returns (far_vertex, in_port) or None if absent."""
        return self._ports[v].get(port)

    def has_edge(self, u, v):
        return v in self._nbrs[u]

    def has_label(self, v, p, q):
        """Is there an edge at v going out on port p and arriving on q?"""
        got = self._ports[v].get(p)
        return got is not None and got[1] == q

    def _counts(self):
        """Every vertex's horizontal count (the number of edges among its
        neighbours), indexed by vertex: the first call lists the triangles,
        since the checks ask again for the same vertices; a growing map
        keeps the table up to date."""
        if self._horizontal_counts is None:
            self._horizontal_counts = horizontal_counts(self._nbrs)
        return self._horizontal_counts

    def add_vertex(self):
        """Append an isolated vertex; returns its id."""
        counts = self._counts()  # built before the vertex exists
        self._ports.append({})
        self._nbrs.append({})
        counts.append(0)
        n = self.n
        self.n = n + 1
        return n

    def add_edge(self, a, pa, b, pb):
        """Insert edge a-b labelled (pa, pb), keeping every horizontal
        count. Returns the set of common neighbours of a and b, the third
        corner of each triangle the edge closes (empty when it closes none),
        or False if the exact edge is already present; raises
        PortCollisionError for a self edge, a port already taken or a
        second edge between a and b. ``edges`` lists the edges (a < b) in
        insertion order."""
        if a == b:
            raise PortCollisionError(f"self edge at map vertex {a}")
        at_a, at_b = self._ports[a], self._ports[b]
        eda = at_a.get(pa)
        edb = at_b.get(pb)
        if eda == (b, pb) and edb == (a, pa):
            return False
        if eda is not None or edb is not None:
            raise PortCollisionError(
                f"port clash inserting {a}-{b} labelled ({pa},{pb}): "
                f"port {pa}@{a} -> {eda}, port {pb}@{b} -> {edb}"
            )
        nbrs_a, nbrs_b = self._nbrs[a], self._nbrs[b]
        if b in nbrs_a:
            raise PortCollisionError(
                f"second edge between map vertices {a} and {b} "
                f"(existing labels {nbrs_a[b]}, new ({pa},{pb}))"
            )
        # The edge closes one triangle with each common neighbour: one more
        # edge among the neighbours of each, and as many at a and at b.
        common = nbrs_a.keys() & nbrs_b.keys()
        if common:
            counts = self._counts()
            counts[a] += len(common)
            counts[b] += len(common)
            for w in common:
                counts[w] += 1
        at_a[pa] = (b, pb)
        at_b[pb] = (a, pa)
        nbrs_a[b] = (pa, pb)
        nbrs_b[a] = (pb, pa)
        self.edges.append((a, b, pa, pb) if a < b else (b, a, pb, pa))
        return common

    def to_json_dict(self):
        return {
            "n": self.n,
            "edges": [list(e) for e in sorted(
                (u, v, pu, pv) if u < v else (v, u, pv, pu)
                for (u, v, pu, pv) in self.edges
            )],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _ends_ok(edges, n):
    """Are both ends of every edge (a tuple of ints) vertex ids below ``n``,
    and distinct? A few passes of builtins, no copy of the list."""
    us, vs = itemgetter(0), itemgetter(1)
    return not edges or (
        min(map(us, edges)) >= 0 and min(map(vs, edges)) >= 0
        and max(map(us, edges)) < n and max(map(vs, edges)) < n
        and not any(map(eq, map(us, edges), map(vs, edges)))
    )


def validate(g):
    """Check the model invariants; returns a list of violations (empty = ok).

    Violations are reported, not raised, so callers can show all problems in
    a loaded file at once.
    """
    problems = [] if _index_is_whole(g) else _edge_problems(g)
    if g.n > 0:
        seen = component(g, 0)
        if len(seen) != g.n:
            problems.append(
                f"disconnected: {g.n - len(seen)} vertices unreachable from vertex 0"
            )
    return problems


def _index_is_whole(g):
    """Does ``_edge_problems`` find nothing? The index holds each edge whose
    ends are distinct vertex ids once at each end (``__init__`` and
    ``add_edge`` leave any other out). So when every port is >= 0 and
    ``_ports`` and ``_nbrs`` each hold exactly two entries per edge, no edge
    was left out, no (vertex, port) and no vertex pair was taken twice, and
    no record was overwritten."""
    m2 = 2 * len(g.edges)
    return sum(map(len, g._ports)) == m2 == sum(map(len, g._nbrs)) and (
        not g.edges
        or min(map(itemgetter(2), g.edges)) >= 0 and min(map(itemgetter(3), g.edges)) >= 0
    )


def _edge_problems(g):
    """The per-edge violations, in edge order, then the asymmetric records
    of the index."""
    problems = []
    seen_pairs = set()
    out_ports_used = {}
    for idx, (u, v, pu, pv) in enumerate(g.edges):
        if not (0 <= u < g.n and 0 <= v < g.n):
            problems.append(f"edges[{idx}]: vertex id out of range in {(u, v, pu, pv)}")
            continue
        if u == v:
            problems.append(f"edges[{idx}]: self-loop at vertex {u} (graph must be simple)")
            continue
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            problems.append(f"edges[{idx}]: parallel edge {pair} (graph must be simple)")
        seen_pairs.add(pair)
        for (w, p) in ((u, pu), (v, pv)):
            if p < 0:
                problems.append(f"edges[{idx}]: negative port {p} at vertex {w}")
            prev = out_ports_used.get((w, p))
            if prev is not None and prev != idx:
                problems.append(
                    f"edges[{idx}]: port injectivity violated at vertex {w} (port {p} reused)"
                )
            out_ports_used[(w, p)] = idx
    # symmetry of the navigation index (detects overwrites from bad input)
    for v in range(g.n):
        for p, (w, q) in g._ports[v].items():
            if g._ports[w].get(q) != (v, p):
                problems.append(f"asymmetric edge record at vertex {v} port {p}")
    return problems


def component(g, start, within=None):
    """The set of vertices that ``start`` reaches in ``g`` through vertices
    of ``within`` (any container; every vertex when None). ``start`` is
    always in the set, even when it is not in ``within``."""
    seen = {start}
    stack = [start]
    while stack:
        for y in g._nbrs[stack.pop()]:
            if y not in seen and (within is None or y in within):
                seen.add(y)
                stack.append(y)
    return seen


def ball(g, v, ids=None):
    """The induced radius-1 ball around v with ports, center marked.

    Local ids: 0 is the center, neighbours get 1.. in ascending order of the
    center's out-ports. Includes every edge among the closed neighbourhood,
    so edges between neighbours ("horizontal" edges) carry both ports.
    ``g`` is a PortNumberedGraph (the explorer's map is one).

    ``ids``, a permutation of 1..degree, gives the neighbours their local
    ids instead, in the same ascending port order: the result equals
    ``ball(g, v).relabel([0] + ids)``, edges in the same order.
    """
    if not (0 <= v < len(g._ports)):
        raise ValueError(f"invalid vertex id {v}")
    ports = g._ports[v]
    cps = sorted(ports)
    if ids is None:
        ids = range(1, len(cps) + 1)
    near = []
    flat = []
    for i, p in zip(ids, cps):
        w, q = ports[p]
        near.append(w)
        flat += (0, i, p, q)
    nbrs = g._nbrs
    d = len(near)
    rank = None
    for k in range(d):
        na = nbrs[near[k]]
        i = ids[k]
        if _SCAN_FACTOR * len(na) < d - k:  # look up the ranks of its neighbours
            if rank is None:
                rank = {w: m for m, w in enumerate(near)}
            later = sorted(m for m in map(rank.get, na) if m is not None and m > k)
        else:
            later = range(k + 1, d)
        for m in later:
            pq = na.get(near[m])
            if pq is not None:
                j = ids[m]
                flat += (i, j, pq[0], pq[1]) if i < j else (j, i, pq[1], pq[0])
    return Ball._trusted(d + 1, flat)


# ``ball`` scans the later neighbours of a neighbour w of the center unless
# they outnumber _SCAN_FACTOR times w's degree; then it looks up the rank of
# each of w's neighbours instead. The rank dict is built at the first lookup:
# small and dense balls never look up, and building it cost a fifth of a
# small ball's build time.
_SCAN_FACTOR = 8


def horizontal_counts(nbrs):
    """Every vertex's horizontal count (the number of edges among its
    neighbours) in the adjacency ``nbrs`` (a ``_nbrs``-shaped list: vertex
    -> {neighbour: ...}), from one triangle listing. Ranked by degree (then
    id), each vertex splits its neighbours into those above and below it.
    A triangle u < w < x is then found once, from its lowest corner u: at
    u's edge to w, the set above u meets the set above w in x, which counts
    it at u and at w; at u's edge to x, the set above u meets the set below
    x in w, which counts it at x."""
    n = len(nbrs)
    rank = [0] * n
    for i, v in enumerate(sorted(range(n), key=lambda v: len(nbrs[v]))):
        rank[v] = i
    above = [{w for w in nbrs[v] if rank[w] > rank[v]} for v in range(n)]
    below = [nbrs[v].keys() - above[v] for v in range(n)]
    counts = [0] * n
    for u, up in enumerate(above):
        for w in up:
            k = len(up & above[w])
            counts[u] += k
            counts[w] += k + len(up & below[w])
    return counts


def layering(g, v0):
    """Each vertex's BFS distance from ``v0`` (the index of its sphere), as
    a list; ValueError for a root out of range or a disconnected graph."""
    if not (0 <= v0 < g.n):
        raise ValueError(f"invalid root {v0}")
    dist = [-1] * g.n
    dist[v0] = 0
    queue = [v0]
    for x in queue:  # the loop reaches what it appends
        for y in g._nbrs[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    if len(queue) < g.n:
        raise ValueError("layering requires a connected graph")
    return dist


# ``parent`` markers of ``cluster_decomposition``.
ROOT_CLUSTER = -1
SEVERAL_PARENTS = -2


def cluster_decomposition(g, v0):
    """The clusters around ``v0``, the connected pieces of each sphere, as
    three lists: ``dist`` (from ``layering``), ``cluster_of`` (vertex ->
    cluster id, numbered sphere by sphere and within a sphere by smallest
    vertex, so v0's cluster is 0) and ``parent`` (cluster -> its adjacent
    cluster one sphere closer: ROOT_CLUSTER for cluster 0, SEVERAL_PARENTS
    for a cluster with more than one). The clusters form a tree exactly when
    no cluster has SEVERAL_PARENTS."""
    dist = layering(g, v0)
    spheres = [[] for _ in range(max(dist) + 1)]
    for v, d in enumerate(dist):
        spheres[d].append(v)
    cluster_of = [-1] * g.n
    parent = []
    for sphere in spheres:
        members = set(sphere)
        for start in sphere:
            if cluster_of[start] < 0:
                for x in component(g, start, members):
                    cluster_of[x] = len(parent)
                parent.append(ROOT_CLUSTER)  # until an edge one sphere closer
    for (u, v, _pu, _pv) in g.edges:
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        su, sv = dist[u], dist[v]
        # same-sphere adjacency between different clusters is impossible by
        # the component construction; a hit here means the decomposition broke
        if abs(su - sv) != 1:
            raise AssertionError(f"cluster edge {cu}-{cv} between spheres {su} and {sv}")
        near, far = (cu, cv) if su < sv else (cv, cu)
        if parent[far] == ROOT_CLUSTER:
            parent[far] = near
        elif parent[far] != near:
            parent[far] = SEVERAL_PARENTS
    return dist, cluster_of, parent


def from_json_dict(d):
    """The graph of a parsed graph file, built from its ``n`` and ``edges``
    keys only; GraphFormatError naming the problems found."""
    problems = []
    if not isinstance(d, dict):
        raise GraphFormatError("graph file must contain a JSON object")
    n = d.get("n")
    if type(n) is not int or n < 0:  # JSON true and false are bools, not ints
        raise GraphFormatError('"n" must be a non-negative integer')
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise GraphFormatError('"edges" must be a list of [u, v, portAtU, portAtV]')
    # Every item a list of four ints (by type: a JSON true is a bool), tested
    # on the whole list at once; the per-item walk names the bad items.
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {4}
        and set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        for idx, e in enumerate(raw):
            if (
                not isinstance(e, list)
                or len(e) != 4
                or not all(type(x) is int for x in e)
            ):
                problems.append(f"edges[{idx}]: expected 4 integers, got {e!r}")
        if problems:
            raise GraphFormatError("\n".join(problems))
    if n > len(raw) + 1:
        # checked before anything is allocated per vertex
        raise GraphFormatError(
            f'"n" is {n}, but {len(raw)} edges connect at most {len(raw) + 1} vertices'
        )
    g = PortNumberedGraph(n, raw)
    violations = validate(g)
    if violations:
        raise GraphFormatError("\n".join(violations))
    return g


def load_graph(path):
    """Load and validate a graph JSON file; raises GraphFormatError with
    per-edge diagnostics on invalid input, and on a file that cannot be
    read or holds no JSON text."""
    try:
        d = json.loads(Path(path).read_text())
    except OSError as e:
        raise GraphFormatError(f"{path}: cannot read: {e}") from e
    # not JSON, not UTF-8, an int of more digits than int() takes, or nesting
    # deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as e:
        raise GraphFormatError(f"{path}: not valid JSON: {e}") from e
    try:
        return from_json_dict(d)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}:\n{e}") from e


def save_graph(g, path):
    Path(path).write_text(g.to_json() + "\n")
