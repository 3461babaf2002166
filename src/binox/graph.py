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
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import eq, lt
from pathlib import Path


class GraphFormatError(ValueError):
    """A graph file or dict failed structural validation."""


class NotATreeError(ValueError):
    """A cluster-graph operation required a tree and found a cycle."""


class Ball:
    """Radius-1 view: the subgraph induced by a vertex and its neighbours.

    Local ids are 0..size-1 with the center fixed at 0. Edges carry the real
    port numbers of the source graph at both endpoints and are stored in
    ``flat``, four ints per edge (u, v, port at u, port at v) with u < v,
    every center edge (u = 0) before every horizontal one: the order a trace
    writes, so a ball is built, sent and loaded without reordering. ``flat``
    is immutable ``bytes`` when every value is below 256, else a list (by
    content alone, so equal balls store equal objects); the agent and the
    trace share it. ``edges`` views them as tuples. ``source_ids`` maps
    local ids back to ground-truth ids; it is harness-side bookkeeping
    and never serialized, so observations built from balls stay anonymous.
    """

    __slots__ = ("size", "flat", "source_ids", "_sig")

    center = 0

    def __init__(self, size, edges, source_ids=None):
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
        self.source_ids = tuple(source_ids) if source_ids is not None else None
        self._sig = None

    @classmethod
    def _trusted(cls, size, flat, source_ids=None):
        """A ball of ``flat`` in its order (already four ints per edge, u < v,
        center edges first); for builders whose output needs no second pass."""
        b = cls.__new__(cls)
        b.size = size
        b.flat = _compact(flat)
        b.source_ids = source_ids
        b._sig = None
        return b

    @property
    def edges(self):
        return BallEdges(self.flat)

    def __repr__(self):
        return f"Ball(size={self.size}, edges={len(self.flat) >> 2})"

    def center_edges(self):
        """Edges at the center as (out_port, far_port, local_neighbour) triples."""
        return [(pu, pv, v) for (u, v, pu, pv) in self.edges if u == 0]

    def horizontal_edges(self):
        """Edges between neighbours as (i, j, port_at_i, port_at_j) tuples."""
        return [e for e in self.edges if e[0] != 0]

    def center_degree(self):
        return self.flat[0::4].count(0)

    def signature(self):
        """Canonical form deciding rooted port-preserving isomorphism.

        Two balls are isomorphic by a center-fixing, port-preserving map iff
        their signatures are equal: the center's ports force the whole vertex
        correspondence, so the (out_port, far_port) multiset plus the set of
        horizontal edges rewritten in terms of center ports is complete.
        """
        if self._sig is None:
            cp = {}  # complete before the first horizontal edge: center edges come first
            vertical, horizontal = [], []
            for (u, v, pu, pv) in self.edges:
                if u == 0:
                    cp[v] = pu
                    vertical.append((pu, pv))
                else:
                    a, b = cp[u], cp[v]
                    horizontal.append((a, b, pu, pv) if a < b else (b, a, pv, pu))
            self._sig = (tuple(sorted(vertical)), tuple(sorted(horizontal)))
        return self._sig

    def relabel(self, new_id):
        """Return a copy with local ids mapped through ``new_id`` (a list).

        ``new_id[0]`` must stay 0: the center is always distinguished. The
        returned ball drops ``source_ids``.
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
        if horizontal != g.horizontal_count(v):
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
            return cls._from_naturals(size, _unpack(edges))
        if len(edges) % 4:
            raise ValueError(f"ball edges: {len(edges)} values, not four per edge")
        if not set(map(type, edges)) <= {int}:
            raise ValueError("ball edges: a value is not an integer")
        if edges and min(edges) < 0:
            raise ValueError(_BAD_BALL_EDGE.format(size))
        return cls._from_naturals(size, edges)

    @classmethod
    def _from_naturals(cls, size, flat):
        """``from_json_dict`` for bytes, or a list already known to hold
        ints >= 0 only; both are read in place."""
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
        else:
            it = iter(flat)
            b = cls(size, zip(it, it, it, it))
        if type(b.flat) is bytes:
            # The u and v bytes side by side: one 16-bit value per pair.
            pairs = bytearray(len(us) * 2)
            pairs[0::2] = b.flat[0::4]
            pairs[1::2] = b.flat[1::4]
            distinct = len(set(memoryview(pairs).cast("H")))
        else:
            distinct = len(set(zip(b.flat[0::4], b.flat[1::4])))
        if distinct < len(us):
            raise ValueError(_repeated_edge(b.flat))
        return b


_BAD_BALL_EDGE = (
    "ball edges: an edge is not [u, v, portAtU, portAtV] with "
    "distinct ends below size {} and ports >= 0"
)


def _compact(flat):
    """``flat`` as bytes when every value is below 256, else as it is."""
    try:
        return bytes(flat)
    except ValueError:
        return flat


def _unpack(text):
    """The bytes of a canonical base64 ``text``; ValueError for any other
    text (bad padding, non-zero trailing bits, a character outside the
    alphabet, a line break). Only the canonical text of some bytes encodes
    back to itself."""
    try:
        packed = a2b_base64(text)
    except ValueError:  # binascii.Error, or a character outside ASCII
        packed = None
    if packed is None or b2a_base64(packed, newline=False) != text.encode():
        raise ValueError("ball edges: not the canonical base64 text of a byte string")
    return packed


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
    Instances are immutable after construction and safe to share, except
    the explorer's ``ExplorationMap``, the subclass that grows.
    """

    def __init__(self, n, edges, labels=None):
        self.n = int(n)
        self.edges = [tuple(int(x) for x in e) for e in edges]
        self.labels = dict(labels) if labels else {}
        # out-port -> (neighbour, in-port at neighbour), and the reverse index
        self._ports = [dict() for _ in range(self.n)]
        self._nbrs = [dict() for _ in range(self.n)]
        for (u, v, pu, pv) in self.edges:
            if 0 <= u < self.n and 0 <= v < self.n and u != v:
                self._ports[u][pu] = (v, pv)
                self._ports[v][pv] = (u, pu)
                self._nbrs[u][v] = (pu, pv)
                self._nbrs[v][u] = (pv, pu)

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

    def dest(self, v, port_seq):
        """Follow a port sequence from v; None once a port is missing."""
        cur = v
        for p in port_seq:
            nxt = self._ports[cur].get(p)
            if nxt is None:
                return None
            cur = nxt[0]
        return cur

    def has_edge(self, u, v):
        return v in self._nbrs[u]

    def has_label(self, v, p, q):
        """Is there an edge at v going out on port p and arriving on q?"""
        got = self._ports[v].get(p)
        return got is not None and got[1] == q

    def port_pair(self, u, v):
        """(port at u, port at v) for edge uv, or None."""
        return self._nbrs[u].get(v)

    def horizontal_count(self, v):
        """``horizontal_count`` at v, read from a table of every vertex's
        count: the first call builds it, since the graph never changes
        and the checks ask again for the same vertices (the explorer's
        map keeps its table as it grows)."""
        return self._horizontal_counts[v]

    @cached_property
    def _horizontal_counts(self):
        return horizontal_counts(self._nbrs)

    def renamed(self, perm):
        """Copy with vertex ids mapped through ``perm``; ports unchanged."""
        edges = [(perm[u], perm[v], pu, pv) for (u, v, pu, pv) in self.edges]
        labels = {perm[int(k)]: v for k, v in self.labels.items()} if self.labels else None
        return PortNumberedGraph(self.n, edges, labels)

    def to_json_dict(self):
        d = {
            "n": self.n,
            "edges": [list(e) for e in sorted(
                (u, v, pu, pv) if u < v else (v, u, pv, pu)
                for (u, v, pu, pv) in self.edges
            )],
        }
        if self.labels:
            d["labels"] = {str(k): v for k, v in self.labels.items()}
        return d

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def validate(g):
    """Check the model invariants; returns a list of violations (empty = ok).

    Violations are reported, not raised, so callers can show all problems in
    a loaded file at once.
    """
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
    if g.n > 0:
        seen = component(g, 0)
        if len(seen) != g.n:
            problems.append(
                f"disconnected: {g.n - len(seen)} vertices unreachable from vertex 0"
            )
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
    ``ball(g, v).relabel([0] + ids)``, edges in the same order, and has no
    ``source_ids``.
    """
    if not (0 <= v < len(g._ports)):
        raise ValueError(f"invalid vertex id {v}")
    ports = g._ports[v]
    cps = sorted(ports)
    fresh = ids is not None
    if not fresh:
        ids = range(1, len(cps) + 1)
    near = []
    flat = []
    for i, p in zip(ids, cps):
        w, q = ports[p]
        near.append(w)
        flat += (0, i, p, q)
    nbrs = g._nbrs
    d = len(near)
    for k in range(d):
        na = nbrs[near[k]]
        i = ids[k]
        for m in range(k + 1, d):
            pq = na.get(near[m])
            if pq is not None:
                j = ids[m]
                flat += (i, j, pq[0], pq[1]) if i < j else (j, i, pq[1], pq[0])
    return Ball._trusted(d + 1, flat, None if fresh else (v, *near))


def horizontal_count(nbrs, v):
    """The number of edges among v's neighbours in the adjacency ``nbrs``
    (a ``_nbrs``-shaped list: vertex -> {neighbour: ...}); each edge is
    seen from both ends by C-level key intersections."""
    around = nbrs[v].keys()
    return sum(len(nbrs[w].keys() & around) for w in around) // 2


def horizontal_counts(nbrs):
    """Every vertex's ``horizontal_count`` in ``nbrs``, from one triangle
    listing. Ranked by degree (then id), each vertex splits its neighbours
    into those above and below it. A triangle u < w < x is then found once,
    from its lowest corner u: at u's edge to w, the set above u meets the
    set above w in x, which counts it at u and at w; at u's edge to x, the
    set above u meets the set below x in w, which counts it at x."""
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


def count_new_pair(nbrs, counts, a, b):
    """Keep ``counts`` (vertex -> ``horizontal_count`` in ``nbrs``) as the
    distinct neighbours a and b, not yet adjacent in ``nbrs``, become
    adjacent; call it before the pair enters ``nbrs``. The edge closes one
    triangle with each common neighbour: one more edge among the
    neighbours of each, and as many as there are at a and at b."""
    common = nbrs[a].keys() & nbrs[b].keys()
    counts[a] += len(common)
    counts[b] += len(common)
    for w in common:
        counts[w] += 1


def ball_signature(g, v):
    """``ball(g, v).signature()`` read straight off the adjacency, without
    building the ball: neighbours in ascending center port and pairs i < j
    give both tuples already sorted."""
    if not (0 <= v < len(g._ports)):
        raise ValueError(f"invalid vertex id {v}")
    ports = g._ports[v]
    cps = sorted(ports)
    vertical = tuple((p, ports[p][1]) for p in cps)
    nbrs = [ports[p][0] for p in cps]
    horizontal = []
    for i, a in enumerate(nbrs):
        na = g._nbrs[a]
        pa = cps[i]
        for j in range(i + 1, len(nbrs)):
            pq = na.get(nbrs[j])
            if pq is not None:
                horizontal.append((pa, cps[j], pq[0], pq[1]))
    return vertical, tuple(horizontal)


@dataclass(frozen=True)
class Layering:
    """Partition of the vertices into spheres by BFS distance from a root."""

    root: int
    sphere_of: tuple
    spheres: tuple

    def radius(self):
        return len(self.spheres) - 1


def layering(g, v0):
    if not (0 <= v0 < g.n):
        raise ValueError(f"invalid root {v0}")
    dist = [-1] * g.n
    dist[v0] = 0
    queue = deque([v0])
    while queue:
        x = queue.popleft()
        for y in g._nbrs[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    if min(dist) < 0:
        raise ValueError("layering requires a connected graph")
    spheres = [[] for _ in range(max(dist) + 1)]
    for v in range(g.n):
        spheres[dist[v]].append(v)
    return Layering(v0, tuple(dist), tuple(tuple(sorted(s)) for s in spheres))


@dataclass(frozen=True)
class Cluster:
    cid: int
    sphere: int
    vertices: tuple


@dataclass(frozen=True)
class ClusterDecomposition:
    """Connected components of each sphere, plus the graph between them.

    Cluster-graph edges can only join clusters at consecutive sphere indices:
    same-sphere adjacency would have merged the clusters, which the
    construction asserts rather than models.
    """

    root: int
    layering: Layering
    clusters: tuple
    cluster_of: tuple
    edges: frozenset

    def cluster(self, cid):
        return self.clusters[cid]

    def root_cluster(self):
        return self.cluster_of[self.root]

    @cached_property
    def _adjacent(self):
        """(predecessors, successors) of every cluster, indexed once."""
        preds = [set() for _ in self.clusters]
        succs = [set() for _ in self.clusters]
        for (a, b) in self.edges:
            for x, y in ((a, b), (b, a)):
                step = self.clusters[y].sphere - self.clusters[x].sphere
                if step == -1:
                    preds[x].add(y)
                elif step == 1:
                    succs[x].add(y)
        return [sorted(s) for s in preds], [sorted(s) for s in succs]

    def predecessors(self, cid):
        return list(self._adjacent[0][cid])

    def successors(self, cid):
        return list(self._adjacent[1][cid])

    def is_tree(self):
        return all(
            len(self.predecessors(c.cid)) == 1
            for c in self.clusters
            if c.cid != self.root_cluster()
        )


def cluster_decomposition(g, v0):
    lay = layering(g, v0)
    cluster_of = [-1] * g.n
    clusters = []
    for i, sphere in enumerate(lay.spheres):
        members = set(sphere)
        for start in sphere:
            if cluster_of[start] >= 0:
                continue
            comp = component(g, start, members)
            for x in comp:
                cluster_of[x] = len(clusters)
            clusters.append(Cluster(len(clusters), i, tuple(sorted(comp))))
    cedges = set()
    for (u, v, _pu, _pv) in g.edges:
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        su, sv = clusters[cu].sphere, clusters[cv].sphere
        # same-sphere adjacency between different clusters is impossible by
        # the component construction; a hit here means the decomposition broke
        if abs(su - sv) != 1:
            raise AssertionError(f"cluster edge {cu}-{cv} between spheres {su} and {sv}")
        cedges.add((cu, cv) if cu < cv else (cv, cu))
    return ClusterDecomposition(
        v0, lay, tuple(clusters), tuple(cluster_of), frozenset(cedges)
    )


def ancestor_cluster(dec, cid):
    """The unique cluster one sphere closer to the root; errors otherwise."""
    if cid == dec.root_cluster():
        raise ValueError("root cluster has no ancestor")
    preds = dec.predecessors(cid)
    if len(preds) != 1:
        raise NotATreeError(
            f"cluster {cid} has {len(preds)} predecessor clusters; cluster graph is not a tree"
        )
    return preds[0]


def from_json_dict(d):
    problems = []
    if not isinstance(d, dict):
        raise GraphFormatError("graph file must contain a JSON object")
    n = d.get("n")
    if type(n) is not int or n < 0:  # JSON true and false are bools, not ints
        raise GraphFormatError('"n" must be a non-negative integer')
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise GraphFormatError('"edges" must be a list of [u, v, portAtU, portAtV]')
    edges = []
    for idx, e in enumerate(raw):
        if (
            not isinstance(e, list)
            or len(e) != 4
            or not all(type(x) is int for x in e)
        ):
            problems.append(f"edges[{idx}]: expected 4 integers, got {e!r}")
            continue
        edges.append(tuple(e))
    if problems:
        raise GraphFormatError("\n".join(problems))
    if n > len(edges) + 1:
        # checked before anything is allocated per vertex
        raise GraphFormatError(
            f'"n" is {n}, but {len(edges)} edges connect at most {len(edges) + 1} vertices'
        )
    if "labels" in d and not isinstance(d["labels"], dict):
        raise GraphFormatError('"labels" must be a JSON object of vertex id -> label')
    g = PortNumberedGraph(n, edges, d.get("labels"))
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
    except ValueError as e:  # not JSON, not UTF-8, or an int of more digits than int() takes
        raise GraphFormatError(f"{path}: not valid JSON: {e}") from e
    try:
        return from_json_dict(d)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}:\n{e}") from e


def save_graph(g, path):
    Path(path).write_text(g.to_json() + "\n")
