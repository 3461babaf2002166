"""Immutable port-numbered graph model.

A port-numbered graph is a simple connected undirected graph where every
vertex assigns a locally unique natural number (a port) to each incident
edge. Navigation is by ports: an agent leaves through an out-port and learns
the in-port at the far end. This module holds the ground-truth model plus the
structural decompositions built on it: radius-1 balls, BFS layering into
spheres, and the cluster decomposition of the spheres.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


class GraphFormatError(ValueError):
    """A graph file or dict failed structural validation."""


class NotATreeError(ValueError):
    """A cluster-graph operation required a tree and found a cycle."""


class Ball:
    """Radius-1 view: the subgraph induced by a vertex and its neighbours.

    Local ids are 0..size-1 with the center fixed at 0; neighbours are
    numbered in ascending order of the center's out-ports. Edges carry the
    real port numbers of the source graph at both endpoints. ``source_ids``
    maps local ids back to ground-truth ids; it is harness-side bookkeeping
    and never serialized, so observations built from balls stay anonymous.
    """

    __slots__ = ("size", "edges", "source_ids", "_sig")

    center = 0

    def __init__(self, size, edges, source_ids=None):
        self.size = size
        self.edges = tuple(
            (u, v, pu, pv) if u < v else (v, u, pv, pu) for (u, v, pu, pv) in edges
        )
        self.source_ids = tuple(source_ids) if source_ids is not None else None
        self._sig = None

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return self.size == other.size and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.size, frozenset(self.edges)))

    def __repr__(self):
        return f"Ball(size={self.size}, edges={len(self.edges)})"

    def center_edges(self):
        """Edges at the center as (out_port, far_port, local_neighbour) triples."""
        out = []
        for (u, v, pu, pv) in self.edges:
            if u == 0:
                out.append((pu, pv, v))
        return out

    def horizontal_edges(self):
        """Edges between neighbours as (i, j, port_at_i, port_at_j) tuples."""
        return [(u, v, pu, pv) for (u, v, pu, pv) in self.edges if u != 0]

    def center_degree(self):
        return sum(1 for e in self.edges if e[0] == 0)

    def signature(self):
        """Canonical form deciding rooted port-preserving isomorphism.

        Two balls are isomorphic by a center-fixing, port-preserving map iff
        their signatures are equal: the center's ports force the whole vertex
        correspondence, so the (out_port, far_port) multiset plus the set of
        horizontal edges rewritten in terms of center ports is complete.
        """
        if self._sig is None:
            cp = {}
            vertical = []
            for (u, v, pu, pv) in self.edges:
                if u == 0:
                    cp[v] = pu
                    vertical.append((pu, pv))
            horizontal = []
            for (u, v, pu, pv) in self.edges:
                if u != 0:
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
        return Ball(
            self.size,
            [(new_id[u], new_id[v], pu, pv) for (u, v, pu, pv) in self.edges],
        )

    def to_json_dict(self):
        return {"size": self.size, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["size"], [tuple(e) for e in d["edges"]])


class PortNumberedGraph:
    """Ground-truth anonymous graph with injective per-vertex port labels.

    Construction is lenient so that ``validate`` can report problems instead
    of the constructor throwing; navigation methods assume a valid graph.
    Instances are immutable after construction and safe to share.
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

    def port_pair(self, u, v):
        """(port at u, port at v) for edge uv, or None."""
        return self._nbrs[u].get(v)

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


def dest(g, v, port_seq):
    return g.dest(v, port_seq)


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
        seen = {0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in g._nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != g.n:
            problems.append(
                f"disconnected: {g.n - len(seen)} vertices unreachable from vertex 0"
            )
    return problems


def ball(g, v):
    """The induced radius-1 ball around v with ports, center marked.

    Local ids: 0 is the center, neighbours get 1.. in ascending order of the
    center's out-ports. Includes every edge among the closed neighbourhood,
    so edges between neighbours ("horizontal" edges) carry both ports.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"invalid vertex id {v}")
    local = {v: 0}
    source = [v]
    edges = []
    for p in sorted(g._ports[v]):
        w, q = g._ports[v][p]
        local[w] = len(source)
        source.append(w)
        edges.append((0, local[w], p, q))
    nbrs = source[1:]
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            pq = g._nbrs[a].get(b)
            if pq is not None:
                edges.append((local[a], local[b], pq[0], pq[1]))
    return Ball(len(source), edges, source)


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
            cid = len(clusters)
            comp = []
            queue = deque([start])
            cluster_of[start] = cid
            while queue:
                x = queue.popleft()
                comp.append(x)
                for y in g._nbrs[x]:
                    if y in members and cluster_of[y] < 0:
                        cluster_of[y] = cid
                        queue.append(y)
            clusters.append(Cluster(cid, i, tuple(sorted(comp))))
    cedges = set()
    for (u, v, _pu, _pv) in g.edges:
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        su, sv = clusters[cu].sphere, clusters[cv].sphere
        # same-sphere adjacency between different clusters is impossible by
        # the component construction; a hit here means the decomposition broke
        assert abs(su - sv) == 1, f"cluster edge {cu}-{cv} inside sphere {su}"
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
    if not isinstance(n, int) or n < 0:
        raise GraphFormatError('"n" must be a non-negative integer')
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise GraphFormatError('"edges" must be a list of [u, v, portAtU, portAtV]')
    edges = []
    for idx, e in enumerate(raw):
        if (
            not isinstance(e, list)
            or len(e) != 4
            or not all(isinstance(x, int) for x in e)
        ):
            problems.append(f"edges[{idx}]: expected 4 integers, got {e!r}")
            continue
        edges.append(tuple(e))
    if problems:
        raise GraphFormatError("\n".join(problems))
    g = PortNumberedGraph(n, edges, d.get("labels"))
    violations = validate(g)
    if violations:
        raise GraphFormatError("\n".join(violations))
    return g


def load_graph(path):
    """Load and validate a graph JSON file; raises GraphFormatError with
    per-edge diagnostics on invalid input."""
    text = Path(path).read_text()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"{path}: not valid JSON: {e}") from e
    try:
        return from_json_dict(d)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}:\n{e}") from e


def save_graph(g, path):
    Path(path).write_text(g.to_json() + "\n")
