"""Phase-based exploration that builds a map of an anonymous graph.

The agent explores one cluster per phase (clusters of its own map, tracked by
a stack in DFS order). During a phase it walks the cluster, senses the
radius-1 ball at each cluster vertex, and collects a phase-local ledger:

* pre-vertices (n, p, q): ball edges at an explored map vertex n with no
  matching labelled edge in the map yet; each class of these becomes one new
  frontier vertex;
* equivalences between pre-vertices: a triangle seen at n whose mapped side
  leads to a cluster mate m identifies (n, p) and (m, p') as the same unknown
  vertex, and the union-find closure of these prevents duplication;
* horizontal records: triangles whose both non-center sides are unmapped
  become edges between two frontier vertices of the next sphere.

After the map update the recorded balls must match the map's radius-1 balls
exactly (port-preserving, center fixed); any mismatch ends the run via the
error path. New frontier components become new clusters and are pushed.
The run halts when the stack is empty.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from .graph import PortNumberedGraph, ball, component, count_new_pair
from .runtime import run_agent


class ExplorerInvariantError(AssertionError):
    """An internal consistency guard of the explorer failed (a bug in the
    algorithm, not a property of the explored graph)."""


class MapUpdateError(RuntimeError):
    """The phase's ledger cannot be applied to the map; the run takes the
    error path."""


class PortCollisionError(MapUpdateError):
    """A map insertion would give a vertex two edges on one port."""


class ExplorationMap(PortNumberedGraph):
    """The agent's growing map: a port-numbered graph plus bookkeeping.

    ``cluster_of`` tags every vertex with the cluster it was discovered in;
    ``explored_in`` holds the phase a vertex was sensed in, or None while it
    is still frontier. Vertex ids are allocation-ordered naturals, the
    homebase is always 0. ``edges`` lists the edges (a < b) in insertion
    order. ``add_edge`` keeps every vertex's ``horizontal_count`` in the
    table a fixed graph builds once.
    """

    def __init__(self):
        super().__init__(0, [])
        self.cluster_of = {}
        self.explored_in = {}
        self._horizontal_counts = []

    def add_vertex(self):
        self._ports.append({})
        self._nbrs.append({})
        self._horizontal_counts.append(0)
        self.n += 1
        self.explored_in[self.n - 1] = None
        return self.n - 1

    def add_edge(self, a, pa, b, pb):
        """Insert edge a-b labelled (pa, pb); returns False if the exact
        edge is already present, raises PortCollisionError on any clash."""
        if a == b:
            raise PortCollisionError(f"self edge at map vertex {a}")
        eda = self._ports[a].get(pa)
        edb = self._ports[b].get(pb)
        if eda == (b, pb) and edb == (a, pa):
            return False
        if eda is not None or edb is not None:
            raise PortCollisionError(
                f"port clash inserting {a}-{b} labelled ({pa},{pb}): "
                f"port {pa}@{a} -> {eda}, port {pb}@{b} -> {edb}"
            )
        if b in self._nbrs[a]:
            raise PortCollisionError(
                f"second edge between map vertices {a} and {b} "
                f"(existing labels {self._nbrs[a][b]}, new ({pa},{pb}))"
            )
        count_new_pair(self._nbrs, self._horizontal_counts, a, b)
        self._ports[a][pa] = (b, pb)
        self._ports[b][pb] = (a, pa)
        self._nbrs[a][b] = (pa, pb)
        self._nbrs[b][a] = (pb, pa)
        self.edges.append((a, b, pa, pb) if a < b else (b, a, pb, pa))
        return True

    def frontier(self):
        return [n for n in range(self.n) if self.explored_in[n] is None]

    def local_ball(self, n):
        """The map's radius-1 ball at n in the same local form a sensed
        ball has: center 0, neighbours by ascending port."""
        return ball(self, n)

    def snapshot(self):
        """JSON-able copy: the shared graph format plus cir/vis tables."""
        return {
            **self.to_json_dict(),
            "cir": dict(self.cluster_of),
            "vis": dict(self.explored_in),
            "homebase": 0,
        }


class PhaseLedger:
    """Phase-local identification state (reset every phase)."""

    def __init__(self):
        self.pre_vertices = {}   # (n, out port) -> far port
        self.equiv_pairs = []    # ((n, p), (m, p')) both keys in pre_vertices
        self.horizontal = set()  # (n, p1, p2, r, s) with p1 < p2
        self.balls = {}          # map vertex -> sensed Ball (center = 0)


class ClusterStack:
    """LIFO of cluster ids driving the DFS over the cluster tree; every id
    is pushed at most once."""

    def __init__(self):
        self._items = []
        self._pushed = set()

    def push(self, cid):
        if cid in self._pushed:
            raise ExplorerInvariantError(f"cluster {cid} pushed twice")
        self._pushed.add(cid)
        self._items.append(cid)

    def pop(self):
        return self._items.pop()

    def __bool__(self):
        return bool(self._items)

    def __len__(self):
        return len(self._items)


def plan_cluster_tour(emap, start, cluster):
    """Moves that reach ``cluster`` from ``start`` and visit all of it.

    Approach: shortest map path to the nearest cluster vertex (BFS expanding
    ports in ascending order, so ties break toward small ports). Tour: DFS
    over a smallest-port-first spanning tree of the cluster's induced map
    subgraph, with the trailing backtracks after the last first-visit
    trimmed. Returns a list of (out_port, target_map_vertex) steps.
    """
    members = set(cluster)
    moves = []
    if start in members:
        entry = start
    else:
        prev = {start: None}
        queue = deque([start])
        entry = None
        while queue:
            x = queue.popleft()
            if x in members:
                entry = x
                break
            for p in emap.ports(x):
                y = emap.step(x, p)[0]
                if y not in prev:
                    prev[y] = (x, p)
                    queue.append(y)
        if entry is None:
            raise RuntimeError(f"cluster {sorted(members)} unreachable in map")
        path = []
        x = entry
        while prev[x] is not None:
            x, p = prev[x]
            path.append(p)
        path.reverse()
        x = start
        for p in path:
            y = emap.step(x, p)[0]
            moves.append((p, y))
            x = y
    visited = {entry}
    last = len(moves)  # the index after the last first visit; keeps the approach
    # DFS by an explicit stack of (vertex, its ports left, the move back to
    # its parent): a cluster's tree can be deeper than Python's call stack.
    stack = [(entry, iter(emap.ports(entry)), None)]
    while stack:
        x, ports, back = stack[-1]
        for p in ports:
            y, q = emap.step(x, p)
            if y in members and y not in visited:
                visited.add(y)
                moves.append((p, y))
                last = len(moves)
                stack.append((y, iter(emap.ports(y)), (q, x)))
                break
        else:
            stack.pop()
            if back is not None:
                moves.append(back)
    return moves[:last]


def record_ball(emap, ledger, n, sensed, phase):
    """Store the ball sensed at map vertex n and mark it explored."""
    if n in ledger.balls:
        raise ExplorerInvariantError(f"map vertex {n} sensed twice in one phase")
    ledger.balls[n] = sensed
    emap.explored_in[n] = phase


def harvest_ledger(emap, ledger, n):
    """Mine the ball recorded at n for pre-vertices, equivalences between
    pre-vertices, and horizontal edge records. Conditions are evaluated
    against the map as it stood at the start of the phase (the map is only
    updated afterwards, in apply_ledger).

    The ball's first size - 1 edges are its center edges (``Ball``), read
    in one pass that carries on into the horizontal ones. Every record
    needs an unmapped center edge, so a ball whose center edges are all in
    the map yields nothing more after them.
    """
    b = ledger.balls[n]
    center = {}  # local id -> (out port at n, map neighbour or None if unmapped)
    unmapped = False
    it = iter(b.flat)
    edges = zip(it, it, it, it)
    for (_u, j, p, q) in islice(edges, b.size - 1):
        got = emap.step(n, p)
        if got is not None and got[1] == q:
            center[j] = (p, got[0])
        else:
            center[j] = (p, None)
            ledger.pre_vertices[(n, p)] = q
            unmapped = True
    if not unmapped:
        return
    for (i, j, r, s) in edges:
        pi, mi = center[i]
        pj, mj = center[j]
        if mi is not None:
            if mj is None and not emap.has_label(mi, r, s):
                ledger.equiv_pairs.append(((n, pj), (mi, r)))
        elif mj is not None:
            if not emap.has_label(mj, s, r):
                ledger.equiv_pairs.append(((n, pi), (mj, s)))
        else:
            rec = (n, pi, pj, r, s) if pi < pj else (n, pj, pi, s, r)
            ledger.horizontal.add(rec)


def apply_ledger(emap, ledger):
    """Create one frontier vertex per equivalence class of pre-vertices and
    insert the vertical and horizontal edges. Returns the new map ids; the
    edges actually inserted are appended to ``emap.edges``.

    Duplicate insertions (same edge, same labels, e.g. one horizontal edge
    witnessed from both endpoints' triangles) are skipped; a label clash or
    an equivalence naming an unknown pre-vertex raises MapUpdateError, which
    the caller turns into the error path.
    """
    parent = {k: k for k in ledger.pre_vertices}

    def find(k):
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    for a, b in ledger.equiv_pairs:
        for k in (a, b):
            if k not in parent:
                raise MapUpdateError(f"equivalence pair references unknown pre-vertex {k}")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for k in ledger.pre_vertices:
        classes.setdefault(find(k), []).append(k)
    new_of = {}
    new_ids = []
    for members in sorted(classes.values(), key=min):
        nid = emap.add_vertex()
        new_ids.append(nid)
        for k in members:
            new_of[k] = nid
    for (n, p) in sorted(ledger.pre_vertices):
        emap.add_edge(n, p, new_of[(n, p)], ledger.pre_vertices[(n, p)])
    for (n, p1, p2, r, s) in sorted(ledger.horizontal):
        emap.add_edge(new_of[(n, p1)], r, new_of[(n, p2)], s)
    return new_ids


def check_local_iso(emap, ledger, cluster):
    """Compare each recorded ball with the updated map's ball (rooted,
    port-preserving; see ``Ball.matches``). Returns the first failing map
    vertex or None."""
    for n in cluster:
        if not ledger.balls[n].matches(emap, n):
            return n
    return None


def discover_new_clusters(emap, new_ids):
    """Partition this phase's new frontier vertices into connected
    components (all edges among them are horizontal by construction);
    components are returned in ascending order of their smallest id."""
    pending = set(new_ids)
    comps = []
    for v in sorted(new_ids):
        if v in pending:
            comp = component(emap, v, pending)
            pending -= comp
            comps.append(sorted(comp))
    return comps


class ClusterExplorer:
    """The exploration algorithm as an agent (run via the environment)."""

    def __init__(self):
        self.emap = None

    def partial_result(self):
        return self.emap

    def run(self, env):
        emap = ExplorationMap()
        self.emap = emap
        n0 = emap.add_vertex()
        emap.cluster_of[n0] = 0
        emap.explored_in[n0] = 0
        members = {0: [n0]}  # cluster id -> its vertices, until explored
        stack = ClusterStack()
        stack.push(0)
        next_cid = 1
        pos = n0
        phase = 0
        while stack:
            phase += 1
            env.trace.log_phase_start(phase)
            cid = stack.pop()
            cluster = members.pop(cid, None)
            if not cluster:
                raise ExplorerInvariantError(f"cluster {cid} has no members")
            ledger = PhaseLedger()
            pos = self._explore_cluster(env, emap, ledger, pos, cluster, phase)
            for n in cluster:
                harvest_ledger(emap, ledger, n)
            known = emap.m  # the edges before this phase's
            try:
                new_ids = apply_ledger(emap, ledger)
            except MapUpdateError as e:
                env.declare_error(f"map update impossible: {e}")
            bad = check_local_iso(emap, ledger, cluster)
            if bad is not None:
                env.declare_error(
                    f"ball at map vertex {bad} does not match the updated map"
                )
            for comp in discover_new_clusters(emap, new_ids):
                for v in comp:
                    emap.cluster_of[v] = next_cid
                members[next_cid] = comp
                stack.push(next_cid)
                next_cid += 1
            env.trace.log_phase_end(phase, {"n": emap.n, "edges": sorted(emap.edges[known:])})
        return emap

    def _explore_cluster(self, env, emap, ledger, pos, cluster, phase):
        waiting = set(cluster)
        if pos in waiting:
            record_ball(emap, ledger, pos, env.sense().ball, phase)
            waiting.discard(pos)
        for (p, target) in plan_cluster_tour(emap, pos, cluster):
            in_port = env.move(p)
            expected = emap.step(pos, p)
            if expected is None or expected[0] != target:
                raise ExplorerInvariantError(
                    f"tour step from map vertex {pos} on port {p} leads to "
                    f"{expected}, planned {target}"
                )
            if expected[1] != in_port:
                env.declare_error(
                    f"arrived through port {in_port}, map expected {expected[1]}"
                )
            pos = target
            if pos in waiting:
                record_ball(emap, ledger, pos, env.sense().ball, phase)
                waiting.discard(pos)
        if waiting:
            raise ExplorerInvariantError(f"tour missed cluster vertices {sorted(waiting)}")
        return pos


def explore(env):
    """Run the cluster explorer in ``env`` and return the outcome."""
    return run_agent(ClusterExplorer(), env)
