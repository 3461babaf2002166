"""Phase-based exploration that builds a map of an anonymous graph.

The agent explores one cluster per phase (clusters of its own map, tracked by
a stack in DFS order). During a phase it walks to the cluster, tours it by
a DFS that moves as it goes, senses the radius-1 ball at each cluster vertex
once, and collects a phase-local ledger:

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

from itertools import islice

from .graph import PortCollisionError, PortNumberedGraph, ball, component
from .runtime import run_agent


class ExplorerInvariantError(AssertionError):
    """An internal consistency guard of the explorer failed (a bug in the
    algorithm, not a property of the explored graph)."""


class MapUpdateError(RuntimeError):
    """The phase's ledger cannot be applied to the map; the run takes the
    error path."""


class ExplorationMap(PortNumberedGraph):
    """The agent's growing map. Vertex ids are allocation-ordered naturals,
    the homebase is always 0."""

    def __init__(self):
        super().__init__(0, [])

    def local_ball(self, n):
        """The map's radius-1 ball at n in the same local form a sensed
        ball has: center 0, neighbours by ascending port."""
        return ball(self, n)

    def snapshot(self):
        """JSON-able copy in the shared graph format."""
        return self.to_json_dict()


class PhaseLedger:
    """Phase-local identification state (reset every phase)."""

    def __init__(self):
        self.pre_vertices = {}   # (n, out port) -> far port
        self.equiv_pairs = []    # ((n, p), (m, p')) both keys in pre_vertices
        self.horizontal = set()  # (n, p1, p2, r, s) with p1 < p2
        self.balls = {}          # map vertex -> sensed Ball (center = 0)


def approach_path(emap, start, members):
    """The out-ports of a shortest map path from ``start`` to the nearest
    vertex of ``members`` (a set), [] when ``start`` is one. The BFS
    expands ports in ascending order, so ties break toward small ports. It
    stops at the first member it discovers: in FIFO order that is the first
    member a BFS would dequeue, and at the vertex x that discovers it, the
    member on the smallest port of x. Finding it through x's neighbour set
    spares scanning x's ports, so a hub next to the goal costs at most the
    goal's size, not its degree."""
    if start in members:
        return []
    nbrs, ports = emap._nbrs, emap._ports
    prev = {start: None}
    queue = [start]
    for x in queue:  # the queue grows behind this loop: FIFO order
        near = nbrs[x].keys() & members
        if near:
            path = [min([nbrs[x][y][0] for y in near])]
            while prev[x] is not None:
                x, p = prev[x]
                path.append(p)
            path.reverse()
            return path
        out = ports[x]
        for p in sorted(out):
            y = out[p][0]
            if y not in prev:
                prev[y] = (x, p)
                queue.append(y)
    raise RuntimeError(f"cluster {sorted(members)} unreachable in map")


def record_ball(ledger, n, sensed):
    """Store the ball sensed at map vertex n."""
    if n in ledger.balls:
        raise ExplorerInvariantError(f"map vertex {n} sensed twice in one phase")
    ledger.balls[n] = sensed


def _cross(env, emap, x, p):
    """Move the agent from map vertex x through port p; the error path if
    it arrives through another port than the map edge's far one. Returns
    the map vertex reached."""
    y, q = emap.step(x, p)
    in_port = env.move(p)
    if in_port != q:
        env.declare_error(f"arrived through port {in_port}, map expected {q}")
    return y


def walk_cluster(env, emap, ledger, pos, cluster):
    """Move the agent from map vertex ``pos`` to ``cluster`` along
    ``approach_path`` and tour it by a DFS that moves as it goes: smallest
    port first, only into cluster vertices not sensed yet, sensing each into
    the phase's fresh ``ledger``, up to the last first visit. The explicit
    stack of (vertex, its ports left, the port back) allows a cluster's tree
    deeper than Python's call stack. Returns the agent's map vertex."""
    members = set(cluster)
    for p in approach_path(emap, pos, members):
        pos = _cross(env, emap, pos, p)
    record_ball(ledger, pos, env.sense().ball)
    if len(members) == 1:
        return pos
    stack = [(pos, iter(emap.ports(pos)), None)]
    while len(ledger.balls) < len(members):
        if not stack:
            missed = sorted(members - ledger.balls.keys())
            raise ExplorerInvariantError(f"tour missed cluster vertices {missed}")
        x, ports, back = stack[-1]
        for p in ports:
            y, q = emap.step(x, p)
            if y in members and y not in ledger.balls:
                _cross(env, emap, x, p)
                record_ball(ledger, y, env.sense().ball)
                stack.append((y, iter(emap.ports(y)), q))
                break
        else:
            stack.pop()
            if back is not None:
                _cross(env, emap, x, back)
    return stack[-1][0]


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


def _root(parent, k):
    """The root of pre-vertex k's class in the union-find ``parent``, which
    holds k; compresses the path from k."""
    root = k
    while parent[root] != root:
        root = parent[root]
    while parent[k] != root:
        parent[k], k = root, parent[k]
    return root


def apply_ledger(emap, ledger):
    """Create one frontier vertex per equivalence class of pre-vertices and
    insert the vertical and horizontal edges. Returns the new map ids in
    ascending order: the classes are numbered in ascending order of their
    smallest pre-vertex. The edges actually inserted are appended to
    ``emap.edges``.

    Duplicate insertions (same edge, same labels, e.g. one horizontal edge
    witnessed from both endpoints' triangles) are skipped; a label clash
    raises PortCollisionError and an equivalence naming an unknown
    pre-vertex MapUpdateError, which the caller turns into the error path.
    """
    pre = ledger.pre_vertices
    parent = {}  # union-find over the pre-vertices some pair names
    for a, b in ledger.equiv_pairs:
        for k in (a, b):
            if k not in pre:
                raise MapUpdateError(f"equivalence pair references unknown pre-vertex {k}")
            parent.setdefault(k, k)
        ra, rb = _root(parent, a), _root(parent, b)
        if ra != rb:
            parent[ra] = rb
    # In ascending order a class is met first at its smallest member, which
    # numbers it; its root, a member too, carries the id to the others.
    keys = sorted(pre)
    new_of = {}
    new_ids = []
    for k in keys:
        r = _root(parent, k) if k in parent else k
        nid = new_of.get(r)
        if nid is None:
            nid = new_of[r] = emap.add_vertex()
            new_ids.append(nid)
        new_of[k] = nid
    for k in keys:
        emap.add_edge(k[0], k[1], new_of[k], pre[k])
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
    """Partition this phase's new frontier vertices, ``new_ids`` in
    ascending order as ``apply_ledger`` returns them, into connected
    components (all edges among them are horizontal by construction);
    components are returned in ascending order of their smallest id."""
    pending = set(new_ids)
    comps = []
    for v in new_ids:
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
        pos = emap.add_vertex()
        stack = [[pos]]  # the unexplored clusters' vertices, in DFS order
        phase = 0
        while stack:
            phase += 1
            env.trace.log_phase_start(phase)
            cluster = stack.pop()
            ledger = PhaseLedger()
            pos = walk_cluster(env, emap, ledger, pos, cluster)
            for n in cluster:
                harvest_ledger(emap, ledger, n)
            known = emap.m  # the edges before this phase's
            try:
                new_ids = apply_ledger(emap, ledger)
            except (MapUpdateError, PortCollisionError) as e:
                env.declare_error(f"map update impossible: {e}")
            bad = check_local_iso(emap, ledger, cluster)
            if bad is not None:
                env.declare_error(
                    f"ball at map vertex {bad} does not match the updated map"
                )
            stack += discover_new_clusters(emap, new_ids)
            env.trace.log_phase_end(phase, {"n": emap.n, "edges": sorted(emap.edges[known:])})
        return emap


def explore(env):
    """Run the cluster explorer in ``env`` and return the outcome."""
    return run_agent(ClusterExplorer(), env)
