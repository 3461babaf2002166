"""Bounded brute-force topology oracles, used by the tests only.

Loops are vertex sequences where consecutive entries are equal or adjacent;
closed loops repeat the first vertex at the end. Elementary homotopies delete
one interior vertex (contracting a stationary repeat, removing a backtrack,
or pushing across a triangle) or insert one, the relation being symmetric.
Contractibility is undecidable in general, so every search here is budgeted
and budget exhaustion is a verdict, not an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from binox.graph import PortNumberedGraph


class InstanceTooLargeError(ValueError):
    """Guard against brute-force enumeration on graphs beyond desk scale."""


CONTRACTIBLE = "contractible"
NOT_CONTRACTIBLE_WITHIN_BUDGET = "not_contractible_within_budget"
BUDGET_EXHAUSTED = "budget_exhausted"


def check_loop(g, seq):
    if len(seq) == 0:
        raise ValueError("empty loop")
    for a, b in zip(seq, seq[1:]):
        if a != b and not g.has_edge(a, b):
            raise ValueError(f"loop step {a}->{b} is neither stationary nor an edge")
    if len(seq) > 1 and seq[0] != seq[-1]:
        raise ValueError("loop must be closed (first vertex = last vertex)")


def elementary_moves(g, seq):
    """All loops one elementary homotopy away from ``seq`` (literal form).

    Both directions are produced: deletions of an interior vertex under the
    three conditions, and the inverse insertions (the relation can grow or
    shrink the loop). Endpoints are preserved.
    """
    seq = tuple(seq)
    check_loop(g, seq)
    k = len(seq) - 1
    out = set()
    for i in range(1, k):
        if seq[i] == seq[i + 1] or seq[i - 1] == seq[i + 1] or g.has_edge(seq[i - 1], seq[i + 1]):
            out.add(seq[:i] + seq[i + 1:])
    for i in range(k):
        a, b = seq[i], seq[i + 1]
        ca = {a, *g.neighbors(a)}
        cb = {b, *g.neighbors(b)}
        for w in ca & cb:
            out.add(seq[: i + 1] + (w,) + seq[i + 1:])
    return out


def cyclic_form(seq):
    """Rotation-normalized cyclic form of a closed loop (closing repeat
    dropped): the lexicographically smallest rotation."""
    cyc = tuple(seq[:-1]) if len(seq) > 1 else tuple(seq)
    if not cyc:
        cyc = (seq[0],)
    return min(cyc[i:] + cyc[:i] for i in range(len(cyc)))


def _cyclic_moves(g, cyc, max_len):
    out = set()
    L = len(cyc)
    if L >= 2:
        for i in range(L):
            prv, nxt = cyc[i - 1], cyc[(i + 1) % L]
            if cyc[i] == nxt or prv == nxt or g.has_edge(prv, nxt):
                rest = cyc[:i] + cyc[i + 1:]
                out.add(min(rest[j:] + rest[:j] for j in range(len(rest))))
    if L < max_len:
        for i in range(L):
            a, b = cyc[i], cyc[(i + 1) % L]
            cands = {a, b}
            if a == b:
                cands.update(g.neighbors(a))
            else:
                if g.degree(a) > g.degree(b):
                    a, b = b, a
                cands.update(w for w in g.neighbors(a) if g.has_edge(w, b))
            for w in cands:
                grown = cyc[: i + 1] + (w,) + cyc[i + 1:]
                out.add(min(grown[j:] + grown[:j] for j in range(len(grown))))
    return out


@dataclass
class ContractibilityAnswer:
    """Search outcome. ``trace`` (present on success) is the sequence of
    cyclic loop forms from the start loop down to a single vertex, each
    consecutive pair related by one elementary homotopy."""

    verdict: str
    steps: int | None = None
    trace: list | None = None
    states_explored: int = 0

    @property
    def contractible(self):
        return self.verdict == CONTRACTIBLE

    def to_json_dict(self):
        """Debug form: the start loop plus each move's resulting loop."""
        out = {"verdict": self.verdict}
        if self.trace:
            out["loop"] = list(self.trace[0])
            out["moves"] = [list(state) for state in self.trace[1:]]
        return out


def _greedy_shrink(g, start):
    trace = [start]
    cur = start
    while len(cur) > 1:
        nxt = None
        L = len(cur)
        for i in range(L):
            prv, after = cur[i - 1], cur[(i + 1) % L]
            if cur[i] == after or prv == after or g.has_edge(prv, after):
                rest = cur[:i] + cur[i + 1:]
                nxt = min(rest[j:] + rest[:j] for j in range(len(rest)))
                break
        if nxt is None:
            break
        trace.append(nxt)
        cur = nxt
    return trace


def is_contractible(g, loop, max_loop_length=None, max_steps=1_000_000):
    """Budgeted shortest-loop-first search over the loop-rewriting graph.

    Loops are searched in rotation-normalized cyclic form, which only merges
    states that are trivially homotopic. Deletions and insertions are both
    explored since a contraction may need to grow the loop first (e.g. an
    induced 4-cycle inside a dense graph); insertions are capped at
    ``max_loop_length`` (default 2*len+4). States are expanded shortest
    first, so the search stays near the reduced end of the space instead of
    fanning out into ever longer loops.
    """
    seq = tuple(loop)
    check_loop(g, seq)
    start = cyclic_form(seq)
    if max_loop_length is None:
        max_loop_length = 2 * len(start) + 4
    greedy = _greedy_shrink(g, start)
    if len(greedy[-1]) == 1:
        return ContractibilityAnswer(CONTRACTIBLE, steps=len(greedy) - 1, trace=greedy)
    root = greedy[-1]
    parent = {root: None}
    heap = [(len(root), root)]
    expanded = 0
    while heap:
        if expanded >= max_steps:
            return ContractibilityAnswer(BUDGET_EXHAUSTED, states_explored=expanded)
        _, state = heappop(heap)
        expanded += 1
        for nxt in _cyclic_moves(g, state, max_loop_length):
            if nxt in parent:
                continue
            parent[nxt] = state
            if len(nxt) == 1:
                path = [nxt]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()  # root .. single vertex
                trace = greedy[:-1] + path
                return ContractibilityAnswer(
                    CONTRACTIBLE, steps=len(trace) - 1, trace=trace,
                    states_explored=expanded,
                )
            heappush(heap, (len(nxt), nxt))
    return ContractibilityAnswer(NOT_CONTRACTIBLE_WITHIN_BUDGET, states_explored=expanded)


def is_triangle_free(g):
    return not any(g._counts())


def fundamental_cycles(g, root=0):
    """Simple cycles closing the non-tree edges of a BFS tree (one per edge)."""
    parent = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    tree_edges = {(min(v, p), max(v, p)) for v, p in parent.items() if p is not None}
    cycles = []
    for (u, v, _pu, _pv) in g.edges:
        key = (min(u, v), max(u, v))
        if key in tree_edges:
            continue
        pu, pv = [u], [v]
        seen = {u: 0}
        x = u
        while parent[x] is not None:
            x = parent[x]
            seen[x] = len(pu)
            pu.append(x)
        x = v
        while x not in seen:
            x = parent[x]
            pv.append(x)
        lca_idx = seen[x]
        cycle = pu[: lca_idx + 1] + pv[-2::-1] + [u]
        cycles.append(tuple(cycle))
    return cycles


def simple_cycles(g, length_cap, max_count):
    """Enumerate simple cycles up to ``length_cap`` vertices, at most
    ``max_count`` of them, each canonical (smallest vertex first, smaller
    neighbour second)."""
    out = []
    for root in range(g.n):
        if len(out) >= max_count:
            break
        path = [root]
        on_path = {root}

        def walk():
            if len(out) >= max_count:
                return
            cur = path[-1]
            for w in g.neighbors(cur):
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path) + (root,))
                    if len(out) >= max_count:
                        return
                elif w > root and w not in on_path and len(path) < length_cap:
                    path.append(w)
                    on_path.add(w)
                    walk()
                    on_path.discard(w)
                    path.pop()

        walk()
    return out


def is_simply_connected(g, *, max_vertices=64, length_cap=None, max_cycles=2000,
                        max_steps=200_000):
    """Verdict "yes" / "no" / "unknown" on whether every loop contracts.

    Simple cycles suffice (every loop is spanned by them), and among those the
    fundamental cycles of a spanning tree generate all loop classes: the
    2-cells are exactly the triangles, so if every fundamental cycle
    contracts, every loop does. "no" is only returned when provable, which
    this oracle can do on triangle-free graphs where the cyclically reduced
    form is a homotopy invariant. Anything else within budget is "unknown".
    """
    if g.n > max_vertices:
        raise InstanceTooLargeError(
            f"simple-connectivity oracle capped at {max_vertices} vertices, got {g.n}"
        )
    if g.m == g.n - 1:
        return "yes"
    if is_triangle_free(g):
        # any fundamental cycle is simple of length >= 4: never contractible
        return "no"
    if length_cap is None:
        length_cap = g.n
    basis_ok = True
    for cyc in fundamental_cycles(g):
        ans = is_contractible(g, cyc, max_steps=max_steps)
        if not ans.contractible:
            basis_ok = False
            break
    if not basis_ok:
        return "unknown"
    # assurance sweep over short simple cycles; a stall cannot override the
    # basis proof, but a reproducible non-contraction here would flag a bug
    for cyc in simple_cycles(g, length_cap, max_cycles):
        ans = is_contractible(g, cyc, max_steps=max_steps // 10)
        if ans.verdict == NOT_CONTRACTIBLE_WITHIN_BUDGET and is_triangle_free(g):
            return "no"
    return "yes"


def unfold_tree_cover(g, v0, radius):
    """Tree of non-backtracking walks from v0, truncated at ``radius``.

    Only defined for triangle-free graphs (balls are stars, so this tree is
    also the ball-preserving universal cover). Returns (cover, projection,
    boundary) where projection maps each walk to its endpoint and boundary
    lists the walks cut short by the radius.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not is_triangle_free(g):
        raise ValueError("graph has triangles; tree unfolding not supported")
    # node = (id, endpoint, arrival in-port or None)
    nodes = [(v0, None)]
    edges = []
    boundary = []
    frontier = [0]
    for depth in range(radius):
        nxt = []
        for nid in frontier:
            u, q = nodes[nid]
            for p in g.ports(u):
                if p == q:
                    continue
                w, r = g.step(u, p)
                wid = len(nodes)
                nodes.append((w, r))
                edges.append((nid, wid, p, r))
                nxt.append(wid)
        frontier = nxt
    boundary = list(frontier) if radius > 0 else []
    cover = PortNumberedGraph(len(nodes), edges)
    projection = [u for (u, _q) in nodes]
    return cover, projection, boundary
