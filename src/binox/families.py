"""Graph family generators and structural condition checkers.

Families: johnson(n,k), randomly grown chordal graphs, complete graphs,
paths, cycles, random trees. Cycles (and any even grid built by hand) are the
negative controls: they fail the triangle/interval conditions and force the
non-halting path of the explorer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import PortNumberedGraph, component, layering


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one port-numbered graph.

    The same spec always yields the same graph, byte for byte. ``port_scheme``
    is "canonical" (ports 0..deg-1 in ascending neighbour order) or
    "random:SEED" (an independent seeded permutation of 0..deg-1 per vertex).
    """

    family: str
    n: int
    k: int = 0
    rate: float = 0.0
    seed: int = 0
    port_scheme: str = "canonical"

    def echo(self):
        if self.family == "johnson":
            return f"johnson:{self.n},{self.k}"
        if self.family == "chordal":
            return f"chordal:n={self.n},rate={self.rate},seed={self.seed}"
        if self.family == "tree":
            return f"tree:n={self.n},seed={self.seed}"
        return f"{self.family}:{self.n}"


def parse_spec(text, port_scheme="canonical"):
    """Parse CLI-facing spec strings like ``johnson:5,2`` or
    ``chordal:n=100,rate=0.4,seed=7``."""
    family, _, rest = text.partition(":")
    family = family.strip()
    rest = rest.strip()
    try:
        if family == "johnson":
            n, k = (int(x) for x in rest.split(","))
            return GeneratorSpec("johnson", n=n, k=k, port_scheme=port_scheme)
        if family in ("complete", "path", "cycle"):
            return GeneratorSpec(family, n=int(rest), port_scheme=port_scheme)
        if family in ("chordal", "tree"):
            kv = {}
            for part in rest.split(","):
                key, _, val = part.partition("=")
                kv[key.strip()] = val.strip()
            n = int(kv.pop("n"))
            seed = int(kv.pop("seed", 0))
            rate = float(kv.pop("rate", 0.0)) if family == "chordal" else 0.0
            if kv:
                raise ValueError(f"unknown parameters {sorted(kv)}")
            return GeneratorSpec(family, n=n, rate=rate, seed=seed, port_scheme=port_scheme)
    except (ValueError, TypeError) as e:
        raise ValueError(f"bad generator spec {text!r}: {e}") from e
    raise ValueError(f"unknown family in generator spec {text!r}")


def _assign_ports(n, pairs, scheme):
    """Turn an undirected edge list into port-labelled edges."""
    adj = [[] for _ in range(n)]
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)
    port_of = [dict() for _ in range(n)]
    for v in range(n):
        nbrs = sorted(adj[v])
        slots = list(range(len(nbrs)))
        if scheme != "canonical":
            kind, _, s = scheme.partition(":")
            if kind != "random":
                raise ValueError(f"unknown port scheme {scheme!r}")
            random.Random(f"ports:{s}:{v}").shuffle(slots)
        for w, p in zip(nbrs, slots):
            port_of[v][w] = p
    return [(u, v, port_of[u][v], port_of[v][u]) for (u, v) in pairs]


def _tree_pairs(n, rng):
    return [(rng.randrange(v), v) for v in range(1, n)]


def _chordal_pairs(n, rate, rng):
    """Random tree plus distance-2 chords that keep the graph chordal.

    The perfect elimination ordering is fixed once (children of the tree
    eliminated before parents) and a chord is accepted only if that ordering
    stays valid: with a the earlier endpoint, the later neighbours of a must
    already be adjacent to the other endpoint. This is conservative but keeps
    the incremental check O(deg); tests re-verify chordality per instance.
    """
    pairs = _tree_pairs(n, rng)
    adj = [set() for _ in range(n)]
    parent = [None] * n
    for (u, v) in pairs:
        adj[u].add(v)
        adj[v].add(u)
        parent[v] = u
    # eliminate in reverse BFS order: every vertex before its tree parent
    order = [0]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        order.extend(sorted(c for c in adj[x] if parent[c] == x))
    pos = [0] * n
    for i, v in enumerate(reversed(order)):
        pos[v] = i
    later = [set() for _ in range(n)]
    for v in range(1, n):
        later[v].add(parent[v])
    target = int(round(rate * n))
    attempts = 0
    added = 0
    while added < target and attempts < 30 * (target + 1):
        attempts += 1
        x = rng.randrange(n)
        if len(adj[x]) < 2:
            continue
        u, w = rng.sample(sorted(adj[x]), 2)
        if w in adj[u]:
            continue
        a, b = (u, w) if pos[u] < pos[w] else (w, u)
        if any(b not in adj[y] for y in later[a]):
            continue
        later[a].add(b)
        adj[a].add(b)
        adj[b].add(a)
        pairs.append((a, b))
        added += 1
    return pairs


def _johnson_pairs(n, k):
    verts = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(verts)}
    pairs = []
    for i, a in enumerate(verts):
        sa = set(a)
        for b in verts[i + 1:]:
            if len(sa.intersection(b)) == k - 1:
                pairs.append((i, index[b]))
    return len(verts), pairs


def generate(spec):
    """Build the graph described by ``spec`` (deterministic)."""
    fam, n = spec.family, spec.n
    if n < 1:
        raise ValueError(f"{fam}: n must be positive, got {n}")
    if fam == "johnson":
        if not (1 <= spec.k <= n):
            raise ValueError(f"johnson: need 1 <= k <= n, got k={spec.k}, n={n}")
        count, pairs = _johnson_pairs(n, spec.k)
        return PortNumberedGraph(count, _assign_ports(count, pairs, spec.port_scheme))
    if fam == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif fam == "path":
        pairs = [(v, v + 1) for v in range(n - 1)]
    elif fam == "cycle":
        if n < 3:
            raise ValueError(f"cycle: n must be at least 3, got {n}")
        pairs = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    elif fam == "tree":
        pairs = _tree_pairs(n, random.Random(f"tree:{n}:{spec.seed}"))
    elif fam == "chordal":
        if not (0.0 <= spec.rate <= 1.0):
            raise ValueError(f"chordal: rate must be in [0, 1], got {spec.rate}")
        pairs = _chordal_pairs(n, spec.rate, random.Random(f"chordal:{n}:{spec.rate}:{spec.seed}"))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return PortNumberedGraph(n, _assign_ports(n, pairs, spec.port_scheme))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a structural condition check.

    ``witness`` is present exactly when the condition fails and contains
    enough to re-check the failure in isolation (root, offending vertices).
    """

    holds: bool
    witness: dict | None = None


def _pred_sets(g, lay):
    preds = [set() for _ in range(g.n)]
    for (u, v, _pu, _pv) in g.edges:
        du, dv = lay.sphere_of[u], lay.sphere_of[v]
        if du == dv + 1:
            preds[u].add(v)
        elif dv == du + 1:
            preds[v].add(u)
    return preds


def check_triangle_condition(g, v0):
    """Every same-sphere edge needs a common neighbour one sphere closer."""
    lay = layering(g, v0)
    preds = _pred_sets(g, lay)
    for (u, v, _pu, _pv) in g.edges:
        if lay.sphere_of[u] == lay.sphere_of[v] and lay.sphere_of[u] >= 1:
            if not (preds[u] & preds[v]):
                return ConditionReport(
                    False,
                    {"condition": "triangle", "root": v0, "edge": [min(u, v), max(u, v)]},
                )
    return ConditionReport(True)


def check_interval_condition(g, v0):
    """Every vertex's predecessor set must induce a connected subgraph."""
    lay = layering(g, v0)
    preds = _pred_sets(g, lay)
    for v in range(g.n):
        if v == v0 or len(preds[v]) <= 1:
            continue
        pv = preds[v]
        if len(component(g, next(iter(pv)), pv)) != len(pv):
            return ConditionReport(
                False, {"condition": "interval", "root": v0, "vertex": v}
            )
    return ConditionReport(True)


def is_weetman(g):
    """Triangle and interval conditions for every choice of root.

    The definition quantifies over all roots, so this is O(n) condition
    sweeps; fine at desk scale. First failing (root, witness) is reported.
    """
    for v0 in range(g.n):
        tc = check_triangle_condition(g, v0)
        if not tc.holds:
            return tc
        ic = check_interval_condition(g, v0)
        if not ic.holds:
            return ic
    return ConditionReport(True)


def is_chordal(g):
    """Maximum cardinality search + elimination check.

    Returns (True, perfect_elimination_ordering) or (False, None). The
    ordering lists vertices in elimination order (first eliminated first).
    """
    n = g.n
    if n == 0:
        return True, []
    weight = [0] * n
    visited = [False] * n
    mcs = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not visited[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        mcs.append(best)
        for w in g.neighbors(best):
            if not visited[w]:
                weight[w] += 1
    order = list(reversed(mcs))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        p = min(later, key=lambda w: pos[w])
        for w in later:
            if w != p and not g.has_edge(p, w):
                return False, None
    return True, order
