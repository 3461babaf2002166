"""Graph family generators and the structural condition oracle.

Families: johnson(n,k), randomly grown chordal graphs, complete graphs,
paths, cycles, stars, fans, random trees. Cycles (and any even grid built by hand)
are the negative controls: they fail the triangle/interval conditions and
force the non-halting path of the explorer.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations

from .graph import PortNumberedGraph, component, layering

# A natural number in plain decimal: no sign, space, underscore or leading
# zero, so each number has one spelling. Spec integers and port seeds follow it.
_DECIMAL = "0|[1-9][0-9]*"


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one port-numbered graph.

    The same spec always yields the same graph, byte for byte. ``port_scheme``
    is "canonical" (ports 0..deg-1 in ascending neighbour order) or
    "random:SEED" (an independent seeded permutation of 0..deg-1 per vertex),
    SEED a natural number in plain decimal (no sign, no leading zero).
    A spec whose values name no graph raises ValueError when it is made.
    """

    family: str
    n: int
    k: int = 0
    rate: float = 0.0
    seed: int = 0
    port_scheme: str = "canonical"

    def __post_init__(self):
        fam, n = self.family, self.n
        if n < 1:
            raise ValueError(f"{fam}: n must be positive, got {n}")
        if fam == "johnson" and not (1 <= self.k <= n):
            raise ValueError(f"johnson: need 1 <= k <= n, got k={self.k}, n={n}")
        if fam == "cycle" and n < 3:
            raise ValueError(f"cycle: n must be at least 3, got {n}")
        if fam == "chordal" and not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"chordal: rate must be in [0, 1], got {self.rate}")
        scheme = self.port_scheme
        if scheme != "canonical" and not re.fullmatch(f"random:(?:{_DECIMAL})", scheme):
            raise ValueError(f"unknown port scheme {scheme!r}")

    def echo(self):
        if self.family == "johnson":
            return f"johnson:{self.n},{self.k}"
        if self.family == "chordal":
            return f"chordal:n={self.n},rate={self.rate},seed={self.seed}"
        if self.family == "tree":
            return f"tree:n={self.n},seed={self.seed}"
        return f"{self.family}:{self.n}"


def _natural(name, text):
    """The int that ``text`` spells in plain decimal (``_DECIMAL``);
    ValueError naming the parameter ``name`` otherwise."""
    if not re.fullmatch(_DECIMAL, text):
        raise ValueError(f"{name} must be a natural number in plain decimal, got {text!r}")
    return int(text)


def parse_spec(text, port_scheme="canonical"):
    """Parse CLI-facing spec strings like ``johnson:5,2`` or
    ``chordal:n=100,rate=0.4,seed=7``. The integers ``n``, ``k`` and
    ``seed`` are natural numbers in plain decimal."""
    family, _, rest = text.partition(":")
    family = family.strip()
    try:
        if family == "johnson":
            n, k = rest.split(",")
            return GeneratorSpec("johnson", n=_natural("n", n), k=_natural("k", k),
                                 port_scheme=port_scheme)
        if family in ("complete", "path", "cycle", "star", "fan"):
            return GeneratorSpec(family, n=_natural("n", rest), port_scheme=port_scheme)
        if family in ("chordal", "tree"):
            kv = {}
            for part in rest.split(","):
                key, _, val = part.partition("=")
                if key.strip() in kv:
                    raise ValueError(f"repeated parameter {key.strip()!r}")
                kv[key.strip()] = val
            if "n" not in kv:
                raise ValueError("missing parameter 'n'")
            n = _natural("n", kv.pop("n"))
            seed = _natural("seed", kv.pop("seed", "0"))
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
            random.Random(f"ports:{scheme.partition(':')[2]}:{v}").shuffle(slots)
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
    if fam == "johnson":
        count, pairs = _johnson_pairs(n, spec.k)
        return PortNumberedGraph(count, _assign_ports(count, pairs, spec.port_scheme))
    if fam == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif fam == "path":
        pairs = [(v, v + 1) for v in range(n - 1)]
    elif fam == "cycle":
        pairs = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    elif fam == "star":  # centre 0, a hub of degree n - 1
        pairs = [(0, v) for v in range(1, n)]
    elif fam == "fan":  # centre 0 joined to the path 1..n-1
        pairs = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]
    elif fam == "tree":
        pairs = _tree_pairs(n, random.Random(f"tree:{n}:{spec.seed}"))
    elif fam == "chordal":
        pairs = _chordal_pairs(n, spec.rate, random.Random(f"chordal:{n}:{spec.rate}:{spec.seed}"))
    else:
        raise ValueError(f"unknown family {fam!r}")
    return PortNumberedGraph(n, _assign_ports(n, pairs, spec.port_scheme))


def condition_failure(g, v0):
    """The first failure of the triangle or the interval condition at root
    ``v0``, or None when both hold.

    Triangle: every same-sphere edge needs a common neighbour one sphere
    closer; a failure is the first such edge of ``g.edges``, as
    ``{"condition": "triangle", "root": v0, "edge": [u, v]}`` with u < v.
    Interval: every vertex's predecessors (its neighbours one sphere closer)
    must induce a connected subgraph; a failure is the first such vertex, as
    ``{"condition": "interval", "root": v0, "vertex": v}``. The triangle
    condition is tested first.
    """
    dist = layering(g, v0)
    preds = [set() for _ in range(g.n)]
    for (u, v, _pu, _pv) in g.edges:
        if dist[u] == dist[v] + 1:
            preds[u].add(v)
        elif dist[v] == dist[u] + 1:
            preds[v].add(u)
    for (u, v, _pu, _pv) in g.edges:
        if dist[u] == dist[v] >= 1 and not (preds[u] & preds[v]):
            return {"condition": "triangle", "root": v0, "edge": [min(u, v), max(u, v)]}
    for v, pv in enumerate(preds):
        if len(pv) > 1 and len(component(g, next(iter(pv)), pv)) != len(pv):
            return {"condition": "interval", "root": v0, "vertex": v}
    return None
