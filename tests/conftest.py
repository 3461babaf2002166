import contextlib
from unittest import mock

import networkx as nx

from binox import explorer
from binox.families import _assign_ports, condition_failure, generate, parse_spec
from binox.graph import PortNumberedGraph
from binox.verify import _forced_image


def gen(spec, ports="canonical"):
    return generate(parse_spec(spec, port_scheme=ports))


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u, v) for (u, v, _pu, _pv) in g.edges)
    return G


def connected_atlas(max_n):
    """Every connected graph of the networkx atlas with 1 to ``max_n``
    vertices, canonical ports, keyed by atlas index."""
    out = {}
    for i, G in enumerate(nx.graph_atlas_g()):
        n = G.number_of_nodes()
        if n > max_n:
            break
        if n and nx.is_connected(G):
            pairs = sorted(tuple(sorted(e)) for e in G.edges())
            out[i] = PortNumberedGraph(n, _assign_ports(n, pairs, "canonical"))
    return out


def weetman_failure(g):
    """The first failing root's condition witness, or None when ``g`` is a
    Weetman graph: the triangle and interval conditions hold at every root."""
    for v0 in range(g.n):
        failure = condition_failure(g, v0)
        if failure:
            return failure
    return None


def rooted_embedding(sub, big, sub_root, big_root):
    """Forced port-preserving embedding of ``sub`` into ``big`` from the
    given roots; checks that a cut-off map is a prefix of a cover. Returns
    the mismatches, [] when it embeds."""
    problems = []
    _forced_image(sub, big, sub_root, big_root, problems)
    return problems


# Free functions over binox's data that the tests use as oracles and helpers.


def ball_signature(g, v):
    """``ball(g, v).signature()`` read straight off the adjacency, without
    building the ball: neighbours in ascending center port and pairs i < j
    give both tuples already sorted."""
    ports = g._ports[v]
    cps = sorted(ports)
    vertical = tuple((p, ports[p][1]) for p in cps)
    nbrs = [ports[p][0] for p in cps]
    horizontal = []
    for i, a in enumerate(nbrs):
        na = g._nbrs[a]
        for j in range(i + 1, len(nbrs)):
            pq = na.get(nbrs[j])
            if pq is not None:
                horizontal.append((cps[i], cps[j], pq[0], pq[1]))
    return vertical, tuple(horizontal)


def horizontal_count(nbrs, v):
    """The number of edges among v's neighbours in the adjacency ``nbrs``
    (a ``_nbrs``-shaped list: vertex -> {neighbour: ...}), recounted."""
    around = nbrs[v].keys()
    return sum(len(nbrs[w].keys() & around) for w in around) // 2


def source_ids(g, v):
    """The vertices of g behind the local ids of ``ball(g, v)``."""
    return (v, *g.neighbors(v))


def center_edges(b):
    """A ball's edges at the center as (out_port, far_port, local_neighbour)."""
    return [(pu, pv, v) for (u, v, pu, pv) in b.edges if u == 0]


def horizontal_edges(b):
    """A ball's edges between neighbours as (i, j, port_at_i, port_at_j)."""
    return [e for e in b.edges if e[0] != 0]


def center_degree(b):
    return len(center_edges(b))


def dest(g, v, port_seq):
    """Follow a port sequence from v; None once a port is missing."""
    for p in port_seq:
        step = g.step(v, p)
        if step is None:
            return None
        v = step[0]
    return v


def port_pair(g, u, v):
    """(port at u, port at v) of the edge uv, or None."""
    return g._nbrs[u].get(v)


def renamed(g, perm):
    """A copy of g with vertex ids mapped through ``perm``; ports unchanged."""
    edges = [(perm[u], perm[v], pu, pv) for (u, v, pu, pv) in g.edges]
    return PortNumberedGraph(g.n, edges)


@contextlib.contextmanager
def phase_ledgers():
    """While open, each ``PhaseLedger`` the explorer makes is appended to
    the list it yields: one per phase, in phase order."""
    ledgers = []

    class Recorded(explorer.PhaseLedger):
        def __init__(self):
            super().__init__()
            ledgers.append(self)

    with mock.patch.object(explorer, "PhaseLedger", Recorded):
        yield ledgers


def sensed_in(ledgers):
    """{map vertex: the phase it was sensed in}, read off the keys of each
    phase's ``ledger.balls``."""
    return {n: phase for phase, ledger in enumerate(ledgers, 1) for n in ledger.balls}


def moves(trace):
    return [e for e in trace.events if e["kind"] == "move"]


def snapshots(trace):
    """(phase, delta) of every phase_end, in order."""
    return [(e["phase"], e["delta"]) for e in trace.events if e["kind"] == "phase_end"]
