import networkx as nx

from binox.families import generate, parse_spec
from binox.verify import CheckResult, _forced_image


def gen(spec, ports="canonical"):
    return generate(parse_spec(spec, port_scheme=ports))


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u, v) for (u, v, _pu, _pv) in g.edges)
    return G


def rooted_embedding(sub, big, sub_root, big_root):
    """Forced port-preserving embedding of ``sub`` into ``big`` from the
    given roots; checks that a cut-off map is a prefix of a cover."""
    problems = []
    _forced_image(sub, big, sub_root, big_root, problems)
    return CheckResult(not problems, problems)
