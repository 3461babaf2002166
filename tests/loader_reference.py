"""Edge-by-edge reference for the graph loader (``graph.from_json_dict``).

Each edge is checked, indexed and validated on its own, in Python: the
items of ``edges`` one at a time, then an index of every edge whose ends
are distinct vertex ids (the others left out, as the loader leaves them),
then range, self loop, parallel edge, negative port and reused port per
edge, the symmetry of the index, and connectivity. ``from_json_dict`` must
raise the same GraphFormatError text, or build the same graph.
"""

from types import SimpleNamespace

from binox.graph import GraphFormatError, component


def from_json_dict(d):
    """The graph of ``d`` as a namespace with ``n``, ``edges``, ``_ports``
    and ``_nbrs``; GraphFormatError as the loader raises it. No key but
    ``n`` and ``edges`` is read."""
    problems = []
    if not isinstance(d, dict):
        raise GraphFormatError("graph file must contain a JSON object")
    n = d.get("n")
    if type(n) is not int or n < 0:
        raise GraphFormatError('"n" must be a non-negative integer')
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise GraphFormatError('"edges" must be a list of [u, v, portAtU, portAtV]')
    edges = []
    for idx, e in enumerate(raw):
        if not isinstance(e, list) or len(e) != 4 or not all(type(x) is int for x in e):
            problems.append(f"edges[{idx}]: expected 4 integers, got {e!r}")
            continue
        edges.append(tuple(e))
    if problems:
        raise GraphFormatError("\n".join(problems))
    if n > len(edges) + 1:
        raise GraphFormatError(
            f'"n" is {n}, but {len(edges)} edges connect at most {len(edges) + 1} vertices'
        )
    g = _graph(n, edges)
    violations = validate(g)
    if violations:
        raise GraphFormatError("\n".join(violations))
    return g


def _graph(n, edges):
    g = SimpleNamespace(n=n, edges=edges, _ports=[{} for _ in range(n)],
                        _nbrs=[{} for _ in range(n)])
    for (u, v, pu, pv) in edges:
        if 0 <= u < n and 0 <= v < n and u != v:
            g._ports[u][pu] = (v, pv)
            g._ports[v][pv] = (u, pu)
            g._nbrs[u][v] = (pu, pv)
            g._nbrs[v][u] = (pv, pu)
    return g


def validate(g):
    """Every violation of ``g`` (a namespace of ``_graph`` or a
    PortNumberedGraph), edge by edge."""
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
    for v in range(g.n):
        for p, (w, q) in g._ports[v].items():
            if g._ports[w].get(q) != (v, p):
                problems.append(f"asymmetric edge record at vertex {v} port {p}")
    if g.n > 0:
        seen = component(g, 0)
        if len(seen) != g.n:
            problems.append(f"disconnected: {g.n - len(seen)} vertices unreachable from vertex 0")
    return problems
