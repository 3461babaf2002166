"""The covering check of a halted run's map: ``verify_simplicial_covering``
checks that the map's correspondence to the ground graph
(``verify.TraceReplay.final_phi``) keeps every edge with its ports and every
radius-1 ball."""

from __future__ import annotations

from .graph import ball


def verify_simplicial_covering(h, g, phi):
    """Check that ``phi`` is a ball-preserving covering from h onto its image.

    Checks: total map, edge homomorphism with port preservation, local
    injectivity, degree and rooted ball isomorphism at every vertex.
    Returns a list of violations; empty means ok.
    """
    problems = []
    if len(phi) != h.n:
        return [f"phi defined on {len(phi)} vertices, graph has {h.n}"]
    for u in range(h.n):
        fu = phi[u]
        if not (0 <= fu < g.n):
            problems.append(f"phi({u})={fu} out of range")
    if problems:
        return problems
    for (u, v, pu, pv) in h.edges:
        got = g.step(phi[u], pu)
        if got != (phi[v], pv):
            problems.append(
                f"edge {u}-{v} ports ({pu},{pv}) maps to {phi[u]}->{got}, expected ({phi[v]},{pv})"
            )
    homomorphic = not problems
    h_nbrs, g_nbrs = h._nbrs, g._nbrs
    h_counts, g_counts = h._counts(), g._counts()
    for u in range(h.n):
        fu, around = phi[u], h_nbrs[u]
        degree = len(around)
        injective = len({phi[w] for w in around}) == degree
        if not injective:  # name each neighbour whose image an earlier one has
            images = {}
            for w in h.neighbors(u):
                fw = phi[w]
                if fw in images:
                    problems.append(
                        f"local injectivity at {u}: neighbours {images[fw]} and {w} both map to {fw}"
                    )
                images[fw] = w
        if degree != len(g_nbrs[fu]):
            problems.append(f"degree at {u}: {degree} vs {len(g_nbrs[fu])} at phi({u})={fu}")
            continue
        # A port-preserving homomorphism, injective at u with equal degree,
        # maps u's ball into phi(u)'s: the balls are equal iff they have as
        # many horizontal edges.
        if homomorphic and injective:
            same = h_counts[u] == g_counts[fu]
        else:
            same = ball(h, u).matches(g, fu)
        if not same:
            problems.append(f"ball at {u} not isomorphic to ball at phi({u})={fu}")
    return problems
