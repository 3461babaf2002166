"""From-scratch reference for the per-phase verifier.

Folds a trace's phase deltas into the whole map of every phase and checks
each map on its own: the sense replay rebuilds its adjacency at every
phase_end, and every phase reconstructs phi and re-checks every edge and
vertex. The vertices explored after phase k are those first sensed in
phase k or before. Quadratic in the number of phases, so only for small
test graphs; ``verify_phase_invariants`` must agree with it phase by phase.
"""

from binox.graph import PortNumberedGraph, ball
from binox.verify import CheckResult, _phi_for_snapshot


def folded_maps(trace):
    """(phase, whole map after that phase) for every phase_end."""
    edges = []
    out = []
    for phase, delta in trace.snapshots():
        edges = sorted(edges + [tuple(e) for e in delta["edges"]])
        out.append((phase, {"n": delta["n"], "edges": edges}))
    return out


def sense_log(trace, g):
    maps = iter(folded_maps(trace))
    ground = trace.header()["root"]
    map_pos = 0
    adj = {0: {}}
    phase = 0
    senses = []
    problems = []
    for ev in trace.events:
        kind = ev["kind"]
        if kind == "phase_start":
            phase = ev["phase"]
        elif kind == "move":
            got = adj.get(map_pos, {}).get(ev["out"])
            if got is None:
                problems.append((phase, (
                    f"trace walks port {ev['out']} at map vertex "
                    f"{map_pos} which is not in the map"
                )))
                return senses, problems
            map_pos = got[0]
            step = g.step(ground, ev["out"])
            if step is None:
                problems.append((phase, f"ground walk broke at {ground}"))
                return senses, problems
            ground = step[0]
        elif kind == "sense":
            senses.append((phase, map_pos, ground))
        elif kind == "phase_end":
            _, snap = next(maps)
            adj = {n: {} for n in range(snap["n"])}
            for (a, b, pa, pb) in snap["edges"]:
                adj[a][pa] = (b, pb)
                adj[b][pb] = (a, pa)
    return senses, problems


def filed_problems(trace, g):
    """(first, [(phase, problem)]) of the sense replay."""
    senses, problems = sense_log(trace, g)
    first = {}
    for (phase, n, u) in senses:
        if n in first:
            f_phase, f_u = first[n]
            if f_phase != phase:
                problems.append((phase, f"map vertex {n} sensed in phases {f_phase} and {phase}"))
            elif f_u != u:
                problems.append((phase, f"map vertex {n} sensed at ground {f_u} and {u}"))
        else:
            first[n] = (phase, u)
    return first, problems


def first_sensed_map(trace, g):
    first, problems = filed_problems(trace, g)
    return first, [f"phase {phase}: {p}" for phase, p in problems]


def check_snapshot(snap, phi, g, explored):
    problems = []
    n_count = snap["n"]
    nbrs = {n: {} for n in range(n_count)}
    for (a, b, pa, pb) in snap["edges"]:
        nbrs[a][b] = (pa, pb)
        nbrs[b][a] = (pb, pa)
        got = g.step(phi[a], pa)
        if got != (phi[b], pb):
            problems.append(
                f"edge {a}-{b} ({pa},{pb}) maps to {phi[a]}->{got}, "
                f"expected ({phi[b]},{pb})"
            )
    for n in range(n_count):
        images = {}
        for m in nbrs[n]:
            fm = phi[m]
            if fm in images:
                problems.append(
                    f"local injectivity at {n}: neighbours {images[fm]} and {m} "
                    f"both map to ground {fm}"
                )
            images[fm] = m
        if n not in explored:
            continue
        fn = phi[n]
        ground_nbrs = set(g._nbrs[fn])
        if set(images) != ground_nbrs:
            missing = sorted(ground_nbrs - set(images))
            problems.append(
                f"local surjectivity at explored {n}: ground neighbours "
                f"{missing} of {fn} not represented"
            )
            continue
        mlist = sorted(nbrs[n])
        for i, a in enumerate(mlist):
            for b in mlist[i + 1:]:
                in_map = b in nbrs[a]
                in_g = g.has_edge(phi[a], phi[b])
                if in_map != in_g:
                    problems.append(
                        f"triangle preservation at explored {n}: pair ({a},{b}) "
                        f"{'mapped' if in_map else 'unmapped'} but ground "
                        f"{'has' if in_g else 'lacks'} edge {phi[a]}-{phi[b]}"
                    )
    return problems


def phase_invariants(trace, g):
    first, filed = filed_problems(trace, g)
    results = []
    root = trace.header()["root"]
    for (phase, snap) in folded_maps(trace):
        problems = [p for ph, p in filed if ph == phase]
        phi = _phi_for_snapshot(snap, first, g, problems, phase)
        if phi is not None:
            explored = {n for n, (ph, _u) in first.items() if ph <= phase}
            problems.extend(check_snapshot(snap, phi, g, explored))
            if phase == 1:
                pg = PortNumberedGraph(snap["n"], snap["edges"])
                if ball(pg, 0).signature() != ball(g, root).signature():
                    problems.append("phase 1 map is not the ball around the homebase")
        results.append((phase, CheckResult(not problems, problems)))
    ended = {phase for phase, _r in results}
    for phase in sorted({ph for ph, _p in filed} - ended):
        problems = [p for ph, p in filed if ph == phase]
        results.append((phase, CheckResult(False, problems)))
    return results
