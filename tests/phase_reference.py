"""From-scratch reference for the checker's replay (``verify.TraceReplay``).

Folds a trace's phase deltas into the whole map of every phase and checks
each map on its own. A delta edge that a port-numbered map cannot take (a
self edge, a taken port, a second edge between two vertices, or an edge
already in the map) is left out and filed, first among the problems of
that phase and of every later one. The sense replay rebuilds its adjacency at every
phase_end, every sense event is compared with the ground ball by
``ball_signature`` (not by ``Ball.matches``), and every phase reconstructs
phi and re-checks every edge and vertex. The vertices explored after phase k
are those first sensed in phase k or before. Coverage walks the moves over
the ground alone (``replay_ground``). Quadratic in the number of phases, so
only for small test graphs; the replay's ``first`` and
``replay_problems()``, ``failed`` and ``ended``, ``final_phi()`` and
``coverage()`` must agree with ``first_sensed_map``, ``failed_and_ended``,
``reconstruct_final_phi`` and ``coverage``.
"""

from binox.graph import PortNumberedGraph, ball

from conftest import ball_signature, snapshots


def refusal(at, joined, a, b, pa, pb):
    """Why a map with the ports ``at`` ((vertex, port) -> (far vertex, far
    port)) and the vertex pairs ``joined`` ((u, v) -> (port at u, port at
    v)) cannot take the edge a-b labelled (pa, pb); None when it can."""
    if a == b:
        return f"self edge at map vertex {a}"
    ea, eb = at.get((a, pa)), at.get((b, pb))
    if ea == (b, pb) and eb == (a, pa):
        return "already in the map"
    if ea is not None or eb is not None:
        return (f"port clash inserting {a}-{b} labelled ({pa},{pb}): "
                f"port {pa}@{a} -> {ea}, port {pb}@{b} -> {eb}")
    if (a, b) in joined:
        return (f"second edge between map vertices {a} and {b} "
                f"(existing labels {joined[(a, b)]}, new ({pa},{pb}))")
    return None


def folded_maps(trace):
    """(phase, whole map after that phase) for every phase_end; each map
    also lists every delta edge refused so far, as a problem text."""
    edges = []
    refused = []
    at = {}
    joined = {}
    out = []
    for phase, delta in snapshots(trace):
        for (a, b, pa, pb) in delta["edges"]:
            why = refusal(at, joined, a, b, pa, pb)
            if why is not None:
                refused.append(f"delta edge {a}-{b} ({pa},{pb}) refused: {why}")
                continue
            at[(a, pa)], at[(b, pb)] = (b, pb), (a, pa)
            joined[(a, b)], joined[(b, a)] = (pa, pb), (pb, pa)
            edges.append((a, b, pa, pb) if a < b else (b, a, pb, pa))
        edges.sort()
        out.append((phase, {"n": delta["n"], "edges": list(edges), "refused": list(refused)}))
    return out


def final_map(trace):
    """The map after the last phase_end in the graph JSON form
    (``PortNumberedGraph.to_json_dict``), or None when no phase ended."""
    maps = folded_maps(trace)
    if not maps:
        return None
    snap = maps[-1][1]
    return {"n": snap["n"], "edges": [list(e) for e in snap["edges"]]}


def is_ground_ball(b, g, u):
    """Is the sensed ball ``b`` the ball of ``g`` at ``u``? Read as a graph
    of its own, it must have u's degree + 1 vertices, as many edges as u's
    ball and the same signature at its center."""
    sig = ball_signature(g, u)
    return (
        b.size == g.degree(u) + 1
        and len(b.edges) == len(sig[0]) + len(sig[1])
        and ball_signature(PortNumberedGraph(b.size, b.edges), 0) == sig
    )


def sense_log(trace, g):
    """(senses, stop, mismatched): the (phase, map vertex, ground vertex) of
    every sense up to where the walk stopped; [(phase, problem)] of that
    stop, if any; and (phase, problem) for every move and sense event so
    far that differs from the ground truth."""
    maps = iter(folded_maps(trace))
    ground = trace.events[0]["root"]
    map_pos = 0
    arrival = None
    adj = {0: {}}
    phase = 0
    moves = 0
    senses = []
    mismatched = []
    for ev in trace.events:
        kind = ev["kind"]
        if kind == "phase_start":
            phase = ev["phase"]
        elif kind == "move":
            moves += 1
            got = adj.get(map_pos, {}).get(ev["out"])
            if got is None:
                return senses, [(phase, (
                    f"trace walks port {ev['out']} at map vertex "
                    f"{map_pos} which is not in the map"
                ))], mismatched
            map_pos = got[0]
            step = g.step(ground, ev["out"])
            if step is None:
                return senses, [(phase, f"ground walk broke at {ground}")], mismatched
            ground = step[0]
            arrival = ev["in"]
            if step[1] != arrival:
                mismatched.append((phase, f"move {moves}: arrived on port {step[1]}, trace says {arrival}"))
        elif kind == "sense":
            senses.append((phase, map_pos, ground))
            where = f"sense at map vertex {map_pos} (ground {ground})"
            if ev["arrival"] != arrival:
                mismatched.append((phase, (
                    f"{where}: arrival port {ev['arrival']}, but the last move came in on {arrival}"
                )))
            if not is_ground_ball(ev["ball"], g, ground):
                mismatched.append((phase, f"{where}: the ball is not the ground ball"))
        elif kind == "phase_end":
            _, snap = next(maps)
            adj = {n: {} for n in range(snap["n"])}
            for (a, b, pa, pb) in snap["edges"]:
                adj[a][pa] = (b, pb)
                adj[b][pb] = (a, pa)
    return senses, [], mismatched


def filed_problems(trace, g):
    """(first, [(phase, problem)], mismatched) of the sense replay: where
    the walk stopped, then every vertex sensed again; and the sense events
    that differ from the ground truth."""
    senses, problems, mismatched = sense_log(trace, g)
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
    return first, problems, mismatched


def first_sensed_map(trace, g):
    first, problems, _mismatched = filed_problems(trace, g)
    return first, [f"phase {phase}: {p}" for phase, p in problems]


def _phi_for_snapshot(snap, first, g, problems, phase):
    """Reconstruct the map-to-ground correspondence for the map ``snap``
    after ``phase``.

    The explored vertices, those first sensed in ``phase`` or before, map to
    where they were first sensed; a frontier vertex follows its
    lexicographically smallest vertical edge (explored endpoint, port) for
    definiteness. Path independence is then checked, not assumed, by the
    per-edge homomorphism sweep in ``check_snapshot``.
    """
    phi = {n: u for n, (ph, u) in first.items() if ph <= phase}
    incident = {}
    for (a, b, pa, pb) in snap["edges"]:
        if a in phi and b not in phi:
            incident.setdefault(b, []).append((a, pa))
        elif b in phi and a not in phi:
            incident.setdefault(a, []).append((b, pb))
    for n in range(snap["n"]):
        if n in phi:
            continue
        if n not in incident:
            problems.append(f"frontier vertex {n} has no explored neighbour")
            return None
        m, p = min(incident[n])
        step = g.step(phi[m], p)
        if step is None:
            problems.append(f"frontier vertex {n}: ground has no port {p} at {phi[m]}")
            return None
        phi[n] = step[0]
    return phi


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
    """(phase, problems) per phase_end: the phase's sense mismatches, where
    the walk stopped and its vertices sensed again, then the checks of the
    whole map. A phase that never ended comes last, if its replay has a
    problem."""
    first, filed, mismatched = filed_problems(trace, g)

    def replay_problems(phase):
        return [p for ph, p in mismatched + filed if ph == phase]

    results = []
    root = trace.events[0]["root"]
    for (phase, snap) in folded_maps(trace):
        problems = replay_problems(phase) + snap["refused"]
        phi = _phi_for_snapshot(snap, first, g, problems, phase)
        if phi is not None:
            explored = {n for n, (ph, _u) in first.items() if ph <= phase}
            problems.extend(check_snapshot(snap, phi, g, explored))
            if phase == 1:
                pg = PortNumberedGraph(snap["n"], snap["edges"])
                if ball(pg, 0).signature() != ball(g, root).signature():
                    problems.append("phase 1 map is not the ball around the homebase")
        results.append((phase, problems))
    ended = {phase for phase, _r in results}
    for phase in sorted({ph for ph, _p in mismatched + filed} - ended):
        results.append((phase, replay_problems(phase)))
    return results


def failed_and_ended(trace, g):
    """The (phase, problems) of each phase of ``phase_invariants`` that has
    problems, and the last phase that ended (0 when none did)."""
    failed = [(phase, problems) for phase, problems in phase_invariants(trace, g) if problems]
    ends = snapshots(trace)
    return failed, ends[-1][0] if ends else 0


def reconstruct_final_phi(trace, g):
    """phi of the final map as a list and [], or None and the problems."""
    maps = folded_maps(trace)
    if not maps:
        return None, ["trace has no phase snapshots"]
    first, problems = first_sensed_map(trace, g)
    phase, snap = maps[-1]
    phi = _phi_for_snapshot(snap, first, g, problems, phase)
    if phi is None or problems:
        return None, problems
    return [phi[n] for n in range(snap["n"])], []


def replay_ground(trace, g):
    """Fold the move events over the ground truth.

    Returns (positions, problems): positions[i] is where the agent stands
    after i moves (positions[0] is the homebase). In-port disagreements with
    the trace are reported.
    """
    pos = trace.events[0]["root"]
    positions = [pos]
    problems = []
    for ev in trace.events:
        if ev["kind"] != "move":
            continue
        step = g.step(pos, ev["out"])
        if step is None:
            problems.append(f"move {len(positions)}: no port {ev['out']} at ground {pos}")
            break
        pos, in_port = step
        if in_port != ev["in"]:
            problems.append(
                f"move {len(positions)}: arrived on port {in_port}, trace says {ev['in']}"
            )
        positions.append(pos)
    return positions, problems


def coverage(trace, g):
    """Replaying the moves must visit every ground vertex at least once:
    the problems, [] when it does."""
    positions, problems = replay_ground(trace, g)
    unvisited = sorted(set(range(g.n)) - set(positions))
    if unvisited:
        problems.append(f"unvisited ground vertices: {unvisited}")
    return problems
