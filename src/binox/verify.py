"""Ground-truth verification of exploration runs.

Everything here sits on the harness side of the anonymity firewall: it knows
the hidden graph and replays the trace against it. The map-to-ground
correspondence is reconstructed from the trace alone (a map vertex is
explored from the end of the phase it was first sensed in and maps to the
ground vertex of that sense; frontier vertices follow one vertical edge
label), then checked to be a locally injective, locally
surjective (at explored vertices), port-preserving homomorphism phase by
phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import PortNumberedGraph, ball, horizontal_count


@dataclass
class CheckResult:
    ok: bool
    problems: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _as_port_graph(map_like):
    """Accept a PortNumberedGraph (an ExplorationMap is one) or a snapshot dict."""
    if isinstance(map_like, dict):
        return PortNumberedGraph(map_like["n"], map_like["edges"])
    return map_like


def _forced_image(sub, big, sub_root, big_root, problems):
    """Walk ``sub`` from ``sub_root`` and ``big`` from ``big_root`` in step.

    Port-numbered rooted graphs are rigid: each edge of sub forces the
    image of its far end, so the walk either builds an injective map that
    keeps every port and far port, or reports a concrete mismatch to
    ``problems``. Returns the image (sub vertex -> big vertex) reached.
    """
    image = {sub_root: big_root}
    stack = [sub_root]
    while stack:
        n = stack.pop()
        u = image[n]
        for p in sub.ports(n):
            m, q = sub.step(n, p)
            got = big.step(u, p)
            if got is None or got[1] != q:
                problems.append(f"edge at {n} port {p} (far {q}) has no counterpart at {u}")
                continue
            w = got[0]
            if m not in image:
                image[m] = w
                stack.append(m)
            elif image[m] != w:
                problems.append(f"vertex {m} reached as both {image[m]} and {w}")
    if len(image) != sub.n:
        problems.append(f"not connected from its root: reached {len(image)}/{sub.n}")
    if len(set(image.values())) != len(image):
        problems.append("two vertices share an image (a proper cover, not an embedding)")
    return image


def verify_rooted_isomorphism(map_like, g, v0):
    """The forced traversal from (map homebase, v0) must be a bijection
    that keeps every port set: either it is, or a concrete mismatch is
    reported."""
    pg = _as_port_graph(map_like)
    problems = []
    if pg.n != g.n:
        problems.append(f"vertex count: map has {pg.n}, graph has {g.n}")
    image = _forced_image(pg, g, 0, v0, problems)
    for n, u in image.items():
        if pg.degree(n) != g.degree(u):
            problems.append(f"port set at map vertex {n}: {pg.ports(n)} vs {g.ports(u)} at {u}")
    if not problems and len(image) != g.n:
        problems.append(f"ground vertices unreached: {g.n - len(image)}")
    return CheckResult(not problems, problems)


def replay_ground(trace, g):
    """Fold the move events over the ground truth.

    Returns (positions, problems): positions[i] is where the agent stands
    after i moves (positions[0] is the homebase). In-port disagreements with
    the trace are reported.
    """
    header = trace.header()
    pos = header["root"]
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


def verify_coverage(trace, g):
    """Replaying the moves must visit every ground vertex at least once."""
    positions, problems = replay_ground(trace, g)
    unvisited = sorted(set(range(g.n)) - set(positions))
    if unvisited:
        problems.append(f"unvisited ground vertices: {unvisited}")
    return CheckResult(not problems, problems)


def _sense_log(trace, g, sense_problems=None):
    """Per-sense (phase, map vertex, ground vertex) triples, replaying map
    positions against the map folded from the phase deltas so far (phase i
    moves only use edges already in the map at the end of phase i-1), and
    the replay's problems as (phase, problem) pairs. Given a dict
    ``sense_problems``, each sense event is also compared with the ground
    truth (see first_sensed_map)."""
    header = trace.header()
    ground = header["root"]
    map_pos = 0
    arrival = None  # the in-port of the last move
    adj = {}  # map vertex -> port -> (neighbour, far port, edge)
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
            arrival = ev["in"]
        elif kind == "sense":
            senses.append((phase, map_pos, ground))
            if sense_problems is not None:
                found = []
                if ev["arrival"] != arrival:
                    found.append(
                        f"arrival port {ev['arrival']}, but the last move came in on {arrival}"
                    )
                if not ev["ball"].matches(g, ground):
                    found.append("the ball is not the ground ball")
                if found:
                    sense_problems.setdefault(phase, []).extend(
                        f"sense at map vertex {map_pos} (ground {ground}): {p}" for p in found
                    )
        elif kind == "phase_end":
            for e in ev["delta"]["edges"]:
                a, b, pa, pb = e
                _write_port(adj, a, pa, (b, pb, e))
                _write_port(adj, b, pb, (a, pa, e))
    return senses, problems


def _write_port(adj, v, p, entry):
    # A port written by two edges (only in a corrupt trace) keeps the edge
    # that sorts last, as writing the whole map in sorted edge order would.
    ports = adj.setdefault(v, {})
    old = ports.get(p)
    if old is None or old[2] <= entry[2]:
        ports[p] = entry


def first_sensed_map(trace, g, sense_problems=None):
    """map vertex -> (phase, ground vertex) of its first sense; also asserts
    single-phase sensing (a vertex re-sensed in a later phase is reported).
    This is the one record of which vertices are explored: a vertex is
    explored from the end of the phase of its first sense, and every other
    vertex of the map is frontier.

    Given a dict ``sense_problems``, the same replay compares every sense
    event with the ground truth and files what it gets wrong under the
    event's phase: an arrival port other than the last move's in-port, or
    a ball that is not the ground ball at the replayed vertex up to a
    relabelling of its non-center ids (``Ball.matches``). The returned
    problems, each prefixed with the phase it arose in (a walk off the map
    or the ground graph, or the later sense of a vertex), are filed there
    too, under that phase and without the prefix.
    """
    senses, problems = _sense_log(trace, g, sense_problems)
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
    if sense_problems is not None:
        for phase, p in problems:
            sense_problems.setdefault(phase, []).append(p)
    return first, [f"phase {phase}: {p}" for phase, p in problems]


def replay_senses(trace, g):
    """One replay of the sense events for every check that needs it:
    (first, problems, sense_problems) as first_sensed_map gives them with
    every sense event compared with the ground truth; sense_problems holds
    every problem, by phase."""
    sense_problems = {}
    first, problems = first_sensed_map(trace, g, sense_problems)
    return first, problems, sense_problems


def _phi_for_snapshot(snap, first, g, problems, phase):
    """Reconstruct the map-to-ground correspondence for the map ``snap``
    after ``phase``.

    The explored vertices, those first sensed in ``phase`` or before, map to
    where they were first sensed; a frontier vertex follows its
    lexicographically smallest vertical edge (explored endpoint, port) for
    definiteness. Path independence is then checked, not assumed, by the
    per-edge homomorphism sweep in the caller.
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


class _PhaseChecker:
    """The phase invariants of a map that grows by deltas, re-checked only
    where a delta can change them.

    Deltas only add vertices and edges, and a phase only makes the vertices
    first sensed in it explored, so the inputs of a check change only
    around the dirty set D: new vertices, endpoints of new edges, vertices
    explored or whose phi changed in the phase. Frontier phi is recomputed
    next to the first three; edge checks are redone at the edges touching D
    and vertex checks (injectivity, surjectivity, triangles) at D and its
    neighbours. Every phase reports all problems recorded so far, in the
    order a check of the whole map gives: edges in sorted order, then
    vertices ascending.
    """

    def __init__(self, g, first):
        self.g = g
        self.first = first
        self.sensed_in = {}  # phase -> the vertices first sensed in it
        for v, (phase, _u) in first.items():
            self.sensed_in.setdefault(phase, []).append(v)
        self.explored = set()
        self.n = 0
        self.nbrs = []  # vertex -> {neighbour: smallest edge joining them}
        self.edges_at = []  # vertex -> incident edges
        self.edge_count = {}  # edge -> occurrences in the map
        self.phi = {}  # vertex -> ground vertex, where defined
        self.phi_fail = {}  # frontier vertex -> why its phi is undefined
        self.edge_bad = {}  # edge -> problem
        self.vertex_bad = {}  # vertex -> problems
        self.stale = set()  # dirty vertices left unchecked while phi was partial

    def apply(self, phase, delta):
        """Fold in one phase: its delta, and the vertices first sensed in it
        become explored. Returns every problem of the map so far."""
        dirty = set(range(self.n, delta["n"]))
        for _ in range(self.n, delta["n"]):
            self.nbrs.append({})
            self.edges_at.append([])
        self.n = delta["n"]
        for e in delta["edges"]:
            a, b, pa, pb = e
            self.edge_count[e] = self.edge_count.get(e, 0) + 1
            for x, y in ((a, b), (b, a)):
                self.nbrs[x][y] = min(self.nbrs[x].get(y, e), e)
            self.edges_at[a].append(e)
            if b != a:
                self.edges_at[b].append(e)
            dirty.update((a, b))
        newly = self.sensed_in.get(phase, ())
        self.explored.update(newly)
        dirty.update(newly)
        for v in self._with_neighbours(dirty):
            if self._update_phi(v):
                dirty.add(v)
        partial = self.phi_problem()
        if partial is not None:
            self.stale |= dirty
            return [partial]
        dirty |= self.stale
        self.stale = set()
        for e in {e for v in dirty for e in self.edges_at[v]}:
            self._check_edge(e)
        for v in self._with_neighbours(dirty):
            found = self._vertex_problems(v)
            if found:
                self.vertex_bad[v] = found
            else:
                self.vertex_bad.pop(v, None)
        problems = []
        for e in sorted(self.edge_bad):
            problems += [self.edge_bad[e]] * self.edge_count[e]
        for v in sorted(self.vertex_bad):
            problems += self.vertex_bad[v]
        return problems

    def edges(self):
        return [e for e in sorted(self.edge_count) for _ in range(self.edge_count[e])]

    def _with_neighbours(self, vertices):
        out = set(vertices)
        for v in vertices:
            out.update(self.nbrs[v])
        return out

    def _update_phi(self, v):
        """Recompute phi at v the way _phi_for_snapshot does; True if the
        value changed."""
        old = self.phi.pop(v, None)
        self.phi_fail.pop(v, None)
        explored = self.explored
        if v in explored:
            self.phi[v] = self.first[v][1]
            return self.phi[v] != old
        incident = []
        for (a, b, pa, pb) in self.edges_at[v]:
            if b == v and a != v and a in explored:
                incident.append((a, pa))
            elif a == v and b != v and b in explored:
                incident.append((b, pb))
        if not incident:
            self.phi_fail[v] = f"frontier vertex {v} has no explored neighbour"
            return old is not None
        m, p = min(incident)
        u = self.first[m][1]
        step = self.g.step(u, p)
        if step is None:
            self.phi_fail[v] = f"frontier vertex {v}: ground has no port {p} at {u}"
            return old is not None
        self.phi[v] = step[0]
        return step[0] != old

    def phi_problem(self):
        """The problem that leaves phi partial, or None when phi is total."""
        return self.phi_fail[min(self.phi_fail)] if self.phi_fail else None

    def _check_edge(self, e):
        a, b, pa, pb = e
        phi = self.phi
        got = self.g.step(phi[a], pa)
        if got != (phi[b], pb):
            self.edge_bad[e] = (
                f"edge {a}-{b} ({pa},{pb}) maps to {phi[a]}->{got}, "
                f"expected ({phi[b]},{pb})"
            )
        else:
            self.edge_bad.pop(e, None)

    def _vertex_problems(self, n):
        g, phi, nbrs = self.g, self.phi, self.nbrs
        problems = []
        images = {}
        for m in sorted(nbrs[n], key=nbrs[n].__getitem__):
            fm = phi[m]
            if fm in images:
                problems.append(
                    f"local injectivity at {n}: neighbours {images[fm]} and {m} "
                    f"both map to ground {fm}"
                )
            images[fm] = m
        if n not in self.explored:
            return problems
        fn = phi[n]
        if len(images) != g.degree(fn) or not all(g.has_edge(fn, x) for x in images):
            missing = sorted(set(g.neighbors(fn)) - set(images))
            problems.append(
                f"local surjectivity at explored {n}: ground neighbours "
                f"{missing} of {fn} not represented"
            )
            return problems
        # With every edge mapped and phi a bijection from n's neighbours
        # onto fn's, each map pair (a, b) maps to a ground edge: the pairs
        # agree iff both sides have as many edges among the neighbours.
        if not self.edge_bad and not problems and (
            horizontal_count(nbrs, n) == g.horizontal_count(fn)
        ):
            return problems
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


def verify_phase_invariants(trace, g, sensed=None):
    """Per-phase map correctness: the replay of the phase's moves and sense
    events must hold and every sense event match the ground truth
    (first_sensed_map); after each phase_end, reconstruct the
    correspondence and check homomorphism + port preservation, local
    injectivity everywhere, local surjectivity and triangle preservation at
    explored vertices; phase 1 additionally must equal the homebase ball.
    A phase that never ended is reported last, if its replay failed. One
    pass over the deltas (see _PhaseChecker); ``sensed`` is
    replay_senses(trace, g) when the caller has it already."""
    first, _problems, sense_problems = sensed or replay_senses(trace, g)
    results = []
    root = trace.header()["root"]
    checker = _PhaseChecker(g, first)
    for (phase, delta) in trace.snapshots():
        problems = list(sense_problems.get(phase, ()))
        problems.extend(checker.apply(phase, delta))
        if phase == 1 and checker.phi_problem() is None:
            pg = PortNumberedGraph(checker.n, checker.edges())
            if ball(pg, 0).signature() != ball(g, root).signature():
                problems.append("phase 1 map is not the ball around the homebase")
        results.append((phase, CheckResult(not problems, problems)))
    ended = {phase for phase, _r in results}
    for phase in sorted(sense_problems.keys() - ended):
        results.append((phase, CheckResult(False, list(sense_problems[phase]))))
    return results


def reconstruct_final_phi(trace, g, sensed=None):
    """phi for the final map (total on a halted run), as a list; ``sensed``
    is replay_senses(trace, g) when the caller has it already."""
    first, problems = sensed[:2] if sensed else first_sensed_map(trace, g)
    problems = list(problems)
    snap = trace.final_map()
    if snap is None:
        return None, ["trace has no phase snapshots"]
    phi = _phi_for_snapshot(snap, first, g, problems, trace.snapshots()[-1][0])
    if phi is None or problems:
        return None, problems
    return [phi[n] for n in range(snap["n"])], []


def rooted_embedding(sub, big, sub_root, big_root):
    """Forced port-preserving embedding of ``sub`` into ``big`` from the
    given roots; used to check that a cut-off map is a prefix of a cover."""
    problems = []
    _forced_image(_as_port_graph(sub), big, sub_root, big_root, problems)
    return CheckResult(not problems, problems)
