"""Ground-truth verification of exploration runs.

Everything here sits on the harness side of the anonymity firewall: it knows
the hidden graph and replays the trace against it, once (TraceReplay). The
map-to-ground correspondence is reconstructed from the trace alone (a map
vertex is explored from the end of the phase it was first sensed in and maps
to the ground vertex of that sense; frontier vertices follow one vertical
edge label), then checked to be a locally injective, locally surjective (at
explored vertices), port-preserving homomorphism phase by phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import PortNumberedGraph, ball, ball_signature, count_new_pair  # noqa: F401
# ``ball`` stays importable here: the benchmark's tracer (perfbench/tracer.py)
# patches ``graph.ball`` at every module that imports it by name.


@dataclass
class CheckResult:
    ok: bool
    problems: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


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


def verify_rooted_isomorphism(pg, g, v0):
    """The forced traversal of the map ``pg`` (a PortNumberedGraph) from its
    homebase 0 and of g from v0 must be a bijection that keeps every port
    set: either it is, or a concrete mismatch is reported."""
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


class TraceReplay:
    """The checker's one pass over a trace's events, against the ground
    graph. A move is walked over the map folded from the deltas so far
    (phase i moves only use edges in the map at the end of phase i-1) and
    over the ground; a sense is compared with the ground truth and the
    first sense of each map vertex recorded in ``first`` (vertex -> (phase,
    ground vertex)); a phase_end folds in its delta, makes the vertices
    first sensed in the phase explored and adds (phase, CheckResult) to
    ``results``, as does, at the end, a phase that never ended but has a
    problem.

    Deltas only add vertices and edges, so a check's inputs change only
    around the dirty set D: new vertices, endpoints of new edges, vertices
    explored or whose phi changed in the phase. Frontier phi is recomputed
    next to the first three, edge checks at the edges touching D, vertex
    checks (injectivity, surjectivity, triangles) at D and its neighbours.
    Every phase reports all problems so far in the order a check of the
    whole map gives: edges in sorted order, then vertices ascending.
    Each vertex's horizontal count is kept as the edges arrive (a self-loop
    or a second edge between two neighbours adds none).
    """

    def __init__(self, trace, g):
        self.g = g
        self.first = {}
        self.explored = set()
        self.n = 0
        self.ports = []  # vertex -> {port: the edge on it}
        self.nbrs = []  # vertex -> {neighbour: smallest edge joining them}
        self.horizontal_counts = []  # vertex -> edges among its other neighbours
        self.edges_at = []  # vertex -> incident edges
        self.edge_count = {}  # edge -> occurrences in the map
        self.phi = {}  # vertex -> ground vertex, where defined
        self.phi_fail = {}  # frontier vertex -> why its phi is undefined
        self.edge_bad = {}  # edge -> problem
        self.vertex_bad = {}  # vertex -> problems
        self.stale = set()  # dirty vertices left unchecked while phi was partial
        self.mismatched = {}  # phase -> its sense events that differ from the ground
        self.resensed = {}  # phase -> its senses of a vertex sensed before
        self.walk_problem = None  # (phase, where the walk left the map or the ground)
        self.ended = set()  # the phases whose phase_end was folded in
        self.results = []
        self._replay(trace)

    def _replay(self, trace):
        g, ports, first = self.g, self.ports, self.first
        root = ground = trace.header()["root"]
        pos = 0  # the agent's map vertex
        arrival = None  # the in-port of the last move
        walking = True  # until the walk leaves the map or the ground graph
        phase = 0
        newly = []  # the vertices first sensed in this phase
        for ev in trace.events:
            kind = ev["kind"]
            if kind == "move":
                if not walking:
                    continue
                out = ev["out"]
                e = ports[pos].get(out) if pos < len(ports) else None
                step = g.step(ground, out)
                if e is None or step is None:
                    walking = False
                    self.walk_problem = (phase, (
                        f"trace walks port {out} at map vertex {pos} which is not in the map"
                        if e is None else f"ground walk broke at {ground}"
                    ))
                    continue
                pos = e[1] if e[0] == pos else e[0]
                ground = step[0]
                arrival = ev["in"]
            elif kind == "sense":
                if not walking:
                    continue
                found = []
                if ev["arrival"] != arrival:
                    found.append(f"arrival port {ev['arrival']}, but the last move came in on {arrival}")
                if not ev["ball"].matches(g, ground):
                    found.append("the ball is not the ground ball")
                if found:
                    self.mismatched.setdefault(phase, []).extend(
                        f"sense at map vertex {pos} (ground {ground}): {p}" for p in found)
                seen = first.get(pos)
                if seen is None:
                    first[pos] = (phase, ground)
                    newly.append(pos)
                elif seen[0] != phase:
                    self.resensed.setdefault(phase, []).append(
                        f"map vertex {pos} sensed in phases {seen[0]} and {phase}")
                elif seen[1] != ground:
                    self.resensed.setdefault(phase, []).append(
                        f"map vertex {pos} sensed at ground {seen[1]} and {ground}")
            elif kind == "phase_start":
                phase = ev["phase"]
            elif kind == "phase_end":
                ended = ev["phase"]
                problems = self._sense_problems(ended)
                problems += self.apply(ev["delta"], newly)
                newly = []
                if ended == 1 and self.phi_problem() is None:
                    pg = PortNumberedGraph(self.n, self.edges())
                    if ball_signature(pg, 0) != ball_signature(g, root):
                        problems.append("phase 1 map is not the ball around the homebase")
                self.results.append((ended, CheckResult(not problems, problems)))
                self.ended.add(ended)
        problems = self._sense_problems(phase)  # the last phase, if it never ended
        if problems and phase not in self.ended:
            self.results.append((phase, CheckResult(False, problems)))

    def _sense_problems(self, phase):
        """The replay's problems in ``phase``: its senses that differ from
        the ground, where the walk stopped, its vertices sensed again."""
        walk = self.walk_problem
        stopped = [walk[1]] if walk and walk[0] == phase else []
        return self.mismatched.get(phase, []) + stopped + self.resensed.get(phase, [])

    def replay_problems(self):
        """Where the walk stopped, then each vertex sensed again in a later
        phase or at another ground vertex, prefixed with the phase."""
        filed = [self.walk_problem] if self.walk_problem else []
        filed += [(phase, p) for phase, found in self.resensed.items() for p in found]
        return [f"phase {phase}: {p}" for phase, p in filed]

    def apply(self, delta, newly):
        """Fold in one phase: its delta, and the vertices ``newly`` first
        sensed in it become explored. Returns every problem of the map so
        far."""
        n = delta["n"]
        dirty = set(range(self.n, n))
        for _ in range(self.n, n):
            self.ports.append({})
            self.nbrs.append({})
            self.horizontal_counts.append(0)
            self.edges_at.append([])
        self.n = n
        ports, nbrs, edges_at, edge_count = self.ports, self.nbrs, self.edges_at, self.edge_count
        for e in delta["edges"]:
            a, b, pa, pb = e
            edge_count[e] = edge_count.get(e, 0) + 1
            if a != b and b not in nbrs[a]:
                count_new_pair(nbrs, self.horizontal_counts, a, b)
            # A port held by two edges (only in a corrupt trace) leads the
            # walk along the edge that sorts last, as writing the whole map
            # in sorted edge order would; the checks join two vertices by
            # their smallest edge.
            if ports[a].get(pa, e) <= e:
                ports[a][pa] = e
            if ports[b].get(pb, e) <= e:
                ports[b][pb] = e
            if nbrs[a].get(b, e) >= e:
                nbrs[a][b] = e
            if nbrs[b].get(a, e) >= e:
                nbrs[b][a] = e
            edges_at[a].append(e)
            if b != a:
                edges_at[b].append(e)
            dirty.add(a)
            dirty.add(b)
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
        for e in {e for v in dirty for e in edges_at[v]}:
            self._check_edge(e)
        for v in self._with_neighbours(dirty):
            found = self._vertex_problems(v)
            if found:
                self.vertex_bad[v] = found
            else:
                self.vertex_bad.pop(v, None)
        problems = []
        for e in sorted(self.edge_bad):
            problems += [self.edge_bad[e]] * edge_count[e]
        for v in sorted(self.vertex_bad):
            problems += self.vertex_bad[v]
        return problems

    def edges(self):
        return [e for e in sorted(self.edge_count) for _ in range(self.edge_count[e])]

    def graph(self):
        """The map after the last phase_end, or None when no phase ended;
        its horizontal counts are the ones kept here (it drops self-loops
        and keeps one edge per pair, which no kept count includes)."""
        if not self.ended:
            return None
        pg = PortNumberedGraph(self.n, self.edges())
        pg._horizontal_counts = list(self.horizontal_counts)
        return pg

    def final_phi(self):
        """See reconstruct_final_phi."""
        if not self.ended:
            return None, ["trace has no phase snapshots"]
        problems = self.replay_problems()
        partial = self.phi_problem()
        if partial is not None:
            problems.append(partial)
        if problems:
            return None, problems
        return [self.phi[v] for v in range(self.n)], []

    def _with_neighbours(self, vertices):
        out = set(vertices)
        for v in vertices:
            out.update(self.nbrs[v])
        return out

    def _update_phi(self, v):
        """Recompute phi at v; True if it changed. An explored vertex maps to
        its first sense, a frontier vertex along its smallest vertical edge
        (explored end, port); the edge checks test path independence."""
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
        # With no bad edge the map is simple, so the kept count is exact.
        if not self.edge_bad and not problems and (
            self.horizontal_counts[n] == g.horizontal_count(fn)
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


def verify_phase_invariants(trace, g):
    """Per phase: the replay of its moves and senses holds, every sense
    matches the ground truth, and the map after its phase_end is a port-
    preserving homomorphism, locally injective, locally surjective and
    triangle-preserving at explored vertices (phase 1: the homebase ball).
    A phase that never ended comes last, if its replay failed."""
    return TraceReplay(trace, g).results


def first_sensed_map(trace, g):
    """map vertex -> (phase, ground vertex) of its first sense, which makes
    it explored from the end of that phase (other map vertices are
    frontier), and the replay's problems (TraceReplay.replay_problems)."""
    replay = TraceReplay(trace, g)
    return replay.first, replay.replay_problems()


def reconstruct_final_phi(trace, g):
    """phi for the final map (total on a halted run), as a list, and [];
    or None and the problems that leave it undefined."""
    return TraceReplay(trace, g).final_phi()
