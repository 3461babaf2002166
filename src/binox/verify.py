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

from .graph import PortCollisionError, PortNumberedGraph, ball
from .runtime import TraceFormatError


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
    set: returns its concrete mismatches, [] when it is."""
    problems = []
    if pg.n != g.n:
        problems.append(f"vertex count: map has {pg.n}, graph has {g.n}")
    image = _forced_image(pg, g, 0, v0, problems)
    for n, u in image.items():
        if pg.degree(n) != g.degree(u):
            problems.append(f"port set at map vertex {n}: {pg.ports(n)} vs {g.ports(u)} at {u}")
    if not problems and len(image) != g.n:
        problems.append(f"ground vertices unreached: {g.n - len(image)}")
    return problems


class TraceReplay:
    """The checker's one pass over a trace's events, against the ground
    graph. The events are any iterable that starts with the header
    (``RunTrace.events``, or ``runtime.read_events`` of a file), read once;
    ``header`` and ``last`` keep its first and last event; a header root that
    is not a vertex of the ground raises TraceFormatError. A move is walked
    over the map folded from the deltas so far (phase i moves only use
    edges in the map at the end of phase i-1) and over the ground, its in-port compared with the ground's; a sense is
    compared with the ground truth and the first sense of each map vertex
    recorded in ``first`` (vertex -> (phase, ground vertex)); a phase_end
    folds in its delta and, if the phase has problems, adds (phase, problems) to
    ``failed``, as does, at the end, a phase that never ended but has a
    problem. Once the map walk stops, the ground walk goes on alone for
    ``coverage``.

    The explored map vertices are the keys of ``first``: the checks read
    them only while a phase_end is folded in, when all are explored.

    The deltas grow ``map`` through ``add_vertex`` and ``add_edge``, as the
    explorer grows its own. A delta edge that does not fit (a self edge, a
    taken port, a second edge between two vertices, or an edge already in
    the map: the explorer logs none of them) is left out of the map and
    filed once in ``refused``.

    Deltas only add vertices and edges, so a phase re-checks only what it
    changed. Let T be its new vertices, the ends of its added edges and the
    vertices it explored (X), and C the vertices whose phi changed. phi is
    recomputed at T and at the frontier neighbours of X (an explored vertex
    keeps its first sense); the edge checks run on the added edges and the
    edges at C; the vertex checks (injectivity, surjectivity, triangles) at
    T, C, the neighbours of C and the third corner of each triangle an added
    edge closes. While phi is partial nothing is checked and T and C wait
    in ``stale``; once it is total again, their edges, they and their
    neighbours are checked. Every phase reports all problems so far in the
    order a check of the whole map gives: the refused delta edges, the
    edges in sorted order, then the vertices ascending.
    """

    def __init__(self, events, g):
        self.g = g
        self.first = {}
        self.map = PortNumberedGraph(0, [])
        self.refused = []  # the problem of each delta edge left out of the map
        self.phi = {}  # vertex -> ground vertex, where defined
        self.phi_fail = {}  # frontier vertex -> why its phi is undefined
        self.edge_bad = {}  # edge -> problem
        self.vertex_bad = {}  # vertex -> problems
        self.stale = set()  # vertices touched or with a new phi while phi was partial
        self.mismatched = {}  # phase -> its move and sense events that differ from the ground
        self.resensed = {}  # phase -> its senses of a vertex sensed before
        self.walk_problem = None  # (phase, where the walk left the map or the ground)
        self.visited = set()  # the ground vertices the ground walk reached
        self.ground_problems = []  # the ground walk's in-port disagreements and break
        self.ended = 0  # the last phase whose phase_end was folded in (phases end in order)
        self.failed = []  # (phase, problems) of each phase that has problems
        self._replay(iter(events))

    def _replay(self, events):
        g, m, first, visited = self.g, self.map, self.first, self.visited
        ev = self.header = next(events)
        root = ground = ev["root"]
        if not 0 <= root < g.n:
            raise TraceFormatError(f"root {root} out of range for n={g.n} "
                                   f"(trace recorded on another graph?)")
        visited.add(root)
        pos = 0  # the agent's map vertex
        arrival = None  # the in-port of the last move
        walking = True  # until the walk leaves the map or the ground graph
        moves = 0
        phase = 0
        newly = []  # the vertices first sensed in this phase
        for ev in events:
            kind = ev["kind"]
            if kind == "move":
                if ground is None:  # the ground walk broke
                    continue
                out = ev["out"]
                moves += 1
                step = g.step(ground, out)
                if walking:
                    e = m.step(pos, out) if pos < m.n else None
                    if e is None or step is None:
                        walking = False
                        self.walk_problem = (phase, (
                            f"trace walks port {out} at map vertex {pos} which is not in the map"
                            if e is None else f"ground walk broke at {ground}"
                        ))
                    else:
                        pos = e[0]
                if step is None:
                    self.ground_problems.append(f"move {moves}: no port {out} at ground {ground}")
                    ground = None
                    continue
                ground, in_port = step
                visited.add(ground)
                arrival = ev["in"]
                if in_port != arrival:
                    problem = f"move {moves}: arrived on port {in_port}, trace says {arrival}"
                    self.ground_problems.append(problem)
                    if walking:
                        self.mismatched.setdefault(phase, []).append(problem)
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
                    if not ball(m, 0).matches(g, root):
                        problems.append("phase 1 map is not the ball around the homebase")
                if problems:
                    self.failed.append((ended, problems))
                self.ended = ended
        self.last = ev
        problems = self._sense_problems(phase)  # the last phase, if it never ended
        if problems and phase != self.ended:
            self.failed.append((phase, problems))

    def _sense_problems(self, phase):
        """The replay's problems in ``phase``: its moves and senses that
        differ from the ground, where the walk stopped, its vertices sensed
        again."""
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
        sensed in it, explored from now on. Returns every problem of the map
        so far."""
        m, first, nbrs = self.map, self.first, self.map._nbrs
        touched = set(newly)  # newly, the new vertices, the ends of added edges
        for _ in range(m.n, delta["n"]):
            touched.add(m.add_vertex())
        edges = set()  # the delta edges added, then the edges to check
        corners = set()  # the third corners of the triangles they close
        for (a, b, pa, pb) in delta["edges"]:
            try:
                closed = m.add_edge(a, pa, b, pb)
                why = "already in the map" if closed is False else None
            except PortCollisionError as e:
                why = str(e)
            if why is None:
                touched.add(a)
                touched.add(b)
                edges.add((a, b, pa, pb) if a < b else (b, a, pb, pa))
                corners |= closed
            else:
                self.refused.append(f"delta edge {a}-{b} ({pa},{pb}) refused: {why}")
        recompute = touched.copy()
        for x in newly:
            recompute.update(w for w in nbrs[x] if w not in first)
        phi, changed = self.phi, []
        for v in recompute:  # an explored vertex maps to its first sense
            seen = first.get(v)
            if seen is None:
                if self._update_phi(v):
                    changed.append(v)
            elif phi.get(v) != seen[1]:
                self.phi_fail.pop(v, None)
                phi[v] = seen[1]
                changed.append(v)
        stale = self.stale
        if self.phi_fail:
            stale |= touched
            stale.update(changed)
            return self.refused + [self.phi_problem()]
        check = touched | corners
        check.update(changed)
        if stale:  # caught up as if their phi changed: their edges, they, their neighbours
            changed += stale
            check |= stale
            self.stale = set()
        for v in changed:
            check.update(nbrs[v])
            edges.update((v, w, pv, pw) if v < w else (w, v, pw, pv)
                         for w, (pv, pw) in nbrs[v].items())
        ports, edge_bad = self.g._ports, self.edge_bad
        for e in edges:
            a, b, pa, pb = e
            got = ports[phi[a]].get(pa)
            if got != (phi[b], pb):
                edge_bad[e] = (
                    f"edge {a}-{b} ({pa},{pb}) maps to {phi[a]}->{got}, "
                    f"expected ({phi[b]},{pb})"
                )
            else:
                edge_bad.pop(e, None)
        vertex_bad = self.vertex_bad
        for v in check:
            found = self._vertex_problems(v)
            if found:
                vertex_bad[v] = found
            else:
                vertex_bad.pop(v, None)
        problems = self.refused[:]
        if edge_bad or vertex_bad:
            problems += [edge_bad[e] for e in sorted(edge_bad)]
            for v in sorted(vertex_bad):
                problems += vertex_bad[v]
        return problems

    def graph(self):
        """The map after the last phase_end, its edges sorted."""
        self.map.edges.sort()
        return self.map

    def final_phi(self):
        """phi for the final map (total on a halted run), as a list, and [];
        or None and the problems that leave it undefined."""
        if not self.ended:
            return None, ["trace has no phase snapshots"]
        problems = self.replay_problems()
        partial = self.phi_problem()
        if partial is not None:
            problems.append(partial)
        if problems:
            return None, problems
        return [self.phi[v] for v in range(self.map.n)], []

    def coverage(self):
        """The ground walk of every move visits every ground vertex, with
        the in-port the trace says: its disagreements, where it broke, then
        the vertices it never reached."""
        problems = list(self.ground_problems)
        unvisited = [v for v in range(self.g.n) if v not in self.visited]
        if unvisited:
            problems.append(f"unvisited ground vertices: {unvisited}")
        return problems

    def _update_phi(self, v):
        """Recompute phi at the frontier vertex v; True if it changed. It
        maps along its smallest vertical edge (explored end, port); the edge
        checks test path independence."""
        old = self.phi.pop(v, None)
        self.phi_fail.pop(v, None)
        first = self.first
        incident = [(w, pw) for w, (_pv, pw) in self.map._nbrs[v].items() if w in first]
        if not incident:
            self.phi_fail[v] = f"frontier vertex {v} has no explored neighbour"
            return old is not None
        m, p = min(incident)
        u = first[m][1]
        step = self.g.step(u, p)
        if step is None:
            self.phi_fail[v] = f"frontier vertex {v}: ground has no port {p} at {u}"
            return old is not None
        self.phi[v] = step[0]
        return step[0] != old

    def phi_problem(self):
        """The problem that leaves phi partial, or None when phi is total."""
        return self.phi_fail[min(self.phi_fail)] if self.phi_fail else None

    def _vertex_problems(self, n):
        """n's problems: local injectivity, and at an explored n local
        surjectivity and triangle preservation. One set of the neighbours'
        images tests the first two; their texts are built only for a bad
        vertex."""
        g, phi, nbrs = self.g, self.phi, self.map._nbrs
        images = set(map(phi.__getitem__, nbrs[n]))
        problems = [] if len(images) == len(nbrs[n]) else self._injectivity_problems(n)
        if n not in self.first:
            return problems
        fn = phi[n]
        around = g._nbrs[fn].keys()
        if images != around:
            problems.append(
                f"local surjectivity at explored {n}: ground neighbours "
                f"{sorted(around - images)} of {fn} not represented"
            )
            return problems
        # With every edge mapped and phi a bijection from n's neighbours
        # onto fn's, each map pair (a, b) maps to a ground edge: the pairs
        # agree iff both sides have as many edges among the neighbours.
        if not self.edge_bad and not problems and (
            self.map.horizontal_count(n) == g.horizontal_count(fn)
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

    def _injectivity_problems(self, n):
        """Each neighbour of n whose image an earlier one (by id) has."""
        phi = self.phi
        problems = []
        images = {}
        for m in sorted(self.map._nbrs[n]):
            fm = phi[m]
            if fm in images:
                problems.append(
                    f"local injectivity at {n}: neighbours {images[fm]} and {m} "
                    f"both map to ground {fm}"
                )
            images[fm] = m
        return problems
