"""Agent runtime: executes an algorithm against a hidden ground-truth graph.

The environment is the anonymity firewall: the algorithm only ever receives
Observations (a freshly relabelled radius-1 ball plus the in-port of its last
move) and may request moves by out-port. Ground-truth vertex ids never cross
this boundary. Every move and every observation is logged to a replayable
trace, which is what the verification harness consumes afterwards.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .graph import Ball, ball

TRACE_VERSION = 3

# Writes every trace line: keys sorted, no spaces, no cycle check (events
# are trees of plain values).
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


class TraceFormatError(ValueError):
    """A trace file cannot be read: no header, another format version, a
    line that is not a JSON object, an event that lacks a field of its
    kind or holds it with the wrong type or a value out of range, or an
    event out of order (see ``_EventOrder``)."""


class NoSuchPortError(RuntimeError):
    """The algorithm asked for a port that does not exist here (a bug)."""


class BudgetExhaustedError(RuntimeError):
    """The move budget ran out; the run ends with status budget_exhausted."""


class ExplorationError(RuntimeError):
    """The algorithm declared its map inconsistent.

    Stands in for "continue forever": a run that would never halt correctly
    is recorded as error_detected and stopped, keeping simulations finite
    while staying distinguishable from a successful halt.
    """


@dataclass
class Observation:
    """What the agent sees at its current location."""

    ball: Ball
    arrival_port: int | None


class RunTrace:
    """Ordered event log of one run; replayable against the ground truth.

    Each ``phase_end`` event carries the phase's delta: ``n`` (vertex count
    after the phase), ``edges`` (the edges inserted in the phase, sorted
    tuples), ``cir`` and ``vis`` (the cluster ids and explored-in values set
    in the phase). The first delta holds the whole phase-1 map; ``final_map``
    folds them all. A ``sense`` event's ball is written as a flat edge list
    (``Ball.to_json_dict``).
    """

    def __init__(self):
        self.events = []

    def log(self, kind, **payload):
        ev = {"kind": kind}
        ev.update(payload)
        self.events.append(ev)

    def log_phase_start(self, phase):
        self.log("phase_start", phase=phase)

    def log_phase_end(self, phase, delta):
        self.log("phase_end", phase=phase, delta=delta)

    def moves(self):
        return [e for e in self.events if e["kind"] == "move"]

    def snapshots(self):
        """(phase, delta) of every phase_end, in order."""
        return [(e["phase"], e["delta"]) for e in self.events if e["kind"] == "phase_end"]

    def final_map(self):
        """The map after the last phase_end, in ExplorationMap.snapshot()
        form, or None when no phase ended."""
        deltas = [d for _phase, d in self.snapshots()]
        if not deltas:
            return None
        edges, cir, vis = [], {}, {}
        for d in deltas:
            edges.extend(d["edges"])
            cir.update(d["cir"])
            vis.update(d["vis"])
        return {
            "n": deltas[-1]["n"],
            "edges": [list(e) for e in sorted(edges)],
            "cir": cir,
            "vis": vis,
            "homebase": 0,
        }

    def header(self):
        return self.events[0]

    def to_jsonl(self):
        lines = []
        for ev in self.events:
            b = ev.get("ball")
            if isinstance(b, Ball):
                ev = dict(ev, ball=b.to_json_dict())
            lines.append(_ENCODE(ev))
        return "\n".join(lines) + "\n"

    def save(self, path):
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text):
        """Parse a trace; raises TraceFormatError unless the first event is
        a header of this TRACE_VERSION, every line is a JSON object with
        the fields of its kind (EVENT_FIELDS, NESTED_FIELDS) and valid
        values, and the events come in order (_EventOrder)."""
        trace = cls()
        map_n = 0
        order = _EventOrder()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                raise TraceFormatError(f"line {lineno}: not JSON: {e}") from e
            if not isinstance(ev, dict):
                raise TraceFormatError(f"line {lineno}: expected a JSON object")
            if not trace.events:
                _check_header(ev)
            kind = ev.get("kind")
            fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise TraceFormatError(f"line {lineno}: field 'kind': unknown event kind {kind!r}")
            _check_fields(lineno, kind, ev, fields)
            if kind in NESTED_FIELDS:
                name, nested = NESTED_FIELDS[kind]
                _check_fields(lineno, kind, ev[name], nested, name + ".")
            try:
                if kind == "sense":
                    ev["ball"] = Ball.from_json_dict(ev["ball"])
                elif kind == "phase_end":
                    ev["delta"] = _parse_delta(ev["delta"], map_n)
                    map_n = ev["delta"]["n"]
            except (TypeError, ValueError) as e:
                raise TraceFormatError(f"line {lineno}: malformed {kind} event: {e}") from e
            misplaced = order.advance(kind, ev)
            if misplaced:
                raise TraceFormatError(f"line {lineno}: {misplaced}")
            trace.events.append(ev)
        if not trace.events:
            raise TraceFormatError("empty trace: missing header")
        return trace

    @classmethod
    def load(cls, path):
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as e:
            raise TraceFormatError(f"{path}: not a text file: {e}") from e
        return cls.from_jsonl(text)


def _check_header(ev):
    if ev.get("kind") != "header":
        raise TraceFormatError(f"missing header: first event is {ev.get('kind')!r}")
    version = ev.get("version")
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"trace format version {version!r}, expected {TRACE_VERSION}: "
            f"v{version} trace, re-run explore"
        )


class _EventOrder:
    """The order of a trace's events: the header, then phases 1, 2, ...,
    each a phase_start and a phase_end with the sense and move events in
    between, and at most one terminal event, which is the last event:
    budget_exhausted or error_detected may end the open phase, halt comes
    only after a phase_end. O(1) per event."""

    TERMINAL = frozenset({"budget_exhausted", "error_detected", "halt"})

    def __init__(self):
        self.seen_header = False
        self.open = None  # the phase started and not yet ended
        self.last = 0  # the last phase ended
        self.ended = None  # the terminal event's kind, once seen

    def advance(self, kind, ev):
        """Why ``ev`` cannot come next, or None after taking it in."""
        if self.ended is not None:
            if kind in self.TERMINAL:
                return f"second terminal event: {kind} after {self.ended}"
            return f"{kind} event after the terminal {self.ended} event"
        if kind == "header":
            if self.seen_header:
                return "second header"
            self.seen_header = True
        elif kind == "phase_start":
            if self.open is not None:
                return f"phase_start {ev['phase']} while phase {self.open} is open"
            if ev["phase"] != self.last + 1:
                return f"phase_start {ev['phase']} does not follow phase {self.last}"
            self.open = ev["phase"]
        elif kind == "phase_end":
            if ev["phase"] != self.open:
                opened = "no phase is open" if self.open is None else f"phase {self.open} is open"
                return f"phase_end {ev['phase']} does not close the open phase ({opened})"
            self.last, self.open = self.open, None
        elif kind in self.TERMINAL:
            if kind == "halt" and self.open is not None:
                return f"halt while phase {self.open} is open"
            self.ended = kind
        elif self.open is None:
            return f"{kind} event outside a phase"
        return None


_INT = (int,)

# The fields every event kind must carry and the types each may hold, as
# ``type(value)`` (so a JSON true is not an int).
EVENT_FIELDS = {
    "header": (("version", _INT), ("root", _INT), ("budget", _INT)),
    "phase_start": (("phase", _INT),),
    "phase_end": (("phase", _INT), ("delta", (dict,))),
    "sense": (("arrival", (int, type(None))), ("ball", (dict,))),
    "move": (("out", _INT), ("in", _INT)),
    "budget_exhausted": (),
    "error_detected": (("reason", (str,)),),
    "halt": (),
}
# The fields of the object a sense or phase_end event carries.
NESTED_FIELDS = {
    "sense": ("ball", (("size", _INT), ("edges", (list,)))),
    "phase_end": ("delta", (("n", _INT), ("edges", (list,)), ("cir", (dict,)), ("vis", (dict,)))),
}


_MISSING = object()  # its type is in no field's types


def _check_fields(lineno, kind, obj, fields, prefix=""):
    for name, types in fields:
        value = obj.get(name, _MISSING)
        if type(value) not in types:
            if value is _MISSING:
                raise TraceFormatError(f"line {lineno}: {kind} event lacks field {prefix + name!r}")
            raise TraceFormatError(
                f"line {lineno}: {kind} event field {prefix + name!r} is "
                f"{type(value).__name__}, expected {' or '.join(t.__name__ for t in types)}"
            )


def _parse_delta(delta, map_n):
    """The delta with int vertex keys and tuple edges; ValueError unless
    ``n`` is at least ``map_n`` (the vertex count after the previous
    delta), every edge is four integers with both ends among the ``n``
    vertices, every cir and vis key one of those vertices, every cir value
    an int and every vis value an int or None."""
    n = delta["n"]
    if n < map_n:
        raise ValueError(f"n={n} is below the {map_n} vertices of the map so far")
    out = dict(delta)
    out["cir"] = {int(k): v for k, v in delta["cir"].items()}
    out["vis"] = {int(k): v for k, v in delta["vis"].items()}
    for name in ("cir", "vis"):
        keys = out[name]
        if keys and (min(keys) < 0 or max(keys) >= n):
            raise ValueError(f"a {name} key is not a vertex of a map of {n} vertices")
    if not all(type(c) is int for c in out["cir"].values()):
        raise ValueError("a cir value is not an integer")
    if not all(v is None or type(v) is int for v in out["vis"].values()):
        raise ValueError("a vis value is neither an integer nor null")
    out["edges"] = [(a, b, pa, pb) for (a, b, pa, pb) in delta["edges"]]
    for e in out["edges"]:
        if not (all(type(x) is int for x in e) and 0 <= e[0] < n and 0 <= e[1] < n):
            raise ValueError(f"edge {list(e)} is not [a, b, portAtA, portAtB] in a map of {n} vertices")
    return out


class Environment:
    """One agent, one hidden graph, one budgeted run.

    A single environment serves exactly one logical run; distinct
    environments over the same (immutable) graph are independent.
    """

    def __init__(self, graph, v0, budget, relabel_seed=0):
        if not (0 <= v0 < graph.n):
            raise ValueError(f"invalid homebase {v0}")
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self._graph = graph
        self._position = v0
        self._arrival = None
        self.move_count = 0
        self.budget = budget
        self.trace = RunTrace()
        self.trace.log("header", version=TRACE_VERSION, root=v0, budget=budget)
        self._rng = random.Random(f"observe:{relabel_seed}")

    def sense(self):
        """Fresh observation of the current location.

        The returned ball is built with a fresh permutation of the
        non-center local ids on every call, so nothing the agent stores can
        act as a stable vertex identity. Ball content depends only on ports,
        which keeps observations invariant under ground-truth renamings.
        """
        ids = list(range(1, self._graph.degree(self._position) + 1))
        self._rng.shuffle(ids)
        fresh = ball(self._graph, self._position, ids)
        self.trace.log("sense", arrival=self._arrival, ball=fresh)
        return Observation(fresh, self._arrival)

    def move(self, out_port):
        """Cross the edge behind ``out_port``; returns the in-port over there."""
        if self.move_count >= self.budget:
            self.trace.log("budget_exhausted")
            raise BudgetExhaustedError(f"budget of {self.budget} moves exhausted")
        step = self._graph.step(self._position, out_port)
        if step is None:
            raise NoSuchPortError(
                f"no port {out_port} at the current location (degree "
                f"{self._graph.degree(self._position)})"
            )
        self._position, in_port = step
        self._arrival = in_port
        self.move_count += 1
        self.trace.log("move", out=out_port, **{"in": in_port})
        return in_port

    def declare_error(self, reason):
        """The algorithm found its map inconsistent; end the run."""
        raise ExplorationError(reason)

    # harness-side accessor; algorithms must not touch this
    def ground_position(self):
        return self._position


@dataclass
class RunOutcome:
    """Terminal state of one run. ``final_map`` is always present for a halt
    and best-effort (the last committed map) otherwise."""

    status: str  # halted | budget_exhausted | error_detected
    moves: int
    final_map: object | None
    trace: RunTrace


def run_agent(algorithm, env):
    """Drive ``algorithm`` (an object with run(env) and partial_result())
    until it halts, declares an error, or runs out of moves."""
    try:
        payload = algorithm.run(env)
    except BudgetExhaustedError:
        return RunOutcome("budget_exhausted", env.move_count, _partial(algorithm), env.trace)
    except ExplorationError as e:
        env.trace.log("error_detected", reason=str(e))
        return RunOutcome("error_detected", env.move_count, _partial(algorithm), env.trace)
    env.trace.log("halt")
    return RunOutcome("halted", env.move_count, payload, env.trace)


def _partial(algorithm):
    getter = getattr(algorithm, "partial_result", None)
    return getter() if callable(getter) else None
