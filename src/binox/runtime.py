"""Agent runtime: executes an algorithm against a hidden ground-truth graph.

The environment is the anonymity firewall: the algorithm only ever receives
Observations (a freshly relabelled radius-1 ball plus the in-port of its last
move) and may request moves by out-port. Ground-truth vertex ids never cross
this boundary. Every move and every observation is logged to a replayable
trace, which is what the verification harness consumes afterwards.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass

from .graph import Ball, ball

TRACE_VERSION = 5

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
    after the phase) and ``edges`` (the edges inserted in the phase, sorted
    tuples). The first delta holds the whole phase-1 map. Which vertices are
    explored is not logged: a vertex is explored from the end of the phase
    it is first sensed in, which the checker works out in its one replay of
    the events (``verify.TraceReplay``), as it folds the deltas.
    A ``sense`` event's ball is written as a flat edge list
    (``Ball.to_json_dict``).

    With ``out`` (a text file open for writing), ``events`` is a buffer: every
    ``TRACE_CHUNK`` events and at ``flush`` the buffered events are written
    to ``out`` as lines and dropped, so the whole run is never held. Without
    it, ``events`` keeps every event of the run.
    """

    def __init__(self, out=None):
        self.events = []
        self._out = out

    def log(self, ev):
        """Append the event ``ev``, a dict with its ``kind`` and fields,
        which the trace keeps as it is."""
        self.events.append(ev)
        if self._out is not None and len(self.events) >= TRACE_CHUNK:
            self.flush()

    def log_phase_start(self, phase):
        self.log({"kind": "phase_start", "phase": phase})

    def log_phase_end(self, phase, delta):
        self.log({"kind": "phase_end", "phase": phase, "delta": delta})

    def flush(self):
        """Write the buffered events to ``out`` and drop them; nothing
        without ``out``. Each line is written as it is made: the text of a
        chunk of sense events is several times the size of their balls."""
        if self._out is not None:
            write = self._out.write
            for ev in self.events:
                write(_event_line(ev) + "\n")
            self.events = []

    def to_jsonl(self):
        return "\n".join(map(_event_line, self.events)) + "\n"

    @classmethod
    def from_jsonl(cls, text):
        """Parse a whole trace text with ``read_events``."""
        trace = cls()
        trace.events = list(read_events(io.StringIO(text, newline=None)))
        return trace


# Events a trace buffers before it writes them to its file, and lines the
# trace reader parses before it hands their events on: big enough that
# writing, parsing and replaying each run in batches, small enough that a
# chunk's parsed events (about 12 times their text) stay a few MB.
TRACE_CHUNK = 1024


def _event_line(ev):
    """The trace line of one event, without its newline: its kind's
    template (``_WRITERS``) when the event has the template's exact form,
    else ``_ENCODE``; the two give the same text."""
    write = _WRITERS.get(ev["kind"])
    line = write(ev) if write else None
    if line is None:
        b = ev.get("ball")
        if isinstance(b, Ball):
            ev = dict(ev, ball=b.to_json_dict())
        line = _ENCODE(ev)
    return line


def read_events(lines):
    """The events of a trace's lines (an iterable of text lines, each read
    once), parsed ``TRACE_CHUNK`` lines at a time, so a consumer has used
    the events of the chunks before a bad line when it raises
    TraceFormatError. It does unless the first event is a header of this
    TRACE_VERSION, every line is UTF-8 text and a JSON object with the
    fields of its kind (EVENT_FIELDS, NESTED_FIELDS) and valid values, and
    the events come in order (_EventOrder).

    A sense, move, phase_start or phase_end line in the writer's exact form
    is read by its kind's template (``_TEMPLATES``, picked by the line's
    leading key) without ``json.loads``, with the same result. A line that
    misses its template, or whose template reader returns None (a number of
    more digits than ``int()`` takes, a ball or a delta that does not
    load), takes the general path (``_read_event``), which gives the same
    event or the same TraceFormatError."""
    map_n = 0
    order = _EventOrder()
    chunk = []
    first = True
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        if not line.isascii():
            _check_text(lineno, line)
        ev = None
        if not first:
            template = _TEMPLATES.get(line[2:line.find('"', 2)])
            m = template and template[0].fullmatch(line)
            ev = m and template[1](m, map_n)
        if not ev:
            ev = _read_event(lineno, line, first, map_n)
        if ev["kind"] == "phase_end":
            map_n = ev["delta"]["n"]
        misplaced = order.advance(ev["kind"], ev)
        if misplaced:
            raise TraceFormatError(f"line {lineno}: {misplaced}")
        first = False
        chunk.append(ev)
        if len(chunk) == TRACE_CHUNK:
            yield from chunk
            chunk = []
    if first:
        raise TraceFormatError("empty trace: missing header")
    yield from chunk


def _check_text(lineno, line):
    """TraceFormatError unless ``line`` is text: a file is read with
    ``errors="surrogateescape"``, so a byte that is not UTF-8 reaches here
    as a lone surrogate."""
    try:
        line.encode("utf-8", "surrogateescape").decode()
    except UnicodeError as e:
        raise TraceFormatError(f"line {lineno}: not a text file: {e}") from e


def _read_event(lineno, line, first, map_n):
    """The event of one trace line, its fields and values checked; ``first``
    says it is the trace's first line, ``map_n`` is the map's vertex count
    after the last phase_end so far."""
    try:
        ev = json.loads(line)
    # JSONDecodeError, an int of more digits than int() takes, or nesting
    # deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as e:
        raise TraceFormatError(f"line {lineno}: not JSON: {e}") from e
    if not isinstance(ev, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    if first:
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
    except (TypeError, ValueError) as e:
        raise TraceFormatError(f"line {lineno}: malformed {kind} event: {e}") from e
    return ev


# The templates: each kind's line exactly as _ENCODE writes an event of that
# kind with only its fields, ints in canonical decimal (which read as
# json.loads reads them) and, in a sense line, a packed ball. Its text is
# taken up to the next quote: ``_unpack`` refuses any text but canonical
# base64, whose characters need no escaping in JSON, so a line with an
# escape or another character there takes the general path.
_DIGITS = r"(?:0|[1-9][0-9]*)"
_NAT = rf"({_DIGITS})"
_EDGE = rf"\[{_DIGITS}(?:,{_DIGITS}){{3}}\]"
_SENSE_LINE = re.compile(
    r'\{"arrival":(null|0|[1-9][0-9]*),"ball":\{"edges":"([^"]*)",'
    r'"size":(0|[1-9][0-9]*)\},"kind":"sense"\}'
)
_MOVE_LINE = re.compile(rf'\{{"in":{_NAT},"kind":"move","out":{_NAT}\}}')
_PHASE_START_LINE = re.compile(rf'\{{"kind":"phase_start","phase":{_NAT}\}}')
_PHASE_END_LINE = re.compile(
    rf'\{{"delta":\{{"edges":\[((?:{_EDGE}(?:,{_EDGE})*)?)\],"n":{_NAT}\}},'
    rf'"kind":"phase_end","phase":{_NAT}\}}'
)
_SENSE_KEYS = {"arrival", "ball", "kind"}


def _sense_line(arrival, edges, size):
    """``_ENCODE`` of a sense event with only these fields, an int or None
    ``arrival``, an int ``size`` and packed ``edges`` (a base64 text)."""
    a = "null" if arrival is None else arrival
    return f'{{"arrival":{a},"ball":{{"edges":"{edges}","size":{size}}},"kind":"sense"}}'


def _write_sense(ev):
    b, a = ev.get("ball"), ev.get("arrival")
    if (isinstance(b, Ball) and ev.keys() == _SENSE_KEYS and (a is None or type(a) is int)
            and type(b.size) is int):
        edges = b.to_json_dict()["edges"]
        if type(edges) is str:
            return _sense_line(a, edges, b.size)
    return None


def _write_move(ev):
    out, in_port = ev.get("out"), ev.get("in")
    if type(out) is int and type(in_port) is int and len(ev) == 3:
        return f'{{"in":{in_port},"kind":"move","out":{out}}}'
    return None


def _write_phase_start(ev):
    phase = ev.get("phase")
    if type(phase) is int and len(ev) == 2:
        return f'{{"kind":"phase_start","phase":{phase}}}'
    return None


def _write_phase_end(ev):
    phase, delta = ev.get("phase"), ev.get("delta")
    if (type(phase) is int and len(ev) == 3 and type(delta) is dict
            and delta.keys() == {"n", "edges"} and type(delta["n"]) is int):
        return (f'{{"delta":{{"edges":{_ENCODE(delta["edges"])},"n":{delta["n"]}}},'
                f'"kind":"phase_end","phase":{phase}}}')
    return None


# The writer of each kind's template: the line, or None when the event is
# not in the template's form.
_WRITERS = {"sense": _write_sense, "move": _write_move, "phase_start": _write_phase_start,
            "phase_end": _write_phase_end}


def _read_sense(m, map_n):
    """The sense event of a ``_SENSE_LINE`` match, or None when its ball
    does not load (the text is not canonical base64, or the structure is
    wrong); such a line takes the general path, which gives the same
    error."""
    arrival, edges, size = m.groups()
    try:
        b = Ball.from_json_dict({"size": int(size), "edges": edges})
        arrival = None if arrival == "null" else int(arrival)
    except ValueError:
        return None
    return {"arrival": arrival, "ball": b, "kind": "sense"}


def _read_move(m, map_n):
    in_port, out = m.groups()
    try:
        return {"in": int(in_port), "kind": "move", "out": int(out)}
    except ValueError:  # more digits than int() takes
        return None


def _read_phase_start(m, map_n):
    try:
        return {"kind": "phase_start", "phase": int(m[1])}
    except ValueError:
        return None


def _read_phase_end(m, map_n):
    """The phase_end event of a ``_PHASE_END_LINE`` match, or None when a
    number does not convert or ``_parse_delta`` would refuse the delta.
    The template admits only ints >= 0, four per edge."""
    edges, n, phase = m.groups()
    try:
        flat = list(map(int, edges.replace("[", "").replace("]", "").split(","))) if edges else []
        n, phase = int(n), int(phase)
    except ValueError:
        return None
    if (n < map_n or flat and max(max(flat[0::4]), max(flat[1::4])) >= n
            or _growth_problem(n, len(flat) // 4, map_n)):
        return None
    it = iter(flat)
    return {"delta": {"n": n, "edges": list(zip(it, it, it, it))}, "kind": "phase_end",
            "phase": phase}


# The template of each kind that has one, by the first key of its line:
# (pattern, reader of a match and the map's vertex count so far).
_TEMPLATES = {
    "arrival": (_SENSE_LINE, _read_sense),
    "in": (_MOVE_LINE, _read_move),
    "kind": (_PHASE_START_LINE, _read_phase_start),
    "delta": (_PHASE_END_LINE, _read_phase_end),
}


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
    budget_exhausted or error_detected may end the open phase but come only
    after the first phase_start, halt comes only after a phase_end. O(1)
    per event."""

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
            if self.open is None and self.last == 0:
                return f"{kind} before the first phase_start"
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
    "sense": ("ball", (("size", _INT), ("edges", (list, str)))),
    "phase_end": ("delta", (("n", _INT), ("edges", (list,)))),
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
    """The delta ``{"n", "edges"}`` with tuple edges; ValueError unless
    ``n`` is at least ``map_n`` (the vertex count after the previous
    delta), every edge is four integers with both ends among the ``n``
    vertices and both ports >= 0, the map grows by at most the delta's
    edge count (plus the homebase in the first delta: each new vertex comes
    with a new edge to an explored one), and the first delta holds the
    homebase. The growth bound keeps a forged ``n`` from making the checker
    allocate per vertex."""
    n = delta["n"]
    if n < map_n:
        raise ValueError(f"n={n} is below the {map_n} vertices of the map so far")
    edges = [(a, b, pa, pb) for (a, b, pa, pb) in delta["edges"]]
    for e in edges:
        if not (all(type(x) is int for x in e) and min(e) >= 0 and e[0] < n and e[1] < n):
            raise ValueError(f"edge {list(e)} is not [a, b, portAtA, portAtB] in a map of {n} "
                             "vertices, with ports >= 0")
    problem = _growth_problem(n, len(edges), map_n)
    if problem:
        raise ValueError(problem)
    return {"n": n, "edges": edges}


def _growth_problem(n, count, map_n):
    """Why a delta of ``count`` edges cannot take the map from ``map_n`` to
    ``n`` vertices (see ``_parse_delta``), or None."""
    grown = count + (map_n == 0)
    if n - map_n > grown:
        return (f"n={n} adds {n - map_n} vertices to the {map_n} of the map so far, "
                f"but at most {grown} come with the delta's edges")
    if n < 1:
        return "n=0: a map of 0 vertices lacks the homebase"
    return None


class Environment:
    """One agent, one hidden graph, one budgeted run.

    A single environment serves exactly one logical run; distinct
    environments over the same (immutable) graph are independent. With
    ``out``, the trace goes to that text file as the run goes on (see
    ``RunTrace``).
    """

    def __init__(self, graph, v0, budget, out=None):
        if not (0 <= v0 < graph.n):
            raise ValueError(f"invalid homebase {v0}")
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self._graph = graph
        self._position = v0
        self._arrival = None
        self.move_count = 0
        self.budget = budget
        self.trace = RunTrace(out)
        self.trace.log({"kind": "header", "version": TRACE_VERSION, "root": v0, "budget": budget})
        self._rng = random.Random("observe:0")

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
        self.trace.log({"kind": "sense", "arrival": self._arrival, "ball": fresh})
        return Observation(fresh, self._arrival)

    def move(self, out_port):
        """Cross the edge behind ``out_port``; returns the in-port over there."""
        if self.move_count >= self.budget:
            self.trace.log({"kind": "budget_exhausted"})
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
        self.trace.log({"kind": "move", "out": out_port, "in": in_port})
        return in_port

    def declare_error(self, reason):
        """The algorithm found its map inconsistent; end the run."""
        raise ExplorationError(reason)


@dataclass
class RunOutcome:
    """Terminal state of one run. ``final_map`` is always present for a halt
    and best-effort (the last committed map) otherwise. ``trace`` holds
    every event of a run kept in memory, and none of one written to a
    file."""

    status: str  # halted | budget_exhausted | error_detected
    moves: int
    final_map: object | None
    trace: RunTrace


def run_agent(algorithm, env):
    """Drive ``algorithm`` (an object with run(env) and partial_result())
    until it halts, declares an error, or runs out of moves; then write what
    the trace still buffers."""
    try:
        payload = algorithm.run(env)
    except BudgetExhaustedError:
        outcome = RunOutcome("budget_exhausted", env.move_count, algorithm.partial_result(), env.trace)
    except ExplorationError as e:
        env.trace.log({"kind": "error_detected", "reason": str(e)})
        outcome = RunOutcome("error_detected", env.move_count, algorithm.partial_result(), env.trace)
    else:
        env.trace.log({"kind": "halt"})
        outcome = RunOutcome("halted", env.move_count, payload, env.trace)
    env.trace.flush()
    return outcome
