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

TRACE_VERSION = 2


class TraceFormatError(ValueError):
    """A trace file cannot be read: no header, another format version, or a
    line that is not a JSON object."""


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
    tuples),
    ``cir`` and ``vis`` (the cluster ids and explored-in values set in the
    phase). The first delta holds the whole phase-1 map; ``final_map`` folds
    them all.
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
            out = dict(ev)
            if "ball" in out and isinstance(out["ball"], Ball):
                out["ball"] = out["ball"].to_json_dict()
            lines.append(json.dumps(out, sort_keys=True))
        return "\n".join(lines) + "\n"

    def save(self, path):
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text):
        """Parse a trace; raises TraceFormatError unless the first event is
        a header of this TRACE_VERSION and every line is a JSON object."""
        trace = cls()
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
            try:
                if ev.get("kind") == "sense" and isinstance(ev.get("ball"), dict):
                    ev["ball"] = Ball.from_json_dict(ev["ball"])
                if ev.get("kind") == "phase_end" and isinstance(ev.get("delta"), dict):
                    ev["delta"] = _delta_keys_to_int(ev["delta"])
            except (KeyError, TypeError, ValueError) as e:
                raise TraceFormatError(f"line {lineno}: malformed {ev['kind']} event: {e}") from e
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


def _delta_keys_to_int(delta):
    out = dict(delta)
    for table in ("cir", "vis"):
        if table in out and isinstance(out[table], dict):
            out[table] = {int(k): v for k, v in out[table].items()}
    if "edges" in out:
        out["edges"] = [tuple(e) for e in out["edges"]]
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

        The returned ball is rebuilt with a fresh permutation of the
        non-center local ids on every call, so nothing the agent stores can
        act as a stable vertex identity. Ball content depends only on ports,
        which keeps observations invariant under ground-truth renamings.
        """
        raw = ball(self._graph, self._position)
        ids = [0] + [1 + i for i in range(raw.size - 1)]
        tail = ids[1:]
        self._rng.shuffle(tail)
        fresh = raw.relabel([0] + tail)
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


def create_environment(g, v0, budget, relabel_seed=0):
    return Environment(g, v0, budget, relabel_seed)


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
