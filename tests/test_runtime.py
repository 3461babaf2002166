"""Environment semantics: sensing, moving, budgets, anonymity, trace replay."""

import json
import random

import pytest

from binox.explorer import explore
from binox.graph import ball
from binox.runtime import (
    TRACE_VERSION,
    Environment,
    NoSuchPortError,
    RunTrace,
    TraceFormatError,
    run_agent,
)

from conftest import gen


class HaltImmediately:
    def run(self, env):
        return "done"

    def partial_result(self):
        return None


class AlwaysPortZero:
    def run(self, env):
        while True:
            env.move(0)

    def partial_result(self):
        return None


class TestEnvironment:
    def test_fresh_environment(self):
        env = Environment(gen("complete:3"), 0, 100)
        assert env.move_count == 0
        assert env.ground_position() == 0

    def test_any_homebase_is_legal(self):
        env = Environment(gen("cycle:6"), 3, 10)
        assert env.ground_position() == 3

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            Environment(gen("complete:3"), 0, 0)

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            Environment(gen("complete:3"), 9, 5)

    def test_sense_before_any_move(self):
        env = Environment(gen("cycle:6"), 0, 10)
        obs = env.sense()
        assert obs.arrival_port is None
        assert obs.ball.size == 3
        assert len(obs.ball.edges) == 2
        assert obs.ball.source_ids is None  # no ground ids cross the firewall

    def test_move_returns_arrival_port(self):
        g = gen("complete:3")
        env = Environment(g, 0, 100)
        in_port = env.move(0)
        obs = env.sense()
        assert obs.arrival_port == in_port
        env.move(in_port)  # backtrack
        assert env.ground_position() == 0
        assert env.move_count == 2

    def test_cycle_walk_comes_home(self):
        g = gen("cycle:6")
        env = Environment(g, 0, 100)
        arrived = env.move(0)
        for _ in range(5):
            port = next(p for p in (0, 1) if p != arrived)
            arrived = env.move(port)
        assert env.ground_position() == 0

    def test_no_such_port(self):
        env = Environment(gen("path:3"), 0, 10)
        with pytest.raises(NoSuchPortError):
            env.move(7)

    def test_budget_exhaustion(self):
        env = Environment(gen("complete:3"), 0, 5)
        outcome = run_agent(AlwaysPortZero(), env)
        assert outcome.status == "budget_exhausted"
        assert outcome.moves == 5
        assert outcome.trace.events[-1]["kind"] == "budget_exhausted"

    def test_trivial_agent_halts_with_zero_moves(self):
        env = Environment(gen("complete:3"), 0, 5)
        outcome = run_agent(HaltImmediately(), env)
        assert outcome.status == "halted"
        assert outcome.moves == 0
        assert outcome.final_map == "done"

    def test_two_senses_same_spot_isomorphic_fresh_ids(self):
        env = Environment(gen("johnson:5,2"), 0, 10)
        balls = [env.sense().ball for _ in range(6)]
        sig = balls[0].signature()
        assert all(b.signature() == sig for b in balls)
        # local ids are freshly permuted: at least one pair must differ
        serialized = {json.dumps(b.to_json_dict(), sort_keys=True) for b in balls}
        assert len(serialized) > 1


class TestAnonymity:
    def test_trace_invariant_under_ground_renaming(self):
        g = gen("chordal:n=14,rate=0.5,seed=6", ports="random:8")
        perm = list(range(g.n))
        random.Random(99).shuffle(perm)
        h = g.renamed(perm)
        out_g = explore(Environment(g, 3, 50 * g.n))
        out_h = explore(Environment(h, perm[3], 50 * g.n))
        assert out_g.status == out_h.status == "halted"
        # everything after the header (which names the ground root for the
        # harness) is agent-produced and must not betray the renaming
        lines_g = out_g.trace.to_jsonl().splitlines()
        lines_h = out_h.trace.to_jsonl().splitlines()
        assert lines_g[1:] == lines_h[1:]

    def test_identical_reruns_are_byte_identical(self):
        g = gen("johnson:5,2", ports="random:5")
        a = explore(Environment(g, 2, 500))
        b = explore(Environment(g, 2, 500))
        assert a.trace.to_jsonl() == b.trace.to_jsonl()


class TestTrace:
    def test_move_events_match_move_count(self):
        g = gen("chordal:n=12,rate=0.4,seed=2")
        out = explore(Environment(g, 0, 600))
        assert len(out.trace.moves()) == out.moves

    def test_replay_reaches_environment_position(self):
        g = gen("tree:n=18,seed=7")
        env = Environment(g, 4, 900)
        explore(env)
        pos = 4
        for ev in env.trace.moves():
            pos, in_port = g.step(pos, ev["out"])
            assert in_port == ev["in"]
        assert pos == env.ground_position()

    def test_jsonl_round_trip(self, tmp_path):
        g = gen("complete:4")
        out = explore(Environment(g, 1, 200))
        path = tmp_path / "t.jsonl"
        out.trace.save(path)
        loaded = RunTrace.load(path)
        assert loaded.to_jsonl() == out.trace.to_jsonl()
        assert loaded.header()["root"] == 1
        assert [p for p, _s in loaded.snapshots()] == [p for p, _s in out.trace.snapshots()]


class TestTraceFormat:
    def trace_text(self):
        g = gen("path:4")
        return explore(Environment(g, 0, 200)).trace.to_jsonl()

    def test_header_carries_the_current_version(self):
        header = json.loads(self.trace_text().splitlines()[0])
        assert header["kind"] == "header" and header["version"] == TRACE_VERSION == 3

    def test_missing_header_is_rejected(self):
        body = "\n".join(self.trace_text().splitlines()[1:])
        with pytest.raises(TraceFormatError, match="missing header"):
            RunTrace.from_jsonl(body)
        with pytest.raises(TraceFormatError, match="missing header"):
            RunTrace.from_jsonl("")

    def test_other_version_is_rejected(self):
        lines = self.trace_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        text = "\n".join([json.dumps(header)] + lines[1:])
        with pytest.raises(TraceFormatError, match="v1 trace, re-run explore"):
            RunTrace.from_jsonl(text)

    def test_line_that_is_not_json_is_rejected(self):
        lines = self.trace_text().splitlines()
        lines.insert(2, '{"kind": "move", "out": 0')
        with pytest.raises(TraceFormatError, match="line 3: not JSON"):
            RunTrace.from_jsonl("\n".join(lines))

    @pytest.mark.parametrize("event,message", [
        ({"kind": "move"}, "line 3: move event lacks field 'out'"),
        ({"kind": "move", "out": 0, "in": "1"}, "line 3: move event field 'in' is str, expected int"),
        ({"kind": "teleport"}, "line 3: field 'kind': unknown event kind 'teleport'"),
        ({"out": 0, "in": 1}, "line 3: field 'kind': unknown event kind None"),
        ({"kind": "phase_end", "phase": 1, "delta": {"n": 1, "edges": [], "cir": {}}},
         "line 3: phase_end event lacks field 'delta.vis'"),
        ({"kind": "sense", "arrival": 0, "ball": {"size": "2", "edges": []}},
         "line 3: sense event field 'ball.size' is str, expected int"),
        ({"kind": "sense", "arrival": None, "ball": {"size": 2, "edges": [[0, 1, 0]]}},
         "line 3: malformed sense event"),
        ({"kind": "sense", "arrival": True, "ball": {"size": 1, "edges": []}},
         "line 3: sense event field 'arrival' is bool, expected int or NoneType"),
        ({"kind": "phase_end", "phase": 1,
          "delta": {"n": 2, "edges": [[0, "1", 0, 0]], "cir": {}, "vis": {}}},
         "line 3: malformed phase_end event: edge [0, '1', 0, 0] is not"),
        ({"kind": "phase_end", "phase": 1,
          "delta": {"n": 2, "edges": [[0, 5, 0, 0]], "cir": {}, "vis": {}}},
         "edge [0, 5, 0, 0] is not [a, b, portAtA, portAtB] in a map of 2 vertices"),
        ({"kind": "phase_end", "phase": 1,
          "delta": {"n": 2, "edges": [], "cir": {}, "vis": {"0": "x"}}},
         "a vis value is neither an integer nor null"),
    ])
    def test_event_with_missing_or_mistyped_field_is_rejected(self, event, message):
        lines = self.trace_text().splitlines()
        lines.insert(2, json.dumps(event))
        with pytest.raises(TraceFormatError) as err:
            RunTrace.from_jsonl("\n".join(lines))
        assert str(err.value).startswith("line 3: ") and message in str(err.value)
        assert str(err.value).count("line 3") == 1

    def test_shrinking_map_is_rejected(self):
        lines = self.trace_text().splitlines()
        shrunk = {"kind": "phase_end", "phase": 9,
                  "delta": {"n": 1, "edges": [], "cir": {}, "vis": {}}}
        lines.insert(len(lines) - 1, json.dumps(shrunk))
        with pytest.raises(TraceFormatError, match=f"line {len(lines) - 1}: .*n=1 is below the 4"):
            RunTrace.from_jsonl("\n".join(lines))

    def test_ball_round_trip_keeps_edges_normalized(self):
        lines = self.trace_text().splitlines()
        sense = json.loads(lines[2])
        flat = sense["ball"]["edges"]
        sense["ball"]["edges"] = [x for i in range(0, len(flat), 4)
                                  for x in (flat[i + 1], flat[i], flat[i + 3], flat[i + 2])]
        loaded = RunTrace.from_jsonl("\n".join([lines[0], lines[1], json.dumps(sense)]))
        b = loaded.events[2]["ball"]
        assert all(u < v for (u, v, _pu, _pv) in b.edges)
        assert all(type(e) is tuple for e in b.edges)
        assert b.to_json_dict()["edges"] == flat

    def test_ball_edges_are_written_flat_and_compact(self):
        lines = self.trace_text().splitlines()
        assert all(", " not in line and ": " not in line for line in lines)
        sense = json.loads(lines[2])
        assert sense["kind"] == "sense"
        assert all(type(x) is int for x in sense["ball"]["edges"])

    @pytest.mark.parametrize("edges,message", [
        ([0, 1, 0], "3 values, not four per edge"),
        ([0, 1, 0, 0, 1], "5 values, not four per edge"),
        ([0, 1, 0, "0"], "a value is not an integer"),
        ([0, 1, 0, 1.0], "a value is not an integer"),
        ([0, True, 0, 0], "a value is not an integer"),
        ([0, 1, 0, None], "a value is not an integer"),
        ([1, 1, 0, 0], "distinct ends below size 2"),
        ([0, 2, 0, 0], "distinct ends below size 2"),
        ([2, 0, 0, 0], "distinct ends below size 2"),
        ([-1, 1, 0, 0], "distinct ends below size 2"),
        ([0, 1, -1, 0], "ports >= 0"),
        ([1, 0, 0, -3], "ports >= 0"),
    ])
    def test_ball_with_bad_edge_values_is_rejected(self, edges, message):
        lines = self.trace_text().splitlines()
        sense = {"kind": "sense", "arrival": None, "ball": {"size": 2, "edges": edges}}
        lines.insert(2, json.dumps(sense))
        with pytest.raises(TraceFormatError) as err:
            RunTrace.from_jsonl("\n".join(lines))
        assert str(err.value).startswith("line 3: malformed sense event: ball edges: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("table,key", [("vis", "4"), ("vis", "40"), ("vis", "-1"),
                                           ("cir", "4"), ("cir", "-2")])
    def test_delta_key_outside_the_map_is_rejected(self, table, key):
        lines = self.trace_text().splitlines()
        index = max(i for i, line in enumerate(lines) if '"phase_end"' in line)
        ev = json.loads(lines[index])
        ev["delta"][table][key] = 1
        lines[index] = json.dumps(ev)
        with pytest.raises(TraceFormatError, match=(
            f"line {index + 1}: malformed phase_end event: a {table} key is not a vertex "
            f"of a map of 4 vertices"
        )):
            RunTrace.from_jsonl("\n".join(lines))


class TestEventOrder:
    """path:4 from vertex 0: phases 1-4, each phase_start / [move] / sense /
    phase_end, then halt (line 17)."""

    def lines(self):
        g = gen("path:4")
        return explore(Environment(g, 0, 200)).trace.to_jsonl().splitlines()

    def rejected(self, lines):
        with pytest.raises(TraceFormatError) as err:
            RunTrace.from_jsonl("\n".join(lines))
        return str(err.value)

    def test_the_explorer_writes_a_trace_in_order(self):
        lines = self.lines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[:4] == ["header", "phase_start", "sense", "phase_end"]
        assert kinds[-1] == "halt" and len(kinds) == 17
        RunTrace.from_jsonl("\n".join(lines))

    def test_deleted_phase_start(self):
        lines = self.lines()
        assert self.rejected(lines[:1] + lines[2:]) == "line 2: sense event outside a phase"
        assert self.rejected(lines[:4] + lines[5:]) == "line 5: move event outside a phase"

    def test_phase_start_out_of_sequence(self):
        lines = self.lines()
        lines[4] = json.dumps({"kind": "phase_start", "phase": 3})
        assert self.rejected(lines) == "line 5: phase_start 3 does not follow phase 1"

    def test_phase_start_inside_an_open_phase(self):
        lines = self.lines()
        lines.insert(2, json.dumps({"kind": "phase_start", "phase": 2}))
        assert self.rejected(lines) == "line 3: phase_start 2 while phase 1 is open"

    def test_phase_end_that_does_not_close_the_open_phase(self):
        lines = self.lines()
        ev = json.loads(lines[3])
        ev["phase"] = 2
        lines[3] = json.dumps(ev)
        assert self.rejected(lines) == (
            "line 4: phase_end 2 does not close the open phase (phase 1 is open)"
        )
        lines = self.lines()
        lines.insert(4, lines[3])
        assert self.rejected(lines) == (
            "line 5: phase_end 1 does not close the open phase (no phase is open)"
        )

    def test_sense_or_move_between_phases(self):
        lines = self.lines()
        lines.insert(4, json.dumps({"kind": "move", "out": 0, "in": 0}))
        assert self.rejected(lines) == "line 5: move event outside a phase"

    def test_second_terminal_event(self):
        lines = self.lines()
        lines.insert(16, json.dumps({"kind": "budget_exhausted"}))
        assert self.rejected(lines) == "line 18: second terminal event: halt after budget_exhausted"
        lines = self.lines() + [json.dumps({"kind": "error_detected", "reason": "x"})]
        assert self.rejected(lines) == "line 18: second terminal event: error_detected after halt"

    def test_event_after_the_terminal_event(self):
        lines = self.lines()
        lines.append(json.dumps({"kind": "phase_start", "phase": 5}))
        assert self.rejected(lines) == "line 18: phase_start event after the terminal halt event"

    def test_second_header(self):
        lines = self.lines()
        lines.insert(1, lines[0])
        assert self.rejected(lines) == "line 2: second header"

    def test_halt_inside_a_phase(self):
        lines = self.lines()
        assert self.rejected(lines[:-2] + lines[-1:]) == "line 16: halt while phase 4 is open"

    def test_terminal_event_inside_a_phase_is_accepted(self):
        lines = self.lines()
        cut = lines[:10] + [json.dumps({"kind": "budget_exhausted"})]
        assert RunTrace.from_jsonl("\n".join(cut)).events[-1]["kind"] == "budget_exhausted"
