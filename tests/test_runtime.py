"""Environment semantics: sensing, moving, budgets, anonymity, trace replay."""

import json
import random

import pytest

from binox.explorer import explore
from binox.graph import ball
from binox.runtime import (
    TRACE_VERSION,
    NoSuchPortError,
    RunTrace,
    TraceFormatError,
    create_environment,
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
        env = create_environment(gen("complete:3"), 0, 100)
        assert env.move_count == 0
        assert env.ground_position() == 0

    def test_any_homebase_is_legal(self):
        env = create_environment(gen("cycle:6"), 3, 10)
        assert env.ground_position() == 3

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            create_environment(gen("complete:3"), 0, 0)

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            create_environment(gen("complete:3"), 9, 5)

    def test_sense_before_any_move(self):
        env = create_environment(gen("cycle:6"), 0, 10)
        obs = env.sense()
        assert obs.arrival_port is None
        assert obs.ball.size == 3
        assert len(obs.ball.edges) == 2
        assert obs.ball.source_ids is None  # no ground ids cross the firewall

    def test_move_returns_arrival_port(self):
        g = gen("complete:3")
        env = create_environment(g, 0, 100)
        in_port = env.move(0)
        obs = env.sense()
        assert obs.arrival_port == in_port
        env.move(in_port)  # backtrack
        assert env.ground_position() == 0
        assert env.move_count == 2

    def test_cycle_walk_comes_home(self):
        g = gen("cycle:6")
        env = create_environment(g, 0, 100)
        arrived = env.move(0)
        for _ in range(5):
            port = next(p for p in (0, 1) if p != arrived)
            arrived = env.move(port)
        assert env.ground_position() == 0

    def test_no_such_port(self):
        env = create_environment(gen("path:3"), 0, 10)
        with pytest.raises(NoSuchPortError):
            env.move(7)

    def test_budget_exhaustion(self):
        env = create_environment(gen("complete:3"), 0, 5)
        outcome = run_agent(AlwaysPortZero(), env)
        assert outcome.status == "budget_exhausted"
        assert outcome.moves == 5
        assert outcome.trace.events[-1]["kind"] == "budget_exhausted"

    def test_trivial_agent_halts_with_zero_moves(self):
        env = create_environment(gen("complete:3"), 0, 5)
        outcome = run_agent(HaltImmediately(), env)
        assert outcome.status == "halted"
        assert outcome.moves == 0
        assert outcome.final_map == "done"

    def test_two_senses_same_spot_isomorphic_fresh_ids(self):
        env = create_environment(gen("johnson:5,2"), 0, 10)
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
        out_g = explore(create_environment(g, 3, 50 * g.n))
        out_h = explore(create_environment(h, perm[3], 50 * g.n))
        assert out_g.status == out_h.status == "halted"
        # everything after the header (which names the ground root for the
        # harness) is agent-produced and must not betray the renaming
        lines_g = out_g.trace.to_jsonl().splitlines()
        lines_h = out_h.trace.to_jsonl().splitlines()
        assert lines_g[1:] == lines_h[1:]

    def test_identical_reruns_are_byte_identical(self):
        g = gen("johnson:5,2", ports="random:5")
        a = explore(create_environment(g, 2, 500))
        b = explore(create_environment(g, 2, 500))
        assert a.trace.to_jsonl() == b.trace.to_jsonl()


class TestTrace:
    def test_move_events_match_move_count(self):
        g = gen("chordal:n=12,rate=0.4,seed=2")
        out = explore(create_environment(g, 0, 600))
        assert len(out.trace.moves()) == out.moves

    def test_replay_reaches_environment_position(self):
        g = gen("tree:n=18,seed=7")
        env = create_environment(g, 4, 900)
        explore(env)
        pos = 4
        for ev in env.trace.moves():
            pos, in_port = g.step(pos, ev["out"])
            assert in_port == ev["in"]
        assert pos == env.ground_position()

    def test_jsonl_round_trip(self, tmp_path):
        g = gen("complete:4")
        out = explore(create_environment(g, 1, 200))
        path = tmp_path / "t.jsonl"
        out.trace.save(path)
        loaded = RunTrace.load(path)
        assert loaded.to_jsonl() == out.trace.to_jsonl()
        assert loaded.header()["root"] == 1
        assert [p for p, _s in loaded.snapshots()] == [p for p, _s in out.trace.snapshots()]


class TestTraceFormat:
    def trace_text(self):
        g = gen("path:4")
        return explore(create_environment(g, 0, 200)).trace.to_jsonl()

    def test_header_carries_the_current_version(self):
        header = json.loads(self.trace_text().splitlines()[0])
        assert header["kind"] == "header" and header["version"] == TRACE_VERSION == 2

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
