"""Command line surface: gen / explore / check / suite."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from binox.cli import main
from binox.runtime import RunTrace


def invoke(*args):
    return main(list(args))


class TestGen:
    def test_writes_a_loadable_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert invoke("gen", "--spec", "johnson:5,2", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 10 and len(data["edges"]) == 30

    def test_stdout_when_no_out(self, capsys):
        assert invoke("gen", "--spec", "cycle:4") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4

    def test_bad_spec_fails(self, capsys):
        assert invoke("gen", "--spec", "johnson:2,9") == 1

    def test_port_scheme_flag(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        invoke("gen", "--spec", "complete:5", "--out", str(a))
        invoke("gen", "--spec", "complete:5", "--ports", "random:3", "--out", str(b))
        assert a.read_text() != b.read_text()


class TestExploreAndCheck:
    def test_halting_run_exits_zero_and_checks_pass(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        emap = tmp_path / "m.json"
        invoke("gen", "--spec", "chordal:n=20,rate=0.4,seed=3", "--out", str(g))
        rc = invoke("explore", "--graph", str(g), "--root", "2",
                    "--trace", str(trace), "--map", str(emap))
        assert rc == 0
        assert "status=halted" in capsys.readouterr().out
        snap = json.loads(emap.read_text())
        assert snap["homebase"] == 0 and snap["n"] == 20
        rc = invoke("check", "--graph", str(g), "--trace", str(trace))
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_cycle_exits_two_and_check_reports_na(self, tmp_path, capsys):
        g = tmp_path / "c.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", "cycle:5", "--out", str(g))
        rc = invoke("explore", "--graph", str(g), "--trace", str(trace))
        assert rc == 2
        capsys.readouterr()
        rc = invoke("check", "--graph", str(g), "--trace", str(trace),
                    "--checks", "phase_invariants,coverage")
        out = capsys.readouterr().out
        assert rc == 0  # phase invariants hold; coverage is n/a
        assert "coverage: n/a" in out
        assert "phase_invariants: pass" in out

    def test_check_rejects_unknown_names(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", "path:3", "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        assert invoke("check", "--graph", str(g), "--trace", str(trace),
                      "--checks", "bogus") == 1

    def test_invalid_graph_file_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "edges": [[0, 1, 0, 0], [0, 2, 0, 0]]}))
        assert invoke("explore", "--graph", str(bad)) == 1
        assert "port injectivity" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [[1], None, "a"])
    def test_labels_that_are_not_an_object_are_diagnosed(self, tmp_path, capsys, labels):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "edges": [[0, 1, 0, 0]], "labels": labels}))
        assert invoke("explore", "--graph", str(bad)) == 1
        err = capsys.readouterr().err
        assert '"labels" must be a JSON object' in err and "Traceback" not in err


def add_vis_key(line, key, value):
    ev = json.loads(line)
    ev["delta"]["vis"][key] = value
    return json.dumps(ev)


class TestCheckInputs:
    def explored(self, tmp_path, spec="path:5"):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", spec, "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        return g, trace

    @pytest.mark.parametrize("damage,message", [
        (lambda lines: lines[1:], "missing header"),
        (lambda lines: [lines[0].replace('"version":3', '"version":1')] + lines[1:],
         "v1 trace, re-run explore"),
        (lambda lines: lines[:2] + ["not json"] + lines[2:], "not JSON"),
        # path:5: line 2 starts phase 1, line 5 phase 2, line 21 is the halt
        (lambda lines: lines[:1] + lines[2:], "line 2: sense event outside a phase"),
        (lambda lines: lines[:4] + lines[5:], "line 5: move event outside a phase"),
        (lambda lines: lines[:-1] + ['{"kind":"budget_exhausted"}'] + lines[-1:],
         "line 22: second terminal event: halt after budget_exhausted"),
        (lambda lines: lines[:-2] + lines[-1:], "line 20: halt while phase 5 is open"),
        (lambda lines: lines[:7] + [add_vis_key(lines[7], "40", 3)] + lines[8:],
         "line 8: malformed phase_end event: a vis key is not a vertex of a map of 3 vertices"),
    ])
    def test_malformed_trace_is_an_error_not_a_traceback(self, tmp_path, capsys, damage, message):
        g, trace = self.explored(tmp_path)
        trace.write_text("\n".join(damage(trace.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_missing_trace_file_is_an_error(self, tmp_path, capsys):
        g, _trace = self.explored(tmp_path)
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(tmp_path / "none.jsonl")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_incomplete_trace_fails_check(self, tmp_path, capsys):
        g, trace = self.explored(tmp_path, "chordal:n=20,rate=0.4,seed=3")
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:6]) + "\n")
        capsys.readouterr()
        rc = invoke("check", "--graph", str(g), "--trace", str(trace))
        captured = capsys.readouterr()
        assert "status=incomplete" in captured.out
        assert rc == 1
        assert "no terminal event" in captured.err

    def test_sense_events_are_compared_with_the_ground_graph(self, tmp_path, capsys):
        # complete:4: phase 1 senses the root, phase 2 its three neighbours
        g, trace = self.explored(tmp_path, "complete:4")
        lines = trace.read_text().splitlines()
        senses = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "sense"]
        assert len(senses) == 4
        last = json.loads(lines[senses[-1]])
        last["ball"]["edges"] = [0, 3, 0, 7]
        lines[senses[-1]] = json.dumps(last)
        second = json.loads(lines[senses[1]])
        second["arrival"] = 5
        lines[senses[1]] = json.dumps(second)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        out = capsys.readouterr().out
        assert "status=halted" in out and "phase_invariants: FAIL" in out
        for name in ("final_isomorphism", "coverage", "cluster_tree", "covering"):
            assert f"{name}: pass" in out
        assert "phase 2: sense at map vertex 1 (ground 1): arrival port 5, " in out
        assert "phase 2: sense at map vertex 3 (ground 3): the ball is not the ground ball" in out

    def test_replay_problem_is_filed_under_its_phase(self, tmp_path, capsys):
        g, trace = self.explored(tmp_path, "chordal:n=20,rate=0.4,seed=3")
        lines = trace.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        start = next(i for i, ev in enumerate(events) if ev == {"kind": "phase_start", "phase": 4})
        i = next(i for i in range(start, len(events)) if events[i]["kind"] == "move")
        lines[i] = json.dumps(dict(events[i], out=77))
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        out = capsys.readouterr().out
        assert "  phase 4: trace walks port 77 at map vertex 5 which is not in the map\n" in out
        assert "phase 1:" not in out

    def test_trace_from_another_graph_is_an_error(self, tmp_path, capsys):
        _g8, trace = self.explored(tmp_path, "path:8")
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        header["root"] = 6
        trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        small = tmp_path / "small.json"
        invoke("gen", "--spec", "path:3", "--out", str(small))
        capsys.readouterr()
        assert invoke("check", "--graph", str(small), "--trace", str(trace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "root 6 out of range for n=3" in err

    def test_event_without_its_fields_is_an_error(self, tmp_path, capsys):
        g, trace = self.explored(tmp_path)
        header = trace.read_text().splitlines()[0]
        trace.write_text(header + '\n{"kind": "move"}\n')
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2" in err and "'out'" in err


# Each event kind's required fields and the JSON types they may hold; a
# dotted name is a field of the event's ball or delta object.
SCHEMA = {
    "header": {"version": (int,), "root": (int,), "budget": (int,)},
    "phase_start": {"phase": (int,)},
    "phase_end": {"phase": (int,), "delta": (dict,), "delta.n": (int,),
                  "delta.edges": (list,), "delta.cir": (dict,), "delta.vis": (dict,)},
    "sense": {"arrival": (int, type(None)), "ball": (dict,), "ball.size": (int,),
              "ball.edges": (list,)},
    "move": {"out": (int,), "in": (int,)},
    "budget_exhausted": {},
    "error_detected": {"reason": (str,)},
    "halt": {},
}
WRONG_VALUES = ["x", 1.5, True, None, 3, [], [1, 2], {}, {"a": 1}]


@cache
def valid_run(spec):
    """(graph JSON, trace lines) of one run; "+error" turns a halted run's
    last event into an error_detected one."""
    base = spec.removesuffix("+error")
    with tempfile.TemporaryDirectory() as d:
        g, trace = Path(d) / "g.json", Path(d) / "t.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["gen", "--spec", base, "--ports", "random:2", "--out", str(g)])
            main(["explore", "--graph", str(g), "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        if spec.endswith("+error"):
            lines[-1] = json.dumps({"kind": "error_detected", "reason": "map mismatch"})
        return g.read_text(), tuple(lines)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["path:5", "chordal:n=12,rate=0.5,seed=1", "cycle:4", "johnson:4,2+error"]),
    st.data(),
)
def test_damaged_event_fails_check_without_a_traceback(spec, data):
    graph_text, lines = valid_run(spec)
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line index")
    ev = json.loads(lines[index])
    field = data.draw(st.sampled_from(["kind", *SCHEMA[ev["kind"]]]), label="field")
    allowed = (str,) if field == "kind" else SCHEMA[ev["kind"]][field]
    *outer, name = field.split(".")
    owner = ev[outer[0]] if outer else ev
    if data.draw(st.booleans(), label="delete"):
        del owner[name]
    else:
        owner[name] = data.draw(
            st.sampled_from([v for v in WRONG_VALUES if type(v) not in allowed]), label="value"
        )
        if field == "kind":
            owner[name] = data.draw(st.sampled_from([owner[name], "jump", "Halt"]), label="kind")
    damaged = list(lines)
    damaged[index] = json.dumps(ev)
    with tempfile.TemporaryDirectory() as d:
        g, trace = Path(d) / "g.json", Path(d) / "t.jsonl"
        g.write_text(graph_text)
        trace.write_text("\n".join(damaged) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check", "--graph", str(g), "--trace", str(trace)])
    assert rc == 1
    assert err.getvalue().startswith("error: ")


# sha256 of `binox explore --root 0 --trace` (default budget) on graphs made
# with `binox gen --ports random:1`, as (v3 trace, the same trace rendered in
# the v2 form). Traces of a fixed run must stay byte for byte the same; a
# trace format change updates the first digest on purpose, and the second
# (pinned when v2 was current) shows the run itself did not change.
GOLDEN_TRACES = {
    "complete:20": (
        "e3b30e6150c9652e879f9d766c790636857c6435e62dd401c257445a46e3eb76",
        "78875882543f0348ff74abb327403fa63b7a50d6b26555e1fa0413640ed12ab4",
    ),
    "johnson:6,2": (
        "b17df6c32ee6a773d9d2db18b6b353506b31a478acee4b9ac6ecf3332c8bf8e4",
        "1468422ee56eebdb3b806ac0dad7e55ca15f6e633f3d7afbd791e21a8824c29e",
    ),
    "chordal:n=60,rate=0.4,seed=2": (
        "07893f338165c6182852134f47e19d1983f61dfef2039e2706c0ee9b4344179c",
        "70517ee9442d0f828290c6bc7278eeda174a0be3431ffb14e6b93eb648d349fb",
    ),
}


def as_v2(text):
    """A v3 trace written the v2 way: ball edges nested four to a list,
    default separators, version 2."""
    lines = []
    for ev in RunTrace.from_jsonl(text).events:
        if ev["kind"] == "header":
            ev = dict(ev, version=2)
        elif ev["kind"] == "sense":
            ev = dict(ev, ball={"size": ev["ball"].size, "edges": list(ev["ball"].edges)})
        lines.append(json.dumps(ev, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", sorted(GOLDEN_TRACES))
def test_explore_trace_is_byte_identical_to_the_pinned_one(tmp_path, capsys, spec):
    g = tmp_path / "g.json"
    trace = tmp_path / "t.jsonl"
    invoke("gen", "--spec", spec, "--ports", "random:1", "--out", str(g))
    assert invoke("explore", "--graph", str(g), "--root", "0", "--trace", str(trace)) == 0
    v3, v2 = GOLDEN_TRACES[spec]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == v3
    assert hashlib.sha256(as_v2(trace.read_text()).encode()).hexdigest() == v2


class TestSuite:
    def config(self, tmp_path, generators, **overrides):
        cfg = {
            "generators": generators,
            "roots": {"sample": 2, "seed": 0},
            "port_schemes": ["canonical", "random:7"],
            "budget_factor": 50,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_suite_writes_report_and_summary(self, tmp_path, capsys):
        cfg = self.config(tmp_path, ["chordal:n=15,rate=0.4,seed=1", "johnson:4,2"])
        rc = invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res"))
        assert rc == 0
        payload = json.loads((tmp_path / "res" / "report.json").read_text())
        assert len(payload["reports"]) == 2 * 2 * 2
        assert all(r["status"] == "halted" for r in payload["reports"])
        assert all(
            r["moves_per_vertex"] == r["moves"] / r["n"] for r in payload["reports"]
        )
        assert (tmp_path / "res" / "summary.txt").exists()

    def test_suite_is_byte_deterministic(self, tmp_path, capsys):
        cfg = self.config(tmp_path, ["tree:n=12,seed=4"])
        invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "r1"))
        invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "r2"))
        assert (tmp_path / "r1" / "report.json").read_bytes() == \
               (tmp_path / "r2" / "report.json").read_bytes()

    def test_summary_is_a_pure_function_of_the_reports(self, tmp_path, capsys):
        from binox.suite import RunReport, summarize

        cfg = self.config(tmp_path, ["chordal:n=15,rate=0.4,seed=2", "complete:5"])
        invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res"))
        payload = json.loads((tmp_path / "res" / "report.json").read_text())
        rebuilt = summarize([RunReport.from_json_dict(r) for r in payload["reports"]])
        stored = {
            k: {kk: vv for kk, vv in row.items()} for k, row in payload["summary"].items()
        }
        assert rebuilt == stored

    def test_config_out_field_used_when_no_flag(self, tmp_path, capsys):
        cfg_dict = {
            "generators": ["path:4"],
            "roots": {"sample": 1, "seed": 0},
            "out": str(tmp_path / "via_config"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_dict))
        assert invoke("suite", "--config", str(path)) == 0
        assert (tmp_path / "via_config" / "report.json").exists()

    @pytest.mark.parametrize("bad,message", [
        ({"checks": {"isomorphsm": True}}, "unknown checks ['isomorphsm']"),
        ({"check": {"coverage": True}}, "unknown keys ['check']"),
        ({"checks": ["coverage"]}, '"checks" must be an object'),
    ])
    def test_config_with_unknown_names_is_rejected(self, tmp_path, capsys, bad, message):
        cfg = self.config(tmp_path, ["path:4"], **bad)
        assert invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad config: ") and message in captured.err
        assert "runs" not in captured.out
        assert not (tmp_path / "res").exists()

    def test_cycles_suite_reports_non_halting(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path, ["cycle:5"],
            checks={"cluster_tree": False, "phase_invariants": True},
        )
        rc = invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res"))
        assert rc == 0  # non-halting is not a check failure; status says it
        payload = json.loads((tmp_path / "res" / "report.json").read_text())
        assert all(r["status"] == "budget_exhausted" for r in payload["reports"])


def test_console_entry_point_runs():
    r = subprocess.run(
        [sys.executable, "-m", "binox.cli", "gen", "--spec", "path:3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["n"] == 3
