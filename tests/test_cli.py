"""Command line surface: gen / explore / check / suite."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from base64 import b64decode, b64encode
from functools import cache
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import binox
from binox.cli import main
from binox.explorer import explore
from binox.families import _assign_ports
from binox.graph import PortNumberedGraph, load_graph, save_graph
from binox.runtime import TRACE_CHUNK, Environment, RunTrace
from binox.suite import DEFAULT_CHECKS, ExperimentConfig, move_budget, run_one, run_suite
from binox.verify import TraceReplay

from conftest import gen


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

    @pytest.mark.parametrize("spec", ["tree:seed=1", "chordal:rate=0.4"])
    def test_spec_without_n_fails(self, capsys, spec):
        assert invoke("gen", "--spec", spec) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"error: bad generator spec '{spec}': missing parameter 'n'\n"

    def test_repeated_spec_parameter_fails(self, capsys):
        assert invoke("gen", "--spec", "chordal:n=5,n=6") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad generator spec 'chordal:n=5,n=6': repeated parameter 'n'\n"

    def test_port_scheme_flag(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        invoke("gen", "--spec", "complete:5", "--out", str(a))
        invoke("gen", "--spec", "complete:5", "--ports", "random:3", "--out", str(b))
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("ports", ["random", "random:", "random:abc", "random:1:2", "random:01",
                                       "random:-1", "random:+1", "random: 1", "random:\u0661"])
    def test_port_scheme_outside_the_grammar_fails(self, capsys, ports):
        # exactly "canonical" or "random:SEED", SEED 0 or a decimal without a leading zero
        assert invoke("gen", "--spec", "path:3", "--ports", ports) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad generator spec 'path:3': unknown port scheme {ports!r}\n"


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
        assert set(snap) == {"n", "edges"} and snap["n"] == 20
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

    @pytest.mark.parametrize("root", [-1, 5])
    def test_explore_root_out_of_range_is_an_error(self, tmp_path, capsys, root):
        g = tmp_path / "g.json"
        invoke("gen", "--spec", "path:5", "--out", str(g))
        capsys.readouterr()
        assert invoke("explore", "--graph", str(g), "--root", str(root)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: root {root} out of range for n=5\n" and captured.out == ""

    def test_check_rejects_unknown_names(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", "path:3", "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        assert invoke("check", "--graph", str(g), "--trace", str(trace),
                      "--checks", "bogus") == 1

    @pytest.mark.parametrize("factor", ["nan", "inf", "1e308", "-1", "0"])
    def test_budget_factor_that_gives_no_budget_is_an_error(self, tmp_path, capsys, factor):
        # 1e308 is finite, but times 5 vertices it is not
        g = tmp_path / "g.json"
        invoke("gen", "--spec", "path:5", "--out", str(g))
        capsys.readouterr()
        assert invoke("explore", "--graph", str(g), f"--budget-factor={factor}") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: budget factor {float(factor)!r} gives no move budget on 5 vertices\n"
        assert captured.out == ""

    @pytest.mark.parametrize("names", [",", " ", " , ", ""])
    def test_check_list_that_names_no_check_is_an_error(self, tmp_path, capsys, names):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", "path:3", "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace), "--checks", names) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --checks names no check\n" and captured.out == ""

    def test_invalid_graph_file_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "edges": [[0, 1, 0, 0], [0, 2, 0, 0]]}))
        assert invoke("explore", "--graph", str(bad)) == 1
        assert "port injectivity" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"n": 2, "edges": [[0, 1, true, false]]}', "edges[0]: expected 4 integers, got [0, 1, True, False]"),
        ('{"n": true, "edges": []}', '"n" must be a non-negative integer'),
    ], ids=["port", "n"])
    @pytest.mark.parametrize("command", ["explore", "check"])
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, command, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"budget":1,"kind":"header","root":0,"version":5}\n')
        extra = ["--trace", str(trace)] if command == "check" else []
        assert invoke(command, "--graph", str(bad), *extra) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}:\n{message}\n" and captured.out == ""

    @pytest.mark.parametrize("labels", [{"0": "a", "1": 7}, [1], "a", None],
                             ids=["object", "list", "string", "null"])
    def test_labels_are_not_read(self, tmp_path, capsys, labels):
        # the loader reads only "n" and "edges"
        d = gen("chordal:n=12,rate=0.4,seed=1", "random:1").to_json_dict()
        plain, labelled = tmp_path / "plain.json", tmp_path / "labelled.json"
        plain.write_text(json.dumps(d))
        labelled.write_text(json.dumps({**d, "labels": labels}))
        assert load_graph(labelled).to_json() == load_graph(plain).to_json()
        assert invoke("explore", "--graph", str(labelled)) == 0
        assert capsys.readouterr().err == ""


# JSON nested deeper than any decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["explore", "check"])
@pytest.mark.parametrize("text,message", [
    ('{"n": ' + "1" * 5000 + ', "edges": []}', "not valid JSON: "),  # more digits than int() takes
    ("\udcff", "not valid JSON: "),  # not UTF-8 once written
    (None, "cannot read: "),  # no such file
    pytest.param(DEEP, "not valid JSON: maximum recursion depth exceeded", id="deep nesting"),
])
def test_unreadable_graph_file_is_an_error_not_a_traceback(tmp_path, capsys, command, text, message):
    g = tmp_path / "g.json"
    if text is not None:
        g.write_bytes(text.encode("utf-8", "surrogateescape"))
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"budget":1,"kind":"header","root":0,"version":5}\n')
    extra = ["--trace", str(trace)] if command == "check" else []
    assert invoke(command, "--graph", str(g), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {g}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("args,text,message", [
    (["explore", "--graph", "{x}"], "[]", "{x}:\ngraph file must contain a JSON object"),
    (["suite", "--config", "{x}"], "[]", "bad config: config must be a JSON object"),
    (["check", "--graph", "{g}", "--trace", "{x}"],
     '{"budget":1,"kind":"header","root":0,"version":5}\n[]', "{x}: line 2: expected a JSON object"),
], ids=["graph file", "suite config", "trace line"])
def test_json_that_is_not_an_object_is_an_error(tmp_path, capsys, args, text, message):
    g, x = tmp_path / "g.json", tmp_path / "x.json"
    invoke("gen", "--spec", "path:3", "--out", str(g))
    x.write_text(text + "\n")
    capsys.readouterr()
    assert invoke(*(a.format(g=g, x=x) for a in args)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(x=x)}\n" and captured.out == ""


def add_delta_edge(line, edge):
    ev = json.loads(line)
    ev["delta"]["edges"].append(edge)
    return json.dumps(ev)


# Runs the CLI in a process whose address space is capped at 1 GiB, so a
# loader that allocated per vertex of a forged count would fail there with a
# MemoryError instead of taking the machine's memory.
CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from binox.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_capped(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(binox.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestHugeVertexCounts:
    def test_graph_with_more_vertices_than_its_edges_connect(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 10**12, "edges": []}))
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"budget":1,"kind":"header","root":0,"version":5}\n')
        for args in (("explore", "--graph", str(g)), ("check", "--graph", str(g), "--trace", str(trace))):
            r = run_capped(*args)
            assert r.returncode == 1, r.stderr
            assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
            assert '"n" is 1000000000000, but 0 edges connect at most 1 vertices' in r.stderr

    @pytest.mark.parametrize("which,message", [
        (0, "line 4: malformed phase_end event: n=1000000000000 adds 1000000000000 vertices "
            "to the 0 of the map so far, but at most 2 come with the delta's edges"),
        (1, "line 8: malformed phase_end event: n=1000000000000 adds 999999999998 vertices "
            "to the 2 of the map so far, but at most 1 come with the delta's edges"),
    ])
    def test_delta_that_grows_the_map_past_its_edges(self, tmp_path, which, message):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", "path:5", "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        lines = trace.read_text().splitlines()
        at = [i for i, line in enumerate(lines) if '"kind":"phase_end"' in line][which]
        ev = json.loads(lines[at])
        ev["delta"]["n"] = 10**12
        lines[at] = json.dumps(ev)
        trace.write_text("\n".join(lines) + "\n")
        r = run_capped("check", "--graph", str(g), "--trace", str(trace))
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        assert message in r.stderr


class PastFirstChunk:
    """Damage to a trace of 7,496 lines: ``line`` put in at line ``LINE``,
    in the reader's second chunk. A lone surrogate in ``line`` is written
    as the byte it escapes."""

    spec = "tree:n=1500,seed=1"
    LINE = TRACE_CHUNK + 500

    def __init__(self, line):
        self.line = line

    def __call__(self, lines):
        return lines[:self.LINE - 1] + [self.line] + lines[self.LINE - 1:]


class TestCheckInputs:
    def explored(self, tmp_path, spec="path:5"):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", spec, "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        return g, trace

    @pytest.mark.parametrize("damage,message", [
        (lambda lines: lines[1:], "missing header"),
        (lambda lines: [lines[0].replace('"version":5', '"version":1')] + lines[1:],
         "v1 trace, re-run explore"),
        (lambda lines: [lines[0].replace('"version":5', '"version":4')] + lines[1:],
         "v4 trace, re-run explore"),
        (lambda lines: lines[:2] + ["not json"] + lines[2:], "not JSON"),
        (lambda lines: lines[:2] + ['{"kind":"move","out":' + "1" * 5000 + ',"in":0}'] + lines[2:],
         "line 3: not JSON: Exceeds the limit"),
        # path:5: line 2 starts phase 1, line 5 phase 2, line 21 is the halt
        (lambda lines: lines[:1] + lines[2:], "line 2: sense event outside a phase"),
        (lambda lines: lines[:4] + lines[5:], "line 5: move event outside a phase"),
        (lambda lines: lines[:-1] + ['{"kind":"budget_exhausted"}'] + lines[-1:],
         "line 22: second terminal event: halt after budget_exhausted"),
        (lambda lines: lines[:-2] + lines[-1:], "line 20: halt while phase 5 is open"),
        (lambda lines: lines[:7] + [add_delta_edge(lines[7], [0, 40, 0, 0])] + lines[8:],
         "line 8: malformed phase_end event: edge [0, 40, 0, 0] is not [a, b, portAtA, portAtB] "
         "in a map of 3 vertices"),
        (lambda lines: lines[:7] + [add_delta_edge(lines[7], [0, 1, -3, 7])] + lines[8:],
         "line 8: malformed phase_end event: edge [0, 1, -3, 7] is not [a, b, portAtA, portAtB] "
         "in a map of 3 vertices, with ports >= 0"),
        # phase 1 senses the homebase and ends with an empty map
        (lambda lines: lines[:3] + ['{"delta":{"edges":[],"n":0},"kind":"phase_end","phase":1}',
                                    lines[-1]],
         "line 4: malformed phase_end event: n=0: a map of 0 vertices lacks the homebase"),
        # past the reader's first chunk, once the checker has replayed it
        (PastFirstChunk("not json"), f"line {PastFirstChunk.LINE}: not JSON"),
        (PastFirstChunk('{"in":0,"kind":"move","out":"1"}'),
         f"line {PastFirstChunk.LINE}: move event field 'out' is str, expected int"),
        (PastFirstChunk('{"budget":1,"kind":"header","root":0,"version":5}'),
         f"line {PastFirstChunk.LINE}: second header"),
        (PastFirstChunk('{"in":0,"kind":"move","out":1}\udcff'),
         f"line {PastFirstChunk.LINE}: not a text file: 'utf-8' codec can't decode byte 0xff"),
        pytest.param(lambda lines: lines[:2] + [DEEP] + lines[2:],
                     "line 3: not JSON: maximum recursion depth exceeded", id="deep nesting"),
    ])
    def test_malformed_trace_is_an_error_not_a_traceback(self, tmp_path, capsys, damage, message):
        g, trace = self.explored(tmp_path, getattr(damage, "spec", "path:5"))
        trace.write_text("\n".join(damage(trace.read_text().splitlines())) + "\n",
                         errors="surrogateescape")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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

    def test_delta_edge_repeated_in_a_later_phase_fails_phase_invariants(self, tmp_path, capsys):
        # The explorer logs each edge once; phase 2 logs phase 1's first edge again.
        g, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
        invoke("gen", "--spec", "johnson:10,3", "--ports", "random:1", "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        lines = trace.read_text().splitlines()
        ends = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "phase_end"]
        edge = json.loads(lines[ends[0]])["delta"]["edges"][0]
        lines[ends[1]] = add_delta_edge(lines[ends[1]], edge)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace),
                      "--checks", ",".join(DEFAULT_CHECKS)) == 1
        out = capsys.readouterr().out
        assert "status=halted" in out and "phase_invariants: FAIL" in out
        for name in ("final_isomorphism", "coverage", "cluster_tree", "covering"):
            assert f"{name}: pass" in out
        a, b, pa, pb = edge
        assert f"phase 2: delta edge {a}-{b} ({pa},{pb}) refused: already in the map" in out

    def test_repeated_edge_in_a_sense_ball_is_an_error(self, tmp_path, capsys):
        # complete:4: the last ball lists edge (2, 3) twice, (1, 3) not at all,
        # so its edge count still matches the ground ball's
        g, trace = self.explored(tmp_path, "complete:4")
        lines = trace.read_text().splitlines()
        i = max(i for i, line in enumerate(lines) if '"kind":"sense"' in line)
        last = json.loads(lines[i])
        flat = list(b64decode(last["ball"]["edges"]))
        edges = [flat[k:k + 4] for k in range(0, len(flat), 4)]
        assert [1, 3, 0, 1] in edges and [2, 3, 0, 0] in edges
        edges[edges.index([1, 3, 0, 1])] = [2, 3, 0, 0]
        last["ball"]["edges"] = b64encode(bytes(x for e in edges for x in e)).decode()
        lines[i] = json.dumps(last, sort_keys=True, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"line {i + 1}: malformed sense event: ball edges: edge (2, 3) is listed twice" in err

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

    @pytest.mark.parametrize("checks", [[], ["--checks", "phase_invariants,cluster_tree"]])
    @pytest.mark.parametrize("terminal", [
        '{"kind":"halt"}', '{"kind":"budget_exhausted"}', '{"kind":"error_detected","reason":"x"}',
    ])
    def test_trace_with_no_phase_is_an_error(self, tmp_path, capsys, checks, terminal):
        # no map to check: neither a traceback nor a pass
        g, trace = self.explored(tmp_path, "complete:4")
        trace.write_text('{"kind":"header","version":5,"root":0,"budget":100}\n' + terminal + "\n")
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace), *checks) == 1
        captured = capsys.readouterr()
        kind = terminal.split('"')[3]
        assert captured.err.endswith(f"line 2: {kind} before the first phase_start\n")
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "pass" not in captured.out

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

    def test_blank_lines_in_a_trace_are_skipped(self, tmp_path, capsys):
        g, trace = self.explored(tmp_path)
        capsys.readouterr()
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 0
        plain = capsys.readouterr()
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n")
        assert invoke("check", "--graph", str(g), "--trace", str(trace)) == 0
        assert capsys.readouterr() == plain

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
                  "delta.edges": (list,)},
    "sense": {"arrival": (int, type(None)), "ball": (dict,), "ball.size": (int,),
              "ball.edges": (list, str)},
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


def run_on_files(command, graph_text, lines):
    """(exit code, stderr) of ``binox explore`` or ``binox check`` on these
    files (``explore`` does not read the trace)."""
    with tempfile.TemporaryDirectory() as d:
        g, trace = Path(d) / "g.json", Path(d) / "t.jsonl"
        g.write_text(graph_text)
        trace.write_text("\n".join(lines) + "\n")
        args = ["--graph", str(g)] + (["--trace", str(trace)] if command == "check" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, *args])
    return rc, err.getvalue()


FUZZ_CHARS = st.sampled_from(list('AZaz09+/=",:{}[]\\ -_.ne\u00e9\t'))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["path:5", "chordal:n=12,rate=0.5,seed=1", "johnson:4,2", "complete:6"]),
    st.data(),
)
def test_fuzzed_sense_and_delta_lines_end_in_exit_0_or_1(spec, data):
    graph_text, lines = valid_run(spec)
    targets = [i for i, line in enumerate(lines) if '"kind":"sense"' in line or '"kind":"phase_end"' in line]
    damaged = list(lines)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.sampled_from(targets), label="line index")
        line = damaged[i]
        at = data.draw(st.integers(0, len(line)), label="position")
        op = data.draw(st.sampled_from(["flip", "drop", "insert"]), label="edit")
        new = "" if op == "drop" else data.draw(FUZZ_CHARS, label="character")
        damaged[i] = line[:at] + new + line[at + (op != "insert"):]
    rc, err = run_on_files("check", graph_text, damaged)
    assert rc in (0, 1)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["path:5", "chordal:n=12,rate=0.5,seed=1", "johnson:4,2", "cycle:4"]),
    st.sampled_from(["explore", "check"]),
    st.data(),
)
def test_fuzzed_graph_file_ends_in_exit_0_1_or_2(spec, command, data):
    graph_text, lines = valid_run(spec)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(graph_text)), label="position")
        op = data.draw(st.sampled_from(["flip", "drop", "insert"]), label="edit")
        new = "" if op == "drop" else data.draw(FUZZ_CHARS, label="character")
        graph_text = graph_text[:at] + new + graph_text[at + (op != "insert"):]
    rc, err = run_on_files(command, graph_text, lines)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


# sha256 of `binox explore --root 0 --trace` (default budget) on graphs made
# with `binox gen --ports random:1`, as (v5 trace, the same trace rendered in
# the v2 form). Traces of a fixed run must stay byte for byte the same; a
# trace format change updates the first digest on purpose, and the second
# (pinned when v2 was current) shows the run itself did not change.
GOLDEN_TRACES = {
    "complete:20": (
        "859b0de5f99916127efca6b5ff199baf08abc12e14ff491346a95ce0ce2c22be",
        "78875882543f0348ff74abb327403fa63b7a50d6b26555e1fa0413640ed12ab4",
    ),
    "johnson:6,2": (
        "27b2bc0cde8cc043021d4bcceb1a376c5b0c191efed03c3175a97116374b1c97",
        "1468422ee56eebdb3b806ac0dad7e55ca15f6e633f3d7afbd791e21a8824c29e",
    ),
    "chordal:n=60,rate=0.4,seed=2": (
        "aa6959fc9fe9baaabbd14228822c08d38926d85b2f8d4aca98e79bfb610dbf29",
        "70517ee9442d0f828290c6bc7278eeda174a0be3431ffb14e6b93eb648d349fb",
    ),
}


def as_v2(text, g):
    """A v5 trace written the v2 way: ball edges nested four to a list,
    default separators, version 2, and each delta with the two tables v2
    logged and v5 dropped, rebuilt from the trace. ``vis`` holds the phase
    of the vertices first sensed in it (the sense replay) and null for the
    phase's new vertices; ``cir`` numbers the connected groups of new
    vertices, in order of their smallest id, after the homebase's cluster
    0."""
    trace = RunTrace.from_jsonl(text)
    first = TraceReplay(trace.events, g).first
    clusters, old_n = 0, 0
    lines = []
    for ev in trace.events:
        if ev["kind"] == "header":
            ev = dict(ev, version=2)
        elif ev["kind"] == "sense":
            ev = dict(ev, ball={"size": ev["ball"].size, "edges": list(ev["ball"].edges)})
        elif ev["kind"] == "phase_end":
            delta, new = ev["delta"], range(old_n or 1, ev["delta"]["n"])
            vis = {v: ph for v, (ph, _u) in first.items() if ph == ev["phase"]}
            vis.update((v, None) for v in new)
            group = {v: {v} for v in new}
            for (a, b, _pa, _pb) in delta["edges"]:
                if a in group and b in group:
                    merged = group[a] | group[b]
                    group.update((x, merged) for x in merged)
            cir = {} if old_n else {0: 0}
            for v in new:
                if v == min(group[v]):
                    clusters += 1
                    cir.update((x, clusters) for x in group[v])
            ev = dict(ev, delta=dict(delta, cir=cir, vis=vis))
            old_n = delta["n"]
        lines.append(json.dumps(ev, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", sorted(GOLDEN_TRACES))
def test_explore_trace_is_byte_identical_to_the_pinned_one(tmp_path, capsys, spec):
    g = tmp_path / "g.json"
    trace = tmp_path / "t.jsonl"
    invoke("gen", "--spec", spec, "--ports", "random:1", "--out", str(g))
    assert invoke("explore", "--graph", str(g), "--root", "0", "--trace", str(trace)) == 0
    v5, v2 = GOLDEN_TRACES[spec]
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == v5
    rendered = as_v2(trace.read_text(), load_graph(g))
    assert hashlib.sha256(rendered.encode()).hexdigest() == v2


# sha256 of the same kind of run on johnson:5,2 with 300 added to the first
# port and 7 to the second of every edge of the generated graph: every sense
# ball then holds a port from 256 on and is written as a list, not packed.
WIDE_PORTS_TRACE = "d1880e09ab6db787a48525c11046dae48b54ee2d6ef8b74d409e63f59cf0a1cf"


def test_list_form_trace_is_byte_identical_to_the_pinned_one(tmp_path, capsys):
    g = tmp_path / "g.json"
    trace = tmp_path / "t.jsonl"
    invoke("gen", "--spec", "johnson:5,2", "--ports", "random:1", "--out", str(g))
    data = json.loads(g.read_text())
    data["edges"] = [[u, v, pu + 300, pv + 7] for (u, v, pu, pv) in data["edges"]]
    g.write_text(json.dumps(data))
    assert invoke("explore", "--graph", str(g), "--root", "0", "--trace", str(trace)) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == WIDE_PORTS_TRACE
    senses = [ev for ev in map(json.loads, trace.read_text().splitlines()) if ev["kind"] == "sense"]
    assert senses and all(type(ev["ball"]["edges"]) is list for ev in senses)
    capsys.readouterr()
    assert invoke("check", "--graph", str(g), "--trace", str(trace),
                  "--checks", ",".join(DEFAULT_CHECKS)) == 0
    out = capsys.readouterr().out
    assert all(f"{name}: pass" in out for name in DEFAULT_CHECKS) and len(DEFAULT_CHECKS) == 5


@pytest.mark.parametrize("args,path", [
    (["gen", "--spec", "path:3", "--out", "{dir}/nodir/g.json"], "nodir/g.json"),
    (["explore", "--graph", "{g}", "--trace", "{dir}/nodir/t.jsonl"], "nodir/t.jsonl"),
    (["explore", "--graph", "{g}", "--map", "{dir}/nodir/m.json"], "nodir/m.json"),
    (["suite", "--config", "{cfg}", "--out", "{g}/res"], "g.json/res"),  # a path under a file
], ids=["gen --out", "explore --trace", "explore --map", "suite --out"])
def test_unwritable_output_path_is_an_error_not_a_traceback(tmp_path, capsys, args, path):
    g, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    invoke("gen", "--spec", "path:3", "--out", str(g))
    cfg.write_text(json.dumps({"generators": ["path:3"]}))
    capsys.readouterr()
    assert invoke(*(a.format(dir=tmp_path, g=g, cfg=cfg) for a in args)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{tmp_path}/{path}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def atlas_g184():
    """Graph 184 of the networkx atlas (6 vertices), each vertex's ports
    numbered in the order of its neighbours, edges in sorted order."""
    pairs = sorted(tuple(sorted(e)) for e in nx.graph_atlas(184).edges())
    return PortNumberedGraph(6, _assign_ports(6, pairs, "canonical"))


# The last column is the trace's sha256: runs that end on the budget and
# error paths, which GOLDEN_TRACES does not pin.
@pytest.mark.parametrize("make,root,status,events,digest", [
    (lambda: gen("cycle:7"), 0, "budget_exhausted", 1406,
     "aa6352067252c2ceb7d56eefa2b136ab8f3e80cd1b1d97f82641c9f489f16f7e"),
    (atlas_g184, 4, "error_detected", 18,
     "8247cad6e2c0d96b52b445cff1c6b80f7adad0e14ee41b0b4bf045b8f32dbe85"),
    (lambda: gen("tree:n=1500,seed=1"), 0, "halted", 7496,
     "c180335afd52a2453c340de07aed4a2786162e147cba9c3725a9e54d0810bfe9"),
], ids=["cycle:7", "atlas G184", "tree:n=1500"])
def test_explore_trace_file_is_the_in_memory_trace(tmp_path, capsys, make, root, status, events,
                                                    digest):
    # explore writes its trace as the run goes on, TRACE_CHUNK events at a
    # time; however the run ends, the file is the whole trace
    g = make()
    graph, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
    save_graph(g, graph)
    rc = invoke("explore", "--graph", str(graph), "--root", str(root), "--trace", str(trace))
    assert rc == (0 if status == "halted" else 2)
    out = explore(Environment(g, root, move_budget(50.0, g.n)))
    assert (out.status, len(out.trace.events)) == (status, events)
    assert trace.read_text() == out.trace.to_jsonl()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


# sha256 of the report.json that run_suite writes for a small config shaped
# like the benchmark's corpus: halted runs on four families and budget runs on
# a cycle control, under two port schemes, every check on. A report of a
# fixed config must stay byte for byte the same.
SUITE_REPORT_CONFIG = {
    "generators": ["chordal:n=25,rate=0.4,seed=1", "chordal:n=25,rate=0.4,seed=2", "johnson:4,2",
                   "complete:10", "tree:n=30,seed=1", "cycle:6"],
    "roots": {"sample": 2, "seed": 1},
    "port_schemes": ["canonical", "random:1"],
    "budget_factor": 50,
    "checks": {name: True for name in DEFAULT_CHECKS},
}
SUITE_REPORT = "1d92e824fccc81a5ffd486e0317a99d339a693fd9bacbfcd9d9c7e7e099e841b"


def test_suite_report_is_byte_identical_to_the_pinned_one(tmp_path):
    reports, _ = run_suite(ExperimentConfig.from_json_dict(SUITE_REPORT_CONFIG), out_dir=tmp_path)
    assert len(reports) == 24
    assert {r.status for r in reports} == {"halted", "budget_exhausted"}
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == SUITE_REPORT


CLUSTER_TREE_RUNS = {
    "halted": ("chordal:n=30,rate=0.4,seed=2", "halted", 0),
    "budget exhausted": ("cycle:7", "budget_exhausted", 1),
    "cut before its terminal event": ("chordal:n=30,rate=0.4,seed=2", "incomplete", 1),
}


@pytest.mark.parametrize("run", sorted(CLUSTER_TREE_RUNS))
def test_cluster_tree_alone_gives_the_verdict_of_all_five_checks(tmp_path, capsys, run):
    spec, status, code = CLUSTER_TREE_RUNS[run]
    g, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
    invoke("gen", "--spec", spec, "--ports", "random:1", "--out", str(g))
    invoke("explore", "--graph", str(g), "--budget-factor", "10", "--trace", str(trace))
    if status == "incomplete":
        trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    outs = []
    for checks in ("cluster_tree", ",".join(DEFAULT_CHECKS)):
        assert invoke("check", "--graph", str(g), "--trace", str(trace), "--checks", checks) == code
        outs.append(capsys.readouterr().out.splitlines())
    alone, every = outs
    assert alone[0] == every[0] == f"status={status}"
    assert alone[1:] == [line for line in every if line.startswith("cluster_tree: ")
                         or line.startswith("  clusters of ")]
    assert alone[1] == f"cluster_tree: {'FAIL' if spec == 'cycle:7' else 'pass'}"


@pytest.mark.parametrize("spec", ["chordal:n=30,rate=0.4,seed=2", "cycle:7"])
def test_cluster_tree_alone_in_run_one(spec):
    g = gen(spec, "random:1")
    alone, _ = run_one(g, spec, "random:1", 0, 10.0, {"cluster_tree": True})
    every, _ = run_one(g, spec, "random:1", 0, 10.0, dict.fromkeys(DEFAULT_CHECKS, True))
    assert alone.status == every.status
    assert alone.checks == {"cluster_tree": every.checks["cluster_tree"]}
    assert alone.problems == [p for p in every.problems if p.startswith("clusters of ")]


BAD_ROOTS = '"roots" must be "all" or {"sample": k, "seed": s}, k and s integers >= 0'


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
        rebuilt = summarize([RunReport(**r) for r in payload["reports"]])
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

    @pytest.mark.parametrize("checks,expected", [
        (None, DEFAULT_CHECKS),
        ({"covering": False}, DEFAULT_CHECKS[:4]),
        ({"covering": True, "coverage": False, "cluster_tree": False},
         ("phase_invariants", "final_isomorphism", "covering")),
    ], ids=["no checks key", "covering off", "two off"])
    def test_suite_runs_every_check_not_switched_off(self, tmp_path, capsys, checks, expected):
        # the set ``binox check`` runs without --checks
        cfg = self.config(tmp_path, ["chordal:n=8,rate=0.4,seed=1"],
                          **({} if checks is None else {"checks": checks}))
        assert invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res")) == 0
        reports = json.loads((tmp_path / "res" / "report.json").read_text())["reports"]
        assert [sorted(r["checks"]) for r in reports] == [sorted(expected)] * 4
        assert all(all(r["checks"].values()) for r in reports)

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

    @pytest.mark.parametrize("bad,message", [
        ({"checks": {"coverage": "yes"}}, '"checks" values must be true or false'),
        ({"generators": 5}, '"generators" must be a list of strings'),
        ({"budget_factor": None}, '"budget_factor" must be a positive number'),
        ({"roots": {"sample": "a"}}, BAD_ROOTS),
        ({"roots": 7}, BAD_ROOTS),
        ({"generators": ["nope:3"]}, "unknown family in generator spec 'nope:3'"),
        ({"port_schemes": ["weird"]}, "bad generator spec 'path:4': unknown port scheme 'weird'"),
        ({"generators": ["path:0"]}, "bad generator spec 'path:0': path: n must be positive, got 0"),
        ({"out": 5}, '"out" must be a path or null'),
        pytest.param('{"generators": ' + DEEP + "}", "maximum recursion depth exceeded while "
                     "decoding a JSON array from a unicode string", id="deep nesting"),
    ])
    def test_malformed_config_is_rejected_before_any_run(self, tmp_path, capsys, bad, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(bad if isinstance(bad, str) else json.dumps({"generators": ["path:4"], **bad}))
        assert invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad config: {message}\n"
        assert captured.out == "" and not (tmp_path / "res").exists()

    @pytest.mark.parametrize("out", ["{g}/res", "{g}"], ids=["under a file", "a file"])
    def test_out_that_cannot_be_a_directory_fails_before_any_run(self, tmp_path, capsys,
                                                                 monkeypatch, out):
        g = tmp_path / "g.json"
        g.write_text("{}")
        cfg = self.config(tmp_path, ["path:4"])
        runs = []
        monkeypatch.setattr(binox.suite, "run_one", lambda *args: runs.append(args))
        assert invoke("suite", "--config", str(cfg), "--out", out.format(g=g)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 20] Not a directory: '{out.format(g=g)}'\n"
        assert captured.out == "" and runs == []

    def test_budget_factor_that_overflows_on_a_graph_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generators": ["path:4"], "budget_factor": 1e308}))
        assert invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res")) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: budget factor 1e+308 gives no move budget on 4 vertices\n"
        assert captured.out == "" and not (tmp_path / "res").exists()

    def test_cycles_suite_reports_non_halting(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path, ["cycle:5"],
            checks={"cluster_tree": False, "phase_invariants": True},
        )
        rc = invoke("suite", "--config", str(cfg), "--out", str(tmp_path / "res"))
        assert rc == 0  # non-halting is not a check failure; status says it
        payload = json.loads((tmp_path / "res" / "report.json").read_text())
        assert all(r["status"] == "budget_exhausted" for r in payload["reports"])


# A valid suite config of tiny graphs that halt whatever the budget (no
# cycles), and values to put in its place: wrong types, NaN, infinities,
# huge and tiny numbers, and names good and bad.
SUITE_CONFIG = {
    "generators": ["path:3", "complete:3"],
    "roots": {"sample": 1, "seed": 0},
    "port_schemes": ["canonical", "random:2"],
    "budget_factor": 5,
    "checks": {"covering": True},
}
SUITE_NAMES = st.sampled_from(
    ["path:1", "path:4", "complete:4", "johnson:4,2", "path:0", "nope:3", "complete:", "path:x",
     "canonical", "random:3", "random:", "random:-1", "random:99999999999999999999", "weird", "all"]
    + list(SUITE_CONFIG) + ["phase_invariants", "final_isomorphism", "coverage", "sample", "seed"]
)
SUITE_SCALARS = (
    st.sampled_from([1e308, -1e308, 5e-324, float("nan"), float("inf"), -1, 0, 10**30])
    | st.none() | st.booleans() | st.integers(-3, 10**30) | st.floats() | SUITE_NAMES
)
SUITE_VALUES = st.recursive(
    SUITE_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SUITE_NAMES, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_suite_config_ends_in_exit_0_or_1(data):
    cfg = json.loads(json.dumps(SUITE_CONFIG))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        key = data.draw(st.sampled_from(sorted(SUITE_CONFIG) + ["extra"]), label="key")
        where = cfg.get(key)
        op = data.draw(st.sampled_from(["scalar", "value", "delete", "inner"]), label="edit")
        if op == "delete":
            cfg.pop(key, None)
        elif op == "inner" and isinstance(where, list) and where:
            where[data.draw(st.integers(0, len(where) - 1), label="index")] = data.draw(
                SUITE_VALUES, label="item")
        elif op == "inner" and isinstance(where, dict):
            where[data.draw(SUITE_NAMES, label="name")] = data.draw(SUITE_VALUES, label="item")
        else:
            cfg[key] = data.draw(SUITE_SCALARS if op == "scalar" else SUITE_VALUES, label="value")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["suite", "--config", str(path), "--out", str(Path(d) / "res")])
    assert rc == 0 or rc == 1 and (err.getvalue().startswith("error: ")
                                   or "with failing checks" in out.getvalue())


def test_console_entry_point_runs():
    r = subprocess.run(
        [sys.executable, "-m", "binox.cli", "gen", "--spec", "path:3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["n"] == 3


def test_public_surface_is_pinned():
    # A name added to or dropped from ``binox`` must show up here.
    assert set(binox.__all__) == {
        # modules
        "explorer", "families", "graph", "homotopy", "runtime", "suite", "verify",
        # binox.explorer
        "ClusterExplorer", "ExplorationMap", "ExplorerInvariantError",
        "MapUpdateError", "PhaseLedger", "PortCollisionError", "explore",
        # binox.families
        "GeneratorSpec", "condition_failure", "generate", "parse_spec",
        # binox.graph
        "Ball", "GraphFormatError", "PortNumberedGraph", "ball", "cluster_decomposition",
        "component", "layering", "load_graph", "save_graph", "validate",
        # binox.homotopy
        "verify_simplicial_covering",
        # binox.runtime
        "BudgetExhaustedError", "Environment", "ExplorationError", "NoSuchPortError",
        "Observation", "RunOutcome", "RunTrace", "TraceFormatError", "run_agent",
        # binox.suite
        "ExperimentConfig", "RunReport", "run_one", "run_suite",
        # binox.verify
        "verify_rooted_isomorphism",
    }


def test_package_has_no_assert_statements():
    # Consistency checks must hold under ``python -O``, which strips asserts.
    found = []
    for path in sorted(Path(binox.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# Public functions and methods that nothing in ``src/binox`` names, each with
# the reason it stays. An entry leaves this list when its reason goes.
UNCALLED_API = {
    # perfbench's ``tracer.METHODS`` binds them
    "Ball.signature", "Ball.relabel", "ExplorationMap.local_ball", "ExplorationMap.snapshot",
    "RunTrace.to_jsonl", "RunTrace.from_jsonl",
    # ROADMAP item 4 plans its caller: the conditions at each run's root
    "condition_failure",
}


def uncalled_functions(private):
    """The module-level functions and methods of ``src/binox``, private
    (named with a leading "_", dunder methods excepted) or public, that no
    ``ast.Name`` or ``ast.Attribute`` outside their own definition and
    ``__init__.py`` names."""
    defs, names = [], []
    for path in sorted(Path(binox.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.name.startswith("_") == private
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                    qualified = f"{node.name}.{fn.name}" if fn is not node else fn.name
                    defs.append((qualified, fn.name, set(ast.walk(fn))))
        names += [(x.id if isinstance(x, ast.Name) else x.attr, x)
                  for x in ast.walk(tree) if isinstance(x, (ast.Name, ast.Attribute))]
    return {qualified for qualified, name, own in defs
            if not any(n == name and x not in own for n, x in names)}


def test_public_api_has_a_caller_in_the_package():
    assert uncalled_functions(private=False) == UNCALLED_API


def test_private_helpers_have_a_caller_in_the_package():
    # No allowlist: a helper whose last caller goes, goes with it.
    assert uncalled_functions(private=True) == set()
