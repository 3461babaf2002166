"""Command line surface: gen / explore / check / suite."""

import json
import subprocess
import sys

import pytest

from binox.cli import main


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


class TestCheckInputs:
    def explored(self, tmp_path, spec="path:5"):
        g = tmp_path / "g.json"
        trace = tmp_path / "t.jsonl"
        invoke("gen", "--spec", spec, "--out", str(g))
        invoke("explore", "--graph", str(g), "--trace", str(trace))
        return g, trace

    @pytest.mark.parametrize("damage,message", [
        (lambda lines: lines[1:], "missing header"),
        (lambda lines: [lines[0].replace('"version": 2', '"version": 1')] + lines[1:],
         "v1 trace, re-run explore"),
        (lambda lines: lines[:2] + ["not json"] + lines[2:], "not JSON"),
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
