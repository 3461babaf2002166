"""Tests of the benchmark itself, on tiny job lists.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads
from workloads import Job, JobResult, PassResult, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY_CLI = [
    Job("tree:n=12,seed=3", "random:3", "halt", 12),
    Job("chordal:n=24,rate=0.4,seed=3", "random:3", "halt", 24),
    Job("cycle:6", "canonical", "nonhalt", 6),
]


FULL_CORPUS = workloads.corpus_config


def tiny_corpus(seed):
    config = FULL_CORPUS(seed)
    config["generators"] = [f"chordal:n=12,rate=0.4,seed={seed}", "complete:6", "cycle:6"]
    config["roots"]["sample"] = 2
    return config


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small graphs."""
    monkeypatch.setattr(workloads, "thin_jobs", lambda seed: list(TINY_CLI))
    monkeypatch.setattr(workloads, "corpus_config", tiny_corpus)
    monkeypatch.setitem(workloads.GROWTH_SIZES, "thin", (12, 24))
    monkeypatch.setitem(workloads.GROWTH_SIZES, "corpus", (6, 12))
    monkeypatch.setattr(run, "SETUP_REPS", 2)


def run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", ["thin", "corpus"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    out, result = run_main(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} = {got['value']!r} {m['unit']}" in out


def test_wrong_expectation_counts_as_failed(tmp_path, tiny):
    wl = Workload("thin", 3, tmp_path)
    wl.jobs = [Job("path:6", "canonical", "nonhalt", 6)] + list(TINY_CLI)
    wl.setup()
    result = wl.run_pass()
    assert [j.ok for j in result.jobs] == [False, True, True, True]
    assert result.jobs[0].status == "halted"
    assert len(run.count_failures([result], result)) == 1


def test_wrong_expectation_in_corpus_counts_as_failed(tmp_path, tiny, monkeypatch):
    monkeypatch.setattr(workloads, "expectation", lambda spec: "halt")
    wl = Workload("corpus", 3, tmp_path)
    wl.setup()
    result = wl.run_pass()
    cycles = [j for j in result.jobs if j.key.startswith("cycle:")]
    assert len(result.jobs) == 12 and len(cycles) == 4
    assert [j.ok for j in result.jobs] == [not j.key.startswith("cycle:") for j in result.jobs]


def test_suite_exception_fails_every_corpus_run(tmp_path, tiny, monkeypatch):
    wl = Workload("corpus", 3, tmp_path)
    wl.setup()
    import binox.suite

    def broken(config, out_dir=None):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(binox.suite, "run_suite", broken)
    result = wl.run_pass()
    assert len(run.count_failures([result], result)) == len(result.jobs) == 12


def test_job_exception_fails_the_job_and_not_the_pass(tmp_path, tiny):
    wl = Workload("thin", 3, tmp_path)
    wl.setup()
    (tmp_path / "g0.json").write_text("not json")
    result = wl.run_pass()
    assert [j.ok for j in result.jobs] == [False, True, True]
    assert result.jobs[0].error


def test_digest_change_between_passes_counts_as_failed():
    def one_pass(digest):
        return PassResult(1.0, [JobResult("a", None, "halt", status="halted",
                                          verdicts=dict.fromkeys(workloads.CHECKS, True),
                                          digest=digest)], report_digest="r")

    first = one_pass("x")
    assert run.count_failures([first, one_pass("x")], first) == []
    assert run.count_failures([first, one_pass("y")], first) == ["pass 1: a: digest differs from the reference pass"]


def test_oracle_for_cycle_controls():
    control = {"phase_invariants": True, "cluster_tree": False,
               "final_isomorphism": None, "coverage": None, "covering": None}
    assert workloads.outcome_ok("nonhalt", "budget_exhausted", control)
    assert workloads.outcome_ok("nonhalt", "error_detected", control)
    assert not workloads.outcome_ok("nonhalt", "halted", control)
    assert not workloads.outcome_ok("nonhalt", "budget_exhausted", dict(control, phase_invariants=False))
    assert not workloads.outcome_ok("halt", "budget_exhausted", control)


def test_wrappers_removed_after_traced_run(tiny, capsys):
    run_main(capsys, "thin", 1)
    assert tracer.leftover_wrappers() == []
    import binox.explorer
    import binox.suite

    assert binox.suite.explore is binox.explorer.explore
    assert not hasattr(binox.runtime.RunTrace.__dict__["from_jsonl"].__func__, tracer.MARK)


def test_tracer_patches_every_import_site_and_restores_it():
    sys.path.insert(0, str(run.ROOT / "src"))
    import binox.graph
    import binox.runtime
    import binox.verify

    original = binox.graph.ball

    class Jobs:
        job = "j"

    t = tracer.Tracer(Jobs())
    with t:
        assert hasattr(binox.runtime.ball, tracer.MARK)
        assert binox.verify.ball is binox.graph.ball is binox.runtime.ball
        g = binox.graph.PortNumberedGraph(3, [(0, 1, 0, 0), (1, 2, 1, 0)])
        binox.graph.ball(g, 1).signature()
    assert binox.graph.ball is original and binox.runtime.ball is original
    assert tracer.leftover_wrappers() == []
    assert [s[0] for s in t.spans] == ["graph.ball", "graph.signature"]
    assert all(s[3] == -1 and s[4] == "j" for s in t.spans)


def test_layer_totals_self_time():
    spans = [
        ("a", 0.0, 10.0, -1, "j"),
        ("b", 1.0, 4.0, 0, "j"),
        ("c", 2.0, 3.0, 1, "k"),
        ("perfbench.digest", 5.0, 6.0, 0, "j"),
        ("a", 20.0, 21.0, -1, "j"),
    ]
    self_s, calls, covered = tracer.layer_totals(spans)
    assert dict(self_s) == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert calls["a"] == 2 and covered == 10.0
    self_s, _, _ = tracer.layer_totals(spans, jobs={"k"})
    assert dict(self_s) == {"c": 1.0}


def test_speedometer_samples_leaves_chunks_out_and_restores():
    before = signal.getsignal(signal.SIGPROF)
    meter = speed.Speedometer()
    with meter:
        end = speed.thread_time() + 0.2
        while speed.thread_time() < end:
            pass
        assert len(meter.samples) >= 2
        t0 = meter.clock()
        meter.sample()
        assert meter.clock() - t0 < meter.samples[-1]
        assert meter.scale(len(meter.samples)) > 0  # no sample yet: takes one
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
