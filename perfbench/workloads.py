"""The benchmark's workloads: job lists, set-up, one pass, outcome oracle.

``thin`` and ``dense`` run each job in-process through ``binox.cli.main``
(``explore --trace --map``, then ``check`` with all five checks) on graph
files the set-up generated. ``corpus`` runs one ``binox.suite.run_suite``
config of many short runs. Every job's outcome is compared with what the
paper predicts for its family, and the trace/report digests of each pass
are kept so repeated passes can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from speed import clock
from tracer import BENCH

CHECKS = ("phase_invariants", "final_isomorphism", "coverage", "cluster_tree", "covering")
HALTED = "halted"
NON_HALTING = ("budget_exhausted", "error_detected")


@dataclass(frozen=True)
class Job:
    """One graph run: the generator spec, its port scheme and the expected
    outcome, ``halt`` (Weetman families) or ``nonhalt`` (cycle controls)."""

    spec: str
    ports: str
    expect: str
    size: int  # growth pairs compare jobs by this size

    @property
    def key(self):
        return f"{self.spec}|{self.ports}"


def expectation(spec):
    return "nonhalt" if spec.startswith("cycle:") else "halt"


def thin_jobs(seed):
    jobs = []
    for n in (400, 800):
        jobs.append(Job(f"tree:n={n},seed={seed}", f"random:{seed}", "halt", n))
        jobs.append(Job(f"chordal:n={n},rate=0.4,seed={seed}", f"random:{seed}", "halt", n))
    return jobs


def dense_jobs(seed):
    """Each graph under two port numberings: moves on the Johnson graphs
    depend on the numbering, and one per graph left moves_per_vertex
    spread by about 5% from seed to seed."""
    specs = [("complete:50", 50), ("complete:100", 100), ("johnson:9,4", 126), ("johnson:10,3", 120)]
    return [Job(spec, f"random:{s}", "halt", n) for spec, n in specs for s in (seed, seed + 1000)]


def corpus_config(seed):
    """A suite config of 114 short runs; generator strings use the suite's
    echo form so report rows match them exactly."""
    gens = [
        f"chordal:n={n},rate=0.4,seed={seed + k}" for n in (25, 50, 100) for k in range(3)
    ]
    gens += ["johnson:4,2", "johnson:5,2", "johnson:6,2", "complete:10", "complete:20",
             "path:50", f"tree:n=100,seed={seed}", "cycle:6", "cycle:7", "cycle:8"]
    return {
        "generators": gens,
        "roots": {"sample": 3, "seed": seed},
        "port_schemes": ["canonical", f"random:{seed}"],
        "budget_factor": 50,
        "checks": {name: True for name in CHECKS},
    }


# Growth pairs: (small size, large size) per workload, compared as log2 of
# the large jobs' total over the small jobs' total.
GROWTH_SIZES = {"thin": (400, 800), "dense": (50, 100), "corpus": (50, 100)}


def corpus_size(spec):
    """Vertex count a chordal corpus spec names; None for other families."""
    if not spec.startswith("chordal:"):
        return None
    return int(spec.split("n=", 1)[1].split(",", 1)[0])


@dataclass
class JobResult:
    key: str
    size: int | None
    expect: str
    status: str = "error"
    verdicts: dict = field(default_factory=dict)
    moves: int = 0
    n: int = 0
    explore_s: float = 0.0
    check_s: float = 0.0
    trace_bytes: int = 0
    digest: str = ""
    error: str = ""

    @property
    def ok(self):
        return not self.error and outcome_ok(self.expect, self.status, self.verdicts)


def outcome_ok(expect, status, verdicts):
    """The outcome oracle. A Weetman job halts with every check True. A cycle
    control ends budget_exhausted or error_detected with phase_invariants
    True, cluster_tree False, and the halting-only checks not applicable."""
    if expect == "halt":
        return status == HALTED and all(verdicts.get(c) is True for c in CHECKS)
    return status in NON_HALTING and verdicts == {
        "phase_invariants": True, "cluster_tree": False,
        "final_isomorphism": None, "coverage": None, "covering": None,
    }


@dataclass
class PassResult:
    seconds: float  # CPU seconds of the pass's program calls
    jobs: list
    report_digest: str = ""

    def digests(self):
        out = {j.key: j.digest for j in self.jobs}
        if self.report_digest:
            out["report.json"] = self.report_digest
        return out


class Workload:
    """Set-up and passes of one named workload for one seed."""

    def __init__(self, name, seed, work):
        self.name = name
        self.work = Path(work)
        self.job = None  # the job running now; the tracer labels spans with it
        self.tracer = None  # set while a traced run is measured
        if name == "thin":
            self.jobs = thin_jobs(seed)
        elif name == "dense":
            self.jobs = dense_jobs(seed)
        elif name == "corpus":
            self.config = corpus_config(seed)
            self.jobs = None
        else:
            raise ValueError(f"unknown workload {name!r}")

    def setup(self, fresh_import=True):
        """Import binox and write the inputs; returns the seconds taken."""
        if fresh_import:
            for mod in [m for m in sys.modules if m == "binox" or m.startswith("binox.")]:
                del sys.modules[mod]
        start = clock()
        importlib.import_module("binox")
        from binox import families, graph

        self.work.mkdir(parents=True, exist_ok=True)
        if self.jobs is None:
            (self.work / "suite.json").write_text(json.dumps(self.config, indent=2))
        else:
            for i, job in enumerate(self.jobs):
                self.job = job.key
                g = families.generate(families.parse_spec(job.spec, port_scheme=job.ports))
                graph.save_graph(g, self.work / f"g{i}.json")
            self.job = None
        return clock() - start

    def run_pass(self):
        if self.jobs is None:
            return self._corpus_pass()
        return self._cli_pass()

    def _cli_pass(self):
        from binox import cli

        results = []
        start = clock()
        for i, job in enumerate(self.jobs):
            res = JobResult(job.key, job.size, job.expect)
            results.append(res)
            graph_file = str(self.work / f"g{i}.json")
            trace_file = self.work / f"t{i}.jsonl"
            try:
                self.job = job.key
                t0 = clock()
                code, out = _call(cli.main, ["explore", "--graph", graph_file, "--root", "0",
                                             "--trace", str(trace_file),
                                             "--map", str(self.work / f"m{i}.json")])
                res.explore_s = clock() - t0
                fields = dict(f.split("=", 1) for f in out.split()[:4])
                res.status, res.moves, res.n = fields["status"], int(fields["moves"]), int(fields["n"])
                if code != (0 if res.status == HALTED else 2):
                    res.error = f"explore exited {code} with status {res.status}"
                t0 = clock()
                code, out = _call(cli.main, ["check", "--graph", graph_file, "--trace",
                                             str(trace_file), "--checks", ",".join(CHECKS)])
                res.check_s = clock() - t0
                res.verdicts = _parse_verdicts(out)
            except Exception as e:  # a broken job fails; the pass goes on
                res.error = f"{type(e).__name__}: {e}"
            finally:
                self.job = None
        seconds = clock() - start
        for i, res in enumerate(results):
            trace_file = self.work / f"t{i}.jsonl"
            if trace_file.exists():
                data = trace_file.read_bytes()
                res.trace_bytes = len(data)
                res.digest = hashlib.sha256(data).hexdigest()
                trace_file.unlink()
        return PassResult(seconds, results)

    def _corpus_pass(self):
        from binox import suite

        out_dir = self.work / "suite-out"
        probe = SuiteProbe(suite, self)
        start = clock()
        try:
            with probe:
                config = suite.ExperimentConfig.from_json_dict(
                    json.loads((self.work / "suite.json").read_text()))
                reports, _ = suite.run_suite(config, out_dir=out_dir)
        except Exception as e:  # every run of the config fails with it
            error = f"{type(e).__name__}: {e}"
            return PassResult(clock() - start, [JobResult(f"corpus run {i}", None, "halt", error=error)
                                                for i in range(_corpus_runs(self.config))])
        seconds = clock() - start - probe.digest_s
        report_path = out_dir / "report.json"
        report_digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
        report_path.unlink()
        results = []
        for report, (key, explore_s, check_s, size, digest) in zip(reports, probe.runs):
            results.append(JobResult(
                key, corpus_size(report.spec), expectation(report.spec),
                status=report.status, verdicts=dict(report.checks),
                moves=report.moves, n=report.n, explore_s=explore_s, check_s=check_s,
                trace_bytes=size, digest=digest))
        if len(results) != _corpus_runs(self.config):
            results.append(JobResult("corpus", None, "halt", error="run count differs from config"))
        return PassResult(seconds, results, report_digest)


def _corpus_runs(config):
    return len(config["generators"]) * len(config["port_schemes"]) * config["roots"]["sample"]


class SuiteProbe:
    """Times ``explore`` and ``evaluate_trace`` inside ``run_suite`` and
    digests each run's trace, by rebinding the names where ``binox.suite``
    looks them up. Serializing the trace for its digest takes time inside
    the pass, so ``digest_s`` sums it for the caller to subtract; keeping the
    traces instead would hold every run's trace in memory at once."""

    NAMES = ("run_one", "explore", "evaluate_trace")

    def __init__(self, suite, workload):
        self.suite = suite
        self.workload = workload
        self.runs = []  # (job key, explore s, check s, trace bytes, sha256)
        self.digest_s = 0.0
        self._saved = {}

    def _digest(self, trace):
        tracer = self.workload.tracer
        with tracer.span(BENCH + "digest") if tracer else contextlib.nullcontext():
            start = clock()
            # the program's serializer, never a tracer's wrapper around it
            data = inspect.unwrap(type(trace).to_jsonl)(trace).encode()
            digest = hashlib.sha256(data).hexdigest()
            self.digest_s += clock() - start
        return len(data), digest

    def __enter__(self):
        self._saved = {name: getattr(self.suite, name) for name in self.NAMES}
        run_one, explore, evaluate = (self._saved[n] for n in self.NAMES)
        took = {}  # seconds of the last explore / evaluate_trace call

        def probe_run_one(g, spec_echo, port_scheme, root, *args, **kwargs):
            key = f"{spec_echo}|{port_scheme}|{root}"
            self.workload.job = key
            try:
                report, outcome = run_one(g, spec_echo, port_scheme, root, *args, **kwargs)
            finally:
                self.workload.job = None
            self.runs.append((key, took.pop("explore"), took.pop("check"),
                              *self._digest(outcome.trace)))
            return report, outcome

        def probe_explore(*args, **kwargs):
            t0 = clock()
            try:
                return explore(*args, **kwargs)
            finally:
                took["explore"] = clock() - t0

        def probe_evaluate(*args, **kwargs):
            t0 = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                took["check"] = clock() - t0

        self.suite.run_one = probe_run_one
        self.suite.explore = probe_explore
        self.suite.evaluate_trace = probe_evaluate
        return self

    def __exit__(self, *exc):
        for name, value in self._saved.items():
            setattr(self.suite, name, value)
        return False


def _call(main, argv):
    """Run a CLI command in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _parse_verdicts(out):
    value = {"pass": True, "FAIL": False, "n/a": None}
    verdicts = {}
    for line in out.splitlines():
        name, sep, word = line.partition(": ")
        if sep and name in CHECKS:
            verdicts[name] = value[word.strip()]
    return verdicts
