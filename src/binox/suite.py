"""Experiment orchestration: expand configs into runs, verify, report.

A config is a finite recipe: generator specs x port schemes x roots, one
budgeted exploration each, with the requested ground-truth checks applied to
the trace. Reports are plain data; summaries are a pure function of the
reports and everything is reproducible from the config alone (no clocks, no
ambient state).
"""

from __future__ import annotations

import errno
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .explorer import explore
from .families import generate, parse_spec
from .graph import SEVERAL_PARENTS, cluster_decomposition
from .homotopy import verify_simplicial_covering
from .runtime import Environment
from .verify import TraceReplay, verify_rooted_isomorphism

DEFAULT_CHECKS = ("phase_invariants", "final_isomorphism", "coverage", "cluster_tree", "covering")

@dataclass
class ExperimentConfig:
    generators: list
    roots: object = "all"  # "all" or {"sample": k, "seed": s}
    port_schemes: list = field(default_factory=lambda: ["canonical"])
    budget_factor: float = 50.0
    checks: dict = field(default_factory=dict)
    out: str | None = None

    def active_checks(self):
        """Every check the config does not set to false."""
        return {name: True for name in DEFAULT_CHECKS if self.checks.get(name, True)}

    @classmethod
    def from_json_dict(cls, d):
        """Build a config from parsed JSON; raises ValueError on an unknown
        key or check name, a value of the wrong type, or a generator spec
        that does not parse under one of the port schemes, so a bad config
        fails before its first run and a misspelling cannot switch a check
        off."""
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        keys = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - keys)
        if unknown:
            raise ValueError(f"unknown keys {unknown}; allowed: {sorted(keys)}")
        generators = d.get("generators")
        port_schemes = d.get("port_schemes", ["canonical"])
        for name, value in (("generators", generators), ("port_schemes", port_schemes)):
            if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
                raise ValueError(f'"{name}" must be a list of strings')
        for spec in generators:
            for scheme in port_schemes:
                parse_spec(spec, port_scheme=scheme)
        roots = d.get("roots", "all")
        if roots != "all" and not (isinstance(roots, dict) and set(roots) <= {"sample", "seed"}
                                   and _natural(roots.get("sample")) and _natural(roots.get("seed", 0))):
            raise ValueError('"roots" must be "all" or {"sample": k, "seed": s}, '
                             "k and s integers >= 0")
        factor = d.get("budget_factor", 50.0)
        if not (type(factor) in (int, float) and 0 < factor <= sys.float_info.max):
            raise ValueError('"budget_factor" must be a positive number')
        checks = d.get("checks", {})
        if not isinstance(checks, dict):
            raise ValueError('"checks" must be an object of check name -> bool')
        unknown = sorted(set(checks) - set(DEFAULT_CHECKS))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; allowed: {sorted(DEFAULT_CHECKS)}")
        if not all(type(v) is bool for v in checks.values()):
            raise ValueError('"checks" values must be true or false')
        out = d.get("out")
        if not (out is None or isinstance(out, str)):
            raise ValueError('"out" must be a path or null')
        return cls(
            generators=list(generators),
            roots=roots,
            port_schemes=list(port_schemes),
            budget_factor=float(factor),
            checks=dict(checks),
            out=out,
        )

    def to_json_dict(self):
        return asdict(self)


@dataclass
class RunReport:
    spec: str
    port_scheme: str
    root: int
    status: str
    moves: int
    n: int
    m: int
    moves_per_vertex: float
    checks: dict
    problems: list

    def passed(self):
        return not any(v is False for v in self.checks.values())

    def to_json_dict(self):
        return asdict(self)


def _natural(x):
    return type(x) is int and x >= 0


_STATUS = {"halt": "halted", "budget_exhausted": "budget_exhausted",
           "error_detected": "error_detected"}


def evaluate_trace(events, g, checks):
    """Apply the requested checks to the events of a run: an iterable that
    starts with the header (``RunTrace.events``, or ``runtime.read_events``
    of a file), read once and through to its end.

    Returns (status, results, problems). The status comes from the last
    event: a terminal event's, else "incomplete". A check that does not
    apply to the run's status (e.g. coverage of a non-halting run) is
    reported as None. One replay of the events (TraceReplay) gives the
    failing phases, coverage, the final map and its phi.
    """
    replay = TraceReplay(events, g)
    status = _STATUS.get(replay.last["kind"], "incomplete")
    root = replay.header["root"]
    halted = status == "halted"
    results = {}
    problems = []
    if checks.get("phase_invariants"):
        results["phase_invariants"] = not replay.failed
        for ph, found in replay.failed[:3]:
            problems.extend(f"phase {ph}: {p}" for p in found[:3])
    if checks.get("cluster_tree"):
        _dist, _cluster_of, parent = cluster_decomposition(g, root)
        results["cluster_tree"] = SEVERAL_PARENTS not in parent
        if not results["cluster_tree"]:
            problems.append(f"clusters of (g, {root}) do not form a tree")
    for name in ("final_isomorphism", "coverage", "covering"):
        if checks.get(name):
            results[name] = None if not halted else True
    if halted:
        if checks.get("final_isomorphism"):
            found = verify_rooted_isomorphism(replay.graph(), g, root)
            results["final_isomorphism"] = not found
            problems.extend(f"isomorphism: {p}" for p in found[:3])
        if checks.get("coverage"):
            found = replay.coverage()
            results["coverage"] = not found
            problems.extend(f"coverage: {p}" for p in found[:3])
        if checks.get("covering"):
            phi, phi_problems = replay.final_phi()
            if phi is None:
                results["covering"] = False
                problems.extend(f"covering: {p}" for p in phi_problems[:3])
            else:
                viol = verify_simplicial_covering(replay.graph(), g, phi)
                results["covering"] = not viol
                problems.extend(f"covering: {p}" for p in viol[:3])
    return status, results, problems


def move_budget(budget_factor, n):
    """The move budget on ``n`` vertices, ``budget_factor * n`` and at least
    1; ValueError unless that product is finite and the factor positive."""
    budget = budget_factor * n
    if not (budget_factor > 0 and math.isfinite(budget)):
        raise ValueError(f"budget factor {budget_factor!r} gives no move budget on {n} vertices")
    return max(1, int(budget))


def run_one(g, spec_echo, port_scheme, root, budget_factor, checks):
    """One exploration plus its checks; returns (RunReport, RunOutcome).
    ValueError when the budget factor gives no budget (see move_budget)."""
    env = Environment(g, root, move_budget(budget_factor, g.n))
    outcome = explore(env)
    _status, results, problems = evaluate_trace(outcome.trace.events, g, checks)
    report = RunReport(
        spec=spec_echo,
        port_scheme=port_scheme,
        root=root,
        status=outcome.status,
        moves=outcome.moves,
        n=g.n,
        m=g.m,
        moves_per_vertex=outcome.moves / g.n,
        checks=results,
        problems=problems,
    )
    return report, outcome


def _roots_for(policy, g, spec_echo, port_scheme):
    if policy == "all":
        return list(range(g.n))
    k = policy["sample"]
    seed = policy.get("seed", 0)
    rng = random.Random(f"roots:{seed}:{spec_echo}:{port_scheme}")
    return sorted(rng.sample(range(g.n), min(k, g.n)))


def run_suite(config, out_dir=None):
    """Execute every (generator x port scheme x root) run of the config.

    Returns (reports, summary). When ``out_dir`` is given, writes
    ``report.json`` (config, reports, summary) and ``summary.txt`` there;
    a path that cannot be a directory fails before the first run.
    """
    if out_dir is None:
        out_dir = config.out
    if out_dir is not None:
        _check_can_be_dir(Path(out_dir))
    checks = config.active_checks()
    reports = []
    for spec_str in config.generators:
        for scheme in config.port_schemes:
            spec = parse_spec(spec_str, port_scheme=scheme)
            g = generate(spec)
            for root in _roots_for(config.roots, g, spec.echo(), scheme):
                report, _ = run_one(g, spec.echo(), scheme, root, config.budget_factor, checks)
                reports.append(report)
    summary = summarize(reports)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": config.to_json_dict(),
            "reports": [r.to_json_dict() for r in reports],
            "summary": summary,
        }
        (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (out / "summary.txt").write_text(format_summary(summary))
    return reports, summary


def _check_can_be_dir(path):
    """NotADirectoryError unless ``path`` is a directory or the nearest of
    its ancestors that exists is one; creates nothing."""
    at = path.absolute()
    while not at.exists():
        at = at.parent
    if not at.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def summarize(reports):
    """Aggregate movesPerVertex and check outcomes by family and size."""
    groups = {}
    for r in reports:
        fam = r.spec.split(":", 1)[0]
        key = f"{fam}/{r.n}"
        row = groups.setdefault(
            key,
            {
                "family": fam,
                "n": r.n,
                "runs": 0,
                "halted": 0,
                "max_moves_per_vertex": 0.0,
                "mean_moves_per_vertex": 0.0,
                "failed_checks": 0,
            },
        )
        row["runs"] += 1
        if r.status == "halted":
            row["halted"] += 1
        row["max_moves_per_vertex"] = max(row["max_moves_per_vertex"], r.moves_per_vertex)
        row["mean_moves_per_vertex"] += r.moves_per_vertex
        if not r.passed():
            row["failed_checks"] += 1
    for row in groups.values():
        row["mean_moves_per_vertex"] = row["mean_moves_per_vertex"] / row["runs"]
    return {k: groups[k] for k in sorted(groups, key=lambda k: (groups[k]["family"], groups[k]["n"]))}


def format_summary(summary):
    lines = [
        f"{'family':<10} {'n':>5} {'runs':>5} {'halted':>7} {'max m/n':>9} {'mean m/n':>9} {'failed':>7}"
    ]
    for row in summary.values():
        lines.append(
            f"{row['family']:<10} {row['n']:>5} {row['runs']:>5} {row['halted']:>7} "
            f"{row['max_moves_per_vertex']:>9.3f} {row['mean_moves_per_vertex']:>9.3f} "
            f"{row['failed_checks']:>7}"
        )
    return "\n".join(lines) + "\n"
