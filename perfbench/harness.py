"""The measuring loop: set-up, rounds of cold/warm/seeded solves, metrics.

A round solves one instance on every path; paths rotate from round to
round so that none always runs first on a cold cache. A run goes through
every instance of its workload once, then keeps going, instance by instance,
until its time is up, so it always attempts whole rounds. Every solve is
checked against scipy's optimum (and, on the cold path, against the
certificate properties of its duals) outside the timed region.

A traced run solves each instance twice per round, once plainly and once
with spans installed, alternating which goes first. Its per-layer numbers
come from the traced solves; the plain ones give the tracing overhead.
"""

import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from dualseed import lap_core, warmstart

import checks
import spans
import workloads

PATHS = ("cold", "warm", "seeded")
# Set-up repeats in every run; setup_s is their median.
SETUP_REPEATS = 3
# warm: the default pipeline, what `dualseed solve --strategy neural` runs.
# seeded: tau = 1.0 consumes every seed, since min-trick completions always
# have rho >= 1 (each column's argmin edge is tight).
CONFIGS = {"warm": warmstart.PipelineConfig(), "seeded": warmstart.PipelineConfig(tau=1.0)}


@dataclass
class Solve:
    path: str
    round: int
    traced: bool
    ns: int | None  # None when the solve raised
    faults: list
    stats: object = None  # lap_core.SolveStats
    report: object = None  # warmstart.PipelineReport, warm and seeded paths


def _solve(path: str, c, model):
    if path == "cold":
        assignment, duals, stats = lap_core.solve_cold(c)
        return assignment, duals, stats, None
    assignment, report = warmstart.warm_solve(c, model, CONFIGS[path])
    return assignment, None, report.solve_stats, report


class Runner:
    def __init__(self, w: workloads.Workload, setup: workloads.Setup, tracer):
        self.w = w
        self.setup = setup
        self.tracer = tracer
        self.best = {}
        self.scipy_ns = []

    def optimum(self, i: int) -> float:
        if i not in self.best:
            t0 = time.perf_counter_ns()
            self.best[i] = checks.optimum(self.setup.instances[i].values)
            self.scipy_ns.append(time.perf_counter_ns() - t0)
        return self.best[i]

    def solve(self, path: str, rnd: int, traced: bool) -> Solve:
        i = rnd % self.w.instances
        c = self.setup.instances[i]
        try:
            with self.tracer.root(f"round{rnd}.{path}", f"path.{path}") if traced else nullcontext():
                t0 = time.perf_counter_ns()
                assignment, duals, stats, report = _solve(path, c, self.setup.model)
                ns = time.perf_counter_ns() - t0
        except Exception as exc:  # a solve that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            return Solve(path, rnd, traced, None, [f"raised {type(exc).__name__}"])
        values = c.values
        faults = checks.assignment_faults(
            values, assignment.row_to_col, assignment.total_cost, self.optimum(i)
        )
        if duals is not None and not faults:
            faults += checks.dual_faults(values, assignment.row_to_col, duals.u, duals.v)
        return Solve(path, rnd, traced, ns, faults, stats, report)

    def measure(self, seconds: float) -> list:
        solves = []
        modes = (False,) if self.tracer is None else (False, True)
        rnd = 0
        start = time.perf_counter()
        while rnd < self.w.instances or time.perf_counter() - start < seconds:
            k = rnd % len(PATHS)
            order = PATHS[k:] + PATHS[:k]
            for traced in modes if rnd % 2 == 0 else modes[::-1]:
                for path in order:
                    solves.append(self.solve(path, rnd, traced))
            rnd += 1
        return solves


def _ms(ns_values) -> float:
    return statistics.median(ns_values) / 1e6


def end_to_end(solves: list, setup_seconds: list) -> dict:
    m = {}
    for path in PATHS:
        ns = [s.ns for s in solves if s.path == path and not s.traced and s.ns is not None]
        m[f"{path}_ms"] = (_ms(ns), "ms")
        m[f"{path}_per_s"] = (len(ns) / (sum(ns) / 1e9), "1/s")
    m["setup_s"] = (statistics.median(setup_seconds), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(w: workloads.Workload, solves: list, tracer: spans.Tracer) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians over every traced solve. Counts are means over the
    first pass, which covers each instance exactly once, so they repeat
    exactly for a given code and seed.
    """
    ok = [s for s in solves if s.ns is not None]
    traced = {p: [s for s in ok if s.traced and s.path == p] for p in PATHS}
    first = {p: [s for s in traced[p] if s.round < w.instances] for p in PATHS}
    m = {}

    def dur(s):
        return s["end"] - s["start"]

    setups = sorted({s["request"] for s in tracer.spans if s["request"].startswith("setup")})
    for metric, names in (
        ("datagen.instances_s", ("datagen.gen_dense", "datagen.gen_block")),
        ("datagen.gen_labels_s", ("datagen.gen_labels",)),
        ("rowdualnet.train_s", ("rowdualnet.train",)),
    ):
        totals = [
            sum(dur(s) for s in tracer.spans if s["request"] == r and s["name"] in names)
            for r in setups
        ]
        m[metric] = (statistics.median(totals) / 1e9, "s")

    in_paths = [s for s in tracer.spans if s["request"].startswith("round")]
    for metric, name in (
        ("rowdualnet.forward_ms", "rowdualnet.forward"),
        ("warmstart.features_ms", "warmstart.extract_features"),
    ):
        m[metric] = (_ms([dur(s) for s in in_paths if s["name"] == name]), "ms")

    reports = [s.report for p in ("warm", "seeded") for s in traced[p]]
    m["warmstart.min_trick_ms"] = (_ms([r.stage_times[warmstart.STAGE_MIN_TRICK] for r in reports]), "ms")
    m["warmstart.gate_ms"] = (_ms([r.stage_times[warmstart.STAGE_FALLBACK] for r in reports]), "ms")
    m["warmstart.fallbacks"] = (sum(s.report.fallback_triggered for s in first["warm"]), "count")
    m["warmstart.rho"] = (statistics.fmean(s.report.density_rho for s in first["warm"]), "edges/row")

    phases = {"cold": ("greedy", "augment"), "seeded": ("init", "greedy", "augment")}
    for path, names in phases.items():
        for phase in names:
            m[f"lap_core.{path}.{phase}_ms"] = (
                _ms([s.stats.phase_times[phase] for s in traced[path]]), "ms")
        for counter in ("greedy_matched", "augment_searches", "dual_update_steps"):
            m[f"lap_core.{path}.{counter}"] = (
                statistics.fmean(getattr(s.stats, counter) for s in first[path]), "count")

    for path in PATHS:
        plain = [s.ns for s in ok if not s.traced and s.path == path]
        m[f"trace.overhead.{path}_ms"] = (_ms([s.ns for s in traced[path]]) - _ms(plain), "ms")
    return m


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_REPEATS times, measure, and return the run's record."""
    tracer = spans.Tracer() if trace else None
    setup_seconds = []
    for k in range(SETUP_REPEATS):
        setup = None  # let the previous set-up go before building the next
        with tracer.root(f"setup{k}", "setup") if trace else nullcontext():
            setup = workloads.set_up(w, seed)
        setup_seconds.append(setup.seconds)

    runner = Runner(w, setup, tracer)
    solves = runner.measure(seconds)
    failures = [s for s in solves if s.faults]
    for s in failures:
        print(f"failed: {w.name} round {s.round} {s.path}: {s.faults}", file=sys.stderr)
    metrics = per_layer(w, solves, tracer) if trace else end_to_end(solves, setup_seconds)
    return {
        "result": {
            "correct": not failures,
            "attempted": len(solves),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "reference": {
            "rounds": 1 + max(s.round for s in solves),
            "scipy_ms": _ms(runner.scipy_ns),
            "setup_s": setup_seconds,
        },
        "solves": [[s.path, s.round, s.traced, s.ns] for s in solves],
        "spans": None if tracer is None else [
            dict(s, self_ns=t) for s, t in zip(tracer.spans, spans.self_times(tracer.spans))
        ],
    }
