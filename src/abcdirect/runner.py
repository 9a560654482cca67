"""Benchmark harness: run a solver on a registered function under the
target / stall / time / evaluation termination protocol, aggregate suites.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .abcd import AbcdConfig, AbcdResult, abcd_solve, choose_start
from .direct import DirectConfig, direct_solve
from .local import LocalConfig, LocalStatus, sqp_local
from .problem import BudgetExhausted, ConfigError, EvalCounter
from .functions import get_function

ALGORITHMS = ("direct", "abcd-coordinate", "abcd", "sqp")

TERMINATIONS = ("target_reached", "global_stall", "time_budget",
                "eval_budget", "iter_budget")


@dataclass
class RunSpec:
    function: str
    dim: Optional[int] = None
    algorithm: str = "abcd"
    target_accuracy: float = 1e-4
    max_evals: int = 200000
    max_wall_seconds: Optional[float] = 20.0
    seed: int = 0
    repetitions: int = 5
    m1: int = 1
    m2: int = 2
    t1: int = 3
    switch_eps: float = 1e-3
    sqp_first: bool = False
    poh_eps: float = 1e-4

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.max_evals < 1:
            raise ConfigError("max_evals must be positive")


@dataclass
class RunReport:
    function: str
    dim: int
    algorithm: str
    seed: int
    repetition: int
    best_f: float
    best_x: list
    evals: int
    elapsed_seconds: float
    termination: str
    trace: list = field(default_factory=list)  # [eval_count, phase, f]

    def to_json(self) -> str:
        # allow_nan stays on so an errored row (best_f = inf) still serializes
        return json.dumps(asdict(self), separators=(",", ":"))


def _classify(reason: str) -> str:
    return {
        "target": "target_reached",
        "eval_budget": "eval_budget",
        "budget": "eval_budget",
        "iter_budget": "iter_budget",
        "subproblem_budget": "iter_budget",
        "time_budget": "time_budget",
        "global_stall": "global_stall",
        "converged": "global_stall",
    }.get(reason, "global_stall")


def _run_sqp(problem, spec: RunSpec, seed: int, counter: EvalCounter):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        x0, f0 = choose_start(problem, min(2 * problem.n, 32), rng, counter)
    except BudgetExhausted:
        mid = problem.bounds.lower + 0.5 * problem.bounds.width
        return mid, np.inf, "eval_budget", []
    res = sqp_local(problem, x0, LocalConfig(), counter)
    trace = [[counter.count - res.evals, "local", f0]]
    trace += [[e, "local", f] for e, f in res.trace]
    if res.status is LocalStatus.BUDGET_EXHAUSTED:
        reason = "eval_budget"
    else:
        reason = "global_stall"
    best_x, best_f = (res.x, res.f) if res.f < f0 else (x0, f0)
    return best_x, best_f, reason, trace


def run_single(spec: RunSpec, repetition: int) -> RunReport:
    """One repetition; repetition r uses seed + r."""
    seed = spec.seed + repetition
    problem, meta = get_function(spec.function, spec.dim)
    counter = EvalCounter(cap=spec.max_evals)
    t0 = time.perf_counter()

    if spec.algorithm == "direct":
        cfg = DirectConfig(
            poh_eps=spec.poh_eps,
            max_evals=spec.max_evals,
            target_accuracy=spec.target_accuracy,
            max_seconds=spec.max_wall_seconds,
        )
        res = direct_solve(problem, cfg, counter=counter)
        best_x, best_f, reason = res.x_min, res.f_min, res.reason
        trace = [[e, "direct", f] for e, _, f in res.trace]
    elif spec.algorithm in ("abcd", "abcd-coordinate"):
        coordinate_only = spec.algorithm == "abcd-coordinate"
        cfg = AbcdConfig(
            m1=spec.m1, m2=spec.m2, t1=spec.t1,
            switch_eps=spec.switch_eps,
            target_accuracy=spec.target_accuracy,
            max_evals=spec.max_evals,
            max_seconds=spec.max_wall_seconds,
            seed=seed,
            sqp_first=spec.sqp_first,
            enable_switch=not coordinate_only,
            enable_sqp=not coordinate_only,
            poh_eps=spec.poh_eps,
        )
        res = abcd_solve(problem, cfg, counter=counter)
        best_x, best_f, reason = res.x_min, res.f_min, res.reason
        trace = [[e, ph, f] for e, _, ph, f in res.trace]
    else:  # sqp
        best_x, best_f, reason, trace = _run_sqp(problem, spec, seed, counter)

    elapsed = time.perf_counter() - t0
    termination = _classify(reason)
    if meta.f_star is not None:
        hit = abs(best_f - meta.f_star) <= spec.target_accuracy
        termination = "target_reached" if hit else (
            termination if termination != "target_reached" else "global_stall")
    return RunReport(
        function=spec.function,
        dim=meta.dim,
        algorithm=spec.algorithm,
        seed=seed,
        repetition=repetition,
        best_f=float(best_f),
        best_x=[float(v) for v in np.asarray(best_x)],
        evals=counter.count,
        elapsed_seconds=elapsed,
        termination=termination,
        trace=[[int(e), str(p), float(f)] for e, p, f in trace],
    )


def run_one(spec: RunSpec) -> list[RunReport]:
    """All repetitions of one spec."""
    return [run_single(spec, r) for r in range(spec.repetitions)]


@dataclass
class SuiteReport:
    reports: list  # list[RunReport]
    success_counts: dict  # (function, dim, algorithm) -> int
    median_evals: dict    # (function, dim, algorithm) -> float | None
    winning_ratio: dict   # algorithm -> float

    def summary_rows(self) -> list[dict]:
        rows = []
        for key in sorted(self.success_counts):
            fn, dim, algo = key
            rows.append({
                "function": fn, "dim": dim, "algorithm": algo,
                "successes": self.success_counts[key],
                "median_evals": self.median_evals[key],
            })
        return rows


def aggregate(reports: list[RunReport]) -> SuiteReport:
    success_counts: dict = {}
    median_evals: dict = {}
    cases: dict = {}
    for rep in reports:
        key = (rep.function, rep.dim, rep.algorithm)
        cases.setdefault((rep.function, rep.dim), set()).add(rep.algorithm)
        success_counts.setdefault(key, 0)
        if rep.termination == "target_reached":
            success_counts[key] += 1
    for key in success_counts:
        evals = [r.evals for r in reports
                 if (r.function, r.dim, r.algorithm) == key
                 and r.termination == "target_reached"]
        median_evals[key] = statistics.median(evals) if evals else None

    algorithms = sorted({r.algorithm for r in reports})
    wins = {a: 0 for a in algorithms}
    for case, algos in cases.items():
        best = None
        for a in algos:
            m = median_evals.get((case[0], case[1], a))
            if m is not None and (best is None or m < best):
                best = m
        if best is None:
            continue
        for a in algos:
            if median_evals.get((case[0], case[1], a)) == best:
                wins[a] += 1
    n_cases = len(cases)
    ratio = {a: (wins[a] / n_cases if n_cases else 0.0) for a in algorithms}
    return SuiteReport(reports, success_counts, median_evals, ratio)


def _spec_rows(spec: RunSpec) -> list[RunReport]:
    """All repetitions of one spec; a spec that raises becomes one row with
    termination 'global_stall' and best_f = inf instead of an exception."""
    try:
        return run_one(spec)
    except Exception as exc:  # keep the suite alive, record the row
        return [RunReport(
            function=spec.function, dim=spec.dim or -1,
            algorithm=spec.algorithm, seed=spec.seed, repetition=0,
            best_f=float("inf"), best_x=[],
            evals=0, elapsed_seconds=0.0,
            termination="global_stall",
            trace=[[0, f"error:{exc}", 0.0]],
        )]


def run_suite(specs: list[RunSpec], parallelism: int = 1,
              report_sink=None) -> SuiteReport:
    """Run every spec (optionally across processes) and aggregate.

    Individual run failures are recorded as rows with termination
    'global_stall' and best_f = inf rather than aborting the suite, on the
    serial and the parallel path alike.
    """
    if not specs:
        raise ConfigError("suite needs at least one run spec")
    reports: list[RunReport] = []

    def collect(results):
        for result in results:
            reports.extend(result)
            if report_sink is not None:
                for r in result:
                    report_sink(r)

    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            collect(pool.map(_spec_rows, specs))
    else:
        collect(map(_spec_rows, specs))
    return aggregate(reports)


def export_trace(report: RunReport, path) -> None:
    """Write the convergence trace as CSV with round-trip-exact reals."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("eval,phase,f\n")
            for e, phase, f in report.trace:
                fh.write(f"{e},{phase},{repr(float(f))}\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
