"""Benchmark harness: run a solver on a registered function under the
target / stall / time / evaluation termination protocol, aggregate suites.
"""

from __future__ import annotations

import json
import numbers
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .abcd import (AbcdConfig, abcd_solve, check_values, choose_start,
                   start_samples)
from .direct import DirectConfig, direct_solve
from .local import sqp_local
from .problem import ConfigError, EvalCounter, Reason, Stop
from .functions import get_function

ALGORITHMS = ("direct", "abcd-coordinate", "abcd", "sqp")

# RunSpec fields by the type of their values; a bool is no integer or number
# here, and only `dim` and `max_wall_seconds` may be None
_TYPED_FIELDS = (
    (("dim", "max_evals", "seed", "repetitions", "m1", "m2", "t1"),
     numbers.Integral, "an integer"),
    (("target_accuracy", "max_wall_seconds", "switch_eps", "poh_eps"),
     numbers.Real, "a number"),
    (("sqp_first",), bool, "a bool"),
)


@dataclass
class RunSpec:
    function: str
    dim: Optional[int] = None
    algorithm: str = "abcd"
    target_accuracy: float = 1e-4
    max_evals: int = 200000
    max_wall_seconds: Optional[float] = None
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
        for names, kind, what in _TYPED_FIELDS:
            for name in names:
                value = getattr(self, name)
                if value is None and name in ("dim", "max_wall_seconds"):
                    continue
                if (not isinstance(value, kind)
                        or kind is not bool and isinstance(value, bool)):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.max_evals < 1:
            raise ConfigError("max_evals must be positive")
        # np.random.SeedSequence takes no negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # the ABCD values that need no dimension; m1, m2 <= n is the run's
        check_values(self.m1, self.m2, self.t1, self.switch_eps, self.poh_eps)
        # written so that NaN fails too
        if not self.target_accuracy >= 0:
            raise ConfigError("target_accuracy must be nonnegative")
        if self.max_wall_seconds is not None and not self.max_wall_seconds > 0:
            raise ConfigError("max_wall_seconds must be positive")


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
    termination: str  # a `Reason` value, or "error" for a spec that raised
    trace: list = field(default_factory=list)  # [eval_count, phase, f]

    def to_json(self) -> str:
        # allow_nan stays on so an errored row (best_f = inf) still serializes
        return json.dumps(asdict(self), separators=(",", ":"))


def _run_sqp(problem, seed: int, counter: EvalCounter):
    """The `sqp` algorithm, a start sample and one polish: (reason, trace)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        x0, f0 = choose_start(problem, start_samples(problem.n), rng, counter)
    except Stop as stop:
        return stop.reason, []
    res = sqp_local(problem, x0, counter, f0=f0)
    # the polish's trace counts from its start, whose row is (0, f0)
    start = counter.count - res.evals
    trace = [[start + e, "local", f] for e, f in res.trace]
    # a polish that ends on its own (stationary, iteration cap, failed line
    # search) is a stall
    reason = (res.status if isinstance(res.status, Reason)
              else Reason.GLOBAL_STALL)
    return reason, trace


def run_single(spec: RunSpec, repetition: int) -> RunReport:
    """One repetition; repetition r uses seed + r. The report's best is the
    best pair of the run's counter, which holds its stops."""
    seed = spec.seed + repetition
    problem, meta = get_function(spec.function, spec.dim)
    counter = EvalCounter(cap=spec.max_evals)
    counter.arm(problem, spec.target_accuracy, spec.max_wall_seconds)
    t0 = time.perf_counter()

    if spec.algorithm == "direct":
        cfg = DirectConfig(poh_eps=spec.poh_eps, max_evals=spec.max_evals)
        res = direct_solve(problem, cfg, counter=counter)
        reason = res.reason
        trace = [[e, "direct", f] for e, _, f in res.trace]
    elif spec.algorithm in ("abcd", "abcd-coordinate"):
        cfg = AbcdConfig(
            m1=spec.m1, m2=spec.m2, t1=spec.t1,
            switch_eps=spec.switch_eps,
            max_evals=spec.max_evals,
            seed=seed,
            sqp_first=spec.sqp_first,
            coordinate_only=spec.algorithm == "abcd-coordinate",
            poh_eps=spec.poh_eps,
        )
        res = abcd_solve(problem, cfg, counter=counter)
        reason = res.reason
        trace = [[e, ph, f] for e, _, ph, f in res.trace]
    else:  # sqp
        reason, trace = _run_sqp(problem, seed, counter)

    elapsed = time.perf_counter() - t0
    return RunReport(
        function=spec.function,
        dim=meta.dim,
        algorithm=spec.algorithm,
        seed=seed,
        repetition=repetition,
        best_f=float(counter.best_f),
        best_x=[] if counter.best_x is None else counter.best_x.tolist(),
        evals=counter.count,
        elapsed_seconds=elapsed,
        termination=reason.value,
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
    hits: dict = {}  # (function, dim, algorithm) -> evals of its successes
    cases: dict = {}
    for rep in reports:
        key = (rep.function, rep.dim, rep.algorithm)
        cases.setdefault((rep.function, rep.dim), set()).add(rep.algorithm)
        evals = hits.setdefault(key, [])
        if rep.termination == Reason.TARGET_REACHED:
            evals.append(rep.evals)
    success_counts = {key: len(evals) for key, evals in hits.items()}
    median_evals = {key: statistics.median(evals) if evals else None
                    for key, evals in hits.items()}

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
    termination 'error' and best_f = inf instead of an exception."""
    try:
        return run_one(spec)
    except Exception as exc:  # keep the suite alive, record the row
        return [RunReport(
            function=spec.function, dim=spec.dim or -1,
            algorithm=spec.algorithm, seed=spec.seed, repetition=0,
            best_f=float("inf"), best_x=[],
            evals=0, elapsed_seconds=0.0,
            termination="error",
            trace=[[0, f"error:{exc}", 0.0]],
        )]


def run_suite(specs: list[RunSpec], parallelism: int = 1,
              report_sink=None) -> SuiteReport:
    """Run every spec (optionally across processes) and aggregate.

    Individual run failures are recorded as rows with termination 'error'
    and best_f = inf rather than aborting the suite, on the serial and the
    parallel path alike. At most one worker process per spec is started.
    """
    if not specs:
        raise ConfigError("suite needs at least one run spec")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be at least 1, got "
                          f"{parallelism}")
    reports: list[RunReport] = []

    def collect(results):
        for result in results:
            reports.extend(result)
            if report_sink is not None:
                for r in result:
                    report_sink(r)

    # the pool forks all its workers at the first submit, so it gets no
    # more than the suite can use
    workers = min(parallelism, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
