"""Adaptive block coordinate DIRECT (ABCD) as one cycle of phases.

After an optimistic start sample, a run repeats one cycle (`_Run.cycle`):

1. coordinate: DIRECT subproblems over the next m1 coordinates in sequence,
   until t1 in a row descend by at most `switch_eps`;
2. local: one quasi-Newton polish (with `sqp_first` the polish opens the
   cycle instead);
3. block: DIRECT subproblems over m2 random coordinates, until min(n, 6) in
   a row descend by at most `GLOBAL_STALL_EPS`;
4. intensify: a polish from the best point and, unless it moved the best by
   more than `GLOBAL_STALL_EPS`, a sweep of deep DIRECT subproblems over
   every coordinate once.

`coordinate_only` keeps phase 1 alone. A cycle stalls unless phase 4 moved
the best; a stalled cycle restarts from a fresh start sample exactly when the
run's counter has a cap or a deadline, and ends the run otherwise.

The `EvalCounter` handed to `abcd_solve` is the run's one budget. Every stop
is a `Stop` that `abcd_solve` catches. The counter raises it at the
evaluation where the target, the deadline or its cap holds; `_Run.check`,
run before every subproblem, polish and restart, raises it on the counter's
reason or its spent cap. So no step passes a solver's stop on, and no run
makes an evaluation past the cap. A counter no caller armed is armed with
`DirectConfig`'s defaults: a target within 1e-4 and no deadline.

The best point never worsens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .direct import DirectConfig, direct_solve
from .local import sqp_local
from .problem import (
    Bounds,
    ConfigError,
    EvalCounter,
    Problem,
    Reason,
    Stop,
    evaluate_counted,
)

GLOBAL_STALL_EPS = 1e-6  # block-phase and intensify descent threshold
SUB_CAP_PER_COORD = 100  # a subproblem's evaluation cap per block coordinate
DEEP_CAP_FACTOR = 5      # sweep subproblems get this many times the cap
# the DIRECT stops of every subproblem but the deep sweep's, which has none
SUB_STOPS = dict(min_measure=1e-6, stall_eps=1e-8, stall_iters=5)


class Phase(str, Enum):
    """The trace's labels: sweep subproblems and restarts are coordinate
    rows, the intensify polish a local one."""

    COORDINATE = "coordinate"
    LOCAL = "local"
    BLOCK = "block"


@dataclass
class AbcdConfig:
    """One ABCD run; the module docstring describes the phases."""

    m1: int = 1                     # coordinate and sweep block size
    m2: int = 2                     # random block size
    t1: int = 3                     # stalled coordinate steps before leaving
    switch_eps: float = 1e-3        # descent at or below this counts as a stall
    seed: int = 0
    sqp_first: bool = False         # every cycle opens with the polish
    coordinate_only: bool = False   # no polish, no blocks: a stall restarts
    poh_eps: float = 1e-4


def check_values(m1: int, m2: int, t1: int, switch_eps: float,
                 poh_eps: float, n: float = math.inf) -> None:
    """Raise ConfigError on the first value out of its range; without the
    dimension n, block sizes are only checked to be at least 1."""
    # the comparisons are written so that NaN fails them
    sizes = f"in [1, {n}] like all block sizes"
    for name, value, rule, ok in (
            ("m1", m1, sizes, 1 <= m1 <= n), ("m2", m2, sizes, 1 <= m2 <= n),
            ("t1", t1, ">= 1", t1 >= 1),
            ("switch_eps", switch_eps, "positive", switch_eps > 0),
            ("poh_eps", poh_eps, "positive", poh_eps > 0)):
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


@dataclass
class AbcdResult:
    f_min: float
    x_min: np.ndarray
    evals: int
    subproblems: int
    reason: Reason
    trace: list = field(default_factory=list)  # (evals, subproblem, phase, f)


def start_samples(n: int) -> int:
    """Size of the optimistic start sample in n dimensions."""
    return min(2 * n, 32)


def choose_start(problem: Problem, q: int, rng: np.random.Generator,
                 counter: EvalCounter) -> tuple[np.ndarray, float]:
    """Optimistic start: split the box into q slabs along the widest dimension,
    sample one uniform point per slab, keep the best (q evaluations)."""
    if q < 1:
        raise ConfigError("q must be >= 1")
    bounds = problem.bounds
    split_dim = int(np.argmax(bounds.width))
    best_x, best_f = None, np.inf
    lo, hi = bounds.lower[split_dim], bounds.upper[split_dim]
    edges = np.linspace(lo, hi, q + 1)
    for k in range(q):
        x = rng.uniform(bounds.lower, bounds.upper)
        x[split_dim] = rng.uniform(edges[k], edges[k + 1])
        f = evaluate_counted(problem, x, counter)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def sequential_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """Blocks of m coordinates in turn from coordinate 0, wrapping around:
    with n = 5 and m = 2, [0, 1], [2, 3], [4, 0], [1, 2], ..."""
    cursor = 0
    while True:
        yield (cursor + np.arange(m)) % n
        cursor = (cursor + m) % n


def random_blocks(n: int, m: int,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Blocks of m distinct coordinates drawn from rng, each sorted."""
    while True:
        yield np.sort(rng.choice(n, size=m, replace=False))


def make_subproblem(problem: Problem, incumbent_x: np.ndarray,
                    idx: np.ndarray) -> Problem:
    """Restrict the problem to the chosen coordinates, freezing the rest at
    the incumbent. Evaluations still count against the caller's counter.

    ABCD does not call this: its subproblems run `direct_solve` with
    `coords=idx, base=incumbent_x`, DIRECT on a view of the full problem.
    This standalone restriction is the reference that view is tested
    against, evaluation for evaluation and bit for bit."""
    idx = np.asarray(idx, dtype=int)
    frozen = np.array(incumbent_x, dtype=float)
    full_objective = problem.objective

    def objective(y):
        # a fresh copy per call, since an objective may keep its argument
        x = frozen.copy()
        x[idx] = y
        return full_objective(x)

    return Problem(
        objective=objective,
        bounds=Bounds(problem.bounds.lower[idx], problem.bounds.upper[idx]),
        known_optimum=problem.known_optimum,
    )


class _Run:
    """One `abcd_solve` call: its inputs, random streams and trace, the
    working incumbent (replaced by a restart) and the best pair (monotone,
    what the run reports)."""

    def __init__(self, problem: Problem, config: AbcdConfig,
                 counter: EvalCounter):
        self.problem, self.config, self.counter = problem, config, counter
        self.n = problem.n
        counter.arm(problem, DirectConfig.target_accuracy,
                    DirectConfig.max_seconds)
        self.start_count, self.f_before = counter.count, counter.best_f
        # dedicated streams: block draws stay reproducible no matter how many
        # evaluations earlier phases consumed
        ss = np.random.SeedSequence(config.seed)
        self.start_rng, self.block_rng = (np.random.default_rng(s)
                                          for s in ss.spawn(2))
        self.trace: list[tuple] = []
        self.subproblems = 0
        self.incumbent_x, self.incumbent_f = None, np.inf
        # the box midpoint stands in if the first start sample is cut short
        bounds = problem.bounds
        self.best_x, self.best_f = bounds.lower + 0.5 * bounds.width, np.inf

    def spent(self) -> int:
        return self.counter.count - self.start_count

    def check(self) -> None:
        """The one stop check, run before every step. It raises a plain
        `Stop`: stopping the shared counter would change its `run_best`."""
        if self.counter.reason is not None:
            raise Stop(self.counter.reason)
        if self.counter.remaining == 0:
            raise Stop(Reason.EVAL_BUDGET)

    def record(self, label: Phase) -> None:
        self.trace.append((self.spent(), self.subproblems, label.value,
                           self.best_f))

    def replace(self, x: np.ndarray, f: float) -> None:
        """Make (x, f) the working incumbent and keep the best pair."""
        self.incumbent_x, self.incumbent_f = x, f
        if f < self.best_f:
            self.best_x, self.best_f = x.copy(), f

    def adopt(self, x: np.ndarray, f: float) -> None:
        """The adopt-incumbent rule: take (x, f) if it improves."""
        if f < self.incumbent_f:
            self.replace(x, f)

    def start(self) -> None:
        """A fresh optimistic start sample becomes the incumbent."""
        self.replace(*choose_start(self.problem, start_samples(self.n),
                                   self.start_rng, self.counter))
        self.record(Phase.COORDINATE)

    def subproblem(self, idx: np.ndarray, label: Phase,
                   deep: bool = False) -> None:
        """One DIRECT run over the coordinates `idx`, the rest held at the
        incumbent; its `x_min` is a full point. A deep run gets a larger cap
        and no early stops, so it can separate near-equal basins the regular
        stops would merge."""
        self.check()
        cfg = self.config
        cap = SUB_CAP_PER_COORD * len(idx)
        if deep:
            cap *= DEEP_CAP_FACTOR
        stops = {} if deep else SUB_STOPS
        sub_cfg = DirectConfig(poh_eps=cfg.poh_eps, max_evals=cap, **stops)
        res = direct_solve(self.problem, sub_cfg, counter=self.counter,
                           coords=idx, base=self.incumbent_x)
        self.subproblems += 1
        self.adopt(res.x_min, res.f_min)
        self.record(label)

    def descend(self, blocks: Iterator[np.ndarray], label: Phase,
                eps: float, stalls: int) -> None:
        """Subproblems over `blocks` in turn until `stalls` in a row lower
        the incumbent by at most `eps`; a descent of exactly `eps` stalls."""
        streak = 0
        for idx in blocks:
            f_prev = self.incumbent_f
            self.subproblem(idx, label)
            streak = streak + 1 if f_prev - self.incumbent_f <= eps else 0
            if streak >= stalls:
                return

    def polish(self) -> None:
        self.check()
        res = sqp_local(self.problem, self.incumbent_x, self.counter,
                        f0=self.incumbent_f)
        self.adopt(res.x, res.f)
        self.record(Phase.LOCAL)

    def cycle(self) -> bool:
        """The phases of one cycle, in order; returns whether it stalled."""
        cfg, n = self.config, self.n
        if cfg.sqp_first and not cfg.coordinate_only:
            self.polish()
        self.descend(sequential_blocks(n, cfg.m1), Phase.COORDINATE,
                     cfg.switch_eps, cfg.t1)
        if cfg.coordinate_only:
            # no later phase escapes a coordinate-wise trap
            return True
        if not cfg.sqp_first:
            self.polish()
        self.descend(random_blocks(n, cfg.m2, self.block_rng), Phase.BLOCK,
                     GLOBAL_STALL_EPS, min(n, 6))
        # intensify: polish from the best point
        since = self.best_f
        self.replace(self.best_x, since)
        self.polish()
        if self.best_f >= since - GLOBAL_STALL_EPS:
            # the coordinate phase may have left before visiting every
            # coordinate: sweep them all
            for idx in islice(sequential_blocks(n, cfg.m1), -(-n // cfg.m1)):
                self.subproblem(idx, Phase.COORDINATE, deep=True)
        return self.best_f >= since - GLOBAL_STALL_EPS

    def run(self) -> Reason:
        """Cycles from a start sample until a `Stop`; a stalled cycle
        restarts, or ends the run as a global stall."""
        # without any budget a restart loop could never terminate
        restarts = (self.counter.cap is not None
                    or self.counter.deadline is not None)
        self.start()
        while True:
            if self.cycle():
                self.check()
                if not restarts:
                    return Reason.GLOBAL_STALL
                self.start()


def abcd_solve(problem: Problem, config: Optional[AbcdConfig] = None,
               counter: Optional[EvalCounter] = None) -> AbcdResult:
    config = config or AbcdConfig()
    check_values(config.m1, config.m2, config.t1, config.switch_eps,
                 config.poh_eps, problem.n)
    run = _Run(problem, config,
               counter if counter is not None else EvalCounter())
    try:
        reason = run.run()
    except Stop as stop:
        reason = stop.reason
    x, f = run.counter.run_best(run.f_before, run.best_x, run.best_f)
    return AbcdResult(f, x, run.spent(), run.subproblems, reason, run.trace)
