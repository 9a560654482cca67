"""Adaptive block coordinate DIRECT (ABCD) as a phase machine.

After an optimistic start sample, a loop runs one step at a time over one
run state; each step is at most one solver call and picks the next phase.
The counter, armed with `target_accuracy` and `max_seconds`, stops the run
at the evaluation where the target, the time or its cap holds; the check
before every step reads its reason, then the subproblem and `max_evals`
budgets. So no step passes a solver's stop on; only a restart ends a run
itself, on a global stall. The phases:

* coordinate: DIRECT over the next m1 coordinates in sequence; after t1
  stalls in a row, local (block when `sqp_first`; restart when
  `coordinate_only`).
* local: one quasi-Newton polish, then block; with `sqp_first` it opens
  every cycle and is followed by coordinate.
* block: DIRECT over m2 random coordinates; after min(n, 6) stalls in a
  row, intensify.
* intensify: a polish from the best point, then a new cycle if the best
  moved, else sweep.
* sweep: deep DIRECT subproblems over every coordinate once; then a new
  cycle if the best moved, else restart.
* restart: a fresh start sample replaces the working incumbent and a new
  cycle starts; without `restart_on_stall`, or without any budget (neither
  a config budget nor a capped counter), the run ends.

The best point never worsens. `max_evals` is checked before every step and
clips each DIRECT subproblem's cap, which `direct_solve` checks after every
division, so a run ends at most one division past it, or past it by a
polish that started with budget left. A capped `EvalCounter` is a hard
cap; `runner.run_single` passes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .direct import DirectConfig, direct_solve
from .local import LocalConfig, sqp_local
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
DEEP_CAP_FACTOR = 5      # sweep subproblems get this many times the cap


class Phase(str, Enum):
    COORDINATE = "coordinate"
    LOCAL = "local"
    BLOCK = "block"
    INTENSIFY = "intensify"
    SWEEP = "sweep"
    RESTART = "restart"


class CoordMode(str, Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass
class AbcdConfig:
    """One ABCD run; the module docstring describes the phases."""

    m1: int = 1                     # coordinate and sweep block size
    m2: int = 2                     # random block size
    t1: int = 3                     # stalled coordinate steps before leaving
    switch_eps: float = 1e-3        # descent at or below this counts as a stall
    target_accuracy: float = 1e-4   # the counter's, as is max_seconds
    sub_eval_cap: Optional[int] = None   # per subproblem, default 100 * block
    max_evals: Optional[int] = None      # checked per step, clips subproblems
    max_subproblems: Optional[int] = None
    max_seconds: Optional[float] = None
    seed: int = 0
    sqp_first: bool = False         # every cycle opens with the polish
    coordinate_only: bool = False   # no polish, no blocks: a stall restarts
    restart_on_stall: bool = True   # restart a stall if a budget is set
    # per-subproblem DIRECT stops (the deep sweep uses none)
    sub_min_measure: float = 1e-6
    sub_stall_eps: float = 1e-8
    sub_stall_iters: int = 5
    poh_eps: float = 1e-4

    def validate(self, n: int) -> None:
        if not (1 <= self.m1 <= n and 1 <= self.m2 <= n):
            raise ConfigError("block sizes must lie in [1, n]")
        if self.t1 < 1 or self.switch_eps <= 0:
            raise ConfigError("t1 >= 1 and switch_eps > 0 required")
        if not self.poh_eps > 0:
            raise ConfigError(f"poh_eps must be positive, got {self.poh_eps}")


@dataclass
class AbcdState:
    """The phase machine's mutable state. The working incumbent is replaced
    by a restart; the best pair is monotone and is what the run reports."""

    incumbent_x: np.ndarray
    incumbent_f: float
    phase: Phase
    cursor: int = 0               # next coordinate of a sequential block
    stall_streak: int = 0         # stalled subproblems in a row, this phase
    subproblem_index: int = 0
    best_x: Optional[np.ndarray] = None
    best_f: float = np.inf
    sweep_left: int = 0           # deep subproblems left in the sweep
    intensify_from: float = np.inf  # best value when intensify began


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


def select_coords(state: AbcdState, n: int, size: int, mode: CoordMode,
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Pick the next block of coordinate indices."""
    if not 1 <= size <= n:
        raise ConfigError(f"block size {size} out of range for n={n}")
    if mode is CoordMode.SEQUENTIAL:
        idx = (state.cursor + np.arange(size)) % n
        state.cursor = (state.cursor + size) % n
        return idx
    return np.sort(rng.choice(n, size=size, replace=False))


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


def stall_update(streak: int, f_prev: float, f_new: float, eps1: float,
                 t1: int) -> tuple[int, bool]:
    """Count consecutive subproblems whose descent is at most eps1; a descent
    of exactly eps1 still counts as a stall."""
    if f_prev - f_new <= eps1:
        streak += 1
    else:
        streak = 0
    return streak, streak >= t1


class _Run:
    """One `abcd_solve` call: its inputs, random streams, trace and machine
    state. Each phase has one step method, which sets the next phase; only
    `restart` returns a reason to stop."""

    def __init__(self, problem: Problem, config: AbcdConfig,
                 counter: EvalCounter):
        self.problem, self.config, self.counter = problem, config, counter
        self.n = problem.n
        counter.arm(problem, config.target_accuracy, config.max_seconds)
        self.start_count, self.f_before = counter.count, counter.best_f
        # dedicated streams: block draws stay reproducible no matter how many
        # evaluations earlier phases consumed
        ss = np.random.SeedSequence(config.seed)
        self.start_rng, self.block_rng = (np.random.default_rng(s)
                                          for s in ss.spawn(2))
        self.trace: list[tuple] = []
        self.state: Optional[AbcdState] = None

    def spent(self) -> int:
        return self.counter.count - self.start_count

    def draw_start(self) -> tuple[np.ndarray, float]:
        return choose_start(self.problem, start_samples(self.n),
                            self.start_rng, self.counter)

    def stop_reason(self) -> Optional[Reason]:
        """The one stop check, run before every step."""
        cfg, s = self.config, self.state
        if self.counter.reason is not None:
            return self.counter.reason
        if (cfg.max_subproblems is not None
                and s.subproblem_index >= cfg.max_subproblems):
            return Reason.ITER_BUDGET
        if ((cfg.max_evals is not None and self.spent() >= cfg.max_evals)
                or self.counter.remaining == 0):
            return Reason.EVAL_BUDGET
        return None

    def record(self, label: Phase) -> None:
        s = self.state
        self.trace.append((self.spent(), s.subproblem_index, label.value,
                           s.best_f))

    def replace(self, x: np.ndarray, f: float) -> None:
        """Make (x, f) the working incumbent and keep the best pair."""
        s = self.state
        s.incumbent_x, s.incumbent_f = x, f
        if f < s.best_f:
            s.best_x, s.best_f = x.copy(), f

    def adopt(self, x: np.ndarray, f: float) -> None:
        """The adopt-incumbent rule: take (x, f) if it improves."""
        if f < self.state.incumbent_f:
            self.replace(x, f)

    def new_cycle(self) -> None:
        s, cfg = self.state, self.config
        s.stall_streak, s.cursor = 0, 0
        opening_polish = cfg.sqp_first and not cfg.coordinate_only
        s.phase = Phase.LOCAL if opening_polish else Phase.COORDINATE

    def best_moved(self) -> bool:
        s = self.state
        return s.best_f < s.intensify_from - GLOBAL_STALL_EPS

    def subproblem(self, idx: np.ndarray, label: Phase,
                   deep: bool = False) -> None:
        """One DIRECT run over the coordinates `idx`, the rest held at the
        incumbent; its `x_min` is a full point. A deep run gets a larger cap
        and no early stops, so it can separate near-equal basins the regular
        stops would merge."""
        cfg, s = self.config, self.state
        cap = cfg.sub_eval_cap
        if cap is None:
            cap = 100 * len(idx)
        if deep:
            cap *= DEEP_CAP_FACTOR
        if cfg.max_evals is not None:
            cap = min(cap, cfg.max_evals - self.spent())
        stops = {} if deep else dict(min_measure=cfg.sub_min_measure,
                                     stall_eps=cfg.sub_stall_eps,
                                     stall_iters=cfg.sub_stall_iters)
        sub_cfg = DirectConfig(poh_eps=cfg.poh_eps, max_evals=cap, **stops)
        res = direct_solve(self.problem, sub_cfg, counter=self.counter,
                           coords=idx, base=s.incumbent_x)
        s.subproblem_index += 1
        self.adopt(res.x_min, res.f_min)
        self.record(label)

    def polish(self) -> None:
        res = sqp_local(self.problem, self.state.incumbent_x, LocalConfig(),
                        self.counter)
        self.adopt(res.x, res.f)
        self.record(Phase.LOCAL)

    def coordinate(self) -> None:
        cfg, s = self.config, self.state
        f_prev = s.incumbent_f
        idx = select_coords(s, self.n, cfg.m1, CoordMode.SEQUENTIAL)
        self.subproblem(idx, Phase.COORDINATE)
        s.stall_streak, switched = stall_update(
            s.stall_streak, f_prev, s.incumbent_f, cfg.switch_eps, cfg.t1)
        if switched:
            # coordinate-only mode has no later phase to escape a
            # coordinate-wise trap; the opening polish already ran
            if cfg.coordinate_only:
                s.phase = Phase.RESTART
            elif cfg.sqp_first:
                s.stall_streak, s.phase = 0, Phase.BLOCK
            else:
                s.phase = Phase.LOCAL

    def local(self) -> None:
        s = self.state
        if self.config.sqp_first:
            s.phase = Phase.COORDINATE
        else:
            s.stall_streak, s.phase = 0, Phase.BLOCK
        self.polish()

    def block(self) -> None:
        s = self.state
        f_prev = s.incumbent_f
        idx = select_coords(s, self.n, self.config.m2, CoordMode.RANDOM,
                            self.block_rng)
        self.subproblem(idx, Phase.BLOCK)
        if f_prev - s.incumbent_f <= GLOBAL_STALL_EPS:
            s.stall_streak += 1
            if s.stall_streak >= min(self.n, 6):
                s.phase = Phase.INTENSIFY
        else:
            s.stall_streak = 0

    def intensify(self) -> None:
        s = self.state
        s.intensify_from = s.best_f
        self.replace(s.best_x, s.best_f)
        self.polish()
        if self.best_moved():
            self.new_cycle()
        else:
            # coordinate may have switched away before visiting every
            # coordinate: sweep them all
            s.cursor = 0
            s.sweep_left = -(-self.n // self.config.m1)
            s.phase = Phase.SWEEP

    def sweep(self) -> None:
        s = self.state
        idx = select_coords(s, self.n, self.config.m1, CoordMode.SEQUENTIAL)
        self.subproblem(idx, Phase.COORDINATE, deep=True)
        s.sweep_left -= 1
        if s.sweep_left == 0:
            if self.best_moved():
                self.new_cycle()
            else:
                s.phase = Phase.RESTART

    def restart(self) -> Optional[Reason]:
        cfg = self.config
        if not cfg.restart_on_stall or (cfg.max_evals is None
                                        and cfg.max_subproblems is None
                                        and self.counter.cap is None
                                        and self.counter.deadline is None):
            # without any budget a restart loop could never terminate
            return Reason.GLOBAL_STALL
        x, f = self.draw_start()
        self.replace(x, f)
        self.record(Phase.COORDINATE)
        self.new_cycle()
        return None


_STEPS = {
    Phase.COORDINATE: _Run.coordinate,
    Phase.LOCAL: _Run.local,
    Phase.BLOCK: _Run.block,
    Phase.INTENSIFY: _Run.intensify,
    Phase.SWEEP: _Run.sweep,
    Phase.RESTART: _Run.restart,
}


def abcd_solve(problem: Problem, config: Optional[AbcdConfig] = None,
               counter: Optional[EvalCounter] = None) -> AbcdResult:
    config = config or AbcdConfig()
    config.validate(problem.n)
    run = _Run(problem, config,
               counter if counter is not None else EvalCounter())
    try:
        x0, f0 = run.draw_start()
        run.state = s = AbcdState(x0, f0, Phase.COORDINATE,
                                  best_x=x0.copy(), best_f=f0)
        run.record(Phase.COORDINATE)
        run.new_cycle()
        reason = None
        while reason is None:
            reason = run.stop_reason() or _STEPS[s.phase](run)
    except Stop as stop:  # at a start sample
        reason = stop.reason
    mid = problem.bounds.lower + 0.5 * problem.bounds.width
    s = run.state or AbcdState(mid, np.inf, Phase.COORDINATE, best_x=mid)
    x, f = run.counter.run_best(run.f_before, s.best_x, s.best_f)
    return AbcdResult(f, x, run.spent(), s.subproblem_index, reason,
                      run.trace)
