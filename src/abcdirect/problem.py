"""Optimization problem abstraction: bounds, the run's budget and its one
evaluation site.

Evaluated and user-facing points are in the original (user-space) box;
only DIRECT's partition geometry (trisection levels and base-3 numerators)
lives in the unit hypercube, and DIRECT maps each probe into the box
itself.

Every evaluation of a run goes through `evaluate_counted`, which charges
the run's one `EvalCounter` and shows it the value. The point is a full
point x, valued by the problem, or a probe `(x, i, z)`, its base x with
coordinate i moved to z, valued by the probe `view(i)` of a coordinate view
at the base (`Problem.coordinate_view`); both keep the rules of
`finite_value`. A view is curried: `view(i)` binds coordinate i once, and
the probe it returns takes z alone, so a caller that moves one coordinate
many times binds it once. A probe is built as an array only where its view
needs one or its value improves the counter's best, which keeps it. The
counter raises `Stop` at the evaluation where the cap, the deadline or the
target holds, whatever phase the run is in.

`check_view` checks an objective's view against the objective itself, bit
for bit.
"""

from __future__ import annotations

import functools
import math
import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np


class ConfigError(ValueError):
    """Invalid problem or solver configuration."""


class DomainError(ValueError):
    """A point lies outside the expected domain."""


class NonFiniteValueError(RuntimeError):
    """The objective returned NaN or +/-Inf inside the feasible box."""


class Reason(str, Enum):
    """Why a solver stopped; each value is a report's termination label."""

    TARGET_REACHED = "target_reached"
    EVAL_BUDGET = "eval_budget"
    TIME_BUDGET = "time_budget"
    GLOBAL_STALL = "global_stall"


class Stop(Exception):
    """An `EvalCounter` ends the run for `reason`; every solver catches it."""

    def __init__(self, reason: Reason):
        super().__init__(reason.value)
        self.reason = reason


@dataclass(frozen=True)
class Bounds:
    """Box bounds in user units. Lower must be strictly below upper per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ConfigError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ConfigError("bounds must have at least one dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ConfigError("bounds must be finite")
        if not (lower < upper).all():
            raise ConfigError("lower[i] < upper[i] required for all i")

    @property
    def n(self) -> int:
        return self.lower.size

    @functools.cached_property
    def width(self) -> np.ndarray:
        """upper - lower, computed once; not to be written."""
        return self.upper - self.lower

    @functools.cached_property
    def float_lists(self) -> tuple[list[float], list[float]]:
        """`lower` and `width` as lists of Python floats, computed once,
        which DIRECT maps its probes with; not to be written."""
        return self.lower.tolist(), self.width.tolist()

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).clip(self.lower, self.upper)


@dataclass(frozen=True)
class Problem:
    """A box-constrained minimization problem.

    The objective must be deterministic and finite everywhere inside bounds;
    non-finite values are rejected with a hard error rather than mapped to +Inf.
    """

    objective: Callable[[np.ndarray], float]
    bounds: Bounds
    known_optimum: Optional[float] = None

    @property
    def n(self) -> int:
        return self.bounds.n

    def __call__(self, x: np.ndarray) -> float:
        return finite_value(self.objective, np.asarray(x, dtype=float))

    def coordinate_view(
            self, x: np.ndarray) -> Callable[[int], Callable[[float], float]]:
        """The objective at x, a float array, with one coordinate moved, as
        a curried function: `view(i)` is the probe `z -> objective(x with
        x[i] = z)`, bit for bit, and neither writes x.

        An objective may carry a `view` attribute, a builder of such a
        function from x whose probes recompute only what coordinate i
        touches; every kernel of `functions.kernels` does. Its view is
        returned. For an objective without one, a wrapped kernel included,
        and where building it raises OverflowError, each probe calls the
        objective on the probe's point, built afresh."""
        build = getattr(self.objective, "view", None)
        if build is not None:
            try:
                return build(x)
            except OverflowError:
                pass
        objective = self.objective
        return lambda i: lambda z: objective(_probe(x, i, z))


def finite_value(f: Callable[..., float], x: np.ndarray,
                 i: Optional[int] = None, z: float = 0.0) -> float:
    """The objective's value at x, `f(x)`, or, for `i` given, at the probe
    x with x[i] = z, `f(z)` for f the probe `view(i)` of a coordinate view
    at x; by the rules of every evaluation: converted to a float, inf where
    the computation raises OverflowError (Python-float arithmetic raises
    where numpy would give inf), and NonFiniteValueError unless the value
    is finite. Only that error's message builds the probe."""
    try:
        value = float(f(x) if i is None else f(z))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        point = x if i is None else _probe(x, i, z)
        raise NonFiniteValueError(
            f"objective returned non-finite value {value!r} at {point!r}"
        )
    return value


def _probe(x: np.ndarray, i: int, z: float) -> np.ndarray:
    """x, a float array, with x[i] = z, as a new array; x is not written."""
    point = x.copy()
    point[i] = z
    return point


@dataclass
class EvalCounter:
    """The one budget of a run: it counts evaluations and stops the run.

    `evaluate_counted` calls `charge()` before every evaluation, which
    raises `Stop` instead once the cap is spent or the `deadline` (a
    `time.monotonic()` instant) is past, and hands a value below `best_f`
    to `improve`, which keeps the pair and stops the run if the value is
    within `tol` of `target`. A stopped counter raises the same `Stop` at
    every later `charge()`. A caller sets the cap and the deadline; the
    outermost solver a counter is handed to arms it with a target unless
    the caller armed it first.
    """

    count: int = 0
    cap: Optional[int] = None
    deadline: Optional[float] = None
    target: Optional[float] = field(default=None, init=False)
    tol: float = field(default=0.0, init=False)
    armed: bool = field(default=False, init=False)
    best_x: Optional[np.ndarray] = field(default=None, init=False)
    best_f: float = field(default=math.inf, init=False)
    reason: Optional[Reason] = field(default=None, init=False)
    # the count at which `charge` stops: the cap, or the count at a stop
    _limit: float = field(default=math.inf, init=False, repr=False)

    def __post_init__(self):
        if self.cap is not None:
            if self.cap < 1:
                raise ConfigError("evaluation cap must be positive")
            self._limit = self.cap

    @property
    def remaining(self) -> Optional[int]:
        return None if self.cap is None else self.cap - self.count

    def arm(self, problem: Problem, accuracy: float,
            seconds: Optional[float]) -> None:
        """Target the problem's known optimum within `accuracy` and stop
        `seconds` from now, unless the counter is armed already."""
        if not self.armed:
            self.armed, self.target = True, problem.known_optimum
            self.tol = accuracy
            if seconds is not None:
                self.deadline = time.monotonic() + seconds

    def charge(self) -> None:
        """Count one evaluation about to be made, or raise `Stop`."""
        if self.count >= self._limit:
            self.stop(self.reason or Reason.EVAL_BUDGET)
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.stop(Reason.TIME_BUDGET)
        self.count += 1

    def improve(self, x: np.ndarray, f: float) -> None:
        """Keep (x, f), evaluated below `best_f`, as the best pair; raise
        `Stop` if f is within `tol` of the target. x is kept as it is
        handed over, a float array that nothing else holds."""
        self.best_x, self.best_f = x, f
        if self.target is not None and abs(f - self.target) <= self.tol:
            self.stop(Reason.TARGET_REACHED)

    def stop(self, reason: Reason) -> None:
        """Raise `Stop(reason)`, now and at every later `charge()`."""
        self.reason, self._limit = reason, self.count
        raise Stop(reason)

    def run_best(self, f_before: float, x: np.ndarray,
                 f: float) -> tuple[np.ndarray, float]:
        """A solver's own best (x, f) or, after a stop cut it short, the
        counter's best pair if it is lower and this solver found it, which
        it did if it is below `f_before`, the best when the solver began."""
        if self.reason is not None and self.best_f < min(f, f_before):
            return self.best_x.copy(), self.best_f
        return x, f


def evaluate_counted(problem: Problem, x: np.ndarray, counter: EvalCounter,
                     probe: Optional[Callable[[float], float]] = None,
                     i: Optional[int] = None, z: float = 0.0) -> float:
    """Evaluate f at one point, charging exactly one unit of budget; Stop
    is raised before the evaluation on the cap or deadline, after it on
    the target. Every solver evaluates through this function.

    With `i` None the point is x, and the value `problem(x)`. With `i`
    given it is the probe x with x[i] = z, and x, its base, is never
    written; `probe` is then `view(i)` for `view` the problem's
    `coordinate_view` at x, and the value `probe(z)`, under the rules of
    `Problem.__call__` (`finite_value`).

    The counter keeps the array it is handed: a probe, built for it, or a
    copy of a full point, since the objective may keep that array.
    """
    counter.charge()
    value = problem(x) if i is None else finite_value(probe, x, i, z)
    if value < counter.best_f:
        counter.improve(np.array(x, dtype=float) if i is None
                        else _probe(x, i, z), value)
    return value


def check_view(objective: Callable[[np.ndarray], float], bounds: Bounds,
               points: int = 40, seed: int = 0, extra=()) -> list[tuple]:
    """The probes at which an objective's coordinate view and the
    objective itself differ in any bit, as (base point, i, z, the view's
    value, the objective's value); an empty list passes.

    The view is the one `Problem.coordinate_view` gives, so an objective
    without a `view` of its own passes. Base points: `points` seeded ones
    in the box stretched 1.2x about its centre, both corners of the box and
    each point of `extra`. At each base every coordinate's probe is bound
    first, as DIRECT and the gradient bind them, then each is probed at the
    corners', the `extra` points' and one seeded point's coordinate, one
    probe after another and every coordinate in turn."""
    problem = Problem(objective, bounds)
    lower, upper = bounds.lower, bounds.upper
    mid, half = 0.5 * (lower + upper), 0.6 * bounds.width
    rng = np.random.default_rng(seed)
    special = [lower, upper, *(np.asarray(p, dtype=float) for p in extra)]
    xs = [*rng.uniform(mid - half, mid + half, size=(points, bounds.n)),
          *special]
    zs = [*special,
          *rng.uniform(mid - half, mid + half, size=(len(xs), bounds.n))]
    pack = struct.Struct("<d").pack
    bad = []
    for k, x in enumerate(xs):
        view = problem.coordinate_view(x)
        probes = [view(i) for i in range(bounds.n)]
        for z in (*zs[:len(special)], zs[len(special) + k]):
            for i, probe in enumerate(probes):
                zi = float(z[i])
                got, want = probe(zi), objective(_probe(x, i, zi))
                if pack(got) != pack(want):
                    bad.append((x, i, zi, got, want))
    return bad


def denormalize(z: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Map a unit-cube point back to user space."""
    z = np.asarray(z, dtype=float)
    if (z < -1e-12).any() or (z > 1 + 1e-12).any():
        raise DomainError(f"point {z!r} outside the unit cube")
    return bounds.lower + z * bounds.width


@dataclass(frozen=True)
class NormalizedProblem:
    """The problem re-expressed over the unit hypercube: evaluating at z
    gives the original objective at lower + z*(upper-lower), after a check
    that z lies in the cube.

    No solver uses it: DIRECT maps its unit-cube probes itself and
    evaluates through `evaluate_counted`. The class stays only because the
    benchmark tracer wraps `NormalizedProblem.__call__` by name; it goes
    with the tracer's move to one event stream.
    """

    original: Problem

    def __call__(self, z: np.ndarray) -> float:
        return self.original(denormalize(z, self.original.bounds))
