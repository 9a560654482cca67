"""Optimization problem abstraction: bounds, evaluation counting, normalization.

All solver-internal geometry lives in the unit hypercube [0,1]^n; user-facing
points are in the original (user-space) box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class ConfigError(ValueError):
    """Invalid problem or solver configuration."""


class DomainError(ValueError):
    """A point lies outside the expected domain."""


class NonFiniteValueError(RuntimeError):
    """The objective returned NaN or +/-Inf inside the feasible box."""


class BudgetExhausted(Exception):
    """Raised when the evaluation cap is hit; solvers must terminate gracefully."""


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

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: np.ndarray, atol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            (x >= self.lower - atol).all() and (x <= self.upper + atol).all()
        )

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


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
        value = float(self.objective(np.asarray(x, dtype=float)))
        if not math.isfinite(value):
            raise NonFiniteValueError(
                f"objective returned non-finite value {value!r} at {x!r}"
            )
        return value


@dataclass
class EvalCounter:
    """Counts objective evaluations against an optional hard cap."""

    count: int = 0
    cap: Optional[int] = None

    def __post_init__(self):
        if self.cap is not None and self.cap < 1:
            raise ConfigError("evaluation cap must be positive")

    @property
    def remaining(self) -> Optional[int]:
        if self.cap is None:
            return None
        return self.cap - self.count

    def charge(self) -> None:
        if self.cap is not None and self.count >= self.cap:
            raise BudgetExhausted(f"evaluation cap {self.cap} exhausted")
        self.count += 1


def evaluate_counted(problem: Problem, x: np.ndarray, counter: EvalCounter) -> float:
    """Evaluate f(x) charging exactly one unit of budget.

    Raises BudgetExhausted *before* evaluating when the cap is already spent.
    """
    counter.charge()
    return problem(x)


def normalize_point(x: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Map a user-space point into [0,1]^n."""
    x = np.asarray(x, dtype=float)
    return (x - bounds.lower) / bounds.width


def denormalize(z: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Map a unit-cube point back to user space."""
    z = np.asarray(z, dtype=float)
    if (z < -1e-12).any() or (z > 1 + 1e-12).any():
        raise DomainError(f"point {z!r} outside the unit cube")
    return bounds.lower + z * bounds.width


@dataclass(frozen=True)
class NormalizedProblem:
    """The problem re-expressed over the unit hypercube.

    Evaluating at z gives the original objective at lower + z*(upper-lower);
    `lower` and `width` are those of the original (user-space) box.
    """

    original: Problem
    bounds: Bounds = field(init=False)
    lower: np.ndarray = field(init=False, repr=False)
    width: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.original.n
        object.__setattr__(
            self, "bounds", Bounds(np.zeros(n), np.ones(n))
        )
        object.__setattr__(self, "lower", self.original.bounds.lower)
        object.__setattr__(self, "width", self.original.bounds.width)

    @property
    def n(self) -> int:
        return self.original.n

    @property
    def known_optimum(self) -> Optional[float]:
        return self.original.known_optimum

    def __call__(self, z: np.ndarray) -> float:
        return self.original(denormalize(z, self.original.bounds))

    def evaluate_counted(self, z: np.ndarray, counter: EvalCounter) -> float:
        """Charge one evaluation and evaluate at a float array z built inside
        the unit cube (DIRECT's base-3 centers), so it skips the cube check;
        the mapping is the one `denormalize` applies."""
        counter.charge()
        return self.original(self.lower + z * self.width)

    def to_user(self, z: np.ndarray) -> np.ndarray:
        return denormalize(z, self.original.bounds)


def normalize(problem: Problem) -> NormalizedProblem:
    """Wrap a problem so all geometry can live in [0,1]^n."""
    return NormalizedProblem(problem)
