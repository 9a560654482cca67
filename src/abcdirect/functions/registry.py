"""Benchmark function registry: canonical bounds, known optima, metadata.

Covers the nine Jones functions (fixed dimensions) and the thirteen
dimension-scalable Hedar functions. Optima marked `oracle_derived` were
obtained by dense sampling plus local polish rather than a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..problem import Bounds, Problem
from .kernels import KERNELS, SCHWEFEL_XSTAR


class RegistryError(KeyError):
    """Unknown function name or disallowed dimension."""


@dataclass(frozen=True)
class TestFunction:
    name: str
    dim: int
    bounds: Bounds                  # canonical, before symmetry adjustment
    f_star: Optional[float]
    x_star: Optional[np.ndarray]
    local_count: Optional[int] = None
    global_count: Optional[int] = None
    oracle_derived: bool = False    # f_star from sampling+polish, no closed form


@dataclass(frozen=True)
class _Entry:
    kernel_name: str
    dims: object                    # fixed int, or (min_dim, step) rule
    bounds_rule: Callable[[int], tuple]
    f_star: Callable[[int], Optional[float]]
    x_star: Callable[[int], Optional[np.ndarray]]
    local_count: Optional[int] = None
    global_count: Optional[int] = None
    oracle_derived: bool = False


def _const_bounds(lo, hi):
    return lambda n: (np.full(n, float(lo)), np.full(n, float(hi)))


_SHEKEL_X = {
    "S5": [4.000037152376549, 4.000133278657566, 4.000037151057555,
           4.000133277090425],
    "S7": [4.000572914277084, 4.000689366040889, 3.9994897107938447,
           3.9996061600067923],
    "S10": [4.000746533201553, 4.000592934538832, 3.9996633972202558,
            3.9995098012852255],
}
_SHEKEL_F = {"S5": -10.153199679058229, "S7": -10.402940566818662,
             "S10": -10.536409816692046}

_MICHALEWICZ_F = {2: -1.8013034100985466, 5: -4.687658179088141,
                  10: -9.660151715641145}
_MICHALEWICZ_X = {
    2: [2.2029055362716097, 1.5707963325679215],
    5: [2.2029055362716097, 1.5707963325679215, 1.2849915711350253,
        1.9230584688712318, 1.7204697747981517],
    10: [2.2029055362716097, 1.5707963325679215, 1.2849915711350253,
         1.9230584688712318, 1.7204697747981517, 1.5707963323727387,
         1.454413969460719, 1.7560865132055188, 1.6557174061754507,
         1.5707963323557697],
}


def _dixon_price_xstar(n):
    i = np.arange(1, n + 1, dtype=float)
    return 2.0 ** (-(2.0 ** i - 2.0) / 2.0 ** i)


def _trid_xstar(n):
    i = np.arange(1, n + 1, dtype=float)
    return i * (n + 1 - i)


_REGISTRY: dict[str, _Entry] = {
    # Jones set (fixed dimensions)
    "S5": _Entry("S5", 4, _const_bounds(0, 10),
                 lambda n: _SHEKEL_F["S5"],
                 lambda n: np.array(_SHEKEL_X["S5"]), 5, 1),
    "S7": _Entry("S7", 4, _const_bounds(0, 10),
                 lambda n: _SHEKEL_F["S7"],
                 lambda n: np.array(_SHEKEL_X["S7"]), 7, 1),
    "S10": _Entry("S10", 4, _const_bounds(0, 10),
                  lambda n: _SHEKEL_F["S10"],
                  lambda n: np.array(_SHEKEL_X["S10"]), 10, 1),
    "H3": _Entry("H3", 3, _const_bounds(0, 1),
                 lambda n: -3.862779787332663,
                 lambda n: np.array([0.11458887557640371, 0.5556488940378945,
                                     0.8525469854710511]), 4, 1),
    "H6": _Entry("H6", 6, _const_bounds(0, 1),
                 lambda n: -3.322368011415515,
                 lambda n: np.array([0.2016895128922905, 0.15001069323742897,
                                     0.4768739767611768, 0.2753324307839508,
                                     0.31165161848739587, 0.6573005349989142]),
                 4, 1),
    "BR": _Entry("BR", 2,
                 lambda n: (np.array([-5.0, 0.0]), np.array([10.0, 15.0])),
                 lambda n: 0.39788735772973816,
                 lambda n: np.array([math.pi, 2.275]), 3, 3),
    "GP": _Entry("GP", 2, _const_bounds(-2, 2),
                 lambda n: 3.0,
                 lambda n: np.array([0.0, -1.0]), 4, 1),
    "C6": _Entry("C6", 2,
                 lambda n: (np.array([-3.0, -2.0]), np.array([3.0, 2.0])),
                 lambda n: -1.0316284534898774,
                 lambda n: np.array([0.08984201394474498,
                                     -0.7126564058067623]), 6, 2),
    "SHU": _Entry("SHU", 2, _const_bounds(-10, 10),
                  lambda n: -186.7309088310239,
                  lambda n: np.array([-1.425128429608772,
                                      -0.800321099494876]), 760, 18),
    # Hedar set (dimension-scalable)
    "ackley": _Entry("ackley", (1, 1), _const_bounds(-15, 30),
                     lambda n: 0.0, lambda n: np.zeros(n)),
    "dixon-price": _Entry("dixon-price", (1, 1), _const_bounds(-10, 10),
                          lambda n: 0.0, _dixon_price_xstar),
    "griewank": _Entry("griewank", (1, 1), _const_bounds(-600, 600),
                       lambda n: 0.0, lambda n: np.zeros(n)),
    "levy": _Entry("levy", (1, 1), _const_bounds(-10, 10),
                   lambda n: 0.0, lambda n: np.ones(n)),
    "michalewicz": _Entry(
        "michalewicz", (1, 1), lambda n: (np.zeros(n), np.full(n, math.pi)),
        lambda n: _MICHALEWICZ_F.get(n),
        lambda n: (np.array(_MICHALEWICZ_X[n])
                   if n in _MICHALEWICZ_X else None),
        oracle_derived=True),
    "powell": _Entry("powell", (4, 1), _const_bounds(-4, 5),
                     lambda n: 0.0, lambda n: np.zeros(n)),
    "rastrigin": _Entry("rastrigin", (1, 1), _const_bounds(-5.12, 5.12),
                        lambda n: 0.0, lambda n: np.zeros(n)),
    "rosenbrock": _Entry("rosenbrock", (2, 1), _const_bounds(-5, 10),
                         lambda n: 0.0, lambda n: np.ones(n)),
    "schwefel": _Entry("schwefel", (1, 1), _const_bounds(-500, 500),
                       lambda n: 0.0,
                       lambda n: np.full(n, SCHWEFEL_XSTAR),
                       oracle_derived=True),
    "sphere": _Entry("sphere", (1, 1), _const_bounds(-5.12, 5.12),
                     lambda n: 0.0, lambda n: np.zeros(n)),
    "sum-square": _Entry("sum-square", (1, 1), _const_bounds(-10, 10),
                         lambda n: 0.0, lambda n: np.zeros(n)),
    "trid": _Entry("trid", (2, 1),
                   lambda n: (np.full(n, -float(n * n)),
                              np.full(n, float(n * n))),
                   lambda n: -n * (n + 4) * (n - 1) / 6.0, _trid_xstar),
    "zakharov": _Entry("zakharov", (1, 1), _const_bounds(-5, 10),
                       lambda n: 0.0, lambda n: np.zeros(n)),
}

JONES_NAMES = ["S5", "S7", "S10", "H3", "H6", "BR", "GP", "C6", "SHU"]
HEDAR_NAMES = ["ackley", "dixon-price", "griewank", "levy", "michalewicz",
               "powell", "rastrigin", "rosenbrock", "schwefel", "sphere",
               "sum-square", "trid", "zakharov"]


def list_functions() -> list[str]:
    return JONES_NAMES + HEDAR_NAMES


def _resolve_dim(entry: _Entry, name: str, dim: Optional[int]) -> int:
    if isinstance(entry.dims, int):
        if dim is not None and dim != entry.dims:
            raise RegistryError(
                f"{name} is fixed at dimension {entry.dims}, got {dim}")
        return entry.dims
    min_dim, step = entry.dims
    if dim is None:
        raise RegistryError(f"{name} requires an explicit dimension")
    if dim < min_dim or (dim - min_dim) % step != 0:
        raise RegistryError(
            f"{name} supports dimensions >= {min_dim} (step {step}), got {dim}")
    return dim


def adjust_bounds(bounds: Bounds, x_star: Optional[np.ndarray]) -> Bounds:
    """Break center-point symmetry: when the box is symmetric about the origin
    and the known optimizer is the origin, stretch to (0.8*lower, 1.2*upper)
    so the initial center sample cannot land on the optimum."""
    if x_star is None:
        return bounds
    symmetric = np.allclose(bounds.lower, -bounds.upper)
    at_origin = np.allclose(x_star, 0.0)
    if symmetric and at_origin:
        return Bounds(0.8 * bounds.lower, 1.2 * bounds.upper)
    return bounds


def get_function(name: str, dim: Optional[int] = None,
                 adjust: bool = True) -> tuple[Problem, TestFunction]:
    """Build the Problem (bounds symmetry-adjusted by default) plus metadata."""
    if name not in _REGISTRY:
        raise RegistryError(
            f"unknown function {name!r}; valid names: {', '.join(list_functions())}")
    entry = _REGISTRY[name]
    n = _resolve_dim(entry, name, dim)
    lower, upper = entry.bounds_rule(n)
    bounds = Bounds(lower, upper)
    f_star = entry.f_star(n)
    x_star = entry.x_star(n)
    meta = TestFunction(
        name=name, dim=n, bounds=bounds, f_star=f_star, x_star=x_star,
        local_count=entry.local_count, global_count=entry.global_count,
        oracle_derived=entry.oracle_derived,
    )
    solve_bounds = adjust_bounds(bounds, x_star) if adjust else bounds
    problem = Problem(
        objective=KERNELS[entry.kernel_name],
        bounds=solve_bounds,
        known_optimum=f_star,
    )
    return problem, meta


def validate_registry(samples: int = 10 ** 6, polish_count: int = 10,
                      seed: int = 0, rtol: float = 1e-9) -> list[dict]:
    """Self-audit every registered optimum.

    For each function at its smallest allowed dimension: f(x_star) must match
    f_star within tolerance, and the best of `samples` seeded uniform draws,
    plus a short local polish from the best few, must not beat f_star by more
    than the tolerance.
    """
    from ..local import sqp_local

    rng = np.random.default_rng(seed)
    report = []
    for name in list_functions():
        entry = _REGISTRY[name]
        n = entry.dims if isinstance(entry.dims, int) else entry.dims[0]
        if name == "michalewicz":
            n = 5
        problem, meta = get_function(name, n, adjust=False)
        row = {"name": name, "dim": n, "ok": True, "detail": ""}
        if meta.x_star is not None and meta.f_star is not None:
            got = problem(meta.x_star)
            if abs(got - meta.f_star) > rtol * max(1.0, abs(meta.f_star)):
                row["ok"] = False
                row["detail"] = f"f(x_star)={got!r} != f_star={meta.f_star!r}"
        if meta.f_star is not None:
            pts = rng.uniform(meta.bounds.lower, meta.bounds.upper,
                              size=(samples, n))
            vals = np.array([problem(p) for p in pts])
            order = np.argsort(vals)
            best = float(vals[order[0]])
            for idx in order[:polish_count]:
                res = sqp_local(problem, pts[idx], f0=vals[idx],
                                max_iters=100)
                best = min(best, res.f)
            if best < meta.f_star - rtol * max(1.0, abs(meta.f_star)):
                row["ok"] = False
                row["detail"] += f" sampled {best!r} beats f_star={meta.f_star!r}"
        report.append(row)
    return report
