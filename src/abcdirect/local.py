"""Box-constrained quasi-Newton local search with finite-difference gradients.

Damped BFGS model, a QP step solved over the box by an active-set method,
Armijo backtracking. Stands in wherever a smooth local polish is wanted
from a warm start. A caller that holds the start point's value passes it
in, and a step that rounds away at the iterate ends the search as
stationary, so the search never evaluates its start or its iterate again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
# the clip ufunc itself, which ndarray.clip reaches through a Python-level
# dispatcher; np.minimum/np.maximum would differ from it on signed zeros
from numpy._core.umath import clip as _clip

from .problem import (
    Bounds,
    ConfigError,
    EvalCounter,
    Problem,
    Reason,
    Stop,
    evaluate_counted,
)


GRAD_STEP = 1e-7       # relative finite-difference step
PG_TOL = 1e-8          # projected-gradient stationarity tolerance
ARMIJO_C = 1e-4        # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 30    # step halvings before the line search fails
QP_CHANGES = 50        # working-set changes per QP step


class LocalStatus(str, Enum):
    """How a search ended on its own; a stop of its counter is a `Reason`."""

    STATIONARY = "stationary"
    ITER_CAP = "iter_cap"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass
class LocalResult:
    x: np.ndarray
    f: float
    iterations: int
    status: LocalStatus | Reason
    evals: int = 0
    trace: list = field(default_factory=list)  # (evals, f_best)


def fd_gradient(problem: Problem, x: np.ndarray, counter: EvalCounter,
                f0: Optional[float] = None) -> np.ndarray:
    """One-sided finite differences, n extra evaluations.

    Forward step h_i = GRAD_STEP*max(1, |x_i|); switches to backward when the
    forward probe would leave the upper bound. In a box narrower than the
    step, where the backward probe would leave the lower bound too, the
    probe is the bound with more room. The steps are computed on Python
    floats, the same IEEE operations as on numpy scalars. Each probe moves
    one coordinate of x and goes to `evaluate_counted` as `(x, i, z)`,
    valued by the probe `view(i)` of the problem's one coordinate view at
    x (`Problem.coordinate_view`); x is not written.
    """
    x = np.asarray(x, dtype=float)
    if f0 is None:
        f0 = evaluate_counted(problem, x, counter)
    lower = problem.bounds.lower.tolist()
    upper = problem.bounds.upper.tolist()
    view = problem.coordinate_view(x)
    g = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        h = GRAD_STEP * max(1.0, abs(xi))
        if xi + h > upper[i]:
            h = -h
        z = xi + h
        if z < lower[i]:
            # a box narrower than the step: probe the bound with more room
            z = max(upper[i], lower[i], key=lambda b: abs(b - xi))
            h = z - xi
        g[i] = (evaluate_counted(problem, x, counter, view(i), i, z)
                - f0) / h
    return g


def box_qp_step(g: np.ndarray, B: np.ndarray, x: np.ndarray,
                bounds: Bounds) -> np.ndarray:
    """Minimize g.p + 0.5 p'Bp over lower <= x+p <= upper.

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    2006, sec. 16.5) from p = 0. The working set holds coordinates fixed at
    a bound; each pass solves for the minimizer over the free coordinates.
    With an empty working set that is the Newton step -B^-1 g, returned as
    `np.linalg.solve` gives it when it lies in the box. A minimizer outside
    the box is approached up to the first bound it crosses, whose
    coordinate is fixed there. At a minimizer inside the box, the fixed
    coordinate whose bound multiplier has the wrong sign, the largest
    first, is released; none means p solves the QP. After QP_CHANGES
    working-set changes, or at a singular or non-finite reduced solve, the
    current p is returned. Every p is feasible, and a p whose QP objective
    rounds above 0 becomes the zero step.

    The first pass is solved before the loop, on the full B: with no bound
    fixed, the reduced system is B and -g bit for bit, and a finite
    solution inside the box is what the loop returns too, whatever its
    multiplier test reads (a NaN multiplier releases nothing until the
    cap). Any other first pass is the loop's first, which solves only the
    passes after it.
    """
    lo, hi = bounds.lower - x, bounds.upper - x
    try:
        y = np.linalg.solve(B, -g)
    except np.linalg.LinAlgError:  # a singular model: the zero step
        return np.zeros_like(g)
    if np.isfinite(y).all() and ((lo <= y) & (y <= hi)).all():
        return np.zeros_like(g) if g @ y + 0.5 * y @ B @ y > 0.0 else y
    p, fixed = np.zeros_like(g), np.zeros(g.size, dtype=bool)
    for change in range(QP_CHANGES):
        if change:  # the first pass is the full solve above
            free, y = ~fixed, p.copy()
            try:
                y[free] = np.linalg.solve(
                    B[np.ix_(free, free)],
                    -g[free] - B[np.ix_(free, fixed)] @ p[fixed])
            except np.linalg.LinAlgError:  # a singular reduced model
                break
        if not np.isfinite(y).all():
            break
        out = np.flatnonzero((y < lo) | (y > hi))
        if out.size:  # stop at the first bound crossed, fixed from then on
            step = (_clip(y, lo, hi) - p)[out] / (y - p)[out]
            k = out[np.argmin(step)]
            p = _clip(p + step.min() * (y - p), lo, hi)
            p[k], fixed[k] = (lo[k] if y[k] < lo[k] else hi[k]), True
            continue
        p = y  # multipliers: g + Bp at a lower bound, -(g + Bp) at an upper
        lam = np.where(p == lo, 1.0, -1.0) * (g + B @ p) * fixed
        if lam.min() >= 0.0:
            break
        fixed[np.argmin(lam)] = False
    return np.zeros_like(g) if g @ p + 0.5 * p @ B @ p > 0.0 else p


def _projected_gradient_norm(x, g, bounds):
    return float(np.abs(_clip(x - g, bounds.lower, bounds.upper) - x).max())


def sqp_local(problem: Problem, x0: np.ndarray,
              counter: Optional[EvalCounter] = None, *,
              f0: Optional[float] = None,
              max_iters: int = 200) -> LocalResult:
    """Quasi-Newton descent from x0, at most `max_iters` steps; returns the
    best point seen.

    `max_iters` below 1 raises ConfigError before any evaluation. `f0`, if
    given, is the value at x0, which must then lie in the closed box: one
    outside it (a NaN coordinate included) raises ConfigError too. The
    search evaluates x0 only without `f0`, and clips it into the box.
    Powell-damped BFGS keeps the model positive definite. A line-search
    trial whose bytes equal the iterate's ends the search as stationary:
    halving the step only keeps it rounded away, and every later trial and
    gradient would repeat a point already evaluated. A non-finite value
    raises NonFiniteValueError, as in every phase. A `Stop` from the
    counter (its cap, deadline or target) ends the search with the stop's
    `Reason` as its status, and its best pair then is the counter's if a
    trial or gradient probe of this search is lower.
    """
    if not max_iters >= 1:
        raise ConfigError(f"max_iters must be at least 1, got {max_iters}")
    counter = counter if counter is not None else EvalCounter()
    bounds = problem.bounds
    x = np.asarray(x0, dtype=float)
    if f0 is not None and not (
            (bounds.lower <= x) & (x <= bounds.upper)).all():
        raise ConfigError("f0 is given for an x0 outside the box")
    x = bounds.clip(x)
    n = x.size
    start_count, f_before = counter.count, counter.best_f

    def spent():
        return counter.count - start_count

    trace = []
    best_x, best_f = x, np.inf
    B = np.eye(n)
    status = LocalStatus.ITER_CAP
    it = 0

    try:
        f = evaluate_counted(problem, x, counter) if f0 is None else f0
        best_x, best_f = x.copy(), f
        trace.append((spent(), best_f))
        g = fd_gradient(problem, x, counter, f0=f)
        for it in range(1, max_iters + 1):
            if _projected_gradient_norm(x, g, bounds) <= PG_TOL:
                status = LocalStatus.STATIONARY
                break
            p = box_qp_step(g, B, x, bounds)
            slope = float(g @ p)
            if not np.any(p) or slope >= 0.0:
                status = LocalStatus.STATIONARY
                break
            alpha = 1.0
            x_bytes = x.tobytes()
            for _ in range(MAX_BACKTRACKS):
                x_new = _clip(x + alpha * p, bounds.lower, bounds.upper)
                if x_new.tobytes() == x_bytes:
                    # rounding is monotone, so every shorter step rounds
                    # away too
                    status = LocalStatus.STATIONARY
                    break
                f_new = evaluate_counted(problem, x_new, counter)
                if f_new <= f + ARMIJO_C * alpha * slope:
                    break
                alpha *= 0.5
            else:
                status = LocalStatus.LINE_SEARCH_FAILURE
            if status is not LocalStatus.ITER_CAP:
                break
            g_new = fd_gradient(problem, x_new, counter, f0=f_new)
            s = x_new - x
            y = g_new - g
            Bs = B @ s
            sBs = float(s @ Bs)
            sy = float(s @ y)
            if sBs > 0.0:
                if sy < 0.2 * sBs:  # Powell damping
                    theta = 0.8 * sBs / (sBs - sy)
                    y = theta * y + (1.0 - theta) * Bs
                    sy = float(s @ y)
                if sy > 1e-16:
                    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
            x, f, g = x_new, f_new, g_new
            if f < best_f:
                best_x, best_f = x.copy(), f
                trace.append((spent(), best_f))
    except Stop as stop:
        status = stop.reason
        best_x, best_f = counter.run_best(f_before, best_x, best_f)

    return LocalResult(best_x, best_f, it, status, spent(), trace)
