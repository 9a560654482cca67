"""Box-constrained quasi-Newton local search with finite-difference gradients.

Damped BFGS model, projected-gradient QP step, Armijo backtracking. Stands in
wherever a smooth local polish is wanted from a warm start. A caller that
holds the start point's value passes it in, and a step that rounds away at
the iterate ends the search as stationary, so the search never evaluates
its start or its iterate again.
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
QP_ITERS = 50          # projected-gradient iterations per QP step


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
    forward probe would leave the upper bound. The steps are computed on
    Python floats, the same IEEE operations as on numpy scalars; each probe
    is a fresh array.
    """
    x = np.asarray(x, dtype=float)
    if f0 is None:
        f0 = evaluate_counted(problem, x, counter)
    upper = problem.bounds.upper.tolist()
    g = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        h = GRAD_STEP * max(1.0, abs(xi))
        if xi + h > upper[i]:
            h = -h
        probe = x.copy()
        probe[i] = xi + h
        g[i] = (evaluate_counted(problem, probe, counter) - f0) / h
    return g


def box_qp_step(g: np.ndarray, B: np.ndarray, x: np.ndarray, bounds: Bounds,
                iters: int = QP_ITERS) -> np.ndarray:
    """Approximately minimize g.p + 0.5 p'Bp over lower <= x+p <= upper.

    Projected gradient with a fixed step 1/L (L = largest eigenvalue of B)
    starting from p = 0; every iterate is feasible and the QP objective never
    rises above 0.

    The loop stops early at the first iterate k whose bytes repeat an
    earlier iterate `first`: each iterate is a function of the previous
    one's bits, so from `first` on the iterates cycle with period
    k - first, and iterate `iters` is iterate
    first + (iters - k) % (k - first). A fixed point is the period-1 case.
    The result is that of all `iters` iterations, bit for bit.
    """
    lo = bounds.lower - x
    hi = bounds.upper - x
    L = float(np.linalg.eigvalsh(B)[-1])
    if L <= 0:
        return np.zeros_like(g)
    step = 1.0 / L
    p = np.zeros_like(g)
    iterates = [p]
    seen = {p.tobytes(): 0}
    for k in range(1, iters + 1):
        # p = (p - step * (g + B @ p)).clip(lo, hi), on one new array; dot
        # reaches the same gemv as matmul with less dispatch
        q = np.dot(B, p)
        np.add(g, q, q)
        np.multiply(step, q, q)
        np.subtract(p, q, q)
        p = _clip(q, lo, hi, q)
        first = seen.setdefault(p.tobytes(), k)
        if first != k:
            p = iterates[first + (iters - k) % (k - first)]
            break
        iterates.append(p)
    if g @ p + 0.5 * p @ B @ p > 0.0:
        return np.zeros_like(g)
    return p


def _projected_gradient_norm(x, g, bounds):
    return float(np.abs(_clip(x - g, bounds.lower, bounds.upper) - x).max())


def sqp_local(problem: Problem, x0: np.ndarray,
              counter: Optional[EvalCounter] = None, *,
              f0: Optional[float] = None,
              max_iters: int = 200) -> LocalResult:
    """Quasi-Newton descent from x0, at most `max_iters` steps; returns the
    best point seen.

    `f0`, if given, is the value at x0, which must then lie in the box; the
    search evaluates x0 only without it. Powell-damped BFGS keeps the model
    positive definite. A line-search trial whose bytes equal the iterate's
    ends the search as stationary: halving the step only keeps it rounded
    away, and every later trial and gradient would repeat a point already
    evaluated. A non-finite value raises NonFiniteValueError, as in every
    phase. A `Stop` from the counter (its cap, deadline or target) ends the
    search with the stop's `Reason` as its status, and its best pair then is
    the counter's if a trial or gradient probe of this search is lower.
    """
    counter = counter if counter is not None else EvalCounter()
    bounds = problem.bounds
    x = bounds.clip(np.asarray(x0, dtype=float))
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
