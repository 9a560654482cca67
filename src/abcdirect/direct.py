"""DIRECT partition machinery: rectangle store, sampling/dividing, POH
identification and the main dividing-rectangles loop.

Geometry lives in the unit hypercube. Rectangle centers are carried both as
floats and as exact base-3 integer numerators (center_i = num_i / (2*3^level_i),
num_i odd), so repeated trisection never drifts and tiling/disjointness can be
certified with integer arithmetic.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .problem import (
    BudgetExhausted,
    EvalCounter,
    NormalizedProblem,
    Problem,
    normalize,
)

#: group keys are measures rounded to this many digits; measures are sums of
#: powers of 1/9 and only drift in the last bits
GROUP_KEY_DIGITS = 12


def measure(levels: np.ndarray) -> float:
    """Center-to-vertex (half-diagonal) distance of a rectangle with side
    lengths 3^(-levels[i])."""
    levels = np.asarray(levels)
    if (levels < 0).any():
        raise ValueError("trisection levels must be nonnegative")
    return 0.5 * float(np.sqrt(np.sum(3.0 ** (-2.0 * levels))))


def _group_key(d: float) -> float:
    return round(d, GROUP_KEY_DIGITS)


@dataclass(frozen=True)
class Rectangle:
    """Read-only view of one partition cell."""

    id: int
    center: np.ndarray
    levels: np.ndarray
    exact: tuple  # integer numerators; center_i = exact[i] / (2*3^levels[i])
    value: float

    @property
    def measure(self) -> float:
        return measure(self.levels)


class PartitionState:
    """Flat-array rectangle store with a measure-keyed group index.

    Groups map a rounded measure to a lazy min-heap of (value, id) entries;
    stale entries (rectangles whose measure changed after division) are purged
    on access.
    """

    def __init__(self, n: int, counter: Optional[EvalCounter] = None):
        self.n = n
        self.counter = counter if counter is not None else EvalCounter()
        cap = 256
        self._centers = np.empty((cap, n), dtype=float)
        self._levels = np.zeros((cap, n), dtype=np.int16)
        self._values = np.empty(cap, dtype=float)
        self._exact: list[tuple] = []
        self.size = 0
        self._heaps: dict[float, list] = {}
        self._keys: list[float] = []  # current group key per id
        self._key_of: dict[bytes, float] = {}  # level-vector bytes -> key
        self.f_min = np.inf
        self.x_min: Optional[np.ndarray] = None
        self._min_key = np.inf

    # -- storage ---------------------------------------------------------

    def _grow(self):
        cap = self._centers.shape[0] * 2
        self._centers = np.resize(self._centers, (cap, self.n))
        self._levels = np.resize(self._levels, (cap, self.n))
        self._values = np.resize(self._values, cap)

    def group_key(self, levels: np.ndarray) -> float:
        """Group key of a level vector, computed once per distinct vector."""
        row = np.asarray(levels, dtype=np.int16)
        raw = row.tobytes()
        key = self._key_of.get(raw)
        if key is None:
            key = self._key_of[raw] = _group_key(measure(row))
        return key

    def add(self, center: np.ndarray, levels: np.ndarray, exact: tuple,
            value: float, key: Optional[float] = None) -> int:
        """Store a rectangle; `key`, when given, is `group_key(levels)`."""
        if self.size == self._centers.shape[0]:
            self._grow()
        rid = self.size
        self.size += 1
        self._centers[rid] = center
        self._levels[rid] = levels
        self._values[rid] = value
        self._exact.append(tuple(exact))
        if key is None:
            key = self.group_key(self._levels[rid])
        self._keys.append(key)
        heapq.heappush(self._heaps.setdefault(key, []), (value, rid))
        if key < self._min_key:
            self._min_key = key
        if value < self.f_min:
            self.f_min = value
            self.x_min = np.array(center, dtype=float)
        return rid

    def rekey(self, rid: int, levels: np.ndarray, exact: tuple,
              key: Optional[float] = None) -> None:
        """Re-index a rectangle after its levels changed in a division;
        `key`, when given, is `group_key(levels)`."""
        self._levels[rid] = levels
        self._exact[rid] = tuple(exact)
        if key is None:
            key = self.group_key(self._levels[rid])
        self._keys[rid] = key
        heapq.heappush(self._heaps.setdefault(key, []), (self._values[rid], rid))
        if key < self._min_key:
            self._min_key = key

    def rectangle(self, rid: int) -> Rectangle:
        return Rectangle(
            id=rid,
            center=self._centers[rid].copy(),
            levels=self._levels[rid].astype(int),
            exact=self._exact[rid],
            value=float(self._values[rid]),
        )

    def rectangles(self):
        return [self.rectangle(i) for i in range(self.size)]

    @property
    def min_measure(self) -> float:
        return self._min_key

    # -- group index -----------------------------------------------------

    def group_representatives(self) -> list[tuple[float, float, int]]:
        """Per-measure-group minimum-value representatives, sorted by measure
        ascending. Ties on value resolve to the lowest id (heap order)."""
        reps = []
        for key in list(self._heaps):
            heap = self._heaps[key]
            while heap and self._keys[heap[0][1]] != key:
                heapq.heappop(heap)
            if not heap:
                del self._heaps[key]
                continue
            value, rid = heap[0]
            reps.append((key, value, rid))
        reps.sort()
        return reps


def identify_poh(state: PartitionState, eps: float) -> list[int]:
    """Ids of potentially optimal rectangles.

    Lower-right convex hull of the per-group representatives in the
    (measure, value) plane, filtered by the nontrivial-improvement condition
    f_j - K*d_j <= f_min - eps*|f_min| at the largest admissible K for each
    hull vertex. The largest-measure hull vertex is always returned so the
    outer loop can never stall on an empty selection.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    reps = state.group_representatives()
    if not reps:
        return []
    if len(reps) == 1:
        return [reps[0][2]]

    # lower convex hull, measures ascending; collinear middles dropped
    hull: list[tuple[float, float, int]] = []
    for pt in reps:
        while len(hull) >= 2:
            d0, f0, _ = hull[-2]
            d1, f1, _ = hull[-1]
            if (d1 - d0) * (pt[1] - f0) - (f1 - f0) * (pt[0] - d0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)

    # only vertices right of (and including) the rightmost minimum value can
    # admit a positive rate-of-change constant
    fs = [p[1] for p in hull]
    fmin_hull = min(fs)
    q = len(fs) - 1 - fs[::-1].index(fmin_hull)
    chain = hull[q:]

    threshold = state.f_min - eps * abs(state.f_min)
    poh = []
    for j in range(len(chain) - 1):
        dj, fj, rid = chain[j]
        dn, fn, _ = chain[j + 1]
        k_max = (fn - fj) / (dn - dj)
        if fj - k_max * dj <= threshold:
            poh.append(rid)
    poh.append(chain[-1][2])  # unbounded K: always potentially optimal
    return poh


def _initial_state(n: int, nproblem: NormalizedProblem,
                   counter: EvalCounter) -> PartitionState:
    state = PartitionState(n, counter)
    center = np.full(n, 0.5)
    value = nproblem.evaluate_counted(center, counter)
    state.add(center, np.zeros(n, dtype=np.int16), (1,) * n, value)
    return state


def sample_and_divide(rid: int, state: PartitionState,
                      nproblem: NormalizedProblem) -> list[int]:
    """Algorithm-1 division of one rectangle along all its longest sides.

    Samples c +/- delta*e_i for each longest dimension (2 evaluations per
    dimension), then trisects in ascending order of w_i = min(f+, f-), ties
    resolved to the lower dimension index. The state stays a tiling; on budget
    exhaustion nothing is mutated (already-spent evaluations stay counted) and
    BudgetExhausted propagates.
    """
    tmpl_levels = state._levels[rid].copy()
    tmpl_center = state._centers[rid].copy()
    tmpl_exact = list(state._exact[rid])
    min_lvl = int(tmpl_levels.min())
    I = np.flatnonzero(tmpl_levels == min_lvl)
    denom = 2.0 * 3.0 ** (min_lvl + 1)

    # evaluate all probe points before touching any state; the probes move
    # one coordinate of the template center, which is restored after each
    probes = []  # (dim, num_plus, coord_plus, f_plus, num_minus, coord_minus, f_minus)
    for dim in I.tolist():
        scaled = 3 * tmpl_exact[dim]
        num_p, num_m = scaled + 2, scaled - 2
        coord_p, coord_m = num_p / denom, num_m / denom
        coord = tmpl_center[dim]
        tmpl_center[dim] = coord_p
        f_p = nproblem.evaluate_counted(tmpl_center, state.counter)
        tmpl_center[dim] = coord_m
        f_m = nproblem.evaluate_counted(tmpl_center, state.counter)
        tmpl_center[dim] = coord
        probes.append((dim, num_p, coord_p, f_p, num_m, coord_m, f_m))

    # the sort is stable and the probes are in dimension order, so ties on
    # w = min(f+, f-) keep the lower dimension first
    probes.sort(key=lambda p: min(p[3], p[6]))

    # the children of one dimension differ from the template in that
    # coordinate only; add() copies what it stores, so the template is set
    # to each child in place and then refined to the parent's new numerator
    new_ids = []
    for dim, num_p, coord_p, f_p, num_m, coord_m, f_m in probes:
        tmpl_levels[dim] += 1
        key = state.group_key(tmpl_levels)  # shared by both children
        num, coord = tmpl_exact[dim], tmpl_center[dim]
        for child_num, child_coord, value in ((num_p, coord_p, f_p),
                                              (num_m, coord_m, f_m)):
            tmpl_exact[dim] = child_num
            tmpl_center[dim] = child_coord
            new_ids.append(state.add(tmpl_center, tmpl_levels,
                                     tuple(tmpl_exact), value, key=key))
        tmpl_exact[dim] = 3 * num
        tmpl_center[dim] = coord
    state.rekey(rid, tmpl_levels, tuple(tmpl_exact), key=key)
    return new_ids


@dataclass
class DirectConfig:
    """Knobs for one dividing-rectangles run."""

    poh_eps: float = 1e-4
    max_iters: Optional[int] = None
    max_evals: Optional[int] = None
    target_accuracy: float = 1e-4
    max_seconds: Optional[float] = None
    # subproblem-style stops (disabled by default for plain DIRECT)
    min_measure: float = 0.0
    stall_eps: float = 0.0
    stall_iters: int = 0


@dataclass
class DirectResult:
    f_min: float
    x_min: np.ndarray  # user space
    evals: int
    iterations: int
    reason: str
    trace: list = field(default_factory=list)  # (evals, iteration, f_min)
    state: Optional[PartitionState] = None


def direct_solve(problem: Problem, config: Optional[DirectConfig] = None,
                 counter: Optional[EvalCounter] = None,
                 keep_state: bool = False,
                 iteration_hook=None) -> DirectResult:
    """Run DIRECT on a problem (Algorithm-2 loop).

    `counter` may be a shared (capped) global counter; local accounting of
    this run's evaluations is kept separately so per-run caps compose with a
    global budget. `iteration_hook(state, changed_ids)`, when given, runs
    after every iteration with the ids touched by that iteration's divisions
    (used by invariant-checking tests).
    """
    config = config or DirectConfig()
    counter = counter if counter is not None else EvalCounter()
    nproblem = normalize(problem)
    n = problem.n
    target = problem.known_optimum

    start_count = counter.count
    try:
        state = _initial_state(n, nproblem, counter)
    except BudgetExhausted:
        mid = problem.bounds.lower + 0.5 * problem.bounds.width
        return DirectResult(np.inf, mid, 0, 0, "budget", [])

    def local_evals():
        return counter.count - start_count

    trace = [(local_evals(), 0, state.f_min)]
    reason = None
    t = 0
    stall_streak = 0
    prev_fmin = state.f_min

    def target_hit():
        return target is not None and abs(state.f_min - target) <= config.target_accuracy

    if target_hit():
        reason = "target"

    t_start = time.monotonic()
    while reason is None:
        if config.max_iters is not None and t >= config.max_iters:
            reason = "iter_budget"
            break
        if (config.max_seconds is not None
                and time.monotonic() - t_start > config.max_seconds):
            reason = "time_budget"
            break
        if config.max_evals is not None and local_evals() >= config.max_evals:
            reason = "eval_budget"
            break
        if config.min_measure > 0.0 and state.min_measure < config.min_measure:
            reason = "converged"
            break
        poh = identify_poh(state, config.poh_eps)
        changed = []
        for rid in poh:
            try:
                children = sample_and_divide(rid, state, nproblem)
            except BudgetExhausted:
                reason = "budget"
                break
            changed.append(rid)
            changed.extend(children)
            if target_hit():
                reason = "target"
                break
            if config.max_evals is not None and local_evals() >= config.max_evals:
                reason = "eval_budget"
                break
        t += 1
        trace.append((local_evals(), t, state.f_min))
        if iteration_hook is not None:
            iteration_hook(state, changed)
        if reason is None and config.stall_iters > 0:
            if prev_fmin - state.f_min <= config.stall_eps:
                stall_streak += 1
                if stall_streak >= config.stall_iters:
                    reason = "converged"
            else:
                stall_streak = 0
            prev_fmin = state.f_min

    x_user = nproblem.to_user(state.x_min)
    return DirectResult(
        f_min=state.f_min,
        x_min=x_user,
        evals=local_evals(),
        iterations=t,
        reason=reason,
        trace=trace,
        state=state if keep_state else None,
    )


# -- exact tiling certificates (test/validation helpers) -----------------

def volume_fraction(state: PartitionState) -> Fraction:
    """Exact total volume of the partition as a fraction of the unit cube."""
    sums = state._levels[:state.size].astype(np.int64).sum(axis=1)
    L = int(sums.max()) if state.size else 0
    # integer arithmetic at the common denominator 3^L
    total = 0
    powers = {}
    for s in sums:
        s = int(s)
        if s not in powers:
            powers[s] = 3 ** (L - s)
        total += powers[s]
    return Fraction(total, 3 ** L)


def interval_table(state: PartitionState):
    """Per-dimension base-3 integer intervals at a common refinement level.

    Returns (starts, ends, L): rectangle i spans
    [starts[i,d], ends[i,d]] / 3^L in dimension d.
    """
    levels = state._levels[:state.size].astype(np.int64)
    L = int(levels.max())
    if L > 38:
        raise OverflowError("refinement too deep for int64 interval table")
    starts = np.empty((state.size, state.n), dtype=np.int64)
    scale = 3 ** (L - levels)
    for i in range(state.size):
        ex = state._exact[i]
        for d in range(state.n):
            starts[i, d] = ((ex[d] - 1) // 2) * scale[i, d]
    ends = starts + scale
    return starts, ends, L


def assert_disjoint_interiors(state: PartitionState, changed=None,
                              chunk: int = 512) -> None:
    """Certify that no two rectangles share an interior point, using exact
    integer interval arithmetic.

    With `changed` (ids whose geometry moved since the last certified
    partition) only changed-vs-all pairs are tested; unchanged pairs were
    disjoint before and their boxes are identical, so this is a complete
    inductive certificate. Without it every pair is tested (O(N^2) in
    chunks). Intended for tests.
    """
    starts, ends, _ = interval_table(state)
    N = state.size
    rows = np.arange(N) if changed is None else np.asarray(changed, dtype=int)
    for lo in range(0, rows.size, chunk):
        sel = rows[lo:lo + chunk]
        s, e = starts[sel], ends[sel]
        # pair (i in sel, j in all): overlap iff open intervals intersect in
        # every dimension
        overlap = np.logical_and(
            s[:, None, :] < ends[None, :, :],
            starts[None, :, :] < e[:, None, :],
        ).all(axis=2)
        overlap[np.arange(sel.size), sel] = False  # self-pairs
        if overlap.any():
            i, j = np.argwhere(overlap)[0]
            raise AssertionError(
                f"rectangles {sel[i]} and {j} share interior points"
            )
