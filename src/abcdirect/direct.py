"""DIRECT partition machinery: rectangle store, sampling/dividing, POH
identification and the main dividing-rectangles loop.

A run divides a block of the problem's coordinates (`coords`, all of them
for plain DIRECT) with every other coordinate held at a base point, so an
ABCD subproblem is DIRECT on a view of the full problem, not a problem of
its own. Rectangle geometry lives in the block's unit hypercube: each
rectangle carries its trisection levels and exact base-3 integer numerators
(unit-cube center_i = num_i / (2*3^level_i), num_i odd) for the block
dimensions, so repeated trisection never drifts and tiling/disjointness can
be certified with integer arithmetic. The float centers are full points of
the problem, in its user space, lower + z*width in each block coordinate
and the base elsewhere, so a probe maps only the coordinate it moves, on
the box's Python floats, and evaluates the problem once, through
`evaluate_counted` like every other evaluation of a run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .problem import (
    Bounds,
    ConfigError,
    EvalCounter,
    Problem,
    Reason,
    Stop,
    evaluate_counted,
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


@functools.lru_cache(maxsize=256)
def _shared_group_key(levels: tuple) -> float:
    """Group key of a level tuple, shared by every partition in the process.
    `measure` is looked up per call, so a wrapped `measure` sees each miss."""
    return round(measure(np.array(levels, dtype=np.int16)), GROUP_KEY_DIGITS)


@dataclass(frozen=True)
class Rectangle:
    """Read-only view of one partition cell."""

    id: int
    center: np.ndarray  # a full user-space point
    levels: np.ndarray
    # integer numerators; unit-cube center_i = exact[i] / (2*3^levels[i])
    exact: tuple
    value: float

    @property
    def measure(self) -> float:
        return measure(self.levels)


class PartitionState:
    """Rectangle store with a measure-keyed group index.

    The partition is over `n` block dimensions; `coords[d]` is the problem
    coordinate of block dimension d (`range(n)` by default, plain DIRECT).

    Layout, by rectangle id:
    - `_centers`: a list of the centers, each a full user-space point of
      the problem (a float64 array as long as the problem's dimension, not
      n). Block coordinate `coords[d]` is `lower + z * width` for the
      unit-cube coordinate `z = num / denom` of the probe that set it; every
      other coordinate is the run's base point. A child's center is the
      fresh array its probe evaluated, kept as it is (no copy), and `x_min`
      refers to the best one; readers that hand a center out copy it
      (`Rectangle.center`, `direct_solve`).
    - `lower`, `width`: the box's lower bounds and widths as Python floats,
      by problem coordinate, which `sample_and_divide` maps its probes
      with: one IEEE multiply and one add, the two operations numpy does
      per element. A state built without `bounds` holds None and cannot
      be divided.
    - `_level_tuples`: one level tuple of length n per rectangle, interned
      per state, so every rectangle with the same levels (both children of
      a division step and the rekeyed parent) shares one tuple object.
      `_levels` builds the int16 `(size, n)` array from them on demand, for
      readers off the hot path.
    - `_values`, `_exact`, `_keys`: Python lists of the value, the integer
      numerators (length n) and the current group key.

    Levels and numerators are unit-cube quantities of the block, so the
    tiling certificates never look at the user-space centers.

    Groups map a rounded measure to a lazy min-heap of (value, id) entries;
    stale entries (rectangles whose measure changed after division) are purged
    on access.

    Group keys are cached in two layers (see `group_key`): a per-state dict
    that holds every level vector this partition has seen, and behind it a
    small process-wide cache that carries keys over to new partitions, such
    as ABCD's many short subproblem runs.
    """

    def __init__(self, n: int, counter: Optional[EvalCounter] = None,
                 coords: Optional[tuple] = None,
                 bounds: Optional[Bounds] = None):
        self.n = n
        self.coords = tuple(range(n)) if coords is None else coords
        self.counter = counter if counter is not None else EvalCounter()
        self.lower = self.width = None
        if bounds is not None:
            self.lower = bounds.lower.tolist()
            self.width = bounds.width.tolist()
        self._centers: list[np.ndarray] = []
        self._level_tuples: list[tuple] = []
        self._values: list[float] = []
        self._exact: list[tuple] = []
        self.size = 0
        self._heaps: dict[float, list] = {}
        self._keys: list[float] = []  # current group key per id
        # level tuple -> (its interned tuple, its group key)
        self._key_of: dict[tuple, tuple[tuple, float]] = {}
        self.f_min = np.inf
        self.x_min: Optional[np.ndarray] = None
        self._min_key = np.inf

    # -- storage ---------------------------------------------------------

    @property
    def _levels(self) -> np.ndarray:
        """int16 `(size, n)` array of the levels, built on each access."""
        return np.array(self._level_tuples,
                        dtype=np.int16).reshape(self.size, self.n)

    def _intern(self, levels) -> tuple[tuple, float]:
        """The interned tuple and the group key of a level vector (tuple,
        list or integer array), with one dict lookup for a tuple."""
        if type(levels) is not tuple:
            levels = tuple(np.asarray(levels).tolist())
        entry = self._key_of.get(levels)
        if entry is None:
            entry = self._key_of[levels] = (levels, _shared_group_key(levels))
        return entry

    def group_key(self, levels) -> float:
        """Group key `round(measure(levels), GROUP_KEY_DIGITS)` of a level
        vector (list, tuple or integer array), computed with `measure` on
        int16 levels so the bits never depend on the input's type.

        The per-state dict is unbounded, so a long run never recomputes a key,
        and dies with the partition. On a miss the key comes from a 256-entry
        process-wide LRU cache, so a new partition reuses the keys earlier
        ones computed. Neither layer alone serves both: a process-wide cache
        large enough for one long run's distinct vectors would hold thousands
        of keys for the life of the process, and a small one alone thrashes
        on a long run.
        """
        return self._intern(levels)[1]

    def add(self, center: np.ndarray, levels, exact: tuple, value: float,
            key: Optional[float] = None) -> int:
        """Store a rectangle; `center` is a float array the state keeps, not
        a copy. `levels` is a tuple, list or integer array; with `key` a
        tuple is taken as given, as the interned tuple whose group key is
        `key`."""
        if key is None or type(levels) is not tuple:
            levels, key = self._intern(levels)
        rid = self.size
        self.size = rid + 1
        self._centers.append(center)
        self._level_tuples.append(levels)
        self._values.append(value)
        self._exact.append(exact)
        self._keys.append(key)
        heap = self._heaps.get(key)
        if heap is None:
            self._heaps[key] = [(value, rid)]
        else:
            heappush(heap, (value, rid))
        if key < self._min_key:
            self._min_key = key
        if value < self.f_min:
            self.f_min = value
            self.x_min = center
        return rid

    def rekey(self, rid: int, levels, exact: tuple,
              key: Optional[float] = None) -> None:
        """Re-index a rectangle after its levels changed in a division;
        `levels` and `key` as in `add`."""
        if key is None or type(levels) is not tuple:
            levels, key = self._intern(levels)
        self._level_tuples[rid] = levels
        self._exact[rid] = exact
        self._keys[rid] = key
        heap = self._heaps.get(key)
        if heap is None:
            self._heaps[key] = [(self._values[rid], rid)]
        else:
            heappush(heap, (self._values[rid], rid))
        if key < self._min_key:
            self._min_key = key

    def rectangle(self, rid: int) -> Rectangle:
        return Rectangle(
            id=rid,
            center=self._centers[rid].copy(),
            levels=np.array(self._level_tuples[rid], dtype=int),
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
        keys = self._keys
        empty = []
        for key, heap in self._heaps.items():
            while heap and keys[heap[0][1]] != key:
                heappop(heap)
            if heap:
                value, rid = heap[0]
                reps.append((key, value, rid))
            else:
                empty.append(key)
        for key in empty:
            del self._heaps[key]
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
    q = 0
    fmin_hull = hull[0][1]
    for i, pt in enumerate(hull):
        if pt[1] <= fmin_hull:
            q, fmin_hull = i, pt[1]

    threshold = state.f_min - eps * abs(state.f_min)
    poh = []
    dj, fj, rid = hull[q]
    for dn, fn, next_rid in hull[q + 1:]:
        k_max = (fn - fj) / (dn - dj)
        if fj - k_max * dj <= threshold:
            poh.append(rid)
        dj, fj, rid = dn, fn, next_rid
    poh.append(rid)  # unbounded K: always potentially optimal
    return poh


def sample_and_divide(rid: int, state: PartitionState,
                      problem: Problem) -> list[int]:
    """Algorithm-1 division of one rectangle along all its longest sides.

    Samples c +/- delta*e_i for each longest block dimension i, which moves
    problem coordinate `state.coords[i]` to `lower + z * width` for its
    unit-cube coordinate z (2 evaluations per dimension), then
    trisects in ascending order of w_i = min(f+, f-), ties resolved to the
    lower dimension index. The state stays a tiling; on a `Stop` from the
    counter nothing is mutated (already-spent evaluations stay counted) and
    the Stop propagates.
    """
    # the level bookkeeping runs on a list copy of the parent's tuple
    levels = list(state._level_tuples[rid])
    center = state._centers[rid]
    tmpl_exact = list(state._exact[rid])
    min_lvl = min(levels)
    I = [d for d, lvl in enumerate(levels) if lvl == min_lvl]
    denom = 2.0 * 3.0 ** (min_lvl + 1)

    # evaluate all probe points before touching any state; each probe is a
    # copy of the parent's user-space center with one coordinate moved, and
    # it becomes the child's center. The base-3 numerators keep every z
    # strictly inside the unit cube.
    counter, coords = state.counter, state.coords
    lower, width = state.lower, state.width
    probes = []  # (dim, num_plus, x_plus, f_plus, num_minus, x_minus, f_minus)
    for dim in I:
        scaled = 3 * tmpl_exact[dim]
        num_p, num_m = scaled + 2, scaled - 2
        coord = coords[dim]
        lo, w = lower[coord], width[coord]
        x_p = center.copy()
        x_p[coord] = lo + num_p / denom * w
        f_p = evaluate_counted(problem, x_p, counter)
        x_m = center.copy()
        x_m[coord] = lo + num_m / denom * w
        f_m = evaluate_counted(problem, x_m, counter)
        probes.append((dim, num_p, x_p, f_p, num_m, x_m, f_m))

    # the sort is stable and the probes are in dimension order, so ties on
    # w = min(f+, f-) keep the lower dimension first
    if len(probes) > 1:
        probes.sort(key=lambda p: min(p[3], p[6]))

    # the children of one dimension differ from the parent's numerators in
    # that coordinate only; the template is set to each child's numerator
    # and then refined to the parent's new one. Both children and the
    # rekeyed parent share one interned level tuple; the parent's center
    # does not move.
    new_ids = []
    for dim, num_p, x_p, f_p, num_m, x_m, f_m in probes:
        levels[dim] += 1
        level_tuple, key = state._intern(tuple(levels))
        num = tmpl_exact[dim]
        tmpl_exact[dim] = num_p
        new_ids.append(state.add(x_p, level_tuple, tuple(tmpl_exact), f_p,
                                 key=key))
        tmpl_exact[dim] = num_m
        new_ids.append(state.add(x_m, level_tuple, tuple(tmpl_exact), f_m,
                                 key=key))
        tmpl_exact[dim] = 3 * num
    state.rekey(rid, level_tuple, tuple(tmpl_exact), key=key)
    return new_ids


@dataclass
class DirectConfig:
    """Knobs for one dividing-rectangles run."""

    poh_eps: float = 1e-4
    max_iters: Optional[int] = None
    max_evals: Optional[int] = None
    target_accuracy: float = 1e-4
    max_seconds: Optional[float] = None  # counted from the call's start
    # subproblem-style stops (disabled by default for plain DIRECT)
    min_measure: float = 0.0
    stall_eps: float = 0.0
    stall_iters: int = 0


@dataclass
class DirectResult:
    f_min: float
    x_min: np.ndarray  # a full user-space point
    evals: int
    iterations: int
    reason: Reason
    trace: list = field(default_factory=list)  # (evals, iteration, f_min)
    state: Optional[PartitionState] = None


def _block(problem: Problem, counter: EvalCounter, coords,
           base) -> tuple[PartitionState, np.ndarray]:
    """An empty partition over the block `coords`, distinct coordinates of
    the problem (all of them by default), and the run's start center, a new
    array: `base` (the box midpoint by default) with each block coordinate
    at the middle of its range, mapped as a probe maps one coordinate.
    Raises ConfigError on any other `coords`, on a `base` that is not a
    float array of the problem's dimension and on a start center outside
    the closed box (a NaN included), so a run evaluates nothing then."""
    n, bounds = problem.n, problem.bounds
    idx = np.asarray(range(n) if coords is None else coords)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise ConfigError("coords must be a non-empty 1-D sequence of "
                          "integers")
    coords = tuple(idx.tolist())
    if (min(coords) < 0 or max(coords) >= n
            or len(set(coords)) != len(coords)):
        raise ConfigError(f"coords must be distinct integers in [0, {n}), "
                          f"got {list(coords)}")
    if base is None:
        base = bounds.lower + 0.5 * bounds.width
    x = np.array(base, dtype=float)
    if x.shape != (n,):
        raise ConfigError(f"base must have shape ({n},), got {x.shape}")
    state = PartitionState(len(coords), counter, coords, bounds)
    lower, width = state.lower, state.width
    for c in coords:
        x[c] = lower[c] + 0.5 * width[c]
    inside = (bounds.lower <= x) & (x <= bounds.upper)
    if not inside.all():
        raise ConfigError(f"base puts the start center outside the box at "
                          f"coordinates {np.flatnonzero(~inside).tolist()}")
    return state, x


def direct_solve(problem: Problem, config: Optional[DirectConfig] = None,
                 counter: Optional[EvalCounter] = None,
                 keep_state: bool = False, *, coords=None,
                 base: Optional[np.ndarray] = None) -> DirectResult:
    """Run DIRECT (Algorithm-2 loop) over the coordinates `coords` of a
    problem, every other coordinate held at `base`.

    Plain DIRECT is the block of all coordinates, the default. A block run
    is DIRECT on the problem restricted to the block (`abcd.make_subproblem`),
    evaluation for evaluation and bit for bit, but every center, the
    evaluated points and `x_min` are full points of `problem`. `base` is
    read, never written; its block coordinates are ignored, and the rest
    must lie in the box.

    `counter` may be a shared (capped) global counter, armed with the
    config's target and time budget unless a caller armed it first; its
    `Stop` ends the run at the evaluation, cutting the division in flight.
    The run's own stops are one check before every iteration, and
    `max_evals`, this run's evaluations, is checked after every division
    too.
    """
    config = config or DirectConfig()
    counter = counter if counter is not None else EvalCounter()
    state, x = _block(problem, counter, coords, base)
    counter.arm(problem, config.target_accuracy, config.max_seconds)

    start_count, f_before = counter.count, counter.best_f
    m = state.n
    reason = None
    # the start rectangle is stored even when the counter stops the run on
    # the target at its evaluation, whose value the counter then holds, so
    # the partition tiles
    try:
        value = evaluate_counted(problem, x, counter)
    except Stop as stop:
        reason = stop.reason
        if counter.count == start_count:  # stopped before the evaluation
            return DirectResult(np.inf, x, 0, 0, reason, [])
        value = counter.best_f
    state.add(x, (0,) * m, (1,) * m, value)

    # this run's evaluations are counter.count - start_count
    stop_count = (math.inf if config.max_evals is None
                  else start_count + config.max_evals)
    trace = [(counter.count - start_count, 0, state.f_min)]
    t = stall_streak = 0
    prev_fmin = state.f_min

    while reason is None:
        if 0 < config.stall_iters <= stall_streak:
            reason = Reason.GLOBAL_STALL
        elif config.max_iters is not None and t >= config.max_iters:
            reason = Reason.ITER_BUDGET
        elif counter.count >= stop_count:
            reason = Reason.EVAL_BUDGET
        elif state.min_measure < config.min_measure:
            reason = Reason.GLOBAL_STALL
        if reason is not None:
            break
        for rid in identify_poh(state, config.poh_eps):
            try:
                sample_and_divide(rid, state, problem)
            except Stop as stop:
                reason = stop.reason
                break
            if counter.count >= stop_count:
                reason = Reason.EVAL_BUDGET
                break
        t += 1
        trace.append((counter.count - start_count, t, state.f_min))
        if prev_fmin - state.f_min <= config.stall_eps:
            stall_streak += 1
        else:
            stall_streak = 0
        prev_fmin = state.f_min

    # the state keeps the best center itself
    x_min, f_min = counter.run_best(f_before, state.x_min.copy(), state.f_min)
    return DirectResult(f_min, x_min, counter.count - start_count, t, reason,
                        trace, state if keep_state else None)


# -- exact tiling certificates (test/validation helpers) -----------------

def volume_fraction(state: PartitionState) -> Fraction:
    """Exact total volume of the partition as a fraction of the unit cube."""
    sums = state._levels.astype(np.int64).sum(axis=1)
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
    levels = state._levels.astype(np.int64)
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
