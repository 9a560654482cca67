"""DIRECT partition machinery: rectangle store, sampling/dividing, POH
identification and the main dividing-rectangles loop.

A run divides a block of the problem's coordinates (`coords`, all of them
for plain DIRECT) with every other coordinate held at a base point, so an
ABCD subproblem is DIRECT on a view of the full problem, not a problem of
its own. Rectangle geometry lives in the block's unit hypercube: each
rectangle carries its trisection levels and exact base-3 integer numerators
(unit-cube center_i = num_i / (2*3^level_i), num_i odd) for the block
dimensions, so repeated trisection never drifts and tiling/disjointness can
be certified with integer arithmetic. A center is a full point of the
problem, in its user space: lower + z*width in each block coordinate and
the base elsewhere. The store keeps no centers; `center` rebuilds one from
the numerators, at any depth bit for bit the point its probe evaluated, and
each probe maps only the coordinate it moves, on the box's Python floats,
and is charged once, through `evaluate_counted` like every other evaluation
of a run.

Every probe is its parent's center with one coordinate moved. So a
division builds the problem's coordinate view at the parent's center
(`Problem.coordinate_view`), binds the probe of each coordinate it moves
once (`view(i)`), and passes each probe to `evaluate_counted` as `(center,
i, z)`, the center with coordinate i moved to z, valued by that probe. A
kernel's probe recomputes only the terms the moved coordinate touches, bit
for bit the kernel's value, and builds no point: only a probe whose value
improves the counter's best becomes an array, the one the counter's best
pair keeps.

Every run keeps one rectangle store, and the block size alone picks its
division. A block of one coordinate, the bulk of ABCD's subproblems, is
DIRECT in its original one-dimensional form (Jones, Perttunen & Stuckman
1993): `divide_interval` trisects every interval of a selection in one call,
in place on the store's lists, and every probe of the run moves the one
coordinate of the start center, so the store's probe, bound there once,
values them all. Every larger block divides each rectangle with
`sample_and_divide`.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import defaultdict
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

#: deepest level whose numerators and denominator 2*3^level are all exact
#: doubles: up to it a center coordinate rebuilt at its stored level is the
#: correctly rounded quotient its probe computed
EXACT_LEVEL = 32
_DENOMS = tuple(2 * 3.0 ** level for level in range(EXACT_LEVEL + 1))
_first = operator.itemgetter(0)


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


class PartitionState:
    """Rectangle store with a measure-keyed group index.

    The partition is over `n` block dimensions; `coords[d]` is the problem
    coordinate of block dimension d (`range(n)` for plain DIRECT).

    Centers are not stored. The center of a rectangle (`center`) is a full
    user-space point of the problem: `base` outside the block and, in block
    coordinate `coords[d]`, `lower + num / (2 * 3.0**level) * width` for
    the numerator and level of the probe that last moved the coordinate,
    bit for bit the point that probe evaluated. The store holds num * 3^k
    at level + k, k the trisections since; up to `EXACT_LEVEL` that gives
    the same correctly rounded quotient, and past it `center` divides the
    3s out (a probe's numerator, 3*num +/- 2 or 1, is no multiple of 3).

    Layout, by problem coordinate:
    - `lower`, `width`: the box's lower bounds and widths as Python floats,
      which centers and probes are mapped with: one IEEE multiply and one
      add, the two operations numpy does per element.
    - `base`: a float64 array, the run's start center (`_block`); its
      block coordinates are never read.
    - `probe`: the probe of block coordinate `coords[0]` of the problem's
      coordinate view at `base` (`Problem.coordinate_view`), bound once,
      which values `direct_solve`'s start center and every probe of
      `divide_interval`. A one-coordinate store without a view raises
      ConfigError; a larger one may have None.

    Layout, by rectangle id:
    - `_level_tuples`: one level tuple of length n per rectangle, the one
      `_intern` (or `_divisions`) holds, so the rectangles of a level share
      one tuple object.
      `_levels` builds the int16 `(size, n)` array from them on demand, for
      readers off the hot path.
    - `_values`, `_exact`, `_keys`: Python lists of the value, the integer
      numerators (length n) and the current group key.

    Levels and numerators are unit-cube quantities of the block, so the
    tiling certificates never look at the user-space centers.

    Groups (`_heaps`) map a group key (see `_intern`) to a lazy min-heap of
    (value, id) entries; stale entries (rectangles whose measure changed
    after division) are purged on access. `divide_interval` pops its
    parent's entry instead, so a one-coordinate store holds none. A group
    is a key, not a level: keys are rounded, and every level from 26 on has
    key 0.0. A rectangle's key only shrinks, so the group of the smallest
    key any rectangle has had never empties: it is the smallest key in
    `_heaps`.
    `f_min` is the smallest value and `best` the first id that has it.
    `_divisions` maps a level to what `divide_interval` needs to divide an
    interval there: its children's level tuple, their group key and their
    probes' denominator, made once per store and level.

    `add` and `rekey` write the lists, the heaps, `f_min` and `best`;
    `divide_interval` writes them inline, in the same order.
    """

    __slots__ = ("n", "counter", "coords", "base", "lower", "width", "probe",
                 "_level_tuples", "_values", "_exact", "_heaps", "_keys",
                 "_records", "_deep", "_divisions", "f_min", "best")

    def __init__(self, n: int, counter: EvalCounter, coords: tuple,
                 bounds: Bounds, base: np.ndarray, view=None):
        if n == 1 and view is None:
            # `divide_interval` would charge its first probe, then fail
            raise ConfigError("a one-coordinate store needs a view")
        self.n, self.counter, self.coords, self.base = n, counter, coords, base
        self.lower, self.width = bounds.float_lists
        self.probe = None if view is None else view(coords[0])
        self._level_tuples: list[tuple] = []
        self._values: list[float] = []
        self._exact: list[tuple] = []
        self._heaps: defaultdict[float, list] = defaultdict(list)
        self._keys: list[float] = []  # current group key per id
        # level tuple -> its record (see `_intern`)
        self._records: dict[tuple, tuple] = {}
        self._deep: set[tuple] = set()  # level tuples past EXACT_LEVEL
        self._divisions: dict[int, tuple] = {}
        self.f_min = np.inf
        self.best: Optional[int] = None

    # -- storage ---------------------------------------------------------

    @property
    def size(self) -> int:
        """The number of rectangles."""
        return len(self._values)

    @property
    def _levels(self) -> np.ndarray:
        """int16 `(size, n)` array of the levels, built on each access."""
        return np.array(self._level_tuples,
                        dtype=np.int16).reshape(self.size, self.n)

    def _intern(self, levels: tuple) -> tuple[tuple, float, tuple, float]:
        """The record of a level tuple, what the store derives from the
        levels alone: (the interned tuple, its group key, its longest
        dimensions, their probes' denominator 2*3^(min level + 1)).

        The group key is `round(measure(levels), GROUP_KEY_DIGITS)`, computed
        with `measure` on int16 levels. Keys are cached in two layers: the
        per-state records, unbounded, so a long run never recomputes a key,
        and behind them a 256-entry process-wide LRU cache
        (`_shared_group_key`), so a new partition, such as one of ABCD's many
        short subproblem runs, reuses the keys earlier ones computed.
        Neither layer alone serves both: a process-wide cache large enough
        for one long run's distinct vectors would hold thousands of keys for
        the life of the process, and a small one alone thrashes on a long
        run.
        """
        record = self._records.get(levels)
        if record is None:
            low = min(levels)
            record = self._records[levels] = (
                levels, _shared_group_key(levels),
                tuple(d for d, level in enumerate(levels) if level == low),
                2.0 * 3.0 ** (low + 1))
            if max(levels) > EXACT_LEVEL:
                self._deep.add(levels)
        return record

    def add(self, levels: tuple, exact: tuple, value: float,
            key: float) -> int:
        """Store a rectangle with the interned level tuple `levels` and its
        group key `key` (`_intern`); return its id, which becomes `best` if
        `value` is below `f_min`."""
        rid = len(self._values)
        self._level_tuples.append(levels)
        self._values.append(value)
        self._exact.append(exact)
        self._keys.append(key)
        heappush(self._heaps[key], (value, rid))
        if value < self.f_min:
            self.f_min, self.best = value, rid
        return rid

    def rekey(self, rid: int, levels: tuple, exact: tuple,
              key: float) -> None:
        """Re-index a rectangle after its levels changed in a division;
        `levels` and `key` as in `add`. A division adds both children under
        the parent's new key before it rekeys the parent, so the parent's
        entry follows theirs in the key's group."""
        self._level_tuples[rid] = levels
        self._exact[rid] = exact
        self._keys[rid] = key
        heappush(self._heaps[key], (self._values[rid], rid))

    def center(self, rid: int) -> np.ndarray:
        """The center of rectangle `rid` (see the class docstring), a new
        array."""
        x = self.base.copy()
        lower, width = self.lower, self.width
        levels = self._level_tuples[rid]
        if self._deep and levels in self._deep:
            for c, num, level in zip(self.coords, self._exact[rid], levels):
                while level > EXACT_LEVEL and num % 3 == 0:
                    num //= 3
                    level -= 1
                x[c] = lower[c] + num / (2 * 3.0 ** level) * width[c]
            return x
        for c, num, level in zip(self.coords, self._exact[rid], levels):
            x[c] = lower[c] + num / _DENOMS[level] * width[c]
        return x

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
    """Ids of potentially optimal rectangles of a `PartitionState`.

    Lower-right convex hull of the per-group representatives in the
    (measure, value) plane, filtered by the nontrivial-improvement condition
    f_j - K*d_j <= f_min - eps*|f_min| at the largest admissible K for each
    hull vertex. The largest-measure hull vertex is always returned so the
    outer loop can never stall on an empty selection.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    reps = state.group_representatives()
    if not reps:
        return []

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
    unit-cube coordinate z (2 evaluations per dimension, valued by the
    probe of that coordinate, bound once, of one coordinate view of the
    problem at the parent's center), then trisects in ascending order of
    w_i = min(f+, f-), ties resolved to the lower dimension index. Each
    probe goes to `evaluate_counted` as `(center, coords[i], z)`, and no
    probe's point is built here. The state stays a tiling; on a `Stop`
    from the counter nothing is mutated (already-spent evaluations stay
    counted) and the Stop propagates.
    """
    # the level bookkeeping runs on a list copy of the parent's tuple
    parent_levels = state._level_tuples[rid]
    levels = list(parent_levels)
    _, _, I, denom = state._records[parent_levels]
    center = state.center(rid)
    view = problem.coordinate_view(center)
    tmpl_exact = list(state._exact[rid])

    # evaluate all probe points before touching any state; each probe is
    # the parent's user-space center with one coordinate moved to z, the
    # child's center. The base-3 numerators keep every z strictly inside
    # the unit cube.
    counter, coords = state.counter, state.coords
    lower, width = state.lower, state.width
    # (w, dim, num_plus, f_plus, num_minus, f_minus)
    probes = []
    for dim in I:
        scaled = 3 * tmpl_exact[dim]
        num_p, num_m = scaled + 2, scaled - 2
        coord = coords[dim]
        lo, w, probe = lower[coord], width[coord], view(coord)
        f_p = evaluate_counted(problem, center, counter, probe, coord,
                               lo + num_p / denom * w)
        f_m = evaluate_counted(problem, center, counter, probe, coord,
                               lo + num_m / denom * w)
        # w = min(f+, f-), as `min` picks it, NaNs included
        probes.append((f_m if f_m < f_p else f_p, dim, num_p, f_p, num_m,
                       f_m))

    # the sort is stable and the probes are in dimension order, so ties on
    # w keep the lower dimension first
    if len(probes) > 1:
        probes.sort(key=_first)

    # the children of one dimension differ from the parent's numerators in
    # that coordinate only; the template is set to each child's numerator
    # and then refined to the parent's new one. Both children and the
    # rekeyed parent share one interned level tuple; the parent's center
    # does not move.
    new_ids = []
    for _, dim, num_p, f_p, num_m, f_m in probes:
        levels[dim] += 1
        level_tuple, key, _, _ = state._intern(tuple(levels))
        num = tmpl_exact[dim]
        tmpl_exact[dim] = num_p
        new_ids.append(state.add(level_tuple, tuple(tmpl_exact), f_p, key))
        tmpl_exact[dim] = num_m
        new_ids.append(state.add(level_tuple, tuple(tmpl_exact), f_m, key))
        tmpl_exact[dim] = 3 * num
    state.rekey(rid, level_tuple, tuple(tmpl_exact), key)
    return new_ids


def divide_interval(rids: list[int], state: PartitionState,
                    problem: Problem, stop_count: float) -> Optional[Reason]:
    """`sample_and_divide` of each interval of `rids` of a one-coordinate
    store in turn, on the store's lists and with neither `add` nor `rekey`;
    returns why the run stops, or None.

    An interval's division probes the centers of its two outer thirds, the
    plus side first, each passed as `(state.base, coord, z)`, the start
    center with the block coordinate moved to z, and valued by the store's
    probe; then stores them as the next two ids and trisects the parent,
    which keeps its id. A `Stop` from the counter ends the call with its
    reason, and nothing of that interval is stored; reaching `stop_count`
    evaluations after a division ends it with EVAL_BUDGET.

    `rids` are the ids `identify_poh` returns: group representatives in
    ascending key order, at most one per group. A division pushes only into
    keys no larger than its own, so no earlier division of the call
    touched a parent's heap, and its entry is still that heap's top: it is
    popped before the pushes, which may go into the same heap where deep
    levels share a key.
    """
    level_tuples, exact, values, keys, heaps, divisions = (
        state._level_tuples, state._exact, state._values, state._keys,
        state._heaps, state._divisions)
    counter, base, probe = state.counter, state.base, state.probe
    coord = state.coords[0]
    lo, w = state.lower[coord], state.width[coord]
    try:
        for rid in rids:
            level = level_tuples[rid][0]
            division = divisions.get(level)
            if division is None:
                levels = (level + 1,)
                if level >= EXACT_LEVEL:
                    state._deep.add(levels)
                division = divisions[level] = (
                    levels, _shared_group_key(levels),
                    2.0 * 3.0 ** (level + 1))
            levels, key, denom = division
            num = 3 * exact[rid][0]
            f_p = evaluate_counted(problem, base, counter, probe, coord,
                                   lo + (num + 2) / denom * w)
            f_m = evaluate_counted(problem, base, counter, probe, coord,
                                   lo + (num - 2) / denom * w)

            # the children, then the parent, pushed as `add` and `rekey`
            # push them; calling the two here cost `abcd-hedar18` about 2%
            # of its wall time
            heappop(heaps[keys[rid]])
            cid = len(values)
            level_tuples[rid], exact[rid], keys[rid] = levels, (num,), key
            level_tuples += (levels, levels)
            exact += ((num + 2,), (num - 2,))
            values += (f_p, f_m)
            keys += (key, key)
            heap = heaps[key]
            heappush(heap, (f_p, cid))
            heappush(heap, (f_m, cid + 1))
            heappush(heap, (values[rid], rid))
            if f_p < state.f_min:
                state.f_min, state.best = f_p, cid
            if f_m < state.f_min:
                state.f_min, state.best = f_m, cid + 1
            if counter.count >= stop_count:
                return Reason.EVAL_BUDGET
    except Stop as stop:
        return stop.reason
    return None


def _divide_rectangles(rids: list[int], state: PartitionState,
                      problem: Problem, stop_count: float) -> Optional[Reason]:
    """`sample_and_divide` of each rectangle of `rids` in turn, with the
    stops of `divide_interval`; returns why the run stops, or None."""
    counter = state.counter
    for rid in rids:
        try:
            sample_and_divide(rid, state, problem)
        except Stop as stop:
            return stop.reason
        if counter.count >= stop_count:
            return Reason.EVAL_BUDGET
    return None


@dataclass
class DirectConfig:
    """Knobs for one dividing-rectangles run."""

    poh_eps: float = 1e-4
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


def _block(problem: Problem, coords, base) -> tuple[tuple, np.ndarray]:
    """The block `coords`, distinct coordinates of the problem (all of them
    by default), as a tuple, and the run's start center, a new array:
    `base` (the box midpoint by default) with each block coordinate at the
    middle of its range, mapped as a probe maps one coordinate. Raises
    ConfigError on any other `coords`, on a `base` that is not a float
    array of the problem's dimension and on a start center outside the
    closed box (a NaN included), so a run evaluates nothing then. The start
    center is also the store's `base`."""
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
    lower, width = bounds.float_lists
    for c in coords:
        x[c] = lower[c] + 0.5 * width[c]
    inside = (bounds.lower <= x) & (x <= bounds.upper)
    if not inside.all():
        raise ConfigError(f"base puts the start center outside the box at "
                          f"coordinates {np.flatnonzero(~inside).tolist()}")
    return coords, x


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

    A block of one coordinate, such as each of ABCD's coordinate-phase
    subproblems, divides each selection with `divide_interval`, every
    larger block with `_divide_rectangles` (`sample_and_divide` per
    rectangle); both on the same rectangle store, which the result holds
    with `keep_state`.

    `counter` may be a shared (capped) global counter, armed with the
    config's target and time budget unless a caller armed it first; its
    `Stop` ends the run at the evaluation, cutting the division in flight.
    The run's own stops are one check before every iteration, and
    `max_evals`, this run's evaluations, is checked after every division
    too.
    """
    config = config or DirectConfig()
    if not config.poh_eps > 0:
        raise ConfigError(f"poh_eps must be positive, got {config.poh_eps}")
    if config.max_evals is not None and config.max_evals < 1:
        raise ConfigError(f"max_evals must be positive, got "
                          f"{config.max_evals}")
    if not config.target_accuracy >= 0:
        raise ConfigError(f"target_accuracy must be nonnegative, got "
                          f"{config.target_accuracy}")
    if config.max_seconds is not None and not config.max_seconds > 0:
        raise ConfigError(f"max_seconds must be positive, got "
                          f"{config.max_seconds}")
    for name in ("min_measure", "stall_eps"):
        if not getattr(config, name) >= 0:
            raise ConfigError(f"{name} must be nonnegative, got "
                              f"{getattr(config, name)}")
    if not (isinstance(config.stall_iters, numbers.Integral)
            and config.stall_iters >= 0):
        raise ConfigError(f"stall_iters must be a nonnegative integer, got "
                          f"{config.stall_iters!r}")
    counter = counter if counter is not None else EvalCounter()
    coords, x = _block(problem, coords, base)
    counter.arm(problem, config.target_accuracy, config.max_seconds)

    start_count, f_before = counter.count, counter.best_f
    m = len(coords)
    # the start center is the state's base, and its probe, bound there,
    # values the start center too
    state = PartitionState(m, counter, coords, problem.bounds, x,
                           problem.coordinate_view(x))
    c = coords[0]
    reason = None
    # the start rectangle is stored even when the counter stops the run on
    # the target at its evaluation, whose value the counter then holds, so
    # the partition tiles
    try:
        value = evaluate_counted(problem, x, counter, state.probe, c,
                                 float(x[c]))
    except Stop as stop:
        reason = stop.reason
        if counter.count == start_count:  # stopped before the evaluation
            return DirectResult(np.inf, x, 0, 0, reason, [])
        value = counter.best_f
    levels, key, _, _ = state._intern((0,) * m)
    state.add(levels, (1,) * m, value, key)
    divide = divide_interval if m == 1 else _divide_rectangles

    # this run's evaluations are counter.count - start_count
    stop_count = (math.inf if config.max_evals is None
                  else start_count + config.max_evals)
    trace = [(counter.count - start_count, 0, state.f_min)]
    t = stall_streak = 0
    prev_fmin = state.f_min

    while reason is None:
        if 0 < config.stall_iters <= stall_streak:
            reason = Reason.GLOBAL_STALL
        elif counter.count >= stop_count:
            reason = Reason.EVAL_BUDGET
        elif (config.min_measure > 0
              and min(state._heaps) < config.min_measure):
            reason = Reason.GLOBAL_STALL
        if reason is not None:
            break
        reason = divide(identify_poh(state, config.poh_eps), state, problem,
                        stop_count)
        t += 1
        trace.append((counter.count - start_count, t, state.f_min))
        if prev_fmin - state.f_min <= config.stall_eps:
            stall_streak += 1
        else:
            stall_streak = 0
        prev_fmin = state.f_min

    x_min, f_min = counter.run_best(f_before, state.center(state.best),
                                    state.f_min)
    return DirectResult(f_min, x_min, counter.count - start_count, t, reason,
                        trace, state if keep_state else None)


# -- exact tiling certificate ----------------------------------------------

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
