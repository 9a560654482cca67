"""Partition geometry, potentially-optimal selection and the DIRECT loop."""

import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import abcdirect.direct as direct_mod
import abcdirect.problem as problem_mod
from abcdirect.abcd import make_subproblem
from abcdirect.functions import get_function
from abcdirect.direct import (
    GROUP_KEY_DIGITS,
    DirectConfig,
    PartitionState,
    assert_disjoint_interiors,
    direct_solve,
    identify_poh,
    measure,
    sample_and_divide,
    volume_fraction,
)
from abcdirect.problem import (
    Bounds,
    ConfigError,
    EvalCounter,
    Problem,
    Reason,
    Stop,
    evaluate_counted,
)


def box_problem(fn, n, lo=0.0, hi=1.0, target=None):
    return Problem(fn, Bounds(np.full(n, lo), np.full(n, hi)),
                   known_optimum=target)


def brute_force_poh(state, eps, grid=None):
    """Literal rate-of-change-constant sweep: a rectangle is potentially
    optimal when some candidate K makes it best and nontrivially below the
    incumbent. Non-representatives of a measure group fail the 'best'
    comparison at every K, so sweeping all rectangles is safe. The log grid
    alone can miss narrow admissible-K windows, so every pairwise slope
    (the exact window endpoints) is added to the candidates."""
    if grid is None:
        grid = np.logspace(-6, 6, 1201)
    rects = state.rectangles()
    ds = np.array([r.measure for r in rects])
    fs = np.array([r.value for r in rects])
    dd = ds[:, None] - ds[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (fs[:, None] - fs[None, :]) / dd
    slopes = slopes[np.isfinite(slopes) & (slopes > 0)]
    grid = np.concatenate([grid, slopes])
    f_min = fs.min()
    out = set()
    for j in range(len(rects)):
        for K in grid:
            lhs = fs[j] - K * ds[j]
            if (lhs <= fs - K * ds).all() and lhs <= f_min - eps * abs(f_min):
                out.add(j)
                break
    return out


def random_partition(rng, n=2, max_groups=12):
    state = PartitionState(n, EvalCounter())
    groups = rng.integers(2, max_groups + 1)
    for _ in range(groups):
        lv = rng.integers(0, 6, size=n).astype(np.int16)
        for _ in range(rng.integers(1, 4)):
            state.add(np.full(n, 0.5), lv, (1,) * n, float(rng.normal(0, 5)))
    return state


class TestMeasure:
    def test_unit_cube_half_diagonal(self):
        assert measure(np.zeros(3)) == pytest.approx(0.5 * np.sqrt(3.0))

    def test_partial_trisection_formula(self):
        # p dims at level k+1, the rest at level k
        n, k, p = 5, 2, 3
        levels = np.array([k + 1] * p + [k] * (n - p))
        want = 0.5 * np.sqrt(3.0 ** (-2 * (k + 1)) * p + 3.0 ** (-2 * k) * (n - p))
        assert measure(levels) == pytest.approx(want, abs=1e-15)

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            measure(np.array([-1, 0]))


class TestGroupKey:
    def test_equals_rounded_measure_for_any_level_vector(self):
        # arbitrary vectors, not only DIRECT-shaped ones (levels within one),
        # and more of them than the process-wide cache holds
        rng = np.random.default_rng(11)
        first, second = PartitionState(1), PartitionState(1)
        vectors = [rng.integers(0, 31, size=rng.integers(1, 21))
                   for _ in range(400)]
        for v in vectors:
            want = round(measure(v), GROUP_KEY_DIGITS).hex()
            for form in (v.tolist(), tuple(v.tolist()), v.astype(np.int16)):
                assert first.group_key(form).hex() == want
        for v in vectors:
            assert (second.group_key(v.tolist()).hex()
                    == first.group_key(v.tolist()).hex())

    def test_rejects_negative_levels(self):
        state = PartitionState(2)
        for form in ([0, -1], (0, -1), np.array([0, -1], dtype=np.int16)):
            with pytest.raises(ValueError):
                state.group_key(form)


class TestStore:
    def test_levels_array_matches_the_inputs(self):
        # `_levels` is built from the level tuples; the reference is built
        # from what `add` and `rekey` were given, in every accepted form
        rng = np.random.default_rng(3)
        n = 4
        state = PartitionState(n)
        want = []
        for i in range(40):
            lv = rng.integers(0, 7, size=n)
            forms = (lv.tolist(), tuple(lv.tolist()), lv.astype(np.int16))
            form = forms[i % 3]
            state.add(np.full(n, 0.5), form, (1,) * n, float(i))
            want.append(lv)
            if i % 4 == 3:
                rid = int(rng.integers(0, i + 1))
                lv = rng.integers(0, 7, size=n)
                state.rekey(rid, lv.tolist(), (1,) * n)
                want[rid] = lv
        levels = state._levels
        assert levels.dtype == np.int16 and levels.shape == (40, n)
        assert np.array_equal(levels, np.array(want, dtype=np.int16))
        assert PartitionState(3)._levels.shape == (0, 3)

    def test_level_tuples_are_interned(self):
        def f(x):
            return float(np.sum((x - 0.3) ** 2))

        res = direct_solve(box_problem(f, 3), DirectConfig(max_evals=600),
                           keep_state=True)
        tuples = res.state._level_tuples
        assert len(tuples) == res.state.size > 100
        assert len({id(t) for t in tuples}) == len(set(tuples))
        for t in tuples:
            assert all(type(v) is int for v in t)

    def test_add_accepts_any_level_form(self):
        # without a key every form is looked up and the interned tuple is
        # stored; with a key a tuple is stored as given (the division passes
        # the interned one), other forms are still looked up
        state = PartitionState(3)
        key = state.group_key([2, 1, 1])
        interned = state._intern([2, 1, 1])[0]
        given = tuple([2, 1, 1])
        cases = [([2, 1, 1], None, interned), (given, None, interned),
                 (np.array([2, 1, 1], dtype=np.int16), None, interned),
                 ([2, 1, 1], key, interned), (given, key, given),
                 (np.array([2, 1, 1], dtype=np.int16), key, interned)]
        for levels, k, stored in cases:
            rid = state.add(np.full(3, 0.5), levels, (1, 1, 1), 1.0, key=k)
            assert state._level_tuples[rid] is stored
            assert state._keys[rid] == key
        for r in state.rectangles():
            assert r.measure == measure(np.array([2, 1, 1]))

    def test_result_x_min_is_the_callers_copy(self):
        # the state keeps the best center as stored, with no copy; the
        # result hands out a copy, so writing to it leaves the partition as
        # it was
        def f(x):
            return float(np.sum((x - 0.3) ** 2))

        res = direct_solve(box_problem(f, 3), DirectConfig(max_evals=300),
                           keep_state=True)
        state = res.state
        best = min(state.rectangles(), key=lambda r: (r.value, r.id))
        kept = best.center.tobytes()
        assert res.x_min.tobytes() == state.x_min.tobytes() == kept
        res.x_min[:] = -1.0
        assert state.x_min.tobytes() == kept
        assert state.rectangle(best.id).center.tobytes() == kept

    def test_rectangle_center_is_a_copy(self):
        state = PartitionState(2)
        rid = state.add(np.array([0.25, 0.75]), (1, 1), (1, 1), 0.0)
        state.rectangle(rid).center[:] = 9.0
        assert state.rectangle(rid).center.tolist() == [0.25, 0.75]
        assert state.x_min.tolist() == [0.25, 0.75]

    def test_rekey_into_a_level_vector_with_no_group_yet(self):
        state = PartitionState(2)
        old_key = state.group_key((0, 0))
        rid = state.add(np.full(2, 0.5), (0, 0), (1, 1), 1.0)
        other = state.add(np.full(2, 0.5), (0, 0), (1, 1), 2.0)
        new_key = state.group_key((1, 0))
        assert new_key not in state._heaps
        state.rekey(rid, (1, 0), (3, 1))
        assert state.min_measure == new_key < old_key
        assert state.group_representatives() == [(new_key, 1.0, rid),
                                                  (old_key, 2.0, other)]

    def test_rectangle_levels_and_volume_fraction(self):
        state = PartitionState(2)
        vectors = [(0, 1), (2, 1), (1, 1), (3, 0)]
        for i, lv in enumerate(vectors):
            state.add(np.full(2, 0.5), lv, (1, 1), float(i))
        for r, lv in zip(state.rectangles(), vectors):
            assert r.levels.dtype == np.dtype(int)
            assert r.levels.tolist() == list(lv)
        assert volume_fraction(state) == sum(
            Fraction(1, 3 ** sum(lv)) for lv in vectors)


class TestDivision:
    def test_two_dim_worked_example(self):
        # dimension 0 has the lower probe minimum, so it divides first: its
        # children keep levels (1,0) while dimension 1's children get (1,1)
        def f(x):
            return float(x[0] + 10.0 * abs(x[1] - 0.5))

        problem = box_problem(f, 2)
        counter = EvalCounter()
        state = PartitionState(2, counter, bounds=problem.bounds)
        state.add(np.full(2, 0.5), np.zeros(2, dtype=np.int16), (1, 1),
                  evaluate_counted(problem, np.full(2, 0.5), counter))

        new_ids = sample_and_divide(0, state, problem)
        assert counter.count == 5
        assert len(new_ids) == 4

        got = {tuple(np.round(r.center, 12)): tuple(r.levels)
               for r in state.rectangles()}
        third = 1.0 / 3.0
        assert got[(0.5, 0.5)] == (1, 1)                 # parent, rekeyed
        assert got[(round(0.5 - third, 12), 0.5)] == (1, 0)
        assert got[(round(0.5 + third, 12), 0.5)] == (1, 0)
        assert got[(0.5, round(0.5 - third, 12))] == (1, 1)
        assert got[(0.5, round(0.5 + third, 12))] == (1, 1)

    def test_division_ties_break_to_lower_dimension(self):
        # symmetric f: both dims have equal w, so dim 0 divides first and
        # its children stay the larger rectangles
        def f(x):
            return float(abs(x[0] - 0.5) + abs(x[1] - 0.5))

        problem = box_problem(f, 2)
        counter = EvalCounter()
        state = PartitionState(2, counter, bounds=problem.bounds)
        state.add(np.full(2, 0.5), np.zeros(2, dtype=np.int16), (1, 1),
                  evaluate_counted(problem, np.full(2, 0.5), counter))
        sample_and_divide(0, state, problem)
        got = {tuple(np.round(r.center, 12)): tuple(r.levels)
               for r in state.rectangles()}
        third = 1.0 / 3.0
        assert got[(round(0.5 - third, 12), 0.5)] == (1, 0)
        assert got[(0.5, round(0.5 - third, 12))] == (1, 1)

    def test_exact_centers_survive_deep_division(self):
        def f(x):
            return float(np.sum((x - 0.123) ** 2))

        problem = box_problem(f, 2)
        res = direct_solve(problem, DirectConfig(max_evals=500),
                           keep_state=True)
        for r in res.state.rectangles():
            exact = [num / (2.0 * 3.0 ** lv)
                     for num, lv in zip(r.exact, r.levels)]
            assert np.allclose(exact, r.center, atol=1e-15)
            assert all(num % 2 == 1 for num in r.exact)

    def test_user_space_centers_are_bit_exact(self):
        # on an asymmetric box the user-space centers and the unit-cube
        # numerators have different bits; every center must be exactly the
        # numpy mapping of its exact unit-cube center
        bounds = Bounds(np.array([-5.12, 3.0, -1e-3]),
                        np.array([2.0, 1000.0, 7.0]))
        shift = bounds.lower + 0.37 * bounds.width

        def f(x):
            return float(np.sum(((x - shift) / bounds.width) ** 2))

        res = direct_solve(Problem(f, bounds), DirectConfig(max_evals=600),
                           keep_state=True)
        rects = res.state.rectangles()
        assert len(rects) == res.evals
        for r in rects:
            z = np.array(r.exact) / (2 * 3.0 ** r.levels)
            want = bounds.lower + z * bounds.width
            assert r.center.tobytes() == want.tobytes()
        best = min(rects, key=lambda r: (r.value, r.id))
        z = np.array(best.exact) / (2 * 3.0 ** best.levels)
        want = bounds.lower + z * bounds.width
        assert res.x_min.tobytes() == want.tobytes()
        assert res.f_min == best.value == f(res.x_min)

    def test_probe_maps_one_coordinate(self):
        # on an asymmetric box, dividing a rectangle whose one longest side
        # is dimension 1 moves that coordinate of the parent's user-space
        # center alone: each child's center is the bits numpy's mapping
        # gives for its unit-cube center, and the parent's center is left
        # as it was
        bounds = Bounds(np.array([-5.12, 3.0, -1e-3]),
                        np.array([2.0, 1000.0, 7.0]))
        problem = Problem(lambda x: float(np.sum(x * x)), bounds)
        levels, exact = (2, 1, 2), (5, 1, 3)

        def user(exact, levels):
            z = np.array(exact) / (2 * 3.0 ** np.array(levels))
            return bounds.lower + z * bounds.width

        counter = EvalCounter()
        state = PartitionState(3, counter, bounds=bounds)
        state.add(user(exact, levels), levels, exact, 1.0)
        before = state._centers[0].tobytes()
        assert sample_and_divide(0, state, problem) == [1, 2]
        assert counter.count == 2
        children = [r for r in state.rectangles() if r.id in (1, 2)]
        assert [r.exact for r in children] == [(5, 5, 3), (5, 1, 3)]
        for r in children:
            assert r.levels.tolist() == [2, 2, 2]
            assert r.center.tobytes() == user(r.exact, r.levels).tobytes()
            assert r.value == problem(r.center)
        assert state._centers[0].tobytes() == before
        # a spent counter stops the division before its first evaluation
        spent = PartitionState(3, EvalCounter(count=1, cap=1), bounds=bounds)
        spent.add(user(exact, levels), levels, exact, 1.0)
        with pytest.raises(Stop):
            sample_and_divide(0, spent, problem)
        assert spent.size == 1 and spent._centers[0].tobytes() == before


class TestPoh:
    def test_rejects_nonpositive_eps(self):
        state = random_partition(np.random.default_rng(0))
        with pytest.raises(ValueError):
            identify_poh(state, 0.0)

    def test_single_rectangle_is_selected(self):
        state = PartitionState(2, EvalCounter())
        state.add(np.full(2, 0.5), np.zeros(2, dtype=np.int16), (1, 1), 3.0)
        assert identify_poh(state, 1e-4) == [0]

    def test_largest_measure_always_included(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = random_partition(rng)
            poh = identify_poh(state, 1e-4)
            keys = [state._keys[r.id] for r in state.rectangles()]
            assert max(state._keys[i] for i in poh) == max(keys)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_matches_brute_force_sweep(self, seed):
        state = random_partition(np.random.default_rng(seed))
        got = set(identify_poh(state, 1e-4))
        assert got == brute_force_poh(state, 1e-4)


class TestTiling:
    def test_volume_and_disjointness_maintained(self, monkeypatch):
        # certified after every division, whose parent and children are the
        # rectangles that changed; every rectangle but the start comes from
        # a certified division, so the final partition is certified too
        def f(x):
            return float(np.sum(np.sin(3.0 * x) + (x - 0.3) ** 2))

        divide = direct_mod.sample_and_divide
        made = []

        def certified(rid, state, problem):
            children = divide(rid, state, problem)
            assert volume_fraction(state) == 1
            assert_disjoint_interiors(state)            # full pairwise pass
            assert_disjoint_interiors(state, [rid] + children)  # incremental
            made.extend(children)
            return children

        monkeypatch.setattr(direct_mod, "sample_and_divide", certified)
        res = direct_solve(box_problem(f, 3), DirectConfig(max_evals=600),
                           keep_state=True)
        assert res.state.size == 1 + len(made) > 100


class TestDirectSolve:
    def test_flat_sixth_power_converges_fast(self):
        problem = Problem(
            lambda x: float(0.1 * (x[0] - 0.4) ** 6),
            Bounds(np.array([-1.0]), np.array([1.0])),
            known_optimum=0.0,
        )
        res = direct_solve(problem, DirectConfig(max_iters=10))
        assert res.reason is Reason.TARGET_REACHED
        assert abs(res.f_min) <= 1e-4
        assert res.iterations <= 10

    def test_iter_budget_stop(self):
        problem = box_problem(lambda x: float(np.sum(x)), 2)
        res = direct_solve(problem, DirectConfig(max_iters=3))
        assert res.reason == "iter_budget"
        assert res.iterations == 3

    def test_eval_budget_stop_counts_locally(self):
        problem = box_problem(lambda x: float(np.sum(x * x)), 2)
        counter = EvalCounter()
        counter.count = 1000         # pre-spent global budget
        res = direct_solve(problem, DirectConfig(max_evals=50),
                           counter=counter)
        assert res.reason == "eval_budget"
        assert res.evals <= 50 + 8   # may finish the division in flight

    def test_shared_cap_exhaustion_is_graceful(self):
        problem = box_problem(lambda x: float(np.sum(x * x)), 2)
        counter = EvalCounter(cap=20)
        res = direct_solve(problem, DirectConfig(), counter=counter)
        assert res.reason is Reason.EVAL_BUDGET
        assert counter.count == 20
        assert np.isfinite(res.f_min)

    def test_min_measure_stop(self):
        problem = box_problem(lambda x: float(np.sum(x * x)), 1)
        res = direct_solve(problem, DirectConfig(min_measure=1e-3))
        assert res.reason is Reason.GLOBAL_STALL

    def test_stall_stop(self):
        # constant objective: f_min can never improve
        problem = box_problem(lambda x: 1.0, 2)
        res = direct_solve(problem,
                           DirectConfig(stall_eps=1e-8, stall_iters=4))
        assert res.reason is Reason.GLOBAL_STALL
        assert res.iterations >= 4

    def test_time_budget_counts_from_the_call(self):
        # the center evaluation outlasts the time budget; the clock starts
        # when direct_solve is entered, so the first probe of the first
        # division is never made and the division is cut
        count = [0]

        def slow_center(x):
            count[0] += 1
            if count[0] == 1:
                time.sleep(0.2)
            return float(np.sum(x * x))

        res = direct_solve(box_problem(slow_center, 2),
                           DirectConfig(max_seconds=0.1), keep_state=True)
        assert res.reason is Reason.TIME_BUDGET
        assert res.evals == count[0] == 1 and res.iterations == 1
        assert res.state.size == 1

    def test_deadline_checked_at_every_evaluation(self, monkeypatch):
        # a clock that every evaluation advances by one second: the run
        # makes every evaluation up to the deadline and stops at the next,
        # in the middle of a division, which leaves the partition a tiling
        def f(x):
            return float(np.sum((x - 0.3) ** 2))

        clock = [0.0]

        def ticking(x):
            clock[0] += 1.0
            return f(x)

        divide = direct_mod.sample_and_divide
        ends = []

        def record(rid, state, problem):
            children = divide(rid, state, problem)
            ends.append(state.counter.count)
            return children

        max_seconds = 20.0
        monkeypatch.setattr(direct_mod, "sample_and_divide", record)
        monkeypatch.setattr(problem_mod, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        res = direct_solve(box_problem(ticking, 2),
                           DirectConfig(max_seconds=max_seconds,
                                        target_accuracy=0.0),
                           keep_state=True)
        assert res.reason is Reason.TIME_BUDGET
        # evaluation 21 starts at 20 s, by the deadline; 22 would start past it
        assert res.evals == clock[0] == max_seconds + 1
        assert res.evals not in ends   # it ends mid-division
        assert res.state.size == ends[-1] < res.evals
        assert volume_fraction(res.state) == 1

    def test_target_stop_cuts_the_division_and_reports_the_counter_pair(
            self):
        # H6 first comes within 1e-4 at its 831st evaluation, a probe in the
        # middle of a division: the division is not stored, the partition
        # still tiles, and the result is the counter's best pair
        problem = get_function("H6")[0]
        counter = EvalCounter(cap=20000)
        res = direct_solve(problem, DirectConfig(max_evals=20000), counter,
                           keep_state=True)
        assert res.reason is Reason.TARGET_REACHED
        assert res.evals == counter.count == 831
        assert (res.f_min, res.x_min.tobytes()) == (
            counter.best_f, counter.best_x.tobytes())
        assert abs(res.f_min - problem.known_optimum) <= 1e-4
        assert res.state.size < 831 and res.state.f_min > res.f_min
        assert volume_fraction(res.state) == 1
        assert problem(res.x_min) == res.f_min

    def test_target_at_the_start_center_keeps_its_rectangle(self):
        problem = box_problem(lambda x: float(np.sum((x - 0.5) ** 2)), 3,
                              target=0.0)
        res = direct_solve(problem, DirectConfig(), keep_state=True)
        assert res.reason is Reason.TARGET_REACHED
        assert (res.evals, res.iterations, res.f_min) == (1, 0, 0.0)
        assert res.state.size == 1 and volume_fraction(res.state) == 1

    def test_trace_is_monotone(self):
        problem = box_problem(lambda x: float(np.sum((x - 0.37) ** 2)), 2)
        res = direct_solve(problem, DirectConfig(max_evals=300))
        fs = [f for _, _, f in res.trace]
        assert all(a >= b for a, b in zip(fs, fs[1:]))

    def test_result_in_user_space(self):
        problem = Problem(
            lambda x: float(np.sum((x - 5.0) ** 2)),
            Bounds(np.array([2.0, 2.0]), np.array([8.0, 8.0])),
        )
        res = direct_solve(problem, DirectConfig(max_evals=400))
        assert problem.bounds.contains(res.x_min)
        assert np.allclose(res.x_min, 5.0, atol=0.2)


# a 7-dimensional box with no two coordinates alike, so a coordinate mixed
# up with another one changes the bits
BLOCK_BOUNDS = Bounds(np.array([-3.0, -1.0, 0.5, -5.12, 2.0, -1e-3, -7.0]),
                      np.array([2.0, 4.0, 0.75, 5.12, 1000.0, 7.0, -6.5]))
BLOCK_WEIGHTS = np.arange(1.0, 8.0)


def recording_block_problem():
    """A non-separable 7-dimensional problem that records every point it
    evaluates (as bytes) and the value, in order."""
    seen = []

    def f(x):
        value = float(np.sum(np.sin(x) * BLOCK_WEIGHTS) + 0.01 * x[0] * x[4]
                      + np.cos(x[3] * x[6]))
        seen.append((np.asarray(x, dtype=float).tobytes(), value))
        return value

    return Problem(f, BLOCK_BOUNDS), seen


class TestBlockView:
    """`direct_solve(p, cfg, coords=idx, base=x)` is DIRECT on
    `make_subproblem(p, x, idx)`, evaluation for evaluation, with full
    points for centers and `x_min`."""

    BASE = (BLOCK_BOUNDS.lower + np.array([0.1, 0.9, 0.4, 0.55, 0.02, 0.7,
                                           0.3]) * BLOCK_BOUNDS.width)
    # one, two and all coordinates, and a block that wraps around unsorted;
    # each with the evaluations a capped counter allows, chosen so that the
    # cap falls in the middle of a division
    BLOCKS = {(4,): 96, (1, 5): 100, tuple(range(7)): 120, (6, 0, 1): 102}

    def run_both(self, idx, capped):
        config = DirectConfig(max_evals=300, target_accuracy=0.0)
        results, sequences, counters = [], [], []
        for view in (False, True):
            problem, seen = recording_block_problem()
            counter = (EvalCounter(count=7, cap=7 + self.BLOCKS[idx])
                       if capped else EvalCounter(count=7))
            base = self.BASE.copy()
            if view:
                res = direct_solve(problem, config, counter, keep_state=True,
                                   coords=np.array(idx), base=base)
            else:
                res = direct_solve(make_subproblem(problem, base,
                                                   np.array(idx)),
                                   config, counter, keep_state=True)
            assert base.tobytes() == self.BASE.tobytes()
            results.append(res)
            sequences.append(seen)
            counters.append(counter.count)
        return results, sequences, counters

    @pytest.mark.parametrize("capped", [False, True],
                             ids=["uncapped", "capped"])
    @pytest.mark.parametrize("idx", sorted(BLOCKS),
                             ids=lambda idx: "-".join(map(str, idx)))
    def test_equals_the_restricted_problem_bit_for_bit(self, idx, capped):
        (ref, view), (ref_seen, view_seen), counts = self.run_both(idx,
                                                                   capped)
        assert view_seen == ref_seen
        assert counts[0] == counts[1]
        assert ((view.f_min, view.evals, view.iterations, view.reason)
                == (ref.f_min, ref.evals, ref.iterations, ref.reason))
        want = self.BASE.copy()
        want[list(idx)] = ref.x_min
        assert view.x_min.tobytes() == want.tobytes()
        # the same partition, its centers full points of the problem
        state, ref_state = view.state, ref.state
        assert state.coords == idx and state.n == len(idx)
        assert state._level_tuples == ref_state._level_tuples
        assert state._exact == ref_state._exact
        assert state._values == ref_state._values
        for center, ref_center in zip(state._centers, ref_state._centers):
            want = self.BASE.copy()
            want[list(idx)] = ref_center
            assert center.tobytes() == want.tobytes()
        if capped:
            # the premise: the cap cut a division short, whose probes were
            # evaluated but never became rectangles
            assert view.reason is Reason.EVAL_BUDGET
            assert view.evals == self.BLOCKS[idx] > state.size
        else:
            assert view.evals == state.size >= 300

    def test_plain_direct_is_the_block_of_all_coordinates(self):
        problem, seen = recording_block_problem()
        plain = direct_solve(problem, DirectConfig(max_evals=200))
        plain_seen = list(seen)
        seen.clear()
        # the base's coordinates are all replaced by the block's midpoint
        base = self.BASE.copy()
        block = direct_solve(problem, DirectConfig(max_evals=200),
                             coords=range(7), base=base)
        assert base.tobytes() == self.BASE.tobytes()
        assert seen == plain_seen
        assert block.x_min.tobytes() == plain.x_min.tobytes()

    @pytest.mark.parametrize("coords", [[], [1, 1], [7], [-1], [0.0],
                                        [[0, 1]]])
    def test_rejects_bad_coords(self, coords):
        problem, seen = recording_block_problem()
        with pytest.raises(ConfigError):
            direct_solve(problem, DirectConfig(max_evals=20), coords=coords,
                         base=self.BASE)
        assert not seen

    # the last three have the right shape, but put the start center (the
    # base with coordinate 2 at its middle) outside the closed box
    @pytest.mark.parametrize("base", [
        np.zeros(6), np.zeros(8), np.zeros((1, 7)), np.full(7, 1e9),
        np.full(7, np.nan), np.nextafter(BLOCK_BOUNDS.lower, -np.inf)])
    def test_rejects_a_base_of_the_wrong_shape(self, base):
        problem, seen = recording_block_problem()
        with pytest.raises(ConfigError):
            direct_solve(problem, DirectConfig(max_evals=20), coords=[2],
                         base=base)
        assert not seen

    def test_a_base_on_the_boundary_runs_and_its_block_is_ignored(self):
        # the box is closed, and the block's own coordinates of the base
        # are replaced by their midpoints before the check
        problem, seen = recording_block_problem()
        base = BLOCK_BOUNDS.upper.copy()
        base[[2, 5]] = [np.nan, 1e9]
        res = direct_solve(problem, DirectConfig(max_evals=20),
                           coords=[5, 2], base=base)
        assert res.evals == len(seen) >= 20
        for point, _ in seen:
            x = np.frombuffer(point)
            assert BLOCK_BOUNDS.contains(x, atol=0.0)
            assert np.delete(x, [2, 5]).tolist() == np.delete(
                BLOCK_BOUNDS.upper, [2, 5]).tolist()

    def test_base_is_read_only_and_x_min_is_fresh(self):
        problem, _ = recording_block_problem()
        base = self.BASE.copy()
        res = direct_solve(problem, DirectConfig(max_evals=100),
                           keep_state=True, coords=[1, 5], base=base)
        assert base.tobytes() == self.BASE.tobytes()
        assert not np.shares_memory(res.x_min, base)
        assert not any(np.shares_memory(res.x_min, c)
                       for c in res.state._centers)
        assert problem(res.x_min) == res.f_min

    def test_spent_counter_returns_the_base_with_the_block_at_its_midpoint(
            self):
        problem, seen = recording_block_problem()
        base = self.BASE.copy()
        counter = EvalCounter(count=3, cap=3)
        res = direct_solve(problem, DirectConfig(), counter,
                           coords=[6, 0, 1], base=base)
        assert not seen and counter.count == 3
        assert (res.f_min, res.evals, res.iterations, res.reason) == (
            np.inf, 0, 0, Reason.EVAL_BUDGET)
        mid = BLOCK_BOUNDS.lower + 0.5 * BLOCK_BOUNDS.width
        want = self.BASE.copy()
        want[[6, 0, 1]] = mid[[6, 0, 1]]
        assert res.x_min.tobytes() == want.tobytes()
        assert base.tobytes() == self.BASE.tobytes()
        assert not np.shares_memory(res.x_min, base)
