"""Partition geometry, potentially-optimal selection and the DIRECT loop."""

import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import abcdirect.direct as direct_mod
import abcdirect.problem as problem_mod
from abcdirect.abcd import (
    DEEP_CAP_FACTOR,
    SUB_CAP_PER_COORD as SUB_CAP,
    SUB_STOPS,
    make_subproblem,
)
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


def unvalued(i, z):
    """The view of a store that values no probe through its view."""
    raise AssertionError(f"probe ({i}, {z!r}) valued by a store's view")


def make_state(n, counter=None, bounds=None):
    """A rectangle store as `direct_solve` builds one for plain DIRECT: its
    block all n coordinates of `bounds` (the unit cube by default), its base
    the box's midpoint. Its view, `unvalued`, fails the test if a probe is
    valued through it."""
    if bounds is None:
        bounds = Bounds(np.zeros(n), np.ones(n))
    return PartitionState(n, EvalCounter() if counter is None else counter,
                          tuple(range(n)), bounds,
                          bounds.lower + 0.5 * bounds.width, unvalued)


def add(state, levels, exact, value):
    """`state.add` of a level vector, interned first, as a division adds."""
    levels, key, _, _ = state._intern(tuple(levels))
    return state.add(levels, exact, value, key)


def rectangle(state, rid):
    """Rectangle `rid` of a store, read from its center, level tuple,
    numerators and value."""
    levels = np.array(state._level_tuples[rid], dtype=int)
    return SimpleNamespace(id=rid, center=state.center(rid), levels=levels,
                           exact=state._exact[rid],
                           value=state._values[rid], measure=measure(levels))


def rectangles(state):
    return [rectangle(state, rid) for rid in range(state.size)]


def brute_force_poh(state, eps, grid=None):
    """Literal rate-of-change-constant sweep: a rectangle is potentially
    optimal when some candidate K makes it best and nontrivially below the
    incumbent. Non-representatives of a measure group fail the 'best'
    comparison at every K, so sweeping all rectangles is safe. The log grid
    alone can miss narrow admissible-K windows, so every pairwise slope
    (the exact window endpoints) is added to the candidates."""
    if grid is None:
        grid = np.logspace(-6, 6, 1201)
    rects = rectangles(state)
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
    state = make_state(n)
    groups = rng.integers(2, max_groups + 1)
    for _ in range(groups):
        lv = rng.integers(0, 6, size=n).tolist()
        for _ in range(rng.integers(1, 4)):
            add(state, lv, (1,) * n, float(rng.normal(0, 5)))
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
        first, second = make_state(1), make_state(1)
        vectors = [rng.integers(0, 31, size=rng.integers(1, 21)).tolist()
                   for _ in range(400)]
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            want = round(measure(np.array(v)), GROUP_KEY_DIGITS).hex()
            assert first._intern(v)[1].hex() == want
        for v in vectors:
            assert second._intern(v)[1].hex() == first._intern(v)[1].hex()

    def test_rejects_negative_levels(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            state._intern((0, -1))
        assert not state._records


class TestStore:
    def test_levels_array_matches_the_inputs(self):
        # `_levels` is built from the level tuples; the reference is built
        # from what `add` and `rekey` were given. A rekey moves a rectangle
        # into a group that an earlier `add` made, as in a division
        rng = np.random.default_rng(3)
        n = 4
        state = make_state(n)
        want = []
        for i in range(40):
            lv = rng.integers(0, 7, size=n)
            add(state, lv.tolist(), (1,) * n, float(i))
            want.append(lv)
            if i % 4 == 3:
                rid = int(rng.integers(0, i + 1))
                lv = want[int(rng.integers(0, i + 1))]
                levels, key, _, _ = state._intern(tuple(lv.tolist()))
                state.rekey(rid, levels, (1,) * n, key)
                want[rid] = lv
        levels = state._levels
        assert levels.dtype == np.int16 and levels.shape == (40, n)
        assert np.array_equal(levels, np.array(want, dtype=np.int16))
        assert make_state(3)._levels.shape == (0, 3)

    def test_a_one_coordinate_store_needs_a_view(self):
        # `divide_interval` charges each probe, then values it through the
        # store's view: a one-coordinate store without one is refused before
        # any charge. A larger block divides without the store's view
        counter = EvalCounter()
        bounds = Bounds(np.zeros(2), np.ones(2))
        with pytest.raises(ConfigError, match="view"):
            PartitionState(1, counter, (1,), bounds, np.full(2, 0.5))
        assert counter.count == 0
        assert PartitionState(2, counter, (0, 1), bounds,
                              np.full(2, 0.5)).view is None

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

    def test_intern_keeps_one_record_per_level_vector(self):
        # an equal tuple, another object, gets the first one's record: the
        # interned tuple, its group key, its longest dimensions and their
        # probes' denominator; `add` stores the tuple and key it is given
        state = make_state(3)
        record = state._intern((2, 1, 1))
        assert state._intern(tuple([2, 1, 1])) is record
        levels, key, longest, denom = record
        assert levels == (2, 1, 1) and longest == (1, 2)
        assert key == round(measure(np.array([2, 1, 1])), GROUP_KEY_DIGITS)
        assert denom == 2 * 3.0 ** 2
        for value in (1.0, 2.0):
            rid = state.add(levels, (1, 1, 1), value, key)
            assert state._level_tuples[rid] is levels
            assert state._keys[rid] == key
        for r in rectangles(state):
            assert r.measure == measure(np.array([2, 1, 1]))
        # a tuple past EXACT_LEVEL is marked deep when it is interned
        assert not state._deep
        assert state._intern((33, 32, 33))[0] in state._deep

    def test_result_x_min_is_the_callers_copy(self):
        # the state keeps the best center as stored, with no copy; the
        # result hands out a copy, so writing to it leaves the partition as
        # it was
        def f(x):
            return float(np.sum((x - 0.3) ** 2))

        res = direct_solve(box_problem(f, 3), DirectConfig(max_evals=300),
                           keep_state=True)
        state = res.state
        best = min(rectangles(state), key=lambda r: (r.value, r.id))
        kept = best.center.tobytes()
        assert state.best == best.id
        assert (res.x_min.tobytes() == state.center(state.best).tobytes()
                == kept)
        res.x_min[:] = -1.0
        assert state.center(state.best).tobytes() == kept
        assert state.center(best.id).tobytes() == kept

    def test_rectangle_center_is_a_copy(self):
        # the center handed out is rebuilt from the numerators, and the
        # best is kept as an id
        state = make_state(2)
        center = np.array([1 / 6, 5 / 6])
        rid = add(state, (1, 1), (1, 5), 0.0)
        state.center(rid)[:] = 9.0
        assert state.center(rid).tobytes() == center.tobytes()
        assert state.best == rid

    def test_partition_memory_per_rectangle(self):
        # the store keeps no array per rectangle: a 12,000-evaluation
        # rastrigin-12 partition cost 536 traced bytes a rectangle when
        # every rectangle kept its numpy center
        problem = get_function("rastrigin", 12)[0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = direct_solve(problem, DirectConfig(max_evals=12000),
                               keep_state=True)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert res.state.size == res.evals >= 12000
        assert (after - before) / res.state.size < 400
        # the centers, never stored, are rebuilt as the points evaluated
        assert all(problem(res.state.center(rid)) == value
                   for rid, value in enumerate(res.state._values))

    def test_rekey_joins_the_group_its_children_made(self):
        # a division adds its children under the parent's new key, which
        # makes the group with the smallest key, before the rekey; the
        # parent's entry in its old group is stale and purged on access
        state = make_state(2)
        old_key = state._intern((0, 0))[1]
        rid = add(state, (0, 0), (1, 1), 1.0)
        other = add(state, (0, 0), (1, 1), 2.0)
        levels, new_key, _, _ = state._intern((1, 0))
        assert new_key not in state._heaps
        child = state.add(levels, (5, 1), 3.0, new_key)
        assert min(state._heaps) == new_key < old_key
        state.rekey(rid, levels, (3, 1), new_key)
        assert state.group_representatives() == [(new_key, 1.0, rid),
                                                  (old_key, 2.0, other)]
        assert sorted(state._heaps[new_key]) == [(1.0, rid), (3.0, child)]

    def test_rectangle_levels_and_volume_fraction(self):
        state = make_state(2)
        vectors = [(0, 1), (2, 1), (1, 1), (3, 0)]
        for i, lv in enumerate(vectors):
            add(state, lv, (1, 1), float(i))
        assert state._level_tuples == vectors
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
        state = make_state(2, counter, problem.bounds)
        add(state, (0, 0), (1, 1),
            evaluate_counted(problem, np.full(2, 0.5), counter))

        new_ids = sample_and_divide(0, state, problem)
        assert counter.count == 5
        assert len(new_ids) == 4

        got = {tuple(np.round(r.center, 12)): tuple(r.levels)
               for r in rectangles(state)}
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
        state = make_state(2, counter, problem.bounds)
        add(state, (0, 0), (1, 1),
            evaluate_counted(problem, np.full(2, 0.5), counter))
        sample_and_divide(0, state, problem)
        got = {tuple(np.round(r.center, 12)): tuple(r.levels)
               for r in rectangles(state)}
        third = 1.0 / 3.0
        assert got[(round(0.5 - third, 12), 0.5)] == (1, 0)
        assert got[(0.5, round(0.5 - third, 12))] == (1, 1)

    def test_exact_centers_survive_deep_division(self):
        def f(x):
            return float(np.sum((x - 0.123) ** 2))

        problem = box_problem(f, 2)
        res = direct_solve(problem, DirectConfig(max_evals=500),
                           keep_state=True)
        for r in rectangles(res.state):
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
        rects = rectangles(res.state)
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
        state = make_state(3, counter, bounds)
        add(state, levels, exact, 1.0)
        before = state.center(0).tobytes()
        assert before == user(exact, levels).tobytes()
        assert sample_and_divide(0, state, problem) == [1, 2]
        assert counter.count == 2
        children = [rectangle(state, rid) for rid in (1, 2)]
        assert [r.exact for r in children] == [(5, 5, 3), (5, 1, 3)]
        for r in children:
            assert r.levels.tolist() == [2, 2, 2]
            assert r.center.tobytes() == user(r.exact, r.levels).tobytes()
            assert r.value == problem(r.center)
        assert state.center(0).tobytes() == before
        # a spent counter stops the division before its first evaluation
        spent = make_state(3, EvalCounter(count=1, cap=1), bounds)
        add(spent, levels, exact, 1.0)
        with pytest.raises(Stop):
            sample_and_divide(0, spent, problem)
        assert spent.size == 1 and spent.center(0).tobytes() == before


    def test_centers_past_the_exact_level_are_kept(self):
        # up to EXACT_LEVEL a center is rebuilt from its numerators; a
        # division past it makes numerators and denominators that are not
        # exact doubles, so a center coordinate is rebuilt from the
        # numerator and level of the probe that set it, and the children
        # keep the points their probes evaluated and the parent the center
        # it had before the division. Every probe moves one coordinate of
        # its parent's center to lower + num / (2 * 3.0**level) * width.
        assert direct_mod.EXACT_LEVEL == 32
        bounds = Bounds(np.array([-5.12, 3.0]), np.array([2.0, 1000.0]))
        lower, width = bounds.lower.tolist(), bounds.width.tolist()
        seen = []

        def f(x):
            seen.append(x.tobytes())
            return float(x[0] + 1e-3 * x[1])

        def mapped(exact, levels):
            return np.array([lo + num / (2 * 3.0 ** lv) * w for lo, num, lv, w
                             in zip(lower, exact, levels, width)])

        def probe(center, dim, num, level):
            x = center.copy()
            x[dim] = lower[dim] + num / (2 * 3.0 ** level) * width[dim]
            return x

        problem = Problem(f, bounds)
        state = make_state(2, bounds=bounds)
        exact = (3382709024365471, 3465416158634719)
        start = mapped(exact, (32, 32))
        add(state, (32, 32), exact, f(start))
        assert state.center(0).tobytes() == start.tobytes()
        del seen[:]

        children = sample_and_divide(0, state, problem)
        want = [probe(start, d, 3 * exact[d] + s, 33)
                for d in (0, 1) for s in (2, -2)]
        assert seen == [x.tobytes() for x in want]
        assert [state.center(c).tobytes() for c in children] == seen
        assert state.center(0).tobytes() == start.tobytes()
        # the premise: the parent's refined numerators round, so a rebuild
        # at level 33 would not give its center
        assert (mapped(state._exact[0], state._level_tuples[0]).tobytes()
                != start.tobytes())
        for cid in children:
            r = rectangle(state, cid)
            moved = [d for d in (0, 1)
                     if r.levels[d] == 33 and r.exact[d] % 3 != 0]
            assert len(moved) == 1
            d = moved[0]
            assert r.center.tobytes() == probe(start, d, r.exact[d],
                                               33).tobytes()
            assert r.value == f(r.center)

        # a deep child divides from the center it keeps
        cid = next(c for c in children
                   if state._level_tuples[c] == (33, 32))
        center = state.center(cid)
        del seen[:]
        grandchildren = sample_and_divide(cid, state, problem)
        num = state._exact[cid][1] // 3
        want = [probe(center, 1, 3 * num + s, 33) for s in (2, -2)]
        assert seen == [x.tobytes() for x in want]
        assert [state.center(g).tobytes() for g in grandchildren] == seen
        assert state.center(cid).tobytes() == center.tobytes()
        assert volume_fraction(state) == Fraction(1, 3 ** 64)

    def test_deep_one_coordinate_centers_are_their_probes(self):
        # a one-coordinate store rooted at level 32, as above, divided by
        # `divide_interval` far past EXACT_LEVEL: every center is rebuilt
        # as the point its probe evaluated, bit for bit, while a rebuild at
        # the stored level would not give some of them
        bounds = Bounds(np.array([-5.12, 3.0]), np.array([2.0, 1000.0]))
        lower, width = bounds.lower.tolist(), bounds.width.tolist()
        seen = []

        def f(x):
            seen.append(x.tobytes())
            return float(np.sin(x[0]) + 1e-3 * x[1])

        problem = Problem(f, bounds)
        base = bounds.lower + 0.3 * bounds.width
        state = PartitionState(1, EvalCounter(), (1,), bounds, base,
                               problem.coordinate_view(base))
        num = 3465416158634719
        start = base.copy()
        start[1] = lower[1] + num / (2 * 3.0 ** 32) * width[1]
        add(state, (32,), (num,), f(start))
        rng = np.random.default_rng(5)
        for _ in range(60):
            rid = int(rng.integers(0, state.size))
            assert direct_mod.divide_interval(rid, state, problem) == [
                state.size - 2, state.size - 1]
        assert max(state._level_tuples) > (direct_mod.EXACT_LEVEL + 5,)
        assert [state.center(rid).tobytes()
                for rid in range(state.size)] == seen
        naive = [lower[1] + n / (2 * 3.0 ** lv) * width[1]
                 for (n,), (lv,) in zip(state._exact, state._level_tuples)]
        assert any(z != np.frombuffer(x)[1] for z, x in zip(naive, seen))
        assert volume_fraction(state) == Fraction(1, 3 ** 32)


class TestPoh:
    def test_rejects_nonpositive_eps(self):
        state = random_partition(np.random.default_rng(0))
        for eps in (0.0, -1e-4, math.nan):
            with pytest.raises(ValueError):
                identify_poh(state, eps)

    def test_single_rectangle_is_selected(self):
        state = make_state(2)
        add(state, (0, 0), (1, 1), 3.0)
        assert identify_poh(state, 1e-4) == [0]

    def test_largest_measure_always_included(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = random_partition(rng)
            poh = identify_poh(state, 1e-4)
            assert max(state._keys[i] for i in poh) == max(state._keys)

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
        res = direct_solve(problem, DirectConfig(max_evals=100))
        assert res.reason is Reason.TARGET_REACHED
        assert abs(res.f_min) <= 1e-4
        assert res.iterations <= 10

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

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan])
    def test_rejects_poh_eps_before_evaluating(self, eps):
        # a NaN used to pass and divide only the largest rectangle
        calls = []

        def f(x):
            calls.append(x)
            return float(np.sum(x * x))

        with pytest.raises(ConfigError, match="poh_eps"):
            direct_solve(box_problem(f, 2), DirectConfig(poh_eps=eps))
        assert not calls

    @pytest.mark.parametrize("max_evals", [0, -5])
    def test_rejects_max_evals_below_one_before_evaluating(self, max_evals):
        # such a cap used to spend one evaluation and stop on eval_budget
        calls = []

        def f(x):
            calls.append(x)
            return float(np.sum(x * x))

        for coords in (None, [1]):
            with pytest.raises(ConfigError, match="max_evals"):
                direct_solve(box_problem(f, 2),
                             DirectConfig(max_evals=max_evals), coords=coords)
        assert not calls

    @pytest.mark.parametrize("field,value", [
        ("target_accuracy", -1.0), ("target_accuracy", math.nan),
        ("max_seconds", -1.0), ("max_seconds", 0.0),
        ("max_seconds", math.nan)])
    def test_rejects_a_target_or_time_budget_no_run_can_use(self, field,
                                                            value):
        # on BR these used to stop on time_budget before the first
        # evaluation (max_seconds <= 0), run with no deadline (a NaN
        # max_seconds) or run to the evaluation budget with a target that
        # can never be reached (a negative or NaN target_accuracy)
        problem = get_function("BR")[0]
        counter = EvalCounter()
        with pytest.raises(ConfigError, match=field):
            direct_solve(problem, DirectConfig(max_evals=500,
                                               **{field: value}), counter)
        assert counter.count == 0 and not counter.armed

    @pytest.mark.parametrize("field,stops", [
        ("stall_iters", dict(stall_iters=-1)),
        ("stall_iters", dict(stall_iters=2.5)),
        ("stall_iters", dict(stall_iters=math.nan)),
        ("stall_eps", dict(stall_iters=5, stall_eps=math.nan)),
        ("stall_eps", dict(stall_iters=5, stall_eps=-1.0)),
        ("min_measure", dict(min_measure=math.nan)),
        ("min_measure", dict(min_measure=-1.0))])
    def test_rejects_a_stall_stop_that_can_never_fire(self, field, stops):
        # on sphere-2 each of these but the fractional streak, which counts
        # no iterations, used to disable its stop without a word: the run
        # spent its whole budget, 3003 evaluations, and ended on
        # eval_budget, where the valid stop ends it at 567
        problem = get_function("sphere", 2)[0]
        counter = EvalCounter()
        with pytest.raises(ConfigError, match=field):
            direct_solve(problem, DirectConfig(max_evals=3000, **stops),
                         counter)
        assert counter.count == 0 and not counter.armed
        res = direct_solve(problem, DirectConfig(
            max_evals=3000, target_accuracy=0.0, stall_iters=5,
            stall_eps=1e-8))
        assert (res.evals, res.reason) == (567, Reason.GLOBAL_STALL)

    def test_a_budget_of_one_evaluation_stops_before_the_first_division(
            self):
        # the loop-top budget check: the start center spends the whole
        # budget, so no iteration runs
        res = direct_solve(get_function("BR")[0], DirectConfig(max_evals=1),
                           keep_state=True)
        assert (res.evals, res.iterations, res.reason) == (
            1, 0, Reason.EVAL_BUDGET)
        assert res.state.size == 1 and res.state.best == 0

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
        b = problem.bounds
        assert ((b.lower <= res.x_min) & (res.x_min <= b.upper)).all()
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
        for rid in range(state.size):
            want = self.BASE.copy()
            want[list(idx)] = ref_state.center(rid)
            assert state.center(rid).tobytes() == want.tobytes()
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
            assert ((BLOCK_BOUNDS.lower <= x)
                    & (x <= BLOCK_BOUNDS.upper)).all()
            assert np.delete(x, [2, 5]).tolist() == np.delete(
                BLOCK_BOUNDS.upper, [2, 5]).tolist()

    def test_base_is_read_only_and_x_min_is_fresh(self):
        problem, _ = recording_block_problem()
        base = self.BASE.copy()
        res = direct_solve(problem, DirectConfig(max_evals=100),
                           keep_state=True, coords=[1, 5], base=base)
        assert base.tobytes() == self.BASE.tobytes()
        assert not np.shares_memory(res.x_min, base)
        state = res.state
        assert not np.shares_memory(res.x_min, state.base)
        kept = state.center(state.best).tobytes()
        assert res.x_min.tobytes() == kept
        assert problem(res.x_min) == res.f_min
        res.x_min[:] = 0.0
        assert state.center(state.best).tobytes() == kept

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


class TestIntervalStore:
    """A one-coordinate run divides with `divide_interval`. With
    `sample_and_divide` swapped in for it on the same store, the run makes
    the same evaluations in the same order, leaves the same store and
    reports the same, bit for bit, however it stops."""

    BASE = TestBlockView.BASE

    def run_both(self, monkeypatch, make_problem, config,
                 make_counter=EvalCounter, **block):
        """Run `direct_solve` with `divide_interval`, then with
        `sample_and_divide` in its place, each with `keep_state` on a fresh
        problem from `make_problem()` (a problem and the list it records
        its evaluations in) and a fresh counter; checks that each run
        divided with its own division alone and that the two agree, store
        and centers included. Returns the reference run's result."""
        divisions = []
        divide, divide_interval = (direct_mod.sample_and_divide,
                                   direct_mod.divide_interval)

        def rectangles(*args):
            divisions.append("rectangle")
            return divide(*args)

        def intervals(*args):
            divisions.append("interval")
            return divide_interval(*args)

        monkeypatch.setattr(direct_mod, "sample_and_divide", rectangles)
        outcomes, used = [], []
        for division in (intervals, rectangles):
            monkeypatch.setattr(direct_mod, "divide_interval", division)
            problem, seen = make_problem()
            counter = make_counter()
            divisions.clear()
            res = direct_solve(problem, config, counter, keep_state=True,
                               **block)
            used.append(set(divisions))
            state = res.state
            outcomes.append((
                seen, res.f_min, res.x_min.tobytes(), res.evals,
                res.iterations, res.reason, res.trace, counter.count,
                counter.best_f, counter.best_x.tobytes(),
                state._level_tuples, state._exact, state._values,
                [state.center(rid).tobytes() for rid in range(state.size)]))
        assert used[0] <= {"interval"} and used[1] <= {"rectangle"}
        assert bool(used[0]) == bool(used[1])
        assert outcomes[0] == outcomes[1]
        return res

    def block_problem(self, target=None):
        problem, seen = recording_block_problem()
        return Problem(problem.objective, problem.bounds, target), seen

    @pytest.mark.parametrize("capped", [False, True],
                             ids=["uncapped", "capped"])
    @pytest.mark.parametrize("coord", range(7))
    def test_every_coordinate(self, monkeypatch, coord, capped):
        # 96 evaluations end on the plus probe of a division: the start
        # center takes one and every division two
        res = self.run_both(
            monkeypatch, self.block_problem,
            DirectConfig(max_evals=300, target_accuracy=0.0),
            lambda: (EvalCounter(count=7, cap=7 + 96) if capped
                     else EvalCounter(count=7)),
            coords=[coord], base=self.BASE.copy())
        if capped:
            assert res.reason is Reason.EVAL_BUDGET
            assert res.evals == 96 > res.state.size
        else:
            assert res.evals == res.state.size >= 300

    @pytest.mark.parametrize("capped", [False, True],
                             ids=["uncapped", "capped"])
    def test_every_division_tiles(self, monkeypatch, capped):
        # acceptance 3 on the one-coordinate division: each division is
        # certified against the partition it leaves, and the last partition
        # of each run, a capped one cut in the middle of a division
        # included, tiles the block's interval
        divide_interval = direct_mod.divide_interval
        divisions = 0

        def certified(rid, state, problem):
            nonlocal divisions
            children = divide_interval(rid, state, problem)
            assert_disjoint_interiors(state, [rid, *children])
            divisions += 1
            return children

        monkeypatch.setattr(direct_mod, "divide_interval", certified)
        for coord in range(7):
            counter = (EvalCounter(count=7, cap=7 + 96) if capped
                       else EvalCounter(count=7))
            res = direct_solve(recording_block_problem()[0],
                               DirectConfig(max_evals=300,
                                            target_accuracy=0.0),
                               counter, keep_state=True, coords=[coord],
                               base=self.BASE.copy())
            assert volume_fraction(res.state) == 1
            assert res.evals == (96 if capped else res.state.size)
        assert divisions >= 7 * 47

    def test_target_at_the_start_center(self, monkeypatch):
        problem, _ = recording_block_problem()
        start = self.BASE.copy()
        start[2] = BLOCK_BOUNDS.lower[2] + 0.5 * BLOCK_BOUNDS.width[2]
        res = self.run_both(
            monkeypatch, lambda: self.block_problem(problem(start)),
            DirectConfig(target_accuracy=0.0), coords=[2],
            base=self.BASE.copy())
        assert res.reason is Reason.TARGET_REACHED
        assert (res.evals, res.iterations, res.state.size) == (1, 0, 1)

    def test_target_in_the_middle_of_a_division(self, monkeypatch):
        # the first new best past evaluation 20 that a plus probe makes
        # (an even evaluation) becomes the target; the run stops there,
        # before the minus probe
        problem, seen = recording_block_problem()
        direct_solve(problem, DirectConfig(max_evals=300,
                                           target_accuracy=0.0),
                     coords=[3], base=self.BASE.copy())
        values = [value for _, value in seen]
        hit = next(i for i in range(21, len(values), 2)
                   if values[i] < min(values[:i]))
        res = self.run_both(
            monkeypatch, lambda: self.block_problem(values[hit]),
            DirectConfig(max_evals=300, target_accuracy=0.0), coords=[3],
            base=self.BASE.copy())
        assert res.reason is Reason.TARGET_REACHED
        assert res.evals == hit + 1 > res.state.size

    def test_deadline(self, monkeypatch):
        # every evaluation advances the clock by one second: evaluation 22
        # starts at 21 s, by the deadline, and 23, a minus probe, past it
        clock = [0.0]

        def ticking():
            problem, seen = recording_block_problem()
            clock[0] = 0.0

            def f(x):
                clock[0] += 1.0
                return problem.objective(x)
            return Problem(f, problem.bounds), seen

        monkeypatch.setattr(problem_mod, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        res = self.run_both(
            monkeypatch, ticking,
            DirectConfig(max_seconds=21.0, target_accuracy=0.0),
            coords=[5], base=self.BASE.copy())
        assert res.reason is Reason.TIME_BUDGET
        assert res.evals == 22 > res.state.size

    @pytest.mark.parametrize("stop", ["stall", "min_measure", "deep"])
    def test_subproblem_configs(self, monkeypatch, stop):
        # ABCD's one-coordinate subproblems: a regular one, which stalls
        # before its cap in coordinate 0; one whose smallest interval ends
        # it; and a deep sweep's, with five times the cap and no stops
        coord, config = {
            "stall": (0, DirectConfig(max_evals=SUB_CAP, **SUB_STOPS)),
            "min_measure": (2, DirectConfig(max_evals=SUB_CAP,
                                            min_measure=1e-3)),
            "deep": (4, DirectConfig(max_evals=SUB_CAP * DEEP_CAP_FACTOR)),
        }[stop]
        res = self.run_both(monkeypatch, self.block_problem, config,
                            lambda: EvalCounter(cap=10 ** 6),
                            coords=[coord], base=self.BASE.copy())
        if stop == "deep":
            assert res.reason is Reason.EVAL_BUDGET
            assert res.evals >= SUB_CAP * DEEP_CAP_FACTOR
        else:
            assert res.reason is Reason.GLOBAL_STALL
            assert res.evals < SUB_CAP
            assert ((min(res.state._heaps) < config.min_measure)
                    == (stop == "min_measure"))

    @pytest.mark.parametrize("plateau", [False, True],
                             ids=["smooth", "plateau"])
    def test_plain_direct_in_one_dimension(self, monkeypatch, plateau):
        # on the plateau many probes tie at zero: the first zero is the
        # best, and every later one must leave it where it is
        def make():
            seen = []

            def f(x):
                if plateau:
                    value = max(abs(x[0] - 0.3) - 0.5, 0.0)
                else:
                    value = float(np.sin(5.0 * x[0]) + 0.1 * x[0] ** 2)
                seen.append((x.tobytes(), value))
                return value
            return Problem(f, Bounds(np.array([-4.0]),
                                     np.array([3.0]))), seen

        res = self.run_both(monkeypatch, make,
                            DirectConfig(max_evals=500, target_accuracy=0.0))
        assert res.evals == res.state.size >= 500
        values = res.state._values
        assert (values.count(res.f_min) > 1) == plateau

    def test_a_view_values_the_start_center(self):
        # a kernel with a coordinate view is called for none of a
        # one-coordinate run's evaluations, its start center included, and
        # the run is the one the kernel makes without a view, bit for bit
        problem = get_function("rastrigin", 7)[0]
        kernel, bounds = problem.objective, problem.bounds
        base = bounds.lower + 0.3 * bounds.width
        config = DirectConfig(max_evals=60, target_accuracy=0.0)
        runs = []
        for viewed in (False, True):
            calls = []

            def f(x):
                calls.append(x.tobytes())
                return kernel(x)
            if viewed:
                f.view = kernel.view
            res = direct_solve(Problem(f, bounds), config, coords=[3],
                               base=base)
            runs.append((res.f_min, res.x_min.tobytes(), res.evals,
                         res.trace))
            assert len(calls) == (0 if viewed else res.evals)
        assert runs[0] == runs[1]

    def test_levels_past_the_last_group_key(self, monkeypatch):
        # at level 26 and deeper the measure rounds to the group key 0.0,
        # so every such interval shares one group
        def make():
            seen = []

            def f(x):
                value = math.sqrt(abs(x[0] - 0.123456789))
                seen.append((x.tobytes(), value))
                return value
            return Problem(f, Bounds(np.zeros(1), np.ones(1))), seen

        res = self.run_both(monkeypatch, make,
                            DirectConfig(poh_eps=1e-15, max_evals=3000,
                                         target_accuracy=0.0))
        deepest = max(res.state._level_tuples)
        assert deepest >= (26,)
        assert res.state._intern(deepest)[1] == 0.0 == min(res.state._heaps)
