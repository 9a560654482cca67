"""Block-coordinate solver: start selection, subproblems, phase switching."""

import time
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

import abcdirect.abcd as abcd_mod
import abcdirect.direct as direct_mod
from abcdirect.abcd import (
    AbcdConfig,
    abcd_solve,
    choose_start,
    growing_blocks,
    make_subproblem,
    sequential_blocks,
    stalled,
)
from abcdirect.direct import DirectConfig, direct_solve
from abcdirect.functions import get_function
from abcdirect.problem import Bounds, ConfigError, EvalCounter, Problem, Reason


def sphere(n, lo=-2.0, hi=3.0, target=None):
    return Problem(lambda x: float(np.sum(x * x)),
                   Bounds(np.full(n, lo), np.full(n, hi)),
                   known_optimum=target)


def recording(problem):
    """Wrap a problem so every evaluated point is recorded."""
    pts = []
    base = problem.objective

    def obj(x):
        pts.append(np.array(x, dtype=float))
        return base(x)

    return Problem(obj, problem.bounds, problem.known_optimum), pts


class TestChooseStart:
    def test_uses_exactly_q_evaluations(self):
        counter = EvalCounter()
        x, f = choose_start(sphere(3), 7, np.random.default_rng(0), counter)
        assert counter.count == 7
        assert f == pytest.approx(float(np.sum(x * x)))

    def test_samples_cover_slabs_of_widest_dim(self):
        # dim 1 is widest; one sample must land in each of q slabs
        p = Problem(lambda x: 0.0,
                    Bounds(np.array([0.0, 0.0]), np.array([1.0, 100.0])))
        p, pts = recording(p)
        choose_start(p, 5, np.random.default_rng(1), EvalCounter())
        slabs = sorted(int(pt[1] // 20.0) for pt in pts)
        assert slabs == [0, 1, 2, 3, 4]

    def test_deterministic_given_rng_seed(self):
        a = choose_start(sphere(4), 8, np.random.default_rng(42), EvalCounter())
        b = choose_start(sphere(4), 8, np.random.default_rng(42), EvalCounter())
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            choose_start(sphere(2), 0, np.random.default_rng(0), EvalCounter())


class TestSelectCoords:
    """The coordinate blocks of the sequential and the random phases."""

    def test_sequential_wraps_around(self):
        seen = [list(idx) for idx in islice(sequential_blocks(5, 2), 5)]
        assert seen == [[0, 1], [2, 3], [4, 0], [1, 2], [3, 4]]

    def test_growing_blocks_are_sorted_distinct(self):
        # whatever the caller sends, each block is sorted and distinct; a
        # stall grows the next block by one up to n, a descent resets it
        rng = np.random.default_rng(0)
        blocks = growing_blocks(6, 2, rng)
        idx, size = next(blocks), 2
        for _ in range(200):
            assert len(idx) == size
            assert list(idx) == sorted(set(idx.tolist()))
            assert 0 <= idx[0] and idx[-1] < 6
            stall = bool(rng.integers(2))
            size = min(size + 1, 6) if stall else 2
            idx = blocks.send(stall)

    def test_rejects_out_of_range_size(self):
        p, pts = recording(sphere(3))
        for sizes in (dict(m1=4), dict(m2=4), dict(m1=0), dict(m2=0)):
            with pytest.raises(ConfigError, match="block sizes"):
                abcd_solve(p, AbcdConfig(**sizes), EvalCounter(cap=100))
        assert not pts


class TestMakeSubproblem:
    def test_freezes_complement_coordinates(self):
        p = Problem(lambda x: float(x[0] + 10 * x[1] + 100 * x[2]),
                    Bounds(np.zeros(3), np.ones(3)))
        incumbent = np.array([0.1, 0.2, 0.3])
        sub = make_subproblem(p, incumbent, np.array([1]))
        assert sub.n == 1
        assert sub(np.array([0.5])) == pytest.approx(0.1 + 5.0 + 30.0)
        # the incumbent is copied: later mutation must not leak in
        incumbent[0] = 9.0
        assert sub(np.array([0.5])) == pytest.approx(0.1 + 5.0 + 30.0)

    def test_restricted_bounds(self):
        p = sphere(3, lo=-4.0, hi=2.0)
        sub = make_subproblem(p, np.zeros(3), np.array([0, 2]))
        assert np.array_equal(sub.bounds.lower, [-4.0, -4.0])
        assert np.array_equal(sub.bounds.upper, [2.0, 2.0])

    def test_objective_matches_fancy_index_reference(self):
        n = 7
        weights = np.arange(1.0, n + 1)
        received = []

        def kernel(x):
            received.append(x)
            return float(np.sum(np.sin(x) * weights))

        p = Problem(kernel, Bounds(np.full(n, -3.0), np.full(n, 3.0)))
        rng = np.random.default_rng(5)
        incumbent = rng.uniform(-3.0, 3.0, n)
        incumbent_before = incumbent.copy()
        references = []
        # one, two and all coordinates, and a block that wraps around
        for idx in ([4], [1, 5], list(range(n)), [6, 0, 1]):
            idx = np.array(idx)
            sub = make_subproblem(p, incumbent, idx)
            for _ in range(3):
                y = rng.uniform(-3.0, 3.0, idx.size)
                y_before = y.copy()
                ref = incumbent.copy()
                ref[idx] = y
                value = sub(y)
                assert value == float(np.sum(np.sin(ref) * weights))
                assert received[-1].tobytes() == ref.tobytes()
                assert y.tobytes() == y_before.tobytes()
                references.append(ref)
        assert incumbent.tobytes() == incumbent_before.tobytes()
        # a fresh array per call: a kernel that keeps its argument keeps
        # the point it was given
        assert len({id(x) for x in received}) == len(received)
        for x, ref in zip(received, references):
            assert x.tobytes() == ref.tobytes()


def descending(monkeypatch, steps, n=3):
    """Replace ABCD's DIRECT subproblems by ones that lower the value of
    every point of a flat n-dimensional problem by the next of `steps`
    (cycled) without evaluating; returns the problem, whose values stay
    true to what the subproblems report, and the list of their coordinate
    blocks, one per subproblem run."""
    calls = []
    f = [1.0]  # the value of every point of the problem

    def subproblem(problem, config, counter, coords, base):
        f[0] -= steps[len(calls) % len(steps)]
        calls.append(coords)
        return SimpleNamespace(x_min=base.copy(), f_min=f[0])

    monkeypatch.setattr(abcd_mod, "direct_solve", subproblem)
    return Problem(lambda x: f[0], Bounds(np.zeros(n), np.ones(n))), calls


def block_sizes(result, calls):
    """The sizes of a run's block-phase subproblems, in order, each checked
    to be sorted and distinct."""
    blocks = [calls[k - 1] for _, k, phase, _ in result.trace
              if phase == "block"]
    for idx in blocks:
        assert list(idx) == sorted(set(idx.tolist()))
    return [len(idx) for idx in blocks]


class TestStalled:
    """The one stall rule, on values whose differences and thresholds are
    exact in binary."""

    def test_exact_threshold_stalls(self):
        eps = 2.0 ** -4
        assert stalled(0.5, 0.5 - eps, eps)
        assert not stalled(0.5, 0.5 - eps - 2.0 ** -20, eps)
        assert stalled(4.0, 4.0 - 4 * eps, eps)
        assert not stalled(4.0, 4.0 - 4 * eps - 2.0 ** -20, eps)

    def test_absolute_for_values_up_to_one(self):
        # for |f_prev| <= 1 the rule is the absolute descent <= eps
        rng = np.random.default_rng(3)
        for f_prev, f, eps in zip(rng.uniform(-1.0, 1.0, 2000),
                                  rng.uniform(-1.5, 1.5, 2000),
                                  rng.uniform(0.0, 1.0, 2000)):
            assert stalled(f_prev, f, eps) == (f_prev - f <= eps)
        for f_prev in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert stalled(f_prev, f_prev - 0.25, 0.25)
            assert not stalled(f_prev, f_prev - 0.375, 0.25)

    def test_relative_above_one(self):
        # f_prev = -50: the threshold is 50 * eps
        eps = 2.0 ** -4
        assert stalled(-50.0, -50.0 - 50 * eps, eps)
        assert not stalled(-50.0, -50.0 - 50 * eps - 2.0 ** -20, eps)
        assert stalled(-50.0, -50.0 - 2 * eps, eps)
        assert not stalled(-0.5, -0.5 - 2 * eps, eps)


class TestBlockGrowth:
    """The block phase's size: one more after a stall, m2 after a descent."""

    def test_stalls_grow_the_block_to_n(self, monkeypatch):
        # no subproblem descends: the sizes run m2, m2 + 1, ..., n and stay
        # at n until min(n, 6) = 6 stalls in a row end the phase
        flat, calls = descending(monkeypatch, [0.0], n=6)
        res = abcd_solve(flat, AbcdConfig(m2=2, t1=1))
        assert res.reason is Reason.GLOBAL_STALL
        assert block_sizes(res, calls) == [2, 3, 4, 5, 6, 6]

    def test_descent_resets_the_block_to_m2(self, monkeypatch):
        # one coordinate subproblem, then blocks that stall twice, descend
        # once and stall six times in a row
        steps = [0.0] * 3 + [1.0] + [0.0] * 30
        flat, calls = descending(monkeypatch, steps, n=6)
        res = abcd_solve(flat, AbcdConfig(m2=2, t1=1))
        assert block_sizes(res, calls) == [2, 3, 4, 2, 3, 4, 5, 6, 6]


class TestStallUpdate:
    """Stalled subproblems in a row, on descents that are powers of two so
    every difference of values is exact."""

    def test_descent_at_threshold_counts_as_stall(self, monkeypatch):
        # a descent of exactly switch_eps still counts as a stall: two in a
        # row end the coordinate phase, and here the run
        flat, calls = descending(monkeypatch, [0.5])
        res = abcd_solve(flat, AbcdConfig(
            switch_eps=0.5, t1=2, coordinate_only=True))
        assert res.reason is Reason.GLOBAL_STALL
        assert res.subproblems == len(calls) == 2
        assert res.f_min == 0.0

    def test_descent_at_threshold_counts_as_stall_in_blocks(self,
                                                            monkeypatch):
        # the same boundary in the block phase: min(n, 6) = 3 stalls in a
        # row move on to the intensify polish and the sweep; the sweep's
        # descents never stall a cycle, so the polishes' evaluations (three
        # gradient probes each, after a start sample of six) end the run on
        # its budget
        monkeypatch.setattr(abcd_mod, "GLOBAL_STALL_EPS", 0.5)
        flat, _ = descending(monkeypatch, [0.5])
        res = abcd_solve(flat, AbcdConfig(switch_eps=0.5, t1=1),
                         EvalCounter(cap=30))
        assert res.reason is Reason.EVAL_BUDGET
        labels = [row[2] for row in res.trace]
        assert labels[:10] == ["coordinate", "coordinate", "local",
                               "block", "block", "block", "local",
                               "coordinate", "coordinate", "coordinate"]

    def test_real_descent_resets_streak(self, monkeypatch):
        # a descent above switch_eps restarts the count: only the two
        # stalls in a row at the end leave the coordinate phase
        flat, calls = descending(monkeypatch, [0.5, 1.0, 0.5, 1.0, 0.5, 0.5])
        res = abcd_solve(flat, AbcdConfig(
            switch_eps=0.5, t1=2, coordinate_only=True))
        assert res.reason is Reason.GLOBAL_STALL
        assert res.subproblems == len(calls) == 6


class TestAbcdSolve:
    def test_reaches_target_on_separable_function(self):
        p = sphere(4, target=0.0)
        res = abcd_solve(p, AbcdConfig(seed=0), EvalCounter(cap=20000))
        assert res.reason is Reason.TARGET_REACHED
        assert abs(res.f_min) <= 1e-4

    def test_respects_eval_budget(self):
        # the counter's cap stops the run at its evaluation, inside a
        # DIRECT division or a polish alike
        p = sphere(6)
        for seed in range(6):
            res = abcd_solve(p, AbcdConfig(seed=seed), EvalCounter(cap=500))
            assert res.reason == "eval_budget", seed
            assert res.evals == 500, seed

    def test_polish_checks_time_budget(self):
        # the first polish evaluation, its first gradient probe, outlasts
        # the time budget: the counter stops the run at the next
        # evaluation, the second probe, which is never made
        n, q = 2, 4
        count = [0]

        def slow_once(x):
            count[0] += 1
            if count[0] == q + 1:
                time.sleep(0.3)
            return float(np.sum(x * x))

        p = Problem(slow_once, Bounds(np.full(n, -2.0), np.full(n, 3.0)))
        res = abcd_solve(p, AbcdConfig(sqp_first=True),
                         EvalCounter(deadline=time.monotonic() + 0.2))
        assert res.reason == "time_budget"
        assert res.evals == count[0] == q + 1

    def test_subproblems_check_time_budget(self):
        # one DIRECT subproblem over all four coordinates could spend its
        # 400-evaluation cap at 2 ms each; the run's deadline on the shared
        # counter stops it at the first evaluation past it instead
        def slow_sphere(x):
            time.sleep(0.002)
            return float(np.sum(x * x))

        p = Problem(slow_sphere, Bounds(np.full(4, -2.0), np.full(4, 3.0)))
        t0 = time.monotonic()
        res = abcd_solve(p, AbcdConfig(m1=4, seed=0),
                         EvalCounter(deadline=t0 + 0.05))
        assert res.reason is Reason.TIME_BUDGET
        assert time.monotonic() - t0 < 0.25

    def test_stall_terminates_without_restarts(self, monkeypatch):
        # without a budget the first stalled cycle ends the run: one start
        # sample, no fresh one
        starts = []

        def counted_start(*args):
            starts.append(args)
            return choose_start(*args)

        monkeypatch.setattr(abcd_mod, "choose_start", counted_start)
        p = Problem(lambda x: 1.0, Bounds(np.zeros(3), np.ones(3)))
        res = abcd_solve(p, AbcdConfig(seed=0))
        assert res.reason == "global_stall"
        assert len(starts) == 1

    def test_stall_without_budget_terminates(self):
        # restarts stay enabled, but with no budget at all the stall must end
        # the run rather than loop forever
        p = Problem(lambda x: 1.0, Bounds(np.zeros(3), np.ones(3)))
        res = abcd_solve(p, AbcdConfig(seed=0))
        assert res.reason == "global_stall"

    def test_stall_with_capped_counter_restarts(self):
        # no config budget, but the shared counter is capped: a stall must
        # restart and the run spend the cap, not end as a global stall
        p = Problem(lambda x: float(np.sum(np.sin(5.0 * x))),
                    Bounds(np.zeros(3), np.ones(3)))
        counter = EvalCounter(cap=20000)
        res = abcd_solve(p, AbcdConfig(seed=0), counter=counter)
        assert res.reason is Reason.EVAL_BUDGET
        assert res.evals == counter.count == 20000

    def test_trace_best_is_monotone(self):
        p = sphere(3, target=0.0)
        res = abcd_solve(p, AbcdConfig(seed=1), EvalCounter(cap=5000))
        fs = [row[3] for row in res.trace]
        assert all(a >= b for a, b in zip(fs, fs[1:]))

    def test_result_matches_reported_value(self):
        p = sphere(3)
        res = abcd_solve(p, AbcdConfig(seed=2), EvalCounter(cap=3000))
        assert p(res.x_min) == pytest.approx(res.f_min)

    def test_deterministic_given_seed(self):
        p = sphere(5)
        a = abcd_solve(p, AbcdConfig(seed=9), EvalCounter(cap=4000))
        b = abcd_solve(p, AbcdConfig(seed=9), EvalCounter(cap=4000))
        assert a.f_min == b.f_min
        assert np.array_equal(a.x_min, b.x_min)
        assert a.trace == b.trace

    def test_config_validation(self):
        p = sphere(3)
        with pytest.raises(ConfigError):
            abcd_solve(p, AbcdConfig(m1=4))
        with pytest.raises(ConfigError):
            abcd_solve(p, AbcdConfig(t1=0))
        # a NaN switch_eps used to pass and keep the run in the coordinate
        # phase for good
        p, pts = recording(p)
        with pytest.raises(ConfigError, match="switch_eps"):
            abcd_solve(p, AbcdConfig(switch_eps=np.nan),
                       EvalCounter(cap=100))
        assert not pts

    @pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan])
    def test_rejects_poh_eps_before_evaluating(self, eps):
        # a NaN used to pass and leave every subproblem dividing only its
        # largest rectangle
        p, pts = recording(sphere(3))
        with pytest.raises(ConfigError, match="poh_eps"):
            abcd_solve(p, AbcdConfig(poh_eps=eps), EvalCounter(cap=100))
        assert not pts

    def test_full_block_no_switch_degenerates_to_direct(self, monkeypatch):
        """With one n-sized block, no switch and no local phase, the solver
        is a start sample followed by one full-box dividing-rectangles run.
        The subproblem's own cap of 800 ends that run; the counter's cap
        leaves room for the division that crosses it."""
        monkeypatch.setattr(abcd_mod, "SUB_CAP_PER_COORD", 400)
        monkeypatch.setattr(abcd_mod, "SUB_STOPS", {})
        base = Problem(
            lambda x: float((x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.8) ** 2),
            Bounds(np.full(2, -2.0), np.full(2, 2.0)),
        )
        pd, pts_direct = recording(base)
        direct_solve(pd, DirectConfig(max_evals=800, target_accuracy=0.0))

        pa, pts_abcd = recording(base)
        q = min(2 * base.n, 32)
        abcd_solve(pa, AbcdConfig(m1=2, coordinate_only=True, seed=0),
                   EvalCounter(cap=q + 800 + 2 * base.n))
        tail = pts_abcd[q:q + len(pts_direct)]
        assert len(tail) == len(pts_direct)
        for a, b in zip(tail, pts_direct):
            assert np.array_equal(a, b)

    def test_coordinate_only_stall_without_budget_terminates(self):
        # a coordinate-only stall restarts only under the same rule as a
        # stalled cycle: with no budget at all the run ends instead
        p = Problem(lambda x: 1.0, Bounds(np.zeros(3), np.ones(3)))
        res = abcd_solve(p, AbcdConfig(seed=0, coordinate_only=True))
        assert res.reason == "global_stall"
        assert res.subproblems == 3


def test_one_coordinate_subproblems_divide_intervals(monkeypatch):
    # the run `abcd-griewank-6-seed3` of tests/test_eval_sequence.py, whose
    # block phase runs blocks of two coordinates and more: each division
    # of a one-coordinate subproblem goes to `divide_interval` and each
    # division of a larger block to `sample_and_divide`. The pins check
    # the evaluations, which are the same with either division, so only
    # this sees a subproblem that took the other one
    runs = []  # (block size, the stores its divisions went to)
    solve = abcd_mod.direct_solve
    divide, divide_interval = (direct_mod.sample_and_divide,
                               direct_mod.divide_interval)

    def subproblem(problem, config, counter, coords, base):
        runs.append((len(coords), set()))
        return solve(problem, config, counter=counter, coords=coords,
                     base=base)

    def rectangles(*args):
        runs[-1][1].add("rectangle")
        return divide(*args)

    def intervals(*args):
        runs[-1][1].add("interval")
        return divide_interval(*args)

    monkeypatch.setattr(abcd_mod, "direct_solve", subproblem)
    monkeypatch.setattr(direct_mod, "sample_and_divide", rectangles)
    monkeypatch.setattr(direct_mod, "divide_interval", intervals)
    res = abcd_solve(get_function("griewank", 6)[0], AbcdConfig(seed=3),
                     EvalCounter(cap=4000))
    assert res.evals == 4000 and res.subproblems == len(runs)
    singles = [stores for size, stores in runs if size == 1]
    blocks = [stores for size, stores in runs if size > 1]
    assert singles and blocks
    assert all(stores == {"interval"} for stores in singles)
    assert all(stores == {"rectangle"} for stores in blocks)
