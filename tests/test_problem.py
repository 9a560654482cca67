"""Bounds, evaluation counting and unit-cube normalization."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import abcdirect
from abcdirect.direct import DirectConfig, direct_solve
from abcdirect.functions import get_function
from abcdirect.functions.kernels import coordinate_view
from abcdirect.functions.registry import HEDAR_NAMES
from abcdirect.problem import (
    Bounds,
    ConfigError,
    DomainError,
    EvalCounter,
    NonFiniteValueError,
    NormalizedProblem,
    Problem,
    Reason,
    Stop,
    denormalize,
    evaluate_counted,
)


def sphere_problem(n=3, lo=-2.0, hi=3.0):
    return Problem(
        objective=lambda x: float(np.sum(x * x)),
        bounds=Bounds(np.full(n, lo), np.full(n, hi)),
    )


class TestBounds:
    def test_basic_properties(self):
        b = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        assert b.n == 2
        assert np.array_equal(b.width, [2.0, 4.0])
        assert np.array_equal(b.clip([-3.0, 9.0]), [-1.0, 4.0])

    @pytest.mark.parametrize("lower,upper", [
        ([0.0], [0.0]),            # empty interval
        ([1.0], [0.0]),            # inverted
        ([0.0, 0.0], [1.0]),       # shape mismatch
        ([np.inf], [1.0]),         # non-finite
        ([0.0], [np.nan]),
    ])
    def test_rejects_bad_boxes(self, lower, upper):
        with pytest.raises(ConfigError):
            Bounds(np.array(lower, dtype=float), np.array(upper, dtype=float))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Bounds(np.array([]), np.array([]))


class TestProblem:
    def test_rejects_non_finite_values(self):
        p = Problem(lambda x: float("nan"), Bounds(np.zeros(1), np.ones(1)))
        with pytest.raises(NonFiniteValueError):
            p(np.array([0.5]))

    def test_overflow_is_non_finite(self):
        # Python-float `**` raises OverflowError where numpy returns inf
        p = Problem(lambda x: x.tolist()[0] ** 2,
                    Bounds(np.zeros(1), np.ones(1)))
        with pytest.raises(NonFiniteValueError):
            p(np.array([1e200]))

    def test_call_is_float(self):
        p = sphere_problem(2)
        assert p(np.array([1.0, 2.0])) == 5.0


class TestEvalCounter:
    def test_cap_raises_before_evaluation(self):
        calls = []
        p = Problem(lambda x: calls.append(1) or 0.0,
                    Bounds(np.zeros(1), np.ones(1)))
        counter = EvalCounter(cap=2)
        evaluate_counted(p, np.array([0.5]), counter)
        evaluate_counted(p, np.array([0.5]), counter)
        with pytest.raises(Stop) as stop:
            evaluate_counted(p, np.array([0.5]), counter)
        assert stop.value.reason is Reason.EVAL_BUDGET
        assert len(calls) == 2          # the third call never ran
        assert counter.count == 2
        assert counter.remaining == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            EvalCounter(cap=0)

    def test_target_stops_at_the_evaluation_and_for_good(self):
        # the first value within the tolerance raises after it is counted
        # and kept as the best pair; every later charge raises the same stop
        values = iter([3.0, 1.0, 2.0, 0.5e-4, -1.0])
        p = Problem(lambda x: next(values), Bounds(np.zeros(1), np.ones(1)),
                    known_optimum=0.0)
        counter = EvalCounter()
        counter.arm(p, 1e-4, None)
        for x in (0.1, 0.2, 0.3):
            evaluate_counted(p, np.array([x]), counter)
        assert (counter.best_f, counter.best_x.tolist()) == (1.0, [0.2])
        with pytest.raises(Stop) as stop:
            evaluate_counted(p, np.array([0.4]), counter)
        assert stop.value.reason is Reason.TARGET_REACHED
        assert (counter.count, counter.best_f) == (4, 0.5e-4)
        assert counter.best_x.tolist() == [0.4]
        with pytest.raises(Stop) as again:
            evaluate_counted(p, np.array([0.5]), counter)
        assert again.value.reason is Reason.TARGET_REACHED
        assert counter.count == 4

    def test_past_deadline_stops_before_evaluating(self):
        calls = []
        p = Problem(lambda x: calls.append(1) or 0.0,
                    Bounds(np.zeros(1), np.ones(1)))
        counter = EvalCounter()
        counter.arm(p, 1e-4, -1.0)
        with pytest.raises(Stop) as stop:
            evaluate_counted(p, np.array([0.5]), counter)
        assert stop.value.reason is Reason.TIME_BUDGET
        assert not calls and counter.count == 0

    def test_arm_holds_once(self):
        # the outermost solver arms the counter; inner solvers' configs
        # leave its target and deadline as they are
        p = Problem(lambda x: 1.0, Bounds(np.zeros(1), np.ones(1)),
                    known_optimum=1.0)
        counter = EvalCounter()
        counter.arm(p, 0.5, 100.0)
        deadline = counter.deadline
        counter.arm(p, 0.0, None)
        assert (counter.target, counter.tol, counter.deadline) == (
            1.0, 0.5, deadline)


class TestProbes:
    # a probe `(x, i, z)` is its base x with coordinate i at z: x is never
    # written, and the counter's best is an array of its own
    def test_without_a_view_the_objective_gets_the_probe(self):
        seen = []  # the arrays the objective was called on, kept
        p = Problem(lambda x: seen.append(x) or float(x.sum()),
                    Bounds(np.zeros(3), np.ones(3)))
        x = np.array([0.1, 0.2, 0.3])
        counter = EvalCounter()
        value = evaluate_counted(p, x, counter, None, 1, 0.9)
        assert [a.tolist() for a in seen] == [[0.1, 0.9, 0.3]]
        assert value == float(seen[0].sum())
        assert x.tolist() == [0.1, 0.2, 0.3]
        # the objective kept its array, so the counter holds a copy
        assert counter.best_x is not seen[0]
        seen[0][:] = 0.0
        assert counter.best_x.tolist() == [0.1, 0.9, 0.3]

    def test_a_view_probe_becomes_an_array_only_as_the_best(self):
        problem = get_function("rastrigin", 4)[0]
        x = problem.bounds.lower + 0.3 * problem.bounds.width
        base = x.tobytes()
        view = coordinate_view(problem.objective, x)
        counter = EvalCounter()
        probe = x.copy()
        probe[2] = z = 0.0  # rastrigin's best value of a coordinate
        value = evaluate_counted(problem, x, counter, view, 2, z)
        assert value == problem(probe)
        assert counter.best_x.tobytes() == probe.tobytes()
        assert not np.shares_memory(counter.best_x, x)
        assert x.tobytes() == base
        # a probe that does not improve leaves the best as it is
        best = counter.best_x
        assert evaluate_counted(problem, x, counter, view, 2, 0.5) > value
        assert counter.best_x is best and x.tobytes() == base
        x[:] = 0.0
        assert counter.best_x.tobytes() == probe.tobytes()

    def test_a_division_keeps_no_base_as_the_best(self):
        # a one-coordinate run values every probe through the view at its
        # start center, the store's base; its best is the best probe, an
        # array of its own
        problem = get_function("rastrigin", 4)[0]
        counter = EvalCounter()
        result = direct_solve(problem, DirectConfig(max_evals=50), counter,
                              keep_state=True, coords=[1])
        base = result.state.base
        assert result.evals > 1 and counter.best_f < result.state._values[0]
        assert not np.shares_memory(counter.best_x, base)
        assert (counter.best_x.tobytes()
                == result.state.center(result.state.best).tobytes())

    def test_a_full_point_is_copied(self):
        p = sphere_problem(2)
        x = np.array([1.0, 2.0])
        counter = EvalCounter()
        evaluate_counted(p, x, counter)
        x[0] = 7.0
        assert counter.best_x.tolist() == [1.0, 2.0]


class TestViewParity:
    # a probe valued by a coordinate view is charged and checked as one
    # that calls the kernel: an OverflowError is inf and a value that is
    # not finite raises, after the evaluation is counted, naming the probe
    @staticmethod
    def both_paths(problem, x, i, z):
        """The counters of one probe `(x, i, z)`, x with x[i] = z, charged
        through the view at x and through the kernel; both must raise
        NonFiniteValueError with the probe's point, not its base's, in the
        message, and leave x as it was."""
        view = coordinate_view(problem.objective, x)
        assert view is not None
        probe = x.copy()
        probe[i] = z
        base = x.tobytes()
        counters = []
        for path in (view, None):
            counter = EvalCounter(cap=10)
            with pytest.raises(NonFiniteValueError) as error:
                evaluate_counted(problem, x, counter, path, i, z)
            assert repr(probe) in str(error.value)
            assert repr(x) not in str(error.value)
            assert x.tobytes() == base
            counters.append((counter.count, counter.best_f))
        return counters

    def test_overflow(self):
        # (1e154)**2 is finite, and its square raises OverflowError
        problem = get_function("rosenbrock", 4)[0]
        x = np.array([0.5, -1.0, 2.0, 3.0])
        probe = x.copy()
        probe[1] = 1e154
        with pytest.raises(OverflowError):
            problem.objective(probe)
        assert self.both_paths(problem, x, 1, 1e154) == [(1, math.inf)] * 2

    @pytest.mark.parametrize("name", HEDAR_NAMES)
    def test_nan_probe(self, name):
        problem = get_function(name, 6)[0]
        x = problem.bounds.lower + 0.3 * problem.bounds.width
        assert self.both_paths(problem, x, 0, math.nan) == [(1, math.inf)] * 2


def test_evaluate_counted_is_the_one_evaluation_site():
    # no other library code charges a counter or shows it a value
    sites = []
    for path in sorted(pathlib.Path(abcdirect.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("charge", "improve")):
                    sites.append((path.name, fn.name, node.func.attr))
    assert sorted(sites) == [("problem.py", "evaluate_counted", "charge"),
                             ("problem.py", "evaluate_counted", "improve")]


class TestNormalization:
    # what is left of the unit-cube map: `NormalizedProblem.__call__` and
    # the `denormalize` behind it
    def test_round_trip_corners(self):
        b = Bounds(np.array([-1.0, 2.0]), np.array([3.0, 5.0]))
        x = denormalize(np.array([0.0, 1.0]), b)
        assert x.tolist() == [-1.0, 5.0]
        assert ((x - b.lower) / b.width).tolist() == [0.0, 1.0]

    def test_denormalize_rejects_outside_cube(self):
        b = Bounds(np.zeros(2), np.ones(2))
        with pytest.raises(DomainError):
            denormalize(np.array([1.5, 0.5]), b)

    def test_normalized_problem_matches_original(self):
        p = sphere_problem(3)
        np_ = NormalizedProblem(p)
        z = np.array([0.25, 0.5, 1.0])
        assert np_(z) == pytest.approx(p(denormalize(z, p.bounds)))
        with pytest.raises(DomainError):
            np_(np.array([0.25, 0.5, 1.5]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_round_trip_property(self, zs):
        z = np.array(zs)
        n = z.size
        b = Bounds(np.full(n, -3.0), np.full(n, 7.0))
        x = denormalize(z, b)
        assert ((b.lower <= x) & (x <= b.upper)).all()
        assert np.allclose((x - b.lower) / b.width, z, atol=1e-12)
