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
from abcdirect.functions.registry import HEDAR_NAMES
from abcdirect.local import fd_gradient
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
        value = evaluate_counted(p, x, counter, p.coordinate_view(x), 1, 0.9)
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
        view = problem.coordinate_view(x)
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


class UserView:
    """A user's objective that is no kernel but has a coordinate view of
    its own: the weighted squares of x - 0.3, added left to right on Python
    floats, by the objective and by the view alike. `calls` counts the
    objective's calls and `probes` the view's."""

    def __init__(self, with_view=True):
        self.calls = self.probes = 0
        if with_view:
            self.view = self.build

    @staticmethod
    def value(xs):
        acc = 0.0
        for k, v in enumerate(xs):
            acc += (k + 1) * (v - 0.3) ** 2
        return acc

    def __call__(self, x):
        self.calls += 1
        return self.value(x.tolist())

    def build(self, x):
        xs = x.tolist()

        def view(i, z):
            self.probes += 1
            probe = list(xs)
            probe[i] = z
            return self.value(probe)
        return view


class TestUserViews:
    # an objective's own `view` values every probe, whoever wrote it; the
    # objective itself is then called only at full points
    BOUNDS = Bounds(np.full(3, -1.0), np.full(3, 2.0))

    def test_direct_probes_take_the_objectives_view(self):
        runs = []
        for objective in (UserView(), UserView(with_view=False)):
            res = direct_solve(Problem(objective, self.BOUNDS),
                               DirectConfig(max_evals=200,
                                            target_accuracy=0.0))
            runs.append((res.f_min, res.x_min.tobytes(), res.evals,
                         res.trace))
            viewed = hasattr(objective, "view")
            assert (objective.calls, objective.probes) == (
                (0, res.evals) if viewed else (res.evals, 0))
        assert runs[0] == runs[1]

    def test_fd_gradient_probes_take_the_objectives_view(self):
        x = np.array([0.1, 1.5, -0.4])
        grads = []
        for objective in (UserView(), UserView(with_view=False)):
            problem = Problem(objective, self.BOUNDS)
            counter = EvalCounter()
            grads.append(fd_gradient(problem, x, counter).tobytes())
            viewed = hasattr(objective, "view")
            assert counter.count == 4
            assert (objective.calls, objective.probes) == (
                (1, 3) if viewed else (4, 0))
        assert grads[0] == grads[1]


class TestViewParity:
    # a probe is charged and checked by the same rules through the kernel's
    # own view and through the view of an objective without one: an
    # OverflowError is inf and a value that is not finite raises, after
    # the evaluation is counted, naming the probe
    @staticmethod
    def both_paths(problem, x, i, z):
        """The counters of one probe `(x, i, z)`, x with x[i] = z, charged
        through the kernel's view at x and through the view of a wrapper of
        the kernel, which calls it; both must raise NonFiniteValueError with
        the probe's point, not its base's, in the message, and leave x as
        it was."""
        kernel = problem.objective
        assert hasattr(kernel, "view")
        wrapped = Problem(lambda p: kernel(p), problem.bounds)
        probe = x.copy()
        probe[i] = z
        base = x.tobytes()
        counters = []
        for owner in (problem, wrapped):
            counter = EvalCounter(cap=10)
            with pytest.raises(NonFiniteValueError) as error:
                evaluate_counted(owner, x, counter, owner.coordinate_view(x),
                                 i, z)
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


def _reads_a_view(node):
    """Whether `node` reads an objective's `view`: `getattr` or `hasattr`
    of "view", or `.view` of an `objective`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "view")
    if isinstance(node, ast.Attribute) and node.attr == "view":
        owner = node.value
        return isinstance(node.ctx, ast.Load) and (
            isinstance(owner, ast.Name) and owner.id == "objective"
            or isinstance(owner, ast.Attribute) and owner.attr == "objective")
    return False


def test_the_problem_alone_finds_an_objectives_view():
    # solver code takes a coordinate view from `Problem.coordinate_view`:
    # no module outside `functions/` imports the kernels, and no other
    # function reads an objective's `view`
    root = pathlib.Path(abcdirect.__file__).parent
    imports, reads = [], set()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names]
            else:
                continue
            if (any(m.split(".")[-1] == "kernels" or ".kernels." in m
                    for m in modules)
                    and not name.startswith("functions/")):
                imports.append(name)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                reads.update((name, fn.name) for node in ast.walk(fn)
                             if _reads_a_view(node))
    assert imports == []
    assert reads == {("problem.py", "coordinate_view")}


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
