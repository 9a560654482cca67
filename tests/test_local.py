"""Finite-difference gradients, box QP step and the quasi-Newton loop."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import abcdirect.local as local_mod
import abcdirect.problem as problem_mod
from abcdirect.local import (
    LocalStatus,
    box_qp_step,
    fd_gradient,
    sqp_local,
)
from abcdirect.problem import (
    Bounds,
    ConfigError,
    EvalCounter,
    NonFiniteValueError,
    Problem,
    Reason,
)


def quadratic_problem(A, b, bounds):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def f(x):
        return float(0.5 * x @ A @ x + b @ x)

    return Problem(f, bounds)


def recording(problem):
    """Wrap a problem so the bytes of every evaluated point are recorded."""
    pts = []
    base = problem.objective

    def obj(x):
        pts.append(np.asarray(x, dtype=float).tobytes())
        return base(x)

    return Problem(obj, problem.bounds, problem.known_optimum), pts


def qp_objective(g, B, p):
    return float(g @ p + 0.5 * p @ B @ p)


def kkt_residual(g, B, x, bounds, p):
    """The largest KKT violation of p for min g.p + 0.5 p'Bp over the box,
    relative to the size of the gradient's terms: the gradient on the free
    coordinates, and a gradient that points out of the box at a bound."""
    lo, hi = bounds.lower - x, bounds.upper - x
    r = g + B @ p
    at_lo, at_hi = p == lo, p == hi
    free = ~(at_lo | at_hi)
    worst = max(np.abs(r[free]).max(initial=0.0),
                (-r[at_lo]).max(initial=0.0), r[at_hi].max(initial=0.0))
    return worst / (np.abs(g).max() + np.abs(B).max() * np.abs(p).max())


def random_qps(seed, radii=(10.0, 0.05)):
    """(g, B, x, bounds) over the models identity, A A' + 0.1 I and
    diag(logspace(0, 4, n)) at n = 1..18, in a loose and a tight box."""
    rng = np.random.default_rng(seed)
    for n in range(1, 19):
        A = rng.normal(size=(n, n))
        for B in (np.eye(n), A @ A.T + 0.1 * np.eye(n),
                  np.diag(np.logspace(0, 4, n))):
            for radius in radii:
                x = rng.uniform(0.0, 1.0, size=n)
                bounds = Bounds(x - rng.uniform(0.0, radius, size=n),
                                x + rng.uniform(1e-3, radius, size=n))
                yield rng.normal(0.0, 3.0, size=n), B, x, bounds


# g, B and x of a QP step of the polish on S5: the 10th of the `sqp` run at
# seed 0 (budget 2000) as the QP step was before it was solved
def _hex_array(hexes):
    return np.array([float.fromhex(h) for h in hexes])


S5_G = _hex_array(["-0x1.228904eb75427p-13", "0x1.00fe5e0c93ea4p-9",
                   "-0x1.92a110e0fc66ep-11", "0x1.297c562375c7dp-10"])
S5_B = _hex_array(["0x1.6d70c8e50a85ap+5", "-0x1.61a9e11b08288p+1",
                   "0x1.9f6f4bd377ee0p-3", "0x1.31629163c7320p+0",
                   "-0x1.61a9e11b08288p+1", "0x1.7dc7b06ad021ap+5",
                   "0x1.d8828378b8da0p-3", "0x1.05e784fc5a870p+0",
                   "0x1.9f6f4bd377ee0p-3", "0x1.d8828378b8da0p-3",
                   "0x1.89b57f9b986c0p+5", "-0x1.9d16762e577e0p-4",
                   "0x1.31629163c7320p+0", "0x1.05e784fc5a870p+0",
                   "-0x1.9d16762e577e0p-4",
                   "0x1.866848c17dbcbp+5"]).reshape(4, 4)
S5_X = _hex_array(["0x1.0008706313993p+0", "0x1.000cd00d0a1fcp+0",
                   "0x1.00079d30d07b8p+0", "0x1.000bbaf162275p+0"])


class TestFdGradient:
    def test_matches_analytic_gradient(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([-1.0, 2.0])
        p = quadratic_problem(A, b, Bounds(np.full(2, -10.0), np.full(2, 10.0)))
        x = np.array([0.7, -1.3])
        g = fd_gradient(p, x, EvalCounter())
        assert np.allclose(g, A @ x + b, rtol=1e-5, atol=1e-5)

    def test_backward_step_at_upper_bound(self):
        p = Problem(lambda x: float(x[0] ** 2),
                    Bounds(np.array([0.0]), np.array([1.0])))
        counter = EvalCounter()
        g = fd_gradient(p, np.array([1.0]), counter)
        assert g[0] == pytest.approx(2.0, rel=1e-5)
        assert counter.count == 2

    def test_reuses_supplied_center_value(self):
        p = Problem(lambda x: float(x[0] ** 2),
                    Bounds(np.array([-1.0]), np.array([1.0])))
        counter = EvalCounter()
        fd_gradient(p, np.array([0.5]), counter, f0=0.25)
        assert counter.count == 1    # only the probe

    def test_box_narrower_than_the_step(self):
        # at x = 5 + 5e-8 in [5, 5 + 1e-7] the step is 5e-7: the forward
        # probe would leave the box above and the backward one below, at
        # 5 - 4.5e-7; the probe is the bound with more room instead
        bounds = Bounds(np.array([5.0]), np.array([5.0 + 1e-7]))
        p, pts = recording(Problem(lambda x: float(3.0 * x[0]), bounds))
        x = np.array([5.0 + 5e-8])
        g = fd_gradient(p, x, EvalCounter(), f0=3.0 * x[0])
        [probe] = [np.frombuffer(b) for b in pts]
        assert probe[0] in (bounds.lower[0], bounds.upper[0])
        assert g[0] == pytest.approx(3.0, rel=1e-6)

    def test_polish_in_a_narrow_box_stays_in_it(self):
        # the same box: every evaluation of a capped polish lies in it
        bounds = Bounds(np.array([5.0]), np.array([5.0 + 1e-7]))
        p, pts = recording(Problem(lambda x: float(x[0] ** 2), bounds))
        res = sqp_local(p, np.array([5.0 + 5e-8]), EvalCounter(cap=50))
        assert res.evals == len(pts) == 4
        for b in pts:
            assert bounds.lower[0] <= np.frombuffer(b)[0] <= bounds.upper[0]
        assert res.x[0] == 5.0


def loop_box_qp_step(g, B, x, bounds):
    """`box_qp_step` as it was before its first pass was solved on the full
    B: every pass in the loop, on reduced systems. The oracle the step
    must match byte for byte."""
    lo, hi = bounds.lower - x, bounds.upper - x
    p, fixed = np.zeros_like(g), np.zeros(g.size, dtype=bool)
    for _ in range(local_mod.QP_CHANGES):
        free, y = ~fixed, p.copy()
        try:
            y[free] = np.linalg.solve(
                B[np.ix_(free, free)],
                -g[free] - B[np.ix_(free, fixed)] @ p[fixed])
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(y).all():
            break
        out = np.flatnonzero((y < lo) | (y > hi))
        if out.size:
            step = (local_mod._clip(y, lo, hi) - p)[out] / (y - p)[out]
            k = out[np.argmin(step)]
            p = local_mod._clip(p + step.min() * (y - p), lo, hi)
            p[k], fixed[k] = (lo[k] if y[k] < lo[k] else hi[k]), True
            continue
        p = y
        lam = np.where(p == lo, 1.0, -1.0) * (g + B @ p) * fixed
        if lam.min() >= 0.0:
            break
        fixed[np.argmin(lam)] = False
    return np.zeros_like(g) if g @ p + 0.5 * p @ B @ p > 0.0 else p


# a model whose Newton step is finite and inside a box of radius 10 while
# g + B @ y, the loop's multipliers, overflow: a seeded draw at the edge
# of the float range
OVERFLOW_B = np.array([
    [2.0856476369845093e+307, 1.2166829481967705e+307,
     -9.317039050079755e+306, -1.119443745010411e+307],
    [1.2166829481967705e+307, 3.727201958503952e+307,
     -3.835419974754065e+305, -2.3134897983952284e+307],
    [-9.317039050079755e+306, -3.835419974754065e+305,
     1.9068395474894633e+307, -1.0625229688320471e+307],
    [-1.119443745010411e+307, -2.3134897983952284e+307,
     -1.0625229688320471e+307, 6.799317675958991e+307]])
OVERFLOW_G = np.array([-8.465335674110613e+306, 2.509593078929435e+307,
                       -1.26409507145472e+307, 1.3109198107979985e+308])


class TestBoxQpStep:
    def test_bytes_equal_the_loop_form(self):
        # random models in boxes where the Newton step is inside and where
        # bounds bind, the model whose multipliers overflow, and boxes where
        # the first pass leaves the box: the loop starts from that pass,
        # finite or not, and solves only the passes after it
        inside = binding = left = 0
        one = Bounds(np.array([-1.0]), np.array([1.0]))
        cases = [*random_qps(23, radii=(10.0, 0.05, 1e6)),
                 (OVERFLOW_G, OVERFLOW_B, np.zeros(4),
                  Bounds(np.full(4, -10.0), np.full(4, 10.0))),
                 # a Newton step that overflows to inf, and one past a
                 # bound in a box of one coordinate
                 (np.array([1.0]), np.array([[1e-320]]), np.zeros(1), one),
                 (np.array([-3.0]), np.array([[1.0]]), np.zeros(1), one)]
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.linalg.solve(OVERFLOW_B, -OVERFLOW_G)
            assert np.isfinite(y).all() and (np.abs(y) < 10.0).all()
            assert not np.isfinite(OVERFLOW_G + OVERFLOW_B @ y).all()
            for g, B, x, bounds in cases:
                want = loop_box_qp_step(g, B, x, bounds)
                assert box_qp_step(g, B, x, bounds).tobytes() == want.tobytes()
                lo, hi = bounds.lower - x, bounds.upper - x
                if ((want == lo) | (want == hi)).any():
                    binding += 1
                else:
                    inside += 1
                first = np.linalg.solve(B, -g)
                left += not ((lo <= first) & (first <= hi)).all()
        assert inside >= 40 and binding >= 40 and left >= 40

    def test_unconstrained_newton_step(self):
        B = np.diag([2.0, 4.0])
        g = np.array([2.0, -4.0])
        x = np.zeros(2)
        p = box_qp_step(g, B, x, Bounds(np.full(2, -10.0), np.full(2, 10.0)))
        assert np.array_equal(p, [-1.0, 1.0])

    def test_step_respects_box(self):
        B = np.eye(2)
        g = np.array([5.0, 5.0])
        x = np.array([0.2, 0.2])
        bounds = Bounds(np.zeros(2), np.ones(2))
        p = box_qp_step(g, B, x, bounds)
        assert ((bounds.lower <= x + p) & (x + p <= bounds.upper)).all()
        assert np.array_equal(p, [-0.2, -0.2])

    def test_feasible_newton_step_is_the_solve(self):
        # with the Newton step inside the box, the first solve is the
        # answer, byte for byte
        seen = 0
        for g, B, x, bounds in random_qps(5, radii=(1e6,)):
            want = np.linalg.solve(B, -g)
            y = x + want
            if not ((bounds.lower <= y) & (y <= bounds.upper)).all():
                continue
            seen += 1
            assert box_qp_step(g, B, x, bounds).tobytes() == want.tobytes()
        assert seen >= 40

    def test_solution_is_feasible_and_satisfies_kkt(self):
        # a strictly convex QP over a box: the KKT point is its minimizer
        active = 0
        for g, B, x, bounds in random_qps(17):
            p = box_qp_step(g, B, x, bounds)
            lo, hi = bounds.lower - x, bounds.upper - x
            assert ((lo <= p) & (p <= hi)).all()
            assert qp_objective(g, B, p) <= 0.0
            assert kkt_residual(g, B, x, bounds, p) <= 1e-13
            active += int(((p == lo) | (p == hi)).sum())
        assert active > 100   # the tight boxes make bounds active

    def test_s5_model_is_pinned(self):
        # in the search's box the step is the Newton step; in a tight box
        # three of the four coordinates end at a bound
        loose = Bounds(np.zeros(4), np.full(4, 10.0))
        tight = Bounds(S5_X - 2.0 ** -16, S5_X + 2.0 ** -17)
        for bounds, want in (
                (loose, ["0x1.24d6e898bc969p-20", "-0x1.54bb4f94aa971p-15",
                         "0x1.082641fe639d8p-16", "-0x1.77c0cafb3c8ccp-16"]),
                (tight, ["0x1.4c1d3c576eef3p-19", "-0x1.0000000000000p-16",
                         "0x1.0000000000000p-17", "-0x1.0000000000000p-16"])):
            p = box_qp_step(S5_G, S5_B, S5_X, bounds)
            assert [v.hex() for v in p.tolist()] == want
            assert kkt_residual(S5_G, S5_B, S5_X, bounds, p) <= 1e-13

    def test_cap_returns_a_feasible_descent(self, monkeypatch):
        # a diagonal model whose minimizer lies past every lower bound fixes
        # one coordinate per change, 18 in all; a lower cap returns the
        # iterate it reached
        n = 18
        B = np.diag(np.logspace(0, 4, n))
        g = np.full(n, 1e3)
        x = np.zeros(n)
        bounds = Bounds(np.full(n, -1e-3), np.full(n, 1e-3))
        full = box_qp_step(g, B, x, bounds)
        assert kkt_residual(g, B, x, bounds, full) <= 1e-13
        assert (full == -1e-3).all()
        for cap in (1, 2, 5, 17):
            monkeypatch.setattr(local_mod, "QP_CHANGES", cap)
            p = box_qp_step(g, B, x, bounds)
            assert ((bounds.lower <= p) & (p <= bounds.upper)).all()
            assert qp_objective(g, B, p) <= 0.0
            assert int((p == -1e-3).sum()) == cap
            assert kkt_residual(g, B, x, bounds, p) > 1e-6

    def test_degenerate_model_gives_zero_step(self):
        # a singular model, and one whose Newton step overflows
        for curvature in (0.0, 1e-320):
            p = box_qp_step(np.array([1.0]), np.array([[curvature]]),
                            np.zeros(1),
                            Bounds(np.array([-1.0]), np.array([1.0])))
            assert p[0] == 0.0


class TestSqpLocal:
    def test_quadratic_solved_to_high_accuracy(self):
        A = np.array([[3.0, 0.5], [0.5, 2.0]])
        b = np.array([1.0, -2.0])
        bounds = Bounds(np.full(2, -5.0), np.full(2, 5.0))
        p = quadratic_problem(A, b, bounds)
        res = sqp_local(p, np.array([3.0, 3.0]))
        x_star = np.linalg.solve(A, -b)
        f_star = float(0.5 * x_star @ A @ x_star + b @ x_star)
        assert res.f - f_star <= 1e-8

    def test_rosenbrock_basin(self):
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        p = Problem(f, Bounds(np.full(2, -5.0), np.full(2, 10.0)))
        res = sqp_local(p, np.array([-1.2, 1.0]))
        assert res.f <= 1e-4

    def test_active_bound_solution(self):
        # unconstrained minimum at -2, box stops at 0
        p = Problem(lambda x: float((x[0] + 2.0) ** 2),
                    Bounds(np.array([0.0]), np.array([5.0])))
        res = sqp_local(p, np.array([4.0]))
        assert res.x[0] == pytest.approx(0.0, abs=1e-6)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)
        def f(x):
            return float(np.sum(np.abs(x) ** 0.5))  # nasty kink at 0

        p = Problem(f, Bounds(np.full(3, -2.0), np.full(3, 2.0)))
        for _ in range(10):
            x0 = rng.uniform(-2, 2, size=3)
            res = sqp_local(p, x0, max_iters=20)
            assert res.f <= p(x0) + 1e-15

    def test_budget_exhaustion_status(self):
        p = Problem(lambda x: float(np.sum(x * x)),
                    Bounds(np.full(4, -1.0), np.full(4, 1.0)))
        counter = EvalCounter(cap=10)
        res = sqp_local(p, np.full(4, 0.9), counter)
        assert res.status is Reason.EVAL_BUDGET
        assert counter.count == 10
        assert res.evals == 10

    def test_past_deadline_stops_before_the_start_point(self):
        p = Problem(lambda x: float(np.sum(x * x)),
                    Bounds(np.full(4, -1.0), np.full(4, 1.0)))
        counter = EvalCounter(deadline=time.monotonic() - 1.0)
        res = sqp_local(p, np.full(4, 0.9), counter)
        assert res.status is Reason.TIME_BUDGET
        assert counter.count == res.evals == 0
        assert res.f == np.inf
        assert np.array_equal(res.x, np.full(4, 0.9))

    def test_past_deadline_stops_after_start_and_gradient(self, monkeypatch):
        # a clock that every evaluation advances by one second, and a
        # deadline that passes with the gradient's last probe: the search
        # stops at its next evaluation, the first line-search trial
        clock = [0.0]

        def ticking(x):
            clock[0] += 1.0
            return float(np.sum(x * x))

        monkeypatch.setattr(problem_mod, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        p = Problem(ticking, Bounds(np.full(4, -1.0), np.full(4, 1.0)))
        counter = EvalCounter(deadline=4.5)
        res = sqp_local(p, np.full(4, 0.9), counter)
        assert res.status is Reason.TIME_BUDGET
        assert counter.count == res.evals == 1 + 4
        assert np.array_equal(res.x, np.full(4, 0.9))

    def test_distant_deadline_changes_nothing(self):
        p = Problem(lambda x: float(np.sum(x * x)),
                    Bounds(np.full(3, -1.0), np.full(3, 1.0)))
        free = sqp_local(p, np.full(3, 0.7))
        timed = sqp_local(p, np.full(3, 0.7),
                          EvalCounter(deadline=time.monotonic() + 1e6))
        assert (timed.f, timed.evals, timed.status) == (
            free.f, free.evals, free.status)
        assert np.array_equal(timed.x, free.x)

    def test_non_finite_trial_raises(self):
        # the line search has no rule of its own for a non-finite value: it
        # raises, as a DIRECT probe, a gradient probe or a start sample does
        n = 3
        count = [0]

        def nan_at_first_trial(x):
            count[0] += 1
            return math.nan if count[0] == n + 2 else float(np.sum(x * x))

        p = Problem(nan_at_first_trial, Bounds(np.full(n, -1.0),
                                               np.full(n, 1.0)))
        counter = EvalCounter()
        with pytest.raises(NonFiniteValueError):
            sqp_local(p, np.full(n, 0.5), counter)
        assert counter.count == count[0] == n + 2

    def test_start_clipped_into_box(self):
        p = Problem(lambda x: float(x[0] ** 2),
                    Bounds(np.array([-1.0]), np.array([1.0])))
        res = sqp_local(p, np.array([7.0]))
        assert abs(res.x[0]) <= 1.0

    def test_start_value_for_a_start_outside_the_box_is_refused(self):
        # the value belongs to x0, so a clipped x0 would pair a point with
        # another point's value; a NaN coordinate is outside too
        p, pts = recording(Problem(lambda x: float(x[0] ** 2),
                                   Bounds(np.array([-1.0]), np.array([1.0]))))
        counter = EvalCounter()
        for x0 in (7.0, np.nextafter(-1.0, -2.0), math.nan):
            with pytest.raises(ConfigError):
                sqp_local(p, np.array([x0]), counter, f0=0.5)
        assert counter.count == 0 and not pts
        res = sqp_local(p, np.array([1.0]), counter, f0=1.0)
        assert res.f < 1.0

    def test_an_iteration_cap_below_one_is_refused(self):
        # max_iters 0 or -3 used to spend 3 evaluations on sphere-2, x0 and
        # a gradient no step used, then report iter_cap after 0 iterations
        p, pts = recording(Problem(lambda x: float(x @ x),
                                   Bounds(np.full(2, -5.0), np.full(2, 5.0))))
        counter = EvalCounter()
        for max_iters in (0, -3, math.nan):
            with pytest.raises(ConfigError, match="max_iters"):
                sqp_local(p, np.ones(2), counter, max_iters=max_iters)
        assert counter.count == 0 and not pts
        res = sqp_local(p, np.ones(2), counter, max_iters=1)
        assert res.iterations == 1 and res.f < 2.0

    def test_start_value_from_the_caller_is_not_evaluated_again(self):
        # with f0 the search makes the same evaluations as without it but
        # the first, the start point, and ends the same, bit for bit
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        bounds = Bounds(np.full(2, -5.0), np.full(2, 10.0))
        x0 = np.array([-1.2, 1.0])
        p, pts = recording(Problem(f, bounds))
        free = sqp_local(p, x0, max_iters=20)
        given, given_pts = recording(Problem(f, bounds))
        res = sqp_local(given, x0, f0=f(x0), max_iters=20)
        assert pts[0] == x0.tobytes()
        assert given_pts == pts[1:]
        assert x0.tobytes() not in given_pts
        assert res.evals == free.evals - 1
        assert (res.f, res.status, res.iterations) == (
            free.f, free.status, free.iterations)
        assert res.x.tobytes() == free.x.tobytes()
        assert res.trace[0] == (0, f(x0))

    def test_step_that_rounds_away_ends_stationary(self):
        # a steep quadratic: after two steps the model's curvature is about
        # 1e12 and the gradient about 1e-5 (well above PG_TOL), so the QP
        # step is about 1e-17 and vanishes in x + alpha*p at x near 0.3.
        # Every trial would evaluate x again, and an accepted trial would
        # repeat the whole iteration up to max_iters; the search ends
        # there instead, with no trial evaluated
        K, c = 1e12, 0.3
        p, pts = recording(Problem(lambda x: float(0.5 * K * (x[0] - c) ** 2),
                                   Bounds(np.array([0.0]), np.array([1.0]))))
        x0 = np.array([c + 1e-3])
        res = sqp_local(p, x0, f0=p(x0))
        pts.pop(0)  # the call above that computed f0
        assert res.status is LocalStatus.STATIONARY
        assert res.iterations == 3
        assert res.evals == len(pts) == len(set(pts)) == 13
        # the last evaluation is the gradient probe at the final iterate
        assert pts[-1] == (res.x + 1e-7).tobytes()
        assert res.f.hex() == "0x1.47ae147517b85p-10"

    def test_max_iters_caps_the_steps(self):
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        p = Problem(f, Bounds(np.full(2, -5.0), np.full(2, 10.0)))
        res = sqp_local(p, np.array([-1.2, 1.0]), max_iters=2)
        assert res.status is LocalStatus.ITER_CAP
        assert res.iterations == 2
