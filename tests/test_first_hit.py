"""Evaluations-to-target are exact.

The evaluation counter stops a run at the evaluation that first brings its
best within the target accuracy, in whatever phase the run is. So a report
that says `target_reached` counts exactly the evaluations up to that one,
and its best value is the running best there. The cases below each used to
report more: a polish, a DIRECT division or an ABCD step ran on to its own
end past the hit.
"""

import numpy as np
import pytest

import abcdirect.runner as runner_mod
from abcdirect.functions import get_function
from abcdirect.problem import Problem
from abcdirect.runner import RunSpec, run_single


@pytest.fixture
def running_best(monkeypatch):
    """The runner's problems, each evaluation appending the running best
    value to the returned list."""
    bests = []

    def recording(name, dim):
        problem, meta = get_function(name, dim)
        objective = problem.objective

        def recorded(x):
            value = objective(x)
            bests.append(min(value, bests[-1]) if bests else value)
            return value

        return (Problem(recorded, problem.bounds, problem.known_optimum),
                meta)

    monkeypatch.setattr(runner_mod, "get_function", recording)
    return bests


# (algorithm, function, dim, budget, seed, evaluations the run used to report)
CASES = [
    ("sqp", "BR", None, 2000, 0, 50),
    ("direct", "H6", None, 20000, 0, 839),
    ("abcd", "ackley", 6, 5000, 0, 1260),
    # no earlier report of this run was recorded: it can report no more
    # than its budget
    ("abcd-coordinate", "H6", None, 2000, 1, 2000),
]


@pytest.mark.parametrize("algorithm, function, dim, budget, seed, before",
                         CASES, ids=[c[0] for c in CASES])
def test_target_reached_report_counts_to_the_first_hit(
        running_best, algorithm, function, dim, budget, seed, before):
    spec = RunSpec(function, dim, algorithm, max_evals=budget,
                   max_wall_seconds=None, seed=seed, repetitions=1)
    rep = run_single(spec, 0)
    f_star = get_function(function, dim)[1].f_star
    first = next(i for i, best in enumerate(running_best, 1)
                 if abs(best - f_star) <= spec.target_accuracy)
    assert rep.termination == "target_reached"
    assert rep.evals == first == len(running_best) < before
    assert rep.best_f == running_best[first - 1]
    problem = get_function(function, dim)[0]
    assert problem(np.array(rep.best_x)) == rep.best_f
