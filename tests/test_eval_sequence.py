"""Pinned evaluation sequences.

A pure speed-up of the evaluation or bookkeeping path must leave every
evaluated point and value bit-identical. These tests hash the in-order
(point bytes, value) sequence of fixed runs and compare it with a recorded
digest; a changed digest means the algorithm's behaviour changed, not just
its speed. The DIRECT digests were recorded before the DIRECT hot path was
streamlined, the two capped-counter ABCD digests before ABCD became a phase
machine; the griewank n=6 digest was re-recorded when subproblem caps began
to be clipped to the evaluation budget left. The griewank n=12 and n=7
digests were recorded before division stopped using numpy for its
bookkeeping and group keys became shared across partitions. The `sqp`
digest was recorded before the QP step of the polish began to exit at a
repeated iterate.

The coordinate-only S5 digest was re-recorded when the evaluation counter
began to stop a run at its first evaluation within the target rather than
at the end of the step: the new sequence is the old one cut short, which
`test_target_stop_only_cuts_the_tail` checks.
"""

import hashlib
import struct

import numpy as np
import pytest

import abcdirect.direct as direct_mod
from abcdirect.abcd import AbcdConfig, abcd_solve, choose_start, start_samples
from abcdirect.direct import DirectConfig, direct_solve
from abcdirect.functions import get_function
from abcdirect.local import LocalConfig, sqp_local
from abcdirect.problem import EvalCounter, Problem


def hashing(problem, prefix=None):
    """Wrap a problem so every evaluated user-space point and its value feed
    one sha256 digest, in evaluation order. `prefixes` receives the digest of
    the first `prefix` evaluations."""
    digest = hashlib.sha256()
    count = [0]
    prefixes = []
    base = problem.objective

    def obj(x):
        value = base(x)
        digest.update(np.asarray(x, dtype="<f8").tobytes())
        digest.update(struct.pack("<d", float(value)))
        count[0] += 1
        if count[0] == prefix:
            prefixes.append(digest.hexdigest())
        return value

    wrapped = Problem(obj, problem.bounds, problem.known_optimum)
    return wrapped, digest, count, prefixes


def run_direct(name, dim, max_evals):
    problem, digest, count, _ = hashing(get_function(name, dim)[0])
    direct_solve(problem, DirectConfig(max_evals=max_evals,
                                       target_accuracy=0.0))
    return digest.hexdigest(), count[0]


def run_abcd(name, dim, max_evals, seed, capped=False, **config):
    """A seeded ABCD run; `capped` also caps the counter at max_evals."""
    problem, digest, count, _ = hashing(get_function(name, dim)[0])
    counter = EvalCounter(cap=max_evals) if capped else None
    abcd_solve(problem, AbcdConfig(max_evals=max_evals, seed=seed, **config),
               counter=counter)
    return digest.hexdigest(), count[0]


def run_sqp(name, dim, max_evals, seed):
    """The runner's `sqp` algorithm at run seed `seed`: a start sample and
    one polish on a counter capped at max_evals."""
    problem, digest, count, _ = hashing(get_function(name, dim)[0])
    counter = EvalCounter(cap=max_evals)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0, _ = choose_start(problem, start_samples(problem.n), rng, counter)
    sqp_local(problem, x0, LocalConfig(), counter)
    return digest.hexdigest(), count[0]


CASES = {
    "direct-rastrigin-4": (
        lambda: run_direct("rastrigin", 4, 3000),
        "9d517abe0d6b1dadbdca69050f01d1a71758ae5c431fc5a605a93d27dd9b33bd",
        3005),
    "direct-shekel5": (
        lambda: run_direct("S5", None, 2000),
        "d86ed4c1c22d77960e49a83ff431d1a7516cd892efe393ecab59eefa8f5efbee",
        2001),
    # all three phases: coordinate, local polish and random blocks; the
    # counter is uncapped, so the last subproblem's cap is clipped
    "abcd-griewank-6-seed3": (
        lambda: run_abcd("griewank", 6, 4000, 3),
        "65c5f13402deec45254402bf75321b486d2b2d127da4264d7b5f63e3515562af",
        4001),
    # coordinate-only: stalls restart from a fresh sample (twice here); the
    # last evaluation is the first within the target
    "abcd-coordinate-S5-seed0": (
        lambda: run_abcd("S5", None, 3000, 0, capped=True,
                         coordinate_only=True),
        "5b4e3131f9134e695c44defdeb8d701eef7e8ad40eb84138549e3b6b7da7c7e6",
        2453),
    # polish first, all three phases, intensify and one restart
    "abcd-sqp-first-griewank-4-seed3": (
        lambda: run_abcd("griewank", 4, 10000, 3, capped=True,
                         sqp_first=True),
        "cb5acd854b551b20537352e5c9c95183abe0c60b75fb9ce743df910219d206a3",
        10000),
    # n = 12 is wide enough for numpy's 8-way pairwise sum inside measure()
    "direct-griewank-12": (
        lambda: run_direct("griewank", 12, 2000),
        "46dd106776826cae34de0fa75ff074849acd5f5dd1231f06bfa1c8043648a2f3",
        2001),
    # three-coordinate blocks over n = 7 wrap around unsorted ([6, 0, 1])
    "abcd-m1-3-griewank-7-seed1": (
        lambda: run_abcd("griewank", 7, 3000, 1, capped=True, m1=3),
        "61d96a7ac2288208a060a83d8350aca37227a962d47ee0f54dff0b789a5e66b0",
        3000),
    # the polish alone: 82 QP steps, many of which end in a repeated
    # iterate (a fixed point or a 2-cycle), until the budget runs out
    "sqp-S5-seed0": (
        lambda: run_sqp("S5", None, 2000, 0),
        "bbeda55fb7a2e721edfed3b2da5d0c0de1213fb48517b1d155a4d5492f72996b",
        2000),
}

# abcd-coordinate-S5-seed0 as pinned while the target was checked between
# steps, one evaluation past the first within the target
S5_BEFORE_THE_COUNTER_STOP = (
    "5eaa832d89c48b85d22050ec77b3df2e41b0239456db5b4ba3b062ee364ff426",
    2454)

# the first 4000 evaluations of abcd-griewank-6-seed3, which are also all
# the evaluations of the same run on a counter capped at 4000
GRIEWANK_4000 = (
    "a2dbf2c09bfa50d813b6e9ccb58b50e06551bbf87cfec47adefb935d3c74bff2")


@pytest.fixture
def unit_cube_probes(monkeypatch):
    """The unit-cube coordinates of every evaluation DIRECT makes: the
    block midpoint of each start center and the moved coordinate of every
    division probe. Each evaluation is checked as it happens: the point is
    a full point of the problem in the closed user box; each unit-cube
    coordinate lies strictly inside the cube and maps to the point's
    coordinate, bit for bit, as lower + z*width on the box's Python floats;
    every other coordinate equals, bit for bit, the start's base or the
    parent's center. `_block` and `sample_and_divide` are wrapped to learn
    the base and the parent, and `evaluate_counted`, through which DIRECT
    makes every evaluation, to check and record it."""
    seen = []
    context = []  # [start?, point before, {coordinate: candidate z}]
    block, divide = direct_mod._block, direct_mod.sample_and_divide
    evaluate = direct_mod.evaluate_counted

    def recording_block(problem, counter, coords, base):
        state, x = block(problem, counter, coords, base)
        bounds = problem.bounds
        before = (bounds.lower + 0.5 * bounds.width if base is None
                  else np.array(base, dtype=float))
        context[:] = [True, before, {c: (0.5,) for c in state.coords}]
        return state, x

    def recording_divide(rid, state, problem):
        levels, exact = state._level_tuples[rid], state._exact[rid]
        low = min(levels)
        denom = 2.0 * 3.0 ** (low + 1)
        # a probe moves one block dimension at the lowest level a third of
        # its side either way: numerator 3*num +/- 2 one level down
        moves = {state.coords[d]: ((3 * exact[d] + 2) / denom,
                                   (3 * exact[d] - 2) / denom)
                 for d in range(state.n) if levels[d] == low}
        context[:] = [False, state._centers[rid].copy(), moves]
        return divide(rid, state, problem)

    def recording_evaluate(problem, x, counter):
        start, before, moves = context
        bounds = problem.bounds
        lower, width = bounds.lower.tolist(), bounds.width.tolist()
        assert x.shape == before.shape
        assert ((bounds.lower <= x) & (x <= bounds.upper)).all()
        moved = list(moves) if start else np.flatnonzero(x != before).tolist()
        assert start or (len(moved) == 1 and moved[0] in moves)
        zs = []
        for c in moved:
            mapped = [z for z in moves[c]
                      if (lower[c] + z * width[c]).hex() == float(x[c]).hex()]
            assert len(mapped) == 1
            zs += mapped
        assert (np.delete(x, moved).tobytes()
                == np.delete(before, moved).tobytes())
        seen.append(np.array(zs))
        return evaluate(problem, x, counter)

    monkeypatch.setattr(direct_mod, "_block", recording_block)
    monkeypatch.setattr(direct_mod, "sample_and_divide", recording_divide)
    monkeypatch.setattr(direct_mod, "evaluate_counted", recording_evaluate)
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluation_sequence_is_pinned(case, unit_cube_probes):
    run, want_digest, want_count = CASES[case]
    digest, count = run()
    assert (digest, count) == (want_digest, want_count)
    if case.startswith("sqp-"):
        # the polish evaluates in user space only
        assert not unit_cube_probes
        return
    # probes are odd base-3 numerators over 2*3^l: strictly inside the cube,
    # which is why a division makes no cube check
    assert unit_cube_probes
    if case.startswith("direct-"):
        # every evaluation of plain DIRECT is its start center or a probe
        assert len(unit_cube_probes) == count
    z = np.concatenate(unit_cube_probes)
    assert ((z > 0.0) & (z < 1.0)).all()


def test_budget_clip_only_cuts_the_tail():
    problem, _, _, prefixes = hashing(get_function("griewank", 6)[0], 4000)
    abcd_solve(problem, AbcdConfig(max_evals=4000, seed=3))
    assert prefixes == [GRIEWANK_4000]
    assert run_abcd("griewank", 6, 4000, 3, capped=True) == (
        GRIEWANK_4000, 4000)


def test_target_stop_only_cuts_the_tail():
    # without a target the run goes on past both pinned ends; its first
    # 2454 evaluations are the sequence pinned before the counter stopped
    # runs at the target, and its first 2453 the sequence pinned now
    _, new_digest, new_count = CASES["abcd-coordinate-S5-seed0"]
    for want, count in (S5_BEFORE_THE_COUNTER_STOP, (new_digest, new_count)):
        s5 = get_function("S5")[0]
        problem, _, total, prefixes = hashing(
            Problem(s5.objective, s5.bounds), count)
        abcd_solve(problem, AbcdConfig(max_evals=3000, seed=0,
                                       coordinate_only=True),
                   counter=EvalCounter(cap=3000))
        assert prefixes == [want]
        assert total[0] > count
