"""Pinned evaluation sequences.

A pure speed-up of the evaluation or bookkeeping path must leave every
evaluated point and value bit-identical. These tests hash the in-order
(point bytes, value) sequence of fixed runs and compare it with a recorded
digest; a changed digest means the algorithm's behaviour changed, not just
its speed. The DIRECT digests were recorded before the DIRECT hot path was
streamlined, the S5 and griewank n=4 ABCD digests before ABCD became a
phase machine. The griewank n=12 and n=7 digests were recorded before
division stopped using numpy for its bookkeeping and group keys became
shared across partitions. The `sqp` digest was recorded before the QP step
of the polish began to exit at a repeated iterate.

Each ABCD case also pins the digest of its trace rows, subproblem count and
stop reason (`trace_digest`), recorded before the phases were rewritten as
one straight cycle: a mislabelled phase or an off-by-one subproblem count
leaves the evaluations as they are.

The coordinate-only S5 digest was re-recorded when the evaluation counter
began to stop a run at its first evaluation within the target rather than
at the end of the step: the new sequence is the old one cut short, which
`test_target_stop_only_cuts_the_tail` checks.

The digests of every case with a polish and their trace digests were
re-recorded when the polish began to take its start value from the caller
and to stop at a step that rounds away at its iterate. Both only drop
evaluations of points the run had already evaluated, so each new run's
distinct points begin with those of the run pinned before
(`BEFORE_THE_POLISH_REPEATS`), which `test_polish_only_drops_repeats`
checks.

The griewank n=6 digest and its trace digest were re-recorded when ABCD's
budget became its counter alone. The case had been an uncapped run whose
config's evaluation budget clipped its last subproblem, so it ended at
4001 evaluations. It is now the same run on a counter capped at 4000, and
its evaluations are the old run's first 4000.
"""

import hashlib
import struct

import numpy as np
import pytest

import abcdirect.direct as direct_mod
import abcdirect.runner as runner_mod
from abcdirect.abcd import AbcdConfig, abcd_solve, choose_start, start_samples
from abcdirect.direct import DirectConfig, direct_solve
from abcdirect.functions import get_function
from abcdirect.local import sqp_local
from abcdirect.problem import EvalCounter, Problem, Reason
from abcdirect.runner import RunSpec, run_single


def recording(problem):
    """Wrap a problem so every evaluation appends one entry, the bytes of
    its user-space point and of its value, to `entries`, in evaluation
    order."""
    entries = []
    base = problem.objective

    def obj(x):
        value = base(x)
        entries.append(np.asarray(x, dtype="<f8").tobytes()
                       + struct.pack("<d", float(value)))
        return value

    return Problem(obj, problem.bounds, problem.known_optimum), entries


def digest(entries):
    """The sha256 the pins record: every entry, in order."""
    return hashlib.sha256(b"".join(entries)).hexdigest()


def distinct(entries):
    """The entries without any repeat of an earlier point, in the order of
    their first evaluation."""
    return list(dict.fromkeys(entries))


def run_direct(name, dim, max_evals):
    problem, entries = recording(get_function(name, dim)[0])
    direct_solve(problem, DirectConfig(max_evals=max_evals,
                                       target_accuracy=0.0))
    return (entries,)


def trace_digest(result):
    """sha256 of an ABCD result's trace rows, its subproblem count and its
    stop reason, every value in hex."""
    rows = [f"{e},{k},{phase},{float(f).hex()}"
            for e, k, phase, f in result.trace]
    rows.append(f"{result.subproblems},{result.reason.value}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run_abcd(name, dim, cap, seed, **config):
    """A seeded ABCD run on a counter capped at `cap`."""
    problem, entries = recording(get_function(name, dim)[0])
    result = abcd_solve(problem, AbcdConfig(seed=seed, **config),
                        counter=EvalCounter(cap=cap))
    return entries, trace_digest(result)


def run_sqp(name, dim, max_evals, seed):
    """The runner's `sqp` algorithm at run seed `seed`: a start sample and
    one polish from its best, on a counter capped at max_evals."""
    problem, entries = recording(get_function(name, dim)[0])
    counter = EvalCounter(cap=max_evals)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0, f0 = choose_start(problem, start_samples(problem.n), rng, counter)
    sqp_local(problem, x0, counter, f0=f0)
    return (entries,)


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
    # cap stops the last subproblem at its evaluation
    "abcd-griewank-6-seed3": (
        lambda: run_abcd("griewank", 6, 4000, 3),
        "2963b9ecca758b871368cc75184e2ec87da141a36f60a32bb370e0dd90ff1f12",
        4000,
        "a9cf46211fad13101a7799f4cf8729134e23913c21dc33f35e93b82dd15c3f95"),
    # coordinate-only: stalls restart from a fresh sample (twice here); the
    # last evaluation is the first within the target
    "abcd-coordinate-S5-seed0": (
        lambda: run_abcd("S5", None, 3000, 0, coordinate_only=True),
        "5b4e3131f9134e695c44defdeb8d701eef7e8ad40eb84138549e3b6b7da7c7e6",
        2453,
        "d7f0dd01d00f92a052299e9a733b016fe03765426b0e696cb259d31183d42ea8"),
    # polish first, all three phases, intensify and one restart
    "abcd-sqp-first-griewank-4-seed3": (
        lambda: run_abcd("griewank", 4, 10000, 3, sqp_first=True),
        "24bb3d0ea7d9c2d842f234164154c443059de866a6d4e31d273362acbcb428f0",
        10000,
        "c46180416d63baf09601cf33a67118a35e2f5b15f1e1f74c237bb71ea1fd97ce"),
    # n = 12 is wide enough for numpy's 8-way pairwise sum inside measure()
    "direct-griewank-12": (
        lambda: run_direct("griewank", 12, 2000),
        "46dd106776826cae34de0fa75ff074849acd5f5dd1231f06bfa1c8043648a2f3",
        2001),
    # three-coordinate blocks over n = 7 wrap around unsorted ([6, 0, 1])
    "abcd-m1-3-griewank-7-seed1": (
        lambda: run_abcd("griewank", 7, 3000, 1, m1=3),
        "1c2e8bfb6daab3f8077d6ceed67dbaa35198fa807970dd28ad74a2ed2c12832a",
        3000,
        "6c97b9ad352728c2dc49dbd6b8fdd04864b12da3ba90e94b7c493a4f2d930304"),
    # the polish alone: many QP steps end in a repeated iterate (a fixed
    # point or a 2-cycle), and the search ends where its step rounds away
    "sqp-S5-seed0": (
        lambda: run_sqp("S5", None, 2000, 0),
        "6eb0b98b5bd0198a662123a1d737a5d1bb5b9d0596c7877597f596a546a29d72",
        377),
}

# abcd-coordinate-S5-seed0 as pinned while the target was checked between
# steps, one evaluation past the first within the target
S5_BEFORE_THE_COUNTER_STOP = (
    "5eaa832d89c48b85d22050ec77b3df2e41b0239456db5b4ba3b062ee364ff426",
    2454)

# the digest and count of the distinct points, in the order of their first
# evaluation, of each run with a polish as pinned before the polish took
# its start value from the caller and stopped where its step rounds away
BEFORE_THE_POLISH_REPEATS = {
    "abcd-griewank-6-seed3": (
        CASES["abcd-griewank-6-seed3"][0],
        "7eb66c96e3b5b84088bef0ed7d199735bd5891569c68a871c580bdd510db8959",
        3990),
    "abcd-sqp-first-griewank-4-seed3": (
        CASES["abcd-sqp-first-griewank-4-seed3"][0],
        "4da8319cfd9d512e1afc845b4dd4db503cb3c12b9b1c236a84795707041a3c93",
        8841),
    "abcd-m1-3-griewank-7-seed1": (
        CASES["abcd-m1-3-griewank-7-seed1"][0],
        "b5f12d1a8e0f1443ff013ddf3484d334e14b28fc8a2bede6c9f433fb931e0195",
        2997),
    # the old run's 2000 evaluations held 1623 repeats
    "sqp-S5-seed0": (
        CASES["sqp-S5-seed0"][0],
        "6eb0b98b5bd0198a662123a1d737a5d1bb5b9d0596c7877597f596a546a29d72",
        377),
    # the griewank n=6 run on a counter capped at 4000, pinned apart from
    # the then uncapped abcd-griewank-6-seed3 before the counter became
    # ABCD's one budget; both now name the same run
    "griewank-6-capped": (
        lambda: run_abcd("griewank", 6, 4000, 3),
        "7eb66c96e3b5b84088bef0ed7d199735bd5891569c68a871c580bdd510db8959",
        3990),
}


@pytest.fixture
def unit_cube_probes(monkeypatch):
    """The unit-cube coordinates of every evaluation DIRECT makes: the
    block midpoint of each start center and the moved coordinate of every
    division probe. Each evaluation is checked as it happens: the point is
    a full point of the problem in the closed user box; each unit-cube
    coordinate lies strictly inside the cube and maps to the point's
    coordinate, bit for bit, as lower + z*width on the box's Python floats;
    every other coordinate equals, bit for bit, the start's base or the
    parent's center, rebuilt from its numerators. `_block` and
    `sample_and_divide` are wrapped to learn the base and the parent, and `evaluate_counted`, through which DIRECT
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
        context[:] = [False, state.center(rid), moves]
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
    # the ABCD cases pin their trace digest as a third value
    run, *want = CASES[case]
    entries, *trace = run()
    assert (digest(entries), len(entries), *trace) == tuple(want)
    count = len(entries)
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


def test_target_stop_only_cuts_the_tail():
    # without a target the run goes on past both pinned ends; its first
    # 2454 evaluations are the sequence pinned before the counter stopped
    # runs at the target, and its first 2453 the sequence pinned now
    _, new_digest, new_count, _ = CASES["abcd-coordinate-S5-seed0"]
    for want, count in (S5_BEFORE_THE_COUNTER_STOP, (new_digest, new_count)):
        s5 = get_function("S5")[0]
        problem, entries = recording(Problem(s5.objective, s5.bounds))
        abcd_solve(problem, AbcdConfig(seed=0, coordinate_only=True),
                   counter=EvalCounter(cap=3000))
        assert digest(entries[:count]) == want
        assert len(entries) > count


@pytest.mark.parametrize("case", sorted(BEFORE_THE_POLISH_REPEATS))
def test_polish_only_drops_repeats(case):
    # the polish no longer evaluates its start point or a trial equal to
    # its iterate, all points its run had evaluated before; the budget
    # those repeats spent goes to points the old run never reached, so the
    # old run's distinct points begin the new run's
    run, want_digest, want_count = BEFORE_THE_POLISH_REPEATS[case]
    points = distinct(run()[0])
    assert len(points) >= want_count
    assert digest(points[:want_count]) == want_digest


def test_sqp_run_ends_where_its_step_rounds_away(monkeypatch):
    # the `sqp` algorithm on S5 at run seed 0 used to spend its whole
    # 2000-evaluation budget, 1623 of them on repeats, and report
    # eval_budget; it now stops, stalled, with no point evaluated twice
    # and the same best value, bit for bit
    recorded = []

    def recording_function(name, dim=None):
        problem, meta = get_function(name, dim)
        problem, entries = recording(problem)
        recorded.append(entries)
        return problem, meta

    monkeypatch.setattr(runner_mod, "get_function", recording_function)
    report = run_single(RunSpec("S5", algorithm="sqp", max_evals=2000,
                                seed=0, repetitions=1), 0)
    [entries] = recorded
    assert report.evals == len(entries) == len(distinct(entries)) == 377
    assert report.termination == Reason.GLOBAL_STALL
    assert report.best_f.hex() == "-0x1.43885c0e25102p+2"
    # the trace counts the run's evaluations: the start sample's best, then
    # each improvement of the polish
    evals = [e for e, _, _ in report.trace]
    assert evals[0] == 8 and evals == sorted(set(evals))
    assert evals[-1] <= report.evals
