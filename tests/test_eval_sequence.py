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
and to stop at a step that rounds away at its iterate. Both only dropped
evaluations of points the run had already evaluated.

The griewank n=6 digest and its trace digest were re-recorded when ABCD's
budget became its counter alone. The case had been an uncapped run whose
config's evaluation budget clipped its last subproblem, so it ended at
4001 evaluations. It is now the same run on a counter capped at 4000, and
its evaluations are the old run's first 4000.

The digests of every case with a polish and their trace digests were
re-recorded again when the polish's QP step became an active-set solve in
place of 50 projected-gradient iterations. The new step changes the
polish's trials, so the sequences part at the first QP step of each run:
everything before it is as recorded with the old step
(`BEFORE_THE_FIRST_QP_STEP`), which `test_the_qp_step_keeps_the_prefix`
checks.

The coordinate-only S5, the griewank n=6 and the polish-first griewank n=4
digests and their trace digests were re-recorded when ABCD's stall test
became relative to max(1, |f|) and its block phase began to grow a block
after each stall. The S5 run's values exceed 1 in magnitude, so its
coordinate phase leaves earlier (at evaluation 918); each griewank run
parts at the second subproblem of its block phase, the first one that
grows, since the block before it stalled. The griewank n=7 run with
three-coordinate blocks, the polish alone, the DIRECT cases and every
prefix before a first QP step stayed bit-identical.

The hartman6 and goldstein_price digests were recorded before the Jones
kernels had coordinate views, while every probe of theirs called the
kernel on a point built for it; their views must give the same sequence.
"""

import hashlib
import struct
import sys

import numpy as np
import pytest

import abcdirect.abcd as abcd_mod
import abcdirect.direct as direct_mod
import abcdirect.local as local_mod
import abcdirect.problem as problem_mod
import abcdirect.runner as runner_mod
from abcdirect.abcd import AbcdConfig, abcd_solve, choose_start, start_samples
from abcdirect.direct import DirectConfig, direct_solve
from abcdirect.functions import get_function
from abcdirect.local import sqp_local
from abcdirect.problem import EvalCounter, Problem, Reason, Stop
from abcdirect.runner import RunSpec, run_single


class Entries(list):
    """The entries of a `recording`, and how many of them its forwarded
    coordinate view made."""

    viewed = 0


def recording(problem):
    """Wrap a problem so every evaluation appends one entry, the bytes of
    its user-space point and of its value, to `entries`, in evaluation
    order. An objective with a coordinate view keeps it: the wrapper's
    `view` values each probe through the objective's, and records it as
    its point, rebuilt from the view's base and (i, z), so the pins cover
    the path a run takes unwrapped."""
    entries = Entries()
    base = problem.objective

    def record(x, value):
        entries.append(np.asarray(x, dtype="<f8").tobytes()
                       + struct.pack("<d", float(value)))

    def obj(x):
        value = base(x)
        record(x, value)
        return value

    if hasattr(base, "view"):
        def build(x):
            view = base.view(x)

            def recorded(i, z):
                value = view(i, z)
                record(probe_point(x, i, z), value)
                entries.viewed += 1
                return value
            return recorded
        obj.view = build

    return Problem(obj, problem.bounds, problem.known_optimum), entries


def probe_point(x, i, z):
    """The point an `evaluate_counted(problem, x, counter, view, i, z)`
    evaluates: x itself for i None, else the probe x with x[i] = z, built
    here as a new array."""
    if i is None:
        return x
    point = np.array(x, dtype=float)
    point[i] = z
    return point


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
        "f1812642a997fe20a139cff891ec8217b007b4a3fc186b189ef253a3b0a8f775",
        4000,
        "e1768197fceebbb6a585aa60a35a7fdf01c657ef031a0dbfaec633952bfe8fe0"),
    # coordinate-only: stalls restart from a fresh sample (twice here); the
    # last evaluation is the first within the target
    "abcd-coordinate-S5-seed0": (
        lambda: run_abcd("S5", None, 3000, 0, coordinate_only=True),
        "2c5159d527dec9f039ae1d22d4117690205ba962fecaf9e70e5263477cbe0b35",
        2251,
        "1fe357f0d7c6a3155c76b42b0b5f1afb34054fd2c83bafa05aabd35dd97a2015"),
    # polish first, all three phases, intensify and one restart
    "abcd-sqp-first-griewank-4-seed3": (
        lambda: run_abcd("griewank", 4, 10000, 3, sqp_first=True),
        "4ea5e0774101b958105ebad19114462e306db352cfe9fe920f6f8aec3e0e6c3e",
        10000,
        "94088597ec529923406f5bb028bb85cbe629eea7a627820da9e2bcd659d29398"),
    # n = 12 is wide enough for numpy's 8-way pairwise sum inside measure()
    "direct-griewank-12": (
        lambda: run_direct("griewank", 12, 2000),
        "46dd106776826cae34de0fa75ff074849acd5f5dd1231f06bfa1c8043648a2f3",
        2001),
    # three-coordinate blocks over n = 7 wrap around unsorted ([6, 0, 1])
    "abcd-m1-3-griewank-7-seed1": (
        lambda: run_abcd("griewank", 7, 3000, 1, m1=3),
        "40770b9d60befd312195230e5eff23cb22d002a722b9fd912bddf7aa3da47d13",
        3000,
        "4349bd29dbfb0e475940ddcd8712c1e2742e01bbcf39e1994d1830afdbff5dc9"),
    # the polish alone: it ends where its step rounds away
    "sqp-S5-seed0": (
        lambda: run_sqp("S5", None, 2000, 0),
        "006c9779dd8b65d24756ed9a35ee9c208b52735fb604f659ecdaaed2020246a6",
        130),
    # ABCD's default phases on hartman6: the coordinate phase, then the
    # polish, which ends the run at its first evaluation within the target
    "abcd-H6-seed0": (
        lambda: run_abcd("H6", None, 3000, 0),
        "4ca7b7879f19c58c01f2266272fa8a15b0c7b6ecc5ccfd5fbe82b845c4515d94",
        1067,
        "ffe40f9a3004fad25653d00f4a54cd72fe087d1f09bec2ee0c7ba155300b0895"),
    # coordinate-only on goldstein_price, to the cap
    "abcd-coordinate-GP-seed0": (
        lambda: run_abcd("GP", None, 2000, 0, coordinate_only=True),
        "365182f02eb36bc3b741fe88209d231d084727969424034564349fbd6b5502ef",
        2000,
        "fec54886aea76ceb70e8ff32ef0c8e9de1884fcba719ca498bc6912eb90f49a0"),
}

# abcd-coordinate-S5-seed0 cut where a target check between steps would
# stop it: at the end of the DIRECT division that makes its first hit, one
# evaluation past it. While the target was checked there this was the pin;
# each re-recording of the pin since cuts the run's untargeted sequence at
# that division's end
S5_BEFORE_THE_COUNTER_STOP = (
    "a70e6689a1625516a1b9f1a725116862e2e9af949f8c56eaed9e158d46d0feff",
    2252)

# the digest and count of each polished run's evaluations before its first
# QP step's first line-search trial, recorded while the QP step was still
# solved by projected gradient: no evaluation before it depends on the step
BEFORE_THE_FIRST_QP_STEP = {
    "abcd-griewank-6-seed3": (
        "b56137ee515cff4e0b16061e09a3d0abab070984bd6f34c71238b43c9319c182",
        777),
    "abcd-sqp-first-griewank-4-seed3": (
        "02c961bac3fa4fc619538b2e7e9e560e467b0e147c12ffd4c65c921cd21f5525",
        12),
    "abcd-m1-3-griewank-7-seed1": (
        "993c3057fb055842a90df0407b5bd448af21f0c970c61346125073e0540d5c4f",
        2445),
    "sqp-S5-seed0": (
        "f47ec3212a55e921d497e4d559a0ed4a0d80dac735a090c999d666b6b60665f8",
        12),
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
    parent's center, rebuilt from its numerators. `_block` is wrapped to
    learn the base, `sample_and_divide` and `divide_interval`, the
    divisions of larger and of one-coordinate blocks, to learn the parent,
    and `evaluate_counted`, through which DIRECT makes every
    evaluation, to check and record it. A probe reaches `evaluate_counted`
    as its base with one coordinate moved, `(x, i, z)`; the point checked
    is the probe, and the base must come out of the evaluation
    byte-identical, as it must from every evaluation of the polish."""
    seen = []
    context = []  # [start?, point before, {coordinate: candidate z}]
    block, evaluate = direct_mod._block, direct_mod.evaluate_counted
    local_evaluate = local_mod.evaluate_counted

    def recording_block(problem, coords, base):
        coords, x = block(problem, coords, base)
        bounds = problem.bounds
        before = (bounds.lower + 0.5 * bounds.width if base is None
                  else np.array(base, dtype=float))
        context[:] = [True, before, {c: (0.5,) for c in coords}]
        return coords, x

    def recording(divide):
        def recording_divide(rid, state, problem):
            levels, exact = state._level_tuples[rid], state._exact[rid]
            low = min(levels)
            denom = 2.0 * 3.0 ** (low + 1)
            # a probe moves one block dimension at the lowest level a third
            # of its side either way: numerator 3*num +/- 2 one level down
            moves = {state.coords[d]: ((3 * exact[d] + 2) / denom,
                                       (3 * exact[d] - 2) / denom)
                     for d in range(state.n) if levels[d] == low}
            context[:] = [False, state.center(rid), moves]
            return divide(rid, state, problem)
        return recording_divide

    def recording_evaluate(problem, base, counter, view=None, i=None,
                           z=0.0):
        start, before, moves = context
        bounds = problem.bounds
        lower, width = bounds.lower.tolist(), bounds.width.tolist()
        base_bytes = base.tobytes()
        x = probe_point(base, i, z)
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
        try:
            return evaluate(problem, base, counter, view, i, z)
        finally:
            assert base.tobytes() == base_bytes

    def polish_evaluate(problem, base, counter, view=None, i=None, z=0.0):
        base_bytes = base.tobytes()
        try:
            return local_evaluate(problem, base, counter, view, i, z)
        finally:
            assert base.tobytes() == base_bytes

    monkeypatch.setattr(direct_mod, "_block", recording_block)
    for name in ("sample_and_divide", "divide_interval"):
        monkeypatch.setattr(direct_mod, name,
                            recording(getattr(direct_mod, name)))
    monkeypatch.setattr(direct_mod, "evaluate_counted", recording_evaluate)
    monkeypatch.setattr(local_mod, "evaluate_counted", polish_evaluate)
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluation_sequence_is_pinned(case, unit_cube_probes):
    # the ABCD cases pin their trace digest as a third value
    run, *want = CASES[case]
    entries, *trace = run()
    assert (digest(entries), len(entries), *trace) == tuple(want)
    # every kernel's probes take their values from the kernel's own view
    assert entries.viewed > 0
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_pins_hold_through_the_views(case, monkeypatch):
    # the pins above record each evaluation in the objective, through the
    # view the recorder forwards. Here the problem keeps its own kernel and
    # each evaluation is recorded where it is charged, in
    # `evaluate_counted`, the probe rebuilt from its base and (i, z); the
    # pins must hold all the same
    entries, viewed = [], []
    evaluate = problem_mod.evaluate_counted

    def record(x, value):
        entries.append(np.asarray(x, dtype="<f8").tobytes()
                       + struct.pack("<d", value))

    def recording_evaluate(problem, x, counter, view=None, i=None, z=0.0):
        count = counter.count
        try:
            value = evaluate(problem, x, counter, view, i, z)
        except Stop:
            if counter.count > count:  # the target, after the evaluation
                record(probe_point(x, i, z), counter.best_f)
            raise
        record(probe_point(x, i, z), value)
        # every probe is valued through a view, here the kernel's own
        viewed.append(i is not None and hasattr(problem.objective, "view"))
        return value

    for module in (direct_mod, local_mod, abcd_mod):
        monkeypatch.setattr(module, "evaluate_counted", recording_evaluate)
    monkeypatch.setattr(sys.modules[__name__], "recording",
                        lambda problem: (problem, entries))
    run, *want = CASES[case]
    _, *trace = run()
    assert (digest(entries), len(entries), *trace) == tuple(want)
    assert any(viewed)


def test_target_stop_only_cuts_the_tail():
    # without a target the run goes on past both pinned ends; its first
    # 2252 evaluations end the division that makes the first hit, where a
    # check between steps would stop it, and its first 2251 are the
    # sequence pinned now
    _, new_digest, new_count, _ = CASES["abcd-coordinate-S5-seed0"]
    for want, count in (S5_BEFORE_THE_COUNTER_STOP, (new_digest, new_count)):
        s5 = get_function("S5")[0]
        problem, entries = recording(Problem(s5.objective, s5.bounds))
        abcd_solve(problem, AbcdConfig(seed=0, coordinate_only=True),
                   counter=EvalCounter(cap=3000))
        assert digest(entries[:count]) == want
        assert len(entries) > count


@pytest.mark.parametrize("case", sorted(BEFORE_THE_FIRST_QP_STEP))
def test_the_qp_step_keeps_the_prefix(case, monkeypatch):
    # the QP step decides the polish's trials and nothing before them: the
    # run's evaluations up to its first QP step are as recorded before the
    # step's rewrite, and the first step comes at the same evaluation
    want_digest, want_count = BEFORE_THE_FIRST_QP_STEP[case]
    runs, marks = [], []
    record, step = recording, local_mod.box_qp_step

    def recording_run(problem):
        problem, entries = record(problem)
        runs.append(entries)
        return problem, entries

    def marking_step(*args):
        marks.append(len(runs[0]))
        return step(*args)

    monkeypatch.setattr(sys.modules[__name__], "recording", recording_run)
    monkeypatch.setattr(local_mod, "box_qp_step", marking_step)
    entries = CASES[case][0]()[0]
    assert runs == [entries] and marks[0] == want_count
    assert digest(entries[:want_count]) == want_digest


def test_sqp_run_ends_where_its_step_rounds_away(monkeypatch):
    # the `sqp` algorithm on S5 at run seed 0 used to spend its whole
    # 2000-evaluation budget, 1623 of them on repeats, and report
    # eval_budget; it now stops, stalled, with no point evaluated twice
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
    assert report.evals == len(entries) == len(distinct(entries)) == 130
    assert report.termination == Reason.GLOBAL_STALL
    assert report.best_f.hex() == "-0x1.43885c0e25128p+2"
    # the trace counts the run's evaluations: the start sample's best, then
    # each improvement of the polish
    evals = [e for e, _, _ in report.trace]
    assert evals[0] == 8 and evals == sorted(set(evals))
    assert evals[-1] <= report.evals
