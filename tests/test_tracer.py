"""Smoke test of the benchmark's run-time tracer, `bench/tracer.py`.

The tracer wraps package functions by the names their callers look them up
by, so a refactor under `src/` can break `bench/run.py --trace 1` while every
other test passes.
"""

from pathlib import Path

import pytest

import abcdirect.abcd as abcd_mod
import abcdirect.runner as runner_mod
from abcdirect.abcd import AbcdConfig
from abcdirect.direct import DirectConfig
from abcdirect.functions import get_function
from abcdirect.problem import EvalCounter, Reason
from abcdirect.runner import ALGORITHMS, RunSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_counts_every_evaluation_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    make_subproblem = abcd_mod.make_subproblem
    tracer = Tracer().install()
    try:
        reports = [runner_mod.run_single(
            RunSpec("BR", algorithm=algo, max_evals=300, repetitions=1), 0)
            for algo in ALGORITHMS]
    finally:
        tracer.uninstall()
    assert tracer.evals == sum(r.evals for r in reports)
    assert tracer.metrics()["functions.calls"][0] == tracer.evals
    assert abcd_mod.make_subproblem is make_subproblem


def test_every_rectangle_goes_through_add_and_rekey(monkeypatch):
    # the tracer times the partition store by wrapping `PartitionState.add`
    # and `rekey`; a store that filled itself another way would drop out of
    # `direct.add_s` / `direct.rekey_s` unseen. The run ends on its own
    # `max_evals`, checked between divisions, and has no target and an
    # uncapped counter, so no stop cuts a division short: one `add` per
    # evaluation (the center and two per probed dimension) and one `rekey`
    # per division.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    problem = get_function("BR")[0]
    tracer = Tracer().install()
    try:
        result = runner_mod.direct_solve(
            problem, DirectConfig(max_evals=300, target_accuracy=0.0),
            EvalCounter())
    finally:
        tracer.uninstall()
    assert result.reason is Reason.EVAL_BUDGET
    metrics = tracer.metrics()
    assert metrics["direct.add_calls"][0] == tracer.evals == result.evals
    assert (metrics["direct.rekey_calls"][0]
            == metrics["direct.divide_calls"][0] > 0)


def test_direct_solve_calls_count_abcd_subproblems(monkeypatch):
    # ABCD runs each subproblem as `direct_solve` over a block of the full
    # problem, so the tracer's `direct.solve_calls` counts the subproblems;
    # the counters of the standalone `make_subproblem` restriction stay at
    # zero, and every evaluation goes through `Problem.__call__` once
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    problem = get_function("griewank", 6)[0]
    tracer = Tracer().install()
    try:
        result = runner_mod.abcd_solve(
            problem, AbcdConfig(seed=3), EvalCounter(cap=2000))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert result.subproblems > 0
    assert metrics["direct.solve_calls"][0] == result.subproblems
    assert metrics["abcd.subproblems"][0] == 0
    assert metrics["abcd.make_subproblem_s"][0] == 0.0
    assert tracer.calls["block_objective"] == 0
    assert tracer.calls["Problem.__call__"] == tracer.evals == result.evals


# two pins of tests/test_eval_sequence.py: coordinate-only with two
# restarts, and polish-first through every phase with one restart
PHASES = {
    "abcd-coordinate-S5-seed0": (("S5", None), 3000, 0,
                                 dict(coordinate_only=True), 2),
    "abcd-sqp-first-griewank-4-seed3": (("griewank", 4), 10000, 3,
                                        dict(sqp_first=True), 1),
}


@pytest.mark.parametrize("case", sorted(PHASES))
def test_every_abcd_evaluation_is_counted_in_a_phase(monkeypatch, case):
    # the tracer counts ABCD's evaluations at `choose_start`, `direct_solve`
    # and `sqp_local`, which it patches where `abcdirect.abcd` looks them
    # up: a solver that reached them another way would drop out unseen
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    (name, dim), cap, seed, config, restarts = PHASES[case]
    tracer = Tracer().install()
    try:
        result = runner_mod.abcd_solve(
            get_function(name, dim)[0],
            AbcdConfig(seed=seed, **config), EvalCounter(cap=cap))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    phases = [metrics[f"abcd.evals_{phase}"][0]
              for phase in ("start", "direct", "local")]
    assert sum(phases) == result.evals == tracer.evals
    assert metrics["abcd.restarts"][0] == restarts
    assert (phases[2] > 0) == ("sqp_first" in config)


# digests and counts pinned in tests/test_eval_sequence.py, whose
# `test_polish_only_drops_repeats` also checks the two runs with a polish
# against their sequences before the polish stopped repeating points
PINNED = {
    "direct-rastrigin-4": (
        lambda p: runner_mod.direct_solve(
            p, DirectConfig(max_evals=3000, target_accuracy=0.0)),
        ("rastrigin", 4),
        "9d517abe0d6b1dadbdca69050f01d1a71758ae5c431fc5a605a93d27dd9b33bd",
        3005),
    "abcd-griewank-6-seed3": (
        lambda p: runner_mod.abcd_solve(p, AbcdConfig(seed=3),
                                        EvalCounter(cap=4000)),
        ("griewank", 6),
        "2963b9ecca758b871368cc75184e2ec87da141a36f60a32bb370e0dd90ff1f12",
        4000),
    "sqp-S5-seed0": (
        lambda p: runner_mod._run_sqp(p, 0, EvalCounter(cap=2000)),
        ("S5", None),
        "6eb0b98b5bd0198a662123a1d737a5d1bb5b9d0596c7877597f596a546a29d72",
        377),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_digest_equals_the_pinned_sequence(monkeypatch, case):
    # `--trace 1` reports the tracer's digest of the evaluation sequence;
    # on a pinned run it must equal the digest the pin records
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    solve, (name, dim), want_digest, want_count = PINNED[case]
    tracer = Tracer().install()
    try:
        solve(get_function(name, dim)[0])  # kernels bind at build time
    finally:
        tracer.uninstall()
    assert (tracer.digest.hexdigest(), tracer.evals) == (want_digest,
                                                         want_count)
    assert tracer.metrics()["functions.calls"][0] == want_count
