"""Smoke test of the benchmark's run-time tracer, `bench/tracer.py`.

The tracer wraps package functions by the names their callers look them up
by, so a refactor under `src/` can break `bench/run.py --trace 1` while every
other test passes.
"""

from pathlib import Path

import abcdirect.abcd as abcd_mod
import abcdirect.runner as runner_mod
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
    # `direct.add_s` / `direct.rekey_s` unseen. The run reaches its target,
    # so no budget cuts a division short: one `add` per evaluation (the
    # center and two per probed dimension) and one `rekey` per division.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        report = runner_mod.run_single(
            RunSpec("BR", algorithm="direct", max_evals=300, repetitions=1), 0)
    finally:
        tracer.uninstall()
    assert report.termination == "target_reached"
    metrics = tracer.metrics()
    assert metrics["direct.add_calls"][0] == tracer.evals == report.evals
    assert (metrics["direct.rekey_calls"][0]
            == metrics["direct.divide_calls"][0] > 0)
