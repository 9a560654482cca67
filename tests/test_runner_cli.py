"""Benchmark runner protocol, suite aggregation and the command line."""

import csv
import itertools
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import abcdirect.problem as problem_mod
import abcdirect.runner as runner_mod
from abcdirect.cli import main
from abcdirect.functions import get_function
from abcdirect.problem import ConfigError, Reason
from abcdirect.runner import (
    ALGORITHMS,
    RunReport,
    RunSpec,
    aggregate,
    export_trace,
    run_one,
    run_single,
    run_suite,
)


# RunSpec values that no run can use, one field at a time
BAD_VALUES = [("poh_eps", 0.0), ("poh_eps", -1e-4), ("poh_eps", math.nan),
              ("target_accuracy", -1e-4), ("target_accuracy", math.nan),
              ("max_wall_seconds", 0.0), ("max_wall_seconds", -1.0),
              ("m1", 0), ("m2", 0), ("t1", 0), ("switch_eps", 0.0),
              ("switch_eps", math.nan), ("seed", -1)]

# RunSpec values of the wrong type, one field at a time; a bool is no
# integer or number here
MISTYPED_VALUES = [("dim", "2"), ("dim", 2.0), ("max_evals", 100.5),
                   ("seed", "x"), ("seed", None), ("repetitions", 2.5),
                   ("repetitions", True), ("m1", 1.0), ("m2", "2"),
                   ("t1", False), ("sqp_first", 1), ("sqp_first", "yes"),
                   ("target_accuracy", "1e-4"), ("max_wall_seconds", True),
                   ("switch_eps", None), ("poh_eps", [1e-4])]


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec(function="sphere", dim=3)
        assert spec.algorithm == "abcd"
        assert spec.max_evals == 200000
        assert spec.target_accuracy == 1e-4
        assert spec.max_wall_seconds is None

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            RunSpec(function="sphere", dim=2, algorithm="genetic")

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            RunSpec(function="sphere", dim=2, repetitions=0)
        with pytest.raises(ConfigError):
            RunSpec(function="sphere", dim=2, max_evals=0)

    @pytest.mark.parametrize("field,value", BAD_VALUES + MISTYPED_VALUES)
    def test_rejects_values_no_run_can_use(self, field, value):
        # DIRECT's POH selection needs poh_eps > 0, a negative accuracy is
        # never reached, a spent time budget stops every run before its
        # first evaluation, and ABCD needs block sizes and t1 of at least
        # one and a positive switch_eps; a mistyped value used to pass, or
        # to fail only inside the run
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RunSpec(**{"function": "sphere", "dim": 2, field: value})

    def test_accepts_the_edges(self):
        RunSpec(function="sphere", dim=2, target_accuracy=0.0,
                max_wall_seconds=1e-3, poh_eps=1e-12)
        RunSpec(function="sphere", dim=None, max_wall_seconds=None,
                switch_eps=1, m1=1, m2=1, t1=1, sqp_first=True)


class TestRunSingle:
    def test_target_termination_and_accuracy_invariant(self):
        spec = RunSpec(function="sphere", dim=3, algorithm="abcd",
                       max_evals=20000, max_wall_seconds=None, repetitions=1)
        rep = run_single(spec, 0)
        assert rep.termination == "target_reached"
        assert abs(rep.best_f - 0.0) <= spec.target_accuracy
        assert rep.evals <= spec.max_evals

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_all_algorithms_produce_reports(self, algo):
        spec = RunSpec(function="sphere", dim=2, algorithm=algo,
                       max_evals=3000, max_wall_seconds=None, repetitions=1)
        rep = run_single(spec, 0)
        assert rep.algorithm == algo
        assert np.isfinite(rep.best_f)
        assert rep.termination in {r.value for r in Reason}
        assert len(rep.best_x) == 2

    def test_repetition_offsets_seed(self):
        spec = RunSpec(function="rastrigin", dim=2, algorithm="abcd",
                       max_evals=2000, max_wall_seconds=None,
                       seed=10, repetitions=2)
        r0, r1 = run_one(spec)
        assert r0.seed == 10 and r1.seed == 11

    def test_success_requires_actual_accuracy(self):
        # tiny budget: the reported termination may never claim the target
        # unless the gap really is inside the tolerance
        spec = RunSpec(function="rosenbrock", dim=8, algorithm="direct",
                       max_evals=300, max_wall_seconds=None, repetitions=1)
        rep = run_single(spec, 0)
        hit = abs(rep.best_f - 0.0) <= spec.target_accuracy
        assert (rep.termination == "target_reached") == hit

    def test_coordinate_only_stops_on_target_before_restart(self):
        # this run reaches the target inside the stalled subproblem that
        # would trigger a restart; the counter stops it at that evaluation,
        # its first within the target, so no fresh start sample is drawn
        # (the run used to end at 881 evaluations)
        spec = RunSpec("H6", algorithm="abcd-coordinate", max_evals=2000,
                       max_wall_seconds=None, seed=16, repetitions=1)
        rep = run_single(spec, 0)
        assert rep.termination == "target_reached"
        assert rep.evals == 869

    def test_sqp_polish_checks_time_budget(self, monkeypatch):
        # a clock that every reading advances by one second: the counter
        # reads it once when armed (1 s, so the deadline is 11.5 s) and once
        # per charge, so the eleventh charge (12 s) is past the deadline and
        # the run ends after its start sample of 8 points, the polish's
        # start point and one gradient probe
        clock = itertools.count(1)
        monkeypatch.setattr(problem_mod, "time",
                            SimpleNamespace(monotonic=lambda: next(clock)))
        spec = RunSpec("rastrigin", 4, algorithm="sqp", max_wall_seconds=10.5,
                       repetitions=1)
        rep = run_single(spec, 0)
        assert rep.termination == "time_budget"
        assert rep.evals == 8 + 1 + 1
        problem = get_function("rastrigin", 4)[0]
        assert rep.best_f == problem(np.array(rep.best_x))

    def test_report_json_round_trip(self):
        spec = RunSpec(function="sphere", dim=2, algorithm="direct",
                       max_evals=1000, max_wall_seconds=None, repetitions=1)
        rep = run_single(spec, 0)
        decoded = json.loads(rep.to_json())
        assert decoded["function"] == "sphere"
        assert decoded["best_f"] == rep.best_f
        assert decoded["trace"][0][0] == rep.trace[0][0]


class TestAggregate:
    def make_report(self, fn, algo, term, evals, rep=0, dim=2):
        return RunReport(function=fn, dim=dim, algorithm=algo, seed=rep,
                         repetition=rep, best_f=0.0, best_x=[0.0, 0.0],
                         evals=evals, elapsed_seconds=0.0, termination=term)

    def test_success_counts_and_medians(self):
        reports = [
            self.make_report("f", "a", "target_reached", 100, 0),
            self.make_report("f", "a", "target_reached", 300, 1),
            self.make_report("f", "a", "eval_budget", 1000, 2),
            self.make_report("f", "b", "target_reached", 500, 0),
        ]
        suite = aggregate(reports)
        assert suite.success_counts[("f", 2, "a")] == 2
        assert suite.median_evals[("f", 2, "a")] == 200
        assert suite.winning_ratio == {"a": 1.0, "b": 0.0}

    def test_no_success_case_has_no_winner(self):
        reports = [self.make_report("f", "a", "eval_budget", 100)]
        suite = aggregate(reports)
        assert suite.median_evals[("f", 2, "a")] is None
        assert suite.winning_ratio["a"] == 0.0

    def test_summary_rows_sorted(self):
        reports = [
            self.make_report("b", "a", "target_reached", 10),
            self.make_report("a", "a", "target_reached", 10),
        ]
        rows = aggregate(reports).summary_rows()
        assert [r["function"] for r in rows] == ["a", "b"]


class TestRunSuite:
    def test_errors_become_rows(self):
        specs = [RunSpec(function="sphere", dim=2, algorithm="direct",
                         max_evals=500, max_wall_seconds=None, repetitions=1),
                 RunSpec(function="ackley", algorithm="direct",
                         max_evals=500, repetitions=1)]  # missing dim
        for parallelism in (1, 2):
            suite = run_suite(specs, parallelism=parallelism)
            assert len(suite.reports) == 2
            errored = [r for r in suite.reports if r.best_f == float("inf")]
            assert len(errored) == 1
            assert errored[0].function == "ackley"
            assert errored[0].termination == "error"

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite([])

    def test_workers_capped_at_the_suite_size(self, monkeypatch):
        # the pool forks every worker it is given at its first submit; a
        # stand-in records the size it is asked for and runs in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", RecordingPool)
        spec = RunSpec(function="sphere", dim=2, algorithm="direct",
                       max_evals=50, max_wall_seconds=None, repetitions=1)
        assert len(run_suite([spec, spec], parallelism=64).reports) == 2
        assert len(run_suite([spec], parallelism=64).reports) == 1
        assert sizes == [2]      # one spec needs no pool

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_rejected(self, parallelism):
        spec = RunSpec(function="sphere", dim=2, algorithm="direct",
                       max_evals=50, max_wall_seconds=None, repetitions=1)
        with pytest.raises(ConfigError, match="parallelism"):
            run_suite([spec], parallelism=parallelism)

    def test_report_sink_sees_every_report(self):
        got = []
        specs = [RunSpec(function="sphere", dim=2, algorithm="direct",
                         max_evals=500, max_wall_seconds=None, repetitions=2)]
        run_suite(specs, report_sink=got.append)
        assert len(got) == 2


class TestExportTrace:
    def test_csv_round_trip_exact(self, tmp_path):
        spec = RunSpec(function="sphere", dim=2, algorithm="direct",
                       max_evals=800, max_wall_seconds=None, repetitions=1)
        rep = run_single(spec, 0)
        path = tmp_path / "trace.csv"
        export_trace(rep, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eval", "phase", "f"]
        assert len(rows) == len(rep.trace) + 1
        for row, (e, phase, f) in zip(rows[1:], rep.trace):
            assert int(row[0]) == e
            assert row[1] == phase
            assert float(row[2]) == f     # repr round-trips doubles exactly

    def test_unwritable_path_raises_oserror(self, tmp_path):
        rep = run_single(RunSpec(function="sphere", dim=2, algorithm="direct",
                                 max_evals=200, max_wall_seconds=None,
                                 repetitions=1), 0)
        with pytest.raises(OSError):
            export_trace(rep, tmp_path / "missing" / "trace.csv")


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_list_functions(self):
        res = self.invoke("list-functions")
        assert res.exit_code == 0
        assert "sphere" in res.output
        assert "SHU" in res.output

    def test_run_with_flags(self, tmp_path):
        report = tmp_path / "out.jsonl"
        res = self.invoke("run", "--function", "sphere", "--dim", "2",
                          "--algo", "direct", "--max-evals", "1000",
                          "--reps", "1", "--report-out", str(report))
        assert res.exit_code == 0, res.output
        rows = [json.loads(line) for line in
                report.read_text().splitlines()]
        assert rows[0]["algorithm"] == "direct"

    def test_run_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "sphere", "dim": 2,
                                   "algorithm": "direct", "max_evals": 500,
                                   "repetitions": 1}))
        res = self.invoke("run", "--config", str(cfg), "--algo", "sqp")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output.splitlines()[0])["algorithm"] == "sqp"

    def test_trace_out_per_repetition(self, tmp_path):
        res = self.invoke("run", "--function", "sphere", "--dim", "2",
                          "--algo", "direct", "--max-evals", "500",
                          "--reps", "2", "--report-out", "-",
                          "--trace-out", str(tmp_path / "t{rep}.csv"))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "t0.csv").exists()
        assert (tmp_path / "t1.csv").exists()

    def test_missing_function_is_config_error(self):
        res = self.invoke("run", "--algo", "direct")
        assert res.exit_code == 1

    def test_nan_switch_eps_is_config_error(self):
        # a NaN threshold used to pass and keep ABCD in its coordinate
        # phase for the whole run
        res = self.invoke("run", "--function", "S5", "--algo", "abcd",
                          "--switch-eps", "nan", "--max-evals", "200",
                          "--reps", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "configuration error" in res.output
        assert "switch_eps" in res.output

    def test_negative_seed_is_config_error(self):
        # np.random.SeedSequence rejects it: it used to end in a
        # ValueError traceback once the run seeded its streams
        res = self.invoke("run", "--function", "sphere", "--dim", "2",
                          "--algo", "abcd", "--seed", "-1", "--max-evals",
                          "100", "--reps", "1")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "configuration error: seed must be" in res.output

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "sphere", "dim": 2,
                                   "bogus_key": 1}))
        res = self.invoke("run", "--config", str(cfg))
        assert res.exit_code == 1

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("config", [[], [1], [{"function": "sphere"}, 1],
                                        ["sphere"], [None]])
    def test_malformed_config_is_config_error(self, tmp_path, command,
                                              config):
        # an uncaught exception also exits 1, so the message and the
        # SystemExit are what tell a rejected config from a crash
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = self.invoke(command, "--config", str(cfg))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "configuration error" in res.output

    def test_run_rejects_a_config_with_several_specs(self, tmp_path):
        # `run` runs one spec; a list of several would otherwise lose all
        # but the first without a word
        spec = {"function": "sphere", "dim": 2, "algorithm": "direct",
                "max_evals": 200, "repetitions": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([spec, dict(spec, function="rastrigin")]))
        res = self.invoke("run", "--config", str(cfg))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "configuration error" in res.output
        assert "suite" in res.output
        cfg.write_text(json.dumps([spec]))
        res = self.invoke("run", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert json.loads(res.output.splitlines()[0])["function"] == "sphere"

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("field,value", BAD_VALUES + MISTYPED_VALUES)
    def test_unusable_spec_value_is_config_error(self, tmp_path, command,
                                                 field, value):
        # rejected before any run: no traceback, and no `error` row in a
        # suite
        spec = {"function": "sphere", "dim": 2, "algorithm": "direct",
                "max_evals": 200, "repetitions": 1, field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([spec]))
        out = tmp_path / "reports.jsonl"
        res = self.invoke(command, "--config", str(cfg), "--report-out",
                          str(out))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"configuration error: {field} must be" in res.output
        assert not out.exists()

    def test_unreadable_config_is_io_error(self):
        res = self.invoke("run", "--config", "/nonexistent/cfg.json")
        assert res.exit_code == 2

    def test_suite_rejects_parallel_below_one(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([
            {"function": "sphere", "dim": 2, "algorithm": "direct",
             "max_evals": 50, "repetitions": 1, "max_wall_seconds": None}]))
        res = self.invoke("suite", "--config", str(cfg), "--parallel", "0")
        assert res.exit_code == 1
        assert "configuration error: parallelism" in res.output

    def test_suite_summary(self, tmp_path):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([
            {"function": "sphere", "dim": 2, "algorithm": "direct",
             "max_evals": 1000, "repetitions": 1, "max_wall_seconds": None},
            {"function": "sphere", "dim": 2, "algorithm": "abcd",
             "max_evals": 1000, "repetitions": 1, "max_wall_seconds": None},
        ]))
        out = tmp_path / "reports.jsonl"
        res = self.invoke("suite", "--config", str(cfg),
                          "--report-out", str(out))
        assert res.exit_code == 0, res.output
        assert len(out.read_text().splitlines()) == 2
        assert "winning ratio" in res.output


def test_readme_names_every_termination_reason():
    # the README's termination list is the `Reason` vocabulary, no more and
    # no less
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("`termination` is its value:", 1)[1]
    section = section.split("`error` is not a `Reason`", 1)[0]
    named = set(re.findall(r"^  - `([a-z_]+)`:", section, re.MULTILINE))
    assert named == {r.value for r in Reason}
