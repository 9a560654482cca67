"""Layered benchmark of abcdirect.

    python3 bench/run.py --workload jones --seed 0 --seconds 30 --trace 0

Runs one workload in this process, with no threads, through
`abcdirect.runner.run_single`, one run after another (a closed loop), and
checks every run. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from a
separate traced pass (see `tracer.py`). Run it from the repository root; the
package is imported from `src/`.

Workloads (the seed becomes `RunSpec.seed`; plain DIRECT ignores it):

* `jones`: the nine Jones functions with `direct`, `abcd-coordinate`, `abcd`
  and `sqp`, to 1e-4 under a 2000-evaluation budget. Many short,
  low-dimensional runs; data-table kernels; the largest share of `local` and
  `runner`.
* `direct-hedar12`: plain DIRECT on the Hedar functions at n = 12 that have a
  reference optimum there, 12000 evaluations each. Large partitions, cheap
  kernels; `abcd` and `local` are idle.
* `abcd-hedar18`: ABCD on the Hedar functions at n = 18 that have a reference
  optimum there, to 1e-4 under a 5000-evaluation budget. Many tiny
  one-coordinate DIRECT subproblems and an 18-dimensional polish.

The seed-dependent specs run several repetitions per workload seed
(`RunSpec.seed = seed * reps`, so the run seeds of two workload seeds never
overlap): single runs of a randomized solver hit or miss the target by luck,
and the workload totals would otherwise swing from seed to seed.

The end-to-end metrics:

* `wall_s`: time of one pass over all runs of the workload at the reference
  host speed: the sum over the runs of each run's median scaled time over the
  passes made in `--seconds` (the passes go round the runs until the time is
  up, so the last one is partial). A run's scaled time is its time times
  `REFERENCE_S` / the host speed reference timed around it (`hostspeed.py`);
  the time as timed is printed next to it;
* `evals_per_s`: `evals` / `wall_s`;
* `evals`: evaluations of one pass; a run that raises counts its budget;
* `success_ratio`: runs within 1e-4 of the reference optimum / runs; a run
  that raises or fails a check is a miss;
* `gap_log10_mean`: mean of log10(max(|best_f - f*|, 1e-4)) over the runs
  that returned;
* `setup_s`: median, over fresh interpreters, of the time to import
  `abcdirect` and build every problem of the workload, scaled to the
  reference host speed in the same way;
* `peak_rss_mb`: peak resident memory of this process after the timed passes.

The per-layer times of `--trace 1` (`setup.*` aside) are as timed: timing the
reference inside the traced pass would add to the layers' self times.

Each run is checked outside the timed region: re-evaluating the registered
function at `best_x` must give `best_f` bit for bit, `evals` may not exceed
the budget, `target_reached` must hold exactly when the gap is within the
target, and every pass must repeat the first one's results. Every plain
DIRECT run is re-run with `keep_state=True` and its final partition must
tile the box exactly (`volume_fraction == 1`).
"""

import os

# box_qp_step calls eigvalsh: one BLAS thread here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_S, reference_seconds  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TARGET = 1e-4
SETUP_PROBES = 15
JONES_BUDGET, JONES_REPS = 2000, 8
HEDAR12_BUDGET = 12000
HEDAR18_BUDGET, HEDAR18_REPS = 5000, 6
REFERENCE_BUDGET = 20000
WORKLOADS = ("jones", "direct-hedar12", "abcd-hedar18")


def workload_runs(name: str, seed: int) -> list:
    """The (RunSpec, repetition) pairs of one pass, in run order."""
    from abcdirect.functions.registry import (
        HEDAR_NAMES, JONES_NAMES, get_function)
    from abcdirect.runner import RunSpec

    def spec(function, algorithm, budget, reps, dim=None):
        return RunSpec(function=function, dim=dim, algorithm=algorithm,
                       target_accuracy=TARGET, max_evals=budget,
                       max_wall_seconds=None, seed=seed * reps,
                       repetitions=reps)

    def with_optimum(dim):
        return [f for f in HEDAR_NAMES
                if get_function(f, dim)[1].f_star is not None]

    if name == "jones":
        specs = [spec(f, "direct", JONES_BUDGET, 1) for f in JONES_NAMES]
        specs += [spec(f, algo, JONES_BUDGET, JONES_REPS)
                  for algo in ("abcd-coordinate", "abcd", "sqp")
                  for f in JONES_NAMES]
    elif name == "direct-hedar12":
        specs = [spec(f, "direct", HEDAR12_BUDGET, 1, 12)
                 for f in with_optimum(12)]
    else:
        specs = [spec(f, "abcd", HEDAR18_BUDGET, HEDAR18_REPS, 18)
                 for f in with_optimum(18)]
    return [(s, r) for s in specs for r in range(s.repetitions)]


def measure_setup(problems: list) -> tuple:
    """Median import and problem-building seconds over fresh interpreters,
    each scaled to the reference host speed by the reference time of its own
    interpreter (see `hostspeed.py`)."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
           json.dumps(problems)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:  # the first one warms the file cache and writes bytecode
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for s in samples:
        s["scale"] = REFERENCE_S / s["reference_s"]
    imp = statistics.median(s["import_s"] * s["scale"] for s in samples)
    prob = statistics.median(s["problems_s"] * s["scale"] for s in samples)
    total = statistics.median((s["import_s"] + s["problems_s"]) * s["scale"]
                              for s in samples)
    return total, imp, prob


def run_pass(runner, runs: list, deadline=math.inf, scale=False) -> list:
    """One closed-loop pass, cut short at `deadline` (a perf_counter time);
    each entry is (report or None, error, seconds, scaled seconds or None).
    With `scale`, the host speed reference is timed before the first run and
    after every run, and each run's time is scaled by the mean of the two
    reference times around it (see `hostspeed.py`)."""
    outcomes = []
    perf = time.perf_counter
    ref_before = reference_seconds() if scale else None
    for spec, rep in runs:
        t0 = perf()
        if t0 >= deadline:
            break
        try:
            report = runner.run_single(spec, rep)
            report.to_json()
            error = None
        except Exception:  # a failed run is counted, the pass goes on
            report, error = None, traceback.format_exc()
        seconds, scaled = perf() - t0, None
        if scale:
            ref_after = reference_seconds()
            scaled = seconds * 2 * REFERENCE_S / (ref_before + ref_after)
            ref_before = ref_after
        outcomes.append((report, error, seconds, scaled))
    return outcomes


def check_pass(runs, outcomes, problems, reference=None) -> dict:
    """Failure messages by run index for one pass (run outside timing)."""
    import numpy as np

    failures = {}
    for i, ((spec, rep), (report, error, *_)) in enumerate(zip(runs, outcomes)):
        label = f"{spec.function}/{spec.algorithm}/seed {spec.seed + rep}"
        if report is None:
            failures[i] = f"{label}: raised {error}"
            continue
        problem, meta = problems[(spec.function, spec.dim)]
        again = problem(np.asarray(report.best_x, dtype=float))
        errors = []
        if struct.pack("<d", again) != struct.pack("<d", report.best_f):
            errors.append(f"f(best_x) = {again!r} != best_f {report.best_f!r}")
        if report.evals > spec.max_evals:
            errors.append(f"evals {report.evals} > budget {spec.max_evals}")
        hit = abs(report.best_f - meta.f_star) <= spec.target_accuracy
        if (report.termination == "target_reached") != hit:
            errors.append(f"termination {report.termination} but gap "
                          f"{abs(report.best_f - meta.f_star)!r}")
        if reference is not None and reference[i][0] is not None:
            first = reference[i][0]
            if (first.best_f, first.evals, first.termination) != (
                    report.best_f, report.evals, report.termination):
                errors.append("result differs from the first pass")
        if errors:
            failures[i] = f"{label}: " + "; ".join(errors)
    return failures


def certify(runs, outcomes, problems) -> dict:
    """Re-run every plain-DIRECT run keeping its partition, and require an
    exact tiling of the box and the same result as the timed run."""
    from abcdirect.direct import DirectConfig, direct_solve, volume_fraction
    from abcdirect.problem import EvalCounter

    failures = {}
    for i, ((spec, _), (report, *_)) in enumerate(zip(runs, outcomes)):
        if spec.algorithm != "direct" or report is None:
            continue
        problem, _ = problems[(spec.function, spec.dim)]
        cfg = DirectConfig(poh_eps=spec.poh_eps, max_evals=spec.max_evals,
                           target_accuracy=spec.target_accuracy,
                           max_seconds=spec.max_wall_seconds)
        res = direct_solve(problem, cfg, counter=EvalCounter(
            cap=spec.max_evals), keep_state=True)
        volume = volume_fraction(res.state)
        if volume != 1:
            failures[i] = f"{spec.function}: partition volume {volume} != 1"
        elif (res.f_min, res.evals) != (report.best_f, report.evals):
            failures[i] = f"{spec.function}: keep_state re-run differs"
    return failures


def quality(runs, outcomes, problems) -> tuple:
    """(evals, hits, mean log10 gap) of one pass."""
    evals, hits, gaps = 0, 0, []
    for (spec, _), (report, *_) in zip(runs, outcomes):
        if report is None:
            evals += spec.max_evals
            continue
        f_star = problems[(spec.function, spec.dim)][1].f_star
        gap = abs(report.best_f - f_star)
        evals += report.evals
        hits += gap <= spec.target_accuracy
        gaps.append(math.log10(max(gap, TARGET)))
    return evals, hits, (statistics.fmean(gaps) if gaps else math.inf)


def scipy_reference(runner) -> None:
    """Print evaluations to 1e-4 of our DIRECT and of scipy.optimize.direct
    (Gablonsky's DIRECT, not locally biased) on the Jones functions, both
    under REFERENCE_BUDGET. Reported, never gated."""
    from abcdirect.functions.registry import JONES_NAMES, get_function
    from abcdirect.runner import RunSpec
    from scipy.optimize import direct as scipy_direct

    print(f"reference: evaluations to {TARGET:g}, budget {REFERENCE_BUDGET}")
    print(f"  {'function':9s} {'direct':>8s} {'scipy':>8s}")
    missed = f">{REFERENCE_BUDGET}"
    for name in JONES_NAMES:
        problem, meta = get_function(name)
        ours = runner.run_single(RunSpec(
            function=name, algorithm="direct", target_accuracy=TARGET,
            max_evals=REFERENCE_BUDGET, max_wall_seconds=None), 0)
        first_hit, count = None, 0

        def objective(x):
            nonlocal first_hit, count
            count += 1
            value = problem(x)
            if first_hit is None and abs(value - meta.f_star) <= TARGET:
                first_hit = count
            return value

        scipy_direct(objective, list(zip(problem.bounds.lower,
                                         problem.bounds.upper)),
                     maxfun=REFERENCE_BUDGET, locally_biased=False,
                     f_min=meta.f_star, f_min_rtol=TARGET / abs(meta.f_star))
        mine = (ours.evals if ours.termination == "target_reached"
                else missed)
        theirs = first_hit if first_hit is not None else missed
        print(f"  {name:9s} {mine!s:>8s} {theirs!s:>8s}")


def print_layer_table(workload, tracer, wall) -> None:
    from tracer import LAYERS

    selfs = tracer.layer_self_s()
    print(f"layer self time, {workload}, traced pass of {wall:.3f} s:")
    for layer in LAYERS:
        print(f"  {layer:10s} {selfs[layer]:9.3f} s {100 * selfs[layer] / wall:6.1f}%")
    print(f"  {'sum':10s} {sum(selfs.values()):9.3f} s")


class Ledger:
    """Checks every pass against the first and collects the failures."""

    def __init__(self, runs, problems):
        self.runs, self.problems = runs, problems
        self.first = None
        self.attempted = 0
        self.failures: dict = {}

    def account(self, outcomes, label) -> None:
        self.attempted += len(outcomes)
        failed = check_pass(self.runs, outcomes, self.problems, self.first)
        self.failures.update({(label, i): m for i, m in failed.items()})
        if self.first is None:
            self.first = outcomes


def end_to_end(args, runner, runs, ledger, setup_s) -> dict:
    """Closed-loop passes for --seconds; the first pass always completes and
    the last one is cut off when the time is up."""
    deadline = time.perf_counter() + args.seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        passes.append(run_pass(runner, runs, deadline if passes else math.inf,
                               scale=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for n, outcomes in enumerate(passes):
        ledger.account(outcomes, ("pass", n))

    def one_pass(column):
        return sum(statistics.median(p[i][column] for p in passes if i < len(p))
                   for i in range(len(runs)))

    wall = one_pass(3)
    evals, hits, gap = quality(runs, ledger.first, ledger.problems)
    print(f"{args.workload}: {len(runs)} runs a pass; pass seconds "
          + " ".join(f"{sum(o[2] for o in p):.3f}" for p in passes))
    print(f"one pass: {one_pass(2):.3f} s as timed, {wall:.3f} s at the "
          "reference host speed")
    return {
        "wall_s": (wall, "s"),
        "evals_per_s": (evals / wall, "1/s"),
        "evals": (evals, "count"),
        "success_ratio": (hits / len(runs), "ratio"),
        "gap_log10_mean": (gap, "log10"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(args, runner, runs, ledger, import_s, problems_s) -> dict:
    """Pairs of an untraced and a traced pass until --seconds is used up
    (at least one pair); reports the traced pass of median wall time."""
    from tracer import Tracer

    start = time.perf_counter()
    plain, traced = [], []  # (seconds, outcomes[, tracer])
    while True:
        gc.collect()
        t0 = time.perf_counter()
        outcomes = run_pass(runner, runs)
        plain.append((time.perf_counter() - t0, outcomes))
        gc.collect()
        tracer = Tracer().install()
        try:
            outcomes, seconds = tracer.root(run_pass, runner, runs)
        finally:
            tracer.uninstall()
        traced.append((seconds, outcomes, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1][0] + seconds > args.seconds:
            break
    for n, (_, outcomes) in enumerate(plain):
        ledger.account(outcomes, ("pass", n))
    for n, (_, outcomes, _) in enumerate(traced):
        ledger.account(outcomes, ("traced pass", n))
    if len({t.digest.hexdigest() for _, _, t in traced}) != 1:
        ledger.failures["digest"] = "evaluation digests differ between passes"
    traced.sort(key=lambda entry: entry[0])
    wall, _, tracer = traced[(len(traced) - 1) // 2]
    plain_wall = statistics.median(s for s, _ in plain)
    metrics = {
        "setup.import_s": (import_s, "s"),
        "setup.problems_s": (problems_s, "s"),
        **tracer.metrics(),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / plain_wall - 1.0, "ratio"),
    }
    print_layer_table(args.workload, tracer, wall)
    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={tracer.digest.hexdigest()}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **tracer.dump()}, separators=(",", ":")))
    print(f"spans and counters written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "abcdirect" / "__init__.py").is_file():
        print(f"abcdirect sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from abcdirect import runner
    from abcdirect.functions import get_function

    runs = workload_runs(args.workload, args.seed)
    keys = list(dict.fromkeys((s.function, s.dim) for s, _ in runs))
    setup_s, import_s, problems_s = measure_setup(keys)
    ledger = Ledger(runs, {k: get_function(*k) for k in keys})
    if args.trace:
        metrics = per_layer(args, runner, runs, ledger, import_s, problems_s)
    else:
        metrics = end_to_end(args, runner, runs, ledger, setup_s)

    for i, msg in certify(runs, ledger.first, ledger.problems).items():
        ledger.failures[("certificate", i)] = msg
    if args.workload == "jones":
        scipy_reference(runner)
    for msg in ledger.failures.values():
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
