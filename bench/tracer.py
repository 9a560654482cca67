"""Run-time tracing of the abcdirect layers from outside the package.

`Tracer.install()` replaces the public entry points of each layer with timing
wrappers, at the name each caller looks them up by (so
`abcdirect.abcd.direct_solve` and `abcdirect.runner.direct_solve` are wrapped
separately), and `Tracer.uninstall()` puts the originals back. Nothing under
`src/` changes.

Two kinds of boundary are recorded:

* spans, at the solver-level calls (`run_single`, `abcd_solve`,
  `choose_start`, `direct_solve`, `sqp_local`, `identify_poh`,
  `sample_and_divide`, `fd_gradient`, `box_qp_step`, `RunReport.to_json`):
  one record each, with a name, start, end, parent span and the id of the
  run it belongs to;
* counters, at the per-evaluation calls (kernel, `Problem.__call__`,
  `NormalizedProblem.__call__`, the block-subproblem objective,
  `EvalCounter.charge`, `PartitionState.add` / `rekey`, `measure`,
  `make_subproblem`): a call count and accumulated time only, which keeps the
  trace bounded.

Every boundary, span or counter, pushes a frame on one stack. Its self time is
its duration minus the durations of the frames directly inside it, so the self
times of all boundaries under a root frame add up to the root's duration
exactly. The wrappers' own cost lands in the self time of the enclosing
frame; `trace.overhead_ratio` in the benchmark reports how much that is.

The kernel wrapper also feeds every evaluated point and value, in order, into
a sha256 digest of the evaluation sequence.
"""

from __future__ import annotations

import hashlib
import struct
import time
from collections import defaultdict
from functools import partial

import abcdirect.abcd as abcd_mod
import abcdirect.direct as direct_mod
import abcdirect.local as local_mod
import abcdirect.problem as problem_mod
import abcdirect.runner as runner_mod
from abcdirect.functions import registry
from abcdirect.local import LocalStatus

#: layer of every boundary key; a layer is one module of the package
LAYER = {
    "kernel": "functions",
    "Problem.__call__": "problem",
    "NormalizedProblem.__call__": "problem",
    "block_objective": "problem",
    "EvalCounter.charge": "problem",
    "direct_solve": "direct",
    "identify_poh": "direct",
    "sample_and_divide": "direct",
    "add": "direct",
    "rekey": "direct",
    "measure": "direct",
    "abcd_solve": "abcd",
    "choose_start": "abcd",
    "make_subproblem": "abcd",
    "sqp_local": "local",
    "fd_gradient": "local",
    "box_qp_step": "local",
    "pass": "runner",
    "run_single": "runner",
    "to_json": "runner",
}
LAYERS = ("functions", "problem", "direct", "abcd", "local", "runner")

_PACK_F = struct.Struct("<d").pack


class Tracer:
    """Spans, counters and the evaluation digest of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [run, name, start, end, parent]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.obs: dict[str, int] = defaultdict(int)  # derived counts
        self.evals = 0
        self.run_id = -1
        self.digest = hashlib.sha256()
        self._stack: list[list] = []  # [child seconds, span index or -1]
        self._span_stack: list[int] = []
        self._saved: list[tuple] = []

    # -- timing frames -----------------------------------------------------

    def _enter(self, span_name):
        idx = -1
        if span_name is not None:
            parent = self._span_stack[-1] if self._span_stack else -1
            idx = len(self.spans)
            self.spans.append([self.run_id, span_name, 0.0, 0.0, parent])
            self._span_stack.append(idx)
        frame = [0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, key, frame, t0, t1):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][0] += dur
        self.calls[key] += 1
        self.incl_s[key] += dur
        self.self_s[key] += dur - frame[0]
        if frame[1] >= 0:
            span = self.spans[frame[1]]
            span[2], span[3] = t0, t1
            self._span_stack.pop()

    def wrap(self, key, fn, span_name=None, before=None, after=None):
        """Time `fn` as boundary `key`. `before(args)` returns a token handed
        to `after(token, args, result)`; `after` also runs when `fn` raises,
        with result None."""
        perf = time.perf_counter
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = enter(span_name)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                exit_(key, frame, t0, t1)
                if after is not None:
                    after(token, args, result)

        return wrapper

    def root(self, fn, *args):
        """Call `fn(*args)` in the frame that encloses a whole traced pass;
        returns its result and the pass's seconds."""
        frame = self._enter("pass")
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._exit("pass", frame, t0, t1)
        return result, t1 - t0

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._saved.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((partial(setattr, owner), attr,
                                getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self):
        for setter, attr, original in reversed(self._saved):
            setter(attr, original)
        self._saved.clear()

    def install(self):
        """Wrap every boundary. Kernels are bound when `get_function` runs,
        so this must precede building the problems that are to be traced."""
        obs = self.obs
        digest_update = self.digest.update

        def evals_before(args):
            return self.evals

        # functions: kernels; the digest is taken outside the kernel's frame
        for name, kernel in list(registry.KERNELS.items()):
            def traced_kernel(x, _k=self.wrap("kernel", kernel)):
                value = _k(x)
                digest_update(x.tobytes())
                digest_update(_PACK_F(float(value)))
                return value
            self._patch(registry.KERNELS, name, traced_kernel)

        # problem: the evaluation wrapper stack
        self._patch(problem_mod.Problem, "__call__",
                    self.wrap("Problem.__call__",
                              problem_mod.Problem.__call__))
        self._patch(problem_mod.NormalizedProblem, "__call__",
                    self.wrap("NormalizedProblem.__call__",
                              problem_mod.NormalizedProblem.__call__))
        charge = problem_mod.EvalCounter.charge

        def counted_charge(counter):
            charge(counter)
            self.evals += 1
        self._patch(problem_mod.EvalCounter, "charge",
                    self.wrap("EvalCounter.charge", counted_charge))

        # direct: partition bookkeeping, POH selection, division, the loop
        state_cls = direct_mod.PartitionState
        self._patch(state_cls, "add", self.wrap("add", state_cls.add))
        self._patch(state_cls, "rekey", self.wrap("rekey", state_cls.rekey))
        self._patch(direct_mod, "measure",
                    self.wrap("measure", direct_mod.measure))
        reps = state_cls.group_representatives

        def counted_reps(state):
            result = reps(state)
            obs["direct.groups"] += len(result)
            return result
        self._patch(state_cls, "group_representatives", counted_reps)

        def poh_after(token, args, result):
            if result is not None:
                obs["direct.poh_selected"] += len(result)
        self._patch(direct_mod, "identify_poh",
                    self.wrap("identify_poh", direct_mod.identify_poh,
                              "identify_poh", after=poh_after))

        def divide_before(args):
            state = args[1]
            return self.evals, state.f_min

        def divide_after(token, args, result):
            state = args[1]
            obs["direct.probes"] += self.evals - token[0]
            if state.f_min < token[1]:
                obs["direct.improving_divides"] += 1
            if state.size > obs["direct.rects_max"]:
                obs["direct.rects_max"] = state.size
        self._patch(direct_mod, "sample_and_divide",
                    self.wrap("sample_and_divide",
                              direct_mod.sample_and_divide,
                              "sample_and_divide",
                              before=divide_before, after=divide_after))

        def sub_solve_after(token, args, result):
            obs["abcd.evals_direct"] += self.evals - token
        self._patch(runner_mod, "direct_solve",
                    self.wrap("direct_solve", runner_mod.direct_solve,
                              "direct_solve"))
        self._patch(abcd_mod, "direct_solve",
                    self.wrap("direct_solve", abcd_mod.direct_solve,
                              "direct_solve", before=evals_before,
                              after=sub_solve_after))

        # abcd: the solver, its start sampler and subproblem construction
        def abcd_after(token, args, result):
            if result is None:
                return
            fs = [row[3] for row in result.trace]
            obs["abcd.trace_steps"] += max(len(fs) - 1, 0)
            obs["abcd.descents"] += sum(
                1 for prev, cur in zip(fs, fs[1:]) if cur < prev)
        self._patch(runner_mod, "abcd_solve",
                    self.wrap("abcd_solve", runner_mod.abcd_solve,
                              "abcd_solve", after=abcd_after))

        def start_after(token, args, result):
            obs["abcd.start_calls"] += 1
            obs["abcd.evals_start"] += self.evals - token
        self._patch(abcd_mod, "choose_start",
                    self.wrap("choose_start", abcd_mod.choose_start,
                              "choose_start", before=evals_before,
                              after=start_after))
        self._patch(runner_mod, "choose_start",
                    self.wrap("choose_start", runner_mod.choose_start,
                              "choose_start"))

        make_subproblem = abcd_mod.make_subproblem

        def traced_make_subproblem(problem, incumbent_x, idx):
            sub = make_subproblem(problem, incumbent_x, idx)
            return problem_mod.Problem(
                objective=self.wrap("block_objective", sub.objective),
                bounds=sub.bounds, known_optimum=sub.known_optimum)
        self._patch(abcd_mod, "make_subproblem",
                    self.wrap("make_subproblem", traced_make_subproblem))

        # local: the polish and its two kernels
        def local_before(args):
            return self.evals, obs["local.fd_evals"], obs["local.fd_calls"]

        def local_after(token, args, result):
            evals = self.evals - token[0]
            fd_evals = obs["local.fd_evals"] - token[1]
            fd_calls = obs["local.fd_calls"] - token[2]
            obs["local.evals"] += evals
            # one evaluation at x0, n per gradient, the rest are line-search
            # trials; every gradient after the first follows an accepted step
            obs["local.trials"] += max(evals - fd_evals - 1, 0)
            obs["local.accepted"] += max(fd_calls - 1, 0)
            if result is not None and result.status is LocalStatus.STATIONARY:
                obs["local.stationary"] += 1

        def abcd_local_after(token, args, result):
            local_after(token, args, result)
            obs["abcd.evals_local"] += self.evals - token[0]
        self._patch(runner_mod, "sqp_local",
                    self.wrap("sqp_local", runner_mod.sqp_local, "sqp_local",
                              before=local_before, after=local_after))
        self._patch(abcd_mod, "sqp_local",
                    self.wrap("sqp_local", abcd_mod.sqp_local, "sqp_local",
                              before=local_before, after=abcd_local_after))

        def fd_after(token, args, result):
            obs["local.fd_calls"] += 1
            obs["local.fd_evals"] += self.evals - token
        self._patch(local_mod, "fd_gradient",
                    self.wrap("fd_gradient", local_mod.fd_gradient,
                              "fd_gradient", before=evals_before,
                              after=fd_after))
        self._patch(local_mod, "box_qp_step",
                    self.wrap("box_qp_step", local_mod.box_qp_step,
                              "box_qp_step"))

        # runner: one run, and report serialization
        def run_before(args):
            self.run_id += 1

        def run_after(token, args, result):
            if result is not None:
                obs["runner.trace_rows"] += len(result.trace)
        self._patch(runner_mod, "run_single",
                    self.wrap("run_single", runner_mod.run_single,
                              "run_single", before=run_before,
                              after=run_after))

        def json_after(token, args, result):
            if result is not None:
                obs["runner.report_bytes"] += len(result.encode())
        self._patch(runner_mod.RunReport, "to_json",
                    self.wrap("to_json", runner_mod.RunReport.to_json,
                              "RunReport.to_json", after=json_after))
        return self

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            out[LAYER[key]] += seconds
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, by name."""
        c, s, obs = self.calls, self.self_s, self.obs
        layer = self.layer_self_s()

        def ratio(num, den):
            return num / den if den else 0.0

        problem_keys = ("Problem.__call__", "NormalizedProblem.__call__",
                        "block_objective", "EvalCounter.charge")
        abcd_solves = c["abcd_solve"]
        return {
            "functions.calls": (c["kernel"], "count"),
            "functions.self_s": (layer["functions"], "s"),
            "functions.us_per_call": (ratio(1e6 * s["kernel"], c["kernel"]),
                                      "us"),
            "problem.calls": (sum(c[k] for k in problem_keys), "count"),
            "problem.self_s": (layer["problem"], "s"),
            "problem.us_per_eval": (ratio(1e6 * layer["problem"], self.evals),
                                    "us"),
            "direct.self_s": (layer["direct"], "s"),
            "direct.add_calls": (c["add"], "count"),
            "direct.add_s": (s["add"], "s"),
            "direct.rekey_calls": (c["rekey"], "count"),
            "direct.rekey_s": (s["rekey"], "s"),
            "direct.measure_calls": (c["measure"], "count"),
            "direct.measure_s": (s["measure"], "s"),
            "direct.divide_calls": (c["sample_and_divide"], "count"),
            "direct.divide_self_s": (s["sample_and_divide"], "s"),
            "direct.probes_per_divide": (
                ratio(obs["direct.probes"], c["sample_and_divide"]), "count"),
            "direct.rects_max": (obs["direct.rects_max"], "count"),
            "direct.poh_calls": (c["identify_poh"], "count"),
            "direct.poh_s": (self.incl_s["identify_poh"], "s"),
            "direct.poh_selected_mean": (
                ratio(obs["direct.poh_selected"], c["identify_poh"]), "count"),
            "direct.groups_mean": (
                ratio(obs["direct.groups"], c["identify_poh"]), "count"),
            "direct.solve_calls": (c["direct_solve"], "count"),
            "direct.solve_self_s": (s["direct_solve"], "s"),
            "direct.improving_divide_ratio": (
                ratio(obs["direct.improving_divides"],
                      c["sample_and_divide"]), "ratio"),
            "abcd.solve_calls": (abcd_solves, "count"),
            "abcd.self_s": (layer["abcd"], "s"),
            "abcd.subproblems": (c["make_subproblem"], "count"),
            "abcd.make_subproblem_s": (s["make_subproblem"], "s"),
            "abcd.start_calls": (obs["abcd.start_calls"], "count"),
            "abcd.restarts": (max(obs["abcd.start_calls"] - abcd_solves, 0),
                              "count"),
            "abcd.evals_start": (obs["abcd.evals_start"], "count"),
            "abcd.evals_direct": (obs["abcd.evals_direct"], "count"),
            "abcd.evals_local": (obs["abcd.evals_local"], "count"),
            "abcd.descent_ratio": (
                ratio(obs["abcd.descents"], obs["abcd.trace_steps"]), "ratio"),
            "local.calls": (c["sqp_local"], "count"),
            "local.self_s": (layer["local"], "s"),
            "local.evals": (obs["local.evals"], "count"),
            "local.fd_gradient_calls": (c["fd_gradient"], "count"),
            "local.fd_gradient_self_s": (s["fd_gradient"], "s"),
            "local.qp_calls": (c["box_qp_step"], "count"),
            "local.qp_s": (self.incl_s["box_qp_step"], "s"),
            "local.accept_ratio": (
                ratio(obs["local.accepted"], obs["local.trials"]), "ratio"),
            "local.stationary_ratio": (
                ratio(obs["local.stationary"], c["sqp_local"]), "ratio"),
            "runner.runs": (c["run_single"], "count"),
            "runner.self_s": (layer["runner"], "s"),
            "runner.to_json_s": (self.incl_s["to_json"], "s"),
            "runner.report_bytes": (obs["runner.report_bytes"], "bytes"),
            "runner.trace_rows": (obs["runner.trace_rows"], "count"),
        }

    def dump(self) -> dict:
        """Spans and counters as plain data, for writing out at the end."""
        return {
            "span_fields": ["run", "name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": {k: {"calls": self.calls[k], "incl_s": self.incl_s[k],
                             "self_s": self.self_s[k], "layer": LAYER[k]}
                         for k in sorted(self.calls)},
            "observed": dict(sorted(self.obs.items())),
            "evals": self.evals,
            "digest": self.digest.hexdigest(),
        }
