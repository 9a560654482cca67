"""Command-line benchmark harness.

Exit codes: 0 completed, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .functions import get_function, list_functions
from .functions.registry import RegistryError, _REGISTRY
from .problem import ConfigError
from .runner import RunSpec, aggregate, export_trace, run_one, run_suite

_SPEC_FIELDS = {f.name for f in dataclasses.fields(RunSpec)}


def _spec_from_dict(raw: dict) -> RunSpec:
    unknown = set(raw) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunSpec(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        click.echo(f"cannot read config: {exc}", err=True)
        sys.exit(2)
    except json.JSONDecodeError as exc:
        click.echo(f"invalid JSON config: {exc}", err=True)
        sys.exit(1)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        click.echo("config must be a JSON object or list of objects", err=True)
        sys.exit(1)
    if not data:
        click.echo("configuration error: config holds no run spec", err=True)
        sys.exit(1)
    for i, raw in enumerate(data):
        if not isinstance(raw, dict):
            click.echo(f"configuration error: config entry {i} is not an "
                       f"object: {raw!r}", err=True)
            sys.exit(1)
    return data


def _write_reports(reports, path):
    try:
        if path == "-":
            for r in reports:
                click.echo(r.to_json())
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                for r in reports:
                    fh.write(r.to_json() + "\n")
    except OSError as exc:
        click.echo(f"cannot write report: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Global optimization benchmark harness (DIRECT / block-coordinate DIRECT)."""


@main.command("list-functions")
def list_functions_cmd():
    """List registered test functions with dims, bounds and known optima."""
    for name in list_functions():
        entry = _REGISTRY[name]
        if isinstance(entry.dims, int):
            dim = entry.dims
            dims_txt = str(dim)
        else:
            dim = entry.dims[0]
            dims_txt = f">={entry.dims[0]}"
        _, meta = get_function(name, dim)
        lo, hi = meta.bounds.lower[0], meta.bounds.upper[0]
        f_star = "?" if meta.f_star is None else repr(meta.f_star)
        click.echo(f"{name:12s} dims={dims_txt:5s} bounds=[{lo:g},{hi:g}] "
                   f"f*={f_star}")


def _run_options(fn):
    opts = [
        click.option("--function", "function_name", default=None,
                     help="registered function name"),
        click.option("--dim", type=int, default=None),
        click.option("--algo", "algorithm", default=None,
                     type=click.Choice(["direct", "abcd-coordinate",
                                        "abcd", "sqp"])),
        click.option("--eps", "target_accuracy", type=float, default=None,
                     help="target accuracy |f - f*|"),
        click.option("--max-evals", type=int, default=None),
        click.option("--time-budget", "max_wall_seconds", type=float,
                     default=None),
        click.option("--seed", type=int, default=None),
        click.option("--reps", "repetitions", type=int, default=None),
        click.option("--m1", type=int, default=None),
        click.option("--m2", type=int, default=None),
        click.option("--t1", type=int, default=None),
        click.option("--switch-eps", type=float, default=None),
        click.option("--sqp-first", is_flag=True, default=None),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@main.command()
@click.option("--config", "config_path", default=None,
              help="JSON file with RunSpec fields (flags override)")
@_run_options
@click.option("--trace-out", default=None,
              help="CSV trace path; '{rep}' expands to the repetition index")
@click.option("--report-out", default="-",
              help="JSON-lines report path, '-' for stdout")
def run(config_path, trace_out, report_out, **flags):
    """Run one benchmark spec (possibly repeated)."""
    raw = {}
    if config_path:
        specs = _load_config(config_path)
        if len(specs) > 1:
            click.echo(f"configuration error: run takes one spec and the "
                       f"config holds {len(specs)}; use suite to run them "
                       f"all", err=True)
            sys.exit(1)
        raw = specs[0]
    overrides = {
        {"function_name": "function"}.get(k, k): v
        for k, v in flags.items() if v is not None
    }
    raw.update(overrides)
    if "function" not in raw:
        click.echo("a function name is required (--function or config)",
                   err=True)
        sys.exit(1)
    try:
        spec = _spec_from_dict(raw)
        reports = run_one(spec)
    except (ConfigError, RegistryError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    _write_reports(reports, report_out)
    if trace_out:
        try:
            for rep in reports:
                path = (trace_out.replace("{rep}", str(rep.repetition))
                        if "{rep}" in trace_out else trace_out)
                export_trace(rep, path)
                if "{rep}" not in trace_out:
                    break
        except OSError as exc:
            click.echo(str(exc), err=True)
            sys.exit(2)


@main.command()
@click.option("--config", "config_path", required=True,
              help="JSON list of RunSpec objects")
@click.option("--parallel", type=int, default=1)
@click.option("--report-out", default="-")
def suite(config_path, parallel, report_out):
    """Run a suite of specs and print the aggregate summary."""
    raw_specs = _load_config(config_path)
    # run_suite turns a failing spec into an error row, so a ConfigError
    # from it is about the suite itself (`--parallel`)
    try:
        specs = [_spec_from_dict(raw) for raw in raw_specs]
        result = run_suite(specs, parallelism=parallel)
    except (ConfigError, RegistryError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    _write_reports(result.reports, report_out)
    click.echo("function        dim algo             ok  median_evals",
               err=True)
    for row in result.summary_rows():
        med = "-" if row["median_evals"] is None else f"{row['median_evals']:g}"
        click.echo(
            f"{row['function']:15s} {row['dim']:3d} {row['algorithm']:16s} "
            f"{row['successes']:3d} {med}", err=True)
    for algo, ratio in sorted(result.winning_ratio.items()):
        click.echo(f"winning ratio {algo}: {ratio:.3f}", err=True)


if __name__ == "__main__":
    main()
