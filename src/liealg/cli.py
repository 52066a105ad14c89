"""Command-line entry point: matrix dumps, rank audits, experiment tables."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import make_dataclass

import numpy as np

from . import audits, bvp
from .bvp import MAX_N, MIN_N_2D
from .linalg import format_matrix
from .operators import diff_matrix
from .partitions import Partition, uniform_partition

DEFAULT_N_2D = 15
TABLE_HEADER = "method,n,E,Emax,Eavg,rcond"
# a 2-D solve whose rcond is below machine epsilon is reported, and the
# command exits with this status, since its Emax over all nodes is rounding
SINGULAR_RCOND = float(np.finfo(float).eps)
SINGULAR_STATUS = 3


class ConfigError(Exception):
    pass


def _resolve_dims(config: RunConfig) -> tuple[int, int]:
    # a missing size copies the other; a validated size is at least MIN_N_2D, never 0
    return config.n1 or config.n2 or DEFAULT_N_2D, config.n2 or config.n1 or DEFAULT_N_2D


def _partition_from_config(config: RunConfig) -> Partition:
    nodes = config.nodes
    if (nodes is None) == (config.n is None):
        raise ConfigError("diffmat takes exactly one of --nodes and --n")
    if nodes is None:
        return uniform_partition(0.0, 1.0, config.n)
    try:
        values = [float(v) for v in nodes.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad node list {nodes!r}") from exc
    try:
        return Partition(np.array(values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _table_row(method: str, label: str, report: bvp.BvpReport) -> str:
    return (f"{method},{label},{report.error_sum:.4e},{report.error_max:.4e},"
            f"{report.error_avg:.4e},{report.rcond:.4e}")


def _solve_2d(n1: int, n2: int) -> tuple[bvp.BvpReport, int]:
    """2-D solve plus its exit status; warns on stderr when numerically singular."""
    report = bvp.solve_hyperbolic(n1, n2)
    if report.rcond < SINGULAR_RCOND:
        disk_max, disk_nodes = bvp._disk_error_max(report)
        print(f"liealg: warning: {n1}x{n2} operator is numerically singular "
              f"(rcond {report.rcond:.4e} < {SINGULAR_RCOND:.4e}); Emax "
              f"{report.error_max:.4e} over all nodes, {disk_max:.4e} over the "
              f"{disk_nodes} nodes inside the unit disk", file=sys.stderr)
        return report, SINGULAR_STATUS
    return report, 0


def _diffmat(config: RunConfig) -> tuple[int, str]:
    return 0, format_matrix(diff_matrix(_partition_from_config(config))) + "\n"


def _rank_audit(config: RunConfig) -> tuple[int, str]:
    reports = audits.default_suite(seed=config.seed)
    status = 0 if all(r.passed for r in reports) else 1
    return status, audits.reports_to_csv(reports)


def _table1(config: RunConfig) -> tuple[int, str]:
    lines = [TABLE_HEADER]
    for n in (4, 8, 12, 16):
        lines.append(_table_row("lie", str(n), bvp.solve_two_point(n)))
    for n in (4, 8, 12, 16):
        lines.append(_table_row("shooting", str(n), bvp.shooting_two_point(n)))
    return 0, "\n".join(lines) + "\n"


def _table3(config: RunConfig) -> tuple[int, str]:
    cases = [_resolve_dims(config)] if config.n1 or config.n2 else [(10, 10), (15, 15)]
    lines = [TABLE_HEADER]
    status = 0
    for n1, n2 in cases:
        report, case_status = _solve_2d(n1, n2)
        status = max(status, case_status)
        lines.append(_table_row("lie", f"{n1}x{n2}", report))
    return status, "\n".join(lines) + "\n"


def _plot_figure1(config: RunConfig) -> tuple[int, str]:
    report, status = _solve_2d(*_resolve_dims(config))
    return status, bvp.format_surface(report)


# each command's (help, handler): a handler maps a validated RunConfig to (exit status,
# output text) and looks its public callees up at call time, where tracing patches them
COMMANDS = {
    "diffmat": ("dump the differentiation matrix of a partition", _diffmat),
    "rank-audit": ("run the rank/nilpotency audit suite (CSV)", _rank_audit),
    "table1": ("1-D experiment errors, collocation vs shooting (CSV)", _table1),
    "table3": ("2-D experiment errors (CSV)", _table3),
    "plot-figure1": ("2-D solution surface as gridded x y u data", _plot_figure1),
}
_GRID_SIZE = (f"{MIN_N_2D}..{MAX_N}; a missing size copies the other (default: {DEFAULT_N_2D}; "
              "table3 without either runs its two reference grids)")
# each setting: (value type, default, the commands that take it as a flag, flag help);
# the seed, which no command takes as a flag, comes from LIEALG_SEED
SETTINGS = {
    "nodes": (str, None, ("diffmat",),
              "comma-separated node list; a negative first node needs the form --nodes=-1,0,1"),
    "n": (int, None, ("diffmat",), f"subintervals of a uniform partition of [0, 1], 1..{MAX_N}"),
    "n1": (int, None, ("table3", "plot-figure1"), f"subintervals in x, {_GRID_SIZE}"),
    "n2": (int, None, ("table3", "plot-figure1"), f"subintervals in y, {_GRID_SIZE}"),
    "out": (str, None, tuple(COMMANDS), "output file (default: stdout)"),
    "seed": (int, 42, (), None),
}
# the command, then one field per setting; the namespace lets 3.10 and 3.11 pickle it by name
RunConfig = make_dataclass("RunConfig", ["command", *(
    (key, kind, default) for key, (kind, default, _, _) in SETTINGS.items())],
    namespace={"__module__": __name__})


def build_config(argv: list[str] | None) -> RunConfig:
    """The validated configuration of ``argv`` (``None``: ``sys.argv[1:]``): each setting
    comes from its flag, the seed from ``LIEALG_SEED``, and the rest keep their defaults."""
    parser = argparse.ArgumentParser(
        prog="liealg",
        description="Matrix representations of differential operators: dumps, audits, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, (kind, _, commands, flag_help) in SETTINGS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), type=kind, help=flag_help)

    args = parser.parse_args(argv)
    seed_env = os.environ.get("LIEALG_SEED")
    try:
        values = {} if seed_env is None else {"seed": int(seed_env)}
    except ValueError as exc:
        raise ConfigError(f"LIEALG_SEED must be an integer, got {seed_env!r}") from exc
    values.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    config = RunConfig(args.command, **values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    for key, low in (("n", 1), ("n1", MIN_N_2D), ("n2", MIN_N_2D)):
        value = getattr(config, key)
        if value is not None and not low <= value <= MAX_N:
            raise ConfigError(f"{key} must lie in {low}..{MAX_N}, got {value}")


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, output text).

    A 2-D solve below ``SINGULAR_RCOND`` still returns its output, with a
    warning on stderr and status ``SINGULAR_STATUS``.  A configuration that
    :func:`build_config` would refuse raises :class:`ConfigError`.
    """
    _validate(config)
    return COMMANDS[config.command][1](config)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(argv)
        status, output = run(config)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"liealg: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    if config.out is not None:
        try:
            with open(config.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"liealg: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())