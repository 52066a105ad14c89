"""Command-line entry point: matrix dumps, rank audits, experiment tables."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import audits, bvp
from .bvp import MAX_N, MIN_N_2D
from .linalg import format_matrix
from .operators import diff_matrix
from .partitions import Partition, read_partition, uniform_partition

DEFAULT_N_2D = 15
TABLE_HEADER = "method,n,E,Emax,Eavg,rcond"
# a 2-D solve whose rcond is below machine epsilon is reported, and the
# command exits with this status, since its errors are rounding noise
SINGULAR_RCOND = float(np.finfo(float).eps)
SINGULAR_STATUS = 3


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    nodes: str | None = None
    a: float = 0.0
    b: float = 1.0
    n: int | None = None
    n1: int | None = None
    n2: int | None = None
    out: str | None = None
    rel_tol: float = 1e-8
    include_zero_endpoint: bool = False
    seed: int = 42


COMMANDS = {
    "diffmat": "dump the differentiation matrix of a partition",
    "rank-audit": "run the rank/nilpotency audit suite (CSV)",
    "table1": "1-D experiment errors, collocation vs shooting (CSV)",
    "table3": "2-D experiment errors (CSV)",
    "plot-figure1": "2-D solution surface as gridded x y u data",
}
_GRID_SIZE = (f"{MIN_N_2D}..{MAX_N}; a missing size copies the other (default: {DEFAULT_N_2D}; "
              "table3 without either runs its two reference grids)")
# every RunConfig field but the command: (value type, the commands that take it
# as a flag, flag help); a --config file may set any of them
SETTINGS = {
    "nodes": (str, ("diffmat",), "comma-separated node list, or a file with one node per line"),
    "a": (float, ("diffmat",), f"left end for --n, finite, below --b (default: {RunConfig.a:g})"),
    "b": (float, ("diffmat",), f"right end for --n, finite, above --a (default: {RunConfig.b:g})"),
    "n": (int, ("diffmat",), f"subintervals of a uniform partition, 1..{MAX_N}"),
    "n1": (int, ("table3", "plot-figure1"), f"subintervals in x, {_GRID_SIZE}"),
    "n2": (int, ("table3", "plot-figure1"), f"subintervals in y, {_GRID_SIZE}"),
    "out": (str, tuple(COMMANDS), "output file (default: stdout)"),
    "rel_tol": (float, ("rank-audit",),
                f"relative rank threshold in (0, 1) (default: {RunConfig.rel_tol:g})"),
    "include_zero_endpoint": (bool, ("table1",),
                              f"solve on [0, pi/2], not [{bvp.TWO_POINT_LEFT:g}, pi/2]"),
    "seed": (int, (), None),
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_config_file(path: str) -> dict:
    """Typed values of a ``key=value`` file; an unknown key or a bad value is an error."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key, value = key.strip().replace("-", "_"), value.strip()
                if key not in SETTINGS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                kind = SETTINGS[key][0]
                try:
                    values[key] = _BOOLEANS[value.lower()] if kind is bool else kind(value)
                except (KeyError, ValueError) as exc:
                    hint = f" (expected one of {', '.join(_BOOLEANS)})" if kind is bool else ""
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {value!r}{hint}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(argv: list[str] | None) -> RunConfig:
    """The validated configuration of ``argv`` (``None``: ``sys.argv[1:]``): flags win
    over the ``--config`` file, the file over ``LIEALG_SEED``, that over the defaults."""
    parser = argparse.ArgumentParser(
        prog="liealg",
        description="Matrix representations of differential operators: dumps, audits, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, command_help in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, (kind, commands, flag_help) in SETTINGS.items():
            if command in commands:
                kw = dict(action="store_true", default=None) if kind is bool else dict(type=kind)
                p.add_argument("--" + key.replace("_", "-"), help=flag_help, **kw)
        p.add_argument("--config", help="key=value file; explicit flags win")

    args = parser.parse_args(argv)
    seed_env = os.environ.get("LIEALG_SEED")
    try:
        values = {} if seed_env is None else {"seed": int(seed_env)}
    except ValueError as exc:
        raise ConfigError(f"LIEALG_SEED must be an integer, got {seed_env!r}") from exc
    if args.config:
        values.update(_parse_config_file(args.config))
    values.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    config = RunConfig(args.command, **values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if not 0.0 < config.rel_tol < 1.0:
        raise ConfigError(f"rel-tol must lie in (0, 1), got {config.rel_tol}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    for key, low in (("n", 1), ("n1", MIN_N_2D), ("n2", MIN_N_2D)):
        value = getattr(config, key)
        if value is not None and not low <= value <= MAX_N:
            raise ConfigError(f"{key} must lie in {low}..{MAX_N}, got {value}")


def _resolve_dims(config: RunConfig) -> tuple[int, int]:
    # a missing size copies the other; a validated size is at least MIN_N_2D, never 0
    return config.n1 or config.n2 or DEFAULT_N_2D, config.n2 or config.n1 or DEFAULT_N_2D


def _partition_from_config(config: RunConfig) -> Partition:
    nodes = config.nodes
    if nodes and os.path.exists(nodes) and "," not in nodes:
        try:
            return read_partition(nodes)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad node file {nodes}: {exc}") from exc
    if not nodes and config.n is None:
        raise ConfigError("diffmat needs --nodes or --a/--b/--n")
    try:
        values = [float(v) for v in nodes.split(",")] if nodes else None
    except ValueError as exc:
        raise ConfigError(f"bad node list {nodes!r}") from exc
    try:
        return (Partition(np.array(values)) if nodes
                else uniform_partition(config.a, config.b, config.n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _table_row(method: str, label: str, report: bvp.BvpReport) -> str:
    rcond = "nan" if math.isnan(report.rcond) else f"{report.rcond:.4e}"
    return (f"{method},{label},{report.error_sum:.4e},{report.error_max:.4e},"
            f"{report.error_avg:.4e},{rcond}")


def _solve_2d(n1: int, n2: int) -> tuple[bvp.BvpReport, int]:
    """2-D solve plus its exit status; warns on stderr when numerically singular."""
    report = bvp.solve_hyperbolic(n1, n2)
    if report.rcond < SINGULAR_RCOND:
        print(f"liealg: warning: {n1}x{n2} operator is numerically singular "
              f"(rcond {report.rcond:.4e} < {SINGULAR_RCOND:.4e}); its errors are "
              "rounding noise", file=sys.stderr)
        return report, SINGULAR_STATUS
    return report, 0


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, output text).

    A 2-D solve below ``SINGULAR_RCOND`` still returns its output, with a
    warning on stderr and status ``SINGULAR_STATUS``.  A configuration that
    :func:`build_config` would refuse raises :class:`ConfigError`.
    """
    _validate(config)
    if config.command == "diffmat":
        return 0, format_matrix(diff_matrix(_partition_from_config(config))) + "\n"

    if config.command == "rank-audit":
        reports = audits.default_suite(seed=config.seed, rel_tol=config.rel_tol)
        status = 0 if all(r.passed for r in reports) else 1
        return status, audits.reports_to_csv(reports)

    if config.command == "table1":
        lines = [TABLE_HEADER]
        for n in (4, 8, 12, 16):
            lines.append(_table_row(
                "lie", str(n), bvp.solve_two_point(n, config.include_zero_endpoint)))
        for n in (4, 8, 12, 16):
            lines.append(_table_row("shooting", str(n), bvp.shooting_two_point(n)))
        return 0, "\n".join(lines) + "\n"

    if config.command == "table3":
        cases = [_resolve_dims(config)] if config.n1 or config.n2 else [(10, 10), (15, 15)]
        lines = [TABLE_HEADER]
        status = 0
        for n1, n2 in cases:
            report, case_status = _solve_2d(n1, n2)
            status = max(status, case_status)
            lines.append(_table_row("lie", f"{n1}x{n2}", report))
        return status, "\n".join(lines) + "\n"

    # plot-figure1, the one command left
    report, status = _solve_2d(*_resolve_dims(config))
    return status, bvp.format_surface(report)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(argv)
        status, output = run(config)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"liealg: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    if config.out:
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
