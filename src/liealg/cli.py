"""Command-line entry point: matrix dumps, rank audits, experiment tables."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import audits, bvp
from .linalg import format_matrix
from .operators import diff_matrix
from .partitions import Partition, read_partition, uniform_partition

COMMANDS = ("diffmat", "rank-audit", "table1", "table3", "plot-figure1")
MAX_N = 20
# the 2-D experiment needs at least 4 subintervals per dimension
MIN_N_2D = 4
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
    a: float | None = None
    b: float | None = None
    n: int | None = None
    n1: int | None = None
    n2: int | None = None
    out: str | None = None
    rel_tol: float = 1e-8
    include_zero_endpoint: bool = False
    seed: int = 42


# the RunConfig fields a --config file may set
CONFIG_KEYS = ("nodes", "a", "b", "n", "n1", "n2", "out", "rel_tol",
               "include_zero_endpoint", "seed")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_config_file(path: str) -> dict:
    """Typed values of a ``key=value`` file; an unknown key or a bad value is an error."""
    values: dict = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, value.strip(), f"{path}:{lineno}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(key: str, value: str, where: str):
    try:
        if key in ("n", "n1", "n2", "seed"):
            return int(value)
        if key in ("a", "b", "rel_tol"):
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc
    if key == "include_zero_endpoint":
        flag = _BOOLEANS.get(value.lower())
        if flag is None:
            raise ConfigError(f"{where}: bad value for {key}: {value!r} "
                              f"(expected one of {', '.join(_BOOLEANS)})")
        return flag
    return value


def build_config(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="liealg",
        description="Matrix representations of differential operators: dumps, audits, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("diffmat", help="dump the differentiation matrix of a partition")
    p.add_argument("--nodes", help="comma-separated node list, or a file with one node per line")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n", type=int)
    add_common(p)

    p = sub.add_parser("rank-audit", help="run the rank/nilpotency audit suite (CSV)")
    p.add_argument("--rel-tol", type=float, dest="rel_tol")
    add_common(p)

    p = sub.add_parser("table1", help="1-D experiment errors, collocation vs shooting (CSV)")
    p.add_argument("--include-zero-endpoint", action="store_true", default=None)
    add_common(p)

    p = sub.add_parser("table3", help="2-D experiment errors (CSV)")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    add_common(p)

    p = sub.add_parser("plot-figure1", help="2-D solution surface as gridded x y u data")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    add_common(p)

    args = parser.parse_args(argv)
    file_values = _parse_config_file(args.config) if args.config else {}

    config = RunConfig(command=args.command)
    seed_env = os.environ.get("LIEALG_SEED")
    if seed_env is not None:
        try:
            config.seed = int(seed_env)
        except ValueError as exc:
            raise ConfigError(f"LIEALG_SEED must be an integer, got {seed_env!r}") from exc
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(config, key, flag)
        elif key in file_values:
            setattr(config, key, file_values[key])
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if not 0.0 < config.rel_tol < 1.0:
        raise ConfigError(f"rel-tol must lie in (0, 1), got {config.rel_tol}")
    for key, low in (("n", 1), ("n1", MIN_N_2D), ("n2", MIN_N_2D)):
        value = getattr(config, key)
        if value is not None and not low <= value <= MAX_N:
            raise ConfigError(f"{key} must lie in {low}..{MAX_N}, got {value}")


def _resolve_dims(config: RunConfig) -> tuple[int, int]:
    n1 = config.n1 if config.n1 is not None else config.n2
    n2 = config.n2 if config.n2 is not None else config.n1
    if n1 is None:
        n1 = n2 = 15
    return n1, n2


def _partition_from_config(config: RunConfig) -> Partition:
    if config.nodes:
        if os.path.exists(config.nodes) and "," not in config.nodes:
            try:
                return read_partition(config.nodes)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"bad node file {config.nodes}: {exc}") from exc
        try:
            values = [float(v) for v in config.nodes.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad node list {config.nodes!r}") from exc
        try:
            return Partition(np.array(values))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if config.n is None:
        raise ConfigError("diffmat needs --nodes or --a/--b/--n")
    a = 0.0 if config.a is None else config.a
    b = 1.0 if config.b is None else config.b
    try:
        return uniform_partition(a, b, config.n)
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
    warning on stderr and status ``SINGULAR_STATUS``.
    """
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
        if config.n1 is None and config.n2 is None:
            cases = [(10, 10), (15, 15)]
        else:
            cases = [_resolve_dims(config)]
        lines = [TABLE_HEADER]
        status = 0
        for n1, n2 in cases:
            report, case_status = _solve_2d(n1, n2)
            status = max(status, case_status)
            lines.append(_table_row("lie", f"{n1}x{n2}", report))
        return status, "\n".join(lines) + "\n"

    if config.command == "plot-figure1":
        report, status = _solve_2d(*_resolve_dims(config))
        return status, bvp.format_surface(report)

    raise ConfigError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        status, output = run(config)
    except ConfigError as exc:
        print(f"liealg: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"liealg: {exc}", file=sys.stderr)
        return 1
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
