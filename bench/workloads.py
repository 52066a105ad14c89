"""The benchmark's workloads: the CLI calls one op makes, and the reference
checks every op's output must pass.

An op is a fixed sequence of ``liealg.cli.run(RunConfig(...))`` calls, the
public path behind the ``liealg`` command.  ``cli.run`` is looked up at each
call, so that a traced run sees it.  Inputs depend only on the seed.
The reference values are the acceptance gate's (``tests/test_acceptance.py``),
copied here so that the benchmark checks outputs against the same numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from liealg import cli
from liealg.cli import RunConfig

WORKLOADS = ("solve2d", "audit", "oned")

# acceptance-gate references: value per row, relative tolerance
TABLE1_LIE_E = {4: 2.2788e-4, 8: 9.5522e-7, 12: 3.9033e-9, 16: 1.5205e-11}
TABLE1_LIE_EMAX = {4: 1.1466e-4, 8: 2.5575e-7, 12: 6.8542e-10, 16: 1.9955e-12}
TABLE1_SHOOTING_E = {4: 2.71e-2, 8: 1.39e-2, 12: 9.3e-3, 16: 7.0e-3}
TABLE1_SHOOTING_EMAX = {4: 1.1e-2, 8: 2.7e-3, 12: 1.2e-3, 16: 6.7013e-4}
TABLE1_LIE_REL = 0.05
TABLE1_LIE_ABS_16 = 5e-12
TABLE1_SHOOTING_FACTOR = 3.0
TABLE3_EMAX = {"10x10": 0.0064, "15x15": 0.002}
TABLE3_EAVG_10 = 2.56e-4
TABLE3_REL = 0.20
AUDIT_ROWS = 504
TABLE_HEADER = "method,n,E,Emax,Eavg,rcond"
AUDIT_HEADER = "caseName,expected,observed,tolerance,pass"

# diffmat is checked on the monomials x^0..x^n: the residual of Z x^j against
# j x^(j-1) must stay below DIFFMAT_REL_TOL * norm_inf(Z) * max|x^j|, the
# natural scale of a float64 matrix-vector product.  The seed code stays
# below 3e-16 on every partition of this benchmark.
DIFFMAT_REL_TOL = 1e-12

# jittered partitions of [0, 1]: interior nodes moved by up to this share of
# the spacing, as in the audit suite's random partitions
JITTER = 0.3


class CheckError(Exception):
    """An output broke its reference."""


@dataclass(frozen=True)
class Call:
    """One CLI call of an op and the check its output text must pass.

    ``check`` raises :class:`CheckError` on a broken reference and returns
    the fingerprint entries of the output: per table case Emax, Eavg and
    rcond, or the audit pass count.
    """

    config: RunConfig
    check: Callable[[str], dict]


@dataclass
class OpResult:
    ok: bool
    error: str | None
    seconds: float
    digest: str
    fingerprint: dict
    emax_over_ref: float | None


def _within(value: float, reference: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - reference) <= max(rel * abs(reference), abs_tol)


def _table_rows(text: str, expected_rows: int) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise CheckError(f"bad table header {lines[:1]!r}")
    rows = [dict(zip(TABLE_HEADER.split(","), line.split(","))) for line in lines[1:]]
    if len(rows) != expected_rows:
        raise CheckError(f"expected {expected_rows} table rows, got {len(rows)}")
    return rows


def _row_fingerprint(rows: list[dict]) -> dict:
    return {f"{r['method']},{r['n']}": [r["Emax"], r["Eavg"], r["rcond"]] for r in rows}


def _ratio(rows: list[dict], refs: dict) -> float:
    return max(float(r["Emax"]) / refs[r["n"]] for r in rows)


def check_table1(text: str) -> dict:
    rows = _table_rows(text, 8)
    for r in rows:
        n = int(r["n"])
        e, emax = float(r["E"]), float(r["Emax"])
        if r["method"] == "lie":
            abs_tol = TABLE1_LIE_ABS_16 if n == 16 else 0.0
            ok = (_within(e, TABLE1_LIE_E[n], TABLE1_LIE_REL, abs_tol)
                  and _within(emax, TABLE1_LIE_EMAX[n], TABLE1_LIE_REL, abs_tol))
        elif r["method"] == "shooting":
            f = TABLE1_SHOOTING_FACTOR
            ok = (TABLE1_SHOOTING_E[n] / f <= e <= TABLE1_SHOOTING_E[n] * f
                  and TABLE1_SHOOTING_EMAX[n] / f <= emax <= TABLE1_SHOOTING_EMAX[n] * f)
        else:
            raise CheckError(f"unknown method {r['method']!r}")
        if not ok:
            raise CheckError(f"table1 row {r['method']},{n} off its reference: E={e}, Emax={emax}")
    refs = {**{("lie", str(n)): v for n, v in TABLE1_LIE_EMAX.items()},
            **{("shooting", str(n)): v for n, v in TABLE1_SHOOTING_EMAX.items()}}
    ratio = max(float(r["Emax"]) / refs[r["method"], r["n"]] for r in rows)
    return {"rows": _row_fingerprint(rows), "emax_over_ref": ratio}


def check_table3(text: str) -> dict:
    rows = _table_rows(text, 2)
    by_case = {r["n"]: r for r in rows}
    if set(by_case) != set(TABLE3_EMAX):
        raise CheckError(f"table3 cases {sorted(by_case)} != {sorted(TABLE3_EMAX)}")
    for case, ref in TABLE3_EMAX.items():
        if not _within(float(by_case[case]["Emax"]), ref, TABLE3_REL):
            raise CheckError(f"table3 {case} Emax {by_case[case]['Emax']} off reference {ref}")
    if not _within(float(by_case["10x10"]["Eavg"]), TABLE3_EAVG_10, TABLE3_REL):
        raise CheckError(f"table3 10x10 Eavg {by_case['10x10']['Eavg']} off reference")
    return {"rows": _row_fingerprint(rows), "emax_over_ref": _ratio(rows, TABLE3_EMAX)}


def check_surface(text: str, n1: int, n2: int) -> dict:
    """plot-figure1: gridded ``x y u`` against u = sin(1 - x^2 - y^2)."""
    blocks = text.rstrip("\n").split("\n\n")
    if len(blocks) != n2 + 1 or any(len(b.splitlines()) != n1 + 1 for b in blocks):
        raise CheckError(f"surface is not a {n1 + 1}x{n2 + 1} grid")
    xyu = np.array([[float(v) for v in line.split()] for b in blocks for line in b.splitlines()])
    x, y, u = xyu.T
    emax = float(np.abs(u - np.sin(1.0 - x * x - y * y)).max())
    ref = TABLE3_EMAX[f"{n1}x{n2}"]
    if not emax <= ref * (1.0 + TABLE3_REL):
        raise CheckError(f"surface Emax {emax:.4e} above the {n1}x{n2} gate bound")
    return {"rows": {f"surface,{n1}x{n2}": [f"{emax:.4e}"]}, "emax_over_ref": emax / ref}


def check_audit(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != AUDIT_HEADER:
        raise CheckError(f"bad audit header {lines[:1]!r}")
    rows = lines[1:]
    passed = sum(row.endswith(",true") for row in rows)
    if len(rows) != AUDIT_ROWS or passed != len(rows):
        raise CheckError(f"rank-audit: {passed} of {len(rows)} rows pass, expected {AUDIT_ROWS}")
    return {"audit_passed": passed}


def check_diffmat(text: str, nodes: np.ndarray) -> dict:
    z = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    n = nodes.size - 1
    if z.shape != (n + 1, n + 1):
        raise CheckError(f"diffmat shape {z.shape} for {n + 1} nodes")
    norm_z = np.abs(z).sum(axis=1).max()
    for j in range(n + 1):
        v = nodes**j
        expected = j * nodes ** (j - 1) if j else np.zeros_like(nodes)
        residual = np.abs(z @ v - expected).max()
        if not residual <= DIFFMAT_REL_TOL * norm_z * np.abs(v).max():
            raise CheckError(f"diffmat n={n} not exact on x^{j}: residual {residual:.3e}")
    return {}


def jittered_nodes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Equispaced nodes on [0, 1] with interior nodes shifted by up to JITTER of the spacing."""
    nodes = np.arange(n + 1, dtype=float) / n
    nodes[1:-1] += rng.uniform(-JITTER, JITTER, size=n - 1) / n
    return nodes


def build_calls(workload: str, seed: int) -> list[Call]:
    """The calls of one op of ``workload``; the inputs depend only on ``seed``.

    solve2d's inputs are the fixed grids of the paper's Table 3, the only
    sizes with gate references, so its seed changes nothing.
    """
    if workload == "solve2d":
        return [
            Call(RunConfig(command="table3", seed=seed), check_table3),
            Call(RunConfig(command="plot-figure1", n1=15, n2=15, seed=seed),
                 lambda text: check_surface(text, 15, 15)),
        ]
    if workload == "audit":
        return [Call(RunConfig(command="rank-audit", seed=seed), check_audit)]
    if workload == "oned":
        calls = [Call(RunConfig(command="table1"), check_table1)]
        for n in range(1, 21):
            nodes = np.linspace(0.0, 1.0, n + 1)
            calls.append(Call(RunConfig(command="diffmat", n=n),
                              lambda text, nodes=nodes: check_diffmat(text, nodes)))
        rng = np.random.default_rng(seed)
        for n in range(1, 13):
            nodes = jittered_nodes(rng, n)
            arg = ",".join(repr(float(v)) for v in nodes)
            calls.append(Call(RunConfig(command="diffmat", nodes=arg),
                              lambda text, nodes=nodes: check_diffmat(text, nodes)))
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def run_op(calls: list[Call], clock: Callable[[], float]) -> OpResult:
    """Run one op, timing only the CLI calls, then check every output.

    An op fails on a nonzero status, an exception or a broken reference.
    """
    outputs = []
    start = clock()
    try:
        for call in calls:
            outputs.append(cli.run(call.config))
    except Exception as exc:  # any exception of the program fails the op
        return OpResult(False, f"{type(exc).__name__}: {exc}", clock() - start, "", {}, None)
    seconds = clock() - start

    digest = hashlib.sha256()
    fingerprint: dict = {}
    ratios = []
    try:
        for call, (status, text) in zip(calls, outputs):
            digest.update(f"{call.config.command}\0{status}\0{text}\0".encode())
            if status != 0:
                raise CheckError(f"{call.config.command} exited with status {status}")
            entry = call.check(text)
            if "emax_over_ref" in entry:
                ratios.append(entry["emax_over_ref"])
            fingerprint.update(entry.get("rows", {}))
            if "audit_passed" in entry:
                fingerprint["audit_passed"] = entry["audit_passed"]
    except (CheckError, ValueError, KeyError) as exc:
        return OpResult(False, f"{type(exc).__name__}: {exc}", seconds, digest.hexdigest(), {}, None)
    return OpResult(True, None, seconds, digest.hexdigest(), fingerprint,
                     max(ratios) if ratios else None)
