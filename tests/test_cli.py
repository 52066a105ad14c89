import dataclasses
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liealg import audits, bvp, cli
from liealg.cli import (
    COMMANDS,
    SETTINGS,
    SINGULAR_STATUS,
    TABLE_HEADER,
    ConfigError,
    RunConfig,
    _table_row,
    build_config,
    main,
    run,
)
from liealg.partitions import _jittered_nodes

DATA = Path(__file__).parent / "data"

# each command's flags besides -h/--help
FLAGS = {
    "diffmat": {"--nodes", "--n", "--out"},
    "rank-audit": {"--out"},
    "table1": {"--out"},
    "table3": {"--n1", "--n2", "--out"},
    "plot-figure1": {"--n1", "--n2", "--out"},
}
# a value of each setting that is a flag, as given on the command line and as parsed
FLAG_VALUES = {"nodes": ("0,1", "0,1"), "n": ("3", 3), "n1": ("5", 5), "n2": ("6", 6),
               "out": ("x.txt", "x.txt")}

EXPECTED_Z012 = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def assert_usage_error(capsys, argv, message):
    # argparse refuses the command line with exit 2 before any work, printing no output
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert message in captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDiffmat:
    def test_explicit_nodes(self, capsys):
        status, out, _ = run_cli(capsys, "diffmat", "--nodes", "0,1,2")
        assert status == 0
        got = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
        np.testing.assert_array_equal(got, EXPECTED_Z012)

    def test_negative_first_node_takes_the_equals_form(self, capsys):
        # argparse reads a value that starts with a minus sign as an option; the nodes
        # -1, 0, 1 have the spacing of 0, 1, 2 and so its Z
        status, out, _ = run_cli(capsys, "diffmat", "--nodes=-1,0,1")
        assert status == 0
        got = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
        np.testing.assert_array_equal(got, EXPECTED_Z012)
        assert_usage_error(capsys, ["diffmat", "--nodes", "-1,0,1"],
                           "argument --nodes: expected one argument")

    def test_a_file_name_is_not_a_node_list(self, capsys, tmp_path, monkeypatch):
        # --nodes takes one format, so no value is looked up as a file
        looked_up = []
        monkeypatch.setattr(os.path, "exists", lambda p: looked_up.append(p) or True)
        path = tmp_path / "nodes.txt"
        path.write_text("0\n1\n2\n")
        status, out, err = run_cli(capsys, "diffmat", "--nodes", str(path))
        assert status == 2 and out == ""
        assert err == f"liealg: bad node list {str(path)!r}\n"
        assert looked_up == []

    @pytest.mark.parametrize("content, reason", [
        ("0\n2\n1\n", "strictly increasing"),
        ("0\nabc\n1\n", "could not convert"),
        ("0.5\n", "two nodes"),
    ])
    def test_bad_node_file_is_config_error(self, capsys, tmp_path, content, reason):
        # a node file is refused by its name; the nodes it holds, given as a list, are
        # refused with the reason kept as the error's cause
        path = tmp_path / "nodes.txt"
        path.write_text(content)
        status, out, err = run_cli(capsys, "diffmat", "--nodes", str(path))
        assert status == 2 and out == ""
        assert err == f"liealg: bad node list {str(path)!r}\n"
        nodes = ",".join(content.split())
        status, out, err = run_cli(capsys, "diffmat", f"--nodes={nodes}")
        assert status == 2 and out == "" and err.count("\n") == 1
        with pytest.raises(ConfigError) as info:
            cli._partition_from_config(RunConfig("diffmat", nodes=nodes))
        assert reason in str(info.value.__cause__)

    def test_bad_node_list_is_config_error(self, capsys):
        for nodes, reason in [("0,x,1", "bad node list '0,x,1'"),
                              ("0,2,1", "partition nodes must be strictly increasing"),
                              ("0.5", "a partition needs at least two nodes")]:
            status, out, err = run_cli(capsys, "diffmat", "--nodes", nodes)
            assert status == 2 and out == ""
            assert err == f"liealg: {reason}\n"

    def test_non_finite_matrix_is_an_error(self, capsys):
        # 1001 uniform nodes on [-1, 1] overflow the pi-weights
        nodes = ",".join(map(repr, np.linspace(-1.0, 1.0, 1001).tolist()))
        status, out, err = run_cli(capsys, "diffmat", f"--nodes={nodes}")
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 1001 nodes is not finite")

    def test_ill_conditioned_nodes_are_an_error(self, capsys):
        # the predicted error of Z on 43 uniform nodes passes 1e-4; that on 42 does not
        nodes = ",".join(map(repr, np.linspace(-1.0, 1.0, 43).tolist()))
        status, out, err = run_cli(capsys, "diffmat", f"--nodes={nodes}")
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 43 nodes is ill-conditioned")
        assert err.count("\n") == 1
        nodes = ",".join(map(repr, np.linspace(-1.0, 1.0, 42).tolist()))
        status, out, _ = run_cli(capsys, "diffmat", f"--nodes={nodes}")
        assert status == 0 and len(out.splitlines()) == 42

    def test_uniform_flags(self, capsys):
        # --n partitions [0, 1]; any other interval is given as --nodes
        status, out, _ = run_cli(capsys, "diffmat", "--n", "1")
        assert status == 0
        got = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
        np.testing.assert_array_equal(got, [[-1.0, 1.0], [-1.0, 1.0]])
        assert_usage_error(capsys, ["diffmat", "--a", "0", "--b", "1", "--n", "1"],
                           "unrecognized arguments: --a 0 --b 1")

    @pytest.mark.parametrize("a, b", [("0", "inf"), ("-inf", "1"), ("nan", "1")])
    def test_non_finite_endpoint_is_config_error(self, capsys, a, b):
        # there are no endpoint flags to be non-finite
        assert_usage_error(capsys, ["diffmat", f"--a={a}", f"--b={b}", "--n", "3"],
                           f"unrecognized arguments: --a={a} --b={b}")

    def test_nodes_with_endpoints_is_usage_error(self, capsys):
        # a flag beside --nodes is refused, never dropped unseen
        assert_usage_error(capsys, ["diffmat", "--nodes", "0,1", "--a", "5", "--b", "9"],
                           "unrecognized arguments: --a 5 --b 9")

    def test_output_matches_golden_file(self):
        status, text = run(RunConfig("diffmat", n=20))
        assert status == 0
        assert text.encode() == (DATA / "diffmat_n20.txt").read_bytes()

    def test_module_entry_point_matches_golden_file(self):
        # python -m liealg.cli, with the liealg this suite imports
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-m", "liealg.cli", "diffmat", "--n", "20"],
                               capture_output=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == (DATA / "diffmat_n20.txt").read_bytes()

    def test_import_leaves_out_numpy_polynomial(self):
        # its import costs about 0.7 MB of RSS; the 1-D coefficients need only np.polyval
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, liealg.cli; print('numpy.polynomial' in sys.modules)"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "False\n"

    def test_jittered_output_matches_golden_file(self):
        # Z on unequal spacings: 13 jittered nodes given as a repr-formatted comma list
        nodes = ",".join(map(repr, _jittered_nodes(np.random.default_rng(12), 12).tolist()))
        status, text = run(RunConfig("diffmat", nodes=nodes))
        assert status == 0
        assert text.encode() == (DATA / "diffmat_jittered12.txt").read_bytes()

    def test_overflowing_span_is_config_error(self, capsys):
        # no flag and no RunConfig field sets an endpoint, so no span can overflow
        for argv in (["--a=-1e308", "--b=1e308"], ["--b=1e308"]):
            assert_usage_error(capsys, ["diffmat", "--n", "2", *argv],
                               "unrecognized arguments: " + " ".join(argv))
        with pytest.raises(TypeError, match="'b'"):
            RunConfig("diffmat", n=2, b=1e308)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_node_differences_are_an_error(self, capsys):
        status, out, err = run_cli(capsys, "diffmat", "--nodes=-1e308,1e308")
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 2 nodes is not finite")
        assert err.count("\n") == 1

    def test_missing_partition_is_config_error(self, capsys):
        status, out, err = run_cli(capsys, "diffmat")
        assert status == 2 and out == ""
        assert err == "liealg: diffmat takes exactly one of --nodes and --n\n"

    @pytest.mark.parametrize("from_file", [False, True])
    def test_nodes_with_n_is_config_error(self, capsys, tmp_path, from_file):
        # a dump of the nodes alone would drop --n with no word; the check comes before
        # the value is read, so a file name beside --n gets the same word
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("0\n1\n")
        status, out, err = run_cli(capsys, "diffmat", "--nodes", str(nodes) if from_file
                                   else "0,1", "--n", "3")
        assert status == 2 and out == ""
        assert err == "liealg: diffmat takes exactly one of --nodes and --n\n"

    def test_underflowing_pi_weight_products_are_an_error(self, capsys):
        # Chebyshev-Lobatto nodes on [-1, 1], rounded to 12 digits: 801 are refused, 761 not
        def chebyshev(n):
            return "--nodes=" + ",".join(repr(round(-math.cos(math.pi * i / n), 12))
                                         for i in range(n + 1))
        status, out, err = run_cli(capsys, "diffmat", chebyshev(800))
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 801 nodes is inaccurate")
        status, out, _ = run_cli(capsys, "diffmat", chebyshev(760))
        assert status == 0 and len(out.splitlines()) == 761


class TestTable1:
    def test_reference_row(self, capsys):
        status, out, _ = run_cli(capsys, "table1")
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        lie4 = next(r for r in rows if r["method"] == "lie" and r["n"] == "4")
        assert float(lie4["E"]) == pytest.approx(2.2788e-4, rel=0.05)
        shoot16 = next(r for r in rows if r["method"] == "shooting" and r["n"] == "16")
        assert float(shoot16["Emax"]) == pytest.approx(6.7013e-4, rel=0.2)
        assert shoot16["rcond"] == "nan"

    def test_output_matches_golden_file(self):
        status, text = run(RunConfig("table1"))
        assert status == 0
        assert text.encode() == (DATA / "table1.csv").read_bytes()

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table1")
        _, second, _ = run_cli(capsys, "table1")
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        status, out, _ = run_cli(capsys, "table1", "--out", str(path))
        assert status == 0 and out == ""
        assert path.read_text().startswith("method,n,E,Emax,Eavg,rcond\n")

    def test_out_in_missing_directory_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.csv"
        status, out, err = run_cli(capsys, "table1", "--out", str(path))
        assert status == 2 and out == ""
        assert err == f"liealg: cannot write {path}: No such file or directory\n"

    def test_empty_out_is_a_path_that_cannot_be_written(self, capsys):
        # an empty --out names no file, so it fails as any unwritable path does
        assert run_cli(capsys, "table1", "--out", "") == (
            2, "", "liealg: cannot write : No such file or directory\n")

    def test_out_naming_a_directory_is_config_error(self, capsys, tmp_path):
        status, out, err = run_cli(capsys, "diffmat", "--n", "3", "--out", str(tmp_path))
        assert status == 2 and out == ""
        assert err.startswith(f"liealg: cannot write {tmp_path}: ") and err.count("\n") == 1


class TestTable3:
    def test_default_rows(self, capsys):
        status, out, _ = run_cli(capsys, "table3")
        assert status == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["10x10", "15x15"]
        assert float(rows[0]["Emax"]) == pytest.approx(0.0064, rel=0.2)

    def test_output_matches_golden_file(self):
        # the 15x15 row is rounding (rcond 5e-16): these bytes pin the LU's arithmetic
        status, text = run(RunConfig("table3"))
        assert status == 0
        assert text.encode() == (DATA / "table3.csv").read_bytes()

    def test_explicit_dims(self, capsys):
        status, out, _ = run_cli(capsys, "table3", "--n1", "6", "--n2", "5")
        assert status == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["6x5"]


class TestSingular2DSolve:
    def test_table3_warns_and_exits_3(self, capsys):
        status, out, err = run_cli(capsys, "table3", "--n1", "20", "--n2", "20")
        assert status == SINGULAR_STATUS == 3
        report = bvp.solve_hyperbolic(20, 20)
        assert out == f"{TABLE_HEADER}\n{_table_row('lie', '20x20', report)}\n"
        lines = err.splitlines()
        assert len(lines) == 1
        assert "warning" in lines[0] and "20x20" in lines[0]
        assert f"rcond {report.rcond:.4e}" in lines[0]
        assert parse_csv(out)[0]["rcond"] == f"{report.rcond:.4e}"
        # the error is made outside the unit disk: 5.2e-6 inside it, 1.9e2 over all nodes
        disk_max, disk_nodes = bvp._disk_error_max(report)
        assert disk_nodes == 309 and disk_max < 1e-5
        assert lines[0].endswith(f"Emax {report.error_max:.4e} over all nodes, {disk_max:.4e} "
                                 "over the 309 nodes inside the unit disk")

    def test_plot_figure1_warns_and_exits_3(self, capsys):
        status, out, err = run_cli(capsys, "plot-figure1", "--n1", "20", "--n2", "20")
        assert status == 3
        assert out == bvp.format_surface(bvp.solve_hyperbolic(20, 20))
        assert len(err.splitlines()) == 1 and "20x20" in err

    def test_gated_grid_is_silent(self, capsys):
        status, out, err = run_cli(capsys, "table3", "--n1", "15", "--n2", "15")
        assert status == 0
        assert err == ""
        assert [r["n"] for r in parse_csv(out)] == ["15x15"]


class TestRankAudit:
    def test_all_rows_pass(self, capsys):
        status, out, _ = run_cli(capsys, "rank-audit")
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) > 400
        assert all(r["pass"] == "true" for r in rows)

    def test_seed_env_var_changes_cases_deterministically(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEALG_SEED", "7")
        _, first, _ = run_cli(capsys, "rank-audit")
        _, second, _ = run_cli(capsys, "rank-audit")
        assert first == second
        monkeypatch.setenv("LIEALG_SEED", "8")
        _, third, _ = run_cli(capsys, "rank-audit")
        assert third != first

    def test_bad_seed_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LIEALG_SEED", "not-a-number")
        status, _, err = run_cli(capsys, "rank-audit")
        assert status == 2 and "LIEALG_SEED" in err

    def test_negative_seed_is_config_error(self, capsys, monkeypatch):
        for seed in ("-1", "-3"):
            monkeypatch.setenv("LIEALG_SEED", seed)
            assert run_cli(capsys, "rank-audit") == (
                2, "", f"liealg: seed must be non-negative, got {seed}\n")

    def test_rel_tol_flag_validated(self, capsys):
        # the command line ranks at 1e-8 only; default_suite(seed, rel_tol) takes others
        for value in ("1e-8", "2.0"):
            assert_usage_error(capsys, ["rank-audit", "--rel-tol", value],
                               "unrecognized arguments: --rel-tol")

    @pytest.mark.parametrize("seed", [42, 7])
    def test_output_matches_golden_file(self, seed):
        status, text = run(RunConfig("rank-audit", seed=seed))
        assert status == 0
        assert text.encode() == (DATA / f"rank_audit_seed{seed}.csv").read_bytes()

    def test_non_default_tolerance_matches_golden_file(self):
        # only a tolerance other than NILPOTENCY_TOL shows which rows print which
        text = audits.reports_to_csv(audits.default_suite(42, 1e-10))
        assert text.encode() == (DATA / "rank_audit_seed42_tol1e-10.csv").read_bytes()


class TestPlotFigure1:
    def test_block_structure(self, capsys):
        status, out, _ = run_cli(capsys, "plot-figure1", "--n1", "5", "--n2", "4")
        assert status == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 5
        assert all(len(block.splitlines()) == 6 for block in blocks)
        for block in blocks:
            ys = {line.split()[1] for line in block.splitlines()}
            assert len(ys) == 1  # constant y within a block

    def test_output_matches_golden_file(self):
        status, text = run(RunConfig("plot-figure1", n1=10, n2=10))
        assert status == 0
        assert text.encode() == (DATA / "plot_figure1_10x10.dat").read_bytes()

    def test_gated_grid_matches_golden_file(self):
        status, text = run(RunConfig("plot-figure1", n1=15, n2=15))
        assert status == 0
        assert text.encode() == (DATA / "plot_figure1_15x15.dat").read_bytes()

    def test_non_square_grid_matches_golden_file(self):
        # n1 != n2: a swapped Dx/Dy or a reversed Kronecker order changes these bytes
        status, text = run(RunConfig("plot-figure1", n1=6, n2=9))
        assert status == 0
        assert text.encode() == (DATA / "plot_figure1_6x9.dat").read_bytes()


@pytest.mark.parametrize("config, golden", [
    (RunConfig("table1"), "table1.csv"),
    (RunConfig("table3"), "table3.csv"),
    (RunConfig("plot-figure1", n1=15, n2=15), "plot_figure1_15x15.dat"),
])
def test_solve_bytes_do_not_depend_on_caller_buffer_size(caller_bufsize, config, golden):
    # the LU runs under its own buffer size; the norms and error metrics run under the caller's
    status, text = run(config)
    assert status == 0
    assert text.encode() == (DATA / golden).read_bytes()
    assert np.getbufsize() == caller_bufsize


class TestConfigFile:
    """Each setting comes from its flag, the seed from LIEALG_SEED, the rest from its
    default; no command reads a configuration file."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_flag_is_a_usage_error(self, capsys, tmp_path, command):
        # a file of valid settings is refused before it is read, never merged with the flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1=5\nn2=5\nseed=8\n")
        assert_usage_error(capsys, [command, "--config", str(cfg)],
                           f"unrecognized arguments: --config {cfg}")

    def test_unknown_key_is_config_error(self, capsys):
        assert_usage_error(capsys, ["table3", "--n1", "5", "--nn", "3"],
                           "unrecognized arguments: --nn 3")

    def test_bad_boolean_is_config_error(self, capsys):
        # table1 runs on [0.001, pi/2] alone; the switch to [0, pi/2] is an unknown flag
        assert_usage_error(capsys, ["table1", "--include-zero-endpoint=maybe"],
                           "unrecognized arguments: --include-zero-endpoint=maybe")

    @pytest.mark.parametrize("value, dashed", [("yes", True), ("On", True), ("0", False),
                                               ("false", False), ("1", False)])
    def test_boolean_words(self, capsys, value, dashed):
        # no setting is a switch: a word that once turned the zero endpoint on or off is
        # refused with its flag, in either spelling of the flag
        flag = "--include-zero-endpoint" if dashed else "--include_zero_endpoint"
        assert_usage_error(capsys, ["table1", f"{flag}={value}"],
                           f"unrecognized arguments: {flag}={value}")
        assert all(kind is not bool for kind, *_ in SETTINGS.values())

    def test_bad_value_is_config_error(self, capsys):
        assert_usage_error(capsys, ["table3", "--n1", "5", "--n2", "five"],
                           "argument --n2: invalid int value: 'five'")

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        # the path is never opened: the flag itself is refused
        path = tmp_path / "nope.cfg"
        assert_usage_error(capsys, ["table3", "--config", str(path)],
                           f"unrecognized arguments: --config {path}")

    def test_out_of_range_n_rejected(self, capsys):
        status, _, err = run_cli(capsys, "table3", "--n1", "25")
        assert status == 2 and "n1" in err

    def test_table3_below_four_is_config_error(self, capsys):
        status, out, err = run_cli(capsys, "table3", "--n1", "3")
        assert status == 2 and out == ""
        assert err == "liealg: n1 must lie in 4..20, got 3\n"

    def test_plot_figure1_below_four_is_config_error(self, capsys):
        status, out, err = run_cli(capsys, "plot-figure1", "--n1", "2", "--n2", "5")
        assert status == 2 and out == ""
        assert err == "liealg: n1 must lie in 4..20, got 2\n"

    def test_config_file_n2_below_four_is_config_error(self, capsys, tmp_path):
        # the file is refused with exit 2; the same sizes as flags fail on n2's bound
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1=5\nn2=3\n")
        assert_usage_error(capsys, ["table3", "--config", str(cfg)], "--config")
        status, out, err = run_cli(capsys, "table3", "--n1", "5", "--n2", "3")
        assert status == 2 and out == "" and err == "liealg: n2 must lie in 4..20, got 3\n"

    @pytest.mark.parametrize("command, setting, message", [
        ("table1", "n=50", "liealg: n must lie in 1..20, got 50\n"),
        ("rank-audit", "n1=3", "liealg: n1 must lie in 4..20, got 3\n"),
    ])
    def test_every_setting_is_checked_whatever_the_command(self, command, setting, message):
        # a hand-built RunConfig may set a size that the command does not read; run checks it
        key, value = setting.split("=")
        with pytest.raises(ConfigError) as info:
            run(RunConfig(command, **{key: int(value)}))
        assert f"liealg: {info.value}\n" == message

    def test_diffmat_keeps_one_to_twenty(self, capsys):
        assert run_cli(capsys, "diffmat", "--n", "1")[0] == 0
        status, _, err = run_cli(capsys, "diffmat", "--n", "0")
        assert status == 2 and "n must lie in 1..20" in err

    def test_bool_flag_wins_over_file_and_its_absence_does_not(self, capsys, monkeypatch,
                                                                tmp_path):
        # the removed switch is a usage error, with a --config file or without; without
        # either table1 builds on its one interval
        cfg = tmp_path / "run.cfg"
        cfg.write_text("include_zero_endpoint=no\n")
        for argv in (["--config", str(cfg), "--include-zero-endpoint"],
                     ["--include-zero-endpoint"]):
            assert_usage_error(capsys, ["table1", *argv], "--include-zero-endpoint")
        monkeypatch.delenv("LIEALG_SEED", raising=False)
        assert build_config(["table1"]) == RunConfig("table1")

    def test_seed_precedence_file_then_env_then_default(self, monkeypatch, tmp_path):
        # no file sets the seed: LIEALG_SEED does, else the default; no flag does either
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=8\n")
        monkeypatch.delenv("LIEALG_SEED", raising=False)
        assert build_config(["rank-audit"]).seed == 42
        monkeypatch.setenv("LIEALG_SEED", "7")
        assert build_config(["rank-audit"]).seed == 7
        for argv in (["--config", str(cfg)], ["--seed", "8"]):
            with pytest.raises(SystemExit) as exit_info:
                build_config(["rank-audit", *argv])
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_setting_comes_from_flag_then_env_then_default(self, monkeypatch, command):
        flags = {key: FLAG_VALUES[key] for key, (_, _, commands, _) in SETTINGS.items()
                 if command in commands}
        argv = [command, *(f"--{key.replace('_', '-')}={text}" for key, (text, _) in flags.items())]
        parsed = {key: value for key, (_, value) in flags.items()}
        monkeypatch.delenv("LIEALG_SEED", raising=False)
        assert build_config([command]) == RunConfig(command)
        assert build_config(argv) == RunConfig(command, **parsed)
        monkeypatch.setenv("LIEALG_SEED", "7")
        assert build_config([command]) == RunConfig(command, seed=7)
        assert build_config(argv) == RunConfig(command, **parsed, seed=7)

    def test_unknown_command_is_config_error(self, capsys):
        # argparse picks the command; a hand-built config with another one fails in run
        with pytest.raises(ConfigError, match="unknown command 'bogus'"):
            run(RunConfig(command="bogus"))
        with pytest.raises(SystemExit) as exit_info:
            main(["bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestRunValidates:
    """run() refuses what the command line refuses, for a hand-built RunConfig too."""

    @pytest.mark.parametrize("config, message", [
        (RunConfig("diffmat", n=25), "n must lie in 1..20, got 25"),
        (RunConfig("diffmat", nodes="0,1", n=0), "n must lie in 1..20, got 0"),
        (RunConfig("rank-audit", seed=-1), "seed must be non-negative, got -1"),
        (RunConfig("table3", n1=3), "n1 must lie in 4..20, got 3"),
        (RunConfig("plot-figure1", n1=5, n2=21), "n2 must lie in 4..20, got 21"),
    ])
    def test_out_of_range_config_raises(self, config, message):
        with pytest.raises(ConfigError) as info:
            run(config)
        assert str(info.value) == message


class TestSizeBounds:
    def test_both_layers_reject_one_past_each_bound(self):
        # the bounds are read from bvp, the one place that declares them
        assert (cli.MAX_N, cli.MIN_N_2D) == (bvp.MAX_N, bvp.MIN_N_2D)
        high, low = bvp.MAX_N + 1, bvp.MIN_N_2D - 1
        assert bvp.solve_two_point(bvp.MAX_N).error_max < 1e-6
        with pytest.raises(ValueError, match=f"n must lie in 2..{bvp.MAX_N}, got {high}"):
            bvp.solve_two_point(high)
        for n1, n2 in ((low, bvp.MIN_N_2D), (bvp.MIN_N_2D, high)):
            with pytest.raises(ValueError, match=f"must lie in {bvp.MIN_N_2D}..{bvp.MAX_N}"):
                bvp.solve_hyperbolic(n1, n2)
        for argv in (["diffmat", "--n", str(high)], ["table3", "--n1", str(low)],
                     ["plot-figure1", "--n2", str(high)]):
            with pytest.raises(ConfigError, match="must lie in"):
                build_config(argv)


class TestCommandTables:
    def test_settings_are_the_run_config_fields(self):
        # RunConfig is built from the rows: the command, then each setting with its default
        fields = dataclasses.fields(RunConfig)
        assert fields[0].name == "command" and fields[0].default is dataclasses.MISSING
        assert [(f.name, f.default) for f in fields[1:]] == [
            (key, default) for key, (_, default, _, _) in SETTINGS.items()]
        assert RunConfig.__module__ == "liealg.cli" and RunConfig.__qualname__ == "RunConfig"
        config = RunConfig("diffmat", nodes="0,1", out="x.txt")
        assert pickle.loads(pickle.dumps(config)) == config
        assert repr(RunConfig("table1")) == (
            "RunConfig(command='table1', nodes=None, n=None, n1=None, n2=None, out=None, "
            "seed=42)")

    def test_flags_are_the_table_flags(self):
        assert set(FLAGS) == set(COMMANDS)
        for command, flags in FLAGS.items():
            table = {"--" + key.replace("_", "-")
                     for key, (_, _, commands, _) in SETTINGS.items() if command in commands}
            assert table == flags

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"^ +(?:-h, )?(--[\w-]+)", out, re.M)) == FLAGS[command] | {"--help"}
        assert "output file (default: stdout)" in out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_prints_each_flag_help_text(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        for key, (_, _, commands, flag_help) in SETTINGS.items():
            if command in commands:
                assert flag_help and flag_help in out, key
        assert "(default: None)" not in out

    def test_top_level_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command, (help_text, _) in COMMANDS.items():
            assert re.search(rf"^ +{command} +{re.escape(help_text)}$", out, re.M)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_row_is_help_and_private_handler(self, command):
        help_text, handler = COMMANDS[command]
        assert isinstance(help_text, str) and help_text
        assert inspect.isfunction(handler) and handler.__module__ == "liealg.cli"
        assert handler.__name__.startswith("_") and getattr(cli, handler.__name__) is handler

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_run_returns_what_the_row_handler_returns(self, monkeypatch, command):
        calls = []
        result = (5, f"{command} output")

        def handler(config):
            calls.append(config)
            return result

        monkeypatch.setitem(COMMANDS, command, (COMMANDS[command][0], handler))
        config = RunConfig(command)
        assert run(config) is result and calls == [config]
