import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from liealg import bvp, cli
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

# each command's flags besides -h/--help, as the command line has always taken them
FLAGS = {
    "diffmat": {"--nodes", "--a", "--b", "--n", "--out", "--config"},
    "rank-audit": {"--rel-tol", "--out", "--config"},
    "table1": {"--include-zero-endpoint", "--out", "--config"},
    "table3": {"--n1", "--n2", "--out", "--config"},
    "plot-figure1": {"--n1", "--n2", "--out", "--config"},
}

EXPECTED_Z012 = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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

    def test_nodes_from_file(self, capsys, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("0\n1\n2\n")
        status, out, _ = run_cli(capsys, "diffmat", "--nodes", str(path))
        assert status == 0
        got = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
        np.testing.assert_array_equal(got, EXPECTED_Z012)

    @pytest.mark.parametrize("content, reason", [
        ("0\n2\n1\n", "strictly increasing"),
        ("0\nabc\n1\n", "could not convert"),
        ("0.5\n", "two nodes"),
    ])
    def test_bad_node_file_is_config_error(self, capsys, tmp_path, content, reason):
        path = tmp_path / "nodes.txt"
        path.write_text(content)
        status, out, err = run_cli(capsys, "diffmat", "--nodes", str(path))
        assert status == 2 and out == ""
        assert err.startswith(f"liealg: bad node file {path}: ") and reason in err
        assert err.count("\n") == 1

    def test_non_finite_matrix_is_an_error(self, capsys, tmp_path):
        # 1001 uniform nodes on [-1, 1] overflow the pi-weights
        path = tmp_path / "nodes.txt"
        path.write_text("".join(f"{x:.17g}\n" for x in np.linspace(-1.0, 1.0, 1001)))
        status, out, err = run_cli(capsys, "diffmat", "--nodes", str(path))
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 1001 nodes is not finite")

    def test_uniform_flags(self, capsys):
        status, out, _ = run_cli(capsys, "diffmat", "--a", "0", "--b", "1", "--n", "1")
        assert status == 0
        got = np.array([[float(v) for v in line.split()] for line in out.splitlines()])
        np.testing.assert_array_equal(got, [[-1.0, 1.0], [-1.0, 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b", [("0", "inf"), ("-inf", "1"), ("nan", "1")])
    def test_non_finite_endpoint_is_config_error(self, capsys, a, b):
        status, out, err = run_cli(capsys, "diffmat", f"--a={a}", f"--b={b}", "--n", "3")
        assert status == 2 and out == ""
        assert err.startswith("liealg: need finite a < b")

    def test_output_matches_golden_file(self):
        status, text = run(RunConfig("diffmat", n=20))
        assert status == 0
        assert text.encode() == (DATA / "diffmat_n20.txt").read_bytes()

    def test_jittered_output_matches_golden_file(self):
        # Z on unequal spacings: 13 jittered nodes given as a repr-formatted comma list
        nodes = ",".join(map(repr, _jittered_nodes(np.random.default_rng(12), 12).tolist()))
        status, text = run(RunConfig("diffmat", nodes=nodes))
        assert status == 0
        assert text.encode() == (DATA / "diffmat_jittered12.txt").read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_span_is_config_error(self, capsys):
        status, out, err = run_cli(capsys, "diffmat", "--a=-1e308", "--b=1e308", "--n", "2")
        assert status == 2 and out == ""
        assert err == "liealg: span b - a of [-1e+308, 1e+308] is not finite in float64\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_node_differences_are_an_error(self, capsys):
        status, out, err = run_cli(capsys, "diffmat", "--nodes=-1e308,1e308")
        assert status == 1 and out == ""
        assert err.startswith("liealg: differentiation matrix of 2 nodes is not finite")
        assert err.count("\n") == 1

    def test_missing_partition_is_config_error(self, capsys):
        status, out, err = run_cli(capsys, "diffmat")
        assert status == 2
        assert err.count("\n") == 1 and "diffmat" in err


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

    def test_negative_seed_is_config_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("LIEALG_SEED", "-1")
        assert run_cli(capsys, "rank-audit") == (2, "", "liealg: seed must be non-negative, got -1\n")
        monkeypatch.delenv("LIEALG_SEED")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-3\n")
        assert run_cli(capsys, "rank-audit", "--config", str(cfg)) == (
            2, "", "liealg: seed must be non-negative, got -3\n")

    def test_rel_tol_flag_validated(self, capsys):
        status, _, err = run_cli(capsys, "rank-audit", "--rel-tol", "2.0")
        assert status == 2 and "rel-tol" in err

    @pytest.mark.parametrize("seed", [42, 7])
    def test_output_matches_golden_file(self, seed):
        status, text = run(RunConfig("rank-audit", seed=seed))
        assert status == 0
        assert text.encode() == (DATA / f"rank_audit_seed{seed}.csv").read_bytes()

    def test_non_default_tolerance_matches_golden_file(self):
        # only a tolerance other than NILPOTENCY_TOL shows which rows print which
        status, text = run(RunConfig("rank-audit", seed=42, rel_tol=1e-10))
        assert status == 0
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
    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1=5\nnn=3\n")
        status, out, err = run_cli(capsys, "table3", "--config", str(cfg))
        assert status == 2 and out == ""
        assert err == f"liealg: {cfg}:2: unknown key 'nn'\n"

    def test_bad_boolean_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("include_zero_endpoint=maybe\n")
        status, out, err = run_cli(capsys, "table1", "--config", str(cfg))
        assert status == 2 and out == ""
        assert err.startswith(f"liealg: {cfg}:1: bad value for include_zero_endpoint: 'maybe'")

    @pytest.mark.parametrize("value, flag", [("yes", True), ("On", True), ("0", False),
                                             ("false", False)])
    def test_boolean_words(self, tmp_path, value, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"include-zero-endpoint={value}\n")
        config = build_config(["table1", "--config", str(cfg)])
        assert config.include_zero_endpoint is flag

    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn1=5\nn2=5\n")
        status, out, _ = run_cli(capsys, "table3", "--config", str(cfg))
        rows = parse_csv(out)
        assert status == 0 and [r["n"] for r in rows] == ["5x5"]

    def test_flags_win_over_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1=5\nn2=5\n")
        status, out, _ = run_cli(capsys, "table3", "--config", str(cfg), "--n1", "6")
        rows = parse_csv(out)
        assert status == 0 and [r["n"] for r in rows] == ["6x5"]

    def test_malformed_line_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1: 5\n")
        status, _, err = run_cli(capsys, "table3", "--config", str(cfg))
        assert status == 2 and "key=value" in err

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        status, _, err = run_cli(capsys, "table3", "--config", str(tmp_path / "nope.cfg"))
        assert status == 2

    def test_undecodable_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe\x00n=3\n")
        status, out, err = run_cli(capsys, "diffmat", "--config", str(cfg))
        assert status == 2 and out == ""
        assert err.startswith(f"liealg: cannot read config file {cfg}: ") and err.count("\n") == 1

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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n1=5\nn2=3\n")
        status, _, err = run_cli(capsys, "table3", "--config", str(cfg))
        assert status == 2 and "n2 must lie in 4..20" in err

    def test_diffmat_keeps_one_to_twenty(self, capsys):
        assert run_cli(capsys, "diffmat", "--n", "1")[0] == 0
        status, _, err = run_cli(capsys, "diffmat", "--n", "0")
        assert status == 2 and "n must lie in 1..20" in err

    def test_bool_flag_wins_over_file_and_its_absence_does_not(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("include_zero_endpoint=no\n")
        assert build_config(["table1", "--config", str(cfg), "--include-zero-endpoint"]
                            ).include_zero_endpoint is True
        cfg.write_text("include_zero_endpoint=yes\n")
        assert build_config(["table1", "--config", str(cfg)]).include_zero_endpoint is True
        assert build_config(["table1"]).include_zero_endpoint is False

    def test_seed_precedence_file_then_env_then_default(self, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=8\n")
        monkeypatch.delenv("LIEALG_SEED", raising=False)
        assert build_config(["rank-audit"]).seed == 42
        assert build_config(["rank-audit", "--config", str(cfg)]).seed == 8
        monkeypatch.setenv("LIEALG_SEED", "7")
        assert build_config(["rank-audit"]).seed == 7
        assert build_config(["rank-audit", "--config", str(cfg)]).seed == 8

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
        (RunConfig("rank-audit", rel_tol=2.0), "rel-tol must lie in (0, 1), got 2.0"),
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
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert fields[0] == "command" and list(SETTINGS) == fields[1:]

    def test_flags_are_the_table_flags(self):
        assert set(FLAGS) == set(COMMANDS)
        for command, flags in FLAGS.items():
            table = {"--" + key.replace("_", "-")
                     for key, (_, commands, _) in SETTINGS.items() if command in commands}
            assert table | {"--config"} == flags

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"^ +(?:-h, )?(--[\w-]+)", out, re.M)) == FLAGS[command] | {"--help"}
        assert "key=value file; explicit flags win" in out
        assert "output file (default: stdout)" in out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_prints_each_flag_help_text(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        for key, (_, commands, flag_help) in SETTINGS.items():
            if command in commands:
                assert flag_help and flag_help in out, key

    def test_top_level_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command, help_text in COMMANDS.items():
            assert re.search(rf"^ +{command} +{re.escape(help_text)}$", out, re.M)
