"""CLI surface: formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from dstable import DSParams, ds_pmf
from dstable.cli import _PLOT_SET, build_parser, main
from dstable.errors import DstableError

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(capsys, *argv):
    """run_cli, with argparse's SystemExit read as the exit code."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestPmfCommand:
    def test_poisson_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--alpha", "1", "--gamma", "0", "--delta", "2",
            "--nmax", "5",
        )
        header, rows = csv_rows(out)
        assert header == ["n", "pmf", "cdf"]
        assert len(rows) == 6
        for n, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(oracles.poisson_pmf(2.0, n), rel=1e-12)
        assert code == 3  # nmax 5 leaves visible tail mass; output is honest
        assert "tail mass" in err

    def test_complete_table_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--alpha", "2", "--gamma", "1", "--delta", "2",
            "--nmax", "500",
        )
        assert code == 0
        assert err == ""

    def test_rate_past_int32_exponent_exits_three(self, capsys):
        # every mass rounds to 0 at compound rate ~2e10: an honest, empty table
        code, out, err = run_cli(
            capsys, "pmf", "--alpha", "1.5", "--gamma", "1", "--delta", "1e10",
            "--nmax", "5",
        )
        _, rows = csv_rows(out)
        assert code == 3
        assert [float(row[1]) for row in rows] == [0.0] * 6
        assert "tail mass" in err

    def test_invalid_params_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "pmf", "--alpha", "2", "--gamma", "1", "--delta", "1.5",
        )
        assert code == 2
        assert out == ""
        assert "alpha*gamma" in err  # names the violated constraint

    def test_hermite_odd_rows_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "pmf", "--alpha", "2", "--gamma", "1", "--delta", "2",
            "--nmax", "10",
        )
        _, rows = csv_rows(out)
        for n, row in enumerate(rows):
            if n % 2 == 1:
                assert float(row[1]) == 0.0

    def test_csv_json_numeric_identity(self, capsys):
        args = ["pmf", "--alpha", "2", "--gamma", "1", "--delta", "3", "--nmax", "40"]
        _, out_csv, _ = run_cli(capsys, *args)
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        _, rows = csv_rows(out_csv)
        payload = json.loads(out_json)
        assert payload["schema"] == "pmf"
        for i, row in enumerate(rows):
            assert row[1] == format(payload["pmf"][i], ".17g")
            assert row[2] == format(payload["cdf"][i], ".17g")


class TestCdfCommand:
    def test_matches_pmf_cdf_column(self, capsys):
        base = ["--alpha", "2", "--gamma", "1", "--delta", "2", "--nmax", "30"]
        _, out_pmf, _ = run_cli(capsys, "pmf", *base)
        _, out_cdf, _ = run_cli(capsys, "cdf", *base)
        _, pmf_rows = csv_rows(out_pmf)
        header, cdf_rows = csv_rows(out_cdf)
        assert header == ["n", "cdf"]
        assert [r[2] for r in pmf_rows] == [r[1] for r in cdf_rows]


class TestSampleCommand:
    def test_deterministic_given_seed(self, capsys):
        args = ["sample", "--alpha", "1", "--gamma", "0", "--delta", "3",
                "--n", "5", "--seed", "42"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        base = ["sample", "--alpha", "1", "--gamma", "0", "--delta", "3", "--n", "20"]
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_hermite_samples_even(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--alpha", "2", "--gamma", "1", "--delta", "2",
            "--n", "100", "--seed", "7",
        )
        values = [int(v) for v in out.strip().splitlines()[1:]]
        assert code == 0
        assert len(values) == 100
        assert all(v % 2 == 0 for v in values)

    def test_nonpositive_n_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--alpha", "1", "--gamma", "0", "--delta", "3",
            "--n", "0", "--seed", "1",
        )
        assert code == 2
        assert "--n" in err

    def test_alpha_three_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "3", "--gamma", "1", "--delta", "5",
            "--n", "5", "--seed", "1",
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unprintable_variate_exits_two(self, capsys, fmt):
        # the third draw has more digits than str(int) prints by default
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "0.0002", "--gamma", "-1", "--delta", "0",
            "--n", "3", "--seed", "0", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "digits" in err

    def test_small_alpha_tail_cost_is_bounded(self, capsys):
        # about 20 jumps from the closed-form tail, of up to ~265,000 bits each
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "0.0002", "--gamma", "-1", "--delta", "0",
            "--n", "20", "--seed", "0",
        )
        assert time.perf_counter() - start < 0.2
        assert code == 2
        assert "digits" in err

    def test_tiny_alpha_named_error(self, capsys):
        # a deep-tail jump would take an integer of ~5e10 bits: refused, not built
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "1e-9", "--gamma", "-1", "--delta", "0",
            "--n", "20", "--seed", "0",
        )
        assert code == 2
        assert out == ""
        assert "alpha" in err

    def test_delta_past_double_resolution(self, capsys):
        # rho = delta/(delta - gamma) rounds to 1; the sampler never forms it
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "1.5", "--gamma", "1", "--delta", "1e16",
            "--n", "1", "--seed", "3",
        )
        assert code == 0, err
        assert int(out.split()[1]) > 0

    def test_hermite_huge_rates_fast(self, capsys):
        # Poisson(8e17) + 2 Poisson(1e17): two draws, not 1e17 jumps
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "2", "--gamma", "1e17", "--delta", "1e18",
            "--n", "1", "--seed", "4",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        # mean 1e18, variance delta + 2 gamma = 1.2e18
        assert abs(int(out.split()[1]) - 10**18) < 10 * math.isqrt(12 * 10**17)

    def test_poisson_rate_past_numpy_range(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "1", "--gamma", "0", "--delta", "1e19",
            "--n", "2", "--seed", "5",
        )
        values = [int(v) for v in out.split()[1:]]
        assert code == 0, err
        assert len(values) == 2
        assert all(abs(v - 10**19) < 10 * math.isqrt(10**19) for v in values)

    def test_jump_budget_exits_two(self, capsys):
        # core rate 5e299: refused before the first jump, not looped over
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sample", "--alpha", "1.5", "--gamma", "1e300", "--delta", "1e301",
            "--n", "3",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "core jumps" in err

    def test_json_matches_csv_values(self, capsys):
        args = ["sample", "--alpha", "2", "--gamma", "1", "--delta", "3",
                "--n", "25", "--seed", "11"]
        _, out_csv, _ = run_cli(capsys, *args)
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        csv_values = [int(v) for v in out_csv.strip().splitlines()[1:]]
        assert json.loads(out_json)["values"] == csv_values

    def test_bit_identical_across_processes(self):
        cmd = [sys.executable, "-m", "dstable", "sample", "--alpha", "0.5",
               "--gamma", "-1", "--delta", "0", "--n", "50", "--seed", "99"]
        first = subprocess.run(cmd, capture_output=True, text=True, check=True)
        second = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0


class TestCheckCommand:
    def test_strict_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--alpha", "0.5", "--gamma", "-1", "--delta", "0",
            "--format", "json",
        )
        report = json.loads(out)
        assert code == 0
        assert report["schema"] == "check"
        assert report["strict"] is True
        assert report["broad"] is False
        assert report["self_decomposable"] is True
        assert report["mean"] == "inf"
        assert report["compound"]["lambda"] == 1.0
        assert report["stability_max_residual"] < 1e-12

    def test_not_self_decomposable(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", "--alpha", "2", "--gamma", "1", "--delta", "3",
            "--format", "json",
        )
        report = json.loads(out)
        assert report["self_decomposable"] is False
        assert report["mean"] == 3.0
        assert report["variance"] == 5.0

    def test_explicit_rho(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", "--alpha", "2", "--gamma", "1", "--delta", "4",
            "--rho", "0.6", "--format", "json",
        )
        assert json.loads(out)["stability_max_residual"] < 1e-12

    def test_csv_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--alpha", "1", "--gamma", "0", "--delta", "2",
        )
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["key", "value"]
        as_dict = {r[0]: r[1] for r in rows}
        assert as_dict["is_poisson"] == "true"
        assert float(as_dict["mean"]) == 2.0

    def test_invalid_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--alpha", "0.5", "--gamma", "1", "--delta", "0",
        )
        assert code == 2
        assert "gamma" in err

    def test_rho_past_double_resolution_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--alpha", "1.5", "--gamma", "1", "--delta", "1e16",
        )
        assert code == 2
        assert out == ""
        assert "double resolution" in err

    def test_point_mass_has_no_compound(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--alpha", "1", "--gamma", "0", "--delta", "0",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["compound"] is None


class TestStabilityTestCommand:
    def test_identity_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4",
            "--rho", "0.6", "--n", "5000", "--seed", "1",
            "--tv-threshold", "0.1", "--format", "json",
        )
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert report["mu"] == pytest.approx(1.6)

    def test_reports_pooled_degrees_of_freedom(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-test", "--alpha", "2", "--gamma", "1", "--delta", "2",
            "--rho", "0.5", "--n", "5000", "--seed", "1", "--format", "json",
        )
        report = json.loads(out)
        assert code == 0
        assert 1 <= report["chi_square_dof"] <= report["bins_used"] - 1

    def test_mu_override_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4",
            "--rho", "0.6", "--n", "5000", "--seed", "1", "--mu-override", "0",
            "--format", "json",
        )
        report = json.loads(out)
        assert code == 4
        assert report["passed"] is False
        assert report["tv_distance"] > 0.1

    def test_bad_rho_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4",
            "--rho", "1.5", "--n", "5000", "--seed", "1",
        )
        assert code == 2
        assert "rho" in err

    def test_jump_budget_exits_two(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "stability-test", "--alpha", "1.5", "--gamma", "1e300",
            "--delta", "1e301", "--rho", "0.5", "--n", "1000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "core jumps" in err

    @pytest.mark.parametrize(
        "law", [("1", "0", "2e4"), ("1", "0", "1e5"), ("1.5", "1", "1e12")], ids=str
    )
    def test_vacuous_comparison_exits_two(self, capsys, law):
        # the reference table ends before the law's mass: every bin expects < 5
        alpha, gamma, delta = law
        code, out, err = run_cli(
            capsys, "stability-test", "--alpha", alpha, "--gamma", gamma,
            "--delta", delta, "--rho", "0.5", "--n", "1000",
        )
        assert code == 2
        assert out == ""
        assert "vacuous" in err


class TestConvertCommand:
    def test_ds_to_compound(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--from", "ds", "--to", "compound",
            "--alpha", "2", "--gamma", "1", "--delta", "3", "--format", "json",
        )
        result = json.loads(out)["result"]
        assert code == 0
        assert result["lambda"] == 2.0
        assert result["rho"] == 1.5

    def test_compound_to_ds(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--from", "compound", "--to", "ds",
            "--alpha", "2", "--lam", "2", "--rho", "1.5", "--format", "json",
        )
        result = json.loads(out)["result"]
        assert code == 0
        assert result["gamma"] == 1.0 and result["delta"] == 3.0

    def test_es_to_ds(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--from", "es", "--to", "ds",
            "--alpha", "2", "--sigma", "1", "--delta", "4", "--format", "json",
        )
        result = json.loads(out)["result"]
        assert code == 0
        assert result["gamma"] == pytest.approx(1.0)

    def test_ds_to_es(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--from", "ds", "--to", "es",
            "--alpha", "0.5", "--gamma", str(-math.sqrt(2.0)), "--delta", "0",
            "--format", "json",
        )
        result = json.loads(out)["result"]
        assert code == 0
        assert result["sigma"] == pytest.approx(1.0)

    def test_rho_past_double_resolution_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "--from", "ds", "--to", "compound",
            "--alpha", "1.5", "--gamma", "1", "--delta", "1e16",
        )
        assert code == 2
        assert out == ""
        assert "double resolution" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--from", "es", "--to", "ds", "--alpha", "1.5", "--sigma", "1e308",
             "--delta", "3"),
            ("--from", "ds", "--to", "es", "--alpha", "0.5", "--gamma=-1e300",
             "--delta", "0"),
        ],
        ids=["es-ds", "ds-es"],
    )
    def test_past_float_range_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "convert", *argv)
        assert code == 2
        assert out == ""
        assert "float range" in err

    def test_missing_flags_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--from", "ds", "--to", "compound")
        assert code == 2
        assert "--alpha" in err

    def test_unsupported_direction_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "convert", "--from", "es", "--to", "compound",
            "--alpha", "2", "--sigma", "1", "--delta", "4",
        )
        assert code == 2


class TestPlotDataCommand:
    def test_regime_set(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--nmax", "20")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["label", "n", "pmf"]
        labels = {r[0] for r in rows}
        assert labels == {
            "strict_alpha_0.5",
            "alpha_1",
            "selfdecomp_alpha_1.5",
            "multimodal_alpha_2",
        }
        witness = [float(r[2]) for r in rows if r[0] == "multimodal_alpha_2"]
        assert all(v == 0.0 for v in witness[1::2])  # odd masses vanish

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--nmax", "10", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "plot-data"
        assert len(payload["n"]) == len(payload["pmf"]) == len(payload["label"])


class TestNoWarningFilter:
    """Truncated tables are read from tail_bound_met: no warning is raised or filtered."""

    @pytest.mark.parametrize("command", ["pmf", "cdf"])
    def test_heavy_table_exits_three(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, command, "--alpha", "0.5", "--gamma=-1", "--delta", "0", "--nmax", "50"
            )
        assert code == 3
        assert len(out.splitlines()) == 52
        assert err.startswith("warning: tail mass") and err.count("\n") == 1

    def test_plot_data_exits_zero(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "plot-data")
        assert code == 0
        assert err == ""
        # the heavy tail is cut at the window's end, where ds_pmf would warn
        assert sum(line.startswith("strict_alpha_0.5,") for line in out.splitlines()) == 51


class TestExitCodeContract:
    def test_usage_error_is_two(self):
        cmd = [sys.executable, "-m", "dstable", "pmf", "--alpha", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2

    def test_unknown_command_is_two(self):
        cmd = [sys.executable, "-m", "dstable", "frobnicate"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2


def root_parse(capsys, *argv):
    """run_any's triple for argv parsed by the root parser, then handled as main does."""
    try:
        args = build_parser().parse_args(list(argv))
        try:
            code = args.handler(args)
        except DstableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DS = ["--alpha", "1.5", "--gamma", "1", "--delta", "3"]


class TestDirectParse:
    """main parses a request naming a subcommand with that subcommand's parser alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", *DS, "--nmax", "20"],
            ["cdf", *DS, "--nmax", "20", "--format", "json"],
            ["sample", *DS, "--n", "5", "--seed", "3"],
            ["check", *DS, "--rho", "0.3", "0.6"],
            ["stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4", "--rho", "0.6",
             "--n", "1000", "--seed", "1"],
            ["convert", "--from", "ds", "--to", "es", *DS],
            ["convert", "--from", "ds", "--to", "compound"],  # the handler's usage error
            ["plot-data", "--nmax", "5", "--format", "json"],
            ["pmf", "--alpha", "1"],  # missing required flags
            ["sample", *DS, "--n"],  # a flag without its value
            ["pmf", *DS, "--format", "xml"],  # bad choice
            ["cdf", "--alpha", "one", "--gamma", "1", "--delta", "3"],  # bad type
            ["check", *DS, "--bogus", "1"],  # unknown option
            ["plot-data", "extra"],  # unknown positional
            ["plot-data", "--nmax", "5", "--", "extra"],
            ["pmf", "--alph", "1.5", "--gam", "1", "--del", "3", "--nm", "9"],  # abbreviated
            ["convert", "--f", "ds", "--to", "es", *DS],  # ambiguous: --from or --format
            ["stability-test", "-h"],
            ["pmf", "--help"],
            ["convert", *DS, "--help"],
            ["-h"],
            ["--help"],
            ["-h", "pmf"],
            [],
            ["frobnicate"],
            ["frobnicate", "--alpha", "1"],
            ["--alpha", "1", "pmf"],
        ],
        ids=str,
    )
    def test_same_as_root_parser(self, capsys, argv):
        got = run_any(capsys, *argv)
        assert got == root_parse(capsys, *argv)
        assert got[0] in (0, 2, 3, 4)

    def test_one_parse_per_request(self, capsys, monkeypatch):
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            parses.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        run_cli(capsys, "convert", "--from", "ds", "--to", "es", *DS)
        assert parses == ["dstable convert"]

    def test_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["convert", "--from", "ds", "--to", "compound", *DS]
        monkeypatch.setattr(sys, "argv", ["dstable", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == root_parse(capsys, *argv)
        assert code == 0


def render_rows(fmt, schema, header, rows):
    """A table as printed one row and one value at a time."""

    def cell(v):
        if isinstance(v, float):
            return format(v, ".17g")
        return json.dumps(v) if isinstance(v, str) and fmt == "json" else str(v)

    if fmt == "csv":
        return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])
    columns = ", ".join(
        f"{json.dumps(name)}: [" + ", ".join(cell(row[i]) for row in rows) + "]"
        for i, name in enumerate(header)
    )
    return f'{{"schema": {json.dumps(schema)}, {columns}}}\n'


def quiet_pmf(p, nmax, tail_bound):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ds_pmf(p, n_max=nmax, tail_bound=tail_bound)


class TestRepeatedCalls:
    """main(argv) called many times in one process."""

    def test_one_parser_for_many_calls(self, capsys, monkeypatch):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):
            built.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        for _ in range(3):
            run_any(capsys, "pmf", "--alpha", "2", "--gamma", "1", "--delta", "2",
                    "--nmax", "3")
            run_any(capsys, "convert", "--from", "ds", "--to", "es", "--alpha", "2",
                    "--gamma", "1", "--delta", "2")
            run_any(capsys, "pmf", "--alpha", "1")
            run_any(capsys, "frobnicate")
        assert len(built) <= 1  # 0 when an earlier test built it

    @pytest.mark.parametrize(
        "first, second",
        [
            (["check", "--alpha", "1.5", "--gamma", "1", "--delta", "3", "--rho", "0.3"],
             ["check", "--alpha", "1.5", "--gamma", "1", "--delta", "3"]),
            (["pmf", "--alpha", "0.5", "--gamma", "-1", "--delta", "0", "--tail-bound",
              "1e-6"],
             ["pmf", "--alpha", "0.5", "--gamma", "-1", "--delta", "0"]),
            (["stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4", "--rho",
              "0.6", "--n", "5000", "--seed", "1", "--tv-threshold", "0.1",
              "--mu-override", "-1"],
             ["stability-test", "--alpha", "2", "--gamma", "1", "--delta", "4", "--rho",
              "0.6", "--n", "5000", "--seed", "1", "--tv-threshold", "0.1"]),
            (["pmf", "--alpha", "1"],
             ["pmf", "--alpha", "1", "--gamma", "0", "--delta", "2", "--nmax", "5"]),
        ],
        ids=["check-rho", "pmf-tail-bound", "stability-mu-override", "usage-error"],
    )
    def test_no_state_between_calls(self, capsys, first, second):
        before = run_any(capsys, *second)
        other = run_any(capsys, *first)
        after = run_any(capsys, *second)
        assert after == before
        assert other != before  # the first call's flag changes the answer

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nmax", [0, 1, 7, 50])
    @pytest.mark.parametrize("law", [(0.5, -1.0, 0.0), (2.0, 1.0, 2.0), (1.5, 1.0, 1000.0)],
                             ids=str)
    def test_tables_equal_row_by_row_rendering(self, capsys, fmt, nmax, law):
        flags = ["--alpha", repr(law[0]), "--gamma", repr(law[1]), "--delta", repr(law[2]),
                 "--nmax", str(nmax), "--format", fmt]
        table = quiet_pmf(DSParams(*law), nmax, 1e-12)
        n = range(len(table))
        masses, cum = table.masses.tolist(), table.cdf_values.tolist()
        _, out, _ = run_cli(capsys, "pmf", *flags)
        assert out == render_rows(fmt, "pmf", ["n", "pmf", "cdf"],
                                  [list(row) for row in zip(n, masses, cum)])
        _, out, _ = run_cli(capsys, "cdf", *flags)
        assert out == render_rows(fmt, "cdf", ["n", "cdf"], [list(row) for row in zip(n, cum)])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "law", [(1.5, 1.0, 1000.0), (0.5, -1.0, 0.0), (1.5, 1.0, 3.0)], ids=str
    )
    def test_long_tables_equal_row_by_row_rendering(self, capsys, fmt, law):
        # 3001 rows with no tail bound, in exponent form; at lam = 999 the
        # masses rise from 0 through the subnormals
        flags = ["--alpha", repr(law[0]), "--gamma", repr(law[1]), "--delta", repr(law[2]),
                 "--nmax", "3000", "--tail-bound", "0", "--format", fmt]
        table = quiet_pmf(DSParams(*law), 3000, 0.0)
        masses, cum = table.masses.tolist(), table.cdf_values.tolist()
        assert len(table) == 3001
        assert any("e-" in format(m, ".17g") for m in masses)
        if law[2] == 1000.0:
            assert any(0.0 < m < sys.float_info.min for m in masses)
        _, out, _ = run_cli(capsys, "pmf", *flags)
        assert out == render_rows(fmt, "pmf", ["n", "pmf", "cdf"],
                                  [list(row) for row in zip(range(3001), masses, cum)])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nmax", [0, 1, 20, 3000])
    def test_plot_data_equals_row_by_row_rendering(self, capsys, fmt, nmax):
        rows = []
        for label, alpha, gamma, delta in _PLOT_SET:
            table = quiet_pmf(DSParams(alpha, gamma, delta), nmax, 1e-8)
            rows += [[label, n, float(m)] for n, m in enumerate(table.masses)]
        code, out, _ = run_cli(capsys, "plot-data", "--nmax", str(nmax), "--format", fmt)
        assert code == 0
        assert out == render_rows(fmt, "plot-data", ["label", "n", "pmf"], rows)


# magnitudes log-uniform from 1e-20 up to 1e308
MAGNITUDES = st.floats(min_value=-20.0, max_value=308.0).map(lambda e: 10.0**e)
ALPHAS = st.one_of(
    st.sampled_from([1.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9, 1e-6]),
    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
)
CONTRACT = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def exit_and_stdout(*argv) -> tuple[int, str]:
    """main's exit code and stdout, stderr discarded; argparse errors exit 2 via SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def exit_code(*argv) -> int:
    """main's exit code, output discarded."""
    return exit_and_stdout(*argv)[0]


def ds_flags(alpha, m1, m2):
    """Flags of an admissible law when the magnitudes allow one: gamma signed by alpha."""
    gamma = -m1 if alpha < 1.0 else m1
    delta = alpha * gamma + m2 if alpha >= 1.0 else m2
    return [f"--alpha={alpha!r}", f"--gamma={gamma!r}", f"--delta={delta!r}"]


def admissible_rho(alpha, u):
    """A rho in BSib(alpha, rho)'s admissible range, placed at the fraction u of it."""
    if alpha < 1.0:
        lo = -alpha / (1.0 - alpha)
        return min(lo + u * (1.0 - lo), math.nextafter(1.0, 0.0))
    if alpha == 1.0:
        return u
    hi = alpha / (alpha - 1.0)
    return max(1.0 + u * (hi - 1.0), math.nextafter(1.0, 2.0))


NEAR_ONE = st.floats(min_value=-1e-8, max_value=1e-8).map(lambda d: 1.0 + d)
# alpha near 0 and within 1e-8 of 1, besides ALPHAS
EDGE_ALPHAS = st.one_of(
    ALPHAS, NEAR_ONE, st.floats(min_value=-30.0, max_value=-1.0).map(lambda e: 10.0**e)
)


@st.composite
def law_flags(draw, alphas=EDGE_ALPHAS, magnitudes=MAGNITUDES):
    """Flags of a law drawn with gamma's magnitude from magnitudes: delta at
    alpha gamma (0 below alpha = 1), anywhere, or up to 1e300 |gamma| past it."""
    alpha, m1 = draw(alphas), draw(magnitudes)
    m2 = draw(st.one_of(
        st.just(0.0),
        MAGNITUDES,
        st.floats(min_value=-20.0, max_value=300.0).map(lambda e: min(10.0**e * m1, 1e308)),
    ))
    return ds_flags(alpha, m1, m2)


TAIL_BOUNDS = st.one_of(st.sampled_from([0.0, 1e-12, 1e-6]), MAGNITUDES.map(lambda m: m / 1e20))


class TestExitContractProperty:
    """Every subcommand exits 0, 2, 3 or 4 at any magnitude a double holds."""

    @CONTRACT
    @given(ALPHAS, MAGNITUDES, MAGNITUDES, st.sampled_from(["compound", "es"]))
    def test_convert_from_ds(self, alpha, m1, m2, target):
        argv = ["convert", "--from", "ds", "--to", target, *ds_flags(alpha, m1, m2)]
        assert exit_code(*argv) in (0, 2, 3, 4)

    @CONTRACT
    @given(ALPHAS, MAGNITUDES, st.floats(min_value=0.0, max_value=1.0))
    def test_convert_from_compound(self, alpha, lam, u):
        argv = ["convert", "--from", "compound", "--to", "ds", f"--alpha={alpha!r}",
                f"--lam={lam!r}", f"--rho={admissible_rho(alpha, u)!r}"]
        assert exit_code(*argv) in (0, 2, 3, 4)

    @CONTRACT
    @given(ALPHAS, MAGNITUDES, MAGNITUDES, st.booleans())
    def test_convert_from_es(self, alpha, sigma, m, negative):
        delta = -m if negative else m
        argv = ["convert", "--from", "es", "--to", "ds", f"--alpha={alpha!r}",
                f"--sigma={sigma!r}", f"--delta={delta!r}"]
        assert exit_code(*argv) in (0, 2, 3, 4)

    @CONTRACT
    @given(ALPHAS, MAGNITUDES, MAGNITUDES)
    @example(0.5, 1e308, 1e308)  # the compound rate delta - gamma overflows
    def test_check(self, alpha, m1, m2):
        code, out = exit_and_stdout("check", *ds_flags(alpha, m1, m2), "--format", "json")
        assert code in (0, 2, 3, 4)
        if code == 0:
            # only the point mass lacks a compound form
            report = json.loads(out)
            assert (report["compound"] is None) == report["is_degenerate"]

    @CONTRACT
    @given(law_flags(), st.integers(0, 200), TAIL_BOUNDS, st.sampled_from(["pmf", "cdf"]))
    @example(["--alpha=5e-324", "--gamma=-1.0", "--delta=0.0"], 64, 0.0, "pmf")  # no rates
    def test_tables(self, flags, nmax, tail_bound, command):
        argv = [command, *flags, "--nmax", str(nmax), f"--tail-bound={tail_bound!r}"]
        assert exit_code(*argv) in (0, 2, 3, 4)

    @CONTRACT
    @given(law_flags(), st.integers(1, 50), st.integers(0, 2**32 - 1))
    # the Poisson rate delta - alpha gamma overflows
    @example(["--alpha=0.5", "--gamma=-1.7e308", "--delta=1.7e308"], 1, 0)
    def test_sample(self, flags, n, seed):
        argv = ["sample", *flags, "--n", str(n), "--seed", str(seed), "--format", "json"]
        code, out = exit_and_stdout(*argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert len(json.loads(out)["values"]) == n

    @CONTRACT
    @given(st.integers(0, 200), TAIL_BOUNDS)
    def test_plot_data(self, nmax, tail_bound):
        assert exit_code("plot-data", "--nmax", str(nmax), f"--tail-bound={tail_bound!r}") == 0

    # Each example draws and thins 2000 variates: few examples, a core rate
    # (which sets a draw's cost) below 1e2, and alpha from 1e-3. Below that,
    # draws are integers of 4.8/alpha bits: a tail jump bisects only their top
    # bits (~0.1 ms at alpha = 1e-6), but summing and thinning up to 2e5 of
    # them still takes time linear in their length.
    @settings(CONTRACT, max_examples=20)
    @given(law_flags(st.one_of(st.sampled_from([1e-3, 1.0, 2.0]), NEAR_ONE,
                               st.floats(min_value=1e-3, max_value=2.0)),
                     st.floats(min_value=-20.0, max_value=2.0).map(lambda e: 10.0**e)),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_stability_test(self, flags, rho):
        argv = ["stability-test", *flags, f"--rho={rho!r}", "--n", "1000", "--seed", "1"]
        assert exit_code(*argv) in (0, 2, 3, 4)
