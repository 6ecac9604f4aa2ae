import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyhold import ParseError, backtest, cli
from buyhold.cli import main, read_matrix_csv
from buyhold.formatting import fmt12
from buyhold.market import MarketParams, payoff_matrix_K


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(*args):
    with pytest.raises(SystemExit) as err:
        main(list(args))
    assert err.value.code == 2


class TestWeights:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--alpha", "2", "--beta", "2", "--days", "3")
        assert code == 0
        assert "ratio  1.66666666667" in out
        assert "0.4" in out and "0.2" in out

    def test_preset_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--preset", "taipei", "--days", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"][0] == pytest.approx(0.4831, abs=1e-4)
        assert payload["ratio"] == pytest.approx(1.035, abs=1e-9)
        assert payload["adversary"] == payload["weights"][::-1]

    def test_csv_has_ratio_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--alpha", "2", "--beta", "2", "--days", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "day,weight,adversary"
        assert lines[-1].startswith("ratio,1.33333333333")

    def test_usage_errors(self):
        usage_error("weights", "--alpha", "2", "--beta", "2", "--days", "1")
        usage_error("weights", "--days", "3")
        usage_error("weights", "--alpha", "2", "--days", "3")
        usage_error("weights", "--preset", "taipei", "--alpha", "2", "--beta", "2", "--days", "3")
        usage_error("weights", "--preset", "nowhere", "--days", "3")
        usage_error("weights", "--alpha", "0.9", "--beta", "2", "--days", "3")
        usage_error("weights", "--alpha", "inf", "--beta", "2", "--days", "3")
        usage_error("weights", "--alpha", "2", "--beta", "nan", "--days", "3")

    @pytest.mark.parametrize("alpha, beta", [("1e200", "1e200"), ("1e154", "1e155")])
    def test_huge_bounds_print_the_limits(self, capsys, alpha, beta):
        # (alpha-1)*(beta-1) overflows; the weights tend to 1/n and the ratio to n.
        code, out, _ = run_cli(
            capsys, "weights", "--alpha", alpha, "--beta", beta, "--days", "3", "--format", "csv"
        )
        assert code == 0 and "nan" not in out
        lines = out.splitlines()
        assert lines[1:4] == [f"{day},0.333333333333,0.333333333333" for day in (1, 2, 3)]
        assert lines[4] == "ratio,3,3"


class TestSolve:
    def test_one_by_one(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert "value      1" in out
        assert "ratio      1" in out

    def test_symmetric_two(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0.5\n0.5,1\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.75, abs=1e-10)
        assert payload["ratio"] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert payload["online"] == pytest.approx([0.5, 0.5], abs=1e-10)
        assert payload["unique"] is True
        assert payload["route"] == "closed-form"

    def test_cross_command_consistency(self, tmp_path, capsys):
        K = payoff_matrix_K(MarketParams(2.0, 2.0, 3))
        path = tmp_path / "k.csv"
        path.write_text("\n".join(",".join(fmt12(v) for v in row) for row in K) + "\n")
        code, solve_out, _ = run_cli(capsys, "solve", str(path), "--format", "json")
        solved = json.loads(solve_out)
        code, weights_out, _ = run_cli(
            capsys, "weights", "--alpha", "2", "--beta", "2", "--days", "3", "--format", "json"
        )
        weighted = json.loads(weights_out)
        assert solved["ratio"] == pytest.approx(weighted["ratio"], abs=1e-9)
        assert np.abs(np.array(solved["online"]) - weighted["weights"]).max() <= 1e-9

    def test_data_errors_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,-2\n3,4\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1 and "error:" in err
        path.write_text("1,x\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        path.write_text("1,2\n3\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        for bad in ("1_0,2\n3,4\n", "1,2\n\u0663,4\n", "1,nan\n3,4\n", "1,inf\n3,4\n", "1,0\n3,4\n"):
            path.write_text(bad, encoding="utf-8")
            code, out, err = run_cli(capsys, "solve", str(path))
            assert (code, out) == (1, "") and err.startswith("error: ")
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "missing.csv"))
        assert code == 1

    def test_undecodable_bytes_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\xff\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "") and err.startswith("error: not UTF-8 text") and "row 1" in err

    def test_unreadable_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\r2,1\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "") and err.startswith("error: unreadable CSV") and "row 1" in err

    @pytest.mark.parametrize("data", [b'1,2\n2,"1\n', b'1,2\n"2"1,1\n'], ids=["open-quote", "text-after-quote"])
    def test_malformed_quote_exits_one(self, tmp_path, capsys, data):
        # The lenient csv dialect would read these cells as 1 and 21 and print a value.
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "") and err.startswith("error: unreadable CSV") and "row 2" in err

    def test_bad_row_is_named_before_an_unreadable_line(self):
        # Records are read one at a time, so csv never reaches the bare \r of row 2.
        with pytest.raises(ParseError, match=r"^bad matrix entry: .* \(row 1\)$"):
            read_matrix_csv("1,x\n1\r2\n")

    def test_blank_rows_are_skipped(self):
        assert read_matrix_csv("1,2\n\n2,1\n\n\n") == [[1.0, 2.0], [2.0, 1.0]]
        # The row number counts the blank lines, so it is the bad row's own line.
        with pytest.raises(ParseError, match=r"^bad matrix entry: .* \(row 3\)$"):
            read_matrix_csv("1,2\n\n2,x\n")

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # Spreadsheets save "CSV UTF-8" with a leading BOM, as backtest's price files may have.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"2,1\n1,2\n")
        marked.write_bytes(b"\xef\xbb\xbf2,1\n1,2\n")
        expected = run_cli(capsys, "solve", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, "solve", str(marked)) == expected

    def test_matrix_cell_grammar(self):
        with pytest.raises(ParseError):
            read_matrix_csv("1_0,2\n\u0663,4\n")
        with pytest.raises(ParseError):
            read_matrix_csv("1,\uff12\n3,4\n")
        cells = read_matrix_csv("1e-05, 1.5e+20\n0.7142857142857143 ,3\n")
        assert cells == [[1e-05, 1.5e20], [0.7142857142857143, 3.0]]

    def test_svg_not_offered(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1\n")
        usage_error("solve", str(path), "--format", "svg")

    def test_bad_tolerance_is_usage_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n2,1\n3,0.5\n")
        # solve has no --tolerance: the default is the only one that is right.
        for bad in ("-1e-9", "nan", "inf", "1e-9"):
            usage_error("solve", str(path), f"--tolerance={bad}")

    def test_lp_route_prints_exact_value(self, tmp_path, capsys):
        # A 3x2 game, so the LP route runs; its value is 11/7.
        path = tmp_path / "m.csv"
        path.write_text("1,2\n2,1\n3,0.5\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0 and out.startswith(f"value      {fmt12(11 / 7)}\n")

    def test_large_payoffs_solve(self, tmp_path, capsys):
        # The game above scaled by 1e9: the value scales with it.
        path = tmp_path / "m.csv"
        path.write_text("1e9,2e9\n2e9,1e9\n3e9,0.5e9\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(11 / 7 * 1e9, rel=1e-12)

    def test_ratio_past_float_range_exits_one(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1e-320\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "") and err.startswith("error: the game value is too small")


class TestSweep:
    def test_taipei_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "taipei", "--from", "2", "--to", "100",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,bal_ratio,da_ratio"
        assert len(lines) == 1 + 99
        rows = [line.split(",") for line in lines[1:]]
        bal = np.array([float(r[1]) for r in rows])
        da = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(bal) > 0.0)
        assert np.all(bal <= da + 1e-12)

    def test_single_degenerate_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha", "2", "--beta", "2", "--from", "2", "--to", "2",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 2
        _, bal, da = lines[1].split(",")
        assert float(bal) == pytest.approx(4.0 / 3.0, abs=1e-11)
        assert float(da) == pytest.approx(4.0 / 3.0, abs=1e-11)

    @pytest.mark.parametrize("alpha, beta", [("1e200", "1e200"), ("1e154", "1e155")])
    def test_huge_bounds_print_the_limits(self, capsys, alpha, beta):
        code, out, _ = run_cli(
            capsys, "sweep", "--alpha", alpha, "--beta", beta, "--from", "2", "--to", "4",
            "--format", "csv",
        )
        assert code == 0 and "nan" not in out
        assert out.splitlines()[1:] == ["2,2,2", "3,3,3", "4,4,4"]

    def test_svg(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "taipei", "--from", "2", "--to", "30",
            "--format", "svg",
        )
        assert code == 0
        assert out.count("<polyline") == 2
        assert out.rstrip().endswith("</svg>")

    def test_svg_of_one_horizon(self, capsys):
        # One label sits mid-axis.  At alpha = beta = 2 and n = 2 both ratios
        # are 4/3, a flat series, whose axis is padded by 5% of its value.
        code, out, _ = run_cli(capsys, "sweep", "--preset", "taipei", "--from=5", "--to=5", "--format=svg")
        assert code == 0 and [p.split(",")[0] for p in re.findall(r'points="([^"]*)"', out)] == ["425.00"] * 2
        code, out, _ = run_cli(capsys, "sweep", "--alpha=2", "--beta=2", "--from=2", "--to=2", "--format=svg")
        assert code == 0 and re.findall(r'points="([^"]*)"', out) == ["425.00,235.00"] * 2
        assert re.findall(r'font-size="11">([^<]*)<', out) == ["1.267", "1.3", "1.333", "1.367", "1.4", "2"]

    def test_usage_errors(self):
        usage_error("sweep", "--preset", "taipei", "--from", "5", "--to", "3")
        usage_error("sweep", "--preset", "taipei", "--from", "1", "--to", "5")
        usage_error("sweep", "--preset", "taipei", "--from", "2", "--to", "20000")
        usage_error("sweep", "--alpha", "nan", "--beta", "2", "--from", "2", "--to", "5")


class TestDownturns:
    def test_two_day_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "downturns", "--alpha", "2", "--beta", "2", "--days", "2"
        )
        assert code == 0
        assert out.splitlines() == ["2,1", "2,4"]

    def test_rows_are_admissible(self, capsys):
        code, out, _ = run_cli(
            capsys, "downturns", "--preset", "tokyo", "--days", "5", "--format", "csv"
        )
        alpha, beta = 1.0 / 0.95, 1.30
        rows = [np.array([1.0] + [float(v) for v in line.split(",")]) for line in out.splitlines()]
        assert [len(row) for row in rows] == [6] * 5
        # Each step from day zero's rate 1 is within [1/beta, alpha]; parsing
        # from 12 significant digits needs a slack of 1e-9.
        factors = np.concatenate([row[1:] / row[:-1] for row in rows])
        assert factors.min() >= 1.0 / beta * (1.0 - 1e-9)
        assert factors.max() <= alpha * (1.0 + 1e-9)

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "downturns", "--alpha", "2", "--beta", "2", "--days", "3",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["downturns"][1] == [2.0, 4.0, 2.0]

    def test_csv_holds_the_rates_of_one_row_at_a_time(self, monkeypatch):
        # The sink keeps the text it is given, so writing it copies nothing.
        sink = types.SimpleNamespace(write=lambda text: setattr(sink, "text", text))
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["downturns", "--preset", "taipei", "--days", "300", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.text.count("\n") == 300
        # Measured 2.57 MiB: the row texts and their join, about 1.2 MiB each.
        # Building every row's floats before the first text peaked at 4.27 MiB.
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("alpha, beta", [("1e200", "2"), ("2", "1e200")])
    def test_rate_leaving_float_range_exits_one(self, capsys, alpha, beta):
        code, out, err = run_cli(
            capsys, "downturns", "--alpha", alpha, "--beta", beta, "--days", "3", "--format", "csv"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "float range" in err


class TestBacktest:
    @pytest.fixture
    def prices(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        code, _, _ = run_cli(
            capsys, "synth", "--preset", "taipei", "--months", "12", "--seed", "5",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_full_year_json(self, prices, capsys):
        code, out, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["windows"]) == 12
        for window in payload["windows"]:
            assert [s["name"] for s in window["strategies"]] == ["BAL", "DA"]
            for strategy in window["strategies"]:
                assert strategy["realized_ratio"] >= 1.0
                assert strategy["violations"] == []

    def test_csv_row_count(self, prices, capsys):
        code, out, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "csv"
        )
        assert len(out.strip().splitlines()) == 25

    def test_flat_prices_ratio_one(self, tmp_path, capsys):
        rows = ["date,close"] + [f"1997-01-{d:02d},100" for d in range(6, 11)]
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "backtest", str(path), "--preset", "taipei", "--format", "json"
        )
        assert code == 0
        for strategy in json.loads(out)["windows"][0]["strategies"]:
            assert strategy["realized_ratio"] == 1.0

    def test_violations_reported_exit_zero(self, tmp_path, capsys):
        rows = ["date,close"]
        closes = [100.0, 101.0, 99.5, 49.75, 50.0, 49.5]
        for i, close in enumerate(closes):
            rows.append(f"1997-01-{i + 5:02d},{close}")
        path = tmp_path / "drop.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "backtest", str(path), "--preset", "taipei", "--format", "json"
        )
        assert code == 0
        strategies = json.loads(out)["windows"][0]["strategies"]
        for strategy in strategies:
            assert len(strategy["violations"]) == 1
            assert strategy["violations"][0]["factor"] == pytest.approx(2.0, rel=1e-6)

    def test_out_file_matches_stdout(self, prices, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "json"
        )
        target = tmp_path / "report.json"
        code2, _, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "json",
            "--out", str(target),
        )
        assert code == code2 == 0
        assert target.read_text() == out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,close\n1997-01-02,oops\n")
        code, _, err = run_cli(capsys, "backtest", str(path), "--preset", "taipei")
        assert code == 1
        assert "row 2" in err

    def test_undecodable_bytes_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,close\n1997-01-02,10\n1997-01-03,\xff\n")
        code, out, err = run_cli(capsys, "backtest", str(path), "--preset", "taipei")
        assert (code, out) == (1, "") and err.startswith("error: not UTF-8 text") and "row 3" in err

    def test_unreadable_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,close\n1997-01-02,10\r1997-01-03,11\n")
        code, out, err = run_cli(capsys, "backtest", str(path), "--preset", "taipei")
        assert (code, out) == (1, "") and err.startswith("error: unreadable CSV") and "row 2" in err

    def test_svg(self, prices, capsys):
        code, out, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "svg"
        )
        assert code == 0
        assert out.count("<polyline") == 2

    def test_bad_tolerance_is_usage_error(self, prices):
        for bad in ("-0.5", "nan", "inf"):
            usage_error("backtest", str(prices), "--preset", "taipei", f"--tolerance={bad}")

    def test_svg_without_a_plan_exits_one(self, tmp_path, capsys):
        # Each month has one trading day, so no month has a plan to plot.
        path = tmp_path / "sparse.csv"
        path.write_text("date,close\n2000-01-03,10\n2000-02-03,11\n")
        code, out, err = run_cli(capsys, "backtest", str(path), "--preset", "taipei", "--format", "svg")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "nothing to plot" in err


class TestSynth:
    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "9")
        _, again, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "9")
        _, other, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "10")
        assert first == again
        assert first != other

    def test_output_is_loadable(self, tmp_path, capsys):
        from buyhold.backtest import load_prices

        path = tmp_path / "synth.csv"
        run_cli(capsys, "synth", "--alpha", "2", "--beta", "2", "--months", "1",
                "--start", "2001-03-01", "--out", str(path))
        series = load_prices(path)
        assert series.dates[0].isoformat().startswith("2001-03")

    def test_negative_seed_is_usage_error(self):
        usage_error("synth", "--preset", "taipei", "--seed", "-1")

    def test_window_past_the_calendar_is_usage_error(self):
        usage_error("synth", "--preset", "taipei", "--start", "9999-11-15", "--months", "3")
        usage_error("synth", "--preset", "taipei", "--start", "9900-02-01", "--months", "1200")

    def test_window_without_a_weekday_is_usage_error(self):
        # 2000-09-30 is a Saturday, the last day of its month.
        usage_error("synth", "--preset", "taipei", "--start", "2000-09-30", "--months", "1")

    def test_last_calendar_month(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--preset", "taipei", "--start", "9999-12-01", "--months", "1")
        lines = out.splitlines()
        assert code == 0
        assert (lines[1].split(",")[0], lines[-1].split(",")[0], len(lines)) == ("9999-12-01", "9999-12-31", 24)

    @pytest.mark.parametrize("bounds", [("--alpha", "1.1", "--beta", "1.2"), ("--alpha", "2", "--beta", "2")])
    def test_price_leaving_the_float_range_exits_one(self, capsys, bounds):
        # A century of drift overflows the first walk and drives the second to subnormals.
        code, out, err = run_cli(capsys, "synth", *bounds, "--months", "1200", "--start", "0001-01-01")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "float range" in err

    def test_usage_error(self):
        usage_error("synth", "--preset", "taipei", "--months", "0")
        usage_error("synth", "--alpha", "inf", "--beta", "2", "--months", "1")
        usage_error("synth", "--preset", "taipei", "--price", "-5")
        usage_error("synth", "--preset", "taipei", "--price", "nan")
        usage_error("synth")


class TestSizeCaps:
    @pytest.fixture
    def forbid_work(self, monkeypatch):
        # Past a cap nothing may be computed: argument validation exits first.
        def refuse(*args, **kwargs):
            raise AssertionError("work started past a size cap")

        # Each name where the subcommand looks it up: cli binds the numpy-free
        # closed forms at import, and imports synthetic_prices from its module
        # when the subcommand runs.
        for module, name in (
            (cli, "bal_weight_parts"),
            (cli, "bal_ratio"),
            (cli, "_bal_ratio"),
            (cli, "_da_ratio"),
            (cli, "downturn_rows"),
            (backtest, "synthetic_prices"),
        ):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.usefixtures("forbid_work")
    @pytest.mark.parametrize(
        "argv",
        [
            ["weights", "--preset", "taipei", "--days", "10001"],
            ["weights", "--preset", "taipei", "--days", "1000000000"],
            ["sweep", "--preset", "taipei", "--from", "2", "--to", "10001"],
            ["downturns", "--preset", "taipei", "--days", "1001"],
            ["downturns", "--preset", "taipei", "--days", "100000"],
            ["synth", "--preset", "taipei", "--months", "1201"],
            ["synth", "--preset", "taipei", "--seed", "-1"],
            ["synth", "--preset", "taipei", "--start", "9999-12-01", "--months", "2"],
            ["synth", "--preset", "taipei", "--start", "2000-09-30", "--months", "1"],
        ],
    )
    def test_past_cap_is_usage_error(self, argv):
        usage_error(*argv)

    def test_weights_at_cap(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--preset", "taipei", "--days", "10000", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 10002


def test_closed_form_subcommands_import_neither_numpy_nor_dataclasses():
    formats = {
        "weights": ("text", "json", "csv"),
        "sweep": ("text", "json", "csv", "svg"),
        "downturns": ("text", "json", "csv"),
    }
    rest = {
        "weights": ["--preset", "taipei", "--days", "21"],
        "sweep": ["--alpha", "1.1", "--beta", "1.2", "--from", "2", "--to", "30"],
        "downturns": ["--alpha", "1.1", "--beta", "1.2", "--days", "5"],
    }
    calls = [[sub, *rest[sub], "--format", fmt] for sub in formats for fmt in formats[sub]]
    script = (
        "import sys\n"
        "from buyhold import cli\n"
        f"for argv in {calls!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "loaded = {'numpy', 'dataclasses'} & set(sys.modules)\n"
        "assert not loaded, f'imported {sorted(loaded)}'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("</svg>") == 1
    assert done.stdout.count('"downturns"') == 1


def test_synth_imports_neither_numpy_random_nor_secrets():
    # synth draws numpy's default_rng stream in Python; numpy.random costs
    # about 6 MB and 10 ms of start-up, and pulls in secrets and hashlib.
    script = (
        "import sys\n"
        "from buyhold import cli\n"
        "assert cli.main(['synth', '--preset', 'taipei', '--months', '2', '--seed', '9']) == 0\n"
        "loaded = {'numpy.random', 'secrets'} & set(sys.modules)\n"
        "assert not loaded, f'imported {sorted(loaded)}'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("date,close\n")


@pytest.mark.parametrize("value", ["1_1", "\u0661.\u0665", "\uff12", "0x10", "1e999", "-inf", "nan"])
@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--alpha", ["weights", "--beta", "2", "--days", "3"]),
        ("--beta", ["weights", "--alpha", "2", "--days", "3"]),
        ("--tolerance", ["backtest", "prices.csv", "--preset", "taipei"]),
        ("--price", ["synth", "--preset", "taipei", "--months", "1"]),
    ],
)
def test_number_flags_read_the_decimal_grammar(flag, argv, value):
    # float() reads "1_1" as 11 and Arabic-Indic "1.5" as 1.5; parse_decimal refuses both.
    usage_error(*argv, f"{flag}={value}")


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"])
@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--days", ["weights", "--preset", "taipei"]),
        ("--from", ["sweep", "--preset", "taipei", "--to", "30"]),
        ("--to", ["sweep", "--preset", "taipei", "--from", "2"]),
        ("--months", ["synth", "--preset", "taipei"]),
        ("--seed", ["synth", "--preset", "taipei", "--months", "1"]),
    ],
)
def test_integer_flags_refuse_underscores_and_non_ascii_digits(flag, argv, value):
    # int() reads both "1_0" and Arabic-Indic "10" as 10.
    usage_error(*argv, f"{flag}={value}")


def test_unknown_command_is_usage_error():
    usage_error("nonsense")
    usage_error()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["downturns", "--preset", "taipei", "--alpha", "2", "--beta", "2", "--days", "3"],
            "give either --preset or --alpha/--beta, not both",
            id="preset-conflict",
        ),
        pytest.param(
            ["sweep", "--preset", "taipei", "--from", "5", "--to", "3"], "need --from <= --to", id="from-after-to"
        ),
        pytest.param(
            ["synth", "--preset", "taipei", "--start", "9999-11-15", "--months", "3"],
            "3 months from 9999-11-15 run past 9999-12",
            id="synth-past-9999-12",
        ),
    ],
)
def test_usage_error_after_parsing_names_the_subcommand(capsys, argv, message):
    # The same usage line and prefix as a bad flag value gets from argparse.
    usage_error(*argv)
    err = capsys.readouterr().err
    assert err.startswith(f"usage: buyhold {argv[0]} [-h]")
    assert err.splitlines()[-1] == f"buyhold {argv[0]}: error: {message}"


@pytest.mark.parametrize(
    "target", ["missing/out.txt", ".", ""], ids=["missing-directory", "directory", "empty"]
)
def test_unwritable_out_exits_one(capsys, tmp_path, target):
    # An empty path names no file, so it is refused like any other, not read as stdout.
    path = str(tmp_path / target) if target else ""
    code, out, err = run_cli(capsys, "weights", "--preset", "taipei", "--days", "3", "--out", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and f"'{path}'" in err


# Cells that reach past the header and the number grammar: bad, non-finite,
# non-positive, huge and tiny numbers next to well-formed prices and payoffs.
_TOKENS = st.sampled_from(
    ["date", "close", "1997-13-01", "0", "-1", "1e308", "1e-320", "1e999", "nan", "inf",
     "1_0", "\u0663", "\ufeff", "", " ", '"', "x"]
)
_NUMBERS = st.one_of(_TOKENS, st.floats(1e-300, 1e300).map(repr))
_PRICE_ROWS = st.lists(
    st.one_of(
        st.tuples(st.dates(), _NUMBERS).map(lambda row: f"{row[0].isoformat()},{row[1]}"),
        st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
    ),
    max_size=40,
)
_MATRIX_ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(_NUMBERS, min_size=width, max_size=width).map(",".join), min_size=1, max_size=5
    )
)


_PRICE_FILES = st.one_of(
    st.binary(max_size=300), _PRICE_ROWS.map(lambda rows: "\n".join(["date,close", *rows]).encode())
)
_MATRIX_FILES = st.one_of(
    st.binary(max_size=300), _MATRIX_ROWS.map(lambda rows: "\n".join(rows).encode())
)


def _exit_code(subcommand, path, *options):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([subcommand, str(path), *options])


class TestArbitraryInputFiles:
    """Any bytes in an input file give exit 0 or 1, never a traceback."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("arbitrary") / "input.csv"

    @given(data=_PRICE_FILES, fmt=st.sampled_from(["text", "json", "csv", "svg"]))
    @settings(max_examples=50, deadline=None)
    def test_backtest(self, path, data, fmt):
        path.write_bytes(data)
        assert _exit_code("backtest", path, "--preset", "taipei", "--format", fmt) in (0, 1)

    @given(data=_MATRIX_FILES)
    @settings(max_examples=50, deadline=None)
    def test_solve(self, path, data):
        path.write_bytes(data)
        assert _exit_code("solve", path) in (0, 1)


# Values for each number flag: well-formed ones next to bad, non-finite,
# huge, negative and tiny numbers, and dates near both ends of the calendar.
_BAD_NUMBERS = ["", "x", "nan", "inf", "-inf", "1e999", "-1", "0", "1_1", "١.٥", "0x10"]
_FLAG_VALUES = {
    "--alpha": ["1.07", "2", "1", "0.5", "1e308", "1e200", "1.0000000000000002", *_BAD_NUMBERS],
    "--beta": ["1.07", "2", "1", "1e-320", "1e154", "1e155", *_BAD_NUMBERS],
    "--preset": ["taipei", "tokyo", "nowhere"],
    "--tolerance": ["0", "-0", "1e-9", "1e308", "1e-320", *_BAD_NUMBERS],
    "--price": ["100", "1e308", "1e-300", "1e-320", *_BAD_NUMBERS],
    "--days": ["2", "3", "21", "1", "1001", "10001", "99999999999999999999", *_BAD_NUMBERS],
    "--months": ["1", "12", "1200", "1201", "99999999999999999999", *_BAD_NUMBERS],
    "--seed": ["0", "7", "18446744073709551616", *_BAD_NUMBERS],
    "--start": ["0001-01-01", "0001-12-31", "2000-09-30", "9999-11-30", "9999-12-01", "9999-12-31",
                "0000-01-01", "2001-02-29", "x"],
}
_FLAGS = st.lists(
    st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
        lambda flag: st.sampled_from(_FLAG_VALUES[flag]).map(lambda value: f"{flag}={value}")
    ),
    max_size=6,
)
_SUBCOMMANDS = st.sampled_from(
    [["weights"], ["sweep", "--from=2", "--to=30"], ["downturns"], ["synth"], ["backtest", "{prices}"]]
)


class TestArgumentVectors:
    """Any mix of the number flags gives exit 0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def prices(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv") / "prices.csv"
        path.write_text("date,close\n2000-01-03,10\n2000-01-04,10.5\n2000-01-05,10.2\n")
        return path

    @given(head=_SUBCOMMANDS, flags=_FLAGS)
    @settings(max_examples=150, deadline=None)
    def test_exit_zero_one_or_two(self, prices, head, flags):
        argv = [arg.replace("{prices}", str(prices)) for arg in head] + flags
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
