import json

import numpy as np
import pytest

from buyhold import ParseError, cli
from buyhold.cli import main, read_matrix_csv
from buyhold.formatting import fmt12
from buyhold.market import MarketParams, payoff_matrix_K, validate_sequence


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

    def test_matrix_cell_grammar(self):
        with pytest.raises(ParseError):
            read_matrix_csv("1_0,2\n\u0663,4\n")
        with pytest.raises(ParseError):
            read_matrix_csv("1,\uff12\n3,4\n")
        cells = read_matrix_csv("1e-05, 1.5e+20\n0.7142857142857143 ,3\n")
        assert cells.tolist() == [[1e-05, 1.5e20], [0.7142857142857143, 3.0]]

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

    def test_svg(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "taipei", "--from", "2", "--to", "30",
            "--format", "svg",
        )
        assert code == 0
        assert out.count("<polyline") == 2
        assert out.rstrip().endswith("</svg>")

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
        params = MarketParams(1.0 / 0.95, 1.30, 5)
        rows = [np.array([float(v) for v in line.split(",")]) for line in out.splitlines()]
        assert len(rows) == 5
        # Parsing from 12 significant digits needs a matching slack.
        assert all(validate_sequence(params, row, rel_tol=1e-9) for row in rows)

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "downturns", "--alpha", "2", "--beta", "2", "--days", "3",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["downturns"][1] == [2.0, 4.0, 2.0]

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

    def test_svg(self, prices, capsys):
        code, out, _ = run_cli(
            capsys, "backtest", str(prices), "--preset", "taipei", "--format", "svg"
        )
        assert code == 0
        assert out.count("<polyline") == 2

    def test_bad_tolerance_is_usage_error(self, prices):
        for bad in ("-0.5", "nan", "inf"):
            usage_error("backtest", str(prices), "--preset", "taipei", f"--tolerance={bad}")


class TestSynth:
    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "9")
        _, again, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "9")
        _, other, _ = run_cli(capsys, "synth", "--preset", "taipei", "--months", "2", "--seed", "10")
        assert first == again
        assert first != other

    def test_output_is_loadable(self, tmp_path, capsys):
        from buyhold import load_prices

        path = tmp_path / "synth.csv"
        run_cli(capsys, "synth", "--alpha", "2", "--beta", "2", "--months", "1",
                "--start", "2001-03-01", "--out", str(path))
        series = load_prices(path)
        assert series.dates[0].isoformat().startswith("2001-03")

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

        for name in ("bal_weights", "bal_ratio", "downturns", "synthetic_prices"):
            monkeypatch.setattr(cli, name, refuse)

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
        ],
    )
    def test_past_cap_is_usage_error(self, argv):
        usage_error(*argv)

    def test_weights_at_cap(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--preset", "taipei", "--days", "10000", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 10002


def test_unknown_command_is_usage_error():
    usage_error("nonsense")
    usage_error()
