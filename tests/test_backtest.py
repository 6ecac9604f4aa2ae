import io
from datetime import date

import numpy as np
import pytest

from buyhold import (
    DuplicateDate,
    LengthMismatch,
    NonPositivePrice,
    ParseError,
    MarketParams,
    PlanWindow,
    Violation,
    bal_ratio,
    bal_weights,
    compare_report,
    da_ratio,
    da_weights,
    find_violations,
    load_prices,
    parse_prices,
    report_csv,
    report_json,
    report_svg,
    run_plan,
    segment_monthly,
    series_csv,
    synthetic_prices,
)
from buyhold.backtest import VIOLATION_SLACK

TAIPEI_ALPHA = 1.0 / 0.93
TAIPEI_BETA = 1.07
#: (alpha, beta) pairs that break the rule "finite and > 1" in one bound.
BAD_BOUNDS = [
    (0.5, TAIPEI_BETA),
    (TAIPEI_ALPHA, 0.5),
    (float("nan"), 2.0),
    (2.0, float("nan")),
    (float("inf"), 2.0),
    (2.0, float("inf")),
]


def balanced(alpha, beta):
    """The balanced strategy's weights for every window length."""
    return lambda n: bal_weights(MarketParams(alpha, beta, n))


def make_window(label, first_day, closes):
    days = tuple(date.fromordinal(first_day.toordinal() + i) for i in range(len(closes)))
    return PlanWindow(label=label, dates=days, closes=np.asarray(closes, dtype=float))


class TestParsing:
    def test_minimal_file(self):
        series = parse_prices("date,close\n1997-01-02,100.0\n1997-01-03,107.0")
        assert len(series) == 2
        assert series.dates == (date(1997, 1, 2), date(1997, 1, 3))
        assert series.closes.tolist() == [100.0, 107.0]
        assert not series.reordered

    def test_crlf_and_bom(self):
        series = parse_prices("﻿date,close\r\n1997-01-02,100\r\n1997-01-03,101\r\n")
        assert len(series) == 2

    def test_empty_body(self):
        with pytest.raises(ParseError):
            parse_prices("date,close\n")
        with pytest.raises(ParseError):
            parse_prices("")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_prices("day,price\n1997-01-02,100\n")

    def test_bad_fields(self):
        with pytest.raises(ParseError) as err:
            parse_prices("date,close\nnot-a-date,100\n")
        assert err.value.row == 2 and err.value.column == 1
        with pytest.raises(ParseError) as err:
            parse_prices("date,close\n1997-01-02,abc\n")
        assert err.value.column == 2
        with pytest.raises(ParseError):
            parse_prices("date,close\n1997-01-02,100,extra\n")

    @pytest.mark.parametrize(
        "close", ["1_000", "\u0663", "\uff11", "\u00a01", "0x10", "1e", "1.2.3", "inf", "nan", ""]
    )
    def test_close_outside_decimal_grammar(self, close):
        with pytest.raises(ParseError) as err:
            parse_prices(f"date,close\n1997-01-02,{close}\n")
        assert (err.value.row, err.value.column) == (2, 2)

    @pytest.mark.parametrize(
        "close, value",
        [("1e-05", 1e-05), ("1.5e+20", 1.5e20), (" 100.0 ", 100.0), ("7", 7.0), (".5", 0.5), ("5.", 5.0)],
    )
    def test_close_in_decimal_grammar(self, close, value):
        assert parse_prices(f"date,close\n1997-01-02,{close}\n").closes.tolist() == [value]

    def test_nonpositive_price(self):
        with pytest.raises(NonPositivePrice):
            parse_prices("date,close\n1997-01-02,0\n")
        with pytest.raises(NonPositivePrice):
            parse_prices("date,close\n1997-01-02,-5\n")

    def test_duplicate_date(self):
        with pytest.raises(DuplicateDate):
            parse_prices("date,close\n1997-01-02,100\n1997-01-02,101\n")

    def test_out_of_order_sorted_and_flagged(self):
        shuffled = parse_prices("date,close\n1997-01-03,107\n1997-01-02,100\n")
        ordered = parse_prices("date,close\n1997-01-02,100\n1997-01-03,107\n")
        assert shuffled.reordered and not ordered.reordered
        assert shuffled.dates == ordered.dates
        assert shuffled.closes.tolist() == ordered.closes.tolist()

    def test_load_prices_sources(self, tmp_path):
        text = "date,close\n1997-01-02,100\n1997-01-03,101\n"
        path = tmp_path / "prices.csv"
        path.write_text(text)
        assert len(load_prices(path)) == 2
        assert len(load_prices(str(path))) == 2
        assert len(load_prices(text.encode())) == 2
        assert len(load_prices(io.StringIO(text))) == 2

    def test_series_csv_roundtrip(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=2, seed=9)
        back = parse_prices(series_csv(series))
        assert back.dates == series.dates
        assert np.abs(back.closes / series.closes - 1.0).max() <= 1e-11


class TestSegmentation:
    def test_three_months(self):
        rows = ["date,close"]
        for month in (1, 2, 3):
            rows += [f"1997-{month:02d}-{d:02d},100" for d in (3, 10, 17)]
        windows, skipped = segment_monthly(parse_prices("\n".join(rows)))
        assert [w.label for w in windows] == ["1997-01", "1997-02", "1997-03"]
        assert skipped == []

    def test_single_day_month_skipped(self):
        text = "date,close\n1997-01-03,100\n1997-01-10,101\n1997-02-14,102\n"
        windows, skipped = segment_monthly(parse_prices(text))
        assert [w.label for w in windows] == ["1997-01"]
        assert skipped == [("1997-02", "only 1 trading day(s)")]

    def test_twelve_synthetic_months(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=12, seed=1)
        windows, skipped = segment_monthly(series)
        assert len(windows) == 12
        assert skipped == []
        assert all(len(w) >= 18 for w in windows)


class TestRunPlan:
    def test_flat_prices(self):
        window = make_window("1997-01", date(1997, 1, 6), [100.0] * 5)
        for gen in (balanced(2.0, 2.0), da_weights):
            result = run_plan(gen, window, 2.0, 2.0)
            assert result.shares == pytest.approx(0.01, rel=1e-12)
            assert result.realized_ratio == pytest.approx(1.0, abs=1e-12)
            assert result.violations == ()

    def test_downturn_window_hits_balanced_ratio(self):
        # Prices (0.5, 0.25, 0.5) are rates (2, 4, 2), the worst case
        # the balanced strategy is tuned for when alpha = beta = 2.
        window = make_window("1997-01", date(1997, 1, 6), [0.5, 0.25, 0.5])
        result = run_plan(balanced(2.0, 2.0), window, 2.0, 2.0)
        assert result.realized_ratio == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert result.shares == pytest.approx(2.4, rel=1e-12)
        assert result.currency_value == pytest.approx(1.2, rel=1e-12)

    def test_all_rise_window_hits_balanced_ratio(self):
        # Rates rising by exactly alpha each day are a scaled all-rise
        # downturn, so the balanced strategy lands on its exact bound.
        closes = [100.0 / 2.0**i for i in range(6)]
        window = make_window("1997-01", date(1997, 1, 5), closes)
        result = run_plan(balanced(2.0, 2.0), window, 2.0, 2.0)
        assert result.realized_ratio == pytest.approx(
            bal_ratio(MarketParams(2.0, 2.0, 6)), rel=1e-12
        )
        assert result.violations == ()

    def test_accounting_identity(self):
        window = make_window("1997-02", date(1997, 2, 3), [100.0, 103.0, 99.0, 101.0])
        result = run_plan(da_weights, window, TAIPEI_ALPHA, TAIPEI_BETA)
        assert result.currency_value / result.shares == pytest.approx(101.0, rel=1e-12)

    def test_length_mismatch(self):
        window = make_window("1997-01", date(1997, 1, 6), [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            run_plan(lambda n: np.ones(n + 1) / (n + 1), window, 2.0, 2.0)

    def test_scale_invariance(self):
        window = make_window("1997-03", date(1997, 3, 3), [100.0, 104.0, 98.0, 100.0])
        scaled = make_window("1997-03", window.dates[0], 7.25 * np.asarray(window.closes))
        for gen in (balanced(TAIPEI_ALPHA, TAIPEI_BETA), da_weights):
            a = run_plan(gen, window, TAIPEI_ALPHA, TAIPEI_BETA)
            b = run_plan(gen, scaled, TAIPEI_ALPHA, TAIPEI_BETA)
            assert abs(a.realized_ratio - b.realized_ratio) <= 1e-10


class TestViolations:
    def test_injected_drop_is_flagged_once(self):
        # A price that halves and stays down: one offending step, at the
        # rate factor 2 far above the taipei cap.
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, seed=4)
        closes = series.closes.copy()
        closes[10:] *= 0.5
        window = PlanWindow(label="1997-01", dates=series.dates, closes=closes)
        violations = find_violations(window.rates, TAIPEI_ALPHA, TAIPEI_BETA)
        assert len(violations) == 1
        assert violations[0].day == 10
        assert violations[0].factor == pytest.approx(closes[9] / closes[10], rel=1e-12)
        assert violations[0].factor > TAIPEI_ALPHA
        assert violations[0].lo == pytest.approx(1.0 / TAIPEI_BETA, rel=1e-15)
        assert violations[0].hi == pytest.approx(TAIPEI_ALPHA, rel=1e-15)
        # The window is still evaluated.
        result = run_plan(da_weights, window, TAIPEI_ALPHA, TAIPEI_BETA)
        assert result.shares > 0.0
        assert len(result.violations) == 1

    @staticmethod
    def reference_violations(rates, alpha, beta, slack=VIOLATION_SLACK):
        # The day-by-day loop find_violations replaced.
        lo, hi = 1.0 / beta, alpha
        out = []
        for i in range(1, len(rates)):
            factor = rates[i] / rates[i - 1]
            if factor < lo * (1.0 - slack) or factor > hi * (1.0 + slack):
                out.append(Violation(day=i, factor=float(factor), lo=lo, hi=hi))
        return tuple(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_daily_loop_on_dense_series(self, seed):
        # Daily log-moves uniform on twice the largest admissible move,
        # so many steps break the bounds.
        rng = np.random.default_rng(seed)
        alpha, beta = (TAIPEI_ALPHA, TAIPEI_BETA) if seed % 2 else (1 / 0.95, 1.30)
        limit = 2.0 * min(np.log(alpha), np.log(beta))
        n = int(rng.integers(2, 300))
        rates = np.exp(np.cumsum(rng.uniform(-limit, limit, size=n))) * rng.uniform(1e-3, 0.1)
        for slack in (0.0, VIOLATION_SLACK, 0.05):
            want = self.reference_violations(rates, alpha, beta, slack)
            got = find_violations(rates, alpha, beta, slack=slack)
            assert got == want
            assert [type(v.day) for v in got] == [int] * len(got)
        assert len(find_violations(rates, alpha, beta)) > n // 8

    def test_admissible_series_has_none(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=11)
        report = compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA)
        for window in report.windows:
            for _, result in window.results:
                assert result.violations == ()


class TestCompareReport:
    def test_row_count_and_order(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=12, seed=2)
        report = compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA)
        assert len(report.windows) == 12
        assert [w.label for w in report.windows] == sorted(w.label for w in report.windows)
        assert all([name for name, _ in w.results] == ["BAL", "DA"] for w in report.windows)
        rows = report_csv(report).strip().splitlines()
        assert len(rows) == 1 + 24

    def test_realized_within_theoretical_bounds(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=12, seed=3)
        report = compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA)
        for window in report.windows:
            results = dict(window.results)
            params = MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, window.n)
            assert results["BAL"].realized_ratio <= bal_ratio(params) + 1e-9
            assert results["DA"].realized_ratio <= da_ratio(params) + 1e-9
            assert results["BAL"].realized_ratio >= 1.0 - 1e-12
            assert results["DA"].realized_ratio >= 1.0 - 1e-12

    def test_deterministic_output(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=6, seed=8)
        first = report_json(compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA))
        second = report_json(compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA))
        assert first == second

    @pytest.mark.parametrize("alpha, beta", BAD_BOUNDS)
    def test_bad_bounds_rejected(self, alpha, beta):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, seed=0)
        with pytest.raises(ValueError, match="finite number > 1"):
            compare_report(series, alpha, beta)


class TestRendering:
    def test_json_schema(self):
        import json

        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=2, seed=6)
        payload = json.loads(report_json(compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA)))
        assert set(payload) == {"params", "windows", "skipped"}
        assert set(payload["params"]) == {"alpha", "beta"}
        window = payload["windows"][0]
        assert set(window) == {"label", "n", "strategies"}
        strategy = window["strategies"][0]
        assert set(strategy) == {"name", "shares", "currency_value", "realized_ratio", "violations"}

    def test_integer_bounds_render_as_floats(self):
        series = synthetic_prices(2.0, 2.0, months=1, seed=3)
        as_ints = compare_report(series, 2, 2)
        assert report_json(as_ints) == report_json(compare_report(series, 2.0, 2.0))
        assert '"alpha": 2.0' in report_json(as_ints)

    def test_svg_wellformed(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=4, seed=6)
        svg = report_svg(compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA))
        assert svg.startswith("<svg ") or svg.startswith("<svg\n")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2


class TestSynthetic:
    def test_seeded_determinism(self):
        a = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=12)
        b = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=12)
        c = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=13)
        assert a.dates == b.dates
        assert np.array_equal(a.closes, b.closes)
        assert not np.array_equal(a.closes, c.closes)

    def test_weekdays_only(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=2, seed=1)
        assert all(day.weekday() < 5 for day in series.dates)

    @pytest.mark.parametrize("price", [-5.0, 0.0, float("nan"), float("inf")])
    def test_bad_initial_price_rejected(self, price):
        with pytest.raises(ValueError, match="initial_price"):
            synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, initial_price=price)

    @pytest.mark.parametrize("alpha, beta", BAD_BOUNDS)
    def test_bad_bounds_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="finite number > 1"):
            synthetic_prices(alpha, beta, months=1)

    def test_every_step_within_bounds(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=6, seed=14)
        rates = 1.0 / series.closes
        factors = rates[1:] / rates[:-1]
        assert factors.min() >= 1.0 / TAIPEI_BETA - 1e-12
        assert factors.max() <= TAIPEI_ALPHA + 1e-12
