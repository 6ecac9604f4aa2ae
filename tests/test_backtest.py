from datetime import date, timedelta

import numpy as np
import pytest

from buyhold import (
    DuplicateDate,
    NonPositivePrice,
    ParseError,
    MarketParams,
    PreconditionViolated,
    bal_ratio,
    compare_report,
    da_ratio,
    parse_prices,
    report_csv,
    report_json,
    report_svg,
    segment_monthly,
    synthetic_prices,
)
from buyhold import backtest
from buyhold.backtest import (
    VIOLATION_SLACK,
    PriceSeries,
    Violation,
    find_violations,
    load_prices,
    series_csv,
)
from buyhold.formatting import decode_utf8

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


def one_month(first_day, closes, alpha, beta):
    """compare_report's BAL and DA results on consecutive days of one month."""
    days = tuple(first_day + timedelta(days=i) for i in range(len(closes)))
    (window,) = compare_report(PriceSeries(days, np.asarray(closes, dtype=float)), alpha, beta).windows
    return dict(window.results)


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

    def test_parse_prices_reads_decoded_bytes(self):
        text = "date,close\n1997-01-02,100\n1997-01-03,101\n"
        assert parse_prices(decode_utf8(text.encode())).dates == parse_prices(text).dates

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
    """Each month's plans, as compare_report runs them."""

    def test_flat_prices(self):
        for result in one_month(date(1997, 1, 6), [100.0] * 5, 2.0, 2.0).values():
            assert result.shares == pytest.approx(0.01, rel=1e-12)
            assert result.realized_ratio == pytest.approx(1.0, abs=1e-12)
            assert result.violations == ()

    def test_downturn_window_hits_balanced_ratio(self):
        # Prices (0.5, 0.25, 0.5) are rates (2, 4, 2), the worst case
        # the balanced strategy is tuned for when alpha = beta = 2.
        result = one_month(date(1997, 1, 6), [0.5, 0.25, 0.5], 2.0, 2.0)["BAL"]
        assert result.realized_ratio == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert result.shares == pytest.approx(2.4, rel=1e-12)
        assert result.currency_value == pytest.approx(1.2, rel=1e-12)

    def test_all_rise_window_hits_balanced_ratio(self):
        # Rates rising by exactly alpha each day are a scaled all-rise
        # downturn, so the balanced strategy lands on its exact bound.
        closes = [100.0 / 2.0**i for i in range(6)]
        result = one_month(date(1997, 1, 5), closes, 2.0, 2.0)["BAL"]
        assert result.realized_ratio == pytest.approx(
            bal_ratio(MarketParams(2.0, 2.0, 6)), rel=1e-12
        )
        assert result.violations == ()

    def test_accounting_identity(self):
        closes = [100.0, 103.0, 99.0, 101.0]
        for result in one_month(date(1997, 2, 3), closes, TAIPEI_ALPHA, TAIPEI_BETA).values():
            assert result.currency_value / result.shares == pytest.approx(101.0, rel=1e-12)

    def test_scale_invariance(self):
        closes = np.array([100.0, 104.0, 98.0, 100.0])
        plain = one_month(date(1997, 3, 3), closes, TAIPEI_ALPHA, TAIPEI_BETA)
        scaled = one_month(date(1997, 3, 3), 7.25 * closes, TAIPEI_ALPHA, TAIPEI_BETA)
        for name in ("BAL", "DA"):
            assert abs(plain[name].realized_ratio - scaled[name].realized_ratio) <= 1e-10


class TestViolations:
    def test_injected_drop_is_flagged_once(self):
        # A price that halves and stays down: one offending step, at the
        # rate factor 2 far above the taipei cap.
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, seed=4)
        closes = series.closes.copy()
        closes[10:] *= 0.5
        violations = find_violations(1.0 / closes, TAIPEI_ALPHA, TAIPEI_BETA)
        assert len(violations) == 1
        assert violations[0].day == 10
        assert violations[0].factor == pytest.approx(closes[9] / closes[10], rel=1e-12)
        assert violations[0].factor > TAIPEI_ALPHA
        assert violations[0].lo == pytest.approx(1.0 / TAIPEI_BETA, rel=1e-15)
        assert violations[0].hi == pytest.approx(TAIPEI_ALPHA, rel=1e-15)
        # The window is still evaluated.
        (window,) = compare_report(PriceSeries(series.dates, closes), TAIPEI_ALPHA, TAIPEI_BETA).windows
        for _, result in window.results:
            assert result.shares > 0.0
            assert result.violations == violations

    def test_both_strategies_carry_the_same_violations(self, monkeypatch):
        # Halving every seventh close breaks the bounds twice a week.
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=5)
        closes = series.closes.copy()
        closes[5::7] *= 0.5
        calls = []
        scan = backtest.find_violations

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(backtest, "find_violations", counted)
        report = compare_report(PriceSeries(series.dates, closes), TAIPEI_ALPHA, TAIPEI_BETA)
        assert len(calls) == len(report.windows) == 3
        for window in report.windows:
            (_, bal), (_, da) = window.results
            assert bal.violations
            assert bal.violations == da.violations

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

    @pytest.mark.parametrize(
        "start, months",
        [(date(1997, 1, 1), 12), (date(2000, 2, 29), 1), (date(2001, 3, 31), 2), (date(2004, 12, 18), 3),
         (date(1, 1, 1), 2), (date(9999, 10, 31), 3), (date(9999, 12, 31), 1)],
    )
    def test_dates_are_the_weekdays_of_the_window(self, start, months):
        # Reference: every day from start until the calendar month index reaches months.
        expected, day = [], start
        while (day.year - start.year) * 12 + day.month - start.month < months:
            if day.weekday() < 5:
                expected.append(day)
            if day == date.max:
                break
            day += timedelta(days=1)
        assert synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=months, start=start).dates == tuple(expected)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, seed=-1)

    @pytest.mark.parametrize(
        "start, months", [(date(9999, 12, 1), 2), (date(9999, 1, 31), 13), (date(1, 1, 1), 120000)]
    )
    def test_window_past_the_calendar_rejected(self, start, months):
        with pytest.raises(ValueError, match="run past 9999-12"):
            synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=months, start=start)

    @pytest.mark.parametrize("start", [date(2000, 9, 30), date(2000, 12, 30), date(2000, 12, 31)])
    def test_window_without_a_weekday_rejected(self, start):
        with pytest.raises(ValueError, match="no weekday"):
            synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, start=start)

    @pytest.mark.parametrize(
        "alpha, beta, price", [(1.1, 1.2, 100.0), (2.0, 2.0, 100.0), (TAIPEI_ALPHA, TAIPEI_BETA, 1e-320)]
    )
    def test_price_leaving_the_normal_float_range_raises(self, alpha, beta, price):
        with pytest.raises(PreconditionViolated, match="float range"):
            synthetic_prices(alpha, beta, months=1200, start=date(1, 1, 1), initial_price=price)

    def test_every_step_within_bounds(self):
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=6, seed=14)
        rates = 1.0 / series.closes
        factors = rates[1:] / rates[:-1]
        assert factors.min() >= 1.0 / TAIPEI_BETA - 1e-12
        assert factors.max() <= TAIPEI_ALPHA + 1e-12
