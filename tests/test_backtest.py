import csv
import io
from collections import Counter
from datetime import date, timedelta
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buyhold import (
    DuplicateDate,
    LengthMismatch,
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
    BacktestReport,
    PlanResult,
    PlanWindow,
    PriceSeries,
    Violation,
    WindowReport,
    find_violations,
    load_prices,
    series_csv,
)
from buyhold.formatting import decode_utf8, parse_decimal
from buyhold.market import bal_weights, check_bounds, da_weights

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
    ("3", TAIPEI_BETA),
    (TAIPEI_ALPHA, None),
]


# References: the row-by-row reader, the groupby segmentation and the
# per-window backtest that the bulk passes in buyhold.backtest replaced.


def reference_parse_prices(text: str) -> PriceSeries:
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError("empty input", row=1)
    header_line, header = rows[0]
    if [cell.strip() for cell in header] != ["date", "close"]:
        raise ParseError("header must be exactly 'date,close'", row=header_line)
    if len(rows) == 1:
        raise ParseError("no data rows", row=header_line)

    parsed: list[tuple[date, float]] = []
    seen: set[date] = set()
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", row=lineno)
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"bad date: {exc}", row=lineno, column=1) from None
        try:
            close = parse_decimal(row[1])
        except ValueError:
            raise ParseError(f"bad price {row[1]!r}", row=lineno, column=2) from None
        if close <= 0.0:
            raise NonPositivePrice(f"price {close:g} must be positive", row=lineno, column=2)
        if day in seen:
            raise DuplicateDate(f"duplicate date {day.isoformat()}", row=lineno, column=1)
        seen.add(day)
        parsed.append((day, close))

    ordered = sorted(parsed)
    reordered = ordered != parsed
    return PriceSeries(
        dates=tuple(day for day, _ in ordered),
        closes=np.array([close for _, close in ordered]),
        reordered=reordered,
    )


def reference_segment_monthly(series):
    if len(series) == 0:
        raise LengthMismatch("price series is empty")
    windows, skipped = [], []
    start = 0
    for (year, month), days in groupby(series.dates, key=lambda day: (day.year, day.month)):
        stop = start + len(list(days))
        label = f"{year:04d}-{month:02d}"
        if stop - start >= 2:
            windows.append(PlanWindow(label, series.dates[start:stop], series.closes[start:stop]))
        else:
            skipped.append((label, f"only {stop - start} trading day(s)"))
        start = stop
    return windows, skipped


def reference_violations(rates, alpha, beta, slack=VIOLATION_SLACK):
    # The day-by-day loop find_violations replaced.
    lo, hi = 1.0 / beta, alpha
    out = []
    for i in range(1, len(rates)):
        factor = rates[i] / rates[i - 1]
        if factor < lo * (1.0 - slack) or factor > hi * (1.0 + slack):
            out.append(Violation(day=i, factor=float(factor), lo=lo, hi=hi))
    return tuple(out)


def reference_compare_report(series, alpha, beta, slack=VIOLATION_SLACK):
    check_bounds(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    windows, skipped = reference_segment_monthly(series)
    reports = []
    for window in windows:
        n = len(window)
        rates = window.rates
        best, last = float(rates.max()), float(window.closes[-1])
        violations = reference_violations(rates, alpha, beta, slack=slack)
        results = []
        for name, weights in (("BAL", bal_weights(MarketParams(alpha, beta, n))), ("DA", da_weights(n))):
            shares = float(weights @ rates)
            results.append((name, PlanResult(shares, shares * last, best / shares, violations)))
        reports.append(WindowReport(label=window.label, n=n, results=tuple(results)))
    return BacktestReport(alpha=alpha, beta=beta, windows=tuple(reports), skipped=tuple(skipped))


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
        "text, row",
        [("date,close\r1997-01-02,1\r1997-01-03,2\r", 1), ("date,close\n1997-01-02,1" + "0" * 200_000 + "\n", 2)],
        ids=["bare-carriage-return", "field-past-size-limit"],
    )
    def test_unreadable_csv(self, text, row):
        # A bare carriage return, and a field past csv.field_size_limit.
        with pytest.raises(ParseError, match="unreadable CSV") as err:
            parse_prices(text)
        assert err.value.row == row

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

    def test_subnormal_price(self):
        # Its rate, 1/close, would overflow.
        with pytest.raises(NonPositivePrice, match="normal float range") as err:
            parse_prices("date,close\n1997-01-02,100\n1997-01-03,1e-320\n")
        assert (err.value.row, err.value.column) == (3, 2)

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

    def test_both_strategies_carry_the_same_violations(self):
        # Halving every seventh close breaks the bounds twice a week.
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=3, seed=5)
        closes = series.closes.copy()
        closes[5::7] *= 0.5
        dirty = PriceSeries(series.dates, closes)
        report = compare_report(dirty, TAIPEI_ALPHA, TAIPEI_BETA)
        windows, _ = segment_monthly(dirty)
        assert len(report.windows) == len(windows) == 3
        for window, plan in zip(report.windows, windows):
            (_, bal), (_, da) = window.results
            assert bal.violations
            assert bal.violations is da.violations
            assert bal.violations == find_violations(plan.rates, TAIPEI_ALPHA, TAIPEI_BETA)

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
            want = reference_violations(rates, alpha, beta, slack)
            got = find_violations(rates, alpha, beta, slack=slack)
            assert got == want
            assert [type(v.day) for v in got] == [int] * len(got)
        assert len(find_violations(rates, alpha, beta)) > n // 8

    def test_step_past_the_float_range(self):
        # The rate factor 1e320 overflows to inf; inside a month it is a
        # violation, across months it is not reported.  No warning either way.
        days = tuple(date(2000, month, day) for month in (1, 2, 3) for day in (3, 4))
        closes = np.array([1e120, 1e-200, 1e120, 1e120, 1e-200, 1e-200])
        report = compare_report(PriceSeries(days, closes), 2.0, 2.0)
        january, february, march = (dict(window.results)["BAL"] for window in report.windows)
        assert january.violations == (Violation(day=1, factor=float("inf"), lo=0.5, hi=2.0),)
        assert february.violations == march.violations == ()

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


class TestPriceSeries:
    DAYS = (date(2000, 1, 3), date(2000, 1, 4), date(2000, 1, 5))

    def test_one_close_per_date(self):
        with pytest.raises(LengthMismatch):
            PriceSeries(self.DAYS, np.array([1.0, 2.0]))
        with pytest.raises(LengthMismatch):
            PriceSeries(self.DAYS, np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [-2.0, 0.0, 1e-320, float("nan"), float("inf")])
    def test_closes_are_finite_and_positive(self, bad):
        with pytest.raises(NonPositivePrice):
            PriceSeries(self.DAYS[:2], np.array([1.0, bad]))

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 0, 2), (0, 2, 2)])
    def test_dates_strictly_increase(self, order):
        with pytest.raises(PreconditionViolated):
            PriceSeries(tuple(self.DAYS[k] for k in order), np.array([1.0, 2.0, 3.0]))

    def test_empty_series_has_no_month(self):
        with pytest.raises(LengthMismatch):
            compare_report(PriceSeries((), np.array([])), TAIPEI_ALPHA, TAIPEI_BETA)


class TestPlanWindow:
    DAYS = TestPriceSeries.DAYS

    def test_one_close_per_date(self):
        with pytest.raises(LengthMismatch):
            PlanWindow("x", self.DAYS[:1], np.array([1.0, 2.0]))
        with pytest.raises(LengthMismatch):
            PlanWindow("x", self.DAYS, np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [-2.0, 0.0, 1e-320, float("nan"), float("inf")])
    def test_closes_are_finite_and_positive(self, bad):
        with pytest.raises(NonPositivePrice):
            PlanWindow("x", self.DAYS[:2], np.array([1.0, bad]))

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 0, 2), (0, 2, 2)])
    def test_dates_strictly_increase(self, order):
        with pytest.raises(PreconditionViolated):
            PlanWindow("x", tuple(self.DAYS[k] for k in order), np.array([1.0, 2.0, 3.0]))

    def test_closes_become_a_read_only_float_vector(self):
        window = PlanWindow("x", self.DAYS[:2], [1, 2])
        assert window.closes.dtype == float
        assert not window.closes.flags.writeable
        assert window.rates.tolist() == [1.0, 0.5]


def _dated_rows(draw, n, start, gaps):
    """``n`` strictly increasing dates from ``start`` with gaps drawn from ``gaps``, cut at date.max."""
    days = [start]
    for gap in draw(st.lists(gaps, min_size=n - 1, max_size=n - 1)):
        if (date.max - days[-1]).days < gap:
            break
        days.append(days[-1] + timedelta(days=gap))
    return days


_BAD_DATES = ["2000-13-01", "2001-02-29", "not-a-date", "", "2000/01/03", "٢000-01-03"]
_BAD_CLOSES = ["1_0", "١", "0x10", "inf", "-inf", "nan", "1e999", "", "1e", "abc", " 1", "1.2.3"]


@st.composite
def _price_texts(draw):
    """A date,close file, maybe shuffled and with one defect, in one of the layouts csv reads."""
    n = draw(st.integers(1, 30))
    start = draw(st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31)))
    days = _dated_rows(draw, n, start, st.integers(1, 40))
    closes = draw(st.lists(st.floats(1e-3, 1e6), min_size=len(days), max_size=len(days)))
    rows = [[day.isoformat(), repr(close)] for day, close in zip(days, closes)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    k = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from([None, None, "date", "close", "zero", "negative", "duplicate", "fields"]))
    if defect == "date":
        rows[k][0] = draw(st.sampled_from(_BAD_DATES))
    elif defect == "close":
        rows[k][1] = draw(st.sampled_from(_BAD_CLOSES))
    elif defect == "zero":
        rows[k][1] = draw(st.sampled_from(["0", "0.0", "-0", "0e5"]))
    elif defect == "negative":
        rows[k][1] = "-" + rows[k][1]
    elif defect == "duplicate":
        rows[k][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
    elif defect == "fields":
        rows[k].append(draw(st.sampled_from(["x", ""])))
    quoted, padded = draw(st.booleans()), draw(st.booleans())
    lines = ["date,close"]
    for row in rows:
        cells = [f'"{cell}"' if quoted else f" {cell} " if padded else cell for cell in row]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return ("﻿" if draw(st.booleans()) else "") + text


def _parse_outcome(parse, text):
    try:
        series = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.row, exc.column
    return series.dates, series.closes.tolist(), series.reordered


@st.composite
def _series(draw):
    """A price series with one-day months, gaps of years and dates up to December 9999."""
    n = draw(st.integers(1, 40))
    start = draw(st.one_of(st.dates(date(1990, 1, 1), date(2030, 12, 31)), st.dates(date(9999, 9, 1))))
    gaps = st.one_of(st.integers(1, 3), st.integers(20, 40), st.integers(365, 3000))
    days = _dated_rows(draw, n, start, gaps)
    factors = draw(st.lists(st.floats(0.5, 2.0), min_size=len(days) - 1, max_size=len(days) - 1))
    closes = [draw(st.floats(1e-3, 1e6))]
    for factor in factors:
        closes.append(closes[-1] * factor)
    return PriceSeries(tuple(days), np.array(closes))


class TestBulkMatchesReference:
    def test_parse_prices(self):
        texts = Counter()

        @given(text=_price_texts())
        @settings(max_examples=150, deadline=None)
        def check(text):
            texts["all"] += 1
            assert _parse_outcome(parse_prices, text) == _parse_outcome(reference_parse_prices, text)

        with mock.patch.object(backtest, "_parse_rows", wraps=backtest._parse_rows) as row_reader:
            check()
        # Both the bulk path and the row reader it falls back to were taken.
        assert 0 < row_reader.call_count < texts["all"]

    @given(
        series=_series(),
        bounds=st.sampled_from([(TAIPEI_ALPHA, TAIPEI_BETA), (1 / 0.95, 1.30), (2, 2), (1.5, 1.01)]),
        slack=st.sampled_from([0.0, VIOLATION_SLACK, 0.05]),
    )
    @settings(max_examples=100, deadline=None)
    def test_compare_report(self, series, bounds, slack):
        want = reference_compare_report(series, *bounds, slack)
        assert repr(compare_report(series, *bounds, slack)) == repr(want)
        windows, skipped = segment_monthly(series)
        ref_windows, ref_skipped = reference_segment_monthly(series)
        assert skipped == ref_skipped
        assert [(w.label, w.dates, w.closes.tolist()) for w in windows] == [
            (w.label, w.dates, w.closes.tolist()) for w in ref_windows
        ]
