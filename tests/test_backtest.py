import csv
import io
import math
import pickle
import re
from collections import Counter
from datetime import date, datetime, timedelta
from itertools import cycle, groupby
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from buyhold import backtest, formatting
from buyhold.backtest import (
    VIOLATION_SLACK,
    BacktestReport,
    PlanResult,
    PriceSeries,
    Violation,
    WindowReport,
    load_prices,
    series_csv,
)
from buyhold.formatting import decode_utf8, parse_decimal, to_json
from buyhold.market import CIRCUIT_BREAKERS, bal_weights, check_bounds, da_weights, preset_bounds

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
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")), strict=True)
    try:
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", row=reader.line_num) from None
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


class ReferenceWindow(NamedTuple):
    label: str
    dates: tuple
    closes: np.ndarray


def reference_segment_monthly(series):
    if len(series) == 0:
        raise LengthMismatch("price series is empty")
    windows, skipped = [], []
    start = 0
    for (year, month), days in groupby(series.dates, key=lambda day: (day.year, day.month)):
        stop = start + len(list(days))
        label = f"{year:04d}-{month:02d}"
        if stop - start >= 2:
            windows.append(ReferenceWindow(label, series.dates[start:stop], series.closes[start:stop]))
        else:
            skipped.append((label, f"only {stop - start} trading day(s)"))
        start = stop
    return windows, skipped


def reference_violations(rates, alpha, beta, slack=VIOLATION_SLACK):
    # The day-by-day loop that compare_report's one scan replaced.
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
        n = len(window.dates)
        rates = 1.0 / window.closes
        best, last = float(rates.max()), float(window.closes[-1])
        violations = reference_violations(rates, alpha, beta, slack=slack)
        results = []
        for name, weights in (("BAL", bal_weights(MarketParams(alpha, beta, n))), ("DA", da_weights(n))):
            shares = float(weights @ rates)
            results.append((name, PlanResult(shares, shares * last, best / shares, violations)))
        reports.append(WindowReport(label=window.label, n=n, results=tuple(results)))
    return BacktestReport(alpha=alpha, beta=beta, windows=tuple(reports), skipped=tuple(skipped))


def reference_report_json(report):
    # report_json as it was: the whole report built as a payload of dicts
    # and lists, then written by formatting.to_json.
    payload = {
        "params": {"alpha": report.alpha, "beta": report.beta},
        "windows": [
            {
                "label": window.label,
                "n": window.n,
                "strategies": [
                    {
                        "name": name,
                        "shares": result.shares,
                        "currency_value": result.currency_value,
                        "realized_ratio": result.realized_ratio,
                        "violations": [
                            {"day": v.day, "factor": v.factor, "min": v.lo, "max": v.hi}
                            for v in result.violations
                        ],
                    }
                    for name, result in window.results
                ],
            }
            for window in report.windows
        ],
        "skipped": [{"window": label, "reason": reason} for label, reason in report.skipped],
    }
    return to_json(payload)


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
        [
            ("date,close\r1997-01-02,1\r1997-01-03,2\r", 1),
            ("date,close\n1997-01-02,1" + "0" * 200_000 + "\n", 2),
            ('date,close\n2000-01-03,4\n2000-01-04,"5"0\n', 3),
            ('date,close\n2000-01-03,4\n2000-01-04,"5\n', 3),
            ('date,close\n2000-01-03,4\n2000-01-04,"5', 3),
        ],
        ids=["bare-carriage-return", "field-past-size-limit", "text-after-quote", "open-quote", "open-quote-at-end"],
    )
    def test_unreadable_csv(self, text, row):
        # A bare carriage return, a field past csv.field_size_limit, and
        # quotes that the lenient dialect would read as 50 or 5.
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

    def test_text_is_tokenized_once(self):
        # Plain text, with LF or CRLF line ends, is split without csv.reader;
        # other text, a lone carriage return included, and a plain text with
        # a bad row, which is named from the records, take one call.
        with mock.patch.object(formatting.csv, "reader", wraps=csv.reader) as reader:
            parse_prices("date,close\n1997-01-02,100\n1997-01-03,101\n")
            parse_prices("date,close\n1997-01-02,100\n1997-01-03,101")
            assert parse_prices("date,close\r\n1997-01-02,100\r\n").closes.tolist() == [100.0]
            # Blank lines at the end, which csv reads as blank records.
            assert parse_prices("date,close\n1997-01-02,100\n\n\n").closes.tolist() == [100.0]
            assert parse_prices("date,close\r\n1997-01-02,100\r\n\r\n").closes.tolist() == [100.0]
            assert reader.call_count == 0
            for text in ['date,close\n1997-01-02,"100"\n', "date,close\r\n1997-01-02,100\r"]:
                reader.reset_mock()
                assert parse_prices(text).closes.tolist() == [100.0]
                assert reader.call_count == 1
            for text, where in [
                ("date,close\n1997-01-02,100\n1997-01-03,x\n", (3, 2)),
                ("date,close\n1997-01-02,100\n\n1997-01-03,x\n", (4, 2)),
                ("date,close\r\n1997-01-02,100\r\n1997-01-03,x\r\n", (3, 2)),
                ("date,close\r\n1997-01-02,100\r1997-01-03,101\r\n", (2, None)),
                # A last line of spaces is no blank line: it has one field.
                ("date,close\n1997-01-02,1\n \t\n", (3, None)),
            ]:
                reader.reset_mock()
                with pytest.raises(ParseError) as err:
                    parse_prices(text)
                assert reader.call_count == 1
                assert (err.value.row, err.value.column) == where

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: parse_prices(None), "parse_prices takes the CSV text as str, got NoneType"),
            (lambda: parse_prices(b"date,close\n1997-01-02,1\n"), "got bytes; load_prices reads a file and "),
            (lambda: parse_prices(bytearray(b"date,close\n")), "formatting.decode_utf8 decodes bytes"),
            (lambda: compare_report(None, 2, 2), "compare_report takes a PriceSeries, got NoneType"),
            (lambda: compare_report([1, 2], 2, 2), "compare_report takes a PriceSeries, got list"),
            (lambda: report_json(None), "report_json takes a BacktestReport, got NoneType"),
            (lambda: report_csv(None), "report_csv takes a BacktestReport, got NoneType"),
            (lambda: report_svg(None), "report_svg takes a BacktestReport, got NoneType"),
            (lambda: segment_monthly(None), "segment_monthly takes a PriceSeries, got NoneType"),
            (lambda: synthetic_prices(2, 2, start="2000-01-03"), "synthetic_prices takes a date, got str"),
            (lambda: synthetic_prices(2, 2, start=datetime(2000, 1, 3)), "synthetic_prices takes a date, got datetime"),
            (lambda: backtest.window_end(datetime(2000, 1, 3), 1), "window_end takes a date, got datetime"),
            (lambda: backtest.window_end("2000-01-03", 1), "window_end takes a date, got str"),
        ],
        ids=["text-none", "text-bytes", "text-bytearray", "series-none", "series-list", "json", "csv", "svg",
             "segment", "synthetic-start", "synthetic-datetime", "window-end-datetime", "window-end-str"],
    )
    def test_argument_of_the_wrong_type_rejected(self, call, message):
        with pytest.raises(TypeError) as err:
            call()
        assert message in str(err.value)

    def test_memoryview_text_gets_no_decode_hint(self):
        # decode_utf8 takes bytes and bytearrays only, so the hint names neither helper here.
        with pytest.raises(TypeError, match="^parse_prices takes the CSV text as str, got memoryview$"):
            parse_prices(memoryview(b"date,close\n1997-01-02,1\n"))

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
        assert [f"{w.dates[0]:%Y-%m}" for w in windows] == ["1997-01", "1997-02", "1997-03"]
        assert skipped == []

    def test_single_day_month_skipped(self):
        text = "date,close\n1997-01-03,100\n1997-01-10,101\n1997-02-14,102\n"
        windows, skipped = segment_monthly(parse_prices(text))
        assert [f"{w.dates[0]:%Y-%m}" for w in windows] == ["1997-01"]
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
        (window,) = compare_report(PriceSeries(series.dates, closes), TAIPEI_ALPHA, TAIPEI_BETA).windows
        violations = dict(window.results)["BAL"].violations
        assert violations == reference_violations(1.0 / closes, TAIPEI_ALPHA, TAIPEI_BETA)
        assert len(violations) == 1
        assert violations[0].day == 10
        assert violations[0].factor == pytest.approx(closes[9] / closes[10], rel=1e-12)
        assert violations[0].factor > TAIPEI_ALPHA
        assert violations[0].lo == pytest.approx(1.0 / TAIPEI_BETA, rel=1e-15)
        assert violations[0].hi == pytest.approx(TAIPEI_ALPHA, rel=1e-15)
        # The window is still evaluated.
        for _, result in window.results:
            assert result.shares > 0.0

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
            assert bal.violations == reference_violations(1.0 / plan.closes, TAIPEI_ALPHA, TAIPEI_BETA)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_daily_loop_on_dense_series(self, seed):
        # Daily log-moves uniform on twice the largest admissible move,
        # so many steps break the bounds.
        rng = np.random.default_rng(seed)
        alpha, beta = (TAIPEI_ALPHA, TAIPEI_BETA) if seed % 2 else (1 / 0.95, 1.30)
        limit = 2.0 * min(np.log(alpha), np.log(beta))
        n = int(rng.integers(2, 300))
        rates = np.exp(np.cumsum(rng.uniform(-limit, limit, size=n))) * rng.uniform(1e-3, 0.1)
        # Consecutive calendar days, so the series spans up to ten months.
        days = tuple(date(2001, 1, 1) + timedelta(days=k) for k in range(n))
        series = PriceSeries(days, 1.0 / rates)
        counts = {}
        for slack in (0.0, VIOLATION_SLACK, 0.05):
            got = compare_report(series, alpha, beta, slack=slack)
            assert repr(got) == repr(reference_compare_report(series, alpha, beta, slack))
            violations = [v for window in got.windows for v in dict(window.results)["BAL"].violations]
            assert [type(v.day) for v in violations] == [int] * len(violations)
            counts[slack] = len(violations)
        assert counts[VIOLATION_SLACK] > n // 8

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

    @pytest.mark.parametrize("slack", [float("nan"), float("inf"), -3.0, "x"])
    def test_bad_slack_rejected(self, slack):
        # One month with two steps outside the bounds.  Unchecked, NaN and
        # inf flagged none of them, -3 flagged every step and "x" raised TypeError.
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=1, seed=4)
        closes = series.closes.copy()
        closes[10] *= 0.5
        dirty = PriceSeries(series.dates, closes)
        (window,) = compare_report(dirty, TAIPEI_ALPHA, TAIPEI_BETA).windows
        assert len(dict(window.results)["BAL"].violations) == 2
        with pytest.raises(ValueError, match="slack must be a finite number >= 0"):
            compare_report(dirty, TAIPEI_ALPHA, TAIPEI_BETA, slack=slack)


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

    def test_svg_of_one_flat_month(self):
        # One label sits mid-axis, and flat ratios (1 for both plans on flat
        # prices) get an axis padded by 5% of their value: 0.95 to 1.05.
        series = parse_prices("date,close\n2000-01-03,10\n2000-01-04,10\n2000-01-05,10\n")
        svg = report_svg(compare_report(series, TAIPEI_ALPHA, TAIPEI_BETA))
        assert re.findall(r'points="([^"]*)"', svg) == ["425.00,235.00", "425.00,235.00"]
        assert re.findall(r'font-size="11">([^<]*)<', svg) == ["0.95", "0.975", "1", "1.025", "1.05", "2000-01"]


def reference_synthetic_closes(alpha, beta, months=12, seed=0, start=date(1997, 1, 1), initial_price=100.0):
    # The day-by-day loop that synthetic_prices' one accumulate replaced.
    end = backtest.window_end(start, months)
    n = sum(1 for k in range((end - start).days + 1) if (start + timedelta(days=k)).weekday() < 5)
    factors = np.random.default_rng(seed).uniform(1.0 / beta, alpha, size=n - 1)
    closes = np.empty(n)
    closes[0] = initial_price
    with np.errstate(over="ignore"):
        for i, factor in enumerate(factors):
            closes[i + 1] = closes[i] / factor
    return closes


class TestSynthetic:
    @pytest.mark.parametrize(
        "alpha, beta, months, price, in_range",
        [(TAIPEI_ALPHA, TAIPEI_BETA, 12, 100.0, True), (1.5, 1.01, 24, 1e300, True), (1.01, 1.5, 24, 1e-300, True),
         (2.0, 2.0, 1, np.exp(700.0), True), (2.0, 2.0, 1, np.exp(-700.0), True),
         (1.01, 1.5, 24, 1e300, False), (1.5, 1.01, 24, 1e-300, False)],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_closes_match_daily_loop(self, alpha, beta, months, price, in_range, seed):
        want = reference_synthetic_closes(alpha, beta, months, seed, initial_price=price)
        assert bool(np.all((want >= np.finfo(float).tiny) & (want < np.inf))) == in_range
        if in_range:
            got = synthetic_prices(alpha, beta, months=months, seed=seed, initial_price=price).closes
            assert got.tobytes() == want.tobytes()
        else:
            # The loop overflows, or falls below the normal range; so must the bulk pass.
            with pytest.raises(PreconditionViolated, match="float range"):
                synthetic_prices(alpha, beta, months=months, seed=seed, initial_price=price)

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

    @pytest.mark.parametrize(
        "argument, value",
        [("initial_price", "x"), ("initial_price", None), ("seed", "x"), ("seed", 1.5), ("months", 1.5), ("months", "2")],
    )
    def test_argument_of_the_wrong_type_rejected(self, argument, value):
        with pytest.raises(ValueError, match=argument):
            synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, **{"months": 1, argument: value})

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


def numpy_draws(seed, low, high, size):
    return [x.hex() for x in np.random.default_rng(seed).uniform(low, high, size=size)]


def own_draws(seed, low, high, size):
    return [x.hex() for x in backtest._uniform_draws(seed, low, high, size)]


#: Integer seeds of every kind ``synthetic_prices`` takes, from one 32-bit
#: word to seven, where the words past the fourth are mixed in on their own.
STREAM_SEEDS = [0, 1, True, np.int64(5), np.uint64(2**63), 2**32, 2**64 + 5, 2**200 + 17]


class TestUniformDraws:
    @pytest.mark.parametrize("preset", sorted(CIRCUIT_BREAKERS))
    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=repr)
    def test_short_streams_match_numpy(self, seed, preset):
        alpha, beta = preset_bounds(preset)
        for size in (0, 1, 7):
            assert own_draws(seed, 1.0 / beta, alpha, size) == numpy_draws(seed, 1.0 / beta, alpha, size)

    @pytest.mark.parametrize("seed, preset", zip(STREAM_SEEDS, cycle(sorted(CIRCUIT_BREAKERS))), ids=repr)
    def test_a_stream_as_long_as_the_longest_synth_matches_numpy(self, seed, preset):
        # A 1200-month window holds at most 26,090 weekdays, so this covers the longest synth.
        alpha, beta = preset_bounds(preset)
        assert own_draws(seed, 1.0 / beta, alpha, 26100) == numpy_draws(seed, 1.0 / beta, alpha, 26100)

    @given(
        seed=st.integers(0, 2**300),
        low=st.floats(1e-3, 1.0),
        width=st.floats(1e-12, 1e3),
        size=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_seed_and_bounds_match_numpy(self, seed, low, width, size):
        assert own_draws(seed, low, low + width, size) == numpy_draws(seed, low, low + width, size)

    def test_pinned_values(self):
        # The stream is defined by these bits, whatever a later numpy draws.
        alpha, beta = preset_bounds("taipei")
        assert own_draws(0, 0.0, 1.0, 3) == ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]
        assert own_draws(2**64 + 5, 1.0 / beta, alpha, 2) == ["0x1.0a0011932a374p+0", "0x1.faabaa14791b7p-1"]
        assert own_draws(2**200 + 17, 1.0 / beta, alpha, 3) == [
            "0x1.e85c53877a43cp-1", "0x1.fcb744c8df1dcp-1", "0x1.051122509a093p+0"
        ]


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

    def test_closes_become_a_read_only_float_vector(self):
        series = PriceSeries(self.DAYS[:2], [1, 2])
        assert series.closes.dtype == float
        assert not series.closes.flags.writeable

    def test_later_edits_of_the_callers_array_do_not_reach_the_series(self):
        closes = np.array([1.0, 2.0])
        series = PriceSeries(self.DAYS[:2], closes)
        closes[0] = 3.0
        assert series.closes.tolist() == [1.0, 2.0]
        assert closes.flags.writeable and not series.closes.flags.writeable
        # A read-only view of a writeable array is copied too.
        view = closes.view()
        view.flags.writeable = False
        series = PriceSeries(self.DAYS[:2], view)
        closes[0] = 4.0
        assert series.closes.tolist() == [3.0, 2.0]
        (window,), _ = segment_monthly(series)
        assert window.closes.tolist() == [3.0, 2.0] and not window.closes.flags.writeable

    def test_empty_series_has_no_month(self):
        with pytest.raises(LengthMismatch):
            compare_report(PriceSeries((), np.array([])), TAIPEI_ALPHA, TAIPEI_BETA)


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


#: Edits that take a plain text (see backtest._plain_cells) to its edge, or past it.
_PLAIN_EDITS = [
    "cancel", "no comma", "two commas", "blank", "spaces", "control", "surrogate", "long", "lone cr", "edge cr"
]


def _edited(draw, lines, edit):
    """Apply ``edit`` to the data ``lines`` of a plain text, in place."""
    k = draw(st.integers(1, len(lines) - 1))
    if edit == "cancel" and k + 1 < len(lines):
        # d1,c1,d2 then c2: as many commas as newlines, but not one per line.
        day, _, lines[k + 1] = lines[k + 1].partition(",")
        lines[k] += "," + day
    elif edit == "no comma":
        lines[k] = lines[k].replace(",", draw(st.sampled_from(["", " ", ";"])), 1)
    elif edit == "two commas":
        lines[k] += draw(st.sampled_from([",", ",x", ", 1"]))
    elif edit in ("blank", "spaces"):
        line = "" if edit == "blank" else draw(st.sampled_from([" ", "\t", " \t "]))
        lines.insert(draw(st.integers(1, len(lines))), line)
    elif edit in ("control", "surrogate"):
        chars = ["\x00", "\x0b", "\x85", "\u2028"] if edit == "control" else ["\ud800", "\udfff"]
        cells = lines[k].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        at = draw(st.integers(0, len(cells[j])))
        cells[j] = cells[j][:at] + draw(st.sampled_from(chars)) + cells[j][at:]
        lines[k] = ",".join(cells)
    elif edit == "long":
        # A line, a close or a whole line of one field, of
        # csv.field_size_limit() characters or one more.
        length = csv.field_size_limit() + draw(st.integers(0, 1))
        shape = draw(st.sampled_from(["line", "close", "one field"]))
        if shape == "line":
            lines[k] += " " * (length - len(lines[k]))
        elif shape == "close":
            day, _, close = lines[k].partition(",")
            lines[k] = day + "," + close.rjust(length)
        else:
            lines[k] = "1" * length
    elif edit == "lone cr":
        # Anywhere in a line, at its end too, where a newline may follow it.
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + "\r" + lines[k][at:]
    elif edit == "edge cr":
        # At a cell's edge, where strip and float would drop it.
        comma = lines[k].index(",")
        at = draw(st.sampled_from([0, comma, comma + 1, len(lines[k])]))
        lines[k] = lines[k][:at] + "\r" + lines[k][at:]


@st.composite
def _price_texts(draw, plain=False, edit=None):
    """A date,close file, maybe shuffled and with one defect, in one of the layouts csv reads.

    With ``plain`` the layout is the one parse_prices splits without
    csv.reader: no quotes and no blank lines, with LF or CRLF line ends.
    Then ``edit``, or one drawn from ``_PLAIN_EDITS``, may take it to the
    edge of that layout or past it, and a text with an edit has no
    defect: a defect in an earlier row would raise the same error on
    both sides, so the edit would not be compared.
    """
    if plain and edit is None:
        edit = draw(st.sampled_from([None] * len(_PLAIN_EDITS) + _PLAIN_EDITS))
    n = draw(st.integers(1, 30))
    start = draw(st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 12, 31)))
    days = _dated_rows(draw, n, start, st.integers(1, 40))
    closes = draw(st.lists(st.floats(1e-3, 1e6), min_size=len(days), max_size=len(days)))
    rows = [[day.isoformat(), repr(close)] for day, close in zip(days, closes)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    k = draw(st.integers(0, len(rows) - 1))
    defects = [None, None, "date", "close", "zero", "negative", "duplicate", "fields"]
    defect = None if edit else draw(st.sampled_from(defects))
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
    quoted, padded = not plain and draw(st.booleans()), draw(st.booleans())
    lines = ["date,close"]
    for row in rows:
        cells = [f'"{cell}"' if quoted else f" {cell} " if padded else cell for cell in row]
        lines.append(",".join(cells))
    if plain:
        _edited(draw, lines, edit)
    else:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return ("﻿" if draw(st.booleans()) else "") + text


_LIMIT = csv.field_size_limit()
#: Texts just past the edge of plain, and plain ones at it, that every run checks.
_EDGE_TEXTS = [
    "date,close\n1997-01-02,1,1997-01-03\n2\n",
    "date,close\n1997-01-02,1\n1997-01-03,2\n",
    "date,close\n1997-01-02 1\n1997-01-03,2,3\n",
    "date,close\n1997-01-02,1\n1997-01-03",
    "date,close\n1997-01-02,1\n1997-01-03,2",
    "\ufeffdate,close\n1997-01-02,1\n",
    "date,close\n\n1997-01-02,1\n",
    "date,close\n1997-01-02,1\n \t\n",
    "date,close\n1997-01-02,1\n\n",
    "date,close\n1997-01-02,1\n1997-01-03,x\n\n\n",
    "date,close\n1997-01-02,1\n\n \n",
    "date,close\n\n",
    # CRLF line ends, and carriage returns that are not followed by a newline.
    "date,close\r\n1997-01-02,1\r\n1997-01-03,2",
    "date,close\r\n1997-01-02,1\r",
    "date,close\r\n\r\n1997-01-02,1\r\n",
    "date,close\r\n1997-01-02,1\r\n\r\n",
    "date,close\r\r\n1997-01-02,1\r\n",
    "date,close\n1997-01-02,1\r1997-01-03,2\n",
    "date,close\n1997-01-02,1\r0\n",
    # At a cell's edge, where strip and float would drop it.
    "date,close\n1997-01-02,\r1\n",
    "date,close\r\n1997-01-02\r,1\r\n",
    "date,close\r\n1997-01-\r02,1\r\n",
    *(f"date,close\n1997-01-02{c},1{c}\n1997-01-03,{c}2\n" for c in ["\x00", "\x0b", "\x85", "\u2028"]),
    "date,close\n1997-01-02\ud800,1\n",
    "date,close\n1997-01-02,1\ud800\n",
    # Lines of the limit and one more, then closes of the limit and one more.
    *(f"date,close\n1997-01-02,{'1'.rjust(_LIMIT - 11 + extra)}\n" for extra in (0, 1, 11, 12)),
]


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

        @given(text=st.one_of(_price_texts(), _price_texts(plain=True)))
        @settings(max_examples=150, deadline=None)
        def check(text):
            texts["all"] += 1
            before = reader.call_count
            got = _parse_outcome(parse_prices, text)
            calls = reader.call_count - before
            want = _parse_outcome(reference_parse_prices, text)
            assert got == want
            # Plain text that parses (want[0] is its dates, not an error's
            # type) is split without csv.reader.
            if backtest._plain_cells(text.lstrip("\ufeff")) is not None and isinstance(want[0], tuple):
                texts["split"] += 1
                assert calls == 0, text

        for text in _EDGE_TEXTS:
            check = example(text=text)(check)
        with (
            mock.patch.object(backtest, "_parse_rows", wraps=backtest._parse_rows) as row_reader,
            mock.patch.object(formatting.csv, "reader", wraps=csv.reader) as reader,
        ):
            check()
        # The split and the row reader were both taken: _plain_cells refused
        # some texts and accepted others, explicit examples among them.
        assert 0 < row_reader.call_count < texts["all"]
        assert texts["split"] > 0, texts

    # Each edit in every run: drawn among the others, one edit kind may
    # not come up in a run's examples at all.
    @pytest.mark.parametrize("edit", _PLAIN_EDITS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_parse_prices_after_plain_edit(self, edit, data):
        text = data.draw(_price_texts(plain=True, edit=edit))
        assert _parse_outcome(parse_prices, text) == _parse_outcome(reference_parse_prices, text)

    @given(
        series=_series(),
        bounds=st.sampled_from([(TAIPEI_ALPHA, TAIPEI_BETA), (1 / 0.95, 1.30), (2, 2), (1.5, 1.01)]),
        slack=st.sampled_from([0.0, VIOLATION_SLACK, 0.05]),
    )
    @settings(max_examples=100, deadline=None)
    # Every month skipped, and a step flagged between two of them.
    @example(series=PriceSeries((date(2000, 1, 3), date(2000, 2, 3)), np.array([1.0, 100.0])), bounds=(2, 2), slack=0.0)
    def test_compare_report(self, series, bounds, slack):
        want = reference_compare_report(series, *bounds, slack)
        assert repr(compare_report(series, *bounds, slack)) == repr(want)
        windows, skipped = segment_monthly(series)
        ref_windows, ref_skipped = reference_segment_monthly(series)
        assert skipped == ref_skipped
        assert all(type(w) is PriceSeries for w in windows)
        assert [(f"{w.dates[0]:%Y-%m}", w.dates, w.closes.tolist()) for w in windows] == [
            (w.label, w.dates, w.closes.tolist()) for w in ref_windows
        ]

    @pytest.mark.parametrize("kind", ["synthetic", "dense"])
    def test_compare_report_bit_for_bit_on_long_series(self, kind):
        # Ten years of synthetic months, where many months share a length,
        # and violation-dense months of every length from 2 to 23, three
        # of each, so lengths of 16 and more cross the block of BLAS's dot.
        # Shares from one matrix-vector product per length differ in the
        # last bit on both.
        if kind == "synthetic":
            alpha, beta = TAIPEI_ALPHA, TAIPEI_BETA
            series = synthetic_prices(alpha, beta, months=120, seed=3)
        else:
            alpha, beta = 1 / 0.95, 1.30
            lengths = np.repeat(range(2, 24), 3)
            days = [date(2001 + k // 12, k % 12 + 1, 1 + i) for k, n in enumerate(lengths) for i in range(n)]
            limit = 2.0 * min(np.log(alpha), np.log(beta))
            moves = np.random.default_rng(23).uniform(-limit, limit, size=len(days))
            series = PriceSeries(tuple(days), 50.0 * np.exp(np.cumsum(moves)))
        counts = Counter(window.n for window in compare_report(series, alpha, beta).windows)
        assert max(counts.values()) >= 3 and max(counts) >= 16
        for slack in (0.0, VIOLATION_SLACK, 0.05):
            want = reference_compare_report(series, alpha, beta, slack)
            assert repr(compare_report(series, alpha, beta, slack)) == repr(want)


#: The three result records, each with its repr as a dataclass wrote it.
_RECORDS = [
    (Violation(day=1, factor=0.5, lo=0.5, hi=2.0), "Violation(day=1, factor=0.5, lo=0.5, hi=2.0)"),
    (
        PlanResult(0.25, 1.5, 1.125, (Violation(2, math.inf, 0.5, 2.0),)),
        "PlanResult(shares=0.25, currency_value=1.5, realized_ratio=1.125, "
        "violations=(Violation(day=2, factor=inf, lo=0.5, hi=2.0),))",
    ),
    (
        WindowReport("1997-01", 2, (("BAL", PlanResult(1.0, 2.0, 1.0, ())),)),
        "WindowReport(label='1997-01', n=2, results=(('BAL', PlanResult(shares=1.0, "
        "currency_value=2.0, realized_ratio=1.0, violations=())),))",
    ),
]


@pytest.mark.parametrize("record, text", _RECORDS, ids=["violation", "plan-result", "window-report"])
class TestRecords:
    def test_repr_is_pinned(self, record, text):
        assert repr(record) == text

    def test_fields_cannot_change(self, record, text):
        for name in (*type(record).__annotations__, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 3)
        assert repr(record) == text

    def test_pickle_round_trip(self, record, text):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record) and clone == record and repr(clone) == text


#: Floats whose spelling is easy to get wrong: signed zeros, subnormals,
#: the edges of positional notation, and the values JSON has no number for.
_ODD_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 1e15, 1e16, -1e16, 123456789012.5, math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_ODD_FLOATS))
_TEXT = st.one_of(st.sampled_from(["1997-01", "BAL", "DA", "only 1 trading day(s)", ' "é"\t\\ ']), st.text(max_size=6))
_VIOLATIONS = st.lists(
    st.builds(Violation, day=st.integers(-(2**70), 2**70), factor=_FLOATS, lo=_FLOATS, hi=_FLOATS), max_size=2
).map(tuple)
_RESULTS = st.builds(PlanResult, _FLOATS, _FLOATS, _FLOATS, _VIOLATIONS)


@st.composite
def _hand_built_reports(draw):
    """A report compare_report does not return: BAL and DA with their own violations, any floats and text."""
    strategies = st.one_of(
        st.tuples(_RESULTS, _RESULTS).map(lambda pair: (("BAL", pair[0]), ("DA", pair[1]))),
        st.lists(st.tuples(_TEXT, _RESULTS), max_size=2).map(tuple),
    )
    windows = st.builds(WindowReport, label=_TEXT, n=st.integers(0, 10**6), results=strategies)
    return BacktestReport(
        alpha=draw(_FLOATS),
        beta=draw(_FLOATS),
        windows=tuple(draw(st.lists(windows, max_size=2))),
        skipped=tuple(draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=2))),
    )


@st.composite
def _compared_series(draw):
    """A series that is clean, read from shuffled rows, violation-dense, of one-day
    months only, or that has a step whose rate factor overflows to inf."""
    kind = draw(st.sampled_from(["clean", "shuffled", "dense", "skipped only", "overflow"]))
    if kind in ("clean", "shuffled"):
        months, seed = draw(st.integers(1, 3)), draw(st.integers(0, 99))
        series = synthetic_prices(TAIPEI_ALPHA, TAIPEI_BETA, months=months, seed=seed)
        if kind == "clean":
            return series
        header, *rows = series_csv(series).splitlines()
        return parse_prices("\n".join([header, *draw(st.permutations(rows))]))
    if kind == "dense":
        return draw(_series())
    if kind == "skipped only":
        first = draw(st.integers(0, 1000))
        months = range(first, first + draw(st.integers(1, 6)))
        days = tuple(date(1990 + k // 12, k % 12 + 1, draw(st.integers(1, 28))) for k in months)
        return PriceSeries(days, np.array([draw(st.floats(1e-3, 1e6)) for _ in days]))
    days = tuple(date(2000, 3, day) for day in range(1, draw(st.integers(3, 9))))
    closes = [draw(st.floats(1.0, 100.0)) for _ in days]
    k = draw(st.integers(0, len(days) - 2))
    closes[k : k + 2] = [1e10, 1e-300]
    return PriceSeries(days, np.array(closes))


class TestReportJson:
    @given(
        series=_compared_series(),
        bounds=st.sampled_from([(TAIPEI_ALPHA, TAIPEI_BETA), (1 / 0.95, 1.30), (2, 2)]),
        slack=st.sampled_from([0.0, VIOLATION_SLACK, 0.05]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_compared_reports(self, series, bounds, slack):
        report = compare_report(series, *bounds, slack)
        assert report_json(report) == reference_report_json(report)

    @given(report=_hand_built_reports())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_hand_built_reports(self, report):
        assert report_json(report) == reference_report_json(report)
