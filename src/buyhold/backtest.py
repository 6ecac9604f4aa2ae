"""Backtesting static buy-and-hold plans on daily closing prices.

One plan is run per calendar month: the month's exchange rates are the
reciprocals of its closing prices (deliberately not renormalized; the
realized ratio is scale-invariant), a strategy's weights are generated
for the month's actual trading-day count, and the plan records shares
accumulated, their currency value at the month's last close, the
realized competitive ratio, and any daily moves that violate the
configured return bounds.  Violations are diagnostics: the theory
assumes admissible sequences, and real data (splits, halts) may break
that assumption, so offending windows are reported but still evaluated.
"""

import csv
import io
import math
import os
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable

import numpy as np

from .errors import DuplicateDate, LengthMismatch, NonPositivePrice, ParseError
from .formatting import parse_decimal, render, to_json
from .market import MarketParams, bal_weights, check_bounds, da_weights
from .svgchart import line_chart

#: Default relative slack when flagging daily bound violations.
VIOLATION_SLACK = 1e-9


@dataclass(frozen=True)
class PriceSeries:
    """Date-sorted daily closing prices.

    ``reordered`` is True when the input rows were not already sorted.
    """

    dates: tuple[date, ...]
    closes: np.ndarray
    reordered: bool = False

    def __post_init__(self):
        self.closes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class PlanWindow:
    """A contiguous one-month slice of a price series."""

    label: str
    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self):
        self.closes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def rates(self) -> np.ndarray:
        """Exchange rates: shares per unit of capital, 1/price."""
        return 1.0 / self.closes


@dataclass(frozen=True)
class Violation:
    """A daily rate factor outside the allowed interval.

    ``day`` is the 0-based index (within the window) of the later day of
    the offending step; the interval is ``[1/beta, alpha]`` on the rate
    factor ``e_i / e_{i-1}``.
    """

    day: int
    factor: float
    lo: float
    hi: float


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one strategy on one window."""

    shares: float
    currency_value: float
    realized_ratio: float
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class WindowReport:
    label: str
    n: int
    results: tuple[tuple[str, PlanResult], ...]


@dataclass(frozen=True)
class BacktestReport:
    """Per-window results for every strategy, plus skipped windows."""

    alpha: float
    beta: float
    windows: tuple[WindowReport, ...]
    skipped: tuple[tuple[str, str], ...]


def parse_prices(text: str) -> PriceSeries:
    """Parse ``date,close`` CSV text into a PriceSeries.

    The header must be exactly ``date,close``; dates are ISO-8601 and
    are sorted (with a flag) if they arrive out of order, and closes are
    read by ``formatting.parse_decimal``.  Duplicate dates and
    non-positive prices are rejected.
    """
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
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


def load_prices(source) -> PriceSeries:
    """Load a price CSV from a path, file object, bytes, or text."""
    if hasattr(source, "read"):
        data = source.read()
    elif isinstance(source, bytes):
        data = source
    else:
        with open(os.fspath(source), "rb") as handle:
            data = handle.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return parse_prices(data)


def segment_monthly(series: PriceSeries):
    """Split a series into calendar-month windows.

    Returns ``(windows, skipped)`` where skipped lists ``(label,
    reason)`` for months with a single trading day, on which every
    strategy is forced (a plan needs ``n >= 2``, see MarketParams).
    """
    if len(series) == 0:
        raise LengthMismatch("price series is empty")
    windows: list[PlanWindow] = []
    skipped: list[tuple[str, str]] = []
    start = 0
    for i in range(1, len(series) + 1):
        boundary = i == len(series) or (
            (series.dates[i].year, series.dates[i].month)
            != (series.dates[start].year, series.dates[start].month)
        )
        if not boundary:
            continue
        label = f"{series.dates[start].year:04d}-{series.dates[start].month:02d}"
        if i - start >= 2:
            windows.append(
                PlanWindow(
                    label=label,
                    dates=series.dates[start:i],
                    closes=series.closes[start:i].copy(),
                )
            )
        else:
            skipped.append((label, f"only {i - start} trading day(s)"))
        start = i
    return windows, skipped


def find_violations(rates, alpha: float, beta: float, slack: float = VIOLATION_SLACK):
    """Daily steps whose rate factor leaves ``[1/beta, alpha]``.

    The comparison is widened by the relative ``slack``; the reported
    interval is the unwidened one.
    """
    e = np.asarray(rates, dtype=float).ravel()
    lo, hi = 1.0 / beta, alpha
    lo_widened, hi_widened = lo * (1.0 - slack), hi * (1.0 + slack)
    # One division for all steps; comparing the factors as Python floats
    # beats further numpy calls on windows of a month.
    factors = (e[1:] / e[:-1]).tolist()
    return tuple(
        Violation(day=day, factor=factor, lo=lo, hi=hi)
        for day, factor in enumerate(factors, start=1)
        if factor < lo_widened or factor > hi_widened
    )


def run_plan(
    weights_for: Callable[[int], np.ndarray],
    window: PlanWindow,
    alpha: float,
    beta: float,
    slack: float = VIOLATION_SLACK,
) -> PlanResult:
    """Execute one strategy on one window.

    ``weights_for`` maps the window's trading-day count to the daily
    capital fractions.  Rates are the raw price reciprocals: shares are
    the weighted sum of rates, the currency value converts them at the
    final close, and the realized ratio compares the best single-day
    rate with the plan's accumulation.
    """
    weights = np.asarray(weights_for(len(window)), dtype=float).ravel()
    if weights.shape[0] != len(window):
        raise LengthMismatch(
            f"strategy produced {weights.shape[0]} weights for a {len(window)}-day window"
        )
    rates = window.rates
    shares = float(weights @ rates)
    return PlanResult(
        shares=shares,
        currency_value=shares * float(window.closes[-1]),
        realized_ratio=float(rates.max()) / shares,
        violations=find_violations(rates, alpha, beta, slack=slack),
    )


def compare_report(
    series: PriceSeries, alpha: float, beta: float, slack: float = VIOLATION_SLACK
) -> BacktestReport:
    """Run the balanced strategy (BAL) and dollar averaging (DA) on every month.

    Raises ValueError unless ``alpha`` and ``beta`` are finite numbers
    > 1.  Months too short for a plan are listed as skipped; the output
    ordering is fixed by window date, so identical inputs yield
    identical reports.
    """
    check_bounds(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    strategies = (
        ("BAL", lambda n: bal_weights(MarketParams(alpha=alpha, beta=beta, n=n))),
        ("DA", da_weights),
    )
    windows, skipped = segment_monthly(series)
    reports = []
    for window in windows:
        results = tuple(
            (name, run_plan(weights_for, window, alpha, beta, slack=slack))
            for name, weights_for in strategies
        )
        reports.append(WindowReport(label=window.label, n=len(window), results=results))
    return BacktestReport(alpha=alpha, beta=beta, windows=tuple(reports), skipped=tuple(skipped))


def synthetic_prices(
    alpha: float,
    beta: float,
    months: int = 12,
    seed: int = 0,
    start: date = date(1997, 1, 1),
    initial_price: float = 100.0,
) -> PriceSeries:
    """Seeded admissible price series over weekday trading days.

    Each day's rate factor is drawn uniformly from ``[1/beta, alpha]``,
    so every step (within and across months) respects the bounds; the
    price moves by the reciprocal factor.  Raises ValueError unless
    ``alpha`` and ``beta`` are finite numbers > 1.
    """
    check_bounds(alpha, beta)
    if months < 1:
        raise ValueError("months must be >= 1")
    if not (math.isfinite(initial_price) and initial_price > 0.0):
        raise ValueError(f"initial_price must be a finite number > 0, got {initial_price}")
    first_month = (start.year, start.month)
    dates = []
    day = start
    while True:
        month_index = (day.year - first_month[0]) * 12 + (day.month - first_month[1])
        if month_index >= months:
            break
        if day.weekday() < 5:
            dates.append(day)
        day += timedelta(days=1)
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 / beta, alpha, size=len(dates) - 1)
    closes = np.empty(len(dates))
    closes[0] = initial_price
    for i, factor in enumerate(factors):
        closes[i + 1] = closes[i] / factor
    return PriceSeries(dates=tuple(dates), closes=closes)


def series_csv(series: PriceSeries) -> str:
    """Render a PriceSeries in the input CSV format."""
    rows = [(day.isoformat(), close) for day, close in zip(series.dates, series.closes)]
    return render([("date", "close"), *rows], "csv")


def report_json(report: BacktestReport) -> str:
    """Render a report as JSON with 12-significant-digit numbers."""
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


def report_rows(report: BacktestReport) -> list[tuple]:
    """A header and one row per (window, strategy): the CSV and text table."""
    header = ("window", "n", "strategy", "shares", "currency_value", "realized_ratio", "violations")
    return [header] + [
        (window.label, window.n, name, r.shares, r.currency_value, r.realized_ratio, len(r.violations))
        for window in report.windows
        for name, r in window.results
    ]


def report_csv(report: BacktestReport) -> str:
    """Flatten a report to one CSV row per (window, strategy)."""
    return render(report_rows(report), "csv")


def report_svg(report: BacktestReport) -> str:
    """Line chart of realized ratios per window, one series per strategy."""
    ratios = [{name: r.realized_ratio for name, r in window.results} for window in report.windows]
    names = dict.fromkeys(name for by_name in ratios for name in by_name)
    series = [
        (name, [by_name.get(name) for by_name in ratios], idx % 2 == 1)
        for idx, name in enumerate(names)
    ]
    labels = [window.label for window in report.windows]
    return line_chart(labels, series, title="Realized competitive ratios", y_label="ratio")
