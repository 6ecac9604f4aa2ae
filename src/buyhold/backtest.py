"""Backtesting the balanced strategy against dollar averaging on daily closes.

One plan is run per calendar month: the month's exchange rates are the
reciprocals of its closing prices (deliberately not renormalized; the
realized ratio is scale-invariant).  The balanced allocation (BAL) for
the month's trading-day count and dollar averaging (DA) each record
shares accumulated, their currency value at the month's last close and
the realized competitive ratio.  Both list the month's daily moves that
violate the configured return bounds.  Violations are diagnostics: the
theory assumes admissible sequences, and real data (splits, halts) may
break that assumption, so offending windows are reported but still
evaluated.

The work is done in bulk: ``parse_prices`` converts and checks whole
columns, and ``compare_report`` computes the rates, the daily rate
factors and the violation mask once over the whole series, and gives
each month its span of them.
"""

import csv
import io
import math
import operator
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import islice

import numpy as np

from .errors import DuplicateDate, LengthMismatch, NonPositivePrice, ParseError, PreconditionViolated
from .formatting import decode_utf8, parse_decimal, render, to_json
from .market import MarketParams, bal_weights, check_bounds, da_weights
from .svgchart import line_chart

#: Default relative slack when flagging daily bound violations.
VIOLATION_SLACK = 1e-9


@dataclass(frozen=True)
class PriceSeries:
    """Date-sorted daily closing prices.

    ``reordered`` is True when the input rows were not already sorted.
    Raises LengthMismatch unless ``closes`` is a vector with one close
    per date, PreconditionViolated unless the dates strictly increase
    and NonPositivePrice unless every close is a finite number in the
    normal float range above 0, so that every rate ``1/close`` is finite.
    """

    dates: tuple[date, ...]
    closes: np.ndarray
    reordered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "closes", _checked_closes(self.dates, self.closes))

    def __len__(self) -> int:
        return len(self.dates)


def _checked_closes(dates, closes) -> np.ndarray:
    """``closes`` as a read-only float vector, after the checks PriceSeries documents."""
    closes = np.asarray(closes, dtype=float)
    if closes.shape != (len(dates),):
        raise LengthMismatch(f"{len(dates)} dates vs closes of shape {closes.shape}")
    if not all(map(operator.lt, dates, islice(dates, 1, None))):
        raise PreconditionViolated("dates must strictly increase")
    if closes.size and not (closes.min() >= sys.float_info.min and closes.max() < math.inf):
        raise NonPositivePrice("every close must be a finite number > 0 in the normal float range")
    closes.flags.writeable = False
    return closes


@dataclass(frozen=True)
class PlanWindow:
    """A contiguous one-month slice of a price series.

    Checked as a PriceSeries is: LengthMismatch, PreconditionViolated
    and NonPositivePrice for the same faults.
    """

    label: str
    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "closes", _checked_closes(self.dates, self.closes))

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
    """Outcome of one strategy on one window; both strategies share ``violations``."""

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
    """Per-window results of BAL and DA, in that order, plus skipped windows."""

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

    The columns are converted and checked in bulk.  If any check fails,
    ``_parse_rows`` reads the text again row by row and raises the error
    of the first bad row.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text.lstrip("﻿"))) if row]
    except csv.Error:
        return _parse_rows(text)
    if len(rows) < 2 or [cell.strip() for cell in rows[0]] != ["date", "close"]:
        return _parse_rows(text)
    del rows[0]
    if set(map(len, rows)) != {2}:
        return _parse_rows(text)
    day_cells, close_cells = zip(*rows)
    # parse_decimal's guard, applied to every cell at once.
    joined = "".join(close_cells)
    if not joined.isascii() or "_" in joined:
        return _parse_rows(text)
    try:
        days = list(map(date.fromisoformat, map(str.strip, day_cells)))
        closes = np.fromiter(map(float, close_cells), float, len(close_cells))
    except ValueError:
        return _parse_rows(text)
    reordered = not all(map(operator.lt, days, islice(days, 1, None)))
    if reordered:
        order = sorted(range(len(days)), key=days.__getitem__)
        days, closes = [days[k] for k in order], closes[order]
    try:
        return PriceSeries(dates=tuple(days), closes=closes, reordered=reordered)
    except (PreconditionViolated, NonPositivePrice):
        # A duplicate date, or a close out of range.
        return _parse_rows(text)


def _parse_rows(text: str) -> PriceSeries:
    """``parse_prices`` one row at a time, raising the error of the first bad row."""
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    try:
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    except csv.Error as exc:
        # A carriage return inside a line, or a field past csv.field_size_limit.
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
        if close < sys.float_info.min:
            raise NonPositivePrice(f"price {close:g} is below the normal float range", row=lineno, column=2)
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


def load_prices(path) -> PriceSeries:
    """Load a price CSV file; ``parse_prices(decode_utf8(data))`` reads other sources."""
    with open(os.fspath(path), "rb") as handle:
        return parse_prices(decode_utf8(handle.read()))


def _month_spans(dates) -> list[tuple[str, int, int]]:
    """``(label, start, stop)`` of each calendar month of sorted ``dates``.

    Rows ``start`` to ``stop - 1`` fall in the month ``label``, written
    ``YYYY-MM``.  Raises LengthMismatch if ``dates`` is empty.
    """
    if not dates:
        raise LengthMismatch("price series is empty")
    spans = []
    start = 0
    while start < len(dates):
        year, month = dates[start].year, dates[start].month
        if (year, month) == (date.max.year, date.max.month):
            # No date starts the month after December 9999.
            stop = len(dates)
        else:
            stop = bisect_left(dates, date(year + month // 12, month % 12 + 1, 1), start)
        spans.append((f"{year:04d}-{month:02d}", start, stop))
        start = stop
    return spans


def segment_monthly(series: PriceSeries):
    """Split a series into calendar-month windows.

    Returns ``(windows, skipped)`` where skipped lists ``(label,
    reason)`` for months with a single trading day, on which every
    strategy is forced (a plan needs ``n >= 2``, see MarketParams).
    """
    windows: list[PlanWindow] = []
    skipped: list[tuple[str, str]] = []
    for label, start, stop in _month_spans(series.dates):
        if stop - start >= 2:
            # PriceSeries.closes is read-only, so the window shares it.
            windows.append(PlanWindow(label, series.dates[start:stop], series.closes[start:stop]))
        else:
            skipped.append((label, f"only {stop - start} trading day(s)"))
    return windows, skipped


def _outside(factors: np.ndarray, alpha: float, beta: float, slack: float) -> np.ndarray:
    """Mask of the rate factors outside ``[1/beta, alpha]`` widened by the relative ``slack``."""
    return (factors < 1.0 / beta * (1.0 - slack)) | (factors > alpha * (1.0 + slack))


def find_violations(rates, alpha: float, beta: float, slack: float = VIOLATION_SLACK):
    """Daily steps whose rate factor leaves ``[1/beta, alpha]``.

    The comparison is widened by the relative ``slack``; the reported
    interval is the unwidened one.
    """
    e = np.asarray(rates, dtype=float).ravel()
    lo, hi = 1.0 / beta, alpha
    factors = e[1:] / e[:-1]
    flagged = _outside(factors, alpha, beta, slack)
    days = (np.flatnonzero(flagged) + 1).tolist()
    return tuple(
        Violation(day=day, factor=factor, lo=lo, hi=hi) for day, factor in zip(days, factors[flagged].tolist())
    )


def compare_report(
    series: PriceSeries, alpha: float, beta: float, slack: float = VIOLATION_SLACK
) -> BacktestReport:
    """Run the balanced strategy (BAL) and dollar averaging (DA) on every month.

    Raises ValueError unless ``alpha`` and ``beta`` are finite numbers
    > 1.  Months too short for a plan are listed as skipped; the output
    ordering is fixed by window date, so identical inputs yield
    identical reports.  Shares are the weighted sum of the rates, the
    currency value converts them at the month's last close, and the
    realized ratio compares the best single-day rate with the shares.

    The rates, factors and violations come from one scan of the whole
    series, and each month's shares from one dot product of its weights
    with its rates, so every number equals what ``segment_monthly`` and
    ``find_violations`` give month by month.
    """
    check_bounds(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    spans = _month_spans(series.dates)
    # Elementwise, the whole-series rates and factors are the bits each
    # month's slice would give.
    rates = 1.0 / series.closes
    # A step past the float range is inf, which the mask flags like any other.
    with np.errstate(over="ignore"):
        factors = rates[1:] / rates[:-1]
    flagged = _outside(factors, alpha, beta, slack)
    # Step j goes from row j to row j + 1.
    bad_steps = np.flatnonzero(flagged).tolist()
    bad_factors = factors[flagged].tolist()
    starts = [start for _, start, _ in spans]
    best_rates = np.maximum.reduceat(rates, starts).tolist()
    last_closes = series.closes[[stop - 1 for _, _, stop in spans]].tolist()
    lo, hi = 1.0 / beta, alpha
    plans = {}
    reports, skipped = [], []
    for (label, start, stop), best, last in zip(spans, best_rates, last_closes):
        n = stop - start
        if n < 2:
            skipped.append((label, f"only {n} trading day(s)"))
            continue
        if n not in plans:
            plans[n] = (("BAL", bal_weights(MarketParams(alpha, beta, n))), ("DA", da_weights(n)))
        # The steps inside the month are those from rows start to stop - 1.
        first, end = bisect_left(bad_steps, start), bisect_left(bad_steps, stop - 1)
        violations = tuple(
            Violation(day=bad_steps[k] + 1 - start, factor=bad_factors[k], lo=lo, hi=hi) for k in range(first, end)
        )
        window_rates = rates[start:stop]
        results = []
        for name, weights in plans[n]:
            shares = float(weights @ window_rates)
            results.append((name, PlanResult(shares, shares * last, best / shares, violations)))
        reports.append(WindowReport(label=label, n=n, results=tuple(results)))
    return BacktestReport(alpha=alpha, beta=beta, windows=tuple(reports), skipped=tuple(skipped))


def window_end(start: date, months: int) -> date:
    """The last day of the ``months`` calendar months that begin with ``start``'s.

    Raises ValueError unless ``months >= 1``, the window ends by
    ``date.max``, in December 9999, and it holds a weekday from
    ``start`` on.
    """
    if months < 1:
        raise ValueError("months must be >= 1")
    # Calendar months counted from January of year 0.
    last = start.year * 12 + start.month - 1 + months - 1
    if last > date.max.year * 12 + date.max.month - 1:
        raise ValueError(f"{months} months from {start.isoformat()} run past {date.max:%Y-%m}")
    year, month = divmod(last, 12)
    # The day before the next month's first; the month after 9999-12 has no date.
    end = date(year, 12, 31) if month == 11 else date(year, month + 2, 1) - timedelta(days=1)
    # From a Saturday or Sunday, the next Monday is 7 - weekday days ahead.
    if start.weekday() >= 5 and (end - start).days < 7 - start.weekday():
        raise ValueError(f"no weekday from {start.isoformat()} to {end.isoformat()}")
    return end


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
    ``alpha`` and ``beta`` are finite numbers > 1, ``initial_price`` is
    a finite number > 0, ``seed`` is >= 0 and ``window_end`` accepts
    the window, and PreconditionViolated if a price overflows or falls
    below the normal float range.
    """
    check_bounds(alpha, beta)
    end = window_end(start, months)
    if not (math.isfinite(initial_price) and initial_price > 0.0):
        raise ValueError(f"initial_price must be a finite number > 0, got {initial_price}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    days = range((end - start).days + 1)
    dates = [day for day in (start + timedelta(days=k) for k in days) if day.weekday() < 5]
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 / beta, alpha, size=len(dates) - 1)
    closes = np.empty(len(dates))
    closes[0] = initial_price
    # An overflow is reported below as PreconditionViolated, not as a warning.
    with np.errstate(over="ignore"):
        for i, factor in enumerate(factors):
            closes[i + 1] = closes[i] / factor
    # A subnormal price has lost the digits that keep its steps within the bounds.
    if not (closes.min() >= sys.float_info.min and closes.max() < math.inf):
        raise PreconditionViolated(f"a synthetic price leaves the normal float range within {len(dates)} days")
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
    """Line chart of realized ratios per window: BAL solid, DA dashed.

    Raises PreconditionViolated if the report has no window to plot.
    """
    if not report.windows:
        raise PreconditionViolated("no month has the two trading days a plan needs, so nothing to plot")
    bal, da = zip(*[[r.realized_ratio for _, r in window.results] for window in report.windows])
    labels = [window.label for window in report.windows]
    series = [("BAL", bal, False), ("DA", da, True)]
    return line_chart(labels, series, title="Realized competitive ratios", y_label="ratio")
