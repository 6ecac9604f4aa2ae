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

The work is done in bulk: ``parse_prices`` converts and checks plain
text by whole columns, and ``compare_report`` computes the rates, the
daily rate factors and the violation mask once over the whole series,
then the shares of all months of one length with one batched dot
product.
"""

import csv
import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import DuplicateDate, LengthMismatch, NonPositivePrice, ParseError, PreconditionViolated
from .formatting import csv_records, json_block, json_float, json_value, parse_decimal, read_text, render
from .market import bal_weights, da_weights
from .params import MarketParams, check_bounds, check_integer, check_number, check_type
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
    ``closes`` is kept as a read-only float copy, so the caller's array
    stays writeable and a later edit of it does not reach the series.
    """

    dates: tuple[date, ...]
    closes: np.ndarray
    reordered: bool = False

    def __post_init__(self):
        dates, closes = self.dates, np.array(self.closes, dtype=float)
        if closes.shape != (len(dates),):
            raise LengthMismatch(f"{len(dates)} dates vs closes of shape {closes.shape}")
        if not all(map(operator.lt, dates, islice(dates, 1, None))):
            raise PreconditionViolated("dates must strictly increase")
        if closes.size and not (closes.min() >= sys.float_info.min and closes.max() < math.inf):
            raise NonPositivePrice("every close must be a finite number > 0 in the normal float range")
        closes.flags.writeable = False
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return len(self.dates)


class Violation(NamedTuple):
    """A daily rate factor outside the allowed interval.

    ``day`` is the 0-based index (within the window) of the later day of
    the offending step; the interval is ``[1/beta, alpha]`` on the rate
    factor ``e_i / e_{i-1}``.
    """

    day: int
    factor: float
    lo: float
    hi: float


class PlanResult(NamedTuple):
    """Outcome of one strategy on one window; both strategies share ``violations``."""

    shares: float
    currency_value: float
    realized_ratio: float
    violations: tuple[Violation, ...]


class WindowReport(NamedTuple):
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
    non-positive prices are rejected.  Raises TypeError unless ``text``
    is a ``str``: ``load_prices`` reads a file, and
    ``formatting.decode_utf8`` decodes bytes.

    Plain text (see ``_plain_cells``) is split into its cells with one
    ``str.split``, and its columns are converted and checked in bulk.
    Any other text, and plain text that fails a check, is read row by
    row by ``_parse_rows``, which raises the error of the first bad row.
    """
    if not isinstance(text, str):
        hint = ""
        if isinstance(text, (bytes, bytearray)):
            hint = "; load_prices reads a file and formatting.decode_utf8 decodes bytes"
        raise TypeError(f"parse_prices takes the CSV text as str, got {type(text).__name__}{hint}")
    text = text.lstrip("\ufeff")
    cells = _plain_cells(text)
    if cells is not None:
        joined = "".join(cells[3::2])
        try:
            # parse_decimal's guard, applied to every close at once.
            if joined.isascii() and "_" not in joined:
                days = list(map(date.fromisoformat, map(str.strip, cells[2::2])))
                return _sorted_series(days, np.fromiter(map(float, cells[3::2]), float, len(days)))
        except (ValueError, PreconditionViolated, NonPositivePrice):
            pass  # A bad field, a duplicate date or a close out of range: find its row.
    return _parse_rows(text)


def _plain_cells(text: str) -> list[str] | None:
    """The cells of plain ``text`` in reading order, or None if it is not plain.

    Plain text has no ``"``, no carriage return except right before a
    newline, exactly one comma on every line, no blank line except at
    the end, no line of more than ``csv.field_size_limit()`` UTF-8 bytes,
    the header ``date,close`` and at least one data row.  ``csv.reader``
    reads such text as these cells, two to a record: it ends a record at
    a carriage return and newline as at a newline alone, and the blank
    lines at the end are blank records, which the row reader skips too.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        # A carriage return left now is a lone one, which csv.reader reads otherwise.
        if "\r" in text:
            return None
    text = text.rstrip("\n")
    # In UTF-8 the bytes of "," and "\n" stand only for those characters,
    # and surrogatepass encodes a lone surrogate instead of raising.
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    separators = np.flatnonzero((codes == 44) | (codes == 10))
    kinds = codes[separators]
    # The separators alternate, a comma first: one comma on every line.
    if not (kinds[::2] == 44).all() or not (kinds[1::2] == 10).all():
        return None
    # A line's bytes bound its characters, and so each field's.
    ends = np.concatenate(([-1], separators[1::2], [len(codes)]))
    if np.diff(ends).max() - 1 > csv.field_size_limit():
        return None
    cells = text.replace("\n", ",").split(",")
    # An odd count means a last line without its comma, such as one of spaces.
    if len(cells) % 2 or len(cells) < 4 or cells[0].strip() != "date" or cells[1].strip() != "close":
        return None
    return cells


def _sorted_series(days: list[date], closes: np.ndarray) -> PriceSeries:
    """The PriceSeries of ``days`` and ``closes``, sorted and flagged if out of order."""
    try:
        return PriceSeries(dates=tuple(days), closes=closes)
    except PreconditionViolated:
        pass  # Dates out of order, or repeated: PriceSeries checks again once sorted.
    order = sorted(range(len(days)), key=days.__getitem__)
    return PriceSeries(dates=tuple([days[k] for k in order]), closes=closes[order], reordered=True)


def _parse_rows(text: str) -> PriceSeries:
    """The PriceSeries of ``text``, checked one row at a time; an error names the first bad row.

    Unreadable CSV is refused before any row is checked.
    """
    # Blank records are kept, so record k is row k + 1.
    records = list(csv_records(text))
    header_line = next((k + 1 for k, record in enumerate(records) if record), None)
    if header_line is None:
        raise ParseError("empty input", row=1)
    if [cell.strip() for cell in records[header_line - 1]] != ["date", "close"]:
        raise ParseError("header must be exactly 'date,close'", row=header_line)
    days, closes, seen = [], [], set()
    for lineno, row in enumerate(islice(records, header_line, None), start=header_line + 1):
        if not row:
            continue
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
        days.append(day)
        closes.append(close)
    if not days:
        raise ParseError("no data rows", row=header_line)
    return _sorted_series(days, np.array(closes))


def load_prices(path) -> PriceSeries:
    """Load a price CSV file; ``parse_prices(decode_utf8(data))`` reads other sources."""
    return parse_prices(read_text(path))


def _month_spans(dates) -> tuple[list[tuple[str, int, int]], list[tuple[str, str]]]:
    """The calendar months of sorted ``dates``: ``(spans, skipped)``.

    ``spans`` holds ``(label, start, stop)`` for each month with a plan:
    rows ``start`` to ``stop - 1`` fall in the month ``label``, written
    ``YYYY-MM``.  ``skipped`` holds ``(label, reason)`` for each month
    with a single trading day, on which every strategy is forced (a plan
    needs ``n >= 2``, see MarketParams).  Both are in date order.
    Raises LengthMismatch if ``dates`` is empty.
    """
    if not dates:
        raise LengthMismatch("price series is empty")
    spans, skipped = [], []
    start = 0
    while start < len(dates):
        year, month = dates[start].year, dates[start].month
        if (year, month) == (date.max.year, date.max.month):
            # No date starts the month after December 9999.
            stop = len(dates)
        else:
            stop = bisect_left(dates, date(year + month // 12, month % 12 + 1, 1), start)
        label = f"{year:04d}-{month:02d}"
        if stop - start >= 2:
            spans.append((label, start, stop))
        else:
            skipped.append((label, f"only {stop - start} trading day(s)"))
        start = stop
    return spans, skipped


def segment_monthly(series: PriceSeries):
    """Split a series into calendar-month windows.

    Returns ``(windows, skipped)``: each window is the PriceSeries of
    one month with a plan, in date order, and skipped lists ``(label,
    reason)`` for months with a single trading day, on which every
    strategy is forced (a plan needs ``n >= 2``, see MarketParams).
    Raises TypeError unless ``series`` is a PriceSeries, and
    LengthMismatch if it is empty.
    """
    check_type(series, PriceSeries, "segment_monthly")
    spans, skipped = _month_spans(series.dates)
    windows = [PriceSeries(series.dates[start:stop], series.closes[start:stop]) for _, start, stop in spans]
    return windows, skipped


def compare_report(
    series: PriceSeries, alpha: float, beta: float, slack: float = VIOLATION_SLACK
) -> BacktestReport:
    """Run the balanced strategy (BAL) and dollar averaging (DA) on every month.

    Raises TypeError unless ``series`` is a PriceSeries, and ValueError
    unless ``alpha`` and ``beta`` are finite numbers > 1 and ``slack`` is
    a finite number >= 0.  Months too short for a
    plan are listed as skipped; the output ordering is fixed by window
    date, so identical inputs yield identical reports.  Shares are the weighted sum of the rates, the
    currency value converts them at the month's last close, and the
    realized ratio compares the best single-day rate with the shares.
    A violation is a step whose rate factor leaves ``[1/beta, alpha]``
    widened by the relative ``slack``; it reports the unwidened interval.

    The rates, factors and violations come from one scan of the whole
    series.  The months are then taken one length at a time: their rates
    are gathered into one array, and each month's shares are the same
    dot product of its weights with its rates that ``weights @ rates``
    computes, so every number equals what a month-by-month loop over
    ``segment_monthly``'s windows gives.
    """
    check_type(series, PriceSeries, "compare_report")
    check_bounds(alpha, beta)
    check_number(slack, "slack", ">=", 0)
    alpha, beta = float(alpha), float(beta)
    spans, skipped = _month_spans(series.dates)
    starts = np.array([start for _, start, _ in spans], dtype=np.intp)
    stops = np.array([stop for _, _, stop in spans], dtype=np.intp)
    lengths = stops - starts
    # Elementwise, the whole-series rates and factors are the bits each
    # month's slice would give.
    rates = 1.0 / series.closes
    # A step past the float range is inf, which the mask flags like any other.
    with np.errstate(over="ignore"):
        factors = rates[1:] / rates[:-1]
    lo, hi = 1.0 / beta, alpha
    flagged = (factors < lo * (1.0 - slack)) | (factors > hi * (1.0 + slack))

    shares = np.empty((2, len(spans)))  # BAL, then DA
    best = np.empty(len(spans))
    # A set, not np.unique, which imports numpy.ma on its first call: about
    # 15 ms of every backtest process.  The order of the lengths is free.
    for n in set(lengths.tolist()):
        pick = np.flatnonzero(lengths == n)
        # A C-contiguous copy: matmul takes each 1 x n by n x 1 product to
        # the dot routine (cblas_ddot) that weights @ rates calls, so the
        # shares keep its bits.  A matrix-vector product would not.
        rows = rates[starts[pick, None] + np.arange(n)]
        best[pick] = rows.max(axis=1)
        for k, weights in enumerate((bal_weights(MarketParams(alpha, beta, n)), da_weights(n))):
            shares[k, pick] = np.matmul(rows[:, None, :], weights[:, None])[:, 0, 0]
    # Elementwise, the bits of each month's float product and quotient; a
    # value past the float range is inf, as the float product gives.
    with np.errstate(over="ignore"):
        values = shares * series.closes[stops - 1]
    ratios = best / shares

    # Step j goes from row j to row j + 1, and belongs to the month that
    # holds both rows.  A step that leaves its month, or starts before the
    # first one, is dropped; the stop 0 after the last month refuses owner -1.
    steps = np.flatnonzero(flagged)
    owner = np.searchsorted(starts, steps, side="right") - 1
    inside = steps + 1 < np.append(stops, 0)[owner]
    steps, owner = steps[inside], owner[inside]
    days = (steps + 1 - starts[owner]).tolist()
    found = list(map(Violation, days, factors[steps].tolist(), repeat(lo), repeat(hi)))
    ends = np.cumsum(np.bincount(owner, minlength=len(spans))).tolist()
    # Both strategies of a month share its one tuple.
    violations = [tuple(found[first:end]) for first, end in zip([0, *ends], ends)]

    # Row 0 of shares, values and ratios is BAL's, row 1 DA's.
    columns = zip(shares.tolist(), values.tolist(), ratios.tolist())
    bal, da = (map(PlanResult, *strategy, violations) for strategy in columns)
    windows = tuple(
        [
            WindowReport(label, n, (("BAL", b), ("DA", d)))
            for (label, _, _), n, b, d in zip(spans, lengths.tolist(), bal, da)
        ]
    )
    return BacktestReport(alpha=alpha, beta=beta, windows=windows, skipped=tuple(skipped))


def _check_day(start, name: str) -> None:
    """Raise TypeError, naming the type, unless ``start`` is a date and not a datetime."""
    # A datetime is a date, but date arithmetic refuses to mix the two.
    if isinstance(start, datetime) or not isinstance(start, date):
        raise TypeError(f"{name} takes a date, got {type(start).__name__}")


def window_end(start: date, months: int) -> date:
    """The last day of the ``months`` calendar months that begin with ``start``'s.

    Raises TypeError unless ``start`` is a date and not a datetime, and
    ValueError unless ``months`` is an integer (to ``operator.index``)
    >= 1, the window ends by ``date.max``, in December 9999, and it
    holds a weekday from ``start`` on.
    """
    _check_day(start, "window_end")
    check_integer(months, "months", 1)
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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _uniform_draws(seed, low: float, high: float, size: int) -> list[float]:
    """``numpy.random.default_rng(seed).uniform(low, high, size)``, bit for bit.

    The stream is numpy 2's: ``SeedSequence(seed)`` hashes the seed's
    little-endian 32-bit words into four 64-bit words, which seed a
    PCG64 (XSL-RR 128/64) generator, and each draw is ``low + (high -
    low) * d`` with ``d`` the top 53 bits of one output over ``2**53``.
    Written out here so that ``synth`` does not import ``numpy.random``.
    """
    seed = operator.index(seed)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    # The entropy pool: the first four words, zero-padded, mixed together,
    # then every further word mixed into each of the four.
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired low word first.
    hash_const = 0x8B51F9DD
    state_words = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state_words.append(value ^ value >> 16)
    w0, w1, w2, w3 = (state_words[k] | state_words[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64's srandom(initstate = w0:w1, initseq = w2:w3), then one step per draw.
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * mult + inc) & _MASK128
    low = float(low)
    span = float(high) - low
    draws = []
    for _ in range(size):
        state = (state * mult + inc) & _MASK128
        xored = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (xored >> rot | xored << (64 - rot)) & _MASK64
        draws.append(low + span * ((out >> 11) * 2.0**-53))
    return draws


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
    price moves by the reciprocal factor.  The draws are those of
    ``numpy.random.default_rng(seed).uniform`` in numpy 2.  Raises TypeError unless
    ``start`` is a date and not a datetime, ValueError unless ``alpha``
    and ``beta`` are finite numbers > 1, ``initial_price`` is a finite
    number > 0, ``seed`` is an integer (to ``operator.index``) >= 0 and
    ``window_end`` accepts the window, and PreconditionViolated if a
    price overflows or falls below the normal float range.
    """
    check_bounds(alpha, beta)
    _check_day(start, "synthetic_prices")
    end = window_end(start, months)
    check_number(initial_price, "initial_price", ">", 0)
    check_integer(seed, "seed", 0)
    days = range((end - start).days + 1)
    dates = [day for day in (start + timedelta(days=k) for k in days) if day.weekday() < 5]
    factors = np.array(_uniform_draws(seed, 1.0 / beta, alpha, len(dates) - 1), dtype=float)
    # Each close is the previous one divided by that day's factor.  An
    # overflow is reported below as PreconditionViolated, not as a warning.
    with np.errstate(over="ignore"):
        closes = np.divide.accumulate(np.concatenate(([initial_price], factors)))
    # A subnormal price has lost the digits that keep its steps within the bounds.
    if not (closes.min() >= sys.float_info.min and closes.max() < math.inf):
        raise PreconditionViolated(f"a synthetic price leaves the normal float range within {len(dates)} days")
    return PriceSeries(dates=tuple(dates), closes=closes)


def series_csv(series: PriceSeries) -> str:
    """Render a PriceSeries in the input CSV format."""
    rows = [(day.isoformat(), close) for day, close in zip(series.dates, series.closes)]
    return render([("date", "close"), *rows], "csv")


def _violation_json(v: Violation) -> str:
    return (
        f'{{\n              "day": {int.__repr__(v.day)},\n'
        f'              "factor": {json_float(v.factor)},\n'
        f'              "min": {json_float(v.lo)},\n'
        f'              "max": {json_float(v.hi)}\n            }}'
    )


def _strategy_json(name: str, r: PlanResult, violations: str) -> str:
    return (
        f'{{\n          "name": {encode_basestring_ascii(name)},\n'
        f'          "shares": {json_float(r.shares)},\n'
        f'          "currency_value": {json_float(r.currency_value)},\n'
        f'          "realized_ratio": {json_float(r.realized_ratio)},\n'
        f'          "violations": {violations}\n        }}'
    )


def _window_json(window: WindowReport) -> str:
    strategies, shared, violations = [], None, ""
    for name, r in window.results:
        # compare_report gives both strategies of a month one violations tuple.
        if r.violations is not shared:
            shared = r.violations
            violations = json_block(list(map(_violation_json, shared)), "          ")
        strategies.append(_strategy_json(name, r, violations))
    strategies = json_block(strategies, "      ")
    return (
        f'{{\n      "label": {encode_basestring_ascii(window.label)},\n'
        f'      "n": {int.__repr__(window.n)},\n'
        f'      "strategies": {strategies}\n    }}'
    )


def report_json(report: BacktestReport) -> str:
    """Render a report as JSON with 12-significant-digit numbers.

    The layout is ``json.dumps(indent=2)``'s, with a newline at the end:
    the bytes ``formatting.to_json`` writes for the report's payload of
    params, windows with their strategies and violations, and skipped
    months.  The params and the skipped months go through
    ``formatting.json_value``, and every container is laid out by
    ``formatting.json_block``.  Each window, strategy and violation
    record is written from one fixed template at its depth, and a
    violations tuple that a month's strategies share is written once.
    In those records floats are spelled by ``formatting.json_float``,
    strings by ``encode_basestring_ascii`` and ints by ``int.__repr__``.
    Raises TypeError unless ``report`` is a BacktestReport.
    """
    check_type(report, BacktestReport, "report_json")
    params = json_value({"alpha": report.alpha, "beta": report.beta}, "  ")
    windows = json_block(list(map(_window_json, report.windows)), "  ")
    skipped = json_value([{"window": label, "reason": reason} for label, reason in report.skipped], "  ")
    return json_block([f'"params": {params}', f'"windows": {windows}', f'"skipped": {skipped}'], "", "{}") + "\n"


def report_rows(report: BacktestReport) -> list[tuple]:
    """A header and one row per (window, strategy): the CSV and text table."""
    header = ("window", "n", "strategy", "shares", "currency_value", "realized_ratio", "violations")
    return [header] + [
        (window.label, window.n, name, r.shares, r.currency_value, r.realized_ratio, len(r.violations))
        for window in report.windows
        for name, r in window.results
    ]


def report_csv(report: BacktestReport) -> str:
    """Flatten a report to one CSV row per (window, strategy).

    Raises TypeError unless ``report`` is a BacktestReport.
    """
    check_type(report, BacktestReport, "report_csv")
    return render(report_rows(report), "csv")


def report_svg(report: BacktestReport) -> str:
    """Line chart of realized ratios per window: BAL solid, DA dashed.

    Raises TypeError unless ``report`` is a BacktestReport, and
    PreconditionViolated if it has no window to plot.
    """
    check_type(report, BacktestReport, "report_svg")
    if not report.windows:
        raise PreconditionViolated("no month has the two trading days a plan needs, so nothing to plot")
    bal, da = zip(*[[r.realized_ratio for _, r in window.results] for window in report.windows])
    labels = [window.label for window in report.windows]
    series = [("BAL", bal, False), ("DA", da, True)]
    return line_chart(labels, series, title="Realized competitive ratios", y_label="ratio")
