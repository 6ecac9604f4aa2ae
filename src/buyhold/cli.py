"""Command-line front end.

Subcommands: weights, solve, sweep, downturns, backtest, synth.  Exit
codes: 0 on success (data diagnostics such as bound violations do not
fail a run), 1 on bad input data, 2 on usage errors.
"""

import argparse
import sys
from datetime import date

from .errors import BuyholdError, ParseError
from .formatting import csv_records, parse_decimal, read_text, render, to_json
from .params import (
    CIRCUIT_BREAKERS,
    MarketParams,
    _bal_ratio,
    _da_ratio,
    bal_ratio,
    bal_weight_parts,
    check_integer,
    check_number,
    downturn_rows,
    preset_bounds,
)
from .svgchart import line_chart

# games and backtest, and with them numpy, are imported inside the
# subcommands that use them, so that weights, sweep and downturns start
# without numpy.  Each flag's type checks its grammar and its range, so a
# subcommand checks only what involves two flags or the calendar, and
# reports it through its own parser, ``args.parser``.

#: Largest horizon for ``weights --days`` and ``sweep --from``/``--to``, whose work is linear in it.
MAX_DAYS = 10000
#: Largest ``downturns --days``: the output holds n² rates.
MAX_DOWNTURN_DAYS = 1000
#: Largest ``synth --months`` (100 years); every calendar day is visited.
MAX_MONTHS = 1200


def bounded_integer(name: str, least: int, most: int | None = None):
    """Argument type for a whole-number flag ``name``, from ``least`` to ``most`` (no cap if None).

    The grammar is ``int``'s in ASCII, without ``_``; the lower bound is
    ``params.check_integer``'s rule.
    """

    def parse(text: str) -> int:
        try:
            if not text.isascii() or "_" in text:
                raise ValueError(f"not a whole number: {text!r}")
            value = int(text)
            check_integer(value, name, least)
            if most is not None and value > most:
                raise ValueError(f"{name} must be an integer <= {most}, got {value!r}")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def bounded_decimal(name: str, relation: str, bound):
    """Argument type for a number flag ``name``: ``formatting.parse_decimal``, then ``params.check_number``."""

    def parse(text: str) -> float:
        try:
            value = parse_decimal(text)
            check_number(value, name, relation, bound)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buyhold",
        description="Optimal static buy-and-hold allocation under bounded daily returns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument(
        "--alpha", type=bounded_decimal("alpha", ">", 1), help="maximum daily up-factor of the rate (> 1)"
    )
    bounds.add_argument(
        "--beta", type=bounded_decimal("beta", ">", 1), help="reciprocal of the maximum daily down-factor (> 1)"
    )
    bounds.add_argument(
        "--preset",
        choices=sorted(CIRCUIT_BREAKERS),
        help="named circuit-breaker limits (instead of --alpha/--beta)",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    def add_format(p, choices):
        p.add_argument("--format", choices=choices, default="text", help="output format")

    def add_days(p, most):
        days = bounded_integer("days", 2, most)
        p.add_argument("--days", type=days, required=True, help=f"horizon length in days (2 to {most})")

    p = sub.add_parser("weights", parents=[bounds, output], help="balanced strategy weights and ratio")
    add_days(p, MAX_DAYS)
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_weights, parser=p)

    p = sub.add_parser("solve", parents=[output], help="solve a payoff matrix given as CSV")
    p.add_argument("matrix", help="CSV file, row-major, no header, all entries > 0")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_solve, parser=p)

    p = sub.add_parser("sweep", parents=[bounds, output], help="ratio curves over a horizon range")
    horizon = dict(type=bounded_integer("horizon", 2, MAX_DAYS), required=True, metavar="N")
    p.add_argument("--from", dest="n_from", help=f"first horizon (2 to {MAX_DAYS})", **horizon)
    p.add_argument("--to", dest="n_to", help=f"last horizon (--from to {MAX_DAYS})", **horizon)
    add_format(p, ["text", "json", "csv", "svg"])
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("downturns", parents=[bounds, output], help="worst-case rate sequences")
    add_days(p, MAX_DOWNTURN_DAYS)
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_downturns, parser=p)

    p = sub.add_parser("backtest", parents=[bounds, output], help="monthly plans on a price CSV")
    p.add_argument("prices", help="CSV file with header 'date,close'")
    add_format(p, ["text", "json", "csv", "svg"])
    p.add_argument(
        "--tolerance",
        type=bounded_decimal("tolerance", ">=", 0),
        help="relative slack before a daily move counts as a violation",
    )
    p.set_defaults(func=cmd_backtest, parser=p)

    p = sub.add_parser("synth", parents=[bounds, output], help="seeded synthetic admissible price CSV")
    months = bounded_integer("months", 1, MAX_MONTHS)
    p.add_argument("--months", type=months, default=12, help=f"number of calendar months (1 to {MAX_MONTHS})")
    p.add_argument("--seed", type=bounded_integer("seed", 0), default=0, help="RNG seed (>= 0)")
    p.add_argument("--start", type=date.fromisoformat, default=date(1997, 1, 1), help="first day (ISO)")
    p.add_argument("--price", type=bounded_decimal("price", ">", 0), default=100.0, help="initial price (> 0)")
    p.set_defaults(func=cmd_synth, parser=p)

    return parser


def resolve_bounds(args) -> tuple[float, float]:
    has_ab = args.alpha is not None or args.beta is not None
    if args.preset is not None:
        if has_ab:
            args.parser.error("give either --preset or --alpha/--beta, not both")
        return preset_bounds(args.preset)
    if args.alpha is None or args.beta is None:
        args.parser.error("either --preset or both --alpha and --beta are required")
    return args.alpha, args.beta


def cmd_weights(args) -> str:
    params = MarketParams(*resolve_bounds(args), args.days)
    first, interior, last = bal_weight_parts(params)
    b = [first, *[interior] * (params.n - 2), last]
    c = [last, *[interior] * (params.n - 2), first]
    r = bal_ratio(params)
    fields = dict(alpha=params.alpha, beta=params.beta, days=params.n, ratio=r, weights=b, adversary=c)
    if args.format == "json":
        return to_json(fields)
    table = [("day", "weight", "adversary"), *zip(range(1, params.n + 1), b, c)]
    if args.format == "csv":
        return render([*table, ("ratio", r, r)], "csv")
    preamble = [(key, value) for key, value in fields.items() if not isinstance(value, list)]
    return render(preamble, "text", (6,)) + render(table, "text", (4, 14))


def read_matrix_csv(text: str) -> list[list[float]]:
    """Rows of ``formatting.parse_decimal`` cells, all of one length; solve_game checks the entries.

    A leading byte-order mark is dropped, as ``parse_prices`` drops it.
    """
    rows = []
    # One record at a time: a bad row is named before csv reads the lines after it.
    for lineno, row in enumerate(csv_records(text.lstrip("\ufeff")), start=1):
        if not row:
            continue
        try:
            rows.append([parse_decimal(cell) for cell in row])
        except ValueError as exc:
            raise ParseError(f"bad matrix entry: {exc}", row=lineno) from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(f"row has {len(rows[-1])} entries, expected {len(rows[0])}", row=lineno)
    if not rows:
        raise ParseError("no matrix rows", row=1)
    return rows


def cmd_solve(args) -> str:
    from .games import solve_game

    solution, route = solve_game(read_matrix_csv(read_text(args.matrix)))
    fields = {
        "value": solution.value,
        "ratio": solution.ratio,
        "online": solution.online_strategy,
        "adversary": solution.adversary_strategy,
        "unique": solution.unique,
        "route": route,
    }
    if args.format == "json":
        return to_json(fields)
    # One row per field; a strategy, an array, spreads over the rest of its row.
    rows = [(key, *value) if hasattr(value, "tolist") else (key, value) for key, value in fields.items()]
    return render(rows, args.format, (10,))


def cmd_sweep(args) -> str:
    alpha, beta = resolve_bounds(args)
    if args.n_to < args.n_from:
        args.parser.error("need --from <= --to")
    ns = range(args.n_from, args.n_to + 1)
    # The flag types checked the bounds, so no MarketParams is built per horizon.
    rows = [(n, _bal_ratio(alpha, beta, n), _da_ratio(alpha, beta, n)) for n in ns]
    if args.format == "json":
        table = [{"n": n, "bal": rb, "da": rd} for n, rb, rd in rows]
        return to_json({"alpha": alpha, "beta": beta, "rows": table})
    if args.format == "svg":
        _, bal, da = zip(*rows)
        series = [("BAL", bal, False), ("DA", da, True)]
        return line_chart(ns, series, title="Competitive ratios vs horizon", y_label="ratio")
    return render([("n", "bal_ratio", "da_ratio"), *rows], args.format, (5, 15))


def cmd_downturns(args) -> str:
    rows = downturn_rows(MarketParams(*resolve_bounds(args), args.days))
    if args.format == "json":
        return to_json({"downturns": rows})
    # text and csv coincide: one rate sequence per row.
    return render(rows, "csv")


def cmd_backtest(args) -> str:
    from .backtest import (
        VIOLATION_SLACK,
        compare_report,
        load_prices,
        report_csv,
        report_json,
        report_rows,
        report_svg,
    )

    alpha, beta = resolve_bounds(args)
    series = load_prices(args.prices)
    slack = VIOLATION_SLACK if args.tolerance is None else args.tolerance
    report = compare_report(series, alpha, beta, slack=slack)
    renderers = {"json": report_json, "csv": report_csv, "svg": report_svg}
    if args.format in renderers:
        return renderers[args.format](report)
    head = render([("alpha", report.alpha, " beta", report.beta)], "text")
    table = render(report_rows(report), "text", (8, 3, 9, 15, 15, 15))
    return head + table + "".join(f"skipped {label}: {reason}\n" for label, reason in report.skipped)


def cmd_synth(args) -> str:
    from .backtest import series_csv, synthetic_prices, window_end

    alpha, beta = resolve_bounds(args)
    try:
        window_end(args.start, args.months)
    except ValueError as exc:
        args.parser.error(str(exc))
    series = synthetic_prices(
        alpha, beta, months=args.months, seed=args.seed, start=args.start, initial_price=args.price
    )
    return series_csv(series)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (BuyholdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
