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
    check_bounds,
    check_number,
    downturn_rows,
    preset_bounds,
)
from .svgchart import line_chart

# numpy, games and backtest are imported inside the subcommands that use
# them, so that weights, sweep and downturns start without numpy.

#: Largest horizon for ``weights --days`` and ``sweep --to``, whose work is linear in it.
MAX_DAYS = 10000
#: Largest ``downturns --days``: the output holds n² rates.
MAX_DOWNTURN_DAYS = 1000
#: Largest ``synth --months`` (100 years); every calendar day is visited.
MAX_MONTHS = 1200


def integer(text: str) -> int:
    """Argument type for a whole-number flag: ``int``'s grammar in ASCII, without ``_``.

    argparse reports a ValueError as ``invalid integer value``.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def decimal(text: str) -> float:
    """Argument type for a number flag: ``formatting.parse_decimal``'s grammar."""
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def bounded_decimal(name: str, relation: str, bound):
    """Argument type for a number flag ``name``: ``decimal``, then ``params.check_number``."""

    def parse(text: str) -> float:
        value = decimal(text)
        try:
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
    bounds.add_argument("--alpha", type=decimal, help="maximum daily up-factor of the rate (> 1)")
    bounds.add_argument("--beta", type=decimal, help="reciprocal of the maximum daily down-factor (> 1)")
    bounds.add_argument(
        "--preset",
        choices=sorted(CIRCUIT_BREAKERS),
        help="named circuit-breaker limits (instead of --alpha/--beta)",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    def add_format(p, choices):
        p.add_argument("--format", choices=choices, default="text", help="output format")

    p = sub.add_parser("weights", parents=[bounds, output], help="balanced strategy weights and ratio")
    p.add_argument("--days", type=integer, required=True, help=f"horizon length in days (2 to {MAX_DAYS})")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("solve", parents=[output], help="solve a payoff matrix given as CSV")
    p.add_argument("matrix", help="CSV file, row-major, no header, all entries > 0")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[bounds, output], help="ratio curves over a horizon range")
    p.add_argument("--from", dest="n_from", type=integer, required=True, metavar="N", help="first horizon")
    p.add_argument("--to", dest="n_to", type=integer, required=True, metavar="N", help=f"last horizon (<= {MAX_DAYS})")
    add_format(p, ["text", "json", "csv", "svg"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("downturns", parents=[bounds, output], help="worst-case rate sequences")
    p.add_argument("--days", type=integer, required=True, help=f"horizon length in days (2 to {MAX_DOWNTURN_DAYS})")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_downturns)

    p = sub.add_parser("backtest", parents=[bounds, output], help="monthly plans on a price CSV")
    p.add_argument("prices", help="CSV file with header 'date,close'")
    add_format(p, ["text", "json", "csv", "svg"])
    p.add_argument(
        "--tolerance",
        type=bounded_decimal("tolerance", ">=", 0),
        help="relative slack before a daily move counts as a violation",
    )
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", parents=[bounds, output], help="seeded synthetic admissible price CSV")
    p.add_argument("--months", type=integer, default=12, help=f"number of calendar months (1 to {MAX_MONTHS})")
    p.add_argument("--seed", type=integer, default=0, help="RNG seed (>= 0)")
    p.add_argument("--start", type=date.fromisoformat, default=date(1997, 1, 1), help="first day (ISO)")
    p.add_argument("--price", type=bounded_decimal("price", ">", 0), default=100.0, help="initial price (> 0)")
    p.set_defaults(func=cmd_synth)

    return parser


def resolve_bounds(args, parser) -> tuple[float, float]:
    has_ab = args.alpha is not None or args.beta is not None
    if args.preset is not None:
        if has_ab:
            parser.error("give either --preset or --alpha/--beta, not both")
        return preset_bounds(args.preset)
    if args.alpha is None or args.beta is None:
        parser.error("either --preset or both --alpha and --beta are required")
    try:
        check_bounds(args.alpha, args.beta)
    except ValueError as exc:
        parser.error(str(exc))
    return args.alpha, args.beta


def resolve_params(args, parser, max_days) -> MarketParams:
    alpha, beta = resolve_bounds(args, parser)
    if not 2 <= args.days <= max_days:
        parser.error(f"--days must be between 2 and {max_days}")
    return MarketParams(alpha=alpha, beta=beta, n=args.days)


def cmd_weights(args, parser) -> str:
    params = resolve_params(args, parser, MAX_DAYS)
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


def read_matrix_csv(text: str) -> "np.ndarray":
    """Rows of ``formatting.parse_decimal`` cells as a matrix; solve_game checks the entries."""
    rows = []
    # One record at a time: a bad row is named before csv reads the lines after it.
    for lineno, row in enumerate(csv_records(text), start=1):
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
    import numpy as np

    return np.array(rows)


def cmd_solve(args, parser) -> str:
    import numpy as np

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
    # One row per field; a strategy spreads over the rest of its row.
    rows = [(key, *value) if np.ndim(value) else (key, value) for key, value in fields.items()]
    return render(rows, args.format, (10,))


def cmd_sweep(args, parser) -> str:
    alpha, beta = resolve_bounds(args, parser)
    if args.n_from < 2 or args.n_to < args.n_from:
        parser.error("need 2 <= --from <= --to")
    if args.n_to > MAX_DAYS:
        parser.error(f"--to is capped at {MAX_DAYS}")
    ns = range(args.n_from, args.n_to + 1)
    # resolve_bounds checked the bounds, so no MarketParams is built per horizon.
    rows = [(n, _bal_ratio(alpha, beta, n), _da_ratio(alpha, beta, n)) for n in ns]
    if args.format == "json":
        table = [{"n": n, "bal": rb, "da": rd} for n, rb, rd in rows]
        return to_json({"alpha": alpha, "beta": beta, "rows": table})
    if args.format == "svg":
        _, bal, da = zip(*rows)
        series = [("BAL", bal, False), ("DA", da, True)]
        return line_chart(ns, series, title="Competitive ratios vs horizon", y_label="ratio")
    return render([("n", "bal_ratio", "da_ratio"), *rows], args.format, (5, 15))


def cmd_downturns(args, parser) -> str:
    params = resolve_params(args, parser, MAX_DOWNTURN_DAYS)
    rows = downturn_rows(params)
    if args.format == "json":
        return to_json({"downturns": rows})
    # text and csv coincide: one rate sequence per row.
    return render(rows, "csv")


def cmd_backtest(args, parser) -> str:
    from .backtest import (
        VIOLATION_SLACK,
        compare_report,
        load_prices,
        report_csv,
        report_json,
        report_rows,
        report_svg,
    )

    alpha, beta = resolve_bounds(args, parser)
    series = load_prices(args.prices)
    slack = VIOLATION_SLACK if args.tolerance is None else args.tolerance
    report = compare_report(series, alpha, beta, slack=slack)
    renderers = {"json": report_json, "csv": report_csv, "svg": report_svg}
    if args.format in renderers:
        return renderers[args.format](report)
    head = render([("alpha", report.alpha, " beta", report.beta)], "text")
    table = render(report_rows(report), "text", (8, 3, 9, 15, 15, 15))
    return head + table + "".join(f"skipped {label}: {reason}\n" for label, reason in report.skipped)


def cmd_synth(args, parser) -> str:
    from .backtest import series_csv, synthetic_prices, window_end

    alpha, beta = resolve_bounds(args, parser)
    if not 1 <= args.months <= MAX_MONTHS:
        parser.error(f"--months must be between 1 and {MAX_MONTHS}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        window_end(args.start, args.months)
    except ValueError as exc:
        parser.error(str(exc))
    series = synthetic_prices(
        alpha, beta, months=args.months, seed=args.seed, start=args.start, initial_price=args.price
    )
    return series_csv(series)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args, parser)
    except (BuyholdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
