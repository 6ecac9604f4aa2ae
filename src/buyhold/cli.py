"""Command-line front end.

Subcommands: weights, solve, sweep, downturns, backtest, synth.  Exit
codes: 0 on success (data diagnostics such as bound violations do not
fail a run), 1 on bad input data, 2 on usage errors.
"""

import argparse
import csv
import io
import math
import sys
from datetime import date

import numpy as np

from .backtest import (
    compare_report,
    load_prices,
    report_csv,
    report_json,
    report_svg,
    series_csv,
    synthetic_prices,
    VIOLATION_SLACK,
)
from .errors import BuyholdError, NonPositiveEntry, ParseError
from .formatting import fmt12, round12
from .games import FEASIBILITY_TOL, solve_game
from .market import (
    CIRCUIT_BREAKERS,
    MarketParams,
    bal_adversary,
    bal_ratio,
    bal_weights,
    da_ratio,
    downturns,
    preset_bounds,
)
from .svgchart import line_chart


def tolerance(text: str) -> float:
    """Argument type for ``--tolerance``: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buyhold",
        description="Optimal static buy-and-hold allocation under bounded daily returns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--alpha", type=float, help="maximum daily up-factor of the rate (> 1)")
    bounds.add_argument("--beta", type=float, help="reciprocal of the maximum daily down-factor (> 1)")
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
    p.add_argument("--days", type=int, required=True, help="horizon length in days (>= 2)")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("solve", parents=[output], help="solve a payoff matrix given as CSV")
    p.add_argument("matrix", help="CSV file, row-major, no header, all entries > 0")
    add_format(p, ["text", "json", "csv"])
    p.add_argument("--tolerance", type=tolerance, default=FEASIBILITY_TOL, help="LP feasibility tolerance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[bounds, output], help="ratio curves over a horizon range")
    p.add_argument("--from", dest="n_from", type=int, required=True, metavar="N", help="first horizon")
    p.add_argument("--to", dest="n_to", type=int, required=True, metavar="N", help="last horizon (inclusive)")
    add_format(p, ["text", "json", "csv", "svg"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("downturns", parents=[bounds, output], help="worst-case rate sequences")
    p.add_argument("--days", type=int, required=True, help="horizon length in days (>= 2)")
    add_format(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_downturns)

    p = sub.add_parser("backtest", parents=[bounds, output], help="monthly plans on a price CSV")
    p.add_argument("prices", help="CSV file with header 'date,close'")
    add_format(p, ["text", "json", "csv", "svg"])
    p.add_argument(
        "--tolerance",
        type=tolerance,
        default=VIOLATION_SLACK,
        help="relative slack before a daily move counts as a violation",
    )
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", parents=[bounds, output], help="seeded synthetic admissible price CSV")
    p.add_argument("--months", type=int, default=12, help="number of calendar months")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--start", type=date.fromisoformat, default=date(1997, 1, 1), help="first day (ISO)")
    p.add_argument("--price", type=float, default=100.0, help="initial price")
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
    if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
        parser.error("--alpha and --beta must be finite")
    if args.alpha <= 1.0 or args.beta <= 1.0:
        parser.error("--alpha and --beta must both exceed 1")
    return args.alpha, args.beta


def resolve_params(args, parser) -> MarketParams:
    alpha, beta = resolve_bounds(args, parser)
    if args.days < 2:
        parser.error("--days must be at least 2")
    return MarketParams(alpha=alpha, beta=beta, n=args.days)


def cmd_weights(args, parser) -> str:
    params = resolve_params(args, parser)
    b = bal_weights(params)
    c = bal_adversary(params)
    r = bal_ratio(params)
    if args.format == "json":
        import json

        return json.dumps(
            {
                "alpha": round12(params.alpha),
                "beta": round12(params.beta),
                "days": params.n,
                "ratio": round12(r),
                "weights": [round12(v) for v in b],
                "adversary": [round12(v) for v in c],
            },
            indent=2,
        ) + "\n"
    if args.format == "csv":
        lines = ["day,weight,adversary"]
        for i in range(params.n):
            lines.append(f"{i + 1},{fmt12(b[i])},{fmt12(c[i])}")
        lines.append(f"ratio,{fmt12(r)},{fmt12(r)}")
        return "\n".join(lines) + "\n"
    lines = [
        f"alpha  {fmt12(params.alpha)}",
        f"beta   {fmt12(params.beta)}",
        f"days   {params.n}",
        f"ratio  {fmt12(r)}",
        "day  weight         adversary",
    ]
    for i in range(params.n):
        lines.append(f"{i + 1:<4d} {fmt12(b[i]):<14s} {fmt12(c[i])}")
    return "\n".join(lines) + "\n"


def read_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row:
            continue
        try:
            rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ParseError(f"bad matrix entry: {exc}", row=lineno) from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(
                f"row has {len(rows[-1])} entries, expected {len(rows[0])}", row=lineno
            )
    if not rows:
        raise ParseError("no matrix rows", row=1)
    matrix = np.array(rows)
    if np.any(matrix <= 0.0) or not np.all(np.isfinite(matrix)):
        raise NonPositiveEntry("matrix entries must be finite and positive")
    return matrix


def cmd_solve(args, parser) -> str:
    with open(args.matrix, "r", encoding="utf-8") as handle:
        H = read_matrix_csv(handle.read())
    solution, route = solve_game(H, tol=args.tolerance)
    if args.format == "json":
        import json

        return json.dumps(
            {
                "value": round12(solution.value),
                "ratio": round12(solution.ratio),
                "online": [round12(v) for v in solution.online_strategy],
                "adversary": [round12(v) for v in solution.adversary_strategy],
                "unique": solution.unique,
                "route": route,
            },
            indent=2,
        ) + "\n"
    if args.format == "csv":
        lines = [
            f"value,{fmt12(solution.value)}",
            f"ratio,{fmt12(solution.ratio)}",
            "online," + ",".join(fmt12(v) for v in solution.online_strategy),
            "adversary," + ",".join(fmt12(v) for v in solution.adversary_strategy),
            f"unique,{str(solution.unique).lower()}",
            f"route,{route}",
        ]
        return "\n".join(lines) + "\n"
    return (
        f"value      {fmt12(solution.value)}\n"
        f"ratio      {fmt12(solution.ratio)}\n"
        f"online     {' '.join(fmt12(v) for v in solution.online_strategy)}\n"
        f"adversary  {' '.join(fmt12(v) for v in solution.adversary_strategy)}\n"
        f"unique     {str(solution.unique).lower()}\n"
        f"route      {route}\n"
    )


def cmd_sweep(args, parser) -> str:
    alpha, beta = resolve_bounds(args, parser)
    if args.n_from < 2 or args.n_to < args.n_from:
        parser.error("need 2 <= --from <= --to")
    if args.n_to > 10000:
        parser.error("--to is capped at 10000")
    ns = range(args.n_from, args.n_to + 1)
    rows = []
    for n in ns:
        params = MarketParams(alpha=alpha, beta=beta, n=n)
        rows.append((n, bal_ratio(params), da_ratio(params)))
    if args.format == "json":
        import json

        return json.dumps(
            {
                "alpha": round12(alpha),
                "beta": round12(beta),
                "rows": [
                    {"n": n, "bal": round12(rb), "da": round12(rd)} for n, rb, rd in rows
                ],
            },
            indent=2,
        ) + "\n"
    if args.format == "csv":
        lines = ["n,bal_ratio,da_ratio"]
        lines += [f"{n},{fmt12(rb)},{fmt12(rd)}" for n, rb, rd in rows]
        return "\n".join(lines) + "\n"
    if args.format == "svg":
        return line_chart(
            [n for n, _, _ in rows],
            [
                ("BAL", [rb for _, rb, _ in rows], False),
                ("DA", [rd for _, _, rd in rows], True),
            ],
            title="Competitive ratios vs horizon",
            y_label="ratio",
        )
    lines = ["n     bal_ratio       da_ratio"]
    lines += [f"{n:<5d} {fmt12(rb):<15s} {fmt12(rd)}" for n, rb, rd in rows]
    return "\n".join(lines) + "\n"


def cmd_downturns(args, parser) -> str:
    params = resolve_params(args, parser)
    seqs = downturns(params)
    if args.format == "json":
        import json

        return json.dumps(
            {"downturns": [[round12(v) for v in seq] for seq in seqs]}, indent=2
        ) + "\n"
    # text and csv coincide: one rate sequence per row.
    return "\n".join(",".join(fmt12(v) for v in seq) for seq in seqs) + "\n"


def cmd_backtest(args, parser) -> str:
    alpha, beta = resolve_bounds(args, parser)
    series = load_prices(args.prices)
    report = compare_report(series, alpha, beta, slack=args.tolerance)
    if args.format == "json":
        return report_json(report)
    if args.format == "csv":
        return report_csv(report)
    if args.format == "svg":
        return report_svg(report)
    lines = [
        f"alpha {fmt12(alpha)}  beta {fmt12(beta)}",
        "window   n   strategy  shares          currency_value  realized_ratio  violations",
    ]
    for window in report.windows:
        for name, result in window.results:
            lines.append(
                f"{window.label}  {window.n:<3d} {name:<9s} "
                f"{fmt12(result.shares):<15s} {fmt12(result.currency_value):<15s} "
                f"{fmt12(result.realized_ratio):<15s} {len(result.violations)}"
            )
    for label, reason in report.skipped:
        lines.append(f"skipped {label}: {reason}")
    return "\n".join(lines) + "\n"


def cmd_synth(args, parser) -> str:
    alpha, beta = resolve_bounds(args, parser)
    if args.months < 1:
        parser.error("--months must be at least 1")
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
