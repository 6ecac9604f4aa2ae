"""Optimal static buy-and-hold allocation under bounded daily returns.

The package solves finite zero-sum matrix games (by LP or, for square
nonsingular payoffs, in closed form), derives the balanced buy-and-hold
strategy with its exact competitive ratio, and backtests it against
dollar averaging on daily price series.

Every public name is imported from its module on first use (PEP 562),
so ``import buyhold`` loads no submodule and no numpy; the names of
``params`` (the market parameters and the scalar closed forms) never
need numpy at all.
"""

import importlib

__version__ = "0.1.0"

#: Each module and the public names it provides to the package.
_EXPORTS = {
    "backtest": (
        "compare_report",
        "parse_prices",
        "report_csv",
        "report_json",
        "report_svg",
        "segment_monthly",
        "synthetic_prices",
    ),
    "errors": (
        "BuyholdError",
        "DimensionMismatch",
        "DuplicateDate",
        "LengthMismatch",
        "NonPositiveEntry",
        "NonPositivePrice",
        "NumericalFailure",
        "ParseError",
        "PreconditionViolated",
        "SingularMatrixError",
    ),
    "games": (
        "check_extreme_point",
        "solve_game",
        "solve_game_closed_form",
        "solve_game_lp",
        "solve_primal_dual",
        "worst_case_columns",
    ),
    "market": (
        "bal_adversary",
        "bal_weights",
        "da_weights",
        "det_K_closed_form",
        "downturns",
        "evaluate_static",
        "offline_optimum",
        "payoff_matrix_K",
        "static_ratio_via_downturns",
    ),
    "params": (
        "CIRCUIT_BREAKERS",
        "MarketParams",
        "bal_ratio",
        "da_ratio",
        "preset_bounds",
        "preset_params",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: Library modules reachable as ``buyhold.<module>`` without importing them first.
_SUBMODULES = ("backtest", "errors", "formatting", "games", "market", "params", "svgchart")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing sets the attribute, so this runs once per module.
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # Cached, so later lookups are plain module attribute reads.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
