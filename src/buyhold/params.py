"""Market parameters and the closed forms that need nothing else.

The return bounds, the horizon, the circuit-breaker presets, the three
distinct balanced weights and the exact competitive ratios of the
balanced strategy and of dollar averaging are scalar formulas, and the
downturn sequences are stepwise products.  This module holds them
without importing numpy or ``dataclasses``, so the ``weights``,
``sweep`` and ``downturns`` subcommands start without either;
``market`` re-exports the names and builds the array-valued quantities
on top.  Every function here or in ``market`` that takes a
``MarketParams`` raises TypeError for anything else (``check_type``).
"""

import math
import operator
from collections.abc import Iterator
from functools import reduce
from itertools import accumulate, repeat

from .errors import PreconditionViolated

#: Exchange circuit-breaker limits as (daily floor, daily cap) on the
#: price ratio; the rate up-factor bound is the reciprocal of the floor.
CIRCUIT_BREAKERS = {
    "amsterdam": (0.90, 1.10),
    "bangkok": (0.90, 1.10),
    "paris": (0.95, 1.10),
    "taipei": (0.93, 1.07),
    "tel-aviv": (0.95, 1.10),
    "tokyo": (0.95, 1.30),
    "vienna": (0.95, 1.05),
}

#: Largest horizon ``n`` of the names that build ``n²`` numbers:
#: ``downturn_rows``, ``downturns`` and ``payoff_matrix_K``.  At the cap
#: ``K`` holds 4096² floats, 128 MiB.  The names that build ``n`` floats,
#: ``bal_weights``, ``bal_adversary`` and ``da_weights``, take ``n`` up to
#: the square of the cap, so none asks for more than ``K`` may hold.
MAX_SQUARE_HORIZON = 4096


def check_number(value, name: str, relation: str, bound) -> None:
    """Raise ValueError unless ``value`` is a finite number ``relation`` ``bound``.

    ``relation`` is ``">"`` or ``">="``: ``check_number(slack, "slack",
    ">=", 0)`` accepts a finite ``slack >= 0``.
    """
    try:
        valid = (value > bound if relation == ">" else value >= bound) and math.isfinite(value)
    except (TypeError, OverflowError):
        # Not a number, or an int past the float range, which isfinite refuses.
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a finite number {relation} {bound}, got {value!r}")


def check_integer(value, name: str, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (to ``operator.index``) >= ``least``."""
    try:
        valid = operator.index(value) >= least
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_bounds(alpha, beta) -> None:
    """Raise ValueError unless ``alpha`` and ``beta`` are finite numbers > 1."""
    check_number(alpha, "alpha", ">", 1)
    check_number(beta, "beta", ">", 1)


def check_type(value, kind: type, name: str) -> None:
    """Raise TypeError, naming ``kind``, unless ``value`` is one: ``name`` takes a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} takes a {kind.__name__}, got {type(value).__name__}")


class MarketParams:
    """Daily return bounds and horizon length.

    ``alpha`` bounds the daily up-factor of the exchange rate, ``1/beta``
    the down-factor; both must exceed 1.  Horizons shorter than two days
    are rejected: with a single day every strategy is forced.

    Immutable, compared and hashed by ``(alpha, beta, n)``.  A plain
    class with slots rather than a frozen dataclass, because importing
    ``dataclasses`` costs every CLI process more than its subcommand.
    """

    __slots__ = ("alpha", "beta", "n")

    def __init__(self, alpha: float, beta: float, n: int):
        check_bounds(alpha, beta)
        check_integer(n, "horizon n", 2)
        # Assignment is refused below, so the slots are filled through object.
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"MarketParams(alpha={self.alpha!r}, beta={self.beta!r}, n={self.n!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.beta, self.n) == (other.alpha, other.beta, other.n)

    def __hash__(self):
        return hash((self.alpha, self.beta, self.n))

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses.
        return MarketParams, (self.alpha, self.beta, self.n)


def check_square_horizon(params: MarketParams, name: str) -> None:
    """Raise PreconditionViolated if ``params.n`` exceeds MAX_SQUARE_HORIZON.

    ``name`` builds ``n²`` numbers, so this runs before it allocates any.
    """
    if params.n > MAX_SQUARE_HORIZON:
        raise PreconditionViolated(
            f"{name} builds n² numbers; n = {params.n} exceeds "
            f"MAX_SQUARE_HORIZON = {MAX_SQUARE_HORIZON}"
        )


def check_vector_horizon(n: int, name: str) -> None:
    """Raise PreconditionViolated if ``n`` exceeds MAX_SQUARE_HORIZON ** 2.

    ``name`` builds ``n`` floats, so this runs before it allocates any.
    """
    if n > MAX_SQUARE_HORIZON**2:
        raise PreconditionViolated(
            f"{name} builds n floats; n = {n} exceeds "
            f"MAX_SQUARE_HORIZON ** 2 = {MAX_SQUARE_HORIZON**2}"
        )


def preset_bounds(name: str) -> tuple[float, float]:
    """Return (alpha, beta) for a named circuit-breaker preset."""
    try:
        floor, cap = CIRCUIT_BREAKERS[name]
    except KeyError:
        known = ", ".join(sorted(CIRCUIT_BREAKERS))
        raise KeyError(f"unknown preset {name!r}; choose one of: {known}") from None
    return 1.0 / floor, cap


def preset_params(name: str, n: int) -> MarketParams:
    """MarketParams for a named preset and horizon ``n``."""
    alpha, beta = preset_bounds(name)
    return MarketParams(alpha=alpha, beta=beta, n=n)


def downturn_rows(params: MarketParams) -> Iterator[list[float]]:
    """The ``n`` worst-case rate sequences for static strategies, one list at a time.

    Sequence ``j`` (1-based) rises by ``alpha`` for ``j`` days, then
    falls by ``1/beta`` for the rest.  Built by stepwise multiplication
    and division, not powers, so each generated sequence is exactly
    admissible under stepwise validation.  Returns a one-pass iterator
    that builds each sequence as it is read.  Every check runs at the
    call, before any sequence: PreconditionViolated when ``n``
    exceeds MAX_SQUARE_HORIZON, or when a rate leaves the float range,
    rising to ``inf`` or falling to ``0``.
    """
    check_type(params, MarketParams, "downturn_rows")
    check_square_horizon(params, "downturn_rows")
    n, alpha, beta = params.n, float(params.alpha), float(params.beta)
    rise = list(accumulate(repeat(alpha, n), operator.mul))
    # Rounding is monotone, so no rate exceeds the last rise, and the first
    # sequence, which falls from the lowest peak for the most days, ends on
    # the smallest rate of all.
    if not (math.isfinite(rise[-1]) and reduce(operator.truediv, repeat(beta, n - 1), alpha) > 0.0):
        raise PreconditionViolated(f"a downturn rate leaves the float range for {params}")
    # The sequence that peaks on day p (0-based) is the rise up to p, then
    # the peak divided by beta once per remaining day.
    return (
        rise[:p] + list(accumulate(repeat(beta, n - 1 - p), operator.truediv, initial=peak))
        for p, peak in enumerate(rise)
    )


def bal_weight_parts(params: MarketParams) -> tuple[float, float, float]:
    """The balanced strategy's ``(first, interior, last)`` daily fractions.

    First day ``alpha*(beta-1)/D``, last day ``(alpha-1)*beta/D``, each
    of the ``n - 2`` interior days ``(alpha-1)*(beta-1)/D``, with the
    normalizer ``D = n*alpha*beta - (n-1)*(alpha+beta) + (n-2)``.
    """
    check_type(params, MarketParams, "bal_weight_parts")
    da, db = params.alpha - 1.0, params.beta - 1.0
    # D in a cancellation-free form: (alpha-1) + (beta-1) + n*(alpha-1)*(beta-1).
    denom = da + db + params.n * da * db
    if math.isfinite(denom):
        return (db + da * db) / denom, da * db / denom, (da + da * db) / denom
    # D overflows for huge bounds: divide every term by (alpha-1)*(beta-1).
    ia, ib = 1.0 / da, 1.0 / db
    scaled = params.n + ia + ib
    return (1.0 + ia) / scaled, 1.0 / scaled, (1.0 + ib) / scaled


def bal_ratio(params: MarketParams) -> float:
    """Competitive ratio of the balanced strategy.

    Equals ``(n*alpha*beta - (n-1)*(alpha+beta) + (n-2))/(alpha*beta - 1)``,
    the smallest ratio any static strategy can achieve.
    """
    check_type(params, MarketParams, "bal_ratio")
    return _bal_ratio(params.alpha, params.beta, params.n)


def da_ratio(params: MarketParams) -> float:
    """Competitive ratio of dollar averaging.

    ``max(n*(1-1/alpha)/(1-alpha**-n), n*(1-1/beta)/(1-beta**-n))``;
    the two terms are the worst cases on the all-rise and all-fall
    downturns, the only candidates by concavity of the column sums.
    """
    check_type(params, MarketParams, "da_ratio")
    return _da_ratio(params.alpha, params.beta, params.n)


# The two ratios on bare, already validated bounds, for callers that
# sweep the horizon and would otherwise build a MarketParams per value.


def _bal_ratio(alpha: float, beta: float, n: int) -> float:
    da, db = alpha - 1.0, beta - 1.0
    numer = da + db + n * da * db
    if math.isfinite(numer):
        return numer / (da + db + da * db)
    # As in bal_weight_parts: both terms divided by (alpha-1)*(beta-1).
    ia, ib = 1.0 / da, 1.0 / db
    return (n + ia + ib) / (1.0 + ia + ib)


def _da_ratio(alpha: float, beta: float, n: int) -> float:
    def term(g: float) -> float:
        # n*(1 - 1/g)/(1 - g**-n), stable for g near 1.
        return n * ((g - 1.0) / g) / -math.expm1(-n * math.log1p(g - 1.0))

    return max(term(alpha), term(beta))
