"""The buy-and-hold trading domain under bounded daily returns.

An investor converts one unit of capital into a security over an
``n``-day horizon.  Day ``i`` offers an exchange rate ``e_i`` (shares
per unit of capital) constrained relative to the previous day by
``e_{i-1}/beta <= e_i <= e_{i-1}*alpha`` with ``alpha, beta > 1`` and
``e_0 = 1``.  A static strategy commits a fixed fraction of capital to
each day; its accumulation on a rate sequence is the weighted sum of
rates, and its competitive ratio is the worst case, over admissible
sequences, of the best single-day accumulation divided by its own.

For static strategies the worst cases are the ``n`` "downturn"
sequences that rise by ``alpha`` for ``j`` days and then fall by
``1/beta``.  Restricting the adversary to downturns turns the problem
into a finite matrix game with the kernel ``K`` built here; its unique
optimal row strategy is the balanced allocation ``bal_weights``, whose
competitive ratio ``bal_ratio`` has a closed form, as does the ratio
of the uniform dollar-averaging allocation ``da_ratio``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, PreconditionViolated

#: Relative slack allowed on each daily step when validating sequences.
ADMISSIBILITY_TOL = 1e-12

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


def check_bounds(alpha, beta) -> None:
    """Raise ValueError unless ``alpha`` and ``beta`` are finite numbers > 1."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (value > 1.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number > 1, got {value}")


@dataclass(frozen=True)
class MarketParams:
    """Daily return bounds and horizon length.

    ``alpha`` bounds the daily up-factor of the exchange rate, ``1/beta``
    the down-factor; both must exceed 1.  Horizons shorter than two days
    are rejected: with a single day every strategy is forced.
    """

    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        check_bounds(self.alpha, self.beta)
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"horizon n must be an integer >= 2, got {self.n}")


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


def validate_sequence(params: MarketParams, rates, rel_tol: float = ADMISSIBILITY_TOL) -> bool:
    """True iff every daily step of ``rates`` respects the bounds.

    The sequence starts from the implicit rate 1 on day zero; each rate
    may differ from its predecessor by a factor in ``[1/beta, alpha]``,
    widened by ``rel_tol`` to absorb floating-point drift.
    """
    e = np.asarray(rates, dtype=float).ravel()
    if e.shape[0] != params.n:
        raise LengthMismatch(f"sequence has {e.shape[0]} rates, expected n = {params.n}")
    prev = np.concatenate(([1.0], e[:-1]))
    lo = prev / params.beta * (1.0 - rel_tol)
    hi = prev * params.alpha * (1.0 + rel_tol)
    return bool(np.all((e >= lo) & (e <= hi)))


def offline_optimum(rates) -> float:
    """Best possible accumulation: trade everything at the maximum rate."""
    e = np.asarray(rates, dtype=float).ravel()
    if e.size == 0:
        raise LengthMismatch("rate sequence is empty")
    return float(e.max())


def evaluate_static(weights, rates) -> float:
    """Accumulation of a static strategy: the weighted sum of rates."""
    a = np.asarray(weights, dtype=float).ravel()
    e = np.asarray(rates, dtype=float).ravel()
    if a.shape[0] != e.shape[0]:
        raise LengthMismatch(f"{a.shape[0]} weights vs {e.shape[0]} rates")
    return float(a @ e)


def downturns(params: MarketParams) -> list[np.ndarray]:
    """The ``n`` worst-case rate sequences for static strategies.

    Sequence ``j`` (1-based) rises by ``alpha`` for ``j`` days, then
    falls by ``1/beta`` for the rest.  Built by stepwise multiplication
    and division (accumulated ufuncs, not powers) so each generated
    sequence is exactly admissible under stepwise validation.  Raises
    PreconditionViolated when a rate leaves the float range, rising to
    ``inf`` or falling to ``0``.
    """
    n = params.n
    # An overflow is reported below as PreconditionViolated, not as a warning.
    with np.errstate(over="ignore"):
        rise = np.multiply.accumulate(np.full(n, float(params.alpha)))
    # falls[p, t]: the peak rise[p] divided by beta t times, one step at a time.
    steps = np.full((n, n + 1), float(params.beta))
    steps[:, 0] = rise
    falls = np.divide.accumulate(steps, axis=1)
    # Read in rows of n, each (n + 1)-wide row shifts one further right,
    # which puts falls[p, t] on day p + t of the sequence that peaks on
    # day p (0-based); the days up to the peak come from the rise.
    skewed = falls.ravel()[: n * n].reshape(n, n)
    rows = np.where(np.tri(n, dtype=bool), rise, skewed)
    if not (np.isfinite(rise[-1]) and rows.min() > 0.0):
        raise PreconditionViolated(f"a downturn rate leaves the float range for {params}")
    return list(rows)


def payoff_matrix_K(params: MarketParams) -> np.ndarray:
    """Payoff kernel of the finite game against the downturns.

    ``K[i, j] = alpha**(i-j)`` on and above the diagonal and
    ``beta**(j-i)`` below it (0-based, both exponents nonpositive), the
    ratio of the day-``i`` trade-once accumulation to the best possible
    accumulation on downturn ``j``.  All entries lie in (0, 1] with a
    unit diagonal.
    """
    day = np.arange(params.n)
    gap = day[:, None] - day[None, :]
    # One power with exponent -|i - j|, so no entry can overflow.
    return np.where(gap <= 0, float(params.alpha), float(params.beta)) ** -np.abs(gap)


def det_K_closed_form(params: MarketParams) -> float:
    """Determinant of the downturn payoff kernel: (1 - 1/(alpha*beta))**(n-1)."""
    a, b = params.alpha, params.beta
    da, db = a - 1.0, b - 1.0
    # (a*b - 1)/(a*b) written without cancellation for a, b near 1.
    base = (da + db + da * db) / (a * b)
    return base ** (params.n - 1)


def bal_weights(params: MarketParams) -> np.ndarray:
    """Daily capital fractions of the balanced strategy.

    First day ``alpha*(beta-1)/D``, last day ``(alpha-1)*beta/D``,
    interior days ``(alpha-1)*(beta-1)/D`` with the normalizer
    ``D = n*alpha*beta - (n-1)*(alpha+beta) + (n-2)``.  All components
    are strictly positive and sum to 1.
    """
    da, db = params.alpha - 1.0, params.beta - 1.0
    # D in a cancellation-free form: (alpha-1) + (beta-1) + n*(alpha-1)*(beta-1).
    denom = da + db + params.n * da * db
    w = np.full(params.n, da * db / denom)
    w[0] = (db + da * db) / denom
    w[-1] = (da + da * db) / denom
    return w


def bal_adversary(params: MarketParams) -> np.ndarray:
    """Optimal mixture over downturns: balanced weights with the ends swapped.

    Equivalently, the balanced weights with alpha and beta exchanged.
    """
    c = bal_weights(params)
    c[0], c[-1] = c[-1], c[0]
    return c


def bal_ratio(params: MarketParams) -> float:
    """Competitive ratio of the balanced strategy.

    Equals ``(n*alpha*beta - (n-1)*(alpha+beta) + (n-2))/(alpha*beta - 1)``,
    the smallest ratio any static strategy can achieve.
    """
    da, db = params.alpha - 1.0, params.beta - 1.0
    return (da + db + params.n * da * db) / (da + db + da * db)


def da_weights(n: int) -> np.ndarray:
    """Dollar averaging: the uniform allocation 1/n per day."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"horizon n must be an integer >= 2, got {n}")
    return np.full(n, 1.0 / n)


def da_ratio(params: MarketParams) -> float:
    """Competitive ratio of dollar averaging.

    ``max(n*(1-1/alpha)/(1-alpha**-n), n*(1-1/beta)/(1-beta**-n))``;
    the two terms are the worst cases on the all-rise and all-fall
    downturns, the only candidates by concavity of the column sums.
    """
    n = params.n

    def term(g: float) -> float:
        # n*(1 - 1/g)/(1 - g**-n), stable for g near 1.
        return n * ((g - 1.0) / g) / -math.expm1(-n * math.log1p(g - 1.0))

    return max(term(params.alpha), term(params.beta))


def static_ratio_via_downturns(weights, params: MarketParams) -> float:
    """Worst-case ratio of a static strategy, taken over the downturns.

    Column ``j`` of ``K`` is downturn ``j`` divided by its peak, so
    ``a @ K`` holds the strategy's accumulation relative to the best on
    each downturn and the ratio is ``1 / min(a @ K)``.  The downturns
    dominate every admissible sequence for static strategies, so this
    is the strategy's true competitive ratio.
    """
    a = np.asarray(weights, dtype=float).ravel()
    if a.shape[0] != params.n:
        raise LengthMismatch(f"{a.shape[0]} weights for an n = {params.n} horizon")
    worst = float((a @ payoff_matrix_K(params)).min())
    if worst <= 0.0:
        raise ZeroDivisionError("strategy accumulates nothing on a downturn")
    return 1.0 / worst
