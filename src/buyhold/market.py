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

import numpy as np

from .errors import LengthMismatch, NumericalFailure, PreconditionViolated
# The scalar names live in params, which imports no numpy; they are
# re-exported here with the array-valued ones built on them.
from .params import (
    CIRCUIT_BREAKERS,
    MarketParams,
    bal_ratio,
    bal_weight_parts,
    check_bounds,
    check_integer,
    check_square_horizon,
    check_type,
    check_vector_horizon,
    da_ratio,
    downturn_rows,
    preset_bounds,
    preset_params,
)


def _finite_vector(values, name: str) -> np.ndarray:
    """``values`` as a flat float array; raises ValueError unless every entry is finite."""
    v = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite numbers")
    return v


def offline_optimum(rates) -> float:
    """Best possible accumulation: trade everything at the maximum rate.

    Raises ValueError if a rate is not finite.
    """
    e = _finite_vector(rates, "rates")
    if e.size == 0:
        raise LengthMismatch("rate sequence is empty")
    return float(e.max())


def evaluate_static(weights, rates) -> float:
    """Accumulation of a static strategy: the weighted sum of rates.

    Raises ValueError if a weight or a rate is not finite, and
    NumericalFailure if a product or a partial sum is past the float range.
    """
    a = _finite_vector(weights, "weights")
    e = _finite_vector(rates, "rates")
    if a.shape[0] != e.shape[0]:
        raise LengthMismatch(f"{a.shape[0]} weights vs {e.shape[0]} rates")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(a @ e)
    if not math.isfinite(total):
        raise NumericalFailure("the weighted sum of rates is past the float range")
    return total


def downturns(params: MarketParams) -> list[np.ndarray]:
    """The ``n`` worst-case rate sequences of ``downturn_rows``, as arrays."""
    check_type(params, MarketParams, "downturns")
    return [np.array(row) for row in downturn_rows(params)]


def payoff_matrix_K(params: MarketParams) -> np.ndarray:
    """Payoff kernel of the finite game against the downturns.

    ``K[i, j] = alpha**(i-j)`` on and above the diagonal and
    ``beta**(j-i)`` below it (0-based, both exponents nonpositive), the
    ratio of the day-``i`` trade-once accumulation to the best possible
    accumulation on downturn ``j``.  All entries lie in (0, 1] with a
    unit diagonal.

    ``K`` is Toeplitz: an entry depends only on the gap ``i - j``.  The
    ``2n - 1`` distinct entries are computed once, for the gaps
    ``n-1, ..., -(n-1)``, and row ``i`` is the window of ``n`` of them
    that starts at gap ``i``.  Raises PreconditionViolated when a corner
    entry, ``alpha**-(n-1)`` or ``beta**-(n-1)``, would round to 0; the
    message names the largest horizon whose entries stay positive.
    Raises PreconditionViolated before building anything when ``n``
    exceeds MAX_SQUARE_HORIZON.
    """
    check_type(params, MarketParams, "payoff_matrix_K")
    check_square_horizon(params, "payoff_matrix_K")
    n = params.n
    gap = np.arange(n - 1, -n, -1)
    # One power with exponent -|i - j|, so no entry can overflow.
    diagonals = np.where(gap <= 0, float(params.alpha), float(params.beta)) ** -np.abs(gap)
    # The corners are the smallest entries, each the bound to the largest exponent.
    if not (diagonals[0] > 0.0 and diagonals[-1] > 0.0):
        # The powers of the larger bound fall to 0 first; count those still positive.
        last = np.count_nonzero(max(float(params.alpha), float(params.beta)) ** -np.arange(n) > 0.0)
        raise PreconditionViolated(
            f"payoff entries round to 0 for {params}; the largest horizon whose "
            f"entries stay positive is n = {last}"
        )
    # Entry (i, j) is diagonals[n-1-i+j], inside the 2n-1 entries for every i, j < n.
    step = diagonals.itemsize
    return np.ndarray((n, n), float, diagonals, (n - 1) * step, (-step, step)).copy()


def det_K_closed_form(params: MarketParams) -> float:
    """Determinant of the downturn payoff kernel: (1 - 1/(alpha*beta))**(n-1)."""
    check_type(params, MarketParams, "det_K_closed_form")
    a, b = params.alpha, params.beta
    da, db = a - 1.0, b - 1.0
    if math.isfinite(a * b):
        # (a*b - 1)/(a*b) written without cancellation for a, b near 1.
        base = (da + db + da * db) / (a * b)
    else:
        # The quotient above would be inf/inf.  1/(a*b) is below half an ulp of 1
        # here, so this rounds to the true base, 1.
        base = 1.0 - 1.0 / a / b
    return base ** (params.n - 1)


def bal_weights(params: MarketParams) -> np.ndarray:
    """Daily capital fractions of the balanced strategy.

    The ``(first, interior, last)`` values of ``bal_weight_parts`` laid
    out over the ``n`` days.  All components are strictly positive and
    sum to 1.  Raises PreconditionViolated before building anything when
    ``n`` exceeds MAX_SQUARE_HORIZON ** 2.
    """
    check_type(params, MarketParams, "bal_weights")
    check_vector_horizon(params.n, "bal_weights")
    first, interior, last = bal_weight_parts(params)
    w = np.full(params.n, interior)
    w[0] = first
    w[-1] = last
    return w


def bal_adversary(params: MarketParams) -> np.ndarray:
    """Optimal mixture over downturns: balanced weights with the ends swapped.

    Equivalently, the balanced weights with alpha and beta exchanged.
    Past the horizon cap it raises as ``bal_weights`` does.
    """
    check_type(params, MarketParams, "bal_adversary")
    c = bal_weights(params)
    c[0], c[-1] = c[-1], c[0]
    return c


def da_weights(n: int) -> np.ndarray:
    """Dollar averaging: the uniform allocation 1/n per day.

    Raises PreconditionViolated before building anything when ``n``
    exceeds MAX_SQUARE_HORIZON ** 2.
    """
    check_integer(n, "horizon n", 2)
    check_vector_horizon(n, "da_weights")
    return np.full(n, 1.0 / n)


def static_ratio_via_downturns(weights, params: MarketParams) -> float:
    """Worst-case ratio of a static strategy, taken over the downturns.

    Column ``j`` of ``K`` is downturn ``j`` divided by its peak, so
    ``a @ K`` holds the strategy's accumulation relative to the best on
    each downturn and the ratio is ``1 / min(a @ K)``.  The downturns
    dominate every admissible sequence for static strategies, so this
    is the strategy's true competitive ratio.

    ``K`` is never built.  Its triangles have rank one, so ``a @ K`` is
    ``L_j + R_j`` with ``L_j = L_{j-1}/alpha + a_j`` (the days up to
    ``j``) and ``R_j = (R_{j+1} + a_{j+1})/beta`` (the days after it).
    Both take O(n) time and memory at any horizon, including those where
    ``payoff_matrix_K`` would underflow: their terms decay to 0 without
    affecting the larger ones.

    Raises ValueError if a weight is not finite or is negative, or if
    the strategy accumulates nothing on some downturn, and
    NumericalFailure if the worst accumulation or its reciprocal, the
    ratio, is past the float range.
    """
    check_type(params, MarketParams, "static_ratio_via_downturns")
    a = np.asarray(weights, dtype=float).ravel()
    if a.shape[0] != params.n:
        raise LengthMismatch(f"{a.shape[0]} weights for an n = {params.n} horizon")
    a = _finite_vector(a, "weights")
    if a.min() < 0.0:
        raise ValueError(f"weights must be nonnegative, got {a.min():g}")
    worst = min(_times_kernel(a, float(params.alpha), float(params.beta)))
    if worst <= 0.0:
        raise ValueError("strategy accumulates nothing on a downturn")
    # Python floats overflow to inf without a warning or an error.
    ratio = 1.0 / worst
    if worst == math.inf or ratio == math.inf:
        raise NumericalFailure(
            f"the worst accumulation {worst:.3g} or its reciprocal, the ratio, is past the float range"
        )
    return ratio


def _times_kernel(a: np.ndarray, alpha: float, beta: float) -> list[float]:
    """``a @ K`` for the downturn kernel, from its two geometric recurrences."""
    values = a.tolist()
    n = len(values)
    # The backward loop leaves after[j] = a_{j+1} + after[j+1]/beta and after[n-1] = 0,
    # so R_j = after[j]/beta; the forward loop overwrites after[j] with L_j + R_j.
    # Each sum starts at -0.0: -0.0/b + x is x for a bound b > 1 and every float x.
    after = [0.0] * n
    s = -0.0
    for j in range(n - 1, 0, -1):
        s = s / beta + values[j]
        after[j - 1] = s
    s = -0.0
    for j in range(n):
        s = s / alpha + values[j]
        after[j] = s + after[j] / beta
    return after
