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
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import LengthMismatch, PreconditionViolated
# The scalar names live in params, which imports no numpy; they are
# re-exported here with the array-valued ones built on them.
from .params import (
    CIRCUIT_BREAKERS,
    MarketParams,
    bal_ratio,
    bal_weight_parts,
    check_bounds,
    check_horizon,
    da_ratio,
    downturn_rows,
    preset_bounds,
    preset_params,
)

#: Relative slack allowed on each daily step when validating sequences.
ADMISSIBILITY_TOL = 1e-12

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

    Raises ValueError if a weight or a rate is not finite.
    """
    a = _finite_vector(weights, "weights")
    e = _finite_vector(rates, "rates")
    if a.shape[0] != e.shape[0]:
        raise LengthMismatch(f"{a.shape[0]} weights vs {e.shape[0]} rates")
    return float(a @ e)


def downturns(params: MarketParams) -> list[np.ndarray]:
    """The ``n`` worst-case rate sequences of ``downturn_rows``, as arrays."""
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
    """
    n = params.n
    gap = np.arange(n - 1, -n, -1)
    # One power with exponent -|i - j|, so no entry can overflow.
    diagonals = np.where(gap <= 0, float(params.alpha), float(params.beta)) ** -np.abs(gap)
    # The corners are the smallest entries, each the bound to the largest exponent.
    if not (diagonals[0] > 0.0 and diagonals[-1] > 0.0):
        base = max(float(params.alpha), float(params.beta))
        raise PreconditionViolated(
            f"payoff entries round to 0 for {params}; the largest horizon whose "
            f"entries stay positive is n = {_last_positive_power(base) + 1}"
        )
    # Entry (i, j) is diagonals[n-1-i+j], inside the 2n-1 entries for every i, j < n.
    step = diagonals.strides[0]
    return as_strided(diagonals[n - 1 :], shape=(n, n), strides=(-step, step)).copy()


def _last_positive_power(base: float) -> int:
    """The largest ``m`` with ``base**-m > 0`` in float64, for ``base > 1``."""
    # The smallest subnormal is 2**-1074, so m lies within a step or two of this.
    m = max(1, int(1075 / math.log2(base)))
    while np.float64(base) ** -(m + 1) > 0.0:
        m += 1
    while np.float64(base) ** -m == 0.0:
        m -= 1
    return m


def det_K_closed_form(params: MarketParams) -> float:
    """Determinant of the downturn payoff kernel: (1 - 1/(alpha*beta))**(n-1)."""
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
    sum to 1.
    """
    first, interior, last = bal_weight_parts(params)
    w = np.full(params.n, interior)
    w[0] = first
    w[-1] = last
    return w


def bal_adversary(params: MarketParams) -> np.ndarray:
    """Optimal mixture over downturns: balanced weights with the ends swapped.

    Equivalently, the balanced weights with alpha and beta exchanged.
    """
    c = bal_weights(params)
    c[0], c[-1] = c[-1], c[0]
    return c


def da_weights(n: int) -> np.ndarray:
    """Dollar averaging: the uniform allocation 1/n per day."""
    check_horizon(n)
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

    Raises ValueError if a weight is not finite or is negative.
    """
    a = np.asarray(weights, dtype=float).ravel()
    if a.shape[0] != params.n:
        raise LengthMismatch(f"{a.shape[0]} weights for an n = {params.n} horizon")
    a = _finite_vector(a, "weights")
    if a.min() < 0.0:
        raise ValueError(f"weights must be nonnegative, got {a.min():g}")
    worst = float(_times_kernel(a, float(params.alpha), float(params.beta)).min())
    if worst <= 0.0:
        raise ZeroDivisionError("strategy accumulates nothing on a downturn")
    return 1.0 / worst


def _times_kernel(a: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """``a @ K`` for the downturn kernel, from its two geometric recurrences."""
    values = a.tolist()
    left = list(accumulate(values, lambda s, x: s / alpha + x))
    # ahead[j] = a_j + ahead[j+1]/beta, so R_j = ahead[j+1]/beta and R_{n-1} = 0.
    ahead = list(accumulate(reversed(values), lambda s, x: s / beta + x))[::-1]
    right = np.append(np.divide(ahead[1:], beta), 0.0)
    return np.add(left, right)
