"""Finite zero-sum two-person games with strictly positive payoffs.

The row (online) player mixes over ``m`` pure strategies, the column
(adversary) player over ``n``; entry ``H[i, j] > 0`` is the payoff to
the row player.  The game value ``v*`` is the common minimax/maximin
expected payoff, and its reciprocal ``r* = 1/v*`` is the competitive
ratio of the best randomized row strategy: the scaled solutions of

    primal:  minimize x.1  s.t.  x H >= 1,  x >= 0
    dual:    maximize y.1  s.t.  H y <= 1,  y >= 0

satisfy ``x.1 = y.1 = r*``, and ``x/r*``, ``y/r*`` are the optimal
mixed strategies.  Two solution routes are provided: a general LP
route, and a closed-form route through the inverse of a square
nonsingular ``H`` that additionally certifies uniqueness when both
scaled solutions are strictly positive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveEntry,
    NumericalFailure,
    PreconditionViolated,
    SingularMatrixError,
)
from .linalg import PIVOT_TOL, inverse_sums
from .simplex import FEASIBILITY_TOL, solve_packing

#: Largest constraint residual, and relative duality gap, the LP route accepts.
OPTIMALITY_TOL = 1e-8
#: Payoffs within this of the minimum tie for the worst case.
TIE_TOL = 1e-10


def as_payoff_matrix(matrix) -> np.ndarray:
    """Validate and return a payoff matrix as a 2-D float array.

    Every entry must be finite and strictly positive.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonPositiveEntry("payoff entries must be finite")
    if np.any(a <= 0.0):
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise NonPositiveEntry(f"payoff entry ({i}, {j}) = {a[i, j]:g} is not positive")
    return a


def _unit_scaled(H) -> tuple[np.ndarray, int]:
    """``(H * 2**-k, k)`` with ``k`` chosen so the largest magnitude lies in [0.5, 1).

    Scaling by a power of two is exact, and the game's strategies do not
    change while its value scales by ``2**-k``, so the tolerances of
    either route act on the same numbers whatever the scale of ``H``.
    """
    k = math.frexp(float(np.abs(H).max()))[1]
    return np.ldexp(H, -k), k


def _ratio_scaled_back(ratio: float, k: int) -> float:
    """``ratio * 2**-k``; NumericalFailure when it leaves the float range.

    The ratio is the reciprocal of the game value, so this happens when
    the value is below ``1/sys.float_info.max``, about 5.6e-309.
    """
    try:
        return math.ldexp(ratio, -k)
    except OverflowError:
        raise NumericalFailure("the game value is too small for its ratio to be a float") from None


def is_mixed_strategy(weights, tol: float = 1e-12) -> bool:
    """True iff ``weights`` is a probability vector (within ``tol`` on the sum)."""
    w = np.asarray(weights, dtype=float).ravel()
    return w.size > 0 and bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= tol


@dataclass(frozen=True)
class LpSolution:
    """Raw optimal solutions of the primal/dual pair for a payoff matrix."""

    x: np.ndarray
    y: np.ndarray
    primal_objective: float
    dual_objective: float

    def __post_init__(self):
        for arr in (self.x, self.y):
            arr.flags.writeable = False


@dataclass(frozen=True)
class GameSolution:
    """Value, competitive ratio, and optimal mixed strategies of a game.

    ``unique`` is True only when the closed-form route certified that
    the optimal strategies are the only ones.
    """

    value: float
    ratio: float
    online_strategy: np.ndarray
    adversary_strategy: np.ndarray
    unique: bool

    def __post_init__(self):
        for arr in (self.online_strategy, self.adversary_strategy):
            arr.flags.writeable = False


def solve_primal_dual(H) -> LpSolution:
    """Solve the primal and dual programs for ``H`` on one simplex tableau.

    ``y`` and ``dual_objective`` come from the final basis, ``x`` from
    the slack reduced costs, and ``primal_objective`` is ``sum(x)``.
    Raises NumericalFailure if ``max(1 - xH)`` or ``max(Hy - 1)``
    exceeds OPTIMALITY_TOL, or if the duality gap ``|sum(x) - sum(y)|``
    exceeds OPTIMALITY_TOL times ``sum(x)``: then ``x`` and ``y`` are
    not both optimal.  The gap is relative because ``sum(x)`` is the
    reciprocal of the game value, so it scales with ``1/H``.

    The tableau holds ``H`` scaled by the power of two that brings its
    largest entry into [0.5, 1), and the solutions are scaled back
    exactly, so no tolerance depends on the magnitude of ``H``.
    """
    H, k = _unit_scaled(as_payoff_matrix(H))
    x, y, dual = solve_packing(H)
    residual = max(float(np.max(1.0 - x @ H)), float(np.max(H @ y - 1.0)))
    if residual > OPTIMALITY_TOL:
        raise NumericalFailure(f"LP solution violates its constraints by {residual:.3e}")
    primal = float(x.sum())
    gap = abs(primal - float(y.sum()))
    if gap > OPTIMALITY_TOL * primal:
        raise NumericalFailure(f"LP solution has a duality gap of {gap:.3e} on {primal:.6g}")
    # Both objectives bound the components, so once they fit every x_i and y_i does.
    primal_objective = _ratio_scaled_back(primal, k)
    dual_objective = _ratio_scaled_back(dual, k)
    return LpSolution(
        x=np.ldexp(x, -k),
        y=np.ldexp(y, -k),
        primal_objective=primal_objective,
        dual_objective=dual_objective,
    )


def solve_game_lp(H) -> GameSolution:
    """Solve the game by linear programming.

    Works for any positive payoff matrix, rectangular included.  This
    route never certifies uniqueness (``unique`` is always False).
    """
    lp = solve_primal_dual(H)
    ratio = float(lp.x.sum())
    return GameSolution(
        value=1.0 / ratio,
        ratio=ratio,
        online_strategy=lp.x / ratio,
        adversary_strategy=lp.y / float(lp.y.sum()),
        unique=False,
    )


def solve_game_closed_form(H) -> GameSolution:
    """Solve a square nonsingular game through the matrix inverse.

    With ``x`` the column sums and ``y`` the row sums of ``H^-1`` (taken
    from one LU factorisation by ``linalg.inverse_sums``), both
    nonnegative, the ratio is ``sum(x)`` and the strategies are the
    normalized vectors.  Components in ``[-PIVOT_TOL, 0)`` are rounding
    noise and clipped to zero; anything more negative means this route
    does not apply and the caller must fall back to solve_game_lp.

    Raises SingularMatrixError if ``H`` is singular, and
    PreconditionViolated if ``H`` is not square or a component of the
    candidate solutions is genuinely negative.  ``unique`` is True iff
    every component of both candidates exceeds ``PIVOT_TOL``.

    Unlike the LP route, the algebra here never divides by payoff
    entries, so matrices with zero entries (e.g. the identity) are
    accepted as long as the candidates come out nonnegative.

    The inverse is taken of ``H`` scaled by the power of two that brings
    its largest magnitude into [0.5, 1), and the ratio and value are
    scaled back exactly, so ``PIVOT_TOL`` does not depend on the
    magnitude of ``H``.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    m, n = H.shape
    if H.size == 0 or not np.all(np.isfinite(H)):
        raise NonPositiveEntry("payoff entries must be finite")
    if m != n:
        raise PreconditionViolated(f"closed form needs a square matrix, got {m}x{n}")
    H, k = _unit_scaled(H)
    x, y = inverse_sums(H)
    if x.min() < -PIVOT_TOL or y.min() < -PIVOT_TOL:
        raise PreconditionViolated(
            "inverse-based candidate has a negative component; use solve_game_lp"
        )
    x = np.where(x < 0.0, 0.0, x)
    y = np.where(y < 0.0, 0.0, y)
    unique = bool(np.all(x > PIVOT_TOL) and np.all(y > PIVOT_TOL))
    ratio = float(x.sum())
    if ratio <= 0.0:
        raise PreconditionViolated("candidate solution sums to zero")
    return GameSolution(
        value=math.ldexp(1.0 / ratio, k),
        ratio=_ratio_scaled_back(ratio, k),
        online_strategy=x / ratio,
        adversary_strategy=y / float(y.sum()),
        unique=unique,
    )


def solve_game(H) -> tuple[GameSolution, str]:
    """Solve by the closed form when it applies, else by LP.

    Returns ``(solution, route)`` where route is ``"closed-form"`` or
    ``"lp"``.
    """
    H = as_payoff_matrix(H)
    if H.shape[0] == H.shape[1]:
        try:
            return solve_game_closed_form(H), "closed-form"
        except (SingularMatrixError, PreconditionViolated):
            pass
    return solve_game_lp(H), "lp"


def worst_case_columns(H, x) -> set[int]:
    """Columns attaining the minimum of ``x @ H`` (0-based indices).

    These index the adversary's worst-case pure strategies against the
    mixed row strategy ``x / sum(x)``.  All minimizers within
    ``TIE_TOL`` are returned, since an equalizing strategy ties on
    every column.  Raises ValueError if an entry of ``x`` is not finite.
    """
    H = as_payoff_matrix(H)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"x has length {x.shape[0]}, matrix has {H.shape[0]} rows")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite numbers")
    if np.any(x < 0.0) or not np.any(x > 0.0):
        raise PreconditionViolated("x must be nonnegative and nonzero")
    against = x @ H
    return set(np.flatnonzero(against <= against.min() + TIE_TOL).tolist())


def check_extreme_point(H, x, y, rows, cols) -> bool:
    """Verify an extreme-point certificate for optimal solutions x, y.

    ``rows`` and ``cols`` (0-based) select a square submatrix H'.  The
    certificate holds iff H' is nonsingular, the selected components of
    x and y solve ``x' H' = 1`` and ``H' y' = 1`` within
    ``FEASIBILITY_TOL``, and x and y vanish off the selected support.  A
    non-square selection is simply not a certificate and yields False.

    Feasibility of x and y for the primal/dual pair is the caller's
    responsibility; only the certificate conditions are checked here.
    The checks run on ``H`` scaled as in the two solution routes, with
    x and y scaled inversely, so no tolerance depends on its magnitude.
    """
    H, k = _unit_scaled(as_payoff_matrix(H))
    m, n = H.shape
    x = np.ldexp(np.asarray(x, dtype=float).ravel(), k)
    y = np.ldexp(np.asarray(y, dtype=float).ravel(), k)
    if x.shape[0] != m or y.shape[0] != n:
        raise DimensionMismatch("x/y lengths must match the matrix dimensions")
    rows = sorted({int(i) for i in rows})
    cols = sorted({int(j) for j in cols})
    if any(i < 0 or i >= m for i in rows) or any(j < 0 or j >= n for j in cols):
        raise DimensionMismatch("certificate indices out of range")
    if len(rows) != len(cols) or not rows:
        return False
    sub = H[np.ix_(rows, cols)]
    try:
        inverse_sums(sub)
    except SingularMatrixError:
        return False
    off_rows = np.setdiff1d(np.arange(m), rows)
    off_cols = np.setdiff1d(np.arange(n), cols)
    off_support = np.concatenate((x[off_rows], y[off_cols]))
    # Each test asks "all within", so a NaN anywhere fails the certificate.
    return bool(
        np.all(np.abs(off_support) <= FEASIBILITY_TOL)
        and np.all(np.abs(x[rows] @ sub - 1.0) <= FEASIBILITY_TOL)
        and np.all(np.abs(sub @ y[cols] - 1.0) <= FEASIBILITY_TOL)
    )
