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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveEntry,
    PreconditionViolated,
    SingularMatrixError,
)
from .linalg import PIVOT_TOL, invert_matrix
from .simplex import solve_packing

#: Default feasibility tolerance for LP-based solving.
FEASIBILITY_TOL = 1e-9
#: Default tolerance when comparing objectives and equilibrium payoffs.
OPTIMALITY_TOL = 1e-8


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


def solve_primal_dual(H, tol: float = FEASIBILITY_TOL) -> LpSolution:
    """Solve the primal and dual programs for ``H`` on one simplex tableau.

    ``y`` and ``dual_objective`` come from the final basis, ``x`` from
    the slack reduced costs, and ``primal_objective`` is ``sum(x)``.
    """
    x, y, dual = solve_packing(as_payoff_matrix(H), tol=tol)
    return LpSolution(x=x, y=y, primal_objective=float(x.sum()), dual_objective=dual)


def solve_game_lp(H, tol: float = FEASIBILITY_TOL) -> GameSolution:
    """Solve the game by linear programming.

    Works for any positive payoff matrix, rectangular included.  This
    route never certifies uniqueness (``unique`` is always False).
    """
    lp = solve_primal_dual(H, tol=tol)
    ratio = float(lp.x.sum())
    return GameSolution(
        value=1.0 / ratio,
        ratio=ratio,
        online_strategy=lp.x / ratio,
        adversary_strategy=lp.y / float(lp.y.sum()),
        unique=False,
    )


def solve_game_closed_form(H, zero_tol: float = PIVOT_TOL) -> GameSolution:
    """Solve a square nonsingular game through the matrix inverse.

    With ``x`` the column sums and ``y`` the row sums of ``H^-1``, both
    nonnegative, the ratio is ``sum(x)`` and the strategies are the
    normalized vectors.  Components in ``[-zero_tol, 0)`` are rounding
    noise and clipped to zero; anything more negative means this route
    does not apply and the caller must fall back to solve_game_lp.

    Raises SingularMatrixError if ``H`` is singular, and
    PreconditionViolated if ``H`` is not square or a component of the
    candidate solutions is genuinely negative.  ``unique`` is True iff
    every component of both candidates exceeds ``zero_tol``.

    Unlike the LP route, the algebra here never divides by payoff
    entries, so matrices with zero entries (e.g. the identity) are
    accepted as long as the candidates come out nonnegative.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    m, n = H.shape
    if H.size == 0 or not np.all(np.isfinite(H)):
        raise NonPositiveEntry("payoff entries must be finite")
    if m != n:
        raise PreconditionViolated(f"closed form needs a square matrix, got {m}x{n}")
    inv = invert_matrix(H)
    x = inv.sum(axis=0)
    y = inv.sum(axis=1)
    if x.min() < -zero_tol or y.min() < -zero_tol:
        raise PreconditionViolated(
            "inverse-based candidate has a negative component; use solve_game_lp"
        )
    x = np.where(x < 0.0, 0.0, x)
    y = np.where(y < 0.0, 0.0, y)
    unique = bool(np.all(x > zero_tol) and np.all(y > zero_tol))
    ratio = float(x.sum())
    if ratio <= 0.0:
        raise PreconditionViolated("candidate solution sums to zero")
    return GameSolution(
        value=1.0 / ratio,
        ratio=ratio,
        online_strategy=x / ratio,
        adversary_strategy=y / float(y.sum()),
        unique=unique,
    )


def solve_game(H, tol: float = FEASIBILITY_TOL) -> tuple[GameSolution, str]:
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
    return solve_game_lp(H, tol=tol), "lp"


def worst_case_columns(H, x, tie_tol: float = 1e-10) -> set[int]:
    """Columns attaining the minimum of ``x @ H`` (0-based indices).

    These index the adversary's worst-case pure strategies against the
    mixed row strategy ``x / sum(x)``.  All minimizers within
    ``tie_tol`` are returned, since an equalizing strategy ties on
    every column.
    """
    H = as_payoff_matrix(H)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"x has length {x.shape[0]}, matrix has {H.shape[0]} rows")
    if np.any(x < 0.0) or not np.any(x > 0.0):
        raise PreconditionViolated("x must be nonnegative and nonzero")
    against = x @ H
    return set(np.flatnonzero(against <= against.min() + tie_tol).tolist())


def check_extreme_point(H, x, y, rows, cols, tol: float = 1e-9) -> bool:
    """Verify an extreme-point certificate for optimal solutions x, y.

    ``rows`` and ``cols`` (0-based) select a square submatrix H'.  The
    certificate holds iff H' is nonsingular, the selected components of
    x and y solve ``x' H' = 1`` and ``H' y' = 1`` within ``tol``, and x
    and y vanish off the selected support.  A non-square selection is
    simply not a certificate and yields False.

    Feasibility of x and y for the primal/dual pair is the caller's
    responsibility; only the certificate conditions are checked here.
    """
    H = as_payoff_matrix(H)
    m, n = H.shape
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
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
        invert_matrix(sub)
    except SingularMatrixError:
        return False
    off_rows = np.setdiff1d(np.arange(m), rows)
    off_cols = np.setdiff1d(np.arange(n), cols)
    if np.any(np.abs(x[off_rows]) > tol) or np.any(np.abs(y[off_cols]) > tol):
        return False
    if np.max(np.abs(x[rows] @ sub - 1.0)) > tol:
        return False
    if np.max(np.abs(sub @ y[cols] - 1.0)) > tol:
        return False
    return True
