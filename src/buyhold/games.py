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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveEntry,
    NumericalFailure,
    PreconditionViolated,
    SingularMatrixError,
)

#: Pivot magnitudes below this are treated as zero (matrix singular).
PIVOT_TOL = 1e-12
#: Reduced costs, column entries and ratio-test gaps within this of
#: zero count as zero.
FEASIBILITY_TOL = 1e-9
#: Pivot cap per tableau row and column; unreachable under Bland's rule.
PIVOTS_PER_LINE = 200
#: Largest constraint residual, and relative duality gap, the LP route accepts.
OPTIMALITY_TOL = 1e-8
#: Payoffs within this of the minimum tie for the worst case.
TIE_TOL = 1e-10


def as_payoff_matrix(matrix) -> np.ndarray:
    """Validate and return a payoff matrix as a 2-D float array.

    A scalar becomes a 1x1 matrix.  Every entry must be a finite and
    strictly positive real number.
    Raises DimensionMismatch unless ``matrix`` is a nonempty matrix with
    rows of equal length, and NonPositiveEntry for any other bad entry.
    """
    try:
        a = np.asarray(matrix)
    except ValueError:
        # Only a ragged nesting of sequences is refused before any entry is read.
        raise DimensionMismatch("expected a matrix, got rows of different lengths") from None
    if a.dtype.kind == "c":
        raise NonPositiveEntry("payoff entries must be real numbers")
    try:
        a = np.atleast_2d(np.asarray(a, dtype=float))
    except OverflowError:
        # An int past the float range.
        raise NonPositiveEntry("payoff entries must be finite") from None
    except (TypeError, ValueError):
        raise NonPositiveEntry("payoff entries must be real numbers") from None
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonPositiveEntry("payoff entries must be finite")
    if np.any(a <= 0.0):
        i, j = np.unravel_index(int(np.argmin(a)), a.shape)
        raise NonPositiveEntry(f"payoff entry ({i}, {j}) = {a[i, j]:g} is not positive")
    return a


def _unit_scaled(H) -> tuple[np.ndarray, int]:
    """``(H * 2**-k, k)`` with ``k`` chosen so the largest entry lies in [0.5, 1).

    ``H`` is nonnegative with a positive entry: a payoff matrix that
    ``as_payoff_matrix`` accepted, or a strategy checked to be one, so
    its largest entry is its largest magnitude.  Scaling by a power of
    two is exact, and the game's strategies do not change while its
    value scales by ``2**-k``, so the tolerances of either route act on
    the same numbers whatever the scale of ``H``.
    """
    k = math.frexp(float(H.max()))[1]
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
    x, y, dual = _solve_packing(H)
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
    from one LU factorisation by ``_inverse_sums``), both
    nonnegative, the ratio is ``sum(x)`` and the strategies are the
    normalized vectors.  Components in ``[-PIVOT_TOL, 0)`` are rounding
    noise and clipped to zero; anything more negative means this route
    does not apply and the caller must fall back to solve_game_lp.

    Raises DimensionMismatch unless ``H`` is a nonempty matrix with rows
    of equal length, NonPositiveEntry if an entry is not a finite
    positive real number, SingularMatrixError if ``H`` is singular, and
    PreconditionViolated if ``H`` is not square or a component of the
    candidate solutions is genuinely negative.  ``unique`` is True iff
    every component of both candidates exceeds ``PIVOT_TOL``.

    The inverse is taken of ``H`` scaled by the power of two that brings
    its largest magnitude into [0.5, 1), and the ratio and value are
    scaled back exactly, so ``PIVOT_TOL`` does not depend on the
    magnitude of ``H``.
    """
    H = as_payoff_matrix(H)
    m, n = H.shape
    if m != n:
        raise PreconditionViolated(f"closed form needs a square matrix, got {m}x{n}")
    H, k = _unit_scaled(H)
    x, y = _inverse_sums(H)
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
    ``"lp"``.  Each route runs its public function, which checks ``H``;
    the closed form refuses a non-square ``H`` as not applying.
    """
    try:
        return solve_game_closed_form(H), "closed-form"
    except (SingularMatrixError, PreconditionViolated):
        pass
    # Outside the handler, so an LP error does not carry the closed form's.
    return solve_game_lp(H), "lp"


def worst_case_columns(H, x) -> set[int]:
    """Columns attaining the minimum of ``x @ H`` (0-based indices).

    These index the adversary's worst-case pure strategies against the
    mixed row strategy ``x / sum(x)``.  All minimizers within
    ``TIE_TOL`` are returned, since an equalizing strategy ties on
    every column.  Raises ValueError if an entry of ``x`` is not finite.

    Ties are judged on ``H`` and ``x`` each scaled by the power of two
    that brings its largest magnitude into [0.5, 1), as in the two
    solution routes, so the answer does not depend on the scale of
    either.
    """
    H, _ = _unit_scaled(as_payoff_matrix(H))
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"x has length {x.shape[0]}, matrix has {H.shape[0]} rows")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite numbers")
    if np.any(x < 0.0) or not np.any(x > 0.0):
        raise PreconditionViolated("x must be nonnegative and nonzero")
    against = _unit_scaled(x)[0] @ H
    return set(np.flatnonzero(against <= against.min() + TIE_TOL).tolist())


def check_extreme_point(H, x, y, rows, cols) -> bool:
    """Verify an extreme-point certificate for optimal solutions x, y.

    ``rows`` and ``cols`` (0-based) select a square submatrix H'.  The
    certificate holds iff H' is nonsingular, the selected components of
    x and y solve ``x' H' = 1`` and ``H' y' = 1`` within
    ``FEASIBILITY_TOL``, and x and y vanish off the selected support.  A
    non-square selection is simply not a certificate and yields False.
    Raises DimensionMismatch if an index is not an integer (to
    ``operator.index``) or is out of range.

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
    try:
        rows = sorted(set(map(operator.index, rows)))
        cols = sorted(set(map(operator.index, cols)))
    except TypeError:
        raise DimensionMismatch("certificate indices must be integers") from None
    if any(i < 0 or i >= m for i in rows) or any(j < 0 or j >= n for j in cols):
        raise DimensionMismatch("certificate indices out of range")
    if len(rows) != len(cols) or not rows:
        return False
    sub = H[np.ix_(rows, cols)]
    try:
        _inverse_sums(sub)
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


def _inverse_sums(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x, y)`` with ``x = 1ᵀM⁻¹`` and ``y = M⁻¹1`` for a square ``M``.

    LU with partial pivoting, ``PM = LU``, in place on one copy of
    ``M`` bordered by a ones column and a ones row.  Step ``k`` first
    brings column ``k`` of ``L`` up to date, swaps the row with the
    largest remaining entry of that column into the pivot position,
    then brings row ``k`` of ``U`` up to date; both updates are one
    matrix-vector product with the finished part of the factors, so no
    step rewrites the trailing submatrix.  The border makes the ones
    column end as ``L⁻¹P1`` and the ones row as ``w`` with ``wU = 1ᵀ``;
    two back-substitutions then give ``Uy = L⁻¹P1`` and ``Lᵀ(Px) = w``.
    Raises SingularMatrixError as soon as the best available pivot
    magnitude drops below ``PIVOT_TOL``.

    ``matrix`` must be a nonempty square matrix of finite entries; its
    callers check that.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = m
    a[n, n] = 0.0
    perm = np.arange(n)
    for k in range(n):
        column = a[k:, k]
        column -= a[k:, :k] @ a[:k, k]
        pivot_row = k + int(np.abs(a[k:n, k]).argmax())
        pivot = a[pivot_row, k]
        if abs(pivot) < PIVOT_TOL:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below threshold {PIVOT_TOL:g} in column {k}"
            )
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            perm[[k, pivot_row]] = perm[[pivot_row, k]]
        multipliers = a[k + 1 :, k]
        multipliers /= pivot
        row = a[k, k + 1 :]
        row -= a[k, :k] @ a[:k, k + 1 :]

    y = np.empty(n)
    v = np.empty(n)
    for k in range(n - 1, -1, -1):
        y[k] = (a[k, n] - a[k, k + 1 : n] @ y[k + 1 :]) / a[k, k]
        v[k] = a[n, k] - a[k + 1 : n, k] @ v[k + 1 :]
    x = np.empty(n)
    x[perm] = v
    return x, y


# Single-phase simplex for the LP pair of a positive matrix game.
#
# For a payoff matrix ``H > 0`` the packing program
#
#     maximize 1.y   subject to   H y <= 1,   y >= 0
#
# is feasible at ``y = 0``, so the slack basis of the dense tableau
# ``[H | I | 1 ; -1 | 0 | 0]`` is a valid start and no phase one is
# needed.  At the optimum the reduced costs of the slack columns are the
# optimal dual prices, which solve the covering program
#
#     minimize 1.x   subject to   x H >= 1,   x >= 0
#
# (Chvátal, *Linear Programming*, 1983), so one tableau yields both
# solutions.  Pivot selection follows Bland's rule (lowest eligible
# column enters; ratio-test ties broken by the lowest basic variable
# index), which excludes cycling, so the iteration cap is a pure safety
# net.  No attempt is made at sparsity or scaling.
#
# Each pivot runs in place on buffers allocated once per solve: the
# entering column is the first ``True`` of one comparison, the ratio test
# divides only the blocking rows into an inf-filled buffer, the basis is
# consulted only when the ratio test ties, and the update writes
# ``outer(factors, pivot row)`` into one scratch matrix and subtracts it
# from the tableau.  These are the elementwise IEEE operations of the
# textbook pivot on the same operands, with no BLAS call, so the pivot
# path and every bit of the result are those of ``T -= np.outer(...)``.


def _solve_packing(H):
    """Solve ``max 1.y s.t. H y <= 1`` and its dual on one tableau.

    Returns ``(x, y, objective)``: ``y`` is read from the final basis,
    ``x`` from the reduced costs of the slacks, and ``objective`` is the
    optimal ``1.y``.  ``H`` must be a nonempty 2-D matrix, which
    solve_primal_dual checks.  Raises NumericalFailure if the pivots
    stall (no blocking row or the iteration cap), which a positive ``H``
    never causes.
    """
    H = np.asarray(H, dtype=float)
    m, n = H.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = H
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[-1, :n] = -1.0
    basis = np.arange(n, n + m)
    _pivot_until_optimal(T, basis, PIVOTS_PER_LINE * (2 * m + n + 10))

    y = np.zeros(n + m)
    y[basis] = T[:m, -1]
    x = np.maximum(T[-1, n : n + m], 0.0)
    return x, np.maximum(y[:n], 0.0), float(T[-1, -1])


def _pivot_until_optimal(T, basis, max_iter):
    m = T.shape[0] - 1
    cost, rhs, columns = T[-1, :-1], T[:m, -1], T.T
    entering = np.empty(cost.shape, dtype=bool)
    blocking = np.empty(m, dtype=bool)
    ties = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    factors = np.empty(m + 1)
    factors_column = factors[:, None]
    update = np.empty_like(T)
    for _ in range(max_iter):
        # Bland: the lowest eligible column enters.
        enter = int(np.less(cost, -FEASIBILITY_TOL, out=entering).argmax())
        if not entering[enter]:
            return
        col = columns[enter, :m]
        np.greater(col, FEASIBILITY_TOL, out=blocking)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=blocking)
        # The first minimum is the leaving row unless another row ties with it.
        leave = int(ratios.argmin())
        rmin = ratios[leave]
        if rmin == np.inf and not blocking.any():
            raise NumericalFailure(f"entering column {enter} has no blocking row")
        np.less_equal(ratios, rmin + FEASIBILITY_TOL * (1.0 + abs(rmin)), out=ties)
        if np.count_nonzero(ties) != 1:
            tied = np.flatnonzero(ties)
            leave = int(tied[np.argmin(basis[tied])])  # Bland tie-break
        # Pivot on (leave, enter): T -= outer(factors, prow), in place.
        prow = T[leave]
        prow /= prow[enter]
        np.copyto(factors, columns[enter])
        factors[leave] = 0.0
        np.multiply(factors_column, prow, out=update)
        np.subtract(T, update, out=T)
        columns[enter] = 0.0
        prow[enter] = 1.0
        basis[leave] = enter
    raise NumericalFailure(f"simplex did not terminate within {max_iter} pivots")
