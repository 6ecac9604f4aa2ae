"""Single-phase simplex for the LP pair of a positive matrix game.

For a payoff matrix ``H > 0`` the packing program

    maximize 1.y   subject to   H y <= 1,   y >= 0

is feasible at ``y = 0``, so the slack basis of the dense tableau
``[H | I | 1 ; -1 | 0 | 0]`` is a valid start and no phase one is
needed.  At the optimum the reduced costs of the slack columns are the
optimal dual prices, which solve the covering program

    minimize 1.x   subject to   x H >= 1,   x >= 0

(Chvátal, *Linear Programming*, 1983), so one tableau yields both
solutions.  Pivot selection follows Bland's rule (lowest eligible
column enters; ratio-test ties broken by the lowest basic variable
index), which excludes cycling, so the iteration cap is a pure safety
net.  No attempt is made at sparsity or scaling.

Each pivot runs in place on buffers allocated once per solve: the
entering column is the first ``True`` of one comparison, the ratio test
divides only the blocking rows into an inf-filled buffer, the basis is
consulted only when the ratio test ties, and the update writes
``outer(factors, pivot row)`` into one scratch matrix and subtracts it
from the tableau.  These are the elementwise IEEE operations of the
textbook pivot on the same operands, with no BLAS call, so the pivot
path and every bit of the result are those of ``T -= np.outer(...)``.
"""

import numpy as np

from .errors import NumericalFailure

#: Reduced costs, column entries and ratio-test gaps within this of
#: zero count as zero.
FEASIBILITY_TOL = 1e-9
#: Pivot cap per tableau row and column; unreachable under Bland's rule.
PIVOTS_PER_LINE = 200


def solve_packing(H):
    """Solve ``max 1.y s.t. H y <= 1`` and its dual on one tableau.

    Returns ``(x, y, objective)``: ``y`` is read from the final basis,
    ``x`` from the reduced costs of the slacks, and ``objective`` is the
    optimal ``1.y``.  Raises ValueError unless ``H`` is a nonempty 2-D
    matrix, and NumericalFailure if the pivots stall (no blocking row or
    the iteration cap), which a positive ``H`` never causes.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {H.shape}")
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
