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
"""

import numpy as np

from .errors import NumericalFailure

#: Pivot cap per tableau row and column; unreachable under Bland's rule.
PIVOTS_PER_LINE = 200


def solve_packing(H, tol: float = 1e-9):
    """Solve ``max 1.y s.t. H y <= 1`` and its dual on one tableau.

    Returns ``(x, y, objective)``: ``y`` is read from the final basis,
    ``x`` from the reduced costs of the slacks, and ``objective`` is the
    optimal ``1.y``.  Raises ValueError unless ``H`` is a nonempty 2-D
    matrix, and NumericalFailure if the pivots stall (no blocking row,
    the iteration cap, or a ``tol`` so large that no pivot is taken),
    which a positive ``H`` with a small ``tol`` never causes.
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
    _pivot_until_optimal(T, basis, tol, PIVOTS_PER_LINE * (2 * m + n + 10))
    if not T[-1, -1] > 0.0:
        # A positive H has a positive optimum.  Every initial reduced
        # cost is -1, so a tol of 1 or more stops before any pivot.
        raise NumericalFailure(f"tolerance {tol:g} left the objective at {T[-1, -1]:g}")

    y = np.zeros(n + m)
    y[basis] = T[:m, -1]
    x = np.maximum(T[-1, n : n + m], 0.0)
    return x, np.maximum(y[:n], 0.0), float(T[-1, -1])


def _pivot(T, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _pivot_until_optimal(T, basis, tol, max_iter):
    m = T.shape[0] - 1
    for _ in range(max_iter):
        negative = np.flatnonzero(T[-1, :-1] < -tol)
        if negative.size == 0:
            return
        enter = int(negative[0])  # Bland: lowest eligible index
        col = T[:m, enter]
        blocking = col > tol
        if not blocking.any():
            raise NumericalFailure(f"entering column {enter} has no blocking row")
        ratios = np.full(m, np.inf)
        ratios[blocking] = T[:m, -1][blocking] / col[blocking]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + tol * (1.0 + abs(rmin)))
        leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise NumericalFailure(f"simplex did not terminate within {max_iter} pivots")
