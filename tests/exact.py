"""Exact rational values of the closed forms and of small games, as an oracle for the floats.

Every float is a rational number, so ``Fraction`` gives the true value
of each formula at the bounds a function is called with.  The formulas
are the paper's, written directly, with none of the rearrangements the
package makes to avoid cancellation and overflow in floats.  ``solve``
is a Gauss-Jordan elimination in ``Fraction``, for the square system a
game's optimal support defines.
"""

import math
from fractions import Fraction


def bal_weight_parts(alpha, beta, n):
    """``(first, interior, last)``: ``alpha*(beta-1)/D``, ``(alpha-1)*(beta-1)/D``, ``(alpha-1)*beta/D``."""
    a, b = Fraction(alpha), Fraction(beta)
    d = n * a * b - (n - 1) * (a + b) + (n - 2)
    return a * (b - 1) / d, (a - 1) * (b - 1) / d, (a - 1) * b / d


def bal_ratio(alpha, beta, n):
    """``(n*alpha*beta - (n-1)*(alpha+beta) + (n-2)) / (alpha*beta - 1)``."""
    a, b = Fraction(alpha), Fraction(beta)
    return (n * a * b - (n - 1) * (a + b) + (n - 2)) / (a * b - 1)


def da_ratio(alpha, beta, n):
    """``max(n*(1-1/g)/(1-g**-n))`` over ``g`` in ``alpha``, ``beta``."""
    return max(n * (1 - 1 / g) / (1 - g**-n) for g in (Fraction(alpha), Fraction(beta)))


def det_K_closed_form(alpha, beta, n):
    """``(1 - 1/(alpha*beta))**(n-1)``."""
    return (1 - 1 / (Fraction(alpha) * Fraction(beta))) ** (n - 1)


def solve(A, b):
    """The exact solution ``x`` of ``A @ x = b`` for a nonsingular square ``A``."""
    n = len(A)
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(A, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def ulps(got: float, exact: Fraction) -> float:
    """The distance from ``got`` to ``exact`` in units of the last place of ``exact``'s nearest float."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))
