"""Row and column sums of a matrix inverse from one LU factorisation."""

import numpy as np

from .errors import DimensionMismatch, SingularMatrixError

#: Pivot magnitudes below this are treated as zero (matrix singular).
PIVOT_TOL = 1e-12


def inverse_sums(matrix) -> tuple[np.ndarray, np.ndarray]:
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
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

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
