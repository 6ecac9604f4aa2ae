import numpy as np
import pytest

from buyhold import (
    OPTIMALITY_TOL,
    DimensionMismatch,
    NonPositiveEntry,
    PreconditionViolated,
    as_payoff_matrix,
    check_extreme_point,
    is_mixed_strategy,
    solve_game,
    solve_game_closed_form,
    solve_game_lp,
    solve_primal_dual,
    worst_case_columns,
)
from buyhold.market import MarketParams, payoff_matrix_K

SYM2 = np.array([[1.0, 0.5], [0.5, 1.0]])
K3 = payoff_matrix_K(MarketParams(2.0, 2.0, 3))


def test_payoff_validation():
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[1.0, -2.0]])
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[np.inf]])
    assert as_payoff_matrix([1.0, 2.0]).shape == (1, 2)


def test_lp_one_by_one():
    sol = solve_game_lp([[1.0]])
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.ratio == pytest.approx(1.0, abs=1e-12)
    assert sol.online_strategy == pytest.approx([1.0], abs=1e-12)
    assert sol.adversary_strategy == pytest.approx([1.0], abs=1e-12)
    assert not sol.unique


def test_lp_symmetric_two():
    # Mixing evenly equalizes both columns at 0.75.
    sol = solve_game_lp(SYM2)
    assert sol.value == pytest.approx(0.75, abs=1e-10)
    assert sol.ratio == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.5, 0.5], abs=1e-10)
    assert sol.adversary_strategy == pytest.approx([0.5, 0.5], abs=1e-10)


def test_lp_downturn_kernel():
    sol = solve_game_lp(K3)
    assert sol.ratio == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)


def test_closed_form_symmetric_two():
    sol = solve_game_closed_form(SYM2)
    assert sol.ratio == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert sol.online_strategy == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.unique


def test_closed_form_identity():
    sol = solve_game_closed_form(np.eye(2))
    assert sol.ratio == pytest.approx(2.0, abs=1e-12)
    assert sol.online_strategy == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.unique


def test_closed_form_downturn_kernel():
    sol = solve_game_closed_form(K3)
    assert sol.ratio == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)
    assert sol.adversary_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)
    assert sol.unique


def test_closed_form_rejects_nonsquare_and_negative_candidates():
    with pytest.raises(PreconditionViolated):
        solve_game_closed_form([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4]])
    # Row 1 dominates row 2, so the inverse-based candidate has a
    # negative component and the route must refuse.
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    with pytest.raises(PreconditionViolated):
        solve_game_closed_form(dominated)
    sol, route = solve_game(dominated)
    assert route == "lp"
    assert sol.ratio == pytest.approx(1.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([1.0, 0.0], abs=1e-10)


def test_solve_game_prefers_closed_form():
    sol, route = solve_game(K3)
    assert route == "closed-form"
    assert sol.unique


def test_worst_case_columns():
    # Row-1 payoffs against the three columns are (1, 0.5, 0.25).
    assert worst_case_columns(K3, [1.0, 0.0, 0.0]) == {2}
    # The balanced strategy ties on every column.
    assert worst_case_columns(K3, [0.4, 0.2, 0.4]) == {0, 1, 2}
    assert worst_case_columns([[1.0]], [3.0]) == {0}
    with pytest.raises(PreconditionViolated):
        worst_case_columns(K3, [1.0, -0.5, 0.0])
    with pytest.raises(PreconditionViolated):
        worst_case_columns(K3, [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        worst_case_columns(K3, [1.0, 1.0])


def test_check_extreme_point():
    K2 = payoff_matrix_K(MarketParams(2.0, 2.0, 2))
    x = np.array([2.0 / 3.0, 2.0 / 3.0])
    assert check_extreme_point(K2, x, x, [0, 1], [0, 1])
    assert check_extreme_point([[1.0]], [1.0], [1.0], [0], [0])
    # A non-square support selection is simply not a certificate.
    assert not check_extreme_point(K2, [4.0 / 3.0, 0.0], x, [0], [0, 1])
    # Wrong values on the support fail the defining equations.
    assert not check_extreme_point(K2, [1.0, 1.0], x, [0, 1], [0, 1])
    # Nonzero components off the support disqualify the certificate.
    assert not check_extreme_point(K2, x, x, [0], [0])
    with pytest.raises(DimensionMismatch):
        check_extreme_point(K2, [1.0], x, [0, 1], [0, 1])
    with pytest.raises(DimensionMismatch):
        check_extreme_point(K2, x, x, [0, 5], [0, 1])


def test_check_extreme_point_singular_submatrix():
    H = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, 0.0])
    assert not check_extreme_point(H, [0.5, 0.5], [0.5, 0.5], [0, 1], [0, 1])


def _random_game(seed):
    rng = np.random.default_rng(1000 + seed)
    m, n = rng.integers(1, 9, size=2)
    return rng.uniform(0.1, 5.0, size=(int(m), int(n)))


# Games whose ratio test ties: duplicate rows and columns.
TIE_GAMES = {
    "ties-2x2": [[1.0, 1.0], [1.0, 1.0]],
    "ties-3x2": [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]],
    "ties-2x4": [[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]],
}


@pytest.mark.parametrize(
    "H",
    [pytest.param(_random_game(seed), id=str(seed)) for seed in range(12)]
    + [pytest.param(np.array(H), id=name) for name, H in TIE_GAMES.items()],
)
def test_duality_feasibility_and_saddle(H):
    lp = solve_primal_dual(H)
    assert abs(lp.primal_objective - lp.dual_objective) <= OPTIMALITY_TOL
    assert np.all(lp.x @ H >= 1.0 - 1e-9)
    assert np.all(H @ lp.y <= 1.0 + 1e-9)
    sol = solve_game_lp(H)
    assert sol.ratio * sol.value == pytest.approx(1.0, abs=1e-12)
    assert is_mixed_strategy(sol.online_strategy, tol=1e-9)
    assert is_mixed_strategy(sol.adversary_strategy, tol=1e-9)
    assert (sol.online_strategy @ H).min() >= sol.value - OPTIMALITY_TOL
    assert (H @ sol.adversary_strategy).max() <= sol.value + OPTIMALITY_TOL


def test_scale_covariance():
    rng = np.random.default_rng(42)
    H = rng.uniform(0.5, 3.0, size=(5, 7))
    base = solve_game_lp(H)
    for lam in (0.25, 3.0):
        scaled = solve_game_lp(lam * H)
        assert scaled.value == pytest.approx(lam * base.value, abs=1e-8)
        assert scaled.online_strategy == pytest.approx(base.online_strategy, abs=1e-8)
        assert scaled.adversary_strategy == pytest.approx(base.adversary_strategy, abs=1e-8)


def test_closed_form_agrees_with_lp_when_applicable():
    rng = np.random.default_rng(7)
    matched = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        H = rng.uniform(0.2, 2.0, size=(n, n)) + 2.0 * np.eye(n)
        try:
            cf = solve_game_closed_form(H)
        except PreconditionViolated:
            continue
        lp = solve_game_lp(H)
        assert cf.ratio == pytest.approx(lp.ratio, abs=1e-8)
        assert cf.online_strategy == pytest.approx(lp.online_strategy, abs=1e-8)
        assert cf.adversary_strategy == pytest.approx(lp.adversary_strategy, abs=1e-8)
        matched += 1
    assert matched >= 10
