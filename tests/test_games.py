import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from buyhold import (
    DimensionMismatch,
    NonPositiveEntry,
    NumericalFailure,
    PreconditionViolated,
    SingularMatrixError,
    check_extreme_point,
    solve_game,
    solve_game_closed_form,
    solve_game_lp,
    solve_primal_dual,
    worst_case_columns,
)
from buyhold import games
from buyhold.games import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    TIE_TOL,
    _pivot_until_optimal,
    as_payoff_matrix,
)
from buyhold.games import _inverse_sums as inverse_sums
from buyhold.games import _solve_packing as solve_packing
from buyhold.market import (
    MarketParams,
    bal_adversary,
    bal_ratio,
    bal_weights,
    payoff_matrix_K,
    preset_params,
)

SYM2 = np.array([[1.0, 0.5], [0.5, 1.0]])
# A positive 2x2 that is not Toeplitz, so not a downturn kernel: the tests
# that stub _inverse_sums need a game that reaches the LU.
NOT_K2 = np.array([[1.0, 0.5], [0.5, 0.8]])
K3 = payoff_matrix_K(MarketParams(2.0, 2.0, 3))


def is_mixed_strategy(weights, tol):
    """True iff ``weights`` is a probability vector, within ``tol`` on the sum."""
    w = np.asarray(weights, dtype=float).ravel()
    return w.size > 0 and bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= tol


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
    # Both routes read the game through as_payoff_matrix, so a zero entry is refused.
    for solve in (solve_game_closed_form, solve_game):
        with pytest.raises(NonPositiveEntry, match=r"entry \(0, 1\) = 0 is not positive"):
            solve(np.eye(2))


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


@pytest.mark.parametrize(
    "x, y, online, adversary",
    [
        # A component of -PIVOT_TOL is rounding noise, clipped to 0.
        pytest.param([1.0, -PIVOT_TOL], [1.0, 1.0], [1.0, 0.0], [0.5, 0.5], id="x-noise"),
        pytest.param([1.0, 1.0], [1.0, -PIVOT_TOL], [0.5, 0.5], [1.0, 0.0], id="y-noise"),
        # Only a negative component is clipped, so a -0.0 stays as it prints.
        pytest.param([1.0, -0.0], [-0.0, 1.0], [1.0, -0.0], [-0.0, 1.0], id="negative-zero"),
    ],
)
def test_closed_form_clips_only_negative_candidate_components(monkeypatch, x, y, online, adversary):
    monkeypatch.setattr(games, "_inverse_sums", lambda H: (np.array(x), np.array(y)))
    sol = solve_game_closed_form(NOT_K2)
    assert sol.online_strategy.tobytes() == np.array(online).tobytes()
    assert sol.adversary_strategy.tobytes() == np.array(adversary).tobytes()
    assert not sol.unique


@pytest.mark.parametrize(
    "x, y, unique",
    [
        ([1.0, PIVOT_TOL], [1.0, 1.0], False),
        ([1.0, 1.0], [1.0, PIVOT_TOL], False),
        ([1.0, 2.0 * PIVOT_TOL], [2.0 * PIVOT_TOL, 1.0], True),
    ],
    ids=["x-at-tol", "y-at-tol", "above-tol"],
)
def test_closed_form_unique_needs_every_component_above_pivot_tol(monkeypatch, x, y, unique):
    monkeypatch.setattr(games, "_inverse_sums", lambda H: (np.array(x), np.array(y)))
    assert solve_game_closed_form(NOT_K2).unique is unique


def test_closed_form_candidate_summing_to_zero_is_refused(monkeypatch):
    monkeypatch.setattr(games, "_inverse_sums", lambda H: (np.zeros(2), np.ones(2)))
    with pytest.raises(PreconditionViolated, match="sums to zero"):
        solve_game_closed_form(NOT_K2)


NOT_A_MATRIX = DimensionMismatch, "expected a nonempty 2-D matrix"
# The six public functions that take a game, each called on the game alone.
GAME_FUNCTIONS = (
    solve_game,
    solve_game_closed_form,
    solve_game_lp,
    solve_primal_dual,
    lambda H: worst_case_columns(H, [1.0]),
    lambda H: check_extreme_point(H, [1.0], [1.0], [0], [0]),
)


@pytest.mark.parametrize(
    "H, error, match",
    [
        pytest.param(np.ones((2, 2, 2)), *NOT_A_MATRIX, id="H0"),
        pytest.param(np.zeros((0, 0)), *NOT_A_MATRIX, id="H1"),
        pytest.param(np.zeros((2, 0)), *NOT_A_MATRIX, id="H2"),
        pytest.param([], *NOT_A_MATRIX, id="H3"),
        pytest.param([[1, 2], [1]], DimensionMismatch, "rows of different lengths", id="ragged"),
        pytest.param([[1.0, 2.0], 3.0], DimensionMismatch, "rows of different lengths", id="row-and-scalar"),
        pytest.param([[1 + 1j]], NonPositiveEntry, "real numbers", id="complex"),
        pytest.param(np.array([[2.0, 1.0 + 0j], [1.0, 2.0]]), NonPositiveEntry, "real numbers", id="complex-array"),
        pytest.param([["a", 1.0]], NonPositiveEntry, "real numbers", id="string"),
        pytest.param([[10**400]], NonPositiveEntry, "must be finite", id="int-past-float"),
        # A non-finite entry is named before a nonpositive one, wherever each is.
        pytest.param([[1.0, np.nan]], NonPositiveEntry, "^payoff entries must be finite$", id="nan"),
        pytest.param([[1.0, -np.inf]], NonPositiveEntry, "^payoff entries must be finite$", id="minus-inf"),
        pytest.param([[-1.0, np.nan]], NonPositiveEntry, "^payoff entries must be finite$", id="nan-beside-negative"),
        pytest.param([[0.0, np.inf]], NonPositiveEntry, "^payoff entries must be finite$", id="inf-beside-zero"),
        pytest.param(
            [[1.0, -0.0]], NonPositiveEntry, r"^payoff entry \(0, 1\) = -0 is not positive$", id="minus-zero"
        ),
    ],
)
def test_closed_form_rejects_a_non_matrix(H, error, match):
    # Every game function reads the game through as_payoff_matrix first, so
    # each refuses the same input with the same error.
    for solve in GAME_FUNCTIONS:
        with pytest.raises(error, match=match):
            solve(H)


def test_lp_route_validates_the_game_once():
    # solve_game reaches the LP route only through the public solve_game_lp,
    # and solve_game_lp and solve_primal_dual each check what they are given.
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    rectangular = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.4]]
    with mock.patch.object(games, "solve_game_lp", wraps=games.solve_game_lp) as route:
        for H in (dominated, rectangular):
            route.reset_mock()
            sol, name = solve_game(H)
            assert name == "lp"
            route.assert_called_once()
        route.reset_mock()
        assert solve_game(K3)[1] == "closed-form"
        route.assert_not_called()
    with mock.patch.object(games, "as_payoff_matrix", wraps=games.as_payoff_matrix) as check:
        for solve in (solve_game_lp, solve_primal_dual):
            check.reset_mock()
            solve(rectangular)
            assert check.call_count == 1
    want = solve_game_lp(rectangular)
    assert (sol.value, sol.ratio, sol.unique) == (want.value, want.ratio, want.unique)
    assert sol.online_strategy.tobytes() == want.online_strategy.tobytes()
    assert sol.adversary_strategy.tobytes() == want.adversary_strategy.tobytes()


def test_lp_error_after_a_fallback_carries_no_closed_form_error():
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    failure = NumericalFailure("stub")
    with mock.patch.object(games, "solve_game_lp", side_effect=failure):
        with pytest.raises(NumericalFailure) as raised:
            solve_game(dominated)
    assert raised.value.__context__ is None


def test_solve_game_prefers_closed_form():
    sol, route = solve_game(K3)
    assert route == "closed-form"
    assert sol.unique


# The closed-form route recognises a downturn kernel exactly and answers it
# from the balanced strategy's closed forms, before the LU.


def _lu_must_not_run(H):
    raise AssertionError("the LU ran on a downturn kernel")


@pytest.mark.parametrize(
    "alpha, beta, n",
    [
        (2.0, 2.0, 2),
        (2.0, 2.0, 3),
        (1 / 0.93, 1.07, 21),
        (1 / 0.95, 1.3, 252),
        # Bounds past any circuit breaker: the entries are down to 1e-300.
        (1e300, 1e150, 2),
        (1e150, 1e100, 3),
    ],
)
def test_closed_form_answers_a_downturn_kernel_without_the_lu(monkeypatch, alpha, beta, n):
    params = MarketParams(alpha, beta, n)
    monkeypatch.setattr(games, "_inverse_sums", _lu_must_not_run)
    sol, route = solve_game(payoff_matrix_K(params))
    assert route == "closed-form" and sol.unique
    assert sol.online_strategy.tobytes() == bal_weights(params).tobytes()
    assert sol.adversary_strategy.tobytes() == bal_adversary(params).tobytes()
    assert sol.ratio == bal_ratio(params)
    assert sol.value == 1.0 / bal_ratio(params)
    assert not sol.online_strategy.flags.writeable and not sol.adversary_strategy.flags.writeable


def _nudged(H, i, j):
    H = H.copy()
    H[i, j] = np.nextafter(H[i, j], 1.0)
    return H


TAIPEI3 = payoff_matrix_K(preset_params("taipei", 3))
# Games that look like a downturn kernel and are not one.
NEAR_KERNELS = {
    # Toeplitz no more: H[1, 2] is off the diagonal of H[0, 1].
    "interior": _nudged(TAIPEI3, 1, 2),
    # Still Toeplitz, but the first row is no power sequence.
    "row-corner": _nudged(TAIPEI3, 0, 2),
    "column-corner": _nudged(TAIPEI3, 2, 0),
    # No unit corner.
    "twice": 2.0 * TAIPEI3,
    # Symmetric Toeplitz with a unit diagonal, but 0.3 is not 0.5 ** 2.
    "toeplitz": np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.5], [0.3, 0.5, 1.0]]),
}


def _taipei3_bytes(below):
    """The bytes of TAIPEI3 with ``below``, the float.hex of ``1.07 ** -1``, under its diagonal."""
    rows = (
        "0x1p+0 0x1.dc28f5c28f5c3p-1 0x1.bad42c3c9eecdp-1",
        f"{below} 0x1p+0 0x1.dc28f5c28f5c3p-1",
        f"0x1.bf335c69fc8e7p-1 {below} 0x1p+0",
    )
    return np.array([float.fromhex(entry) for row in rows for entry in row.split()]).tobytes()


# The float.hex of (value ratio, online strategy, adversary strategy) that the
# LU gives for each near kernel, and for TAIPEI3 itself when the kernel route
# refuses it.  At n = 3 these bits are the same under every OpenBLAS kernel,
# but TAIPEI3 is not the same on every host: numpy's np.power rounds
# 1.07 ** -1 to ...a2a with its AVX-512 loops and to the correctly rounded
# ...a2b without them.  So the set is chosen by TAIPEI3's own bytes.
NEAR_KERNEL_BITS = {
    _taipei3_bytes("0x1.de81323e34a2ap-1"): {
        "interior": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a2cp-2 0x1.0bf66e0e5af15p-5 0x1.ffffffffffff3p-2",
            "0x1.ffffffffffff9p-2 0x1.0bf66e0e5aea6p-5 0x1.de81323e34a32p-2",
        ),
        "row-corner": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a2cp-2 0x1.0bf66e0e5af49p-5 0x1.fffffffffffebp-2",
            "0x1.fffffffffffebp-2 0x1.0bf66e0e5af53p-5 0x1.de81323e34a2cp-2",
        ),
        "column-corner": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a25p-2 0x1.0bf66e0e5af1dp-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff3p-2 0x1.0bf66e0e5af1ap-5 0x1.de81323e34a2cp-2",
        ),
        "twice": (
            "0x1.de81323e34a2cp+0 0x1.11eb851eb851ep-1",
            "0x1.de81323e34a2cp-2 0x1.0bf66e0e5aee1p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff3p-2 0x1.0bf66e0e5af1ap-5 0x1.de81323e34a2cp-2",
        ),
        "toeplitz": (
            "0x1.3b13b13b13b14p-1 0x1.a000000000000p+0",
            "0x1.89d89d89d89d9p-2 0x1.d89d89d89d89ep-3 0x1.89d89d89d89d9p-2",
            "0x1.89d89d89d89d9p-2 0x1.d89d89d89d89ep-3 0x1.89d89d89d89d9p-2",
        ),
        "TAIPEI3": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a2cp-2 0x1.0bf66e0e5aee1p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff3p-2 0x1.0bf66e0e5af1ap-5 0x1.de81323e34a2cp-2",
        ),
    },
    _taipei3_bytes("0x1.de81323e34a2bp-1"): {
        "interior": (
            "0x1.de81323e34a2bp-1 0x1.11eb851eb851fp+0",
            "0x1.de81323e34a32p-2 0x1.0bf66e0e5ae70p-5 0x1.0000000000000p-1",
            "0x1.ffffffffffffep-2 0x1.0bf66e0e5ae10p-5 0x1.de81323e34a3fp-2",
        ),
        "row-corner": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a34p-2 0x1.0bf66e0e5aea5p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff1p-2 0x1.0bf66e0e5aea6p-5 0x1.de81323e34a3ap-2",
        ),
        "column-corner": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a2cp-2 0x1.0bf66e0e5aee1p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffffap-2 0x1.0bf66e0e5aee0p-5 0x1.de81323e34a2cp-2",
        ),
        "twice": (
            "0x1.de81323e34a2cp+0 0x1.11eb851eb851ep-1",
            "0x1.de81323e34a34p-2 0x1.0bf66e0e5aea5p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff9p-2 0x1.0bf66e0e5ae6dp-5 0x1.de81323e34a3ap-2",
        ),
        "toeplitz": (
            "0x1.3b13b13b13b14p-1 0x1.a000000000000p+0",
            "0x1.89d89d89d89d9p-2 0x1.d89d89d89d89ep-3 0x1.89d89d89d89d9p-2",
            "0x1.89d89d89d89d9p-2 0x1.d89d89d89d89ep-3 0x1.89d89d89d89d9p-2",
        ),
        "TAIPEI3": (
            "0x1.de81323e34a2cp-1 0x1.11eb851eb851ep+0",
            "0x1.de81323e34a34p-2 0x1.0bf66e0e5aea5p-5 0x1.ffffffffffffap-2",
            "0x1.ffffffffffff9p-2 0x1.0bf66e0e5ae6dp-5 0x1.de81323e34a3ap-2",
        ),
    },
}


def _near_kernel_bits(name):
    bits = NEAR_KERNEL_BITS.get(TAIPEI3.tobytes())
    assert bits is not None, f"no pinned set for TAIPEI3 = {[v.hex() for v in TAIPEI3.ravel().tolist()]}"
    return bits[name]


def _hex_solution(sol):
    return (
        f"{sol.value.hex()} {sol.ratio.hex()}",
        " ".join(map(float.hex, sol.online_strategy.tolist())),
        " ".join(map(float.hex, sol.adversary_strategy.tolist())),
    )


@pytest.mark.parametrize("name", sorted(NEAR_KERNELS))
def test_a_near_kernel_goes_to_the_lu(name):
    with mock.patch.object(games, "_inverse_sums", wraps=games._inverse_sums) as lu:
        sol, route = solve_game(NEAR_KERNELS[name])
    lu.assert_called_once()
    assert route == "closed-form" and sol.unique
    assert _hex_solution(sol) == _near_kernel_bits(name)


@pytest.mark.parametrize("H", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 5e-324], [5e-324, 1.0]], [[1.0]]])
def test_a_unit_corner_without_bounds_is_no_kernel(H):
    # No bound above 1 and below inf reads back, so no MarketParams is built
    # and the game is solved as any other, warnings as errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert games._downturn_kernel_solution(np.array(H)) is None
        solve_game(H)


def test_a_kernel_whose_closed_forms_miss_the_residual_goes_to_the_lu(monkeypatch):
    # A ratio off by twice FEASIBILITY_TOL leaves ratio * x K about that far
    # from 1, so the route refuses it and the LU answers, with the bits it
    # gives the unrecognised kernel; half of FEASIBILITY_TOL is accepted.
    monkeypatch.setattr("buyhold.params.bal_ratio", lambda p: bal_ratio(p) * (1.0 + 2.0 * FEASIBILITY_TOL))
    with mock.patch.object(games, "_inverse_sums", wraps=games._inverse_sums) as lu:
        sol, route = solve_game(TAIPEI3)
    lu.assert_called_once()
    assert route == "closed-form" and sol.unique
    assert _hex_solution(sol) == _near_kernel_bits("TAIPEI3")
    monkeypatch.setattr("buyhold.params.bal_ratio", lambda p: bal_ratio(p) * (1.0 + 0.5 * FEASIBILITY_TOL))
    monkeypatch.setattr(games, "_inverse_sums", _lu_must_not_run)
    assert solve_game(TAIPEI3)[0].ratio == bal_ratio(preset_params("taipei", 3)) * (1.0 + 0.5 * FEASIBILITY_TOL)


def test_the_kernel_residual_test_is_inclusive_at_feasibility_tol(monkeypatch):
    # With FEASIBILITY_TOL set to the route's own residual the closed forms
    # are accepted, and one float below it they are refused.
    params = preset_params("taipei", 21)
    K = payoff_matrix_K(params)
    ratio, x, y = bal_ratio(params), bal_weights(params), bal_adversary(params)
    residual = max(np.max(np.abs(ratio * (x @ K) - 1.0)), np.max(np.abs(ratio * (K @ y) - 1.0)))
    assert 0.0 < residual <= FEASIBILITY_TOL
    monkeypatch.setattr(games, "FEASIBILITY_TOL", residual)
    assert games._downturn_kernel_solution(K) is not None
    monkeypatch.setattr(games, "FEASIBILITY_TOL", np.nextafter(residual, 0.0))
    assert games._downturn_kernel_solution(K) is None


def test_a_game_that_is_not_a_kernel_does_not_load_params():
    # The route imports params past its scalar test, so a process that
    # solves only other games starts without it.
    script = (
        "import sys\n"
        "from buyhold import solve_game\n"
        "assert solve_game([[2.0, 1.0], [1.0, 3.0]])[1] == 'closed-form'\n"
        "assert solve_game([[1.0, 2.0, 0.5]])[1] == 'lp'\n"
        "assert 'buyhold.params' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(games.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# Each OpenBLAS core type with the CPU feature it needs; forcing one the CPU
# lacks would stop the process on an illegal instruction.
CORETYPES = {"Prescott": None, "Haswell": "AVX2", "SkylakeX": "AVX512F"}


def test_kernel_game_bits_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE forces one BLAS kernel for a process; the kernel route
    # makes no BLAS call for its answer, so every kernel prints the same bits.
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OpenBLAS core types are x86 kernels")
    from numpy._core._multiarray_umath import __cpu_features__ as features
    script = (
        "from buyhold import payoff_matrix_K, preset_params, solve_game\n"
        "for preset in ('taipei', 'tokyo', 'vienna', 'amsterdam'):\n"
        "    for n in (21, 252):\n"
        "        sol, route = solve_game(payoff_matrix_K(preset_params(preset, n)))\n"
        "        print(route, sol.value.hex(), sol.ratio.hex(), *map(float.hex, sol.online_strategy.tolist()),\n"
        "              *map(float.hex, sol.adversary_strategy.tolist()))\n"
    )
    outputs = {}
    for coretype, flag in CORETYPES.items():
        if flag is not None and not features.get(flag):
            continue
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": str(Path(games.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs[coretype] = done.stdout
    assert len(set(outputs.values())) == 1, sorted(outputs)
    assert next(iter(outputs.values())).count("closed-form") == 8


# numpy's AVX-512 dispatch targets.  NPY_DISABLE_CPU_FEATURES takes only
# targets that numpy dispatches to and that it runs in this process.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_kernel_game_bits_do_not_depend_on_numpys_simd_dispatch():
    # payoff_matrix_K's powers follow numpy's SIMD dispatch, so K itself may
    # differ by an ulp with the AVX-512 loops off (TAIPEI3 does).  The route
    # reads the bounds back from K and answers from them, so every preset
    # kernel is still recognised and solve_game gives the same bits.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = " ".join(name for name in AVX512_TARGETS if name in __cpu_dispatch__ and __cpu_features__.get(name))
    if not disabled:
        pytest.skip("numpy runs no AVX-512 loops in this process")
    script = (
        "from buyhold import CIRCUIT_BREAKERS, payoff_matrix_K, preset_params, solve_game\n"
        "for preset in sorted(CIRCUIT_BREAKERS):\n"
        "    for n in (2, 3, 21, 63, 252):\n"
        "        sol, route = solve_game(payoff_matrix_K(preset_params(preset, n)))\n"
        "        print(route, sol.unique, sol.value.hex(), sol.ratio.hex(), *map(float.hex, sol.online_strategy.tolist()),\n"
        "              *map(float.hex, sol.adversary_strategy.tolist()))\n"
    )
    outputs = []
    for features in (None, disabled):
        env = {**os.environ, "PYTHONPATH": str(Path(games.__file__).resolve().parents[1])}
        if features is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = features
        done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("closed-form True") == 7 * 5


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


@pytest.mark.parametrize(
    "H, x, expected",
    [
        # Column 1 pays 50% more, however small the payoffs.
        pytest.param(1e-12 * np.array([[1.0, 1.5]]), [1.0], {0}, id="small-payoffs"),
        # A near tie holds for the same strategy at any scale.
        pytest.param([[1.0, 1.0 + 1e-11]], [1.0], {0, 1}, id="unit-strategy"),
        pytest.param([[1.0, 1.0 + 1e-11]], [1e12], {0, 1}, id="large-strategy"),
        # The unscaled x @ H overflows to inf, with a RuntimeWarning.
        pytest.param([[1.0, 2.0], [2.0, 2.0]], [1e308, 1e308], {0}, id="overflow"),
        # x scales to 0.5, so column 1 pays 0.25 + TIE_TOL, rounded, which is the bound itself.
        pytest.param([[0.5, 2.0 * (0.25 + TIE_TOL)]], [1.0], {0, 1}, id="tie-at-the-tolerance"),
    ],
)
def test_worst_case_columns_ties_on_the_unit_scaled_game(H, x, expected):
    assert worst_case_columns(H, x) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_worst_case_columns_rejects_non_finite_x(bad):
    for x in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(ValueError, match="x must be finite"):
            worst_case_columns([[1.0, 2.0], [2.0, 1.0]], x)


def test_check_extreme_point():
    K2 = payoff_matrix_K(MarketParams(2.0, 2.0, 2))
    x = np.array([2.0 / 3.0, 2.0 / 3.0])
    assert check_extreme_point(K2, x, x, [0, 1], [0, 1])
    assert check_extreme_point(K2, x, x, np.arange(2), [np.int32(0), np.int64(1)])
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


@pytest.mark.parametrize("rows, cols", [([0, 2], [0, 1]), ([0, 1], [0, 2])], ids=["row", "column"])
def test_check_extreme_point_index_at_the_count_is_out_of_range(rows, cols):
    # For a 2x2 game, index 2 is the first one past the end.
    x = np.array([2.0 / 3.0, 2.0 / 3.0])
    with pytest.raises(DimensionMismatch, match="out of range"):
        check_extreme_point(SYM2, x, x, rows, cols)


@pytest.mark.parametrize(
    "rows, cols", [([0.7], [0.2]), ([0], [0.0]), (["0"], [0]), ([np.float64(0.0)], [0]), (0, [0])]
)
def test_check_extreme_point_refuses_non_integer_indices(rows, cols):
    # int() would read 0.7 and 0.2 as the certificate {0} x {0}, which holds here.
    with pytest.raises(DimensionMismatch, match="integers"):
        check_extreme_point([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0], [1.0, 0.0], rows, cols)


def test_check_extreme_point_rejects_nan():
    nan = float("nan")
    assert not check_extreme_point(SYM2, [nan, nan], [nan, nan], [0, 1], [0, 1])
    # NaN off the support, where the certificate wants zeros.
    assert not check_extreme_point(SYM2, [1.0, nan], [1.0, 0.0], [0], [0])


@pytest.mark.parametrize("lam", [1e-13, 1e13])
def test_check_extreme_point_scale_free(lam):
    # The certificate of SYM2 (x = y = (2/3, 2/3)) holds for lam * SYM2 with x/lam, y/lam.
    x = np.array([2.0 / 3.0, 2.0 / 3.0]) / lam
    assert check_extreme_point(lam * SYM2, x, x, [0, 1], [0, 1])
    # On the support {0} x {0}, x = y = (1/lam, 0) is a certificate, and an
    # off-support component of 1e-3 of the support's value is not zero.
    one = np.array([1.0, 0.0]) / lam
    assert check_extreme_point(lam * SYM2, one, one, [0], [0])
    assert not check_extreme_point(lam * SYM2, one + [0.0, 1e-3 / lam], one, [0], [0])


@pytest.mark.parametrize(
    "H, x",
    [
        # The game is scaled by 1/4 and x by 4, so 1e308 becomes inf.
        pytest.param([[1.0, 2.0], [2.0, 1.0]], [1e308, 1.0], id="scaled-entry"),
        # The game is already unit-scaled, and x' H' overflows.
        pytest.param([[0.9, 0.95], [0.95, 0.9]], [1e308, 1e308], id="product"),
        # The scaled entries are inf and -inf, so x' H' is NaN.
        pytest.param([[1.0, 2.0], [2.0, 1.0]], [1e308, -1e308], id="inf-minus-inf"),
    ],
)
def test_check_extreme_point_entry_past_float_range_is_no_certificate(H, x):
    # H' is nonsingular, so every solution of x' H' = 1 is far inside the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not check_extreme_point(H, x, x, [0, 1], [0, 1])


def test_check_extreme_point_off_support_at_the_tolerance():
    # The largest entry is 0.75, so the game and x, y are read unscaled.
    H = [[0.5, 0.75], [0.75, 0.5]]
    assert check_extreme_point(H, [2.0, FEASIBILITY_TOL], [2.0, 0.0], [0], [0])
    assert check_extreme_point(H, [2.0, 0.0], [2.0, FEASIBILITY_TOL], [0], [0])
    above = np.nextafter(FEASIBILITY_TOL, 1.0)
    assert not check_extreme_point(H, [2.0, above], [2.0, 0.0], [0], [0])
    assert not check_extreme_point(H, [2.0, 0.0], [2.0, above], [0], [0])


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


def test_duality_gap_raises(monkeypatch):
    # x = (1, 1) and y = (1/3, 1/3) are feasible for [[1, 2], [2, 1]],
    # but only y is optimal: sum(x) = 2 against sum(y) = 2/3.  The
    # tableau gets the matrix scaled by c, so the fake scales by 1/c.
    def feasible_with_gap(H):
        c = H[0, 0]
        return np.array([1.0, 1.0]) / c, np.array([1.0, 1.0]) / (3.0 * c), 2.0 / (3.0 * c)

    monkeypatch.setattr(games, "_solve_packing", feasible_with_gap)
    with pytest.raises(NumericalFailure, match="duality gap"):
        solve_primal_dual([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_constraint_residual_raises(monkeypatch, side):
    # The tableau gets [[0.5]], whose optimum is x = y = 2.  The fake misses
    # x H >= 1 (or H y <= 1) by 2e-8 and has no duality gap.
    low, high = 2.0 * (1.0 - 2e-8), 2.0 * (1.0 + 2e-8)
    x, y = (low, low) if side == "primal" else (high, high)
    monkeypatch.setattr(games, "_solve_packing", lambda H: (np.array([x]), np.array([y]), y))
    with pytest.raises(NumericalFailure, match="violates its constraints by 2"):
        solve_primal_dual([[1.0]])


@pytest.mark.parametrize(
    "H, primal, accepted",
    [
        # The tableau gets [[0.5]] and sum(x) = 2, so the gap of 1e-8 lies
        # between OPTIMALITY_TOL / 2 and OPTIMALITY_TOL * 2.
        pytest.param([[1.0]], 2.0, True, id="accepted"),
        # [[1 - 2**-53]] is not rescaled, and x = 1 - 9e-9 meets x H >= 1 within
        # OPTIMALITY_TOL, so sum(x) < 1 and the gap lies above OPTIMALITY_TOL * sum(x).
        pytest.param([[np.nextafter(1.0, 0.0)]], 1.0 - 9e-9, False, id="refused"),
    ],
)
def test_duality_gap_is_relative_to_the_ratio(monkeypatch, H, primal, accepted):
    dual = primal - 1e-8
    gap = primal - dual
    low, high = sorted((OPTIMALITY_TOL * primal, OPTIMALITY_TOL / primal))
    assert low < gap < high
    monkeypatch.setattr(games, "_solve_packing", lambda H: (np.array([primal]), np.array([dual]), dual))
    if accepted:
        assert solve_primal_dual(H).primal_objective == 1.0
    else:
        with pytest.raises(NumericalFailure, match="duality gap"):
            solve_primal_dual(H)


def test_duality_gap_at_the_tolerance_is_accepted(monkeypatch):
    # OPTIMALITY_TOL * primal is a multiple of primal's ulp here, so the gap can equal it.
    primal, dual = float.fromhex("0x1.333333bf89d00p+0"), float.fromhex("0x1.3333338bffac3p+0")
    assert primal - dual == OPTIMALITY_TOL * primal
    monkeypatch.setattr(games, "_solve_packing", lambda H: (np.array([primal]), np.array([dual]), dual))
    # [[1/primal]] is unit-scaled already, and x = primal meets x H >= 1.
    assert solve_primal_dual([[1.0 / primal]]).primal_objective == primal


def test_scale_covariance():
    rng = np.random.default_rng(42)
    H = rng.uniform(0.5, 3.0, size=(5, 7))
    base = solve_game_lp(H)
    # At 3e-8 the ratio is about 2e7 and its rounding gap is 1.5e-8, so
    # the duality gap must be checked relative to the ratio.  The last
    # scale puts the largest entry near 1e300.
    for lam in (0.25, 3.0, 3e-8, 2.0**40, 2.0**-40, 1e9, 1e-9, 0.99e300 / H.max()):
        scaled = solve_game_lp(lam * H)
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
        assert scaled.online_strategy == pytest.approx(base.online_strategy, abs=1e-8)
        assert scaled.adversary_strategy == pytest.approx(base.adversary_strategy, abs=1e-8)
        if np.log2(lam).is_integer():
            # A power-of-two scale is exact, and so is the solution.
            assert scaled.value == lam * base.value and scaled.ratio == base.ratio / lam
            assert np.array_equal(scaled.online_strategy, base.online_strategy)
            assert np.array_equal(scaled.adversary_strategy, base.adversary_strategy)


@pytest.mark.parametrize("lam", [2.0**40, 2.0**-40])
def test_closed_form_scale_covariance(lam):
    K = payoff_matrix_K(MarketParams(1 / 0.93, 1.07, 21))
    base, route = solve_game(K)
    scaled, scaled_route = solve_game(lam * K)
    assert route == scaled_route == "closed-form" and scaled.unique
    assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
    assert scaled.online_strategy == pytest.approx(base.online_strategy, abs=1e-12)
    assert scaled.adversary_strategy == pytest.approx(base.adversary_strategy, abs=1e-12)


@pytest.mark.parametrize("H", [[[1e-320]], [[1e-310, 2e-310, 1e-310], [2e-310, 1e-310, 1e-310]]])
def test_ratio_past_float_range_raises(H):
    # The value is below 1/sys.float_info.max, so its reciprocal overflows;
    # the first matrix takes the closed form, the second the LP.
    with pytest.raises(NumericalFailure, match="too small"):
        solve_game(H)


@pytest.mark.parametrize(
    "solve, H",
    [
        pytest.param(solve_game_lp, [[sys.float_info.max]], id="lp-1x1"),
        # Singular, so solve_game takes the LP route.
        pytest.param(lambda H: solve_game(H)[0], [[sys.float_info.max] * 2] * 2, id="solve-2x2"),
    ],
)
def test_value_near_the_largest_float_stays_finite(solve, H):
    # The ratio, 1/value, is subnormal; the value comes from the unit-scaled
    # ratio, so it does not overflow to inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(H)
    assert 0.0 <= sys.float_info.max - sol.value <= 2.0 * math.ulp(sys.float_info.max)
    assert sol.ratio == pytest.approx(1.0 / sys.float_info.max, rel=1e-12)


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


# The LU kernel of the closed form: the column and row sums of an inverse.


def test_identity_roundtrip():
    x, y = inverse_sums(np.eye(3))
    assert np.array_equal(x, np.ones(3)) and np.array_equal(y, np.ones(3))


def test_two_by_two_hand_inverse():
    # adjugate of [[.5, 1.5], [1, 2]] over its determinant -0.5 is
    # [[-4, 3], [2, -1]]: column sums (-2, 2), row sums (-1, 1).  The
    # larger first-column entry sits in row 2, so the rows are swapped.
    x, y = inverse_sums([[0.5, 1.5], [1.0, 2.0]])
    assert np.abs(x - [-2.0, 2.0]).max() <= 1e-12
    assert np.abs(y - [-1.0, 1.0]).max() <= 1e-12


def test_downturn_kernel_residual():
    K = payoff_matrix_K(MarketParams(2.0, 2.0, 3))
    x, y = inverse_sums(K)
    assert np.abs(x @ K - 1.0).max() <= 1e-9 * 3
    assert np.abs(K @ y - 1.0).max() <= 1e-9 * 3


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
def test_residual_well_conditioned_random(n):
    rng = np.random.default_rng(n)
    m = rng.uniform(-1.0, 1.0, size=(n, n)) + n * np.eye(n)
    x, y = inverse_sums(m)
    assert np.abs(x @ m - 1.0).max() <= 1e-9 * n
    assert np.abs(m @ y - 1.0).max() <= 1e-9 * n


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_sums([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        inverse_sums([[0.0]])
    # Nonsingular in exact arithmetic, but the second pivot (1e-13) is
    # below PIVOT_TOL.
    with pytest.raises(SingularMatrixError):
        inverse_sums([[1.0, 1.0], [1.0, 1.0 + 1e-13]])


def test_pivot_at_the_threshold_is_kept():
    # Only a pivot below PIVOT_TOL is singular.
    x, y = inverse_sums([[PIVOT_TOL]])
    assert x.tolist() == y.tolist() == [1.0 / PIVOT_TOL]


# The single-tableau simplex of the LP route.


def test_maximization_via_negation():
    # max y1 + y2 s.t. y1 + y2/2 <= 1, y1/2 + y2 <= 1.
    x, y, obj = solve_packing([[1.0, 0.5], [0.5, 1.0]])
    assert obj == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert y == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)
    assert x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)


TIE_GAMES_ONLINE = [
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]),
    ([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]], [0.5, 0.0, 0.5]),
    ([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]], [0.5, 0.5]),
]


def test_degenerate_instance_terminates():
    # Duplicate rows or columns tie the ratio test; Bland's tie-break
    # must still reach the optimum with zero duality gap.
    for H, online in TIE_GAMES_ONLINE:
        x, y, obj = solve_packing(H)
        H = np.array(H)
        assert x / x.sum() == pytest.approx(online, abs=1e-12)
        assert x.sum() == pytest.approx(obj, abs=1e-12)
        assert (x @ H).min() == pytest.approx(1.0, abs=1e-12)
        assert (H @ y).max() == pytest.approx(1.0, abs=1e-12)


# float.hex of (x, y, objective) as the textbook pivot, a fresh
# ``T - np.outer(factors, pivot_row)`` per step, computes them.  The
# tableau update is elementwise IEEE arithmetic with no BLAS call, so
# these bits hold on every platform.
PINNED_BITS = {
    "tie0": (
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0",
    ),
    "tie1": (
        "0x1.5555555555555p-2 0x0.0p+0 0x1.5555555555556p-2",
        "0x1.5555555555556p-2 0x1.5555555555555p-2",
        "0x1.5555555555555p-1",
    ),
    "tie2": (
        "0x1.5555555555555p-2 0x1.5555555555556p-2",
        (
            "0x1.5555555555556p-2 0x1.5555555555555p-2 0x0.0p+0 "
            "0x0.0p+0"
        ),
        "0x1.5555555555555p-1",
    ),
    "seeded_12x20": (
        (
            "0x0.0p+0 0x1.6f504100e4723p-3 0x1.2e119a5a8dddfp-2 "
            "0x0.0p+0 0x1.18391ea7264dap-3 0x1.4ab00983e9291p-2 "
            "0x0.0p+0 0x0.0p+0 0x1.87e0e6922aa44p-4 "
            "0x0.0p+0 0x1.cfbb16197ffc5p-5 0x1.12f8a229e1f86p-2"
        ),
        (
            "0x1.d3b6f52e0f1a4p-3 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.a07405a251d16p-5 0x0.0p+0 "
            "0x1.23b08a906a0e0p-5 0x0.0p+0 0x1.1c83b51900a3cp-2 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.139509cb183e6p-2 "
            "0x0.0p+0 0x0.0p+0 0x1.dc6f57f1b0d65p-5 "
            "0x0.0p+0 0x1.bd67dbc46b027p-2"
        ),
        "0x1.5adba49106421p+0",
    ),
    "seeded_30x30": (
        (
            "0x1.0962eac051732p-3 0x0.0p+0 0x1.4b1f3792cb4efp-5 "
            "0x1.bcaba9c99e0dap-5 0x1.0a99141324e0dp-3 0x0.0p+0 "
            "0x1.8085c3747953fp-7 0x0.0p+0 0x1.f89e96687f35cp-5 "
            "0x1.4dd0061821e21p-3 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.4e3ece03a250ep-4 0x0.0p+0 "
            "0x0.0p+0 0x1.00790eb96eaaap-6 0x0.0p+0 "
            "0x1.30fee23d2796cp-2 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.1686e2bfa49ffp-4 0x0.0p+0 "
            "0x1.9f9151227b995p-4 0x0.0p+0 0x0.0p+0 "
            "0x1.3340b20466e20p-4 0x1.2dc82032122dep-4 0x0.0p+0"
        ),
        (
            "0x1.a08c893f1ec40p-6 0x1.63da3d1cee10ap-3 0x0.0p+0 "
            "0x1.b7838542c7b46p-4 0x1.4490f93036660p-10 0x1.956dd3f35e330p-3 "
            "0x0.0p+0 0x1.bcbe04b1e4691p-5 0x1.afcf8891e4595p-6 "
            "0x1.76c1f9bbddbc8p-3 0x1.0f2a49c9f2dc2p-2 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.8a9e263b6dee3p-3 "
            "0x0.0p+0 0x1.81fdbe6cde68ep-6 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.316a84d8f72bap-7 "
            "0x1.360e95dfc2c60p-9 0x0.0p+0 0x1.57e921acbc381p-5"
        ),
        "0x1.4dd571ee76988p+0",
    ),
    "basis_tie_4x3": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1",
        "0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0",
        "0x1.0000000000000p-1",
    ),
    "near_tie_5x4": (
        (
            "0x0.0p+0 0x1.af286bca1a9b5p-4 0x1.af286bca17d3fp-5 "
            "0x1.435e50d7951cbp-3 0x1.435e50d7942fbp-3"
        ),
        (
            "0x1.af286bca1d61dp-5 0x1.af286bca19ae4p-4 0x1.af286bca1d622p-4 "
            "0x1.af286bca19ae4p-3"
        ),
        "0x1.e50d79435e478p-2",
    ),
    "tol_tie_3x3": (
        "0x1.00000005276a0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.00000005276a0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.00000005276a0p+0",
    ),
}

PINNED_GAMES = {
    **{f"tie{k}": np.array(H) for k, (H, _) in enumerate(TIE_GAMES_ONLINE)},
    "seeded_12x20": np.random.default_rng(12).uniform(0.5, 1.0, size=(12, 20)),
    "seeded_30x30": np.random.default_rng(30).uniform(0.5, 1.0, size=(30, 30)),
    # A ratio-test tie whose lowest basic index is not its lowest row.
    "basis_tie_4x3": np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [3.0, 2.0, 2.0]]),
    # Ratios that tie only within FEASIBILITY_TOL.
    "near_tie_5x4": np.array(
        [
            [1.0, 1.0, 1.999999999999, 1.0],
            [2.999999999999, 2.999999999999, 1.000000000001, 2.000000000001],
            [0.999999999999, 1.000000000001, 2.000000000001, 3.0],
            [3.000000000001, 1.999999999999, 2.0, 2.0],
            [0.999999999999, 2.000000000001, 2.999999999999, 2.0],
        ]
    ),
    # Row 0's first ratio, 1 + 1.2e-9, is within FEASIBILITY_TOL * (1 + 1) of
    # row 1's, so the two tie and row 0, the lower basic index, leaves.
    "tol_tie_3x3": np.array([[1.0 / (1.0 + 1.2e-9), 2.0, 1.0], [1.0, 1.0, 2.0], [0.5, 1.5, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(PINNED_BITS))
def test_solutions_are_pinned_bit_for_bit(name):
    x, y, objective = solve_packing(PINNED_GAMES[name])
    got = (" ".join(map(float.hex, x.tolist())), " ".join(map(float.hex, y.tolist())), objective.hex())
    assert got == PINNED_BITS[name]


def test_entering_column_without_a_blocking_row_raises():
    # max y0 s.t. -y0 + s = 1: y0 enters with no positive entry, so it is unbounded.
    T = np.array([[-1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(NumericalFailure, match="entering column 0 has no blocking row"):
        _pivot_until_optimal(T, np.array([1]), 10)


def test_pivot_cap_raises():
    # max y0 s.t. y0 + s = 1 takes one pivot, and one more pass finds no entering column.
    T = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(NumericalFailure, match="did not terminate within 0 pivots"):
        _pivot_until_optimal(T.copy(), np.array([1]), 0)
    _pivot_until_optimal(T, np.array([1]), 2)
    assert T[-1, -1] == 1.0
