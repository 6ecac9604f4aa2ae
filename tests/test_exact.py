"""The closed forms and the two game routes against their exact rational values, in ulps."""

from fractions import Fraction

import numpy as np
import pytest

import exact
from buyhold import (
    MarketParams,
    bal_ratio,
    da_ratio,
    det_K_closed_form,
    payoff_matrix_K,
    preset_bounds,
    solve_game,
    solve_game_lp,
)
from buyhold import games
from buyhold.params import bal_weight_parts

PRESETS = ("taipei", "tokyo", "vienna", "amsterdam")
HORIZONS = (2, 21, 252, 5000)

# Each bound is the worst case measured over PRESETS x HORIZONS plus a margin:
# bal_ratio 1.69 and da_ratio 1.50 ulp, the three weights 0.96, 1.31 and 1.19.
RATIO_ULPS = 2.5
WEIGHT_ULPS = 2.0
# det_K_closed_form is a power of a rounded base, so its error grows with n.
# Measured: at most 0.62 ulp per factor (amsterdam, n = 21: 12.3 ulp), and
# 136.6 ulp at n = 252; at n = 5000 the determinant underflows to 0, exactly.
DET_ULPS_PER_FACTOR = 0.75


@pytest.mark.parametrize("n", HORIZONS)
@pytest.mark.parametrize("preset", PRESETS)
def test_closed_forms_within_their_ulp_bounds_of_the_exact_values(preset, n):
    alpha, beta = preset_bounds(preset)
    params = MarketParams(alpha, beta, n)
    assert exact.ulps(bal_ratio(params), exact.bal_ratio(alpha, beta, n)) <= RATIO_ULPS
    assert exact.ulps(da_ratio(params), exact.da_ratio(alpha, beta, n)) <= RATIO_ULPS
    for got, want in zip(bal_weight_parts(params), exact.bal_weight_parts(alpha, beta, n)):
        assert exact.ulps(got, want) <= WEIGHT_ULPS
    det = exact.ulps(det_K_closed_form(params), exact.det_K_closed_form(alpha, beta, n))
    assert det <= 1 + DET_ULPS_PER_FACTOR * (n - 1)


# solve_game(payoff_matrix_K) against the balanced strategy of the exact
# bounds.  The closed-form route recognises K and answers from bal_weight_parts
# and bal_ratio, with no BLAS call, so the bits are the same under the default,
# Prescott, Sandybridge, Haswell and SkylakeX kernels.  Measured worst cases
# over PRESETS x GAME_HORIZONS: ratio 1.31 ulp, value 1.78, strategies 1.37.
GAME_HORIZONS = (2, 21, 63, 252)
CLOSED_FORM_RATIO_ULPS = 2.0
CLOSED_FORM_STRATEGY_ULPS = 2.0


def _assert_kernel_game_within_bounds(alpha, beta, n):
    solution, route = solve_game(payoff_matrix_K(MarketParams(alpha, beta, n)))
    assert route == "closed-form"
    ratio = exact.bal_ratio(alpha, beta, n)
    first, interior, last = exact.bal_weight_parts(alpha, beta, n)
    assert exact.ulps(solution.ratio, ratio) <= CLOSED_FORM_RATIO_ULPS
    assert exact.ulps(solution.value, 1 / ratio) <= CLOSED_FORM_RATIO_ULPS
    # The adversary's mixture is the balanced weights with the ends swapped.
    for got, want in ((solution.online_strategy, [first, *[interior] * (n - 2), last]),
                      (solution.adversary_strategy, [last, *[interior] * (n - 2), first])):
        assert max(map(exact.ulps, got.tolist(), want)) <= CLOSED_FORM_STRATEGY_ULPS


@pytest.mark.parametrize("n", GAME_HORIZONS)
@pytest.mark.parametrize("preset", PRESETS)
def test_kernel_game_within_its_ulp_bounds_of_the_balanced_strategy(preset, n):
    _assert_kernel_game_within_bounds(*preset_bounds(preset), n)


# Drawn kernels, as the benchmark draws them: the seven whose bounds are not
# 1/K[0, 1] and 1/K[1, 0] but a neighbouring float, and the one whose LU
# strategies were furthest off the balanced weights (34,205 ulp).  Each takes
# the route with the LU stubbed out.
DRAWN_KERNELS = [
    (1.4970877024460094, 1.3687526436249493, 103),
    (1.4686410387146158, 1.087256093303222, 84),
    (1.4177463667629493, 1.3124265017516792, 88),
    (1.359061086317729, 1.3923909164185133, 50),
    (1.407746753534182, 1.4081240037414726, 43),
    (1.362857689515808, 1.3386167512854474, 55),
    (1.4714291302258409, 1.4778546060145836, 224),
    (1.002684142520145, 1.104122709571861, 134),
]


@pytest.mark.parametrize("alpha, beta, n", DRAWN_KERNELS)
def test_drawn_kernel_game_takes_the_route_within_its_ulp_bounds(monkeypatch, alpha, beta, n):
    def no_lu(H):
        raise AssertionError("the LU ran on a downturn kernel")

    monkeypatch.setattr(games, "_inverse_sums", no_lu)
    _assert_kernel_game_within_bounds(alpha, beta, n)


# solve_game_lp on one seeded uniform game of each shape from 3x3 to 8x6,
# against the exact solution on the float solution's support.  Measured worst
# cases, the same under every kernel above: ratio 4.69 ulp, value 3.42,
# online strategy 99.8, adversary 58.8.
LP_SHAPES = [(m, n) for m in range(3, 9) for n in range(3, 7)]
LP_RATIO_ULPS = 8.0
LP_STRATEGY_ULPS = 150


@pytest.mark.parametrize("seed", range(len(LP_SHAPES)))
def test_lp_route_within_its_ulp_bounds_of_the_exact_game(seed):
    m, n = LP_SHAPES[seed]
    H = np.random.default_rng(seed).uniform(0.1, 1.0, size=(m, n))
    solution = solve_game_lp(H)
    x, y = solution.online_strategy, solution.adversary_strategy
    rows, cols = np.flatnonzero(x).tolist(), np.flatnonzero(y).tolist()
    assert len(rows) == len(cols)
    # The support's square subsystem, solved exactly: x' H' = 1 and H' y' = 1.
    exact_H = [[Fraction(v) for v in row] for row in H.tolist()]
    square = [[exact_H[i][j] for j in cols] for i in rows]
    xs = exact.solve([list(column) for column in zip(*square)], [1] * len(rows))
    ys = exact.solve(square, [1] * len(cols))
    # Both are feasible on the whole game, so they are exactly optimal.
    assert min(xs) >= 0 and min(ys) >= 0
    assert min(sum(xi * exact_H[i][j] for xi, i in zip(xs, rows)) for j in range(n)) >= 1
    assert max(sum(exact_H[i][j] * yj for yj, j in zip(ys, cols)) for i in range(m)) <= 1
    ratio = sum(xs)
    assert exact.ulps(solution.ratio, ratio) <= LP_RATIO_ULPS
    assert exact.ulps(solution.value, 1 / ratio) <= LP_RATIO_ULPS
    assert max(exact.ulps(float(x[i]), xi / ratio) for xi, i in zip(xs, rows)) <= LP_STRATEGY_ULPS
    assert max(exact.ulps(float(y[j]), yj / ratio) for yj, j in zip(ys, cols)) <= LP_STRATEGY_ULPS
