"""The scalar closed forms against their exact rational values, in ulps."""

import pytest

import exact
from buyhold import MarketParams, bal_ratio, da_ratio, det_K_closed_form, preset_bounds
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
