import copy
import itertools
import math
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buyhold import (
    LengthMismatch,
    MarketParams,
    PreconditionViolated,
    bal_adversary,
    bal_ratio,
    bal_weights,
    da_ratio,
    da_weights,
    det_K_closed_form,
    downturns,
    evaluate_static,
    offline_optimum,
    payoff_matrix_K,
    preset_bounds,
    preset_params,
    solve_game_closed_form,
    static_ratio_via_downturns,
)
from buyhold.market import CIRCUIT_BREAKERS, _times_kernel, bal_weight_parts, downturn_rows
from buyhold.params import MAX_SQUARE_HORIZON

TAIPEI_ALPHA = 1.0 / 0.93
TAIPEI_BETA = 1.07

bounds = st.floats(min_value=1.0, max_value=10.0, exclude_min=True, allow_nan=False)
small_horizons = st.integers(min_value=2, max_value=60)
horizons = st.integers(min_value=2, max_value=200)


def dense_kernel(params):
    """The kernel as one elementwise power over the n x n gaps, the reference layout."""
    day = np.arange(params.n)
    gap = day[:, None] - day[None, :]
    return np.where(gap <= 0, float(params.alpha), float(params.beta)) ** -np.abs(gap)


def times_kernel_inverse(v, alpha, beta):
    """``v @ K^-1`` in O(n) from the tridiagonal inverse of the kernel.

    ``K^-1`` has ``-alpha`` on the sub-diagonal, ``-beta`` on the
    super-diagonal and ``alpha*beta + 1`` on the diagonal, except
    ``alpha*beta`` at the two corners, all divided by ``alpha*beta - 1``.
    """
    v = np.asarray(v, dtype=float)
    out = (alpha * beta + 1.0) * v
    out[[0, -1]] -= v[[0, -1]]
    out[1:] -= beta * v[:-1]
    out[:-1] -= alpha * v[1:]
    return out / (alpha * beta - 1.0)


def inverts(K, K_inv):
    """True iff ``|K @ K_inv - I| <= 8 eps |K| @ |K_inv|``, entry by entry.

    Rounding ``K``'s entries and the few operations of each ``K_inv``
    entry moves each product by a few eps of ``|K| @ |K_inv|``, so the
    bound holds however ill-conditioned ``K`` is.  A fixed bound cannot:
    with alpha and beta a few ulps above 1, cond(K) is about 7e15 and
    ``K @ K_inv - I`` reaches 0.5 even for the exact inverse rounded to
    floats.  Over 20,000 draws of alpha, beta in (1, 10] (a quarter of
    them within 50 ulps of 1) and n <= 60 the worst entry was 1.6 eps,
    so 8 leaves a margin of 5.  The wrong inverses that
    ``test_check_rejects_a_wrong_inverse`` builds reach 0.2 to 1 times
    ``|K| @ |K_inv|``.
    """
    residual = np.abs(K @ K_inv - np.eye(len(K)))
    return bool((residual <= 8 * np.finfo(float).eps * (np.abs(K) @ np.abs(K_inv))).all())


def admissible(params, rates, rel_tol=1e-12):
    """True iff each of the ``n`` rates is within ``[1/beta, alpha]`` times the one before.

    Day zero's rate is 1, and the interval is widened by the relative
    ``rel_tol`` to absorb floating-point drift.
    """
    e = np.asarray(rates, dtype=float).ravel()
    assert e.shape == (params.n,)
    prev = np.concatenate(([1.0], e[:-1]))
    lo, hi = prev / params.beta * (1.0 - rel_tol), prev * params.alpha * (1.0 + rel_tol)
    return bool(np.all((lo <= e) & (e <= hi)))


def all_rows(alpha, beta, n):
    """Every downturn sequence at once: the rise by products, each fall from its peak by quotients."""
    rise = list(itertools.accumulate(itertools.repeat(alpha, n), operator.mul))
    return [
        rise[:p] + list(itertools.accumulate(itertools.repeat(beta, n - 1 - p), operator.truediv, initial=peak))
        for p, peak in enumerate(rise)
    ]


def params_grid():
    return [
        MarketParams(2.0, 2.0, 3),
        MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 5),
        MarketParams(1.5, 3.0, 8),
    ]


class TestMarketParams:
    def test_rejects_bounds_at_or_below_one(self):
        for alpha, beta in [(1.0, 2.0), (0.5, 2.0), (2.0, 1.0), (2.0, 0.9)]:
            with pytest.raises(ValueError):
                MarketParams(alpha, beta, 3)

    @pytest.mark.parametrize("bad", ["3", None, [2.0], 2j])
    def test_rejects_bounds_that_are_not_numbers(self, bad):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            MarketParams(bad, 2.0, 3)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            MarketParams(2.0, bad, 3)

    def test_rejects_short_or_fractional_horizon(self):
        with pytest.raises(ValueError):
            MarketParams(2.0, 2.0, 1)
        with pytest.raises(ValueError):
            MarketParams(2.0, 2.0, 2.5)

    def test_horizon_takes_any_integer_type(self):
        assert MarketParams(2.0, 2.0, np.int64(3)).n == 3
        for bad in (True, "3", 3.0, None):
            with pytest.raises(ValueError):
                MarketParams(2.0, 2.0, bad)

    def test_positional_and_keyword_construction(self):
        params = MarketParams(2.0, 1.5, 4)
        assert (params.alpha, params.beta, params.n) == (2.0, 1.5, 4)
        assert MarketParams(alpha=2.0, beta=1.5, n=4) == params
        assert MarketParams(2.0, n=4, beta=1.5) == params
        with pytest.raises(TypeError):
            MarketParams(2.0, 1.5)

    def test_bounds_are_checked_before_the_horizon(self):
        with pytest.raises(ValueError, match="alpha"):
            MarketParams(0.5, 2.0, 1)
        with pytest.raises(ValueError, match="beta"):
            MarketParams(2.0, 0.5, 1)
        with pytest.raises(ValueError, match="horizon"):
            MarketParams(2.0, 2.0, 1)

    def test_fields_cannot_change(self):
        params = MarketParams(2.0, 1.5, 4)
        for name in ("alpha", "beta", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(params, name, 3)
            with pytest.raises(AttributeError):
                delattr(params, name)
        assert (params.alpha, params.beta, params.n) == (2.0, 1.5, 4)

    def test_equality_and_hash_over_the_fields(self):
        params = MarketParams(2.0, 1.5, 4)
        assert params == MarketParams(2.0, 1.5, 4)
        assert params == MarketParams(2.0, 1.5, np.int64(4))
        assert hash(params) == hash(MarketParams(2.0, 1.5, np.int64(4))) == hash((2.0, 1.5, 4))
        assert params != MarketParams(2.0, 1.5, 5)
        assert params != MarketParams(1.5, 2.0, 4)
        assert params != (2.0, 1.5, 4)
        assert len({params, MarketParams(2.0, 1.5, 4), MarketParams(2.0, 1.5, 5)}) == 2

    def test_repr_names_every_field(self):
        # Error messages embed this text.
        assert repr(MarketParams(2.0, 1.07, 21)) == "MarketParams(alpha=2.0, beta=1.07, n=21)"
        assert str(MarketParams(TAIPEI_ALPHA, 1.5, 3)) == f"MarketParams(alpha={TAIPEI_ALPHA!r}, beta=1.5, n=3)"

    @pytest.mark.parametrize("n", [21, np.int64(21)])
    def test_pickle_and_copy_round_trip(self, n):
        params = MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, n)
        for clone in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
            assert type(clone) is MarketParams and clone == params
            assert type(clone.n) is type(n)
            with pytest.raises(AttributeError):
                clone.n = 3

    @pytest.mark.parametrize(
        "function, args, got",
        [
            (bal_ratio, (None,), "NoneType"),
            (da_ratio, (None,), "NoneType"),
            (bal_weight_parts, (None,), "NoneType"),
            (bal_weights, (None,), "NoneType"),
            (bal_adversary, (None,), "NoneType"),
            (downturns, (None,), "NoneType"),
            (downturn_rows, (None,), "NoneType"),
            (payoff_matrix_K, (None,), "NoneType"),
            (det_K_closed_form, (None,), "NoneType"),
            (static_ratio_via_downturns, ([0.5, 0.5], None), "NoneType"),
            (bal_ratio, ((2.0, 2.0, 3),), "tuple"),
            (payoff_matrix_K, ({"alpha": 2.0, "beta": 2.0, "n": 3},), "dict"),
        ],
    )
    def test_params_of_the_wrong_type_rejected(self, function, args, got):
        with pytest.raises(TypeError) as err:
            function(*args)
        assert str(err.value) == f"{function.__name__} takes a MarketParams, got {got}"

    def test_presets_match_published_limits(self):
        expected = {
            "amsterdam": (0.90, 1.10),
            "bangkok": (0.90, 1.10),
            "paris": (0.95, 1.10),
            "taipei": (0.93, 1.07),
            "tel-aviv": (0.95, 1.10),
            "tokyo": (0.95, 1.30),
            "vienna": (0.95, 1.05),
        }
        for name, (floor, cap) in expected.items():
            alpha, beta = preset_bounds(name)
            assert alpha == pytest.approx(1.0 / floor, abs=1e-15)
            assert beta == pytest.approx(cap, abs=1e-15)
        with pytest.raises(KeyError):
            preset_bounds("zurich")

    def test_preset_params(self):
        assert preset_params("taipei", 21) == MarketParams(*preset_bounds("taipei"), 21)
        with pytest.raises(KeyError, match="unknown preset 'zurich'"):
            preset_params("zurich", 21)
        with pytest.raises(ValueError, match="horizon n must be an integer >= 2"):
            preset_params("taipei", 1)


class TestSequences:
    def test_validate_examples(self):
        p3 = MarketParams(2.0, 2.0, 3)
        assert admissible(p3, [2.0, 4.0, 2.0])
        p2 = MarketParams(2.0, 2.0, 2)
        assert admissible(p2, [1.0, 1.0])
        assert not admissible(p2, [3.0, 3.0])
        assert not admissible(p2, [2.0, 0.5])
        assert admissible(p2, [2.0, 1.0])

    def test_offline_optimum(self):
        assert offline_optimum([2.0, 4.0, 2.0]) == 4.0
        assert offline_optimum([1.0, 1.0]) == 1.0
        with pytest.raises(LengthMismatch):
            offline_optimum([])

    def test_offline_optimum_on_downturns(self):
        # The peak of the j-th downturn is the j-th rate, alpha**j.
        for params in params_grid():
            for j, seq in enumerate(downturns(params), start=1):
                assert offline_optimum(seq) == seq[j - 1]
                assert offline_optimum(seq) == pytest.approx(params.alpha**j, rel=1e-12)

    def test_evaluate_static(self):
        rates = [2.0, 4.0, 2.0]
        for i in range(3):
            once = np.zeros(3)
            once[i] = 1.0
            assert evaluate_static(once, rates) == rates[i]
        assert evaluate_static([0.4, 0.2, 0.4], rates) == pytest.approx(2.4, abs=1e-15)
        assert evaluate_static([0.5, 0.5], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(LengthMismatch):
            evaluate_static([1.0], rates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="rates must be finite"):
            offline_optimum([bad, 1.0])
        with pytest.raises(ValueError, match="weights must be finite"):
            evaluate_static([bad, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="rates must be finite"):
            evaluate_static([0.5, 0.5], [1.0, bad])


class TestDownturns:
    def test_frozen_values(self):
        seqs = downturns(MarketParams(2.0, 2.0, 3))
        assert [s.tolist() for s in seqs] == [
            [2.0, 1.0, 0.5],
            [2.0, 4.0, 2.0],
            [2.0, 4.0, 8.0],
        ]

    def test_two_day_shapes(self):
        params = MarketParams(3.0, 1.5, 2)
        fall, rise = downturns(params)
        assert fall == pytest.approx([3.0, 2.0], abs=1e-12)  # alpha, alpha/beta
        assert rise == pytest.approx([3.0, 9.0], abs=1e-12)  # alpha, alpha**2

    @pytest.mark.parametrize("alpha, beta", [(1e200, 2.0), (2.0, 1e200)])
    def test_rate_leaving_float_range_raises(self, alpha, beta):
        # A rise overflows to inf, or a fall underflows to 0, on day 2 or 3.
        with pytest.raises(PreconditionViolated, match="float range"):
            downturns(MarketParams(alpha, beta, 3))

    @pytest.mark.parametrize("n", [2, 3, 21, 100, 252])
    @pytest.mark.parametrize(
        "alpha, beta", [(2.0, 2.0), (TAIPEI_ALPHA, TAIPEI_BETA), (1.5, 1.1), (1.0001, 3.7)]
    )
    def test_matches_stepwise_loop_bit_for_bit(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        expected = []
        for j in range(1, n + 1):
            seq, value = [], 1.0
            for i in range(n):
                value = value * alpha if i < j else value / beta
                seq.append(value)
            expected.append(seq)
        got = downturns(params)
        assert len(got) == n
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_refuses_exactly_when_some_rate_leaves_the_float_range(self):
        # downturn_rows checks only the last rise and the first sequence's last
        # rate; the reference builds and looks at every rate.  alpha is drawn
        # log-uniform in (1, 1000], so alpha**n overflows in about a third of
        # the draws, and beta puts alpha / beta**(n-1) within 3 decades of the
        # smallest subnormal, 10**-323.5, so about half the rest underflow.
        # Over 4,000 draws of seed 1 the two never disagreed.
        rng = np.random.default_rng(26)
        verdicts = {"accepted": 0, "overflow": 0, "underflow": 0}
        for _ in range(150):
            n = int(rng.integers(2, 301))
            alpha = 1000.0 ** (1.0 - rng.random())
            beta = 10.0 ** min((np.log10(alpha) + 323.5 + rng.uniform(-3.0, 3.0)) / (n - 1), 308.0)
            expected = all_rows(alpha, beta, n)
            params = MarketParams(alpha, beta, n)
            rates = np.array(expected)
            if rates.max() == np.inf or rates.min() == 0.0:
                verdicts["overflow" if rates.max() == np.inf else "underflow"] += 1
                with pytest.raises(PreconditionViolated, match="float range"):
                    downturn_rows(params)
            else:
                verdicts["accepted"] += 1
                assert np.array_equal(downturns(params), rates)
        assert min(verdicts.values()) > 25, verdicts

    @pytest.mark.parametrize("alpha, beta", [(1e200, 2.0), (2.0, 1e200)], ids=["overflow", "underflow"])
    def test_rows_refuse_a_rate_out_of_range_at_the_call(self, alpha, beta):
        # A generator function would raise only at the first next().  The type
        # and the cap are checked at the call too, as the tests of every
        # MarketParams name and of every square builder show.
        with pytest.raises(PreconditionViolated, match="float range"):
            downturn_rows(MarketParams(alpha, beta, 3))

    def test_rows_are_one_pass(self):
        rows = downturn_rows(MarketParams(2.0, 2.0, 3))
        assert iter(rows) is rows
        assert [*rows] == [[2.0, 1.0, 0.5], [2.0, 4.0, 2.0], [2.0, 4.0, 8.0]]
        assert [*rows] == []

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=100, deadline=None)
    def test_always_admissible(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        for seq in downturns(params):
            assert admissible(params, seq)


class TestPayoffKernel:
    def test_frozen_values(self):
        K3 = payoff_matrix_K(MarketParams(2.0, 2.0, 3))
        assert K3.tolist() == [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        K2 = payoff_matrix_K(MarketParams(2.0, 2.0, 2))
        assert K2.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=60, deadline=None)
    def test_unit_diagonal_entries_in_unit_interval(self, alpha, beta, n):
        K = payoff_matrix_K(MarketParams(alpha, beta, n))
        assert np.all(np.diag(K) == 1.0)
        assert np.all((K > 0.0) & (K <= 1.0))

    def test_long_horizon_raises_no_warning(self):
        # 2.0**1074 overflows, so no entry may be formed as a positive power;
        # 2.0**-1074 is the smallest subnormal, so n = 1075 is the last horizon.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = payoff_matrix_K(MarketParams(2, 2, 1075))
        assert K[0, 0] == 1.0 and K[0, 1] == 0.5 and K[1, 0] == 0.5
        assert K[0, -1] == K[-1, 0] == 2.0**-1074
        with pytest.raises(PreconditionViolated, match=r"largest horizon .* is n = 1075$"):
            payoff_matrix_K(MarketParams(2, 2, 1100))

    def test_last_positive_horizon_past_the_log_estimate(self):
        # 1075 / log2(base) puts the last positive power at 27, but pow rounds
        # base**-28 up to the smallest subnormal, so n = 29 is the last horizon.
        base = 360912246850.17554
        K = payoff_matrix_K(MarketParams(base, base, 29))
        assert K[0, -1] == 5e-324
        with pytest.raises(PreconditionViolated, match=r"largest horizon .* is n = 29$"):
            payoff_matrix_K(MarketParams(base, base, 40))

    @pytest.mark.parametrize("preset", sorted(CIRCUIT_BREAKERS))
    def test_toeplitz_layout_matches_elementwise_powers_bit_for_bit(self, preset):
        alpha, beta = preset_bounds(preset)
        # An entry of the reference depends only on i - j, so the reference for
        # every n <= 1100 is the top-left block of the one for n = 1100.
        reference = dense_kernel(MarketParams(alpha, beta, 1100))
        for n in [*range(2, 301), 1000, 1100]:
            K = payoff_matrix_K(MarketParams(alpha, beta, n))
            assert K.flags.c_contiguous and K.flags.writeable
            assert np.array_equal(K, reference[:n, :n])

    @given(alpha=bounds, beta=bounds, n=horizons)
    @settings(max_examples=60, deadline=None)
    def test_drawn_bounds_match_elementwise_powers_bit_for_bit(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        assert np.array_equal(payoff_matrix_K(params), dense_kernel(params))

    @pytest.mark.parametrize(
        "alpha, beta, last",
        [(2.0, 2.0, 1075), (1.07, 1.5, 1838), (10.0, 1.1, 324), (1e200, 2.0, 2)],
    )
    def test_underflow_names_the_largest_positive_horizon(self, alpha, beta, last):
        # The larger bound underflows first; the corner holds its deepest power.
        K = payoff_matrix_K(MarketParams(alpha, beta, last))
        assert K.min() > 0.0
        with pytest.raises(PreconditionViolated, match=rf"is n = {last}$"):
            payoff_matrix_K(MarketParams(alpha, beta, last + 1))

    def test_underflow_message_matches_a_search_of_the_powers(self):
        # The search starts at the log estimate and steps up while the next
        # power stays positive, then down while the power is 0.  Bases are
        # drawn log-uniform in log2(base) from 0.27, a little above 1075/4095,
        # to 1000, so every one underflows at the cap.  Over 6,000 bases of
        # another seed the message and the search never disagreed.
        def last_positive_power(base):
            m = max(1, int(1075 / math.log2(base)))
            while np.float64(base) ** -(m + 1) > 0.0:
                m += 1
            while np.float64(base) ** -m == 0.0:
                m -= 1
            return m

        rng = np.random.default_rng(26)
        for k in range(300):
            base = 2.0 ** (0.27 * (1000 / 0.27) ** rng.random())
            other = 1.0 + (base - 1.0) * (1.0 - rng.random())
            params = MarketParams(*((base, other) if k % 2 else (other, base)), MAX_SQUARE_HORIZON)
            last = last_positive_power(base) + 1
            with pytest.raises(PreconditionViolated, match=rf"is n = {last}$"):
                payoff_matrix_K(params)

    def test_entries_are_trade_once_to_optimum_ratios(self):
        for params in params_grid():
            K = payoff_matrix_K(params)
            for j, seq in enumerate(downturns(params)):
                best = offline_optimum(seq)
                for i in range(params.n):
                    assert K[i, j] == pytest.approx(seq[i] / best, rel=1e-12)


@pytest.mark.parametrize("build", [downturn_rows, downturns, payoff_matrix_K])
@pytest.mark.parametrize("n", [MAX_SQUARE_HORIZON + 1, 10**9], ids=["cap+1", "1e9"])
def test_square_builders_refuse_a_horizon_past_the_cap_before_allocating(build, n):
    # Bounds this close to 1 keep every entry positive, so only the cap refuses.
    params = MarketParams(1.0000001, 1.0000001, n)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionViolated, match=f"exceeds MAX_SQUARE_HORIZON = {MAX_SQUARE_HORIZON}$"):
            build(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One row at n = 10**9 would be 8 GB.
    assert peak < 2**20


@pytest.mark.parametrize(
    "build",
    [
        lambda n: bal_weights(MarketParams(2.0, 2.0, n)),
        lambda n: bal_adversary(MarketParams(2.0, 2.0, n)),
        da_weights,
    ],
    ids=["bal_weights", "bal_adversary", "da_weights"],
)
@pytest.mark.parametrize("n", [MAX_SQUARE_HORIZON**2 + 1, 10**12], ids=["cap+1", "1e12"])
def test_vector_builders_refuse_a_horizon_past_the_cap_before_allocating(build, n):
    cap = MAX_SQUARE_HORIZON**2
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionViolated, match=rf"exceeds MAX_SQUARE_HORIZON \*\* 2 = {cap}$"):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The weights at n = 10**12 would be 7.28 TiB.
    assert peak < 2**20


def test_downturns_hold_their_rates_once():
    params = MarketParams(1.0000001, 1.0000001, 1000)
    tracemalloc.start()
    try:
        rows = downturns(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(row, expected) for row, expected in zip(rows, downturn_rows(params)))
    # Measured 7.79 MiB: the arrays, K's size, plus one row of Python floats.
    # Building every row's floats before the first array peaked at 19.2 MiB.
    assert peak < 9 * 2**20


class TestDeterminant:
    def test_frozen_values(self):
        assert det_K_closed_form(MarketParams(2.0, 2.0, 3)) == pytest.approx(0.5625, abs=1e-15)
        assert det_K_closed_form(MarketParams(2.0, 2.0, 2)) == pytest.approx(0.75, abs=1e-15)

    @given(alpha=bounds, beta=bounds, n=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_determinant(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        expected = det_K_closed_form(params)
        numeric = float(np.linalg.det(payoff_matrix_K(params)))
        assert numeric == pytest.approx(expected, rel=1e-8)


class TestBalanced:
    def test_frozen_weights(self):
        assert bal_weights(MarketParams(2.0, 2.0, 3)) == pytest.approx([0.4, 0.2, 0.4], abs=1e-15)
        assert bal_weights(MarketParams(2.0, 2.0, 2)) == pytest.approx([0.5, 0.5], abs=1e-15)
        # Hand-simplified first component for the taipei limits: 700/1449.
        w = bal_weights(MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 2))
        assert w[0] == pytest.approx(700.0 / 1449.0, abs=1e-12)

    def test_frozen_ratios(self):
        assert bal_ratio(MarketParams(2.0, 2.0, 2)) == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert bal_ratio(MarketParams(2.0, 2.0, 3)) == pytest.approx(5.0 / 3.0, abs=1e-14)
        # Hand-simplified for the taipei limits: 0.1449/0.14 = 1.035 exactly.
        assert bal_ratio(MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 2)) == pytest.approx(
            1.035, abs=1e-12
        )

    def test_adversary_swaps_ends(self):
        assert bal_adversary(MarketParams(2.0, 2.0, 3)) == pytest.approx(
            [0.4, 0.2, 0.4], abs=1e-15
        )
        params = MarketParams(2.0, 3.0, 2)
        b = bal_weights(params)
        assert bal_adversary(params) == pytest.approx([b[1], b[0]], abs=1e-15)

    @given(alpha=bounds, beta=bounds, n=horizons)
    @settings(max_examples=150, deadline=None)
    def test_weights_positive_and_normalized(self, alpha, beta, n):
        w = bal_weights(MarketParams(alpha, beta, n))
        assert np.all(w > 0.0)
        assert abs(float(w.sum()) - 1.0) <= 1e-12

    @given(alpha=bounds, beta=bounds, n=horizons)
    @settings(max_examples=100, deadline=None)
    def test_adversary_is_alpha_beta_swap(self, alpha, beta, n):
        c = bal_adversary(MarketParams(alpha, beta, n))
        swapped = bal_weights(MarketParams(beta, alpha, n))
        assert np.abs(c - swapped).max() <= 1e-12

    @given(alpha=bounds, beta=bounds, n=horizons)
    @settings(max_examples=100, deadline=None)
    def test_alpha_beta_swap_reverses_weights(self, alpha, beta, n):
        w = bal_weights(MarketParams(alpha, beta, n))
        swapped = bal_weights(MarketParams(beta, alpha, n))
        assert np.abs(w - swapped[::-1]).max() <= 1e-12

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=80, deadline=None)
    def test_equalizes_all_downturns(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        w = bal_weights(params)
        r = bal_ratio(params)
        for seq in downturns(params):
            assert abs(offline_optimum(seq) / evaluate_static(w, seq) - r) <= 1e-9

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=80, deadline=None)
    def test_scaled_weights_solve_the_kernel(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        K = payoff_matrix_K(params)
        r = bal_ratio(params)
        assert np.abs(r * bal_weights(params) @ K - 1.0).max() <= 1e-9
        assert np.abs(K @ (r * bal_adversary(params)) - 1.0).max() <= 1e-9

    @given(alpha=bounds, beta=bounds, n=horizons)
    @settings(max_examples=100, deadline=None)
    def test_ratio_increment_in_horizon(self, alpha, beta, n):
        step = bal_ratio(MarketParams(alpha, beta, n + 1)) - bal_ratio(
            MarketParams(alpha, beta, n)
        )
        expected = (alpha - 1.0) * (beta - 1.0) / (alpha * beta - 1.0)
        assert expected > 0.0
        assert abs(step - expected) <= 1e-10

    def test_kernel_game_solution_is_balanced(self):
        for params in params_grid():
            sol = solve_game_closed_form(payoff_matrix_K(params))
            assert sol.unique
            assert sol.ratio == pytest.approx(bal_ratio(params), abs=1e-9)
            assert np.abs(sol.online_strategy - bal_weights(params)).max() <= 1e-8
            assert np.abs(sol.adversary_strategy - bal_adversary(params)).max() <= 1e-8


class TestDollarAveraging:
    def test_weights(self):
        assert da_weights(2).tolist() == [0.5, 0.5]
        assert da_weights(4).tolist() == [0.25, 0.25, 0.25, 0.25]
        assert da_weights(3) == pytest.approx([1 / 3] * 3, abs=1e-15)
        with pytest.raises(ValueError):
            da_weights(1)

    def test_frozen_ratios(self):
        assert da_ratio(MarketParams(2.0, 2.0, 3)) == pytest.approx(12.0 / 7.0, abs=1e-14)
        assert da_ratio(MarketParams(2.0, 2.0, 2)) == pytest.approx(4.0 / 3.0, abs=1e-14)
        # Hand-simplified for the taipei limits: 1400/1351.
        assert da_ratio(MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 2)) == pytest.approx(
            1400.0 / 1351.0, abs=1e-12
        )

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_downturn_maximum(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        via_downturns = static_ratio_via_downturns(da_weights(n), params)
        assert da_ratio(params) == pytest.approx(via_downturns, rel=1e-9)

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=80, deadline=None)
    def test_never_beats_balanced(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        da, bal = da_ratio(params), bal_ratio(params)
        assert da >= bal - 1e-12
        # Strict once the strategies genuinely differ; near the flat
        # limit (alpha, beta -> 1) the true gap sinks below float
        # resolution, so the strict claim is only checked away from it.
        if min(alpha, beta) >= 1.01 and np.abs(da_weights(n) - bal_weights(params)).max() > 1e-3:
            assert da > bal

    def test_degenerate_two_day_coincidence(self):
        params = MarketParams(2.0, 2.0, 2)
        assert np.array_equal(da_weights(2), bal_weights(params))
        assert da_ratio(params) == pytest.approx(bal_ratio(params), abs=1e-14)

    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @settings(max_examples=60, deadline=None)
    def test_kernel_column_sum_increments_decrease(self, alpha, beta, n):
        # Column sums of the kernel are concave in the column index, so
        # the uniform strategy's worst downturn is at one of the ends.
        # Slack scaled to the summation rounding of n-term column sums:
        # in the flat limit the true decrease sinks below that noise.
        K = payoff_matrix_K(MarketParams(alpha, beta, n))
        sums = K.sum(axis=0)
        increments = np.diff(sums)
        if increments.size > 1:
            assert np.all(np.diff(increments) < 8 * n * np.finfo(float).eps)


class TestStaticRatio:
    def test_trade_once_first_day(self):
        params = MarketParams(2.0, 2.0, 3)
        once = np.array([1.0, 0.0, 0.0])
        assert static_ratio_via_downturns(once, params) == pytest.approx(4.0, abs=1e-12)

    def test_balanced_is_equalized(self):
        for params in params_grid():
            got = static_ratio_via_downturns(bal_weights(params), params)
            assert got == pytest.approx(bal_ratio(params), abs=1e-9)

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            static_ratio_via_downturns([1.0], MarketParams(2.0, 2.0, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        for weights in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="weights must be finite"):
                static_ratio_via_downturns(weights, MarketParams(2.0, 2.0, 2))

    @pytest.mark.parametrize("weights", [[-1.0, 1.0], [1.0, -1e-300], [2.0, -1.0]])
    def test_negative_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            static_ratio_via_downturns(weights, MarketParams(2.0, 2.0, 2))

    def test_nothing_accumulated_raises(self):
        with pytest.raises(ValueError):
            static_ratio_via_downturns([0.0, 0.0, 0.0], MarketParams(2.0, 2.0, 3))

    def test_downturn_past_float_range(self):
        # The downturns themselves overflow here; K's columns do not.
        params = MarketParams(1e200, 2.0, 3)
        got = static_ratio_via_downturns(bal_weights(params), params)
        assert got == pytest.approx(bal_ratio(params), rel=1e-12)
        assert bal_ratio(params) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 21, 252, 1000, 2000])
    def test_recurrences_match_dense_product(self, n):
        rng = np.random.default_rng(n)
        bounds_list = [preset_bounds(name) for name in ("taipei", "tokyo", "vienna")]
        bounds_list += [tuple(1.0 + 0.4 * (1.0 - rng.random(2))) for _ in range(2)]
        for alpha, beta in bounds_list:
            params = MarketParams(alpha, beta, n)
            K = payoff_matrix_K(params)
            for weights in (rng.dirichlet(np.ones(n)), rng.random(n), bal_weights(params)):
                dense = 1.0 / float((weights @ K).min())
                got = static_ratio_via_downturns(weights, params)
                assert got == pytest.approx(dense, rel=1e-14, abs=0.0)

    def test_horizon_past_kernel_underflow(self):
        params = MarketParams(2.0, 2.0, 1100)
        with pytest.raises(PreconditionViolated):
            payoff_matrix_K(params)
        got = static_ratio_via_downturns(bal_weights(params), params)
        assert got == pytest.approx(bal_ratio(params), rel=1e-15, abs=0.0)
        assert got == pytest.approx(1102.0 / 3.0, rel=1e-15, abs=0.0)

    def test_long_horizon_in_linear_memory(self):
        params = MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 10**5)
        got = static_ratio_via_downturns(bal_weights(params), params)
        assert got == pytest.approx(bal_ratio(params), rel=1e-12, abs=0.0)
        # Tracing slows every float the loops make, so the memory is taken at 10**4.
        params = MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 10**4)
        weights = bal_weights(params)
        tracemalloc.start()
        try:
            static_ratio_via_downturns(weights, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A handful of length-n lists and arrays; one n x n array would be 800 MB.
        assert peak < 32 * 8 * params.n

    def test_domination_over_admissible_sequences(self):
        # Extreme sequences (every step at a bound) plus random interior
        # ones never exceed the downturn maximum.
        rng = np.random.default_rng(2024)
        for alpha, beta in [(2.0, 2.0), (TAIPEI_ALPHA, TAIPEI_BETA), (1.5, 3.0)]:
            for n in (2, 4, 7):
                params = MarketParams(alpha, beta, n)
                extremes = np.array(
                    [
                        np.cumprod(choice)
                        for choice in itertools.product([alpha, 1.0 / beta], repeat=n)
                    ]
                )
                factors = rng.uniform(1.0 / beta, alpha, size=(200, n))
                interior = np.cumprod(factors, axis=1)
                sequences = np.vstack([extremes, interior])
                strategies = [bal_weights(params), da_weights(n)]
                strategies += [rng.dirichlet(np.ones(n)) for _ in range(5)]
                best = sequences.max(axis=1)
                for weights in strategies:
                    bound = static_ratio_via_downturns(weights, params)
                    ratios = best / (sequences @ weights)
                    assert ratios.max() <= bound + 1e-9

    def test_mixture_expectation_equals_static_accumulation(self):
        # Applying the day-i trade-once plan with probability w_i has the
        # same expected accumulation as investing the w_i directly.
        rng = np.random.default_rng(5)
        params = MarketParams(TAIPEI_ALPHA, TAIPEI_BETA, 6)
        w = rng.dirichlet(np.ones(6))
        for seq in downturns(params) + [np.cumprod(rng.uniform(1 / 1.07, 1 / 0.93, 6))]:
            expectation = sum(w[i] * seq[i] for i in range(6))
            assert evaluate_static(w, seq) == pytest.approx(expectation, rel=1e-12)


class TestTridiagonalInverse:
    @given(alpha=bounds, beta=bounds, n=small_horizons)
    @example(alpha=1.0000000000000004, beta=1.0000000000000002, n=2)
    @settings(max_examples=60, deadline=None)
    def test_inverts_the_dense_kernel(self, alpha, beta, n):
        K = payoff_matrix_K(MarketParams(alpha, beta, n))
        K_inv = np.array([times_kernel_inverse(row, alpha, beta) for row in np.eye(n)])
        assert inverts(K, K_inv)

    @pytest.mark.parametrize(
        "alpha, beta, n, wrong",
        [
            (1.0000000000000004, 1.0000000000000002, 2, "super-diagonal sign"),
            (1.0000000000000004, 1.0000000000000002, 40, "super-diagonal sign"),
            (TAIPEI_ALPHA, TAIPEI_BETA, 21, "super-diagonal sign"),
            (2.0, 3.0, 5, "bounds swapped"),
            (1.000001, 1.000001, 60, "corners"),
        ],
    )
    def test_check_rejects_a_wrong_inverse(self, alpha, beta, n, wrong):
        K = payoff_matrix_K(MarketParams(alpha, beta, n))
        K_inv = np.array([times_kernel_inverse(row, alpha, beta) for row in np.eye(n)])
        assert inverts(K, K_inv)
        if wrong == "super-diagonal sign":
            K_inv[np.arange(n - 1), np.arange(1, n)] *= -1.0
        elif wrong == "bounds swapped":
            K_inv = np.array([times_kernel_inverse(row, beta, alpha) for row in np.eye(n)])
        else:
            K_inv[[0, -1], [0, -1]] = K_inv[1, 1]
        assert not inverts(K, K_inv)

    @pytest.mark.parametrize("n", [2, 3, 21, 252, 10**4, 10**5])
    def test_normalized_column_sums_are_balanced_weights(self, n):
        for name in sorted(CIRCUIT_BREAKERS):
            params = MarketParams(*preset_bounds(name), n)
            sums = times_kernel_inverse(np.ones(n), params.alpha, params.beta)
            assert np.allclose(sums / sums.sum(), bal_weights(params), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 21, 252, 10**4, 10**5])
    def test_undoes_the_recurrences(self, n):
        rng = np.random.default_rng(n)
        for alpha, beta in [preset_bounds("taipei"), preset_bounds("tokyo"), (2.0, 3.0)]:
            a = rng.random(n)
            back = times_kernel_inverse(_times_kernel(a, alpha, beta), alpha, beta)
            assert np.abs(back - a).max() <= 1e-12


class TestHugeBounds:
    @pytest.mark.parametrize("alpha, beta", [(1e200, 1e200), (1e154, 1e155), (1e155, 1e154)])
    @pytest.mark.parametrize("n", [2, 3, 252])
    def test_limits_are_uniform_weights_and_ratio_n(self, alpha, beta, n):
        params = MarketParams(alpha, beta, n)
        assert bal_weight_parts(params) == (1.0 / n, 1.0 / n, 1.0 / n)
        assert bal_ratio(params) == n
        assert np.array_equal(bal_weights(params), np.full(n, 1.0 / n))
        # (1 - 1/(alpha*beta))**(n-1) rounds to 1 once alpha*beta overflows.
        assert det_K_closed_form(params) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 252])
    def test_one_huge_bound_keeps_the_other(self, n):
        # (alpha-1)*(beta-1) overflows; the limit alpha -> inf keeps beta's terms.
        params = MarketParams(1e308, 10.0, n)
        first, interior, last = bal_weight_parts(params)
        scaled = n + 1.0 / 9.0
        assert (first, interior) == pytest.approx((1.0 / scaled, 1.0 / scaled), rel=1e-15)
        assert last == pytest.approx((1.0 + 1.0 / 9.0) / scaled, rel=1e-15)
        assert bal_ratio(params) == pytest.approx(scaled / (1.0 + 1.0 / 9.0), rel=1e-15)

    def test_forms_agree_where_both_are_finite(self):
        # Just below the overflow of D both forms are finite; they must agree there.
        for n in (2, 3, 252):
            params = MarketParams(1e150, 1e150, n)
            da = db = 1e150 - 1.0
            scaled = n + 1.0 / da + 1.0 / db
            expected = ((1.0 + 1.0 / da) / scaled, 1.0 / scaled, (1.0 + 1.0 / db) / scaled)
            assert bal_weight_parts(params) == pytest.approx(expected, rel=1e-15)
            assert bal_ratio(params) == pytest.approx(scaled / (1.0 + 2.0 / da), rel=1e-15)
