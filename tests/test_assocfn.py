import math

import numpy as np
import pytest

from extgevrey import (
    DomainError,
    NumericalError,
    SequenceParams,
    UsageError,
    assoc_fn_counting,
    assoc_fn_counting_grid,
    assoc_fn_sup,
    assoc_fn_sup_grid,
    counting_fn_direct,
    counting_fn_floor,
    envelope,
    h_shift_check,
    lambert_w0_grid,
    rfactor,
    sandwich_bounds_check,
)

PARAM_SET = [(1.0, 2.0), (2.0, 3.0), (0.5, 1.5)]

# frozen oracle values (40-digit brute-force maximization over integer p)
T_REFERENCE = [
    # tau, sigma, h, k, value, argmax
    (1.0, 2.0, 1.0, 1e6, 33.081332453938846515, 4),
    (2.0, 3.0, 1.0, 1e4, 9.2103403719761827361, 1),
    (0.5, 1.5, 1.0, 1e8, 276.74848938476976652, 34),
    (1.0, 2.0, 2.0, 1e6, 46.170284492967493891, 5),
    (1.0, 2.0, 0.5, 1e10, 58.832339052884452509, 4),
]


def brute_force_T(tau, sigma, h, k, p_max=5000):
    lnh, lnk = math.log(h), math.log(k)
    best, best_p = 0.0, 0
    for p in range(1, p_max):
        g = p ** sigma * lnh + p * lnk - tau * p ** sigma * math.log(p)
        if g > best:
            best, best_p = g, p
    return best, best_p


@pytest.mark.parametrize("tau,sigma,h,k,value,argmax", T_REFERENCE)
def test_sup_matches_frozen_oracle(tau, sigma, h, k, value, argmax):
    res = assoc_fn_sup(SequenceParams(tau, sigma), h, k)
    assert res.value == pytest.approx(value, rel=1e-13)
    assert res.argmax_p == argmax


def test_sup_matches_inline_brute_force():
    rng = np.random.default_rng(20240817)
    for _ in range(40):
        tau = float(rng.uniform(0.3, 3.0))
        sigma = float(rng.uniform(1.3, 3.5))
        h = float(rng.uniform(0.2, 5.0))
        k = float(10 ** rng.uniform(0.0, 8.0))
        got = assoc_fn_sup(SequenceParams(tau, sigma), h, k)
        want, want_p = brute_force_T(tau, sigma, h, k)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got.argmax_p == want_p


def test_sup_at_k_below_one_is_zero_for_small_h():
    res = assoc_fn_sup(SequenceParams(1.0, 2.0), 0.5, 0.5)
    assert res.value == 0.0
    assert res.argmax_p == 0


def test_grid_matches_scalar():
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(0, 10, 200)
    values, argmax = assoc_fn_sup_grid(params, 2.0, k)
    for i in (0, 50, 123, 199):
        res = assoc_fn_sup(params, 2.0, float(k[i]))
        assert values[i] == pytest.approx(res.value, rel=1e-14, abs=1e-14)
        assert argmax[i] == res.argmax_p


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_counting_equals_sup(tau, sigma):
    params = SequenceParams(tau, sigma)
    k = np.logspace(0, 10, 500)
    T, _ = assoc_fn_sup_grid(params, 1.0, k)
    Tc, _ = assoc_fn_counting_grid(params, k)
    assert np.all(np.abs(T - Tc) <= 1e-9 * np.maximum(np.maximum(T, Tc), 1.0))


def test_maximiser_past_2_53_raises():
    # the supremum is about 4.3e24 at p ~ 1.6e24, where integers p are no
    # longer exact floats, so no finite scan or window can find it
    params = SequenceParams(1.0, 1.01)
    with pytest.raises(NumericalError, match=r"2\*\*53.*sigma=1.01"):
        assoc_fn_sup(params, 1.0, math.exp(100.0))
    with pytest.raises(NumericalError, match=r"2\*\*53.*sigma=1.01"):
        assoc_fn_sup_grid(params, 1.0, [2.0, math.exp(100.0)])


def test_counting_scalar():
    res = assoc_fn_counting(SequenceParams(1.0, 2.0), 1e6)
    assert res.value == pytest.approx(33.081332453938846515, rel=1e-13)
    assert res.method == "counting_sum"


def test_domain_validation():
    params = SequenceParams(1.0, 2.0)
    with pytest.raises(DomainError):
        assoc_fn_sup(params, -1.0, 2.0)
    with pytest.raises(DomainError):
        assoc_fn_counting(params, 0.0)
    with pytest.raises(DomainError):
        counting_fn_floor(params, 0.0, 2.0)
    with pytest.raises(DomainError):
        counting_fn_floor(params, 1.0, 0.5)


_P = SequenceParams(1.0, 2.0)


# nonfinite input must be rejected before a kernel sees it: there a NaN grid
# point reads as T = 0, k = inf as T = inf, and a NaN or infinite k (or
# lambda) keeps the counting loops growing without end
@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: assoc_fn_sup(_P, 1.0, x),
    lambda x: assoc_fn_sup(_P, x, 2.0),
    lambda x: assoc_fn_sup_grid(_P, 1.0, [2.0, x]),
    lambda x: assoc_fn_sup_grid(_P, x, [2.0]),
    lambda x: assoc_fn_counting(_P, x),
    lambda x: assoc_fn_counting_grid(_P, [2.0, x]),
    lambda x: counting_fn_floor(_P, 1.0, x),
    lambda x: counting_fn_direct(_P, 1.0, x),
    lambda x: counting_fn_direct(_P, x, 2.0),
], ids=["sup-k", "sup-h", "sup_grid-k", "sup_grid-h", "counting-k",
        "counting_grid-k", "floor-lambda", "direct-lambda", "direct-C"])
def test_nonfinite_input_is_rejected(call, x):
    with pytest.raises(DomainError, match=str(x)):
        call(x)


# frozen oracle counts from direct enumeration
COUNT_REFERENCE = [
    (1.0, 2.0, math.e, 1e6, 5),
    (2.0, 3.0, 1.0, 1e8, 2),
    (0.5, 1.5, 1.0, 100.0, 12),
]


@pytest.mark.parametrize("tau,sigma,C,lam,expected", COUNT_REFERENCE)
def test_counting_floor_frozen(tau, sigma, C, lam, expected):
    params = SequenceParams(tau, sigma)
    assert counting_fn_floor(params, C, lam) == expected
    assert counting_fn_direct(params, C, lam) == expected


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_counting_floor_equals_enumeration(tau, sigma):
    params = SequenceParams(tau, sigma)
    for C in (1.0, math.e, math.e ** 2):
        for lam in np.logspace(0, 8, 300):
            assert counting_fn_floor(params, C, float(lam)) == \
                counting_fn_direct(params, C, float(lam)), (C, lam)


def test_counting_bracket_invariant():
    # with C1 = e^tau the sublevel count never exceeds the raw count,
    # with C2 = (e/2^sigma)^(tau/2^(sigma-1)) it never falls below
    params = SequenceParams(1.0, 2.0)
    tau, sigma = params.tau, params.sigma
    C1 = math.exp(tau)
    C2 = (math.e / 2.0 ** sigma) ** (tau / 2.0 ** (sigma - 1.0))
    for lam in np.logspace(0.5, 8, 60):
        lo = counting_fn_floor(params, C1, float(lam))
        hi = counting_fn_floor(params, C2, float(lam))
        assert lo <= hi


def test_rfactor_and_envelope_positive():
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(0.5, 10, 50)
    r = rfactor(params, 1.0, 1e4)
    assert r > 0
    E = envelope(params, 1.0, k)
    assert np.all(E > 0)
    assert np.all(np.diff(E) > 0)


def test_envelope_where_the_h_factor_overflows():
    # at tau = 0.05, sigma = 6, h = 1e-6 the factor h^(-(s-1)/tau) = 1e600
    # overflows; E then comes from ln R and the log-form W
    params = SequenceParams(0.05, 6.0)
    k = np.logspace(0.0, 12.0, 13)
    for h in (1e-6, np.float64(1e-6)):
        E = envelope(params, h, k)
        assert np.all(np.isfinite(E)) and E[0] == 0.0 and np.all(np.diff(E) > 0)
        # w = E^-(s-1) ln^s k solves w + ln w = ln R
        s, tau = params.sigma, params.tau
        w = (E[1:] / np.log(k[1:]) ** (s / (s - 1.0))) ** -(s - 1.0)
        ln_r = (-(s - 1.0) / tau * math.log(1e-6) + (s - 1.0) / s
                + math.log((s - 1.0) / (tau * s)) + np.log(np.log(math.e + k[1:])))
        np.testing.assert_allclose(w + np.log(w), ln_r, rtol=1e-12)


def test_envelope_keeps_the_direct_expression_where_finite():
    params, h = SequenceParams(0.3, 1.5), 1e-3
    k = np.logspace(0.5, 10.0, 40)
    s, tau = params.sigma, params.tau
    r = (h ** (-(s - 1.0) / tau) * math.exp((s - 1.0) / s)
         * (s - 1.0) / (tau * s) * np.log(math.e + k))
    want = lambert_w0_grid(r) ** (-1.0 / (s - 1.0)) * np.log(k) ** (s / (s - 1.0))
    assert np.array_equal(envelope(params, h, k), want)
    assert rfactor(params, h, 1e4) == (h ** (-(s - 1.0) / tau) * math.exp((s - 1.0) / s)
                                       * (s - 1.0) / (tau * s) * math.log(math.e + 1e4))


def test_rfactor_past_the_float_range_raises():
    with pytest.raises(NumericalError, match=r"tau=0\.05, sigma=6\.0, h=1e-06, k=10\.0"):
        rfactor(SequenceParams(0.05, 6.0), 1e-6, 10.0)


def test_rfactor_finite_although_the_h_factor_overflows():
    # h^(-(s-1)/tau) = e^(1.03 * 690.8) overflows, (s-1)/(tau s) = 1.03e-6 brings R back
    s = 1e6
    params, h, k = SequenceParams((s - 1.0) / 1.03, s), 1e-300, 10.0
    tau = params.tau
    ln_r = (-(s - 1.0) / tau * math.log(h) + (s - 1.0) / s + math.log((s - 1.0) / (tau * s))
            + math.log(math.log(math.e + k)))
    assert rfactor(params, h, k) == pytest.approx(math.exp(ln_r), rel=1e-12)


def test_sandwich_bounds():
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(math.log10(math.e), 12, 400)
    rep = sandwich_bounds_check(params, 1.0, k)
    assert rep.holds
    assert 0 < rep.A1 <= rep.A2
    assert rep.ratio_lo > 0 and rep.ratio_hi / rep.ratio_lo < 2.0


def test_sandwich_needs_wide_grid():
    with pytest.raises(UsageError):
        sandwich_bounds_check(SequenceParams(1.0, 2.0), 1.0, np.logspace(0, 2, 50))


def test_h_shift_offsets():
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(0.5, 10, 200)
    rep = h_shift_check(params, 2.0, 0.5, 2.0, k)
    assert rep.holds
    assert rep.A <= rep.B
