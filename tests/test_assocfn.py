import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extgevrey import (
    AssocFnResult,
    DomainError,
    NumericalError,
    SequenceParams,
    UsageError,
    assoc_fn_counting,
    assoc_fn_counting_grid,
    assoc_fn_sup,
    assoc_fn_sup_grid,
    assocfn,
    cli,
    counting_fn_direct,
    counting_fn_floor,
    default_k_grid,
    envelope,
    sandwich_bounds_check,
)

import _reference

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


@pytest.mark.parametrize("shape", [(), (3, 4), (2, 1, 3), (0,), (0, 3)])
def test_grid_results_take_the_shape_of_k(shape):
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(0, 8, math.prod(shape)).reshape(shape)
    flat = k.ravel()
    for got, want in ((assoc_fn_sup_grid(params, 2.0, k), assoc_fn_sup_grid(params, 2.0, flat)),
                      (assoc_fn_sup_grid(params, 1.0, k), assoc_fn_sup_grid(params, 1.0, flat)),
                      (assoc_fn_counting_grid(params, k), assoc_fn_counting_grid(params, flat))):
        for g, w in zip(got, want):
            assert g.shape == shape and w.shape == (flat.size,)
            assert np.array_equal(g.ravel(), w)


def test_grid_at_a_scalar_k_matches_the_scalar_call():
    params = SequenceParams(1.0, 2.0)
    T, argmax = assoc_fn_sup_grid(params, 1.0, 5.0)
    Tc, count = assoc_fn_counting_grid(params, 5.0)
    assert T.shape == argmax.shape == Tc.shape == count.shape == ()
    res = assoc_fn_sup(params, 1.0, 5.0)
    assert float(T) == res.value and int(argmax) == res.argmax_p
    assert float(Tc) == assoc_fn_counting(params, 5.0).value


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


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 50.0), st.floats(1.0, 6.0, exclude_min=True), st.floats(1e-6, 1e6),
       st.floats(1.0, 1e12))
def test_counting_fn_floor_matches_direct(tau, sigma, C, lam):
    params = SequenceParams(tau, sigma)
    try:
        n = counting_fn_floor(params, C, lam)
    except NumericalError:      # a count past 2**53, where the closed form gives no bracket
        return
    assert counting_fn_direct(params, C, lam) == n


# each count checked against the inequality in 60-digit decimal arithmetic
@pytest.mark.parametrize("tau,sigma,C,lam,expected", [
    (0.05, 6.0, 0.5, 25.016864604141244, 1048575),   # P = 2**20 less a hair: not counted
    (0.99999, 1.01, 1.0 + 2.0 ** -52, 1.0, 0),        # g(1) = ln C > 0 = ln lambda
    (0.05, 6.0, 1e4, 10.0, 0),                        # C^((s-1)/tau) = 1e400 overflows
    (1e-300, 100.0, math.e, 1.167, 0),                # ln C/tau = 1e300, past W's resolution
    # ln x ~ w ~ (sigma-1)/tau: W's error, damped by 1/(1 + w), leaves P = 1 resolved
    (2.0, 2e15, math.e, 2.955, 1),
    (2.0, 1e16, math.e, 2.955, 1),
    (2.0, 1e20, math.e, 2.955, 1),
    (1.01, 1.01, 0.001, 960831131233.0902, 944509049269),   # P = 944509049269.9: 1e-12 P spans two integers
    # where a float test of g(p) <= ln lambda errs, a tie (g(p) = ln lambda) counted
    (1.0, 2.0, 1.0, 1e10, 10),                      # g(10) = 10 ln 10
    (1.0, 2.0, 1.0, 8916100448256.0, 12),           # 12^12
    (1.0, 2.0, 1.0, 8.272402618863368e+20, 17),     # 17^17 in floats
    (0.5, 3.0, 1.0, 65535.99999999998, 3),          # the float below 4^8 = exp(g(4))
    (5.746645561626626e-22, 2.2357614778230337, 1.0, 2.043460145819747, 6411264056792603),
    (0.05, 1.01, 1.0, 6.408, 1537173683865),
])
def test_counting_fn_floor_at_its_edges(tau, sigma, C, lam, expected):
    params = SequenceParams(tau, sigma)
    for fn in (counting_fn_floor, counting_fn_direct):
        assert fn(params, C, lam) == expected
        assert fn(params, np.array([C]), np.array([lam])).tolist() == [expected]
        assert fn(params, np.full((2, 1), C), np.full(3, lam)).tolist() == [[expected] * 3] * 2


@pytest.mark.parametrize("C", [5.0, 1e20, 1e200, 1e300])
@pytest.mark.parametrize("fn", [counting_fn_floor, counting_fn_direct])
def test_no_p_counts_where_lambda_is_the_float_below_c(fn, C):
    # ln C == ln lambda in floats there: g(1) = ln C <= ln lambda is decided as C <= lambda
    P, lam = SequenceParams(1.0, 2.0), math.nextafter(C, 0.0)
    assert math.log(C) == math.log(lam) and _reference.count(1.0, 2.0, C, lam) == 0
    assert fn(P, C, lam) == 0
    assert fn(P, np.array([C]), np.array([lam, C])).tolist() == [0, 1]


def test_the_array_routes_decide_the_verify_claim_grid_themselves(monkeypatch):
    # at the default point, the counting-floor claim's 360 points: the floor hands the one
    # point where P = 1 is an integer (C = 1, lambda = 1) to its scalar route, direct none
    P, handed = SequenceParams(1.0, 2.0), []
    for name in ("_floor_scalar", "_direct_scalar"):
        fn = getattr(assocfn, name)
        monkeypatch.setattr(assocfn, name, lambda *a, _name=name, _fn=fn: handed.append(_name) or _fn(*a))
    assert cli._FLOOR_C.size * cli._FLOOR_LAMBDA.size == 360
    floor = counting_fn_floor(P, cli._FLOOR_C, cli._FLOOR_LAMBDA)
    assert handed.count("_floor_scalar") <= 1
    assert (counting_fn_direct(P, cli._FLOOR_C, cli._FLOOR_LAMBDA) == floor).all()
    assert handed.count("_direct_scalar") == 0


def test_counting_fn_direct_takes_log_steps():
    # 6982933 steps of the p-by-p scan; the gallop and bisection take about 45
    start = time.perf_counter()
    assert counting_fn_direct(SequenceParams(0.05, 1.2), 1.0, 1e8) == 6982933
    assert time.perf_counter() - start < 0.05
    assert counting_fn_floor(SequenceParams(0.05, 1.2), 1.0, 1e8) == 6982933


def test_counting_fn_direct_past_2_53_raises():
    # C^(-1/tau) = 1e60: every p up to there counts
    with pytest.raises(NumericalError, match=r"2\*\*53.*tau=0\.05, sigma=1\.01, C=0\.001"):
        counting_fn_direct(SequenceParams(0.05, 1.01), 0.001, 1.0)


@pytest.mark.parametrize("tau, count", [(1e-300, 1060), (1e-310, 1337), (5e-324, 1821)])
def test_counting_fn_direct_where_the_power_overflows(tau, count):
    # p^99 passes the floats from p = 1300, where ln lambda / p^99 is taken as ln lambda / q / q,
    # q = p^49.5: at tau = 5e-324 it is of the size of tau ln p
    P = SequenceParams(tau, 100.0)
    assert counting_fn_direct(P, 1.0, 10.0) == _reference.count(tau, 100.0, 1.0, 10.0) == count


def _subnormal_tau_points():
    """Seeded (tau, sigma, C, lambda, count) at tau = 10^U(-323.5, -300), where tau ln p is
    subnormal or near it, for every count below 1e15, and one point found by hand."""
    rng = np.random.default_rng(3)
    n = 200
    taus = 10.0 ** rng.uniform(-323.5, -300.0, n)
    sigmas = 1.0 + 10.0 ** rng.uniform(-1.0, 1.7, n)
    lams = 1.0 + 10.0 ** rng.uniform(-13.0, 2.0, n)
    points = [(2.542e-320, 31.46, 1.0, 1.0 + 5.69e-12, 11975054007)]
    for tau, sigma, lam in zip(taus.tolist(), sigmas.tolist(), lams.tolist()):
        for C in (1.0, math.e, 0.5):
            count = _reference.count(tau, sigma, C, lam, below=1e15)
            if count is not None:
                points.append((tau, sigma, C, lam, count))
    return points


def test_counts_at_subnormal_tau_match_the_reference():
    # g(p) is decided at tau, ln C and ln lambda scaled by 2^600, so tau ln p keeps its bits;
    # the closed form may raise (ln C/tau past the floats), the direct route may not
    points = _subnormal_tau_points()
    assert len(points) > 200
    for tau, sigma, C, lam, count in points:
        P = SequenceParams(tau, sigma)
        for fn in (counting_fn_floor, counting_fn_direct):
            for c, l in ((C, lam), (np.array([C]), np.array([lam]))):
                try:
                    got = int(fn(P, c, l) if np.ndim(c) == 0 else fn(P, c, l)[0])
                except NumericalError:
                    assert fn is counting_fn_floor, (tau, sigma, C, lam)
                    continue
                assert got == count, (fn.__name__, tau, sigma, C, lam)


def _scalar_table(fn, P, C, lam):
    """fn's scalar calls over the broadcast (C, lambda) in C order: the counts (None where a
    call raises), and the message of the first call that raises."""
    counts, first = [], None
    for c, l in zip(*(a.ravel().tolist() for a in np.broadcast_arrays(C, lam))):
        try:
            counts.append(fn(P, c, l))
        except NumericalError as exc:
            counts.append(None)
            first = first or str(exc)
    return counts, first


def _assert_array_equals_scalar(fn, P, C, lam):
    counts, first = _scalar_table(fn, P, C, lam)
    if first is None:
        got = fn(P, C, lam)
        assert got.dtype == np.int64 and got.shape == np.broadcast_shapes(C.shape, lam.shape)
        assert got.ravel().tolist() == counts
        return
    with pytest.raises(NumericalError) as err:
        fn(P, C, lam)
    assert str(err.value) == first
    # the points that do not raise, as one flat call
    Cb, lb = (a.ravel() for a in np.broadcast_arrays(C, lam))
    ok = np.array([n is not None for n in counts])
    assert fn(P, Cb[ok], lb[ok]).tolist() == [n for n in counts if n is not None]


def _boundary_lams(rng, tau, sigma, C, n):
    """lambda = exp(g(p)) at random integers p: ln lambda lies within a few ulps of g(p), where
    the floats leave g(p) <= ln lambda in doubt."""
    p = np.floor(10.0 ** rng.uniform(0.0, 6.0, n))
    with np.errstate(over="ignore"):
        lam = np.exp(p ** (sigma - 1.0) * (math.log(C) + tau * np.log(p)))
    return lam[(lam >= 1.0) & (lam < math.inf)]


@pytest.mark.parametrize("fn", [counting_fn_floor, counting_fn_direct])
@pytest.mark.parametrize("seed", range(12))
def test_counting_array_equals_the_scalar_calls(fn, seed):
    # seeded (tau, sigma) with sigma up to 101, for the overflow branch past p^(sigma-1) = 1e308
    rng = np.random.default_rng(seed)
    tau, sigma = 10.0 ** rng.uniform(-3.0, 2.0), 1.0 + 10.0 ** rng.uniform(-2.0, 2.0)
    C = np.array([[1.0], [math.e], [10.0 ** rng.uniform(-3.0, 3.0)]])
    lam = np.concatenate([[1.0, 1.0 + 2.0 ** -52], 10.0 ** rng.uniform(0.0, 12.0, 40),
                          _boundary_lams(rng, tau, sigma, 1.0, 30),
                          _boundary_lams(rng, tau, sigma, math.e, 30)])
    _assert_array_equals_scalar(fn, SequenceParams(tau, sigma), C, lam)


@pytest.mark.parametrize("fn", [counting_fn_floor, counting_fn_direct])
@pytest.mark.parametrize("tau, sigma", [(1e-300, 2.0), (1e-300, 100.0), (2.5e-320, 31.46),
                                        (0.05, 1.01), (0.2, 1.01), (1.0, 2.0)])
def test_counting_array_equals_the_scalar_calls_at_the_edges(fn, tau, sigma):
    # tau = 1e-300 and subnormal: ln C/tau past the floats, subnormal tau ln p; sigma = 1.01:
    # counts past the closed form's resolution and past 2**53
    rng = np.random.default_rng(7)
    C = np.array([[1.0], [math.e], [0.5], [1e-3]])
    lam = np.concatenate([[1.0, 2.955, 10.0], 10.0 ** rng.uniform(0.0, 8.0, 30),
                          _boundary_lams(rng, tau, sigma, 1.0, 20)])
    _assert_array_equals_scalar(fn, SequenceParams(tau, sigma), C, lam)


def test_counting_array_error_names_the_first_failing_point_in_c_order():
    # row 0 passes 2**53 at its second lambda, row 1 at its first: C order meets row 0's first
    P, C, lam = SequenceParams(0.05, 1.01), np.array([[1.0], [0.001]]), [2.0, 1000.0]
    with pytest.raises(NumericalError, match=r"resolves: .*C=1\.0, lambda=1000\.0$"):
        counting_fn_floor(P, C, lam)
    with pytest.raises(NumericalError, match=r"2\*\*53.*C=1\.0, lambda=1000\.0$"):
        counting_fn_direct(P, C, lam)


@pytest.mark.parametrize("C, lam, message", [
    ([1.0, math.nan], [2.0, 3.0], "C must be finite and positive, got nan"),
    ([[1.0], [2.0]], [0.5, 2.0, math.inf], "lambda must be finite and >= 1, got 0.5"),
    (1.0, [2.0, math.inf], "lambda must be finite and >= 1, got inf")])
@pytest.mark.parametrize("fn", [counting_fn_floor, counting_fn_direct])
def test_counting_array_guard_names_the_first_bad_point(fn, C, lam, message):
    with pytest.raises(DomainError) as err:
        fn(SequenceParams(1.0, 2.0), np.asarray(C), np.asarray(lam))
    assert str(err.value) == message


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


def test_envelope_positive_and_increasing():
    params = SequenceParams(1.0, 2.0)
    k = np.logspace(0.5, 10, 50)
    E = envelope(params, 1.0, k)
    assert np.all(E > 0)
    assert np.all(np.diff(E) > 0)


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.0])
def test_envelope_needs_finite_positive_k(k):
    # as assoc_fn_sup_grid: a NaN k once gave E = 0, and an infinite one a NumericalError
    with pytest.raises(DomainError, match=rf"^envelope needs finite k > 0, got k={k}$"):
        envelope(SequenceParams(1.0, 2.0), 1.0, [10.0, k])


# where a factor of E leaves the floats: E finite, 0 at k = 1 and rising; its values are
# held to the 50-digit reference below, at the same (tau, sigma, h)

def test_envelope_where_the_h_factor_overflows():
    # at tau = 0.05, sigma = 6, h = 1e-6 the factor h^(-(s-1)/tau) = 1e600 overflows;
    # E then comes from ln R and the log-form W
    for h in (1e-6, np.float64(1e-6)):
        E = envelope(SequenceParams(0.05, 6.0), h, np.logspace(0.0, 12.0, 13))
        assert np.all(np.isfinite(E)) and E[0] == 0.0 and np.all(np.diff(E) > 0)


def test_rfactor_finite_although_the_h_factor_overflows():
    # the R factor inside envelope: at sigma = 1e6, h = 1e-300 the factor h^(-(s-1)/tau) =
    # e^(1.03 * 690.8) overflows, but (s-1)/(tau s) = 1.03e-6 brings R back into the floats
    E = envelope(SequenceParams((1e6 - 1.0) / 1.03, 1e6), 1e-300, np.logspace(0.0, 12.0, 13))
    assert np.all(np.isfinite(E)) and E[0] == 0.0 and np.all(np.diff(E) > 0)


def test_envelope_where_the_h_factor_underflows():
    # at tau = 0.05, sigma = 6, h = 1e6 the factor h^(-(s-1)/tau) = 1e-600 underflows to 0;
    # E ~ e^275 ln^1.2 k then comes from ln R
    E = envelope(SequenceParams(0.05, 6.0), 1e6, np.logspace(0.0, 12.0, 13))
    assert np.all(np.isfinite(E)) and E[0] == 0.0 and np.all(np.diff(E) > 0)


def test_envelope_where_a_factor_or_E_leaves_the_floats():
    # sigma = 1.001: W(R)^-1000 and ln^1001 k both leave the float range, E does not
    E = envelope(SequenceParams(1e-3, 1.001), 1e-6, [0.5, 1.0, 1e6, 1e8])
    assert E[:2].tolist() == [0.0, 0.0] and np.all(np.isfinite(E)) and E[3] > E[2]
    # at tau = 1, h = 1, E(10) is about exp(830): past the largest float
    assert np.array_equal(envelope(SequenceParams(1.0, 1.001), 1.0, [0.5, 1.0]), [0.0, 0.0])
    with pytest.raises(NumericalError, match=r"tau=1.0, sigma=1.001, h=1.0, k=.*"):
        envelope(SequenceParams(1.0, 1.001), 1.0, [1.0, 10.0, 1e6])
    # at sigma = 1e308 (1.7e308), s ln ln k leaves the floats from k ~ 1e6 (k ~ 18), E ~ ln k does not
    for sigma, k, step in ((1e308, np.array([10.0, 1e6]), 1), (1.7e308, default_k_grid(), 10)):
        E = envelope(SequenceParams(1.0, sigma), 1.0, k)
        assert np.all(np.isfinite(E)) and np.all(np.diff(E) > 0)
        for kj, Ej in zip(k[::step].tolist(), E[::step].tolist()):
            assert _reference.rel(Ej, _reference.envelope(1.0, sigma, 1.0, kj)) <= 1e-12, (sigma, kj, Ej)
    # ln h / tau = -6.9e310 makes c, and so ln R, inf: no W call
    with pytest.raises(NumericalError, match=r"^envelope's ln R leaves the floats, c = inf: tau=1e-308, "):
        envelope(SequenceParams(1e-308, 2.0), 1e-300, [10.0, 1e6])


@pytest.mark.parametrize("tau, sigma, h, k", [
    (0.3, 1.5, 1e-3, np.logspace(0.5, 10.0, 40)),           # R a normal float
    (0.05, 6.0, 1e-6, np.logspace(0.5, 12.0, 24)),          # h^(-(s-1)/tau) = 1e600 overflows
    (0.05, 6.0, 1e6, np.logspace(0.5, 12.0, 24)),           # h^(-(s-1)/tau) = 1e-600 underflows
    (1e-3, 1.001, 1e-6, np.logspace(5.0, 12.0, 15)),        # W(R)^-1000 and ln^1001 k overflow
    ((1e6 - 1.0) / 1.03, 1e6, 1e-300, np.logspace(0.5, 12.0, 24)),   # R finite, its h factor not
    (1e-300, 2.0, 0.5, np.logspace(0.5, 12.0, 24)),         # ln R = 7e299: W's w^2 overflows
], ids=["normal-R", "h-factor-overflows", "h-factor-underflows", "sigma-1.001", "sigma-1e6",
        "w-squared-overflows"])
def test_envelope_matches_a_50_digit_reference(tau, sigma, h, k):
    E = envelope(SequenceParams(tau, sigma), h, k)
    for kj, Ej in zip(k.tolist(), E.tolist()):
        assert _reference.rel(Ej, _reference.envelope(tau, sigma, h, kj)) <= 1e-12, (kj, Ej)


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
    # six decades, all at k <= 1, where the envelope is 0
    with pytest.raises(UsageError, match="^degenerate grid: envelope vanishes everywhere$"):
        sandwich_bounds_check(SequenceParams(1.0, 2.0), 1.0, np.logspace(-6, 0, 8))


# -- AssocFnResult is a named tuple ------------------------------------------------

def test_assoc_fn_result_is_a_named_tuple():
    r = assoc_fn_sup(SequenceParams(1.0, 2.0), 1.0, 1e5)
    assert AssocFnResult._fields == ("value", "argmax_p", "method")
    assert repr(r) == f"AssocFnResult(value={r.value!r}, argmax_p={r.argmax_p!r}, method='supremum')"
    value, p, method = r
    assert r == (value, 3, "supremum") and type(value) is float and type(p) is int
    with pytest.raises(AttributeError):
        r.value = 0.0


# -- the input guards keep their messages --------------------------------------

@pytest.mark.parametrize("h, k, message", [
    (math.nan, 10.0, "h must be finite and positive, got nan"),
    (1.0, math.inf, "k must be finite and positive, got inf"),
    (0.0, -1.0, "h must be finite and positive, got 0.0"),
    (2, -0.0, "k must be finite and positive, got -0.0")])
def test_assoc_fn_sup_guard_messages(h, k, message):
    with pytest.raises(DomainError) as err:
        assoc_fn_sup(SequenceParams(1.0, 2.0), h, k)
    assert str(err.value) == message


@pytest.mark.parametrize("C, lam, message", [
    (math.nan, 10.0, "C must be finite and positive, got nan"),
    (0.0, math.nan, "C must be finite and positive, got 0.0"),
    (1.0, math.nan, "lambda must be finite and >= 1, got nan"),
    (1.0, math.inf, "lambda must be finite and >= 1, got inf"),
    (2, 0.5, "lambda must be finite and >= 1, got 0.5")])
@pytest.mark.parametrize("fn", [counting_fn_floor, counting_fn_direct])
def test_counting_fn_guard_messages(fn, C, lam, message):
    with pytest.raises(DomainError) as err:
        fn(SequenceParams(1.0, 2.0), C, lam)
    assert str(err.value) == message


@pytest.mark.parametrize("x", [3, np.float64(3.0), np.int64(3), np.float32(3.0)])
def test_single_point_calls_take_any_real_scalar(x):
    P = SequenceParams(1.0, 2.0)
    assert assoc_fn_sup(P, x, x) == assoc_fn_sup(P, 3.0, 3.0)
    assert counting_fn_floor(P, x, 1e3 * x) == counting_fn_floor(P, 3.0, 3e3)


# -- subnormal tau: the documented error, not a bare one or a NaN ----------------

@pytest.mark.parametrize("tau", [1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize("sigma", [1.2, 2.0, 6.0])
def test_subnormal_tau_raises_numerical_error(tau, sigma):
    P, at = SequenceParams(tau, sigma), rf"tau={tau!r}, sigma={sigma!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"2\*\*53.*{at}, h=1, k=10$"):
            assoc_fn_sup(P, 1, 10)
        with pytest.raises(NumericalError, match=rf"2\*\*53.*{at}, h=1, k=10$"):
            assoc_fn_sup_grid(P, 1, [10, 1e5])


@pytest.mark.parametrize("tau", [1e-300, 1e-310])
def test_subnormal_tau_with_h_above_one_raises_as_at_1e_300(tau):
    # T_h(k) peaks near ln p = ln h / tau: for k < 1 as well
    with pytest.raises(NumericalError, match=rf"2\*\*53.*tau={tau!r}, sigma=1.2, h=1000000, k=1e-10"):
        assoc_fn_sup(SequenceParams(tau, 1.2), 1e6, 1e-10)


def test_subnormal_tau_with_h_below_one_takes_the_newton_root():
    # ln h / tau overflows, so c = inf and ln x = inf: the root's Newton form takes c = inf, and
    # both kernels give g(2) = 2 ln 10 - 4 ln 2 at k = 10, where tau 4 ln 2 is below an ulp
    P = SequenceParams(1e-310, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T, p = assoc_fn_sup_grid(P, 0.5, [10, 1e5])
        assert [(T[i], p[i]) for i in (0, 1)] == [assoc_fn_sup(P, 0.5, k)[:2] for k in (10, 1e5)]
    assert (T[0], p[0]) == (2.0 * math.log(10.0) - 4.0 * math.log(2.0), 2) == (1.8325814637483107, 2)


def test_tau_1e_300_with_h_below_one_gives_the_scalar_sup_on_the_grid_without_a_warning():
    # c = 7e299: the grid's Newton steps on (sigma-1) u + log1p(u/c) take u/c = 0 there
    P = SequenceParams(1e-300, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T, p = assoc_fn_sup_grid(P, 0.5, [10.0, 1e5])
        assert [(T[i], p[i]) for i in (0, 1)] == [assoc_fn_sup(P, 0.5, k)[:2] for k in (10.0, 1e5)]


@pytest.mark.parametrize("tau", [1e-300, 1e-20, 1e-16, 1e-15, 1e-14])
@pytest.mark.parametrize("h", [0.5, 1e-6])
def test_sup_below_h_1_at_small_tau_is_the_integer_maximum(h, tau):
    # W(x)/(sigma-1) - c cancels once ulp(c) p* nears 1, c ~ |ln h|/tau: at tau = 1e-20, h = 0.5
    # and k = e^200 it gave 593.76 at p = 3 for the supremum 14426.90 at p = 144.
    # g rises to one maximum, then falls: an integer p that beats p - 1 and p + 1 is the maximiser.
    lnh, lnk = math.log(h), np.log(np.append(default_k_grid(), math.exp(200.0)))
    g = lambda p, lk: _reference.g(p, lk, lnh, tau, 2.0)
    T, argmax = assoc_fn_sup_grid(SequenceParams(tau, 2.0), h, np.exp(lnk))
    for lk, Tg, pg in zip(lnk.tolist(), T.tolist(), argmax.tolist()):
        assert assoc_fn_sup(SequenceParams(tau, 2.0), h, math.exp(lk))[:2] == (Tg, pg)
        if pg == 0:
            assert Tg == 0.0 and g(2, lk) <= g(1, lk) <= 0, lk
        else:
            assert (pg == 1 or g(pg - 1, lk) <= g(pg, lk)) and g(pg + 1, lk) <= g(pg, lk), (lk, pg)
            assert _reference.rel(Tg, g(pg, lk)) <= 1e-12, (lk, pg)


@pytest.mark.parametrize("C", [math.e, 1e10, 1e300])
def test_subnormal_tau_count_at_lambda_one_is_zero(C):
    # ln C / tau overflows, so the closed form's error bound is inf, but its count is 0
    P = SequenceParams(1e-310, 2.0)
    assert counting_fn_floor(P, C, 1.0) == counting_fn_direct(P, C, 1.0) == 0
