import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extgevrey import conjugate
from extgevrey import (
    DivergenceError,
    DomainError,
    NumericalError,
    SequenceParams,
    bmt_log_power,
    bmt_quotient,
    check_weight_axioms,
    conjugate_table,
    corollary_weight,
    integral_closed_form_check,
    lambert_weight,
    phi_sigma,
    phi_sigma_conjugate,
    power_weight,
    young_conjugate,
)

import _reference

# frozen 40-digit reference values
PHI_REFERENCE = [
    (2.0, 1.0, 1.7632228343518967102),
    (2.0, math.e, 7.3890560989306496378),
    (3.0, 10.0, 23.935174044462140715),
    (1.5, 5.0, 71.01472450390723431),
]

CONJ_REFERENCE = [
    # sigma, y, phi*, t*
    (2.0, 4.0, 3.4874871833997304736, 2.6301609750761840191),
    (2.0, 10.0, 43.019805129345871855, 10.986397638634316626),
    (3.0, 5.0, 46.582523204616983776, 35.110131286230601151),
]


@pytest.mark.parametrize("sigma,t,expected", PHI_REFERENCE)
def test_phi_sigma_reference(sigma, t, expected):
    assert phi_sigma(sigma, t) == pytest.approx(expected, rel=1e-14)


def test_phi_sigma_vanishes_continuously_at_zero():
    assert phi_sigma(2.0, 0.0) == 0.0
    t = np.logspace(-12, -6, 20)
    vals = phi_sigma(2.0, t)
    np.testing.assert_allclose(vals, t, rtol=1e-5)


def test_phi_sigma_domain():
    with pytest.raises(DomainError):
        phi_sigma(1.0, 2.0)
    with pytest.raises(DomainError):
        phi_sigma(2.0, -1.0)


@pytest.mark.parametrize("sigma,y,star,t_star", CONJ_REFERENCE)
def test_young_conjugate_reference(sigma, y, star, t_star):
    val, ts = young_conjugate(lambda t: phi_sigma(sigma, t), y)
    assert val == pytest.approx(star, rel=1e-8)
    assert ts == pytest.approx(t_star, rel=1e-4)


def test_young_conjugate_rejects_nonfinite_y():
    for y in (math.nan, math.inf):
        with pytest.raises(DomainError):
            young_conjugate(lambda t: phi_sigma(2.0, t), y)


@pytest.mark.parametrize("sigma", [1.3, 1.5, 2.0, 3.0])
def test_phi_sigma_conjugate_matches_golden_section(sigma):
    y = np.linspace(0.0, 300.0, 301)
    val, ts = phi_sigma_conjugate(sigma, y)
    tab = conjugate_table(lambda t: phi_sigma(sigma, t), y)
    np.testing.assert_allclose(val, tab.phi_star, rtol=1e-12, atol=0.0)
    # golden section pins the maximiser of a flat maximum only to about
    # sqrt(machine eps) relative
    np.testing.assert_allclose(ts, tab.t_star, rtol=1e-6, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.floats(1.0, 6.0, exclude_min=True), st.floats(0.0, 300.0))
def test_phi_sigma_conjugate_matches_golden_section_at_any_sigma(sigma, y):
    # golden section stops relative in t, so it resolves maximisers as small as
    # the 1e-15 of sigma = 1 + 2**-52; its objective y t - phi(t) still carries
    # a rounding error of about eps y t
    val, ts = phi_sigma_conjugate(sigma, y)
    gv, gt = young_conjugate(lambda t: phi_sigma(sigma, t), y)
    assert val == pytest.approx(gv, rel=1e-12, abs=4.0 * sys.float_info.epsilon * y * gt)
    assert ts == pytest.approx(gt, rel=1e-6, abs=1e-9)


def test_young_conjugate_resolves_a_maximiser_below_1e_10():
    # t* = 6.7e-16: only a stop relative in t resolves it
    sigma, y = 1.0 + 2.0 ** -52, 81.7947327544369
    val, ts = phi_sigma_conjugate(sigma, y)
    gv, gt = young_conjugate(lambda t: phi_sigma(sigma, t), y)
    assert ts == pytest.approx(6.693179e-16, rel=1e-6) and gt == pytest.approx(ts, rel=1e-6)
    assert gv == pytest.approx(val, rel=1e-12)


def test_young_conjugate_takes_at_most_60_phi_calls_a_solve():
    # phi_2 at 2000 y in (0, 300]: 53.7 calls a solve with the 2**-26 relative stop
    ts = []
    for y in 300.0 * np.arange(1, 2001) / 2000:
        young_conjugate(lambda t: ts.append(t) or phi_sigma(2.0, t), float(y))
    assert len(ts) / 2000 <= 60.0


def test_phi_sigma_past_the_float_range_is_inf():
    # e^(W(1)/(s-1)) at s = 1 + 2**-52 is e^(2.6e15); at (1.01, 1e6) the exp overflows,
    # at (2, 1e300) the product t e^(W(t)): the scalar and array paths give inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma, t in ((1.0 + 2.0 ** -52, 1.0), (1.01, 1e6), (2.0, 1e300)):
            assert phi_sigma(sigma, t) == phi_sigma(sigma, np.array([t]))[0] == math.inf


@pytest.mark.parametrize("sigma,y,star,t_star", CONJ_REFERENCE)
def test_phi_sigma_conjugate_reference(sigma, y, star, t_star):
    val, ts = phi_sigma_conjugate(sigma, y)
    assert isinstance(val, float) and isinstance(ts, float)
    assert val == pytest.approx(star, rel=1e-13)
    assert ts == pytest.approx(t_star, rel=1e-13)


def test_phi_sigma_conjugate_vanishes_for_y_at_most_one():
    val, ts = phi_sigma_conjugate(2.0, np.array([0.0, 0.25, 1.0]))
    assert val.tolist() == [0.0, 0.0, 0.0]
    assert ts.tolist() == [0.0, 0.0, 0.0]
    assert phi_sigma_conjugate(1.5, 1.0) == (0.0, 0.0)
    val, ts = phi_sigma_conjugate(2.0, math.nextafter(1.0, 2.0))
    assert 0.0 < val < 1e-30 and 0.0 < ts < 1e-15


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_phi_sigma_conjugate_fenchel_young(sigma):
    t = np.linspace(0.0, 40.0, 200)
    y = np.linspace(0.0, 30.0, 200)
    val, ts = phi_sigma_conjugate(sigma, y)
    lhs = np.outer(y, t)
    rhs = phi_sigma(sigma, t)[None, :] + val[:, None]
    assert np.all(lhs <= rhs * (1.0 + 1e-13))
    # equality at the maximiser
    np.testing.assert_allclose(y * ts, phi_sigma(sigma, ts) + val, rtol=1e-12, atol=1e-15)


def test_phi_sigma_conjugate_domain():
    for sigma in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="sigma"):
            phi_sigma_conjugate(sigma, 2.0)
    for y in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"sigma=2\.0.*y="):
            phi_sigma_conjugate(2.0, y)
    with pytest.raises(DomainError, match="y=nan"):
        phi_sigma_conjugate(2.0, [1.0, 3.0, math.nan])


def test_phi_sigma_conjugate_overflow():
    # e^(s w/(s-1)) grows like y^s, so it overflows once y^s passes 1e308
    with pytest.raises(NumericalError, match=r"overflow.*sigma=3\.0.*y=1e\+150"):
        phi_sigma_conjugate(3.0, [2.0, 1e150])
    with pytest.raises(NumericalError, match="overflow"):
        phi_sigma_conjugate(1.01, 1e308)
    val, _ = phi_sigma_conjugate(3.0, 1e100)
    assert math.isfinite(val)


def test_quadratic_is_self_conjugate():
    phi = lambda t: 0.5 * t * t
    for y in (0.5, 1.0, 3.0, 10.0):
        val, ts = young_conjugate(phi, y)
        assert val == pytest.approx(0.5 * y * y, rel=1e-9)
        assert ts == pytest.approx(y, rel=1e-5)


def test_conjugate_of_linear_diverges(monkeypatch):
    monkeypatch.setattr(conjugate, "_T_CAP", 1e6)
    with pytest.raises(DivergenceError):
        young_conjugate(lambda t: t, 2.0)


@pytest.mark.parametrize("y", [2.0, 1e8, 1e300])
def test_conjugate_of_linear_diverges_at_default_cap(y):
    # for y > 1.6e7 the term y t overflows before t reaches the cap
    with pytest.raises(DivergenceError):
        young_conjugate(lambda t: t, y)


def test_young_conjugate_maximiser_beyond_1e12():
    val, _ = young_conjugate(lambda t: phi_sigma(5.0, t), 600.0)
    ref, ref_t = phi_sigma_conjugate(5.0, 600.0)
    assert ref_t > 1e12
    assert val == pytest.approx(ref, rel=1e-9)


def test_conjugate_table_is_monotone_and_convex():
    phi = lambda t: phi_sigma(2.0, t)
    y = np.linspace(0.0, 50.0, 200)
    tab = conjugate_table(phi, y)
    assert np.all(np.diff(tab.phi_star) >= -1e-9)
    assert np.all(np.diff(tab.t_star) >= -1e-6)
    d2 = np.diff(tab.phi_star, 2)
    assert np.all(d2 >= -1e-6)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_fenchel_young_inequality(sigma):
    phi = lambda t: phi_sigma(sigma, t)
    t = np.linspace(0.0, 40.0, 100)
    y = np.linspace(0.0, 30.0, 100)
    tab = conjugate_table(phi, y)
    phi_t = phi_sigma(sigma, t)
    lhs = np.outer(y, t)
    rhs = phi_t[None, :] + tab.phi_star[:, None]
    assert np.all(lhs <= rhs + 1e-8)


@pytest.mark.parametrize("factory, s, message", [
    *[(f, s, m) for f in (bmt_log_power, bmt_quotient, corollary_weight)
      for s, m in ((1.0, "s must exceed 1, got 1.0"), (math.nan, "s must exceed 1, got nan"),
                   (math.inf, "s must be finite, got inf"))],
    *[(power_weight, s, f"s must be finite and positive, got {s}") for s in (0.0, -1.0, math.inf)]])
def test_weight_factories_check_s(factory, s, message):
    with pytest.raises(DomainError) as err:
        factory(s)
    assert str(err.value) == message


def test_weights_are_even_and_zero_at_origin():
    for w in (bmt_log_power(2.0), bmt_quotient(2.0), power_weight(0.5),
              corollary_weight(2.0), lambert_weight()):
        assert w(0.0) == pytest.approx(0.0, abs=1e-12)
        assert w(-5.0) == w(5.0)


def test_axiom_classification():
    assert check_weight_axioms(bmt_log_power(2.0)).passed
    assert check_weight_axioms(bmt_quotient(2.0)).passed
    rep = check_weight_axioms(lambert_weight())
    assert (rep.alpha, rep.beta, rep.gamma, rep.delta) == (True, True, False, True)
    assert check_weight_axioms(power_weight(0.5)).passed
    assert check_weight_axioms(power_weight(1.0)).passed
    rep = check_weight_axioms(power_weight(1.5))
    assert not rep.beta and not rep.passed


def test_one_weight_call_over_the_axiom_grids_equals_a_call_per_grid():
    # check_weight_axioms makes one call over t, 2 t on its top half, and e^u: bit for bit the three calls
    t, top, exp_u = conjugate._AXIOM_T, conjugate._AXIOM_TOP, conjugate._AXIOM_EXP_U
    for w in (bmt_log_power(2.0), bmt_quotient(2.0), lambert_weight(), power_weight(0.5),
              power_weight(1.0), power_weight(1.5), corollary_weight(2.0)):
        one = w(conjugate._AXIOM_POINTS)
        each = np.concatenate((w(t), w(2.0 * t[top]), w(exp_u)))
        assert one.tobytes() == each.tobytes(), w.name


def test_axioms_of_a_weight_past_the_floats_are_a_numerical_error():
    with pytest.raises(NumericalError, match=r"^weight \|t\|\^30.0 is not finite at t = "):
        check_weight_axioms(power_weight(30.0))


@pytest.mark.parametrize("tau,sigma", [(1.0, 2.0), (2.0, 3.0), (0.5, 1.5)])
def test_integral_closed_form(tau, sigma):
    params = SequenceParams(tau, sigma)
    for C in (1.0, math.e):
        rep = integral_closed_form_check(params, C, np.logspace(0.5, 8, 50))
        assert rep.passed
        assert np.max(rep.rel_err) <= 1e-6


def test_integral_closed_form_small_c():
    # c = C^((s-1)/tau) (s-1)/tau = 1.5e-14: the two antiderivative values are
    # O(1) and their difference O(c ln k), so it must not be a subtraction
    rep = integral_closed_form_check(SequenceParams(0.2, 4.0), 0.1, np.logspace(0.5, 8, 50))
    assert rep.passed
    assert np.max(rep.rel_err) <= 1e-10


@pytest.mark.parametrize("C", [math.inf, math.nan, 0.0, -1.0])
def test_integral_closed_form_rejects_a_non_finite_c(C):
    with pytest.raises(DomainError, match=r"^C must be finite and positive, got "):
        integral_closed_form_check(SequenceParams(1.0, 2.0), C, [10.0])


@pytest.mark.parametrize("C", [1e-300, 1e300])
def test_integral_closed_form_names_a_power_of_c_past_the_floats(C):
    # at tau = 1, sigma = 2 the closed form's C^(-2) is 1e600 or 1e-600
    msg = f"a power of C leaves the normal floats: tau=1.0, sigma=2.0, C={C!r}"
    with pytest.raises(NumericalError, match=f"^{re.escape(msg)}$"):
        integral_closed_form_check(SequenceParams(1.0, 2.0), C, np.logspace(0.5, 8, 25))


@pytest.mark.parametrize("bad", [1.0, np.inf, np.nan])
def test_integral_closed_form_rejects_bad_k(bad):
    with pytest.raises(DomainError, match="finite k > 1"):
        integral_closed_form_check(SequenceParams(1.0, 2.0), 1.0, [10.0, bad])


@pytest.mark.parametrize("n", [20, 10])
def test_gauss_legendre_tables_match_leggauss(n):
    x, w = {20: conjugate._GL20, 10: conjugate._GL10}[n]
    X, W = np.polynomial.legendre.leggauss(n)
    # another LAPACK may round the last bits of leggauss differently
    assert np.all(np.abs(x - X) <= 2 * np.spacing(np.abs(X)))
    assert np.all(np.abs(w - W) <= 2 * np.spacing(W))
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_import_leaves_numpy_polynomial_unimported():
    code = ("import sys\n"
            "import extgevrey\n"
            "rep = extgevrey.integral_closed_form_check(extgevrey.SequenceParams(1.0, 2.0), 1.0, [10.0])\n"
            "assert rep.passed\n"
            "print('numpy.polynomial' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# -- young_conjugate: its bracket, and its result against the reference ----------

def _young_cases():
    rng = np.random.default_rng(21)
    ys = np.concatenate([300.0 * (np.arange(200) + rng.random(200)) / 200, 10.0 ** rng.uniform(-3, 3, 60),
                         [0.0, 1.0, 1.5]])
    return [(s, float(y), hint) for s in (1.5, 2.0, 3.0) for y in ys
            for hint in (None, float(rng.uniform(0.1, 40.0)))]


def test_young_conjugate_matches_the_reference():
    # golden section pins t* to about 2**-26 relative, where y t - phi(t) is flat to
    # rounding: phi* to 1e-12 relative, or to 4 eps y t* where it is that small
    for sigma, y, hint in _young_cases()[::5]:
        val, ts = young_conjugate(lambda t: phi_sigma(sigma, t), y, bracket_hint=hint)
        want, want_t = (float(v) for v in _reference.phi_star(sigma, y))
        assert val == pytest.approx(want, rel=1e-12, abs=4.0 * sys.float_info.epsilon * y * want_t)
        assert ts == pytest.approx(want_t, rel=1e-6, abs=1e-9), (sigma, y, hint)


def test_young_conjugate_calls_phi_once_per_doubling():
    # phi at b0 and b0/2, then once at each doubled b until y t - phi(t) stops rising
    # from b/2 to b; golden section then starts on [0, b] at b - b/phi and b/phi
    for sigma, y, hint in _young_cases()[::7]:
        ts = []
        young_conjugate(lambda t: ts.append(t) or phi_sigma(sigma, t), y, bracket_hint=hint)
        b0 = max(1.0, 2.0 * hint) if hint else 1.0
        n = 2
        while n < len(ts) and ts[n] == b0 * 2.0 ** (n - 1):
            n += 1
        b = [0.5 * b0] + [b0 * 2.0 ** i for i in range(n - 1)]
        assert ts[:n] == b[1:2] + b[:1] + b[2:]
        f = [y * t - phi_sigma(sigma, t) for t in b]
        assert all(hi > lo for lo, hi in zip(f[:-2], f[1:-1])) and not f[-1] > f[-2]
        assert ts[n:n + 2] == [b[-1] - conjugate._INVPHI * b[-1], conjugate._INVPHI * b[-1]]


@pytest.mark.parametrize("y, t_cap", [(2.0, 1e3), (2.0, 1e6), (1e300, 2.0 ** 1000)])
def test_young_conjugate_divergence_is_unchanged(y, t_cap, monkeypatch):
    # the cap is min(_T_CAP, max_float / y); the bracket raises at the first doubled b past it,
    # before it calls phi there
    monkeypatch.setattr(conjugate, "_T_CAP", t_cap)
    ts = []
    with pytest.raises(DivergenceError) as err:
        young_conjugate(lambda t: ts.append(t) or t, y)
    cap = min(t_cap, sys.float_info.max / y)
    assert str(err.value) == f"objective still increasing at t = {cap:g}; phi*({y}) diverges"
    assert ts == [1.0, 0.5] + [2.0 ** i for i in range(1, math.floor(math.log2(cap)) + 1)]


# -- phi_sigma_conjugate against the reference -------------------------------------

def _conjugate_cases():
    """Seeded y from just above 1 to where y^sigma nears the floats, sigma from 1 + 1e-12 to 1e4;
    at sigma >= 300 most y lie in (1, 1.1], where log1p(c w) - log1p(w) cancels as sigma grows."""
    rng = np.random.default_rng(11)
    for sigma in (1.0 + 2.0 ** -40, 1.0001, 1.01, 1.5, 2.0, 6.0, 100.0):
        top = min(300.0, 300.0 / sigma)
        yield sigma, np.concatenate([1.0 + 10.0 ** rng.uniform(-15.0, 0.0, 4), 10.0 ** rng.uniform(0.0, top, 10)])
    for sigma in (300.0, 1e3, 1e4):
        yield sigma, np.concatenate([1.0 + 0.1 * 10.0 ** rng.uniform(-14.0, 0.0, 30),
                                     10.0 ** rng.uniform(0.0, 300.0 / sigma, 4)])


def test_phi_sigma_conjugate_matches_the_reference():
    # an error of a few ulps in the Newton root w grows (1 + w)-fold in t* = w e^w and
    # (2 + sigma w/(sigma-1))-fold in phi* = w^2 e^(sigma w/(sigma-1)) / ((sigma-1)(1+w));
    # the worst of 780 seeded points is 28 eps times that
    eps = sys.float_info.epsilon
    for sigma, y in _conjugate_cases():
        val, ts = phi_sigma_conjugate(sigma, y)
        for yi, v, t in zip(y.tolist(), val.tolist(), ts.tolist()):
            want, want_t = _reference.phi_star(sigma, yi)
            w = float(_reference.w0(want_t))
            assert _reference.rel(v, want) <= 64 * eps * (2.0 + sigma / (sigma - 1.0) * w), (sigma, yi)
            assert _reference.rel(t, want_t) <= 64 * eps * (1.0 + w), (sigma, yi)


def test_phi_sigma_conjugate_stops_after_a_step_below_1e_14(monkeypatch):
    # Newton's last step, from the last w that g is evaluated at to the w of the result, is
    # below 1e-14 relative: each point has converged, not merely slowed down. W(t*) gives
    # that w back to a few ulps, the rounding of t* = w e^w
    seen, slope = [], conjugate._ln_phi_slope
    monkeypatch.setattr(conjugate, "_ln_phi_slope", lambda w, *a: seen.append(float(w[0])) or slope(w, *a))
    for sigma, y in _conjugate_cases():
        for yi in y.tolist():
            seen.clear()
            w = float(_reference.w0(phi_sigma_conjugate(sigma, yi)[1]))
            assert abs(w - seen[-1]) <= 2e-14 * w, (sigma, yi)


# -- phi_sigma_conjugate: an array entry is the scalar call ----------------------

def test_phi_sigma_conjugate_array_entries_equal_scalar_calls():
    y = np.array([1200.5962566316898, 1.0001])
    v, t = phi_sigma_conjugate(2.0, y)
    assert (v[0], t[0]) == phi_sigma_conjugate(2.0, float(y[0]))
    pairs = 10.0 ** np.random.default_rng(0).uniform(0.0, 6.0, (600, 2))
    V, T = phi_sigma_conjugate(2.0, pairs)
    for row, vr, tr in zip(pairs, V, T):
        v, t = phi_sigma_conjugate(2.0, row)
        for i in range(2):
            assert (v[i], t[i]) == (vr[i], tr[i]) == phi_sigma_conjugate(2.0, float(row[i]))


@pytest.mark.parametrize("sigma", [1.0001, 1.5, 3.0, 6.0])
def test_phi_sigma_conjugate_array_entries_equal_scalar_calls_at_any_sigma(sigma):
    y = np.concatenate([[0.0, 1.0], 10.0 ** np.random.default_rng(1).uniform(-1.0, 50.0 / sigma, 2000)])
    v, t = phi_sigma_conjugate(sigma, y)
    assert all((v[i], t[i]) == phi_sigma_conjugate(sigma, float(yi)) for i, yi in enumerate(y))


# -- phi_sigma: its input guard and input types -------------------------------

@pytest.mark.parametrize("t, message", [
    (math.nan, "lambert_w0 requires finite x, got nan"),
    (math.inf, "lambert_w0 requires finite x, got inf"),
    (-math.inf, "phi_sigma needs t >= 0, got -inf"),
    (-1.0, "phi_sigma needs t >= 0, got -1.0"),
    (np.array([1.0, -1.0]), "phi_sigma needs t >= 0, got -1.0"),
    (np.array([1.0, math.nan]), "phi_sigma needs finite t, got nan"),
    (np.array([[1.0], [math.inf]]), "phi_sigma needs finite t, got inf"),
    (np.array([math.nan, -math.inf]), "phi_sigma needs t >= 0, got -inf")])
def test_phi_sigma_domain_errors(t, message):
    with pytest.raises(DomainError) as err:
        phi_sigma(2.0, t)
    assert str(err.value) == message


@pytest.mark.parametrize("sigma, message", [
    (1.0, "sigma must exceed 1, got 1.0"), (math.nan, "sigma must exceed 1, got nan"),
    (math.inf, "sigma must be finite, got inf")])
def test_phi_sigma_rejects_sigma(sigma, message):
    for t in (1.0, np.array([1.0])):
        with pytest.raises(DomainError) as err:
            phi_sigma(sigma, t)
        assert str(err.value) == message


@pytest.mark.parametrize("t", [3, np.float64(3.0), np.float32(3.0), np.int64(3)])
def test_phi_sigma_takes_any_real_scalar(t):
    assert phi_sigma(2.0, t) == pytest.approx(phi_sigma(2.0, 3.0), rel=1e-6)
    assert phi_sigma(2.0, t) == phi_sigma(2.0, 3.0) or isinstance(t, np.float32)
