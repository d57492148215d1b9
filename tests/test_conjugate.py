import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extgevrey import (
    DivergenceError,
    DomainError,
    NumericalError,
    SequenceParams,
    biconjugate,
    bmt_log_power,
    bmt_quotient,
    check_weight_axioms,
    conjugate_table,
    corollary_weight,
    custom_weight,
    integral_closed_form_check,
    lambert_weight,
    log_composition,
    phi_sigma,
    phi_sigma_conjugate,
    phi_weight,
    power_weight,
    young_conjugate,
)

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
    # sqrt(machine eps) relative, plus its absolute tolerance near t = 0
    np.testing.assert_allclose(ts, tab.t_star, rtol=1e-6, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.floats(1.0, 6.0, exclude_min=True), st.floats(0.0, 300.0))
def test_phi_sigma_conjugate_matches_golden_section_at_any_sigma(sigma, y):
    # golden section run to the float spacing (tol = 0), so that it resolves
    # maximisers as small as the 1e-15 of sigma = 1 + 2**-52; its objective
    # y t - phi(t) still carries a rounding error of about eps y t
    val, ts = phi_sigma_conjugate(sigma, y)
    gv, gt = young_conjugate(lambda t: phi_sigma(sigma, t), y, tol=0.0)
    assert val == pytest.approx(gv, rel=1e-12, abs=4.0 * sys.float_info.epsilon * y * gt)
    assert ts == pytest.approx(gt, rel=1e-6, abs=1e-9)


def test_phi_sigma_past_the_float_range_is_inf():
    # e^(W(1)/(s-1)) at s = 1 + 2**-52 is e^(2.6e15)
    sigma = 1.0 + 2.0 ** -52
    assert phi_sigma(sigma, 1.0) == math.inf
    with np.errstate(over="ignore"):
        assert phi_sigma(sigma, np.array([1.0]))[0] == math.inf


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


def test_phi_sigma_conjugate_reports_nonconvergence(monkeypatch):
    from extgevrey import conjugate

    monkeypatch.setattr(conjugate, "_NEWTON_MAXITER", 1)
    with pytest.raises(NumericalError, match=r"converge.*sigma=2\.0.*y=5\.0"):
        phi_sigma_conjugate(2.0, [0.5, 5.0])


def test_quadratic_is_self_conjugate():
    phi = lambda t: 0.5 * t * t
    for y in (0.5, 1.0, 3.0, 10.0):
        val, ts = young_conjugate(phi, y)
        assert val == pytest.approx(0.5 * y * y, rel=1e-9)
        assert ts == pytest.approx(y, rel=1e-5)


def test_conjugate_of_linear_diverges():
    with pytest.raises(DivergenceError):
        young_conjugate(lambda t: t, 2.0, t_cap=1e6)


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
    # interpolation-free lookup at a node and a fresh evaluation off-node
    assert tab(float(y[37])) == tab.phi_star[37]
    val, _ = young_conjugate(phi, 12.34)
    assert tab(12.34) == pytest.approx(val, rel=1e-8)


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


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_biconjugate_recovers_phi(sigma):
    phi = lambda t: phi_sigma(sigma, t)
    for t in (0.5, 2.0, 9.0, 27.0):
        val = biconjugate(phi, t)
        assert val == pytest.approx(phi(t), rel=1e-6, abs=1e-6)


def test_weights_are_even_and_zero_at_origin():
    for w in (bmt_log_power(2.0), bmt_quotient(2.0), power_weight(0.5),
              corollary_weight(2.0), phi_weight(2.0), lambert_weight()):
        assert w(0.0) == pytest.approx(0.0, abs=1e-12)
        assert w(-5.0) == w(5.0)


def test_log_composition():
    phi = log_composition(power_weight(1.0))
    assert phi(2.0) == pytest.approx(math.exp(2.0))


def test_axiom_classification():
    assert check_weight_axioms(bmt_log_power(2.0)).passed
    assert check_weight_axioms(bmt_quotient(2.0)).passed
    rep = check_weight_axioms(lambert_weight())
    assert (rep.alpha, rep.beta, rep.gamma, rep.delta) == (True, True, False, True)
    assert check_weight_axioms(power_weight(0.5)).passed
    assert check_weight_axioms(power_weight(1.0)).passed
    rep = check_weight_axioms(power_weight(1.5))
    assert not rep.beta and not rep.passed


def test_axiom_grid_width_guard():
    with pytest.raises(DomainError):
        check_weight_axioms(bmt_log_power(2.0), grid=np.logspace(2, 4, 50))


def test_custom_weight_name():
    w = custom_weight("probe", lambda a: a)
    assert w.name == "probe"
    assert w(3.0) == 3.0


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


@pytest.mark.parametrize("bad", [1.0, np.inf, np.nan])
def test_integral_closed_form_rejects_bad_k(bad):
    with pytest.raises(DomainError, match="finite k > 1"):
        integral_closed_form_check(SequenceParams(1.0, 2.0), 1.0, [10.0, bad])
