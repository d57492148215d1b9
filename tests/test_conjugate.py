import math
import re
import subprocess
import sys

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


# -- young_conjugate: one phi call per bracket doubling, the same result ------

def _young_conjugate_two_calls(phi, y, *, bracket_hint=None, t_cap=2.0 ** 1000, tol=1e-10):
    """`young_conjugate` with both bracket ends evaluated at every doubling. An oracle only."""
    def f(t):
        return y * t - phi(t)

    cap = min(t_cap, sys.float_info.max / y) if y > 0 else t_cap
    b = max(1.0, 2.0 * bracket_hint) if bracket_hint else 1.0
    while f(b) > f(0.5 * b):
        b *= 2.0
        if b > cap:
            raise DivergenceError(f"objective still increasing at t = {cap:g}; phi*({y}) diverges",
                                  cap=cap)
    t_star, val = conjugate._golden_max(f, 0.0, b, tol * max(1.0, b * 1e-6))
    return max(val, 0.0), t_star


class _Counted:
    """phi_sigma(sigma, .) recording every t it is called at."""

    def __init__(self, sigma):
        self.sigma, self.ts = sigma, []

    def __call__(self, t):
        self.ts.append(t)
        return phi_sigma(self.sigma, t)


def _young_cases():
    rng = np.random.default_rng(21)
    ys = np.concatenate([300.0 * (np.arange(200) + rng.random(200)) / 200, 10.0 ** rng.uniform(-3, 3, 60),
                         [0.0, 1.0, 1.5]])
    return [(s, float(y), hint) for s in (1.5, 2.0, 3.0) for y in ys
            for hint in (None, float(rng.uniform(0.1, 40.0)))]


def test_young_conjugate_matches_the_two_call_bracket():
    for sigma, y, hint in _young_cases():
        phi = lambda t: phi_sigma(sigma, t)
        got = young_conjugate(phi, y, bracket_hint=hint)
        assert repr(got) == repr(_young_conjugate_two_calls(phi, y, bracket_hint=hint)), (sigma, y, hint)


def test_young_conjugate_calls_phi_once_per_doubling():
    for sigma, y, hint in _young_cases()[::7]:
        new, old = _Counted(sigma), _Counted(sigma)
        young_conjugate(new, y, bracket_hint=hint)
        _young_conjugate_two_calls(old, y, bracket_hint=hint)
        b0 = max(1.0, 2.0 * hint) if hint else 1.0
        # the bracket: b0, b0/2, then each doubled b once; golden section starts off the powers of 2
        n = 2
        while n < len(new.ts) and new.ts[n] == b0 * 2.0 ** (n - 1):
            n += 1
        assert new.ts[:n] == [b0, 0.5 * b0] + [b0 * 2.0 ** i for i in range(1, n - 1)]
        assert len(new.ts) == len(old.ts) - (n - 2)


@pytest.mark.parametrize("y, t_cap", [(2.0, 1e3), (2.0, 1e6), (1e300, 2.0 ** 1000)])
def test_young_conjugate_divergence_is_unchanged(y, t_cap, monkeypatch):
    monkeypatch.setattr(conjugate, "_T_CAP", t_cap)
    ts = []
    phi = lambda t: ts.append(t) or t
    with pytest.raises(DivergenceError) as got:
        young_conjugate(phi, y)
    with pytest.raises(DivergenceError) as want:
        _young_conjugate_two_calls(lambda t: t, y, t_cap=t_cap)
    assert str(got.value) == str(want.value) and got.value.cap == want.value.cap
    # the cap check comes before the evaluation at the doubled b
    assert max(ts) <= got.value.cap and len(ts) == len(set(ts))


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
    (-1.0, "phi_sigma needs t >= 0, got -1.0")])
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


@pytest.mark.parametrize("maxiter", [1, 2, 3, 4, 5])
def test_phi_sigma_conjugate_names_the_first_unconverged_y(monkeypatch, maxiter):
    monkeypatch.setattr(conjugate, "_NEWTON_MAXITER", maxiter)
    y = 10.0 ** np.random.default_rng(2).uniform(0.0, 6.0, 50)
    fails = []
    for v in y.tolist():
        try:
            phi_sigma_conjugate(2.0, v)
        except NumericalError:
            fails.append(v)
    if not fails:
        phi_sigma_conjugate(2.0, y)
        return
    with pytest.raises(NumericalError, match=rf"in {maxiter} steps; sigma=2.0, y={fails[0]!r}$"):
        phi_sigma_conjugate(2.0, y)
