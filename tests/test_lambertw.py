import math

import numpy as np
import pytest

from extgevrey import (
    OMEGA,
    DomainError,
    WEvaluation,
    check_w3_bounds,
    check_w_identities,
    evaluate_w,
    lambert_w0,
    lambert_w0_grid,
)

# reference values computed with 40-digit arbitrary-precision arithmetic
W_REFERENCE = {
    1e-5: 9.9999000014999741519e-6,
    0.5: 0.35173371124919582602,
    1.0: 0.567143290409783873,
    10.0: 1.7455280027406993831,
    1e5: 9.2845714286221089832,
    1e10: 20.028685413304950781,
    1e300: 684.24720862976084929,
}


def bisect_omega():
    """Independent oracle: solve w e^w = 1 by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_omega_constant_matches_bisection():
    assert abs(OMEGA - bisect_omega()) < 1e-15
    assert abs(lambert_w0(1.0) - OMEGA) < 1e-15


@pytest.mark.parametrize("x,expected", sorted(W_REFERENCE.items()))
def test_reference_values(x, expected):
    assert lambert_w0(x) == pytest.approx(expected, rel=1e-14)


def test_zero():
    assert lambert_w0(0.0) == 0.0


def test_round_trip_w_times_exp_w():
    for w in np.logspace(-6, math.log10(700.0), 200):
        x = w * math.exp(w)
        assert abs(lambert_w0(x) - w) <= 1e-12 * max(w, 1.0)


def test_grid_matches_scalar():
    x = np.logspace(-8, 12, 300)
    grid = lambert_w0_grid(x)
    scalars = np.array([lambert_w0(float(v)) for v in x])
    np.testing.assert_allclose(grid, scalars, rtol=1e-14, atol=1e-300)


def test_domain_errors():
    with pytest.raises(DomainError):
        lambert_w0(-1.0)
    with pytest.raises(DomainError):
        lambert_w0(math.nan)
    with pytest.raises(DomainError):
        lambert_w0_grid(np.array([1.0, -2.0]))


def test_evaluate_w_reports_small_residual():
    for x in (1e-6, 0.3, 5.0, 1e8, 1e250):
        ev = evaluate_w(x)
        assert ev.residual <= 1e-12
        assert ev.x == x


def test_w3_bracket():
    rep = check_w3_bounds(np.logspace(math.log10(math.e), 15, 200))
    assert rep.passed
    assert rep.ok.all()


def test_w3_bracket_rejects_small_x():
    with pytest.raises(DomainError):
        check_w3_bounds(np.array([1.0, 5.0]))


def test_identities_reject_x_at_most_1():
    with pytest.raises(DomainError, match="^identity checks need x > 1$"):
        check_w_identities(np.array([1.0, 5.0]))


def test_identities():
    rep = check_w_identities(np.logspace(0.5, 10, 100))
    assert rep.passed
    assert np.max(rep.identity_err) <= 1e-12 * 10 * math.log(10)
    # the asymptotic band compares W(10 x) with W(x), half-width 3 ln 10 / ln x
    np.testing.assert_array_equal(rep.ratio, lambert_w0_grid(10.0 * rep.x) / lambert_w0_grid(rep.x))
    np.testing.assert_array_equal(rep.eps_band, 3.0 * math.log(10.0) / np.log(rep.x))


# -- the one-comparison guard keeps the messages and the accepted types --------

@pytest.mark.parametrize("x, message", [
    (math.nan, "lambert_w0 requires finite x, got nan"),
    (math.inf, "lambert_w0 requires finite x, got inf"),
    (-math.inf, "lambert_w0 requires finite x, got -inf"),
    (-1.0, "lambert_w0 is only defined for x >= 0, got -1.0"),
    (-1, "lambert_w0 is only defined for x >= 0, got -1.0"),
    (-5e-324, "lambert_w0 is only defined for x >= 0, got -5e-324")])
@pytest.mark.parametrize("fn", [lambert_w0, evaluate_w])
def test_guard_messages(fn, x, message):
    with pytest.raises(DomainError) as err:
        fn(x)
    assert str(err.value) == message


@pytest.mark.parametrize("x, message", [
    ([1.0, math.nan], "lambert_w0_grid requires finite x >= 0, got nan"),
    ([math.inf, 1.0], "lambert_w0_grid requires finite x >= 0, got inf"),
    ([[1.0, -math.inf], [-2.0, math.nan]], "lambert_w0_grid requires finite x >= 0, got -inf"),
    ([0.0, -5e-324], "lambert_w0_grid requires finite x >= 0, got -5e-324"),
    (-2.0, "lambert_w0_grid requires finite x >= 0, got -2.0")])
def test_grid_guard_names_the_first_offending_x(x, message):
    with pytest.raises(DomainError) as err:
        lambert_w0_grid(np.array(x))
    assert str(err.value) == message


@pytest.mark.parametrize("x", [0, 2, np.float64(2.0), np.float32(2.0), np.int64(2), True, -0.0])
def test_w_takes_any_real_scalar(x):
    assert lambert_w0(x) == lambert_w0(float(x))
    ev = evaluate_w(x)
    assert type(ev.x) is float and type(ev.w) is float and type(ev.iterations) is int
    assert ev == evaluate_w(float(x))


# -- the result types are named tuples -----------------------------------------

def test_w_evaluation_is_a_named_tuple():
    ev = evaluate_w(1.0)
    assert WEvaluation._fields == ("x", "w", "residual", "iterations")
    assert repr(ev) == (f"WEvaluation(x=1.0, w={ev.w!r}, residual={ev.residual!r}, "
                        f"iterations={ev.iterations!r})")
    x, w, residual, iterations = ev
    assert ev == (x, w, residual, iterations) and w == OMEGA
    with pytest.raises(AttributeError):
        ev.w = 0.0

