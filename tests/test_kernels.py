import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extgevrey import SequenceParams, assoc_fn_sup, evaluate_w, lambert_w0
from extgevrey import _kernels
from extgevrey.lambertw import w_residual


def _both_sides(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def test_w0_paths_agree():
    x = np.concatenate([
        np.array([0.0, 1e-9, 5e-5, 1e-4, 0.5, 1.0, np.e]),
        np.logspace(1, 300, 200),
        _both_sides(1e-4), _both_sides(np.e),
    ])
    grid = _kernels.w0_grid(x)
    scalar = np.array([lambert_w0(v) for v in x])
    evaluated = np.array([evaluate_w(v).w for v in x])
    np.testing.assert_allclose(scalar, grid, rtol=1e-14, atol=1e-300)
    np.testing.assert_array_equal(evaluated, scalar)


def test_assoc_sup_paths_agree():
    lnk = np.linspace(-3.0, 25.0, 150)
    for (tau, sigma), lnh in itertools.product(
            [(1.0, 2.0), (0.5, 1.5), (2.0, 3.5), (1.0, 1.2)], (-1.0, 0.0, 0.7, 2.0)):
        scalar = [_kernels._assoc_sup_scalar(v, lnh, tau, sigma) for v in lnk]
        va = np.array([v for v, _ in scalar])
        pa = np.array([p for _, p in scalar])
        vb, pb = _kernels.assoc_sup_grid(lnk, lnh, tau, sigma)
        np.testing.assert_allclose(va, vb, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(pa, pb)


def _head(lnk, lnh, tau, sigma):
    cap = _kernels._scan_cap(tau, sigma, abs(lnh), float(np.max(np.abs(lnk))))
    return min(cap, _kernels._p_concave_from(lnh, tau))


def _sup_brute(lnk, lnh, tau, sigma, p_max):
    """T and its leftmost maximiser by enumerating p = 1..p_max."""
    p = np.arange(1.0, p_max + 1.0)
    pw = p ** sigma
    g = pw * lnh + p * lnk - tau * pw * np.log(p)
    i = int(np.argmax(g))
    scale = abs(pw[i] * lnh) + abs(p[i] * lnk) + abs(tau * pw[i] * math.log(p[i]))
    return (g[i], i + 1, scale) if g[i] > 0.0 else (0.0, 0, 1.0)


_TAU = st.floats(0.3, 3.0)
_SIGMA = st.floats(1.2, 3.5)
_LNH = st.floats(-2.0, 3.0)          # ln h = 3 at tau = 0.3: a head of 22027 points
_LNK = st.lists(st.floats(-3.0, 25.0), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(_TAU, _SIGMA, _LNH, _LNK)
def test_assoc_sup_grid_matches_brute_force(tau, sigma, lnh, lnk):
    lnk = np.array(lnk)
    values, argmax = _kernels.assoc_sup_grid(lnk, lnh, tau, sigma)
    head = _head(lnk, lnh, tau, sigma)
    c = (tau - sigma * lnh) / (tau * sigma)
    for L, v, a in zip(lnk, values, argmax):
        x = max(L, 0.0) * (sigma - 1.0) / (tau * sigma) * math.exp((sigma - 1.0) * c)
        p_star = math.exp(lambert_w0(x) / (sigma - 1.0) - c)
        want, want_p, scale = _sup_brute(L, lnh, tau, sigma, int(2 * p_star) + head + 10)
        assert a == want_p
        assert abs(v - want) <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(_TAU, _SIGMA, _LNH, _LNK)
def test_assoc_sup_scalar_and_grid_agree(tau, sigma, lnh, lnk):
    values, argmax = _kernels.assoc_sup_grid(np.array(lnk), lnh, tau, sigma)
    for L, v, a in zip(lnk, values, argmax):
        vs, ps = _kernels._assoc_sup_scalar(L, lnh, tau, sigma)
        assert ps == a
        assert vs == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_w_iterations_below_e_are_few():
    # the Halley stopping test on [1e-4, e) sits above the rounding floor of
    # its residual, so no point there runs to the 50-step cap
    x = np.concatenate([np.linspace(1e-4, np.e, 4001)[:-1], [np.nextafter(np.e, 0.0)]])
    assert max(evaluate_w(v).iterations for v in x) <= 8


def test_w0_kernels_on_the_negative_branch():
    # the kernels serve W0 on [-1/e, 0) to the T_h tail (ln k < 0); at -1/e
    # itself, a double root, w is only defined to about sqrt(eps)
    x = np.concatenate([-np.logspace(-12, -1e-3, 200) / np.e, [-5e-5, -1e-4, -1.5e-4]])
    w = _kernels.w0_grid(x)
    np.testing.assert_allclose(w * np.exp(w), x, rtol=0.0, atol=1e-15)
    assert np.all(w > -1.0)
    scalar = np.array([_kernels.w0_scalar(v)[0] for v in x])
    np.testing.assert_allclose(scalar, w, rtol=1e-14, atol=0.0)
    assert _kernels.w0_grid(np.array([-1.0 / np.e]))[0] == pytest.approx(-1.0, abs=1e-7)
    assert _kernels.w0_scalar(-1.0 / np.e)[0] == pytest.approx(-1.0, abs=1e-7)


def test_assoc_sup_past_the_head_cap():
    # h^(1/tau) = e^16 > 4e6 + 1, where the head stops: for ln k <= 0 the
    # maximiser, near p = e^(16 - 1/sigma) = 5.4e6, lies past the head
    lnh, tau, sigma = 16.0, 1.0, 2.0
    lnk = np.array([-1.0, 0.0])
    values, argmax = _kernels.assoc_sup_grid(lnk, lnh, tau, sigma)
    assert _head(lnk, lnh, tau, sigma) == 4_000_001
    p0 = round(math.exp(lnh / tau - 1.0 / sigma))
    for L, v, a in zip(lnk, values, argmax):
        p = np.arange(p0 - 100.0, p0 + 100.0)
        g = p ** sigma * lnh + p * L - tau * p ** sigma * np.log(p)
        assert v == pytest.approx(g.max(), rel=1e-14)
        assert abs(a - p[np.argmax(g)]) <= 2


def _counting_sum_brute(lnk, tau, sigma):
    """T(k) = sum over p of (ln k - log m_p)_+, one quotient at a time."""
    def log_big_m(p):
        return tau * p ** sigma * math.log(p) if p > 1 else 0.0

    total, n, p = 0.0, 0, 1
    while True:
        logm = log_big_m(float(p)) - log_big_m(float(p - 1))
        if logm > lnk:
            return total, n
        total += lnk - logm
        n += 1
        p += 1


def test_counting_paths_agree():
    lnk = np.linspace(0.0, 30.0, 200)
    brute = [_counting_sum_brute(v, 1.0, 2.0) for v in lnk]
    va = np.array([v for v, _ in brute])
    ca = np.array([n for _, n in brute])
    vb, cb = _kernels.counting_sum_grid(lnk, 1.0, 2.0)
    np.testing.assert_allclose(va, vb, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(ca, cb)


def test_scan_cap_is_past_the_maximizer():
    for tau, sigma, lnh, lnk in ((1.0, 2.0, 0.0, 20.0), (0.5, 1.5, 1.5, 25.0),
                                 (2.0, 3.0, -2.0, 10.0)):
        cap = _kernels._scan_cap(tau, sigma, abs(lnh), abs(lnk))
        _, best_p = _kernels._assoc_sup_scalar(lnk, lnh, tau, sigma)
        assert best_p < cap
        # the objective really is decreasing at the cap
        g = lambda p: _kernels._assoc_objective(float(p), lnk, lnh, tau, sigma)
        assert g(cap + 1) < g(cap)


def test_numpy_backend_end_to_end():
    assert abs(lambert_w0(1.0) - 0.5671432904097838) < 1e-14
    r = assoc_fn_sup(SequenceParams(1.0, 2.0), 1.0, 1e6)
    assert abs(r.value - 33.081332453938846515) < 1e-10


def test_import_loads_no_scipy_or_numba():
    code = ("import sys, extgevrey\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'numba')))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e300))
def test_w0_scalar_matches_grid(x):
    w = lambert_w0(x)
    np.testing.assert_allclose(w, _kernels.w0_grid(np.array([x]))[0],
                               rtol=1e-14, atol=0.0)
    # a correctly rounded w is off by up to half an ulp of w, which moves
    # w e^w by a relative (1 + w) * 1.1e-16; hence the (1 + w) factor
    assert w_residual(x, w) <= 1e-14 * (1.0 + w)
