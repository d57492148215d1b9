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
    lnk = np.linspace(0.0, 25.0, 150)
    for lnh in (-1.0, 0.0, 0.7):
        scalar = [_kernels._assoc_sup_scalar(v, lnh, 1.0, 2.0) for v in lnk]
        va = np.array([v for v, _ in scalar])
        pa = np.array([p for _, p in scalar])
        vb, pb = _kernels.assoc_sup_grid(lnk, lnh, 1.0, 2.0)
        np.testing.assert_allclose(va, vb, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(pa, pb)


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
