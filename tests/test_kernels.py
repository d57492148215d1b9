import functools
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extgevrey import (NumericalError, SequenceParams, assoc_fn_counting, assoc_fn_counting_grid,
                       assoc_fn_sup, assoc_fn_sup_grid, evaluate_w)
from extgevrey import lambert_w0
from extgevrey import _kernels, assocfn
from extgevrey.lambertw import w_residual

import _reference


def _both_sides(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


def test_w0_near_zero_is_within_an_ulp():
    # the series branch |x| < 1e-4: a 3-term series is 2.7e-12 off at 9.99e-5
    rng = np.random.default_rng(2024)
    mag = np.exp(rng.uniform(math.log(1e-8), math.log(1e-4), 300))
    edge = np.nextafter(1e-4, 0.0)
    x = np.concatenate([mag * rng.choice([-1.0, 1.0], mag.size),
                        [9.99e-5, -9.99e-5, 5e-5, 1e-300, 5e-324, edge, -edge]])
    grid = _kernels.w0_grid(x)
    for xi, wg in zip(x.tolist(), grid.tolist()):
        assert _kernels.w0_scalar(xi)[0] == wg
        assert _reference.ulps(wg, _reference.w0(xi)) <= 1.0


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
_LNH = st.floats(-2.0, 3.0)
_LNK = st.lists(st.floats(-3.0, 25.0), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(_TAU, _SIGMA, _LNH, _LNK)
def test_assoc_sup_grid_matches_brute_force(tau, sigma, lnh, lnk):
    lnk = np.array(lnk)
    values, argmax = _kernels.assoc_sup_grid(lnk, lnh, tau, sigma)
    c = (tau - sigma * lnh) / (tau * sigma)
    for L, v, a in zip(lnk, values, argmax):
        # for ln k <= 0 the local maximum lies below p* at ln k = 0, e^(-c)
        x = max(L, 0.0) * (sigma - 1.0) / (tau * sigma) * math.exp((sigma - 1.0) * c)
        p_star = math.exp(lambert_w0(x) / (sigma - 1.0) - c)
        want, want_p, scale = _sup_brute(L, lnh, tau, sigma, int(2 * p_star) + 10)
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
    # two fixed steps wherever the series does not apply: no loop, no convergence test
    x = np.concatenate([np.linspace(1e-4, np.e, 4001)[:-1], [np.nextafter(np.e, 0.0), 1e300]])
    assert {evaluate_w(v).iterations for v in x} == {2}
    assert evaluate_w(0.0).iterations == evaluate_w(5e-5).iterations == 0


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


def test_assoc_sup_at_large_h():
    # h^(1/tau) = e^16 and e^20: for ln k <= 0 the maximiser lies near
    # p = e^(ln h - 1/sigma), 5.4e6 and 2.9e8, found with no scan below it
    tau, sigma = 1.0, 2.0
    params = SequenceParams(tau, sigma)
    k = np.exp([-1.0, 0.0])
    for h in (math.exp(16.0), math.exp(20.0)):
        lnh = math.log(h)
        tracemalloc.start()
        try:
            values, argmax = assoc_fn_sup_grid(params, h, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        p0 = round(math.exp(lnh / tau - 1.0 / sigma))
        for kk, v, a in zip(k.tolist(), values, argmax):
            # in floats the objective's three terms, up to 1.7e18 at p = 2.9e8, cancel to a
            # rounding error of hundreds
            g = {p: _reference.g(p, math.log(kk), lnh, tau, sigma) for p in range(p0 - 100, p0 + 100)}
            best = max(g, key=g.get)
            assert v == pytest.approx(float(g[best]), rel=1e-14)
            assert abs(a - best) <= 2
            r = assoc_fn_sup(params, h, kk)
            assert r.argmax_p == a
            assert r.value == pytest.approx(v, rel=1e-13)


def _assert_counting_sums_match_the_reference(lnk, tau, sigma, T, counts):
    """N by log m_N <= ln k < log m_(N+1) and T = N ln k - log M_N, both in 50 digits, at every
    ln k > 0; T is the difference of two terms up to N ln k: within 4 ulps of N ln k."""
    for L, n, v in zip(lnk.tolist(), counts.tolist(), T.tolist()):
        if L > 0.0:
            assert _reference.log_m(n, tau, sigma) <= L < _reference.log_m(n + 1, tau, sigma), (tau, sigma, L)
            assert abs(v - float(_reference.counting_sum(L, n, tau, sigma))) <= 4.0 * math.ulp(n * L)


def test_counting_paths_agree():
    lnk = np.linspace(0.0, 30.0, 200)
    T, counts = _kernels.counting_sum_grid(lnk, 1.0, 2.0)
    assert [_kernels._counting_sum_scalar(v, 1.0, 2.0)[1] for v in lnk.tolist()] == counts.tolist()
    _assert_counting_sums_match_the_reference(lnk, 1.0, 2.0, T, counts)


def _counting_error(fn, lnk, tau, sigma):
    with pytest.raises(NumericalError) as info:
        fn(lnk, tau, sigma)
    return type(info.value), str(info.value)


def _counting_cases():
    """Seeded (tau, sigma, ln k rows, ln k past the table cap), the extremes of tau included."""
    rng = np.random.default_rng(2022)
    pairs = [(float(np.exp(rng.uniform(math.log(0.01), math.log(100.0)))),
              float(1.0 + np.exp(rng.uniform(math.log(0.01), math.log(5.0))))) for _ in range(60)]
    pairs += [(tau, sigma) for tau in (1e-300, 1e300) for sigma in (1.01, 2.0, 6.0)]
    for tau, sigma in pairs:
        with np.errstate(over="ignore"):       # log m_p is inf at tau = 1e300
            top, cap = (float(_kernels.ext_log_m(np.float64(p), tau, sigma))
                        for p in (10 ** 5, _kernels._COUNT_P_CAP))
        top = min(700.0, top)       # N up to 1e5, k a float
        lnk = [-0.5, -1e-300, 0.0]
        if tau > 1e-300:        # at 1e-300 every ln k > 0 passes the table cap
            lnk += [1e-300, 1e-3, *np.exp(rng.uniform(math.log(1e-3), math.log(top), 30))]
        # the kernels compare sigma ln p + ln B(p) with ln ln k - ln tau, each rounded to a few
        # ulps of up to 700 (ln tau at tau = 1e-300): 1e-12 past log m_p at the cap is past it
        yield tau, sigma, np.array(lnk), [cap * (1.0 + 1e-12), 2.0 * cap] if cap < math.inf else []


def test_counting_sum_scalar_and_grid_match_the_reference():
    cap = _kernels._COUNT_P_CAP
    for tau, sigma, lnk, past in _counting_cases():
        vg, cg = _kernels.counting_sum_grid(lnk, tau, sigma)
        scalar = [_kernels._counting_sum_scalar(v, tau, sigma) for v in lnk.tolist()]
        assert [n for _, n in scalar] == cg.tolist()
        np.testing.assert_allclose([v for v, _ in scalar], vg, rtol=4e-15, atol=0.0)
        assert cg[:3].tolist() == [0, 0, 1] and not vg[:3].any()      # ln k = -0.5, -1e-300, 0
        _assert_counting_sums_match_the_reference(lnk, tau, sigma, vg, cg)
        for v in past:
            err = _counting_error(_kernels.counting_sum_grid, np.array([v]), tau, sigma)
            assert _counting_error(_kernels._counting_sum_scalar, v, tau, sigma) == err == (
                NumericalError, f"the counting sum needs quotients m_p past p = {cap}: "
                                f"tau={tau!r}, sigma={sigma!r}, k up to exp({v!r})")


@pytest.mark.parametrize("sigma", [1.001, 1.01, 2.0, 6.0])
def test_quotients_are_within_a_few_ulps(sigma):
    # the difference of the two log M terms is off by about eps p / sigma relative
    # (3.7e6 ulps near p = 2**22 at sigma = 1.01); tau p^sigma B(p) is not
    rng = np.random.default_rng(17)
    cap = _kernels._COUNT_P_CAP
    p = sorted({2, 3, 10, 64, 1000, 2 ** 16, cap - 1, cap, *rng.integers(2, cap, 25).tolist()})
    for tau in (1.0, 0.03):
        want = [_reference.log_m(q, tau, sigma) for q in p]
        got = _kernels.ext_log_m(np.array(p, dtype=np.float64), tau, sigma)
        w = np.array([float(v) for v in want])
        assert np.all(np.abs(got - w) <= 8.0 * np.spacing(w)), (tau, sigma)
        # the scalar search decides log m_p <= ln k 1e-13 relative from either side
        for q, v in zip(p, w.tolist()):
            below, above = v * (1.0 - 1e-13), v * (1.0 + 1e-13)
            assert _kernels._counting_sum_scalar(below, tau, sigma)[1] == q - 1
            if q < cap:
                assert _kernels._counting_sum_scalar(above, tau, sigma)[1] == q
            else:
                with pytest.raises(NumericalError, match=f"past p = {cap}"):
                    _kernels._counting_sum_scalar(above, tau, sigma)


def test_scalar_and_grid_counts_agree_up_to_the_cap():
    # ln k log-uniform in (0, log m_N] for N up to 2**22: one grid call per (tau, sigma)
    rng = np.random.default_rng(23)
    for j in range(12):
        tau = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        sigma = float(1.0 + np.exp(rng.uniform(math.log(1e-3), math.log(5.0))))
        top = 2 ** (22 if j < 2 else int(rng.integers(8, 20))) - 1
        lnk_max = float(_kernels.ext_log_m(np.float64(top), tau, sigma))
        lnk = np.exp(rng.uniform(math.log(1e-3), math.log(lnk_max), 200))
        T, counts = _kernels.counting_sum_grid(lnk, tau, sigma)
        scalar = [_kernels._counting_sum_scalar(v, tau, sigma) for v in lnk.tolist()]
        assert counts.tolist() == [n for _, n in scalar], (tau, sigma)
        np.testing.assert_allclose(T, [v for v, _ in scalar], rtol=4e-15, atol=0.0)


def test_the_grid_counts_a_quotient_equal_to_ln_k():
    # log m_p <= ln k counts p. At tau = 1 the grid compares its table sigma ln p + ln B(p)
    # with ln ln k: ln k next to e^(table entry), where the two are equal to the bit
    sigma = 1.5
    p = np.arange(2.0, 1001.0)
    lp = np.log(p)
    table = np.log(_kernels._quotient_factor(p.copy(), lp, sigma)) + lp * sigma
    near = np.exp(table)[:, None] * (1.0 + np.arange(-8, 9) * 2.0 ** -53)
    rows, cols = np.nonzero(np.log(near) == table[:, None])
    assert set(rows.tolist()) == set(range(p.size))
    counts = _kernels.counting_sum_grid(near[rows, cols], 1.0, sigma)[1]
    assert counts.tolist() == (rows + 2).tolist()


def test_sup_is_attained_at_the_counting_index():
    # T(k) = N ln k - log M_N: g(p) = p ln k - log M_p rises while log m_p <= ln k,
    # so the sup's leftmost maximiser is N, except at a tie log m_N = ln k
    rng = np.random.default_rng(15)
    for _ in range(40):
        params = SequenceParams(float(np.exp(rng.uniform(math.log(0.05), math.log(50.0)))),
                                float(1.0 + np.exp(rng.uniform(math.log(0.01), math.log(5.0)))))
        for k in [0.5, 1.0, *np.exp(rng.uniform(0.0, 20.0, 25)).tolist()]:
            lnk = math.log(k)
            try:
                n = assoc_fn_counting(params, k).argmax_p
            except NumericalError:      # past the table cap
                continue
            p = assoc_fn_sup(params, 1.0, k).argmax_p
            log_m_n = float(_kernels.ext_log_m(np.float64(n), params.tau, params.sigma)) if n else -math.inf
            if log_m_n != lnk:      # no m_0
                assert p == n, (params, k)


def test_assoc_fn_counting_takes_the_scalar_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("counting_sum_grid called")

    monkeypatch.setattr(_kernels, "counting_sum_grid", refuse)
    monkeypatch.setattr(assocfn, "counting_sum_grid", refuse)
    res = assoc_fn_counting(SequenceParams(1.0, 2.0), 1e6)
    assert res == _kernels._counting_sum_scalar(math.log(1e6), 1.0, 2.0) + ("counting_sum",)
    assert assoc_fn_counting(SequenceParams(1.0, 2.0), 0.5) == (0.0, 0, "counting_sum")


def test_scan_cap_is_past_the_maximizer():
    for tau, sigma, lnh, lnk in ((1.0, 2.0, 0.0, 20.0), (0.5, 1.5, 1.5, 25.0),
                                 (2.0, 3.0, -2.0, 10.0)):
        cap = _kernels._scan_cap(tau, sigma, abs(lnh), abs(lnk))
        _, best_p = _kernels._assoc_sup_scalar(lnk, lnh, tau, sigma)
        assert best_p < cap
        # the objective really is decreasing at the cap
        g = lambda p: p ** sigma * lnh + p * lnk - tau * p ** sigma * math.log(p)
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


# -- the blocked W kernel: an entry does not depend on its block ------------------

_B = _kernels._BLOCK
_BLOCK_SIZES = [_B - 1, _B, _B + 1, 3 * _B + 7]
# every branch of the kernel: 0, the series, [-1/e, 0), [1e-4, e) and the log form
_W_X = st.one_of(st.just(0.0),
                 st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True),
                 st.floats(-1.0 / math.e, 0.0, exclude_max=True),
                 st.floats(1e-4, math.e, exclude_max=True),
                 st.floats(math.e, 1e300))
def _staged_pool(m=200):
    """x from every branch; x whose Halley steps from the seed w = x number 2, 3, 4 and 5, in
    bands measured with a margin (the seed lies further from W(x) as |x| grows); and x just
    above -1/e (6 to 16 steps): a block of them loses active points in stages."""
    rng = np.random.default_rng(0)
    stages = [(1e-4, 2.5e-3), (-2.5e-3, -1e-4), (4e-3, 0.15), (-0.12, -4e-3),
              (0.25, 1.0), (-0.3, -0.16), (1.3, 2.7), (-0.36, -0.335)]
    return np.concatenate([[0.0], rng.uniform(-1e-4, 1e-4, m), -rng.random(m) / math.e,
                           rng.uniform(1e-4, math.e, m), np.exp(rng.uniform(1.0, 690.0, m)),
                           *(rng.uniform(a, b, m // 4) for a, b in stages),
                           -1.0 / math.e + 10.0 ** rng.uniform(-15.0, -3.0, m // 2)])


_POOL = _staged_pool()


@functools.cache
def _one_point(fn, *v):
    return fn(*(np.array([a]) for a in v))[0]


def _log_abs_and_sign(x):
    """(ln |x|, sign x), ln 0 = -inf: `w0_exp_grid`'s arguments for W(x)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x)), np.sign(x)


def test_w0_grid_result_does_not_depend_on_the_block(drawn=(0.0, -1.0 / math.e, 1e-4, math.e),
                                                     n=3 * _B + 7, seed=7):
    # every entry of a shuffled mix equals its one-point call; by default three full blocks and a short one
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.concatenate([drawn, rng.choice(_POOL, n - len(drawn))]))
    assert _kernels.w0_grid(x).tolist() == [_one_point(_kernels.w0_grid, v) for v in x.tolist()]


@settings(max_examples=40, deadline=None)
@given(st.lists(_W_X, min_size=1, max_size=40), st.sampled_from(_BLOCK_SIZES),
       st.integers(0, 2 ** 32 - 1))
def test_w0_grid_matches_the_gather_scatter_loop(drawn, n, seed):
    # the loop gathers each point into a one-point call and scatters its W back
    test_w0_grid_result_does_not_depend_on_the_block(drawn, n, seed)


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_w0_log_grid_result_does_not_depend_on_the_block(n):
    # the log form in blocks of its own: uniform ln x takes mostly 2 steps, log-uniform 2 to 4
    rng = np.random.default_rng(n)
    lx = rng.choice(np.concatenate([rng.uniform(1.0, 700.0, 200),
                                    np.exp(rng.uniform(0.0, math.log(700.0), 200))]), n)
    assert _kernels.w0_exp_grid(lx).tolist() == [_one_point(_kernels.w0_exp_grid, v) for v in lx.tolist()]


def test_w0_exp_grid_mixes_both_forms_and_signs_point_by_point(n=3 * _B + 7):
    # a shuffled mix of ln x >= 1 (the log form) and ln x < 1 (W of +-e^(ln x), every branch
    # of w0_grid) with a per-point sign, three full blocks and a short one
    rng = np.random.default_rng(n)
    lx, sign = _log_abs_and_sign(rng.choice(np.concatenate([_POOL, np.exp(rng.uniform(1.0, 700.0, 400))]), n))
    assert np.count_nonzero(lx >= 1.0) > _B and np.count_nonzero(lx < 1.0) > _B and (sign < 0).any()
    assert _kernels.w0_exp_grid(lx, sign).tolist() == [_one_point(_kernels.w0_exp_grid, v, s)
                                                       for v, s in zip(lx.tolist(), sign.tolist())]


@pytest.mark.parametrize("view", [lambda a: a.reshape(3, -1), lambda a: a.reshape(-1, 3).T, lambda a: a[::3]],
                         ids=["2-D", "transposed", "strided"])
def test_w_grids_give_every_entry_of_any_layout_its_one_point_w(view):
    # both kernels gather by flat index; each input holds _B + 5 points, so two blocks
    x = np.random.default_rng(4).choice(_POOL, 3 * (_B + 5))
    lx, sign = _log_abs_and_sign(x)
    w, we = _kernels.w0_grid(view(x)), _kernels.w0_exp_grid(view(lx), view(sign))
    assert w.shape == we.shape == view(x).shape
    assert w.ravel().tolist() == [_one_point(_kernels.w0_grid, v) for v in view(x).ravel().tolist()]
    assert we.ravel().tolist() == [_one_point(_kernels.w0_exp_grid, v, s)
                                   for v, s in zip(view(lx).ravel().tolist(), view(sign).ravel().tolist())]


@pytest.mark.parametrize("x", [np.float64(2.0), np.array(0.5), np.array([]),
                               np.array([[0.0, 1e-5, -0.2], [0.5, 3.0, 1e200]])])
def test_w0_grid_keeps_the_shape(x):
    w = _kernels.w0_grid(x)
    assert w.shape == np.shape(x)
    assert np.array_equal(w.ravel(), _kernels.w0_grid(np.ravel(x)))


# -- the counting sum stops at its table cap before it allocates ---------------

def test_counting_sum_past_its_table_cap_raises_before_allocating():
    # the quotients of (tau, sigma) = (1, 1.01) pass ln k = 100 only near
    # p = 1e27; the table would take far more memory than the machine has
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match=r"tau=1\.0, sigma=1\.01.*exp\(100\.0\)"):
            assoc_fn_counting(SequenceParams(1.0, 1.01), math.exp(100.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_counting_sum_table_near_its_cap_peaks_at_four_table_arrays():
    # p = 2 .. 4194298: four float arrays the table's length are 128 MiB; the temporaries of
    # B(p) and of log M_p over the whole table took the peak to 228 MiB
    lnk = _kernels.ext_log_m(np.array([2.0 ** 22 - 5]), 1.0, 1.01)
    tracemalloc.start()
    try:
        T, counts = _kernels.counting_sum_grid(lnk, 1.0, 1.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T.tolist() == [5630202.120881453] and counts.tolist() == [4194298]
    assert peak < 4.1 * 8 * 2 ** 22


def test_counting_sum_table_cap_is_the_largest_table(monkeypatch):
    # with the cap lowered to 2**12: a ln k that log m_p clears at p = 2**12
    # is answered from a table of that size, one that needs p = 2**13 raises
    tau, sigma, n = 1.0, 1.05, 2 ** 12
    monkeypatch.setattr(_kernels, "_COUNT_P_CAP", n)
    top = float(_reference.log_m(n, tau, sigma))
    lnk = np.array([top - 1e-9, 1.0])
    values, counts = _kernels.counting_sum_grid(lnk, tau, sigma)
    assert counts.tolist() == [n - 1, 1]
    _assert_counting_sums_match_the_reference(lnk, tau, sigma, values, counts)
    scalar = [_kernels._counting_sum_scalar(v, tau, sigma) for v in lnk.tolist()]
    np.testing.assert_allclose([v for v, _ in scalar], values, rtol=4e-15)
    assert [c for _, c in scalar] == counts.tolist()
    with pytest.raises(NumericalError, match="past p = 4096"):
        _kernels.counting_sum_grid(np.array([top + 1e-9]), tau, sigma)
    with pytest.raises(NumericalError, match="past p = 4096"):
        _kernels._counting_sum_scalar(top + 1e-9, tau, sigma)
    with pytest.raises(NumericalError, match="past p = 4096"):
        assoc_fn_counting(SequenceParams(tau, sigma), math.exp(top + 1e-9))


# -- past sigma ~ 170 a power p^sigma leaves the floats ------------------------

def _assert_only_p_1_counts(params):
    """log m_2 >= 2^sigma ln 2 passes every ln k, so only p = 1 counts: T = ln_+ k by
    the sup and the counting sum, each on the grid and at single points."""
    k = np.array([0.5, 1.0, 1.5, 1e3, 1e10, 1e300])
    T, argmax = assoc_fn_sup_grid(params, 1.0, k)
    Tc, counts = assoc_fn_counting_grid(params, k)
    np.testing.assert_array_equal(T, np.maximum(np.log(k), 0.0))
    np.testing.assert_array_equal(Tc, T)
    assert argmax.tolist() == [0, 0, 1, 1, 1, 1] and counts.tolist() == [0, 1, 1, 1, 1, 1]
    for kj, Tj, pj, nj in zip(k.tolist(), T.tolist(), argmax.tolist(), counts.tolist()):
        assert assoc_fn_sup(params, 1.0, kj)[:2] == (Tj, pj)
        assert assoc_fn_counting(params, kj)[:2] == (Tj, nj)


@pytest.mark.parametrize("sigma", [200.0, 800.0])
def test_sup_and_counting_agree_where_p_to_the_sigma_overflows(sigma):
    # 3^800 overflows among the sup's candidates; the counting sum forms no power but N^sigma
    params = SequenceParams(1.0, sigma)
    _assert_only_p_1_counts(params)
    # ln 2 < tau ln 3: the overflowing candidates still fall below 0 at h = 2
    g1 = math.log(10.0) + math.log(2.0)     # g(1) = ln k + ln h
    assert assoc_fn_sup(params, 2.0, 10.0)[:2] == (g1, 1)
    assert assoc_fn_sup_grid(params, 2.0, [10.0])[0].tolist() == [g1]


@pytest.mark.parametrize("sigma", [1100.0, 1e6])
def test_counting_equals_the_sup_where_2_to_the_sigma_overflows(sigma):
    # ln log m_p = ln tau + sigma ln p + ln B(p) stays a float wherever p^sigma does not
    _assert_only_p_1_counts(SequenceParams(1.0, sigma))


def test_overflowing_powers_that_decide_nothing_raise():
    # ln h > tau ln p: g(p) = p^sigma (ln h - tau ln p) + p ln k has no float value
    params = SequenceParams(1.0, 800.0)
    msg = r"overflows a float at the candidate p = .*tau=1\.0, sigma=800\.0, h=1000000, k=10$"
    with pytest.raises(NumericalError, match=msg):
        assoc_fn_sup(params, 1e6, 10.0)
    with pytest.raises(NumericalError, match=msg):
        assoc_fn_sup_grid(params, 1e6, [10.0])
    # 2^1100 overflows, but ln log m_2 = 1100 ln 2 + ln B(2) does not: N = 1, T = ln k, as the sup
    params = SequenceParams(1.0, 1100.0)
    assert assoc_fn_counting(params, 1e10)[:2] == (math.log(1e10), 1)
    assert [a.tolist() for a in assoc_fn_counting_grid(params, [1e10])] == [[math.log(1e10)], [1]]
    assert assoc_fn_sup(params, 1.0, 1e10)[:2] == (math.log(1e10), 1)
    # at tau = 1e-310, N = 35 or 36 is found, but N^200 in log M_N = tau N^sigma ln N overflows
    msg = r"at N = 3[56]: tau=1e-310, sigma=200\.0, k up to exp\((1|700)\.0\)$"
    for lnk in (1.0, 700.0):
        with pytest.raises(NumericalError, match=msg):
            _kernels._counting_sum_scalar(lnk, 1e-310, 200.0)
        with pytest.raises(NumericalError, match=msg):
            _kernels.counting_sum_grid(np.array([lnk]), 1e-310, 200.0)


# -- W against the 50-digit reference, in ulps -----------------------------------

def _worst_ulps(ref, w):
    return max(_reference.ulps(wi, r) for r, wi in zip(ref, w))


def test_w0_scalar_is_within_2_ulp_of_the_reference():
    # the scalar kernel on [-0.3, 1.8e308]; the grid, whose Halley bits the verify
    # report pins, on [1e-4, 1.8e308] and within 3 ulp on [-0.3, -1e-4]
    rng = np.random.default_rng(13)
    pos = np.concatenate([rng.uniform(1e-4, math.e, 300), np.exp(rng.uniform(1.0, 709.78, 300)),
                          [v for e in (1e-4, 1.0, math.e) for v in _both_sides(e)],
                          [np.nextafter(_kernels._MAX, 0.0), _kernels._MAX]])
    neg = np.concatenate([-rng.uniform(1e-4, 0.3, 300), _both_sides(-0.3), _both_sides(-1e-4)])
    for x, grid_ulps in ((pos, 2.0), (neg, 3.0)):
        ref = [_reference.w0(v) for v in x.tolist()]
        assert _worst_ulps(ref, [_kernels.w0_scalar(v)[0] for v in x.tolist()]) <= 2.0
        assert _worst_ulps(ref, _kernels.w0_grid(x).tolist()) <= grid_ulps


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.3, _kernels._MAX))
def test_w0_scalar_is_within_2_ulp_of_the_reference_anywhere(x):
    assert _reference.ulps(_kernels.w0_scalar(x)[0], _reference.w0(x)) <= 2.0


def test_w0_near_the_branch_point_is_within_its_conditioning():
    # x W'(x)/W = 1/(1 + W): a rounding in the residual costs 1/(1 + w) ulps of w, up to
    # 4e4 at 1e-10 from -1/e, for either kernel; both stay within 2 ulps of that
    rng = np.random.default_rng(15)
    x = -1.0 / math.e + 10.0 ** rng.uniform(-10.0, math.log10(1.0 / math.e - 0.3), 300)
    ref = [_reference.w0(v) for v in x.tolist()]
    for w in ([_kernels.w0_scalar(v)[0] for v in x.tolist()], _kernels.w0_grid(x).tolist()):
        assert max(_reference.ulps(wi, r) * (1.0 + float(r)) for r, wi in zip(ref, w)) <= 2.0


def test_w0_log_scalar_is_within_2_ulp_of_the_reference():
    rng = np.random.default_rng(14)
    lx = np.concatenate([np.exp(rng.uniform(0.0, math.log(1e300), 300)),
                         1.0 + 10.0 ** rng.uniform(-16.0, 0.0, 50),
                         [1.0, np.nextafter(1.0, 2.0), 709.78, 1e300]])
    ref = [_reference.w0_log(v) for v in lx.tolist()]
    for w in ([_kernels._w0_log_scalar(v)[0] for v in lx.tolist()], _kernels.w0_exp_grid(lx).tolist()):
        assert _worst_ulps(ref, w) <= 2.0


@pytest.mark.parametrize("fn, x, want", [
    (_kernels.w0_scalar, -1.0 / math.e, "-1.0"),
    (_kernels.w0_scalar, math.nan, "nan"),
    (_kernels.w0_scalar, 0.0, "0.0"),
    (_kernels.w0_scalar, -0.0, "0.0"),
    (_kernels.w0_scalar, 5e-324, "5e-324"),
    (_kernels._w0_log_scalar, math.nan, "nan"),
    (_kernels._w0_log_scalar, math.inf, "nan"),
    (_kernels._w0_log_scalar, _kernels._MAX, "1.7976931348623157e+308")])
def test_w0_scalar_edge_outcomes(fn, x, want):
    assert repr(fn(x)[0]) == want
