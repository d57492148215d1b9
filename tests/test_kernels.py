import functools
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extgevrey import (NumericalError, SequenceParams, assoc_fn_counting, assoc_fn_counting_grid,
                       assoc_fn_sup, assoc_fn_sup_grid, default_k_grid, evaluate_w)
from extgevrey import lambert_w0
from extgevrey import _kernels, assocfn
from extgevrey.lambertw import w_residual

import _reference


_FLOAT_MAX = sys.float_info.max
_LN_FLOAT_MAX = math.log(_FLOAT_MAX)


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
        assert _kernels.w0_scalar(xi) == wg
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


_LNK_WIDE = [math.log(k) for k in (2.0, 1e10, 3.56e78, 1e100, 1e300)]


@settings(max_examples=100, deadline=None)
@given(_TAU, _SIGMA, _LNH, _LNK)
# 2^sigma = 3.5e307: both products of g(2) overflow, g(2) = inf - inf as written
@example(5892447.000206286, 1021.6304760128658, math.log(4.524178708727972e+26), _LNK_WIDE)
# tau ln 2 passes the floats in the sign test of the candidates whose p^sigma overflows
@example(1.6869638155091605e+308, 7021.061374725526, math.log(1.1933336980865066e-20), _LNK_WIDE)
def test_assoc_sup_scalar_and_grid_agree(tau, sigma, lnh, lnk):
    values, argmax = _kernels.assoc_sup_grid(np.array(lnk), lnh, tau, sigma)
    for L, v, a in zip(lnk, values, argmax):
        vs, ps = _kernels._assoc_sup_scalar(L, lnh, tau, sigma)
        assert ps == a
        assert vs == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_the_grid_hands_only_undecided_points_to_the_scalar_kernel(monkeypatch):
    handed, scalar = [], _kernels._assoc_sup_scalar
    monkeypatch.setattr(_kernels, "_assoc_sup_scalar", lambda *a: handed.append(a[0]) or scalar(*a))
    # the verify default on its k grid, and the (tau, sigma, h) of the benchmark's grid workload
    # on 4000 points of k in [1, 1e10]: every point decided in the grid
    cases = [(1.0, 2.0, 1.0, default_k_grid())] + [
        (tau, sigma, h, np.logspace(0.0, 10.0, 4000)) for tau, sigma, h in
        [(1.0, 2.0, 1.0), (0.5, 1.5, 1.0), (1.0, 1.3, 1.0), (2.0, 3.0, 1.0), (1.0, 2.0, math.e ** 2),
         (0.5, 1.5, math.e ** 3)]]
    for tau, sigma, h, k in cases:
        _kernels.assoc_sup_grid(np.log(k), math.log(h), tau, sigma)
    assert handed == []
    # the log form decides, in the grid, candidates whose g is not finite as written: g(2) = inf - inf
    # at tau = 5892447, and at tau = 1.7e308 tau ln p = inf at every candidate past p = 1
    for lnh, tau, sigma in [(math.log(4.524178708727972e+26), 5892447.000206286, 1021.6304760128658),
                            (math.log(1.1933336980865066e-20), 1.6869638155091605e+308, 7021.061374725526)]:
        _kernels.assoc_sup_grid(np.array(_LNK_WIDE), lnh, tau, sigma)
    assert handed == []
    # g past the largest float from k = 2, and p* past 2**53 from k = 3.56e78 at sigma = 1.01: the first
    # such point goes over, and the scalar kernel raises there
    for (lnh, tau, sigma), first in [((709.7, 1000.0, 1020.0), 0), ((0.0, 1.0, 1.01), 2)]:
        with pytest.raises(NumericalError):
            _kernels.assoc_sup_grid(np.array(_LNK_WIDE), lnh, tau, sigma)
        assert handed == [_LNK_WIDE[first]]
        handed.clear()


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
    scalar = np.array([_kernels.w0_scalar(v) for v in x])
    np.testing.assert_allclose(scalar, w, rtol=1e-14, atol=0.0)
    assert _kernels.w0_grid(np.array([-1.0 / np.e]))[0] == pytest.approx(-1.0, abs=1e-7)
    assert _kernels.w0_scalar(-1.0 / np.e) == pytest.approx(-1.0, abs=1e-7)


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
    # nor decimal (about 2.5 ms), which the counting routes import where the floats leave
    # g(p) <= ln lambda in doubt
    code = ("import sys, extgevrey.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'numba', 'decimal', '_decimal')))\n")
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
    """x from every branch; bands across [-0.36, 2.7], where each seed of the FSC steps lies
    at its own distance from W(x); and x just above -1/e, where 1 + w is near 0."""
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
    # the log form in blocks of its own: uniform and log-uniform ln x in [1, 700]
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


# -- the W grids against whole-array masks, bit for bit ----------------------------
# `tolist() ==` sees neither -0.0 against 0.0 nor one NaN against another: these compare bits

def _fsc_rule(w, x):
    u = 1.0 + w
    z = np.log(x / w) - w
    r, a = z / u, u + (2.0 / 3.0) * z
    return w + w * r * (a - 0.5 * r) / (a - r)


def _log_rule(lx):
    w = lx - np.log(lx)
    for _ in range(3):
        r, u = np.log(w) + w - lx, 1.0 / w + 1.0
        w = w - r * 2.0 * u / (u * 2.0 * u + r / (w * w))
    return w


def _w0_grid_rules(x):
    """`w0_grid` by its masks over the whole array, unblocked: 0 at 0 (and NaN), the series where
    0 < |x| < 1e-4, -1 where e min(x, 0) + 1 <= 0, both seeds by `np.where` and two FSC steps on
    the rest of [-1/e, e), three Halley steps on ln x from x = e."""
    x = np.ravel(x)
    w, ax, q = np.zeros(x.shape), np.abs(x), math.e * np.minimum(x, 0.0) + 1.0
    small = (x != 0.0) & (ax < 1e-4)
    v = x[small]
    w[small] = v - v * v * (1.0 - v * (1.5 - v * (8.0 / 3.0 - v * (125.0 / 24.0))))
    w[q <= 0.0] = -1.0
    mid = (ax >= 1e-4) & (x < math.e) & (q > 0.0)
    v = x[mid]
    p, l = np.sqrt(2.0 * (math.e * v + 1.0)), np.log1p(v)
    s = np.where(v < -0.3, -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0))),
                 l * (1.0 - np.log1p(l) / (2.0 + l)))
    w[mid] = _fsc_rule(_fsc_rule(s, v), v)
    big = x >= math.e
    w[big] = _log_rule(np.log(x[big]))
    return w


def _w0_exp_grid_rules(lx, sign):
    big = lx >= 1.0
    w = np.empty(lx.shape)
    with np.errstate(over="ignore"):
        w[big] = _log_rule(lx[big])
    w[~big] = _w0_grid_rules(np.copysign(np.exp(lx[~big]), sign[~big]))
    return w


def _assert_same_bits(x, lx, sign):
    for got, want in ((_kernels.w0_grid(x), _w0_grid_rules(x)),
                      (_kernels.w0_exp_grid(lx, sign), _w0_exp_grid_rules(lx, sign))):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


_LX = st.one_of(_W_X.map(lambda v: math.log(abs(v)) if v else -math.inf), st.floats(1.0, 1e308))


@settings(max_examples=100, deadline=None)
@given(st.lists(_W_X, min_size=1, max_size=60),
       st.lists(st.tuples(_LX, st.sampled_from((1.0, -1.0))), min_size=1, max_size=60))
def test_w_grids_keep_their_rules_bit_for_bit(x, lx_sign):
    lx, sign = np.array(lx_sign).T
    _assert_same_bits(np.array(x), lx, sign)


_W_EDGES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, _FLOAT_MAX,
            *(u for v in (-1.0 / math.e, -0.3, -1e-4, 1e-4, math.e)
              for u in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)))]


@pytest.mark.parametrize("n", [len(_W_EDGES), _B - 1, _B + 1])
def test_w_grids_keep_their_rules_bit_for_bit_at_the_edges(n):
    # the edges in a shuffled fill from every branch; the first nine ln x are 1 and its
    # neighbours, +-1e308, +-inf, NaN and ln of the largest float
    rng = np.random.default_rng(n)
    x = rng.permutation(np.concatenate([_W_EDGES, rng.choice(_POOL, n - len(_W_EDGES))]))
    with np.errstate(divide="ignore"):
        lx = np.log(np.abs(x))
    lx[:9] = [*_both_sides(1.0), 1e308, -1e308, math.inf, -math.inf, math.nan, _LN_FLOAT_MAX]
    with np.errstate(invalid="ignore"):     # ln x = inf gives NaN in the log form (inf - inf)
        _assert_same_bits(x, lx, rng.choice([1.0, -1.0], n))


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
    # ln h > tau ln p where p^800 overflows: g(p) = p ln k + exp(800 ln p + ln(ln h - tau ln p)) passes
    # the largest float at the first candidate next to p* = 1e6
    params = SequenceParams(1.0, 800.0)
    msg = (r"^T_h\(k\) = g\(p\) passes the largest float at p = 998749: "
           r"tau=1\.0, sigma=800\.0, h=1000000, k=10$")
    with pytest.raises(NumericalError, match=msg):
        assoc_fn_sup(params, 1e6, 10.0)
    with pytest.raises(NumericalError, match=msg):
        assoc_fn_sup_grid(params, 1e6, [10.0])
    # 2^1020 (ln h - tau ln 2) = 1.1e307 * 16.6 is g(2): past the largest float as well
    msg = r"^T_h\(k\) = g\(p\) passes the largest float at p = 2: tau=1000\.0, sigma=1020\.0, h=exp\(709\.7\)"
    with pytest.raises(NumericalError, match=msg + ", k=10$"):
        _kernels._assoc_sup_scalar(math.log(10.0), 709.7, 1000.0, 1020.0)
    with pytest.raises(NumericalError, match=msg + ", k=2$"):
        _kernels.assoc_sup_grid(np.log([2.0, 10.0]), 709.7, 1000.0, 1020.0)
    # 2^1100 overflows, but ln log m_2 = 1100 ln 2 + ln B(2) does not: N = 1, T = ln k, as the sup
    params = SequenceParams(1.0, 1100.0)
    assert assoc_fn_counting(params, 1e10)[:2] == (math.log(1e10), 1)
    assert [a.tolist() for a in assoc_fn_counting_grid(params, [1e10])] == [[math.log(1e10)], [1]]
    assert assoc_fn_sup(params, 1.0, 1e10)[:2] == (math.log(1e10), 1)
    # at tau = 1e-310, N^200 overflows at N = 35 or 36, but tau N^200 = exp(ln tau + 200 ln N) does not:
    # both counting routes give the sup, to rounding, at its maximiser
    for lnk, n in ((1.0, 35), (700.0, 36)):
        T = _kernels._counting_sum_scalar(lnk, 1e-310, 200.0)
        Tg, ng = _kernels.counting_sum_grid(np.array([lnk]), 1e-310, 200.0)
        assert ng.tolist() == [n] and Tg[0] == pytest.approx(T[0], rel=1e-15)
        Ts, p = _kernels._assoc_sup_scalar(lnk, 0.0, 1e-310, 200.0)
        assert T[1] == p == n and T[0] == pytest.approx(Ts, rel=1e-15)
        assert _reference.rel(T[0], _reference.counting_sum(lnk, n, 1e-310, 200.0)) <= 1e-15


# -- the log form of g where it is not finite as written ---------------------------------------

def _check_log_form(tau, sigma, lnh, lnk):
    """Both sup kernels at the ln k of `lnk`: the same maximisers, or the same error at the first
    failing k. Each T is within 1e-14 of the largest 50-digit g over p = 1 and the maximiser +- 3,
    times g's condition where its terms cancel (1100 at tau = 9.9, sigma = 28, h = 1e6, p = 4, as
    written, where the kernels' p^sigma differ by an ulp), and at h = 1 the counting sum equals it
    below its cap. Returns the number of maximisers whose p^sigma overflows."""
    try:
        values, argmax = _kernels.assoc_sup_grid(np.array(lnk), lnh, tau, sigma)
    except NumericalError as err:
        for L in lnk:
            try:
                _kernels._assoc_sup_scalar(L, lnh, tau, sigma)
            except NumericalError as e:
                assert str(e) == str(err)
                return 0
        raise
    past = 0
    for L, T, p in zip(lnk, values.tolist(), argmax.tolist()):
        Ts, ps = _kernels._assoc_sup_scalar(L, lnh, tau, sigma)
        best = max(_reference.g(q, L, lnh, tau, sigma) for q in {1, *range(max(p - 3, 1), p + 4)})
        bound = 1e-14 * max(1.0, _reference.g_cond(p, L, lnh, tau, sigma)) if p else 0.0
        assert ps == p
        for v in (T, Ts):
            assert (v == 0.0 and best <= 0) if p == 0 else _reference.rel(v, best) <= bound, (tau, sigma, L)
        if lnh == 0.0 and p < _kernels._COUNT_P_CAP:     # the count is p, and raises past the cap
            assert _kernels._counting_sum_scalar(L, tau, sigma)[0] == pytest.approx(T, rel=1e-14)
        past += sigma * math.log(max(p, 1)) > _LN_FLOAT_MAX
    return past


@pytest.mark.parametrize("tau, sigma", [(5e-324, 100.0), (1e-320, 60.0), (1e-310, 200.0)])
def test_sup_in_log_form_at_h_1_and_a_subnormal_tau(tau, sigma):
    # p*^sigma ~ p* ln k / (tau sigma ln p*) overflows at every k > 1, and tau ln p is subnormal:
    # ln d = ln tau + ln ln p keeps the digits that the product drops
    lnk = np.log(np.logspace(0.0, 10.0, 21)).tolist()
    assert _check_log_form(tau, sigma, 0.0, lnk) == 20


def test_sup_in_log_form_on_seeded_draws():
    # sigma log-uniform on [10, 1500], h in {1/2, 1, 2, 1e6} and tau log-uniform on one of [5e-324, 1e-300],
    # where p*^sigma overflows at h = 1, [1e-300, 1] and [1, 100], where p* < 2**53 at h > 1
    rng, past = np.random.default_rng(37), 0
    for _ in range(150):
        sigma = float(np.exp(rng.uniform(math.log(10.0), math.log(1500.0))))
        band = [(5e-324, 1e-300), (1e-300, 1.0), (1.0, 100.0)][rng.integers(3)]
        tau = float(np.exp(rng.uniform(*np.log(band))))
        lnh = math.log(float(rng.choice([0.5, 1.0, 2.0, 1e6])))
        past += _check_log_form(tau, sigma, lnh, rng.uniform(-2.0, 25.0, 5).tolist())
    assert past >= 10
    # h = 1/2 at tau = 1e-310: c = inf, and the Newton form of the root takes it
    assert _check_log_form(1e-310, 2.0, math.log(0.5), [math.log(10.0)]) == 0
    assert _kernels._assoc_sup_scalar(math.log(10.0), math.log(0.5), 1e-310, 2.0) == (1.8325814637483107, 2)


def test_c_where_tau_sigma_and_sigma_ln_h_leave_the_floats():
    # at tau = 1e10, sigma = 1e306, tau sigma and sigma ln h overflow, so (tau - sigma ln h)/(tau sigma)
    # is NaN, but c = 1/sigma - ln h/tau is -+6.9e-8. At h = 1e-300 g < 0 at every p >= 1, and at
    # h = 1e300 T = g(1) = ln h + ln k; envelope is about ln k there
    lnk = math.log(10.0)
    for h, want in ((1e-300, (0.0, 0)), (1e300, (693.0781129912077, 1))):
        assert _kernels._assoc_sup_scalar(lnk, math.log(h), 1e10, 1e306) == want
        grid = _kernels.assoc_sup_grid(np.array([lnk]), math.log(h), 1e10, 1e306)
        assert [a.tolist() for a in grid] == [[want[0]], [want[1]]]
    assert want[0] == math.log(1e300) + lnk
    assert assocfn.envelope(SequenceParams(1e10, 1e306), 1e300, [10.0])[0] == pytest.approx(lnk, rel=1e-6)


def test_sup_kernels_past_p_1e12_agree_on_T_if_not_on_the_maximiser():
    # p* ~ 8.5e15, where g is flat to 17 digits over the candidates (condition 26.3): each kernel's
    # own W picks its candidates (the scalar reports 8457913176817593, the grid 8457913176817652)
    tau, sigma, lnk = 1.460681410033409, 1.0517004239666785, 384.91699682301885
    Ts, ps = _kernels._assoc_sup_scalar(lnk, 0.0, tau, sigma)
    Tg, pg = (a.item() for a in _kernels.assoc_sup_grid(np.array([lnk]), 0.0, tau, sigma))
    assert Tg == pytest.approx(Ts, rel=1e-14)
    for T, p in ((Ts, ps), (Tg, pg)):
        bound = 1e-14 * _reference.g_cond(p, lnk, 0.0, tau, sigma)
        assert _reference.rel(T, _reference.g(p, lnk, 0.0, tau, sigma)) <= bound


# -- the log-form root of p^s1 (ln p + c) = r against the 50-digit reference -----------

def _root_draws(n, seed):
    """n inputs (ll, tc, t, s1) of `_ln_root`'s problem r = e^ll/t, c = tc/t: c = 0 in a tenth
    of the draws, else log-uniform on [1e-3, 1e3] (where Newton takes the most steps) or on
    [1e3, 1e300], u* up to 700, and ll = ln L for an L = ln k or ln lambda in [1e-15, 700]."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        s1 = 2.0 ** rng.uniform(-52.0, 13.3)
        c = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(*(-3.0, 3.0) if rng.random() < 0.5 else (3.0, 300.0))
        u = rng.uniform(1e-3, 700.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 2.85)
        ll = rng.uniform(math.log(1e-15), math.log(700.0))
        lt = ll - s1 * u - (math.log(c) + math.log1p(u / c) if c else math.log(u))     # ln t, t = L/r
        if -744.0 < lt < 690.0 and (c == 0.0 or math.exp(lt) * c >= sys.float_info.min):
            out.append((ll, math.exp(lt) * c, math.exp(lt), s1))
    return out


def test_ln_root_is_within_its_error_bound_of_the_reference():
    # both forms, scalar and one mixed array call; a root below 0 is taken as 0. Last, the sup at
    # tau = 1.30, sigma = 1.0031, ln h = -1.06e-3, ln k = 53.2, where p* = 2.7e15 and c = 0.998
    tau, sigma, lnh = 1.30, 1.0031, -1.06e-3
    cases = _root_draws(400, 18) + [(math.log(53.2), tau - sigma * lnh, tau * sigma, sigma - 1.0)]
    ll, tc, t, s1 = (np.array(v) for v in zip(*cases))
    c = tc / t
    m = np.array([_kernels._ln_x_over_lnk(a, b, 1.0, d) for a, b, d in zip(s1.tolist(), t.tolist(), c.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):     # as in `_floor_grid`: each form at every point
        grid = zip(*(v.tolist() for v in _kernels._ln_root(ll + m, ll, c, tc, s1, 1.0, m)))
    for case, l, mi, ci, tci, si, (ug, eg) in zip(cases, ll.tolist(), m.tolist(), c.tolist(), tc.tolist(),
                                                 s1.tolist(), grid):
        ref = max(float(_reference.ln_root(*case)), 0.0)
        u, e = _kernels._ln_root(l + mi, l, ci, tci, si, 1.0, mi)
        assert u == _kernels._ln_root(l + mi, l, ci, tci, si)
        assert abs(u - ref) <= e and abs(ug - ref) <= eg, case


def test_sup_where_p_star_is_2_7e15_below_h_1():
    # T_h to rounding of the largest g among the integers near p*: p* = 2.7e15 is past the reach of
    # its four candidates (ulp(ln p*) p* is about 20), but g is flat on its top
    tau, sigma, lnh, lnk = 1.30, 1.0031, -1.06e-3, 53.2
    T, p = _kernels._assoc_sup_scalar(lnk, lnh, tau, sigma)
    assert (T, p) == tuple(v[0] for v in _kernels.assoc_sup_grid(np.array([lnk]), lnh, tau, sigma))
    best = max(_reference.g(q, lnk, lnh, tau, sigma) for q in range(p - 64, p + 65))
    assert _reference.rel(T, best) <= 1e-13


# -- W against the 50-digit reference, in ulps -----------------------------------

def _worst_ulps(ref, w):
    return max(_reference.ulps(wi, r) for r, wi in zip(ref, w))


def test_w0_scalar_is_within_2_ulp_of_the_reference():
    # both kernels on seeded points of [-0.3, 1.8e308] and its edges (measured worst: 1.36 ulp);
    # single x near -0.3 reach 2.3, see the hypothesis test of the grid below
    rng = np.random.default_rng(13)
    pos = np.concatenate([rng.uniform(1e-4, math.e, 300), np.exp(rng.uniform(1.0, 709.78, 300)),
                          [v for e in (1e-4, 1.0, math.e) for v in _both_sides(e)],
                          [np.nextafter(_FLOAT_MAX, 0.0), _FLOAT_MAX]])
    neg = np.concatenate([-rng.uniform(1e-4, 0.3, 300), _both_sides(-0.3), _both_sides(-1e-4)])
    for x in (pos, neg):
        ref = [_reference.w0(v) for v in x.tolist()]
        assert _worst_ulps(ref, [_kernels.w0_scalar(v) for v in x.tolist()]) <= 2.0
        assert _worst_ulps(ref, _kernels.w0_grid(x).tolist()) <= 2.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.3, _FLOAT_MAX))
@example(-0.2970347579556744)       # 2.205 ulp off W, where 1 + w = 0.52
def test_w0_scalar_is_within_2_ulp_of_the_reference_anywhere(x):
    # below 0 within 2/(1 + w) ulp, as the grid kernel below: 1/(1 + w) is 1.8 at -0.3
    ref = _reference.w0(x)
    assert _reference.ulps(_kernels.w0_scalar(x), ref) * min(1.0, 1.0 + float(ref)) <= 2.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.3, _FLOAT_MAX))
def test_w0_grid_is_within_2_ulp_of_the_reference_anywhere(x):
    # the FSC steps below e and the fixed Halley steps of the log form from e; below 0, within
    # 2/(1 + w) ulp, as near the branch point: 1/(1 + w) is 1.8 at -0.3, where w reaches 2.3 ulp
    ref = _reference.w0(x)
    assert _reference.ulps(_kernels.w0_grid(np.array([x]))[0], ref) * min(1.0, 1.0 + float(ref)) <= 2.0


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, _FLOAT_MAX))
def test_w0_exp_grid_is_within_2_ulp_of_the_reference_anywhere(lx):
    # the log form alone, past ln x ~ 1.3e154 with w^2 = inf
    assert _reference.ulps(_kernels.w0_exp_grid(np.array([lx]))[0], _reference.w0_log(lx)) <= 2.0


def test_w0_near_the_branch_point_is_within_its_conditioning():
    # x W'(x)/W = 1/(1 + W): a rounding in the residual costs 1/(1 + w) ulps of w, up to
    # 4e4 at 1e-10 from -1/e, for either kernel; both stay within 2 ulps of that
    rng = np.random.default_rng(15)
    x = -1.0 / math.e + 10.0 ** rng.uniform(-10.0, math.log10(1.0 / math.e - 0.3), 300)
    ref = [_reference.w0(v) for v in x.tolist()]
    for w in ([_kernels.w0_scalar(v) for v in x.tolist()], _kernels.w0_grid(x).tolist()):
        assert max(_reference.ulps(wi, r) * (1.0 + float(r)) for r, wi in zip(ref, w)) <= 2.0


def test_w0_log_scalar_is_within_2_ulp_of_the_reference():
    rng = np.random.default_rng(14)
    lx = np.concatenate([np.exp(rng.uniform(0.0, math.log(1e300), 300)),
                         1.0 + 10.0 ** rng.uniform(-16.0, 0.0, 50),
                         [1.0, np.nextafter(1.0, 2.0), 709.78, 1e300]])
    ref = [_reference.w0_log(v) for v in lx.tolist()]
    for w in ([_kernels._w0_log_scalar(v) for v in lx.tolist()], _kernels.w0_exp_grid(lx).tolist()):
        assert _worst_ulps(ref, w) <= 2.0


@pytest.mark.parametrize("fn, x, want", [
    (_kernels.w0_scalar, -1.0 / math.e, "-1.0"),
    (_kernels.w0_scalar, math.nan, "nan"),
    (_kernels.w0_scalar, 0.0, "0.0"),
    (_kernels.w0_scalar, -0.0, "0.0"),
    (_kernels.w0_scalar, 5e-324, "5e-324"),
    (_kernels._w0_log_scalar, math.nan, "nan"),
    (_kernels._w0_log_scalar, math.inf, "nan"),
    (_kernels._w0_log_scalar, _FLOAT_MAX, "1.7976931348623157e+308")])
def test_w0_scalar_edge_outcomes(fn, x, want):
    assert repr(fn(x)) == want
