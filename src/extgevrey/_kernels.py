"""Hot numeric kernels, one numpy/pure-Python implementation each.

Lambert W0 on [-1/e, inf) (the public entry points admit x >= 0): `w0_scalar`
counts its Halley steps. `w0_grid` takes the same steps in numpy over cache-sized
blocks, each pass on the block's still-active points only: a point takes its own
steps, and its w is bit-identical whichever block and other points it comes with.
`w0_exp_scalar` and `w0_exp_grid` take W(+-e^lx) from ln x, in log form where lx >= 1.

T_h(k) = max(0, sup_p g(p)), g(p) = p^sigma ln h + p ln k - tau p^sigma ln p.
g'(p) = ln k - tau sigma p^(sigma-1) (ln p + c), c = (tau - sigma ln h)/(tau sigma),
and p^(sigma-1) (ln p + c) falls from 0 to one minimum, then rises to inf: on p > 0
g has at most one interior local maximum, the W0 root
ln p* = W0(x)/(sigma-1) - c, x = ln k (sigma-1)/(tau sigma) e^{(sigma-1)c},
for every h. So T_h(k) = max(0, g(1), g(floor(p*)-1 ... floor(p*)+2)), and
max(0, g(1)) where x < -1/e (g only falls). `assoc_sup_grid` takes one W call
for all k; the scalar `_assoc_sup_scalar` takes the same candidates in `math`,
since a numpy call on one point costs more than the whole scalar path.

The counting sum T(k) = sum_{log m_p <= ln k} (ln k - log m_p) telescopes to
N ln k - log M_N, N = #{p >= 1 : log m_p <= ln k}, and the quotients rise with p:
`counting_sum_grid` finds every N by `searchsorted` in one quotient table, and
`_counting_sum_scalar` finds one N by galloping and bisecting in `math`.
"""

import math

import numpy as np

from .errors import NumericalError

_W_TOL = 4.5e-16      # ~2 ulps of max(1, x): the floor of |w e^w - x| for x < e
_BLOCK = 8192        # W points per Halley block: its temporaries stay in L2
_COUNT_P_CAP = 2 ** 22   # largest p the counting sum searches; the grid's table there is 32 MiB
_LN_2_53 = 53.0 * math.log(2.0)   # integers p past 2**53 are not all floats


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [-1/e, inf)
# ---------------------------------------------------------------------------

def w0_scalar(x):
    """Principal-branch Lambert W for a single x >= -1/e, as (w, iterations)."""
    if x == 0.0:
        return 0.0, 0
    if abs(x) < 1e-4:
        # W = x - x^2 + 3/2 x^3 - 8/3 x^4 + 125/24 x^5 - ...: the x^6 term is below an ulp
        return _w0_series(x), 0
    if x >= math.e:
        return _w0_log_scalar(math.log(x))
    # -1/e <= x < e: direct residual, seeded with x itself
    w, exp, tol = x, math.exp, _W_TOL * max(1.0, x)
    for n in range(1, 51):
        ew = exp(w)
        f = w * ew - x
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if w < -1.0:
            w = -1.0
        if -tol <= f <= tol:
            break
    return w, n


def _w0_series(x):
    """W(x) for |x| < 1e-4, scalar or array, by its Taylor series to x^5."""
    return x - x * x * (1.0 - x * (1.5 - x * (8.0 / 3.0 - x * (125.0 / 24.0))))


def _w0_log_scalar(lx):
    """W(e^lx) for lx >= 1, as (w, iterations): Halley on g(w) = w + ln w - lx."""
    log, tol = math.log, 1e-15 * lx      # lx >= 1: the 1e-15 max(1, lx) of the grid kernel
    w = lx - log(lx)
    for n in range(1, 51):
        g = w + log(w) - lx
        gp = 1.0 + 1.0 / w
        # Halley step for g with g'' = -1/w^2
        w -= 2.0 * g * gp / (2.0 * gp * gp + g / (w * w))
        if -tol <= g <= tol:
            break
    return w, n


def w0_grid(x):
    """Elementwise W: the Halley updates of `w0_scalar`, point by point."""
    x = np.asarray(x, dtype=np.float64)
    w, ax = np.zeros_like(x), np.abs(x)
    small, mid, big = (x != 0.0) & (ax < 1e-4), (ax >= 1e-4) & (x < math.e), x >= math.e
    w[small] = _w0_series(x[small])
    w[mid] = _halley_blocks(x[mid], log_form=False)
    w[big] = _halley_blocks(np.log(x[big]), log_form=True)
    return w


def w0_exp_scalar(lx, sign=1.0):
    """W(x) for x = sign e^lx >= -1/e, as (w, iterations): the Halley steps of
    `_w0_log_scalar` on ln x where lx >= 1, else those of `w0_scalar` on x."""
    return _w0_log_scalar(lx) if lx >= 1.0 else w0_scalar(math.copysign(math.exp(lx), sign))


def w0_exp_grid(lx, sign=1.0):
    """Elementwise `w0_exp_scalar`'s w; `sign` is a scalar or an array shaped like lx."""
    w, big = np.empty_like(lx), lx >= 1.0
    w[big] = _halley_blocks(lx[big], log_form=True)
    w[~big] = w0_grid(np.copysign(np.exp(lx[~big]), np.broadcast_to(sign, lx.shape)[~big]))
    return w


def _halley_blocks(v, log_form):
    """W(e^v) (log_form) or W(v) by the Halley steps of `_w0_log_scalar` or `w0_scalar`, _BLOCK
    points at a time; after a pass that freezes a point, only the block's active points go on."""
    w = np.empty_like(v)
    for i in range(0, w.size, _BLOCK):
        wa, va = w[i:i + _BLOCK], v[i:i + _BLOCK]
        wa[...] = va - np.log(va) if log_form else va      # the seeds
        lim = (1e-15 if log_form else _W_TOL) * np.maximum(1.0, va)
        idx = None      # indices in w of the active points; None while all are
        for _ in range(50):
            if log_form:    # the scalar step, operation for operation
                r = np.log(wa)
                r += wa
                r -= va
                gp = np.divide(1.0, wa)
                gp += 1.0
                wa -= 2.0 * r * gp / (2.0 * gp * gp + r / (wa * wa))
            else:
                ew = np.exp(wa)
                r = wa * ew - va
                np.maximum(wa - r / (ew * (wa + 1.0) - (wa + 2.0) * r / (2.0 * wa + 2.0)), -1.0, out=wa)
            if idx is not None:
                w[idx] = wa
            keep = np.abs(r, out=r) > lim
            if (n := np.count_nonzero(keep)) == wa.size:
                continue
            if n == 0:
                break
            j = keep.nonzero()[0]
            idx = i + j if idx is None else idx[j]
            wa, va, lim = wa[j], va[j], lim[j]
    return w


# ---------------------------------------------------------------------------
# Associated-function supremum  sup_p [ p^sigma ln h + p ln k - tau p^sigma ln p ]
# ---------------------------------------------------------------------------

# `perfbench/tracer.py` alone reads these two (its --trace 1 head_cells/tail_points)
def _scan_cap(tau, sigma, abs_lnh, abs_lnk):
    """Smallest power of two beyond which the objective is decreasing.

    For p >= cap each of sigma*p^(sigma-1)*|ln h|, |ln k| and
    tau*p^(sigma-1) is at most a quarter of tau*sigma*p^(sigma-1)*ln p,
    so the forward difference of the objective is negative.
    """
    p = 64.0
    while p < 1e12:
        lnp = math.log(p)
        q = tau * sigma * p ** (sigma - 1.0) * lnp
        if (tau * lnp >= 4.0 * abs_lnh
                and q >= 4.0 * (abs_lnk + tau * p ** (sigma - 1.0))):
            return int(p)
        p *= 2.0
    return int(p)


def _p_concave_from(lnh, tau):
    """The objective is strictly concave in p for p >= h^(1/tau); capped at 4e6 + 1."""
    return int(min(math.exp(min(lnh / tau, 16.0)), 4e6)) + 1 if lnh > 0.0 else 1


def _beyond_2_53(lnp, lnk, lnh, tau, sigma):
    # exp(ln h) is off by about |ln h| ulps: 12 significant digits hide that round trip
    h, k = (f"{math.exp(v):.12g}" if v < 709.0 else f"exp({v:.12g})" for v in (lnh, lnk))
    return NumericalError(f"T_h(k) peaks near p = exp({lnp:.6g}) > 2**53, past exact integer "
                          f"floats: tau={tau!r}, sigma={sigma!r}, h={h}, k={k}")


def _ln_x_over_lnk(tau, sigma, c):
    """ln |x| - ln |ln k| = ln((sigma-1)/(tau sigma)) + (sigma-1) c; the quotient's log
    is ln((sigma-1)/sigma) - ln tau where the quotient leaves the floats (tau subnormal)."""
    q = (sigma - 1.0) / (tau * sigma)
    lq = math.log(q) if 0.0 < q < math.inf else math.log((sigma - 1.0) / sigma) - math.log(tau)
    return lq + (sigma - 1.0) * c


def _assoc_sup_scalar(lnk, lnh, tau, sigma):
    c = (tau - sigma * lnh) / (tau * sigma)
    lx = math.log(abs(lnk)) + _ln_x_over_lnk(tau, sigma, c) if lnk else -math.inf
    near = ()
    if lnk > 0.0 or lx <= -1.0:      # x >= -1/e
        w, _ = w0_exp_scalar(lx, lnk)
        lnp = w / (sigma - 1.0) - c
        if not lnp < _LN_2_53:      # NaN too: c or x out of the float range
            raise _beyond_2_53(lnp, lnk, lnh, tau, sigma)
        q = math.floor(math.exp(lnp))
        near = range(max(q - 1, 1), q + 3)
    best, best_p = 0.0, 0   # the p = 0 term: ln_+ 1 = 0
    for p in (1, *near):
        pw = float(p) ** sigma
        g = pw * lnh + p * lnk - tau * pw * math.log(p)
        if g > best:
            best, best_p = g, p
    return best, best_p


def assoc_sup_grid(lnk_arr, lnh, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    values = lnk_arr + lnh      # g(1)
    argmax = (values > 0.0).astype(np.int64)
    values = np.maximum(values, 0.0)
    # the integers next to p*, where x >= -1/e
    c = (tau - sigma * lnh) / (tau * sigma)
    with np.errstate(divide="ignore"):        # ln |x| = -inf at ln k = 0
        lx = np.log(np.abs(lnk_arr)) + _ln_x_over_lnk(tau, sigma, c)
    t = np.flatnonzero((lnk_arr > 0.0) | (lx <= -1.0))
    L = lnk_arr[t]
    lnp = w0_exp_grid(lx[t], L) / (sigma - 1.0) - c
    if not (lnp < _LN_2_53).all():
        raise _beyond_2_53(lnp.max(), L[np.argmax(lnp)], lnh, tau, sigma)
    q = np.maximum(np.floor(np.exp(lnp))[:, None] + np.arange(-1.0, 3.0), 1.0)
    pwq = q ** sigma
    g = pwq * lnh + q * L[:, None] - tau * pwq * np.log(q)
    j = np.argmax(g, axis=1)[:, None]
    q, g = np.take_along_axis(q, j, 1)[:, 0], np.take_along_axis(g, j, 1)[:, 0]
    argmax[t] = np.where(g > values[t], q, argmax[t])
    values[t] = np.maximum(values[t], g)
    return values, argmax


# ---------------------------------------------------------------------------
# Counting-sum evaluation  T(k) = sum_{log m_p <= ln k} (ln k - log m_p)
# ---------------------------------------------------------------------------

def ext_log_M(p, tau, sigma):
    """log M_p = tau p^sigma ln p of the extended Gevrey sequence at float p, 0 for p <= 1."""
    return np.where(p > 1, tau * p ** sigma * np.log(np.maximum(p, 1.0)), 0.0)


def _log_m(p, tau, sigma):
    """log m_p = log M_p - log M_(p-1) at an integer p >= 2, in scalar math."""
    return tau * p ** sigma * math.log(p) - tau * (p - 1) ** sigma * math.log(p - 1)


def _count_table_size(lnk, tau, sigma):
    """The least n = 64 * 2^j with log m_n > ln k; NumericalError where n passes _COUNT_P_CAP."""
    n = 64
    while _log_m(n, tau, sigma) <= lnk:
        if n >= _COUNT_P_CAP:
            raise NumericalError(f"the counting sum needs quotients m_p past p = {_COUNT_P_CAP}: "
                                 f"tau={tau!r}, sigma={sigma!r}, k up to exp({lnk!r})")
        n *= 2
    return n


def _counting_sum_scalar(lnk, tau, sigma):
    """(T(k), N) at one ln k, in `math`: (0, 0) for k < 1 and (0, 1) at k = 1 (log m_1 = 0)."""
    if lnk <= 0.0:
        return 0.0, int(lnk == 0.0)
    hi = _count_table_size(lnk, tau, sigma)
    lo = hi // 2 if hi > 64 else 1      # log m_lo <= ln k < log m_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_m(mid, tau, sigma) <= lnk:
            lo = mid
        else:
            hi = mid
    return lo * lnk - tau * lo ** sigma * math.log(lo), lo


def counting_sum_grid(lnk_arr, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    n = _count_table_size(float(np.max(lnk_arr)) if lnk_arr.size else 0.0, tau, sigma)
    # where tau p^sigma overflows (tau near the largest float) log m_p is inf or NaN, past every ln k
    with np.errstate(over="ignore", invalid="ignore"):
        logM = ext_log_M(np.arange(0, n + 1, dtype=np.float64), tau, sigma)
        logm = np.diff(logM)
    counts = np.searchsorted(logm, lnk_arr, side="right")   # logm[j] = log m_{j+1}
    return np.maximum(lnk_arr, 0.0) * counts - logM[counts], counts.astype(np.int64)
