"""Hot numeric kernels, one numpy/pure-Python implementation each.

Lambert W0 on [-1/e, inf) (the public entry points admit x >= 0): `w0_scalar` takes
a seed and two Fritsch-Shafer-Crowley steps, a fixed count with no convergence test.
`w0_grid` takes the same seeds and the same two `_fsc_step`s on [-1/e, e), and from x = e
three Halley steps in log form on ln x, over cache-sized blocks of each branch's points. Three
range tests, x >= e, 1e-4 <= x < e and x < 1e-4, sort the points and change no point's steps
(`tests/test_kernels.py` holds both grids to whole-array masks bit for bit). Every point of
a branch takes the same steps, so its w is bit-identical whichever block and other points it
comes with. The log form keeps its Halley bits because the default verify report prints
values built on them (the matrix-equivalence reservoir H = 1/min(T/phi_sigma)), which FSC
steps there move in the last digit. Both kernels are within 2 ulp of W for x >= -0.28 (2.3
near -0.3, where 1/(1 + w) is 1.8), so they agree to about 2e-15 relative.
`w0_exp_grid` and `_ln_root` take W(+-e^lx) from ln x, in log form where lx >= 1.

T_h(k) = max(0, sup_p g(p)), g(p) = p^sigma ln h + p ln k - tau p^sigma ln p.
g'(p) = ln k - tau sigma p^(sigma-1) (ln p + c), c = 1/sigma - ln h/tau (finite where tau sigma and
sigma ln h are not), and p^(sigma-1) (ln p + c) falls from 0 to one minimum, then rises to inf: on
p > 0 g has at most one interior local maximum p*, for every h. So T_h(k) = max(0, g(1),
g(floor(p*)-1 ... floor(p*)+2)), and max(0, g(1)) where x < -1/e (below), as at h < 1 and
ln k <= 0 (g < 0 at every p >= 1). `assoc_sup_grid` takes one root call for all k; the scalar
`_assoc_sup_scalar` the same candidates in `math`, since a numpy call on one point costs more.

One root, `_ln_root`, gives u = ln p at p^s1 (ln p + c) = r, s1 = sigma-1, for the sups' p*
(r = ln k/(tau sigma)) and the counting floors' P (c = ln C/tau, r = ln lambda/tau). For c <= 4
(the sups at h >= 1, the floors at C <= e^2 and tau = 1) it is u = W(x)/s1 - c, x = s1 r e^(s1 c),
within 2^-46 (1 + 2|u| + 2|c| + (1 + |m|)/s1), m = ln x - ln L (L = ln k or ln lambda): the
terms of u, and of ln x damped by W's gain. Past c = 4, where W/s1 - c loses ln p to a
difference of c-sized terms, Newton solves s1 u + log1p(u/c) = ln r - ln c = ln L - ln(tau b c),
from logs of logs (ln(tau - sigma ln h), ln ln C), so r and c are never formed and c may be inf.
The left side rises and is concave, so the steps rise from u = (ln r - ln c)/(s1 + 1/c) to the
root (0 for a root below 0); seven of the twelve suffice, six do not, for c in [4, 1e300], s1 in
[2^-52, 1e4] and u <= 700. The error, 2^-46 (1 + |u| + (1 + |ln L| + |ln(tau b c)|)/(s1 + 1/(c + u))),
is that of ln r - ln c and of a step, over the slope. Given m, the root returns its bound with u.

The counting sum T(k) = sum_{log m_p <= ln k} (ln k - log m_p) telescopes to
N ln k - log M_N, N = #{p >= 1 : log m_p <= ln k}, and the quotients rise with p.
With log m_p = tau p^sigma B(p) (`_quotient_factor`), both routes compare
sigma ln p + ln B(p) with ln ln k - ln tau: values that neither cancel nor overflow.
`_counting_sum_scalar` finds one N by galloping and bisecting in `math`,
`counting_sum_grid` every N by `searchsorted` in one table.

Where g(p) is not finite as written, both sup kernels take `_g_log_form`, g = p ln k - sign(d)
exp(sigma ln p + ln |d|), d = tau ln p - ln h, ln d = ln tau + ln ln p at h = 1 (tau ln p may be
subnormal); a finite g keeps its bits. An exp past the floats is -inf, a proven loss, or +inf: g(p)
passes the largest float (NumericalError). The grid hands a point, in k order, to the scalar kernel
only where a candidate is not below +inf or ln p* not below ln 2**53, so that it raises there.
"""

import math

import numpy as np

from .errors import NumericalError

_BLOCK = 8192        # W points per block: its six buffers (384 KiB), reused by every block, stay in L2
_LOG_STEPS = 3       # Halley steps of the grid W in log form: the fewest within 2 ulp (two leave 8.5e4)
_COUNT_P_CAP = 2 ** 22   # largest p the counting sum searches; the grid's table there is 32 MiB
_LN_2_53 = 53.0 * math.log(2.0)   # integers p past 2**53 are not all floats
_C_NEWTON = 4.0          # `_ln_root` takes its Newton form past this c


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [-1/e, inf)
# ---------------------------------------------------------------------------

def w0_scalar(x):
    """Principal-branch Lambert W for a single x >= -1/e: a seed, then two `_fsc_step`s on
    z = ln(x/w) - w (no steps at 0, in the series range and at -1)."""
    if x == 0.0:
        return 0.0
    if abs(x) < 1e-4:
        # W = x - x^2 + 3/2 x^3 - 8/3 x^4 + 125/24 x^5 - ...: the x^6 term is below an ulp
        return _w0_series(x)
    if x < -0.3:
        # the branch-point series in p = sqrt(2 (e x + 1)); at p = 0 the step would divide by 1 + w = 0
        if not (q := 2.0 * (math.e * x + 1.0)) > 0.0:
            return -1.0
        p = math.sqrt(q)
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    else:
        l = math.log1p(x)
        w = l * (1.0 - math.log1p(l) / (2.0 + l))
    w = _fsc_step(w, math.log(x / w) - w)
    return _fsc_step(w, math.log(x / w) - w)


def _fsc_step(w, z):
    """w after one Fritsch-Shafer-Crowley step (Algorithm 443, CACM 16, 1973) on residual z,
    with A = 1 + w + 2z/3 where Algorithm 443 has 2(1 + w)A, which overflows from w ~ 1e154."""
    u = 1.0 + w
    r, a = z / u, u + (2.0 / 3.0) * z
    return w + w * r * (a - 0.5 * r) / (a - r)


def _w0_series(x):
    """W(x) for |x| < 1e-4, scalar or array, by its Taylor series to x^5."""
    return x - x * x * (1.0 - x * (1.5 - x * (8.0 / 3.0 - x * (125.0 / 24.0))))


def _w0_log_scalar(lx):
    """W(e^lx) for lx >= 1: two `_fsc_step`s from lx - ln lx on z = lx - ln w - w."""
    w = lx - math.log(lx)
    w = _fsc_step(w, lx - math.log(w) - w)
    return _fsc_step(w, lx - math.log(w) - w)


def w0_grid(x):
    """Elementwise W, by three range tests: `_w0_log_block` on ln x from x = e, `_w0_fsc_block`
    on [1e-4, e), and below 1e-4 0 at 0, the series above -1e-4, -1 at and below the branch
    point and `_w0_fsc_block` between. NaN stays 0. Each point takes the steps of its range."""
    x = np.asarray(x, dtype=np.float64)
    w, xf = np.zeros(x.shape), x.ravel()
    wf, big = w.reshape(-1), xf >= math.e
    _by_block(wf, xf, (big ^ (xf >= 1e-4)).nonzero()[0], _w0_fsc_block)
    _by_block(wf, xf, big.nonzero()[0], _w0_log_block, ln=True)
    if (low := (xf < 1e-4).nonzero()[0]).size:      # at x >= 0, the zeros alone
        v = xf[low]
        wl, q = np.zeros(v.shape), math.e * v + 1.0     # q > 0 past -1/e
        small = ((v != 0.0) & (v > -1e-4)).nonzero()[0]
        wl[small] = _w0_series(v[small])
        wl[q <= 0.0] = -1.0
        _by_block(wl, v, ((v <= -1e-4) & (q > 0.0)).nonzero()[0], _w0_fsc_block)
        wf[low] = wl
    return w


def w0_exp_grid(lx, sign=1.0):
    """W(sign e^lx) elementwise: `_w0_log_block` where lx >= 1, else `w0_grid`; sign a scalar or like lx."""
    w, lf = np.empty(lx.shape), lx.ravel()
    wf, big = w.reshape(-1), lf >= 1.0
    with np.errstate(over="ignore"):    # w^2 = inf past ln x ~ 1.3e154: r/w^2 = 0 is right
        _by_block(wf, lf, big.nonzero()[0], _w0_log_block)
    rest = (~big).nonzero()[0]
    wf[rest] = w0_grid(np.copysign(np.exp(lf[rest]), np.broadcast_to(sign, lx.shape).ravel()[rest]))
    return w


def _by_block(w, v, idx, steps, ln=False):
    """steps(w, v, scratch) at the flat indices idx of v, ln v where `ln`, written into w at
    the same indices. Each block of up to _BLOCK points is gathered by index into buffers
    made once per call. Every point takes the same fixed steps, whatever its block."""
    vb, wb, *sb = np.empty((6, min(idx.size, _BLOCK)))
    for i in range(0, idx.size, _BLOCK):
        ib = idx[i:i + _BLOCK]      # in range: take's mode="clip" skips only a copy of the block
        va, wa = v.take(ib, out=vb[:ib.size], mode="clip"), wb[:ib.size]
        if ln:
            np.log(va, out=va)
        steps(wa, va, [s[:ib.size] for s in sb])
        w[ib] = wa


def _w0_fsc_block(w, x, _):
    """`w0_scalar` on x in (-1/e, e), |x| >= 1e-4: its seeds and its two `_fsc_step`s."""
    l = np.log1p(x)
    v = l * (1.0 - np.log1p(l) / (2.0 + l))
    if (b := (x < -0.3).nonzero()[0]).size:     # the branch-point seed there alone
        p = np.sqrt(2.0 * (math.e * x[b] + 1.0))
        v[b] = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    v = _fsc_step(v, np.log(x / v) - v)
    w[:] = _fsc_step(v, np.log(x / v) - v)


def _w0_log_block(w, lx, scratch):
    """W(e^lx) for lx >= 1, in place: _LOG_STEPS Halley steps on g(w) = w + ln w - lx,
    g'' = -1/w^2, from lx - ln lx."""
    r, u, t, d = scratch
    np.subtract(lx, np.log(lx, out=w), out=w)
    for _ in range(_LOG_STEPS):
        np.subtract(np.add(np.log(w, out=r), w, out=r), lx, out=r)
        np.add(np.divide(1.0, w, out=u), 1.0, out=u)           # g'
        np.multiply(np.multiply(r, 2.0, out=t), u, out=t)
        np.multiply(np.multiply(u, 2.0, out=d), u, out=d)
        d += np.divide(r, np.multiply(w, w, out=u), out=u)
        w -= np.divide(t, d, out=t)


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


def _sup_error(what, lnk, lnh, tau, sigma):
    # exp(ln h) is off by about |ln h| ulps: 12 significant digits hide that round trip
    h, k = (f"{math.exp(v):.12g}" if v < 709.0 else f"exp({v:.12g})" for v in (lnh, lnk))
    return NumericalError(f"{what}: tau={tau!r}, sigma={sigma!r}, h={h}, k={k}")


def _ln_x_over_lnk(s1, tau, b, c):
    """ln |x| - ln |L| = ln(s1/(tau b)) + s1 c for x = L s1/(tau b) e^(s1 c), of `_ln_root` and
    `envelope` (L = ln(e+k)); ln(s1/b) - ln tau where s1/(tau b) leaves the floats (tau subnormal)."""
    q = s1 / (tau * b)
    lq = math.log(q) if 0.0 < q < math.inf else math.log(s1 / b) - math.log(tau)
    return lq + s1 * c


def _ln_root(lx, ll, c, tc, s1, sign=1.0, m=None):
    """u = ln p at p^s1 (ln p + c) = r > 0 (module docstring), for floats or arrays, from
    lx = ln x = ln(sign x), ll = ln L = ln(tau b r) and tc = tau b c; given m = lx - ll, (u, the
    bound on its error). A float c takes one form."""
    if isinstance(lx, float) and not c > _C_NEWTON:
        u = (_w0_log_scalar(lx) if lx >= 1.0 else w0_scalar(math.copysign(math.exp(lx), sign))) / s1 - c
        return u if m is None else (u, 2.0 ** -46 * (1.0 + 2.0 * (abs(u) + abs(c)) + (1.0 + abs(m)) / s1))
    one, new = isinstance(lx, float), c > _C_NEWTON
    u = None if one or np.all(new) else w0_exp_grid(lx, sign) / s1 - c     # the W form, on arrays
    e = None if u is None or m is None else 1.0 + 2.0 * (abs(u) + abs(c)) + (1.0 + abs(m)) / s1
    if one or np.any(new):
        log, log1p, top = (math.log, math.log1p, max) if one else (np.log, np.log1p, np.maximum)
        v = lo = (d := top(ll - log(tc), 0.0)) / (s1 + 1.0 / c)
        for _ in range(12):
            v = top(v - (s1 * v + log1p(v / c) - d) / (s1 + 1.0 / (c + v)), lo)
        f = None if m is None else 1.0 + abs(v) + (1.0 + abs(ll) + abs(log(tc))) / (s1 + 1.0 / (c + v))
        u, e = (v, f) if u is None else (np.where(new, v, u), None if m is None else np.where(new, f, e))
    return u if m is None else (u, 2.0 ** -46 * e)


def _assoc_sup_scalar(lnk, lnh, tau, sigma):
    s1, c = sigma - 1.0, 1.0 / sigma - lnh / tau
    ll = math.log(abs(lnk)) if lnk else -math.inf
    lx, near = ll + _ln_x_over_lnk(s1, tau, sigma, c), ()
    if lnk > 0.0 or lx <= -1.0 and lnh >= 0.0:      # x >= -1/e, as in `assoc_sup_grid`
        lnp = _ln_root(lx, ll, c, tau - sigma * lnh, s1, lnk)
        if not lnp < _LN_2_53:      # NaN too: c or x out of the float range
            raise _sup_error(f"T_h(k) peaks near p = exp({lnp:.6g}) > 2**53, past exact integer floats",
                             lnk, lnh, tau, sigma)
        q = math.floor(math.exp(lnp))
        near = range(max(q - 1, 1), q + 3)
    best, best_p = 0.0, 0   # the p = 0 term: ln_+ 1 = 0
    for p in (1, *near):
        lp = math.log(p)
        try:
            pw = float(p) ** sigma
        except OverflowError:
            pw = math.inf       # g as written is then not finite
        g = pw * lnh + p * lnk - tau * pw * lp
        if not math.isfinite(g):    # the log form: -inf past the floats is a proven loss
            with np.errstate(divide="ignore", over="ignore"):
                g = float(_g_log_form(p, lp, lnk, lnh, tau, sigma))
            if g == math.inf:
                raise _sup_error(f"T_h(k) = g(p) passes the largest float at p = {p}", lnk, lnh, tau, sigma)
        if g > best:
            best, best_p = g, p
    return best, best_p


def _g_log_form(p, lp, lnk, lnh, tau, sigma):
    """g(p) in the log form of the module docstring, lp = ln p, for floats or arrays, in numpy."""
    d = tau * lp - lnh
    e = sigma * lp + (math.log(tau) + np.log(lp) if lnh == 0.0 else np.log(np.abs(d)))
    return p * lnk - np.copysign(np.exp(e), d)


def assoc_sup_grid(lnk_arr, lnh, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    values = lnk_arr + lnh      # g(1)
    argmax = (values > 0.0).astype(np.int64)
    values = np.maximum(values, 0.0)
    s1, c = sigma - 1.0, 1.0 / sigma - lnh / tau
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):     # past the floats: the log form below
        # ln |x| = -inf at ln k = 0, and NaN there where s1 c = inf: such a point takes no W
        ll = np.log(np.abs(lnk_arr))
        lx = ll + _ln_x_over_lnk(s1, tau, sigma, c)
        # x >= -1/e: integers next to p* compete; at h < 1 only where ln k > 0, as g < 0 at every p >= 1 else
        t = np.flatnonzero(lnk_arr > 0.0 if lnh < 0.0 else (lnk_arr > 0.0) | (lx <= -1.0))
        L, lx, ll = lnk_arr[t], lx[t], ll[t]
        lnp = _ln_root(lx, ll, c, tau - sigma * lnh, s1, L)
        q = np.maximum(np.floor(np.exp(lnp)) + np.arange(-1.0, 3.0)[:, None], 1.0)    # a row per candidate
        lq = np.log(q)
        pwq = q ** sigma
        g = pwq * lnh + q * L - tau * pwq * lq
        if not (fin := np.isfinite(g)).all():      # the log form, at those candidates alone
            b = ~fin
            g[b] = _g_log_form(q[b], lq[b], np.broadcast_to(L, q.shape)[b], lnh, tau, sigma)
    # a g past the largest float (+inf, or NaN) and p* past 2**53 (NaN too): the scalar kernel raises
    keep, hand = lnp < _LN_2_53, ()
    if not (keep.all() and fin.all()):
        keep &= (g < math.inf).all(axis=0)
        hand, t, q, g = t[~keep], t[keep], q[:, keep], g[:, keep]
    best_g, best_q = g.max(axis=0), q[3].copy()
    for qr, gr in zip(q[2::-1], g[2::-1]):      # upwards, so that the first largest wins
        np.copyto(best_q, qr, where=gr == best_g)
    argmax[t] = np.where(best_g > values[t], best_q, argmax[t])
    values[t] = np.maximum(values[t], best_g)
    for i in hand:      # in k order, so that the first failing point raises
        values[i], argmax[i] = _assoc_sup_scalar(float(lnk_arr[i]), lnh, tau, sigma)
    return values, argmax


# ---------------------------------------------------------------------------
# Counting-sum evaluation  T(k) = sum_{log m_p <= ln k} (ln k - log m_p)
# ---------------------------------------------------------------------------

def _tau_pow(p, tau, sigma):
    """tau p^sigma at float p >= 0; where it passes the floats, again as exp(ln tau + sigma ln p),
    finite where p^sigma alone overflows (tau < 1). Every finite value keeps its bits."""
    with np.errstate(over="ignore"):
        t = tau * p ** sigma
        big = t == math.inf
        return np.where(big, np.exp(math.log(tau) + sigma * np.log(np.maximum(p, 1.0))), t) if big.any() else t


def ext_log_M(p, tau, sigma):
    """log M_p = tau p^sigma ln p of the extended Gevrey sequence at float p, 0 for p <= 1."""
    return np.where(p > 1, _tau_pow(p, tau, sigma) * np.log(np.maximum(p, 1.0)), 0.0)


def _quotient_factor(p, lp, sigma):
    """B(p) = log m_p / (tau p^sigma) at float p >= 2, lp = ln p: with l = log1p(-1/p)
    and em = expm1(sigma l), B = -em ln p - (1 + em) l, a sum of two positive terms, so
    it does not cancel as the difference tau p^sigma ln p - tau (p-1)^sigma ln(p-1) does.
    It overwrites p: a counting table of up to _COUNT_P_CAP quotients then peaks at four
    arrays its size, p and lp included."""
    l = np.divide(-1.0, p, out=np.empty_like(p))
    np.log1p(l, out=l)
    em = np.expm1(np.multiply(l, sigma, out=p), out=p)
    b = np.multiply(em, lp, out=np.empty_like(p))
    em += 1.0
    em *= l
    b += em
    return np.negative(b, out=b)


def ext_log_m(p, tau, sigma):
    """log m_p = log M_p - log M_(p-1) = tau p^sigma B(p) at float p >= 1, 0 at p = 1."""
    q = np.asarray(np.maximum(p, 2.0))      # an array, which `_quotient_factor` overwrites
    return np.where(p > 1, _tau_pow(p, tau, sigma) * _quotient_factor(q, np.log(q), sigma), 0.0)


def _counting_sum_scalar(lnk, tau, sigma):
    """(T(k), N) at one ln k, in `math`: (0, 0) for k < 1 and (0, 1) at k = 1 (log m_1 = 0).

    N is found by galloping over p = 64 * 2^j, then bisecting, on the finite
    sigma ln p + ln B(p) <= ln ln k - ln tau, with `_quotient_factor`'s B written inline
    (a call per quotient made a count about 20% slower). NumericalError where N passes
    _COUNT_P_CAP. log M_N = tau N^sigma ln N takes tau N^sigma by `_tau_pow`'s rule."""
    if lnk <= 0.0:
        return 0.0, int(lnk == 0.0)
    log, log1p, expm1 = math.log, math.log1p, math.expm1
    rhs = log(lnk) - log(tau)
    lo, hi, p = 1, 0, 64     # log m_lo <= ln k; hi = 0 while galloping, then log m_hi > ln k
    while True:
        lp, l = log(p), log1p(-1.0 / p)
        em = expm1(sigma * l)
        if sigma * lp + log((-1.0 - em) * l - em * lp) <= rhs:
            if not hi and p >= _COUNT_P_CAP:
                raise NumericalError(f"the counting sum needs quotients m_p past p = {_COUNT_P_CAP}: "
                                     f"tau={tau!r}, sigma={sigma!r}, k up to exp({lnk!r})")
            lo = p
        else:
            hi = p
        if hi - lo == 1:
            break
        p = (lo + hi) // 2 if hi else 2 * p
    try:
        t = tau * lo ** sigma
    except OverflowError:
        t = math.inf
    lp = log(lo)
    return lo * lnk - (t if t < math.inf else math.exp(log(tau) + sigma * lp)) * lp, lo


def counting_sum_grid(lnk_arr, tau, sigma):
    """(T(k), N) for every ln k: the scalar search finds the largest N (and raises where it
    does), then `searchsorted` finds every N in one table of ln log m_p, p = 2 .. N_max.
    The table is built in place, and log M_N taken at the counts alone: the peak is four
    arrays the table's size, 128 MiB at the cap."""
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    n = _counting_sum_scalar(float(np.max(lnk_arr)) if lnk_arr.size else 0.0, tau, sigma)[1]
    p = np.arange(2, n + 1, dtype=np.float64)
    lp = np.log(p)
    lnlogm = _quotient_factor(p, lp, sigma)
    np.log(lnlogm, out=lnlogm)
    lnlogm += np.multiply(lp, sigma, out=lp)     # ln log m_p - ln tau
    rhs = np.log(lnk_arr, out=np.full_like(lnk_arr, -math.inf), where=lnk_arr > 0.0) - math.log(tau)
    counts = np.searchsorted(lnlogm, rhs, side="right") + (lnk_arr >= 0.0)    # log m_1 = 0
    return np.maximum(lnk_arr, 0.0) * counts - ext_log_M(counts.astype(np.float64), tau, sigma), counts
