"""Hot numeric kernels, one numpy/pure-Python implementation each.

Lambert W0 on [-1/e, inf) (the public entry points admit x >= 0): `w0_scalar` takes
a seed and two Fritsch-Shafer-Crowley steps, a fixed count with no convergence test.
`w0_grid` takes Halley steps in numpy over cache-sized blocks of each branch's points,
gathered by index into buffers made once per call and stepped in place, each pass on the
block's still-active points only: a point takes its own steps, and its w is bit-identical
whichever block and other points it comes with. The grid keeps its Halley bits because
the default verify report prints values built on them (the matrix-equivalence reservoir
H = 1/min(T/phi_sigma)). The scalar W is within 2 ulp of W for x >= -0.3, the grid for
x >= 1e-4 (3 ulp on [-0.3, -1e-4]), so the two agree to about 2e-15 relative.
`w0_exp_scalar` and `w0_exp_grid` take W(+-e^lx) from ln x, in log form where lx >= 1.

T_h(k) = max(0, sup_p g(p)), g(p) = p^sigma ln h + p ln k - tau p^sigma ln p.
g'(p) = ln k - tau sigma p^(sigma-1) (ln p + c), c = (tau - sigma ln h)/(tau sigma),
and p^(sigma-1) (ln p + c) falls from 0 to one minimum, then rises to inf: on p > 0
g has at most one interior local maximum, the W0 root
ln p* = W0(x)/(sigma-1) - c, x = ln k (sigma-1)/(tau sigma) e^{(sigma-1)c},
for every h. So T_h(k) = max(0, g(1), g(floor(p*)-1 ... floor(p*)+2)), and
max(0, g(1)) where x < -1/e (g only falls). `assoc_sup_grid` takes one W call
for all k; the scalar `_assoc_sup_scalar` takes the same candidates in `math`,
since a numpy call on one point costs more than the whole scalar path. At h < 1
and ln k > 0 both take ln p* from `_ln_p_star_h_below_1` instead, with no W and
no difference of c-sized terms.

The counting sum T(k) = sum_{log m_p <= ln k} (ln k - log m_p) telescopes to
N ln k - log M_N, N = #{p >= 1 : log m_p <= ln k}, and the quotients rise with p.
With log m_p = tau p^sigma B(p) (`_quotient_factor`), both routes compare
sigma ln p + ln B(p) with ln ln k - ln tau: values that neither cancel nor overflow.
`_counting_sum_scalar` finds one N by galloping and bisecting in `math`,
`counting_sum_grid` every N by `searchsorted` in one table.

Where p^sigma leaves the floats (sigma > 170 at p = 64), a sup candidate scores -inf
if its sign is proven, else NumericalError.
"""

import math
import sys

import numpy as np

from .errors import NumericalError

_W_TOL = 4.5e-16      # ~2 ulps of max(1, x): the floor of |w e^w - x| for x < e
_BLOCK = 8192        # W points per Halley block: its seven buffers (448 KiB), reused by every block, stay in L2
_COUNT_P_CAP = 2 ** 22   # largest p the counting sum searches; the grid's table there is 32 MiB
_LN_2_53 = 53.0 * math.log(2.0)   # integers p past 2**53 are not all floats
_LN_POW_MAX = 709.0      # sigma ln p below this, p^sigma is a float (ln of the largest is 709.78)
_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [-1/e, inf)
# ---------------------------------------------------------------------------

def w0_scalar(x):
    """Principal-branch Lambert W for a single x >= -1/e, as (w, iterations): a seed, then
    two `_fsc_step`s on z = ln(x/w) - w (no steps at 0, in the series range and at -1)."""
    if x == 0.0:
        return 0.0, 0
    if abs(x) < 1e-4:
        # W = x - x^2 + 3/2 x^3 - 8/3 x^4 + 125/24 x^5 - ...: the x^6 term is below an ulp
        return _w0_series(x), 0
    if x < -0.3:
        # the branch-point series in p = sqrt(2 (e x + 1)); at p = 0 the step would divide by 1 + w = 0
        if not (q := 2.0 * (math.e * x + 1.0)) > 0.0:
            return -1.0, 0
        p = math.sqrt(q)
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    else:
        l = math.log1p(x)
        w = l * (1.0 - math.log1p(l) / (2.0 + l))
    w = _fsc_step(w, math.log(x / w) - w)
    return _fsc_step(w, math.log(x / w) - w), 2


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
    """W(e^lx) for lx >= 1, as (w, 2): two `_fsc_step`s from lx - ln lx on z = lx - ln w - w."""
    w = lx - math.log(lx)
    w = _fsc_step(w, lx - math.log(w) - w)
    return _fsc_step(w, lx - math.log(w) - w), 2


def w0_grid(x):
    """Elementwise W: the series below 1e-4, else Halley steps, point by point."""
    x = np.asarray(x, dtype=np.float64)
    w, xf = np.zeros(x.shape), x.ravel()
    wf, ax = w.reshape(-1), np.abs(xf)
    small = ((xf != 0.0) & (ax < 1e-4)).nonzero()[0]
    wf[small] = _w0_series(xf[small])
    _halley(wf, xf, ((ax >= 1e-4) & (xf < math.e)).nonzero()[0], log_form=False)
    _halley(wf, xf, (xf >= math.e).nonzero()[0], log_form=True, ln=True)
    return w


def w0_exp_scalar(lx, sign=1.0):
    """W(x) for x = sign e^lx >= -1/e, as (w, iterations): `_w0_log_scalar` on ln x
    where lx >= 1, else `w0_scalar` on x."""
    return _w0_log_scalar(lx) if lx >= 1.0 else w0_scalar(math.copysign(math.exp(lx), sign))


def w0_exp_grid(lx, sign=1.0):
    """Elementwise `w0_exp_scalar`'s w; `sign` is a scalar or an array shaped like lx."""
    w, lf = np.empty(lx.shape), lx.ravel()
    wf, big = w.reshape(-1), lf >= 1.0
    with np.errstate(over="ignore"):    # w^2 = inf past ln x ~ 1.3e154: r/w^2 = 0 is right
        _halley(wf, lf, big.nonzero()[0], log_form=True)
    rest = (~big).nonzero()[0]
    wf[rest] = w0_grid(np.copysign(np.exp(lf[rest]), np.broadcast_to(sign, lx.shape).ravel()[rest]))
    return w


def _halley(w, v, idx, log_form, ln=False):
    """W at the flat indices idx of v, written into w at the same indices: W(v) by Halley
    steps from v, or in log form W(e^v) from v - ln v, v the ln of the gathered value where
    `ln`. Each block of up to _BLOCK points is gathered by index into buffers made once per
    call and stepped in place; after a pass that freezes a point, only its active points go on."""
    if not idx.size:
        return
    wb, vb, lb, rb, ub, tb, db = np.empty((7, min(idx.size, _BLOCK)))
    for i in range(0, idx.size, _BLOCK):
        ib = idx[i:i + _BLOCK]      # in range: take's mode="clip" skips only a copy of the block
        wa, va, lim = wb[:ib.size], v.take(ib, out=vb[:ib.size], mode="clip"), lb[:ib.size]
        r, u, t, d = rb[:ib.size], ub[:ib.size], tb[:ib.size], db[:ib.size]     # scratch
        if ln:
            np.log(va, out=va)
        if log_form:    # the seeds
            np.subtract(va, np.log(va, out=wa), out=wa)
        else:
            np.copyto(wa, va)
        np.multiply(np.maximum(va, 1.0, out=lim), 1e-15 if log_form else _W_TOL, out=lim)
        pos = None      # the active points' positions in wb; None while all are
        for _ in range(50):
            if log_form:    # Halley on g(w) = w + ln w - v, with g'' = -1/w^2
                np.subtract(np.add(np.log(wa, out=r), wa, out=r), va, out=r)
                np.add(np.divide(1.0, wa, out=u), 1.0, out=u)           # g'
                np.multiply(np.multiply(r, 2.0, out=t), u, out=t)
                np.multiply(np.multiply(u, 2.0, out=d), u, out=d)
                d += np.divide(r, np.multiply(wa, wa, out=u), out=u)
                wa -= np.divide(t, d, out=t)
            else:           # Halley on w e^w - v
                np.subtract(np.multiply(wa, np.exp(wa, out=u), out=r), va, out=r)   # u = e^w
                np.multiply(np.add(wa, 1.0, out=d), u, out=d)
                np.multiply(np.add(wa, 2.0, out=t), r, out=t)
                d -= np.divide(t, np.add(np.multiply(wa, 2.0, out=u), 2.0, out=u), out=t)
                wa -= np.divide(r, d, out=t)
                np.maximum(wa, -1.0, out=wa)
            if pos is not None:
                wb[pos] = wa
            keep = np.abs(r, out=r) > lim
            if (n := np.count_nonzero(keep)) == wa.size:
                continue
            if n == 0:
                break
            j = keep.nonzero()[0]
            pos = j if pos is None else pos[j]
            wa, va, lim, r, u, t, d = wa[j], va[j], lim[j], r[:n], u[:n], t[:n], d[:n]
        w[ib] = wb[:ib.size]


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


_PAST_2_53 = "T_h(k) peaks near p = exp({:.6g}) > 2**53, past exact integer floats"
# c = (tau - sigma ln h)/(tau sigma) past the floats where |ln h|/tau is: no W argument x is formed
_X_PAST_FLOATS = "ln x = {:.6g} of the root p* leaves the floats, c = {:.6g}"
# p^sigma > _MAX: g(p) = p^sigma (ln h - tau ln p) + p ln k < 0 if tau ln p - ln h > p ln_+ k / _MAX
_UNRESOLVED = "p^sigma overflows a float at the candidate p = {:.17g}, where g's sign is unresolved"


def _sup_error(what, lnk, lnh, tau, sigma):
    # exp(ln h) is off by about |ln h| ulps: 12 significant digits hide that round trip
    h, k = (f"{math.exp(v):.12g}" if v < 709.0 else f"exp({v:.12g})" for v in (lnh, lnk))
    return NumericalError(f"{what}: tau={tau!r}, sigma={sigma!r}, h={h}, k={k}")


def _ln_x_over_lnk(s1, tau, b, c):
    """ln |x| - ln |L| = ln(s1/(tau b)) + s1 c for a W argument x = L s1/(tau b) e^(s1 c):
    the one place it is formed. The sups pass s1 = sigma-1, b = sigma and L = ln k,
    `envelope` the same at L = ln(e+k), `counting_fn_floor` b = 1, c = ln C/tau and
    L = ln lambda. The quotient's log is ln(s1/b) - ln tau where the quotient leaves the
    floats (tau subnormal), so a subnormal tau b loses no digits of the log."""
    q = s1 / (tau * b)
    lq = math.log(q) if 0.0 < q < math.inf else math.log(s1 / b) - math.log(tau)
    return lq + s1 * c


def _ln_p_star_h_below_1(lnk, lnh, tau, sigma, log=np.log, log1p=np.log1p, maximum=np.maximum):
    """ln p* at h < 1 and ln k > 0, a float or an array, without W: W(x)/(sigma-1) - c is a
    difference of two terms near c = 1/sigma - ln h/tau, which loses ln p* once ulp(c) p*
    nears 1 (|ln h|/tau from about 1e14 on, at p* ~ 20). So u = ln p* solves
    f(u) = (sigma-1) u + log1p(u/c) - r = 0, r = ln ln k - ln(tau - sigma ln h), which has
    no term of c's size. f rises and is concave on u > -c, so Newton from the lower bound
    u = r/(sigma-1 + 1/c) rises to the root; each step is kept at or above that bound.
    Twelve fixed steps: across sigma-1 in [1e-15, 1e4], c in [0.3, 3e19] and u* <= ln 2**53,
    nine put p* within 1e-3 of its converged value. r < 0 (p* < 1) is taken as 0, so the
    candidates start at p = 1. The scalar kernel passes math.log, math.log1p and max."""
    a, c = sigma - 1.0, 1.0 / sigma - lnh / tau     # c > 0, a sum, where tau sigma may overflow
    r = maximum(log(lnk) - math.log(tau - sigma * lnh), 0.0)
    u = lo = r / (a + 1.0 / c)
    for _ in range(12):
        u = maximum(u - (a * u + log1p(u / c) - r) / (a + 1.0 / (c + u)), lo)
    return u


def _assoc_sup_scalar(lnk, lnh, tau, sigma):
    c = (tau - sigma * lnh) / (tau * sigma)
    lx = math.log(abs(lnk)) + _ln_x_over_lnk(sigma - 1.0, tau, sigma, c) if lnk else -math.inf
    near = ()
    if lnk > 0.0 or lx <= -1.0:      # x >= -1/e
        if not lx < math.inf:       # NaN too
            raise _sup_error(_X_PAST_FLOATS.format(lx, c), lnk, lnh, tau, sigma)
        if lnh < 0.0 and lnk > 0.0:
            lnp = _ln_p_star_h_below_1(lnk, lnh, tau, sigma, math.log, math.log1p, max)
        else:
            lnp = w0_exp_scalar(lx, lnk)[0] / (sigma - 1.0) - c
        if not lnp < _LN_2_53:      # NaN too: c or x out of the float range
            raise _sup_error(_PAST_2_53.format(lnp), lnk, lnh, tau, sigma)
        q = math.floor(math.exp(lnp))
        near = range(max(q - 1, 1), q + 3)
    best, best_p = 0.0, 0   # the p = 0 term: ln_+ 1 = 0
    for p in (1, *near):
        try:
            pw = float(p) ** sigma
        except OverflowError:
            if not tau * math.log(p) - lnh > max(lnk, 0.0) * p / _MAX:
                raise _sup_error(_UNRESOLVED.format(p), lnk, lnh, tau, sigma) from None
            continue        # g(p) < 0
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
    # ln |x| = -inf at ln k = 0, and NaN there where s1 c = inf: such a point takes no W
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.abs(lnk_arr)) + _ln_x_over_lnk(sigma - 1.0, tau, sigma, c)
    t = np.flatnonzero((lnk_arr > 0.0) | (lx <= -1.0))
    if not (lx[t] < math.inf).all():        # NaN too
        i = t[np.argmin(lx[t] < math.inf)]
        raise _sup_error(_X_PAST_FLOATS.format(lx[i], c), lnk_arr[i], lnh, tau, sigma)
    if lnh < 0.0:   # h < 1: where ln k <= 0 too, g(p) < 0 at every p >= 1
        t = t[lnk_arr[t] > 0.0]
        L = lnk_arr[t]
        lnp = _ln_p_star_h_below_1(L, lnh, tau, sigma)
    else:
        L = lnk_arr[t]
        lnp = w0_exp_grid(lx[t], L) / (sigma - 1.0) - c
    if not (lnp < _LN_2_53).all():
        raise _sup_error(_PAST_2_53.format(lnp.max()), L[np.argmax(lnp)], lnh, tau, sigma)
    # the four candidates as contiguous rows, (4, len(t))
    q = np.maximum(np.floor(np.exp(lnp)) + np.arange(-1.0, 3.0)[:, None], 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        pwq = q ** sigma
        g = pwq * lnh + q * L - tau * pwq * np.log(q)
    over = pwq == math.inf
    if over.any():      # the scalar kernel's test, on every candidate whose power overflowed
        qo, Lo = q.T[over.T], np.broadcast_to(L[:, None], over.T.shape)[over.T]   # point by point
        bad = ~(tau * np.log(qo) - lnh > np.maximum(Lo, 0.0) * qo / _MAX)
        if bad.any():
            raise _sup_error(_UNRESOLVED.format(qo[bad][0]), Lo[bad][0], lnh, tau, sigma)
        g[over] = -math.inf
    # a running max over the rows, in place in row 0: the first largest, or the first NaN, as argmax
    best_q, best_g = q[0], g[0]
    for qr, gr in zip(q[1:], g[1:]):
        better = ~(gr <= best_g)
        better &= best_g == best_g
        np.copyto(best_q, qr, where=better)
        np.copyto(best_g, gr, where=better)
    argmax[t] = np.where(best_g > values[t], best_q, argmax[t])
    values[t] = np.maximum(values[t], best_g)
    return values, argmax


# ---------------------------------------------------------------------------
# Counting-sum evaluation  T(k) = sum_{log m_p <= ln k} (ln k - log m_p)
# ---------------------------------------------------------------------------

def ext_log_M(p, tau, sigma):
    """log M_p = tau p^sigma ln p of the extended Gevrey sequence at float p, 0 for p <= 1."""
    return np.where(p > 1, tau * p ** sigma * np.log(np.maximum(p, 1.0)), 0.0)


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
    return np.where(p > 1, tau * p ** sigma * _quotient_factor(q, np.log(q), sigma), 0.0)


def _counting_sum_scalar(lnk, tau, sigma):
    """(T(k), N) at one ln k, in `math`: (0, 0) for k < 1 and (0, 1) at k = 1 (log m_1 = 0).

    N is found by galloping over p = 64 * 2^j, then bisecting, on the finite
    sigma ln p + ln B(p) <= ln ln k - ln tau, with `_quotient_factor`'s B written inline
    (a call per quotient made a count about 20% slower). NumericalError where N passes
    _COUNT_P_CAP, or where N^sigma in log M_N = tau N^sigma ln N leaves the floats."""
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
    lp = log(lo)
    if not sigma * lp < _LN_POW_MAX:
        raise NumericalError(f"log M_N = tau N^sigma ln N needs N^sigma past the floats at N = {lo}: "
                             f"tau={tau!r}, sigma={sigma!r}, k up to exp({lnk!r})")
    return lo * lnk - tau * lo ** sigma * lp, lo


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
