"""Hot numeric kernels, one numpy/pure-Python implementation each.

Lambert W0 on [-1/e, inf) (the public entry points admit x >= 0): `w0_scalar`
counts its Halley steps. `w0_grid` takes the same steps in numpy over cache-sized
blocks, freezing each point once it has converged: a point's w is bit-identical
whichever block and whichever other points it comes with.

T_h(k) = max(0, sup_p [p ln k - f(p)]), f(p) = tau p^sigma ln p - p^sigma ln h,
is a discrete Legendre transform. `assoc_sup_grid` takes p <= head from the
lower convex hull of (p, f(p)), one searchsorted of ln k in its slopes. Past
the head only the integers next to the one interior local maximum compete:
ln p* = W0(x)/(sigma-1) - c, x = ln k (sigma-1)/(tau sigma) e^{(sigma-1)c},
c = (tau - sigma ln h)/(tau sigma); for x < -1/e there is none. The scalar
`_assoc_sup_scalar` scans the head in Python and takes the same tail.
"""

import math

import numpy as np

from .errors import NumericalError

_W_TOL = 4.5e-16      # ~2 ulps of max(1, x): the floor of |w e^w - x| for x < e
_BLOCK = 8192        # W points per Halley block: its temporaries stay in L2
_COUNT_P_CAP = 2 ** 22   # largest quotient table of `counting_sum_grid`: 32 MiB an array
_LN_2_53 = 53.0 * math.log(2.0)   # integers p past 2**53 are not all floats


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [-1/e, inf)
# ---------------------------------------------------------------------------

def w0_scalar(x):
    """Principal-branch Lambert W for a single x >= -1/e, as (w, iterations)."""
    if x == 0.0:
        return 0.0, 0
    if abs(x) < 1e-4:
        # series around 0 avoids cancellation in the log-based seed
        return x * (1.0 - x * (1.0 - 1.5 * x)), 0
    if x >= math.e:
        return _w0_log_scalar(math.log(x))
    # -1/e <= x < e: direct residual, seeded with x itself
    w = x
    for n in range(1, 51):
        ew = math.exp(w)
        f = w * ew - x
        w = max(w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)), -1.0)
        if abs(f) <= _W_TOL * max(1.0, x):
            break
    return w, n


def _w0_log_scalar(lx):
    """W(e^lx) for lx >= 1, as (w, iterations): Halley on g(w) = w + ln w - lx."""
    w = lx - math.log(lx)
    for n in range(1, 51):
        g = w + math.log(w) - lx
        gp = 1.0 + 1.0 / w
        # Halley step for g with g'' = -1/w^2
        w -= 2.0 * g * gp / (2.0 * gp * gp + g / (w * w))
        if abs(g) <= 1e-15 * max(1.0, lx):
            break
    return w, n


def w0_grid(x):
    """Elementwise W: the Halley updates of `w0_scalar`, point by point."""
    x = np.asarray(x, dtype=np.float64)
    w, ax = np.zeros_like(x), np.abs(x)
    small, mid, big = (x != 0.0) & (ax < 1e-4), (ax >= 1e-4) & (x < math.e), x >= math.e
    xs, xm = x[small], x[mid]
    w[small] = xs * (1.0 - xs * (1.0 - 1.5 * xs))
    w[mid] = _halley_blocks(xm.copy(), xm, log_form=False)
    w[big] = _w0_log_grid(np.log(x[big]))
    return w


def _w0_log_grid(lx):
    """Elementwise `_w0_log_scalar`."""
    return _halley_blocks(lx - np.log(lx), lx, log_form=True)


def _halley_blocks(w, v, log_form):
    """The Halley steps of `_w0_log_scalar` (v = lx) or `w0_scalar` (v = x) on the
    seeds w, in place, _BLOCK points at a time so that the temporaries stay in cache."""
    for i in range(0, w.size, _BLOCK):
        wb, vb = w[i:i + _BLOCK], v[i:i + _BLOCK]
        lim = (1e-15 if log_form else _W_TOL) * np.maximum(1.0, vb)
        act = np.ones(wb.shape, dtype=bool)     # frozen once converged
        for _ in range(50):
            if log_form:
                r = wb + np.log(wb) - vb
                gp = 1.0 + 1.0 / wb
                new = wb - 2.0 * r * gp / (2.0 * gp * gp + r / (wb * wb))
            else:
                ew = np.exp(wb)
                r = wb * ew - vb
                new = np.maximum(wb - r / (ew * (wb + 1.0) - (wb + 2.0) * r / (2.0 * wb + 2.0)), -1.0)
            np.copyto(wb, new, where=act)
            act &= np.abs(r) > lim
            if not act.any():
                break
    return w


# ---------------------------------------------------------------------------
# Associated-function supremum  sup_p [ p^sigma ln h + p ln k - tau p^sigma ln p ]
# ---------------------------------------------------------------------------

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
    h, k = (repr(math.exp(v)) if v < 709.0 else f"exp({v!r})" for v in (lnh, lnk))
    return NumericalError(f"T_h(k) peaks near p = exp({lnp:.6g}) > 2**53, past exact integer "
                          f"floats: tau={tau!r}, sigma={sigma!r}, h={h}, k={k}")


def _assoc_sup_scalar(lnk, lnh, tau, sigma):
    head = min(_scan_cap(tau, sigma, abs(lnh), abs(lnk)), _p_concave_from(lnh, tau))
    c = (tau - sigma * lnh) / (tau * sigma)
    b = math.log((sigma - 1.0) / (tau * sigma)) + (sigma - 1.0) * c     # ln |x| - ln |ln k|
    lx = math.log(abs(lnk)) + b if lnk else -math.inf
    tail = ()
    if lnk > 0.0 or lx <= -1.0:      # x >= -1/e
        w, _ = _w0_log_scalar(lx) if lx >= 1.0 else w0_scalar(math.copysign(math.exp(lx), lnk))
        lnp = w / (sigma - 1.0) - c
        if lnp >= _LN_2_53:
            raise _beyond_2_53(lnp, lnk, lnh, tau, sigma)
        q = math.floor(math.exp(lnp))
        tail = range(max(q - 1, head + 1), q + 3)
    best, best_p = 0.0, 0   # the p = 0 term: ln_+ 1 = 0
    for p in (*range(1, head + 1), *tail):
        pw = float(p) ** sigma
        g = pw * lnh + p * lnk - tau * pw * math.log(p)
        if g > best:
            best, best_p = g, p
    return best, best_p


def assoc_sup_grid(lnk_arr, lnh, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    abs_lnk = float(np.max(np.abs(lnk_arr), initial=0.0))
    head = min(_scan_cap(tau, sigma, abs(lnh), abs_lnk), _p_concave_from(lnh, tau))
    p = np.arange(head + 1, dtype=np.float64)
    pw = p ** sigma
    f = tau * pw * np.log(np.maximum(p, 1.0)) - pw * lnh
    # lower convex hull of (p, f(p)): points before t = last argmin f(p)/p lie on or
    # above the chord 0-t; then drop vertices on or above their neighbours' chord
    hull = np.append(0, np.arange(head - np.argmin(f[:0:-1] / p[:0:-1]), head + 1))
    slopes = np.diff(f[hull]) / np.diff(hull)
    while (kink := np.flatnonzero(slopes[:-1] >= slopes[1:])).size:
        hull = np.delete(hull, kink + 1)
        slopes = np.diff(f[hull]) / np.diff(hull)
    best = hull[np.searchsorted(slopes, lnk_arr, side="left")]
    values = lnk_arr * p[best] - f[best]
    argmax = np.where(values > 0.0, best, 0)
    values = np.maximum(values, 0.0)
    # the tail: the integers next to p*, where x >= -1/e
    c = (tau - sigma * lnh) / (tau * sigma)
    with np.errstate(divide="ignore"):        # ln |x| = -inf at ln k = 0
        lx = np.log(np.abs(lnk_arr)) + math.log((sigma - 1.0) / (tau * sigma)) + (sigma - 1.0) * c
    t = np.flatnonzero((lnk_arr > 0.0) | (lx <= -1.0))
    L, lx = lnk_arr[t], lx[t]
    w, big = np.empty_like(lx), lx >= 1.0
    w[big], w[~big] = _w0_log_grid(lx[big]), w0_grid(np.copysign(np.exp(lx[~big]), L[~big]))
    lnp = w / (sigma - 1.0) - c
    if (lnp >= _LN_2_53).any():
        raise _beyond_2_53(lnp.max(), L[np.argmax(lnp)], lnh, tau, sigma)
    q = np.maximum(np.floor(np.exp(lnp))[:, None] + np.arange(-1.0, 3.0), head + 1.0)
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

def counting_sum_grid(lnk_arr, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    lnk_max = float(np.max(lnk_arr)) if lnk_arr.size else 0.0
    # double the table size n until log m_n clears the largest ln k, in scalar math
    n = 64
    while tau * n ** sigma * math.log(n) - tau * (n - 1) ** sigma * math.log(n - 1) <= lnk_max:
        if n >= _COUNT_P_CAP:
            raise NumericalError(f"the counting sum needs quotients m_p past p = {_COUNT_P_CAP}: "
                                 f"tau={tau!r}, sigma={sigma!r}, k up to exp({lnk_max!r})")
        n *= 2
    p = np.arange(0, n + 1, dtype=np.float64)
    logm = np.diff(np.where(p > 1, tau * p ** sigma * np.log(np.maximum(p, 1.0)), 0.0))
    counts = np.searchsorted(logm, lnk_arr, side="right")   # logm[j] = log m_{j+1}
    cum = np.concatenate(([0.0], np.cumsum(logm)))
    values = np.maximum(lnk_arr, 0.0) * counts - cum[counts]
    return values, counts.astype(np.int64)
