"""Hot numeric kernels, one numpy/pure-Python implementation each.

Lambert W has a scalar kernel (`w0_scalar`, a plain Python loop that
also reports its iteration count) and a vector kernel (`w0_grid`, a
masked numpy Halley iteration); the public W entry points pick one by
input type. The associated-function sup (`assoc_sup_grid`, with the
scalar `_assoc_sup_scalar`) and the counting sum (`counting_sum_grid`)
are numpy kernels over arrays of ln k.
"""

import math

import numpy as np

_E = math.e


# ---------------------------------------------------------------------------
# Lambert W, principal branch on [0, inf)
# ---------------------------------------------------------------------------

def w0_scalar(x):
    """Principal-branch Lambert W for a single x >= 0, as (w, iterations).

    Halley iteration; for x >= e the iteration runs on
    g(w) = w + ln w - ln x, which never overflows.
    """
    if x == 0.0:
        return 0.0, 0
    if x < 1e-4:
        # series around 0 avoids cancellation in the log-based seed
        return x * (1.0 - x * (1.0 - 1.5 * x)), 0
    if x >= _E:
        lx = math.log(x)
        w = lx - math.log(lx)
        for n in range(1, 51):
            g = w + math.log(w) - lx
            gp = 1.0 + 1.0 / w
            # Halley step for g with g'' = -1/w^2
            w -= 2.0 * g * gp / (2.0 * gp * gp + g / (w * w))
            if abs(g) <= 1e-15 * max(1.0, lx):
                break
        return w, n
    # 1e-4 <= x < e: direct residual, seeded with x itself
    w = x
    for n in range(1, 51):
        ew = math.exp(w)
        f = w * ew - x
        w = max(w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)), 0.0)
        if abs(f) <= 1e-16 * max(1.0, x):
            break
    return w, n


def w0_grid(x):
    """Elementwise W: the Halley updates of `w0_scalar`, masked by regime and
    repeated until every point has converged."""
    x = np.asarray(x, dtype=np.float64)
    w = np.zeros_like(x)

    small = (x > 0) & (x < 1e-4)
    xs = x[small]
    w[small] = xs * (1.0 - xs * (1.0 - 1.5 * xs))

    mid = (x >= 1e-4) & (x < _E)
    xm = x[mid]
    wm = xm.copy()
    for _ in range(50):
        ew = np.exp(wm)
        f = wm * ew - xm
        denom = ew * (wm + 1.0) - (wm + 2.0) * f / (2.0 * wm + 2.0)
        wm = np.maximum(wm - f / denom, 0.0)
        if np.all(np.abs(f) <= 1e-16 * np.maximum(1.0, xm)):
            break
    w[mid] = wm

    big = x >= _E
    lx = np.log(x[big])
    wb = lx - np.log(lx)
    for _ in range(50):
        g = wb + np.log(wb) - lx
        gp = 1.0 + 1.0 / wb
        wb -= 2.0 * g * gp / (2.0 * gp * gp + g / (wb * wb))
        if np.all(np.abs(g) <= 1e-15 * np.maximum(1.0, lx)):
            break
    w[big] = wb
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


def _assoc_objective(p, lnk, lnh, tau, sigma):
    pw = p ** sigma
    return pw * lnh + p * lnk - tau * pw * math.log(p)


def _p_concave_from(lnh, tau):
    """The objective is strictly concave in p for p >= h^(1/tau)."""
    if lnh <= 0.0:
        return 1
    pc = math.exp(lnh / tau)
    if pc > 4e6:
        pc = 4e6
    return int(pc) + 1


def _assoc_sup_scalar(lnk, lnh, tau, sigma):
    cap = _scan_cap(tau, sigma, abs(lnh), abs(lnk))
    best = 0.0   # p = 0 term: ln_+ 1 = 0
    best_p = 0
    head = min(cap, _p_concave_from(lnh, tau))
    for p in range(1, head + 1):
        g = _assoc_objective(float(p), lnk, lnh, tau, sigma)
        if g > best:
            best = g
            best_p = p
    if cap > head:
        # integer ternary search on the concave tail
        lo, hi = head, cap
        while hi - lo > 2:
            m1 = lo + (hi - lo) // 3
            m2 = hi - (hi - lo) // 3
            if (_assoc_objective(float(m1), lnk, lnh, tau, sigma)
                    < _assoc_objective(float(m2), lnk, lnh, tau, sigma)):
                lo = m1 + 1
            else:
                hi = m2
        for p in range(lo, hi + 1):
            g = _assoc_objective(float(p), lnk, lnh, tau, sigma)
            if g > best:
                best = g
                best_p = p
    return best, best_p


def assoc_sup_grid(lnk_arr, lnh, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    values = np.zeros_like(lnk_arr)
    argmax = np.zeros(lnk_arr.shape, dtype=np.int64)
    if lnk_arr.size == 0:
        return values, argmax
    abs_lnk = float(np.max(np.abs(lnk_arr)))
    cap = _scan_cap(tau, sigma, abs(lnh), abs_lnk)
    head = min(cap, _p_concave_from(lnh, tau))
    # vectorized scan over the possibly non-concave head
    p = np.arange(1, head + 1, dtype=np.float64)
    pw = p ** sigma
    base = pw * lnh - tau * pw * np.log(p)          # objective minus p*ln k
    step = max(1, int(5e7 // max(1, head)))
    for lo in range(0, lnk_arr.size, step):
        chunk = lnk_arr[lo:lo + step]
        g = base[None, :] + np.outer(chunk, p)
        idx = np.argmax(g, axis=1)
        best = g[np.arange(chunk.size), idx]
        pos = best > 0.0
        values[lo:lo + step][pos] = best[pos]
        argmax[lo:lo + step][pos] = idx[pos] + 1
    if cap > head:
        # per-point ternary search on the concave tail
        for i, lnk in enumerate(lnk_arr):
            cap_i = _scan_cap(tau, sigma, abs(lnh), abs(lnk))
            lo, hi = head, cap_i
            while hi - lo > 2:
                m1 = lo + (hi - lo) // 3
                m2 = hi - (hi - lo) // 3
                if (_assoc_objective(float(m1), lnk, lnh, tau, sigma)
                        < _assoc_objective(float(m2), lnk, lnh, tau, sigma)):
                    lo = m1 + 1
                else:
                    hi = m2
            for q in range(lo, hi + 1):
                g = _assoc_objective(float(q), lnk, lnh, tau, sigma)
                if g > values[i]:
                    values[i] = g
                    argmax[i] = q
    return values, argmax


# ---------------------------------------------------------------------------
# Counting-sum evaluation  T(k) = sum_{log m_p <= ln k} (ln k - log m_p)
# ---------------------------------------------------------------------------

def counting_sum_grid(lnk_arr, tau, sigma):
    lnk_arr = np.asarray(lnk_arr, dtype=np.float64)
    lnk_max = float(np.max(lnk_arr)) if lnk_arr.size else 0.0
    # grow the quotient table until it clears the largest ln k
    n = 64
    while True:
        p = np.arange(0, n + 1, dtype=np.float64)
        f = np.where(p > 1, tau * p ** sigma * np.log(np.maximum(p, 1.0)), 0.0)
        logm = np.diff(f)        # logm[j] = log m_{j+1}
        if logm[-1] > lnk_max:
            break
        n *= 2
    counts = np.searchsorted(logm, lnk_arr, side="right")
    cum = np.concatenate(([0.0], np.cumsum(logm)))
    values = np.maximum(lnk_arr, 0.0) * counts - cum[counts]
    return values, counts.astype(np.int64)

