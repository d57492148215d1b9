"""50-digit references for the tests, in `decimal`, independent of the kernels they check.

Every function works in one 60-digit context, so that the 1/(1 + w) of a Newton step near
the branch point w = -1 (x within 1e-10 of -1/e) leaves 50 good digits, and every root is
found by `_newton`. Floats in, Decimals out; the domains:

- `w0(x)`: W0 for x in (-1/e, 1.8e308]; `w0_log(lx)`: W(e^lx) for lx <= 1e300.
- `g(p, lnk, lnh, tau, sigma)`: the objective p^sigma ln h + p ln k - tau p^sigma ln p of T_h
  at an integer p >= 1, where its three terms cancel in floats; `g_cond(p, ...)` the sum of
  their sizes over |g(p)|, by which a rounding of each term grows in g.
- `log_M(p, tau, sigma)` = tau p^sigma ln p (0 for p <= 1), `log_m(p, ...)` = log M_p -
  log M_(p-1) and `counting_sum(lnk, n, ...)` = n ln k - log M_n, the counting sum at its
  count n, for integers p, n >= 1, tau > 0 and sigma > 1 (2^1e6 is a Decimal).
- `count(tau, sigma, C, lam, below=None)`: #{p >= 1 : p^(sigma-1) (ln C + tau ln p) <= ln lambda},
  a difference within 1e-40 of the terms a tie that counts, for counts up to about 1e15;
  None where the count reaches `below`.
- `ln_root(ll, tc, t, s1)`: u = ln p >= 0 at the root of p^s1 (ln p + c) = r, r = e^ll/t,
  c = tc/t >= 0, s1 > 0, for r >= c; t > 0 and tc >= 0 are floats, up to 1e300 apart.
- `envelope(tau, sigma, h, k)`: E(k) = W(R)^(-1/(sigma-1)) ln^(sigma/(sigma-1)) k at k > 1,
  wherever ln R <= 1e300.
- `phi_star(sigma, y)`: (phi_sigma*(y), t*) = (sup_t (y t - phi_sigma(t)), its maximiser)
  for sigma > 1 and y >= 0, through the w-parametrisation t = w e^w.
"""

import decimal
import functools
import math

_CTX = decimal.Context(prec=60)
_STOP = decimal.Decimal(10) ** -50
_TIE = decimal.Decimal(10) ** -40
_D = decimal.Decimal


def _newton(step, w):
    """w - step(w) until a step is below 1e-50 relative; ArithmeticError after 200 steps."""
    for _ in range(200):
        s = step(w)
        w -= s
        if abs(s) <= abs(w) * _STOP:
            return w
    raise ArithmeticError(f"no convergence from {w}")


def w0(x):
    """Below e: Newton on w e^w = x from w = max(x, 0), right of the root, where w e^w is
    convex and rising, so the iterates fall to the root. From e on: `w0_log(ln x)`."""
    with decimal.localcontext(_CTX):
        X = _D(x)
        if X >= _D(1).exp():
            return w0_log(X.ln())
        return _newton(lambda w: (w - X / w.exp()) / (w + 1), max(X, _D(0)))


def w0_log(lx):
    """From lx = 1 on: Newton on w + ln w = lx from w = lx - ln lx, left of the root, where
    w + ln w is concave and rising, so the iterates rise to the root. Below: `w0(e^lx)`."""
    with decimal.localcontext(_CTX):
        L = _D(lx)
        if L < 1:
            return w0(L.exp())
        return _newton(lambda w: (w + w.ln() - L) * w / (w + 1), L - L.ln())


def g(p, lnk, lnh, tau, sigma):
    with decimal.localcontext(_CTX):
        return _D(p) * _D(lnk) + _g_at_k_1(p, lnh, tau, sigma)


def g_cond(p, lnk, lnh, tau, sigma):
    with decimal.localcontext(_CTX):
        P = _D(p)
        terms = P * abs(_D(lnk)) + (_D(sigma) * P.ln()).exp() * (abs(_D(lnh)) + _D(tau) * P.ln())
        return float(terms / abs(g(p, lnk, lnh, tau, sigma)))


@functools.lru_cache(maxsize=None)     # a sweep over k reads the same p^sigma terms at every k
def _g_at_k_1(p, lnh, tau, sigma):
    with decimal.localcontext(_CTX):
        P = _D(p)
        pw = (_D(sigma) * P.ln()).exp()
        return pw * _D(lnh) - _D(tau) * pw * P.ln()


@functools.lru_cache(maxsize=None)     # a count's check reads log M at N-1, N and N+1, each twice
def log_M(p, tau, sigma):
    with decimal.localcontext(_CTX):
        if p <= 1:
            return _D(0)
        lp = _D(p).ln()
        return _D(tau) * (_D(sigma) * lp).exp() * lp


def log_m(p, tau, sigma):
    with decimal.localcontext(_CTX):
        return log_M(p, tau, sigma) - log_M(p - 1, tau, sigma)


def counting_sum(lnk, n, tau, sigma):
    with decimal.localcontext(_CTX):
        return n * _D(lnk) - log_M(n, tau, sigma)


def count(tau, sigma, C, lam, below=None):
    """By galloping and bisecting: the left side rises with p wherever it is positive. A
    difference within 1e-40 of the terms is a tie, which counts: at lambda = p^p (C = 1,
    tau = 1, sigma = 2) the two sides are equal, and 60 digits leave them a rounding apart."""
    with decimal.localcontext(_CTX):
        lnC, lnlam, s1, t = _D(C).ln(), _D(lam).ln(), _D(sigma) - 1, _D(tau)

        def fits(p):
            pw, tl = (s1 * _D(p).ln()).exp(), t * _D(p).ln()
            return pw * (lnC + tl) - lnlam <= _TIE * (pw * (abs(lnC) + tl) + lnlam)

        if below is not None and fits(below):
            return None
        lo, hi = 0, 1
        while fits(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        return lo


def ln_root(ll, tc, t, s1):
    """For c > 0 by Newton on s1 u + log1p(u/c) - ln(r/c), concave and rising, from u = 0, left
    of the root, so the iterates rise to it, with no term of c's size; at c = 0 as W(s1 r)/s1."""
    with decimal.localcontext(_CTX):
        lr, c, s1 = _D(ll) - _D(t).ln(), _D(tc) / _D(t), _D(s1)
        if c == 0:
            return w0_log(s1.ln() + lr) / s1
        d = lr - c.ln()
        return _newton(lambda u: (s1 * u + _log1p(u / c) - d) / (s1 + 1 / (c + u)), _D(0))


def envelope(tau, sigma, h, k):
    """exp((sigma ln ln k - ln W(R))/(sigma-1)), with
    ln R = -(sigma-1)/tau ln h + (sigma-1)/sigma + ln((sigma-1)/(tau sigma)) + ln ln(e + k)."""
    with decimal.localcontext(_CTX):
        t, s, k = _D(tau), _D(sigma), _D(k)
        ln_r = (-(s - 1) / t * _D(h).ln() + (s - 1) / s + ((s - 1) / (t * s)).ln()
                + (_D(1).exp() + k).ln().ln())
        return ((s * k.ln().ln() - w0_log(ln_r).ln()) / (s - 1)).exp()


def phi_star(sigma, y):
    """(0, 0) for y <= 1. With t = w e^w, phi_sigma'(t) = e^(w/(s-1)) (1 + c w)/(1 + w),
    c = sigma/(sigma-1), rises from 1 at w = 0. Newton on ln phi_sigma' - ln y, a concave and
    rising function of w, from w = 0, left of the root, so the iterates rise to it; then
    phi* = w^2 e^(sigma w/(s-1)) / ((s-1)(1 + w)) and t* = w e^w."""
    with decimal.localcontext(_CTX):
        Y = _D(y)
        if Y <= 1:
            return _D(0), _D(0)
        s1 = _D(sigma) - 1
        c, lny = _D(sigma) / s1, _log1p(Y - 1)

        def step(w):
            f = w / s1 + _log1p(c * w) - _log1p(w) - lny
            return f / (1 / s1 + c / (1 + c * w) - 1 / (1 + w))

        w = _newton(step, _D(0))
        return w * w * (c * w).exp() / (s1 * (1 + w)), w * w.exp()


def _log1p(u):
    """ln(1 + u) to 50 digits relative: below |u| = 1e-3 by its series, since (1 + u).ln()
    keeps only about 60 + log10 |u| digits of it."""
    if abs(u) >= _D("1e-3"):
        return (1 + u).ln()
    total, term, n = _D(0), u, 1
    while abs(term) > abs(u) * _STOP / 10:
        total += term / n
        term, n = -term * u, n + 1
    return total


def ulps(w, ref):
    """|w - ref| in units in the last place of ref rounded to a float."""
    return float(abs(_D(w) - ref)) / math.ulp(float(ref))


def rel(x, ref):
    """|x - ref| / |ref| as a float."""
    with decimal.localcontext(_CTX):
        return float(abs(_D(x) - ref) / abs(ref))
