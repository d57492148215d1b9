"""50-digit references for the tests, in `decimal`, independent of the kernels they check.

They work in 60 digits, so that the 1/(1 + w) of a Newton step near the branch point
w = -1 (x within 1e-10 of -1/e) leaves 50 good ones."""

import decimal
import math

_CTX = decimal.Context(prec=60)
_STOP = decimal.Decimal(10) ** -50


def _newton(step, w):
    """w - step(w) until a step is below 1e-50 relative; ArithmeticError after 200 steps."""
    for _ in range(200):
        s = step(w)
        w -= s
        if abs(s) <= abs(w) * _STOP:
            return w
    raise ArithmeticError(f"no convergence from {w}")


def w0(x):
    """W0(x) for a float x in (-1/e, 1.8e308] as a 50-digit Decimal.

    Below e: Newton on w e^w = x from w = max(x, 0), right of the root, where
    w e^w is convex and rising, so the iterates fall to the root. From e on: `w0_log(ln x)`."""
    with decimal.localcontext(_CTX):
        X = decimal.Decimal(x)
        if X >= decimal.Decimal(1).exp():
            return w0_log(X.ln())
        return _newton(lambda w: (w - X / w.exp()) / (w + 1), max(X, decimal.Decimal(0)))


def w0_log(lx):
    """W(e^lx) for lx in [1, 1e300] (a float or a Decimal) as a 50-digit Decimal.

    Newton on w + ln w = lx from w = lx - ln lx, left of the root, where w + ln w
    is concave and rising, so the iterates rise to the root."""
    with decimal.localcontext(_CTX):
        L = decimal.Decimal(lx)
        return _newton(lambda w: (w + w.ln() - L) * w / (w + 1), L - L.ln())


def ulps(w, ref):
    """|w - ref| in units in the last place of ref rounded to a float."""
    return float(abs(decimal.Decimal(w) - ref)) / math.ulp(float(ref))
