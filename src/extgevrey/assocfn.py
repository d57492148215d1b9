"""The function T_h(k) = sup_p ln_+ (h^{p^sigma} k^p / M_p) associated to an
extended Gevrey sequence, computed two independent ways (direct supremum
and counting-function sum), plus the Lambert-W sandwich bounds on it.
"""

import math
import sys
from typing import NamedTuple, Tuple

import numpy as np

from ._kernels import (_LN_2_53, _assoc_sup_scalar, _counting_sum_scalar, _ln_root, _ln_x_over_lnk,
                       assoc_sup_grid, counting_sum_grid, w0_exp_grid)
from .errors import DomainError, NumericalError, UsageError
from .sequences import SequenceParams, _check_positive, _fit_band

__all__ = [
    "AssocFnResult",
    "assoc_fn_sup",
    "assoc_fn_sup_grid",
    "assoc_fn_counting",
    "assoc_fn_counting_grid",
    "counting_fn_floor",
    "counting_fn_direct",
    "envelope",
    "sandwich_bounds_check",
    "SandwichReport",
]


class AssocFnResult(NamedTuple):
    value: float
    argmax_p: int
    method: str


def _k_grid(k_grid, caller):
    """k_grid as a float array, rejecting nonfinite or nonpositive points."""
    k = np.asarray(k_grid, dtype=np.float64)
    bad = ~(np.isfinite(k) & (k > 0))
    if bad.any():
        raise DomainError(f"{caller} needs finite k > 0, got k={k[bad].flat[0]}")
    return k


def assoc_fn_sup(params: SequenceParams, h: float, k: float) -> AssocFnResult:
    """T_h(k) by direct maximization over integer p >= 0."""
    if not (0.0 < h < math.inf and 0.0 < k < math.inf):
        _check_positive("h", h)
        _check_positive("k", k)
    value, p = _assoc_sup_scalar(math.log(k), math.log(h), params.tau, params.sigma)
    return AssocFnResult(float(value), int(p), "supremum")


def assoc_fn_sup_grid(params: SequenceParams, h: float, k_grid) -> Tuple[np.ndarray, np.ndarray]:
    """(T_h(k), argmax p) for every k, as arrays shaped like k_grid, each entry equal to
    `assoc_fn_sup` at its k to rounding; an error is that call's at the first failing k."""
    _check_positive("h", h)
    k = _k_grid(k_grid, "assoc_fn_sup_grid")
    T, argmax = assoc_sup_grid(np.log(k).ravel(), math.log(h), params.tau, params.sigma)
    return T.reshape(k.shape), argmax.reshape(k.shape)


def assoc_fn_counting(params: SequenceParams, k: float) -> AssocFnResult:
    """T(k) at h = 1 as the exact finite sum over quotient jump points, N ln k - log M_N."""
    if not 0.0 < k < math.inf:
        _check_positive("k", k)
    value, count = _counting_sum_scalar(math.log(k), params.tau, params.sigma)
    return AssocFnResult(float(value), count, "counting_sum")


def assoc_fn_counting_grid(params: SequenceParams, k_grid) -> Tuple[np.ndarray, np.ndarray]:
    """(T(k), count of p >= 1 with log m_p <= ln k) for every k, shaped like k_grid."""
    k = _k_grid(k_grid, "assoc_fn_counting_grid")
    T, counts = counting_sum_grid(np.log(k).ravel(), params.tau, params.sigma)
    return T.reshape(k.shape), counts.reshape(k.shape)


# ---------------------------------------------------------------------------
# counting function for the shifted quotient variant
# ---------------------------------------------------------------------------
#
# Both routes decide g(p) = p^(s-1) (ln C + tau ln p) <= ln lambda one way, exactly: divided
# by p^(s-1), as a = ln C^+ + tau ln p <= b = ln C^- + ln lambda / p^(s-1) (C^+ = max(C, 1),
# C^- = max(1/C, 1)), sums of terms >= 0 that the floats give to a few ulps. A float a taken
# _K times too large proves that p fits where it is <= b, and that p does not where it is
# > _K^2 b; in between, and only there, `_fits_exact` decides in decimal.

_K = 1.0 + 2.0 ** -46   # past a's and b's rounding errors (several ulps each)
_K2 = _K * _K


def _validate_c_lam(C, lam):
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _check_positive("C", C)
        raise DomainError(f"lambda must be finite and >= 1, got {lam}")


def _fits_exact(p, s, tau, C, lam):
    """a(p) <= b(p) in 50-digit decimal at the given floats; a difference within 1e-40 of
    the terms is a tie (as at C = 1, tau = 1, sigma = 2, lambda = p^p), and a tie fits."""
    from decimal import Context, Decimal as D, localcontext     # here alone: ~2.5 ms to import
    with localcontext(Context(prec=50)):
        lp, lnC = D(p).ln(), D(float(C)).ln()
        t, r = D(tau) * lp, D(float(lam)).ln() * ((1 - D(s)) * lp).exp()
        return lnC + t - r <= (abs(lnC) + t + r) * D("1e-40")


def counting_fn_floor(params: SequenceParams, C, lam):
    """Closed form #{p >= 1 : C^{p^(s-1)} p^{tau p^(s-1)} <= lambda}.

    The count is floor(P), P^(s-1) (ln P + ln C/tau) = ln lambda/tau, ln P from `_ln_root`
    (W, or Newton past ln C/tau = 4), whose error bound d brackets P in e^(ln P -+ d): the one
    integer part, or `counting_fn_direct`'s search in the bracket, is the count.
    Raises NumericalError where the bracket is not finite and below 2**53.

    C and lambda may be arrays, which broadcast: the counts come back as an int64 array
    with one root call for all of them, each entry equal to the scalar call at its point,
    and an error is the scalar call's at the first failing point in C order."""
    if isinstance(lam, float) and isinstance(C, float) or np.ndim(C) == np.ndim(lam) == 0:
        return _floor_scalar(params.tau, params.sigma, C, lam)
    return _counts_grid(_floor_grid, _floor_scalar, params, C, lam)


def _floor_scalar(tau, s, C, lam):
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _validate_c_lam(C, lam)
    if not C <= lam:    # g(1) = ln C > ln lambda, on the floats: no p counts, whatever W resolves
        return 0
    s1, lnC, lnlam = s - 1.0, math.log(C), math.log(lam)
    c, ll = lnC / tau, math.log(lnlam) if lnlam > 0.0 else -math.inf
    m = _ln_x_over_lnk(s1, tau, 1.0, c)
    ln_p, d = _ln_root(ll + m, ll, c, lnC, s1, 1.0, m)
    if not ln_p + d < _LN_2_53:     # NaN too
        raise NumericalError(f"the count exp({ln_p:.6g}) is past what the closed form resolves: "
                             f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
    lo, hi = math.floor(math.exp(ln_p - d)) or 1, math.floor(math.exp(ln_p + d)) + 1
    return lo if hi - lo <= 1 else _direct_scalar(tau, s, C, lam, lo, hi)


def counting_fn_direct(params: SequenceParams, C, lam):
    """The same count from its defining inequality, without W.

    g(p) = p^(s-1) (ln C + tau ln p) is negative wherever it falls, so
    {p >= 1 : g(p) <= ln lambda} is an interval [1, P]: P is found by one loop that
    gallops over powers of two, then bisects, deciding each probe exactly (on the floats
    where they prove it, else in decimal). Raises NumericalError past p = 2**53.

    C and lambda may be arrays, as for `counting_fn_floor`: one such loop then runs
    over every point at once, each pass probing every point still open."""
    if isinstance(lam, float) and isinstance(C, float) or np.ndim(C) == np.ndim(lam) == 0:
        return _direct_scalar(params.tau, params.sigma, C, lam)
    return _counts_grid(_direct_grid, _direct_scalar, params, C, lam)


def _direct_scalar(tau, s, C, lam, lo=1, hi=0):
    """The one search: from g(lo) <= ln lambda, gallops while hi = 0, then bisects with
    g(hi) > ln lambda; `_floor_scalar` passes its bracket as (lo, hi)."""
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _validate_c_lam(C, lam)
    if not C <= lam:    # g(1) = ln C > ln lambda, on the floats
        return 0
    log, e = math.log, s - 1.0
    lnC, lnlam, t = log(C), log(lam), tau
    if t < 2.0 ** -960:     # tau ln p would be subnormal: scale g and ln lambda by 2^600, exactly
        t, lnC, lnlam = t * 2.0 ** 600, lnC * 2.0 ** 600, lnlam * 2.0 ** 600
    aC = abs(lnC)
    ca, ta, cm = (lnC + aC) * (0.5 * _K), t * _K, (aC - lnC) * 0.5     # _K ln C^+, _K tau, ln C^-
    p = (lo + hi) // 2 if hi else 2 * lo
    while p != lo:
        try:
            b = cm + lnlam / p ** e
        except OverflowError:       # ln lambda / q / q, q = p^(e/2), and 0 past that, far below a's rounding
            b = cm + (lnlam / (q := p ** (0.5 * e)) / q if 0.5 * e * log(p) < 709.0 else 0.0)
        a = ca + ta * log(p)
        if a <= b or not a > b * _K2 and _fits_exact(p, s, tau, C, lam):
            if p >= 2 ** 53:
                raise NumericalError(f"the count passes p = 2**53, past exact integer floats: "
                                     f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
            lo = p
        else:
            hi = p
        p = (lo + hi) // 2 if hi else 2 * p
    return lo


# -- the array paths: each decides a point where its own bound does, in numpy, and hands
# every other point to its scalar route, which is exact ----------------------------------

def _counts_grid(grid, scalar, params, C, lam):
    """`grid`'s counts at the broadcast (C, lambda), with `scalar` at every point it
    leaves in doubt, in C order, so that the first failing point raises."""
    C, lam = np.broadcast_arrays(np.asarray(C, dtype=np.float64), np.asarray(lam, dtype=np.float64))
    Cf, lamf = C.ravel(), lam.ravel()
    ok = (Cf > 0.0) & (Cf < math.inf) & (lamf >= 1.0) & (lamf < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        _validate_c_lam(float(Cf[i]), float(lamf[i]))
    tau, s = params.tau, params.sigma
    counts, doubt = np.zeros(Cf.size, dtype=np.int64), np.zeros(Cf.size, dtype=bool)
    live = np.flatnonzero(Cf <= lamf)     # g(1) = ln C <= ln lambda, on the floats: else no p counts
    if live.size:
        counts[live], doubt[live] = grid(tau, s, np.log(Cf[live]), np.log(lamf[live]))
    for i in np.flatnonzero(doubt).tolist():
        counts[i] = scalar(tau, s, float(Cf[i]), float(lamf[i]))
    return counts.reshape(C.shape)


def _floor_grid(tau, s, lnC, lnlam):
    # `_floor_scalar`'s bracket; in doubt where it holds two integer parts or is not finite
    s1 = s - 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c, ll = lnC / tau, np.log(lnlam)
        m = _ln_x_over_lnk(s1, tau, 1.0, c)
        ln_p, d = _ln_root(ll + m, ll, c, lnC, s1, 1.0, m)
        ok = ln_p + d < _LN_2_53
        lo = np.floor(np.exp(np.where(ok, ln_p - d, 0.0)))
        doubt = ~ok | (lo != np.floor(np.exp(np.where(ok, ln_p + d, 0.0))))
    return np.where(doubt, 0.0, lo).astype(np.int64), doubt


def _direct_grid(tau, s, lnC, lnlam):
    # `_direct_scalar`'s loop, each pass probing every open point once, up to 2**53; the
    # open points are kept packed, and leave once decided or in doubt. Below tau = 2^-960,
    # where the scalar route scales g, every point is left to it.
    counts, doubt = np.ones(lnC.size, dtype=np.int64), np.zeros(lnC.size, dtype=bool)
    if tau < 2.0 ** -960:
        return counts, ~doubt
    aC = np.abs(lnC)
    ca, ta, cm = (lnC + aC) * (0.5 * _K), tau * _K, (aC - lnC) * 0.5
    act, lo, hi, p = np.arange(lnC.size), counts.copy(), np.zeros_like(counts), np.full_like(counts, 2)
    while act.size:
        pf = p.astype(np.float64)
        with np.errstate(over="ignore"):
            q = pf ** (0.5 * (s - 1.0))     # ln lambda / q / q, as in `_direct_scalar`: 0 past the floats
            b = cm + lnlam / q / q
        a = ca + ta * np.log(pf)
        fit = a <= b
        dbt = ~fit & ~(a > b * _K2) | fit & (p >= 2 ** 53)
        lo, hi = np.where(fit, p, lo), np.where(fit, hi, p)
        p = np.where(hi > 0, (lo + hi) // 2, 2 * lo)
        done = (p == lo) | dbt
        if done.any():
            counts[act[done]], doubt[act[dbt]] = lo[done], True
            keep = ~done
            act, lo, hi, p = act[keep], lo[keep], hi[keep], p[keep]
            ca, cm, lnlam = ca[keep], cm[keep], lnlam[keep]
    return counts, doubt


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def envelope(params: SequenceParams, h: float, k_grid) -> np.ndarray:
    """E(k) = W(R(h,k))^(-1/(s-1)) * ln_+^(s/(s-1)) k, 0 for k <= 1, with
    R = h^(-(s-1)/tau) e^((s-1)/s) (s-1)/(tau s) ln(e+k).

    Taken as E = exp((s ln ln k - ln W(R))/(s-1)) with ln R from `_ln_x_over_lnk`, W from
    ln R, and ln W(R) = ln R - W(R) where W <= 1 (W underflows with R): no factor of R or
    E is formed, so none leaves the floats. Where s ln ln k does (s from about 5e306), E is
    taken as exp((s/(s-1)) ln ln k - ln W(R)/(s-1)), near ln k; elsewhere E keeps its bits.
    DomainError unless every k is finite and > 0. NumericalError where E passes the largest
    float, and where ln R does (c past the floats, where |ln h|/tau is)."""
    _check_positive("h", h)
    k = _k_grid(k_grid, "envelope")
    tau, s = params.tau, params.sigma
    E, big = np.zeros_like(k), k > 1.0
    kb, c = k[big], (tau - s * math.log(h)) / (tau * s)
    ln_r = np.log(np.log(math.e + kb)) + _ln_x_over_lnk(s - 1.0, tau, s, c)
    if not (ln_r < math.inf).all():     # NaN too
        raise NumericalError(f"envelope's ln R leaves the floats, c = {c:.6g}: tau={tau!r}, "
                             f"sigma={s!r}, h={h!r}")
    w = w0_exp_grid(ln_r)
    ln_w = np.log(w, out=ln_r - w, where=w > 1.0)     # ln R - W cancels where W is large
    lnln = np.log(np.log(kb))
    with np.errstate(over="ignore", invalid="ignore"):     # E past the floats: named below
        sl = s * lnln
        ln_e = (sl - ln_w) / (s - 1.0)
        past = np.isinf(sl)     # s ln ln k leaves the floats where E need not: regrouped there
        ln_e[past] = (s / (s - 1.0)) * lnln[past] - ln_w[past] / (s - 1.0)
        E[big] = np.exp(ln_e)
    if not (E < math.inf).all():
        i = np.argmax(ln_e)
        raise NumericalError(f"envelope E = exp({ln_e[i]:.6g}) overflows a float: tau={tau!r}, "
                             f"sigma={s!r}, h={h!r}, k={float(kb[i])!r}")
    return E


class SandwichReport(NamedTuple):
    params: SequenceParams
    h: float
    k: np.ndarray
    T: np.ndarray
    E: np.ndarray
    A1: float
    B1: float
    A2: float
    B2: float
    ratio_lo: float
    ratio_hi: float
    holds: bool

    def fitted(self):
        return {"A1": self.A1, "B1": self.B1, "A2": self.A2, "B2": self.B2,
                "ratio_lo": self.ratio_lo, "ratio_hi": self.ratio_hi}


def sandwich_bounds_check(params: SequenceParams, h: float, k_grid) -> SandwichReport:
    """Fit extremal affine constants for the two-sided envelope bound and
    record the T/E ratio band on the top decade of the grid."""
    k = np.asarray(k_grid, dtype=np.float64)
    if k.size < 8 or k.max() / max(k.min(), 1e-300) < 1e6:
        raise UsageError("k grid must span at least 6 decades")
    T, _ = assoc_fn_sup_grid(params, h, k)
    E = envelope(params, h, k)
    pos = E > 0
    if not pos.any():
        if not (k > 1.0).any():
            raise UsageError("degenerate grid: envelope vanishes everywhere")
        raise NumericalError(f"the envelope E underflows to 0 at every k > 1 of the grid: "
                             f"tau={params.tau!r}, sigma={params.sigma!r}, h={h!r}")
    kp, Tp, Ep = k[pos], T[pos], E[pos]
    with np.errstate(over="ignore"):
        lost = not (Ep.min() >= sys.float_info.min and (Tp / Ep < math.inf).all())
    if lost:    # a subnormal E has lost its digits, and T/E may overflow
        raise NumericalError(f"the envelope E (down to {Ep.min():.6g}) is below the normal floats or "
                             f"T/E leaves them: tau={params.tau!r}, sigma={params.sigma!r}, h={h!r}")
    fit = _fit_band(Ep, Tp, kp >= math.sqrt(kp.min() * kp.max()))
    A1, B1, A2, B2 = fit["B"], fit["B_tilde"], fit["A"], fit["A_tilde"]
    top_dec = kp >= kp.max() / 10.0
    band = Tp[top_dec] / Ep[top_dec]
    ratio_lo, ratio_hi = float(np.min(band)), float(np.max(band))
    slack = 1e-9 * np.maximum(1.0, np.abs(Tp))
    holds = (ratio_lo > 0
             and bool(np.all(A1 * Ep + B1 <= Tp + slack))
             and bool(np.all(Tp <= A2 * Ep + B2 + slack)))
    return SandwichReport(params, h, k, T, E, A1, B1, A2, B2, ratio_lo, ratio_hi, holds)

