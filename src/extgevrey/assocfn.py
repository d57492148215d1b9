"""The function T_h(k) = sup_p ln_+ (h^{p^sigma} k^p / M_p) associated to an
extended Gevrey sequence, computed two independent ways (direct supremum
and counting-function sum), plus the Lambert-W sandwich bounds on it.
"""

import math
import sys
from typing import NamedTuple, Tuple

import numpy as np

from ._kernels import (_assoc_sup_scalar, _counting_sum_scalar, _ln_x_over_lnk, assoc_sup_grid,
                       counting_sum_grid, w0_exp_grid, w0_exp_scalar)
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

def _validate_c_lam(C, lam):
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _check_positive("C", C)
        raise DomainError(f"lambda must be finite and >= 1, got {lam}")


def counting_fn_floor(params: SequenceParams, C, lam):
    """Closed form #{p >= 1 : C^{p^(s-1)} p^{tau p^(s-1)} <= lambda} via W.

    The bound is P = exp(W(x)/(s-1) - ln C/tau), x = C^((s-1)/tau) (s-1)/tau ln lambda,
    with W from ln x where x is large. Within the rounding error of P of an integer n,
    the defining inequality at p = n decides whether n counts; where that error
    reaches 1/2, more than one integer is in doubt and NumericalError is raised.

    C and lambda may be arrays, which broadcast: the counts come back as an int64 array
    with one W call for all of them, each entry equal to the scalar call at its point,
    and an error is the scalar call's at the first failing point in C order. A float C
    and lambda take the scalar path in `math` after two isinstance tests."""
    if isinstance(lam, float) and isinstance(C, float) or np.ndim(C) == np.ndim(lam) == 0:
        return _floor_scalar(params.tau, params.sigma, C, lam)
    return _counts_grid(_floor_grid, _floor_scalar, params, C, lam)


def _floor_scalar(tau, s, C, lam):
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _validate_c_lam(C, lam)
    if not C <= lam:    # g(1) = ln C > ln lambda, on the floats: no p counts, whatever W resolves
        return 0
    lnC, lnlam = math.log(C), math.log(lam)
    c = lnC / tau
    lx = math.log(lnlam) + _ln_x_over_lnk(s - 1.0, tau, 1.0, c) if lnlam > 0.0 else -math.inf
    w = w0_exp_scalar(lx)[0]
    ln_val = w / (s - 1.0) - c
    val = math.exp(ln_val) if ln_val < 709.0 else math.inf
    # relative error of P: ~eps times the terms of ln P, w's carrying that of x = e^lx
    # damped by W's conditioning 1/(1 + w)
    rel = 1e-12 + 1e-15 * ((w * (1.0 + abs(lx)) / (1.0 + w) if w else 0.0) / (s - 1.0) + abs(lnC) / tau)
    if not (rel * val < 0.5 and rel < 0.5):     # a NaN count, or a 0 that exp underflowed to
        raise NumericalError(f"the count exp({ln_val:.6g}) is past what the closed form resolves: "
                             f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
    n = round(val)
    if n >= 1 and abs(val - n) <= rel * val:
        if tau < 2.0 ** -960:   # tau ln n would be subnormal: scale g and ln lambda by 2^600, exactly
            tau, lnC, lnlam = tau * 2.0 ** 600, lnC * 2.0 ** 600, lnlam * 2.0 ** 600
        return n if _fits(n, s - 1.0, lnC, tau, lnlam) else n - 1
    return math.floor(val)


def _fits(p, e, lnC, tau, lnlam):
    """g(p) = p^e (ln C + tau ln p) <= ln lambda, through `_fits_past_floats` where p^e overflows."""
    try:
        return p ** e * (lnC + tau * math.log(p)) <= lnlam
    except OverflowError:
        return _fits_past_floats(p, e, lnC, tau, lnlam)


def _fits_past_floats(p, e, lnC, tau, lnlam):
    """g(p) <= ln lambda where p^e overflows: q f q with q = p^(e/2), f = ln C + tau ln p
    (normal: the callers scale a tau below 2^-960); if q overflows, g > 710 unless f <= 0."""
    lnp = math.log(p)
    f = lnC + tau * lnp
    try:
        q = p ** (0.5 * e)
    except OverflowError:
        return f <= 0.0
    return q * f * q <= lnlam


def counting_fn_direct(params: SequenceParams, C, lam):
    """The same count from its defining inequality, without W.

    g(p) = p^(s-1) (ln C + tau ln p) is negative wherever it falls, so
    {p >= 1 : g(p) <= ln lambda} is an interval [1, P]: P is found by one loop that
    gallops over powers of two, then bisects. Raises NumericalError past p = 2**53.

    C and lambda may be arrays, as for `counting_fn_floor`: one such loop then runs
    over every point at once, each pass probing every point still open."""
    if isinstance(lam, float) and isinstance(C, float) or np.ndim(C) == np.ndim(lam) == 0:
        return _direct_scalar(params.tau, params.sigma, C, lam)
    return _counts_grid(_direct_grid, _direct_scalar, params, C, lam)


def _direct_scalar(tau, s, C, lam):
    if not (0.0 < C < math.inf and 1.0 <= lam < math.inf):
        _validate_c_lam(C, lam)
    if not C <= lam:    # g(1) = ln C > ln lambda, on the floats
        return 0
    log = math.log
    lnC, lnlam, e = log(C), log(lam), s - 1.0
    t = tau     # the tau of g; errors name the user's
    if tau < 2.0 ** -960:   # tau ln p would be subnormal: scale g and ln lambda by 2^600, exactly
        t, lnC, lnlam = tau * 2.0 ** 600, lnC * 2.0 ** 600, lnlam * 2.0 ** 600
    lo, hi, p = 1, 0, 2     # g(lo) <= ln lambda; hi = 0 while galloping, then g(hi) > ln lambda
    while p != lo:      # `_fits`, inline: a call per probe made a count 14% slower
        try:
            fits = p ** e * (lnC + t * log(p)) <= lnlam
        except OverflowError:
            fits = _fits_past_floats(p, e, lnC, t, lnlam)
        if not fits:
            hi = p
        elif p >= 2 ** 53:
            raise NumericalError(f"the count passes p = 2**53, past exact integer floats: "
                                 f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
        else:
            lo = p
        p = (lo + hi) // 2 if hi else 2 * p
    return lo


# -- the array paths -----------------------------------------------------------
#
# Each decides every point as its scalar route does, in numpy, g(1) on the floats as
# C <= lambda. numpy's log, pow and exp may differ from math's by an ulp (pow and exp do
# at about 5% of arguments here), and the grid W from the scalar W by a few, so a point
# whose decision lies within a bound on those differences of its threshold, or that
# raises, is handed to the scalar route; so is a closed-form P near an integer.

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


def _fits_grid(p, e, tau, lnC, lnlam):
    """(g(p) <= ln lambda, in doubt) at the float integers p >= 1, e = s - 1: in doubt where
    g is within 1e-14 of its terms (plus a few subnormal units of tau ln p) of ln lambda, or
    p^e nears the largest float, where the scalar test may decide otherwise or take its
    overflow branch."""
    with np.errstate(over="ignore", invalid="ignore"):
        pe, t = p ** e, tau * np.log(p)
        g = pe * (lnC + t)
        doubt = (pe >= 1e300) | (np.abs(g - lnlam) <= pe * (1e-14 * (np.abs(lnC) + t) + 2e-323))
    return g <= lnlam, doubt


def _floor_grid(tau, s, lnC, lnlam):
    s1 = s - 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = lnC / tau
        lx = np.log(lnlam) + _ln_x_over_lnk(s1, tau, 1.0, c)
        fin = lx < math.inf         # ln C/tau past the floats: the scalar route raises
        w = w0_exp_grid(np.where(fin, lx, 0.0))
        ln_val = w / s1 - c
        val = np.where(ln_val < 709.0, np.exp(np.minimum(ln_val, 709.0)), math.inf)
        wl = np.multiply(w, 1.0 + np.abs(lx), out=np.zeros_like(w), where=w != 0.0)
        rel = 1e-12 + 1e-15 * (wl / (1.0 + w) / s1 + np.abs(lnC) / tau)
        rel_val = rel * val
        n = np.rint(val)
        # a bound on val's difference from the scalar route's: w's relative one, amplified
        # by ln P = w/(s-1) - c, plus the roundings of c, ln P and exp; within it of the
        # resolution, or within rel P of an integer n >= 1, the scalar route decides
        slack = 4e-14 * (1.0 + np.abs(w) / s1 + np.abs(c)) * val
        doubt = (~fin | ~(rel_val < 0.5) | ~(rel < 0.4999) | (np.abs(rel_val - 0.5) <= slack)
                 | ((n >= 1.0) & (np.abs(val - n) <= rel_val + slack)))
    return np.floor(np.where(doubt, 0.0, val)).astype(np.int64), doubt


def _direct_grid(tau, s, lnC, lnlam):
    # `_direct_scalar`'s loop, each pass probing every open point once: at 2 lo while it
    # gallops (hi = 0), then at the midpoint of g(lo) <= ln lambda < g(hi); up to 2**53.
    # The open points are kept packed, and leave once decided or in doubt.
    counts, doubt = np.ones(lnC.size, dtype=np.int64), np.zeros(lnC.size, dtype=bool)
    act, lo, hi, p = np.arange(lnC.size), counts.copy(), np.zeros_like(counts), np.full_like(counts, 2)
    while act.size:
        fit, dbt = _fits_grid(p.astype(np.float64), s - 1.0, tau, lnC, lnlam)
        dbt |= fit & (p >= 2 ** 53)
        lo, hi = np.where(fit, p, lo), np.where(fit, hi, p)
        p = np.where(hi > 0, (lo + hi) // 2, 2 * lo)
        done = (p == lo) | dbt
        if done.any():
            counts[act[done]], doubt[act[dbt]] = lo[done], True
            keep = ~done
            act, lo, hi, p, lnC, lnlam = act[keep], lo[keep], hi[keep], p[keep], lnC[keep], lnlam[keep]
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

