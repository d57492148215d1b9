"""The function T_h(k) = sup_p ln_+ (h^{p^sigma} k^p / M_p) associated to an
extended Gevrey sequence, computed two independent ways (direct supremum
and counting-function sum), plus the Lambert-W sandwich bounds on it.
"""

import math
import sys
from typing import NamedTuple, Tuple

import numpy as np

from ._kernels import (_assoc_sup_scalar, _counting_sum_scalar, assoc_sup_grid, counting_sum_grid,
                       w0_exp_grid, w0_exp_scalar)
from .errors import DomainError, NumericalError, UsageError
from .lambertw import lambert_w0_grid
from .sequences import SequenceParams, _fit_band

_TINY = sys.float_info.min      # the smallest normal float

__all__ = [
    "AssocFnResult",
    "assoc_fn_sup",
    "assoc_fn_sup_grid",
    "assoc_fn_counting",
    "assoc_fn_counting_grid",
    "counting_fn_floor",
    "counting_fn_direct",
    "rfactor",
    "envelope",
    "sandwich_bounds_check",
    "h_shift_check",
    "SandwichReport",
    "HShiftReport",
]


class AssocFnResult(NamedTuple):
    value: float
    argmax_p: int
    method: str


def _check_positive(name, x):
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x}")


def _validate_hk(h, k):
    _check_positive("h", h)
    _check_positive("k", k)


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
        _validate_hk(h, k)
    value, p = _assoc_sup_scalar(math.log(k), math.log(h), params.tau, params.sigma)
    return AssocFnResult(float(value), int(p), "supremum")


def assoc_fn_sup_grid(params: SequenceParams, h: float, k_grid) -> Tuple[np.ndarray, np.ndarray]:
    """(T_h(k), argmax p) for every k, as arrays shaped like k_grid."""
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


def counting_fn_floor(params: SequenceParams, C: float, lam: float) -> int:
    """Closed form #{p >= 1 : C^{p^(s-1)} p^{tau p^(s-1)} <= lambda} via W.

    The bound is P = exp(W(x)/(s-1) - ln C/tau), x = C^((s-1)/tau) (s-1)/tau ln lambda,
    with W from ln x where x is large. Within the rounding error of P of an integer n,
    the defining inequality at p = n decides whether n counts; where that error
    reaches 1/2, more than one integer is in doubt and NumericalError is raised."""
    _validate_c_lam(C, lam)
    tau, s = params.tau, params.sigma
    lnC, lnlam, q = math.log(C), math.log(lam), (s - 1.0) / tau
    lx = q * lnC + math.log(q * lnlam) if lnlam > 0.0 else -math.inf
    w = w0_exp_scalar(lx)[0]
    ln_val = w / (s - 1.0) - lnC / tau
    val = math.exp(ln_val) if ln_val < 709.0 else math.inf
    # relative error of P: ~eps times the terms of ln P, w's carrying that of x = e^lx
    rel = 1e-12 + 1e-15 * ((w * (1.0 + abs(lx)) if w else 0.0) / (s - 1.0) + abs(lnC) / tau)
    if val and not rel * val < 0.5:     # a NaN count too: (s-1)/tau past the floats
        raise NumericalError(f"the count exp({ln_val:.6g}) is past what the closed form resolves: "
                             f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
    n = round(val)
    if n >= 1 and abs(val - n) <= rel * val:
        return n if n ** (s - 1.0) * (lnC + tau * math.log(n)) <= lnlam else n - 1
    return math.floor(val)


def counting_fn_direct(params: SequenceParams, C: float, lam: float) -> int:
    """The same count from its defining inequality, without W.

    g(p) = p^(s-1) (ln C + tau ln p) is negative wherever it falls, so
    {p >= 1 : g(p) <= ln lambda} is an interval [1, P]: P is found by galloping
    over powers of two, then bisecting. Raises NumericalError past p = 2**53."""
    _validate_c_lam(C, lam)
    tau, s = params.tau, params.sigma
    lnC, lnlam, e = math.log(C), math.log(lam), s - 1.0
    if lnC > lnlam:     # g(1) = ln C
        return 0
    hi = 2
    while hi ** e * (lnC + tau * math.log(hi)) <= lnlam:
        if hi >= 2 ** 53:
            raise NumericalError(f"the count passes p = 2**53, past exact integer floats: "
                                 f"tau={tau!r}, sigma={s!r}, C={C!r}, lambda={lam!r}")
        hi *= 2
    lo = hi // 2        # g(lo) <= ln lambda < g(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** e * (lnC + tau * math.log(mid)) <= lnlam:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def _r_direct(tau, s, h, ln_ek):
    """R(h, k) from the expression itself; inf where h^(-(s-1)/tau) overflows."""
    try:
        with np.errstate(over="ignore"):
            return h ** (-(s - 1.0) / tau) * math.exp((s - 1.0) / s) * (s - 1.0) / (tau * s) * ln_ek
    except OverflowError:
        return math.inf * ln_ek


def _ln_r(tau, s, h, ln_ek):
    """ln R(h, k), for where R itself leaves the float range."""
    return (-(s - 1.0) / tau * math.log(h) + (s - 1.0) / s + math.log((s - 1.0) / (tau * s))
            + np.log(ln_ek))


def rfactor(params: SequenceParams, h: float, k: float) -> float:
    """h^(-(s-1)/tau) * e^((s-1)/s) * ((s-1)/(tau s)) * ln(e + k).

    Raises NumericalError where this value is not a finite normal float."""
    _validate_hk(h, k)
    tau, s = params.tau, params.sigma
    ln_ek = math.log(math.e + k)
    r = _r_direct(tau, s, h, ln_ek)
    if _TINY <= r < math.inf:
        return r
    lr = float(_ln_r(tau, s, h, ln_ek))
    try:
        r = math.exp(lr)
    except OverflowError:
        r = math.inf
    if not _TINY <= r < math.inf:
        raise NumericalError(f"rfactor = exp({lr:.6g}) {'overflows' if lr > 0.0 else 'underflows'} "
                             f"a float: tau={tau!r}, sigma={s!r}, h={h!r}, k={k!r}")
    return r


def envelope(params: SequenceParams, h: float, k_grid) -> np.ndarray:
    """E(k) = W(R(h,k))^(-1/(s-1)) * ln_+^(s/(s-1)) k, from ln R where R leaves the normal floats.

    E is 0 for k <= 1. Where a factor overflows, or the product does not come out
    a positive float, E comes from ln E; NumericalError where E passes the largest float."""
    k = np.asarray(k_grid, dtype=np.float64)
    tau, s = params.tau, params.sigma
    ln_ek = np.log(math.e + k)
    r = _r_direct(tau, s, h, ln_ek)
    over, under = r == math.inf, r < _TINY
    mid = ~(over | under)
    w = np.empty_like(ln_ek)                    # W(R), and ln R where R underflows
    w[mid] = lambert_w0_grid(r[mid])
    w[over] = w0_exp_grid(_ln_r(tau, s, h, ln_ek[over]))     # ln R >> 1
    # W(R) = R - R^2 + ... below the normal floats: ln W = ln R - W(R) rounds to ln R
    w[under] = _ln_r(tau, s, h, ln_ek[under])
    lnk = np.log(np.maximum(k, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        wp = np.empty_like(w)                   # W(R)^(-1/(s-1))
        wp[~under] = w[~under] ** (-1.0 / (s - 1.0))
        wp[under] = np.exp(w[under] / -(s - 1.0))
        E = wp * lnk ** (s / (s - 1.0))
    E[k <= 1.0] = 0.0
    redo = (k > 1.0) & ~((E > 0.0) & (E < math.inf))
    if redo.any():
        ln_w = w[redo]
        ln_w[~under[redo]] = np.log(ln_w[~under[redo]])
        ln_e = (s * np.log(lnk[redo]) - ln_w) / (s - 1.0)
        with np.errstate(over="ignore"):
            E[redo] = np.exp(ln_e)
        if (E[redo] == math.inf).any():
            i = np.argmax(ln_e)
            raise NumericalError(f"envelope E = exp({ln_e[i]:.6g}) overflows a float: tau={tau!r}, "
                                 f"sigma={s!r}, h={h!r}, k={float(k[redo][i])!r}")
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
        raise UsageError("degenerate grid: envelope vanishes everywhere")
    kp, Tp, Ep = k[pos], T[pos], E[pos]
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


class HShiftReport(NamedTuple):
    A: float
    B: float
    holds: bool
    max_violation: float


def h_shift_check(params: SequenceParams, h: float, tau1: float, tau2: float,
                  k_grid) -> HShiftReport:
    """Additive offsets A, B with T(tau2) + A <= T_h(tau) <= T(tau1) + B
    for tau1 < tau < tau2, fitted on the grid and verified pointwise."""
    if not (0 < tau1 <= params.tau <= tau2):
        raise UsageError("need tau1 <= tau <= tau2")
    k = np.asarray(k_grid, dtype=np.float64)
    T_mid, _ = assoc_fn_sup_grid(params, h, k)
    T_lo, _ = assoc_fn_sup_grid(SequenceParams(tau2, params.sigma), 1.0, k)
    T_hi, _ = assoc_fn_sup_grid(SequenceParams(tau1, params.sigma), 1.0, k)
    A = float(np.min(T_mid - T_lo))
    B = float(np.max(T_mid - T_hi))
    viol = np.maximum(T_lo + A - T_mid, T_mid - T_hi - B)
    return HShiftReport(A, B, bool(np.all(viol <= 1e-9)), float(np.max(viol)))
