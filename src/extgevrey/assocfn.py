"""The function T_h(k) = sup_p ln_+ (h^{p^sigma} k^p / M_p) associated to an
extended Gevrey sequence, computed two independent ways (direct supremum
and counting-function sum), plus the Lambert-W sandwich bounds on it.
"""

import math
from typing import NamedTuple, Tuple

import numpy as np

from ._kernels import (_assoc_sup_scalar, _counting_sum_scalar, _ln_x_over_lnk, assoc_sup_grid,
                       counting_sum_grid, w0_exp_grid, w0_exp_scalar)
from .errors import DomainError, NumericalError, UsageError
from .sequences import SequenceParams, _fit_band

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


def _check_positive(name, x):
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x}")


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
    lnC, lnlam = math.log(C), math.log(lam)
    c = lnC / tau
    lx = math.log(lnlam) + _ln_x_over_lnk(s - 1.0, tau, 1.0, c) if lnlam > 0.0 else -math.inf
    w = w0_exp_scalar(lx)[0]
    ln_val = w / (s - 1.0) - c
    val = math.exp(ln_val) if ln_val < 709.0 else math.inf
    # relative error of P: ~eps times the terms of ln P, w's carrying that of x = e^lx
    rel = 1e-12 + 1e-15 * ((w * (1.0 + abs(lx)) if w else 0.0) / (s - 1.0) + abs(lnC) / tau)
    if val and not rel * val < 0.5:     # a NaN count too: ln C/tau past the floats
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

def envelope(params: SequenceParams, h: float, k_grid) -> np.ndarray:
    """E(k) = W(R(h,k))^(-1/(s-1)) * ln_+^(s/(s-1)) k, 0 for k <= 1, with
    R = h^(-(s-1)/tau) e^((s-1)/s) (s-1)/(tau s) ln(e+k).

    Taken as E = exp((s ln ln k - ln W(R))/(s-1)) with ln R from `_ln_x_over_lnk`, W from
    ln R, and ln W(R) = ln R - W(R) where W <= 1 (W underflows with R): no factor of R or
    E is formed, so none leaves the floats. NumericalError where E passes the largest float."""
    k = np.asarray(k_grid, dtype=np.float64)
    tau, s = params.tau, params.sigma
    E, big = np.zeros_like(k), k > 1.0
    kb, c = k[big], (tau - s * math.log(h)) / (tau * s)
    ln_r = np.log(np.log(math.e + kb)) + _ln_x_over_lnk(s - 1.0, tau, s, c)
    w = w0_exp_grid(ln_r)
    ln_w = np.log(w, out=ln_r - w, where=w > 1.0)     # ln R - W cancels where W is large
    ln_e = (s * np.log(np.log(kb)) - ln_w) / (s - 1.0)
    with np.errstate(over="ignore"):
        E[big] = np.exp(ln_e)
    if (E == math.inf).any():
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

