"""Numerical verification of the equivalence statements: the associated
function versus phi_sigma, the two-sided conjugate bound on log M_p, the
weight-matrix equivalence, and the closing corollary weight.
"""

import functools
import math
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from ._kernels import _assoc_sup_scalar, assoc_sup_grid, w0_scalar
from .conjugate import (_ln_phi_slope, check_weight_axioms, corollary_weight, phi_sigma,
                        phi_sigma_conjugate)
from .errors import DomainError, NumericalError, UsageError
from .sequences import (LogWeightSequence, SequenceParams, _check_p_max, _check_positive, _doubled_tau,
                        _fit_band, _read_only, default_p_grid, extended_gevrey, stable_sup)

__all__ = [
    "EquivalenceReport",
    "MatrixHandle",
    "default_k_grid",
    "check_T_phi_equivalence",
    "check_ocena_norme",
    "SlopeBand",
    "slope_band",
    "extended_matrix",
    "conjugate_matrix",
    "check_matrix_equivalence",
    "check_corollary",
]


class EquivalenceReport(NamedTuple):
    claim: str
    grids: str
    fitted_constants: Dict[str, float]
    holds: bool
    max_violation: float
    notes: str = ""


_K_GRID = _read_only(np.logspace(math.log10(math.e), 12.0, int(64 * math.log10(1e12 / math.e))))


def default_k_grid() -> np.ndarray:
    """64 log-spaced points a decade on [e, 1e12]: one array, shared and read-only."""
    return _K_GRID


def _fit_T_phi(params: SequenceParams, h: float, lnk: np.ndarray, phi: np.ndarray):
    """T_h on the grid and its band against phi; NumericalError where the lower slope B is 0
    (T_h is 0 on the top of the grid), as no band then bounds T_h from below."""
    T, _ = assoc_sup_grid(lnk, math.log(h), params.tau, params.sigma)
    pos = phi > 0
    x = phi[pos]
    fit = _fit_band(x, T[pos], x >= 0.5 * x.max())
    if not fit["B"] > 0:
        raise NumericalError(f"T_h(k) is 0 on the top of the k grid, so no band against phi_sigma has "
                             f"a positive slope: tau={params.tau!r}, sigma={params.sigma!r}, h={h!r}")
    return T, fit


def check_T_phi_equivalence(params: SequenceParams, h: float = 1.0) -> EquivalenceReport:
    """Fit B*phi + B~ <= T_h <= A*phi + A~ on `default_k_grid` and check that the
    fitted slopes scale like tau^(-1/(sigma-1)) under tau -> 2^(sigma-1) tau.
    NumericalError where phi_sigma(ln k) passes the floats on the grid (sigma below about 1.0035),
    and where T_h is 0 on the top of the grid (h below about 1e-12)."""
    _check_positive("h", h)
    k = default_k_grid()
    lnk = np.log(k)
    phi = phi_sigma(params.sigma, np.maximum(lnk, 0.0))    # free of tau: both fits share it
    if phi[-1] == math.inf:     # phi rises with k: a slope fitted against inf is 0
        raise NumericalError(f"phi_sigma(ln k) passes the floats on the k grid from "
                             f"k = {float(k[np.argmax(phi == math.inf)]):.6g}: sigma={params.sigma!r}")
    T, fit = _fit_T_phi(params, h, lnk, phi)

    viol_up = float(np.max(T - fit["A"] * phi - fit["A_tilde"]))
    viol_lo = float(np.max(fit["B"] * phi + fit["B_tilde"] - T))
    max_violation = max(viol_up, viol_lo)
    holds = max_violation <= 1e-8

    factor = _doubled_tau(params.sigma)
    params2 = SequenceParams(_doubled_tau(params.sigma, params.tau), params.sigma)
    _, fit2 = _fit_T_phi(params2, h, lnk, phi)
    expected = factor ** (1.0 / (params.sigma - 1.0))      # = 2
    ratio_A = fit["A"] / fit2["A"]
    ratio_B = fit["B"] / fit2["B"]
    fitted = dict(fit, scaling_ratio_A=ratio_A, scaling_ratio_B=ratio_B, scaling_expected=expected)
    scale_ok = (expected / 2.0 <= ratio_A <= expected * 2.0
                and expected / 2.0 <= ratio_B <= expected * 2.0)
    holds = holds and scale_ok
    notes = "" if scale_ok else "fitted slope ratio outside the tau-scaling band"
    return EquivalenceReport(
        "T-phi-equivalence",
        f"k log grid [{k.min():.3g}, {k.max():.3g}] x {k.size}",
        fitted, holds, max_violation, notes)


def _fit_slopes_extended(sigma: float, tau: float, p_max: int) -> Tuple[float, float, float]:
    """Ratio band of T(e^t)/phi_sigma(t) on a t-window wide enough that the
    conjugate maximizers for y up to p_max/b stay inside it.

    The window t_max doubles from 4000 until t*(p_max/b) <= 0.8 t_max. A window
    that `_window_must_fail` rules out is skipped unevaluated; every window that
    is evaluated runs in full, so (a, b, t_max) and any error are those of the
    full doubling. NumericalError where b = 0: phi_sigma passes the floats on the
    window (or T/phi_sigma underflows), so the band has no index H1 = 1/b."""
    t_max = 4000.0
    while True:
        t = _slope_window(t_max)
        if not _window_must_fail(sigma, tau, p_max, float(t[-1]), t_max):
            T, _ = assoc_sup_grid(t, 0.0, tau, sigma)
            c = T / phi_sigma(sigma, t)
            b, a = float(np.min(c)), float(np.max(c))
            if not b > 0.0:
                raise NumericalError(f"min T(e^t)/phi_sigma(t) on the slope window t <= {t_max:g} is {b!r}, "
                                     f"so there is no H1 = 1/b: tau={tau!r}, sigma={sigma!r}")
            if not _t_star_past(sigma, p_max / b, 0.8 * t_max):
                return a, b, t_max
        t_max *= 2.0


@functools.lru_cache(maxsize=32)
def _slope_window(t_max):
    """1200 log-spaced t on [1, t_max], built once per window and shared: read-only."""
    return _read_only(np.logspace(0.0, math.log10(t_max), 1200))


def _t_star_past(sigma, y, t0):
    """t* > t0 for the argmax t* of y t - phi_sigma(t): ln y > ln phi_sigma'(t0) where 1 < y <=
    e^(650/sigma), phi_sigma' rising from 1; elsewhere the Newton call decides, with its errors."""
    if 1.0 < y <= math.exp(650.0 / sigma):
        return math.log(y) > _ln_phi_slope(w0_scalar(t0)[0], sigma - 1.0)
    return phi_sigma_conjugate(sigma, y)[1] > t0


def _window_must_fail(sigma, tau, p_max, t_last, t_max):
    """True where the window ending at t_last cannot pass the test of
    `_fit_slopes_extended`: b = min c over the window is at most c(t_last), so
    t*(p_max/b) >= t*(y), y = p_max/c(t_last), here past t0 = 0.8 t_max with a 1e-9
    margin for the rounding between the scalar and grid paths. False where c(t_last)
    is not positive or a step raises: the window then runs, and raises as it would."""
    try:
        T_last, _ = _assoc_sup_scalar(t_last, 0.0, tau, sigma)
        c_last = T_last / phi_sigma(sigma, t_last)
        return c_last > 0.0 and _t_star_past(sigma, p_max / c_last, 0.8 * t_max * (1.0 + 1e-9))
    except (NumericalError, DomainError):
        return False


class SlopeBand(NamedTuple):
    """a >= T(e^t)/phi_sigma(t) >= b on t in [1, t_max], and the conjugate
    indices H1 = 1/b, H2 = 1/a of the two-sided bound on log M_p."""
    a: float
    b: float
    t_max: float
    H1: float
    H2: float


def slope_band(sigma: float, tau: float, p_max: int = 1000) -> SlopeBand:
    """The slope band of `check_ocena_norme` and its conjugate indices H1, H2,
    without the p-side checks."""
    SequenceParams(tau, sigma)
    _check_p_max(p_max, 1)
    a, b, t_max = _fit_slopes_extended(sigma, tau, p_max)
    return SlopeBand(a, b, t_max, 1.0 / b, 1.0 / a)


def check_ocena_norme(sigma: float, tau: float, p_max: int = 1000) -> EquivalenceReport:
    """Two-sided conjugate bound on log M_p.

    With slopes a >= c(t) >= b fitted on a covering window, sets
    H1 = 1/b, H2 = 1/a and verifies that
    sup_p [log M_p - phi*(H1 p)/H1]  and  sup_p [phi*(H2 p)/H2 - log M_p]
    are finite and stable on [1, p_max]; the drift is read on p <= p_max/10, so p_max >= 10.
    """
    params = SequenceParams(tau, sigma)
    _check_p_max(p_max, 10)
    a, b, t_max, H1, H2 = slope_band(sigma, tau, p_max)
    A_sigma = a * (tau / _doubled_tau(sigma)) ** (1.0 / (sigma - 1.0))
    B_sigma = b * tau ** (1.0 / (sigma - 1.0))

    seq = extended_gevrey(params)
    p = default_p_grid(p_max)
    pf = p.astype(np.float64)
    logM = seq.log_M(p)
    logN1, logN2 = conjugate_matrix(sigma, (H1, H2)).table(p)

    v1 = logM - logN1
    v2 = logN2 - logM
    logC1, arg1, stable1 = stable_sup(p, v1)
    logC2, arg2, stable2 = stable_sup(p, v2)
    # matrix-relation constants: per-p exponent of the C^p comparison
    lesssim_MN = float(np.max(v1 / pf))
    lesssim_NM = float(np.max(v2 / pf))

    holds = stable1 and stable2
    drift1 = logC1 - float(np.max(v1[p <= p.max() / 10]))
    drift2 = logC2 - float(np.max(v2[p <= p.max() / 10]))
    return EquivalenceReport(
        "ocena-norme",
        f"p in [1, {p_max}], slope window t <= {t_max:g}",
        {"A_sigma": A_sigma, "B_sigma": B_sigma, "H1": H1, "H2": H2,
         "logC1": logC1, "logC2": logC2,
         "lesssim_M_N": lesssim_MN, "lesssim_N_M": lesssim_NM},
        holds, max(drift1, drift2),
        "" if holds else f"sup unstable at p={arg1 if not stable1 else arg2}")


# ---------------------------------------------------------------------------
# weight matrices
# ---------------------------------------------------------------------------

class MatrixHandle(NamedTuple):
    """A weight matrix: `table(p)` is the (members x p) array of log M_p, one row per
    index in `indices` order."""
    family: str
    sigma: float
    indices: Tuple[float, ...]
    table: Callable[[np.ndarray], np.ndarray]


def extended_matrix(sigma: float, taus) -> MatrixHandle:
    seqs = [extended_gevrey(SequenceParams(tau, sigma)) for tau in taus]
    return MatrixHandle("M_sigma", sigma, tuple(taus), lambda p: np.array([seq.log_M(p) for seq in seqs]))


def conjugate_matrix(sigma: float, Hs) -> MatrixHandle:
    """N_sigma: log N^H_p = phi_sigma*(H p) / H, one member per H. The table raises
    NumericalError, naming sigma and H, where H p leaves the floats."""
    Hs = tuple(Hs)
    for H in Hs:
        _check_positive("H", H)

    def table(p):
        pm = float(np.max(p, initial=0))
        if big := [H for H in Hs if not float(H) * pm < math.inf]:
            raise NumericalError(f"H p leaves the floats at p = {pm:g}: sigma={sigma!r}, H={big[0]!r}")
        # every member's phi*(H p) in one call: an entry of it does not depend on the other points,
        # so each row, checked as its member's log_M, is phi*(H p) / H taken alone bit for bit
        stars = phi_sigma_conjugate(sigma, np.multiply.outer(Hs, np.asarray(p, dtype=np.float64)))[0]
        return np.array([LogWeightSequence("conjugate_generated", lambda _, v=v, H=H: v / H,
                                           {"H": H}).log_M(p) for H, v in zip(Hs, stars)])

    return MatrixHandle("N_sigma", sigma, Hs, table)


def check_matrix_equivalence(A: MatrixHandle, B: MatrixHandle,
                             p_max: int = 1000) -> EquivalenceReport:
    """Sandwich every member of the probe family A between two members of B.

    For each index a the check finds b_up with log A^a_p <= p log C + log B^b_p
    and b_dn with log B^b_p <= p log C + log A^a_p, the "there is a C" clause
    operationalized by sup-stabilization of the per-p exponent. Swapping the
    handles probes the other family; holds=true means every probe index is
    bracketed within the reservoir grid.
    """
    _check_p_max(p_max, 10)     # stable_sup reads the drift on p <= p_max/10
    if A.sigma != B.sigma:
        raise UsageError("matrix handles must share sigma")
    if not A.indices or not B.indices:
        raise UsageError("matrix index grids must be non-empty")
    p = default_p_grid(p_max)
    pf = p.astype(np.float64)
    diff = A.table(p)[:, None] - B.table(p)     # (|A|, |B|, p)

    fitted: Dict[str, float] = {}
    notes = []
    holds = True
    worst = -math.inf
    for direction, sign in (("<=", 1.0), (">=", -1.0)):
        sups, _, stables = stable_sup(p, sign * diff / pf)
        for ia, row_sup, row_stable in zip(A.indices, sups.tolist(), stables.tolist()):
            best = None
            for ib, sup, stable in zip(B.indices, row_sup, row_stable):
                # tightest admissible partner: smallest |log C| (self-match
                # inside the same family then yields log C = 0 exactly)
                if stable and (best is None or abs(sup) < abs(best[1])
                               or (abs(sup) == abs(best[1]) and ib == ia)):
                    best = (ib, sup)
            if best is None:
                holds = False
                notes.append(
                    f"no {B.family} member {'dominating' if sign > 0 else 'dominated by'} "
                    f"index {ia:g} of {A.family}")
            else:
                fitted[f"{A.family}:{ia:g}{direction}{B.family}:{best[0]:g}"] = best[1]
                worst = max(worst, best[1])
    return EquivalenceReport(
        "matrix-equivalence",
        f"p in [1, {p_max}]; probe {A.family}{list(A.indices)} vs reservoir {B.family}{list(B.indices)}",
        fitted, holds, worst if math.isfinite(worst) else 0.0, "; ".join(notes))


_COROLLARY_T = _read_only(np.logspace(3, 12, 600))


def check_corollary(s: float) -> EquivalenceReport:
    """Ratio band of the corollary weight against phi_s(ln_+ t) on 600 log-spaced
    t in [1e3, 1e12], plus the axiom classification of the corollary weight itself.
    NumericalError where either passes the floats on the grid (s near 1, or large),
    as the band then has a slope 0 or inf."""
    w = corollary_weight(s)     # checks s before any work
    t = _COROLLARY_T
    with np.errstate(over="ignore", invalid="ignore"):  # ln^s t past the floats: the check below names s
        num = w(t)
    den = phi_sigma(s, np.maximum(np.log(t), 0.0))
    finite = np.isfinite(num) & np.isfinite(den)
    if not finite.all():
        raise NumericalError(f"the corollary weight or phi_s(ln t) passes the floats on the t grid "
                             f"from t = {t[~finite][0]:.6g}: s={s!r}")
    pos = den > 0
    tp = t[pos]
    band = _fit_band(den[pos], num[pos], tp >= math.sqrt(tp.min() * tp.max()))
    c1, c2 = band["B"], band["A"]
    axioms = check_weight_axioms(w)
    band_ok = c1 > 0 and np.isfinite(c2)
    holds = band_ok and axioms.alpha and axioms.beta and axioms.gamma
    return EquivalenceReport(
        "corollary",
        f"t log grid [{t.min():.3g}, {t.max():.3g}] x {t.size}",
        {"c1": c1, "c2": c2, "band": c2 / c1,
         "axiom_alpha": float(axioms.alpha), "axiom_beta": float(axioms.beta),
         "axiom_gamma": float(axioms.gamma), "axiom_delta": float(axioms.delta)},
        holds, 0.0 if holds else c2 / c1,
        "delta checked within divided-difference tolerance")
