"""Log-space evaluation of weight sequences p -> M_p and numerical
verification of the growth/comparison conditions they satisfy.

M_p itself is never materialized: p^(tau p^sigma) leaves double range
already around p = 15, so every quantity here is a log value.
"""

import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ._kernels import ext_log_M, ext_log_m
from .errors import DomainError, NumericalError, RangeError, UsageError

__all__ = [
    "SequenceParams",
    "LogWeightSequence",
    "extended_gevrey",
    "gevrey",
    "conjugate_generated",
    "ConditionReport",
    "check_condition",
    "check_liminf_condition",
    "lemma_quotient_bounds",
    "default_p_grid",
    "stable_sup",
]

_P_LIMIT = 10 ** 9
# the largest p_max of a check: M.1, M.3' and the quotient bounds build dense arrays
# over [1, p_max] that peak at about 73 (M.1, M.3') and 81 (the quotient bounds) bytes
# a p by tracemalloc at p_max = 1e6, about 0.8 GiB at this cap
P_MAX_CAP = 10 ** 7


class SequenceParams(NamedTuple("SequenceParams", [("tau", float), ("sigma", float)])):
    """Parameter pair (tau, sigma) of one extended Gevrey sequence."""

    __slots__ = ()

    def __new__(cls, tau, sigma):
        if not 0 < tau < math.inf:
            raise DomainError(f"tau must be {'finite' if tau > 0 else 'positive'}, got {tau}")
        if not 1 < sigma < math.inf:
            raise DomainError(f"sigma must {'be finite' if sigma > 1 else 'exceed 1'}, got {sigma}")
        return super().__new__(cls, tau, sigma)

    @classmethod
    def _make(cls, iterable):
        """Through the checks of `__new__`, so `_replace` cannot build an invalid pair."""
        return cls(*iterable)


class LogWeightSequence(NamedTuple):
    """An evaluable sequence p -> log M_p with log M_0 = 0. `params` names its parameters
    in errors. `m_fn`, where given, is p -> log m_p at float p >= 1; else log m_p is the
    difference of two `fn` values."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    params: Optional[Dict[str, float]] = None
    m_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def log_M(self, p):
        return self._values(self.fn, p, 0, "log M_p")

    def log_m(self, p):
        return self._values(self.m_fn or (lambda a: self.fn(a) - self.fn(a - 1)), p, 1, "log m_p")

    def _values(self, fn, p, least, what):
        """fn at the integers p in [least, _P_LIMIT], a float for a scalar p;
        NumericalError where a value leaves the floats."""
        scalar = np.isscalar(p)
        arr = np.asarray(p)
        if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr)):
            raise RangeError("sequence index p must be an integer")
        arr = arr.astype(np.float64)
        if arr.size and not least <= arr.min() <= arr.max() <= _P_LIMIT:
            raise RangeError(f"p must lie in [{least}, {_P_LIMIT}]")
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(arr)
        if not np.isfinite(out).all():
            at = ": " + ", ".join(f"{k}={v!r}" for k, v in self.params.items()) if self.params else ""
            raise NumericalError(f"{what} of the {self.kind} sequence leaves the floats at "
                                 f"p = {int(arr[~np.isfinite(out)].flat[0])}{at}")
        return float(out) if scalar else out


def extended_gevrey(params: SequenceParams) -> LogWeightSequence:
    """log M_p = tau * p^sigma * ln p, and its quotients log m_p without cancellation."""
    tau, sigma = params.tau, params.sigma
    return LogWeightSequence("extended_gevrey", lambda p: ext_log_M(p, tau, sigma),
                             {"tau": tau, "sigma": sigma}, lambda p: ext_log_m(p, tau, sigma))


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def gevrey(t: float) -> LogWeightSequence:
    """Classical Gevrey sequence p!^t; admitted for t > 1."""
    if not 1 < t < math.inf:
        raise DomainError(f"gevrey index must {'be finite' if t > 1 else 'exceed 1'}, got {t}")
    return LogWeightSequence("gevrey", lambda p: t * _lgamma(p + 1.0), {"t": t})


def conjugate_generated(phi_star: Callable[[np.ndarray], np.ndarray], H: float) -> LogWeightSequence:
    """log M_p = phi*(H p) / H for a Young conjugate phi*."""
    if not H > 0:
        raise DomainError(f"H must be positive, got {H}")
    return LogWeightSequence("conjugate_generated", lambda p: np.asarray(phi_star(H * p)) / H,
                             {"H": H})


# ---------------------------------------------------------------------------
# grids and the sup-stabilization criterion
# ---------------------------------------------------------------------------

_DENSE_TO = 128


def default_p_grid(p_max: int, per_decade: int = 100) -> np.ndarray:
    """Every integer up to 128, then ~per_decade log-spaced integers."""
    if p_max <= _DENSE_TO:
        return np.arange(1, p_max + 1, dtype=np.int64)
    n = max(2, int(per_decade * math.log10(p_max / _DENSE_TO)))
    sparse = np.round(np.logspace(math.log10(_DENSE_TO), math.log10(p_max), n)).astype(np.int64)
    # both parts are sorted: drop repeats by adjacent compare (np.unique
    # would import numpy.ma on its first call)
    p = np.concatenate([np.arange(1, _DENSE_TO + 1, dtype=np.int64), sparse])
    return p[np.r_[True, p[1:] != p[:-1]]]


def stable_sup(p: np.ndarray, values: np.ndarray):
    """Sup along the last axis of `values` against the 1-D `p`, plus a stability
    verdict: (float, int, bool) for 1-D values, else arrays of the leading shape.
    Stable means the sup is finite and already attained before the last decade
    of p, or the last decade adds less than 1% on top of it."""
    p = np.asarray(p)
    values = np.asarray(values, dtype=np.float64)
    i = values.argmax(axis=-1)
    sup = values[i] if values.ndim == 1 else np.take_along_axis(values, i[..., None], -1)[..., 0]
    cut = p.max() / 10
    early = p <= cut
    stable = np.isfinite(sup) & early.any()
    if early.any():
        prev = values.max(axis=-1, where=early, initial=-np.inf)
        with np.errstate(invalid="ignore"):     # inf - inf: unstable all the same
            stable &= (p[i] <= cut) | ((sup - prev) <= 0.01 * np.maximum(1.0, abs(sup)))
    if values.ndim == 1:
        return float(sup), int(p[i]), bool(stable)
    return sup, p[i], stable


def _fit_band(x: np.ndarray, y: np.ndarray, top: np.ndarray) -> Dict[str, float]:
    """Extremal affine band B x + B~ <= y <= A x + A~: slopes A, B extremal
    over y/x on the `top` mask, offsets extremal over the whole grid, so
    both bounds hold on the grid by construction."""
    r = y[top] / x[top]
    A = float(np.max(r))
    B = float(np.min(r))
    return {"A": A, "A_tilde": float(np.max(y - A * x)),
            "B": B, "B_tilde": float(np.min(y - B * x))}


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------

class ConditionReport(NamedTuple):
    condition: str
    p_range: Tuple[int, int]
    holds: bool
    fitted_constant: Optional[float] = None
    witness: Optional[int] = None

    def to_dict(self):
        return {
            "condition": self.condition,
            "p_range": list(self.p_range),
            "holds": self.holds,
            "fitted_constant": self.fitted_constant,
            "witness": self.witness,
        }


def _check_p_max(p_max, least):
    """UsageError unless least <= p_max <= P_MAX_CAP, before any array is built."""
    if not least <= p_max <= P_MAX_CAP:
        raise UsageError(f"p_max must lie in [{least}, {P_MAX_CAP}], got {p_max}")


def _require_ext(params):
    if params is None:
        raise UsageError("this condition needs extended Gevrey parameters")
    return extended_gevrey(params)


def _check_m1(params, params2, p_max):
    # M_p^2 <= M_(p-1) M_(p+1) is log m_p <= log m_(p+1): compared as the quotients
    # themselves, which do not cancel as second differences of log M_p do
    seq = _require_ext(params)
    logm = seq.log_m(np.arange(1, p_max + 2))
    bad = logm[:-1] > logm[1:]
    witness = int(np.argmax(bad)) + 1 if bad.any() else None
    return ConditionReport("M.1", (1, p_max), not bad.any(), None, witness)


def _stable_report(name, p_max, p, values, sign=1.0):
    """Report of a "there is a C" condition: `stable_sup` over each array
    of `values` in turn. The first unstable array decides the report;
    otherwise it carries sign * the largest sup. A NaN or infinite sup is
    no finite C: `stable_sup` calls it unstable."""
    worst = None
    for v in values:
        sup, arg, stable = stable_sup(p, v)
        if not stable:
            return ConditionReport(name, (1, p_max), False, sign * sup, arg)
        worst = sup if worst is None else max(worst, sup)
    return ConditionReport(name, (1, p_max), True, sign * worst, None)


def _check_m2_prime(params, params2, p_max):
    seq = _require_ext(params)
    p = default_p_grid(p_max)
    v = seq.log_m(p + 1) / p.astype(np.float64) ** params.sigma
    return _stable_report("~M.2'", p_max, p, [v])


def _check_m2_tilde(params, params2, p_max):
    seq = _require_ext(params)
    big = extended_gevrey(SequenceParams(2.0 ** (params.sigma - 1.0) * params.tau, params.sigma))
    p = default_p_grid(p_max, per_decade=30)
    pf = p.astype(np.float64)
    fsum = seq.log_M(p[:, None] + p[None, :])
    fbig = big.log_M(p)
    denom = pf[:, None] ** params.sigma + pf[None, :] ** params.sigma
    v = (fsum - fbig[:, None] - fbig[None, :]) / denom
    pmax_pair = np.maximum(p[:, None], p[None, :])
    return _stable_report("~M.2", p_max, pmax_pair.ravel(), [v.ravel()])


def _check_m2_classical(params, params2, p_max):
    # full Komatsu-style stability: M_{2p} <= C H^{2p} M_p^2 needs
    # (log M_{2p} - 2 log M_p) / (2p) to stay bounded; here it diverges.
    seq = _require_ext(params)
    p = np.arange(2, min(p_max, 100000) // 2 + 1, dtype=np.int64)
    r = (seq.log_M(2 * p) - 2.0 * seq.log_M(p)) / (2.0 * p)
    sup, arg, stable = stable_sup(p, r)
    grew = r > 10.0 * r[0]
    witness = int(p[grew][0]) if grew.any() else arg
    holds = stable and not grew.any()
    return ConditionReport("M.2-classical", (2, int(p[-1])), holds, sup, None if holds else witness)


def _check_m3_prime(params, params2, p_max):
    seq = _require_ext(params)
    p = np.arange(1, p_max + 1)
    logm = seq.log_m(p)
    partial = float(np.sum(np.exp(-logm)))
    # quotient increments grow, so the term ratio only shrinks past p_max
    ratio = math.exp(-(logm[-1] - logm[-2]))
    tail = math.exp(-float(logm[-1])) * ratio / max(1e-300, 1.0 - ratio) if ratio < 1 else math.inf
    holds = tail < 1e-15 * partial
    return ConditionReport("M.3'", (1, p_max), holds, partial, None)


# the h of the weighted conditions ~M.4, ~M.4' and ~M.5
_H_VALUES = (0.5, 1.0, 2.0)


def _h_terms(diff, p, power):
    """diff - p^power ln h for each h of _H_VALUES, one array at a time."""
    pw = p.astype(np.float64) ** power
    return (diff - pw * math.log(h) for h in _H_VALUES)


def _check_m4(params, params2, p_max):
    if params2 is None or params2.sigma != params.sigma or not params.tau < params2.tau:
        raise UsageError("~M.4 compares tau1 < tau2 at equal sigma")
    s1, s2 = _require_ext(params), _require_ext(params2)
    p = default_p_grid(p_max)
    return _stable_report("~M.4", p_max, p, _h_terms(s1.log_M(p) - s2.log_M(p), p, params.sigma))


def _check_m4_prime(params, params2, p_max):
    seq = _require_ext(params)
    p = default_p_grid(p_max)
    # -log(h^{p^sigma} M_p), whose sup is minus the inf of log(h^{p^sigma} M_p)
    return _stable_report("~M.4'", p_max, p, _h_terms(-seq.log_M(p), p, params.sigma), sign=-1.0)


def _check_m5(params, params2, p_max):
    if params2 is None or not params.sigma < params2.sigma:
        raise UsageError("~M.5 compares sigma1 < sigma2")
    s1, s2 = _require_ext(params), _require_ext(params2)
    p = default_p_grid(p_max)
    return _stable_report("~M.5", p_max, p, _h_terms(s1.log_M(p) - s2.log_M(p), p, params2.sigma))


def _check_m0(params, params2, p_max):
    seq = _require_ext(params)
    p = default_p_grid(p_max)
    pf = p.astype(np.float64)
    v = pf * np.log(pf) - seq.log_M(p)     # -log(M_p / p^p)
    return _stable_report("M.0", p_max, p, [v], sign=-1.0)


# condition key -> check(params, params2, p_max); only ~M.4 and ~M.5 read params2
_CHECKS = {"m1": _check_m1, "m2p": _check_m2_prime, "m2": _check_m2_tilde,
           "m2_classical": _check_m2_classical, "m3p": _check_m3_prime, "m4": _check_m4,
           "m4p": _check_m4_prime, "m5": _check_m5, "m0": _check_m0}


def check_condition(condition: str, params: SequenceParams, p_max: int = 10_000, *,
                    params2: Optional[SequenceParams] = None) -> ConditionReport:
    """Verify one sequence condition on [1, p_max].

    For existential "there is a C" conditions, holds=true means the
    finite sup defining log C stabilizes (see `stable_sup`); the fitted
    constant is that sup without any optimality claim. The weighted
    conditions ~M.4, ~M.4' and ~M.5 are checked at h in {0.5, 1, 2}.
    """
    _check_p_max(p_max, 3)
    key = condition.strip().lower().replace("(", "").replace(")", "").replace("~", "").replace(".", "").replace("'", "p").replace("-", "_")
    if key not in _CHECKS:
        raise UsageError(f"unknown condition identifier: {condition!r}")
    return _CHECKS[key](params, params2, p_max)


def check_liminf_condition(seq: LogWeightSequence, Q: int, p_max: int = 10_000) -> ConditionReport:
    """Tail positivity of log m_{Qp} - log m_p (quotient-ratio condition)."""
    if Q < 2:
        raise UsageError("Q must be at least 2")
    _check_p_max(p_max, 10)
    p = default_p_grid(p_max)
    p = p[p >= 2]
    r = seq.log_m(Q * p) - seq.log_m(p)
    tail = r[p > p.max() / 10]
    tail_min = float(np.min(tail))
    holds = tail_min > 0.0
    bad = r <= 0.0
    witness = int(p[bad][0]) if (not holds and bad.any()) else None
    return ConditionReport(f"liminf-Q{Q}", (2, int(p.max())), holds, tail_min, witness)


class LemmaBoundsReport(NamedTuple):
    params: SequenceParams
    p_range: Tuple[int, int]
    passed: bool
    max_lower_violation: float
    max_upper_violation: float
    witness: Optional[int] = None


def lemma_quotient_bounds(params: SequenceParams, p_min: int = 2, p_max: int = 10_000) -> LemmaBoundsReport:
    """Two-sided mean-value bounds on log m_p for the extended sequence:

        (tau p^(s-1) / 2^(s-1)) ln(e p^s / 2^s) <= log m_p <= tau p^(s-1) ln(e p^s)
    """
    if p_min < 2:
        raise RangeError("the quotient bounds need p >= 2")
    _check_p_max(p_max, p_min)
    tau, s = params.tau, params.sigma
    seq = extended_gevrey(params)
    p = np.arange(p_min, p_max + 1, dtype=np.int64)
    pf = p.astype(np.float64)
    logm = seq.log_m(p)
    lower = tau * pf ** (s - 1.0) / 2.0 ** (s - 1.0) * (1.0 + s * np.log(pf) - s * math.log(2.0))
    upper = tau * pf ** (s - 1.0) * (1.0 + s * np.log(pf))
    slack = 1e-11 * np.maximum(1.0, np.abs(logm))
    lo_viol = lower - logm
    up_viol = logm - upper
    bad = (lo_viol > slack) | (up_viol > slack)
    witness = int(p[bad][0]) if bad.any() else None
    return LemmaBoundsReport(params, (p_min, p_max), not bad.any(),
                             float(np.max(lo_viol)), float(np.max(up_viol)), witness)
