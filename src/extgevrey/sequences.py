"""Log-space evaluation of weight sequences p -> M_p and numerical
verification of the growth/comparison conditions they satisfy.

M_p itself is never materialized: p^(tau p^sigma) leaves double range
already around p = 15, so every quantity here is a log value.
"""

import functools
import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ._kernels import _tau_pow, ext_log_M, ext_log_m
from .errors import DomainError, NumericalError, RangeError, UsageError

__all__ = [
    "SequenceParams",
    "LogWeightSequence",
    "extended_gevrey",
    "gevrey",
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


# ---------------------------------------------------------------------------
# parameter guards: one per kind of parameter, shared by the library and the CLI
# ---------------------------------------------------------------------------

def _check_positive(name, x):
    """DomainError unless 0 < x < inf."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x}")


def _check_above_one(name, x):
    """DomainError unless 1 < x < inf, naming the bound that x misses."""
    if not 1 < x < math.inf:
        raise DomainError(f"{name} must {'be finite' if x > 1 else 'exceed 1'}, got {x}")


def _check_Q(Q, p_max, name="Q", p_name="p_max"):
    """UsageError unless Q is an integer >= 2 and the quotient-ratio check's largest index
    Q p_max is at most _P_LIMIT, before any array is built."""
    if not (Q >= 2 and Q % 1 == 0):
        raise UsageError(f"{name} must be an integer >= 2, got {Q}")
    if Q * p_max > _P_LIMIT:
        raise UsageError(f"{name} * {p_name} must be at most {_P_LIMIT}, the largest sequence index, "
                         f"got {name}={Q}, {p_name}={p_max}")


def _check_p_max(p_max, least, name="p_max"):
    """UsageError unless least <= p_max <= P_MAX_CAP, before any array is built."""
    if not least <= p_max <= P_MAX_CAP:
        raise UsageError(f"{name} must lie in [{least}, {P_MAX_CAP}], got {p_max}")


def _doubled_tau(sigma, tau=1.0):
    """2^(sigma-1) tau, the tau whose p^sigma term matches (2p)^sigma / 2 at tau;
    NumericalError naming sigma (and a tau other than 1) where it passes the floats."""
    try:
        v = 2.0 ** (sigma - 1.0) * tau
    except OverflowError:
        v = math.inf
    if v == math.inf:
        at = f"tau={tau!r}, " if tau != 1.0 else ""
        raise NumericalError(f"2^(sigma-1) tau passes the floats: {at}sigma={sigma!r}")
    return v


def _derived(what, value, name, given):
    """`value`, the parameter `what` that a check derives from the user's `name` = `given`
    (2 tau, tau/2, sigma + 1); NumericalError naming `given` where it leaves the positive
    floats or rounds back to `given`."""
    if not 0.0 < value < math.inf or value == given:
        how = f"rounds to {name}" if value == given else f"leaves the positive floats ({value!r})"
        raise NumericalError(f"{what} {how}: {name}={given!r}")
    return value


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a grid built once and shared between calls."""
    a.flags.writeable = False
    return a


class SequenceParams(NamedTuple("SequenceParams", [("tau", float), ("sigma", float)])):
    """Parameter pair (tau, sigma) of one extended Gevrey sequence."""

    __slots__ = ()

    def __new__(cls, tau, sigma):
        if not 0 < tau < math.inf:
            raise DomainError(f"tau must be {'finite' if tau > 0 else 'positive'}, got {tau}")
        _check_above_one("sigma", sigma)
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
        whole = np.issubdtype(arr.dtype, np.integer) or np.all(arr == np.floor(arr))
        arr = arr.astype(np.float64)
        if not whole or arr.size and not least <= arr.min() <= arr.max() <= _P_LIMIT:
            raise RangeError(f"sequence index p must be an integer in [{least}, {_P_LIMIT}]")
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
    _check_above_one("gevrey index", t)
    return LogWeightSequence("gevrey", lambda p: t * _lgamma(p + 1.0), {"t": t})


# ---------------------------------------------------------------------------
# grids and the sup-stabilization criterion
# ---------------------------------------------------------------------------

_DENSE_TO = 128


@functools.lru_cache(maxsize=16)
def default_p_grid(p_max: int, per_decade: int = 100) -> np.ndarray:
    """Every integer up to 128, then ~per_decade log-spaced integers. Built once per
    (p_max, per_decade) and shared between calls: read-only."""
    if p_max <= _DENSE_TO:
        return _read_only(np.arange(1, p_max + 1, dtype=np.int64))
    n = max(2, int(per_decade * math.log10(p_max / _DENSE_TO)))
    sparse = np.round(np.logspace(math.log10(_DENSE_TO), math.log10(p_max), n)).astype(np.int64)
    # both parts are sorted: drop repeats by adjacent compare (np.unique
    # would import numpy.ma on its first call)
    p = np.concatenate([np.arange(1, _DENSE_TO + 1, dtype=np.int64), sparse])
    return _read_only(p[np.r_[True, p[1:] != p[:-1]]])


def stable_sup(p: np.ndarray, values: np.ndarray):
    """Sup along the last axis of `values` against the 1-D `p`, plus a stability
    verdict: (float, int, bool) for 1-D values, else arrays of the leading shape.
    Stable means the sup is finite and already attained before the last decade
    of p, or the last decade adds less than 1% on top of it."""
    p = np.asarray(p)
    values = np.asarray(values, dtype=np.float64)
    cut = p.max() / 10
    early = p <= cut
    if values.ndim == 1:    # in floats: a NaN or infinite sup is unstable before any subtraction
        i = int(values.argmax())
        sup, arg = float(values[i]), int(p[i])
        stable = math.isfinite(sup) and early.any() and (
            arg <= cut or sup - float(values.max(where=early, initial=-np.inf))
            <= 0.01 * max(1.0, abs(sup)))
        return sup, arg, bool(stable)
    i = values.argmax(axis=-1)
    sup = np.take_along_axis(values, i[..., None], -1)[..., 0]
    stable = np.isfinite(sup) & early.any()
    if early.any():
        prev = values.max(axis=-1, where=early, initial=-np.inf)
        with np.errstate(invalid="ignore"):     # inf - inf: unstable all the same
            stable &= (p[i] <= cut) | ((sup - prev) <= 0.01 * np.maximum(1.0, abs(sup)))
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


def _check_m1(params, p_max):
    # M_p^2 <= M_(p-1) M_(p+1) is log m_p <= log m_(p+1): compared as the quotients
    # themselves, which do not cancel as second differences of log M_p do
    seq = extended_gevrey(params)
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


def _check_m2_prime(params, p_max):
    seq = extended_gevrey(params)
    p = default_p_grid(p_max)
    v = seq.log_m(p + 1) / p.astype(np.float64) ** params.sigma
    return _stable_report("~M.2'", p_max, p, [v])


def _check_m2_tilde(params, p_max):
    seq = extended_gevrey(params)
    big = extended_gevrey(SequenceParams(_doubled_tau(params.sigma, params.tau), params.sigma))
    p = default_p_grid(p_max, per_decade=30)
    # each unordered pair p <= q once: the objective is symmetric but for the order of its
    # two subtractions, so the pair takes the larger of its two orders, the sup over both
    i, j = np.triu_indices(p.size)
    fsum = seq.log_M(p[i] + p[j])
    fbig = big.log_M(p)
    fi, fj, pw = fbig[i], fbig[j], p.astype(np.float64) ** params.sigma
    v = np.maximum(fsum - fi - fj, fsum - fj - fi) / (pw[i] + pw[j])     # p[j] = max(p, q)
    return _stable_report("~M.2", p_max, p[j], [v])


def _check_m2_classical(params, p_max):
    # full Komatsu-style stability: M_{2p} <= C H^{2p} M_p^2 needs
    # (log M_{2p} - 2 log M_p) / (2p) to stay bounded; here it diverges. p = 2 .. p_max/2.
    _check_p_max(p_max, 4)
    seq = extended_gevrey(params)
    p = np.arange(2, min(p_max, 100000) // 2 + 1, dtype=np.int64)
    r = (seq.log_M(2 * p) - 2.0 * seq.log_M(p)) / (2.0 * p)
    sup, arg, stable = stable_sup(p, r)
    grew = r > 10.0 * r[0]
    witness = int(p[grew][0]) if grew.any() else arg
    holds = stable and not grew.any()
    return ConditionReport("M.2-classical", (2, int(p[-1])), holds, sup, None if holds else witness)


def _check_m3_prime(params, p_max):
    seq = extended_gevrey(params)
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


def _check_m4(params, p_max):
    tau2 = _derived("2 tau", 2.0 * params.tau, "tau", params.tau)
    s1, s2 = extended_gevrey(params), extended_gevrey(SequenceParams(tau2, params.sigma))
    p = default_p_grid(p_max)
    return _stable_report("~M.4", p_max, p, _h_terms(s1.log_M(p) - s2.log_M(p), p, params.sigma))


def _check_m4_prime(params, p_max):
    seq = extended_gevrey(params)
    p = default_p_grid(p_max)
    # -log(h^{p^sigma} M_p), whose sup is minus the inf of log(h^{p^sigma} M_p)
    return _stable_report("~M.4'", p_max, p, _h_terms(-seq.log_M(p), p, params.sigma), sign=-1.0)


def _check_m5(params, p_max):
    sigma2 = _derived("sigma + 1", params.sigma + 1.0, "sigma", params.sigma)
    s1, s2 = extended_gevrey(params), extended_gevrey(SequenceParams(params.tau, sigma2))
    p = default_p_grid(p_max)
    return _stable_report("~M.5", p_max, p, _h_terms(s1.log_M(p) - s2.log_M(p), p, sigma2))


def _check_m0(params, p_max):
    seq = extended_gevrey(params)
    p = default_p_grid(p_max)
    pf = p.astype(np.float64)
    v = pf * np.log(pf) - seq.log_M(p)     # -log(M_p / p^p)
    return _stable_report("M.0", p_max, p, [v], sign=-1.0)


# the label a report prints -> check(params, p_max)
_CHECKS = {"M.1": _check_m1, "~M.2'": _check_m2_prime, "~M.2": _check_m2_tilde,
           "M.2-classical": _check_m2_classical, "M.3'": _check_m3_prime, "~M.4": _check_m4,
           "~M.4'": _check_m4_prime, "~M.5": _check_m5, "M.0": _check_m0}


def check_condition(condition: str, params: SequenceParams, p_max: int = 10_000) -> ConditionReport:
    """Verify one sequence condition, named by its label in `_CHECKS`, on [1, p_max].

    For existential "there is a C" conditions, holds=true means the
    finite sup defining log C stabilizes (see `stable_sup`); the fitted
    constant is that sup without any optimality claim. The weighted
    conditions ~M.4, ~M.4' and ~M.5 are checked at h in {0.5, 1, 2}; ~M.4
    compares M_p with the sequence at 2 tau, ~M.5 with the one at sigma + 1.
    """
    _check_p_max(p_max, 3)
    if condition not in _CHECKS:
        raise UsageError(f"unknown condition {condition!r}: one of {', '.join(_CHECKS)}")
    if not isinstance(params, SequenceParams):
        raise UsageError("this condition needs extended Gevrey parameters")
    with np.errstate(over="ignore"):    # p^sigma may pass the floats where log M_p does not (tiny tau)
        rep = _CHECKS[condition](params, p_max)
    if not math.isfinite(rep.fitted_constant or 0.0):      # p^sigma ln h past them: no finite C
        raise NumericalError(f"the sup of {condition} is {rep.fitted_constant!r} at p = {rep.witness}, "
                             f"past the floats: tau={params.tau!r}, sigma={params.sigma!r}")
    return rep


def check_liminf_condition(seq: LogWeightSequence, Q: int, p_max: int = 10_000) -> ConditionReport:
    """Tail positivity of log m_{Qp} - log m_p (quotient-ratio condition)."""
    _check_p_max(p_max, 10)
    _check_Q(Q, p_max)
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


def lemma_quotient_bounds(params: SequenceParams, p_max: int = 10_000) -> LemmaBoundsReport:
    """Two-sided mean-value bounds on log m_p for the extended sequence at p = 2 .. p_max:

        (tau p^(s-1) / 2^(s-1)) ln(e p^s / 2^s) <= log m_p <= tau p^(s-1) ln(e p^s)
    """
    _check_p_max(p_max, 2)
    tau, s = params.tau, params.sigma
    seq = extended_gevrey(params)
    p = np.arange(2, p_max + 1, dtype=np.int64)
    pf = p.astype(np.float64)
    logm = seq.log_m(p)
    tp = _tau_pow(pf, tau, s - 1.0)
    lower = tp / _doubled_tau(s) * (1.0 + s * np.log(pf) - s * math.log(2.0))
    with np.errstate(over="ignore"):    # an upper bound past the floats holds: its violation is -inf
        upper = tp * (1.0 + s * np.log(pf))
    slack = 1e-11 * np.maximum(1.0, np.abs(logm))
    lo_viol = lower - logm
    up_viol = logm - upper
    if not up_viol.max() > -math.inf:
        raise NumericalError(f"the upper bound on log m_p leaves the floats at every p <= {p_max}: "
                             f"tau={tau!r}, sigma={s!r}")
    bad = (lo_viol > slack) | (up_viol > slack)
    witness = int(p[bad][0]) if bad.any() else None
    return LemmaBoundsReport(params, (2, p_max), not bad.any(),
                             float(np.max(lo_viol)), float(np.max(up_viol)), witness)
