"""Weight functions and numerically computed Young conjugates, the axiom
classifier, and the closed-form check of the Lambert-type integral that
drives the main growth estimate.
"""

import math
import sys
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DivergenceError, DomainError, NumericalError
from .lambertw import lambert_w0, lambert_w0_grid
from .sequences import SequenceParams, stable_sup

__all__ = [
    "phi_sigma",
    "WeightFn",
    "bmt_log_power",
    "bmt_quotient",
    "power_weight",
    "corollary_weight",
    "lambert_weight",
    "young_conjugate",
    "ConjugateTable",
    "conjugate_table",
    "phi_sigma_conjugate",
    "AxiomReport",
    "check_weight_axioms",
    "IntegralCheckReport",
    "integral_closed_form_check",
]


def phi_sigma(sigma: float, t):
    """phi_s(t) = t^(s/(s-1)) / W(t)^(1/(s-1)), continuously 0 at t = 0.

    Evaluated as t * exp(W(t)/(s-1)), which is stable as t -> 0 because
    t/W(t) = e^(W(t)) -> 1. Where exp(W(t)/(s-1)) passes the float range
    the value is inf, for a scalar t as for an array.
    """
    if not 1 < sigma < math.inf:
        raise DomainError(f"sigma must {'be finite' if sigma > 1 else 'exceed 1'}, got {sigma}")
    if isinstance(t, float) or np.isscalar(t):
        if t < 0:
            raise DomainError(f"phi_sigma needs t >= 0, got {t}")
        e = lambert_w0(t) / (sigma - 1.0)
        try:
            return t * math.exp(e)
        except OverflowError:
            return math.inf
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise DomainError("phi_sigma needs t >= 0")
    return t * np.exp(lambert_w0_grid(t) / (sigma - 1.0))


# ---------------------------------------------------------------------------
# weight-function catalog
# ---------------------------------------------------------------------------

class WeightFn(NamedTuple):
    """An even weight candidate t -> omega(t), vectorized over |t|."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        a = np.abs(np.asarray(t, dtype=np.float64))
        out = np.asarray(self.fn(np.atleast_1d(a)))
        return float(out.reshape(-1)[0]) if a.ndim == 0 else out.reshape(a.shape)


def bmt_log_power(s: float) -> WeightFn:
    if not s > 1:
        raise DomainError("bmt_log_power needs s > 1")
    return WeightFn(f"log^{s}", lambda a: np.maximum(np.log(np.maximum(a, 1e-300)), 0.0) ** s)


def bmt_quotient(s: float) -> WeightFn:
    if not s > 1:
        raise DomainError("bmt_quotient needs s > 1")
    return WeightFn(f"t/log^{s - 1}", lambda a: a / np.log(math.e + a) ** (s - 1.0))


def power_weight(s: float) -> WeightFn:
    if not s > 0:
        raise DomainError("power_weight needs s > 0")
    return WeightFn(f"|t|^{s}", lambda a: a ** s)


def corollary_weight(s: float) -> WeightFn:
    """ln_+^s|t| / ln^(s-1)(ln(e+|t|)); zero on |t| <= 1."""
    if not s > 1:
        raise DomainError("corollary_weight needs s > 1")

    def fn(a):
        num = np.maximum(np.log(np.maximum(a, 1e-300)), 0.0) ** s
        den = np.log(np.log(math.e + a)) ** (s - 1.0)
        return np.where(a > 1.0, num / np.maximum(den, 1e-300), 0.0)

    return WeightFn(f"corollary[{s}]", fn)


def lambert_weight() -> WeightFn:
    return WeightFn("W", lambda a: lambert_w0_grid(a))


# ---------------------------------------------------------------------------
# Young conjugate by golden-section maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_T_CAP = 2.0 ** 1000     # the largest t of young_conjugate's bracket


def _golden_max(f, lo, hi, tol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    # the iteration cap guards against stalling once the interval width
    # reaches the float spacing at |b|, where c and d stop moving
    for _ in range(200):
        if b - a <= tol or not (a < c <= d < b):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def young_conjugate(phi: Callable[[float], float], y: float, *,
                    bracket_hint: Optional[float] = None, tol: float = 1e-10) -> Tuple[float, float]:
    """phi*(y) = sup_{t>0} (y t - phi(t)); returns (value, argmax t).

    The objective is concave for convex phi; the bracket doubles until
    the objective stops increasing, then golden section finishes on [0, b].
    The bracket costs two phi calls, then one per doubling: f(b/2) is the
    f(b) of the step before. Where it passes _T_CAP (or max_float / y) the
    objective is taken as unbounded: DivergenceError.
    `tol` is absolute in t (times b/1e6 once b passes 1e6), so the default
    1e-10 cannot resolve a maximiser below about 1e-10: for phi_sigma at
    sigma = 1 + 2**-52 and y = 81.79 it returns (0.0, 4.7e-11) where the
    closed form gives phi* = 4.1e-14 at t* = 6.7e-16. tol=0.0 runs golden
    section down to the float spacing and agrees with the closed form there.
    """
    if not (math.isfinite(y) and y >= 0):
        raise DomainError(f"young_conjugate needs finite y >= 0, got {y}")

    def f(t):
        return y * t - phi(t)

    # past max_float / y the term y t overflows and the comparison means nothing
    cap = min(_T_CAP, sys.float_info.max / y) if y > 0 else _T_CAP
    b = max(1.0, 2.0 * bracket_hint) if bracket_hint else 1.0
    fb, fh = f(b), f(0.5 * b)
    while fb > fh:
        b *= 2.0
        if b > cap:
            raise DivergenceError(
                f"objective still increasing at t = {cap:g}; phi*({y}) diverges",
                cap=cap)
        fh, fb = fb, f(b)     # 0.5 * b is the last b exactly
    t_star, val = _golden_max(f, 0.0, b, tol * max(1.0, b * 1e-6))
    val = max(val, 0.0)       # t -> 0+ always yields 0
    return val, t_star


class ConjugateTable(NamedTuple):
    """Monotone table (y, argmax t, phi*(y)) built with warm-started brackets."""

    y: np.ndarray
    t_star: np.ndarray
    phi_star: np.ndarray


def conjugate_table(phi: Callable[[float], float], y_values) -> ConjugateTable:
    ys = np.sort(np.asarray(y_values, dtype=np.float64))
    t_star = np.empty_like(ys)
    phi_star = np.empty_like(ys)
    hint = None
    for i, y in enumerate(ys):
        phi_star[i], t_star[i] = young_conjugate(phi, float(y), bracket_hint=hint)
        hint = max(t_star[i], 1e-6)
    return ConjugateTable(ys, t_star, phi_star)


# ---------------------------------------------------------------------------
# closed-form Young conjugate of phi_sigma
# ---------------------------------------------------------------------------

_NEWTON_MAXITER = 50
_NEWTON_RTOL = 1e-14


def phi_sigma_conjugate(sigma: float, y):
    """phi_sigma*(y) = sup_{t>=0} (y t - phi_sigma(t)) in closed form;
    returns (value, argmax t), floats for a scalar y, else arrays shaped
    like y.

    With t = w e^w, phi_sigma(t) = w e^(s w/(s-1)) and
    phi_sigma'(t) = e^(w/(s-1)) (s-1+s w) / ((s-1)(1+w)), which increases
    strictly from 1 at t = 0. So phi*(y) = 0 at t* = 0 for y <= 1. For
    y > 1 the maximiser solves phi'(t) = y, in log form
        g(w) = w/(s-1) + ln(1 + s w/(s-1)) - ln(1 + w) - ln y = 0,
    and phi*(y) = y t* - phi(t*) = w^2 e^(s w/(s-1)) / ((s-1)(1+w)).
    g is increasing and concave and the seed lies left of its root, so
    Newton's iterates rise monotonically to it. Each point stops at its own
    convergence, so an array entry equals the scalar call at that y bit for bit.
    """
    if not (sigma > 1 and math.isfinite(sigma)):
        raise DomainError(f"phi_sigma_conjugate needs finite sigma > 1, got sigma={sigma}")
    ys = np.asarray(y, dtype=np.float64)
    bad = ~(np.isfinite(ys) & (ys >= 0))
    if bad.any():
        raise DomainError(f"phi_sigma_conjugate needs finite y >= 0; sigma={sigma}, "
                          f"y={ys[bad].flat[0]}")
    s1 = sigma - 1.0
    c = sigma / s1
    pos = ys > 1.0
    lny = np.log(ys[pos])
    # g(w) < w/(s-1) + ln c - ln y, so this seed has g <= 0
    w = wa = np.maximum(s1 * (lny - math.log(c)), 0.0)
    idx = None      # indices in w of the points still stepping (wa); None while all are
    for _ in range(_NEWTON_MAXITER):
        g = wa / s1 + np.log1p(c * wa) - np.log1p(wa) - lny
        dg = 1.0 / s1 + c / (1.0 + c * wa) - 1.0 / (1.0 + wa)
        step = g / dg
        wa -= step
        done = np.abs(step) <= _NEWTON_RTOL * wa
        if idx is not None:
            w[idx] = wa
        if (n := np.count_nonzero(done)) == wa.size:
            break
        if n:
            j = np.flatnonzero(~done)
            idx = j if idx is None else idx[j]
            wa, lny = wa[j], lny[j]
    else:
        y_bad = ys[pos][0 if idx is None else idx[0]]     # the active points are the unconverged
        raise NumericalError(f"phi_sigma_conjugate: Newton did not converge in "
                             f"{_NEWTON_MAXITER} steps; sigma={sigma}, y={y_bad}")
    with np.errstate(over="ignore"):
        ew = np.exp(c * w)
        t_pos = w * np.exp(w)
        v_pos = w * w * ew / (s1 * (1.0 + w))
    ok = np.isfinite(ew) & np.isfinite(t_pos) & np.isfinite(v_pos)
    if not ok.all():
        raise NumericalError(f"phi_sigma_conjugate overflows; sigma={sigma}, "
                             f"y={ys[pos][~ok][0]}")
    value = np.zeros_like(ys)
    t_star = np.zeros_like(ys)
    value[pos] = v_pos
    t_star[pos] = t_pos
    if ys.ndim == 0:
        return float(value), float(t_star)
    return value, t_star


# ---------------------------------------------------------------------------
# weight-function axioms
# ---------------------------------------------------------------------------

class AxiomReport(NamedTuple):
    name: str
    alpha: bool
    beta: bool
    gamma: bool
    delta: bool
    details: Dict[str, float]

    @property
    def passed(self):
        return self.alpha and self.beta and self.gamma and self.delta


def check_weight_axioms(w: WeightFn) -> AxiomReport:
    """Classify omega against the four weight-function axioms.

    Doubling (alpha) and linear-growth (beta) are sup-stabilization
    checks on the top half of the grid t in [1e2, 1e14]; the log-domination
    axiom (gamma) requires the top-decade max of ln t / omega(t) to drop below
    half of the first-half max (a slowly decaying ratio needs the grid's 12
    decades); convexity (delta) checks second divided differences of omega(e^t).
    """
    t = np.logspace(2, 14, 64 * 12)
    wt = w(t)
    top = t >= math.sqrt(t.min() * t.max())
    tt, wt_top = t[top], wt[top]

    ratio_a = w(2.0 * tt) / wt_top
    sup_a, _, stable_a = stable_sup(tt, ratio_a)

    ratio_b = wt_top / tt
    sup_b, _, stable_b = stable_sup(tt, ratio_b)

    g = np.log(t) / np.maximum(wt, 1e-300)
    first_half = ~top
    top_dec = t >= t.max() / 10.0
    gamma_ok = bool(np.max(g[top_dec]) < 0.5 * np.max(g[first_half]))

    u = np.linspace(math.log(t.min()), math.log(t.max()), 1200)
    ph = w(np.exp(u))
    d2 = ph[2:] - 2.0 * ph[1:-1] + ph[:-2]
    tol = 1e-8 * np.maximum(1.0, np.abs(ph[1:-1]))
    delta_ok = bool(np.all(d2 >= -tol))
    defect = float(np.min(d2 / np.maximum(1.0, np.abs(ph[1:-1]))))

    return AxiomReport(w.name, stable_a, stable_b, gamma_ok, delta_ok,
                       {"alpha_sup": sup_a, "beta_sup": sup_b,
                        "gamma_top": float(np.max(g[top_dec])),
                        "gamma_head": float(np.max(g[first_half])),
                        "delta_defect": defect})


# ---------------------------------------------------------------------------
# closed form of the Lambert-type integral
# ---------------------------------------------------------------------------

class IntegralCheckReport(NamedTuple):
    params: SequenceParams
    C: float
    k: np.ndarray
    quadrature: np.ndarray
    closed_form: np.ndarray
    rel_err: np.ndarray
    passed: bool


def _symmetric_rule(x, w):
    """Nodes and weights on [-1, 1] from the nodes in (0, 1) and their weights."""
    return np.r_[np.negative(x[::-1]), x], np.r_[w[::-1], w]


# Gauss-Legendre nodes and weights on [-1, 1], 20 for the value and 10 for its error:
# numpy's leggauss(20) and leggauss(10) as literals, so numpy.polynomial stays unimported
_GL20 = _symmetric_rule(
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893])
_GL10 = _symmetric_rule(
    [0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717],
    [0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814])


def _panel_quadrature(f, upper, h0):
    """int_0^U f(u) du for each U in `upper`, as (values, error estimates).

    Panel edges h0 (2^j - 1) double in width, so each panel is no wider
    than its distance to u = -h0; with h0 the distance from 0 to the
    nearest singularity of f, Gauss-Legendre converges geometrically on
    every panel. The panels up to max(U) are shared; each U adds one
    partial panel. The error estimate is |20-node - 10-node|.
    """
    edges = [0.0]
    while edges[-1] < upper.max(initial=0.0):
        edges.append(h0 * (2.0 ** len(edges) - 1.0))
    edges = np.array(edges)
    j = np.searchsorted(edges, upper, side="right") - 1
    lo = np.concatenate((edges[:-1], edges[j]))
    hi = np.concatenate((edges[1:], upper))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sums = []
    for x, wts in (_GL20, _GL10):
        panel = half * (f(mid[:, None] + half[:, None] * x) @ wts)
        full = np.concatenate(([0.0], np.cumsum(panel[:edges.size - 1])))
        sums.append(full[j] + panel[edges.size - 1:])
    return sums[0], np.abs(sums[0] - sums[1])


def integral_closed_form_check(params: SequenceParams, C: float, k_grid) -> IntegralCheckReport:
    """Quadrature of the shifted-count integral versus its closed form;
    passed means they agree to 1e-6 relative at every k.

    The integral is C^(-1/tau) * int_1^k exp(W(c ln l)/(s-1)) dl/l with
    c = C^((s-1)/tau)(s-1)/tau; quadrature runs in u = ln l, the closed
    form comes from the W-substitution plus integration by parts.
    """
    if not 0.0 < C < math.inf:
        raise DomainError(f"C must be finite and positive, got {C}")
    tau, s = params.tau, params.sigma
    k = np.asarray(k_grid, dtype=np.float64)
    ok = (k > 1) & (k < math.inf)
    if not np.all(ok):
        raise DomainError(f"integral check needs finite k > 1, got k = {k[~ok][0]}")
    try:
        powers = (C ** ((s - 1.0) / tau) * (s - 1.0) / tau, C ** (-1.0 / tau), C ** (-s / tau))
    except OverflowError:
        powers = (math.inf,)
    if not all(sys.float_info.min <= v < math.inf for v in powers):
        raise NumericalError(f"a power of C leaves the normal floats: tau={tau!r}, sigma={s!r}, C={C!r}")
    c_ts, pref, post = powers

    val, err = _panel_quadrature(lambda u: np.exp(lambert_w0_grid(c_ts * u) / (s - 1.0)),
                                 np.log(k), 1.0 / (math.e * c_ts))
    bad = err > 1e-6 * np.maximum(1.0, np.abs(val))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            f"quadrature failed at k={k[i]:g}: value {val[i]:g}, error estimate {err[i]:g}")
    quads = pref * val

    # with w = W(c ln k) the antiderivative (s-1)/s e^{sw/(s-1)} (w + 1/s) rises
    # from w = 0 by (s-1)/s [expm1(sw/(s-1)) (w + 1/s) + w], free of cancellation
    w = lambert_w0_grid(c_ts * np.log(k))
    closed = post * tau / s * (np.expm1(s * w / (s - 1.0)) * (w + 1.0 / s) + w)

    rel = np.abs(quads - closed) / np.maximum(np.abs(closed), 1e-12)
    return IntegralCheckReport(params, C, k, quads, closed, rel, bool(np.all(rel <= 1e-6)))
