"""The three benchmark workloads: seeded inputs, the timed operation, the
output checks, and the CLI command each one runs as a subprocess.

Each workload is a closed loop with one caller that repeats a round: one
full verify pass, one grid batch, or one pass over the whole seeded
scalar mix. A round is a list of units of timed calls; the calls of a
unit are checked together, and each unit belongs to one call kind.
"""

import json
import math
import os

import numpy as np

import extgevrey as E
from extgevrey import cli
# bound before a traced run rebinds the public names, so checks made with
# it stay out of the trace
from extgevrey.assocfn import assoc_fn_sup as _scalar_sup

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "verify_default.json")

# (tau, sigma, h) cases of the grid workload: h = 1 puts every point on the
# per-point ternary tail of the sup kernel, large h gives a wide head scan,
# small sigma a large scan cap
GRID_CASES = [(1.0, 2.0, 1.0), (0.5, 1.5, 1.0), (1.0, 1.3, 1.0), (2.0, 3.0, 1.0),
              (1.0, 2.0, math.e ** 2), (0.5, 1.5, math.e ** 3)]

SUP_COUNTING_RTOL = 1e-9      # the tolerance of the sup-vs-counting claim
W_LOG_RTOL = 1e-10            # w + ln w = ln x, relative to max(1, |ln x|)
CONJ_RTOL = 1e-9              # phi*(y) = y t* - phi(t*)
SUP_ARGMAX_RTOL = 1e-12       # T = objective(argmax), relative to its largest term
GRID_SUBSAMPLE = 32           # grid points per case compared with assoc_fn_sup
# probe points of the conjugate check: they bracket t* for every y <= 300
CONJ_PROBES = [10.0 ** e for e in range(-2, 5)]


def stratified_log(rng, lo_exp, hi_exp, n):
    """n seeded points log-uniform in [10^lo, 10^hi], one per equal stratum,
    so two seeds give samples with almost the same distribution."""
    u = (np.arange(n) + rng.random(n)) / n
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * rng.permutation(u))


def rel_gap(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def w_identity_ok(x, w):
    """w = W(x) through w + ln w = ln x (w e^w = x for x = 0)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        return False
    pos = x > 0
    if np.any(w[~pos] != 0.0) or np.any(w[pos] <= 0.0):
        return False
    lx = np.log(x[pos])
    return bool(np.all(np.abs(w[pos] + np.log(w[pos]) - lx) <= W_LOG_RTOL * np.maximum(1.0, np.abs(lx))))


def w_scalar_ok(x, w):
    """w_identity_ok for one point, without numpy."""
    if x == 0.0:
        return w == 0.0
    if not (math.isfinite(w) and w > 0.0):
        return False
    lx = math.log(x)
    return abs(w + math.log(w) - lx) <= W_LOG_RTOL * max(1.0, abs(lx))


def w_reference(x):
    """W(x) for x >= 0 by Newton's method on w + ln w = ln x, independent of
    the library (and not traced), for checking conjugate values."""
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    w = math.log1p(x)
    for _ in range(100):
        step = (w + math.log(w) - lx) / (1.0 + 1.0 / w)
        w = max(w - step, 0.5 * w)
        if abs(step) <= 1e-16 * w:
            break
    return w


def phi_reference(sigma, t):
    """phi_sigma(t) = t exp(W(t) / (sigma - 1))."""
    return t * math.exp(w_reference(t) / (sigma - 1.0))


def conjugate_ok(sigma, y, v, t):
    """(v, t) is phi_sigma*(y) with its maximiser: v = max(y t - phi(t), 0),
    and no probe t' (t(1 -+ 1e-3), t/2, 2t and CONJ_PROBES) does better,
    with phi from phi_reference."""
    if not (math.isfinite(v) and math.isfinite(t) and v >= 0.0 and t >= 0.0):
        return False
    tol = CONJ_RTOL * max(1.0, abs(v))

    def f(s):
        return y * s - phi_reference(sigma, s)

    if abs(v - max(f(t), 0.0)) > tol:
        return False
    return all(f(s) <= v + tol for s in [t * (1 - 1e-3), t * (1 + 1e-3), 0.5 * t, 2.0 * t]
               + CONJ_PROBES)


def sup_objective(params, h, k, p):
    """(objective, size of its largest term) of T_h(k) = sup_p objective at
    integer p >= 0: p^sigma ln h + p ln k - tau p^sigma ln p, 0 at p = 0.
    Works on numpy arrays and on floats."""
    p = np.asarray(p, dtype=np.float64)
    pw = p ** params.sigma
    lnp = np.log(np.maximum(p, 1.0))
    terms = (pw * math.log(h), p * np.log(k), -params.tau * pw * lnp)
    return terms[0] + terms[1] + terms[2], np.maximum.reduce([np.abs(x) for x in terms])


def sup_argmax_ok(params, h, k, T, argmax):
    """T is the objective at argmax and no smaller than at argmax -+ 1 (the
    objective is 0 at p = 0, so argmax = 0 needs T = 0 >= objective(1))."""
    T = np.asarray(T, dtype=np.float64)
    argmax = np.asarray(argmax)
    if not (np.all(np.isfinite(T)) and np.all(T >= 0) and np.all(argmax >= 0)):
        return False
    g, size = sup_objective(params, h, k, argmax)
    if not np.all(np.abs(T - g) <= SUP_ARGMAX_RTOL * np.maximum(1.0, size)):
        return False
    for q in (np.maximum(argmax - 1, 0), argmax + 1):
        gq, size_q = sup_objective(params, h, k, q)
        if not np.all(gq <= T + SUP_ARGMAX_RTOL * np.maximum(1.0, size_q)):
            return False
    return True


def close(a, b, rtol, atol):
    """Structural equality of two JSON values, numbers within tolerance."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol, atol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol, atol) for x, y in zip(a, b))
    return False


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    return {h: np.array([float(v) for v in col]) for h, col in zip(header, cols)}


class Workload:
    """Base: subclasses set `name` and implement the hooks below.

    `units` is one round of the workload: a list of units, each a tuple of
    (function, args) calls that are timed one by one and then checked
    together by `check_unit`. `unit_kind[i]` is the index in `kinds` of the
    call kind of unit i. A function given by name is looked up in the
    extgevrey package at call time, so a traced run sees the traced
    binding. By default a round is the single call `op()`.
    """

    name = ""

    def __init__(self, seed, tiny, outdir):
        self.seed = seed
        self.tiny = tiny
        self.outdir = outdir
        self.rng = np.random.default_rng(seed)
        self.units = [((self.op, ()),)]
        self.kinds = [self.name]
        self.unit_kind = [0]

    def op(self):
        """Run one timed operation and return its output."""
        raise NotImplementedError

    def check(self, out):
        """True when the output of one op is correct."""
        raise NotImplementedError

    def check_unit(self, unit, results):
        return self.check(results[0])

    @staticmethod
    def resolve(fn):
        return getattr(E, fn) if isinstance(fn, str) else fn

    def cli_argv(self):
        """Arguments after `python -m extgevrey.cli`; output goes to cli_out."""
        raise NotImplementedError

    def check_cli(self):
        raise NotImplementedError

    @property
    def cli_out(self):
        return os.path.join(self.outdir, f"cli-{self.name}.out")


class Verify(Workload):
    """The 21-claim report at default parameters, the report users run.

    Its inputs are the library defaults, so the seed changes nothing here.
    """

    name = "verify"

    def __init__(self, seed, tiny, outdir):
        super().__init__(seed, tiny, outdir)
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        self.reference = ref["report"]
        self.rtol, self.atol = ref["tolerance"]["rtol"], ref["tolerance"]["atol"]
        self.first = None
        self.out = os.path.join(outdir, "verify.json")

    def op(self):
        rc = cli.main(["verify", "--output", self.out])
        with open(self.out, "rb") as fh:
            return rc, fh.read()

    def _report_ok(self, rc, data):
        try:
            doc = json.loads(data)
        except ValueError:
            return False
        return (rc == 0 and doc.get("passed") is True
                and close(doc, self.reference, self.rtol, self.atol))

    def check(self, out):
        rc, data = out
        if self.first is None:
            if not self._report_ok(rc, data):
                return False
            self.first = data
            return True
        # every pass of one process must be byte-identical to the first
        return rc == 0 and data == self.first

    def cli_argv(self):
        return ["verify", "--output", self.cli_out]

    def check_cli(self):
        with open(self.cli_out, "rb") as fh:
            data = fh.read()
        if self.first is not None:
            return data == self.first
        return self._report_ok(0, data)


class Grid(Workload):
    """Seeded vectorised calls across the regimes of the _kernels module."""

    name = "grid"

    def __init__(self, seed, tiny, outdir):
        super().__init__(seed, tiny, outdir)
        scale = 0.02 if tiny else 1.0
        rng = self.rng
        self.x = stratified_log(rng, -6.0, 300.0, int(200_000 * scale))
        self.k = stratified_log(rng, 0.0, 10.0, int(4_000 * scale))
        self.t = stratified_log(rng, -3.0, 6.0, int(100_000 * scale))
        self.cases = [(E.SequenceParams(tau, s), h) for tau, s, h in GRID_CASES]
        # the points compared with the scalar assoc_fn_sup, a separate code path
        self.sub = rng.choice(self.k.size, min(self.k.size, GRID_SUBSAMPLE), replace=False)
        # the CLI table: the first case on a seeded grid of ~4k points
        self.cli_kmax = 10.0 ** (10.0 + 0.1 * rng.random())

    def op(self):
        w = E.lambert_w0_grid(self.x)
        sups, counts = [], []
        for params, h in self.cases:
            sups.append(E.assoc_fn_sup_grid(params, h, self.k))
            if h == 1.0:
                counts.append(E.assoc_fn_counting_grid(params, self.k))
        phi = E.phi_sigma(2.0, self.t)
        return w, sups, counts, phi

    def check(self, out):
        w, sups, counts, phi = out
        ok = w_identity_ok(self.x, w)
        for (params, h), (T, argmax) in zip(self.cases, sups):
            ok = ok and sup_argmax_ok(params, h, self.k, T, argmax)
            ref = np.array([_scalar_sup(params, h, float(self.k[i])).value for i in self.sub])
            ok = ok and bool(np.all(rel_gap(T[self.sub], ref) <= SUP_COUNTING_RTOL))
        for (T, _), (Tc, _) in zip(sups, counts):     # the h = 1 cases come first
            ok = ok and bool(np.all(np.isfinite(Tc)) and np.all(rel_gap(T, Tc) <= SUP_COUNTING_RTOL))
        return ok and bool(np.all(np.isfinite(phi)) and np.all(phi > 0))

    def cli_argv(self):
        n = 40 if self.tiny else 4000
        return ["assocfn", "--tau", "1", "--sigma", "2", "--h", "1",
                "--grid", f"1:{self.cli_kmax!r}:{n}", "--output", self.cli_out]

    def check_cli(self):
        c = read_csv(self.cli_out)
        T, Tc = c["T_sup"], c["T_counting"]
        return bool(T.size > 0 and np.all(np.isfinite(T)) and np.all(np.isfinite(Tc))
                    and np.all(rel_gap(T, Tc) <= SUP_COUNTING_RTOL))


class Scalar(Workload):
    """A seeded, shuffled mix of single-point public calls.

    A round is the whole mix: units of one or two calls, each unit of one
    call kind. Paired calls (sup with counting at h = 1, floor with direct
    count) are checked against each other. A kind has SHARE_US x its
    SHARE factor / COST_US[kind] units, so every kind takes about the same
    share of a round's time, and a kind that gets twice as slow becomes
    the slowest kind, which sets the throughput the runner reports.
    """

    name = "scalar"

    # scaled time of one unit of each kind, in us: the per-kind medians of
    # diag.kind_p50_ms over the units per round, from two 15 s runs on a
    # 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, no numba)
    COST_US = {"lambert_w0": 2.06, "evaluate_w": 3.48, "phi_sigma": 3.33,
               "assoc_fn_sup": 40.3, "sup_counting_pair": 45.8,
               "floor_direct_pair": 5.71, "young_conjugate": 261.0}
    SHARE_US = 5000.0
    # the sup/counting pair is the kind whose scaled time grows most when
    # the machine slows (its counting call is a numpy call on one point);
    # at a full share it would decide the slowest kind by machine state
    SHARE = {"sup_counting_pair": 0.85}
    TINY_DIVISOR = 50

    def __init__(self, seed, tiny, outdir):
        super().__init__(seed, tiny, outdir)
        rng = self.rng
        self.kinds = list(self.COST_US)
        per = {k: max(1, round(self.SHARE_US * self.SHARE.get(k, 1.0) / c
                               / (self.TINY_DIVISOR if tiny else 1)))
               for k, c in self.COST_US.items()}
        params = [E.SequenceParams(tau, s) for tau, s, _ in GRID_CASES]
        phi2 = lambda t: E.phi_sigma(2.0, t)
        units = {k: [] for k in self.kinds}
        for x in stratified_log(rng, -6.0, 300.0, per["lambert_w0"]):
            units["lambert_w0"].append((("lambert_w0", (float(x),)),))
        for x in stratified_log(rng, -6.0, 300.0, per["evaluate_w"]):
            units["evaluate_w"].append((("evaluate_w", (float(x),)),))
        sig = rng.choice([1.5, 2.0, 3.0], per["phi_sigma"])
        for s, t in zip(sig, stratified_log(rng, -3.0, 6.0, per["phi_sigma"])):
            units["phi_sigma"].append((("phi_sigma", (float(s), float(t))),))
        for i, k in enumerate(stratified_log(rng, 0.0, 10.0, per["assoc_fn_sup"])):
            h = GRID_CASES[i % len(GRID_CASES)][2]
            units["assoc_fn_sup"].append((("assoc_fn_sup", (params[i % len(params)], h, float(k))),))
        for i, k in enumerate(stratified_log(rng, 0.0, 10.0, per["sup_counting_pair"])):
            p = params[i % 4]           # the h = 1 cases
            units["sup_counting_pair"].append((("assoc_fn_sup", (p, 1.0, float(k))),
                                               ("assoc_fn_counting", (p, float(k)))))
        Cs = [1.0, math.e, math.e ** 2]
        for i, lam in enumerate(stratified_log(rng, 0.0, 8.0, per["floor_direct_pair"])):
            a = (params[0], Cs[i % 3], float(lam))
            units["floor_direct_pair"].append((("counting_fn_floor", a), ("counting_fn_direct", a)))
        n = per["young_conjugate"]
        for y in 300.0 * (np.arange(n) + rng.random(n)) / n:
            units["young_conjugate"].append((("young_conjugate", (phi2, float(y))),))
        flat = [(ki, u) for ki, k in enumerate(self.kinds) for u in units[k]]
        order = rng.permutation(len(flat))
        self.units = [flat[i][1] for i in order]
        self.unit_kind = [flat[i][0] for i in order]
        self.cli_ymax = 300.0 * (1.0 + 0.01 * rng.random())
        self.cli_n = 30 if tiny else 3000

    def check_unit(self, unit, results):
        kind, args = unit[0]
        r = results[0]
        if kind == "lambert_w0":
            return w_scalar_ok(args[0], r)
        if kind == "evaluate_w":
            return (w_scalar_ok(args[0], r.w) and r.x == args[0]
                    and 0 <= r.iterations <= 50 and r.residual <= 1e-12)
        if kind == "phi_sigma":
            return math.isfinite(r) and r > 0
        if kind == "assoc_fn_sup":
            params, h, k = args
            if not sup_argmax_ok(params, h, k, r.value, r.argmax_p):
                return False
            if len(unit) == 2:
                rc = results[1]
                return (math.isfinite(rc.value)
                        and rel_gap(r.value, rc.value) <= SUP_COUNTING_RTOL)
            return True
        if kind == "counting_fn_floor":
            return r == results[1] and r >= 0
        if kind == "young_conjugate":
            v, t = r
            return conjugate_ok(2.0, args[1], v, t)
        return False

    def cli_argv(self):
        return ["conjugate", "--sigma", "2", "--linear",
                "--grid", f"0:{self.cli_ymax!r}:{self.cli_n}", "--output", self.cli_out]

    def check_cli(self):
        c = read_csv(self.cli_out)
        y, t, v = c["y"], c["t_star"], c["phi_star"]
        if y.size != self.cli_n or not np.all(np.isfinite(v)) or np.any(v < 0):
            return False
        return (all(conjugate_ok(2.0, yi, vi, ti) for yi, vi, ti in zip(y, v, t))
                and bool(np.all(np.diff(v) >= 0)))


WORKLOADS = {w.name: w for w in (Verify, Grid, Scalar)}
