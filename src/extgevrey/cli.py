"""Command-line front end: evaluation tables and the verification suite.

Exit codes: 0 success / all checks pass, 1 at least one claim failed,
2 usage error, 3 numerical failure (verify still reports every claim).
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import assocfn, conjugate, equivalence, lambertw, sequences
from .errors import DivergenceError, DomainError, NumericalError, RangeError, UsageError
from .sequences import (SequenceParams, _check_above_one, _check_p_max, _check_positive, _check_Q, _derived,
                        _read_only)

FMT = "%.17g"
GRID_MAX_POINTS = 10 ** 7     # points one grid spec may ask for


# ---------------------------------------------------------------------------
# grids and output plumbing
# ---------------------------------------------------------------------------

def parse_grid(spec: str, linear: bool = False) -> np.ndarray:
    """`min:max:points_per_decade`, log-spaced; with --linear the third
    field is the total point count. A nonpositive log-grid minimum is kept
    as an extra leading point; a log grid needs a positive maximum. A spec
    asking for more than GRID_MAX_POINTS points raises UsageError."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be min:max:points, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed grid spec {spec!r}") from exc
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid min must be below grid max, both finite")
    if linear:
        if n < 2:
            raise UsageError("linear grids need at least 2 points")
        return np.linspace(lo, hi, int(_capped(n, spec)))
    if n < 4:
        raise UsageError("log grids need at least 4 points per decade")
    if not hi > 0.0:
        raise UsageError(f"log grids need a positive max, got {spec!r}")
    prepend = []
    if lo <= 0.0:
        prepend = [lo]
        lo = hi * 1e-10
    pts = max(2, int(math.ceil(_capped(n * math.log10(hi / lo), spec))) + 1)
    return np.concatenate([prepend, np.logspace(math.log10(lo), math.log10(hi), pts)])


def _capped(count, spec):
    """The point count a spec asks for; UsageError past GRID_MAX_POINTS, before any allocation."""
    if not count <= GRID_MAX_POINTS:
        raise UsageError(f"grid spec {spec!r} asks for {count:.6g} points, "
                         f"more than {GRID_MAX_POINTS}")
    return count


def emit(columns, header, fmt, out_path):
    """columns: one 1-D array or list per header field; deterministic serialization.

    Each column becomes Python values once, and each csv/text row is one format
    string: floats as FMT, integers as %d, bools as true/false, anything else by str()."""
    arrays = [np.asarray(c) for c in columns]
    values = [a.tolist() for a in arrays]
    if fmt == "json":
        rows = [dict(zip(header, row)) for row in zip(*values)]
        return _write(json.dumps(rows, sort_keys=True, indent=2) + "\n", out_path)
    kinds = [a.dtype.kind for a in arrays]
    values = [["true" if v else "false" for v in vals] if kind == "b" else vals
              for vals, kind in zip(values, kinds)]
    specs = [FMT[1:] if kind == "f" else "d" if kind in "iu" else "s" for kind in kinds]
    sep, end = (",", "\r\n") if fmt == "csv" else ("  ", "\n")
    pads = ["" if fmt == "csv" else f"-{max(len(h), 24)}" for h in header]  # text: left-justified
    row = sep.join(f"%{pad}{spec}" for pad, spec in zip(pads, specs))
    lines = [sep.join(f"%{pad}s" % h for pad, h in zip(pads, header))]
    lines += [row % r for r in zip(*values)]
    _write(end.join(lines) + end, out_path)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------

def cmd_lambertw(args):
    evs = [lambertw.evaluate_w(xi) for xi in parse_grid(args.grid, args.linear).tolist()]
    emit([[e.x for e in evs], [e.w for e in evs], [e.residual for e in evs]],
         ["x", "w", "residual"], args.format, args.output)
    return 0


def _make_seq(args):
    if args.kind == "gevrey":
        return sequences.gevrey(args.t)
    return sequences.extended_gevrey(SequenceParams(args.tau, args.sigma))


def cmd_sequence(args):
    """`sequence` tabulates log M_p, `quotients` log m_p, on the default p grid."""
    _check_p_max(args.pmax, 1, "--pmax")
    seq = _make_seq(args)
    p = sequences.default_p_grid(args.pmax)
    column = "log_M" if args.command == "sequence" else "log_m"
    emit([p, getattr(seq, column)(p)], ["p", column], args.format, args.output)
    return 0


def cmd_assocfn(args):
    params = SequenceParams(args.tau, args.sigma)
    k = parse_grid(args.grid, args.linear)
    k = k[k > 0]
    T, argmax = assocfn.assoc_fn_sup_grid(params, args.h, k)
    if args.h == 1.0:
        Tc, _ = assocfn.assoc_fn_counting_grid(params, k)
        emit([k, T, Tc, argmax], ["k", "T_sup", "T_counting", "argmax_p"], args.format, args.output)
    else:
        emit([k, T, argmax], ["k", "T_sup", "argmax_p"], args.format, args.output)
    return 0


def cmd_phi(args):
    t = parse_grid(args.grid, args.linear)
    t = t[t >= 0]
    if t.size:      # anchor rows: 0 and e whenever they fall inside the requested range
        t = np.sort(np.concatenate([t, [a for a in (0.0, math.e) if t[0] <= a <= t[-1]]]))
        t = t[np.r_[True, t[1:] != t[:-1]]]
    vals = conjugate.phi_sigma(args.sigma, t)
    emit([t, vals], ["t", "phi_sigma"], args.format, args.output)
    return 0


def cmd_conjugate(args):
    y = parse_grid(args.grid, args.linear)
    y = y[y >= 0]
    phi_star, t_star = conjugate.phi_sigma_conjugate(args.sigma, y)
    emit([y, t_star, phi_star], ["y", "t_star", "phi_star"], args.format, args.output)
    return 0


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

# the fixed input grids of the claims, built once and shared: read-only
_W3_X = _read_only(np.logspace(math.log10(math.e), 15, 200))
_IDENTITY_X = _read_only(np.logspace(0.5, 10, 100))
_FLOOR_C = _read_only(np.array([[1.0], [math.e], [math.e ** 2]]))
_FLOOR_LAMBDA = _read_only(np.logspace(0, 8, 120))
_SUP_COUNTING_K = _read_only(np.logspace(0, 10, 500))
_INTEGRAL_K = _read_only(np.logspace(0.5, 8, 25))


def _claim_w3(a):
    rep = lambertw.check_w3_bounds(_W3_X)
    return rep.passed, {"points": int(rep.x.size)}

def _claim_w_identities(a):
    rep = lambertw.check_w_identities(_IDENTITY_X)
    return rep.passed, {"max_identity_err": float(np.max(rep.identity_err))}

def _claim_lemma(a):
    rep = sequences.lemma_quotient_bounds(SequenceParams(a.tau, a.sigma), a.pmax)
    return rep.passed, {"max_lower_violation": rep.max_lower_violation,
                        "max_upper_violation": rep.max_upper_violation}

def _cond(name):
    def run(a):
        rep = sequences.check_condition(name, SequenceParams(a.tau, a.sigma), a.pmax)
        return rep.holds, rep._asdict()
    return run

def _claim_liminf(a):
    seq = sequences.extended_gevrey(SequenceParams(a.tau, a.sigma))
    rep = sequences.check_liminf_condition(seq, a.Q, a.pmax)
    return rep.holds, rep._asdict()

def _claim_counting_floor(a):
    # one call per route over the (C, lambda) table; a route's error names its first
    # failing point, the closed form's before the direct one's
    params = SequenceParams(a.tau, a.sigma)
    C, lams = _FLOOR_C, _FLOOR_LAMBDA
    differ = np.argwhere(assocfn.counting_fn_floor(params, C, lams)
                         != assocfn.counting_fn_direct(params, C, lams))
    if differ.size:
        i, j = differ[0].tolist()
        return False, {"C": float(C[i, 0]), "lambda": float(lams[j])}
    return True, {"points": int(lams.size) * 3}

def _claim_sup_vs_counting(a):
    params = SequenceParams(a.tau, a.sigma)
    k = _SUP_COUNTING_K
    T, _ = assocfn.assoc_fn_sup_grid(params, 1.0, k)
    Tc, _ = assocfn.assoc_fn_counting_grid(params, k)
    err = float(np.max(np.abs(T - Tc) / np.maximum(np.maximum(T, Tc), 1.0)))
    return err <= 1e-9, {"max_rel_err": err}

def _claim_sandwich(a):
    params = SequenceParams(a.tau, a.sigma)
    rep = assocfn.sandwich_bounds_check(params, a.h, equivalence.default_k_grid())
    return rep.holds, rep.fitted()

def _claim_integral(a):
    rep = conjugate.integral_closed_form_check(
        SequenceParams(a.tau, a.sigma), 1.0, _INTEGRAL_K)
    return rep.passed, {"max_rel_err": float(np.max(rep.rel_err))}

def _claim_weight_axioms(a):
    results = {}
    ok = True
    for w, expect in ((conjugate.bmt_log_power(2.0), True),
                      (conjugate.bmt_quotient(2.0), True),
                      (conjugate.lambert_weight(), False),
                      (conjugate.power_weight(0.5), True),
                      (conjugate.power_weight(1.0), True),
                      (conjugate.power_weight(1.5), False)):
        rep = conjugate.check_weight_axioms(w)
        results[w.name] = rep.passed
        ok = ok and (rep.passed == expect)
    return ok, results

def _claim_t_phi(a):
    rep = equivalence.check_T_phi_equivalence(SequenceParams(a.tau, a.sigma), a.h)
    return rep.holds, rep._asdict()

def _claim_ocena_norme(a):
    rep = equivalence.check_ocena_norme(a.sigma, a.tau, 1000)
    return rep.holds, rep._asdict()

def _claim_matrix(a):
    taus = [a.tau if f == 1 else _derived(f"{f:g} tau", f * a.tau, "tau", a.tau) for f in (0.5, 1, 2, 4)]
    Hs = set()
    for tau in taus:
        band = equivalence.slope_band(a.sigma, tau, 300)
        Hs.update((band.H1, band.H2))
    M = equivalence.extended_matrix(a.sigma, taus)
    N = equivalence.conjugate_matrix(a.sigma, sorted(Hs))
    rep = equivalence.check_matrix_equivalence(M, N, 300)
    return rep.holds, rep._asdict()

def _claim_corollary(a):
    rep = equivalence.check_corollary(a.s)
    return rep.holds, rep._asdict()


CLAIMS = {
    "w3": _claim_w3,
    "w-identities": _claim_w_identities,
    "lemma-quotient-bounds": _claim_lemma,
    "m1": _cond("M.1"),
    "m2prime": _cond("~M.2'"),
    "m2tilde": _cond("~M.2"),
    "m3prime": _cond("M.3'"),
    "m4": _cond("~M.4"),
    "m4prime": _cond("~M.4'"),
    "m5": _cond("~M.5"),
    "m0": _cond("M.0"),
    "liminf": _claim_liminf,
    "counting-floor": _claim_counting_floor,
    "sup-vs-counting": _claim_sup_vs_counting,
    "sandwich": _claim_sandwich,
    "integral-closed-form": _claim_integral,
    "weight-axioms": _claim_weight_axioms,
    "t-phi-equivalence": _claim_t_phi,
    "ocena-norme": _claim_ocena_norme,
    "matrix-equivalence": _claim_matrix,
    "corollary": _claim_corollary,
}

# opt-in claims whose expected outcome is a documented failure
EXTRA_CLAIMS = {"m2-classical": _cond("M.2-classical")}


def verify_report(tau=1.0, sigma=2.0, h=1.0, Q=3, s=2.0, pmax=10_000, only=None):
    """(report, exit code) of the claims named in `only` (comma-separated; default all of
    CLAIMS), each looked up in CLAIMS or EXTRA_CLAIMS as it runs. The report holds JSON values
    alone, equal to what `verify` writes; a claim that raises NumericalError or DivergenceError,
    or whose details hold a NaN or inf, gets an "error" entry. Exit code 0, 1 where a claim
    fails, 3 where one errs; a bad parameter raises UsageError or DomainError before any claim."""
    if only:
        names = [n.strip() for n in only.split(",") if n.strip()]
        unknown = [n for n in names if n not in CLAIMS and n not in EXTRA_CLAIMS]
        if unknown:
            raise UsageError(f"unknown claims: {', '.join(unknown)}")
    else:
        names = list(CLAIMS)
    SequenceParams(tau, sigma)
    _check_positive("h", h)
    _check_p_max(pmax, 10 if "liminf" in names else 4 if "m2-classical" in names else 3, "--pmax")
    if "liminf" in names:
        _check_Q(Q, pmax, "--Q", "--pmax")
    if "corollary" in names:
        _check_above_one("--s", s)
    a = argparse.Namespace(tau=tau, sigma=sigma, h=h, Q=Q, s=s, pmax=pmax)
    claims = {}
    for name in names:
        try:
            holds, payload = (CLAIMS.get(name) or EXTRA_CLAIMS[name])(a)
            claims[name] = {"holds": bool(holds), "details": _plain(payload, "details")}
        except (NumericalError, DivergenceError) as exc:
            claims[name] = {"holds": False, "error": str(exc)}
    failed = [name for name, c in claims.items() if not c["holds"]]
    # only --s is unchecked where no claim reads it: a nan or inf there goes out as its repr
    report = {"parameters": {"tau": tau, "sigma": sigma, "h": h, "Q": Q,
                             "s": s if math.isfinite(s) else repr(s), "pmax": pmax},
              "claims": claims, "passed": not failed, "failed_claims": failed}
    return report, 3 if any("error" in c for c in claims.values()) else 1 if failed else 0


def _plain(v, key):
    """A claim's payload as the JSON values json.loads reads back: numpy scalars by .item(),
    tuples as lists. NumericalError at a NaN or inf, which strict JSON (RFC 8259) cannot hold."""
    if isinstance(v, np.generic):
        v = v.item()
    if type(v) is float:    # most leaves
        if math.isfinite(v):
            return v
        raise NumericalError(f"the report's {key} = {v!r} is not a finite number")
    if isinstance(v, dict):
        return {k: _plain(x, k) for k, x in v.items()}
    return [_plain(x, key) for x in v] if isinstance(v, (list, tuple)) else v


def cmd_verify(args):
    """`verify`: the report as json or one line per claim, its errors and failures on stderr."""
    report, code = verify_report(**{k: v for k, v in vars(args).items()
                                    if k not in ("command", "fn", "format", "output")})
    claims, failed = report["claims"], report["failed_claims"]
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = "\n".join([f"{'ERROR' if 'error' in c else 'PASS' if c['holds'] else 'FAIL'}  {name}"
                          for name, c in claims.items()]
                         + ["failed: " + ", ".join(failed) if failed else "all claims hold"])
    _write(text + "\n", args.output)
    for name, c in claims.items():
        if "error" in c:
            print(f"numerical failure in {name}: {c['error']}", file=sys.stderr)
    if failed:
        print("failed claims: " + ", ".join(failed), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built once per process (about 1.6 ms) and shared: read-only."""
    parser = argparse.ArgumentParser(
        prog="extgevrey",
        description="Tables and verification checks for extended Gevrey "
                    "weight sequences, associated functions and conjugates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default):
        p.add_argument("--grid", default=grid_default, help="min:max:points_per_decade")
        p.add_argument("--linear", action="store_true",
                       help="linear spacing; third grid field = total points")
        p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("lambertw", help="table of W(x) with residuals")
    common(p, "0:700:8")
    p.set_defaults(fn=cmd_lambertw)

    for name, what in (("sequence", "log M_p"), ("quotients", "log m_p")):
        p = sub.add_parser(name, help=f"table of {what}")
        p.add_argument("--tau", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=2.0)
        p.add_argument("--kind", choices=["extended", "gevrey"], default="extended")
        p.add_argument("--t", type=float, default=2.0, help="Gevrey index for --kind gevrey")
        p.add_argument("--pmax", type=int, default=10_000)
        common(p, None)
        p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("assocfn", help="associated function by both methods")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--h", type=float, default=1.0)
    common(p, "1:1e10:16")
    p.set_defaults(fn=cmd_assocfn)

    p = sub.add_parser("phi", help="table of phi_sigma")
    p.add_argument("--sigma", type=float, default=2.0)
    common(p, "0:100:32")
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("conjugate", help="Young conjugate table of phi_sigma")
    p.add_argument("--sigma", type=float, default=2.0)
    common(p, "0:1000:16")
    p.set_defaults(fn=cmd_conjugate)

    # verify_report's own defaults stand for the options not given
    p = sub.add_parser("verify", help="run the verification suite", argument_default=argparse.SUPPRESS)
    for name, kind in (("tau", float), ("sigma", float), ("h", float), ("Q", int), ("s", float), ("pmax", int)):
        p.add_argument(f"--{name}", type=kind)
    p.add_argument("--only", help="comma-separated claim filter")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (NumericalError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
