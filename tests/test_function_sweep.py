"""A seeded sweep of the public functions across their documented domains, in process.

tau, sigma and h are drawn as `test_argv_sweep` draws them. Each call must return finite
values, or raise one of the package's errors (`extgevrey.errors`): any other exception
fails, a RuntimeWarning included (pyproject.toml makes those errors). `phi_sigma` alone
may return inf, past the floats, as it documents. Where a sup or counting grid returns,
its values equal its scalar twin's at each point to 1e-13 relative, and the sups to four
more ulps of the sum of the sizes of g's terms at the grid's maximiser, where g cancels;
the maximisers may differ where g is flat within rounding at its top (p past about 1e8).
Where the sup grid raises, the scalar calls over the same k raise the same error, at the
first failing k. `phi_sigma`, `young_conjugate`, `lambert_w0` and `assoc_fn_sup` give at a
numpy scalar what they give at its float: equal values, or the same error.
A count that returns is positive exactly where C <= lambda, where p = 1 counts.

Run this module as a script for a longer sweep over more seeds; it exits 1 if a call fails:

    PYTHONPATH=src python tests/test_function_sweep.py FIRST_SEED LAST_SEED
"""

import math
import random

import numpy as np
import pytest

import extgevrey as eg
from extgevrey import errors, sequences

import _reference
from test_argv_sweep import _h, _log_uniform, _positive, _sigma, run

SEEDS = (3031, 3032, 3033, 3034)
DRAWS = 20      # per seed
_SANDWICH_K = np.logspace(0.0, 12.0, 25)
_DOCUMENTED = tuple(getattr(errors, name) for name in errors.__all__)


def _k(rng):
    """k or C: 1, or positive, from the bands of `_positive`."""
    return 1.0 if rng.random() < 0.1 else _positive(rng)


def draw(rng):
    """One point of every function's domain, as a dict of named arguments."""
    return {"tau": _positive(rng), "sigma": _sigma(rng), "h": _h(rng), "k": [_k(rng) for _ in range(4)],
            "C": _k(rng), "lam": 1.0 if rng.random() < 0.1 else 1.0 + _positive(rng),
            "x": [0.0 if rng.random() < 0.1 else _positive(rng) for _ in range(3)],
            "p_max": rng.choice((10, 300, 1000)), "label": rng.choice(list(sequences._CHECKS)),
            "Q": int(_log_uniform(rng, 2.0, 10.0)), "s": _sigma(rng), "H": _positive(rng)}


def calls(d):
    """(name, thunk) for each entry point at the drawn point d."""
    tau, sigma, h, k, x = d["tau"], d["sigma"], d["h"], d["k"], d["x"]
    P = eg.SequenceParams(tau, sigma)
    seq = eg.extended_gevrey(P)
    p = np.arange(1, d["p_max"] + 1)
    phi = lambda t: eg.phi_sigma(sigma, t)
    return [
        ("assoc_fn_sup", lambda: [eg.assoc_fn_sup(P, h, kj) for kj in k]),
        ("assoc_fn_sup numpy scalar", lambda: [eg.assoc_fn_sup(P, np.float64(h), np.float64(kj)) for kj in k]),
        ("assoc_fn_sup_grid", lambda: eg.assoc_fn_sup_grid(P, h, k)),
        ("assoc_fn_counting", lambda: [eg.assoc_fn_counting(P, kj) for kj in k]),
        ("assoc_fn_counting_grid", lambda: eg.assoc_fn_counting_grid(P, k)),
        ("counting_fn_floor", lambda: eg.counting_fn_floor(P, d["C"], d["lam"])),
        ("counting_fn_floor array", lambda: eg.counting_fn_floor(P, np.array(k), d["lam"])),
        ("counting_fn_direct", lambda: eg.counting_fn_direct(P, d["C"], d["lam"])),
        ("counting_fn_direct array", lambda: eg.counting_fn_direct(P, np.array(k), d["lam"])),
        ("envelope", lambda: eg.envelope(P, h, k)),
        ("sandwich_bounds_check", lambda: eg.sandwich_bounds_check(P, h, _SANDWICH_K)),
        ("integral_closed_form_check",
         lambda: eg.integral_closed_form_check(P, d["C"], [kj for kj in k if kj > 1.0])),
        ("phi_sigma", lambda: [eg.phi_sigma(sigma, xj) for xj in x]),
        ("phi_sigma numpy scalar", lambda: [eg.phi_sigma(sigma, np.float64(xj)) for xj in x]),
        ("phi_sigma array", lambda: eg.phi_sigma(sigma, np.array(x))),
        ("phi_sigma_conjugate", lambda: [eg.phi_sigma_conjugate(sigma, xj) for xj in x]),
        ("phi_sigma_conjugate array", lambda: eg.phi_sigma_conjugate(sigma, np.array(x))),
        ("young_conjugate", lambda: eg.young_conjugate(phi, min(x[0], 1e6))),
        ("young_conjugate numpy scalar", lambda: eg.young_conjugate(phi, np.float64(min(x[0], 1e6)))),
        ("conjugate_table", lambda: eg.conjugate_table(phi, [min(xj, 1e6) for xj in x])),
        ("lambert_w0", lambda: [eg.lambert_w0(xj) for xj in x]),
        ("lambert_w0 numpy scalar", lambda: [eg.lambert_w0(np.float64(xj)) for xj in x]),
        ("lambert_w0_grid", lambda: eg.lambert_w0_grid(x)),
        ("evaluate_w", lambda: [eg.evaluate_w(xj) for xj in x]),
        ("log_M", lambda: seq.log_M(p)),
        ("log_m", lambda: seq.log_m(p)),
        ("check_condition", lambda: eg.check_condition(d["label"], P, d["p_max"])),
        ("check_liminf_condition", lambda: eg.check_liminf_condition(seq, d["Q"], d["p_max"])),
        ("lemma_quotient_bounds", lambda: eg.lemma_quotient_bounds(P, d["p_max"])),
        ("slope_band", lambda: eg.slope_band(sigma, tau, d["p_max"])),
        ("check_T_phi_equivalence", lambda: eg.check_T_phi_equivalence(P, h)),
        ("check_corollary", lambda: eg.check_corollary(d["s"])),
        ("check_weight_axioms", lambda: eg.check_weight_axioms(eg.corollary_weight(d["s"]))),
        ("check_ocena_norme", lambda: eg.check_ocena_norme(sigma, tau, d["p_max"])),
        ("check_matrix_equivalence", lambda: eg.check_matrix_equivalence(
            eg.extended_matrix(sigma, [tau, 2.0 * tau]), eg.conjugate_matrix(sigma, [d["H"]]), d["p_max"])),
    ]


def _numbers(v):
    """The floats in v: nested tuples, lists and dicts, arrays and scalars."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, (tuple, list)):
        return [y for u in v for y in _numbers(u)]
    if isinstance(v, (float, np.floating, np.ndarray)):
        return np.asarray(v, dtype=np.float64).ravel().tolist()
    return []


def check(d):
    """Call every entry point at d: AssertionError, naming the call and d, where one breaks the contract."""
    got, raised = {}, {}
    for name, thunk in calls(d):
        try:
            got[name] = out = thunk()
        except _DOCUMENTED as exc:
            raised[name] = repr(exc)
            continue
        except Exception as exc:        # a RuntimeWarning too
            raise AssertionError(f"{name} at {d}: {exc!r}") from exc
        inf_ok = name in ("phi_sigma", "phi_sigma numpy scalar", "phi_sigma array")
        bad = [v for v in _numbers(out) if not (math.isfinite(v) or inf_ok and v == math.inf)]
        assert not bad, f"{name} at {d}: {bad[0]} in {out!r}"
    # a numpy scalar gives what its float gives: the same values, or the same error
    for name in [n for n in (*got, *raised) if n.endswith(" numpy scalar")]:
        twin = name.removesuffix(" numpy scalar")
        assert (got.get(name), raised.get(name)) == (got.get(twin), raised.get(twin)), \
            f"{name} at {d}: {got.get(name, raised.get(name))!r} against {got.get(twin, raised.get(twin))!r}"
    # p = 1 counts exactly where g(1) = ln C <= ln lambda, that is where C <= lambda
    for name, C in (("counting_fn_floor", d["C"]), ("counting_fn_floor array", d["k"]),
                    ("counting_fn_direct", d["C"]), ("counting_fn_direct array", d["k"])):
        if name in got:
            assert ((np.asarray(got[name]) > 0) == (np.asarray(C) <= d["lam"])).all(), \
                f"{name} at {d}: {got[name]!r}"
    # a sup grid's error is the scalar call's at the first failing k
    if "assoc_fn_sup_grid" in raised:
        assert raised.get("assoc_fn_sup") == raised["assoc_fn_sup_grid"], f"assoc_fn_sup_grid at {d}: " \
            f"{raised['assoc_fn_sup_grid']} against {raised.get('assoc_fn_sup')}"
    for grid, scalar in (("assoc_fn_sup_grid", "assoc_fn_sup"), ("assoc_fn_counting_grid", "assoc_fn_counting")):
        if grid in got:
            assert scalar in got, f"{scalar} raises where {grid} returns, at {d}"
            for v, p, k, (vs, *_) in zip(*(a.tolist() for a in got[grid]), d["k"], got[scalar]):
                bound = 1e-13 * max(1.0, abs(v))
                if grid == "assoc_fn_sup_grid" and p:   # numpy's p^sigma and libm's may differ in an ulp
                    bound += 4.0 * math.ulp(_reference.g_cond(p, math.log(k), math.log(d["h"]), d["tau"],
                                                              d["sigma"]) * abs(v))
                assert abs(v - vs) <= bound, f"{grid} at {d}: {v} against {vs}"


def points(seed):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_public_functions_return_finite_values_or_documented_errors(seed):
    for d in points(seed):
        check(d)


# (tau, sigma, h, C, lambda) where a call once broke the contract; the other arguments fixed
@pytest.mark.parametrize("tau, sigma, h, C, lam", [
    (5892447.000206286, 1021.6304760128658, 4.524178708727972e+26, 1.0, 1e6),  # g(2) = inf - inf as written
    (1.6869638155091605e+308, 7021.061374725526, 1.1933336980865066e-20, 1.0, 1e6),  # tau ln 2 = inf, a warning
    (1000.0, 1020.0, math.exp(709.7), 1.0, 1e6),    # g(2) passes the largest float: T_h was g(1)
    (2.037533394864031e+31, 275.3805505967718, 1.0, 1.0, 1e6),  # the lemma's upper bound at p = 10 overflows
    (1.0, 2.0, 1.0, 1e20, math.nextafter(1e20, 0.0)),   # ln C == ln lambda for C > lambda: p = 1 counted
    (9.947773796632498, 28.126993299773517, 1e6, 1.0, 1e6),     # g(4) cancels: the sups 1.19e-13 apart
], ids=["g-nan", "tau-ln-p-overflows", "g-past-max", "lemma-upper-bound", "g1-float-below-c", "g-cancels"])
def test_public_functions_at_points_that_once_broke_them(tau, sigma, h, C, lam):
    # k = 36.912114227366544 = exp(3.6085397960128294), where g's condition at p = 4 is 1106
    check({"tau": tau, "sigma": sigma, "h": h, "k": [2.0, 1e10, 3.56e78, 1e300, 36.912114227366544], "C": C,
           "lam": lam, "x": [0.0, 1.0, 1e300], "p_max": 10, "label": "M.1", "Q": 3, "s": 2.0, "H": 1.0})


if __name__ == "__main__":
    run(points, check, "draws")
