"""End-to-end verification battery for the library's headline claims.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``)
and asserts the same verdict, at the stated tolerance. The whole battery
is sized to finish in well under two minutes on one core.
"""

import json
import math
import subprocess
import sys

import numpy as np

from extgevrey import (
    SequenceParams,
    assoc_fn_counting_grid,
    assoc_fn_sup_grid,
    bmt_log_power,
    bmt_quotient,
    check_condition,
    check_corollary,
    check_ocena_norme,
    check_w3_bounds,
    check_weight_axioms,
    conjugate_table,
    counting_fn_direct,
    counting_fn_floor,
    default_p_grid,
    extended_gevrey,
    integral_closed_form_check,
    lambert_w0,
    lambert_weight,
    phi_sigma,
    power_weight,
)

PARAM_GRID = [(t, s) for t in (0.5, 1.0, 2.0) for s in (1.5, 2.0, 3.0)]
ORACLE_TRIPLES = [(1.0, 2.0), (2.0, 3.0), (0.5, 1.5)]


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_01_lambert_round_trip():
    ok = True
    for w in np.logspace(-6, math.log10(700.0), 200):
        x = w * math.exp(w)
        ok = ok and abs(lambert_w0(x) - w) <= 1e-12 * max(w, 1.0)
    report("lambert round-trip w -> w e^w -> w", ok)


def test_02_w3_bracket():
    rep = check_w3_bounds(np.logspace(math.log10(math.e), 15, 200))
    report("two-sided log-log bracket for W", rep.passed)


def test_03_lemma_quotient_bounds():
    from extgevrey import lemma_quotient_bounds
    ok = all(lemma_quotient_bounds(SequenceParams(t, s), 2, 10_000).passed
             for t, s in PARAM_GRID)
    report("quotient two-sided bounds, p in [2, 1e4]", ok)


def test_04_condition_suite():
    ok = True
    for t, s in PARAM_GRID:
        params = SequenceParams(t, s)
        for name in ("M.1", "~M.2'", "~M.2", "M.3'", "~M.4'", "M.0"):
            ok = ok and check_condition(name, params, 3000).holds
        ok = ok and check_condition(
            "~M.4", params, 3000, params2=SequenceParams(2 * t, s)).holds
        ok = ok and check_condition(
            "~M.5", params, 3000, params2=SequenceParams(t, s + 1)).holds
        classical = check_condition("M.2-classical", params, 10_000)
        ok = ok and not classical.holds
        ok = ok and classical.witness is not None and classical.witness <= 100
    report("growth-condition suite incl. classical-doubling failure", ok)


def test_05_liminf_quotient_ratio():
    ok = True
    for t, s in PARAM_GRID:
        seq = extended_gevrey(SequenceParams(t, s))
        p = default_p_grid(10_000)
        p = p[p >= 2]
        r = seq.log_m(3 * p) - seq.log_m(p)
        ok = ok and bool(np.all(r > 0))
        tail = r[p > p.max() / 10]
        ok = ok and bool(np.all(np.diff(tail) > 0))
    report("Q=3 quotient-ratio gap positive with monotone tail", ok)


def test_06_sup_vs_counting():
    ok = True
    k = np.logspace(0, 10, 500)
    for t, s in ORACLE_TRIPLES:
        params = SequenceParams(t, s)
        T, _ = assoc_fn_sup_grid(params, 1.0, k)
        Tc, _ = assoc_fn_counting_grid(params, k)
        ok = ok and bool(np.all(np.abs(T - Tc) <= 1e-9 * np.maximum(np.maximum(T, Tc), 1.0)))
    report("associated function: supremum vs counting sum", ok)


def test_07_counting_floor_formula():
    ok = True
    lams = np.logspace(0, 8, 300)
    for t, s in ORACLE_TRIPLES:
        params = SequenceParams(t, s)
        for C in (1.0, math.e, math.e ** 2):
            for lam in lams:
                if counting_fn_floor(params, C, float(lam)) != \
                        counting_fn_direct(params, C, float(lam)):
                    ok = False
    report("closed-form counting floor vs enumeration", ok)


def test_08_integral_closed_form():
    ok = True
    for t, s in ORACLE_TRIPLES:
        for C in (1.0, math.e):
            rep = integral_closed_form_check(
                SequenceParams(t, s), C, np.logspace(0.5, 8, 50))
            ok = ok and rep.passed
    report("Lambert-substitution integral vs quadrature", ok)


def _fit_A(tau):
    lnk = np.log(np.logspace(math.log10(math.e), 12, 640))
    T, _ = assoc_fn_sup_grid(SequenceParams(tau, 2.0), 1.0, np.exp(lnk))
    phi = phi_sigma(2.0, lnk)
    top = lnk >= 0.5 * lnk.max()
    return float(np.max(T[top] / phi[top]))


def test_09_T_phi_sandwich_and_tau_scaling():
    from extgevrey import check_T_phi_equivalence
    rep = check_T_phi_equivalence(SequenceParams(1.0, 2.0))
    ok = rep.holds and rep.max_violation <= 1e-8
    ratio = _fit_A(1.0) / _fit_A(4.0)
    ok = ok and 2.0 <= ratio <= 8.0
    report("two-sided phi_sigma band with tau-scaling of the slope", ok)


def test_10_conjugate_norm_bounds():
    ok = True
    for s in (1.5, 2.0, 3.0):
        for t in (0.5, 1.0, 2.0):
            ok = ok and check_ocena_norme(s, t, 1000).holds
    report("two-sided conjugate bound constants stabilize", ok)


def test_11_fenchel_young():
    ok = True
    for s in (1.5, 2.0, 3.0):
        phi = lambda u: phi_sigma(s, u)
        t = np.linspace(0.0, 40.0, 100)
        y = np.linspace(0.0, 30.0, 100)
        tab = conjugate_table(phi, y)
        phi_t = phi_sigma(s, t)
        ok = ok and bool(np.all(np.outer(y, t) <= phi_t[None, :] + tab.phi_star[:, None] + 1e-8))
    report("Fenchel-Young inequality", ok)


def test_12_weight_axiom_classifier():
    ok = check_weight_axioms(bmt_log_power(2.0)).passed
    ok = ok and check_weight_axioms(bmt_quotient(2.0)).passed
    rep = check_weight_axioms(lambert_weight())
    ok = ok and (rep.alpha, rep.beta, rep.gamma, rep.delta) == (True, True, False, True)
    ok = ok and check_weight_axioms(power_weight(0.5)).passed
    ok = ok and check_weight_axioms(power_weight(1.0)).passed
    ok = ok and not check_weight_axioms(power_weight(1.5)).passed
    report("weight-axiom classifier on the reference catalog", ok)


def test_13_corollary_weight_band():
    ok = True
    for s in (2.0, 3.0):
        rep = check_corollary(s)
        ok = ok and rep.holds and rep.fitted_constants["band"] <= 10.0
    report("corollary weight within a 10x band of phi_s", ok)


def test_14_cli_verify_determinism(tmp_path):
    outs = []
    for i in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "extgevrey.cli", "verify",
             "--only", "w3,lemma-quotient-bounds,counting-floor,ocena-norme"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    ok = outs[0] == outs[1] and json.loads(outs[0])["passed"] is True
    report("verify CLI emits byte-identical JSON", ok)
