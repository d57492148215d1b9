import itertools
import math
import warnings

import numpy as np
import pytest

from extgevrey import cli, equivalence
from extgevrey._kernels import assoc_sup_grid
from extgevrey.conjugate import _ln_phi_slope, phi_sigma, phi_sigma_conjugate
from extgevrey.lambertw import lambert_w0
from extgevrey.sequences import LogWeightSequence, _check_positive, _fit_band, default_p_grid, stable_sup
from extgevrey import (
    DomainError,
    NumericalError,
    RangeError,
    SequenceParams,
    UsageError,
    assoc_fn_sup_grid,
    check_T_phi_equivalence,
    check_corollary,
    check_matrix_equivalence,
    check_ocena_norme,
    conjugate_matrix,
    default_k_grid,
    envelope,
    extended_matrix,
    slope_band,
)


def test_default_k_grid_spans_12_decades():
    k = default_k_grid()
    assert k[0] == pytest.approx(np.e)
    assert k[-1] == pytest.approx(1e12)
    assert k.size == 740            # 64 points a decade


def test_band_fit_bounds_the_data_on_the_grid():
    x = np.linspace(1.0, 100.0, 200)
    y = 3.0 * x + 2.0 + np.sin(x)
    top = x >= 50.0
    fit = _fit_band(x, y, top)
    r = y[top] / x[top]
    assert (fit["A"], fit["B"]) == (float(np.max(r)), float(np.min(r)))
    assert np.all(fit["B"] * x + fit["B_tilde"] <= y) and np.all(y <= fit["A"] * x + fit["A_tilde"])
    # y = 2x + 1: the slopes are the extremes of y/x = 2 + 1/x on the top mask
    fit = _fit_band(x, 2.0 * x + 1.0, top)
    assert fit == pytest.approx({"A": 2.0 + 1.0 / x[top][0], "A_tilde": 1.0 - x[0] / x[top][0],
                                 "B": 2.01, "B_tilde": 0.0}, rel=1e-14, abs=1e-12)


def test_t_phi_equivalence_holds():
    rep = check_T_phi_equivalence(SequenceParams(1.0, 2.0))
    assert rep.holds
    fc = rep.fitted_constants
    assert 0 < fc["B"] <= fc["A"]
    assert rep.max_violation <= 1e-8


def _top_slope(tau):
    """max T/phi_2 over the top half of ln k on 640 log-spaced k in [e, 1e12], at sigma = 2."""
    k = np.logspace(math.log10(math.e), 12, 640)
    lnk = np.log(k)
    T, _ = assoc_fn_sup_grid(SequenceParams(tau, 2.0), 1.0, k)
    phi = phi_sigma(2.0, lnk)
    top = lnk >= 0.5 * lnk.max()
    return float(np.max(T[top] / phi[top]))


def test_t_phi_tau_scaling_band():
    rep = check_T_phi_equivalence(SequenceParams(1.0, 2.0))
    fc = rep.fitted_constants
    assert fc["scaling_expected"] == pytest.approx(2.0)
    assert 1.0 <= fc["scaling_ratio_A"] <= 4.0
    assert 1.0 <= fc["scaling_ratio_B"] <= 4.0
    # the slope falls like tau^(-1/(sigma-1)): by 4 from tau = 1 to tau = 4, within a factor 2
    assert 2.0 <= _top_slope(1.0) / _top_slope(4.0) <= 8.0


def test_t_phi_h_robustness():
    # the band fit still succeeds away from h = 1
    r2 = check_T_phi_equivalence(SequenceParams(1.0, 2.0), h=10.0)
    assert r2.holds
    assert r2.fitted_constants["B"] > 0


@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_ocena_norme_stabilizes(sigma, tau):
    rep = check_ocena_norme(sigma, tau, 1000)
    assert rep.holds
    fc = rep.fitted_constants
    assert fc["H2"] < fc["H1"]
    assert np.isfinite(fc["logC1"]) and np.isfinite(fc["logC2"])


def test_matrix_self_equivalence():
    M = extended_matrix(2.0, [0.5, 1.0, 2.0])
    rep = check_matrix_equivalence(M, M, 300)
    assert rep.holds
    # identity matching with log C = 0
    for tau in (0.5, 1.0, 2.0):
        assert rep.fitted_constants[f"M_sigma:{tau:g}<=M_sigma:{tau:g}"] == 0.0
        assert rep.fitted_constants[f"M_sigma:{tau:g}>=M_sigma:{tau:g}"] == 0.0


def test_matrix_equivalence_with_conjugate_family():
    taus = [0.5, 1.0, 2.0]
    Hs = set()
    for tau in taus:
        fc = check_ocena_norme(2.0, tau, 300).fitted_constants
        Hs.update((fc["H1"], fc["H2"]))
    M = extended_matrix(2.0, taus)
    N = conjugate_matrix(2.0, sorted(Hs))
    rep = check_matrix_equivalence(M, N, 300)
    assert rep.holds
    assert rep.notes == ""


def test_matrix_orphan_is_reported():
    M = extended_matrix(2.0, [4.0])
    N = conjugate_matrix(2.0, [0.5])     # far too slow to dominate M_4
    rep = check_matrix_equivalence(M, N, 200)
    assert not rep.holds
    assert "no" in rep.notes


def test_matrix_guards():
    M = extended_matrix(2.0, [1.0])
    N = conjugate_matrix(3.0, [1.0])
    with pytest.raises(UsageError):
        check_matrix_equivalence(M, N, 100)
    with pytest.raises(UsageError):
        check_matrix_equivalence(M, extended_matrix(2.0, []), 100)


@pytest.mark.parametrize("p_max", [0, 5, 9])
def test_matrix_equivalence_needs_p_max_of_10(p_max):
    # as ocena-norme: stable_sup reads the drift on p <= p_max/10
    with pytest.raises(UsageError, match=rf"^p_max must lie in \[10, 10000000\], got {p_max}$"):
        check_matrix_equivalence(extended_matrix(2.0, [1.0]), conjugate_matrix(2.0, [1.0]), p_max)


def test_conjugate_matrix_where_h_p_leaves_the_floats():
    N, p = conjugate_matrix(2.0, [1.0, 1e307]), np.arange(1, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^H p leaves the floats at p = 300: sigma=2\.0, H=1e\+307$"):
            N.table(p)
        with pytest.raises(NumericalError, match=r"H=1e\+307$"):
            check_matrix_equivalence(extended_matrix(2.0, [1.0, 2.0]), N, 300)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_corollary_band(s):
    rep = check_corollary(s)
    assert rep.holds
    fc = rep.fitted_constants
    assert fc["band"] <= 10.0
    assert fc["c1"] > 0


def test_corollary_needs_s_above_one():
    # s is checked before any work, so s = inf gives no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, message in ((1.0, "s must exceed 1, got 1.0"), (math.inf, "s must be finite, got inf")):
            with pytest.raises(DomainError) as err:
                check_corollary(s)
            assert str(err.value) == message


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_h_is_checked_before_any_work(h):
    P = SequenceParams(1.0, 2.0)
    for call in (lambda: envelope(P, h, [10.0]), lambda: check_T_phi_equivalence(P, h)):
        with pytest.raises(DomainError, match=rf"^h must be finite and positive, got {h}$"):
            call()


def test_t_phi_equivalence_where_phi_sigma_leaves_the_floats_raises():
    # phi_sigma(ln k) = ln k e^(W(ln k)/(sigma-1)) is inf on the whole grid at sigma = 1 + 1e-7
    with pytest.raises(NumericalError, match=r"^phi_sigma\(ln k\) passes the floats on the k grid "
                                             r"from k = 2\.71828: sigma=1\.0000001$"):
        check_T_phi_equivalence(SequenceParams(1.0, 1.0000001))


@pytest.mark.parametrize("p_max", [3, 9])
def test_ocena_norme_needs_p_max_of_10(p_max):
    # its drift is read on p <= p_max/10
    with pytest.raises(UsageError, match=rf"^p_max must lie in \[10, 10000000\], got {p_max}$"):
        check_ocena_norme(2.0, 1.0, p_max)


@pytest.mark.parametrize("p_max", [0, -1])
def test_slope_band_needs_p_max_of_1(p_max):
    with pytest.raises(UsageError, match=rf"^p_max must lie in \[1, 10000000\], got {p_max}$"):
        slope_band(2.0, 0.5, p_max)


def test_reports_serialize_deterministically():
    a = check_T_phi_equivalence(SequenceParams(1.0, 2.0))._asdict()
    b = check_T_phi_equivalence(SequenceParams(1.0, 2.0))._asdict()
    assert a == b


# -- the slope window of check_ocena_norme -------------------------------------

def _fit_slopes_every_window(sigma, tau, p_max):
    """The slope fit evaluating every window of the doubling: an oracle only."""
    t_max = 4000.0
    while True:
        t = np.logspace(0.0, math.log10(t_max), 1200)
        T, _ = assoc_sup_grid(t, 0.0, tau, sigma)
        c = T / phi_sigma(sigma, t)
        b, a = float(np.min(c)), float(np.max(c))
        if not b > 0.0:
            raise NumericalError(f"min T(e^t)/phi_sigma(t) on the slope window t <= {t_max:g} is {b!r}, "
                                 f"so there is no H1 = 1/b: tau={tau!r}, sigma={sigma!r}")
        _, t_star = phi_sigma_conjugate(sigma, p_max / b)
        if t_star <= 0.8 * t_max:
            return a, b, t_max
        t_max *= 2.0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# sigma <= 1.2 at small tau raises the 2**53 error in the first window; sigma = 6
# doubles up to 52 times, and at tau = 1e300 past 700 times, into the conjugate's overflow;
# at tau = 300, sigma = 1.01 the window doubles past t = 7749, where phi_sigma passes the floats
# and T/phi_sigma reads 0
_SLOPE_CASES = [*itertools.product([1.01, 1.05, 1.2, 2.0, 6.0], [0.05, 0.5, 50.0], [300, 1000]),
                (6.0, 1e300, 1000), (1.01, 300.0, 1000), (2.0, 0.5, 0), (2.0, 0.5, -1)]


def test_skipping_windows_leaves_the_slope_fit_bit_identical():
    got = [_outcome(equivalence._fit_slopes_extended, *case) for case in _SLOPE_CASES]
    want = [_outcome(_fit_slopes_every_window, *case) for case in _SLOPE_CASES]
    assert got == want
    raised = [w for w in want if isinstance(w[0], type)]
    assert {w[0].__name__ for w in raised} == {"NumericalError", "DomainError"}     # p_max < 0: DomainError
    assert any("2**53" in w[1] for w in raised) and any("overflows" in w[1] for w in raised)
    assert ("min T(e^t)/phi_sigma(t) on the slope window t <= 8000 is 0.0, so there is no H1 = 1/b: "
            "tau=300.0, sigma=1.01") in [w[1] for w in raised]


def test_the_default_pass_evaluates_one_window_per_fit(monkeypatch):
    calls = []
    monkeypatch.setattr(equivalence, "assoc_sup_grid",
                        lambda *args: calls.append(args[0][-1]) or assoc_sup_grid(*args))
    # ocena-norme, then matrix-equivalence's tau/2, tau, 2 tau, 4 tau: 4 + 1 + 2 + 3 + 4
    # windows of the doubling, one of them evaluated per fit
    for tau, p_max, windows in ((1.0, 1000, 4), (0.5, 300, 1), (1.0, 300, 2), (2.0, 300, 3),
                                (4.0, 300, 4)):
        calls.clear()
        t_max = equivalence._fit_slopes_extended(2.0, tau, p_max)[2]
        assert t_max == 4000.0 * 2 ** (windows - 1)
        assert calls == [pytest.approx(t_max, rel=1e-12)]


def test_slope_band_gives_the_indices_of_ocena_norme():
    band = slope_band(2.0, 1.0, 1000)
    assert (band.a, band.b, band.t_max) == equivalence._fit_slopes_extended(2.0, 1.0, 1000)
    assert band.H1 == 1.0 / band.b and band.H2 == 1.0 / band.a
    fc = check_ocena_norme(2.0, 1.0, 1000).fitted_constants
    assert (fc["H1"], fc["H2"]) == (band.H1, band.H2)
    with pytest.raises(DomainError):
        slope_band(1.0, 1.0, 300)


def test_the_window_test_reads_phi_prime_in_closed_form():
    # t*(y) > t0 exactly when y > phi_sigma'(t0) = e^(w/(s-1)) (s-1+s w)/((s-1)(1+w)), w = W(t0)
    for sigma, t0 in itertools.product([1.01, 1.2, 2.0, 6.0], [1e-3, 1.0, 3200.0, 1e8, 1e40]):
        s1 = sigma - 1.0
        w = lambert_w0(t0)
        if w / s1 > 700.0:
            continue        # phi_sigma'(t0) past the float range: the window runs
        y = math.exp(w / s1) * (s1 + sigma * w) / (s1 * (1.0 + w))
        assert phi_sigma_conjugate(sigma, y * (1 + 1e-9))[1] > t0
        assert phi_sigma_conjugate(sigma, y * (1 - 1e-9))[1] < t0
        assert phi_sigma_conjugate(sigma, y)[1] == pytest.approx(t0, rel=1e-9)
        # the window's test reads the same slope in log form, without the Newton call
        assert _ln_phi_slope(w, s1) == pytest.approx(math.log(y), rel=1e-14, abs=1e-15)
        assert [equivalence._t_star_past(sigma, y * f, t0) for f in (1 + 1e-9, 1 - 1e-9)] == [True, False]


def test_the_window_test_keeps_the_conjugate_outside_its_closed_form_range():
    # y <= 1 has t* = 0; a negative or infinite y and one past the overflow raise as the Newton call does
    assert equivalence._t_star_past(2.0, 1.0, 0.0) is False
    assert equivalence._t_star_past(2.0, 0.0, 1e-300) is False
    for y, error in ((-1.0, DomainError), (math.inf, DomainError), (1e150, NumericalError)):
        with pytest.raises(error):
            equivalence._t_star_past(3.0, y, 1e6)


def test_a_default_pass_makes_no_scalar_conjugate_call(monkeypatch):
    """Every slope window, skipped or evaluated, takes the closed-form test. The
    matrix check takes one stable_sup call a direction, after ocena-norme's two."""
    scalar_calls, sup_shapes = [], []
    conj, sup = equivalence.phi_sigma_conjugate, equivalence.stable_sup

    def counted_conj(sigma, y):
        if np.ndim(y) == 0:
            scalar_calls.append(y)
        return conj(sigma, y)

    def counted_sup(p, values):
        sup_shapes.append(np.shape(values))
        return sup(p, values)

    monkeypatch.setattr(equivalence, "phi_sigma_conjugate", counted_conj)
    monkeypatch.setattr(equivalence, "stable_sup", counted_sup)
    assert cli.verify_report()[1] == 0
    assert scalar_calls == []
    # ocena-norme's two rows, then one (|A|, |B|, p) table per direction
    assert sup_shapes[2:] == [(4, 5, 163)] * 2 and len(sup_shapes) == 4


def test_the_conjugate_matrix_table_equals_its_members_one_by_one():
    def one_by_one(sigma, Hs, p):
        # log N^H_p = phi*(H p) / H, one phi_sigma_conjugate call per member
        def member(H):
            _check_positive("H", H)
            log_M = lambda q: phi_sigma_conjugate(sigma, H * q)[0] / H
            return LogWeightSequence("conjugate_generated", log_M, {"H": H})
        return [member(H).log_M(p) for H in Hs]

    p = default_p_grid(300)
    for sigma in (1.05, 2.0, 6.0):
        Hs = [8.0, 0.125, 3.6390532111798644, 0.5, 0.125]
        got, want = conjugate_matrix(sigma, Hs).table(p), one_by_one(sigma, Hs, p)
        assert got.shape == (len(Hs), p.size)
        assert all(row.tobytes() == w.tobytes() for row, w in zip(got, want))
    for Hs, p, error in (([1.0, -1.0], p, DomainError), ([1.0], [1.5], RangeError),
                         ([1.0, 1e300], p, NumericalError)):
        with pytest.raises(error) as one_call:
            conjugate_matrix(2.0, Hs).table(p)
        with pytest.raises(error) as member_by_member:
            one_by_one(2.0, Hs, p)
        assert str(one_call.value) == str(member_by_member.value)


@pytest.mark.parametrize("H", [0.0, -1.0, math.nan, math.inf])
def test_conjugate_matrix_needs_a_finite_positive_h(H):
    with pytest.raises(DomainError, match=rf"^H must be finite and positive, got {H}$"):
        conjugate_matrix(2.0, [1.0, H])


def _matrix_check_pair_by_pair(A, B, p_max):
    """check_matrix_equivalence with one stable_sup call per pair of members:
    an oracle only."""
    p = default_p_grid(p_max)
    pf = p.astype(np.float64)
    tA = A.table(p)
    tB = B.table(p)
    fitted, notes, holds, worst = {}, [], True, -math.inf
    for direction, sign in (("<=", 1.0), (">=", -1.0)):
        for ia, fa in zip(A.indices, tA):
            best = None
            for ib, fb in zip(B.indices, tB):
                sup, _, stable = stable_sup(p, sign * (fa - fb) / pf)
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
    return equivalence.EquivalenceReport(
        "matrix-equivalence",
        f"p in [1, {p_max}]; probe {A.family}{list(A.indices)} vs reservoir {B.family}{list(B.indices)}",
        fitted, holds, worst if math.isfinite(worst) else 0.0, "; ".join(notes))


def test_one_array_pass_per_direction_matches_the_pair_by_pair_check():
    cases = []
    for sigma, tau in itertools.product([1.2, 2.0, 6.0], [0.05, 1.0, 5.0]):
        M = extended_matrix(sigma, [tau / 2, tau, 2 * tau, 4 * tau])
        N = conjugate_matrix(sigma, [0.125, 0.5, 1.0, 2.0, 8.0])
        cases += [(M, N, 300), (N, M, 300), (M, M, 200)]
    # a reservoir with no admissible partner: notes set, holds False
    cases.append((extended_matrix(2.0, [4.0, 1.0]), conjugate_matrix(2.0, [0.5]), 200))
    for A, B, p_max in cases:
        got = check_matrix_equivalence(A, B, p_max)._asdict()
        want = _matrix_check_pair_by_pair(A, B, p_max)._asdict()
        assert got == want and repr(got) == repr(want)      # repr tells -0.0 from 0.0
    assert not got["holds"] and got["notes"].startswith("no N_sigma member")
