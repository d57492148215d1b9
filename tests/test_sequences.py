import math
import tracemalloc

import numpy as np
import pytest

from extgevrey import (
    DomainError,
    NumericalError,
    RangeError,
    SequenceParams,
    UsageError,
    check_condition,
    check_liminf_condition,
    LogWeightSequence,
    default_p_grid,
    extended_gevrey,
    gevrey,
    lemma_quotient_bounds,
    stable_sup,
)
from extgevrey import sequences
from extgevrey.sequences import P_MAX_CAP, _stable_report

import _reference

PARAM_SET = [(t, s) for t in (0.5, 1.0, 2.0) for s in (1.5, 2.0, 3.0)]


def test_params_validation():
    with pytest.raises(DomainError):
        SequenceParams(-1.0, 2.0)
    with pytest.raises(DomainError):
        SequenceParams(1.0, 1.0)


def test_log_M_small_values():
    seq = extended_gevrey(SequenceParams(1.0, 2.0))
    assert seq.log_M(0) == 0.0
    assert seq.log_M(1) == 0.0
    # log M_2 = 1 * 2^2 * ln 2
    assert seq.log_M(2) == pytest.approx(4.0 * math.log(2.0), rel=1e-15)
    assert seq.log_M(3) == pytest.approx(9.0 * math.log(3.0), rel=1e-15)


def test_log_M_rejects_bad_p():
    seq = extended_gevrey(SequenceParams(1.0, 2.0))
    with pytest.raises(RangeError):
        seq.log_M(2.5)
    with pytest.raises(RangeError):
        seq.log_M(-1)
    with pytest.raises(RangeError):
        seq.log_m(0)


def test_quotients_sum_to_log_M():
    seq = extended_gevrey(SequenceParams(0.5, 2.5))
    p = np.arange(1, 60)
    assert np.cumsum(seq.log_m(p))[-1] == pytest.approx(seq.log_M(59), rel=1e-12)


def test_gevrey_is_slower_than_extended():
    ext = extended_gevrey(SequenceParams(0.5, 1.5))
    gev = gevrey(3.0)
    p = np.arange(200, 1000)
    assert np.all(ext.log_M(p) - gev.log_M(p) > 0)
    # and (M_p)^{1/p} -> infinity for the extended sequence
    ratio = ext.log_M(p) / p
    assert np.all(np.diff(ratio) > 0)


def test_default_p_grid_shape():
    p = default_p_grid(10_000)
    assert p[0] == 1
    assert p[-1] == 10_000
    assert np.all(np.diff(p) > 0)
    assert np.array_equal(p[:128], np.arange(1, 129))


def _p_grid_with_unique(p_max, dense_to=128, per_decade=100):
    """default_p_grid deduped by np.unique: the reference for its adjacent-compare dedupe."""
    if p_max <= dense_to:
        return np.arange(1, p_max + 1, dtype=np.int64)
    dense = np.arange(1, dense_to + 1, dtype=np.int64)
    n = max(2, int(per_decade * math.log10(p_max / dense_to)))
    sparse = np.unique(np.round(np.logspace(math.log10(dense_to), math.log10(p_max), n)).astype(np.int64))
    return np.unique(np.concatenate([dense, sparse]))


@pytest.mark.parametrize("p_max", [1, 3, 127, 128, 129, 300, 1000, 10_000, 12_345, 10 ** 6, 10 ** 7])
@pytest.mark.parametrize("per_decade", [30, 100])
def test_default_p_grid_matches_the_unique_based_grid(p_max, per_decade):
    got = default_p_grid(p_max, per_decade=per_decade)
    want = _p_grid_with_unique(p_max, per_decade=per_decade)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stable_sup_flags_growth():
    p = default_p_grid(1000)
    sup, arg, stable = stable_sup(p, 1.0 / p)
    assert (sup, arg, stable) == (1.0, 1, True)
    sup, arg, stable = stable_sup(p, np.log(p.astype(float)))
    assert not stable
    assert arg == 1000


def test_stable_sup_on_one_row_equals_its_row_of_a_table():
    # the 1-D path decides in Python floats, the N-D one in numpy
    p = default_p_grid(1000)
    rows = np.random.default_rng(3).normal(size=(11, p.size))
    rows[1, -1] = 50.0                      # a late sup: unstable
    rows[2, -1] = rows[2].max() + 0.005     # late, within 1%: stable
    rows[3, 5] = rows[4, -3] = math.nan     # a NaN sup, early and late
    rows[5, 2] = rows[6, -2] = math.inf
    rows[7] = -math.inf
    rows[8] = 1.0                           # ties: the first attains the sup
    rows[9, :5] = math.nan                  # NaN where the early max is taken
    rows[10, -1] = -rows[10, -1]
    for q in (p, np.array([7, 8, 9])):      # with early points, and with none
        v = rows[:, :q.size]
        sups, args, stables = stable_sup(q, v)
        for row, sup, arg, stable in zip(v, sups.tolist(), args.tolist(), stables.tolist()):
            got = stable_sup(q, row)
            assert [type(x) for x in got] == [float, int, bool]
            assert (repr(got[0]), got[1], got[2]) == (repr(sup), arg, stable)


def _m2_tilde_every_ordered_pair(params, p_max):
    """~M.2 over the full (p, q) table, both orders of each pair: an oracle only."""
    seq = extended_gevrey(params)
    big = extended_gevrey(SequenceParams(2.0 ** (params.sigma - 1.0) * params.tau, params.sigma))
    p = default_p_grid(p_max, per_decade=30)
    pf = p.astype(np.float64)
    fsum, fbig = seq.log_M(p[:, None] + p[None, :]), big.log_M(p)
    v = (fsum - fbig[:, None] - fbig[None, :]) / (pf[:, None] ** params.sigma + pf[None, :] ** params.sigma)
    return _stable_report("~M.2", p_max, np.maximum(p[:, None], p[None, :]).ravel(), [v.ravel()])


@pytest.mark.parametrize("tau", [0.05, 1.0, 50.0])
@pytest.mark.parametrize("sigma", [1.01, 1.2, 2.0, 6.0])
def test_m2_tilde_on_unordered_pairs_equals_every_ordered_pair(tau, sigma):
    P = SequenceParams(tau, sigma)
    for p_max in (300, 10_000):
        got = check_condition("~M.2", P, p_max)
        assert repr(got) == repr(_m2_tilde_every_ordered_pair(P, p_max))


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_condition_suite_holds(tau, sigma):
    params = SequenceParams(tau, sigma)
    for name in ("M.1", "~M.2'", "~M.2", "M.3'", "~M.4'", "M.0"):
        assert check_condition(name, params, 3000).holds, name
    # ~M.4 against the sequence at 2 tau, ~M.5 against the one at sigma + 1
    assert check_condition("~M.4", params, 3000).holds
    assert check_condition("~M.5", params, 3000).holds


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_classical_m2_fails_with_witness(tau, sigma):
    rep = check_condition("M.2-classical", SequenceParams(tau, sigma), 10_000)
    assert not rep.holds
    assert rep.witness is not None and rep.witness <= 100


# (holds, fitted_constant, witness) of each "there is a C" condition at
# p_max = 10 000, stable and unstable branches alike
_PINNED_REPORTS = {
    (0.05, 1.2): {
        "~M.2'": (True, 0.07962170260800419, None),
        "~M.2": (True, 0.03981085130400227, None),
        "~M.4": (False, 14677.970923699566, 10000),
        "~M.4'": (False, -14677.970923699566, 10000),
        "~M.5": (False, 146808765.89651024, 10000),
        "M.0": (False, -63046.7442054578, 10000),
    },
    (0.05, 2.0): {
        "~M.2'": (True, 0.13862943611198905, None),
        "~M.2": (True, 0.06931471805599468, None),
        "~M.4": (False, 23263016.19611361, 10000),
        "~M.4'": (False, -23263016.19611361, 10000),
        "~M.5": (False, 232676213662.99597, 10000),
        "M.0": (True, -11.927551918982402, None),
    },
    (1.0, 2.0): {
        "~M.2'": (True, 2.772588722239781, None),
        "~M.2": (True, 1.3862943611198928, None),
        "~M.4": (True, 0.6931471805599453, None),
        "~M.4'": (True, -0.6931471805599453, None),
        "~M.5": (True, 2.772588722239781, None),
        "M.0": (True, -0.0, None),
    },
}


@pytest.mark.parametrize("tau,sigma", list(_PINNED_REPORTS))
def test_condition_reports_are_pinned(tau, sigma):
    params = SequenceParams(tau, sigma)
    for name, want in _PINNED_REPORTS[(tau, sigma)].items():
        rep = check_condition(name, params, 10_000)
        assert (rep.holds, rep.fitted_constant, rep.witness) == want, name
        assert rep.p_range == (1, 10_000)
        # the sign of a zero constant survives too: M.0's sup at tau=1, sigma=2 is +0.0
        assert math.copysign(1.0, rep.fitted_constant) == math.copysign(1.0, want[1]), name


@pytest.mark.parametrize("name", ["m1", "(M.1)", "M.9"])
def test_a_condition_is_named_by_its_report_label_alone(name):
    labels = "M.1, ~M.2', ~M.2, M.2-classical, M.3', ~M.4, ~M.4', ~M.5, M.0"
    with pytest.raises(UsageError) as err:
        check_condition(name, SequenceParams(1.0, 2.0), 100)
    assert str(err.value) == f"unknown condition {name!r}: one of {labels}"


def test_condition_usage_errors():
    params = SequenceParams(1.0, 2.0)
    with pytest.raises(UsageError):
        check_condition("M.9", params)
    with pytest.raises(UsageError, match="^this condition needs extended Gevrey parameters$"):
        check_condition("M.1", None)


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_liminf_condition(tau, sigma):
    seq = extended_gevrey(SequenceParams(tau, sigma))
    rep = check_liminf_condition(seq, 3, 10_000)
    assert rep.holds
    assert rep.fitted_constant > 0
    # every log m_3p - log m_p is positive, and the tail increases
    p = default_p_grid(10_000)
    p = p[p >= 2]
    r = seq.log_m(3 * p) - seq.log_m(p)
    assert np.all(r > 0) and np.all(np.diff(r[p > p.max() / 10]) > 0)


@pytest.mark.parametrize("Q", [1, 0, -4, 2.5, math.nan, math.inf])
def test_liminf_needs_an_integer_q_of_2(Q):
    with pytest.raises(UsageError, match=rf"^Q must be an integer >= 2, got {Q}$"):
        check_liminf_condition(extended_gevrey(SequenceParams(1.0, 2.0)), Q)


def test_liminf_bounds_q_times_p_max_before_it_evaluates():
    # log m_(Q p) is taken up to p = Q p_max, which must not pass the sequence index limit
    seen = []
    seq = LogWeightSequence("recording", lambda p: seen.append(p) or np.zeros_like(p))
    with pytest.raises(UsageError, match=r"^Q \* p_max must be at most 1000000000, the largest "
                                         r"sequence index, got Q=100001, p_max=10000$"):
        check_liminf_condition(seq, 100_001, 10_000)
    assert seen == []
    assert check_liminf_condition(extended_gevrey(SequenceParams(1.0, 2.0)), 100_000, 10_000).holds


def test_liminf_fails_for_constant_quotients():
    # M_p = 1: every quotient is 1, so log m_Qp - log m_p is 0, never positive
    constant = LogWeightSequence("constant_quotient", lambda p: np.zeros_like(p))
    rep = check_liminf_condition(constant, 3, 1000)
    assert not rep.holds


@pytest.mark.parametrize("tau,sigma", PARAM_SET)
def test_lemma_quotient_bounds(tau, sigma):
    rep = lemma_quotient_bounds(SequenceParams(tau, sigma), 10_000)
    assert rep.passed
    assert rep.witness is None and rep.p_range == (2, 10_000)


def test_lemma_bounds_where_the_upper_bound_leaves_the_floats():
    # log m_10 = 1.1e307, and its upper bound tau p^(s-1) ln(e p^s) passes the floats: it holds there
    rep = lemma_quotient_bounds(SequenceParams(2.037533394864031e+31, 275.3805505967718), 10)
    assert rep.passed and math.isfinite(rep.max_upper_violation) and rep.max_upper_violation < 0.0
    # at p_max = 2 no upper bound is a float, and no violation is left to report
    with pytest.raises(NumericalError, match=r"^the upper bound on log m_p leaves the floats at every p <= 2: "
                                             r"tau=1.8254443044360363e\+224, sigma=275.3805505967718$"):
        lemma_quotient_bounds(SequenceParams(1.8254443044360363e+224, 275.3805505967718), 2)


def test_tiny_tau_where_p_to_the_sigma_alone_passes_the_floats():
    # 6^400 = 1.8e311 overflows, tau 6^400 = 1.8e11 does not: log m_6 and log M_6 are finite, and
    # so are the lemma's bounds on p <= 10; where p^sigma ln h passes the floats, ~M.4 names that
    P = SequenceParams(1e-300, 400.0)
    seq = extended_gevrey(P)
    for p in (6, 10):
        assert _reference.rel(seq.log_m(p), _reference.log_m(p, 1e-300, 400.0)) <= 1e-12
        assert _reference.rel(seq.log_M(p), _reference.log_M(p, 1e-300, 400.0)) <= 1e-12
    assert lemma_quotient_bounds(P, 10).passed
    with pytest.raises(NumericalError, match=r"^the sup of ~M.4 is inf at p = 6, past the floats: "
                                             r"tau=1e-300, sigma=400.0$"):
        check_condition("~M.4", P, 10)


def _peak_of(fn):
    """The traced peak memory of fn(), which must raise UsageError."""
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="p_max must lie in"):
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("call", [
    lambda p_max: check_condition("M.1", SequenceParams(1.0, 2.0), p_max),
    lambda p_max: check_condition("M.3'", SequenceParams(1.0, 2.0), p_max),
    lambda p_max: check_liminf_condition(extended_gevrey(SequenceParams(1.0, 2.0)), 3, p_max),
    lambda p_max: lemma_quotient_bounds(SequenceParams(1.0, 2.0), p_max),
])
def test_p_max_past_its_cap_is_refused_before_allocating(call):
    # one past the cap and far past it: the dense arrays over [1, p_max] are never built
    for p_max in (P_MAX_CAP + 1, 10 ** 12):
        assert _peak_of(lambda: call(p_max)) < 2 ** 16


def test_lemma_bounds_reject_an_empty_range():
    with pytest.raises(UsageError, match=r"^p_max must lie in \[2, 10000000\], got 1$"):
        lemma_quotient_bounds(SequenceParams(1.0, 2.0), 1)


def test_classical_m2_rejects_an_empty_range():
    # it compares M_2p with M_p for p = 2 .. p_max/2
    with pytest.raises(UsageError, match=r"^p_max must lie in \[4, 10000000\], got 3$"):
        check_condition("M.2-classical", SequenceParams(1.0, 2.0), 3)


def test_stable_sup_reduces_along_the_last_axis():
    p = default_p_grid(1000)
    rows = np.stack([1.0 / p, np.log(p.astype(float)), np.sin(p), -1.0 / p,
                     np.where(p == 500, np.nan, 1.0), np.where(p > 900, np.inf, 0.0)])
    table = np.stack([rows, rows[::-1]])
    sups, args, stables = stable_sup(p, table)
    assert sups.shape == args.shape == stables.shape == (2, 6)
    for idx in np.ndindex(2, 6):
        sup, arg, stable = stable_sup(p, table[idx])
        assert repr((sup, arg, stable)) == repr((float(sups[idx]), int(args[idx]), bool(stables[idx])))


def test_a_non_finite_sup_is_unstable():
    p = default_p_grid(1000)
    # NaN or inf before and inside the last decade of p, and a row that is -inf throughout
    rows = [np.where(p == at, bad, 1.0 / p) for bad in (np.nan, np.inf) for at in (1, 50, 1000)]
    for values in rows + [np.full(p.shape, -np.inf)]:
        assert stable_sup(p, values)[2] is False


@pytest.mark.parametrize("name", ["~M.2'", "~M.4", "~M.5"])
def test_conditions_past_the_float_range_do_not_hold(name):
    # at tau = 1e305, log M_p leaves the floats from p = 24 on and log m_p (which ~M.2'
    # reads) from p = 43 on: no report on inf or NaN
    params = SequenceParams(1e305, 2.0)
    what, p = ("log m_p", 43) if name == "~M.2'" else ("log M_p", 24)
    msg = rf"^{what} of the extended_gevrey sequence leaves the floats at p = {p}: tau=1e\+305, sigma=2\.0$"
    with pytest.raises(NumericalError, match=msg):
        check_condition(name, params, 10_000)


def test_values_past_the_float_range_raise():
    seq = extended_gevrey(SequenceParams(1.0, 200.0))
    for what, fn in (("log M_p", seq.log_M), ("log m_p", seq.log_m)):
        with pytest.raises(NumericalError, match=rf"^{what} .* at p = 35: tau=1\.0, sigma=200\.0$"):
            fn(np.arange(1, 41))
        assert np.isfinite(fn(np.arange(1, 35))).all()
    # the other sequences name their parameter; their quotients are differences of log M_p
    msg = r"^log m_p of the {} sequence leaves the floats at p = {}: {}$"
    with pytest.raises(NumericalError, match=msg.format("gevrey", 4, r"t=1e\+308")):
        gevrey(1e308).log_m([1, 4])
    H = 0.5
    exp_generated = LogWeightSequence("conjugate_generated", lambda p: np.exp(H * p) / H, {"H": H})
    with pytest.raises(NumericalError, match=msg.format("conjugate_generated", 2000, r"H=0\.5")):
        exp_generated.log_m([1, 2000])      # e^1000
    # one built without parameters names its kind alone
    with pytest.raises(NumericalError, match=r"^log M_p of the bare sequence leaves the floats at p = 2$"):
        LogWeightSequence("bare", lambda p: np.where(p > 1, np.inf, 0.0)).log_M([1, 2])


def test_m1_catches_a_dip_below_the_old_second_difference_slack(monkeypatch):
    # at tau = 0.05, sigma = 1.01 log m_p rises by about 6e-7 a step near p = 9e4, where
    # 1e-9 |log M_p| is about 6e-5: a dip of 1e-5 in log m_(p+1) passed a test of second
    # differences of log M_p with that slack, and fails the comparison of quotients
    params, p0, dip = SequenceParams(0.05, 1.01), 90_000, 1e-5
    true = extended_gevrey(params)
    dipped = LogWeightSequence("dipped", lambda p: true.fn(p) + dip * (p == p0), None,
                               lambda p: true.m_fn(p) + dip * ((p == p0) - 1.0 * (p == p0 + 1)))
    step = true.log_m(p0 + 1) - true.log_m(p0)
    assert 0.0 < step < dip < 1e-9 * true.log_M(p0)
    assert check_condition("M.1", params, 100_000).holds
    monkeypatch.setattr(sequences, "extended_gevrey", lambda _: dipped)
    rep = check_condition("M.1", params, 100_000)
    assert (rep.holds, rep.witness) == (False, p0)


def test_the_first_unstable_row_decides_a_condition_report():
    p = default_p_grid(1000)
    stable, growing = 1.0 / p, np.log(p.astype(float))
    rows = [stable, 2.0 * growing, growing, 3.0 * stable]
    rep = sequences._stable_report("X", 1000, p, rows, sign=-1.0)
    assert (rep.holds, rep.fitted_constant, rep.witness) == (False, -2.0 * math.log(1000), 1000)
    rep = sequences._stable_report("X", 1000, p, [stable, 3.0 * stable, 2.0 * stable])
    assert (rep.holds, rep.fitted_constant, rep.witness) == (True, 3.0, None)
