"""Every record of the library is a named tuple: its fields, their order and
defaults, read-only fields and its dict forms."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from extgevrey import (DomainError, SequenceParams, assoc_fn_sup, check_condition,
                       check_T_phi_equivalence, check_w3_bounds, check_w_identities,
                       check_weight_axioms, conjugate_table, default_k_grid, evaluate_w,
                       extended_gevrey, extended_matrix, lemma_quotient_bounds,
                       power_weight, sandwich_bounds_check, slope_band)
from extgevrey.conjugate import integral_closed_form_check

_GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_default.json").read_text())["claims"]
_P = SequenceParams(1.0, 2.0)       # the default point of `extgevrey verify`

# (name, fields in order, defaults, a default-point instance)
RECORDS = [
    ("SequenceParams", ("tau", "sigma"), {}, lambda: _P),
    ("LogWeightSequence", ("kind", "fn", "params", "m_fn"), {"params": None, "m_fn": None},
     lambda: extended_gevrey(_P)),
    ("ConditionReport", ("condition", "p_range", "holds", "fitted_constant", "witness"),
     {"fitted_constant": None, "witness": None}, lambda: check_condition("M.0", _P, 10_000)),
    ("LemmaBoundsReport", ("params", "p_range", "passed", "max_lower_violation",
                           "max_upper_violation", "witness"),
     {"witness": None}, lambda: lemma_quotient_bounds(_P, 2, 10_000)),
    ("BracketReport", ("x", "w", "lower", "upper", "ok", "passed"), {},
     lambda: check_w3_bounds(np.logspace(math.log10(math.e), 15, 200))),
    ("IdentityReport", ("x", "identity_err", "ratio", "eps_band", "ok", "passed"), {},
     lambda: check_w_identities(np.logspace(0.5, 10, 100))),
    ("WEvaluation", ("x", "w", "residual", "iterations"), {}, lambda: evaluate_w(1.0)),
    ("AssocFnResult", ("value", "argmax_p", "method"), {}, lambda: assoc_fn_sup(_P, 1.0, 1e5)),
    ("SandwichReport", ("params", "h", "k", "T", "E", "A1", "B1", "A2", "B2", "ratio_lo",
                        "ratio_hi", "holds"),
     {}, lambda: sandwich_bounds_check(_P, 1.0, default_k_grid())),
    ("WeightFn", ("name", "fn"), {}, lambda: power_weight(1.0)),
    ("ConjugateTable", ("y", "t_star", "phi_star"), {},
     lambda: conjugate_table(lambda t: t * t, [1.0, 2.0])),
    ("AxiomReport", ("name", "alpha", "beta", "gamma", "delta", "details"), {},
     lambda: check_weight_axioms(power_weight(1.0))),
    ("IntegralCheckReport", ("params", "C", "k", "quadrature", "closed_form", "rel_err", "passed"),
     {}, lambda: integral_closed_form_check(_P, 1.0, np.logspace(0.5, 8, 25))),
    ("EquivalenceReport", ("claim", "grids", "fitted_constants", "holds", "max_violation", "notes"),
     {"notes": ""}, lambda: check_T_phi_equivalence(_P)),
    ("SlopeBand", ("a", "b", "t_max", "H1", "H2"), {}, lambda: slope_band(2.0, 1.0, 1000)),
    ("MatrixHandle", ("family", "sigma", "indices", "make"), {},
     lambda: extended_matrix(2.0, [0.5, 1.0])),
]

# the dict forms at the default point, as the hand-written to_dict/fitted of the
# dataclass records gave them (the verify ones are in the golden report)
DICT_FORMS = {
    "ConditionReport": (lambda r: r.to_dict(), _GOLDEN["m0"]["details"]),
    "SandwichReport": (lambda r: r.fitted(), _GOLDEN["sandwich"]["details"]),
    "EquivalenceReport": (lambda r: r._asdict(), _GOLDEN["t-phi-equivalence"]["details"]),
}


@pytest.mark.parametrize("name, fields, defaults, make", RECORDS, ids=[r[0] for r in RECORDS])
def test_every_record_is_a_named_tuple(name, fields, defaults, make):
    rec = make()
    cls = type(rec)
    assert cls.__name__ == name and isinstance(rec, tuple)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert rec == tuple(rec)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    if name in DICT_FORMS:
        as_dict, want = DICT_FORMS[name]
        assert as_dict(rec) == want


@pytest.mark.parametrize("tau, sigma, message", [
    (0, 2.0, "tau must be positive, got 0"),
    (-1, 2.0, "tau must be positive, got -1"),
    (math.nan, 2.0, "tau must be positive, got nan"),
    (1.0, 1, "sigma must exceed 1, got 1"),
    (1.0, 0.5, "sigma must exceed 1, got 0.5"),
    (1.0, math.nan, "sigma must exceed 1, got nan"),
    (math.inf, 2.0, "tau must be finite, got inf"),
    (-math.inf, 2.0, "tau must be positive, got -inf"),
    (1.0, math.inf, "sigma must be finite, got inf"),
    (math.inf, math.inf, "tau must be finite, got inf")])
def test_sequence_params_rejects_what_it_rejected(tau, sigma, message):
    for build in (lambda: SequenceParams(tau, sigma),
                  lambda: SequenceParams._make((tau, sigma)),
                  lambda: _P._replace(tau=tau, sigma=sigma)):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message
