"""Numerics for extended Gevrey weight sequences: Lambert W, associated
functions, Young conjugates, weight-function axioms and the equivalence
checks relating them.
"""

from .errors import (DivergenceError, DomainError, NumericalError, RangeError,
                     UsageError)
from .lambertw import (OMEGA, WEvaluation, check_w3_bounds, check_w_identities,
                       evaluate_w, lambert_w0, lambert_w0_grid)
from .sequences import (ConditionReport, LogWeightSequence, SequenceParams,
                        check_condition, check_liminf_condition,
                        constant_quotient, conjugate_generated, default_p_grid,
                        extended_gevrey, gevrey, lemma_quotient_bounds,
                        stable_sup)
from .assocfn import (AssocFnResult, assoc_fn_counting, assoc_fn_counting_grid,
                      assoc_fn_sup, assoc_fn_sup_grid, counting_fn_direct,
                      counting_fn_floor, envelope, h_shift_check, rfactor,
                      sandwich_bounds_check)
from .conjugate import (AxiomReport, ConjugateTable, WeightFn, biconjugate,
                        bmt_log_power, bmt_quotient, check_weight_axioms,
                        conjugate_table, corollary_weight, custom_weight,
                        integral_closed_form_check, lambert_weight,
                        log_composition, phi_sigma, phi_sigma_conjugate,
                        phi_weight, power_weight, young_conjugate)
from .equivalence import (EquivalenceReport, MatrixHandle, SlopeBand,
                          check_T_phi_equivalence, check_corollary,
                          check_matrix_equivalence, check_ocena_norme,
                          conjugate_matrix, default_k_grid, extended_matrix,
                          slope_band)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DivergenceError", "DomainError", "NumericalError", "RangeError", "UsageError",
    "OMEGA", "WEvaluation", "check_w3_bounds", "check_w_identities",
    "evaluate_w", "lambert_w0", "lambert_w0_grid",
    "ConditionReport", "LogWeightSequence", "SequenceParams",
    "check_condition", "check_liminf_condition", "constant_quotient",
    "conjugate_generated", "default_p_grid", "extended_gevrey", "gevrey",
    "lemma_quotient_bounds", "stable_sup",
    "AssocFnResult", "assoc_fn_counting", "assoc_fn_counting_grid",
    "assoc_fn_sup", "assoc_fn_sup_grid", "counting_fn_direct",
    "counting_fn_floor", "envelope", "h_shift_check", "rfactor",
    "sandwich_bounds_check",
    "AxiomReport", "ConjugateTable", "WeightFn", "biconjugate",
    "bmt_log_power", "bmt_quotient", "check_weight_axioms", "conjugate_table",
    "corollary_weight", "custom_weight", "integral_closed_form_check",
    "lambert_weight", "log_composition", "phi_sigma", "phi_sigma_conjugate",
    "phi_weight", "power_weight", "young_conjugate",
    "EquivalenceReport", "MatrixHandle", "check_T_phi_equivalence",
    "check_corollary", "check_matrix_equivalence", "check_ocena_norme",
    "conjugate_matrix", "default_k_grid", "extended_matrix", "SlopeBand",
    "slope_band",
]
