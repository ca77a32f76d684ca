"""Exact-arithmetic toolkit for three-fold divisorial contraction data:
graded dimension counting, weighted-order analysis of polynomial germs,
and toric verification of weighted blow-ups of cyclic quotient germs."""

from .blowup import (BlowupReport, ChartFinding, CIGerm, DimensionError,
                     analyze_blowup, chart_singularities, model_germ,
                     verify_blowup_profile)
from .dimensions import (CorrectionProfile, DimensionTable, InconsistencyError,
                         WellDefinednessError,
                         check_decomposition, correction_profile,
                         degree_points, graded_dimension, solve_correction)
from .linalg import smith_normal_form
from .models import (CD2Model, CheckResult, ValidationReport,
                     blowup_vector, check_required_monomials, generate_model,
                     model_equations, model_weights, required_monomials,
                     validate_model)
from .polynomials import (SparsePoly, detect_square_form, is_semi_invariant,
                          poly_from_dict, poly_to_dict, polynomial_sqrt,
                          weighted_order)
from .quotients import (ChartGroup, ChartReport, LatticeError,
                        QuotientType, blowup_charts, effective_factors,
                        reid_tai_is_canonical, reid_tai_is_terminal)

__version__ = "0.1.0"
