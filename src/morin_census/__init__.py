"""Singularities of homogeneous polynomial maps C^n -> C^n.

Exact sparse polynomial arithmetic, Morin singularity classification by
iterated Jacobian determinants, properness certificates via Macaulay and
Sylvester resultants, gcd-based finite-determinacy gates, closed-form counts
of 0-stable singularities for n = 4, and Monte-Carlo surveys of random maps.
"""

from .census import (CensusReport, IntegralityError, TruncatedSeries, census,
                     chern_coefficients, chern_series, chern_values,
                     degree_symbols, s_classes, s_classes_symbolic)
from .maps import (ELIGIBLE_GENERIC, HYPOTHESIS_FAILS, INFINITE_RAY, NEVER_FINITE,
                   EligibilityVerdict, HomogeneousMap, coefficient,
                   eligibility_gate, jacobian, jdet, load_map, map_from_dict,
                   map_to_dict, random_map, ray_multiplicity, rest_exponents,
                   save_map, validate_degrees)
from .morin import (GeneralMap, MorinTower, SingularityClass, classify,
                    classify_from_values, corank_at, jet_tower_values,
                    linear_conjugate, morin_tower)
from .polynomials import ANY_DEGREE, COMPLEX, RATIONAL, Polynomial, PolyMatrix, det
from .properness import (INCONCLUSIVE, NOT_PROPER, PROPER, PropernessVerdict,
                         macaulay_matrix, macaulay_resultant_certificate,
                         properness_verdict, sphere_falsifier,
                         sylvester_matrix, sylvester_resultant)
from .sampler import (RootConvergenceError, SectionSolution, SurveyReport,
                      critical_points_on_lines, cusp_points,
                      plane_section_solutions, survey, univariate_roots)

__version__ = "0.1.0"

__all__ = [
    "ANY_DEGREE", "COMPLEX", "RATIONAL", "Polynomial", "PolyMatrix", "det",
    "HomogeneousMap", "EligibilityVerdict", "coefficient", "random_map",
    "jacobian", "jdet", "eligibility_gate", "ray_multiplicity", "INFINITE_RAY",
    "ELIGIBLE_GENERIC", "HYPOTHESIS_FAILS", "NEVER_FINITE", "rest_exponents",
    "validate_degrees", "map_to_dict", "map_from_dict", "save_map", "load_map",
    "GeneralMap", "MorinTower", "SingularityClass", "morin_tower", "classify",
    "corank_at", "jet_tower_values", "classify_from_values", "linear_conjugate",
    "PROPER", "NOT_PROPER", "INCONCLUSIVE", "PropernessVerdict",
    "sylvester_matrix", "sylvester_resultant", "macaulay_matrix",
    "macaulay_resultant_certificate", "sphere_falsifier", "properness_verdict",
    "TruncatedSeries", "CensusReport", "IntegralityError", "degree_symbols",
    "chern_series", "chern_coefficients", "chern_values", "s_classes",
    "s_classes_symbolic", "census",
    "RootConvergenceError", "SectionSolution", "SurveyReport",
    "univariate_roots", "critical_points_on_lines",
    "plane_section_solutions", "cusp_points", "survey",
]
