"""Cyclic-skew-cyclic sum-rank-metric codes with certified distance bounds.

The package builds finite-field towers, skew and bivariate polynomial rings,
linear codes with sum-rank weights, tensor products of cyclic and
skew-cyclic codes, and BCH / Hartmann-Tzeng / Roos style lower-bound
certificates on the minimum sum-rank distance, validated against an
exhaustive distance oracle at desk scale.
"""

from .bivar import BivarPoly, biv_mul, ev_az, ev_total, nu_inverse, nu_map, psi_map
from .bounds import (
    BoundCertificate,
    BoundParams,
    DefiningSetView,
    SearchLimits,
    bch_check,
    best_bound_search,
    ht_check,
    lrs_generator_matrix,
    roos_check,
    selection_rank_oracle,
)
from .codes import (
    LinearCode,
    Partition,
    code_from_skew_generator,
    enumeration_budget,
    hamming_weight,
    is_cyclic_skew_cyclic,
    min_distance_bruteforce,
    phi_shift,
    rho_shift,
    sumrank_weight,
)
from .errors import SumrankError
from .skew import SkewPoly, ev_beta, right_divide, right_divides, right_evaluate, sigma_eval
from .tower import FieldTower, build_tower, find_normal_element, is_normal, primitive_ell_root

__version__ = "1.0.0"
