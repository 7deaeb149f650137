"""Quadratic stochastic operators on the probability simplex.

Construction, iteration, and dynamical analysis of quadratic stochastic
operators: fixed points and their spectral classification, Lyapunov
monotonicity checks, periodic-orbit and limit-set estimation, invariant-set
probes, contraction measurements, and Cesaro-average ergodicity probes.
"""

from .errors import QsoError
from .simplex import (
    Permutation,
    SimplexPoint,
    center,
    identity_permutation,
    parse_cycles,
    validate_point,
    vertex,
)
from .tensor import (
    CoefficientTensor,
    Trajectory,
    apply_raw,
    build_tensor,
    convex_combine,
    iterate,
    jacobian,
    load_tensor,
    save_tensor,
)
from .families import (
    FamilySpec,
    REGISTRY,
    family_names,
    make,
    make_alpha_combination,
    make_quasi_strict,
    make_regular,
    make_s2,
)
from .scalarmaps import (
    ScalarMapSpec,
    conjugacy_h,
    eval_map,
    f,
    f_alpha,
    iterate_scalar,
    low_period_scan,
    scalar_fixed_point,
)
from .analysis import (
    FixedPointReport,
    LyapunovFn,
    OmegaSet,
    abs_diff_product,
    check_invariant_set,
    check_lyapunov,
    classify_fixed_point,
    combine_lyapunov,
    contraction_report,
    coord_product,
    cycle_product,
    cycle_sum,
    cyclic_product,
    detect_period_tail,
    ergodicity_probe,
    find_fixed_points,
    khukr_m_tau,
    last_coord,
    m0_set,
    m_omega_set,
    max_norm_check,
    omega_estimate,
    periodic_absence_search,
    psi_bound_check,
    sample_interior,
    vallander_diag,
)

__version__ = "0.1.0"
