"""Exact and asymptotic yield computations for entanglement concentration.

The package computes, for a pure bipartite state given by its squared
Schmidt coefficients: the optimal single-copy concentration probability and
protocol, exact n-copy success probabilities through the method of types,
the four asymptotic yield-versus-exponent curves with their inverses, the
probability/fidelity conversion bounds, and reproducible experiment
harnesses tying the finite-n numbers to the asymptotic formulas.
"""

__version__ = "0.1.0"

from .errors import (
    ConcentrationError,
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptySpectrumError,
    EpsTooLargeError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveExponentError,
    NotASpectrumError,
    NotNormalizedError,
    RateOutOfRangeError,
    SizeOrderError,
    SizeOutOfRangeError,
    SolverError,
    TiltOutOfRangeError,
    TooManyTypesError,
    TTooSmallError,
)
from .spectra import (
    SchmidtSpectrum,
    TiltedFamilyPoint,
    divergence_from_uniform,
    new_spectrum,
    relative_entropy,
    shannon_entropy,
    solve_tilts,
    tensor,
    tilted,
    tilted_point,
)
from .finite import (
    ConcentrationPlan,
    deterministic_yield,
    optimal_probability,
    post_measurement_spectrum,
    solve_plan,
)
from .method_of_types import (
    count_types,
    lattice_logs,
    type_matrix,
)
from .iid import (
    ExponentSample,
    GroupedSpectrum,
    exact_success_prob,
    exponent_sweep,
    grouped_spectrum,
)
from .rates import (
    NonAdditivityReport,
    RateCurvePoint,
    RPrimeResult,
    brute_force_curves,
    converse_curve,
    converse_yield,
    direct_curve,
    direct_yield,
    fidelity_converse_yield,
    fidelity_direct_yield,
    inverse_converse,
    inverse_direct,
    nonadditivity_report,
    r_prime,
)
from .fidelity import (
    FidelityConversionCheck,
    RecoveryBoundCheck,
    best_fidelity_to_target,
    fidelity_to_prob_params,
    recovery_bound,
    prob_to_fidelity,
    verify_fidelity_conversion,
    verify_recovery_bound,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    run_check_suite,
    run_convergence,
    run_nonadditivity,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
