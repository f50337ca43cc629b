"""Randomized sketch-and-project solvers for consistent linear systems.

The library reformulates a consistent system Ax = b through a
user-chosen SPD weighting B and a distribution over sketching matrices
S, solves it with basic, parallel (minibatch) and accelerated
randomized projection methods, and validates the closed-form
convergence rates that the spectrum of B^{-1/2} E[A'H A] B^{-1/2}
predicts.
"""

from .analysis import (
    MomentEstimates,
    RateFit,
    RatePrediction,
    RecurrenceSolution,
    expected_mean_error,
    fit_rate,
    iterate_recurrence,
    monte_carlo_moments,
    rho_basic,
    rho_parallel,
    solve_recurrence,
    theoretical_rates,
    xi_factor,
)
from .linalg import (
    InconsistentSystemError,
    Problem,
    SpdMatrix,
    b_pseudoinverse,
    pseudoinverse,
    sym_eigendecomposition,
)
from .mmio import ParseError, load_matrix_market, load_vector
from .oracles import SmwInstance, psd_sandwich_residual, range_restricted_eigen_bound, smw_inverse
from .problems import (
    diagonal_problem,
    gaussian_consistent,
    gossip_incidence,
    spd_with_matching_metric,
)
from .reformulation import (
    DegenerateSpectrumError,
    EstimationInfo,
    Reformulation,
    SketchedSystem,
    Spectrum,
    build_reformulation,
    check_exactness,
    expected_Z,
    sketched_projection,
    sketched_system,
    spectrum_of,
    stochastic_gradient,
    stochastic_value,
)
from .sketching import (
    Block,
    Coordinate,
    CountMin,
    CountSketch,
    FixedIdentity,
    Gaussian,
    SketchDistribution,
    SketchSample,
    Support,
    kaczmarz_distribution,
    stream,
)
from .solvers import (
    IterationTrace,
    SolverConfig,
    Workspace,
    acceleration_parameters,
    basic_step,
    parallel_step,
    pathwise_residuals,
    prox_step,
    run_accelerated,
    run_basic,
    run_parallel,
    run_trajectories,
    stepsize_policy,
)

__version__ = "0.1.0"
