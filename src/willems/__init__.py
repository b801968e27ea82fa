"""Data-based trajectory analysis for linear systems.

Finite input/output windows of a discrete-time LTI plant can be written as
column combinations of block-Hankel matrices built from recorded data, with
excitation requirements that depend on the minimal polynomial of the state
matrix rather than its dimension, and without assuming controllability.
This package provides the subspace machinery behind that statement, the
window-parameterization checks, a data-driven receding-horizon controller
shown step-for-step equivalent to model-based MPC, and an identification
pipeline for networks of identical agents.
"""

from .hankel import hankel, is_collectively_pe, mosaic_hankel, pe_order
from .lti import (
    LtiSystem,
    Trajectory,
    TrajectorySet,
    random_input,
    random_system,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
    window,
)
from .multiagent import (
    MarkovParams,
    MultiAgentSpec,
    RecoveredSystem,
    analytic_tau_bound,
    build_system,
    collect_trajectories,
    markov_from_data,
    min_trajectory_sweep,
    recover_system,
    star_edges,
    sweep_to_csv,
)
from .numerics import (
    SubspaceBasis,
    least_squares,
    numerical_rank,
    orthonormal_image,
    right_kernel,
    subspace_contains,
    subspace_equal,
    subspace_from_columns,
    subspace_gap,
    subspace_sum,
)
from .parameterize import (
    ParamSolution,
    ResponseOperators,
    build_trajectory_matrix,
    check_corollary1,
    parameterize,
    reconstruct_state,
    response_operators,
    window_target,
)
from .predictive import (
    ClosedLoopLog,
    InfeasibleStep,
    PredictiveConfig,
    deepc_step,
    mpc_step,
    run_closed_loop,
)
from .qp import QpSolution, QuadraticProgram, solve_qp
from .subspace import (
    HypothesisViolated,
    Verdict,
    controllability_matrix,
    controllable_subspace,
    initial_state_matrix,
    krylov_subspace,
    min_poly_degree,
    observability_matrix,
    theorem1_image_check,
    theorem1_state_condition,
    unobservable_subspace,
)

__version__ = "0.1.0"
