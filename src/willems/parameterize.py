"""Data-based parameterization of finite input/output windows.

A length-L input/output window is reproduced by the recorded data when the
stacked input/output block-Hankel matrix admits it as a linear combination
of its columns. This module builds that matrix, solves for the combination
coefficients, reconstructs the initial state the combination induces, and
checks the segment-wise consequence: every window of a long trajectory is
reproducible from its own prefix once the prefix inputs are sufficiently
exciting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hankel import is_collectively_pe, mosaic_hankel
from .lti import LtiSystem, Trajectory, TrajectorySet, window
from .numerics import (
    DEFAULT_RESIDUAL_RTOL,
    as_matrix,
    as_vector,
    least_squares,
    power_blocks,
)
from .subspace import Verdict, min_poly_degree, window_start_states

__all__ = [
    "ParamSolution",
    "ResponseOperators",
    "Corollary1Report",
    "build_trajectory_matrix",
    "window_target",
    "parameterize",
    "reconstruct_state",
    "response_operators",
    "check_corollary1",
]


def build_trajectory_matrix(data: TrajectorySet, L: int) -> np.ndarray:
    """Depth-L input mosaic stacked over the depth-L output mosaic.

    Shape ``((m+p)L, sum_i (T_i - L + 1))``. All trajectories must carry
    outputs.
    """
    u_block = mosaic_hankel(data, L, "inputs")
    y_block = mosaic_hankel(data, L, "outputs")
    return np.vstack([u_block, y_block])


def window_target(u_bar, y_bar) -> np.ndarray:
    """Flatten a time-major (L, m) input and (L, p) output window into the
    stacked vector the trajectory matrix acts on. Already-flat vectors pass
    through."""
    u_flat = as_matrix(u_bar, "u_bar").reshape(-1)
    return np.concatenate([u_flat, as_matrix(y_bar, "y_bar").reshape(-1)])


@dataclass(frozen=True)
class ParamSolution:
    """Least-squares combination of data columns reproducing a window.

    `residual_norm` is the absolute residual ``||M g - b||``; the window is
    declared reproducible when it is at most ``DEFAULT_RESIDUAL_RTOL * ||b||``,
    at any scale of the data (g = 0 reproduces a zero window).
    """

    g: np.ndarray
    residual_norm: float
    parameterizable: bool


def parameterize(data: TrajectorySet, u_bar, y_bar) -> ParamSolution:
    """Solve for the minimum-norm combination reproducing the given window.

    `u_bar` may be a time-major (L, m) array or a flat length-mL vector;
    likewise `y_bar` with p channels. The window depth is inferred from the
    flattened lengths and the channel counts of the data.
    """
    target = window_target(u_bar, y_bar)
    u_flat = int(np.asarray(u_bar).size)
    m = data[0].m
    if m == 0 or u_flat % m != 0:
        raise ValueError(f"input window of size {u_flat} does not split into "
                         f"{m} channels")
    L = u_flat // m
    matrix = build_trajectory_matrix(data, L)
    if matrix.shape[0] != target.shape[0]:
        raise ValueError(
            f"window of {target.shape[0]} samples does not match depth-{L} "
            f"data rows ({matrix.shape[0]})"
        )
    g, abs_res = least_squares(matrix, target)
    ok = abs_res <= DEFAULT_RESIDUAL_RTOL * float(np.linalg.norm(target))
    return ParamSolution(g, abs_res, ok)


def reconstruct_state(data: TrajectorySet, g) -> np.ndarray:
    """Initial state induced by a column combination of the data matrix.

    The window depth is inferred from ``len(g)``; the data trajectories must
    carry states. Returns ``sum_j x_j g_j`` over the window-start states.
    """
    g = as_vector(g, "g")
    # g has one entry per column of the depth-L matrix: sum_i (T_i - L + 1)
    L, rest = divmod(sum(data.lengths) + len(data) - g.shape[0], len(data))
    if rest or not 0 < L <= min(data.lengths):
        raise ValueError(
            f"coefficient length {g.shape[0]} matches no window depth for "
            f"this data set"
        )
    return window_start_states(data, L) @ g


@dataclass(frozen=True)
class ResponseOperators:
    """Finite-horizon maps from initial state and stacked inputs to stacked
    outputs: ``y = observability @ x0 + convolution @ u``."""

    observability: np.ndarray
    convolution: np.ndarray


def response_operators(sys: LtiSystem, L: int) -> ResponseOperators:
    """Extended observability matrix and block lower-triangular convolution
    operator for a length-L window."""
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    n, m, p = sys.n, sys.m, sys.p
    obs = np.hstack(power_blocks(sys.A.T, sys.C.T, L)).T
    # impulse blocks, padded with a leading zero block: 0, D, CB, CAB, ...
    markov = np.zeros((L + 1, p, m))
    markov[1] = sys.D
    markov[2:] = obs[: p * (L - 1)].reshape(L - 1, p, n) @ sys.B
    # block (i, j) of the convolution is markov[i - j + 1], zero above the
    # diagonal
    lag = np.arange(L)[:, None] - np.arange(L)[None, :] + 1
    conv = markov[np.maximum(lag, 0)].transpose(0, 2, 1, 3).reshape(p * L, m * L)
    return ResponseOperators(obs, conv)


@dataclass(frozen=True)
class Corollary1Report:
    """Per-window outcome of the segment check.

    `residuals[k]` is the reproduction residual of the window starting at
    time k over the norm of that window (0 for a zero window, which g = 0
    reproduces); empty when the prefix failed its excitation hypothesis.
    """

    verdict: Verdict
    residuals: np.ndarray
    pe_order_required: int

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else float("nan")


def check_corollary1(
    traj: Trajectory,
    T: int,
    L: int,
    sys: LtiSystem | None = None,
    delta: int | None = None,
) -> Corollary1Report:
    """Check every length-L window of `traj` against its length-T prefix.

    The prefix inputs must be PE of order ``delta + L``; `delta` may be given
    directly or derived from `sys` as the minimal-polynomial degree of A.
    Every window, including those overlapping the prefix, is a column of
    the trajectory's own depth-L data matrix, so one least-squares solve
    against the prefix's matrix checks them all. A window holds when its
    relative residual is at most `DEFAULT_RESIDUAL_RTOL`, as in
    `parameterize`.
    """
    if delta is None:
        if sys is None:
            raise ValueError("provide either delta or sys")
        delta = min_poly_degree(sys.A)
    traj.channel("outputs")
    if not 0 < L <= T <= traj.length:
        raise ValueError(f"need 0 < L <= T <= length, got L={L} T={T}")

    prefix = TrajectorySet((window(traj, 0, T),))
    order = delta + L
    if not is_collectively_pe(prefix, order):
        return Corollary1Report(Verdict.HYPOTHESIS_VIOLATED, np.empty(0), order)

    matrix = build_trajectory_matrix(prefix, L)
    targets = build_trajectory_matrix(TrajectorySet((traj,)), L)
    g, _ = least_squares(matrix, targets)
    residuals = np.linalg.norm(matrix @ g - targets, axis=0)
    norms = np.linalg.norm(targets, axis=0)
    residuals[norms > 0] /= norms[norms > 0]
    ok = bool((residuals <= DEFAULT_RESIDUAL_RTOL).all())
    return Corollary1Report(
        Verdict.HOLDS if ok else Verdict.FAILS, residuals, order
    )
