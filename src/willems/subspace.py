"""Structural subspaces of an LTI plant and the image/initial-state checks.

Provides the controllable subspace (image of the controllability matrix),
the unobservable subspace (kernel of the stacked observability matrix), the
smallest A-invariant subspace containing given initial states, the degree of
the minimal polynomial of A, and the two data-based checks built on them:
image equality of the stacked state/input data matrix against
``(controllable + invariant-span) x R^{mL}``, and membership of a candidate
initial state in ``controllable + unobservable + invariant-span``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hankel import is_collectively_pe, mosaic_hankel
from .lti import LtiSystem, TrajectorySet
from .numerics import (
    DEFAULT_RESIDUAL_RTOL,
    SubspaceBasis,
    as_matrix,
    as_square,
    as_vector,
    gram_certifies_full_rank,
    numerical_rank,
    power_blocks,
    right_kernel,
    subspace_contains,
    subspace_from_columns,
    subspace_gap,
    subspace_sum,
)

__all__ = [
    "Verdict",
    "HypothesisViolated",
    "ImageCheck",
    "controllability_matrix",
    "observability_matrix",
    "controllable_subspace",
    "unobservable_subspace",
    "krylov_subspace",
    "min_poly_degree",
    "initial_state_matrix",
    "theorem1_image_check",
    "theorem1_state_condition",
]


class Verdict(Enum):
    """Tri-state outcome of a hypothesis-gated check."""

    HOLDS = "holds"
    FAILS = "fails"
    HYPOTHESIS_VIOLATED = "hypothesis_violated"


class HypothesisViolated(RuntimeError):
    """An operation's persistency-of-excitation hypothesis does not hold.

    Raised by operations that cannot produce a result under a violated
    hypothesis (as opposed to checks, which report the tri-state verdict).
    Carries the excitation order that was required.
    """

    def __init__(self, message: str, order_required: int):
        super().__init__(message)
        self.order_required = order_required
        self.verdict = Verdict.HYPOTHESIS_VIOLATED


def draw_until_pe(draw, order: int, attempts: int = 100) -> TrajectorySet:
    """Call ``draw(k)`` for k = 0, 1, ... until the returned trajectory set
    is collectively persistently exciting of `order`, and return that set.

    Raises HypothesisViolated when none of the `attempts` draws is.
    """
    for k in range(attempts):
        data = draw(k)
        if is_collectively_pe(data, order):
            return data
    raise HypothesisViolated(
        f"no input draw reached excitation order {order} in {attempts} draws",
        order,
    )


def controllability_matrix(sys: LtiSystem) -> np.ndarray:
    """``[B, AB, ..., A^{n-1}B]`` of shape ``(n, n*m)``."""
    return np.hstack(power_blocks(sys.A, sys.B, sys.n))


def observability_matrix(sys: LtiSystem) -> np.ndarray:
    """``[C; CA; ...; CA^{n-1}]`` of shape ``(n*p, n)``."""
    return np.hstack(power_blocks(sys.A.T, sys.C.T, sys.n)).T


def controllable_subspace(sys: LtiSystem) -> SubspaceBasis:
    """Image of the controllability matrix."""
    return subspace_from_columns(controllability_matrix(sys))


def unobservable_subspace(sys: LtiSystem) -> SubspaceBasis:
    """Kernel of the stacked observability matrix."""
    return SubspaceBasis(sys.n, right_kernel(observability_matrix(sys)))


def krylov_subspace(A, X0) -> SubspaceBasis:
    """Smallest A-invariant subspace containing the columns of X0.

    Computed as the image of ``[X0, A X0, ..., A^{n-1} X0]``.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    X0 = as_matrix(X0, "X0")
    if X0.shape[0] != n:
        raise ValueError(f"X0 has {X0.shape[0]} rows, expected {n}")
    return subspace_from_columns(np.hstack(power_blocks(A, X0, n)))


def min_poly_degree(A) -> int:
    """Degree of the minimal polynomial of A.

    Smallest d >= 1 with vec(A^d) in span{vec(I), ..., vec(A^{d-1})},
    decided by rank tests on the vectorized powers; by Cayley-Hamilton
    d <= n, so A^n is never formed. Columns are normalized before the rank
    test; this does not change their span but keeps the test meaningful
    when powers of A grow or decay.

    When `numerics.gram_certifies_full_rank` proves that the n normalized
    columns [vec I, ..., vec A^{n-1}] have full column rank, the answer is
    n: the first d + 1 columns have a ratio of extreme singular values at
    least that of all n (by interlacing), far above the cutoff, so the
    scan over prefixes would return n too. Otherwise the scan runs, one
    rank test per prefix.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    stacked = np.empty((n * n, n))
    for k, P in enumerate(power_blocks(A, np.eye(n), n)):
        v = P.reshape(-1)
        norm = np.linalg.norm(v)
        stacked[:, k] = v / norm if norm > 0 else v
    if gram_certifies_full_rank(stacked):
        return n
    rank = 1  # the normalized vec(I)
    for d in range(1, n):
        grown = numerical_rank(stacked[:, : d + 1])
        if grown == rank:
            return d
        rank = grown
    return n


def initial_state_matrix(data: TrajectorySet) -> np.ndarray:
    """``[x0^1, ..., x0^tau]`` collected from state-carrying trajectories."""
    return np.column_stack([traj.channel("states")[0] for traj in data])


def window_start_states(data: TrajectorySet, L: int) -> np.ndarray:
    """The state ``x_j`` starting each length-L window, one column per
    window in the column order of the depth-L mosaic. Outside ``__all__``;
    `parameterize.reconstruct_state` shares it."""
    cols = []
    for i, traj in enumerate(data):
        if traj.length < L:
            raise ValueError(f"trajectory {i} shorter than L={L}")
        cols.append(traj.channel("states")[: traj.length - L + 1].T)
    return np.hstack(cols)


@dataclass(frozen=True)
class ImageCheck:
    """Outcome of the data-image equality check.

    `gap` is the largest mutual projection residual between the two
    subspaces being compared (NaN when the PE hypothesis failed and the
    comparison was not performed).
    """

    verdict: Verdict
    gap: float
    pe_order_required: int
    data_dim: int
    target_dim: int


def theorem1_image_check(
    sys: LtiSystem,
    data: TrajectorySet,
    L: int,
    delta: int | None = None,
) -> ImageCheck:
    """Check that the stacked state/input data matrix has the predicted image.

    The predicted image is ``(R + K[x0^1..x0^tau]) x R^{mL}`` where R is the
    controllable subspace and K the smallest A-invariant subspace containing
    the initial states. The inputs must be collectively PE of order
    ``delta + L`` with ``delta >= min_poly_degree(A)``; when they are not,
    the check reports HYPOTHESIS_VIOLATED instead of a verdict. The
    subspaces are equal when their gap is at most `DEFAULT_RESIDUAL_RTOL`.
    """
    dmin = min_poly_degree(sys.A)
    if delta is None:
        delta = dmin
    elif delta < dmin:
        raise ValueError(f"delta={delta} below minimal-polynomial degree {dmin}")
    order = delta + L
    if not is_collectively_pe(data, order):
        return ImageCheck(Verdict.HYPOTHESIS_VIOLATED, float("nan"), order, -1, -1)
    return pe_image_check(sys, data, L, order)


def pe_image_check(
    sys: LtiSystem, data: TrajectorySet, L: int, order: int
) -> ImageCheck:
    """The image comparison of `theorem1_image_check`, for a caller that
    already knows the inputs to be collectively PE of `order` = delta + L
    with delta at least the degree of the minimal polynomial of A, so that
    neither is computed again."""
    # the state starting each window over the window's inputs
    x_row = window_start_states(data, L)
    data_space = subspace_from_columns(np.vstack([x_row, mosaic_hankel(data, L)]))

    X0 = initial_state_matrix(data)
    rk = subspace_sum(controllable_subspace(sys), krylov_subspace(sys.A, X0))
    mL = sys.m * L
    n = sys.n
    target = np.zeros((n + mL, rk.dim + mL))
    target[:n, : rk.dim] = rk.basis
    target[n:, rk.dim :] = np.eye(mL)
    target_space = SubspaceBasis(n + mL, target)

    gap = subspace_gap(data_space, target_space)
    ok = data_space.dim == target_space.dim and gap <= DEFAULT_RESIDUAL_RTOL
    return ImageCheck(
        Verdict.HOLDS if ok else Verdict.FAILS,
        gap,
        order,
        data_space.dim,
        target_space.dim,
    )


def theorem1_state_condition(sys: LtiSystem, data: TrajectorySet, xbar0) -> bool:
    """Membership of `xbar0` in controllable + unobservable + invariant-span."""
    xbar0 = as_vector(xbar0, "xbar0")
    return subspace_contains(state_condition_space(sys, data), xbar0)


def state_condition_space(sys: LtiSystem, data: TrajectorySet) -> SubspaceBasis:
    """Controllable + unobservable + the smallest A-invariant subspace
    containing the data's initial states: the initial states whose windows
    the data can parameterize."""
    return subspace_sum(
        controllable_subspace(sys),
        unobservable_subspace(sys),
        krylov_subspace(sys.A, initial_state_matrix(data)),
    )
