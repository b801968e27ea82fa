"""Structural subspaces of an LTI plant and the image/initial-state checks.

Every A-invariant span comes from `krylov_subspace`, the image of
``[X, AX, ..., A^{n-1}X]``: the controllable subspace R is the Krylov space
of (A, B), and R + K[x0] (K the smallest A-invariant subspace containing
the initial states X0) is the Krylov space of (A, [B X0]), one rank
decision. Also: the unobservable subspace, the degree of the minimal
polynomial of A, and the two data-based checks built on them: image
equality of the stacked state/input data matrix against
``K(A, [B X0]) x R^{mL}``, and membership of a candidate initial state in
``K(A, [B X0]) + unobservable``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hankel import is_collectively_pe, sample_windows
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

log = logging.getLogger(__name__)


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
    """Image of the controllability matrix: the Krylov space of (A, B)."""
    return krylov_subspace(sys.A, sys.B)


def unobservable_subspace(sys: LtiSystem) -> SubspaceBasis:
    """Kernel of the stacked observability matrix."""
    return SubspaceBasis(sys.n, right_kernel(observability_matrix(sys)))


def krylov_subspace(A, X0) -> SubspaceBasis:
    """Smallest A-invariant subspace containing the columns of X0.

    Computed as the image of ``[X0, A X0, ..., A^{n-1} X0]``.
    """
    return subspace_from_columns(krylov_matrix(A, X0))


def krylov_matrix(A, X0) -> np.ndarray:
    """``[X0, A X0, ..., A^{n-1} X0]``, whose image `krylov_subspace` is.
    Outside ``__all__``, like `window_start_states`."""
    A = as_square(A, "A")
    n = A.shape[0]
    X0 = as_matrix(X0, "X0")
    if X0.shape[0] != n:
        raise ValueError(f"X0 has {X0.shape[0]} rows, expected {n}")
    return np.hstack(power_blocks(A, X0, n))


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
        # the bits of np.linalg.norm on a 1-D array, without its dispatch
        norm = math.sqrt(v @ v)
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
    subspaces being compared: exactly 0.0 when a Cholesky certificate
    proved both to be the whole space (see `pe_image_check`), and NaN when
    the PE hypothesis failed and the comparison was not performed.
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

    The predicted image is ``(R + K[x0^1..x0^tau]) x R^{mL}``: R + K, the
    controllable subspace plus the smallest A-invariant subspace containing
    the initial states, is the Krylov space of (A, [B X0]), X0 the initial
    states as columns. The inputs must be collectively PE of order
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
    neither is computed again. It compares the image of the data matrix
    D = [X; H_L(u)], the state starting each window over the window's
    inputs, with the target ``K(A, [B X0]) x R^{mL}``, K(A, [B X0]) the
    image of the Krylov matrix W = [B X0, A [B X0], ..., A^{n-1} [B X0]].

    D and [B X0] are filled into arrays allocated once, in one pass over
    the trajectories: each one's first state, its window start states
    and its input windows (`hankel.sample_windows`) go straight into their
    columns. W is `numerics.power_blocks` of sys.A, which `LtiSystem`
    checked when it was built. The matrices hold the entries, in the
    layout, that `window_start_states`, `hankel.mosaic_hankel`,
    `initial_state_matrix` and `krylov_matrix` give, so each verdict, gap
    and dimension is theirs bit for bit. Two routes decide:

    1. Certificate: when D, (n + mL) x c, has c >= n + mL columns,
       `numerics.gram_certifies_full_rank` is asked of W, n x n (m + tau)
       and so never tall, and then of D. When both certify full row rank,
       both spaces are all of R^{n + mL}: the verdict is HOLDS with both
       dimensions n + mL and a gap of exactly 0.0. W comes first, because
       an uncontrollable plant started at rest fails there, on the smaller
       matrix.
    2. SVD, otherwise: one SVD each of D and W gives both spaces'
       orthonormal bases, and the verdict needs equal dimensions and a gap
       of at most `DEFAULT_RESIDUAL_RTOL`.

    Why the routes agree. A certified True is a True of the SVD (the
    `numerics` module docstring), so on a certified case the SVD route
    would cut both W and D at full rank too: the data basis is a square
    n + mL matrix Q_D, the target basis diag(Q_W, I) another, and both
    dimensions are n + mL. For a square basis Q with ||Q^T Q - I|| <=
    1e-10, which `SubspaceBasis` checks, Q Q^T - I has the same
    eigenvalues as Q^T Q - I, so every column a of the other basis has
    ||a - Q Q^T a|| <= 1e-10 ||a|| plus the rounding of the two products:
    a gap far below `DEFAULT_RESIDUAL_RTOL`, and HOLDS. No verdict or
    dimension differs between the routes; only the gap, which the SVD
    route would have found at rounding level, reads 0.0.

    Logs one DEBUG line per call naming the route that decided: the
    proved lower bounds on sigma_r / sigma_1 of W and D with their shapes,
    or both dimensions and the gap after the SVD.
    """
    n, m, mL = sys.n, sys.m, sys.m * L
    full = n + mL
    D = np.empty((full, sum(max(T - L + 1, 0) for T in data.lengths)))
    BX0 = np.empty((n, m + len(data)))
    BX0[:, :m] = sys.B
    col = 0
    for i, traj in enumerate(data):
        states, w = traj.channel("states"), traj.length - L + 1
        if w < 1:
            raise ValueError(f"trajectory {i} shorter than L={L}")
        D[:n, col : col + w] = states[:w].T
        D[n:, col : col + w] = sample_windows(traj.inputs, L).T
        BX0[:, m + i] = states[0]
        col += w
    W = np.hstack(power_blocks(sys.A, BX0, n))
    if D.shape[1] >= full:
        w_bound = gram_certifies_full_rank(W)
        d_bound = gram_certifies_full_rank(D) if w_bound else 0.0
        if d_bound:
            log.debug(
                "image check: cholesky certifies W %d x %d, sigma_r/sigma_1 "
                ">= %.3e, and D %d x %d, sigma_r/sigma_1 >= %.3e: holds",
                *W.shape,
                w_bound,
                *D.shape,
                d_bound,
            )
            return ImageCheck(Verdict.HOLDS, 0.0, order, full, full)
    data_space = subspace_from_columns(D)
    rk = subspace_from_columns(W)
    target = np.zeros((full, rk.dim + mL))
    target[:n, : rk.dim] = rk.basis
    target[n:, rk.dim :] = np.eye(mL)
    target_space = SubspaceBasis(full, target)

    gap = subspace_gap(data_space, target_space)
    ok = data_space.dim == target_space.dim and gap <= DEFAULT_RESIDUAL_RTOL
    verdict = Verdict.HOLDS if ok else Verdict.FAILS
    log.debug(
        "image check: svd, data dim %d, target dim %d, gap %.3e: %s",
        data_space.dim,
        target_space.dim,
        gap,
        verdict.value,
    )
    return ImageCheck(verdict, gap, order, data_space.dim, target_space.dim)


def theorem1_state_condition(sys: LtiSystem, data: TrajectorySet, xbar0) -> bool:
    """Membership of `xbar0` in controllable + unobservable + invariant-span."""
    xbar0 = as_vector(xbar0, "xbar0")
    return subspace_contains(state_condition_space(sys, data), xbar0)


def state_condition_space(sys: LtiSystem, data: TrajectorySet) -> SubspaceBasis:
    """The Krylov space of (A, [B X0]), X0 the data's initial states, plus
    the unobservable subspace: the initial states whose windows the data
    can parameterize."""
    reachable = krylov_subspace(sys.A, np.hstack([sys.B, initial_state_matrix(data)]))
    return subspace_sum(reachable, unobservable_subspace(sys))
