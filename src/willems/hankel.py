"""Hankel / mosaic-Hankel construction and collective persistency of excitation.

The depth-d Hankel matrix of a length-T sequence of q-vectors stacks all
length-d windows as columns: block (i, j) is sample ``f[i + j]``, giving a
``(d * q) x (T - d + 1)`` matrix. A mosaic-Hankel matrix concatenates the
per-trajectory Hankel matrices horizontally. A set of input sequences is
collectively persistently exciting (PE) of order d when the depth-d input
mosaic has full row rank under the rank cutoff of `numerics.svd_rank`.

`is_collectively_pe` decides that without an SVD in the common case: a
mosaic with fewer columns than rows is rejected by its shape, and a
Cholesky factorization of the shifted Gram matrix of the mosaic certifies
full row rank whenever the smallest singular value clears the cutoff by a
wide margin. Only a verdict that neither settles goes to the values-only
SVD of the mosaic, so every verdict is the one the SVD gives.
"""

from __future__ import annotations

import logging

import numpy as np

from .lti import TrajectorySet
from .numerics import rank_margin

__all__ = ["hankel", "mosaic_hankel", "is_collectively_pe", "pe_order"]

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps


def hankel(f, d: int) -> np.ndarray:
    """Depth-d Hankel matrix of a ``(T, q)`` (or length-T scalar) sequence."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    T, q = arr.shape
    if d < 1:
        raise ValueError(f"depth must be positive, got {d}")
    if d > T:
        raise ValueError(f"depth {d} exceeds sequence length {T}")
    cols = T - d + 1
    out = np.empty((d * q, cols))
    for j in range(cols):
        out[:, j] = arr[j : j + d].reshape(-1)
    return out


def mosaic_hankel(
    data: TrajectorySet, d: int, channel: str = "inputs"
) -> np.ndarray:
    """Horizontal concatenation of per-trajectory depth-d Hankel matrices.

    Columns come in trajectory order; the total column count is
    ``sum(T_i - d + 1)``.
    """
    blocks = []
    for i, traj in enumerate(data):
        seq = traj.channel(channel)
        if d > traj.length:
            raise ValueError(
                f"depth {d} exceeds length {traj.length} of trajectory {i}"
            )
        blocks.append(hankel(seq, d))
    return np.hstack(blocks)


def _gram_certifies_full_rank(data: TrajectorySet, d: int) -> bool:
    """True when a Cholesky factorization of the shifted Gram matrix of the
    scaled depth-d input mosaic succeeds; see `is_collectively_pe` for why
    that proves full row rank."""
    h = mosaic_hankel(data, d, "inputs")
    rows, cols = h.shape
    _, e = np.frexp(max(h.max(), -h.min()))
    np.ldexp(h, -e, out=h)
    gram = h @ h.T
    # freed before the factorization, which holds two r x r copies of its own
    del h
    gram.flat[:: rows + 1] -= 2 * (rows + cols + 2) * _EPS * gram.trace()
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def is_collectively_pe(data: TrajectorySet, d: int) -> bool:
    """Collective persistency of excitation of order d on the input channel.

    True when the depth-d input mosaic H, with r = d*m rows and
    c = sum(T_i - d + 1) columns, has full row rank under the cutoff of
    `numerics.svd_rank`. Returns False (rather than raising) when some
    trajectory is shorter than d, since such data cannot be PE of that
    order. Each step below runs only when the ones before leave the
    verdict open:

    1. Shape: with c < r the SVD can never report rank r, so False.
    2. Certificate: the mosaic is scaled by the power of two that puts
       max|H| in [1/2, 1), which is exact and keeps the Gram entries from
       overflowing or underflowing. G = H H^T is formed by one product of
       the scaled mosaic, which is then freed, and if the Cholesky
       factorization of G - s*I succeeds with s = 2 (r + c + 2) eps
       trace(G), the answer is True.
    3. Fallback: `numerical_rank` of the mosaic, built again unscaled, so
       that the SVD sees the same matrix as without the certificate;
       `numerics.rank_margin` also returns the margin to log.

    Why s proves what the SVD would report. Let u = eps/2,
    gamma_k = k u / (1 - k u) and t the computed trace of G, which is
    ||H||_F^2 (1 + O((r + c) u)). Three rounding errors separate the
    factorized matrix from H H^T:

    - forming G: every entry is an inner product of length c, so
      fl(H H^T) = H H^T + E1 with |E1| <= gamma_c |H| |H|^T (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.5),
      and ||E1||_2 <= gamma_c ||H||_F^2;
    - the shift: each diagonal entry is rounded once, so
      M = fl(G - s I) = G - s I + E2 with ||E2||_2 <= u t;
    - the factorization: a Cholesky that runs to completion on M returns R
      with R^T R = M + E3 and |E3| <= gamma_{r+1} |R^T| |R| (Higham,
      Thm 10.3). As ||R||_F^2 = trace(M + E3), this gives
      ||E3||_2 <= gamma_{r+1} t (1 + O(r u)).

    Entries of the scaled mosaic or of the products that underflow add at
    most 2^-1075 each, nothing next to u t >= u/4. Since R^T R is positive
    semidefinite, H H^T = R^T R - E3 + s I - E2 - E1 has

        sigma_r(H)^2 >= s - (r + c + 2) u t (1 + O((r + c) u)) >= s / 2,

    the last step because s = 4 (r + c + 2) u t leaves a factor of two to
    spare (Rump, "Verification of positive definiteness", BIT 46, 2006).
    With t >= sigma_1^2 this reads sigma_r / sigma_1 >= sqrt((r + c + 2) eps),
    far above the cutoff's max(r, c) eps: the ratio of the two exceeds
    10^4 for any mosaic with fewer than 10^7 rows plus columns, far more
    than the rounding error of a backward-stable SVD. So a certified True
    is a True of the SVD too, and a failed factorization decides nothing:
    the SVD then has the last word, and no verdict differs from it.

    Logs one DEBUG line per call naming the step that decided; after the
    SVD it gives sigma_r / sigma_1 against the cutoff, so a verdict close
    to the cutoff shows as close.
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    short = [i for i, t in enumerate(data) if t.length < d]
    if short:
        log.debug("PE order %d impossible: trajectories %s shorter than d", d, short)
        return False
    rows = d * data[0].m
    cols = sum(length - d + 1 for length in data.lengths)
    if cols < rows:
        log.debug("PE order %d: shape, %d columns < %d rows: False", d, cols, rows)
        return False
    if _gram_certifies_full_rank(data, d):
        log.debug("PE order %d: cholesky certifies %d x %d: True", d, rows, cols)
        return True
    rank, ratio, cutoff = rank_margin(mosaic_hankel(data, d, "inputs"))
    log.debug(
        "PE order %d: svd, sigma_r/sigma_1 = %.3e against cutoff %.3e: %s",
        d,
        ratio,
        cutoff,
        rank == rows,
    )
    return rank == rows


def pe_order(data: TrajectorySet) -> int:
    """Largest order d at which the set is collectively PE; 0 if none.

    PE is monotone in d, so the scan goes downward from the structural
    bound and stops at the first success.
    """
    m = data[0].m
    total_cols = sum(data.lengths)
    # full row rank needs d*m <= sum(T_i - d + 1) and d <= min(T_i)
    d_max = min(data.lengths)
    while d_max > 0 and d_max * m > total_cols - len(data) * (d_max - 1):
        d_max -= 1
    for d in range(d_max, 0, -1):
        if is_collectively_pe(data, d):
            return d
    return 0
