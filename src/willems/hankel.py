"""Hankel / mosaic-Hankel construction and collective persistency of excitation.

The depth-d Hankel matrix of a length-T sequence of q-vectors stacks all
length-d windows as columns: block (i, j) is sample ``f[i + j]``, giving a
``(d * q) x (T - d + 1)`` matrix. A mosaic-Hankel matrix concatenates the
per-trajectory Hankel matrices horizontally. A set of input sequences is
collectively persistently exciting (PE) of order d when the depth-d input
mosaic has full row rank under the rank cutoff of `numerics.svd_rank`.

`is_collectively_pe` decides that without an SVD in the common case: a
mosaic with fewer columns than rows is rejected by its shape, and
`numerics.cholesky_certificate` (where the derivation lives) certifies full
row rank by a Cholesky factorization of the shifted Gram matrix of the
mosaic whenever the smallest singular value clears the cutoff by a wide
margin. Small mosaics are built and their Gram matrix formed by one
product; large ones never are built: their Gram matrix is formed from the
samples through the Hankel structure (`numerics.hankel_certifies_full_rank`).
Only a verdict that neither settles goes to the values-only SVD of the
mosaic, so every verdict is the one the SVD gives.
"""

from __future__ import annotations

import logging

import numpy as np

from .lti import TrajectorySet
from .numerics import (
    as_matrix,
    gram_certifies_full_rank,
    hankel_certifies_full_rank,
    rank_margin,
)

__all__ = ["hankel", "mosaic_hankel", "is_collectively_pe", "pe_order"]

log = logging.getLogger(__name__)

# m r c = r^2 c / d, the work of the product H H^T of an r x c mosaic per
# iteration of `numerics.hankel_gram`'s loop over its d block rows. From
# here on `is_collectively_pe` forms the Gram matrix from the samples: below
# it the loop's per-iteration cost outweighs the work it saves. Measured on
# one CPU with one BLAS thread, the two routes break even between 1.5e5 and
# 2.7e5 for m = 1 .. 8, while r^2 c at break-even ranges from 4e6 (m = 6)
# to 4e7 (m = 1).
_STRUCTURED_GRAM_WORK = 2e5


def sample_windows(arr: np.ndarray, d: int) -> np.ndarray:
    """The T - d + 1 depth-d windows of the (T, q) float array `arr`, one
    per row: row j is the run of d*q values from sample j on, one strided
    view over the C-ordered samples, so its transpose is the depth-d
    Hankel matrix. Outside ``__all__``; `subspace.pe_image_check` shares
    it."""
    T, q = arr.shape
    if d < 1:
        raise ValueError(f"depth must be positive, got {d}")
    if d > T:
        raise ValueError(f"depth {d} exceeds sequence length {T}")
    arr = np.ascontiguousarray(arr)
    step = arr.itemsize
    return np.ndarray(
        (T - d + 1, d * q), float, buffer=arr, strides=(q * step, step)
    )


def hankel(f, d: int) -> np.ndarray:
    """Depth-d Hankel matrix of a ``(T, q)`` (or length-T scalar) sequence."""
    return sample_windows(as_matrix(f, "f"), d).T.copy()


def mosaic_hankel(
    data: TrajectorySet, d: int, channel: str = "inputs"
) -> np.ndarray:
    """Horizontal concatenation of per-trajectory depth-d Hankel matrices.

    Columns come in trajectory order; the total column count is
    ``sum(T_i - d + 1)``. Each trajectory's windows are copied once,
    straight into their columns.
    """
    windows = []
    for i, traj in enumerate(data):
        seq = traj.channel(channel)
        if d > traj.length:
            raise ValueError(
                f"depth {d} exceeds length {traj.length} of trajectory {i}"
            )
        windows.append(sample_windows(seq, d))
    mosaic = np.empty((windows[0].shape[1], sum(len(w) for w in windows)))
    col = 0
    for w in windows:
        mosaic[:, col : col + len(w)] = w.T
        col += len(w)
    return mosaic


def is_collectively_pe(data: TrajectorySet, d: int) -> bool:
    """Collective persistency of excitation of order d on the input channel.

    True when the depth-d input mosaic H, with r = d*m rows and
    c = sum(T_i - d + 1) columns, has full row rank under the cutoff of
    `numerics.svd_rank`. Returns False (rather than raising) when some
    trajectory is shorter than d, since such data cannot be PE of that
    order. Each step below runs only when the ones before leave the
    verdict open:

    1. Shape: with c < r the SVD can never report rank r, so False.
    2. Certificate: `numerics.cholesky_certificate` of the Gram matrix
       H H^T, a shifted Cholesky factorization that, when it succeeds,
       proves sigma_r / sigma_1 >= sqrt((r + c + 2) eps) or more, far above
       the cutoff, so the answer is True; the derivation is beside it. The
       Gram matrix takes one of two routes, by the work m r c of the
       product H H^T per block row:
       - direct, below `_STRUCTURED_GRAM_WORK`: `gram_certifies_full_rank`
         of the mosaic, one product H H^T;
       - structured, from there on: `numerics.hankel_certifies_full_rank`
         of the input samples, O(r (m c + tau r)) work from the mosaic's
         Hankel structure, with H never built.
    3. Fallback: `numerical_rank` of the mosaic; `numerics.rank_margin`
       also returns the margin to log. The direct route keeps the mosaic it
       built for it, and the structured route builds it here, so no verdict
       builds the mosaic twice.

    Logs one DEBUG line per call naming the step that decided and the Gram
    route; a certified True gives the proved lower bound on
    sigma_r / sigma_1, and after the SVD the line gives sigma_r / sigma_1
    against the cutoff, so a verdict close to the cutoff shows as close.
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
    if data[0].m * rows * cols < _STRUCTURED_GRAM_WORK:
        route, mosaic = "direct", mosaic_hankel(data, d, "inputs")
        bound = gram_certifies_full_rank(mosaic)
    else:
        route, mosaic = "structured", None
        bound = hankel_certifies_full_rank([t.inputs for t in data], d)
    if bound:
        log.debug(
            "PE order %d: cholesky of the %s gram certifies %d x %d, "
            "sigma_r/sigma_1 >= %.3e: True",
            d,
            route,
            rows,
            cols,
            bound,
        )
        return True
    if mosaic is None:
        mosaic = mosaic_hankel(data, d, "inputs")
    rank, ratio, cutoff = rank_margin(mosaic)
    log.debug(
        "PE order %d: svd after the %s gram, sigma_r/sigma_1 = %.3e against "
        "cutoff %.3e: %s",
        d,
        route,
        ratio,
        cutoff,
        rank == rows,
    )
    return rank == rows


def pe_order(data: TrajectorySet) -> int:
    """Largest order d at which the set is collectively PE; 0 if none.

    The scan goes downward from min(T_i), the longest window every
    trajectory holds, and returns the first order that passes, so the
    largest passing order. Orders whose mosaic has fewer columns than rows
    are rejected by the shape step of `is_collectively_pe`, without a
    factorization.
    """
    for d in range(min(data.lengths), 0, -1):
        if is_collectively_pe(data, d):
            return d
    return 0
