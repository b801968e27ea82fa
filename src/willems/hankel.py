"""Hankel / mosaic-Hankel construction and collective persistency of excitation.

The depth-d Hankel matrix of a length-T sequence of q-vectors stacks all
length-d windows as columns: block (i, j) is sample ``f[i + j]``, giving a
``(d * q) x (T - d + 1)`` matrix. A mosaic-Hankel matrix concatenates the
per-trajectory Hankel matrices horizontally. A set of input sequences is
collectively persistently exciting (PE) of order d when the depth-d input
mosaic has full row rank.
"""

from __future__ import annotations

import logging

import numpy as np

from .lti import TrajectorySet
from .numerics import numerical_rank

__all__ = ["hankel", "mosaic_hankel", "is_collectively_pe", "pe_order"]

log = logging.getLogger(__name__)


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


def is_collectively_pe(data: TrajectorySet, d: int) -> bool:
    """Collective persistency of excitation of order d on the input channel.

    Returns False (rather than raising) when some trajectory is shorter
    than d, since such data cannot be PE of that order.
    """
    if d < 1:
        raise ValueError(f"order must be positive, got {d}")
    short = [i for i, t in enumerate(data) if t.length < d]
    if short:
        log.debug("PE order %d impossible: trajectories %s shorter than d", d, short)
        return False
    mosaic = mosaic_hankel(data, d, "inputs")
    return numerical_rank(mosaic) == mosaic.shape[0]


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
