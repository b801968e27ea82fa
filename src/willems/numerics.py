"""Dense linear-algebra kernels: rank, least squares, orthonormal bases, subspaces.

All routines are SVD-backed and share a single rank-tolerance policy so that
"full row rank" and "image equality" statements remain meaningful in floating
point. Matrices are plain 2-D ``numpy`` arrays; vectors are 1-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankTolerance",
    "SubspaceBasis",
    "as_matrix",
    "as_vector",
    "numerical_rank",
    "least_squares",
    "orthonormal_image",
    "right_kernel",
    "subspace_from_columns",
    "subspace_sum",
    "subspace_gap",
    "subspace_equal",
    "subspace_contains",
]

# Relative tolerance used for subspace membership/equality of *computed* data
# (projection residuals), as opposed to the machine-epsilon rank policy.
DEFAULT_RESIDUAL_RTOL = 1e-8


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a finite float 2-D array.

    A 1-D input is treated as a single column.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return `v` as a finite float 1-D array."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_bound(value, n: int, fill: float, name: str) -> np.ndarray:
    """Per-coordinate bound vector of length `n`.

    ``None`` gives `fill` everywhere and a single value applies to every
    coordinate; NaN entries or any other shape raise ValueError.
    """
    if value is None:
        return np.full(n, fill)
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape == (1,):
        arr = np.full(n, arr[0])
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN")
    return arr


def power_blocks(A, X, count: int) -> list:
    """``[X, A X, ..., A^{count-1} X]``, each block one product from the last."""
    blocks = [X]
    for _ in range(1, count):
        blocks.append(A @ blocks[-1])
    return blocks[:count]


@dataclass(frozen=True)
class RankTolerance:
    """Relative threshold deciding which singular values count as nonzero.

    The absolute cutoff is ``relative * sigma_max``. With ``relative=None``
    the standard policy ``max(rows, cols) * eps`` is used, matching
    ``numpy.linalg.matrix_rank``.
    """

    relative: float | None = None

    def __post_init__(self):
        if self.relative is not None and self.relative < 0:
            raise ValueError("relative tolerance must be nonnegative")

    def absolute(self, shape: tuple[int, int], sigma_max: float) -> float:
        rel = self.relative
        if rel is None:
            rel = max(shape) * np.finfo(float).eps
        return rel * sigma_max


DEFAULT_TOL = RankTolerance()


def numerical_rank(m, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Number of singular values strictly above the resolved cutoff."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = tol.absolute(a.shape, s[0])
    return int(np.sum(s > cutoff))


def least_squares(a, b) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solve of ``a @ x = b``.

    Returns ``(x, residual_norm)`` where `x` minimizes the Frobenius norm of
    ``a @ x - b`` and, among all minimizers, has minimum norm. `b` may be a
    vector or a matrix; the solution has the matching shape.
    """
    a2 = as_matrix(a, "a")
    b_arr = np.asarray(b, dtype=float)
    vector_rhs = b_arr.ndim == 1
    b2 = as_matrix(b_arr, "b")
    if a2.shape[0] != b2.shape[0]:
        raise ValueError(
            f"row mismatch: a has {a2.shape[0]} rows, b has {b2.shape[0]}"
        )
    x, _, _, _ = np.linalg.lstsq(a2, b2, rcond=None)
    residual = float(np.linalg.norm(a2 @ x - b2))
    if vector_rhs:
        x = x.reshape(-1)
    return x, residual


def orthonormal_image(m, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical column space of `m`.

    Returns an ``rows x rank`` matrix; a zero matrix yields zero columns.
    """
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = tol.absolute(a.shape, s[0]) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def right_kernel(m, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical right kernel of `m`."""
    a = as_matrix(m)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    cutoff = tol.absolute(a.shape, s[0]) if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^n.

    `basis` is an ``n x r`` matrix with orthonormal columns (``r`` may be 0);
    `tol` records the rank tolerance used to construct it.
    """

    n: int
    basis: np.ndarray
    tol: RankTolerance = DEFAULT_TOL

    def __post_init__(self):
        b = as_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", b)
        if b.shape[0] != self.n:
            raise ValueError(f"basis has {b.shape[0]} rows, ambient dim is {self.n}")
        r = b.shape[1]
        if r and np.linalg.norm(b.T @ b - np.eye(r)) > 1e-10:
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def subspace_from_columns(m, tol: RankTolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Subspace spanned by the columns of `m` (orthonormalized)."""
    a = as_matrix(m)
    return SubspaceBasis(a.shape[0], orthonormal_image(a, tol), tol)


def subspace_sum(*spaces: SubspaceBasis, tol: RankTolerance | None = None) -> SubspaceBasis:
    """Sum (span of the union) of subspaces of a common ambient space."""
    if not spaces:
        raise ValueError("need at least one subspace")
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise ValueError("ambient dimensions differ")
    if tol is None:
        tol = spaces[0].tol
    stacked = np.hstack([s.basis for s in spaces]) if spaces else np.zeros((n, 0))
    if stacked.shape[1] == 0:
        return SubspaceBasis(n, np.zeros((n, 0)), tol)
    return SubspaceBasis(n, orthonormal_image(stacked, tol), tol)


def subspace_gap(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Largest mutual projection residual between two subspaces.

    Zero iff the spans coincide; symmetric in its arguments. Each basis
    column is unit-norm, so the residuals are already relative.
    """
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    gap = 0.0
    if a.dim:
        res = a.basis - b.basis @ (b.basis.T @ a.basis)
        gap = max(gap, float(np.linalg.norm(res, axis=0).max()))
    if b.dim:
        res = b.basis - a.basis @ (a.basis.T @ b.basis)
        gap = max(gap, float(np.linalg.norm(res, axis=0).max()))
    return gap


def subspace_equal(
    a: SubspaceBasis, b: SubspaceBasis, rtol: float = DEFAULT_RESIDUAL_RTOL
) -> bool:
    """True iff the two subspaces coincide up to projection residual `rtol`."""
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    if a.dim != b.dim:
        return False
    return subspace_gap(a, b) <= rtol


def subspace_contains(
    space: SubspaceBasis, vector, rtol: float = DEFAULT_RESIDUAL_RTOL
) -> bool:
    """Membership test by projection residual, relative to the vector norm.

    The zero vector belongs to every subspace.
    """
    v = as_vector(vector)
    if v.size != space.n:
        raise ValueError(f"vector has dim {v.size}, ambient dim is {space.n}")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return True
    q = space.basis
    residual = np.linalg.norm(v - q @ (q.T @ v))
    return residual <= rtol * norm
