"""Dense linear-algebra kernels: rank, least squares, orthonormal bases, subspaces.

Every rank decision follows one policy, applied by `svd_rank`: a singular
value counts as nonzero when it exceeds ``max(rows, cols) * eps *
sigma_max``, the cutoff of ``numpy.linalg.matrix_rank``. The routines are
SVD-backed, with one exception that decides the same way:
`gram_certifies_full_rank` proves full rank under that cutoff by a shifted
Cholesky factorization of a Gram matrix, far cheaper than an SVD, and when
it cannot prove it the caller asks the SVD. Membership and equality of
computed subspaces are decided by projection residuals against
`DEFAULT_RESIDUAL_RTOL`. Matrices are plain 2-D ``numpy`` arrays; vectors
are 1-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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
_EPS = np.finfo(float).eps


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a finite float 2-D array.

    A 1-D input is treated as a single column.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return `v` as a finite float 1-D array."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_square(m, name: str) -> np.ndarray:
    """`as_matrix` of `m`, which must be square. Outside ``__all__``, like
    `as_bound`."""
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
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


def _relative_cutoff(shape) -> float:
    return max(shape) * _EPS


def svd_rank(s, shape) -> int:
    """Number of the descending singular values `s` of a matrix of `shape`
    strictly above the cutoff ``max(shape) * eps * s[0]``; 0 when `s` is
    empty."""
    return int((s > _relative_cutoff(shape) * s[:1]).sum())


def pseudo_inverse_parts(a):
    """(U_r, s_r, V_r) of the float matrix `a`, cut at the rank `svd_rank`
    gives, the rank ``numpy.linalg.lstsq`` uses; `a` may have no rows or no
    columns, and numpy's SVD then returns empty factors. Outside
    ``__all__``, like `svd_rank`."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = svd_rank(s, a.shape)
    return u[:, :rank], s[:rank], vt[:rank].T


def rank_margin(m) -> tuple[int, float, float]:
    """`numerical_rank` of `m`, with the margin of that count: the ratio
    sigma_min / sigma_1 of its extreme singular values (0 for a zero or
    empty matrix) and the relative cutoff ``max(shape) * eps`` that the
    ratio is compared against. Outside ``__all__``, like `svd_rank`."""
    a = as_matrix(m)
    if a.size == 0:
        return 0, 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    ratio = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return svd_rank(s, a.shape), ratio, _relative_cutoff(a.shape)


def gram_certifies_full_rank(a: np.ndarray) -> bool:
    """True when a Cholesky factorization proves that the float matrix `a`,
    r x c, has full rank k = min(r, c) under the cutoff of `svd_rank`; False
    decides nothing, and the caller then asks the SVD. Outside ``__all__``,
    like `svd_rank`.

    `a` is scaled by the power of two that puts max|a| in [1/2, 1), which is
    exact and keeps the Gram entries from overflowing or underflowing. The
    scaled copy replaces `a`, so an argument the caller passes without
    keeping it is freed at once. The k x k Gram matrix G of the short side
    (a a^T when r <= c, else a^T a) is formed by one product, the scaled copy
    is freed before the factorization, which holds two k x k copies of its
    own, and the answer is True when the Cholesky factorization of G - s*I
    succeeds, with s = 2 (r + c + 2) eps trace(G).

    Why s proves what the SVD would report. Let u = eps/2,
    gamma_j = j u / (1 - j u), l = max(r, c) and t the computed trace of G,
    which is ||a||_F^2 (1 + O(l u)). Three rounding errors separate the
    factorized matrix from the exact Gram matrix H of the scaled `a`:

    - forming G: every entry is an inner product of length l, so
      G = H + E1 with |E1| <= gamma_l |a| |a|^T (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., §3.5; for a^T a read
      |a|^T |a|), and ||E1||_2 <= gamma_l ||a||_F^2;
    - the shift: each diagonal entry is rounded once, so
      M = fl(G - s I) = G - s I + E2 with ||E2||_2 <= u t;
    - the factorization: a Cholesky that runs to completion on M returns R
      with R^T R = M + E3 and |E3| <= gamma_{k+1} |R^T| |R| (Higham,
      Thm 10.3). As ||R||_F^2 = trace(M + E3), this gives
      ||E3||_2 <= gamma_{k+1} t (1 + O(k u)).

    Entries of the scaled matrix or of the products that underflow add at
    most 2^-1075 each, nothing next to u t >= u/4. Since R^T R is positive
    semidefinite and l + k = r + c, H = R^T R - E3 + s I - E2 - E1 has

        sigma_k(a)^2 >= s - (r + c + 2) u t (1 + O((r + c) u)) >= s / 2,

    the last step because s = 4 (r + c + 2) u t leaves a factor of two to
    spare (Rump, "Verification of positive definiteness", BIT 46, 2006).
    With t >= sigma_1^2 this reads sigma_k / sigma_1 >= sqrt((r + c + 2) eps),
    far above the cutoff's max(r, c) eps: the ratio of the two exceeds
    10^4 for any matrix with fewer than 10^7 rows plus columns, far more
    than the rounding error of a backward-stable SVD. So a certified True
    is a True of the SVD too, and a failed factorization decides nothing:
    no verdict that falls back to the SVD differs from it.
    """
    rows, cols = a.shape
    _, e = np.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))
    a = np.ldexp(a, -e)
    gram = a @ a.T if rows <= cols else a.T @ a
    # freed before the factorization, which holds two k x k copies of its own
    del a
    gram.flat[:: gram.shape[0] + 1] -= 2 * (rows + cols + 2) * _EPS * gram.trace()
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(m) -> int:
    """Number of singular values strictly above the rank cutoff."""
    return rank_margin(m)[0]


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


def orthonormal_image(m) -> np.ndarray:
    """Orthonormal basis of the numerical column space of `m`.

    Returns an ``rows x rank`` matrix; a zero matrix yields zero columns.
    """
    return pseudo_inverse_parts(as_matrix(m))[0]


def right_kernel(m) -> np.ndarray:
    """Orthonormal basis of the numerical right kernel of `m`."""
    a = as_matrix(m)
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a)
    return vt[svd_rank(s, a.shape) :].T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^n.

    `basis` is an ``n x r`` matrix with orthonormal columns (``r`` may be 0).
    """

    n: int
    basis: np.ndarray

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


def subspace_from_columns(m) -> SubspaceBasis:
    """Subspace spanned by the columns of `m` (orthonormalized)."""
    basis = orthonormal_image(m)
    return SubspaceBasis(basis.shape[0], basis)


def subspace_sum(*spaces: SubspaceBasis) -> SubspaceBasis:
    """Sum (span of the union) of subspaces of a common ambient space."""
    if not spaces:
        raise ValueError("need at least one subspace")
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise ValueError("ambient dimensions differ")
    return subspace_from_columns(np.hstack([s.basis for s in spaces]))


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


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True iff the two subspaces coincide up to projection residual
    `DEFAULT_RESIDUAL_RTOL`."""
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    if a.dim != b.dim:
        return False
    return subspace_gap(a, b) <= DEFAULT_RESIDUAL_RTOL


def subspace_contains(space: SubspaceBasis, vector) -> bool:
    """Membership test by projection residual, relative to the vector norm
    (at most `DEFAULT_RESIDUAL_RTOL`).

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
    return residual <= DEFAULT_RESIDUAL_RTOL * norm
