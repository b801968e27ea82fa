"""Dense linear-algebra kernels: rank, least squares, orthonormal bases, subspaces.

Every rank decision follows one policy, applied by `svd_rank`: a singular
value counts as nonzero when it exceeds ``max(rows, cols) * eps *
sigma_max``, the cutoff of ``numpy.linalg.matrix_rank``, on the singular
values of ``numpy.linalg.svd``; `least_squares` solves through the same
cut (`pseudo_inverse_parts`), so no routine asks LAPACK for a rank of its
own. The routines are SVD-backed, with two exceptions that decide the
same way, each far cheaper than an SVD, and when they cannot prove full
rank under that cutoff the caller asks the SVD:

- `cholesky_certificate` proves it by a shifted Cholesky factorization of
  a Gram matrix, which comes with the bound on its rounding error that
  sets the shift, from one product (`gram_certifies_full_rank`) or, for a
  mosaic-Hankel matrix, from its samples (`hankel_certifies_full_rank`),
  one block row at a time, so that a large one is held as one triangle.
  It decides the PE tests of `hankel.is_collectively_pe`, the degree of
  `subspace.min_poly_degree` and, through the Krylov and data matrices,
  Theorem 1's image check `subspace.pe_image_check`;
- `certified_inverse` proves it for a square matrix by the residual of
  its LU inverse, and returns that inverse. It decides the QP faces of
  `qp.Workspace`: once per workspace the empty face's KKT matrix, and for
  every other face the j x j Schur complement of its j pins, from which
  the face's inverse is bordered.

Membership and equality of
computed subspaces are decided by projection residuals against
`DEFAULT_RESIDUAL_RTOL`. Matrices are plain 2-D ``numpy`` arrays; vectors
are 1-D arrays.
"""

from __future__ import annotations

import math
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
# Frobenius norm below which `certified_inverse` decides nothing: squares
# that underflow could have lowered it by more than rounding
_NORM_FLOOR = 2.0**-480
# widest diagonal block `cholesky_certificate` hands np.linalg.cholesky: a
# Gram matrix up to this size is one call, a larger one comes in block rows
# of equal width (`_block_edges`). Narrower blocks cost more in Python and
# products than the memory they save: 96-wide blocks factor identify-net's
# median Gram matrix, r = 348, in 3.7 ms against 2.5 ms for one call, and
# 256-wide ones, which split it in two, lower identify-net's peak RSS by
# 2.9 MB but raise its op_ms_p50 by 10-30% (one CPU, one BLAS thread)
_CHOLESKY_BLOCK = 384
# rows below which `_substitute` works row by row instead of by halves
_SUBSTITUTION_ROWS = 32


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a finite float 2-D array.

    A 1-D input is treated as a single column.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"'{name}' must be 2-D, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"'{name}' contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return `v` as a finite float 1-D array."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"'{name}' contains non-finite entries")
    return a


def as_square(m, name: str) -> np.ndarray:
    """`as_matrix` of `m`, which must be square. Outside ``__all__``, like
    `as_bound`."""
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"'{name}' must be square, got {a.shape}")
    return a


def as_symmetric(m, name: str) -> np.ndarray:
    """`as_square` of `m` symmetrized as (m + m')/2, which leaves a
    symmetric matrix's bits alone. `m` must be symmetric within 1e-10 of
    its largest entry, so a matrix passes or fails at every scale alike.
    Outside ``__all__``, like `as_bound`."""
    a = as_square(m, name)
    if np.abs(a - a.T).max(initial=0.0) > 1e-10 * np.abs(a).max(initial=0.0):
        raise ValueError(f"'{name}' is not symmetric")
    return (a + a.T) / 2


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
        raise ValueError(f"'{name}' has shape {arr.shape}, expected ({n},)")
    if np.isnan(arr).any():
        raise ValueError(f"'{name}' contains NaN")
    return arr


def empty_box(lo, hi) -> bool:
    """Whether no value meets ``lo <= x <= hi`` on some coordinate of the
    bound vectors `lo` and `hi`: lo > hi, lo = +inf or hi = -inf there.
    Outside ``__all__``, like `as_bound`."""
    return bool(((lo > hi) | (lo == np.inf) | (hi == -np.inf)).any())


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
    gives, the cut `least_squares` solves through; `a` may have no rows or
    no columns, and numpy's SVD then returns empty factors. Outside
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


def power_of_two_scaled(a: np.ndarray) -> np.ndarray:
    """A new array: `a` times the power of two that puts max|a| in
    [1/2, 1), which is exact and keeps the entries of its Gram matrix from
    overflowing or underflowing. Outside ``__all__``, like `svd_rank`."""
    # math.frexp gives np.frexp's exponent without its dispatch
    _, e = math.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))
    return np.ldexp(a, -e)


def cholesky_certificate(block_rows, kappa: float, t: float) -> float:
    """Proved lower bound on sigma_k / sigma_1 of a matrix A of rank cutoff
    ``max(rows, cols) * eps`` whose k x k Gram matrix G (A A^T or A^T A)
    was formed in floating point with ``||G - A A^T||_2 <= kappa u t``
    (1 + O(kappa u)), where u = eps/2 and t = ||A||_F^2; 0.0 when the
    certificate decides nothing, and the caller then asks the SVD. Outside
    ``__all__``, like `svd_rank`.

    `block_rows` yields G one block row at a time, on the edges
    `_block_edges` gives for k: block row [lo, hi) as a (hi - lo) x (k - lo)
    array whose upper triangle holds G[lo:hi, lo:]. Only that triangle is
    read. Each block row is overwritten by R's rows before the next is asked
    for, so a caller that forms them on demand (`hankel_gram`) never holds
    G whole. The factorization is left-looking (Higham, §10.1 and §13.1):
    each block row takes one product from each finished block row above it,
    the factor of its diagonal block from np.linalg.cholesky, and
    `_substitute` for R's entries right of that block. The last diagonal
    block is only tested. A Gram matrix up to `_CHOLESKY_BLOCK` is one
    block row, so one np.linalg.cholesky call.

    The diagonal of G is shifted down by s = 2 (kappa + k + 2) eps t', with
    t' = `t` as computed, t (1 + O(n u)) for some n with n u far below 1:
    the trace of G on the direct route, a sum over the samples
    (`hankel_kappa`) on the structured one. The certificate holds when the
    Cholesky factorization of the shifted matrix succeeds; it then proves
    sigma_k / sigma_1 >= sqrt((kappa + k + 2) eps).

    Why. Three rounding errors separate the factorized matrix from the
    exact Gram matrix H = A A^T:

    - forming it: G = H + E1 with ||E1||_2 <= kappa u t, the bound the
      caller vouches for (`gram_certifies_full_rank` and
      `hankel_certifies_full_rank` derive theirs);
    - the shift: each diagonal entry is rounded once, so
      M = fl(G - s I) = G - s I + E2 with ||E2||_2 <= u t;
    - the factorization: a Cholesky that runs to completion on M returns R
      with R^T R = M + E3 and |E3| <= gamma_{k+1} |R^T| |R| (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3;
      gamma_j = j u / (1 - j u)). As ||R||_F^2 = trace(M + E3), this gives
      ||E3||_2 <= gamma_{k+1} t (1 + O(k u)). The proof of Thm 10.3 asks
      only that each entry of R be computed by the formula
      r_ij = (m_ij - sum_{p < i} r_pi r_pj) / r_ii, and r_jj as the square
      root of m_jj - sum_{p < j} r_pj^2, with the inner product evaluated
      in any order (Higham, Lemma 8.4 and §10.1). The block rows do just
      that: the products from the finished block rows, np.linalg.cholesky
      of the diagonal block and the substitution each subtract a partial
      sum of that inner product, by conventional
      products, fused multiply-adds or not, so the bound holds unchanged
      (Higham, §13.1). An explicit inverse of a diagonal block, or a
      Strassen-type product, would not satisfy it.

    Entries that underflow add at most 2^-1075 per operation, nothing next
    to u t when A was scaled by `power_of_two_scaled` (then t >= 1/4).
    Since R^T R is positive semidefinite, H = R^T R - E3 + s I - E2 - E1 has

        sigma_k(A)^2 >= s - (kappa + k + 2) u t (1 + O((kappa + k) u))
                     >= s / 2,

    the last step because s = 4 (kappa + k + 2) u t' leaves a factor of
    two to spare (Rump, "Verification of positive definiteness", BIT 46,
    2006). With t >= sigma_1^2 this reads sigma_k / sigma_1 >=
    sqrt((kappa + k + 2) eps). Both Gram routes have kappa + k >= r + c,
    so the bound is at least sqrt((r + c + 2) eps), far above the cutoff's
    max(r, c) eps: the ratio of the two exceeds 10^4 for any matrix with
    fewer than 10^7 rows plus columns, far more than the rounding error of
    a backward-stable SVD. So a certified True is a True of the SVD too,
    and a failed factorization decides nothing: no verdict that falls back
    to the SVD differs from it.
    """
    k = 0
    # R's rows above the block row, each right of its own diagonal block
    panels = []
    for block in block_rows:
        h, w = block.shape
        k = k or w  # the first block row spans every column
        # entries i (w + 1), i < h, in row-major order: the diagonal, as
        # h <= w
        block.flat[:: w + 1] -= 2 * (kappa + k + 2) * _EPS * t
        for panel in panels:
            lo = panel.shape[1] - w
            # by pieces of at most _CHOLESKY_BLOCK columns, so that no
            # product is wider than a diagonal block
            for c in range(0, w, _CHOLESKY_BLOCK):
                block[:, c : c + _CHOLESKY_BLOCK] -= (
                    panel[:, lo : lo + h].T
                    @ panel[:, lo + c : lo + c + _CHOLESKY_BLOCK]
                )
        try:
            # the transpose's lower triangle, which np.linalg.cholesky
            # reads, is the upper triangle of the diagonal block
            lower = np.linalg.cholesky(block[:, :h].T)
        except np.linalg.LinAlgError:
            return 0.0
        if h < w:
            # R's diagonal block overwrites the block's, and its copy is
            # freed before the substitution, which reads the transpose's
            # lower triangle
            block[:, :h] = lower.T
            del lower
            _substitute(block[:, :h].T, block[:, h:])
            panels.append(block[:, h:])
    return math.sqrt((kappa + k + 2) * _EPS)


def _block_edges(k: int) -> list:
    """Edges of the block rows `cholesky_certificate` factors a k x k Gram
    matrix in: as few as keep each at most `_CHOLESKY_BLOCK` wide, of equal
    width within one."""
    blocks = -(-k // _CHOLESKY_BLOCK)
    return [k * j // blocks for j in range(blocks + 1)]


def _substitute(lower: np.ndarray, panel: np.ndarray) -> None:
    """Overwrite `panel` with lower^-1 panel, `lower` lower triangular and
    nonsingular, by forward substitution: row i becomes
    x_i = (panel_i - sum_{j < i} lower_ij x_j) / lower_ii, its inner
    product summed in pieces, by halves of the rows and then row by row
    below `_SUBSTITUTION_ROWS`. No inverse is formed."""
    k = len(lower)
    if k > _SUBSTITUTION_ROWS:
        h = k // 2
        _substitute(lower[:h, :h], panel[:h])
        panel[h:] -= lower[h:, :h] @ panel[:h]
        _substitute(lower[h:, h:], panel[h:])
        return
    for i in range(k):
        panel[i] -= lower[i, :i] @ panel[:i]
        panel[i] /= lower[i, i]


def certified_inverse(a: np.ndarray) -> np.ndarray | None:
    """``numpy.linalg.inv(a)`` of the square float matrix `a`, k x k, when
    its residual proves sigma_k / sigma_1 >= k eps, full rank under the
    cutoff k eps of `svd_rank`; None when the LU factorization fails or
    the proof does not hold, and the caller then asks the SVD. Outside
    ``__all__``, like `svd_rank`.

    Let X be the computed inverse and R = a X - I. When ||R||_2 < 1,
    a X is nonsingular, so a is, and a^-1 = X (I + R)^-1 gives
    ||a^-1||_2 <= ||X||_2 / (1 - ||R||_2) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 14), and with
    ||.||_2 <= ||.||_F,

        sigma_k / sigma_1 >= (1 - ||R||_2) / (||a||_F ||X||_F).

    R is known only as its computed value R' = fl(fl(a X) - I). The
    product errs by at most gamma_k |a| |X| entrywise, for any summation
    order (Higham, §3.5), and subtracting I rounds each diagonal entry
    once, by at most u |R'| (u = eps/2). As || |a| |X| ||_F <=
    ||a||_F ||X||_F and gamma_k <= k eps,

        ||R||_2 <= (||R'||_F + k eps ||a||_F ||X||_F) (1 + 2u).

    The three norms are computed as n_r, n_a and n_x, each an inner
    product of length k^2 and a square root, so within a relative
    gamma_{k^2} < 2^-12 of the true one for k <= 2^20. With

        rho = 2 (n_r + k eps n_a n_x)

    that gives ||R||_2 <= rho (1 + 2^-10) / 2 <= rho and
    ||a||_F ||X||_F <= n_a n_x (1 + 2^-10), so the proof holds when

        rho < 1/2  and  (1 - rho) / (2 n_a n_x) >= k eps,

    the last factor of two covering the rounding of the test itself.
    Underflow adds at most 2^-1074 per operation: nothing next to
    k eps n_a n_x, which is at least k eps / 2 when rho < 1/2 (then
    n_a n_x >= ||a X||_F / (1 + 2^-10) >= 1/2), nor next to a norm of at
    least 2^-480, which the test requires of n_a and n_x. A norm that
    overflows reads inf and fails the test.

    Why the cutoff, with no margin above it:

    - a kept matrix is nonsingular, so the linear system it carries (a QP
      face's KKT system) has one solution;
    - the caller certifies that solution by its own measured residual (the
      KKT residual of `qp`), whichever factorization found it, so the
      factorization only picks the candidate;
    - where the SVD would have cut the rank, the answer can move only
      within the optimal set. A backward-stable SVD returns the singular
      values of a + E with ||E||_2 <= p(k) u sigma_1 (Higham, ch. 19), so
      its computed sigma_k / sigma_1 can fall below the cutoff when the
      true one is just above it. The SVD then gives the minimum-norm
      solution of a nearby singular system, this inverse the unique one of
      a; for a face on a singular P, both x's that the KKT residual
      certifies are optimal, and the minimum-norm choice among them is
      not made.
    """
    k = a.shape[0]
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    # an inverse that overflows fails the test below, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        r = a @ x
        r.flat[:: k + 1] -= 1.0
        n_a, n_x = float(np.linalg.norm(a)), float(np.linalg.norm(x))
        rho = 2 * (float(np.linalg.norm(r)) + k * _EPS * n_a * n_x)
    certified = min(n_a, n_x) >= _NORM_FLOOR and rho < 0.5
    return x if certified and (1 - rho) / (2 * n_a * n_x) >= k * _EPS else None


def gram_certifies_full_rank(a: np.ndarray) -> float:
    """`cholesky_certificate` of the float matrix `a`, r x c, through the
    Gram matrix of its short side formed by one product: the proved lower
    bound on sigma_k / sigma_1, k = min(r, c), when it certifies full rank
    k under the cutoff of `svd_rank`, else 0.0, so the result reads as the
    verdict. `a` is left as it was. Outside ``__all__``, like `svd_rank`.

    The product runs on `power_of_two_scaled` `a`, which is freed before
    the factorization, and its kappa is max(r, c): every entry of the Gram
    matrix is an inner product of length l = max(r, c) (c for a a^T, r for
    a^T a), so G = H + E1 with |E1| <= gamma_l |a| |a|^T (Higham, §3.5;
    for a^T a read |a|^T |a|), a nonnegative matrix whose 2-norm is at
    most its trace, ||a||_F^2: ||E1||_2 <= l u t (1 + O(l u)). The shift
    is then 2 (r + c + 2) eps t'.
    """
    rows, cols = a.shape
    a = power_of_two_scaled(a)
    gram = a @ a.T if rows <= cols else a.T @ a
    # freed before the factorization, which runs in `gram` or its views
    del a
    if len(gram) <= _CHOLESKY_BLOCK:
        block_rows = (gram,)
    else:
        edges = _block_edges(len(gram))
        block_rows = [gram[lo:hi, lo:] for lo, hi in zip(edges, edges[1:])]
    return cholesky_certificate(block_rows, max(rows, cols), gram.trace())


def hankel_certifies_full_rank(sequences, d: int) -> float:
    """`cholesky_certificate` of the depth-d mosaic-Hankel matrix H of
    `sequences` (each T_i x m with T_i >= d), through its Gram matrix
    formed from the samples by `hankel_gram`, with H never built: the
    proved lower bound on sigma_r / sigma_1 when it certifies full row rank
    r under the cutoff of `svd_rank`, else 0.0. Outside ``__all__``, like
    `svd_rank`.

    With r = d m rows, c = sum(T_i - d + 1) columns and tau sequences the
    Gram matrix costs O(m r c + tau r^2) operations, where the product
    H H^T costs O(r^2 c). Both run on the `power_of_two_scaled` samples.
    Each block row of the Gram matrix is formed as the factorization asks
    for it and factored where it lies, so the certificate holds one
    triangle of it and no r x r array. The shift's t' is the t that
    `hankel_kappa` sums over the samples, since no trace of the whole
    Gram matrix exists before its first block row is factored.

    Rounding. Write G_{a,b} for the m x m block (a, b) of H H^T, x_i[j]
    for sample j of sequence i, w_i = T_i - d + 1 for its number of
    windows, and h_{i,a} = x_i[a] and t_{i,a} = x_i[w_i + a], a < d - 1,
    for its first and last d - 1 samples; |.| is taken entrywise and
    A = |H|. Let W_h be the zero-padded head Hankel matrix, which has for
    each sequence i and s = 1 .. d - 1 a column whose block a is
    |h_{i,a-s}| for a >= s and zero above, W_t the same of the t_{i,a},
    omega_h = ||W_h||_F^2 = sum_i sum_a (d - 1 - a) |h_{i,a}|^2 and
    omega_t = ||W_t||_F^2. Each error term of `hankel_gram` is dominated
    entrywise by a Gram matrix of a nonnegative matrix, whose 2-norm is at
    most its trace:

    - block row 0: an entry is an inner product with at most c nonzero
      terms (the zeroed heads add exact zeros, which round nothing), so it
      errs by at most gamma_c R_b, R_b = sum_i sum_{j < w_i}
      |x_i[j]| |x_i[j + b]|^T (Higham, §3.5), and the recurrence carries
      that error unchanged to every block (a, a + b). The recurrence holds
      for A too, and gives R_{b-a} = (A A^T + W_h W_h^T - W_t W_t^T)_{a,b}
      <= (A A^T + W_h W_h^T)_{a,b}: in norm gamma_c (t + omega_h);
    - the corrections: C_{a,b} errs by at most gamma_{2 tau} sum_i
      (|t_{i,a}| |t_{i,b}|^T + |h_{i,a}| |h_{i,b}|^T), and block (a, b)
      adds those of C_{j,j+b-a}, j < a, which is
      gamma_{2 tau} (W_t W_t^T + W_h W_h^T)_{a,b}: in norm
      gamma_{2 tau} (omega_h + omega_t);
    - the additions: block (a, b) is a running sum whose k-th addition,
      k = 1 .. a, errs by at most u times its result, the formed block
      (k, k + b - a), whose size is at most (A A^T)_{k,k+b-a}
      (1 + O(kappa u)). With B = A with its block row 0 zeroed and Z the
      shift down by one block, that is u times
      sum_{s < d - 1} (Z^s B) (Z^s B)^T, of trace
      sum_{k >= 1} (d - k) ||A_k||_F^2 <= (d - 1) t, A_k the block rows.

    Together the formed Gram matrix G has
    ||G - H H^T||_2 <= kappa u t (1 + O(kappa u)) with

        kappa = c + d - 1 + ((c + 2 tau) omega_h + 2 tau omega_t) / t,

    `hankel_kappa`, which has no factor of r: the ratios omega / t are
    measured on the data. Every sample appears in H at least once and in
    W_h or W_t at most d - 1 times, so each ratio is at most d - 1; it comes
    near that only when the energy of H sits in the first samples of its
    sequences, and then the carried row-0 error does reach d - 1 blocks.
    The rounding of t and of the omegas is relative O(N u), N the number of
    samples, within the factor of two `cholesky_certificate` keeps to
    spare.
    """
    x = power_of_two_scaled(np.concatenate(sequences))
    lengths = [len(seq) for seq in sequences]
    kappa, t = hankel_kappa(x, lengths, d)
    block_rows = hankel_gram(x, lengths, d)
    # the samples are freed once `hankel_gram` has taken what it needs
    del x
    return cholesky_certificate(block_rows, kappa, t)


def hankel_gram(x: np.ndarray, lengths, d: int):
    """Block rows of the Gram matrix G of the depth-d mosaic-Hankel matrix
    of the sequences of `lengths` samples stacked in the rows of `x`, formed
    from the samples (see `hankel_certifies_full_rank`): for each block row
    [lo, hi) of `_block_edges` of r = d m, a C-ordered (hi - lo) x (r - lo)
    array whose upper triangle holds G[lo:hi, lo:]; below its diagonal it
    holds zeros or parts of G. The block rows lie one after the other in
    one zeroed array, and each is formed when the next one is asked for, so
    a caller that factors it in place holds one triangle of G, never r x r.
    Outside ``__all__``, like `svd_rank`.

    - Rows 0 .. m - 1, block row 0 of the mosaic's: G_{0,b} =
      sum_i sum_{j < w_i} x_i[j] x_i[j + b]^T, one product per lag b of the
      window heads (the samples, with the last d - 1 of each sequence
      zeroed) against the samples b further on.
    - Row p >= m: dropping the first sample of every window and appending
      the next one gives, exactly, G_{a+1,b+1} = G_{a,b} + C_{a,b} with
      C_{a,b} = sum_i (t_{i,a} t_{i,b}^T - h_{i,a} h_{i,b}^T), so row p is
      row p - m, one block further right, plus a row of C. They are formed
      m rows at a time by a product of inner length 2 tau, from the m rows
      above, each from its own diagonal on. The m rows above a block row
      are copied from the one before it, which is then handed over.
    """
    m = x.shape[1]
    r = d * m
    ends = np.cumsum(lengths)
    starts = ends - lengths
    n = len(x) - (d - 1)
    heads = x[:n].copy()
    for end in ends[:-1]:
        heads[end - d + 1 : end] = 0.0
    lags = np.lib.stride_tricks.sliding_window_view(x, (n, m))[:, 0]
    # the m rows above the block row, from the column m left of its first
    # on: at first rows 0 .. m - 1 of G, read as rows -m .. -1, to which
    # C' below adds zero rows
    above = np.matmul(heads.T, lags).transpose(1, 0, 2).reshape(m, r)
    # freed before the block rows are made, so the heap, whose pages stay
    # resident through the factorization, grows less
    del heads
    # columns m .. r - 1: the last d - 1 samples of each sequence, then its
    # first d - 1; columns 0 .. m - 1 are zero, so C' = left^T right holds
    # C_{a,b} at block (a + 1, b + 1) and nothing in block row 0
    left = np.zeros((2 * len(lengths), r))
    left[:, m:] = np.stack(
        [x[end - d + 1 : end].reshape(-1) for end in ends]
        + [x[start : start + d - 1].reshape(-1) for start in starts]
    )
    right = left.copy()
    right[len(lengths) :] *= -1.0
    # the samples, freed here when the caller holds no other reference
    del x, lags
    edges = _block_edges(r)
    # the block rows, one after the other in one zeroed triangle: one
    # allocation per certificate, which the allocator keeps for the next
    # one instead of handing its pages back
    sizes = [(hi - lo) * (r - lo) for lo, hi in zip(edges, edges[1:])]
    triangle = np.zeros(sum(sizes))
    offsets = np.cumsum([0] + sizes)
    for lo, hi, offset, size in zip(edges, edges[1:], offsets, sizes):
        block = triangle[offset : offset + size].reshape(hi - lo, r - lo)
        for p in range(lo, hi, m):
            q = min(p + m, hi)
            if p == lo:
                source = above[: q - p]
            else:
                source = block[p - lo - m : q - lo - m, p - lo - m : -m]
            np.add(
                source,
                left[:, p:q].T @ right[:, p:],
                out=block[p - lo : q - lo, p - lo :],
            )
        if hi < r:
            # rows hi - m .. hi - 1, columns hi - m .. r - m - 1, copied
            # before `block` is overwritten; from the rows above too when
            # the block row is narrower than m
            kept = min(m, hi - lo)
            carried = np.zeros((m, r - hi))
            carried[: m - kept] = above[hi - lo :, hi - lo :]
            carried[m - kept :, m - kept :] = block[-kept:, hi - lo - kept : -m]
            above = carried
        yield block


def hankel_kappa(x: np.ndarray, lengths, d: int) -> tuple[float, float]:
    """kappa of `hankel_gram` for the same arguments, derived at
    `hankel_certifies_full_rank`, and t = ||H||_F^2, from the squared norms
    of the samples: t counts sample k of a sequence of T samples and w
    windows in min(k + 1, T - k, w, d) windows, omega_h and omega_t weight
    its first and last d - 1 samples by d - 1, ..., 1. Outside
    ``__all__``, like `svd_rank`."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    energy = (x * x).sum(axis=1)
    ramp = np.arange(d - 1, 0, -1)
    t = omega_h = omega_t = 0.0
    for start, end in zip(starts, ends):
        k = np.arange(end - start)
        cap = min(end - start - d + 1, d)
        windows = np.minimum(np.minimum(k + 1, k[::-1] + 1), cap)
        t += windows @ energy[start:end]
        omega_h += ramp @ energy[start : start + d - 1]
        omega_t += ramp @ energy[end - d + 1 : end]
    cols = sum(lengths) - len(lengths) * (d - 1)
    tau = len(lengths)
    spill = ((cols + 2 * tau) * omega_h + 2 * tau * omega_t) / t if t else 0.0
    return cols + d - 1 + float(spill), float(t)


def numerical_rank(m) -> int:
    """Number of singular values strictly above the rank cutoff."""
    return rank_margin(m)[0]


def least_squares(a, b) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solve of ``a @ x = b``.

    Returns ``(x, residual_norm)`` where `x` minimizes the Frobenius norm of
    ``a @ x - b`` and, among all minimizers, has minimum norm. `b` may be a
    vector or a matrix; the solution has the matching shape.

    x = V_r diag(1/s_r) U_r^T b, from the SVD of `a` cut at the rank
    `svd_rank` gives (`pseudo_inverse_parts`), so the rank behind the
    solve is the one every rank decision of the package takes.
    """
    a2 = as_matrix(a, "a")
    b2 = as_vector(b, "b") if np.ndim(b) == 1 else as_matrix(b, "b")
    if a2.shape[0] != b2.shape[0]:
        raise ValueError(
            f"row mismatch: a has {a2.shape[0]} rows, b has {b2.shape[0]}"
        )
    u, s, v = pseudo_inverse_parts(a2)
    x = (v / s) @ (u.T @ b2)
    return x, float(np.linalg.norm(a2 @ x - b2))


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
