import ast
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import willems
from conftest import agent_pair, mixed_plant
from willems import (
    LtiSystem,
    MarkovParams,
    MultiAgentSpec,
    PredictiveConfig,
    Trajectory,
    TrajectorySet,
    hankel,
    krylov_subspace,
    min_poly_degree,
    parameterize,
    reconstruct_state,
    simulate,
    star_edges,
    theorem1_state_condition,
)
from willems.numerics import (
    SubspaceBasis,
    _block_edges,
    as_bound,
    as_matrix,
    as_vector,
    certified_inverse,
    cholesky_certificate,
    gram_certifies_full_rank,
    hankel_certifies_full_rank,
    hankel_gram,
    hankel_kappa,
    least_squares,
    numerical_rank,
    orthonormal_image,
    power_of_two_scaled,
    pseudo_inverse_parts,
    right_kernel,
    subspace_contains,
    subspace_equal,
    subspace_from_columns,
    subspace_gap,
    subspace_sum,
    svd_rank,
)


def test_as_matrix_promotes_vectors_and_rejects_junk():
    m = as_matrix([1.0, 2.0])
    assert m.shape == (2, 1)
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_rank_on_exact_cases():
    assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.zeros((0, 4))) == 0


def test_rank_is_scale_invariant():
    # the default tolerance is relative to sigma_max, so a global rescale
    # never changes the answer
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 6))
        r = numerical_rank(a)
        assert numerical_rank(1e-12 * a) == r
        assert numerical_rank(1e12 * a) == r


def test_rank_tolerance_override():
    # the one rank policy keeps a singular value far above eps * sigma_max
    assert numerical_rank(np.diag([1.0, 1e-5])) == 2


def test_every_rank_cutoff_site_agrees():
    # values-only rank, image, kernel and the QP's pseudo-inverse all cut
    # through the same helper, so they agree on every matrix and every
    # scale, empty matrices included
    rng = np.random.default_rng(5)
    for _ in range(60):
        rows, cols = rng.integers(0, 9, size=2)
        r = rng.integers(0, min(rows, cols) + 1)
        a = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
        for scale in (1.0, 1e-12, 1e12):
            b = scale * a
            assert numerical_rank(b) == r
            assert orthonormal_image(b).shape[1] == r
            assert b.shape[1] - right_kernel(b).shape[1] == r
            assert pseudo_inverse_parts(b)[1].size == r


def test_least_squares_hand_case():
    # min over x of ||(x, x) - (1, 0)||: x = 1/2, residual sqrt(1/2)
    x, res = least_squares([[1.0], [1.0]], [1.0, 0.0])
    assert np.allclose(x, [0.5])
    assert res == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_least_squares_minimum_norm_pick():
    # a = [1, 1] row vector: solutions of x0 + x1 = 2 form a line; the
    # minimum-norm one is (1, 1)
    x, res = least_squares([[1.0, 1.0]], [2.0])
    assert np.allclose(x, [1.0, 1.0])
    assert res < 1e-12


def test_least_squares_matrix_rhs():
    a = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    b = np.array([[2.0, 4.0], [8.0, 0.0], [1.0, 0.0]])
    x, res = least_squares(a, b)
    assert x.shape == (2, 2)
    assert np.allclose(x, [[1.0, 2.0], [2.0, 0.0]])
    assert res == pytest.approx(1.0)  # the (0,0,1) column is unreachable
    with pytest.raises(ValueError):
        least_squares(a, np.zeros(2))


def near_cutoff_matrix(seed):
    """A random m x n matrix, m, n in 3..39, whose smallest singular value
    sits within 50%, 5% or 0.5% of the rank cutoff max(m, n) eps s[0],
    and a right-hand side."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(3, 40, size=2)
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    s = np.sort(rng.uniform(0.5, 2, k))[::-1]
    s[-1] = max(m, n) * np.finfo(float).eps * s[0] * (
        1 + rng.uniform(-0.5, 0.5) * rng.choice([1, 0.1, 0.01])
    )
    return (u * s) @ v.T, rng.standard_normal(m)


def test_least_squares_solves_through_the_svd_rank_cut():
    # one rank engine: LAPACK's gelsd (np.linalg.lstsq), which computes
    # singular values of its own, cut 24 of these 2,000 matrices at another
    # rank than svd_rank and gave another solution beyond 1e-8 on 113
    # (numpy 2.4.6)
    for seed in range(2000):
        a, b = near_cutoff_matrix(seed)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        r = svd_rank(s, a.shape)
        x_ref = vt[:r].T @ ((u[:, :r].T @ b) / s[:r])
        np.testing.assert_allclose(
            least_squares(a, b)[0], x_ref, rtol=1e-8,
            atol=1e-8 * np.linalg.norm(x_ref), err_msg=f"seed {seed}",
        )


def test_the_package_takes_no_rank_engine_but_the_svd_cut():
    # numpy.linalg's lstsq, pinv and matrix_rank each cut singular values of
    # their own; any of them in the package would be a second rank rule
    engines = {"lstsq", "pinv", "matrix_rank"}
    found = []
    for path in sorted(Path(willems.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += [f"{path.name}:{node.lineno} {n}" for n in engines & set(names)]
    assert not found


def test_orthonormal_image_and_kernel_shapes():
    rng = np.random.default_rng(3)
    for _ in range(40):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        inner = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        img = orthonormal_image(a)
        ker = right_kernel(a)
        assert img.shape[1] + ker.shape[1] == cols  # rank + nullity
        assert img.shape[1] == numerical_rank(a)
        if img.size:
            assert np.allclose(img.T @ img, np.eye(img.shape[1]))
        if ker.size:
            assert np.linalg.norm(a @ ker) < 1e-10 * max(1, np.linalg.norm(a))


def test_image_of_zero_matrix_is_empty():
    img = orthonormal_image(np.zeros((4, 2)))
    assert img.shape == (4, 0)
    assert right_kernel(np.zeros((2, 3))).shape == (3, 3)


def test_subspace_basis_validation():
    with pytest.raises(ValueError):
        SubspaceBasis(3, np.ones((3, 2)))  # not orthonormal
    with pytest.raises(ValueError):
        SubspaceBasis(2, np.eye(3))  # ambient mismatch
    s = SubspaceBasis(3, np.zeros((3, 0)))
    assert s.dim == 0


def test_subspace_gap_hand_value():
    # span{e1} vs span{(1,1)/sqrt 2}: the projection residual of either unit
    # basis vector onto the other line has norm sin(45 deg) = sqrt(1/2)
    a = subspace_from_columns([[1.0], [0.0]])
    b = subspace_from_columns([[1.0], [1.0]])
    assert subspace_gap(a, b) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert subspace_gap(a, a) == 0.0


def test_subspace_gap_is_basis_independent():
    rng = np.random.default_rng(7)
    for _ in range(30):
        cols = rng.normal(size=(6, 3))
        s1 = subspace_from_columns(cols)
        # same span, different generating columns
        mix = cols @ (rng.normal(size=(3, 3)) + 3 * np.eye(3))
        s2 = subspace_from_columns(mix)
        assert subspace_gap(s1, s2) < 1e-9
        assert subspace_equal(s1, s2)


LINE_IN_R2 = subspace_from_columns([[1.0], [0.0]])
LINE_IN_R3 = subspace_from_columns([[1.0], [0.0], [0.0]])


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: subspace_sum(), "subspace"),
        (lambda: subspace_gap(LINE_IN_R2, LINE_IN_R3), "ambient dimension"),
        (lambda: subspace_equal(LINE_IN_R2, LINE_IN_R3), "ambient dimension"),
        (lambda: subspace_contains(LINE_IN_R2, [1.0, 0.0, 0.0]), "vector has dim 3"),
    ],
    ids=["empty-sum", "gap", "equal", "contains"],
)
def test_each_rejected_argument_is_named(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_subspace_sum_and_membership():
    e1 = subspace_from_columns([[1.0], [0.0], [0.0]])
    e2 = subspace_from_columns([[0.0], [1.0], [0.0]])
    plane = subspace_sum(e1, e2)
    assert plane.dim == 2
    assert subspace_contains(plane, [1.0, -2.0, 0.0])
    assert not subspace_contains(plane, [0.0, 0.0, 1.0])
    assert subspace_contains(plane, [0.0, 0.0, 0.0])  # zero is everywhere
    with pytest.raises(ValueError):
        subspace_sum(e1, subspace_from_columns(np.eye(2)))


def test_subspace_equal_needs_matching_dims():
    line = subspace_from_columns([[1.0], [0.0]])
    plane = subspace_from_columns(np.eye(2))
    assert not subspace_equal(line, plane)
    assert subspace_contains(plane, [0.3, -0.7])


def test_as_bound_fills_broadcasts_and_rejects():
    assert np.array_equal(as_bound(None, 3, -np.inf, "lb"), np.full(3, -np.inf))
    assert np.array_equal(as_bound(2.0, 3, np.inf, "ub"), [2.0, 2.0, 2.0])
    assert np.array_equal(as_bound([1, 2, 3], 3, np.inf, "ub"), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="'ub' has shape"):
        as_bound([1, 2], 3, np.inf, "ub")
    with pytest.raises(ValueError, match="'lb' contains NaN"):
        as_bound([0.0, np.nan, 1.0], 3, -np.inf, "lb")


def prescribed_matrix(rng, rows, cols, ratio):
    """rows x cols matrix whose min(rows, cols) singular values fall
    geometrically from 1 to `ratio`."""
    k = min(rows, cols)
    q_left, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    q_right, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    return (q_left * np.geomspace(1.0, ratio, k)) @ q_right.T


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((0, 3)),
        np.zeros((2, 3)),
        np.array([[5e-324, -2e-320], [1e-310, 0.0]]),
        np.array([[2.0**1000, -3.0], [1.0, 0.5]]),
        np.array([[2.0**-1000, -(2.0**-1001)], [0.0, 3 * 2.0**-1002]]),
        np.array([[0.75, -6.0], [1.5, -0.0]]),
    ],
    ids=["empty", "zero", "subnormal", "2^1000", "2^-1000", "negative"],
)
def test_power_of_two_scaled_keeps_the_bits_of_np_frexp(a):
    # the exponent comes from math.frexp, which must give np.frexp's
    e = np.frexp(np.abs(a).max(initial=0.0))[1]
    scaled = power_of_two_scaled(a)
    assert scaled.tobytes() == np.ldexp(a, -e).tobytes()
    assert scaled.shape == a.shape and scaled is not a
    if a.any():
        assert 0.5 <= np.abs(scaled).max() < 1.0


@pytest.mark.parametrize("shape", [(20, 6), (6, 20), (8, 8), (1, 5), (5, 1)])
def test_gram_certificate_never_claims_full_rank_the_svd_denies(shape):
    rng = np.random.default_rng(67)
    k = min(shape)
    certified = []
    for ratio in [1e-1, 1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-12, 1e-15, 1e-17]:
        for scale in [1e-150, 1e-3, 1.0, 1e3, 1e150]:
            a = scale * prescribed_matrix(rng, *shape, ratio)
            kept = a.copy()
            verdict = gram_certifies_full_rank(a)
            assert np.array_equal(a, kept)  # the argument is left as it was
            if verdict:
                assert numerical_rank(a) == k, (ratio, scale)
                certified.append(ratio)
    # rank-deficient: a product through a thinner factor, and zeros
    for inner in range(k):
        a = rng.normal(size=(shape[0], inner)) @ rng.normal(size=(inner, shape[1]))
        assert not gram_certifies_full_rank(a)
    assert not gram_certifies_full_rank(np.zeros(shape))
    # not vacuous: the well-conditioned matrices are certified at every scale
    assert certified[:10] == [1e-1] * 5 + [1e-3] * 5


def test_certificate_factors_the_gram_matrix_without_an_r_by_r_copy(peak_alloc):
    # the block rows of the Gram matrix as each route hands them over at
    # r = 600: views of the product a a^T, and those of `hankel_gram` (4
    # inputs, depth 150, two sequences), here formed before the call. The
    # factorization runs in them, so beside them the certificate holds a
    # few blocks, under half an r x r matrix of doubles
    rng = np.random.default_rng(83)
    r, lengths, d = 600, [500, 500], 150
    a = power_of_two_scaled(rng.normal(size=(r, 640)))
    x = power_of_two_scaled(rng.normal(size=(sum(lengths), 4)))
    gram = a @ a.T
    edges = _block_edges(r)
    routes = {
        "direct": (
            [gram[lo:hi, lo:] for lo, hi in zip(edges, edges[1:])],
            640,
            gram.trace(),
        ),
        "structured": (list(hankel_gram(x, lengths, d)), *hankel_kappa(x, lengths, d)),
    }
    for route, (block_rows, kappa, t) in routes.items():
        assert [block.shape for block in block_rows] == [(300, 600), (300, 300)], route
        bound, peak = peak_alloc(cholesky_certificate, block_rows, kappa, t)
        assert bound > 0, route  # certified, so every block was factored
        assert peak < r * r * 4, (route, peak)


def test_structured_certificate_holds_one_triangle_at_identify_nets_largest_point(
    peak_alloc,
):
    # the full_n rule at 8 agents: 19 sequences of 120 samples of 16 inputs
    # at depth 65, a 1040 x 1064 mosaic. Formed and factored one block row
    # at a time, the Gram matrix is held as one triangle, with the
    # temporaries beside it under r x r doubles in all
    rng = np.random.default_rng(84)
    sequences = [rng.normal(size=(120, 16)) for _ in range(19)]
    r = 65 * 16
    bound, peak = peak_alloc(hankel_certifies_full_rank, sequences, 65)
    assert bound > 0  # certified, so every block row was formed and factored
    assert peak < r * r * 8, peak


@pytest.mark.parametrize("k", [2, 5, 12])
def test_inverse_certificate_never_claims_a_ratio_the_svd_denies(k):
    # a kept inverse proves sigma_k / sigma_1 >= k eps, the cutoff of
    # `svd_rank`; the SVD's computed ratio may fall below the true one by
    # its own rounding, p(k) u sigma_1 for a modest p(k), allowed as k u
    eps = np.finfo(float).eps
    u = eps / 2
    rng = np.random.default_rng(73)
    certified = []
    ratios = [1e-1, 1e-4, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15, 1e-17]
    for ratio in ratios:
        for scale in [1e-150, 1e-3, 1.0, 1e3, 1e150]:
            a = scale * prescribed_matrix(rng, k, k, ratio)
            inv = certified_inverse(a)
            if inv is not None:
                s = np.linalg.svd(a, compute_uv=False)
                assert s[-1] / s[0] >= k * eps - k * u
                assert np.array_equal(inv, np.linalg.inv(a))
                certified.append((ratio, scale))
    # not vacuous: well-conditioned matrices are certified at moderate
    # scales, and so are some within a few decades of the cutoff
    for scale in [1e-3, 1.0, 1e3]:
        assert (1e-1, scale) in certified and (1e-4, scale) in certified
    assert any(ratio <= 1e-13 for ratio, _ in certified)


@pytest.mark.parametrize("shape", [(8, 40), (30, 120), (60, 200)])
def test_gram_certificates_never_claim_a_ratio_the_svd_denies(shape):
    # the twin of the inverse certificate's test, for the bound either Gram
    # route returns: on U diag(1, rho, ..., rho) V^T with rho spread over
    # the decades around that bound, sqrt((kappa + k + 2) eps), a claim
    # above the SVD's sigma_k / sigma_1 would mean the diagonal shift no
    # longer covers the rounding of forming and factoring the Gram matrix
    rows, cols = shape
    rng = np.random.default_rng(89)
    certified = {"direct": 0, "structured": 0}
    for rho in np.geomspace(2e-8, 2e-5, 31):
        q_left, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
        q_right, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
        sigma = np.full(rows, rho)
        sigma[0] = 1.0
        a = (q_left * sigma) @ q_right.T
        s = np.linalg.svd(a, compute_uv=False)
        bounds = {
            "direct": gram_certifies_full_rank(a),
            # each column one window of a single-input sequence of depth rows
            "structured": hankel_certifies_full_rank(
                [a[:, [j]] for j in range(cols)], rows
            ),
        }
        for route, bound in bounds.items():
            assert bound <= s[-1] / s[0], (route, rho, bound, s[-1] / s[0])
            certified[route] += bound > 0
    # not vacuous: each route certifies the better-conditioned matrices
    assert all(certified.values()), certified


def test_inverse_certificate_rejects_a_singular_kkt_matrix():
    # [[P, a'], [a, 0]] with P = diag(2, 0, 0) and a = (1, 1, 1): the
    # direction (0, 1, -1) costs nothing and meets the row, so the matrix
    # is singular; so is the one that repeats the row
    P = np.diag([2.0, 0.0, 0.0])
    for rows in ([[1.0, 1.0, 1.0]], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]):
        a = np.array(rows)
        kkt = np.block([[P, a.T], [a, np.zeros((len(a), len(a)))]])
        assert numerical_rank(kkt) < kkt.shape[0]
        assert certified_inverse(kkt) is None


def hankel_gram_cases():
    """The structured Gram matrix's hard inputs, as pytest params of
    (sequences, d, whether its products round). Every double is a dyadic
    rational, so `Fraction` holds each sample exactly."""
    rng = np.random.default_rng(71)
    spike = rng.normal(size=(14, 2))
    spike[0, 1] = 2.0**40  # the first sample, which the recurrence subtracts
    cases = {
        "constant": ([np.ones((12, 2)), np.ones((9, 2))], 4, False),
        "alternating": ([np.outer((-1.0) ** np.arange(15), [1.0, -3.0])], 5, False),
        "geometric": ([2.0 ** -np.round(np.linspace(0.0, 60.0, 16))[:, None]], 6, True),
        "spike": ([spike, rng.normal(size=(10, 2))], 4, True),
        "uneven": ([rng.normal(size=(T, 2)) for T in (5, 17, 9)], 5, True),
        "depth 1": ([rng.normal(size=(T, 3)) for T in (4, 7)], 1, True),
        # shorter than 2 (d - 1): first and last samples overlap
        "overlapping": ([rng.normal(size=(T, 2)) for T in (6, 7)], 5, True),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("sequences, d, rounds", hankel_gram_cases())
def test_hankel_gram_stays_within_its_derived_rounding_bound(sequences, d, rounds):
    # the exact Gram matrix, in rationals, of the mosaic of the scaled
    # samples, against the one formed from the samples; every entry lies
    # within the entrywise bound of `hankel_certifies_full_rank`, and the
    # whole matrix within kappa u t
    lengths = [len(seq) for seq in sequences]
    x = power_of_two_scaled(np.concatenate(sequences))
    starts = np.cumsum([0] + lengths[:-1])
    seqs = [x[start : start + T] for start, T in zip(starts, lengths)]
    H = np.hstack([hankel(seq, d) for seq in seqs])
    r, c = H.shape
    m, tau = x.shape[1], len(lengths)
    exact = [[Fraction(v) for v in row] for row in H]
    computed = np.zeros((r, r))
    for block in hankel_gram(x, lengths, d):
        lo = r - block.shape[1]
        computed[lo : lo + len(block), lo:] = block
    error = np.zeros((r, r))
    for p in range(r):
        for q in range(p + 1):
            g = sum(a * b for a, b in zip(exact[p], exact[q]))
            error[p, q] = error[q, p] = float(Fraction(computed[q, p]) - g)
    # the dominating nonnegative matrices of the derivation
    A = np.abs(H)
    W_h, W_t = np.zeros((r, tau * (d - 1))), np.zeros((r, tau * (d - 1)))
    for i, seq in enumerate(seqs):
        w = len(seq) - d + 1
        for s in range(1, d):
            col = i * (d - 1) + s - 1
            for a in range(s, d):
                W_h[a * m : (a + 1) * m, col] = np.abs(seq[a - s])
                W_t[a * m : (a + 1) * m, col] = np.abs(seq[w + a - s])
    B = A.copy()
    B[:m] = 0.0
    additions = sum(
        np.vstack([np.zeros((s * m, c)), B[: r - s * m]])
        @ np.vstack([np.zeros((s * m, c)), B[: r - s * m]]).T
        for s in range(d - 1)
    )
    u = np.finfo(float).eps / 2
    gamma = lambda n: n * u / (1 - n * u)  # noqa: E731
    hh, tt = W_h @ W_h.T, W_t @ W_t.T
    entrywise = gamma(c) * (A @ A.T + hh) + gamma(2 * tau) * (hh + tt) + u * additions
    # first order: the O(kappa u) terms and the rounding of the bound itself
    slack = 1 + 1e-9
    assert (np.abs(error) <= entrywise * slack).all()
    assert error.any() == rounds  # not vacuous where products round
    t = float(sum(v * v for row in exact for v in row))
    omega_h, omega_t = float((W_h**2).sum()), float((W_t**2).sum())
    kappa, t_samples = hankel_kappa(x, lengths, d)
    expected = c + d - 1 + ((c + 2 * tau) * omega_h + 2 * tau * omega_t) / t
    assert kappa == pytest.approx(expected, rel=1e-12)
    assert t_samples == pytest.approx(t, rel=1e-12)  # the shift's t'
    assert np.linalg.norm(error, 2) <= kappa * u * t * slack


@pytest.mark.parametrize("width", [1, 2, 5])
def test_hankel_gram_in_narrow_block_rows_stays_within_the_same_bound(width, monkeypatch):
    # block rows narrower than m, or than the depth, take the m rows above
    # them from more than one block row before; every case still meets the
    # same rounding bounds
    monkeypatch.setattr(willems.numerics, "_CHOLESKY_BLOCK", width)
    for case in hankel_gram_cases():
        test_hankel_gram_stays_within_its_derived_rounding_bound(*case.values)


def malformed_arrays(good, rng, vector):
    """NaN, inf, 3-D, ragged and string stand-ins for the array `good`; the
    NaN and the inf land at a seeded entry. No 3-D stand-in for a vector
    slot, whose reader flattens what it is given."""
    good = np.asarray(good, dtype=float)
    bad = {}
    for kind, value in (("nan", np.nan), ("inf", np.inf)):
        a = good.copy()
        a.flat[rng.integers(good.size)] = value
        bad[kind] = a
    if not vector:
        bad["3-D"] = good[..., None]
    rows = good.reshape(good.shape[0], -1).tolist()
    bad["ragged"] = rows + [rows[0] + [0.0]]  # a last row one number longer
    bad["string"] = "abc"
    return bad


def test_every_entry_rejects_a_malformed_array_where_it_enters():
    # each slot is one library entry with one array argument replaced by a
    # malformed stand-in, every other argument valid; the entry itself
    # must raise ValueError, not accept the array, fail later or raise
    # another kind of error
    rng = np.random.default_rng(29)
    sys = mixed_plant()
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    u = rng.uniform(-1, 1, size=(12, 1))
    traj = simulate(sys, np.zeros(4), u)
    x, y = traj.states, traj.outputs
    data = TrajectorySet((traj,))
    Abar, Bbar = agent_pair()
    M1 = rng.normal(size=(3, 2))
    Q, R, r = np.eye(2), np.array([[0.1]]), np.array([0.5, -0.5])
    R4 = subspace_from_columns(np.eye(4))

    def config(**changed):
        base = dict(N=2, L=3, Q=Q, R=R, r=r, T=20, K=30, x0=np.zeros(4))
        return PredictiveConfig(**{**base, **changed})

    # (slot, valid array, entry taking the stand-in, vector slot)
    slots = [
        ("LtiSystem A", A, lambda a: LtiSystem(a, B, C, D), False),
        ("LtiSystem B", B, lambda a: LtiSystem(A, a, C, D), False),
        ("LtiSystem C", C, lambda a: LtiSystem(A, B, a, D), False),
        ("LtiSystem D", D, lambda a: LtiSystem(A, B, C, a), False),
        ("Trajectory inputs", u, lambda a: Trajectory(a), False),
        ("Trajectory states", x, lambda a: Trajectory(u, states=a), False),
        ("Trajectory outputs", y, lambda a: Trajectory(u, outputs=a), False),
        ("simulate x0", np.zeros(4), lambda a: simulate(sys, a, u), True),
        ("simulate inputs", u, lambda a: simulate(sys, np.zeros(4), a), False),
        ("hankel f", y, lambda a: hankel(a, 3), False),
        ("krylov_subspace A", A, lambda a: krylov_subspace(a, x[:1].T), False),
        ("krylov_subspace X0", x[:2].T, lambda a: krylov_subspace(A, a), False),
        ("min_poly_degree A", A, min_poly_degree, False),
        (
            "MultiAgentSpec Abar", Abar,
            lambda a: MultiAgentSpec(a, Bbar, 3, star_edges(3)), False,
        ),
        (
            "MultiAgentSpec Bbar", Bbar,
            lambda a: MultiAgentSpec(Abar, a, 3, star_edges(3)), False,
        ),
        ("MarkovParams M_1", M1, lambda a: MarkovParams((a, M1)), False),
        ("MarkovParams M_2", M1, lambda a: MarkovParams((M1, a)), False),
        ("PredictiveConfig Q", Q, lambda a: config(Q=a), False),
        ("PredictiveConfig R", R, lambda a: config(R=a), False),
        ("PredictiveConfig r", r, lambda a: config(r=a), False),
        ("PredictiveConfig r (L, p)", np.tile(r, (3, 1)), lambda a: config(r=a), False),
        ("PredictiveConfig x0", np.zeros(4), lambda a: config(x0=a), True),
        (
            "theorem1_state_condition xbar0", np.zeros(4),
            lambda a: theorem1_state_condition(sys, data, a), True,
        ),
        ("parameterize u_bar", u[:3], lambda a: parameterize(data, a, y[:3]), False),
        ("parameterize y_bar", y[:3], lambda a: parameterize(data, u[:3], a), False),
        ("reconstruct_state g", np.ones(10), partial(reconstruct_state, data), True),
        ("least_squares a", x, lambda a: least_squares(a, y), False),
        ("least_squares b", y, lambda a: least_squares(x, a), False),
        ("subspace_contains vector", np.ones(4), partial(subspace_contains, R4), True),
    ]
    for _, good, entry, _ in slots:
        entry(good)  # the valid array passes
    failures, calls = [], 0
    for slot, good, entry, vector in slots:
        for kind, bad in malformed_arrays(good, rng, vector).items():
            calls += 1
            try:
                entry(bad)
                failures.append(f"{slot} {kind}: accepted")
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other kind fails
                failures.append(f"{slot} {kind}: {type(exc).__name__}: {exc}")
    assert calls == 140
    assert failures == []
