from functools import partial

import numpy as np
import pytest

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
    as_bound,
    as_matrix,
    as_vector,
    gram_certifies_full_rank,
    least_squares,
    numerical_rank,
    orthonormal_image,
    pseudo_inverse_parts,
    right_kernel,
    subspace_contains,
    subspace_equal,
    subspace_from_columns,
    subspace_gap,
    subspace_sum,
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
    with pytest.raises(ValueError, match="ub has shape"):
        as_bound([1, 2], 3, np.inf, "ub")
    with pytest.raises(ValueError, match="lb contains NaN"):
        as_bound([0.0, np.nan, 1.0], 3, -np.inf, "lb")


def prescribed_matrix(rng, rows, cols, ratio):
    """rows x cols matrix whose min(rows, cols) singular values fall
    geometrically from 1 to `ratio`."""
    k = min(rows, cols)
    q_left, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    q_right, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    return (q_left * np.geomspace(1.0, ratio, k)) @ q_right.T


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
