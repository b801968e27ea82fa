import numpy as np
import pytest

from willems import (
    HypothesisViolated,
    LtiSystem,
    Trajectory,
    TrajectorySet,
    Verdict,
    controllability_matrix,
    controllable_subspace,
    initial_state_matrix,
    krylov_subspace,
    min_poly_degree,
    observability_matrix,
    random_system,
    simulate,
    subspace_contains,
    theorem1_image_check,
    theorem1_state_condition,
    unobservable_subspace,
)
from willems.numerics import numerical_rank, subspace_sum
from willems.subspace import draw_until_pe, pe_image_check


def pe_data(sys, rng, tau, order, length=None, x0=None):
    """Simulated batch whose inputs are persistently exciting of `order`."""
    if length is None:
        length = max(2 * order, order * sys.m // tau + order + 6)
    from willems import is_collectively_pe

    for _ in range(50):
        trajs = []
        for i in range(tau):
            start = rng.normal(size=sys.n) if x0 is None else x0[:, i]
            u = rng.uniform(-1, 1, size=(length, sys.m))
            trajs.append(simulate(sys, start, u))
        data = TrajectorySet(tuple(trajs))
        if is_collectively_pe(data, order):
            return data
    raise AssertionError("could not draw exciting inputs")


def test_staircase_matrices(bench):
    ctrl = controllability_matrix(bench)
    assert ctrl.shape == (4, 4)
    # B and AB span the first two coordinates only
    assert np.allclose(ctrl[2:], 0.0)
    obs = observability_matrix(bench)
    assert obs.shape == (8, 4)
    assert np.linalg.matrix_rank(obs) == 4


def test_controllable_subspace_of_benchmark(bench):
    R = controllable_subspace(bench)
    assert R.dim == 2
    assert subspace_contains(R, [1.0, 0.0, 0.0, 0.0])
    assert subspace_contains(R, [0.0, 1.0, 0.0, 0.0])
    assert not subspace_contains(R, [0.0, 0.0, 1.0, 0.0])


def test_unobservable_subspace_cases(bench):
    assert unobservable_subspace(bench).dim == 0
    # drop the second output: the (x3, x4) pair becomes invisible
    blind = LtiSystem(bench.A, bench.B, bench.C[:1], bench.D[:1])
    O = unobservable_subspace(blind)
    assert O.dim == 2
    assert subspace_contains(O, [0.0, 0.0, 1.0, 0.0])
    assert subspace_contains(O, [0.0, 0.0, 0.0, 1.0])


def test_krylov_span_hand_cases(bench):
    # e3 is an eigenvector (A e3 = 0.9 e3), so its invariant span is a line
    K3 = krylov_subspace(bench.A, np.eye(4)[:, [2]])
    assert K3.dim == 1
    assert subspace_contains(K3, [0.0, 0.0, 1.0, 0.0])
    # e4 drags in e3 through the coupling term
    K4 = krylov_subspace(bench.A, np.eye(4)[:, [3]])
    assert K4.dim == 2
    assert subspace_contains(K4, [0.0, 0.0, 1.0, 0.0])
    K0 = krylov_subspace(bench.A, np.zeros((4, 1)))
    assert K0.dim == 0


def test_krylov_is_a_invariant():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        X0 = rng.normal(size=(n, cols))
        K = krylov_subspace(A, X0)
        # contains the generators and is closed under A
        for j in range(cols):
            assert subspace_contains(K, X0[:, j])
        for j in range(K.dim):
            assert subspace_contains(K, A @ K.basis[:, j])


def test_min_poly_degree_known_values(bench):
    assert min_poly_degree(np.eye(3)) == 1
    assert min_poly_degree(np.diag([1.0, 2.0, 3.0])) == 3
    # nilpotent 2x2 block: A != 0 but A^2 = 0
    assert min_poly_degree(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2
    # repeated eigenvalues collapse the degree below n
    assert min_poly_degree(np.diag([2.0, 2.0, 5.0])) == 2
    assert min_poly_degree(bench.A) == 4


def test_min_poly_degree_of_block_copies():
    # stacking identical agents never raises the degree
    rng = np.random.default_rng(31)
    for _ in range(20):
        nbar = int(rng.integers(1, 4))
        Abar = rng.normal(size=(nbar, nbar))
        d = min_poly_degree(Abar)
        assert min_poly_degree(np.kron(np.eye(3), Abar)) == d


def plain_scan_degree(A):
    """The minimal-polynomial degree by one SVD rank per prefix of the
    n + 1 normalized vectorized powers, with no certificate."""
    n = A.shape[0]
    cols, P = [], np.eye(n)
    for _ in range(n + 1):
        v = P.reshape(-1)
        norm = np.linalg.norm(v)
        cols.append(v / norm if norm > 0 else v)
        P = A @ P
    stacked = np.column_stack(cols)
    rank = 1
    for d in range(1, n + 1):
        grown = numerical_rank(stacked[:, : d + 1])
        if grown == rank:
            return d
        rank = grown
    return n


def jordan(eigenvalue, size):
    return eigenvalue * np.eye(size) + np.eye(size, k=1)


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def structured_matrices(rng):
    """(matrix, degree) pairs whose minimal polynomial is known exactly."""
    yield np.zeros((1, 1)), 1
    yield np.array([[-3.5]]), 1
    yield np.zeros((4, 4)), 1
    yield jordan(0.0, 4), 4  # nilpotent of index 4
    yield np.triu(rng.normal(size=(5, 5)), k=1), 5  # generic nilpotent
    yield jordan(0.7, 3), 3
    yield block_diag(jordan(0.5, 2), jordan(0.5, 2)), 2
    yield block_diag(jordan(0.5, 3), jordan(0.5, 1), np.diag([-0.2])), 4
    yield np.diag([2.0, 2.0, 5.0, 5.0, 5.0]), 2
    yield np.diag([1.0, -1.0, 1.0, -1.0]), 2
    for nbar in (1, 2, 3):
        Abar = rng.normal(size=(nbar, nbar))
        yield np.kron(np.eye(3), Abar), nbar
    # a dense similarity transform keeps the minimal polynomial
    S = rng.normal(size=(4, 4))
    yield S @ block_diag(jordan(0.4, 2), np.diag([0.4, -0.8])) @ np.linalg.inv(S), 3


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_min_poly_degree_equals_the_plain_scan(scale):
    rng = np.random.default_rng(68)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        A = scale * rng.normal(size=(n, n))
        if rng.random() < 0.3:
            A = A * (rng.random(size=(n, n)) < 0.4)  # sparse, often defective
        assert min_poly_degree(A) == plain_scan_degree(A)
    for A, degree in structured_matrices(rng):
        assert plain_scan_degree(scale * A) == degree
        assert min_poly_degree(scale * A) == degree


def test_min_poly_degree_of_a_generic_matrix_needs_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(69)
    for n in range(1, 7):
        assert min_poly_degree(rng.normal(size=(n, n))) == n
    assert not calls
    # a degree below n is left to the scan
    assert min_poly_degree(np.diag([2.0, 2.0, 5.0])) == 2
    assert calls


def test_initial_state_matrix_collects_first_states(bench):
    rng = np.random.default_rng(4)
    t1 = simulate(bench, [1.0, 0, 0, 0], rng.normal(size=(5, 1)))
    t2 = simulate(bench, [0, 0, 2.0, 0], rng.normal(size=(5, 1)))
    X0 = initial_state_matrix(TrajectorySet((t1, t2)))
    assert np.allclose(X0, np.array([[1.0, 0.0], [0, 0], [0, 2.0], [0, 0]]))
    with pytest.raises(ValueError):
        initial_state_matrix(TrajectorySet((Trajectory(np.ones((3, 1))),)))


def test_image_check_holds_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        L = int(rng.integers(1, 4))
        tau = int(rng.integers(1, 3))
        delta = min_poly_degree(sys.A)
        data = pe_data(sys, rng, tau, delta + L)
        report = theorem1_image_check(sys, data, L)
        assert report.verdict is Verdict.HOLDS
        assert report.gap <= 1e-8
        assert report.data_dim == report.target_dim
        # the CLI's path, which skips the degree and PE tests it already ran
        assert pe_image_check(sys, data, L, delta + L) == report


def test_image_check_verdict_is_invariant_to_trajectory_order():
    # metamorphic suite: reordering the trajectories permutes the columns
    # of the data matrix, not its image. Plants with an uncontrollable
    # block, and data drawn from a plant with another B from rest, give
    # FAILS verdicts; short records give HYPOTHESIS_VIOLATED.
    rng = np.random.default_rng(707)
    seen = set()
    for _ in range(100):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(0, 3))
        n = n1 + n2
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        if n2 == 0:
            sys = random_system(rng, n, m, p)
        else:
            A = np.zeros((n, n))
            A[:n1, :n1] = 0.8 * rng.normal(size=(n1, n1))
            A[n1:, n1:] = 0.8 * rng.normal(size=(n2, n2))
            B = np.vstack([rng.normal(size=(n1, m)), np.zeros((n2, m))])
            sys = LtiSystem(A, B, rng.normal(size=(p, n)), np.zeros((p, m)))
        L = int(rng.integers(1, 4))
        tau = int(rng.integers(2, 5))
        order = min_poly_degree(sys.A) + L
        T = int(rng.integers(order, 2 * order + 8))
        x0 = rng.normal(size=(tau, n)) * (rng.random(tau) < 0.7)[:, None]
        source = sys
        if rng.random() < 0.3:
            source = LtiSystem(sys.A, sys.B + rng.normal(size=(n, m)), sys.C, sys.D)
            x0[:] = 0.0
        runs = [simulate(source, x0[i], rng.uniform(-1, 1, (T, m))) for i in range(tau)]
        base = theorem1_image_check(sys, TrajectorySet(tuple(runs)), L)
        seen.add(base.verdict)
        for shuffled in (runs[::-1], [runs[i] for i in rng.permutation(tau)]):
            report = theorem1_image_check(sys, TrajectorySet(tuple(shuffled)), L)
            assert (report.verdict, report.data_dim, report.target_dim) == (
                base.verdict,
                base.data_dim,
                base.target_dim,
            )
    assert seen == set(Verdict)


def test_image_check_gates_on_excitation(bench):
    rng = np.random.default_rng(6)
    # zero input cannot excite anything
    data = TrajectorySet((simulate(bench, rng.normal(size=4), np.zeros((30, 1))),))
    report = theorem1_image_check(bench, data, 2)
    assert report.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert report.pe_order_required == 4 + 2


def test_image_check_fails_for_mismatched_model(bench):
    # data from a different plant spans a different set of windows
    rng = np.random.default_rng(8)
    other = LtiSystem(0.5 * np.eye(4), bench.B, bench.C, bench.D)
    data = pe_data(other, rng, 2, 4 + 2)
    report = theorem1_image_check(bench, data, 2)
    assert report.verdict is Verdict.FAILS
    assert pe_image_check(bench, data, 2, 4 + 2) == report


def test_image_check_explicit_delta_gate(bench):
    rng = np.random.default_rng(12)
    data = pe_data(bench, rng, 1, 6)
    # claiming a larger delta demands more excitation than the data has
    report = theorem1_image_check(bench, data, 2, delta=30)
    assert report.verdict is Verdict.HYPOTHESIS_VIOLATED


def test_state_condition_splits_membership(bench):
    rng = np.random.default_rng(19)
    # data started at the origin: only the controllable pair is covered
    x0 = np.zeros((4, 2))
    data = pe_data(bench, rng, 2, 4 + 3, x0=x0)
    assert theorem1_state_condition(bench, data, [1.0, -0.5, 0.0, 0.0])
    assert not theorem1_state_condition(bench, data, [0.0, 0.0, 1.0, 0.0])
    # data started on e4 drags the invariant span of e4 into the picture
    x0 = np.zeros((4, 2))
    x0[3, :] = 1.0
    data = pe_data(bench, rng, 2, 4 + 3, x0=x0)
    assert theorem1_state_condition(bench, data, [0.0, 0.0, 1.0, 0.0])


def test_state_condition_matches_direct_subspace_test(bench):
    rng = np.random.default_rng(40)
    data = pe_data(bench, rng, 2, 7)
    total = subspace_sum(
        controllable_subspace(bench),
        unobservable_subspace(bench),
        krylov_subspace(bench.A, initial_state_matrix(data)),
    )
    for _ in range(50):
        x = rng.normal(size=4)
        assert theorem1_state_condition(bench, data, x) == subspace_contains(
            total, x
        )


def test_hypothesis_violated_carries_order():
    err = HypothesisViolated("too little excitation", 9)
    assert err.order_required == 9
    assert err.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert isinstance(err, RuntimeError)


def test_draw_until_pe_gives_up_with_the_required_order():
    calls = []

    def constant(k):
        calls.append(k)
        return TrajectorySet((Trajectory(np.ones((20, 1))),))

    with pytest.raises(HypothesisViolated) as info:
        draw_until_pe(constant, 3, attempts=7)
    assert info.value.order_required == 3
    assert calls == list(range(7))
