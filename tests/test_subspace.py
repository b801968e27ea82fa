import logging
import re

import numpy as np
import pytest

from willems import (
    HypothesisViolated,
    ImageCheck,
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
from willems import subspace
from willems.hankel import mosaic_hankel
from willems.lti import simulate_set
from willems.numerics import (
    DEFAULT_RESIDUAL_RTOL,
    SubspaceBasis,
    gram_certifies_full_rank,
    numerical_rank,
    subspace_from_columns,
    subspace_gap,
    subspace_sum,
)
from willems.subspace import (
    draw_until_pe,
    krylov_matrix,
    pe_image_check,
    state_condition_space,
    window_start_states,
)


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


def test_min_poly_degree_of_a_generic_matrix_needs_no_svd(svd_calls):
    rng = np.random.default_rng(69)
    for n in range(1, 7):
        assert min_poly_degree(rng.normal(size=(n, n))) == n
    assert not svd_calls
    # a degree below n is left to the scan
    assert min_poly_degree(np.diag([2.0, 2.0, 5.0])) == 2
    assert svd_calls


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


def svd_image_outcome(sys, data, L, rk):
    """(verdict, data_dim, target_dim, gap) of the SVD comparison of the
    data matrix's image with rk x R^{mL}, rk the state part of the
    target."""
    x_row = window_start_states(data, L)
    data_space = subspace_from_columns(np.vstack([x_row, mosaic_hankel(data, L)]))
    n, mL = sys.n, sys.m * L
    target = np.zeros((n + mL, rk.dim + mL))
    target[:n, : rk.dim] = rk.basis
    target[n:, rk.dim :] = np.eye(mL)
    target_space = SubspaceBasis(n + mL, target)
    gap = subspace_gap(data_space, target_space)
    ok = data_space.dim == target_space.dim and gap <= DEFAULT_RESIDUAL_RTOL
    verdict = Verdict.HOLDS if ok else Verdict.FAILS
    return verdict, data_space.dim, target_space.dim, gap


def summed_image_check(sys, data, L):
    """(verdict, data_dim, target_dim) of `pe_image_check` with R + K[x0]
    built as the sum of two separately orthonormalized spaces,
    R = controllable_subspace and K = krylov_subspace(A, X0): three rank
    decisions where the Krylov space of (A, [B X0]) makes one. The
    reference the one-space target must agree with."""
    X0 = initial_state_matrix(data)
    rk = subspace_sum(controllable_subspace(sys), krylov_subspace(sys.A, X0))
    return svd_image_outcome(sys, data, L, rk)[:3]


def two_svd_image_check(sys, data, L):
    """(verdict, data_dim, target_dim, gap) of `pe_image_check` decided by
    SVDs alone: one of the data matrix and one of the Krylov matrix of
    (A, [B X0]). The reference the certificate route must agree with."""
    rk = krylov_subspace(sys.A, np.hstack([sys.B, initial_state_matrix(data)]))
    return svd_image_outcome(sys, data, L, rk)


def image_outcome(sys, data, L):
    report = pe_image_check(sys, data, L, min_poly_degree(sys.A) + L)
    return report.verdict, report.data_dim, report.target_dim


def test_krylov_target_keeps_the_summed_verdicts_on_generic_plants():
    # the verify-theorem1 random recipe: n <= 6, m, p, tau <= 3, L <= 4
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m, p, tau = (int(v) for v in rng.integers(1, 4, size=3))
        L = int(rng.integers(1, 5))
        sys = random_system(rng, n, m, p)
        data = pe_data(sys, rng, tau, min_poly_degree(sys.A) + L)
        assert image_outcome(sys, data, L) == summed_image_check(sys, data, L)


def similar_network_plant(rng):
    """k >= 2 copies of a random 1- or 2-state agent with one input each,
    beside an uncontrollable block (B zero on it) and one random output,
    all seen through a Gaussian similarity S: the paper's regime, where
    delta < n and zeros of exact arithmetic land at rounding level."""
    k, nbar, nu = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    Abar = rng.normal(size=(nbar, nbar))
    Abar *= 0.9 / np.abs(np.linalg.eigvals(Abar)).max()
    Au = rng.normal(size=(nu, nu))
    Au *= 0.9 / np.abs(np.linalg.eigvals(Au)).max()
    n = k * nbar + nu
    A = np.zeros((n, n))
    A[: k * nbar, : k * nbar] = np.kron(np.eye(k), Abar)
    A[k * nbar :, k * nbar :] = Au
    B = np.zeros((n, k))
    B[: k * nbar] = np.kron(np.eye(k), rng.normal(size=(nbar, 1)))
    S = rng.normal(size=(n, n))
    Sinv = np.linalg.inv(S)
    return LtiSystem(S @ A @ Sinv, S @ B, rng.normal(size=(1, n)) @ Sinv, np.zeros((1, k)))


def test_krylov_target_fails_no_case_the_summed_target_holds_under_similarity():
    # Theorem 1 holds for every such plant in exact arithmetic, so a FAILS
    # is an overcounted dimension; one rank decision for R + K[x0] may
    # remove such FAILS but must not add any
    rng = np.random.default_rng(1)
    fails = {"summed": 0, "krylov": 0}
    for _ in range(200):
        sys = similar_network_plant(rng)
        L = 2
        data = pe_data(sys, rng, 1, min_poly_degree(sys.A) + L, x0=np.zeros((sys.n, 1)))
        summed, krylov = summed_image_check(sys, data, L), image_outcome(sys, data, L)
        assert not (summed[0] is Verdict.HOLDS and krylov[0] is Verdict.FAILS)
        fails["summed"] += summed[0] is Verdict.FAILS
        fails["krylov"] += krylov[0] is Verdict.FAILS
    assert fails["krylov"] <= fails["summed"]


def test_theorem1_checks_decide_r_plus_k_in_one_svd(bench, svd_calls):
    # data started at rest: R + K[x0] = R has dimension 2, short of the
    # state space, so no certificate decides and the check runs one SVD
    # for the data matrix and one for the Krylov space of (A, [B X0]); the
    # state condition adds the unobservable subspace and the sum
    rng = np.random.default_rng(72)
    data = pe_data(bench, rng, 2, 4 + 2, x0=np.zeros((4, 2)))
    svd_calls.clear()
    report = pe_image_check(bench, data, 2, 4 + 2)
    assert (report.verdict, report.data_dim, report.target_dim) == (
        Verdict.HOLDS,
        2 + 2,
        2 + 2,
    )
    assert len(svd_calls) == 2
    svd_calls.clear()
    state_condition_space(bench, data)
    assert len(svd_calls) == 3


def image_route(certificates, sys, L):
    """'cholesky' when the records of one image check show both Gram
    certificates proved full rank, of W (order n) and then of D (order
    n + mL); else 'svd'."""
    n, full = sys.n, sys.n + sys.m * L
    sizes = [size for size, _ in certificates]
    if sizes == [n, full] and all(bound > 0 for _, bound in certificates):
        return "cholesky"
    return "svd"


def generic_cases(seed, count):
    """(plant, data, L) of the verify-theorem1 random recipe: n <= 6,
    m, p, tau <= 3, L <= 4, random initial states."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m, p, tau = (int(v) for v in rng.integers(1, 4, size=3))
        L = int(rng.integers(1, 5))
        sys = random_system(rng, n, m, p)
        yield sys, pe_data(sys, rng, tau, min_poly_degree(sys.A) + L), L


def network_cases(seed, count):
    """(plant, data, L) of `similar_network_plant`s started at rest."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sys = similar_network_plant(rng)
        x0 = np.zeros((sys.n, 1))
        yield sys, pe_data(sys, rng, 1, min_poly_degree(sys.A) + 2, x0=x0), 2


def mixed_cases(bench, seed):
    """(plant, data, L) of the mixed plant started at rest, where
    R + K[x0] = R is 2 of its 4 states, and at random states."""
    rng = np.random.default_rng(seed)
    for x0 in (np.zeros((4, 2)), None):
        yield bench, pe_data(bench, rng, 2, 4 + 2, x0=x0), 2


def test_image_check_routes_agree_with_the_two_svd_reference(
    bench, svd_calls, cholesky_certificates
):
    # a certified case answers what the SVDs answer, with a gap of exactly
    # 0.0; a case the certificates leave open runs the two SVDs bit for bit
    sets = {
        "generic": (list(generic_cases(71, 200)), {"cholesky"}),
        "network": (list(network_cases(1, 200)), {"svd"}),
        "mixed": (list(mixed_cases(bench, 72)), {"svd", "cholesky"}),
    }
    for name, (cases, expected) in sets.items():
        routes = []
        for sys, data, L in cases:
            order = min_poly_degree(sys.A) + L
            svd_calls.clear()
            cholesky_certificates.clear()
            report = pe_image_check(sys, data, L, order)
            route = image_route(cholesky_certificates, sys, L)
            routes.append(route)
            assert len(svd_calls) == (0 if route == "cholesky" else 2)
            outcome = (report.verdict, report.data_dim, report.target_dim)
            reference = two_svd_image_check(sys, data, L)
            assert outcome == reference[:3], name
            if route == "cholesky":
                assert report.gap == 0.0 and reference[3] <= DEFAULT_RESIDUAL_RTOL
            else:
                assert report.gap == reference[3], name
        assert set(routes) == expected, name
        if name == "mixed":
            assert routes == ["svd", "cholesky"]


def unequal_length_cases(seed, count):
    """(plant, data, L) with 2 or 3 trajectories of unequal lengths, some
    as short as L: random plants at random states and, in turn, plants
    with an uncontrollable block started at rest, whose Krylov matrix no
    certificate proves full rank."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2 == 0:
            n, m, p = (int(v) for v in rng.integers(1, [7, 4, 4]))
            sys = random_system(rng, n, m, p)
        else:
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            n, m = n1 + n2, int(rng.integers(1, 3))
            A = np.zeros((n, n))
            A[:n1, :n1] = 0.8 * rng.normal(size=(n1, n1))
            A[n1:, n1:] = 0.8 * rng.normal(size=(n2, n2))
            B = np.vstack([rng.normal(size=(n1, m)), np.zeros((n2, m))])
            sys = LtiSystem(A, B, rng.normal(size=(1, n)), np.zeros((1, m)))
        L = int(rng.integers(1, 4))
        top = 2 * (min_poly_degree(sys.A) + L) + 8
        runs = []
        for T in rng.integers(L, top, size=int(rng.integers(2, 4))):
            x0 = rng.normal(size=sys.n) if k % 2 == 0 else np.zeros(sys.n)
            runs.append(simulate(sys, x0, rng.uniform(-1, 1, size=(T, sys.m))))
        yield sys, TrajectorySet(tuple(runs)), L


def parts_image_check(sys, data, L, order):
    """(report, route, D, W) of `pe_image_check` with its matrices built
    from their parts, D from `window_start_states` over `mosaic_hankel`
    and W by `krylov_matrix` of (A, [B X0]), and its two routes taken as
    its docstring states them; the SVD route is `two_svd_image_check`."""
    D = np.vstack([window_start_states(data, L), mosaic_hankel(data, L)])
    W = krylov_matrix(sys.A, np.hstack([sys.B, initial_state_matrix(data)]))
    full = sys.n + sys.m * L
    if D.shape[1] >= full and gram_certifies_full_rank(W) and gram_certifies_full_rank(D):
        return ImageCheck(Verdict.HOLDS, 0.0, order, full, full), "cholesky", D, W
    verdict, data_dim, target_dim, gap = two_svd_image_check(sys, data, L)
    return ImageCheck(verdict, gap, order, data_dim, target_dim), "svd", D, W


def test_the_one_pass_build_gives_the_image_check_of_its_parts(monkeypatch):
    # pe_image_check fills D and [B X0] in one pass over the trajectories
    # and takes W from power_blocks: every matrix it decides on must be
    # the D or W of the parts, bit for bit, and its report theirs
    asked = []

    def recording(decide):
        return lambda a: asked.append(a) or decide(a)

    for name in ("gram_certifies_full_rank", "subspace_from_columns"):
        monkeypatch.setattr(subspace, name, recording(getattr(subspace, name)))
    routes = set()
    for sys, data, L in unequal_length_cases(31, 120):
        order = min_poly_degree(sys.A) + L
        asked.clear()
        report = pe_image_check(sys, data, L, order)
        built = list(asked)
        expected, route, D, W = parts_image_check(sys, data, L, order)
        assert report == expected, (route, data.lengths)
        # W and D are all it asks of, D always and W first, unless D is
        # too narrow for the certificates
        wide = D.shape[1] >= sys.n + sys.m * L
        assert np.array_equal(built[0], W if wide else D), data.lengths
        assert any(np.array_equal(a, D) for a in built), data.lengths
        assert all(any(np.array_equal(a, b) for b in (W, D)) for a in built)
        routes.add(route)
    assert routes == {"cholesky", "svd"}


def rescaled(sys, data, scale):
    """The same runs with inputs and initial states times `scale`."""
    X0 = scale * initial_state_matrix(data).T
    U = scale * np.stack([traj.inputs for traj in data])
    return simulate_set(sys, X0, U)


def block_cases(seed, count):
    """(plant, data, L) of plants with a controllable block beside an
    uncontrollable one, in their own coordinates, started at rest and at
    random states in turn."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n, m, p = n1 + n2, int(rng.integers(1, 3)), int(rng.integers(1, 3))
        A = np.zeros((n, n))
        A[:n1, :n1] = 0.8 * rng.normal(size=(n1, n1))
        A[n1:, n1:] = 0.8 * rng.normal(size=(n2, n2))
        B = np.vstack([rng.normal(size=(n1, m)), np.zeros((n2, m))])
        sys = LtiSystem(A, B, rng.normal(size=(p, n)), np.zeros((p, m)))
        L, tau = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        x0 = np.zeros((n, tau)) if k % 2 == 0 else None
        yield sys, pe_data(sys, rng, tau, min_poly_degree(sys.A) + L, x0=x0), L


def test_image_check_keeps_verdict_and_route_when_data_are_rescaled(
    bench, cholesky_certificates
):
    # inputs and initial states times 10^k scale every state by 10^k, and
    # the data matrix with them; the Krylov matrix keeps B unscaled beside
    # the scaled initial states. Neither the verdict, nor the dimensions,
    # nor the step that decides may move
    cases = list(generic_cases(74, 60)) + list(block_cases(75, 60))
    cases += list(mixed_cases(bench, 76))
    routes = set()
    for sys, data, L in cases:
        order = min_poly_degree(sys.A) + L
        outcomes = set()
        for k in range(-3, 4):
            cholesky_certificates.clear()
            report = pe_image_check(sys, rescaled(sys, data, 10.0**k), L, order)
            route = image_route(cholesky_certificates, sys, L)
            outcomes.add((report.verdict, report.data_dim, report.target_dim, route))
        assert len(outcomes) == 1, outcomes
        routes.add(route)
    assert routes == {"cholesky", "svd"}


def test_image_check_logs_the_step_that_decided(bench, caplog):
    caplog.set_level(logging.DEBUG, logger="willems.subspace")
    for sys, data, L in mixed_cases(bench, 72):
        pe_image_check(sys, data, L, 4 + L)
    lines = [r.getMessage() for r in caplog.records if r.name == "willems.subspace"]
    assert len(lines) == 2
    assert re.fullmatch(
        r"image check: svd, data dim 4, target dim 4, gap \S+: holds", lines[0]
    )
    assert re.fullmatch(
        r"image check: cholesky certifies W 4 x 12, sigma_r/sigma_1 >= \S+, "
        r"and D 6 x \d+, sigma_r/sigma_1 >= \S+: holds",
        lines[1],
    )


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


DIAGONAL = LtiSystem(np.diag([1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
SHORT = TrajectorySet((Trajectory(np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 1))),))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: krylov_matrix(DIAGONAL.A, np.ones((3, 1))), "X0 has 3 rows"),
        (lambda: window_start_states(SHORT, 3), "trajectory 0 shorter than L=3"),
        (lambda: theorem1_image_check(DIAGONAL, SHORT, 1, delta=1), "delta=1"),
    ],
    ids=["krylov-height", "short-trajectory", "delta-below-degree"],
)
def test_each_rejected_argument_is_named(call, named):
    with pytest.raises(ValueError, match=named):
        call()


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
