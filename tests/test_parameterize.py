import importlib

import numpy as np
import pytest

from conftest import load_config
from willems import (
    LtiSystem,
    Trajectory,
    TrajectorySet,
    Verdict,
    build_trajectory_matrix,
    check_corollary1,
    min_poly_degree,
    parameterize,
    random_system,
    reconstruct_state,
    response_operators,
    simulate,
    window,
    window_target,
)
from willems.hankel import mosaic_hankel


def drive(sys, rng, tau, length, scale=1.0, x0=None):
    trajs = []
    for i in range(tau):
        start = rng.normal(size=sys.n) if x0 is None else x0[:, i]
        u = rng.uniform(-scale, scale, size=(length, sys.m))
        trajs.append(simulate(sys, start, u))
    return TrajectorySet(tuple(trajs))


def test_trajectory_matrix_shape_and_content(bench):
    rng = np.random.default_rng(1)
    data = drive(bench, rng, 2, 12)
    L = 3
    M = build_trajectory_matrix(data, L)
    assert M.shape == ((1 + 2) * L, (12 - L + 1) * 2)
    # top block rows are the input mosaic, bottom the output mosaic
    assert np.array_equal(M[: 1 * L], mosaic_hankel(data, L, "inputs"))
    assert np.array_equal(M[1 * L :], mosaic_hankel(data, L, "outputs"))


def test_window_target_flat_and_2d_agree():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[5.0], [6.0]])
    t1 = window_target(u, y)
    t2 = window_target(u.reshape(-1), y.reshape(-1))
    assert np.array_equal(t1, t2)
    assert np.array_equal(t1, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        window_target(np.zeros((2, 2, 2)), y)


def test_windows_of_the_data_parameterize_themselves(bench):
    rng = np.random.default_rng(2)
    data = drive(bench, rng, 2, 15)
    L = 4
    for start in (0, 3, 11):
        seg = window(data[0], start, L)
        sol = parameterize(data, seg.inputs, seg.outputs)
        assert sol.parameterizable
        assert sol.residual_norm < 1e-10
        # the certificate really reproduces the window
        M = build_trajectory_matrix(data, L)
        target = window_target(seg.inputs, seg.outputs)
        assert np.linalg.norm(M @ sol.g - target) < 1e-10


def test_fresh_windows_of_reachable_starts_parameterize(bench):
    rng = np.random.default_rng(3)
    # data from the origin covers exactly the controllable coordinates
    data = drive(bench, rng, 2, 20, x0=np.zeros((4, 2)))
    u = rng.uniform(-1, 1, size=(5, 1))
    probe = simulate(bench, [0.4, -1.2, 0.0, 0.0], u)
    sol = parameterize(data, probe.inputs, probe.outputs)
    assert sol.parameterizable
    # a start outside the covered coordinates is not reproducible
    bad = simulate(bench, [0.0, 0.0, 1.0, 0.0], u)
    sol = parameterize(data, bad.inputs, bad.outputs)
    assert not sol.parameterizable
    assert sol.residual_norm > 1e-3


def test_parameterize_rejects_mismatched_window(bench):
    rng = np.random.default_rng(4)
    data = drive(bench, rng, 1, 10)
    with pytest.raises(ValueError):
        parameterize(data, np.zeros(3), np.zeros(4))  # 3 inputs, 2 outputs/step
    with pytest.raises(ValueError):
        parameterize(data, np.zeros((2, 1)), np.zeros((3, 2)))


@pytest.mark.parametrize("m", [0, 2])
def test_an_input_window_that_does_not_split_into_m_channels_is_named(m):
    data = TrajectorySet((Trajectory(np.ones((5, m)), outputs=np.ones((5, 1))),))
    with pytest.raises(ValueError, match=f"input window of size 3 .* {m} channels"):
        parameterize(data, np.zeros(3), np.zeros(3))


def test_reconstruct_state_matches_simulation(bench):
    rng = np.random.default_rng(5)
    data = drive(bench, rng, 2, 14)
    L = 4
    seg = window(data[1], 6, L)
    sol = parameterize(data, seg.inputs, seg.outputs)
    x0 = reconstruct_state(data, sol.g)
    # replaying the window inputs from the reconstructed state reproduces
    # the window outputs
    replay = simulate(bench, x0, seg.inputs)
    assert np.allclose(replay.outputs, seg.outputs, atol=1e-8)
    assert np.allclose(x0, seg.states[0], atol=1e-8)


def test_reconstruct_state_infers_depth(bench):
    rng = np.random.default_rng(6)
    data = drive(bench, rng, 2, 9)
    g = np.zeros(2 * (9 - 3 + 1))
    assert reconstruct_state(data, g).shape == (4,)
    with pytest.raises(ValueError):
        reconstruct_state(data, np.zeros(5))  # matches no window depth
    stateless = TrajectorySet(
        (Trajectory(t.inputs, outputs=t.outputs) for t in data)
    )
    with pytest.raises(ValueError):
        reconstruct_state(stateless, g)


def test_response_operators_hand_case():
    sys = LtiSystem(
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0], [1.0]]),
        np.array([[1.0, 0.0]]),
        np.array([[2.0]]),
    )
    ops = response_operators(sys, 2)
    assert np.array_equal(ops.observability, [[1.0, 0.0], [1.0, 1.0]])
    # first column of the convolution is (D, CB) = (2, 0)
    assert np.array_equal(ops.convolution, [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        response_operators(sys, 0)


def test_response_operators_reproduce_windows():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p)
        L = int(rng.integers(1, 6))
        x0 = rng.normal(size=n)
        u = rng.normal(size=(L, m))
        traj = simulate(sys, x0, u)
        ops = response_operators(sys, L)
        y = ops.observability @ x0 + ops.convolution @ u.reshape(-1)
        assert np.allclose(y, traj.outputs.reshape(-1), atol=1e-9)


def test_segment_check_on_a_long_run(bench):
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, size=(60, 1))
    traj = simulate(bench, rng.normal(size=4), u)
    report = check_corollary1(traj, T=25, L=5, sys=bench)
    assert report.verdict is Verdict.HOLDS
    assert report.pe_order_required == 4 + 5
    assert report.residuals.shape == (60 - 5 + 1,)
    assert report.max_residual <= 1e-8


def test_segment_check_gates_on_prefix_excitation(bench):
    traj = simulate(bench, np.ones(4), np.zeros((40, 1)))
    report = check_corollary1(traj, T=20, L=4, sys=bench)
    assert report.verdict is Verdict.HYPOTHESIS_VIOLATED
    assert report.residuals.size == 0
    assert np.isnan(report.max_residual)


def test_segment_check_flags_corrupted_tail(bench):
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, size=(50, 1))
    traj = simulate(bench, rng.normal(size=4), u)
    dirty = traj.outputs.copy()
    dirty[40:] += 0.5  # break the dynamics after the prefix
    broken = Trajectory(traj.inputs, outputs=dirty)
    report = check_corollary1(broken, T=25, L=5, delta=4)
    assert report.verdict is Verdict.FAILS
    assert report.max_residual > 1e-3


def test_segment_check_validates_window_sizes(bench):
    traj = simulate(bench, np.zeros(4), np.zeros((10, 1)))
    with pytest.raises(ValueError):
        check_corollary1(traj, T=12, L=3, sys=bench)
    with pytest.raises(ValueError):
        check_corollary1(traj, T=8, L=0, sys=bench)
    with pytest.raises(ValueError):
        check_corollary1(traj, T=8, L=3)  # neither sys nor delta


def test_window_verdicts_do_not_depend_on_the_scale_of_the_data(bench):
    # the same data, probes and records in units 10^k apart: each verdict
    # is the one at k = 0
    rng = np.random.default_rng(10)
    data = drive(bench, rng, 2, 40)
    probe = simulate(bench, rng.normal(size=4), rng.uniform(-1, 1, size=(5, 1)))
    u = rng.uniform(-1, 1, size=(60, 1))
    clean = simulate(bench, rng.normal(size=4), u)
    dirty = clean.outputs.copy()
    dirty[40:] *= 1.01  # one percent off after the prefix
    for k in range(-9, 7):
        s = 10.0**k
        scaled = TrajectorySet(
            tuple(Trajectory(t.inputs * s, outputs=t.outputs * s) for t in data)
        )
        u_bar, y_bar = probe.inputs * s, probe.outputs * s
        assert parameterize(scaled, u_bar, y_bar).parameterizable, k
        assert not parameterize(scaled, u_bar, y_bar * 1.01).parameterizable, k
        for y, verdict in ((clean.outputs, Verdict.HOLDS), (dirty, Verdict.FAILS)):
            record = Trajectory(u * s, outputs=y * s)
            assert check_corollary1(record, 25, 5, delta=4).verdict is verdict, k


def test_segment_check_is_one_solve(bench, monkeypatch):
    # `willems.parameterize` is the function; the module is in sys.modules
    module = importlib.import_module("willems.parameterize")
    calls = []
    solve = module.least_squares
    monkeypatch.setattr(
        module, "least_squares", lambda a, b: calls.append(b.shape) or solve(a, b)
    )
    rng = np.random.default_rng(11)
    traj = simulate(bench, rng.normal(size=4), rng.uniform(-1, 1, size=(60, 1)))
    report = check_corollary1(traj, T=25, L=5, sys=bench)
    assert report.verdict is Verdict.HOLDS
    # every one of the 56 windows is a column of the one right-hand side
    assert calls == [(15, 56)]


@pytest.mark.parametrize("corrupt", [False, True])
def test_segment_check_agrees_with_parameterizing_each_window(bench, corrupt):
    rng = np.random.default_rng(12)
    traj = simulate(bench, rng.normal(size=4), rng.uniform(-1, 1, size=(50, 1)))
    if corrupt:
        outputs = traj.outputs.copy()
        outputs[40:] += 0.5
        traj = Trajectory(traj.inputs, outputs=outputs)
    T, L = 25, 5
    report = check_corollary1(traj, T, L, delta=4)
    prefix = TrajectorySet((window(traj, 0, T),))
    segs = [window(traj, k, L) for k in range(traj.length - L + 1)]
    sols = [parameterize(prefix, seg.inputs, seg.outputs) for seg in segs]
    norms = [np.linalg.norm(window_target(seg.inputs, seg.outputs)) for seg in segs]
    expected = np.array([sol.residual_norm for sol in sols]) / norms
    assert np.abs(report.residuals - expected).max() <= 1e-12
    holds = all(sol.parameterizable for sol in sols)
    assert holds is not corrupt
    assert (report.verdict is Verdict.HOLDS) is holds


def fig1_plant() -> LtiSystem:
    system = load_config("fig1_deepc.json")["system"]
    return LtiSystem(*(np.array(system[k]) for k in "ABCD"))


def time_shifted_windows(sys, rng):
    """A record of `sys` that starts k = U{1..9} steps into a trajectory
    from a random x0, with T = (m + 1)(delta + L) - 1 + U{2..7} samples
    for delta the degree of A's minimal polynomial and L = U{1..4}, so its
    inputs are generically persistently exciting of order delta + L; and
    every depth-L window of the whole trajectory, which runs L + 5 samples
    past the record's end.

    Why A must be invertible for the record to parameterize them all. The
    record's depth-L windows span those whose initial state lies in
    R + K[x_k] (Theorem 1): R the reachable subspace, K[x] the smallest
    A-invariant subspace holding x, x_k the state where the record starts.
    A window of the whole trajectory starts at some x_j in R + K[x_0], and
    x_k = A^k x_0 modulo R, so R + K[x_k] = R + A^k K[x_0]. That is
    R + K[x_0] when A is invertible, as random_system's dense Gaussian A is
    generically and fig1's A is. With a singular A, A^k K[x_0] can be
    smaller, and a window before the record need not be parameterizable.
    """
    delta, L = min_poly_degree(sys.A), int(rng.integers(1, 5))
    T = (sys.m + 1) * (delta + L) - 1 + int(rng.integers(2, 8))
    k = int(rng.integers(1, 10))
    u = rng.uniform(-1, 1, size=(T + k + L + 5, sys.m))
    whole = simulate(sys, rng.normal(size=sys.n), u)
    starts = range(whole.length - L + 1)
    return TrajectorySet((window(whole, k, T),)), [window(whole, j, L) for j in starts]


@pytest.mark.parametrize("plant", ["random", "fig1"])
def test_a_record_parameterizes_every_window_before_inside_and_after_it(plant):
    # time shift: the record parameterizes the trajectory's windows wherever
    # they start (`time_shifted_windows` says why)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        if plant == "random":
            n, m, p = int(rng.integers(2, 6)), *map(int, rng.integers(1, 3, size=2))
            sys = random_system(rng, n, m, p)
        else:
            sys = fig1_plant()
        data, windows = time_shifted_windows(sys, rng)
        for j, seg in enumerate(windows):
            sol = parameterize(data, seg.inputs, seg.outputs)
            assert sol.parameterizable, (seed, j)
