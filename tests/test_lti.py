import numpy as np
import pytest

from willems import (
    LtiSystem,
    Trajectory,
    TrajectorySet,
    random_input,
    random_system,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
    window,
)
from willems.lti import simulate_set, write_csv


def test_system_shape_validation():
    with pytest.raises(ValueError):
        LtiSystem(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        LtiSystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    sys = LtiSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    assert (sys.n, sys.m, sys.p) == (2, 1, 1)


def test_simulate_two_steps_by_hand():
    # x+ = [[1,1],[0,1]] x + [0,1]' u, y = x0 + 2 u
    sys = LtiSystem(
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0], [1.0]]),
        np.array([[1.0, 0.0]]),
        np.array([[2.0]]),
    )
    traj = simulate(sys, [1.0, 0.0], [[1.0], [-1.0]])
    # x_0 = (1,0); x_1 = A x_0 + B = (1,1)
    assert np.allclose(traj.states, [[1.0, 0.0], [1.0, 1.0]])
    # y_0 = 1 + 2 = 3; y_1 = 1 - 2 = -1
    assert np.allclose(traj.outputs, [[3.0], [-1.0]])
    assert traj.length == 2


def step_by_step(sys, x0, u):
    """The plant recursion one step at a time, as its definition reads."""
    x = np.zeros((u.shape[0], sys.n))
    y = np.zeros((u.shape[0], sys.p))
    xt = x0
    for t in range(u.shape[0]):
        x[t] = xt
        y[t] = sys.C @ xt + sys.D @ u[t]
        xt = sys.A @ xt + sys.B @ u[t]
    return x, y


def test_simulate_matches_the_step_by_step_recursion_bit_for_bit():
    # the stacked products run the same BLAS call per step as the recursion,
    # so no bit may move, whatever the sizes and the layout of the inputs
    rng = np.random.default_rng(71)
    shapes = [(1, 1, 1, 1), (1, 1, 1, 25), (5, 1, 1, 1), (1, 3, 2, 9), (4, 1, 1, 30)]
    shapes += [(*(int(v) for v in rng.integers(1, 8, size=3)), 40) for _ in range(40)]
    for n, m, p, T in shapes:
        sys = random_system(rng, n, m, p)
        x0 = rng.normal(size=n)
        raw = rng.uniform(-1, 1, size=(2 * T, 3 * m))
        layouts = {
            "C": raw[:T, :m].copy(),
            "Fortran": np.asfortranarray(raw[:T, :m]),
            "strided": raw[::2, ::3],
        }
        for name, u in layouts.items():
            run = simulate(sys, x0, u)
            x, y = step_by_step(sys, x0, u)
            assert np.array_equal(run.states, x), (n, m, p, T, name)
            assert np.array_equal(run.outputs, y), (n, m, p, T, name)
            assert np.array_equal(run.inputs, u)


def test_simulate_set_matches_simulate_bit_for_bit():
    # the stacked recursion runs one gemv per run and step, as simulate
    # does for its one run, so no bit of any run may move
    rng = np.random.default_rng(73)
    sizes = [(n, T, tau) for n in range(1, 25) for T, tau in [(1, 1), (40, 4)]]
    sizes += [tuple(int(v) for v in rng.integers(1, [25, 41, 5])) for _ in range(60)]
    for n, T, tau in sizes:
        m, p = (int(v) for v in rng.integers(1, 4, size=2))
        sys = random_system(rng, n, m, p)
        X0 = rng.normal(size=(tau, n))
        U = rng.uniform(-1, 1, size=(tau, T, m))
        runs = simulate_set(sys, X0, U)
        assert len(runs) == tau and runs.lengths == (T,) * tau
        for x0, u, run in zip(X0, U, runs):
            single = simulate(sys, x0, u)
            x, y = step_by_step(sys, x0, u)
            for got in (run.states, single.states):
                assert np.array_equal(got, x), (n, T, tau)
            for got in (run.outputs, single.outputs):
                assert np.array_equal(got, y), (n, T, tau)
            assert np.array_equal(run.inputs, u)


def test_simulate_set_rejects_bad_shapes(bench):
    for X0, U in [
        (np.zeros((2, 3)), np.zeros((2, 5, 1))),
        (np.zeros((2, 4)), np.zeros((3, 5, 1))),
        (np.zeros((2, 4)), np.zeros((2, 5, 2))),
        (np.zeros((2, 4)), np.zeros((5, 1))),
        (np.zeros((1, 4)), np.full((1, 5, 1), np.inf)),
    ]:
        with pytest.raises(ValueError):
            simulate_set(bench, X0, U)


@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize(
    "scale, channel", [((1e200, 1.0), "states"), ((1e150, 1e300), "outputs")]
)
def test_simulate_set_names_the_channel_that_overflows(tau, scale, channel):
    # over three steps from x0 = (1, 1), A = 1e200 I takes the last state
    # past the largest float; A = 1e150 I keeps the states finite, up to
    # 1e300, and C = 1e300 (1, 1) takes the outputs past it. The computed
    # arrays are checked once each, after the recursion
    A, C = scale[0] * np.eye(2), scale[1] * np.ones((1, 2))
    sys = LtiSystem(A, np.ones((2, 1)), C, [[0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"'{channel}' contains non-finite"):
            simulate_set(sys, np.ones((tau, 2)), np.zeros((tau, 3, 1)))


def test_simulate_rejects_bad_shapes(bench):
    with pytest.raises(ValueError):
        simulate(bench, np.zeros(3), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        simulate(bench, np.zeros(4), np.zeros((5, 2)))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.zeros((3, 1)), states=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([[np.nan]]))
    tr = Trajectory([1.0, 2.0, 3.0])
    assert tr.inputs.shape == (3, 1)  # scalar signals become one channel
    with pytest.raises(ValueError):
        tr.channel("outputs")


def test_trajectory_set_checks_channel_dims():
    a = Trajectory(np.zeros((4, 2)))
    b = Trajectory(np.zeros((6, 1)))
    with pytest.raises(ValueError):
        TrajectorySet((a, b))
    with pytest.raises(ValueError):
        TrajectorySet(())
    ts = TrajectorySet((a, Trajectory(np.ones((3, 2)))))
    assert len(ts) == 2
    assert ts.lengths == (4, 3)
    assert ts[1].length == 3


def test_window_is_a_sub_trajectory(bench):
    rng = np.random.default_rng(5)
    traj = simulate(bench, rng.normal(size=4), rng.uniform(-1, 1, size=(20, 1)))
    w = window(traj, 7, 6)
    assert w.length == 6
    # windows of a trajectory are themselves trajectories: re-simulating
    # from the window's first state reproduces it exactly
    again = simulate(bench, w.states[0], w.inputs)
    assert np.allclose(again.states, w.states)
    assert np.allclose(again.outputs, w.outputs)
    with pytest.raises(ValueError):
        window(traj, 16, 6)
    with pytest.raises(ValueError):
        window(traj, -1, 3)


def test_random_input_is_seeded_and_bounded():
    u1 = random_input(2, 50, -0.3, 0.7, seed=9)
    u2 = random_input(2, 50, -0.3, 0.7, seed=9)
    assert np.array_equal(u1, u2)
    assert u1.shape == (50, 2)
    assert u1.min() >= -0.3 and u1.max() <= 0.7
    assert not np.array_equal(u1, random_input(2, 50, -0.3, 0.7, seed=10))
    with pytest.raises(ValueError):
        random_input(1, 10, 1.0, -1.0, seed=0)


def carrier(states: int, outputs: int) -> Trajectory:
    return Trajectory(np.zeros((3, 1)), np.zeros((3, states)), np.zeros((3, outputs)))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: carrier(1, 1).channel("velocities"), "'velocities'"),
        (lambda: TrajectorySet((carrier(1, 1), carrier(2, 1))), "states"),
        (lambda: TrajectorySet((carrier(1, 1), carrier(1, 2))), "outputs"),
        (lambda: random_input(1, 0, -1.0, 1.0, seed=0), "T=0"),
        (lambda: random_input(0, 5, -1.0, 1.0, seed=0), "m=0"),
    ],
    ids=["unknown-channel", "state-width", "output-width", "T-zero", "m-zero"],
)
def test_each_rejected_argument_is_named(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_write_csv_removes_its_temporary_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError, match=str(target)):
        write_csv(str(target), ["t"], [[0]])
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_random_system_dimensions_and_radius():
    rng = np.random.default_rng(2)
    sys = random_system(rng, 5, 2, 3, spectral_radius=0.8)
    assert (sys.n, sys.m, sys.p) == (5, 2, 3)
    assert np.abs(np.linalg.eigvals(sys.A)).max() == pytest.approx(0.8)


def test_csv_round_trip_is_exact(bench, tmp_path):
    rng = np.random.default_rng(13)
    traj = simulate(bench, rng.normal(size=4), rng.uniform(-1, 1, size=(15, 1)))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(path))
    back = trajectory_from_csv(str(path))
    assert np.array_equal(back.inputs, traj.inputs)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.outputs, traj.outputs)


def test_csv_round_trip_inputs_only(tmp_path):
    traj = Trajectory(np.array([[0.1, -0.25], [1.0 / 3.0, 2.0]]))
    path = tmp_path / "u.csv"
    trajectory_to_csv(traj, str(path))
    back = trajectory_from_csv(str(path))
    assert np.array_equal(back.inputs, traj.inputs)
    assert back.states is None and back.outputs is None
