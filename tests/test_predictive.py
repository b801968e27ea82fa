import importlib
import json
import logging
import time
from importlib.resources import files

import numpy as np
import pytest

from mpc_oracle import state_recursion_mpc
from willems import (
    HypothesisViolated,
    InfeasibleStep,
    LtiSystem,
    MultiAgentSpec,
    PredictiveConfig,
    QuadraticProgram,
    Trajectory,
    TrajectorySet,
    build_system,
    build_trajectory_matrix,
    deepc_step,
    is_collectively_pe,
    least_squares,
    mpc_step,
    random_system,
    response_operators,
    run_closed_loop,
    simulate,
    star_edges,
    subspace_sum,
)
from willems import predictive, qp
from willems.predictive import excitation_order
from willems.subspace import (
    controllability_matrix,
    controllable_subspace,
    krylov_subspace,
    min_poly_degree,
    unobservable_subspace,
)


def scalar_plant():
    return LtiSystem(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1))
    )


def scalar_config(**overrides):
    base = dict(
        N=1,
        L=2,
        Q=np.array([[1.0]]),
        R=np.array([[0.5]]),
        r=np.array([5.0]),
        T=2,
        K=5,
    )
    base.update(overrides)
    return PredictiveConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        scalar_config(N=0)
    with pytest.raises(ValueError):
        scalar_config(T=0)  # T < N
    with pytest.raises(ValueError):
        scalar_config(K=1)  # K < T
    with pytest.raises(ValueError):
        scalar_config(L=0)
    with pytest.raises(ValueError):
        scalar_config(Q=np.array([[-1.0]]))  # not positive semidefinite
    with pytest.raises(ValueError):
        scalar_config(R=np.ones((1, 2)))
    with pytest.raises(ValueError):
        scalar_config(r=np.zeros(3))
    for box in ({"u_min": 1.0, "u_max": 0.0}, {"y_min": np.inf}, {"u_max": -np.inf}):
        with pytest.raises(ValueError, match="no value meets"):
            scalar_config(**box)


def record(T: int) -> Trajectory:
    return Trajectory(np.ones((T, 1)), outputs=np.ones((T, 1)))


@pytest.mark.parametrize(
    "call, named",
    [
        (
            lambda: scalar_config(excitation_low=1.0, excitation_high=1.0),
            "excitation_low",
        ),
        (lambda: mpc_step(scalar_plant(), record(2), scalar_config(), 4), "history"),
        (lambda: deepc_step(record(10), record(12), scalar_config(), 5), "t=5"),
    ],
    ids=["excitation-range", "short-history", "t-inside-data"],
)
def test_each_rejected_argument_is_named(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_weight_checks_are_relative_to_the_weight_scale():
    # the same indefinite, skewed and semidefinite shapes get the same
    # verdicts at every scale
    rng = np.random.default_rng(15)
    for k in range(-12, 7):
        scale = 10.0**k
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        psd = U @ np.diag(rng.uniform(0.1, 1.0, 3) * [1, 1, 0]) @ U.T
        indefinite = U @ np.diag([1.0, 0.5, -rng.uniform(0.1, 1.0)]) @ U.T
        skew = rng.normal(size=(3, 3))
        r = np.zeros(3)
        with pytest.raises(ValueError, match="semidefinite"):
            scalar_config(Q=scale * indefinite, r=r)
        with pytest.raises(ValueError, match="symmetric"):
            scalar_config(Q=scale * (psd + 0.1 * (skew - skew.T)), r=r)
        cfg = scalar_config(Q=scale * (psd + psd.T) / 2, r=r)
        assert np.array_equal(cfg.Q, scale * (psd + psd.T) / 2)
    for w in (1e-11 * np.diag([1.0, -1.0]), 1e-11 * np.array([[1.0, 0.5], [0, 1]])):
        with pytest.raises(ValueError):
            scalar_config(R=w)
    for w in (1e-11 * np.eye(2), np.zeros((2, 2)), 1e6 * np.eye(2)):
        assert np.array_equal(scalar_config(R=w).R, w)


def test_reference_tiling():
    cfg = scalar_config()
    assert np.array_equal(cfg.reference(), [5.0, 5.0])
    per_step = scalar_config(r=np.array([[1.0], [2.0]]))
    assert np.array_equal(per_step.reference(), [1.0, 2.0])


def test_bound_broadcast():
    cfg = scalar_config(u_min=-1.0, u_max=1.0)
    lo, hi = cfg.input_bounds()
    assert np.array_equal(lo, [-1.0])
    assert np.array_equal(hi, [1.0])
    lo, hi = cfg.output_bounds()
    assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))


def test_mpc_step_hand_case():
    # integrator x+ = x + u, y = x; horizon 2, Q = 1, R = 0.5, target 5.
    # With u = (1, 1) from x0 = 0 the controller sees y = (0, 1) and the
    # internal state at decision time is x = 2. Writing e = 5 - x, the
    # optimal first input is 2e/3 and the cost is 4e^2/3 (one fixed tracking
    # term, one optimized step, and the input penalty).
    sys = scalar_plant()
    cfg = scalar_config()
    hist = simulate(sys, [0.0], [[1.0], [1.0]])
    hist = Trajectory(hist.inputs, outputs=hist.outputs)
    u, obj = mpc_step(sys, hist, cfg, t=2)
    assert u.shape == (1,)
    assert u[0] == pytest.approx(2.0, abs=1e-7)
    assert obj == pytest.approx(12.0, abs=1e-6)


def test_mpc_step_respects_input_box():
    sys = scalar_plant()
    cfg = scalar_config(u_min=-0.5, u_max=0.5)
    hist = simulate(sys, [0.0], [[1.0], [1.0]])
    u, obj = mpc_step(sys, Trajectory(hist.inputs, outputs=hist.outputs), cfg, 2)
    assert u[0] == pytest.approx(0.5, abs=1e-7)


def test_mpc_step_needs_enough_history():
    sys = scalar_plant()
    cfg = scalar_config()
    short = Trajectory(np.ones((1, 1)), outputs=np.ones((1, 1)))
    with pytest.raises(ValueError):
        mpc_step(sys, short, cfg, t=0)


def test_deepc_step_matches_hand_case():
    sys = scalar_plant()
    cfg = scalar_config(T=12, K=20)
    rng = np.random.default_rng(14)
    data = simulate(sys, [0.0], rng.uniform(-1, 1, size=(12, 1)))
    data = Trajectory(data.inputs, outputs=data.outputs)
    hist = simulate(sys, [0.0], np.ones((12, 1)))
    hist = Trajectory(hist.inputs, outputs=hist.outputs)
    # x_12 = 12, e = 5 - 12 = -7: u* = 2e/3, J = 4e^2/3
    u, obj, g = deepc_step(data, hist, cfg, t=12)
    assert u[0] == pytest.approx(-14.0 / 3.0, abs=1e-6)
    assert obj == pytest.approx(4.0 * 49.0 / 3.0, rel=1e-6)
    assert g.shape == (12 - 3 + 1,)
    # g certifies the solved window [u_11, u*, 0, y_11, 12, 12 + u*] (the
    # last input reaches no output of the horizon) and is its minimum-norm
    # combination, so it lies in the row space of H
    H = build_trajectory_matrix(TrajectorySet((data,)), 3)
    window = np.array([1.0, -14.0 / 3.0, 0.0, 11.0, 12.0, 12.0 - 14.0 / 3.0])
    assert np.linalg.norm(H @ g - window) <= 1e-8 * np.linalg.norm(window)
    _, off_row_space = least_squares(H.T, g)
    assert off_row_space <= 1e-10 * np.linalg.norm(g)


def test_deepc_step_gates_on_excitation():
    sys = scalar_plant()
    cfg = scalar_config(T=12, K=20)
    data = simulate(sys, [0.0], np.zeros((12, 1)))
    data = Trajectory(data.inputs, outputs=data.outputs)
    hist = simulate(sys, [1.0], np.ones((12, 1)))
    hist = Trajectory(hist.inputs, outputs=hist.outputs)
    with pytest.raises(HypothesisViolated):
        deepc_step(data, hist, cfg, t=12)


def uncontrollable_plant(rng):
    """Random plant with a controllable block and one or two modes that the
    input cannot reach but that still drive the outputs."""
    nc = int(rng.integers(1, 4))
    nu = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    ctrl = random_system(rng, nc, m, p, spectral_radius=0.95)
    A = np.zeros((nc + nu, nc + nu))
    A[:nc, :nc] = ctrl.A
    A[:nc, nc:] = 0.5 * rng.normal(size=(nc, nu))
    A[nc:, nc:] = np.diag(rng.uniform(-0.9, 0.9, nu))
    B = np.vstack([ctrl.B, np.zeros((nu, m))])
    C = rng.normal(size=(p, nc + nu))
    D = ctrl.D if rng.integers(2) else np.zeros((p, m))
    return LtiSystem(A, B, C, D)


def test_condensed_mpc_matches_state_recursion_oracle():
    # the condensed step (variables x_{t-N}, ubar, ybar) and the full
    # state-recursion program solve the same problem; the reference is
    # pushed beyond the output box so inputs and outputs saturate. The past
    # window spans at least n samples of a well-observable plant, so the
    # measured history determines x_{t-N} and the optimum is well posed.
    rng = np.random.default_rng(2021)
    cases, done, input_active, both_active = 60, 0, 0, 0
    while done < cases:
        sys = uncontrollable_plant(rng)
        assert np.linalg.matrix_rank(controllability_matrix(sys)) < sys.n
        N = sys.n + int(rng.integers(0, 2))
        L = int(rng.integers(2, 6))
        sv = np.linalg.svd(
            response_operators(sys, N).observability, compute_uv=False
        )
        if sv[-1] < 1e-3 * sv[0]:
            continue
        t = N + 3
        run = simulate(
            sys, 2.0 * rng.normal(size=sys.n), rng.uniform(-1, 1, (t, sys.m))
        )
        hist = Trajectory(run.inputs, outputs=run.outputs)
        cap = np.abs(hist.outputs).max()
        cfg = PredictiveConfig(
            N=N,
            L=L,
            Q=np.eye(sys.p),
            R=0.1 * np.eye(sys.m),
            r=3.0 * cap * rng.normal(size=sys.p),
            T=t,
            K=t,
            u_min=-2.0,
            u_max=2.0,
            y_min=-cap,
            y_max=cap,
        )
        done += 1
        u_ref, obj_ref, status, ubar, ybar = state_recursion_mpc(sys, hist, cfg, t)
        if status == "infeasible":
            # the uncontrollable modes can push the outputs out of the box
            with pytest.raises(InfeasibleStep):
                mpc_step(sys, hist, cfg, t)
            continue
        u, obj = mpc_step(sys, hist, cfg, t)
        assert np.abs(u - u_ref).max() <= 1e-7
        assert obj == pytest.approx(obj_ref, rel=1e-7)
        u_hit = np.isclose(np.abs(ubar), 2.0, rtol=0, atol=1e-9).any()
        y_hit = np.isclose(np.abs(ybar), cap, rtol=0, atol=1e-9).any()
        input_active += u_hit
        both_active += u_hit and y_hit
    assert input_active >= cases // 2
    assert both_active >= cases // 6


def test_mpc_step_settles_where_penalty_rebalancing_would_cycle():
    # on this plant an ADMM sweep, its penalty rebalanced at full strength
    # every check, once bounced between two penalties 35x apart for all
    # 100,000 iterations, and the step applied an input of 1.28 through its
    # unit box; the active-set walk that replaced it certifies the step
    A = [[0.73, 0.67, 0.47], [0.25, 0.19, 0.11], [0.0, 0.0, -0.18]]
    B = [[2.85], [2.23], [0.0]]
    C = [[1.39, 0.32, 0.55], [0.99, 1.63, 1.23]]
    D = [[0.15], [0.49]]
    sys = LtiSystem(np.array(A), np.array(B), np.array(C), np.array(D))
    run = simulate(
        sys, [0.42, -2.45, 0.58], [[0.75], [0.92], [-0.93], [-0.73], [0.67], [0.37]]
    )
    hist = Trajectory(run.inputs, outputs=run.outputs)
    cfg = PredictiveConfig(
        N=3,
        L=5,
        Q=np.eye(2),
        R=np.array([[0.1]]),
        r=np.array([43.11, 5.16]),
        T=6,
        K=6,
        u_min=-1.0,
        u_max=1.0,
        y_min=-11.96,
        y_max=11.96,
    )
    u, obj = mpc_step(sys, hist, cfg, 6)
    u_ref, obj_ref, status, _, _ = state_recursion_mpc(sys, hist, cfg, 6)
    assert status == "optimal"
    assert u[0] == pytest.approx(1.0, abs=1e-7)
    assert np.abs(u - u_ref).max() <= 1e-7
    assert obj == pytest.approx(obj_ref, rel=1e-7)


def test_controllers_agree_on_random_plants():
    # the data-driven and model-based steps solve the same problem whenever
    # the data is exciting enough and the plant is controllable
    rng = np.random.default_rng(77)
    done = 0
    while done < 12:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_system(rng, n, m, p, spectral_radius=0.9)
        if np.linalg.matrix_rank(controllability_matrix(sys)) < n:
            continue
        N, L = 2, 2
        cfg = PredictiveConfig(
            N=N,
            L=L,
            Q=np.eye(p),
            R=0.5 * np.eye(m),
            r=rng.normal(size=p),
            T=30,
            K=40,
            u_min=-2.0,
            u_max=2.0,
        )
        data = None
        for _ in range(30):
            cand = simulate(sys, rng.normal(size=n), rng.uniform(-1, 1, (30, m)))
            if is_collectively_pe(TrajectorySet((cand,)), n + N + L):
                data = Trajectory(cand.inputs, outputs=cand.outputs)
                break
        assert data is not None
        run = simulate(sys, rng.normal(size=n), rng.uniform(-1, 1, (30, m)))
        hist = Trajectory(run.inputs, outputs=run.outputs)
        u_dd, obj_dd, _ = deepc_step(data, hist, cfg, t=30)
        u_mb, obj_mb = mpc_step(sys, hist, cfg, t=30)
        assert np.allclose(u_dd, u_mb, atol=1e-5)
        assert obj_dd == pytest.approx(obj_mb, abs=1e-6 * max(1, abs(obj_mb)))
        done += 1


def assert_loop_matches_one_shot_steps(sys, cfg, seed):
    # the closed loop builds each controller's QP once and tries the face
    # the previous step certified; a one-shot step builds and solves cold
    log = run_closed_loop(sys, cfg, controller="both", seed=seed)
    assert log.completed
    T = cfg.T
    data = Trajectory(log.inputs[:T], outputs=log.outputs[:T])
    for t in range(T, cfg.K + 1):
        assert log.statuses[t] == "optimal"
        hist = Trajectory(log.inputs[:t], outputs=log.outputs[:t])
        u_dd, _, _ = deepc_step(data, hist, cfg, t)
        u_mb, _ = mpc_step(sys, hist, cfg, t)
        assert np.abs(u_dd - log.inputs[t]).max() <= 1e-10
        assert np.abs(u_mb - log.alt_inputs[t]).max() <= 1e-10


def fig1_loop(**overrides):
    """The bundled fig1 plant, its controller config with `overrides`, and
    its seed."""
    raw = json.loads(files("willems").joinpath("configs/fig1_deepc.json").read_text())
    sys = LtiSystem(*(np.array(raw["system"][k]) for k in "ABCD"))
    keys = ("N", "L", "T", "K", "Q", "R", "r", "u_min", "u_max", "x0")
    fields = {k: raw[k] for k in keys}
    fields.update(
        excitation_low=raw["excitation_low"],
        excitation_high=raw["excitation_high"],
        **overrides,
    )
    return sys, PredictiveConfig(**fields), raw["seed"]


def test_closed_loop_steps_match_one_shot_steps_on_fig1():
    assert_loop_matches_one_shot_steps(*fig1_loop(K=40))


def test_closed_loop_steps_match_one_shot_steps_on_uncontrollable_plant():
    rng = np.random.default_rng(5)
    sys = uncontrollable_plant(rng)
    assert np.linalg.matrix_rank(controllability_matrix(sys)) < sys.n
    N, L = sys.n, 4
    T = (sys.m + 1) * (sys.n + N + L) + 5
    cfg = PredictiveConfig(
        N=N,
        L=L,
        Q=np.eye(sys.p),
        R=0.1 * np.eye(sys.m),
        r=3.0 * rng.normal(size=sys.p),
        T=T,
        K=T + 25,
        u_min=-1.0,
        u_max=1.0,
        x0=rng.normal(size=sys.n),
    )
    assert_loop_matches_one_shot_steps(sys, cfg, seed=9)


def random_loop(seed):
    """One loop of a 60-loop stress set (seeds 1000-1059): a random plant of
    up to 5 states with unit input boxes and, on about half the seeds, an
    output box."""
    rng = np.random.default_rng(seed)
    n, m, p = (int(rng.integers(*span)) for span in ((1, 6), (1, 3), (1, 3)))
    sys = random_system(rng, n, m, p, spectral_radius=rng.uniform(0.5, 1.05))
    N, L = int(rng.integers(1, n + 2)), int(rng.integers(2, 9))
    T = (m + 1) * (n + N + L) + int(rng.integers(0, 15))
    y_box = {}
    if rng.random() < 0.5:
        y_max = rng.uniform(0.5, 3)
        y_box = dict(y_min=-y_max, y_max=y_max)
    cfg = PredictiveConfig(
        N=N,
        L=L,
        Q=np.eye(p),
        R=rng.uniform(0.01, 1) * np.eye(m),
        r=2 * rng.normal(size=p),
        T=T,
        K=T + 40,
        u_min=-1.0,
        u_max=1.0,
        excitation_low=-0.5,
        excitation_high=0.5,
        **y_box,
    )
    return sys, cfg


def test_closed_loop_finishes_where_a_warm_started_sweep_stalls():
    # one of 60 random closed loops: an ADMM sweep started from the previous
    # step's iterate once ran out of iterations at t = T + 1 (KKT residual
    # 3.5e-6), while trying the last certified face first certifies it
    sys, cfg = random_loop(1022)
    n, m, p, N, L, T = sys.n, sys.m, sys.p, cfg.N, cfg.L, cfg.T
    assert (n, m, p, N, L, T) == (5, 1, 1, 6, 7, 37)
    log = run_closed_loop(sys, cfg, controller="both", seed=1022)
    assert log.completed
    assert set(log.statuses[T:]) == {"optimal"}
    assert np.abs(log.alt_inputs[T:] - log.inputs[T:]).max() <= 1e-5


@pytest.mark.parametrize("seed", [1036, 1040, 1043, 1047])
def test_controllers_agree_closely_on_stress_loops(seed):
    # the two windows differ only in where (O, G) comes from, so the applied
    # inputs agree far inside the 1e-5 of acceptance criterion 4 (1043 is
    # the stress set's worst loop, at about 1e-10)
    sys, cfg = random_loop(seed)
    log = run_closed_loop(sys, cfg, controller="both", seed=seed)
    assert log.completed
    assert set(log.statuses[cfg.T :]) == {"optimal"}
    assert np.abs(log.alt_inputs[cfg.T :] - log.inputs[cfg.T :]).max() <= 1e-9


def add_record_noise(monkeypatch, sigma):
    """Make DeePC's data matrices read the recorded outputs with seeded
    Gaussian noise of standard deviation `sigma` (rng 0) added; the
    inputs, and the plant the loop runs, stay exact."""
    build = predictive.build_trajectory_matrix

    def noisy(data, depth):
        rng = np.random.default_rng(0)
        records = tuple(
            Trajectory(
                run.inputs,
                outputs=run.outputs + sigma * rng.normal(size=run.outputs.shape),
            )
            for run in data.trajectories
        )
        return build(TrajectorySet(records), depth)

    monkeypatch.setattr(predictive, "build_trajectory_matrix", noisy)


@pytest.mark.parametrize("sigma", [1e-10, 1e-8])
def test_deepc_on_slightly_noisy_records_tracks_mpc(monkeypatch, sigma):
    # DeePC's inputs stay within a few hundred sigma of MPC's (3.3e-8 and
    # 3.3e-6 measured)
    add_record_noise(monkeypatch, sigma)
    sys, cfg, seed = fig1_loop()
    log = run_closed_loop(sys, cfg, controller="both", seed=seed)
    assert log.completed
    assert set(log.statuses[cfg.T :]) == {"optimal"}
    assert np.abs(log.alt_inputs[cfg.T :] - log.inputs[cfg.T :]).max() <= 1e3 * sigma


def test_a_noisy_long_window_ends_max_iter_within_one_sweep(monkeypatch, qp_solves):
    # with L = 15 no polish certifies the first DeePC step on noisy
    # records: the step ends max_iter when the active-set walk ends on a
    # face that does not certify, within the caps of its two polishes and
    # two phases, 3n + 3 face solves each
    add_record_noise(monkeypatch, 1e-8)
    sys, cfg, seed = fig1_loop(L=15, T=90, K=150)
    log = run_closed_loop(sys, cfg, controller="both", seed=seed)
    assert not log.completed
    assert log.statuses[-1] == "max_iter"
    status, _, path, n = qp_solves[-1]
    assert (status, path) == ("max_iter", "walk")
    assert 0 < log.iterations[-1] <= 4 * (3 * n + 3)
    assert log.kkt_residuals[-1] > 1e-8


@pytest.mark.parametrize("x0, lead", [([0.0, 0.0, 0.5, 0.2], 4), ([0.0] * 4, 2)])
def test_deepc_window_spans_the_reachable_and_initial_state_space(x0, lead):
    # the paper's uncontrollable case: fig1's second block has no input, so
    # the data's free responses span O (R + K[x0]), which loses that block
    # when x0 does not excite it; the DeePC QP's lead block is that dimension
    sys, cfg, _ = fig1_loop(L=15, T=90, K=150, x0=x0)
    u = np.random.default_rng(0).uniform(-1, 1, (90, 1))
    order = excitation_order(sys, cfg)
    assert is_collectively_pe(TrajectorySet((Trajectory(u),)), order)
    run = simulate(sys, x0, u)
    space = subspace_sum(controllable_subspace(sys), krylov_subspace(sys.A, x0))
    H = build_trajectory_matrix(TrajectorySet((run,)), cfg.N + cfg.L)
    window = predictive._Window(cfg, predictive._data_operators(H, cfg))
    assert window.lead == space.dim == lead
    assert window.workspace.program.P.shape[0] == lead + 15 * (1 + 2)
    assert window.workspace.program.Aeq.shape[0] == (4 + 15) * 2


def test_mpc_window_keeps_the_observable_part_of_the_state():
    # fig1's outputs see all four states, so the model's window keeps them all
    sys, cfg, _ = fig1_loop()
    window = predictive._Window(cfg, response_operators(sys, cfg.N + cfg.L))
    assert window.lead == sys.n - unobservable_subspace(sys).dim == 4


def test_deepc_window_logs_its_free_response_rank(caplog):
    # each window cuts its own O and logs that one rank decision, the
    # model's window as the data's
    caplog.set_level(logging.DEBUG, logger="willems.predictive")
    run_closed_loop(scalar_plant(), scalar_config(T=8, K=10), "mpc", seed=3)
    (record,) = caplog.records
    assert "free response rank 1, sigma_r/sigma_1 = 1.000e+00" in record.getMessage()
    caplog.clear()
    run_closed_loop(scalar_plant(), scalar_config(T=8, K=10), "deepc", seed=3)
    (record,) = caplog.records
    message = record.getMessage()
    assert record.levelno == logging.DEBUG
    assert "free response rank 1, sigma_r/sigma_1 = 1.000e+00" in message


def test_closed_loop_log_shape_and_phases():
    sys = scalar_plant()
    cfg = scalar_config(T=8, K=14, u_min=-4.0, u_max=4.0)
    log = run_closed_loop(sys, cfg, controller="mpc", seed=3)
    assert log.completed
    assert log.length == 15
    assert log.phases[:8] == ("excite",) * 8
    assert log.phases[8:] == ("control",) * 7
    assert np.all(np.isnan(log.objectives[:8]))
    assert np.all(np.isfinite(log.objectives[8:]))
    assert log.statuses[8:] == ("optimal",) * 7
    # control inputs respect the box
    assert np.abs(log.inputs[8:]).max() <= 4.0 + 1e-9
    # excitation inputs use the configured range
    assert np.abs(log.inputs[:8]).max() <= 1.0


def test_closed_loop_is_deterministic():
    sys = scalar_plant()
    cfg = scalar_config(T=8, K=12)
    a = run_closed_loop(sys, cfg, controller="deepc", seed=5)
    b = run_closed_loop(sys, cfg, controller="deepc", seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.outputs, b.outputs)
    c = run_closed_loop(sys, cfg, controller="deepc", seed=6)
    assert not np.array_equal(a.inputs, c.inputs)


def test_closed_loop_tracks_the_reference():
    sys = scalar_plant()
    cfg = scalar_config(T=8, K=25)
    log = run_closed_loop(sys, cfg, controller="deepc", seed=3)
    assert abs(log.outputs[-1, 0] - 5.0) < 1e-3


def test_closed_loop_both_mode_fills_alt_fields():
    sys = scalar_plant()
    cfg = scalar_config(T=8, K=14)
    log = run_closed_loop(sys, cfg, controller="both", seed=3)
    assert log.alt_inputs is not None
    assert np.all(np.isnan(log.alt_inputs[:8]))
    assert np.all(np.isfinite(log.alt_inputs[8:]))
    assert np.allclose(log.inputs[8:], log.alt_inputs[8:], atol=1e-5)


def test_closed_loop_aborts_on_infeasible_step():
    # unstable plant drifting out of a tight output box during excitation
    sys = LtiSystem(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1))
    )
    cfg = PredictiveConfig(
        N=1,
        L=2,
        Q=np.array([[1.0]]),
        R=np.array([[0.5]]),
        r=np.array([0.0]),
        T=8,
        K=12,
        y_min=-0.5,
        y_max=0.5,
        excitation_low=-0.1,
        excitation_high=0.1,
        x0=np.array([1.0]),
    )
    log = run_closed_loop(sys, cfg, controller="mpc", seed=0)
    assert not log.completed
    assert log.length == 9  # aborted at the first control step
    assert log.statuses[-1] == "infeasible"
    assert np.isnan(log.inputs[-1]).all()


def test_closed_loop_rejects_too_short_excitation():
    # order delta + N + L = 4 with one input needs T >= 2 * 4 - 1 = 7 samples
    sys = scalar_plant()
    assert excitation_order(sys, scalar_config(T=7, K=10)) == 4
    with pytest.raises(ValueError, match="too short"):
        excitation_order(sys, scalar_config(T=6, K=10))
    with pytest.raises(ValueError, match="too short"):
        run_closed_loop(sys, scalar_config(T=6, K=10), controller="mpc", seed=0)


def test_closed_loop_excites_a_network_below_the_classical_order(monkeypatch):
    # identical agents repeat one block in A, so its minimal polynomial has
    # the agent's degree delta = 2 < n; online data exciting of order
    # delta + N + L, too short for order n + N + L, make DeePC match MPC.
    # The star's outputs see only relative states, so the model's window
    # drops the common mode from its lead block, and every QP face of
    # either window is then factored by LU, none by the SVD pseudo-inverse
    faces = []
    certified = qp.certified_inverse

    def recording(a):
        inv = certified(a)
        faces.append(inv is not None)
        return inv

    monkeypatch.setattr(qp, "certified_inverse", recording)
    rng = np.random.default_rng(1)
    N, L = 3, 4
    for agents in (3, 5):
        agent = random_system(rng, 2, 1, 1, spectral_radius=0.9)
        sys = build_system(
            MultiAgentSpec(agent.A, agent.B, agents, star_edges(agents))
        )
        delta = min_poly_degree(sys.A)
        assert delta == 2 < sys.n
        T = (sys.m + 1) * (delta + N + L) - 1
        assert T < (sys.m + 1) * (sys.n + N + L) - 1
        cfg = PredictiveConfig(
            N=N,
            L=L,
            Q=np.eye(sys.p),
            R=0.5 * np.eye(sys.m),
            r=rng.normal(size=sys.p),
            T=T,
            K=T + 40,
            u_min=-1.0,
            u_max=1.0,
        )
        assert excitation_order(sys, cfg) == delta + N + L
        window = predictive._Window(cfg, response_operators(sys, N + L))
        assert window.lead == sys.n - unobservable_subspace(sys).dim == sys.n - 2
        faces.clear()
        log = run_closed_loop(sys, cfg, controller="both", seed=agents)
        assert log.statuses[T:] == ("optimal",) * 41
        assert np.abs(log.inputs[T:] - log.alt_inputs[T:]).max() <= 1e-5
        assert faces and all(faces), (agents, faces)


@pytest.mark.parametrize("controller", ["mpc", "deepc", "both"])
def test_closed_loop_checks_its_excitation_once(monkeypatch, controller):
    orders = []

    def counted(data, d):
        orders.append(d)
        return is_collectively_pe(data, d)

    # the two modules of the closed loop that ask for a PE verdict
    for name in ("willems.subspace", "willems.predictive"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "is_collectively_pe", counted)
    log = run_closed_loop(scalar_plant(), scalar_config(T=8, K=14), controller, 3)
    assert log.completed
    assert orders == [4]  # the draw, at delta + N + L = 1 + 1 + 2


def test_first_control_step_times_building_the_windows(monkeypatch):
    build = predictive.response_operators

    def slow_build(sys, L):
        time.sleep(0.05)
        return build(sys, L)

    monkeypatch.setattr(predictive, "response_operators", slow_build)
    log = run_closed_loop(scalar_plant(), scalar_config(T=8, K=12), "mpc", seed=3)
    assert log.solve_ms[8] >= 50.0 > log.solve_ms[9:].max()


def test_closed_loop_rejects_mismatched_config():
    sys = scalar_plant()
    cfg = scalar_config(Q=np.eye(2), r=np.zeros(2))
    with pytest.raises(ValueError, match="'Q' and 'R'"):
        excitation_order(sys, cfg)
    with pytest.raises(ValueError):
        run_closed_loop(sys, cfg, controller="mpc", seed=0)
    with pytest.raises(ValueError):
        run_closed_loop(sys, scalar_config(), controller="other", seed=0)


@pytest.mark.parametrize("step", ["mpc", "deepc"])
def test_one_shot_steps_reject_weights_that_do_not_match(step):
    # a 2-output Q on the single-output plant and its data fails with the
    # closed loop's message, not with one from building the window
    sys = scalar_plant()
    cfg = scalar_config(Q=np.eye(2), r=np.zeros(2), T=12, K=20)
    run = simulate(sys, [0.0], np.random.default_rng(14).uniform(-1, 1, (12, 1)))
    hist = Trajectory(run.inputs, outputs=run.outputs)
    with pytest.raises(ValueError, match="weights 'Q' and 'R' do not match"):
        if step == "mpc":
            mpc_step(sys, hist, cfg, t=12)
        else:
            deepc_step(hist, hist, cfg, t=12)


def test_closed_loop_builds_one_program_per_controller(monkeypatch):
    # every step hands its controller's workspace only the new beq, so a
    # comparison loop builds two programs however many steps it runs
    built = []
    post_init = QuadraticProgram.__post_init__

    def counted(prob):
        built.append(prob)
        post_init(prob)

    monkeypatch.setattr(QuadraticProgram, "__post_init__", counted)
    log = run_closed_loop(scalar_plant(), scalar_config(T=8, K=14), "both", seed=3)
    assert log.completed and log.length == 15
    assert len(built) == 2


def test_log_csv_round_trip(tmp_path):
    sys = scalar_plant()
    cfg = scalar_config(T=8, K=12)
    log = run_closed_loop(sys, cfg, controller="deepc", seed=5)
    path = tmp_path / "log.csv"
    log.to_csv(str(path))
    rows = path.read_text().strip().split("\n")
    assert rows[0] == (
        "t,phase,u_0,y_0,objective,iterations,kkt_residual,status,solve_ms"
    )
    assert len(rows) == 1 + log.length
    assert rows[1].split(",")[5:8] == ["0", "nan", "excite"]
    cells = rows[9].split(",")
    assert cells[1] == "control"
    assert float(cells[2]) == log.inputs[8, 0]
    assert float(cells[3]) == log.outputs[8, 0]
    assert int(cells[5]) == log.iterations[8] > 0
    assert float(cells[6]) == log.kkt_residuals[8] <= 1e-8

    plot = tmp_path / "plot.csv"
    log.to_plot_csv(str(plot))
    prows = plot.read_text().strip().split("\n")
    assert prows[0] == "t,y_0,r_0"
    assert len(prows) == 1 + log.length
    assert float(prows[1].split(",")[2]) == 5.0
