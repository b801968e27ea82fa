import math

import numpy as np
import pytest

from conftest import agent_pair
from willems import (
    HypothesisViolated,
    MarkovParams,
    MultiAgentSpec,
    Trajectory,
    TrajectorySet,
    analytic_tau_bound,
    build_system,
    collect_trajectories,
    markov_from_data,
    min_trajectory_sweep,
    recover_system,
    star_edges,
    sweep_to_csv,
)


def star_spec(N=3, seed=0, nbar=2, mbar=1):
    """Random controllable agent pair on a star graph."""
    rng = np.random.default_rng(seed)
    while True:
        Abar = rng.normal(size=(nbar, nbar))
        Abar *= 0.95 / np.abs(np.linalg.eigvals(Abar)).max()
        Bbar = rng.normal(size=(nbar, mbar))
        try:
            return MultiAgentSpec(Abar, Bbar, N, star_edges(N))
        except ValueError:
            continue  # rare uncontrollable draw


def strip_states(data):
    return TrajectorySet(
        tuple(Trajectory(t.inputs, outputs=t.outputs) for t in data)
    )


def true_params(spec, kmax):
    E = spec.incidence()
    out = []
    power = np.eye(spec.nbar)
    for _ in range(kmax):
        out.append(np.kron(E, power @ spec.Bbar))
        power = spec.Abar @ power
    return out


def test_star_edges_and_incidence():
    assert star_edges(3) == ((0, 1), (0, 2))
    assert star_edges(1) == ()
    spec = star_spec(4)
    E = spec.incidence()
    assert E.shape == (3, 4)
    assert np.array_equal(E[:, 0], np.ones(3))
    assert np.array_equal(E[:, 1:], -np.eye(3))


def test_spec_validation():
    Abar, Bbar = agent_pair()
    with pytest.raises(ValueError):
        MultiAgentSpec(Abar[:2], Bbar, 3, star_edges(3))  # Abar not square
    with pytest.raises(ValueError):
        MultiAgentSpec(Abar, Bbar[:2], 3, star_edges(3))  # row mismatch
    with pytest.raises(ValueError):
        MultiAgentSpec(Abar, Bbar, 3, ((0, 3),))  # edge out of range
    with pytest.raises(ValueError):
        MultiAgentSpec(Abar, Bbar, 3, ((1, 1),))  # self loop
    with pytest.raises(ValueError):
        # uncontrollable pair is rejected
        MultiAgentSpec(np.eye(2), np.ones((2, 1)), 3, star_edges(3))
    # endpoints that int() would truncate to a valid-looking edge
    for edge in ((0.5, 1), (0, 1.9), (True, 2), (0, np.True_), (0, np.inf)):
        with pytest.raises(ValueError, match="non-integer endpoint"):
            MultiAgentSpec(Abar, Bbar, 3, (edge,))


def test_spec_takes_integral_endpoints_of_any_numeric_type():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, ((0.0, np.int64(1)), (2, 1.0)))
    assert spec.edges == ((0, 1), (2, 1))
    assert all(type(v) is int for edge in spec.edges for v in edge)


def test_build_system_kronecker_structure():
    spec = star_spec(3, seed=5)
    sys = build_system(spec)
    N, nbar, mbar = 3, spec.nbar, spec.mbar
    assert (sys.n, sys.m, sys.p) == (N * nbar, N * mbar, spec.M * nbar)
    assert np.array_equal(sys.A, np.kron(np.eye(N), spec.Abar))
    assert np.array_equal(sys.B, np.kron(np.eye(N), spec.Bbar))
    assert np.array_equal(sys.C, np.kron(spec.incidence(), np.eye(nbar)))
    assert not sys.D.any()


def test_collect_trajectories_shapes_and_determinism():
    spec = star_spec(3, seed=1)
    sys = build_system(spec)
    a = collect_trajectories(sys, tau=2, T=15, low=-0.1, high=0.1, seed=4)
    b = collect_trajectories(sys, tau=2, T=15, low=-0.1, high=0.1, seed=4)
    assert len(a) == 2
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.inputs, tb.inputs)
        assert np.array_equal(ta.outputs, tb.outputs)
        assert ta.length == 15
        assert np.abs(ta.inputs).max() <= 0.1
        # runs start at rest
        assert not ta.states[0].any()


def test_markov_params_container():
    Abar, Bbar = agent_pair()
    M1 = np.kron(np.array([[1.0], [1.0]]), Bbar)
    M2 = np.kron(np.array([[1.0], [1.0]]), Abar @ Bbar)
    params = MarkovParams((M1, M2))
    assert params.kmax == 2
    assert np.array_equal(params.param(0), np.zeros_like(M1))
    assert np.array_equal(params.param(2), M2)
    with pytest.raises(ValueError):
        params.param(3)
    with pytest.raises(ValueError):
        MarkovParams(())


def test_markov_from_data_recovers_truth():
    spec = star_spec(3, seed=7)
    sys = build_system(spec)
    kmax = spec.nbar + 1
    data = strip_states(
        collect_trajectories(sys, tau=2, T=60, low=-1.0, high=1.0, seed=2)
    )
    params = markov_from_data(data, sys.n, kmax)
    for k, truth in enumerate(true_params(spec, kmax), start=1):
        assert np.linalg.norm(params.param(k) - truth) < 1e-8


def test_markov_from_data_validates_inputs():
    spec = star_spec(3, seed=3)
    sys = build_system(spec)
    data = strip_states(
        collect_trajectories(sys, tau=1, T=40, low=-1.0, high=1.0, seed=1)
    )
    with pytest.raises(ValueError):
        markov_from_data(data, sys.n, 0)
    with pytest.raises(ValueError):
        markov_from_data(data, sys.n, sys.n + 1)  # impulse slot out of window
    no_outputs = TrajectorySet((Trajectory(data[0].inputs),))
    with pytest.raises(ValueError):
        markov_from_data(no_outputs, sys.n, 2)


def test_markov_from_data_gates_on_excitation():
    spec = star_spec(3, seed=3)
    sys = build_system(spec)
    quiet = TrajectorySet(
        (Trajectory(np.zeros((sys.n + 5, sys.m)), outputs=np.zeros((sys.n + 5, sys.p))),)
    )
    with pytest.raises(HypothesisViolated) as info:
        markov_from_data(quiet, sys.n, 2)
    assert info.value.order_required == sys.n + 2


def test_markov_from_data_rejects_corrupted_outputs():
    spec = star_spec(3, seed=9)
    sys = build_system(spec)
    data = collect_trajectories(sys, tau=2, T=60, low=-1.0, high=1.0, seed=5)
    rng = np.random.default_rng(0)
    dirty = TrajectorySet(
        tuple(
            Trajectory(t.inputs, outputs=t.outputs + 0.1 * rng.normal(size=t.outputs.shape))
            for t in data
        )
    )
    with pytest.raises(ValueError, match="model class"):
        markov_from_data(dirty, sys.n, 2)


def test_recover_system_round_trip():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    kmax = spec.nbar + 1
    params = MarkovParams(tuple(true_params(spec, kmax)))
    rec = recover_system(params, (0, 0, 1), spec.nbar, spec.mbar)
    assert np.allclose(rec.Abar, Abar, atol=1e-10)
    assert np.allclose(rec.Bbar, Bbar, atol=1e-10)
    assert np.array_equal(rec.E, spec.incidence())


def test_recover_system_sign_ambiguity_is_consistent():
    # flipping the anchor sign flips Bbar and E together; the products
    # E x Markov blocks are unchanged
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    params = MarkovParams(tuple(true_params(spec, spec.nbar + 1)))
    rec = recover_system(params, (0, 0, -1), spec.nbar, spec.mbar)
    assert np.allclose(rec.Abar, Abar, atol=1e-10)
    assert np.allclose(rec.Bbar, -Bbar, atol=1e-10)
    assert np.array_equal(rec.E, -spec.incidence())
    assert np.allclose(np.kron(rec.E, rec.Bbar), params.param(1), atol=1e-9)


def test_recover_system_validates_anchor_and_shapes():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    params = MarkovParams(tuple(true_params(spec, spec.nbar + 1)))
    with pytest.raises(ValueError):
        recover_system(params, (0, 0, 2), spec.nbar, spec.mbar)
    with pytest.raises(ValueError):
        recover_system(params, (5, 0, 1), spec.nbar, spec.mbar)
    with pytest.raises(ValueError):
        recover_system(params, (0, 0, 1), 3, spec.mbar)  # does not tile
    short = MarkovParams(tuple(true_params(spec, 2)))
    with pytest.raises(ValueError):
        recover_system(short, (0, 0, 1), spec.nbar, spec.mbar)


def test_recover_system_rejects_rank_deficient_stack():
    # Abar kills Bbar, so the stacked blocks [B, AB] only span one direction
    Bbar = np.array([[1.0], [0.0]])
    Abar = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert np.allclose(Abar @ Bbar, 0)
    E = np.array([[1.0], [1.0]])
    params = MarkovParams(
        tuple(np.kron(E, np.linalg.matrix_power(Abar, k) @ Bbar) for k in range(3))
    )
    with pytest.raises(ValueError, match="rank"):
        recover_system(params, (0, 0, 1), 2, 1)


def test_recover_system_rejects_unmatchable_block():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    blocks = true_params(spec, spec.nbar + 1)
    first = blocks[0].copy()
    first[:4, 2:4] *= 0.5  # block (0, 1): neither +-Bbar nor zero
    params = MarkovParams((first, *blocks[1:]))
    with pytest.raises(ValueError, match="neither"):
        recover_system(params, (0, 0, 1), spec.nbar, spec.mbar)


def test_identification_pipeline_end_to_end():
    # data -> Markov parameters -> agent dynamics and graph
    spec = star_spec(4, seed=11, nbar=3, mbar=2)
    sys = build_system(spec)
    data = strip_states(
        collect_trajectories(sys, tau=2, T=80, low=-1.0, high=1.0, seed=8)
    )
    params = markov_from_data(data, sys.n, spec.nbar + 1)
    rec = recover_system(params, (0, 0, 1), spec.nbar, spec.mbar)
    assert np.allclose(rec.Abar, spec.Abar, atol=1e-7)
    assert np.allclose(rec.Bbar, spec.Bbar, atol=1e-7)
    assert np.array_equal(rec.E, spec.incidence())


@pytest.mark.parametrize("N, tau, tau_full", [(4, 2, 3), (5, 3, 6)])
def test_identification_at_the_analytic_trajectory_bound(N, tau, tau_full):
    # the bundled agents on a star, identified from as few trajectories as
    # corollary 2's excitation order allows; the full-state order asks
    # for more
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, N, star_edges(N))
    T = 120
    _, bound = analytic_tau_bound(spec.nbar, spec.mbar, N, T, "corollary2")
    _, full = analytic_tau_bound(spec.nbar, spec.mbar, N, T, "full_n")
    assert (math.ceil(bound), math.ceil(full)) == (tau, tau_full)
    sys = build_system(spec)
    data = strip_states(collect_trajectories(sys, tau, T, -0.1, 0.1, seed=12))
    params = markov_from_data(data, sys.n, spec.nbar + 1)
    rec = recover_system(params, (0, 0, 1), spec.nbar, spec.mbar)
    assert np.linalg.norm(rec.Abar - Abar) <= 1e-6
    assert np.linalg.norm(rec.Bbar - Bbar) <= 1e-6
    assert np.linalg.norm(rec.E - spec.incidence()) <= 1e-6


def test_analytic_bound_hand_values():
    # depth d = (N+1) nbar + 1 or 2 N nbar + 1; bound = d N mbar / (T-d+1)
    d, bound = analytic_tau_bound(4, 2, 3, 120, "corollary2")
    assert d == 17
    assert bound == pytest.approx(17 * 6 / 104)
    d, bound = analytic_tau_bound(4, 2, 3, 120, "full_n")
    assert d == 25
    assert bound == pytest.approx(25 * 6 / 96)
    # order larger than T means no single-length-T data can work
    d, bound = analytic_tau_bound(4, 2, 40, 120, "corollary2")
    assert math.isinf(bound)
    with pytest.raises(ValueError):
        analytic_tau_bound(4, 2, 3, 120, "nonsense")


def test_sweep_matches_bounds_on_small_case():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    rows = min_trajectory_sweep(spec, 120, "corollary2", seed=12, agents=(3, 4))
    assert [r.N for r in rows] == [3, 4]
    for r in rows:
        assert r.tau_min == r.analytic_bound  # empirical equals the ceiling
        assert r.rule == "corollary2"
        assert r.pe_order == (r.N + 1) * 4 + 1


def test_sweep_marks_impossible_points():
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    rows = min_trajectory_sweep(spec, 120, "full_n", seed=1, agents=(40,))
    assert rows[0].tau_min == -1


def test_sweep_csv_round_trip(tmp_path):
    Abar, Bbar = agent_pair()
    spec = MultiAgentSpec(Abar, Bbar, 3, star_edges(3))
    rows = min_trajectory_sweep(spec, 120, "corollary2", seed=12, agents=(3,))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(rows, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "N,rule,tau_min,analytic_bound,pe_order,elapsed_ms"
    cells = lines[1].split(",")
    assert int(cells[0]) == 3
    assert cells[1] == "corollary2"
    assert int(cells[2]) == rows[0].tau_min


def identify(spec, anchor):
    """The bundled identification pipeline on `spec`: three trajectories of
    120 samples at seed 12, Markov parameters through nbar + 1."""
    sys = build_system(spec)
    data = strip_states(collect_trajectories(sys, 3, 120, -0.1, 0.1, seed=12))
    params = markov_from_data(data, sys.n, spec.nbar + 1)
    return recover_system(params, anchor, spec.nbar, spec.mbar)


@pytest.mark.parametrize("draw", range(6))
def test_identification_is_invariant_to_relabelling_agents_and_edges(draw):
    # node k becomes pi[k] and edge e becomes sigma[e], the anchor moving
    # with them: the agents are recovered unchanged and E with its columns
    # permuted by pi and its rows by sigma
    Abar, Bbar = agent_pair()
    edges = ((0, 1), (0, 2), (1, 3), (2, 3))
    base = identify(MultiAgentSpec(Abar, Bbar, 4, edges), (0, 0, 1))
    rng = np.random.default_rng(draw)
    pi, sigma = rng.permutation(4), rng.permutation(len(edges))
    moved = [None] * len(edges)
    for e, (head, tail) in enumerate(edges):
        moved[sigma[e]] = (pi[head], pi[tail])
    rec = identify(
        MultiAgentSpec(Abar, Bbar, 4, tuple(moved)), (sigma[0], pi[0], 1)
    )
    E = np.empty_like(base.E)
    E[np.ix_(sigma, pi)] = base.E
    assert np.abs(rec.E - E).max() <= 1e-6
    assert np.abs(rec.Abar - base.Abar).max() <= 1e-6
    assert np.abs(rec.Bbar - base.Bbar).max() <= 1e-6
