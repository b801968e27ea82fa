import numpy as np
import pytest

from activeset_oracle import random_box_qp, solve_reference
from willems import QuadraticProgram, qp, solve_qp
from willems.qp import Workspace


def test_problem_validation():
    with pytest.raises(ValueError):
        QuadraticProgram(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(1), np.zeros(1), lb=[1.0], ub=[0.0])
    for box in ({"lb": [np.inf]}, {"ub": [-np.inf]}):  # no value meets them
        with pytest.raises(ValueError):
            QuadraticProgram(np.eye(1), np.zeros(1), **box)
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(1), np.zeros(1), Aeq=np.eye(1))  # beq missing
    prob = QuadraticProgram(np.eye(2), np.ones(2))
    assert np.all(np.isinf(prob.lb)) and np.all(np.isinf(prob.ub))
    assert prob.objective([1.0, 0.0]) == pytest.approx(1.5)


def test_absent_equality_rows_are_an_empty_system():
    # a program without equality rows is the 0 x n system, and solves to
    # the same bits as that system passed explicitly
    rng = np.random.default_rng(7)
    for _ in range(20):
        P, q, _, _, lb, ub = random_box_qp(rng)
        n = q.shape[0]
        bare = QuadraticProgram(P, q, lb=lb, ub=ub)
        assert bare.Aeq.shape == (0, n) and bare.beq.shape == (0,)
        empty = QuadraticProgram(
            P, q, Aeq=np.zeros((0, n)), beq=np.zeros(0), lb=lb, ub=ub
        )
        first, second = solve_qp(bare), solve_qp(empty)
        assert first.status == second.status == "optimal"
        assert np.array_equal(first.x, second.x)
        assert first.iterations == second.iterations
        assert first.kkt_residual == second.kkt_residual


def test_unconstrained_quadratic():
    # min 0.5 x'x - (1,2)'x at x = (1, 2), objective -2.5
    sol = solve_qp(QuadraticProgram(np.eye(2), [-1.0, -2.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-8)
    assert sol.objective == pytest.approx(-2.5, abs=1e-9)
    assert sol.kkt_residual <= 1e-8


def test_clipped_box_solution():
    # separable: min (x-3)^2 + (y+1)^2 over [0,2] x [0,2]
    prob = QuadraticProgram(
        2 * np.eye(2), [-6.0, 2.0], lb=[0.0, 0.0], ub=[2.0, 2.0]
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, 0.0], atol=1e-9)


def test_equality_constrained_hand_case():
    # min 0.5 (x^2 + y^2) subject to x + y = 2: x = y = 1
    prob = QuadraticProgram(np.eye(2), np.zeros(2), Aeq=[[1.0, 1.0]], beq=[2.0])
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_redundant_equalities_are_fine():
    # the same constraint twice: rank-deficient but consistent
    prob = QuadraticProgram(
        np.eye(2),
        np.zeros(2),
        Aeq=[[1.0, 1.0], [2.0, 2.0]],
        beq=[2.0, 4.0],
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)


def test_singular_objective_minimum_norm():
    # cost only on x0; the equality leaves (x1, x2) free, the polish picks
    # the minimum-norm completion
    P = np.zeros((3, 3))
    P[0, 0] = 2.0
    prob = QuadraticProgram(
        P, [-2.0, 0.0, 0.0], Aeq=[[1.0, 1.0, 1.0]], beq=[3.0]
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.x[1] == pytest.approx(sol.x[2], abs=1e-7)


def test_inconsistent_equalities_detected():
    prob = QuadraticProgram(
        np.eye(1), np.zeros(1), Aeq=[[1.0], [1.0]], beq=[0.0, 1.0]
    )
    assert solve_qp(prob).status == "infeasible"


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3, 4))
def test_equality_feasibility_does_not_depend_on_the_scale(scale):
    # two copies of one row that ask for values a relative gap apart are
    # inconsistent at every scale; with no gap they are one row
    for gap in (1e-4, 1e-7, 0.0):
        prob = QuadraticProgram(
            scale * np.eye(2),
            np.zeros(2),
            Aeq=scale * np.ones((2, 2)),
            beq=scale * np.array([1.0, 1.0 + gap]),
        )
        sol = solve_qp(prob)
        assert sol.status == ("optimal" if gap == 0.0 else "infeasible"), gap
        if gap == 0.0:
            assert np.allclose(sol.x, [0.5, 0.5])


def test_box_equality_conflict_detected():
    # x must equal 5 but the box stops at 1
    prob = QuadraticProgram(
        np.eye(2),
        np.zeros(2),
        Aeq=[[1.0, 0.0]],
        beq=[5.0],
        lb=[-1.0, -1.0],
        ub=[1.0, 1.0],
    )
    sol = solve_qp(prob)
    assert sol.status == "infeasible"


def test_unbounded_direction_detected():
    # zero curvature, linear drift, no bounds
    sol = solve_qp(QuadraticProgram(np.zeros((1, 1)), [-1.0]))
    assert sol.status == "unbounded"


def test_pinned_coordinates():
    # lb == ub pins the coordinate exactly
    prob = QuadraticProgram(
        np.eye(2), np.zeros(2), lb=[0.7, -np.inf], ub=[0.7, np.inf]
    )
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.7, abs=1e-10)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-10)


def test_reported_residual_is_honest():
    rng = np.random.default_rng(33)
    for _ in range(30):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng)
        prob = QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub)
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= 1e-8
        assert sol.objective == pytest.approx(prob.objective(sol.x), abs=1e-12)


def test_matches_reference_on_strictly_convex_batch():
    rng = np.random.default_rng(100)
    for _ in range(60):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng)
        prob = QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub)
        sol = solve_qp(prob)
        ref_obj, ref_x, unique = solve_reference(P, q, Aeq, beq, lb, ub)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
        if unique:
            assert np.allclose(sol.x, ref_x, atol=1e-5)


def test_matches_reference_on_singular_batch():
    rng = np.random.default_rng(200)
    for _ in range(40):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=True)
        prob = QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub)
        sol = solve_qp(prob)
        ref_obj, ref_x, unique = solve_reference(P, q, Aeq, beq, lb, ub)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
        if unique:
            assert np.allclose(sol.x, ref_x, atol=1e-5)


def simplex_program(**changes):
    data = dict(
        P=np.diag([2.0, 1.0, 1.0]),
        q=[1.0, -1.0, 0.5],
        Aeq=[[1.0, 1.0, 1.0]],
        beq=[1.0],
        lb=[-1.0, -1.0, -1.0],
        ub=[1.0, 1.0, 1.0],
    )
    data.update(changes)
    return QuadraticProgram(**data)


def test_workspace_takes_new_q_and_beq_but_rejects_other_data():
    ws = Workspace(simplex_program())
    sol = solve_qp(simplex_program(q=[0.0, 2.0, -1.0], beq=[0.5]), workspace=ws)
    assert sol.status == "optimal"
    for changed in (
        simplex_program(P=np.eye(3)),
        simplex_program(Aeq=[[1.0, 1.0, 0.0]]),
        simplex_program(Aeq=None, beq=None),
        simplex_program(lb=[-1.0, -1.0, -2.0]),
        simplex_program(ub=[1.0, np.inf, 1.0]),
    ):
        with pytest.raises(ValueError, match="workspace"):
            solve_qp(changed, workspace=ws)


def test_repeat_solves_through_a_workspace_match_a_fresh_solve_bitwise():
    # the second solve starts warm and polishes through a cached face
    # factorization; the certified answer is the same bits as a cold solve
    rng = np.random.default_rng(33)
    for _ in range(30):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng)
        prob = QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub)
        fresh = solve_qp(prob)
        ws = Workspace(prob)
        for sol in (solve_qp(prob, workspace=ws), solve_qp(prob, workspace=ws)):
            assert sol.status == fresh.status == "optimal"
            assert np.array_equal(sol.x, fresh.x)
            assert sol.objective == fresh.objective
            assert sol.kkt_residual == fresh.kkt_residual


def test_polish_releases_wrong_pins_over_several_passes(monkeypatch):
    # min 0.5|x|^2 - 2 x_0 + 0.5 x_1 over [-1, 1]^2 has x = (1, -0.5): x_0 at
    # its upper bound, x_1 free. Seeded with x_0 at its lower bound and x_1
    # at its upper one, the polish must release both pins, then pin x_0 up.
    P, q = np.eye(2), np.array([-2.0, 0.5])
    lb, ub = -np.ones(2), np.ones(2)
    prob = QuadraticProgram(P, q, lb=lb, ub=ub)
    passes = []
    pinned_solve = qp._pinned_solve

    def counted(*args):
        passes.append(args[2:])
        return pinned_solve(*args)

    monkeypatch.setattr(qp, "_pinned_solve", counted)
    x, res = qp._polish(prob, Workspace(prob), np.array([-1.0, 1.0]))
    _, x_ref, _ = solve_reference(P, q, np.zeros((0, 2)), np.zeros(0), lb, ub)
    assert len(passes) >= 2
    assert passes[0] == ([0], [1])
    assert res <= 1e-8
    assert np.allclose(x, x_ref, atol=1e-12) and np.allclose(x, [1.0, -0.5])


@pytest.mark.parametrize(
    "seed, residual",
    [(6245, 1.0e-9), (6854, 1.6e-12), (7284, 2.4e-11), (8146, 4.5e-10)],
)
def test_admm_iterate_rescues_programs_no_polish_certifies(
    monkeypatch, seed, residual
):
    # scaled by 10^3, these programs stop ADMM in both phases with a polish
    # whose residual misses 1e-8, while the ADMM iterate itself meets it
    rng = np.random.default_rng(seed)
    P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=seed % 3 == 0)
    scale = 10.0 ** rng.integers(-3, 4)
    assert scale == 1e3
    polished = []
    polish = qp._polish

    def recorded(*args):
        polished.append(polish(*args))
        return polished[-1]

    monkeypatch.setattr(qp, "_polish", recorded)
    sol = solve_qp(QuadraticProgram(scale * P, scale * q, Aeq, beq, lb, ub))
    assert len(polished) == 2 and min(res for _, res in polished) > 1e-8
    assert sol.status == "optimal"
    assert sol.kkt_residual == pytest.approx(residual, rel=0.05)
    _, x_ref, _ = solve_reference(scale * P, scale * q, Aeq, beq, lb, ub)
    assert np.allclose(sol.x, x_ref, atol=1e-6)
