import logging

import numpy as np
import pytest

from activeset_oracle import kkt_residual_reference, random_box_qp, solve_reference
from conftest import bordered_face_errors
from willems import QuadraticProgram, qp, solve_qp
from willems.numerics import pseudo_inverse_parts
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


@pytest.mark.parametrize("shape", [(2, 2), (1, 3)], ids=["rows", "cols"])
def test_an_aeq_that_does_not_match_beq_and_q_is_named(shape):
    with pytest.raises(ValueError, match=rf"Aeq is \({shape[0]}, {shape[1]}\)"):
        QuadraticProgram(np.eye(2), np.zeros(2), Aeq=np.ones(shape), beq=np.zeros(1))


def test_symmetry_of_p_is_judged_relative_to_its_size():
    # P = s J'WJ, symmetric to rounding, is accepted at every scale and
    # stored as (P + P')/2; a P skewed by 1e-6 of its largest entry is
    # rejected at every scale
    rng = np.random.default_rng(36)
    J, w, K = rng.normal(size=(9, 6)), rng.uniform(0.5, 2.0, 9), rng.normal(size=(6, 6))
    for k in range(-6, 10):
        P = 10.0**k * (J.T * w) @ J
        assert np.array_equal(QuadraticProgram(P, np.zeros(6)).P, (P + P.T) / 2)
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProgram(P + 1e-6 * np.abs(P).max() * (K - K.T), np.zeros(6))


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


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3, 4))
def test_box_equality_conflict_detected(scale):
    # x must equal 5 but the box stops at 1: phase 1's least-squares
    # minimum over the box is 4, at every scale of the data
    prob = QuadraticProgram(
        scale * np.eye(2),
        np.zeros(2),
        Aeq=scale * np.array([[1.0, 0.0]]),
        beq=scale * np.array([5.0]),
        lb=[-1.0, -1.0],
        ub=[1.0, 1.0],
    )
    sol = solve_qp(prob)
    assert sol.status == "infeasible"
    assert sol.x[0] == 1.0


def tied_lead_block(scale, tie):
    """A lead block (x_0, x_1) without cost, tied by two equality rows
    `tie` apart to a costed block (x_2, x_3) in [-1, 1], all times
    `scale`."""
    P = scale * np.diag([0.0, 0.0, 1.0, 1.0])
    q = scale * np.array([0.0, 0.0, -3.0, 1.0])
    Aeq = scale * np.array([[1.0, 1.0, -1.0, 0.0], [1.0, 1.0 + tie, 0.0, -1.0]])
    return QuadraticProgram(
        P, q, Aeq, scale * np.array([0.2, 0.1]),
        lb=[-np.inf, -np.inf, -1.0, -1.0], ub=[np.inf, np.inf, 1.0, 1.0],
    )


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3, 4))
def test_unbounded_direction_detected(scale):
    # zero curvature, linear drift, no bounds
    sol = solve_qp(QuadraticProgram(np.zeros((1, 1)), [-scale]))
    assert sol.status == "unbounded"
    # P = diag(1, 0, 0): the ray (0, 1, 1) of the empty face runs into
    # x_1 <= 1, and the face that pins it has the unblocked ray (0, 0, 1)
    P, q = scale * np.diag([1.0, 0.0, 0.0]), scale * np.array([-1.0, -1.0, -1.0])
    sol = solve_qp(QuadraticProgram(P, q, ub=[np.inf, 1.0, np.inf]))
    assert sol.status == "unbounded"
    assert sol.x[1] == 1.0
    # a free lead block (x_0, x_1) without cost, P = 0 and q = 0 there, tied
    # to the costed block by equality rows: its free direction (1, -1, 0, 0)
    # or, with the rows a hair apart, its near-free one has zero curvature
    # but no descent, so neither the solve nor a walk from the least-squares
    # point ends unbounded
    for tie in (0.0, 1e-9):
        prob = tied_lead_block(scale, tie)
        sol = solve_qp(prob)
        assert sol.status != "unbounded"
        if tie == 0.0:
            assert sol.status == "optimal"
        ws = Workspace(prob)
        x = ws.eq_solve @ (ws.eq_range.T @ prob.beq)
        assert qp._walk(ws, x, np.zeros(4), qp._face_step)[2] == "optimal"


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


def test_matches_reference_on_singular_batch(qp_solves):
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
    # the batch reaches the active-set walk, not the polishes alone
    assert "walk" in {path for _, _, path, _ in qp_solves}


def test_the_walk_and_the_polish_share_a_face_factorization(
    monkeypatch, svd_calls, inv_calls
):
    # a face is one cache entry whichever routine reaches it: the polish
    # of the face the active-set walk ended on finds the inverse the walk's
    # last step factored, so it certifies with no new LU or SVD
    walk, polish = qp._walk, qp._polish
    ended, polished = [], []

    def walking(ws, x, face, step):
        result = walk(ws, x, face, step)
        if step is qp._face_step:
            ended.append(result[1])
        return result

    def polishing(ws, beq, face):
        factored, solves = len(svd_calls) + len(inv_calls), ws._solves
        result = polish(ws, beq, face)
        if ended and face is ended[-1]:
            factored = len(svd_calls) + len(inv_calls) - factored
            polished.append((factored, ws._solves - solves))
        return result

    monkeypatch.setattr(qp, "_walk", walking)
    monkeypatch.setattr(qp, "_polish", polishing)
    rng = np.random.default_rng(200)
    for _ in range(40):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=True)
        sol = solve_qp(QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub))
        assert sol.status == "optimal"
    assert len(polished) == len(ended) == 13
    assert set(polished) == {(0, 1)}


def test_a_singular_face_keeps_the_pseudo_inverse_of_the_svd(inv_calls):
    # P = diag(2, 0, 0) leaves (0, 1, -1) free on the row x_0 + x_1 + x_2 = 3:
    # no pin makes the face singular, so its inverse is the pseudo-inverse
    # of the uncompressed KKT matrix, to the bit
    P = np.diag([2.0, 0.0, 0.0])
    prob = QuadraticProgram(P, [-2.0, 0.0, 0.0], Aeq=[[1.0] * 3], beq=[3.0])
    ws = Workspace(prob)
    inv = ws.face(np.zeros(3))[0]
    ones = np.ones((1, 3))
    kkt = np.block([[P, ones.T], [ones, np.zeros((1, 1))]])
    u, s, v = pseudo_inverse_parts(kkt)
    assert np.array_equal(inv, (v / s) @ u.T)
    assert inv_calls == [(4, 4)]  # the LU that was tried and not certified


def test_a_face_on_redundant_rows_is_factored_by_lu(svd_calls, inv_calls):
    # x_0 + x_1 = 2 twice over: the KKT matrix on Aeq is singular, the one
    # on its range row is not, and the face's inverse, mapped back to
    # Aeq's rows, solves the system as the SVD's pseudo-inverse does
    prob = QuadraticProgram(
        np.eye(2), np.zeros(2), Aeq=[[1.0, 1.0], [2.0, 2.0]], beq=[2.0, 4.0]
    )
    ws = Workspace(prob)
    svd_calls.clear()  # Aeq's
    inv = ws.face(np.zeros(2))[0]
    assert not svd_calls and inv_calls == [(3, 3)]
    rhs = np.array([0.0, 0.0, 2.0, 4.0])
    rows = np.array([[1.0, 1.0], [2.0, 2.0]])
    kkt = np.block([[np.eye(2), rows.T], [rows, np.zeros((2, 2))]])
    u, s, v = pseudo_inverse_parts(kkt)
    assert np.allclose(inv @ rhs, (v / s) @ (u.T @ rhs), rtol=0, atol=1e-14)
    assert np.allclose((inv @ rhs)[:2], [1.0, 1.0], rtol=0, atol=1e-15)


def test_a_face_is_bordered_from_the_base_to_rounding():
    # with a certified base, a face with pins is its base bordered by the
    # block inverse, one j x j inverse; it matches the face's own LU on
    # the range rows, folded back, in its inverse and its x to 1e-9. Each
    # face pins at most n - me finite bounds, so its KKT matrix is
    # nonsingular
    rng = np.random.default_rng(35)
    compared = 0
    for case in range(400):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=case % 3 == 0)
        n, me = q.size, beq.size
        ws = Workspace(QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub))
        if ws.base is None or n == me:
            continue
        sides = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        finite = np.flatnonzero(np.isfinite(np.where(sides < 0, lb, ub)))
        pick = rng.permutation(finite)[: rng.integers(1, n - me + 1)]
        if not pick.size:
            continue
        face = np.zeros(n)
        face[pick] = sides[pick]
        assert np.array_equal(ws.face(face)[0], qp._bordered(ws.base, qp._pins(face)))
        assert max(bordered_face_errors(ws, beq, face)) <= 1e-9
        compared += 1
    assert compared >= 200


def test_a_face_with_a_singular_schur_complement_takes_the_svd(svd_calls, inv_calls):
    # x_0 + x_1 = 1 with both coordinates pinned: three rows on two
    # variables. The base certifies, but S = W[p, p], its x-block
    # I - 11'/2, is singular, so the face takes the SVD's pseudo-inverse
    # of its KKT matrix, which is singular too
    box = dict(lb=[0.0, 0.0], ub=[1.0, 1.0])
    prob = QuadraticProgram(np.eye(2), np.zeros(2), Aeq=[[1.0, 1.0]], beq=[1.0], **box)
    ws = Workspace(prob)
    assert ws.base is not None and inv_calls == [(3, 3)]
    svd_calls.clear()
    inv = ws.face(np.array([-1.0, 1.0]))[0]
    assert inv_calls[1:] == [(2, 2)] and svd_calls == [(5, 5)]
    rows = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    kkt = np.block([[np.eye(2), rows.T], [rows, np.zeros((3, 3))]])
    u, s, v = pseudo_inverse_parts(kkt)
    assert np.array_equal(inv, (v / s) @ u.T)


def test_the_kkt_residual_keeps_the_bits_of_its_reference():
    # the residual reads the workspace's masks and takes one max; its
    # rewrites (|y g| = |y| |g|, lb - x = -(x - lb), a max of maxes) are
    # exact, so it returns the reference's float: at face solves pinned to
    # lb and to ub, and at points outside the box with multipliers of
    # either sign and zeros, on boxes with infinite sides and lb == ub
    rng = np.random.default_rng(33)
    to_lb = to_ub = 0
    for case in range(300):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=case % 3 == 0)
        n, me = q.size, beq.size
        fixed = (rng.uniform(size=n) < 0.2) & np.isfinite(lb)
        ub[fixed] = lb[fixed]
        ws = Workspace(QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub))
        face = rng.choice([-1.0, 0.0, 1.0], size=n)
        face[~np.isfinite(np.where(face < 0, lb, ub))] = 0.0
        to_lb, to_ub = to_lb + np.sum(face < 0), to_ub + np.sum(face > 0)
        inv, pins, bounds = ws.face(face)
        sol = inv @ np.concatenate([-q, beq, bounds])
        y_box = np.zeros(n)
        y_box[pins] = sol[n + me :]
        outside = rng.normal(size=n) * (rng.uniform(size=n) < 0.7)
        for x, y_eq, y in [
            (sol[:n], sol[n : n + me], y_box),
            (sol[:n] + 3.0 * rng.normal(size=n), rng.normal(size=me), outside),
        ]:
            res = qp._kkt_residual(ws, beq, x, y_eq, y)
            ref = kkt_residual_reference(P, q, Aeq, beq, lb, ub, x, y_eq, y)
            assert np.float64(res).tobytes() == np.float64(ref).tobytes()
    assert min(to_lb, to_ub) > 100
    # a zero residual whose box gap lb - x is -0.0 is 0.0, as the reference's
    ws = Workspace(QuadraticProgram(np.eye(1), np.zeros(1), lb=[-0.0], ub=[1.0]))
    res = qp._kkt_residual(ws, np.zeros(0), np.zeros(1), np.zeros(0), np.zeros(1))
    assert np.float64(res).tobytes() == np.float64(0.0).tobytes()


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


def test_workspace_solves_its_program_for_a_new_beq():
    ws = Workspace(simplex_program())
    assert_same_answer(ws.solve([0.5]), solve_qp(simplex_program(beq=[0.5])))


@pytest.mark.parametrize("beq", [[np.nan], [np.inf], [0.5, 0.5], []])
def test_workspace_rejects_a_bad_beq_and_keeps_its_face(beq):
    ws = Workspace(simplex_program())
    ws.solve([1.0])
    face = ws.last_face.copy()
    with pytest.raises(ValueError, match="beq"):
        ws.solve(beq)
    assert np.array_equal(ws.last_face, face)


def assert_same_answer(sol, fresh):
    assert sol.status == fresh.status == "optimal"
    assert np.array_equal(sol.x, fresh.x)
    assert sol.objective == fresh.objective
    assert sol.kkt_residual == fresh.kkt_residual


def test_repeat_solves_through_a_workspace_match_a_fresh_solve_bitwise():
    # the second solve certifies on the face the first one ended on,
    # through its cached factorization, with the same bits as a cold solve
    rng = np.random.default_rng(33)
    for _ in range(30):
        P, q, Aeq, beq, lb, ub = random_box_qp(rng)
        prob = QuadraticProgram(P, q, Aeq=Aeq, beq=beq, lb=lb, ub=ub)
        fresh = solve_qp(prob)
        ws = Workspace(prob)
        for sol in (ws.solve(prob.beq), ws.solve(prob.beq)):
            assert_same_answer(sol, fresh)


def test_a_workspace_tries_its_last_certified_face_first():
    # x_1 sits at its upper bound for both right-hand sides, so the second
    # solve certifies on the first one's face with no cold polish or walk
    ws = Workspace(simplex_program())
    first = ws.solve([1.0])
    assert first.iterations > 0
    assert np.array_equal(ws.last_face, [0.0, 1.0, 0.0])
    moved = simplex_program(beq=[0.8])
    sol = ws.solve(moved.beq)
    assert sol.iterations == 0
    assert_same_answer(sol, solve_qp(moved))


def test_a_cached_face_is_reused_as_built(monkeypatch, inv_calls, svd_calls):
    # min 0.5|x|^2 - 5 x_0 + 5 x_1 ends on x_0 at its upper bound and x_1
    # at its lower one; solving again hits the cached entry, factors
    # nothing and solves that face once, with the pin rows and the bound
    # values it was built with: the lb-pin first, then the ub-pin
    prob = QuadraticProgram(
        np.eye(3), [-5.0, 5.0, 0.0], lb=[-1.0, -2.0, -3.0], ub=[1.0, 2.0, 3.0]
    )
    ws = Workspace(prob)
    ws.solve(prob.beq)
    face = ws.last_face
    assert np.array_equal(face, [1.0, -1.0, 0.0])
    passes, pinned_solve = [], qp._pinned_solve

    def counted(*args):
        passes.append(args[2])
        return pinned_solve(*args)

    monkeypatch.setattr(qp, "_pinned_solve", counted)
    inv_calls.clear()
    svd_calls.clear()
    sol = ws.solve(prob.beq)
    assert sol.status == "optimal" and sol.iterations == 0 and len(passes) == 1
    assert not inv_calls and not svd_calls
    _, pins, bounds = ws.face(face)
    assert np.array_equal(pins, qp._pins(face)) and np.array_equal(pins, [1, 0])
    assert np.array_equal(bounds, [-2.0, 1.0])


def test_a_face_that_does_not_certify_falls_back_to_the_cold_polish(monkeypatch):
    # when the last face misses, the solve takes the cold path, a polish
    # from the empty face, and answers as a fresh solve does
    ws = Workspace(simplex_program())
    ws.solve([1.0])
    polish = qp._polish
    calls = []

    def first_misses(*args):
        calls.append(args[2])
        return (None, np.inf) if len(calls) == 1 else polish(*args)

    monkeypatch.setattr(qp, "_polish", first_misses)
    moved = simplex_program(beq=[0.8])
    sol = ws.solve(moved.beq)
    assert np.array_equal(calls[0], [0.0, 1.0, 0.0]) and len(calls) == 2
    assert np.array_equal(calls[1], np.zeros(3))
    assert sol.iterations > 0
    assert_same_answer(sol, solve_qp(moved))


def test_a_warm_solve_that_certifies_on_another_face_reports_0_iterations():
    # for beq = -1 every coordinate is free at the minimum, so the warm
    # polish must leave the last face, x_1 at its upper bound, and solve
    # more faces before it certifies; no cold polish or walk runs, so the
    # solve reports 0 iterations
    ws = Workspace(simplex_program())
    ws.solve([1.0])
    assert np.array_equal(ws.last_face, [0.0, 1.0, 0.0])
    solves = ws._solves
    moved = simplex_program(beq=[-1.0])
    sol = ws.solve(moved.beq)
    assert sol.iterations == 0
    assert ws._solves - solves >= 2
    assert np.array_equal(ws.last_face, np.zeros(3))
    assert_same_answer(sol, solve_qp(moved))


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
        passes.append(args[2].copy())  # the polish updates its face in place
        return pinned_solve(*args)

    monkeypatch.setattr(qp, "_pinned_solve", counted)
    x, res, _ = qp._polish(Workspace(prob), prob.beq, np.array([-1.0, 1.0]))
    _, x_ref, _ = solve_reference(P, q, np.zeros((0, 2)), np.zeros(0), lb, ub)
    assert len(passes) >= 2
    assert np.array_equal(passes[0], [-1.0, 1.0])
    assert res <= 1e-8
    assert np.allclose(x, x_ref, atol=1e-12) and np.allclose(x, [1.0, -0.5])


def solve_recording_polishes(monkeypatch, seed):
    """Solve the seeded program scaled by 10^3; returns the solution, the
    (x, residual) of every polish and the reference minimizer."""
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
    _, x_ref, _ = solve_reference(scale * P, scale * q, Aeq, beq, lb, ub)
    return sol, polished, x_ref


# (seed, residual the case was first recorded at, residual now). A case's id
# keeps its first residual, so a change to the numerics that moves a residual
# does not rename the case
SCALED_PROGRAMS = [
    (6245, 3.9e-12, 7.1e-12),
    (6854, 3.0e-12, 1.2e-12),
    (7284, 9.1e-13, 9.1e-13),
    (8146, 1.8e-12, 1.8e-12),
    (5344, 9.2e-12, 2.9e-11),
    (5025, 9.1e-12, 2.7e-12),
    (5167, 1.9e-11, 7.3e-12),
    (5600, 1.2e-9, 6.8e-11),
    (5873, 2.7e-12, 2.7e-12),
    (6052, 1.2e-11, 5.5e-12),
    (6451, 3.2e-12, 5.5e-12),
    (7008, 9.6e-11, 3.6e-12),
    (8062, 4.1e-12, 4.1e-12),
]


@pytest.mark.parametrize(
    "seed, residual",
    [
        pytest.param(seed, residual, id=f"{seed}-{first}")
        for seed, first, residual in SCALED_PROGRAMS
    ],
)
def test_scaled_programs_certify_on_the_first_polish(monkeypatch, seed, residual):
    # scaled by 10^3, these programs' faces are badly conditioned (5344's
    # last one has sigma_min / sigma_1 = 2.15e-9); through LU inverses kept
    # at the cutoff k eps a polish certifies. Ten of the last faces are
    # bordered from the base; 7284, 5025 and 7008, whose base does not
    # certify, take the pseudo-inverse of their SVD, whose solve ends at
    # 1.4e-8, 1.1e-8 and 1.2e-7 and certifies after one step of iterative
    # refinement. The polish from the empty face certifies all but three,
    # which certify on the polish of the face the active-set walk ends on
    sol, polished, x_ref = solve_recording_polishes(monkeypatch, seed)
    assert len(polished) == (2 if seed in (7284, 5167, 6052) else 1)
    assert polished[-1][1] == sol.kkt_residual
    assert sol.status == "optimal"
    assert sol.kkt_residual == pytest.approx(residual, rel=0.05)
    assert np.allclose(sol.x, x_ref, atol=1e-6)


def scaled_program(seed, singular):
    """The seeded `random_box_qp` with P and q scaled by 10^k, k drawn
    from -3..3 after it: (P, q, Aeq, beq, lb, ub)."""
    rng = np.random.default_rng(seed)
    P, q, Aeq, beq, lb, ub = random_box_qp(rng, singular=singular)
    scale = 10.0 ** rng.integers(-3, 4)
    return scale * P, scale * q, Aeq, beq, lb, ub


# seeds of the scaled family whose last face, bordered from the base,
# certified at 9.26e-9, 5.04e-9 and 2.91e-9 before it took a step of
# iterative refinement
@pytest.mark.parametrize("seed", [8781, 5556, 7119])
def test_a_refined_face_certifies_with_margin(seed):
    sol = solve_qp(QuadraticProgram(*scaled_program(seed, seed % 3 == 0)))
    assert sol.status == "optimal" and sol.kkt_residual <= 1e-10


# programs of the scaled family's generator with a singular P on even
# seeds, whose polishes ended at KKT residuals from 1.1e-8 to 1.9e-4
# (max_iter) before the last face took a step of iterative refinement
@pytest.mark.parametrize(
    "seed",
    [20914, 21108, 22158, 22892, 23104, 23254]
    + [23274, 23364, 23654, 24040, 25292, 25800],
)
def test_stress_programs_certify_after_refinement(seed):
    data = scaled_program(seed, seed % 2 == 0)
    sol = solve_qp(QuadraticProgram(*data))
    ref_obj, ref_x, unique = solve_reference(*data)
    assert sol.status == "optimal" and unique
    assert np.allclose(sol.x, ref_x, rtol=0, atol=1e-9)
    assert sol.objective == pytest.approx(ref_obj, rel=1e-9, abs=1e-9)


def klee_minty(n: int) -> QuadraticProgram:
    """Klee and Minty's cube as a box-constrained LP in standard form: over
    x, s >= 0, minimize -sum_j 2^(n-j) x_j subject to
    2 sum_{j<i} 2^(i-j) x_j + x_i + s_i = 5^i, i = 1..n. Its optimum is
    x = (0, ..., 0, 5^n). Dantzig's rule takes 2^n - 1 pivots from the
    origin (Klee and Minty, 1972), and the walk, which releases the most
    wrong-signed pin, takes a number of passes that about doubles with n."""
    A = np.eye(n)
    for i in range(n):
        A[i, :i] = 2 * 2.0 ** (i - np.arange(i))
    c = 2.0 ** np.arange(n - 1, -1, -1)
    return QuadraticProgram(
        np.zeros((2 * n, 2 * n)), -np.concatenate([c, np.zeros(n)]),
        Aeq=np.hstack([A, np.eye(n)]), beq=5.0 ** np.arange(1, n + 1),
        lb=np.zeros(2 * n),
    )


def test_the_walk_stops_at_its_cap_on_a_klee_minty_cube(monkeypatch):
    # the cube certifies at n = 5, after 22 passes of the walk; at n = 6 it
    # needs 44, past the cap of 3 (2n) + 3 = 39, and the solve ends max_iter
    walk, walks = qp._walk, []

    def counting(ws, x, face, step):
        passes = []
        result = walk(ws, x, face, lambda *args: passes.append(1) or step(*args))
        walks.append((len(passes), result[2]))
        return result

    monkeypatch.setattr(qp, "_walk", counting)
    sol = solve_qp(klee_minty(5))
    assert sol.status == "optimal" and walks[-1] == (22, "optimal")
    assert sol.x[:5] == pytest.approx([0, 0, 0, 0, 5.0**5], abs=1e-8)
    sol = solve_qp(klee_minty(6))
    assert sol.status == "max_iter" and walks[-1] == (39, None)


def test_a_max_iter_solve_logs_its_cause(caplog):
    # one DEBUG line names the cause and gives the residual: the cap on
    # Klee and Minty's cube at n = 6, and at scale 10 the near-tied lead
    # block, whose walk ends on a face that does not certify, at KKT
    # 1.05e-8 against the 1e-8 of optimal
    caplog.set_level(logging.DEBUG, logger="willems.qp")
    causes = {
        "the walk hit its cap of 39 passes": klee_minty(6),
        "the last face did not certify": tied_lead_block(10.0, 1e-9),
    }
    for cause, prob in causes.items():
        caplog.clear()
        sol = solve_qp(prob)
        lines = [r.getMessage() for r in caplog.records if r.name == "willems.qp"]
        assert sol.status == "max_iter"
        assert lines == [f"QP max_iter: {cause}, KKT residual {sol.kkt_residual:.3e}"]
    # a solve that certifies logs nothing
    caplog.clear()
    assert solve_qp(klee_minty(5)).status == "optimal"
    assert not [r for r in caplog.records if r.name == "willems.qp"]
