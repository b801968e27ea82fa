"""Convex quadratic programs with equality and box constraints.

Solves

    minimize    0.5 x'Px + q'x
    subject to  Aeq x = beq,  lb <= x <= ub

for symmetric positive-semidefinite P. A program without equality rows has
a 0 x n Aeq, so every step below runs the same way with or without them.

One method decides every program: the faces of its box. A face pins a set
of coordinates to their bounds, and the program restricted to it is one
linear KKT system. The cost may be singular and the equality rows
rank-deficient, so that system may be singular too. `Workspace.face`
borders it from the empty face's inverse, factored once by LU, when it can
prove both nonsingular, and otherwise takes the SVD pseudo-inverse. A
solve goes:

1. The equality pre-check: a beq whose residual off the range of Aeq
   exceeds 1e-9 of its norm is infeasible.
2. A polish from the face the last certified solve ended on. It solves the
   KKT system of each face it visits, releases pins whose multipliers have
   the wrong sign and pins the bound the candidate violates most. On the
   face it ends on, a solve whose KKT residual exceeds 1e-2 of the
   tolerance below takes one step of iterative refinement through the
   same inverse (Skeel, Math. Comp. 35, 1980), which wins back what a
   bordered face or a pseudo-inverse loses to rounding.
3. A polish from the empty face.
4. When neither certifies, a primal active-set walk over the same faces
   (Nocedal and Wright, *Numerical Optimization*, 2nd ed., §16.5). A
   full step releases the most wrong-signed pin (never one with
   lb == ub), and a step that a bound blocks pins that bound. Phase 1
   walks to a point of the box nearest the equality rows, by
   bounded-variable least squares (Stark and Parker, Comput. Stat. 10,
   1995): each step is the minimum-norm least-squares step of the free
   columns of U_r' Aeq, through their SVD, since the KKT matrix of that
   least-squares program has the square of their condition number.
   Phase 2 walks from that point, each step a solve through
   `Workspace.face`, and the face it ends on is polished.

Each status has one certificate:

- optimal: the measured residual of the full KKT system is at most 1e-8
  (Nocedal and Wright, §16.1);
- infeasible: the pre-check's residual, or a phase-1 minimum ||E x - c||
  (E = U_r' Aeq, c = U_r' beq, U_r the range of Aeq) above 1e-9 of the
  larger of ||beq|| and || |E| |x| ||, the rounding scale of E x;
- unbounded: a ray d of a singular face, the stationarity residual of its
  pseudo-inverse solve, with ||P d|| <= eps ||P|| ||d||,
  ||Aeq d|| <= eps ||Aeq|| ||d|| and q'd < -eps ||q|| ||d|| (max norms,
  eps = 1e-6, each tested on its own), that no finite bound blocks;
- max_iter: none of these, so a walk hit its cap of 3n + 3 steps or its
  last face did not certify; one DEBUG line of the `willems.qp` logger
  names which, with the residual.

A `Workspace` is the solver of one program: built once from it,
`Workspace.solve(beq)` solves that program for any equality right-hand
side beq, the only data that moves between the receding-horizon QPs of one
closed loop (the setup/update split of OSQP, or qpOASES's hotstart). It
keeps what depends only on the fixed data (P, q, Aeq, lb, ub):

- one rank-revealing SVD of Aeq. The left singular vectors past its rank,
  U_perp, decide feasibility of ``Aeq x = beq`` by the residual
  U_perp' beq, one product per solve. Aeq's r range rows U_r' Aeq have
  full row rank and, for a feasible beq, the same solutions;
- the masks of the finite lb and ub and of lb == ub, and -q, which every
  face solve and every KKT residual read;
- the base W: the inverse of the empty face's KKT matrix on the range
  rows, an LU of order n + r kept when its residual certifies it
  nonsingular (`numerics.certified_inverse`), with U_r folded back in, so
  it takes beq and returns Aeq's multipliers;
- the last face built, when it is factored: the inverse of its KKT
  matrix, its pins in `_pins` order and the bound values they hold, so a
  face solve on it is one matrix-vector product. A face with j pins
  p borders the empty face's KKT matrix with j rows and columns, and its
  inverse is W's block inverse update (Gill, Golub, Murray and Saunders,
  Math. Comp. 28, 1974; as in qpOASES, Ferreau, Bock and Diehl, IJRNC
  18, 2008): one certified inverse of the j x j Schur complement
  S = W[p, p] and O(k^2 j) products for W of order k, no LU of the face.
  It depends only on the face, not on the faces solved before it, so a
  cached face gives the same bits as a new one. When W or S does not
  certify, as for a singular P with a free direction that Aeq leaves
  free, the face takes the minimum-norm pseudo-inverse of its KKT matrix
  on Aeq, built from the SVD cut of `numerics.pseudo_inverse_parts` (the
  rank `svd_rank` gives). Whichever factorization found it, the measured
  KKT residual certifies the answer;
- the face the last certifying polish ended on. A polish answer depends
  only on its final face and on beq, so a hit returns the bits a cold
  solve would, with 0 iterations.

`iterations` counts the face solves of steps 3 and 4, phase 1's included,
and not the refinement steps; a solve that step 2 certifies reports 0,
however many faces its polish visited.
`solve_qp(prob)` is `Workspace(prob).solve(prob.beq)`, so a one-off solve
and a solve in a sequence take the same code path. Solutions carry the
measured KKT residual; the objective is formed from the P x that residual
formed. Everything is deterministic for fixed inputs and a fixed sequence
of solves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import (
    as_bound,
    as_matrix,
    as_symmetric,
    as_vector,
    certified_inverse,
    empty_box,
    pseudo_inverse_parts,
    svd_rank,
)

__all__ = ["QuadraticProgram", "QpSolution", "solve_qp"]

log = logging.getLogger(__name__)

# KKT residual a solution must reach to be optimal
_TOL = 1e-8
# relative size eps of a ray's curvature, equality residual and descent
_RAY_TOL = 1e-6


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data. P must be symmetric within 1e-10 of its largest entry
    and is kept as (P + P')/2 (`numerics.as_symmetric`). Bounds are
    per-coordinate, +-inf for absent ones; lb > ub, lb = +inf or ub = -inf,
    which no value meets, raises ValueError.
    Absent equality rows (Aeq and beq both None) are stored as a 0 x n
    system: Aeq of shape (0, n) and an empty beq."""

    P: np.ndarray
    q: np.ndarray
    Aeq: np.ndarray | None = None
    beq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        P = as_symmetric(self.P, "P")
        q = as_vector(self.q, "q")
        n = q.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P is {P.shape}, expected ({n}, {n})")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        if (self.Aeq is None) != (self.beq is None):
            raise ValueError("Aeq and beq must be given together")
        Aeq = as_matrix(np.zeros((0, n)) if self.Aeq is None else self.Aeq, "Aeq")
        beq = as_vector(np.zeros(0) if self.beq is None else self.beq, "beq")
        if Aeq.shape != (beq.shape[0], n):
            raise ValueError(f"Aeq is {Aeq.shape}, expected ({beq.shape[0]}, {n})")
        object.__setattr__(self, "Aeq", Aeq)
        object.__setattr__(self, "beq", beq)
        lb = as_bound(self.lb, n, -np.inf, "lb")
        ub = as_bound(self.ub, n, np.inf, "ub")
        if empty_box(lb, ub):
            raise ValueError("no value meets lb <= x <= ub on some coordinate")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.P @ x + self.q @ x)


@dataclass(frozen=True)
class QpSolution:
    """Solver outcome; `status` is optimal, infeasible, unbounded or
    max_iter (the walk hit its cap or its last face did not certify). When
    optimal, kkt_residual is at most 1e-8; on max_iter x is the last
    polish's best and kkt_residual the residual measured for it; on
    infeasible or unbounded it is inf. `iterations` counts the face
    solves of the cold polish and the active-set walk; it is 0 when the
    warm polish, the one that starts from the last certified face,
    certified, however many faces that polish visited."""

    x: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int


class Workspace:
    """The solver of one program, `program`: `solve(beq)` solves it with
    its equality right-hand side replaced by `beq`, any beq of the right
    length, and reuses the factorizations of the fixed data (P, q, Aeq,
    lb, ub) across solves.

    Built once, it keeps the masks of the fixed data (`finite_lb`,
    `finite_ub`, `fixed` for lb == ub) and `neg_q`, -q, so no solve
    recomputes them, and `base`, the empty face's certified LU inverse on
    Aeq's range rows folded back to Aeq's rows (None when that LU does not
    certify), factored once. It holds one face, the last one built
    (`face`), with its factorization (`base` bordered by the face's pins
    when both it and their Schur complement certify, else the SVD
    pseudo-inverse), its pins and their bound values, and the last
    certified face (`last_face`: -1 for a coordinate pinned to lb, +1 for
    one pinned to ub, 0 for a free one, or None before the first
    certificate); drop it to free them. A warm step that certifies on
    `last_face` then costs one cache lookup, one matrix-vector product and
    one KKT residual.
    """

    def __init__(self, prob: QuadraticProgram):
        self.program, n = prob, prob.n
        self.P, self.q, self.Aeq = prob.P, prob.q, prob.Aeq
        self.lb, self.ub, self.n = prob.lb, prob.ub, n
        # the masks of the fixed data that every solve reads, and -q, the
        # head of every face solve's right-hand side
        self.finite_lb, self.finite_ub = np.isfinite(prob.lb), np.isfinite(prob.ub)
        self.fixed = prob.lb == prob.ub
        self.neg_q = -prob.q
        # one SVD of Aeq, cut at the rank `svd_rank` gives: its range U_r,
        # the left singular vectors past the rank U_perp, whose product
        # with beq is beq's residual off that range, and the map from range
        # coordinates to the minimum-norm least-squares solution
        u, s, vt = np.linalg.svd(prob.Aeq, full_matrices=True)
        rank = svd_rank(s, prob.Aeq.shape)
        self.eq_range, self.eq_off = u[:, :rank], u[:, rank:]
        self.eq_solve = vt[:rank].T / s[:rank]
        # Aeq's range rows U_r' Aeq, full row rank, which the faces factor
        self.eq_rows = self.eq_range.T @ prob.Aeq
        # the base W: the empty face's certified LU inverse on the range
        # rows, folded back to Aeq's rows, from which every other face is
        # bordered; None when that LU does not certify
        self.base = _range_inverse(self, _pins(np.zeros(n)))
        self.last_face = None
        self._face = (None, None)  # the key and entry of the last face built
        self._solves = 0  # face solves, `QpSolution.iterations`' count

    def face(self, face):
        """The cache entry of the face `face` (-1/0/+1 as `last_face`):
        (inv, pins, bounds), kept until another face is asked for, so
        asking for the same face again builds nothing. `inv` is the
        inverse of the face's KKT matrix, Aeq rows first, then the pins in
        `_pins` order, mapped to Aeq's rows: `base` itself for the empty
        face; for a face with j pins, `base` bordered by them (`_bordered`,
        a j x j inverse); when the base or their Schur complement does not
        certify, the minimum-norm pseudo-inverse of the matrix on Aeq. The
        empty face does not retry the LU the base tried. `pins` is
        `_pins(face)` and `bounds` the values the pins hold, in the same
        order."""
        self._solves += 1
        key = face.astype(np.int8).tobytes()  # its signs: -0.0 keys as 0.0
        if self._face[0] != key:
            pins = _pins(face)
            inv = self.base  # None: its LU was tried and did not certify
            if pins.size and inv is not None:
                inv = _bordered(inv, pins)
            if inv is None:
                kkt = _kkt_matrix(self.P, np.vstack([self.Aeq, np.eye(self.n)[pins]]))
                u, s, v = pseudo_inverse_parts(kkt)
                inv = (v / s) @ u.T
            self._face = key, (inv, pins, np.where(face < 0, self.lb, self.ub)[pins])
        return self._face[1]

    def solve(self, beq) -> QpSolution:
        """Solve the program with equality right-hand side `beq`; see the
        module docstring for the method. The equality pre-check comes
        first, then a polish from the last certified face, which costs 0
        iterations when it certifies, then a polish from the empty face;
        the active-set walk runs only when neither certifies. A `beq`
        that is not finite or not one entry per equality row raises
        ValueError and leaves the workspace as it was."""
        beq = as_vector(beq, "beq")
        me = self.Aeq.shape[0]
        if beq.shape[0] != me:
            raise ValueError(f"beq has length {beq.shape[0]}, expected {me}")
        objective, inf = self.program.objective, float("inf")

        # the bits of np.linalg.norm on a 1-D array, without its dispatch
        off = self.eq_off.T @ beq
        if math.sqrt(off @ off) > 1e-9 * math.sqrt(beq @ beq):
            x_ls = self.eq_solve @ (self.eq_range.T @ beq)
            return QpSolution(x_ls, objective(x_ls), "infeasible", inf, 0)

        if self.last_face is not None:
            warm = _polish(self, beq, self.last_face)
            if warm[1] <= _TOL:
                x, res, obj = warm
                return QpSolution(x, obj, "optimal", res, 0)

        start = self._solves
        x, res, obj = _polish(self, beq, np.zeros(self.n))
        status = "optimal"
        if res > _TOL:
            x, face, status = _phase1(self, beq)
            if status is None:
                x, face, status = _walk(self, x, face, _face_step)
            if status in (None, "optimal"):
                capped = status is None
                x, res, obj = _polish(self, beq, face)
                status = "optimal" if res <= _TOL else "max_iter"
                if status == "max_iter":
                    log.debug(
                        "QP max_iter: %s, KKT residual %.3e",
                        f"the walk hit its cap of {3 * self.n + 3} passes"
                        if capped
                        else "the last face did not certify",
                        res,
                    )
            else:
                res, obj = inf, objective(x)
        return QpSolution(x, obj, status, res, self._solves - start)


def _kkt_matrix(P, Aact) -> np.ndarray:
    """The KKT matrix [[P, Aact'], [Aact, 0]]."""
    n, ma = P.shape[0], Aact.shape[0]
    kkt = np.zeros((n + ma, n + ma))
    kkt[:n, :n] = P
    kkt[:n, n:] = Aact.T
    kkt[n:, :n] = Aact
    return kkt


def _range_inverse(ws: Workspace, pins):
    """The inverse of the KKT matrix of the face that pins `pins`, on Aeq's
    range rows, when its LU certifies it (`certified_inverse`), folded back
    to Aeq's rows: beq enters as U_r' beq and y_eq is U_r y_r. None when the
    LU does not certify. A workspace factors only its base, the empty
    face, this way; for a face with pins it is the reference a bordered
    inverse can be checked against."""
    n, U = ws.n, ws.eq_range
    r = U.shape[1]
    inv = certified_inverse(
        _kkt_matrix(ws.P, np.vstack([ws.eq_rows, np.eye(n)[pins]]))
    )
    if inv is None:
        return None
    cols = np.hstack([inv[:, :n], inv[:, n : n + r] @ U.T, inv[:, n + r :]])
    return np.vstack([cols[:n], U @ cols[n : n + r], cols[n + r :]])


def _bordered(base, pins):
    """The folded inverse of the face that pins `pins`, j of them, from the
    empty face's `base` W, k x k, by the block inverse of the bordered KKT
    matrix (Gill, Golub, Murray and Saunders, Math. Comp. 28, 1974):

        [[W - W[:, p] S^-1 W[p, :],  W[:, p] S^-1],
         [S^-1 W[p, :],              -S^-1       ]],  S = W[p, p],

    O(k^2 j) products and a j x j inverse, where an LU of the face costs
    O((k + j)^3). Given W, the face's KKT matrix is nonsingular exactly
    when S is; None when `certified_inverse` does not certify S."""
    rows = base[pins]
    s_inv = certified_inverse(rows[:, pins])
    if s_inv is None:
        return None
    k, j = base.shape[0], pins.size
    cols = base[:, pins] @ s_inv
    inv = np.empty((k + j, k + j))
    np.matmul(cols, rows, out=inv[:k, :k])
    np.subtract(base, inv[:k, :k], out=inv[:k, :k])
    inv[:k, k:] = cols
    np.matmul(s_inv, rows, out=inv[k:, :k])
    np.negative(s_inv, out=inv[k:, k:])
    return inv


def _kkt_residual(ws: Workspace, beq, x, y_eq, y_box, pins=slice(None), px=None):
    """Worst violation over stationarity, primal feasibility (the equality
    rows and the box), dual signs and complementarity: each multiplier
    times its gap to the bound of its sign, ub for a positive one and lb
    for a negative one, or the multiplier itself when that bound is
    infinite. Complementarity is formed on `pins` alone, every coordinate
    by default; y_box must be zero off them. `px` is P x when the caller
    has it."""
    px = ws.P @ x if px is None else px
    station = px + ws.q + y_box + ws.Aeq.T @ y_eq
    lo, hi = ws.lb - x, x - ws.ub
    # |y (ub - x)| = |y| |x - ub| and |y (x - lb)| = |y| |lb - x|, exactly
    y = y_box[pins]
    gap = np.where(
        y > 0,
        np.where(ws.finite_ub[pins], hi[pins], 1.0),
        np.where(ws.finite_lb[pins], lo[pins], 1.0),
    )
    worst = np.abs(np.concatenate([station, ws.Aeq @ x - beq, y * gap]))
    # + 0.0 turns a max of -0.0, a box gap lb - x or x - ub, into 0.0
    return float(np.concatenate([worst, lo, hi]).max(initial=0.0)) + 0.0


def _pins(face) -> np.ndarray:
    """The pinned coordinates of `face` in the order of its KKT rows: the
    pins to lb in index order, then the pins to ub in index order."""
    return np.concatenate([np.flatnonzero(face < 0), np.flatnonzero(face > 0)])


def _pinned_solve(ws: Workspace, beq, face, solved=None):
    """KKT solve with the coordinates `face` pins held at their bounds,
    through the face's cache entry (`Workspace.face`). Returns (x, y_box,
    kkt_residual, P x, sol), sol the solution of the face's KKT system: x,
    Aeq's multipliers, then the pins'. A wrong face, or one along which
    the objective is unbounded, shows in the residual.

    Given `solved`, this function's answer on the face the workspace built
    last, it takes instead one step of iterative refinement (Skeel, Math.
    Comp. 35, 1980) from it through the same inverse, sol + inv (rhs -
    K sol), the rows of K sol formed from P x, the multipliers and x; that
    step is not counted as a face solve."""
    n, me = ws.n, beq.shape[0]
    if solved is None:
        inv, pins, bounds = ws.face(face)
        sol = inv @ np.concatenate([ws.neg_q, beq, bounds])
    else:
        x, y_box, _, px, sol = solved
        inv, pins, bounds = ws._face[1]
        station = ws.neg_q - px - y_box - ws.Aeq.T @ sol[n : n + me]
        sol = sol + inv @ np.concatenate([station, beq - ws.Aeq @ x, bounds - x[pins]])
    x = sol[:n]
    y_box = np.zeros(n)
    y_box[pins] = sol[n + me :]
    px = ws.P @ x
    res = _kkt_residual(ws, beq, x, sol[n : n + me], y_box, pins, px)
    return x, y_box, res, px, sol


def _wrong_signs(ws: Workspace, face, y_box) -> np.ndarray:
    """By how much each coordinate's multiplier in `y_box` has the wrong
    sign for its pin in `face`, past 1e-10 of the multipliers' scale:
    positive on a pin to lb whose multiplier is positive, or on a pin to
    ub whose multiplier is negative; negative elsewhere, and always on a
    coordinate with lb == ub, which stays pinned."""
    wrong = np.where(face < 0, y_box, np.where(face > 0, -y_box, -np.inf))
    wrong[ws.fixed] = -np.inf
    return wrong - 1e-10 * max(1.0, float(np.abs(y_box).max(initial=0.0)))


def _polish(ws: Workspace, beq, face):
    """Active-set refinement from the face `face` (-1 for a coordinate
    pinned to lb, +1 for one pinned to ub, 0 for a free one, as
    `Workspace.last_face`).

    Coordinates with lb == ub stay pinned to lb throughout. Each pass
    solves the pinned KKT system through the face's inverse, releases pins
    whose multipliers came back wrong-signed, and pins the bound the
    candidate violates most, until the measured KKT residual meets `_TOL`
    or the face stops changing; a certified face is kept as
    `ws.last_face`. On the face it ends on, a residual above 1e-2 `_TOL`
    takes one step of iterative refinement (`_pinned_solve`), and the
    point of the lower residual is kept.
    Returns the (x, kkt_residual, objective) of the least residual seen,
    the objective from the P x its residual formed.
    """
    n = ws.n
    face = np.where(ws.fixed, -1.0, face)
    best = None
    for _ in range(3 * n + 3):
        x, y_new, res, px, _ = solved = _pinned_solve(ws, beq, face)
        changed = False
        if res > _TOL:
            release = _wrong_signs(ws, face, y_new) > 0
            face[release] = 0.0
            changed = bool(release.any())
            # pin only the single worst violation; adding every violated
            # bound at once can overshoot into an infeasible face
            feas = 1e-11 * max(1.0, float(np.abs(x).max(initial=0.0)))
            below = np.where(ws.finite_lb, ws.lb - x, -np.inf)
            above = np.where(ws.finite_ub, x - ws.ub, -np.inf)
            gap = np.maximum(below, above)
            gap[face != 0] = -np.inf
            worst = int(np.argmax(gap))  # the first index wins a tie
            if gap[worst] > feas:
                face[worst] = -1.0 if below[worst] > above[worst] else 1.0
                changed = True
        if not changed and res > 1e-2 * _TOL:
            refined = _pinned_solve(ws, beq, face, solved)
            x, _, res, px, _ = min(solved, refined, key=lambda point: point[2])
        if best is None or res < best[1]:
            best = (x, res, px)
        if res <= _TOL:
            ws.last_face = face
            break
        if not changed:
            break
    x, res, px = best
    return x, res, float(0.5 * (x @ px) + ws.q @ x)


def _phase1(ws: Workspace, beq):
    """Phase 1 of the walk: a point x of the box that minimizes
    ||E x - c||, E = U_r' Aeq the range rows and c = U_r' beq, by
    bounded-variable least squares (Stark and Parker, 1995): the walk from
    the minimum-norm solution of E x = c clipped to the box, with each
    step the minimum-norm least-squares step of the free columns of E.

    Returns (x, face, status): the point, the face it ended on, and
    "infeasible" when the walk reached the minimum and that minimum
    exceeds 1e-9 of max(||beq||, || |E| |x| ||), else None."""
    coef = ws.eq_range.T @ beq
    E, x_ls = ws.eq_rows, ws.eq_solve @ coef
    x = np.clip(x_ls, ws.lb, ws.ub)
    face = np.where(x == ws.lb, -1.0, np.where(x == ws.ub, 1.0, 0.0))
    if np.array_equal(x, x_ls):
        return x, face, None
    x, face, status = _walk(ws, x, face, partial(_least_squares_step, coef))
    gap = float(np.linalg.norm(E @ x - coef))
    scale = max(np.linalg.norm(beq), np.linalg.norm(np.abs(E) @ np.abs(x)))
    return x, face, "infeasible" if status == "optimal" and gap > 1e-9 * scale else None


def _least_squares_step(coef, ws: Workspace, x, face):
    """Phase 1's step on the face `face`: the minimum-norm d over the free
    coordinates that minimizes ||E (x + d) - c||, and the pins'
    multipliers -E'(E (x + d) - c) there, in `_pins` order; never a ray."""
    E, pins, free = ws.eq_rows, _pins(face), face == 0
    resid = E @ x - coef
    u, s, v = pseudo_inverse_parts(E[:, free])
    ws._solves += 1
    d = np.zeros(ws.n)
    d[free] = -(v / s) @ (u.T @ resid)
    return d, False, -(E[:, pins].T @ (resid + E @ d))


def _face_step(ws: Workspace, x, face):
    """Phase 2's step on the face `face`, ``ws.face(face) @ [-g; 0; 0]`` at
    the gradient g = P x + q, and the pins' multipliers after it, in
    `_pins` order. On a singular face the stationarity residual of that
    pseudo-inverse solve, zero on the pins, is a direction of zero
    curvature; when it passes the ray certificate of the module docstring
    it is returned in place of the step, flagged as a ray."""
    n, me = ws.n, ws.Aeq.shape[0]
    P, Aeq, q = ws.P, ws.Aeq, ws.q
    g = P @ x + q
    sol = ws.face(face)[0][:, :n] @ -g
    ray = -g - P @ sol[:n] - Aeq.T @ sol[n : n + me]
    ray[face != 0] = 0.0
    size = float(np.abs(ray).max(initial=0.0))
    ray[np.abs(ray) <= _RAY_TOL * size] = 0.0
    bound = [_RAY_TOL * size * float(np.abs(a).max(initial=0.0)) for a in (P, Aeq, q)]
    if (
        np.abs(P @ ray).max(initial=0.0) <= bound[0]
        and np.abs(Aeq @ ray).max(initial=0.0) <= bound[1]
        and q @ ray < -bound[2]
    ):
        return ray, True, None
    return sol[:n], False, sol[n + me :]


def _walk(ws: Workspace, x, face, step):
    """Primal active-set walk (Nocedal and Wright, 2nd ed., §16.5) over
    the box of `ws` from the point x, which meets the box, on the face
    `face` (-1/0/+1 as `Workspace.last_face`, its pins at their bounds).

    Each pass takes ``step(ws, x, face)``: the step d on the face, whether
    it is a ray, and the pins' multipliers after a full step, in `_pins`
    order. A step that a free coordinate's finite bound blocks stops there
    and pins that bound; an unblocked ray ends the walk unbounded; a full
    step releases the most wrong-signed pin, or ends the walk on an
    optimal face when no pin is. Returns (x, face, status), status "optimal",
    "unbounded" or None at the cap of 3n + 3 passes."""
    n = ws.n
    face = face.copy()
    for _ in range(3 * n + 3):
        d, ray, y_pins = step(ws, x, face)
        d[face != 0] = 0.0
        down = (face == 0) & (d < 0) & ws.finite_lb
        rise = (face == 0) & (d > 0) & ws.finite_ub
        room = np.full(n, np.inf)
        room[down] = (ws.lb - x)[down] / d[down]
        room[rise] = (ws.ub - x)[rise] / d[rise]
        i = int(np.argmin(room))
        if room[i] < (np.inf if ray else 1.0):
            x = x + max(room[i], 0.0) * d
            x[i], face[i] = (ws.lb[i], -1.0) if down[i] else (ws.ub[i], 1.0)
            continue
        if ray:
            return x, face, "unbounded"
        x = x + d
        y_box = np.zeros(n)
        y_box[_pins(face)] = y_pins
        wrong = _wrong_signs(ws, face, y_box)
        j = int(np.argmax(wrong))
        if wrong[j] <= 0.0:
            return x, face, "optimal"
        face[j] = 0.0
    return x, face, None


def solve_qp(prob: QuadraticProgram) -> QpSolution:
    """Solve the program once, through a workspace built for this solve
    alone; see `Workspace.solve`."""
    return Workspace(prob).solve(prob.beq)
