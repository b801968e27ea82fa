"""Convex quadratic programs with equality and box constraints.

Solves

    minimize    0.5 x'Px + q'x
    subject to  Aeq x = beq,  lb <= x <= ub

for symmetric positive-semidefinite P. A program without equality rows has
a 0 x n Aeq, so every step below runs the same way with or without them.
The cost may be singular and the equality rows rank-deficient, so the
active set is not found by a textbook KKT walk; instead an ADMM sweep
(splitting on the stacked constraint matrix, so the iteration matrix is
positive definite regardless of P and Aeq) localizes the active set, and a
polish step runs one active-set refinement seeded by the ADMM box
multipliers: it solves the equality-constrained program of each face it
visits and measures the residual of the full KKT system.

That measured KKT residual is an optimal answer's one certificate
(Nocedal and Wright, *Numerical Optimization*, 2nd ed., §16.1). A solve
runs one ADMM sweep, ended at its own tolerance 1e-6 or at 5,000
iterations, then one polish; the answer is optimal when the polish's KKT
residual is at most 1e-8. Otherwise the status is max_iter: the one sweep
ended, at its tolerance or its cap, and no polish certified. The status
does not say which of the two ended the sweep. The sweep's own
certificates of primal or dual infeasibility end it early with status
infeasible or unbounded.

A `Workspace` is the solver of one program: built once from it,
`Workspace.solve(beq)` solves that program for any equality right-hand
side beq, the only data that moves between the receding-horizon QPs of one
closed loop (the setup/update split of OSQP, or qpOASES's hotstart). It
keeps what depends only on the fixed data (P, q, Aeq, lb, ub):

- the ADMM iteration matrix ``P + sigma I + M' diag(rho) M`` at the starting
  penalty, factored as an explicit inverse (numpy offers no triangular
  solve); a rebalanced penalty is factored afresh and not kept;
- a rank-revealing SVD of Aeq, whose range U_r decides feasibility of
  ``Aeq x = beq`` by projection residual, and whose range rows U_r' Aeq
  have full row rank and, for a feasible beq, the same solutions;
- the inverses of the last two faces' KKT matrices (a face pins a set of
  coordinates to their bounds), so the polish is a matrix-vector product
  and a cached face gives the same bits as a new one. A face's KKT matrix
  on the range rows is factored by LU when its residual certifies it
  nonsingular (`numerics.certified_inverse`), and U_r is folded back into
  that inverse, so it takes beq and returns Aeq's multipliers; otherwise,
  as for a singular P with a free direction, the face keeps the
  minimum-norm pseudo-inverse of its KKT matrix on Aeq, built from the SVD
  cut of `numerics.pseudo_inverse_parts` (the rank ``numpy.linalg.lstsq``
  uses). Either way the polish measures the KKT residual of its answer on
  Aeq and beq, which alone certifies it;
- the face the last certifying polish ended on. The next solve polishes
  from it first and runs ADMM only if that does not certify; the polish
  answer depends only on its final face and on beq, so a hit returns the
  bits ADMM and the polish would, with 0 iterations.

`solve_qp(prob)` is `Workspace(prob).solve(prob.beq)`, so a one-off solve
and a solve in a sequence take the same code path. Solutions carry the
measured KKT residual. Everything is deterministic for fixed inputs and a
fixed sequence of solves: ADMM starts from zero on a fixed iteration
schedule, no randomization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    as_bound,
    as_matrix,
    as_vector,
    certified_inverse,
    empty_box,
    pseudo_inverse_parts,
)

__all__ = ["QuadraticProgram", "QpSolution", "solve_qp"]

_SYM_TOL = 1e-10
# KKT residual a solution must reach to be optimal
_TOL = 1e-8
# the ADMM sweep's own residual tolerance and its iteration cap, a multiple
# of _CHECK_EVERY
_ADMM_TOL = 1e-6
_MAX_ITER = 5000

# ADMM constants (fixed; tuning knobs are not exposed on purpose, the
# contract is the KKT residual, not the path to it).
_SIGMA = 1e-6
_RHO_BOX = 0.1
_RHO_EQ = 1e3 * _RHO_BOX
_RHO_MIN = 1e-6
_RHO_MAX = 1e7
_BALANCE = 5.0
_ALPHA = 1.6
_CHECK_EVERY = 25
_EPS_INFEAS = 1e-6
# face factorizations a workspace keeps; the least recently used goes first
_FACES = 2


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data. Bounds are per-coordinate, +-inf for absent ones; lb > ub,
    lb = +inf or ub = -inf, which no value meets, raises ValueError.
    Absent equality rows (Aeq and beq both None) are stored as a 0 x n
    system: Aeq of shape (0, n) and an empty beq."""

    P: np.ndarray
    q: np.ndarray
    Aeq: np.ndarray | None = None
    beq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        P = as_matrix(self.P, "P")
        q = as_vector(self.q, "q")
        n = q.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P is {P.shape}, expected ({n}, {n})")
        if np.abs(P - P.T).max(initial=0.0) > _SYM_TOL:
            raise ValueError("P is not symmetric within 1e-10")
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
    max_iter. When optimal, kkt_residual is at most 1e-8. On max_iter (the
    one ADMM sweep ended, at its tolerance or its cap, and no polish
    certified) x is the polish's best and kkt_residual the residual
    measured for it; on infeasible or unbounded it is inf."""

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

    The workspace holds at most two face factorizations (an LU inverse on
    Aeq's range rows when certified nonsingular, the SVD pseudo-inverse
    otherwise) and the last certified face (`last_face`: -1 for a
    coordinate pinned to lb, +1 for one pinned to ub, 0 for a free one, or
    None before the first certificate); drop it to free them.
    """

    def __init__(self, prob: QuadraticProgram):
        self.program, n = prob, prob.n
        self.P, self.q, self.Aeq = prob.P, prob.q, prob.Aeq
        self.lb, self.ub, self.n = prob.lb, prob.ub, n
        self.M = np.vstack([prob.Aeq, np.eye(n)])
        self.rho0 = np.concatenate(
            [np.full(prob.Aeq.shape[0], _RHO_EQ), np.full(n, _RHO_BOX)]
        )
        self.K0_inv = self.factor(self.rho0)
        # range of Aeq, and the map from range coordinates to the
        # minimum-norm least-squares solution
        u, s, v = pseudo_inverse_parts(prob.Aeq)
        self.eq_range, self.eq_solve = u, v / s
        # Aeq's range rows U_r' Aeq, full row rank, which the faces factor
        self.eq_rows = u.T @ prob.Aeq
        self.last_face = None
        self._faces = {}

    def factor(self, rho) -> np.ndarray:
        """Inverse of the ADMM iteration matrix at penalty `rho`."""
        n = self.n
        return np.linalg.inv(self.P + _SIGMA * np.eye(n) + (self.M.T * rho) @ self.M)

    def face(self, lower, upper):
        """Inverse of the KKT matrix of the face that pins `lower` to lb
        and `upper` to ub, Aeq rows first: the certified LU inverse of the
        matrix on Aeq's range rows, mapped to Aeq's rows, or else the
        minimum-norm pseudo-inverse of the matrix on Aeq."""
        key = (tuple(lower), tuple(upper))
        inv = self._faces.pop(key, None)
        if inv is None:
            # evict first, so the new factorization is built beside one
            # kept face, not two
            if len(self._faces) == _FACES:
                del self._faces[next(iter(self._faces))]
            n, U = self.n, self.eq_range
            r = U.shape[1]
            pinned = np.eye(n)[np.array(list(lower) + list(upper), dtype=int)]
            inv = certified_inverse(
                _kkt_matrix(self.P, np.vstack([self.eq_rows, pinned]))
            )
            if inv is None:
                u, s, v = pseudo_inverse_parts(
                    _kkt_matrix(self.P, np.vstack([self.Aeq, pinned]))
                )
                inv = (v / s) @ u.T
            else:
                # back to Aeq's rows: beq enters as U_r' beq, y_eq is U_r y_r
                cols = np.hstack(
                    [inv[:, :n], inv[:, n : n + r] @ U.T, inv[:, n + r :]]
                )
                inv = np.vstack([cols[:n], U @ cols[n : n + r], cols[n + r :]])
        self._faces[key] = inv
        return inv

    def solve(self, beq) -> QpSolution:
        """Solve the program with equality right-hand side `beq`; see the
        module docstring for the method. A polish from the last certified
        face comes first, and the ADMM sweep and its polish run only when
        that one does not certify. The solution is optimal when a polish's
        KKT residual is at most 1e-8, and max_iter otherwise. A `beq` that
        is not finite or not one entry per equality row raises ValueError
        and leaves the workspace as it was."""
        beq = as_vector(beq, "beq")
        me = self.Aeq.shape[0]
        if beq.shape[0] != me:
            raise ValueError(f"beq has length {beq.shape[0]}, expected {me}")
        n, objective = self.n, self.program.objective

        coef = self.eq_range.T @ beq
        res = float(np.linalg.norm(beq - self.eq_range @ coef))
        if res > 1e-9 * float(np.linalg.norm(beq)):
            x_ls = self.eq_solve @ coef
            return QpSolution(x_ls, objective(x_ls), "infeasible", float("inf"), 0)

        if self.last_face is not None:
            px, pres = _polish(self, beq, self.last_face)
            if pres <= _TOL:
                return QpSolution(px, objective(px), "optimal", pres, 0)

        M, q = self.M, self.q
        low = np.concatenate([beq, self.lb])
        high = np.concatenate([beq, self.ub])
        rho = self.rho0
        K_inv = self.K0_inv
        damp, last_up = 1.0, None

        x, y = np.zeros(n), np.zeros(me + n)
        z = np.clip(M @ x, low, high)
        x_mark, y_mark = x.copy(), y.copy()

        it = 0
        # one sweep, ended at its tolerance or its cap, then one polish
        while it < _MAX_ITER:
            for _ in range(_CHECK_EVERY):
                rhs = _SIGMA * x - q + M.T @ (rho * z - y)
                xt = K_inv @ rhs
                zt = M @ xt
                x = _ALPHA * xt + (1.0 - _ALPHA) * x
                zbar = _ALPHA * zt + (1.0 - _ALPHA) * z
                z_new = np.minimum(np.maximum(zbar + y / rho, low), high)
                y = y + rho * (zbar - z_new)
                z = z_new
            it += _CHECK_EVERY
            Mx = M @ x
            Px = self.P @ x
            MTy = M.T @ y
            r_prim = float(np.abs(Mx - z).max(initial=0.0))
            r_dual = float(np.abs(Px + q + MTy).max(initial=0.0))
            prim_scale = max(np.abs(Mx).max(initial=0.0), np.abs(z).max(initial=0.0))
            dual_scale = max(
                np.abs(Px).max(initial=0.0),
                np.abs(q).max(initial=0.0),
                np.abs(MTy).max(initial=0.0),
            )
            prim_met = r_prim <= _ADMM_TOL + _ADMM_TOL * prim_scale
            if prim_met and r_dual <= _ADMM_TOL + _ADMM_TOL * dual_scale:
                break
            status = _certificates(self, low, high, x - x_mark, y - y_mark)
            if status:
                return QpSolution(x, objective(x), status, float("inf"), it)
            x_mark, y_mark = x.copy(), y.copy()
            # rebalance the penalty when one residual has raced ahead of
            # the other, which otherwise stalls the sweep; each reversal
            # of direction halves the step's exponent, so a penalty
            # bouncing between two values (each overshooting the other
            # residual) settles between them instead of cycling forever
            prim_rel = r_prim / max(prim_scale, 1e-12)
            dual_rel = r_dual / max(dual_scale, 1e-12)
            ratio = np.sqrt(prim_rel / max(dual_rel, 1e-16))
            if ratio > _BALANCE or ratio < 1.0 / _BALANCE:
                up = ratio > 1.0
                if last_up is not None and up != last_up:
                    damp *= 0.5
                last_up = up
                scale = float(np.clip(ratio, 1e-3, 1e3)) ** damp
                rho = np.clip(rho * scale, _RHO_MIN, _RHO_MAX)
                K_inv = self.factor(rho)
        px, pres = _polish(self, beq, y[me:])
        status = "optimal" if pres <= _TOL else "max_iter"
        return QpSolution(px, objective(px), status, pres, it)


def _kkt_matrix(P, Aact) -> np.ndarray:
    """The KKT matrix [[P, Aact'], [Aact, 0]]."""
    n, ma = P.shape[0], Aact.shape[0]
    kkt = np.zeros((n + ma, n + ma))
    kkt[:n, :n] = P
    kkt[:n, n:] = Aact.T
    kkt[n:, :n] = Aact
    return kkt


def _kkt_residual(ws: Workspace, beq, x, y_eq, y_box) -> float:
    """Worst violation over stationarity, primal feasibility, dual signs and
    complementarity."""
    station = ws.P @ x + ws.q + y_box + ws.Aeq.T @ y_eq
    worst = max(
        float(np.abs(station).max(initial=0.0)),
        float(np.abs(ws.Aeq @ x - beq).max(initial=0.0)),
    )
    lo = ws.lb - x
    hi = x - ws.ub
    lo[~np.isfinite(lo)] = -np.inf
    hi[~np.isfinite(hi)] = -np.inf
    worst = max(worst, float(np.maximum(lo, hi).max(initial=0.0)))
    # a multiplier on an infinite bound is itself the violation
    gap_hi = np.where(np.isfinite(ws.ub), ws.ub - x, 1.0)
    gap_lo = np.where(np.isfinite(ws.lb), x - ws.lb, 1.0)
    comp = np.where(
        y_box > 0, y_box * gap_hi, np.where(y_box < 0, -y_box * gap_lo, 0.0)
    )
    return max(worst, float(np.abs(comp).max(initial=0.0)))


def _pinned_solve(ws: Workspace, beq, lower, upper):
    """KKT solve with the listed coordinates pinned to their bounds, through
    the face's inverse (`Workspace.face`). Returns (x, y_box, kkt_residual);
    a wrong face, or one along which the objective is unbounded, shows in
    the residual."""
    n, me = ws.n, beq.shape[0]
    rhs = np.concatenate([-ws.q, beq, ws.lb[lower], ws.ub[upper]])
    sol = ws.face(lower, upper) @ rhs
    x = sol[:n]
    y_eq = sol[n : n + me]
    y_box = np.zeros(n)
    y_box[np.array(lower + upper, dtype=int)] = sol[n + me :]
    return x, y_box, _kkt_residual(ws, beq, x, y_eq, y_box)


def _polish(ws: Workspace, beq, y_box):
    """Active-set refinement seeded by the ADMM box multipliers `y_box`, or
    by a face's signs (`Workspace.last_face`).

    The multipliers (thresholded against their overall scale, so near-zero
    noise on inactive coordinates is ignored) propose the first pinned set;
    coordinates with lb == ub stay pinned to lb throughout. Each pass
    solves the pinned KKT system through the face's inverse, releases pins
    whose multipliers came back wrong-signed, and pins the bound the
    candidate violates most, until the measured KKT residual meets `_TOL`
    or the set stops changing; a certified face is kept as `ws.last_face`.
    Returns the (x, kkt_residual) of the least residual seen.
    """
    n = ws.n
    seed_thr = 1e-9 * max(1.0, float(np.abs(y_box).max(initial=0.0)))
    finite_lb, finite_ub = np.isfinite(ws.lb), np.isfinite(ws.ub)
    always = set(np.flatnonzero(finite_lb & (ws.lb == ws.ub)).tolist())
    lower = set(np.flatnonzero(finite_lb & (y_box < -seed_thr)).tolist()) | always
    upper = set(np.flatnonzero(finite_ub & (y_box > seed_thr)).tolist()) - always
    best = None
    for _ in range(3 * n + 3):
        lo, up = sorted(lower), sorted(upper)
        x, y_new, res = _pinned_solve(ws, beq, lo, up)
        if best is None or res < best[1]:
            best = (x, res)
        if res <= _TOL:
            ws.last_face = np.zeros(n)
            ws.last_face[lo] = -1.0
            ws.last_face[up] = 1.0
            return best
        changed = False
        rel = 1e-10 * max(1.0, float(np.abs(y_new).max(initial=0.0)))
        for i in lo:
            if i not in always and y_new[i] > rel:
                lower.discard(i)
                changed = True
        for i in up:
            if y_new[i] < -rel:
                upper.discard(i)
                changed = True
        # pin only the single worst violation; adding every violated bound
        # at once can overshoot into an infeasible face
        feas = 1e-11 * max(1.0, float(np.abs(x).max(initial=0.0)))
        below = np.where(finite_lb, ws.lb - x, -np.inf)
        above = np.where(finite_ub, x - ws.ub, -np.inf)
        gap = np.maximum(below, above)
        gap[list(lower | upper)] = -np.inf
        worst = int(np.argmax(gap))  # the first index wins a tie
        if gap[worst] > feas:
            (lower if below[worst] > above[worst] else upper).add(worst)
            changed = True
        if not changed:
            break
    return best


def solve_qp(prob: QuadraticProgram) -> QpSolution:
    """Solve the program once, through a workspace built for this solve
    alone; see `Workspace.solve`."""
    return Workspace(prob).solve(prob.beq)


def _certificates(ws: Workspace, low, high, dx, dy):
    """OSQP-style infeasibility certificates from iterate differences."""
    ndy = float(np.abs(dy).max(initial=0.0))
    if ndy > 1e-14:
        if np.abs(ws.M.T @ dy).max(initial=0.0) <= _EPS_INFEAS * ndy:
            up, down = dy > _EPS_INFEAS * ndy, dy < -_EPS_INFEAS * ndy
            valid = np.isfinite(high[up]).all() and np.isfinite(low[down]).all()
            if valid:
                bound = np.where(up, high, np.where(down, low, 0.0))
                # summed in index order, not pairwise, so the rounding
                # matches a plain running sum
                support = np.cumsum(bound * dy)[-1]
                if support <= -_EPS_INFEAS * ndy:
                    return "infeasible"
    ndx = float(np.abs(dx).max(initial=0.0))
    if ndx > 1e-14:
        if (
            np.abs(ws.P @ dx).max(initial=0.0) <= _EPS_INFEAS * ndx
            and ws.q @ dx <= -_EPS_INFEAS * ndx
        ):
            Mdx = ws.M @ dx
            fixed = low == high
            blocked = (
                (Mdx > _EPS_INFEAS * ndx) & (np.isfinite(high) | fixed)
            ) | ((Mdx < -_EPS_INFEAS * ndx) & (np.isfinite(low) | fixed))
            if not blocked.any():
                return "unbounded"
    return None
