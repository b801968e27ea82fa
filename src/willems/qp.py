"""Convex quadratic programs with equality and box constraints.

Solves

    minimize    0.5 x'Px + q'x
    subject to  Aeq x = beq,  lb <= x <= ub

for symmetric positive-semidefinite P. A program without equality rows has
a 0 x n Aeq, so every step below runs the same way with or without them.
The cost may be singular and the equality rows rank-deficient, which rules
out textbook KKT factorizations; instead an ADMM sweep (splitting on the
stacked constraint matrix, so the iteration matrix is positive definite
regardless of P and Aeq) localizes the active set, and a polish step runs
one active-set refinement seeded by the ADMM box multipliers: it re-solves
the equality-constrained program of each face it visits by minimum-norm
least squares and verifies the full KKT system.

Everything that depends only on (P, Aeq, lb, ub) lives in a `Workspace`, so
a sequence of programs that differ only in q and beq (the receding-horizon
QPs of one closed loop) builds it once and passes it to every solve:

- the ADMM iteration matrix ``P + sigma I + M' diag(rho) M`` at the starting
  penalty, factored as an explicit inverse (numpy offers no triangular
  solve); a rebalanced penalty is factored afresh and not kept;
- a rank-revealing SVD of Aeq, whose range decides feasibility of
  ``Aeq x = beq`` by projection residual;
- the minimum-norm pseudo-inverses of the last two faces' KKT matrices (a
  face pins a set of coordinates to their bounds), built from the SVD cut
  of `numerics.pseudo_inverse_parts` (the rank ``numpy.linalg.lstsq``
  uses), so the polish is a matrix-vector product and a cached face gives
  the same bits as a new one;
- the last solve's ADMM iterate, the starting point of the next sweep.

`solve_qp` without a workspace builds a fresh one, so a one-off solve and a
solve in a sequence take the same code path. Solutions carry the measured
KKT residual. Everything is deterministic for fixed inputs and a fixed
sequence of solves: fixed iteration schedule, no randomization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_bound, as_matrix, as_vector, pseudo_inverse_parts

__all__ = ["QuadraticProgram", "QpSolution", "solve_qp"]

_SYM_TOL = 1e-10
# KKT residual a solution must reach to be optimal, and the ADMM iteration cap
_TOL = 1e-8
_MAX_ITER = 100000

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
        if (lb > ub).any() or (lb == np.inf).any() or (ub == -np.inf).any():
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
    max_iter. When optimal, kkt_residual is at most 1e-8."""

    x: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int


class Workspace:
    """Factorizations of one program's fixed data (P, Aeq, lb, ub), reused
    by every solve of a program that differs from it only in q and beq.

    Pass it to `solve_qp`, which raises ValueError for a program whose P,
    Aeq or bounds differ. The workspace holds at most two face
    factorizations and one warm start; drop it to free them.
    """

    def __init__(self, prob: QuadraticProgram):
        self.P, self.Aeq, self.lb, self.ub = prob.P, prob.Aeq, prob.lb, prob.ub
        n = prob.n
        self.M = np.vstack([prob.Aeq, np.eye(n)])
        self.rho0 = np.concatenate(
            [np.full(prob.Aeq.shape[0], _RHO_EQ), np.full(n, _RHO_BOX)]
        )
        self.K0_inv = self.factor(self.rho0)
        # range of Aeq, and the map from range coordinates to the
        # minimum-norm least-squares solution
        u, s, v = pseudo_inverse_parts(prob.Aeq)
        self.eq_range, self.eq_solve = u, v / s
        self.warm = None
        self._faces = {}

    def factor(self, rho) -> np.ndarray:
        """Inverse of the ADMM iteration matrix at penalty `rho`."""
        n = self.P.shape[0]
        return np.linalg.inv(self.P + _SIGMA * np.eye(n) + (self.M.T * rho) @ self.M)

    def check(self, prob: QuadraticProgram):
        """Raise ValueError unless `prob` has this workspace's P, Aeq and
        bounds."""
        ours = (self.P, self.Aeq, self.lb, self.ub)
        theirs = (prob.P, prob.Aeq, prob.lb, prob.ub)
        if not all(np.array_equal(a, b) for a, b in zip(ours, theirs)):
            raise ValueError(
                "the program's P, Aeq or bounds differ from its workspace's"
            )

    def face(self, lower, upper):
        """(KKT matrix, its minimum-norm pseudo-inverse) of the face that
        pins `lower` to lb and `upper` to ub, Aeq rows first."""
        key = (tuple(lower), tuple(upper))
        entry = self._faces.pop(key, None)
        if entry is None:
            # evict first, so the new factorization is built beside one
            # kept face, not two
            if len(self._faces) == _FACES:
                del self._faces[next(iter(self._faces))]
            n = self.P.shape[0]
            pinned = np.eye(n)[np.array(list(lower) + list(upper), dtype=int)]
            Aact = np.vstack([self.Aeq, pinned])
            ma = Aact.shape[0]
            kkt = np.zeros((n + ma, n + ma))
            kkt[:n, :n] = self.P
            kkt[:n, n:] = Aact.T
            kkt[n:, :n] = Aact
            u, s, v = pseudo_inverse_parts(kkt)
            entry = (kkt, (v / s) @ u.T)
        self._faces[key] = entry
        return entry


def _kkt_residual(prob: QuadraticProgram, x, y_eq, y_box) -> float:
    """Worst violation over stationarity, primal feasibility, dual signs and
    complementarity."""
    station = prob.P @ x + prob.q + y_box + prob.Aeq.T @ y_eq
    worst = max(
        float(np.abs(station).max(initial=0.0)),
        float(np.abs(prob.Aeq @ x - prob.beq).max(initial=0.0)),
    )
    lo = prob.lb - x
    hi = x - prob.ub
    lo[~np.isfinite(lo)] = -np.inf
    hi[~np.isfinite(hi)] = -np.inf
    worst = max(worst, float(np.maximum(lo, hi).max(initial=0.0)))
    # a multiplier on an infinite bound is itself the violation
    gap_hi = np.where(np.isfinite(prob.ub), prob.ub - x, 1.0)
    gap_lo = np.where(np.isfinite(prob.lb), x - prob.lb, 1.0)
    comp = np.where(
        y_box > 0, y_box * gap_hi, np.where(y_box < 0, -y_box * gap_lo, 0.0)
    )
    return max(worst, float(np.abs(comp).max(initial=0.0)))


def _pinned_solve(prob: QuadraticProgram, ws: Workspace, lower, upper):
    """Minimum-norm KKT solve with the listed coordinates pinned to their
    bounds. Returns (x, y_box, kkt_residual, consistent); `consistent` is
    False when the stacked system has no exact solution, meaning the face
    is wrong or the objective is unbounded along it.
    """
    n, me = prob.n, prob.beq.shape[0]
    rhs = np.concatenate([-prob.q, prob.beq, prob.lb[lower], prob.ub[upper]])
    kkt, pinv = ws.face(lower, upper)
    sol = pinv @ rhs
    res = float(np.linalg.norm(kkt @ sol - rhs))
    consistent = res <= 1e-6 * max(1.0, float(np.linalg.norm(rhs)))
    x = sol[:n]
    y_eq = sol[n : n + me]
    y_box = np.zeros(n)
    y_box[np.array(lower + upper, dtype=int)] = sol[n + me :]
    return x, y_box, _kkt_residual(prob, x, y_eq, y_box), consistent


def _polish(prob: QuadraticProgram, ws: Workspace, y_box):
    """Active-set refinement seeded by the ADMM box multipliers `y_box`.

    The multipliers (thresholded against their overall scale, so near-zero
    noise on inactive coordinates is ignored) propose the first pinned set;
    coordinates with lb == ub stay pinned to lb throughout. Each pass
    re-solves the pinned KKT system by minimum-norm least squares, releases
    pins whose multipliers came back wrong-signed, and pins the bound the
    candidate violates most, until the measured KKT residual meets `_TOL`
    or the set stops changing. Returns the best (x, kkt_residual) seen, or
    (None, inf) when every visited face was inconsistent.
    """
    n = prob.n
    seed_thr = 1e-9 * max(1.0, float(np.abs(y_box).max(initial=0.0)))
    finite_lb, finite_ub = np.isfinite(prob.lb), np.isfinite(prob.ub)
    always = set(np.flatnonzero(finite_lb & (prob.lb == prob.ub)).tolist())
    lower = set(np.flatnonzero(finite_lb & (y_box < -seed_thr)).tolist()) | always
    upper = set(np.flatnonzero(finite_ub & (y_box > seed_thr)).tolist()) - always
    best = (None, np.inf)
    for _ in range(3 * n + 3):
        lo, up = sorted(lower), sorted(upper)
        x, y_new, res, consistent = _pinned_solve(prob, ws, lo, up)
        changed = False
        if consistent:
            if res < best[1]:
                best = (x, res)
            if res <= _TOL:
                return best
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
        below = np.where(finite_lb, prob.lb - x, -np.inf)
        above = np.where(finite_ub, x - prob.ub, -np.inf)
        gap = np.maximum(below, above)
        gap[list(lower | upper)] = -np.inf
        worst = int(np.argmax(gap))  # the first index wins a tie
        if gap[worst] > feas:
            (lower if below[worst] > above[worst] else upper).add(worst)
            changed = True
        if not changed:
            break
    return best


def solve_qp(
    prob: QuadraticProgram, workspace: Workspace | None = None
) -> QpSolution:
    """Solve the program; see the module docstring for the method. Singular
    P is resolved by the minimum-norm behavior of the polish step. The
    solution is optimal when its KKT residual is at most 1e-8 within
    100,000 ADMM iterations, and max_iter otherwise.

    `workspace` carries the factorizations and the warm start over from
    earlier solves of programs with the same P, Aeq and bounds; without
    one, a fresh workspace is built for this solve alone.
    """
    if workspace is None:
        workspace = Workspace(prob)
    else:
        workspace.check(prob)
    ws = workspace
    n, me = prob.n, prob.beq.shape[0]

    coef = ws.eq_range.T @ prob.beq
    res = float(np.linalg.norm(prob.beq - ws.eq_range @ coef))
    if res > 1e-9 * float(np.linalg.norm(prob.beq)):
        x_ls = ws.eq_solve @ coef
        return QpSolution(x_ls, prob.objective(x_ls), "infeasible", float("inf"), 0)

    M = ws.M
    low = np.concatenate([prob.beq, prob.lb])
    high = np.concatenate([prob.beq, prob.ub])
    rho = ws.rho0
    K_inv = ws.K0_inv
    damp, last_up = 1.0, None

    x, y = (np.zeros(n), np.zeros(me + n)) if ws.warm is None else ws.warm
    z = np.clip(M @ x, low, high)
    x_mark, y_mark = x.copy(), y.copy()

    def admm_phase(eps, start, limit):
        nonlocal x, z, y, x_mark, y_mark, rho, K_inv, damp, last_up
        it = start
        while it < limit:
            steps = min(_CHECK_EVERY, limit - it)
            for _ in range(steps):
                rhs = _SIGMA * x - prob.q + M.T @ (rho * z - y)
                xt = K_inv @ rhs
                zt = M @ xt
                x = _ALPHA * xt + (1.0 - _ALPHA) * x
                zbar = _ALPHA * zt + (1.0 - _ALPHA) * z
                z_new = np.minimum(np.maximum(zbar + y / rho, low), high)
                y = y + rho * (zbar - z_new)
                z = z_new
            it += steps
            Mx = M @ x
            Px = prob.P @ x
            MTy = M.T @ y
            r_prim = float(np.abs(Mx - z).max(initial=0.0))
            r_dual = float(np.abs(Px + prob.q + MTy).max(initial=0.0))
            prim_scale = max(np.abs(Mx).max(initial=0.0), np.abs(z).max(initial=0.0))
            dual_scale = max(
                np.abs(Px).max(initial=0.0),
                np.abs(prob.q).max(initial=0.0),
                np.abs(MTy).max(initial=0.0),
            )
            if r_prim <= eps + eps * prim_scale and r_dual <= eps + eps * dual_scale:
                return "converged", it
            status = _certificates(prob, M, low, high, x - x_mark, y - y_mark)
            if status:
                return status, it
            x_mark, y_mark = x.copy(), y.copy()
            # rebalance the penalty when one residual has raced ahead of
            # the other, which otherwise stalls the sweep; each reversal of
            # direction halves the step's exponent, so a penalty bouncing
            # between two values (each overshooting the other residual)
            # settles between them instead of cycling forever
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
                K_inv = ws.factor(rho)
        return "max_iter", it

    iterations = 0
    best = (None, np.inf)
    # the first phase is capped so a stalled sweep still reaches the polish
    for eps, limit in ((1e-6, 5000), (_TOL, _MAX_ITER)):
        outcome, iterations = admm_phase(eps, iterations, limit)
        if outcome in ("infeasible", "unbounded"):
            ws.warm = None
            return QpSolution(x, prob.objective(x), outcome, float("inf"), iterations)
        ws.warm = (x, y)
        px, pres = _polish(prob, ws, y[me:])
        if pres <= _TOL:
            return QpSolution(px, prob.objective(px), "optimal", pres, iterations)
        if pres < best[1]:
            best = (px, pres)

    # neither polish certified: the better of the polish and the ADMM iterate
    admm_res = _kkt_residual(prob, x, y[:me], y[me:])
    if best[0] is None or admm_res < best[1]:
        best = (x, admm_res)
    bx, bres = best
    status = "optimal" if bres <= _TOL else "max_iter"
    return QpSolution(bx, prob.objective(bx), status, bres, iterations)


def _certificates(prob, M, low, high, dx, dy):
    """OSQP-style infeasibility certificates from iterate differences."""
    ndy = float(np.abs(dy).max(initial=0.0))
    if ndy > 1e-14:
        if np.abs(M.T @ dy).max(initial=0.0) <= _EPS_INFEAS * ndy:
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
            np.abs(prob.P @ dx).max(initial=0.0) <= _EPS_INFEAS * ndx
            and prob.q @ dx <= -_EPS_INFEAS * ndx
        ):
            Mdx = M @ dx
            fixed = low == high
            blocked = (
                (Mdx > _EPS_INFEAS * ndx) & (np.isfinite(high) | fixed)
            ) | ((Mdx < -_EPS_INFEAS * ndx) & (np.isfinite(low) | fixed))
            if not blocked.any():
                return "unbounded"
    return None
