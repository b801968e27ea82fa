"""Brute-force reference solver for convex QPs with equalities and boxes.

Enumerates every assignment of coordinates to {free, at lower bound, at
upper bound} (bounds at infinity are never active), solves the reduced
stationarity system for each assignment, and keeps the candidates that are
primal and dual feasible. For positive-semidefinite P every such point is a
global minimizer, so the best candidate is the optimum.

Kept deliberately independent of the package solver: plain numpy, raw
arrays in, no shared code paths.
"""

import itertools

import numpy as np

FEAS_TOL = 1e-7


def _stationary_point(P, q, Aeq, beq, pattern, lb, ub):
    """Solve the KKT equalities with the given active pattern.

    pattern[i] is 0 (free), -1 (pinned at lb[i]) or +1 (pinned at ub[i]).
    Returns (x, nu, exact) or None when the linear system is inconsistent;
    `exact` is False when the reduced system is singular (minimizer on this
    face may be non-unique).
    """
    n = P.shape[0]
    free = [i for i in range(n) if pattern[i] == 0]
    x = np.where(np.asarray(pattern) < 0, lb, ub)
    x[free] = 0.0
    nf = len(free)
    neq = Aeq.shape[0]
    if nf + neq == 0:
        return x, np.zeros(0), True
    kkt = np.zeros((nf + neq, nf + neq))
    kkt[:nf, :nf] = P[np.ix_(free, free)]
    kkt[:nf, nf:] = Aeq[:, free].T
    kkt[nf:, :nf] = Aeq[:, free]
    fixed = [i for i in range(n) if pattern[i] != 0]
    rhs = np.concatenate(
        [
            -q[free] - P[np.ix_(free, fixed)] @ x[fixed],
            beq - Aeq[:, fixed] @ x[fixed],
        ]
    )
    sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if np.linalg.norm(kkt @ sol - rhs) > FEAS_TOL * scale:
        return None
    x[free] = sol[:nf]
    return x, sol[nf:], rank == nf + neq


def solve_reference(P, q, Aeq, beq, lb, ub):
    """Global minimum of 0.5 x'Px + q'x over {Aeq x = beq, lb <= x <= ub}.

    Returns (objective, x, unique). Raises if no KKT point exists, which for
    a feasible bounded convex problem cannot happen.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    Aeq = np.asarray(Aeq, dtype=float).reshape(-1, P.shape[0])
    beq = np.asarray(beq, dtype=float).reshape(-1)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = P.shape[0]

    options = []
    for i in range(n):
        opts = [0]
        if np.isfinite(lb[i]):
            opts.append(-1)
        if np.isfinite(ub[i]):
            opts.append(+1)
        options.append(opts)

    candidates = []
    for pattern in itertools.product(*options):
        out = _stationary_point(P, q, Aeq, beq, pattern, lb, ub)
        if out is None:
            continue
        x, nu, exact = out
        if np.any(x < lb - FEAS_TOL) or np.any(x > ub + FEAS_TOL):
            continue
        if beq.size and np.linalg.norm(Aeq @ x - beq) > FEAS_TOL * max(
            1.0, float(np.linalg.norm(beq))
        ):
            continue
        grad = P @ x + q + Aeq.T @ nu
        dual_ok = True
        for i in range(n):
            if pattern[i] < 0 and grad[i] < -FEAS_TOL:
                dual_ok = False
            elif pattern[i] > 0 and grad[i] > FEAS_TOL:
                dual_ok = False
        if not dual_ok:
            continue
        obj = 0.5 * float(x @ P @ x) + float(q @ x)
        candidates.append((obj, x, exact))

    if not candidates:
        raise RuntimeError("no KKT point found; problem infeasible or unbounded")

    best = min(c[0] for c in candidates)
    span = 1e-9 * max(1.0, abs(best))
    winners = [c for c in candidates if c[0] <= best + span]
    xs = [c[1] for c in winners]
    unique = all(c[2] for c in winners)
    if unique:
        for xa in xs[1:]:
            if np.linalg.norm(xa - xs[0]) > 1e-6 * (1 + np.linalg.norm(xs[0])):
                unique = False
                break
    return best, xs[0], unique


def kkt_residual_reference(P, q, Aeq, beq, lb, ub, x, y_eq, y_box):
    """The KKT residual as the package measured it before it cached its
    masks: the worst of stationarity, equality residual, box violation
    (non-finite gaps ignored) and multiplier times gap to the bound of the
    multiplier's sign, a multiplier on an infinite bound counting alone.
    Each part is its own max, and the parts meet in Python's max."""
    station = P @ x + q + y_box + Aeq.T @ y_eq
    worst = max(
        float(np.abs(station).max(initial=0.0)),
        float(np.abs(Aeq @ x - beq).max(initial=0.0)),
    )
    lo = lb - x
    hi = x - ub
    lo[~np.isfinite(lo)] = -np.inf
    hi[~np.isfinite(hi)] = -np.inf
    worst = max(worst, float(np.maximum(lo, hi).max(initial=0.0)))
    gap_hi = np.where(np.isfinite(ub), ub - x, 1.0)
    gap_lo = np.where(np.isfinite(lb), x - lb, 1.0)
    comp = np.where(
        y_box > 0, y_box * gap_hi, np.where(y_box < 0, -y_box * gap_lo, 0.0)
    )
    return max(worst, float(np.abs(comp).max(initial=0.0)))


def random_box_qp(rng, singular: bool = False):
    """Random feasible bounded QP as raw arrays (P, q, Aeq, beq, lb, ub).

    Singular instances get a rank-deficient P but a fully finite box so the
    minimum still exists; strictly convex instances may open some bounds.
    """
    n = int(rng.integers(1, 9))
    neq = int(rng.integers(0, min(3, n) + 1))
    G = rng.normal(size=(n, n))
    if singular:
        drop = int(rng.integers(1, n + 1))
        G[:drop] = 0.0
        P = G.T @ G
    else:
        P = G.T @ G + (0.1 + rng.uniform()) * np.eye(n)
    q = rng.normal(size=n)
    center = rng.normal(size=n)
    half = rng.uniform(0.1, 2.0, size=n)
    lb = center - half
    ub = center + half
    x_feas = rng.uniform(lb, ub)
    if not singular:
        for i in range(n):
            roll = rng.uniform()
            if roll < 0.15:
                lb[i] = -np.inf
            elif roll < 0.30:
                ub[i] = np.inf
    Aeq = rng.normal(size=(neq, n))
    beq = Aeq @ x_feas
    return P, q, Aeq, beq, lb, ub
