"""Reference model-based receding-horizon step in state-recursion form.

The decision variables are every window state x_{t-N..t+L-1}, the future
inputs and the future outputs. The dynamics x_{k+1} = A x_k + B u_k are
imposed row by row over the whole window, the past output equations pin
the states to the measured history, and the future output equations define
the predicted outputs. This is the uncondensed program the package's
`mpc_step` eliminates the state recursion from, so the two must agree on
the applied input and the optimal cost.

Uses the package QP solver, but builds the program independently of
`willems.predictive`.
"""

import numpy as np

from willems import QuadraticProgram, solve_qp


def state_recursion_mpc(sys, history, cfg, t):
    """Returns the first input, the tracking cost, the QP status and the
    stacked future inputs and outputs, (L, m) and (L, p), at time t."""
    n, m, p = sys.n, sys.m, sys.p
    N, L = cfg.N, cfg.L
    W = N + L
    nu0 = W * n
    ny0 = nu0 + L * m
    nv = ny0 + L * p

    def xof(k):
        return slice(k * n, (k + 1) * n)

    def uof(j):
        return slice(nu0 + j * m, nu0 + (j + 1) * m)

    def yof(j):
        return slice(ny0 + j * p, ny0 + (j + 1) * p)

    rows = (W - 1) * n + N * p + L * p
    Aeq = np.zeros((rows, nv))
    beq = np.zeros(rows)
    past_u = history.inputs[t - N : t]
    past_y = history.outputs[t - N : t]
    row = 0
    for k in range(W - 1):
        Aeq[row : row + n, xof(k + 1)] = np.eye(n)
        Aeq[row : row + n, xof(k)] = -sys.A
        if k < N:
            beq[row : row + n] = sys.B @ past_u[k]
        else:
            Aeq[row : row + n, uof(k - N)] = -sys.B
        row += n
    for k in range(N):
        Aeq[row : row + p, xof(k)] = sys.C
        beq[row : row + p] = past_y[k] - sys.D @ past_u[k]
        row += p
    for j in range(L):
        Aeq[row : row + p, yof(j)] = np.eye(p)
        Aeq[row : row + p, xof(N + j)] = -sys.C
        Aeq[row : row + p, uof(j)] = -sys.D
        row += p

    Qbar = np.kron(np.eye(L), cfg.Q)
    Rbar = np.kron(np.eye(L), cfg.R)
    rvec = cfg.reference()
    P = np.zeros((nv, nv))
    P[nu0:ny0, nu0:ny0] = 2.0 * Rbar
    P[ny0:, ny0:] = 2.0 * Qbar
    q = np.zeros(nv)
    q[ny0:] = -2.0 * Qbar @ rvec

    lb = np.full(nv, -np.inf)
    ub = np.full(nv, np.inf)
    u_lo, u_hi = cfg.input_bounds()
    y_lo, y_hi = cfg.output_bounds()
    for j in range(L):
        lb[uof(j)], ub[uof(j)] = u_lo, u_hi
        lb[yof(j)], ub[yof(j)] = y_lo, y_hi

    sol = solve_qp(QuadraticProgram(P, q, Aeq, beq, lb, ub))
    cost = sol.objective + float(rvec @ Qbar @ rvec)
    ubar = sol.x[nu0:ny0].reshape(L, m)
    ybar = sol.x[ny0:].reshape(L, p)
    return sol.x[uof(0)].copy(), cost, sol.status, ubar, ybar
