"""Receding-horizon control: model-based MPC, its data-driven counterpart,
and the closed-loop harness.

Both controllers minimize the same finite-horizon tracking cost

    sum_k (ybar_k - r_k)' Q (ybar_k - r_k) + ubar_k' R ubar_k

over a window that pins the last N measured input/output samples and leaves
the next L free. Both decision vectors end in the same (ubar, ybar) block,
which carries the cost and the input/output boxes; they differ only in
their leading block and equality rows. The model-based step leads with the
window's initial state x_{t-N} and ties the window's outputs to it and to
the inputs through the observability and Markov-parameter matrices (the
state recursion is condensed away); the data-driven step leads with the
column combination g and requires the whole window to be that combination
of the depth-(N+L) block-Hankel matrix of a recorded data trajectory. With
online data (the prefix of the very trajectory being controlled) the two
feasible sets coincide, which the closed-loop harness can verify side by
side.

From one step to the next only the measured past moves, and it enters the
QP only through the equality right-hand side. So each controller's QP
(cost, boxes, equality rows and, for the data-driven step, the Hankel
matrix) is built once per closed loop, and every step solves it through
one QP workspace that keeps its factorizations and warm start (see
`willems.qp`). `mpc_step` and `deepc_step` build the same QP for a single
step and solve it cold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .hankel import is_collectively_pe
from .lti import LtiSystem, Trajectory, TrajectorySet, simulate, write_csv
from .numerics import as_bound, as_square, as_vector
from .parameterize import build_trajectory_matrix, response_operators
from .qp import QpSolution, QuadraticProgram, Workspace, solve_qp
from .subspace import HypothesisViolated, draw_until_pe, min_poly_degree

__all__ = [
    "PredictiveConfig",
    "ClosedLoopLog",
    "InfeasibleStep",
    "mpc_step",
    "deepc_step",
    "run_closed_loop",
]

class InfeasibleStep(RuntimeError):
    """A controller sub-problem ended without an optimal solution at some
    step; `solution` is the solver's answer and `status` its status
    (infeasible, unbounded or max_iter)."""

    def __init__(self, t: int, solution: QpSolution):
        super().__init__(f"controller step failed at t={t} (status {solution.status})")
        self.t = t
        self.solution = solution
        self.status = solution.status


def _weight(w, name) -> np.ndarray:
    """`w` symmetrized as (w + w')/2, which leaves a symmetric weight's
    bits alone and makes the QP's P = 2 kron(I, w) exactly symmetric."""
    w = as_square(w, name)
    if np.abs(w - w.T).max(initial=0.0) > 1e-10:
        raise ValueError(f"{name} is not symmetric")
    w = (w + w.T) / 2
    if w.size and np.linalg.eigvalsh(w).min() < -1e-10:
        raise ValueError(f"{name} is not positive semidefinite")
    return w


@dataclass(frozen=True)
class PredictiveConfig:
    """Shared controller/experiment parameters.

    N is the pinned past-window length, L the prediction horizon. The
    reference `r` is a finite single output sample (held constant over the
    horizon) or a finite (L, p) array. `u_min`/`u_max` bound the inputs;
    `y_min`/`y_max` are optional output bounds (None means unbounded); a
    box that no value meets raises ValueError. `excitation_low/high` set
    the uniform input range of the closed loop's excitation phase, which is
    drawn at the order `excitation_order` fixes, and `x0` the plant's
    initial state (defaults to zero).
    """

    N: int
    L: int
    Q: np.ndarray
    R: np.ndarray
    r: np.ndarray
    T: int
    K: int
    u_min: object = None
    u_max: object = None
    y_min: object = None
    y_max: object = None
    excitation_low: float = -1.0
    excitation_high: float = 1.0
    x0: object = None

    def __post_init__(self):
        if not (1 <= self.N <= self.T <= self.K):
            raise ValueError(
                f"need 1 <= N <= T <= K, got N={self.N} T={self.T} K={self.K}"
            )
        if self.L < 1:
            raise ValueError(f"L must be positive, got {self.L}")
        object.__setattr__(self, "Q", _weight(self.Q, "Q"))
        object.__setattr__(self, "R", _weight(self.R, "R"))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        as_vector(self.r, "reference 'r'")  # finite; `reference` checks the shape
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0, "x0"))
        if self.excitation_low >= self.excitation_high:
            raise ValueError("excitation_low must be below excitation_high")
        self.reference()
        for (lo, hi), box in zip((self.input_bounds(), self.output_bounds()), "uy"):
            if (lo > hi).any() or (lo == np.inf).any() or (hi == -np.inf).any():
                raise ValueError(f"no value meets '{box}_min' <= '{box}_max'")

    @property
    def p(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def reference(self) -> np.ndarray:
        """Horizon reference, stacked to a length p*L vector."""
        r = self.r
        if r.ndim == 1:
            if r.shape != (self.p,):
                raise ValueError(f"r has shape {r.shape}, expected ({self.p},)")
            return np.tile(r, self.L)
        if r.shape != (self.L, self.p):
            raise ValueError(
                f"r has shape {r.shape}, expected ({self.L}, {self.p})"
            )
        return r.reshape(-1)

    def input_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            as_bound(self.u_min, self.m, -np.inf, "u_min"),
            as_bound(self.u_max, self.m, np.inf, "u_max"),
        )

    def output_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            as_bound(self.y_min, self.p, -np.inf, "y_min"),
            as_bound(self.y_max, self.p, np.inf, "y_max"),
        )


def _check_history(history: Trajectory, cfg: PredictiveConfig, t: int):
    if history.outputs is None:
        raise ValueError("history carries no outputs")
    if history.length < t:
        raise ValueError(f"history has {history.length} samples, need {t}")
    if t < cfg.N:
        raise ValueError(f"t={t} is below the past-window length N={cfg.N}")


class _Window:
    """The tracking QP of one controller over the stacked decision vector
    (lead block, ubar, ybar) subject to Aeq x = beq.

    The lead block (the window's initial state for MPC, the column
    combination g for DeePC) is free and carries no cost; the tail carries
    the tracking cost and the input/output boxes. Only beq moves with the
    measured past, through `beq(u_past, y_past)`, so P, q, the boxes and
    Aeq are built once and every step shares one QP workspace.
    """

    def __init__(self, cfg: PredictiveConfig, lead: int, Aeq, beq):
        L, m, p = cfg.L, cfg.m, cfg.p
        nv = lead + L * m + L * p
        uof = slice(lead, lead + L * m)
        yof = slice(lead + L * m, nv)
        Qbar = np.kron(np.eye(L), cfg.Q)
        Rbar = np.kron(np.eye(L), cfg.R)
        rvec = cfg.reference()

        P = np.zeros((nv, nv))
        P[uof, uof] = 2.0 * Rbar
        P[yof, yof] = 2.0 * Qbar
        q = np.zeros(nv)
        q[yof] = -2.0 * Qbar @ rvec
        lb = np.full(nv, -np.inf)
        ub = np.full(nv, np.inf)
        u_lo, u_hi = cfg.input_bounds()
        y_lo, y_hi = cfg.output_bounds()
        lb[uof], ub[uof] = np.tile(u_lo, L), np.tile(u_hi, L)
        lb[yof], ub[yof] = np.tile(y_lo, L), np.tile(y_hi, L)

        self.program = QuadraticProgram(P, q, Aeq, np.zeros(Aeq.shape[0]), lb, ub)
        self.workspace = Workspace(self.program)
        self.beq = beq
        self.lead, self.m = lead, m
        self.const = float(rvec @ Qbar @ rvec)

    def step(self, u_past, y_past, t: int):
        """Solve for the measured past window; returns the first input, the
        tracking cost (the QP objective plus its constant term) and the QP
        solution. Raises InfeasibleStep unless the solve ended optimal."""
        prob = replace(self.program, beq=self.beq(u_past, y_past))
        sol = solve_qp(prob, workspace=self.workspace)
        if sol.status != "optimal":
            raise InfeasibleStep(t, sol)
        u0 = sol.x[self.lead : self.lead + self.m].copy()
        return u0, sol.objective + self.const, sol


def _past(history: Trajectory, cfg: PredictiveConfig, t: int):
    return history.inputs[t - cfg.N : t], history.outputs[t - cfg.N : t]


def _mpc_window(sys: LtiSystem, cfg: PredictiveConfig) -> _Window:
    N, L = cfg.N, cfg.L
    m, p = sys.m, sys.p
    ops = response_operators(sys, N + L)
    G = ops.convolution
    rows = (N + L) * p
    Aeq = np.hstack([ops.observability, G[:, N * m :], -np.eye(rows)[:, N * p :]])
    G_past = G[:, : N * m]
    tail = np.zeros(L * p)

    def beq(u_past, y_past):
        return np.concatenate([y_past.reshape(-1), tail]) - G_past @ u_past.reshape(-1)

    return _Window(cfg, sys.n, Aeq, beq)


def _deepc_window(data: Trajectory, cfg: PredictiveConfig) -> _Window:
    N, L = cfg.N, cfg.L
    m, p = data.m, data.outputs.shape[1]
    depth = N + L
    H = build_trajectory_matrix(TrajectorySet((data,)), depth)
    rows = depth * (m + p)
    future = np.r_[N * m : depth * m, depth * m + N * p : rows]
    Aeq = np.hstack([H, -np.eye(rows)[:, future]])
    u_tail, y_tail = np.zeros(L * m), np.zeros(L * p)

    def beq(u_past, y_past):
        return np.concatenate(
            [u_past.reshape(-1), u_tail, y_past.reshape(-1), y_tail]
        )

    return _Window(cfg, H.shape[1], Aeq, beq)


def mpc_step(
    sys: LtiSystem, history: Trajectory, cfg: PredictiveConfig, t: int
) -> tuple[np.ndarray, float]:
    """One model-based receding-horizon step at time t.

    The decision variables are the window's initial state x_{t-N}, the
    future inputs and the future outputs. With y = O x_{t-N} + G u the
    window's response (observability matrix O, block-Toeplitz matrix G of
    the Markov parameters D, CB, CAB, ...), the equality rows pin the N
    past outputs to the measured history and tie the L future outputs to
    x_{t-N} and the future inputs. Returns the input to apply and the
    optimal tracking cost.
    """
    _check_history(history, cfg, t)
    u0, objective, _ = _mpc_window(sys, cfg).step(*_past(history, cfg, t), t)
    return u0, objective


def deepc_step(
    data: Trajectory, history: Trajectory, cfg: PredictiveConfig, t: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """One data-driven receding-horizon step at time t.

    `data` is the recorded trajectory whose depth-(N+L) block-Hankel matrix
    replaces the model; its inputs must be persistently exciting of order
    N + L, the window depth, or HypothesisViolated is raised. Returns the
    input to apply, the optimal tracking cost and the column-combination
    certificate g.
    """
    _check_history(history, cfg, t)
    if data.outputs is None:
        raise ValueError("data carries no outputs")
    if t < data.length:
        raise ValueError(f"t={t} precedes the end of the length-{data.length} data")
    depth = cfg.N + cfg.L
    if not is_collectively_pe(TrajectorySet((data,)), depth):
        raise HypothesisViolated(
            f"data inputs are not persistently exciting of order {depth}", depth
        )
    window = _deepc_window(data, cfg)
    u0, objective, sol = window.step(*_past(history, cfg, t), t)
    return u0, objective, sol.x[: window.lead].copy()


@dataclass(frozen=True)
class ClosedLoopLog:
    """Per-step record of a closed-loop run over t = 0..K.

    The excitation phase fills `objectives` with NaN and `statuses` with
    "excite". `iterations` and `kkt_residuals` are the ADMM iteration count
    and the certified KKT residual of the applied controller's QP (0 and
    NaN while exciting). When the run compared both controllers,
    `alt_inputs` and `alt_objectives` hold the non-applied controller's step
    results. `completed` is False when a step ended without an optimal
    solution and the run aborted; that step's status is the last entry of
    `statuses`, and its iterations and residual are those of the failed
    solve.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    phases: tuple
    objectives: np.ndarray
    iterations: np.ndarray
    kkt_residuals: np.ndarray
    statuses: tuple
    solve_ms: np.ndarray
    reference: np.ndarray
    completed: bool = True
    alt_inputs: np.ndarray | None = None
    alt_objectives: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    def to_csv(self, path):
        m = self.inputs.shape[1]
        p = self.outputs.shape[1]
        header = (
            ["t", "phase"]
            + [f"u_{i}" for i in range(m)]
            + [f"y_{i}" for i in range(p)]
            + ["objective", "iterations", "kkt_residual", "status", "solve_ms"]
        )
        rows = (
            [t, self.phases[t], *self.inputs[t], *self.outputs[t],
             self.objectives[t], self.iterations[t], self.kkt_residuals[t],
             self.statuses[t], self.solve_ms[t]]
            for t in range(self.length)
        )
        write_csv(path, header, rows)

    def to_plot_csv(self, path):
        """Outputs next to the constant reference lines, for plotting."""
        p = self.outputs.shape[1]
        header = ["t"] + [f"y_{i}" for i in range(p)] + [f"r_{i}" for i in range(p)]
        ref = self.reference.reshape(-1)[:p]
        rows = ([t, *self.outputs[t], *ref] for t in range(self.length))
        write_csv(path, header, rows)


def excitation_order(sys: LtiSystem, cfg: PredictiveConfig) -> int:
    """The order delta + N + L the closed loop excites its data at, with
    delta the degree of the minimal polynomial of A (at most n). By
    Theorem 1 that order suffices with online data: every window of the
    controlled trajectory starts where the data's own windows can.

    A depth-d input Hankel matrix of T samples has m*d rows and T - d + 1
    columns, so it can have full row rank only when T >= (m + 1) d - 1;
    raises ValueError when T is shorter, since no draw could then succeed,
    and when the weights Q and R do not match the plant.
    """
    if sys.m != cfg.m or sys.p != cfg.p:
        raise ValueError("weights 'Q' and 'R' do not match the system")
    delta = min_poly_degree(sys.A)
    order = delta + cfg.N + cfg.L
    need = (sys.m + 1) * order - 1
    if cfg.T < need:
        raise ValueError(
            f"T={cfg.T} is too short for excitation order delta + N + L = "
            f"{order}, with delta = {delta} the degree of the minimal "
            f"polynomial of A: need T >= {need}"
        )
    return order


def run_closed_loop(
    sys: LtiSystem,
    cfg: PredictiveConfig,
    controller: str = "deepc",
    seed: int = 0,
) -> ClosedLoopLog:
    """Simulate the full experiment: seeded excitation on [0, T-1], then the
    chosen controller from t = T through K inclusive.

    The excitation draw at `excitation_order` is the run's one excitation
    check. Both controllers' windows are built once, inside the first
    control step's `solve_ms`. `controller` is "mpc", "deepc", or "both";
    with "both" the data-driven input is applied and the model-based step
    is solved alongside for comparison, filling the `alt_*` log fields.
    """
    if controller not in ("mpc", "deepc", "both"):
        raise ValueError(f"unknown controller {controller!r}")
    rng = np.random.default_rng(seed)

    def draw(_):
        u = rng.uniform(cfg.excitation_low, cfg.excitation_high, (cfg.T, sys.m))
        return TrajectorySet((Trajectory(u),))

    # uniform draws pass with probability 1; the retries guard degenerate seeds
    u_exc = draw_until_pe(draw, excitation_order(sys, cfg))[0].inputs
    excite = simulate(sys, np.zeros(sys.n) if cfg.x0 is None else cfg.x0, u_exc)
    x = sys.A @ excite.states[-1] + sys.B @ u_exc[-1]
    K, T, N = cfg.K, cfg.T, cfg.N
    inputs = np.zeros((K + 1, sys.m))
    outputs = np.zeros((K + 1, sys.p))
    inputs[:T], outputs[:T] = u_exc, excite.outputs
    objectives = np.full(K + 1, np.nan)
    iterations = np.zeros(K + 1, dtype=int)
    kkt_residuals = np.full(K + 1, np.nan)
    solve_ms = np.zeros(K + 1)
    statuses = ["excite"] * T
    alt_inputs = np.full((K + 1, sys.m), np.nan) if controller == "both" else None
    alt_objectives = np.full(K + 1, np.nan) if controller == "both" else None
    completed = True

    # the data are fixed from here on, so each controller's window (and
    # its Hankel matrix) is built once for the whole loop
    start = time.perf_counter()
    if controller == "mpc":
        applied = _mpc_window(sys, cfg)
    else:
        applied = _deepc_window(excite, cfg)
    compared = _mpc_window(sys, cfg) if controller == "both" else None

    for t in range(T, K + 1):
        try:
            past = inputs[t - N : t], outputs[t - N : t]
            u_t, obj, sol = applied.step(*past, t)
            if compared is not None:
                alt_inputs[t], alt_objectives[t], _ = compared.step(*past, t)
            objectives[t] = obj
            status = "optimal"
        except InfeasibleStep as exc:
            sol, status, completed = exc.solution, exc.status, False
        solve_ms[t] = 1e3 * (time.perf_counter() - start)
        iterations[t] = sol.iterations
        kkt_residuals[t] = sol.kkt_residual
        statuses.append(status)
        if not completed:
            inputs[t] = outputs[t] = np.nan
            break
        inputs[t] = u_t
        outputs[t] = sys.C @ x + sys.D @ u_t
        x = sys.A @ x + sys.B @ u_t
        start = time.perf_counter()

    cut = len(statuses)
    return ClosedLoopLog(
        inputs[:cut],
        outputs[:cut],
        ("excite",) * T + ("control",) * (cut - T),
        objectives[:cut],
        iterations[:cut],
        kkt_residuals[:cut],
        tuple(statuses),
        solve_ms[:cut],
        cfg.r,
        completed,
        None if alt_inputs is None else alt_inputs[:cut],
        None if alt_objectives is None else alt_objectives[:cut],
    )
