"""Receding-horizon control: model-based MPC, its data-driven counterpart,
and the closed-loop harness.

Both controllers minimize the same finite-horizon tracking cost

    sum_k (ybar_k - r_k)' Q (ybar_k - r_k) + ubar_k' R ubar_k

over a window that pins the last N measured input/output samples and leaves
the next L free, subject to y = O z + G u over the window with a free lead
block z. Both solve the one QP `_Window` builds from the response operators
(O, G); they differ only in where (O, G) comes from. MPC takes the model's
observability and Markov-parameter matrices, and DeePC reads them off the
depth-(N+L) block-Hankel matrix H of a recorded trajectory: unregularized
DeePC is this condensed predictor (Fiedler and Lucia, ECC 2021). `_Window`
makes the one rank decision for both: it cuts O to U_r diag(s_r), so z
holds the coordinates of the window's free responses, and the directions
no window sees (the unobservable subspace for MPC, as Theorem 1 has it)
drop out of the QP. With online data (the prefix of the very trajectory
being controlled) the two feasible sets coincide, which the closed-loop
harness can verify side by side.

From one step to the next only the measured past moves, and it enters the
QP only through the equality right-hand side beq. So each controller's QP
is built once per closed loop, into the QP workspace that solves it (see
`willems.qp`), and every step hands that workspace only its beq. The
workspace keeps its factorizations and the last certified face, which the
next step tries before the cold polish and the active-set walk. `mpc_step`
and `deepc_step` build the same QP for a single step and solve it cold.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .hankel import is_collectively_pe
from .lti import LtiSystem, Trajectory, TrajectorySet, simulate, write_csv
from .numerics import (
    as_bound, as_symmetric, as_vector, empty_box, least_squares, pseudo_inverse_parts,
)
from .parameterize import ResponseOperators, build_trajectory_matrix, response_operators
from .qp import QpSolution, QuadraticProgram, Workspace
from .subspace import HypothesisViolated, draw_until_pe, min_poly_degree

__all__ = [
    "PredictiveConfig",
    "ClosedLoopLog",
    "InfeasibleStep",
    "mpc_step",
    "deepc_step",
    "run_closed_loop",
]

log = logging.getLogger(__name__)


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
    """`w` symmetrized by `as_symmetric`, which makes the QP's
    P = 2 kron(I, w) exactly symmetric. The semidefiniteness test, like
    the symmetry test, is relative to w's largest entry, so a weight
    passes or fails it at every scale alike."""
    w = as_symmetric(w, name)
    if w.size and np.linalg.eigvalsh(w).min() < -1e-10 * np.abs(w).max(initial=0.0):
        raise ValueError(f"'{name}' is not positive semidefinite")
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
        as_vector(self.r, "r")  # finite; `reference` checks the shape
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0, "x0"))
        if self.excitation_low >= self.excitation_high:
            raise ValueError("excitation_low must be below excitation_high")
        self.reference()
        for (lo, hi), box in zip((self.input_bounds(), self.output_bounds()), "uy"):
            if empty_box(lo, hi):
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
                raise ValueError(f"'r' has shape {r.shape}, expected ({self.p},)")
            return np.tile(r, self.L)
        if r.shape != (self.L, self.p):
            raise ValueError(
                f"'r' has shape {r.shape}, expected ({self.L}, {self.p})"
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


def _check_weights(cfg: PredictiveConfig, m: int, p: int):
    if (m, p) != (cfg.m, cfg.p):
        raise ValueError("weights 'Q' and 'R' do not match the system")


def _check_history(history: Trajectory, cfg: PredictiveConfig, t: int):
    history.channel("outputs")
    if history.length < t:
        raise ValueError(f"history has {history.length} samples, need {t}")
    if t < cfg.N:
        raise ValueError(f"t={t} is below the past-window length N={cfg.N}")


class _Window:
    """The tracking QP of either controller over the stacked decision vector
    (z, ubar, ybar), built from its depth-(N+L) response operators
    `ops` = (O, G): y = O z + G u over the window.

    Both controllers' O is cut here, once, by the SVD cut of
    `pseudo_inverse_parts`: to U_r diag(s_r), of full column rank and with
    O's range. So z holds the `lead` = r coordinates of the window's free
    responses, and no direction of z is free of both cost and rows: the
    lead block adds no null direction to a face's KKT matrix. One DEBUG
    line gives r and the sigma_r/sigma_1 of the part kept, so a rank
    decision near the cutoff shows.

    The lead block z is free and carries no cost; the tail carries the
    tracking cost and the input/output boxes. The rows [O, G_future,
    -I_future] pin the N past outputs and tie the L future ones to z and the
    inputs. Only beq = [y_past; 0] - G_past u_past moves with the measured
    past, so the program is built once, into the QP workspace that solves
    it, and each step hands the workspace only its beq.
    """

    def __init__(self, cfg: PredictiveConfig, ops: ResponseOperators):
        N, L, m, p = cfg.N, cfg.L, cfg.m, cfg.p
        Ur, sr, _ = pseudo_inverse_parts(ops.observability)
        lead = sr.size
        ratio = sr[-1] / sr[0] if lead else 0.0
        log.debug("window: free response rank %d, sigma_r/sigma_1 = %.3e", lead, ratio)
        nv = lead + L * m + L * p
        uof, yof = slice(lead, lead + L * m), slice(lead + L * m, nv)
        Qbar = np.kron(np.eye(L), cfg.Q)
        Rbar = np.kron(np.eye(L), cfg.R)
        rvec = cfg.reference()

        P = np.zeros((nv, nv))
        P[uof, uof] = 2.0 * Rbar
        P[yof, yof] = 2.0 * Qbar
        q = np.zeros(nv)
        q[yof] = -2.0 * Qbar @ rvec
        lb, ub = np.full(nv, -np.inf), np.full(nv, np.inf)
        u_lo, u_hi = cfg.input_bounds()
        y_lo, y_hi = cfg.output_bounds()
        lb[uof], ub[uof] = np.tile(u_lo, L), np.tile(u_hi, L)
        lb[yof], ub[yof] = np.tile(y_lo, L), np.tile(y_hi, L)
        G = ops.convolution
        rows = (N + L) * p
        Aeq = np.hstack([Ur * sr, G[:, N * m :], -np.eye(rows)[:, N * p :]])

        self.workspace = Workspace(QuadraticProgram(P, q, Aeq, np.zeros(rows), lb, ub))
        self.G_past, self.tail = G[:, : N * m], np.zeros(L * p)
        self.N, self.lead, self.m = N, lead, m
        self.const = float(rvec @ Qbar @ rvec)

    def step(self, inputs, outputs, t: int):
        """Solve at time t for the N samples of the measured `inputs` and
        `outputs` before t; returns the first input, the tracking cost (the
        QP objective plus its constant term) and the QP solution. Raises
        InfeasibleStep unless the solve ended optimal."""
        u_past, y_past = inputs[t - self.N : t], outputs[t - self.N : t]
        beq = np.concatenate([y_past.reshape(-1), self.tail])
        beq -= self.G_past @ u_past.reshape(-1)
        sol = self.workspace.solve(beq)
        if sol.status != "optimal":
            raise InfeasibleStep(t, sol)
        u0 = sol.x[self.lead : self.lead + self.m].copy()
        return u0, sol.objective + self.const, sol


def _data_operators(H: np.ndarray, cfg: PredictiveConfig) -> ResponseOperators:
    """The response operators of the depth-(N+L) data matrix H = [Hu; Hy]:
    G = Hy Hu^+ and O = Hy (I - Hu^+ Hu), the free responses of the data's
    own window-start states, uncut: `_Window` cuts O as it cuts the
    model's. With Hu of full row rank, y = O z + G u for some z exactly
    when H g = [u; y] for some g, so the window is the data's own. Hu^+
    comes from the SVD cut of `pseudo_inverse_parts`."""
    Hu, Hy = np.split(H, [(cfg.N + cfg.L) * cfg.m])
    U, s, V = pseudo_inverse_parts(Hu)
    HyV = Hy @ V
    return ResponseOperators(Hy - HyV @ V.T, (HyV / s) @ U.T)


def mpc_step(
    sys: LtiSystem, history: Trajectory, cfg: PredictiveConfig, t: int
) -> tuple[np.ndarray, float]:
    """One model-based receding-horizon step at time t.

    The window's response operators are the model's: the observability
    matrix O and the block-Toeplitz matrix G of the Markov parameters
    D, CB, CAB, ... `_Window` cuts O to its range, so the lead block holds
    the observable part of the window's initial state x_{t-N}, and the
    unobservable subspace leaves the QP. Returns the input to apply and
    the optimal tracking cost.
    """
    _check_weights(cfg, sys.m, sys.p)
    _check_history(history, cfg, t)
    window = _Window(cfg, response_operators(sys, cfg.N + cfg.L))
    u0, objective, _ = window.step(history.inputs, history.outputs, t)
    return u0, objective


def deepc_step(
    data: Trajectory, history: Trajectory, cfg: PredictiveConfig, t: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """One data-driven receding-horizon step at time t.

    `data` is the recorded trajectory whose depth-(N+L) block-Hankel matrix
    H replaces the model; its inputs must be persistently exciting of order
    N + L, the window depth, or HypothesisViolated is raised. The window is
    `mpc_step`'s, with the response operators read off H (see
    `_data_operators`). Returns the input to apply, the optimal tracking
    cost and the column-combination certificate g, the minimum-norm g with
    H g equal to the solved window.
    """
    _check_history(history, cfg, t)
    _check_weights(cfg, data.m, data.channel("outputs").shape[1])
    if t < data.length:
        raise ValueError(f"t={t} precedes the end of the length-{data.length} data")
    depth = cfg.N + cfg.L
    if not is_collectively_pe(TrajectorySet((data,)), depth):
        raise HypothesisViolated(
            f"data inputs are not persistently exciting of order {depth}", depth
        )
    H = build_trajectory_matrix(TrajectorySet((data,)), depth)
    window = _Window(cfg, _data_operators(H, cfg))
    u0, objective, sol = window.step(history.inputs, history.outputs, t)
    u_bar, y_bar = np.split(sol.x[window.lead :], [cfg.L * cfg.m])
    u_past, y_past = history.inputs[t - cfg.N : t], history.outputs[t - cfg.N : t]
    target = np.concatenate([u_past.reshape(-1), u_bar, y_past.reshape(-1), y_bar])
    g, _ = least_squares(H, target)
    return u0, objective, g


@dataclass(frozen=True)
class ClosedLoopLog:
    """Per-step record of a closed-loop run over t = 0..K.

    The excitation phase fills `objectives` with NaN and `statuses` with
    "excite". `iterations` and `kkt_residuals` are the face solves of the
    cold polish and the active-set walk (`QpSolution.iterations`) and the
    certified KKT residual of the applied controller's QP (0 and NaN while
    exciting; `iterations` is also 0 for a step whose QP the warm polish
    certified, the polish that starts from the face the previous certified
    solve ended on, however many faces it visited). When the run compared
    both controllers, `alt_inputs` and `alt_objectives` hold the
    non-applied controller's step results.
    `completed` is False when a step ended without an optimal solution and
    the run aborted; that step's status is the last entry of `statuses`,
    and its iterations and residual are those of the failed solve, not the
    applied controller's: when both controllers ran and the compared one
    failed, they are the compared controller's.
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
        # Python floats and ints, read once per array, not numpy scalars
        # unpacked per cell
        inputs, outputs = self.inputs.tolist(), self.outputs.tolist()
        objectives, iterations = self.objectives.tolist(), self.iterations.tolist()
        residuals, solve_ms = self.kkt_residuals.tolist(), self.solve_ms.tolist()
        rows = (
            [t, self.phases[t], *inputs[t], *outputs[t], objectives[t],
             iterations[t], residuals[t], self.statuses[t], solve_ms[t]]
            for t in range(self.length)
        )
        write_csv(path, header, rows)

    def to_plot_csv(self, path):
        """Outputs next to the constant reference lines, for plotting."""
        p = self.outputs.shape[1]
        header = ["t"] + [f"y_{i}" for i in range(p)] + [f"r_{i}" for i in range(p)]
        ref = self.reference.reshape(-1)[:p].tolist()
        rows = ([t, *y, *ref] for t, y in enumerate(self.outputs.tolist()))
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
    _check_weights(cfg, sys.m, sys.p)
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
    K, T = cfg.K, cfg.T
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
    # the response operators it is built from) is built once for the loop
    start = time.perf_counter()
    depth = cfg.N + cfg.L
    if controller == "mpc":
        applied = _Window(cfg, response_operators(sys, depth))
    else:
        H = build_trajectory_matrix(TrajectorySet((excite,)), depth)
        applied = _Window(cfg, _data_operators(H, cfg))
    compared = None
    if controller == "both":
        compared = _Window(cfg, response_operators(sys, depth))

    for t in range(T, K + 1):
        try:
            u_t, obj, sol = applied.step(inputs, outputs, t)
            if compared is not None:
                alt_inputs[t], alt_objectives[t], _ = compared.step(inputs, outputs, t)
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
