"""Homogeneous multi-agent systems: construction, data-driven Markov
parameters, recovery of the agent dynamics and the sensing graph, and the
minimum-trajectory-count study.

N agents share identical (Abar, Bbar) dynamics; each directed edge of the
sensing graph measures the state of its head relative to its tail, so the
network is A = I_N (x) Abar, B = I_N (x) Bbar, C = E (x) I with E the
signed edge-node matrix. The Markov parameters then factor as
M_k = E (x) (Abar^{k-1} Bbar), which identifies everything once a single
nonzero entry of E is known: Bbar is the anchored block of M_1, Abar solves
a shift relation on the anchored blocks, and the remaining E entries follow
by matching blocks of M_1 against +-Bbar.

The Markov parameters themselves come from data alone, by solving for
column combinations of a depth-(n+1) block-Hankel matrix that realize
shifted impulse-response windows.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .hankel import is_collectively_pe
from .lti import LtiSystem, Trajectory, TrajectorySet, simulate, write_csv
from .numerics import as_matrix, as_square, least_squares, numerical_rank, power_blocks
from .parameterize import build_trajectory_matrix
from .subspace import HypothesisViolated, draw_until_pe

__all__ = [
    "MultiAgentSpec",
    "MarkovParams",
    "RecoveredSystem",
    "SweepRow",
    "star_edges",
    "build_system",
    "collect_trajectories",
    "markov_from_data",
    "recover_system",
    "analytic_tau_bound",
    "min_trajectory_sweep",
    "sweep_to_csv",
]

_ZERO_BLOCK_RTOL = 1e-6
# relative residual past which an impulse-window solve is inconsistent, and
# relative distance within which a block of M_1 matches +-Bbar
_FIT_RTOL = 1e-6
_STATE_NORM_WARN = 1e6
# trajectory counts the sweep tries past the analytic bound before giving up
_SWEEP_EXTRA = 20


def star_edges(N: int) -> tuple:
    """Edges of the star graph in which node 0 is the head of every edge:
    the edge-node matrix is [1, -I]."""
    return tuple((0, k) for k in range(1, N))


@dataclass(frozen=True)
class MultiAgentSpec:
    """Agent dynamics plus sensing graph. Edges are (head, tail) pairs of
    0-based node indices; (Abar, Bbar) must be controllable."""

    Abar: np.ndarray
    Bbar: np.ndarray
    N: int
    edges: tuple

    def __post_init__(self):
        Abar = as_square(self.Abar, "Abar")
        Bbar = as_matrix(self.Bbar, "Bbar")
        nbar = Abar.shape[0]
        if Bbar.shape[0] != nbar:
            raise ValueError(f"Bbar has {Bbar.shape[0]} rows, expected {nbar}")
        if self.N < 1:
            raise ValueError(f"agent count must be positive, got {self.N}")
        for edge in self.edges:
            if any(isinstance(v, (bool, np.bool_, str)) or v % 1 for v in edge):
                raise ValueError(f"edge {tuple(edge)} has a non-integer endpoint")
        edges = tuple((int(h), int(t)) for h, t in self.edges)
        for h, t in edges:
            if h == t:
                raise ValueError(f"edge ({h}, {t}) is a self-loop")
            if not (0 <= h < self.N and 0 <= t < self.N):
                raise ValueError(f"edge ({h}, {t}) names a node outside 0..{self.N - 1}")
        if numerical_rank(np.hstack(power_blocks(Abar, Bbar, nbar))) != nbar:
            raise ValueError("(Abar, Bbar) is not controllable")
        object.__setattr__(self, "Abar", Abar)
        object.__setattr__(self, "Bbar", Bbar)
        object.__setattr__(self, "edges", edges)

    @property
    def nbar(self) -> int:
        return self.Abar.shape[0]

    @property
    def mbar(self) -> int:
        return self.Bbar.shape[1]

    @property
    def M(self) -> int:
        return len(self.edges)

    def incidence(self) -> np.ndarray:
        """Signed edge-node matrix E, one row per edge: +1 at the head
        column, -1 at the tail column."""
        E = np.zeros((self.M, self.N))
        for row, (head, tail) in enumerate(self.edges):
            E[row, head] = 1.0
            E[row, tail] = -1.0
        return E


def build_system(spec: MultiAgentSpec) -> LtiSystem:
    """Assemble the network system via Kronecker products."""
    A = np.kron(np.eye(spec.N), spec.Abar)
    B = np.kron(np.eye(spec.N), spec.Bbar)
    C = np.kron(spec.incidence(), np.eye(spec.nbar))
    D = np.zeros((spec.M * spec.nbar, spec.N * spec.mbar))
    return LtiSystem(A, B, C, D)


def collect_trajectories(
    sys: LtiSystem,
    tau: int,
    T: int,
    low: float,
    high: float,
    seed: int,
) -> TrajectorySet:
    """Simulate tau zero-initial-state runs under seeded uniform inputs.

    Warns when any state norm exceeds 1e6; at that magnitude the later
    least-squares stages lose the digits the recovery tolerances assume.
    """
    rng = np.random.default_rng(seed)
    trajs = []
    for _ in range(tau):
        u = rng.uniform(low, high, size=(T, sys.m))
        traj = simulate(sys, np.zeros(sys.n), u)
        worst = float(np.linalg.norm(traj.states, axis=1).max())
        if worst > _STATE_NORM_WARN:
            warnings.warn(
                f"state norm reached {worst:.3e}; results may be inaccurate",
                stacklevel=2,
            )
        trajs.append(traj)
    return TrajectorySet(tuple(trajs))


@dataclass(frozen=True)
class MarkovParams:
    """Impulse-response matrices M_1..M_kmax, each p x m. The zeroth
    parameter is zero by convention (strictly causal plants only)."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("at least one Markov parameter required")
        values = tuple(as_matrix(v, f"M_{k}") for k, v in enumerate(self.values, 1))
        for k, v in enumerate(values, 1):
            if v.shape != values[0].shape:
                raise ValueError(
                    f"parameter {k} has shape {v.shape}, expected {values[0].shape}"
                )
        object.__setattr__(self, "values", values)

    @property
    def kmax(self) -> int:
        return len(self.values)

    @property
    def p(self) -> int:
        return self.values[0].shape[0]

    @property
    def m(self) -> int:
        return self.values[0].shape[1]

    def param(self, k: int) -> np.ndarray:
        """M_k, with M_0 = 0."""
        if k == 0:
            return np.zeros(self.values[0].shape)
        if not 1 <= k <= self.kmax:
            raise ValueError(f"k={k} outside 0..{self.kmax}")
        return self.values[k - 1]


def markov_from_data(data: TrajectorySet, n: int, kmax: int) -> MarkovParams:
    """Markov parameters M_1..M_kmax from input-output data alone.

    For each k a column combination G_k of the depth-(n+1) stacked
    input/output block-Hankel matrix is sought that realizes the window
    "impulse at step n-k, outputs 0,...,0, M_0,...,M_k". The first
    m(n+1)+pn rows of that demand involve only already-known quantities, so
    G_k is solved from them by least squares; the last p rows then read off
    M_k. The least-squares residual doubles as a consistency check: on data
    that no LTI plant of the assumed order generated, it blows past
    `_FIT_RTOL` and the solve is rejected.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    if kmax > n:
        raise ValueError(f"kmax={kmax} exceeds the state dimension {n}")
    for i, traj in enumerate(data):
        if traj.outputs is None:
            raise ValueError(f"trajectory {i} carries no outputs")
        if traj.length < n + 1:
            raise ValueError(
                f"trajectory {i} has {traj.length} samples, need {n + 1}"
            )
    m = data[0].m
    p = data[0].outputs.shape[1]
    order = n + kmax
    if not is_collectively_pe(data, order):
        raise HypothesisViolated(
            f"data inputs are not collectively persistently exciting of "
            f"order {order}",
            order,
        )

    H = build_trajectory_matrix(data, n + 1)
    # Depth-(n+1) windows of an order-n linear plant span at most
    # m(n+1) + n dimensions (free inputs plus the initial state), so a
    # higher rank means no such plant generated the data. This catches the
    # wide-matrix regime where the known-rows residual below has no power.
    cap = m * (n + 1) + n
    rank = numerical_rank(H)
    if rank > cap:
        raise ValueError(
            f"depth-{n + 1} data matrix has rank {rank}, but an order-{n} "
            f"linear model allows at most {cap}; data does not fit the "
            f"assumed model class"
        )
    known_rows = H[: m * (n + 1) + p * n]
    readout_rows = H[m * (n + 1) + p * n :]
    params: list[np.ndarray] = []
    for k in range(1, kmax + 1):
        rhs = np.zeros((m * (n + 1) + p * n, m))
        rhs[m * (n - k) : m * (n - k + 1)] = np.eye(m)
        # Output blocks y_{n-k}..y_{n-1} carry M_0..M_{k-1}; earlier blocks
        # stay zero (the window starts at rest).
        for i in range(k):
            r0 = m * (n + 1) + p * (n - k + i)
            rhs[r0 : r0 + p] = np.zeros((p, m)) if i == 0 else params[i - 1]
        G_k, res = least_squares(known_rows, rhs)
        scale = max(1.0, float(np.linalg.norm(rhs)))
        if res > _FIT_RTOL * scale:
            raise ValueError(
                f"impulse-window solve for M_{k} is inconsistent "
                f"(residual {res:.3e}); data does not fit the assumed "
                f"model class"
            )
        params.append(readout_rows @ G_k)
    return MarkovParams(tuple(params))


@dataclass(frozen=True)
class RecoveredSystem:
    """Recovered agent dynamics and sensing graph, plus the anchor used."""

    Abar: np.ndarray
    Bbar: np.ndarray
    E: np.ndarray
    anchor: tuple


def recover_system(
    params: MarkovParams,
    anchor: tuple,
    nbar: int,
    mbar: int,
) -> RecoveredSystem:
    """Recover (Abar, Bbar, E) from Markov parameters and one known E entry.

    `anchor` is (i, j, sign): block row i, block column j of the parameters
    is known to carry sign (+1 or -1) in E. Needs parameters through index
    nbar+1. The shift solve for Abar requires the stacked anchored blocks
    to have full row rank nbar; block classification for E uses a relative
    zero threshold of 1e-6 and match tolerance `_FIT_RTOL`.
    """
    i, j, sign = anchor
    if sign not in (1, -1):
        raise ValueError(f"anchor sign must be +-1, got {sign}")
    if params.p % nbar or params.m % mbar:
        raise ValueError(
            f"parameter shape {params.p}x{params.m} does not tile into "
            f"{nbar}x{mbar} blocks"
        )
    brows, bcols = params.p // nbar, params.m // mbar
    if not (0 <= i < brows and 0 <= j < bcols):
        raise ValueError(f"anchor block ({i}, {j}) outside {brows}x{bcols} grid")
    if params.kmax < nbar + 1:
        raise ValueError(
            f"need Markov parameters through index {nbar + 1}, have {params.kmax}"
        )

    def block(mat, bi, bj):
        return mat[bi * nbar : (bi + 1) * nbar, bj * mbar : (bj + 1) * mbar]

    anchored = [sign * block(params.param(k), i, j) for k in range(1, nbar + 2)]
    Bbar = anchored[0]
    X = np.hstack(anchored[:nbar])
    Y = np.hstack(anchored[1 : nbar + 1])
    rank = numerical_rank(X)
    if rank != nbar:
        raise ValueError(
            f"anchored block stack has rank {rank} < {nbar}; the shift "
            f"relation does not determine the agent dynamics uniquely"
        )
    AbarT, _ = least_squares(X.T, Y.T)
    Abar = AbarT.T

    M1 = params.param(1)
    scale = float(np.linalg.norm(Bbar))
    E = np.zeros((brows, bcols))
    for bi in range(brows):
        for bj in range(bcols):
            cand = block(M1, bi, bj)
            if np.linalg.norm(cand) <= _ZERO_BLOCK_RTOL * scale:
                continue
            if np.linalg.norm(cand - Bbar) <= _FIT_RTOL * max(1.0, scale):
                E[bi, bj] = 1.0
            elif np.linalg.norm(cand + Bbar) <= _FIT_RTOL * max(1.0, scale):
                E[bi, bj] = -1.0
            else:
                raise ValueError(
                    f"block ({bi}, {bj}) matches neither +-Bbar nor zero"
                )
    return RecoveredSystem(Abar, Bbar, E, (i, j, sign))


# excitation-order rules the trajectory-count sweep knows
ORDER_RULES = ("corollary2", "full_n")


def _rule_order(rule: str, N: int, nbar: int) -> int:
    if rule == "corollary2":
        return (N + 1) * nbar + 1
    if rule == "full_n":
        return 2 * N * nbar + 1
    raise ValueError(f"unknown order rule {rule!r}")


def analytic_tau_bound(
    nbar: int, mbar: int, N: int, T: int, rule: str
) -> tuple[int, float]:
    """Excitation order for the rule and the trajectory-count lower bound
    d*m / (T - d + 1) it forces (a depth-d mosaic with full row rank needs
    at least as many columns as rows)."""
    d = _rule_order(rule, N, nbar)
    if d > T:
        return d, math.inf
    return d, d * (N * mbar) / (T - d + 1)


@dataclass(frozen=True)
class SweepRow:
    """One point of the minimum-trajectory-count study; `tau_min` is -1
    when the rule's excitation order exceeds the trajectory length."""

    N: int
    rule: str
    tau_min: int
    analytic_bound: int
    pe_order: int
    elapsed_ms: float


def min_trajectory_sweep(
    spec: MultiAgentSpec,
    T: int,
    order_rule: str,
    seed: int,
    agents=tuple(range(3, 9)),
) -> tuple:
    """Smallest trajectory count passing the rule's excitation order, per
    agent count.

    Only the input dimensions of `spec` matter: excitation is a property of
    the inputs alone. The search starts at the analytic lower bound (proved
    necessary, so nothing below it can pass) and walks upward by 1,
    giving up (HypothesisViolated) 20 steps past the bound.
    """
    rows = []
    for N in agents:
        start = time.perf_counter()
        d, bound = analytic_tau_bound(spec.nbar, spec.mbar, N, T, order_rule)
        if not math.isfinite(bound):
            rows.append(SweepRow(N, order_rule, -1, -1, d, 0.0))
            continue
        floor = max(1, math.ceil(bound))
        rng = np.random.default_rng(seed)
        m = N * spec.mbar
        data = draw_until_pe(
            lambda k: TrajectorySet(
                tuple(
                    Trajectory(rng.uniform(-0.1, 0.1, size=(T, m)))
                    for _ in range(floor + k)
                )
            ),
            d,
            _SWEEP_EXTRA + 1,
        )
        tau_min = len(data)
        elapsed = 1e3 * (time.perf_counter() - start)
        rows.append(SweepRow(N, order_rule, tau_min, floor, d, elapsed))
    return tuple(rows)


def sweep_to_csv(rows, path):
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
