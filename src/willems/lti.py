"""Discrete-time LTI plants, trajectory containers, simulation, and CSV I/O.

The plant is ``x[t+1] = A x[t] + B u[t]``, ``y[t] = C x[t] + D u[t]``.
Signals are stored time-major: a length-T sequence of q-vectors is a
``(T, q)`` array, so ``traj.inputs[t]`` is the input applied at step t.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .numerics import as_matrix, as_square, as_vector

__all__ = [
    "LtiSystem",
    "Trajectory",
    "TrajectorySet",
    "simulate",
    "random_input",
    "random_system",
    "window",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@dataclass(frozen=True)
class LtiSystem:
    """State-space matrices (A, B, C, D) with consistent dimensions."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_square(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        D = as_matrix(self.D, "D")
        n = A.shape[0]
        if B.shape[0] != n:
            raise ValueError(f"'B' has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"'C' has {C.shape[1]} cols, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"'D' has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed input / state / output sequences of a common length.

    `inputs` is mandatory with shape ``(T, m)``; `states` ``(T, n)`` and
    `outputs` ``(T, p)`` are optional but, when present, must share T.
    """

    inputs: np.ndarray
    states: np.ndarray | None = None
    outputs: np.ndarray | None = None

    def __post_init__(self):
        u = as_matrix(self.inputs, "inputs")
        if u.shape[0] == 0:
            raise ValueError("inputs must be a nonempty (T, m) array")
        object.__setattr__(self, "inputs", u)
        for name in ("states", "outputs"):
            seq = getattr(self, name)
            if seq is None:
                continue
            arr = as_matrix(seq, name)
            if arr.shape[0] != u.shape[0]:
                raise ValueError(f"{name} length {arr.shape[0]} != T={u.shape[0]}")
            object.__setattr__(self, name, arr)

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    def channel(self, name: str) -> np.ndarray:
        """Return the named signal ('inputs', 'states' or 'outputs');
        ValueError when the trajectory does not carry it."""
        if name not in ("inputs", "states", "outputs"):
            raise ValueError(f"unknown channel {name!r}")
        seq = getattr(self, name)
        if seq is None:
            raise ValueError(f"trajectory carries no {name}")
        return seq


@dataclass(frozen=True)
class TrajectorySet:
    """Ordered collection of trajectories sharing channel dimensions."""

    trajectories: tuple[Trajectory, ...] = field(default_factory=tuple)

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("trajectory set must be nonempty")
        m = trajs[0].m
        if any(t.m != m for t in trajs):
            raise ValueError("trajectories disagree on input dimension")
        for name in ("states", "outputs"):
            dims = {
                getattr(t, name).shape[1] for t in trajs if getattr(t, name) is not None
            }
            if len(dims) > 1:
                raise ValueError(f"trajectories disagree on {name} dimension")
        object.__setattr__(self, "trajectories", trajs)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def __getitem__(self, i: int) -> Trajectory:
        return self.trajectories[i]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(t.length for t in self.trajectories)


def simulate(sys: LtiSystem, x0, inputs) -> Trajectory:
    """Run the plant from `x0` under `inputs`, returning the full trajectory.

    The result carries inputs, states and outputs, with
    ``x[t+1] = A x[t] + B u[t]`` and ``y[t] = C x[t] + D u[t]``: the
    trajectory of `simulate_set` of one run, bit for bit.
    """
    x0 = as_vector(x0, "x0")
    if x0.size != sys.n:
        raise ValueError(f"x0 has dim {x0.size}, expected {sys.n}")
    u = as_matrix(inputs, "inputs")
    if u.shape[1] != sys.m:
        raise ValueError(f"inputs must be (T, {sys.m}), got {u.shape}")
    return simulate_set(sys, x0[None], u[None])[0]


def simulate_set(sys: LtiSystem, X0, U) -> TrajectorySet:
    """Run the plant once per row of `X0`, ``(tau, n)``, under the inputs
    ``U[i]`` of the same run, `U` of shape ``(tau, T, m)``: tau runs of
    equal length T, each trajectory the one `simulate` returns. Outside
    ``__all__``, like `numerics.svd_rank`.

    The states are held time-major, ``xs`` of shape ``(T, tau, n, 1)``,
    so the state of every run at step t is one contiguous block. Only the
    recursion runs step by step, for all runs at once and with no
    temporaries: ``np.matmul(A, xs[t], out=xs[t + 1])``, then ``Bu[t]``
    added in place, ``Bu`` the stacked products ``B u`` of all runs and
    all t. The state after the last input is never formed. ``C x`` and
    ``D u`` are stacked products too, on the runs' (T, n) views of ``xs``
    and on `U`.

    Why the bits are those of one run stepped by hand. numpy runs a
    stacked matrix-vector product as one BLAS gemv (a dot when the matrix
    has one row) per item, and every item here, a state, an input or a
    state's slot in ``xs``, is a contiguous vector, so each call has the
    dimensions and strides of the single product; the sum of the two
    products rounds once, in place or not. ``U @ B.T`` would not: it is
    one gemm, whose blocking sums in another order, and it moves the last
    bit of most outputs. ``xs[0]`` is a copy of `X0`, so the layout of
    `X0` does not matter.

    The inputs are checked once, before the recursion, and the computed
    states and outputs once each after it, each whole array for finite
    entries, with the messages `Trajectory` gives ("'states' contains
    non-finite entries"); the trajectories and their set are then built
    from them with no second check.
    """
    X0 = as_matrix(X0, "X0")
    U = np.asarray(U, dtype=float)
    if U.ndim != 3 or U.shape[0] != X0.shape[0] or U.shape[2] != sys.m:
        raise ValueError(
            f"inputs must be ({X0.shape[0]}, T, {sys.m}), got {U.shape}"
        )
    if X0.shape[1] != sys.n:
        raise ValueError(f"X0 rows have dim {X0.shape[1]}, expected {sys.n}")
    if U.shape[1] == 0:
        raise ValueError("inputs must be a nonempty (T, m) array")
    if not np.isfinite(U).all():
        raise ValueError("'inputs' contains non-finite entries")
    A, (tau, T) = sys.A, U.shape[:2]
    # B u of every run and step, read time-major: Bu[t] holds step t
    Bu = (sys.B @ U[..., None]).transpose(1, 0, 2, 3)
    xs = np.empty((T, tau, sys.n, 1))
    xs[0, :, :, 0] = X0
    for x_t, x_next, bu in zip(xs, xs[1:], Bu):
        np.matmul(A, x_t, x_next)
        np.add(x_next, bu, x_next)
    x = xs[..., 0].transpose(1, 0, 2)
    y = (sys.C @ x[..., None])[..., 0] + (sys.D @ U[..., None])[..., 0]
    for name, arr in (("states", xs), ("outputs", y)):
        if not np.isfinite(arr).all():
            raise ValueError(f"'{name}' contains non-finite entries")
    return _checked_set(U, x, y)


def _checked_set(U, x, y) -> TrajectorySet:
    """The TrajectorySet of the runs whose inputs, states and outputs are
    ``U[i]``, ``x[i]`` and ``y[i]``: float arrays, already checked finite,
    of one length T >= 1 and one width per channel, so the set is built
    without the checks of `Trajectory` and `TrajectorySet`."""
    runs = []
    for u, states, outputs in zip(U, x, y):
        run = object.__new__(Trajectory)
        run.__dict__.update(inputs=u, states=states, outputs=outputs)
        runs.append(run)
    data = object.__new__(TrajectorySet)
    data.__dict__["trajectories"] = tuple(runs)
    return data


def random_input(
    m: int, T: int, low: float, high: float, seed: int
) -> np.ndarray:
    """Seeded i.i.d. uniform input sequence of shape ``(T, m)`` on [low, high]."""
    if low >= high:
        raise ValueError(f"low={low} must be < high={high}")
    if T < 1 or m < 1:
        raise ValueError(f"T and m must be positive, got T={T}, m={m}")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(T, m))


def random_system(rng, n: int, m: int, p: int, spectral_radius=None) -> LtiSystem:
    """Dense Gaussian system with A rescaled to a moderate spectral radius.

    The radius is drawn from [0.3, 1.05] when not given, so short
    simulations stay well scaled without being uniformly contractive.
    """
    A = rng.normal(size=(n, n))
    radius = (
        float(rng.uniform(0.3, 1.05))
        if spectral_radius is None
        else float(spectral_radius)
    )
    current = float(np.abs(np.linalg.eigvals(A)).max()) if n else 0.0
    if current > 0:
        A *= radius / current
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    D = rng.normal(size=(p, m))
    return LtiSystem(A, B, C, D)


def window(traj: Trajectory, start: int, length: int) -> Trajectory:
    """Contiguous sub-trajectory ``[start, start + length)``; keeps states/outputs."""
    if start < 0 or length < 1 or start + length > traj.length:
        raise ValueError(
            f"window [{start}, {start + length}) out of range for T={traj.length}"
        )
    sl = slice(start, start + length)
    return Trajectory(
        inputs=traj.inputs[sl],
        states=None if traj.states is None else traj.states[sl],
        outputs=None if traj.outputs is None else traj.outputs[sl],
    )


def write_csv(path: str, header, rows) -> None:
    """Write `rows` under `header` atomically (temporary file, then rename).

    Floats, ``numpy.float64`` included, are written as 17-significant-digit
    decimal text, which reads back bit for bit; every other cell goes
    through ``str``.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
        )
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory as CSV with 17-significant-digit decimal text.

    Header: ``t,u_0..u_{m-1}[,x_0..x_{n-1}][,y_0..y_{p-1}]``.
    """
    blocks = {"u": traj.inputs, "x": traj.states, "y": traj.outputs}
    blocks = {c: b for c, b in blocks.items() if b is not None}
    header = ["t"] + [f"{c}_{i}" for c, b in blocks.items() for i in range(b.shape[1])]
    data = np.hstack(list(blocks.values()))
    write_csv(path, header, ([t, *row] for t, row in enumerate(data)))


def trajectory_from_csv(path: str) -> Trajectory:
    """Read a trajectory written by :func:`trajectory_to_csv`. The header
    must be the one it writes, so that no column is read as another
    channel."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.strip() for line in fh if line.strip()]
    names = header.split(",")
    m, n, p = (sum(c.startswith(f"{k}_") for c in names) for k in "uxy")
    expected = ["t"] + [f"{k}_{i}" for k, w in zip("uxy", (m, n, p)) for i in range(w)]
    if m == 0 or names != expected:
        raise ValueError(f"unexpected trajectory CSV header: {header!r}")
    values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    if values.ndim != 2 or values.shape[1] != len(names) - 1:
        raise ValueError(f"trajectory CSV rows do not match the header {names}")
    u = values[:, :m]
    x = values[:, m : m + n] if n else None
    y = values[:, m + n :] if p else None
    return Trajectory(inputs=u, states=x, outputs=y)
