"""Command-line front end for the experiments and verification suites.

Subcommands take a JSON config by path (matrices as nested row-major
arrays) plus optional --seed and --out overrides. Exit codes: 0 success,
2 usage or config error, 3 excitation hypothesis violated, 4 solver
infeasibility, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .hankel import pe_order
from .lti import (
    LtiSystem,
    Trajectory,
    TrajectorySet,
    random_input,
    random_system,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
    write_csv,
)
from .multiagent import (
    ORDER_RULES,
    MultiAgentSpec,
    build_system,
    collect_trajectories,
    markov_from_data,
    min_trajectory_sweep,
    recover_system,
    star_edges,
    sweep_to_csv,
)
from .parameterize import parameterize
from .predictive import (
    PredictiveConfig,
    excitation_order,
    run_closed_loop,
)
from .subspace import (
    HypothesisViolated,
    Verdict,
    draw_until_pe,
    min_poly_degree,
    pe_image_check,
    state_condition_space,
)
from .numerics import power_blocks, subspace_contains

__all__ = ["main"]


class ConfigError(Exception):
    """Malformed or missing config content; names the offending field."""


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"missing config field '{field}'")
    return cfg[field]


def _integer(raw, field: str, least: int = 1) -> int:
    """`raw` as an integer of at least `least`; a boolean, a non-integral
    number or a non-number is a config error naming `field`."""
    if isinstance(raw, bool) or not (
        isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    ):
        raise ConfigError(f"config field '{field}' is not an integer")
    value = int(raw)
    if value < least:
        raise ConfigError(
            f"config field '{field}' must be at least {least}, got {value}"
        )
    return value


def _count(cfg: dict, field: str, default=None, least: int = 1) -> int:
    """Integer config field of at least `least`; required when `default`
    is None."""
    raw = _require(cfg, field) if default is None else cfg.get(field, default)
    return _integer(raw, field, least)


def _integers(cfg: dict, field: str, default: list) -> tuple:
    """List of integers of at least 1, entry i read as `field[i]`."""
    raw = cfg.get(field, default)
    if not isinstance(raw, list):
        raise ConfigError(f"config field '{field}' is not a list")
    return tuple(_integer(v, f"{field}[{i}]") for i, v in enumerate(raw))


def _number(cfg: dict, field: str, default: float) -> float:
    """Finite real config field, `default` when absent."""
    raw = cfg.get(field, default)
    real = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if not (real and math.isfinite(raw)):
        raise ConfigError(f"config field '{field}' is not a finite number")
    return float(raw)


def _range(cfg: dict, low: str, high: str, default: tuple) -> tuple:
    """The finite (low, high) pair of fields `low` and `high`, low below high."""
    lo, hi = _number(cfg, low, default[0]), _number(cfg, high, default[1])
    if lo >= hi:
        raise ConfigError(f"config field '{low}' ({lo}) must be below '{high}' ({hi})")
    return lo, hi


def _string(raw, field: str, choices=None) -> str:
    """`raw` as a string, one of `choices` when they are given."""
    if not isinstance(raw, str):
        raise ConfigError(f"config field '{field}' is not a string")
    if choices is not None and raw not in choices:
        raise ConfigError(
            f"config field '{field}' names unknown {raw!r}; known: {list(choices)}"
        )
    return raw


def _object(cfg: dict, field: str) -> dict:
    value = _require(cfg, field)
    if not isinstance(value, dict):
        raise ConfigError(f"config field '{field}' is not an object")
    return value


def _numeric(value) -> bool:
    """Whether `value` is a number, not a boolean, or nested lists of them."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(value, field: str) -> np.ndarray:
    """`value`, a number or nested lists of numbers, as a float array; a
    boolean, string or object at any depth, a ragged list or an integer
    beyond the float range is a config error naming `field`."""
    try:
        if _numeric(value):
            return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"config field '{field}' is not numeric")


def _matrix(cfg: dict, field: str) -> np.ndarray:
    value = _floats(_require(cfg, field), field)
    if value.ndim == 1:
        value = value[None, :]
    if value.ndim != 2:
        raise ConfigError(f"config field '{field}' is not a matrix")
    return value


def _array(raw, field: str, shape: tuple) -> np.ndarray:
    """`raw` as a finite float array of `shape`; a vector may come nested."""
    value = _floats(raw, field)
    if len(shape) == 1:
        value = value.reshape(-1)
    if value.shape != shape or not np.isfinite(value).all():
        raise ConfigError(
            f"config field '{field}' is not a finite array of shape {shape}"
        )
    return value


def _system(cfg: dict) -> LtiSystem:
    section = _object(cfg, "system")
    try:
        return LtiSystem(
            _matrix(section, "A"),
            _matrix(section, "B"),
            _matrix(section, "C"),
            _matrix(section, "D"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid system matrices: {exc}") from exc


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_verify_theorem1(cfg: dict, out_dir: str, seed: int) -> int:
    """Image-equality and state-condition checks, randomized or explicit."""
    rows = []
    rng = np.random.default_rng(seed)
    if "random" in cfg:
        recipe = _object(cfg, "random")
        count = _count(recipe, "count", 50)
        n_max = _count(recipe, "n_max", 6, least=2)
        m_max = _count(recipe, "m_max", 3)
        p_max = _count(recipe, "p_max", 3)
        tau_max = _count(recipe, "tau_max", 3)
        L_max = _count(recipe, "L_max", 4)
        for case in range(count):
            n = int(rng.integers(2, n_max + 1))
            m = int(rng.integers(1, m_max + 1))
            p = int(rng.integers(1, p_max + 1))
            tau = int(rng.integers(1, tau_max + 1))
            L = int(rng.integers(1, L_max + 1))
            sys_ = random_system(rng, n, m, p)
            delta = min_poly_degree(sys_.A)
            data = _draw_pe_data(sys_, rng, tau, delta + L)
            report = pe_image_check(sys_, data, L, delta + L)
            rows.append((case, n, m, p, tau, L, delta, report))
    else:
        sys_ = _system(cfg)
        tau = _count(cfg, "tau")
        L = _count(cfg, "L")
        dmin = min_poly_degree(sys_.A)
        delta = _count(cfg, "delta", dmin, least=dmin)
        # one initial state per trajectory
        x0 = cfg.get("x0_columns")
        x0 = None if x0 is None else _array(x0, "x0_columns", (sys_.n, tau))
        # a count of states to draw, or a list of n-vectors
        samples = cfg.get("xbar0_samples")
        if isinstance(samples, list):
            samples = [_array(v, "xbar0_samples", (sys_.n,)) for v in samples]
        elif samples is not None:
            samples = _count(cfg, "xbar0_samples", least=0)
        length = None if cfg.get("length") is None else _count(cfg, "length")
        data = _draw_pe_data(
            sys_, rng, tau, delta + L, x0_columns=x0, length=length
        )
        report = pe_image_check(sys_, data, L, delta + L)
        rows.append((0, sys_.n, sys_.m, sys_.p, tau, L, delta, report))
        _state_condition_report(samples, L, sys_, data, rng, out_dir)

    path = _out_path(out_dir, "theorem1_report.csv")
    write_csv(
        path,
        ["case", "n", "m", "p", "tau", "L", "delta", "verdict", "gap"],
        (
            (case, n, m, p, tau, L, delta, report.verdict.value, report.gap)
            for case, n, m, p, tau, L, delta, report in rows
        ),
    )
    # pe_image_check answers HOLDS or FAILS; a failed PE draw raised above
    holds = sum(r[-1].verdict is Verdict.HOLDS for r in rows)
    print(f"image check: {holds}/{len(rows)} hold (report: {path})")
    if holds < len(rows):
        print("image equality FAILED in at least one case")
        return 5
    return 0


def _draw_pe_data(sys_, rng, tau, order, x0_columns=None, length=None):
    """Simulated trajectories with inputs redrawn until collectively
    exciting of the given order."""
    if length is None:
        # enough columns for the excitation order with slack
        length = max(2 * order, math.ceil(order * sys_.m / tau) + order + 4)

    def draw(_):
        trajs = []
        for i in range(tau):
            x0 = rng.normal(size=sys_.n) if x0_columns is None else x0_columns[:, i]
            u = rng.uniform(-1.0, 1.0, size=(length, sys_.m))
            trajs.append(simulate(sys_, x0, u))
        return TrajectorySet(tuple(trajs))

    return draw_until_pe(draw, order)


def _state_condition_report(samples, L, sys_, data, rng, out_dir):
    if not samples:
        return
    # the subspace the membership test accepts, the same for every sample
    total = state_condition_space(sys_, data)
    if isinstance(samples, int):
        # a bare count: draw that many states, alternating between that
        # subspace and the full state space
        drawn = []
        for idx in range(int(samples)):
            if idx % 2 == 0 and total.dim > 0:
                drawn.append(total.basis @ rng.normal(size=total.dim))
            else:
                drawn.append(rng.normal(size=sys_.n))
        samples = drawn
    rows = []
    for idx, xbar0 in enumerate(samples):
        member = subspace_contains(total, xbar0)
        u = rng.uniform(-1.0, 1.0, size=(L, sys_.m))
        probe = simulate(sys_, xbar0, u)
        sol = parameterize(data, probe.inputs, probe.outputs)
        rows.append((idx, member, sol.residual_norm, sol.parameterizable))
        print(
            f"xbar0 sample {idx}: member={member} "
            f"residual={sol.residual_norm:.3e}"
        )
    write_csv(
        _out_path(out_dir, "state_condition.csv"),
        ["sample", "member", "residual_norm", "parameterizable"],
        rows,
    )


def cmd_deepc(cfg: dict, out_dir: str, seed: int) -> int:
    sys_ = _system(cfg)
    controller = _string(
        cfg.get("controller", "deepc"), "controller", ("mpc", "deepc", "both")
    )
    low, high = _range(cfg, "excitation_low", "excitation_high", (-1.0, 1.0))
    bounds = {
        b: None if cfg.get(b) is None else _floats(cfg[b], b)
        for b in ("u_min", "u_max", "y_min", "y_max")
    }
    x0 = cfg.get("x0")
    try:
        pcfg = PredictiveConfig(
            N=_count(cfg, "N"),
            L=_count(cfg, "L"),
            Q=_matrix(cfg, "Q"),
            R=_matrix(cfg, "R"),
            r=_floats(_require(cfg, "r"), "r"),
            T=_count(cfg, "T"),
            K=_count(cfg, "K"),
            excitation_low=low,
            excitation_high=high,
            x0=None if x0 is None else _array(x0, "x0", (sys_.n,)),
            **bounds,
        )
        excitation_order(sys_, pcfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    log = run_closed_loop(sys_, pcfg, controller, seed)
    log_path = _out_path(out_dir, "closed_loop.csv")
    log.to_csv(log_path)
    log.to_plot_csv(_out_path(out_dir, "closed_loop_plot.csv"))
    print(f"closed loop: {log.length} steps logged to {log_path}")
    if controller == "both" and log.completed:
        mask = ~np.isnan(log.alt_objectives)
        du = np.abs(log.inputs[mask] - log.alt_inputs[mask]).max(axis=1)
        dobj = np.abs(log.objectives[mask] - log.alt_objectives[mask])
        diff_path = _out_path(out_dir, "controller_diff.csv")
        write_csv(
            diff_path,
            ["t", "input_diff", "objective_diff"],
            zip(np.flatnonzero(mask), du, dobj),
        )
        print(
            f"controller agreement: max input diff {du.max(initial=0.0):.3e}, "
            f"max objective diff {dobj.max(initial=0.0):.3e} ({diff_path})"
        )
    if not log.completed:
        status = log.statuses[-1]
        print(f"run aborted on a step that ended {status}; partial log written")
        return 5 if status == "max_iter" else 4
    return 0


def _anchor(cfg: dict, spec: MultiAgentSpec) -> tuple:
    """The `anchor` field of `identify`: (edge, agent, sign), an edge index,
    an agent index and +-1, naming the block of E known to carry the sign."""
    raw = cfg.get("anchor", (0, 0, 1))
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(
            "config field 'anchor' is not a triple (edge, agent, sign)"
        )
    i = _integer(raw[0], "anchor", least=0)
    j = _integer(raw[1], "anchor", least=0)
    sign = _integer(raw[2], "anchor", least=-1)
    if sign not in (1, -1):
        raise ConfigError(f"config field 'anchor' has sign {sign}, not +1 or -1")
    if i >= spec.M or j >= spec.N:
        raise ConfigError(
            f"config field 'anchor' names block ({i}, {j}) outside the "
            f"{spec.M} x {spec.N} grid of edges by agents"
        )
    return i, j, sign


def cmd_identify(cfg: dict, out_dir: str, seed: int) -> int:
    Abar = _matrix(cfg, "Abar")
    Bbar = _matrix(cfg, "Bbar")
    N = _count(cfg, "N")
    if _string(cfg.get("graph", "star"), "graph", ("star", "given")) == "star":
        edges = star_edges(N)
    else:
        edges = _require(cfg, "edges")
        pairs = isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 for e in edges
        )
        if not pairs:
            raise ConfigError("config field 'edges' is not a list of pairs")
        edges = tuple(
            tuple(_integer(v, f"edges[{k}]", least=0) for v in e)
            for k, e in enumerate(edges)
        )
    try:
        spec = MultiAgentSpec(Abar, Bbar, N, edges)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    T = _count(cfg, "T")
    tau = _count(cfg, "tau", 1)
    rules = cfg.get("rules", list(ORDER_RULES))
    if not isinstance(rules, list):
        raise ConfigError("config field 'rules' is not a list")
    rules = [_string(rule, "rules", ORDER_RULES) for rule in rules]
    agents = _integers(cfg, "sweep_agents", list(range(3, 9)))
    low, high = _range(cfg, "input_low", "input_high", (-0.1, 0.1))

    if spec.M == 0:
        print("no edges: nothing is measured, identification skipped")
    else:
        # markov_from_data needs windows of n+1 samples and at most n
        # parameters; recover_system needs them through index nbar+1
        n = spec.N * spec.nbar
        if T < n + 1:
            raise ConfigError(
                f"config field 'T' must be at least the network's state "
                f"dimension plus one, {n + 1}, got {T}"
            )
        kmax = _count(cfg, "kmax", spec.nbar + 1, least=spec.nbar + 1)
        if kmax > n:
            raise ConfigError(
                f"config field 'kmax' must be at most the network's state "
                f"dimension {n}, got {kmax}"
            )
        anchor = _anchor(cfg, spec)
        sys_ = build_system(spec)
        data = collect_trajectories(sys_, tau, T, low, high, seed)
        io_only = TrajectorySet(
            tuple(Trajectory(t.inputs, outputs=t.outputs) for t in data)
        )
        params = markov_from_data(io_only, sys_.n, kmax)
        E = spec.incidence()
        powers = power_blocks(spec.Abar, np.eye(spec.nbar), kmax)
        errs = [
            float(np.linalg.norm(params.param(k) - np.kron(E, P @ spec.Bbar)))
            for k, P in enumerate(powers, 1)
        ]
        print(
            "markov parameters: worst error vs known system "
            f"{max(errs):.3e} over k=1..{kmax}"
        )
        rec = recover_system(params, anchor, spec.nbar, spec.mbar)
        ea = float(np.linalg.norm(rec.Abar - spec.Abar))
        eb = float(np.linalg.norm(rec.Bbar - spec.Bbar))
        ee = float(np.linalg.norm(rec.E - E))
        print(
            f"recovery errors: agent dynamics {ea:.3e}, input map {eb:.3e}, "
            f"graph {ee:.3e}"
        )
        write_csv(
            _out_path(out_dir, "recovery_report.csv"),
            ["quantity", "frobenius_error"],
            [("Abar", ea), ("Bbar", eb), ("E", ee)]
            + [(f"M_{k}", err) for k, err in enumerate(errs, start=1)],
        )

    rows = []
    for rule in rules:
        rows.extend(min_trajectory_sweep(spec, T, rule, seed, agents))
    sweep_path = _out_path(out_dir, "sweep.csv")
    sweep_to_csv(rows, sweep_path)
    for row in rows:
        print(
            f"N={row.N} rule={row.rule}: tau_min={row.tau_min} "
            f"(bound {row.analytic_bound}, order {row.pe_order})"
        )
    print(f"sweep written to {sweep_path}")
    return 0


def _trajectory(raw, field: str) -> Trajectory:
    """The trajectory in the CSV file a string names, or the inputs-only
    trajectory of a float array; a bad file or array names `field`."""
    try:
        return trajectory_from_csv(raw) if isinstance(raw, str) else Trajectory(raw)
    except (OSError, ValueError) as exc:
        where = f" (trajectory CSV {raw})" if isinstance(raw, str) else ""
        raise ConfigError(f"config field '{field}'{where}: {exc}") from exc


def cmd_check_pe(cfg: dict, out_dir: str, seed: int) -> int:
    field = "trajectories"
    entries = cfg.get(field)
    if entries is None:
        field = "trajectory"
        entries = [_require(cfg, field)]
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"config field '{field}' lists no trajectory")
    trajs = []
    for i, entry in enumerate(entries):
        name = field if field == "trajectory" else f"{field}[{i}]"
        if isinstance(entry, dict):
            name += ".inputs"
            entry = _floats(_require(entry, "inputs"), name)
        elif not isinstance(entry, str):
            raise ConfigError(
                f"config field '{name}' is neither a CSV path nor an object "
                "with an 'inputs' array"
            )
        trajs.append(_trajectory(entry, name))
    try:
        data = TrajectorySet(tuple(trajs))
    except ValueError as exc:
        raise ConfigError(f"config field '{field}': {exc}") from exc
    order = pe_order(data)
    print(f"collective excitation order: {order}")
    return 0


def cmd_simulate(cfg: dict, out_dir: str, seed: int) -> int:
    sys_ = _system(cfg)
    x0 = _array(cfg.get("x0", [0.0] * sys_.n), "x0", (sys_.n,))
    name = _string(cfg.get("out_name", "trajectory.csv"), "out_name")
    if "input" in cfg or "inputs" in cfg:
        # a trajectory CSV path, or an inline array
        field, read = ("input", _string) if "input" in cfg else ("inputs", _floats)
        u = _trajectory(read(cfg[field], field), field).inputs
    else:
        field = "T" if "T" in cfg else "length"
        if field not in cfg:
            raise ConfigError("need 'input', 'inputs', or a length 'T'")
        T = _count(cfg, field)
        low, high = _range(cfg, "input_low", "input_high", (-1.0, 1.0))
        u = random_input(sys_.m, T, low, high, seed)
    if u.shape[1] != sys_.m:
        raise ConfigError(
            f"config field '{field}': inputs have {u.shape[1]} channels, "
            f"the system has {sys_.m}"
        )
    traj = simulate(sys_, x0, u)
    path = _out_path(out_dir, name)
    trajectory_to_csv(traj, path)
    print(f"trajectory of length {traj.length} written to {path}")
    return 0


_COMMANDS = {
    "verify-theorem1": cmd_verify_theorem1,
    "deepc": cmd_deepc,
    "identify": cmd_identify,
    "check-pe": cmd_check_pe,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="willems",
        description="data-based trajectory checks, predictive control and "
        "multi-agent identification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        with open(args.config) as fh:
            # a null field means the same as an absent one, at any depth
            cfg = json.load(
                fh, object_pairs_hook=lambda kv: {k: v for k, v in kv if v is not None}
            )
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config} is not a JSON object")
        seed = args.seed if args.seed is not None else _count(cfg, "seed", 0, least=0)
        out = args.out if args.out is not None else _string(cfg.get("out", "."), "out")
        return _COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
