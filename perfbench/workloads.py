"""The three benchmark workloads.

Each workload turns the workload seed into a list of CLI commands, one
config and seed per command, and turns a finished command's exit code and
output files into checked ops. The module uses only the standard library,
so it can be imported before numpy without moving numpy's import out of the
measured set-up time.

Why each workload is in the benchmark (``BENCHMARK.json`` carries the short
form, ``layer_map.json`` the layer metrics each one should move):

- ``deepc-long``: the bundled fig1 plant with L=15, T=90, K=150. Its QPs
  have about 150 variables, so the dense kernels (the ADMM solve and the
  polish least squares) dominate; the receding-horizon QP is the layer
  that does most of the work. The excitation draw moves the ADMM iteration
  count of the first steps of a closed loop, not of the settled ones (every
  loop's median solve takes 50 iterations; the first steps add 1,400 +-
  1,500 to a loop's 6,100), so long loops vary less per step than short
  ones. K=150 gives 61-step loops of about 2.5 s, a dozen per run: long
  enough that a run's iteration count varies by about 6% across seeds and
  the heavy first steps stay under a tenth of the ops, and enough loops
  for a dozen host speed calibrations between them (``speed.py``).
- ``identify-net``: SVDs of wide input mosaics, up to 1040 x 1064, inside
  the PE tests of the trajectory-count sweep; no QP work.
- ``theorem1-random``: many tiny SVDs, subspace algebra and simulation, the
  per-call-overhead regime of the rank code; no QP work.

The bundled fig1 config itself is not a workload: the ADMM iteration count
of its QPs depends so much on the excitation draw (one draw's closed loop
takes 0.5 s, another's 9.6 s) that no run of a few dozen draws is steady
across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

CONFIG_DIR = os.path.join("src", "willems", "configs")

# a DeePC step agrees with its MPC twin when the applied inputs differ by at
# most this much (acceptance criterion 4)
INPUT_DIFF_TOL = 1e-5
# recovery errors of the identified network, as in acceptance criterion 7
RECOVERY_TOL = 1e-6


def _bundled(root: str, name: str) -> dict:
    with open(os.path.join(root, CONFIG_DIR, name)) as fh:
        return json.load(fh)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Checked:
    """Ops of one command: latencies of the ops that produced a timing,
    plus how many ops were attempted and how many failed their check."""

    latencies_ms: list
    attempted: int
    failed: int


def _deepc_config(root: str, tiny: bool, index: int) -> dict:
    cfg = _bundled(root, "fig1_deepc.json")
    cfg.update(L=15, T=90, K=150, pe_order=23, controller="both")
    if tiny:
        cfg["K"] = cfg["T"] + 5
    return cfg


def _deepc_check(cfg: dict, out_dir: str, rc: int, elapsed_ms: float) -> Checked:
    """An op is one control step, the DeePC step plus its MPC comparison,
    timed by the `solve_ms` column. It fails unless the command exited 0,
    the step's status is optimal and the two controllers' inputs agree."""
    expected = cfg["K"] - cfg["T"] + 1
    if rc != 0:
        return Checked([], expected, expected)
    try:
        steps = [
            r
            for r in _read_csv(os.path.join(out_dir, "closed_loop.csv"))
            if r["phase"] == "control"
        ]
        diffs = {
            int(r["t"]): float(r["input_diff"])
            for r in _read_csv(os.path.join(out_dir, "controller_diff.csv"))
        }
    except (OSError, KeyError, ValueError):
        return Checked([], expected, expected)
    latencies, passed = [], 0
    for r in steps[:expected]:
        latencies.append(float(r["solve_ms"]))
        diff = diffs.get(int(r["t"]), math.inf)
        if r["status"] == "optimal" and diff <= INPUT_DIFF_TOL:
            passed += 1
    return Checked(latencies, expected, expected - passed)


def _identify_config(root: str, tiny: bool, index: int) -> dict:
    """The bundled config, whose sweep runs N=3..8, on even commands, and
    N=3..7 on odd ones. The twelve points of one N=3..8 sweep take twelve
    distinct times, 1 ms to 400 ms, so if every command were alike the
    median op would fall between the sixth and seventh of them, the slowest
    of one kind and the fastest of another in the run, and swing with them;
    with the alternation it falls inside the N=6 corollary-2 points."""
    cfg = _bundled(root, "fig2_multiagent.json")
    if tiny:
        cfg["sweep_agents"] = [3, 4]
    elif index % 2:
        cfg["sweep_agents"] = [n for n in cfg["sweep_agents"] if n <= 7]
    return cfg


def _identify_check(cfg: dict, out_dir: str, rc: int, elapsed_ms: float) -> Checked:
    """An op is one (N, rule) point of the trajectory-count sweep, timed by
    its `elapsed_ms`. It fails unless the command exited 0 and the point's
    `tau_min` equals its analytic bound, which must be finite (the sweep
    writes -1 for both, and a 0 ms time, when the bound is infinite); every
    point fails when the network recovery missed by more than
    RECOVERY_TOL."""
    expected = len(cfg["sweep_agents"]) * len(cfg["rules"])
    if rc != 0:
        return Checked([], expected, expected)
    try:
        rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
        errors = [
            float(r["frobenius_error"])
            for r in _read_csv(os.path.join(out_dir, "recovery_report.csv"))
        ]
    except (OSError, KeyError, ValueError):
        return Checked([], expected, expected)
    recovered = bool(errors) and max(errors) <= RECOVERY_TOL
    latencies, passed = [], 0
    for r in rows[:expected]:
        try:
            bound, tau_min = int(r["analytic_bound"]), int(r["tau_min"])
            elapsed = float(r["elapsed_ms"])
        except (KeyError, ValueError):
            continue
        if bound < 1:
            continue
        latencies.append(elapsed)
        if recovered and tau_min == bound:
            passed += 1
    return Checked(latencies, expected, expected - passed)


def _theorem1_config(root: str, tiny: bool, index: int) -> dict:
    return {"random": {"count": 5 if tiny else 50}}


def _theorem1_check(cfg: dict, out_dir: str, rc: int, elapsed_ms: float) -> Checked:
    """An op is one invocation, timed around `main`. It fails unless the
    command exited 0 and every case's verdict is `holds`."""
    try:
        rows = _read_csv(os.path.join(out_dir, "theorem1_report.csv"))
    except (OSError, KeyError, ValueError):
        rows = []
    ok = (
        rc == 0
        and len(rows) == cfg["random"]["count"]
        and all(r["verdict"] == "holds" for r in rows)
    )
    return Checked([elapsed_ms], 1, 0 if ok else 1)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # commands per second of --seconds: sized so that an untraced run of the
    # program as it stood when the benchmark was defined lasts about
    # --seconds on a busy 2-core x86 host, so a faster program finishes
    # sooner
    per_second: float
    # seed of the warm-up command, fixed so that set-up does the same work
    # in every run
    warmup_seed: int
    # calibration kernel of speed.py that does the kind of work that
    # dominates the workload
    kernel: str
    # (checkout root, tiny, command index) -> CLI config
    config: Callable[[str, bool, int], dict]
    # (config, output dir, exit code, elapsed ms) -> checked ops
    check: Callable[[dict, str, int, float], Checked]

    def command_seeds(self, seed: int, seconds: float) -> list[int]:
        """Seeds of the timed commands; distinct workload seeds give
        disjoint command seeds."""
        n = max(1, math.ceil(seconds * self.per_second))
        return [seed * n + i for i in range(n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deepc-long", "deepc", 0.4, 7, "dense", _deepc_config, _deepc_check,
        ),
        Workload(
            "identify-net", "identify", 1.4, 12, "svd",
            _identify_config, _identify_check,
        ),
        Workload(
            "theorem1-random", "verify-theorem1", 9.3, 0, "dense",
            _theorem1_config, _theorem1_check,
        ),
    )
}
