"""Benchmark of the willems command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports ``willems`` from ``src/`` and calls ``willems.cli.main`` on
configs it builds from the workload seed (see ``workloads.py``). It checks
every op it times, prints one line with the environment, and prints as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run repeats
its commands with every layer wrapped (``tracing.py``) and the metrics are
the per-layer ones. Outputs, the result and the spans go under
``.perfbench_out/`` in the checkout.

``--seconds`` sets the input size, not a deadline: a run makes
``ceil(seconds * per_second)`` commands, so a faster program finishes
sooner and ``run_s`` shows it. Untraced, the command list runs once and
``run_s`` is the sum of its commands' wall times; traced, it runs once
plain and once traced, and only the traced pass feeds the layer metrics.

Set-up is timed here and in SETUP_PROBES fresh interpreters started with
``--setup-probe``, and ``setup_s`` is the median of these times.

The end-to-end times (``setup_s``, ``run_s``, ``op_ms_p50``, ``op_ms_p90``)
are scaled to a reference host speed by a calibration kernel run between
the commands (``speed.py``), because the shared host this benchmark runs on
switches speed during a run. Set-up is scaled by the ``dense`` kernel run
right after it, the commands by the mean time of the workload's own kernel
over the run. The unscaled values and the kernel times are
in ``result.json`` and on the environment line.
"""

import os

# one BLAS thread, set before anything imports numpy: the load is a single
# process with no extra threads
BLAS_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)
# one CPU: on the shared host each CPU has its own speed, set by what
# other tenants run beside it, and one CPU can be twice as fast as the
# other for seconds at a time; a process free to move between them would
# switch speed with every move. Set-up probes inherit the pinning.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from dataclasses import dataclass, field  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# set-up takes well under a second, so a single sample swings with every
# burst of load on the host; setup_s is the median of 1 + SETUP_PROBES
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
# untraced, the host speed is measured again after at least this many
# seconds of commands, and after every command that takes longer: the
# host's speed can change within a second, so the mean over a run needs
# many samples
CALIBRATE_EVERY_S = 0.5


def run_command(cli, workload, cfg: dict, seed: int, out_dir: str):
    """One CLI invocation into a fresh output directory; returns the exit
    code and the wall time of `main` in seconds. An exception escaping
    `main` counts as exit code 1, so its ops fail instead of the run."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    argv = [workload.command, "--config", cfg_path, "--seed", str(seed)]
    argv += ["--out", out_dir]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - start


def set_up(workload):
    """Import willems and run the warm-up command: a tiny instance of the
    workload on a fixed seed. Returns (cli module, seconds, checked ops)."""
    start = time.perf_counter()
    cli = importlib.import_module("willems.cli")
    cfg = workload.config(ROOT, True, 0)
    out_dir = os.path.join(OUT, workload.name, "warmup")
    rc, elapsed = run_command(cli, workload, cfg, workload.warmup_seed, out_dir)
    seconds = time.perf_counter() - start
    return cli, seconds, workload.check(cfg, out_dir, rc, 1e3 * elapsed)


def probe_setup(workload) -> tuple[float, float, bool]:
    """Set-up time of a fresh interpreter, the kernel time in ms measured
    right after it, and whether its warm-up passed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["kernel_ms"], result["ok"]


@dataclass
class Pass:
    """Per-command wall times in seconds, op latencies in ms, the kernel
    times in ms of the calibrations between the commands, and the ops
    attempted and failed."""

    times: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    kernel_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def scale(self, kernel: str) -> float:
        """Factor that turns the pass's times into times at the reference
        speed: the host's mean speed over the pass is taken as that of its
        calibrations."""
        import speed

        return speed.scale(kernel, statistics.mean(self.kernel_ms))


def timed_pass(cli, workload, seeds, tiny: bool, tracer=None, calibrated=False):
    """Run the timed commands once each. When `calibrated`, the host speed
    is measured before the first command, after the last and between them
    (see CALIBRATE_EVERY_S)."""
    import speed

    out_dir = os.path.join(OUT, workload.name, "run")
    result = Pass()
    since = 0.0
    if calibrated:
        result.kernel_ms.append(speed.calibrate(workload.kernel))
    for op_id, seed in enumerate(seeds):
        if tracer is not None:
            tracer.op_id = op_id
        cfg = workload.config(ROOT, tiny, op_id)
        rc, elapsed = run_command(cli, workload, cfg, seed, out_dir)
        checked = workload.check(cfg, out_dir, rc, 1e3 * elapsed)
        result.times.append(elapsed)
        result.latencies.extend(checked.latencies_ms)
        result.attempted += checked.attempted
        result.failed += checked.failed
        since += elapsed
        if calibrated and (since >= CALIBRATE_EVERY_S or op_id == len(seeds) - 1):
            result.kernel_ms.append(speed.calibrate(workload.kernel))
            since = 0.0
    return result


def environment(args, commands: int, unscaled: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": commands,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": CPU,
        **unscaled,
    }


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="one tiny command per pass (the smoke check); no timing meaning",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "willems", "__init__.py")):
        print(f"no willems sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]

    cli, setup_s, warm = set_up(workload)
    import speed

    kernel_ms = speed.calibrate("dense")
    if args.setup_probe:
        print(json.dumps({
            "setup_s": setup_s, "kernel_ms": kernel_ms, "ok": warm.failed == 0,
        }))
        return 0
    correct = warm.failed == 0

    seeds = [args.seed] if args.tiny else workload.command_seeds(args.seed, args.seconds)
    unscaled = {}
    if args.trace == 0:
        setups = [(setup_s, kernel_ms)]
        for _ in range(SETUP_PROBES):
            seconds, kernel, ok = probe_setup(workload)
            setups.append((seconds, kernel))
            correct &= ok
        timed = timed_pass(cli, workload, seeds, args.tiny, calibrated=True)
        attempted, failed = timed.attempted, timed.failed
        factor = timed.scale(workload.kernel)
        values = {
            "setup_s": statistics.median(
                s * speed.scale("dense", k) for s, k in setups
            ),
            "run_s": factor * sum(timed.times),
            "op_ms_p50": factor * percentile(timed.latencies, 50),
            "op_ms_p90": factor * percentile(timed.latencies, 90),
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        unscaled = {
            "unscaled_setup_s": statistics.median(s for s, _ in setups),
            "unscaled_run_s": sum(timed.times),
            "unscaled_op_ms_p50": percentile(timed.latencies, 50),
            "unscaled_op_ms_p90": percentile(timed.latencies, 90),
            "setup_kernel_ms": [k for _, k in setups],
            "run_kernel_ms": timed.kernel_ms,
        }
        units = declared("end_to_end")
    else:
        from tracing import Tracer

        # the calibration kernel calls numpy.linalg, which the tracer
        # wraps, so traced runs are not calibrated
        plain = timed_pass(cli, workload, seeds, args.tiny)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(cli, workload, seeds, args.tiny, tracer)
        finally:
            tracer.uninstall()
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        values = tracer.layer_metrics(sum(traced.times), sum(plain.times))
        units = declared("per_layer")
        os.makedirs(os.path.join(OUT, workload.name), exist_ok=True)
        tracer.save(os.path.join(OUT, workload.name, "spans.npz"))

    if set(values) != set(units):
        print(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    env = environment(args, len(seeds), unscaled)
    with open(os.path.join(OUT, workload.name, "result.json"), "w") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
