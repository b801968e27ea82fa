"""Speed of the host, measured by fixed calibration kernels.

The benchmark runs on a CPU of a shared host whose speed switches between
levels up to 2x apart, as other tenants come and go beside it: a level can
last a fraction of a second or a few minutes. The program's own times
switch with it, so that runs of identical work half a minute apart differ
by a third. So the timed commands are interleaved with a kernel that does a
fixed amount of the kind of work that dominates the workload, and uses no
willems code, and a run's times are reported scaled to a host on which one
kernel run takes the kernel's reference time:

    scaled = measured * reference_ms / mean(kernel_ms)

where the mean is over all calibrations of the run. A change to willems
moves the scaled time as it moves the measured one; a slow spell of the
host moves both the measured time and the kernel times, and mostly
cancels. Scaling each command by the calibrations on either side of it
alone was tried and did worse: a calibration sees the host for a few ms,
and the commands of the control workload last seconds, so the two ends of
a command often misjudge it, and the misjudged ops land in the tail that
``op_ms_p90`` reads.

Two kernels, because the host's slow level costs different kinds of work
differently (about 1.9x for dense 150 x 150 solves and interpreted code,
1.3x for a 250 x 270 SVD, measured on the 2-core x86 host the benchmark was
tuned on):

- ``dense``: small dense solves and SVDs through numpy, and an interpreted
  loop; the QP iterations of the control workloads, the tiny SVDs and
  subspace algebra of theorem 1, and imports;
- ``svd``: one values-only SVD of a wide 250 x 270 matrix; the rank tests
  of the wide input mosaics in identification.
"""

import time

import numpy as np

# one calibration is the median of this many kernel runs, so that a single
# interrupted run does not set it
KERNEL_RUNS = 5

_rng = np.random.default_rng(20210205)
_A = _rng.standard_normal((150, 150))
_A = _A @ _A.T + 150.0 * np.eye(150)
_M = _rng.standard_normal((60, 150))
_B = _rng.standard_normal(150)
_S = _rng.standard_normal((40, 60))
_W = _rng.standard_normal((250, 270))


def _dense() -> float:
    s = 0.0
    x = np.zeros(150)
    for _ in range(3):
        for _ in range(5):
            x = np.linalg.solve(_A, _B + 0.01 * x)
            z = np.clip(_M @ x, -0.5, 0.5)
            s += float(np.abs(z).max(initial=0.0))
        s += float(np.linalg.svd(_S, compute_uv=False)[0])
        for i in range(150):
            if x[i] > s:
                s += 1.0
    return s


def _svd() -> float:
    return float(np.linalg.svd(_W, compute_uv=False)[0])


# name -> (kernel, its time in ms on the reference host: about the median
# on the host the benchmark was tuned on)
KERNELS = {"dense": (_dense, 4.5), "svd": (_svd, 7.0)}


def calibrate(kernel: str) -> float:
    """Time in ms of one run of the named kernel on the host as it is now."""
    run, _ = KERNELS[kernel]
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        run()
        times.append(1e3 * (time.perf_counter() - start))
    return sorted(times)[KERNEL_RUNS // 2]


def scale(kernel: str, kernel_ms: float) -> float:
    """Factor that turns a time measured while the named kernel took
    `kernel_ms` into one at the reference speed."""
    return KERNELS[kernel][1] / kernel_ms
