"""Span recorder that times calls into the willems layers from outside.

Every public function (a plain function named in its module's ``__all__``)
of each willems module is wrapped at every name it is bound to. Importing
modules bind their callees by name (``predictive`` calls its own
``solve_qp``, ``qp`` its own ``least_squares``), so patching only the
defining module would miss those calls. The package ``__init__`` re-exports
``hankel.hankel``, so ``willems.hankel`` is the function and the module is
reached through ``sys.modules``. ``numpy.linalg.svd``, ``lstsq`` and
``solve`` are looked up at call time, so patching ``numpy.linalg`` covers
them.

A span is named after the module that defines the function
(``qp.solve_qp``) or ``linalg.<name>``. Each records its name, start, end,
parent span and op id (the index of the CLI command that caused it). Spans
live in typed arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

MODULES = (
    "cli",
    "hankel",
    "lti",
    "multiagent",
    "numerics",
    "parameterize",
    "predictive",
    "qp",
    "subspace",
)
LINALG = ("svd", "lstsq", "solve")


def _svd_gflop(shape, full_matrices: bool, compute_uv: bool) -> float:
    """Flop count of a dense SVD from its shape (Golub and Van Loan, table
    8.6.1), so the figure is computed, not measured."""
    a, b = max(shape), min(shape)
    if not compute_uv:
        flops = 4 * a * b * b - 4 * b**3 / 3
    elif full_matrices:
        flops = 4 * a * a * b + 8 * a * b * b + 9 * b**3
    else:
        flops = 6 * a * b * b + 20 * b**3
    return flops / 1e9


class Tracer:
    """Wraps the layers on `install`, restores them on `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # values read off arguments and results at the layer boundaries
        self.qp_iterations: list[int] = []
        self.qp_status: list[str] = []
        self.qp_kkt: list[float] = []
        self.mosaic_cells = 0
        self.sweep_points = 0
        self.svd_gflop = 0.0
        self.svd_max_dim = 0

    # -- observers: called with (args, kwargs, result) after each call ----

    def _see_solve_qp(self, args, kwargs, sol):
        self.qp_iterations.append(sol.iterations)
        self.qp_status.append(sol.status)
        self.qp_kkt.append(sol.kkt_residual)

    def _see_mosaic(self, args, kwargs, out):
        self.mosaic_cells += out.shape[0] * out.shape[1]

    def _see_sweep(self, args, kwargs, rows):
        self.sweep_points += sum(1 for r in rows if r.tau_min >= 0)

    def _see_svd(self, args, kwargs, out):
        shape = args[0].shape
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        self.svd_gflop += _svd_gflop(shape[-2:], full, uv)
        self.svd_max_dim = max(self.svd_max_dim, max(shape))

    def _wrap(self, span_name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, op = self.name, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy.linalg

        observers = {
            "qp.solve_qp": self._see_solve_qp,
            "hankel.mosaic_hankel": self._see_mosaic,
            "multiagent.min_trajectory_sweep": self._see_sweep,
        }
        modules = {m: sys.modules[f"willems.{m}"] for m in MODULES}
        namespaces = [sys.modules["willems"], *modules.values()]
        for short, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                span = f"{short}.{attr}"
                wrapped = self._wrap(span, fn, observers.get(span))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            observe = self._see_svd if attr == "svd" else None
            self._patch(numpy.linalg, attr, self._wrap(f"linalg.{attr}", fn, observe))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def save(self, path):
        """Write every span, compressed, for offline inspection."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self, traced_run_s: float, untraced_run_s: float) -> dict:
        """Per-layer metrics named as in BENCHMARK.json, values only."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = 1e3 * (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )
        # calls in one thread nest, so the children of a span never overlap
        # and its self time is its duration minus their summed durations
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_ms = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def spans(span_name, parent_name=None):
            mask = name == ids.get(span_name, -1)
            if parent_name is not None:
                mask &= has_parent
                mask[mask] = name[parent[mask]] == ids.get(parent_name, -1)
            return mask

        def calls(s, parent_name=None):
            return int(spans(s, parent_name).sum())

        def total(s, parent_name=None):
            return float(dur[spans(s, parent_name)].sum())

        def selftime(s):
            return float(self_ms[spans(s)].sum())

        def pct(s, q):
            d = dur[spans(s)]
            return float(np.percentile(d, q)) if d.size else 0.0

        iters = np.asarray(self.qp_iterations, dtype=float)
        kkt = np.asarray(self.qp_kkt, dtype=float)
        kkt = kkt[np.isfinite(kkt)]
        solves = len(self.qp_status)
        candidates = calls("hankel.is_collectively_pe", "multiagent.min_trajectory_sweep")
        return {
            "predictive.deepc_step.ms_p50": pct("predictive.deepc_step", 50),
            "predictive.mpc_step.ms_p50": pct("predictive.mpc_step", 50),
            "predictive.deepc_step.self_ms": selftime("predictive.deepc_step"),
            "predictive.mpc_step.self_ms": selftime("predictive.mpc_step"),
            "predictive.run_closed_loop.self_ms": selftime("predictive.run_closed_loop"),
            "qp.solve_qp.calls": calls("qp.solve_qp"),
            "qp.solve_qp.ms_p50": pct("qp.solve_qp", 50),
            "qp.solve_qp.ms_p90": pct("qp.solve_qp", 90),
            "qp.solve_qp.self_ms": selftime("qp.solve_qp"),
            "qp.iterations.total": int(iters.sum()),
            "qp.iterations.p50": float(np.median(iters)) if solves else 0.0,
            "qp.iterations.max": int(iters.max(initial=0)),
            # least_squares as bound in qp: the feasibility solve and the
            # polish passes, whose spans all sit directly under solve_qp
            "qp.least_squares.calls": calls("numerics.least_squares", "qp.solve_qp"),
            "qp.least_squares.ms": total("numerics.least_squares", "qp.solve_qp"),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.ms": total("linalg.solve"),
            # 0 when the workload makes no solves
            "qp.optimal_ratio": (
                self.qp_status.count("optimal") / solves if solves else 0.0
            ),
            "qp.kkt_residual.max": float(kkt.max(initial=0.0)),
            "hankel.is_collectively_pe.calls": calls("hankel.is_collectively_pe"),
            "hankel.is_collectively_pe.ms": total("hankel.is_collectively_pe"),
            "hankel.mosaic_hankel.ms": total("hankel.mosaic_hankel"),
            "hankel.mosaic_hankel.cells": self.mosaic_cells,
            "numerics.numerical_rank.calls": calls("numerics.numerical_rank"),
            "numerics.numerical_rank.ms": total("numerics.numerical_rank"),
            "numerics.least_squares.calls": calls("numerics.least_squares"),
            "numerics.least_squares.ms": total("numerics.least_squares"),
            "linalg.svd.calls": calls("linalg.svd"),
            "linalg.svd.ms": total("linalg.svd"),
            "linalg.svd.max_dim": self.svd_max_dim,
            "linalg.svd.gflop_computed": self.svd_gflop,
            "linalg.lstsq.calls": calls("linalg.lstsq"),
            "linalg.lstsq.ms": total("linalg.lstsq"),
            "subspace.theorem1_image_check.ms": total("subspace.theorem1_image_check"),
            "subspace.theorem1_image_check.self_ms": selftime(
                "subspace.theorem1_image_check"
            ),
            "subspace.min_poly_degree.ms": total("subspace.min_poly_degree"),
            "parameterize.build_trajectory_matrix.calls": calls(
                "parameterize.build_trajectory_matrix"
            ),
            "parameterize.build_trajectory_matrix.ms": total(
                "parameterize.build_trajectory_matrix"
            ),
            "multiagent.collect_trajectories.ms": total("multiagent.collect_trajectories"),
            "multiagent.markov_from_data.ms": total("multiagent.markov_from_data"),
            "multiagent.recover_system.ms": total("multiagent.recover_system"),
            "multiagent.min_trajectory_sweep.ms": total("multiagent.min_trajectory_sweep"),
            # trajectory counts tried per sweep point; 0 without a sweep
            "multiagent.sweep.candidates_per_point": (
                candidates / self.sweep_points if self.sweep_points else 0.0
            ),
            "lti.simulate.calls": calls("lti.simulate"),
            "lti.simulate.ms": total("lti.simulate"),
            "cli.main.self_ms": selftime("cli.main"),
            "trace.overhead_ratio": traced_run_s / untraced_run_s - 1.0,
        }
