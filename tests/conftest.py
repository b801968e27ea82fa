import itertools
import json
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest

from willems import LtiSystem, numerics, qp


def mixed_plant() -> LtiSystem:
    """Four-state benchmark: a controllable double integrator chained with an
    uncontrollable (but observable) stable pair. Both outputs are direct
    state reads."""
    A = np.array(
        [
            [1.0, 0.5, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.9, 0.5],
            [0.0, 0.0, 0.0, 0.9],
        ]
    )
    B = np.array([[0.125], [0.5], [0.0], [0.0]])
    C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    D = np.zeros((2, 1))
    return LtiSystem(A, B, C, D)


@pytest.fixture
def bench() -> LtiSystem:
    return mixed_plant()


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """Shape of every matrix np.linalg.svd gets while the test runs; a
    test that counts only part of its run clears the list first."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def cholesky_certificates(monkeypatch) -> list:
    """(size, bound) of every numerics.cholesky_certificate call while the
    test runs: the order of the Gram matrix, read as the width of its first
    block row, and the bound the certificate proved, 0.0 when it decided
    nothing; like `svd_calls`."""
    calls = []
    certificate = numerics.cholesky_certificate

    def recording(block_rows, kappa, t):
        rows = iter(block_rows)
        first = next(rows)
        bound = certificate(itertools.chain([first], rows), kappa, t)
        calls.append((first.shape[1], bound))
        return bound

    monkeypatch.setattr(numerics, "cholesky_certificate", recording)
    return calls


@pytest.fixture
def inv_calls(monkeypatch) -> list:
    """Shape of every matrix np.linalg.inv gets while the test runs, like
    `svd_calls`."""
    calls = []
    inv = np.linalg.inv

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


@pytest.fixture
def qp_solves(monkeypatch) -> list:
    """(status, iterations, path, n) of every qp.Workspace.solve while the
    test runs, like `svd_calls`: n is the program's variable count and
    path the step of the solve that decided it, "pre-check" (the equality
    rows alone), "last face" (the workspace's last certified face, 0
    iterations), "cold polish" (the polish from the empty face) or "walk"
    (the active-set walk)."""
    calls, walks = [], []
    solve, walk = qp.Workspace.solve, qp._walk

    def walking(*args):
        walks.append(args[0])
        return walk(*args)

    def recording(self, beq):
        walks.clear()
        sol = solve(self, beq)
        if walks:
            path = "walk"
        elif sol.iterations:
            path = "cold polish"
        else:
            path = "last face" if sol.status == "optimal" else "pre-check"
        calls.append((sol.status, sol.iterations, path, self.n))
        return sol

    monkeypatch.setattr(qp, "_walk", walking)
    monkeypatch.setattr(qp.Workspace, "solve", recording)
    return calls


@pytest.fixture
def peak_alloc():
    """`peak_alloc(f, *args)` calls f(*args) and returns its result and
    the peak number of bytes held during the call beyond those held before
    it, as stdlib tracemalloc counts them. numpy reports every array buffer
    to tracemalloc, so each array the call makes counts; the work buffers
    LAPACK routines allocate inside numpy do not."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()

    def measure(f, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - before

    yield measure
    if not tracing:
        tracemalloc.stop()


def bordered_face_errors(ws, beq, face) -> tuple[float, float]:
    """How far the face `face` of the workspace `ws`, bordered from its
    base, lies from the face's own certified LU on Aeq's range rows, folded
    back to Aeq's rows: the largest entry of the difference of the two
    inverses over the largest of the LU's, and the largest difference of
    the x they solve for with right-hand side `beq`, over max(1, max |x|).
    Both factorizations must certify."""
    pins = qp._pins(face)
    bordered, direct = qp._bordered(ws.base, pins), qp._range_inverse(ws, pins)
    rhs = np.concatenate([ws.neg_q, beq, np.where(face < 0, ws.lb, ws.ub)[pins]])
    x, x_direct = (bordered @ rhs)[: ws.n], (direct @ rhs)[: ws.n]
    scale = max(1.0, float(np.abs(x_direct).max(initial=0.0)))
    return (
        float(np.abs(bordered - direct).max() / np.abs(direct).max()),
        float(np.abs(x - x_direct).max(initial=0.0) / scale),
    )


def load_config(name: str) -> dict:
    return json.loads(files("willems").joinpath(f"configs/{name}").read_text())


def agent_pair() -> tuple[np.ndarray, np.ndarray]:
    """The bundled four-state, two-input agent matrices (marginally
    unstable, controllable)."""
    cfg = load_config("fig2_multiagent.json")
    return np.array(cfg["Abar"]), np.array(cfg["Bbar"])
