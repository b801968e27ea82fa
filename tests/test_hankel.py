import importlib
import logging
import re

import numpy as np
import pytest

from willems import (
    Trajectory,
    TrajectorySet,
    hankel,
    is_collectively_pe,
    mosaic_hankel,
    numerical_rank,
    pe_order,
)
from willems.numerics import _CHOLESKY_BLOCK, gram_certifies_full_rank


def test_hankel_of_scalar_sequence():
    h = hankel([0.0, 1.0, 2.0, 3.0, 4.0], 2)
    assert np.array_equal(h, [[0, 1, 2, 3], [1, 2, 3, 4]])
    assert np.array_equal(hankel([5.0, 6.0], 2), [[5.0], [6.0]])


def test_hankel_of_vector_sequence():
    f = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    h = hankel(f, 2)
    # block (i, j) is sample i+j, channels stacked within a block
    assert np.array_equal(h, [[1, 2], [10, 20], [2, 3], [20, 30]])
    assert h.shape == (4, 2)


def test_hankel_depth_bounds():
    with pytest.raises(ValueError, match="^depth 3 exceeds sequence length 2$"):
        hankel([1.0, 2.0], 3)
    with pytest.raises(ValueError, match="^depth must be positive, got 0$"):
        hankel([1.0, 2.0], 0)
    with pytest.raises(ValueError, match="^depth must be positive, got -1$"):
        hankel(np.ones((4, 2)), -1)


def test_hankel_shift_structure():
    # dropping the last block row and the first column equals dropping the
    # first block row and the last column
    rng = np.random.default_rng(21)
    for _ in range(120):
        T = int(rng.integers(3, 12))
        q = int(rng.integers(1, 4))
        d = int(rng.integers(2, T))
        f = rng.normal(size=(T, q))
        h = hankel(f, d)
        assert np.array_equal(h[: q * (d - 1), 1:], h[q:, :-1])


def column_definition(f, d):
    """Depth-d Hankel matrix filled one column (one window) at a time."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    T, q = arr.shape
    out = np.empty((d * q, T - d + 1))
    for j in range(T - d + 1):
        out[:, j] = arr[j : j + d].reshape(-1)
    return out


def test_hankel_equals_the_per_column_definition():
    rng = np.random.default_rng(66)
    raw = rng.normal(size=(40, 9))
    cases = [
        (raw[:, 0].copy(), 5),  # 1-D
        (raw[:17, 0].copy(), 17),  # d = T: one column
        (raw[:12, :3].copy(), 12),
        (raw[:, :3].copy(), 1),  # d = 1: the samples as columns
        (raw[:, :4].copy(), 6),  # q > 1
        (np.asfortranarray(raw[:25, :3]), 4),
        (raw[::2, ::3], 5),  # strided both ways
        (raw[::-1, 2], 7),  # negative stride
        (rng.integers(-9, 9, size=(20, 2)), 3),  # integer samples
        ([[1, 2], [3, 4], [5, 6]], 2),  # nested lists
    ]
    for f, d in cases:
        h = hankel(f, d)
        expected = column_definition(f, d)
        assert h.dtype == np.float64 and h.flags.c_contiguous
        assert np.array_equal(h, expected)
    # a copy, not a view of the samples
    f = raw[:10, :2].copy()
    h = hankel(f, 3)
    f[:] = 0.0
    assert np.array_equal(h, column_definition(raw[:10, :2], 3))


def test_mosaic_concatenates_in_order():
    a = Trajectory([1.0, 2.0, 3.0])
    b = Trajectory([4.0, 5.0])
    mos = mosaic_hankel(TrajectorySet((a, b)), 2)
    assert np.array_equal(mos, [[1, 2, 4], [2, 3, 5]])
    with pytest.raises(ValueError):
        mosaic_hankel(TrajectorySet((a, b)), 3)  # second trajectory too short


def test_pe_known_cases():
    # geometric sequence: depth-2 rows are proportional, so order 2 fails
    geo = TrajectorySet((Trajectory([1.0, 2.0, 4.0, 8.0]),))
    assert is_collectively_pe(geo, 1)
    assert not is_collectively_pe(geo, 2)
    assert pe_order(geo) == 1
    # breaking the progression restores full row rank at depth 2
    rich = TrajectorySet((Trajectory([1.0, 2.0, 4.0, 9.0]),))
    assert is_collectively_pe(rich, 2)
    assert pe_order(rich) == 2


def test_pe_order_zero_for_degenerate_input():
    flat = TrajectorySet((Trajectory([0.0, 0.0, 0.0]),))
    assert pe_order(flat) == 0
    assert not is_collectively_pe(flat, 1)


def test_pe_too_short_is_false_not_an_error():
    data = TrajectorySet((Trajectory([1.0, 2.0]),))
    assert not is_collectively_pe(data, 3)
    with pytest.raises(ValueError):
        is_collectively_pe(data, 0)


def test_collective_rescue_by_second_trajectory():
    # one trajectory alone is too short for order 3 but two together supply
    # enough windows; found by seed search, frozen here
    rng = np.random.default_rng(2)
    a = Trajectory(rng.uniform(-1, 1, size=(4, 1)))
    b = Trajectory(rng.uniform(-1, 1, size=(4, 1)))
    assert not is_collectively_pe(TrajectorySet((a,)), 3)
    assert is_collectively_pe(TrajectorySet((a, b)), 3)


def test_pe_monotone_in_order():
    rng = np.random.default_rng(17)
    for _ in range(120):
        tau = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        trajs = tuple(
            Trajectory(rng.uniform(-1, 1, size=(int(rng.integers(4, 15)), m)))
            for _ in range(tau)
        )
        data = TrajectorySet(trajs)
        top = pe_order(data)
        if top == 0:
            continue
        for d in range(1, top + 1):
            assert is_collectively_pe(data, d)
        assert not is_collectively_pe(data, top + 1)


def test_pe_order_structural_ceiling():
    # d*m <= total columns forces order <= floor((T + 1) / (m + 1)) for a
    # single trajectory; random inputs reach it
    rng = np.random.default_rng(9)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        T = int(rng.integers(m + 1, 30))
        data = TrajectorySet((Trajectory(rng.normal(size=(T, m))),))
        assert pe_order(data) == (T + 1) // (m + 1)


# -- the Cholesky certificate and its SVD fallback ---------------------------

# the module, not the function `willems.hankel` the package exports
hankel_module = importlib.import_module("willems.hankel")
numerics_module = importlib.import_module("willems.numerics")


def on_each_route(monkeypatch):
    """Force `is_collectively_pe` onto each Gram route in turn, the product
    H H^T of the built mosaic and then the Gram matrix formed from the
    samples, yielding the route's name."""
    for route, work in (("direct", np.inf), ("structured", 0.0)):
        monkeypatch.setattr(hankel_module, "_STRUCTURED_GRAM_WORK", work)
        yield route


def svd_verdict(data, d):
    """The verdict the SVD of the mosaic gives, the contract of
    is_collectively_pe whenever every trajectory has at least d samples."""
    mosaic = mosaic_hankel(data, d)
    return numerical_rank(mosaic) == mosaic.shape[0]


def trajectory_set(inputs):
    return TrajectorySet(tuple(Trajectory(u) for u in inputs))


def recursion_input(rng, T, m, coeffs):
    """Inputs whose every channel obeys u[t] = sum_k coeffs[k] u[t-1-k]."""
    u = rng.normal(size=(T, m))
    for t in range(len(coeffs), T):
        u[t] = sum(c * u[t - 1 - k] for k, c in enumerate(coeffs))
    return u


def prescribed_mosaic(rng, rows, cols, ratio, rank=None):
    """Single-column trajectories whose depth-d mosaic is a matrix with
    singular values spread geometrically from 1 down to `ratio`; with a
    `rank`, the first `rank` of them are 1 and the others `ratio`."""
    q_left, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    q_right, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    if rank is None:
        sigma = np.geomspace(1.0, ratio, rows)
    else:
        sigma = np.where(np.arange(rows) < rank, 1.0, ratio)
    return (q_left * sigma) @ q_right.T


def deficient_sets(rng):
    """(set, order) pairs with at least as many mosaic columns as rows whose
    inputs cannot be PE of that order."""
    u = rng.normal(size=(9, 2))
    yield trajectory_set([u, u]), 4  # repeated: 12 columns, rank at most 6
    yield trajectory_set([np.ones((30, 1))]), 3
    yield trajectory_set([np.zeros((30, 2))]), 2
    yield trajectory_set([recursion_input(rng, 40, 1, [0.7, -0.1])]), 3
    yield trajectory_set([recursion_input(rng, 40, 2, [1.2, -0.5, 0.1])] * 2), 5


def test_certificate_verdict_matches_svd_on_random_shapes(monkeypatch):
    rng = np.random.default_rng(61)
    for _ in range(150):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 9))
        tau = int(rng.integers(1, 4))
        rows = d * m
        # total columns rows + slack, slack 0 (square) to a few (near-square)
        # and sometimes wide
        cols = rows + int(rng.choice([0, 1, 2, 3, int(rng.integers(4, 30))]))
        widths = np.full(tau, cols // tau)
        widths[: cols % tau] += 1
        if widths.min() < 1:
            continue
        data = trajectory_set(rng.normal(size=(w + d - 1, m)) for w in widths)
        verdict = svd_verdict(data, d)
        for route in on_each_route(monkeypatch):
            assert is_collectively_pe(data, d) == verdict, route


def test_certificate_verdict_matches_svd_on_deficient_sets(monkeypatch):
    rng = np.random.default_rng(62)
    for data, d in deficient_sets(rng):
        assert not svd_verdict(data, d)
        for route in on_each_route(monkeypatch):
            assert not is_collectively_pe(data, d), route


# 1e-16 lies below the cutoff max(rows, cols) * eps, so the SVD says False
@pytest.mark.parametrize("ratio", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16])
def test_certificate_verdict_matches_svd_across_conditioning(ratio, monkeypatch):
    rng = np.random.default_rng(63)
    d, m = 4, 3
    for cols in (12, 13, 20):  # square, near-square and wide
        mosaic = prescribed_mosaic(rng, d * m, cols, ratio)
        data = trajectory_set(mosaic[:, j].reshape(d, m) for j in range(cols))
        assert np.array_equal(mosaic_hankel(data, d), mosaic)
        verdict = svd_verdict(data, d)
        for route in on_each_route(monkeypatch):
            assert is_collectively_pe(data, d) == verdict, route


# past 2^±512 and 1e±160 the unscaled Gram entries overflow or underflow
@pytest.mark.parametrize(
    "scale",
    [2.0**500, 2.0**-500, 1e150, 1e-150, 2.0**600, 2.0**-600, 1e200, 1e-200],
    ids=["2^500", "2^-500", "1e150", "1e-150", "2^600", "2^-600", "1e200", "1e-200"],
)
def test_certificate_verdict_matches_svd_on_scaled_data(scale, svd_calls, monkeypatch):
    rng = np.random.default_rng(64)
    rich = trajectory_set([rng.normal(size=(25, 2))])
    cases = [(rich, 6)] + list(deficient_sets(rng))
    mosaic = prescribed_mosaic(rng, 8, 9, 1e-12)
    cases.append((trajectory_set(mosaic[:, j].reshape(4, 2) for j in range(9)), 4))
    for data, d in cases:
        scaled = trajectory_set(t.inputs * scale for t in data)
        expected = svd_verdict(scaled, d)
        for route in on_each_route(monkeypatch):
            verdict = is_collectively_pe(scaled, d)
            assert verdict == expected, route
            if np.log2(scale).is_integer():
                assert verdict == is_collectively_pe(data, d), route
    # the Gram matrix neither overflows nor underflows: still certified
    for route in on_each_route(monkeypatch):
        svd_calls.clear()
        assert is_collectively_pe(trajectory_set(t.inputs * scale for t in rich), 6)
        assert not svd_calls, route


def test_svd_runs_only_when_the_certificate_fails(svd_calls, caplog):
    rng = np.random.default_rng(65)
    rich = trajectory_set([rng.normal(size=(40, 2))])
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    cases = [
        (rich, 8, True, 0, "cholesky"),
        (rich, 14, False, 0, "shape"),  # 28 rows, 27 columns
        (trajectory_set([np.zeros((30, 2))]), 8, False, 1, "svd"),
    ]
    for data, d, verdict, svds, path in cases:
        svd_calls.clear()
        caplog.clear()
        assert is_collectively_pe(data, d) is verdict
        assert len(svd_calls) == svds
        (record,) = caplog.records
        assert f": {path}" in record.getMessage()
    caplog.clear()
    assert not is_collectively_pe(trajectory_set([np.ones((30, 1))]), 2)
    assert "sigma_r/sigma_1" in caplog.records[0].getMessage()


def test_certificate_verdict_matches_svd_on_large_mosaics(monkeypatch):
    # r >= 264 on both sides of the routing rule: one input keeps m r c
    # below it, four and eight take it past. Rich inputs, inputs of a
    # short recursion (never PE) and, in the 264-row prescribed cases, 264
    # trajectories of one window each, so the corrections' inner length
    # 2 tau exceeds c. The last two shapes have 2 and 3 block rows
    # (r = 400 and 780), and the last case is a generic mosaic of rank
    # r - 1 at r = 800, whose factorization fails only in its last block
    # row
    rng = np.random.default_rng(68)
    cases = []
    shapes = [(1, 1, 600, 264), (1, 2, 500, 300), (4, 4, 150, 70), (8, 3, 120, 33)]
    shapes += [(5, 2, 300, 80), (10, 4, 280, 78)]
    for m, tau, T, d in shapes:
        rich = [rng.normal(size=(T, m)) for _ in range(tau)]
        flat = [recursion_input(rng, T, m, [0.9, -0.2]) for _ in range(tau)]
        cases += [(trajectory_set(rich), d), (trajectory_set(flat), d)]
    for ratio in (1e-3, 1e-17):
        mosaic = prescribed_mosaic(rng, 264, 280, ratio)
        windows = [mosaic[:, j].reshape(33, 8) for j in range(280)]
        cases.append((trajectory_set(windows), 33))
    mosaic = prescribed_mosaic(rng, 800, 816, 1e-17, rank=799)
    assert gram_certifies_full_rank(mosaic[:-1])  # every row but the last
    windows = [mosaic[:, j].reshape(100, 8) for j in range(816)]
    cases.append((trajectory_set(windows), 100))
    sides = set()
    for data, d in cases:
        m = data[0].m
        cols = sum(length - d + 1 for length in data.lengths)
        assert d * m >= 264
        sides.add(m * d * m * cols >= hankel_module._STRUCTURED_GRAM_WORK)
        verdict = svd_verdict(data, d)
        for route in on_each_route(monkeypatch):
            assert is_collectively_pe(data, d) == verdict, (route, d, m)
    assert sides == {False, True}


def test_pe_log_names_the_gram_route_and_a_margin_the_svd_confirms(caplog, monkeypatch):
    rng = np.random.default_rng(69)
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    for data, d in [
        (trajectory_set([rng.normal(size=(40, 2))]), 8),
        (trajectory_set(rng.normal(size=(T, 3)) for T in (30, 50, 21)), 12),
    ]:
        mosaic = mosaic_hankel(data, d)
        s = np.linalg.svd(mosaic, compute_uv=False)
        rows, cols = mosaic.shape
        for route in on_each_route(monkeypatch):
            caplog.clear()
            assert is_collectively_pe(data, d)
            (record,) = caplog.records
            message = record.getMessage()
            certified = f": cholesky of the {route} gram certifies {rows} x {cols}"
            assert certified in message
            bound = float(re.search(r"sigma_r/sigma_1 >= (\S+): True", message)[1])
            # the proved bound: at least the direct route's, and below the SVD's
            assert np.sqrt((rows + cols + 2) * np.finfo(float).eps) * 0.999 <= bound
            assert bound <= s[-1] / s[0]
    # a verdict the certificate leaves open names the route it failed on
    for route in on_each_route(monkeypatch):
        caplog.clear()
        assert not is_collectively_pe(trajectory_set([np.ones((30, 1))]), 2)
        assert f": svd after the {route} gram" in caplog.records[0].getMessage()



# -- the block-column factorization, at and past its block width ------------


def logged_verdict(data, d, route, caplog):
    """is_collectively_pe(data, d) and the step its one DEBUG line names,
    "cholesky" or "svd", checked against the line's unchanged wording."""
    caplog.clear()
    verdict = is_collectively_pe(data, d)
    (record,) = caplog.records
    message = record.getMessage()
    rows = d * data[0].m
    cols = sum(length - d + 1 for length in data.lengths)
    if f": cholesky of the {route} gram certifies {rows} x {cols}, " in message:
        assert verdict and message.endswith(": True"), message
        return verdict, "cholesky"
    assert f": svd after the {route} gram, sigma_r/sigma_1 = " in message, message
    assert message.endswith(f": {verdict}"), message
    return verdict, "svd"


def boundary_sets(rng, rows):
    """Two scalar input sets of depth-`rows` mosaics with 20 columns to
    spare over two trajectories: rich inputs, and inputs that repeat every
    rows - 1 samples, so the last mosaic row repeats the first and only the
    last diagonal block of the Gram matrix fails."""
    lengths = [rows - 1 + w for w in (rows // 2 + 10, rows - rows // 2 + 10)]
    rich = trajectory_set(rng.normal(size=(T, 1)) for T in lengths)
    periodic = trajectory_set(
        np.resize(rng.normal(size=rows - 1), (T, 1)) for T in lengths
    )
    return rich, periodic


@pytest.mark.parametrize(
    "rows",
    [_CHOLESKY_BLOCK - 1, _CHOLESKY_BLOCK, _CHOLESKY_BLOCK + 1, 2 * _CHOLESKY_BLOCK + 1],
)
def test_certificate_verdict_matches_svd_at_the_block_boundaries(rows, caplog, monkeypatch):
    rng = np.random.default_rng(rows)
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    rich, periodic = boundary_sets(rng, rows)
    # the rows above the last are certified: the factorization gets through
    # every block before the last one, and fails late
    assert gram_certifies_full_rank(mosaic_hankel(periodic, rows)[:-1])
    for data, verdict, step in ((rich, True, "cholesky"), (periodic, False, "svd")):
        assert svd_verdict(data, rows) is verdict
        for route in on_each_route(monkeypatch):
            assert logged_verdict(data, rows, route, caplog) == (verdict, step), route


@pytest.mark.parametrize("ratio", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16])
def test_certificate_verdict_matches_svd_across_conditioning_past_one_block(
    ratio, caplog, monkeypatch
):
    rng = np.random.default_rng(86)
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    rows, cols = _CHOLESKY_BLOCK + 1, _CHOLESKY_BLOCK + 17
    mosaic = prescribed_mosaic(rng, rows, cols, ratio)
    data = trajectory_set(mosaic[:, j].reshape(rows, 1) for j in range(cols))
    verdict = svd_verdict(data, rows)
    for route in on_each_route(monkeypatch):
        assert logged_verdict(data, rows, route, caplog)[0] == verdict, route


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
def test_certificate_verdict_past_one_block_matches_svd_on_scaled_data(
    scale, caplog, monkeypatch
):
    rng = np.random.default_rng(87)
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    rows = _CHOLESKY_BLOCK + 1
    for data, step in zip(boundary_sets(rng, rows), ("cholesky", "svd")):
        scaled = trajectory_set(t.inputs * scale for t in data)
        verdict = svd_verdict(scaled, rows)
        assert verdict == svd_verdict(data, rows)
        for route in on_each_route(monkeypatch):
            assert logged_verdict(scaled, rows, route, caplog) == (verdict, step), route


@pytest.mark.parametrize("width", [1, 3, 7])
def test_certificate_verdict_matches_svd_in_narrow_block_rows(
    width, svd_calls, monkeypatch
):
    # many block rows, some narrower than m: the structured route takes
    # the rows above a block row from several before it, and both routes
    # factor through many finished block rows
    monkeypatch.setattr(numerics_module, "_CHOLESKY_BLOCK", width)
    rng = np.random.default_rng(88)
    cases = list(deficient_sets(rng))
    for m, d in [(1, 12), (3, 5), (4, 6), (9, 2)]:
        cases.append((trajectory_set(rng.normal(size=(T, m)) for T in (20, 31)), d))
    verdicts = []
    for data, d in cases:
        verdict = svd_verdict(data, d)
        for route in on_each_route(monkeypatch):
            svd_calls.clear()
            assert is_collectively_pe(data, d) == verdict, (route, d)
            # every True is certified, every False goes to the SVD
            assert bool(svd_calls) != verdict, (route, d)
        verdicts.append(verdict)
    assert verdicts.count(True) == 4  # the rich sets


def test_pe_order_is_invariant_to_trajectory_order_and_input_scale():
    # metamorphic suite: reordering the trajectories permutes the mosaic's
    # columns, scaling by 2^k is exact, and scaling by 10^k rounds every
    # sample; none of them may move the excitation order. Half the sets
    # obey a short recursion, so their order sits below the shape ceiling.
    rng = np.random.default_rng(606)
    orders = set()
    for case in range(100):
        m = int(rng.integers(1, 3))
        lengths = rng.integers(3, 20, size=int(rng.integers(1, 4)))
        if case % 2:
            coeffs = rng.uniform(-0.6, 0.6, size=int(rng.integers(1, 4)))
            inputs = [recursion_input(rng, int(T), m, coeffs) for T in lengths]
        else:
            inputs = [rng.uniform(-1, 1, size=(int(T), m)) for T in lengths]
        base = pe_order(trajectory_set(inputs))
        orders.add(base)
        variants = [inputs[::-1], [inputs[i] for i in rng.permutation(len(inputs))]]
        variants += [[2.0**k * u for u in inputs] for k in range(-40, 41)]
        variants += [[10.0**k * u for u in inputs] for k in range(-3, 4)]
        for variant in variants:
            assert pe_order(trajectory_set(variant)) == base, case
    assert len(orders) >= 8
