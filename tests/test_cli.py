import hashlib
import json
import shutil
from importlib.resources import files

import numpy as np
import pytest

from willems import multiagent, trajectory_from_csv
from willems.cli import main
from willems.qp import QpSolution


def run(tmp_path, command, cfg, seed=None, out=None):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


def plant_section():
    return {
        "A": [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
              [0.0, 0.0, 0.9, 0.5], [0.0, 0.0, 0.0, 0.9]],
        "B": [[0.125], [0.5], [0.0], [0.0]],
        "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        "D": [[0.0], [0.0]],
    }


def bundled_config(name, **overrides):
    cfg = json.loads(files("willems").joinpath(f"configs/{name}").read_text())
    cfg.update(overrides)
    return cfg


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", "/does/not/exist.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert main(["unknown-command", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(tmp_path, "simulate", [1, 2], out=out) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_out_field_that_is_not_a_path_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "simulate", {"system": plant_section(), "T": 5, "out": 5}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'out'" in err


def test_missing_config_field_exits_2(tmp_path, capsys):
    assert run(tmp_path, "simulate", {"system": plant_section()}) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_simulate_writes_trajectory(tmp_path):
    out = tmp_path / "out"
    code = run(
        tmp_path,
        "simulate",
        {"system": plant_section(), "T": 10, "x0": [1.0, 0, 0, 0]},
        seed=3,
        out=out,
    )
    assert code == 0
    traj = trajectory_from_csv(str(out / "trajectory.csv"))
    assert traj.length == 10
    assert traj.states is not None and traj.outputs is not None
    assert np.allclose(traj.states[0], [1.0, 0, 0, 0])


def test_simulate_accepts_inline_inputs(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "system": plant_section(),
        "inputs": [[0.1], [0.2], [-0.1]],
    }
    assert run(tmp_path, "simulate", cfg, out=out) == 0
    traj = trajectory_from_csv(str(out / "trajectory.csv"))
    assert np.allclose(traj.inputs, [[0.1], [0.2], [-0.1]])


def test_check_pe_on_csv_and_inline(tmp_path, capsys):
    out = tmp_path / "out"
    run(tmp_path, "simulate", {"system": plant_section(), "T": 12}, seed=1, out=out)
    capsys.readouterr()
    cfg = {"trajectory": str(out / "trajectory.csv")}
    assert run(tmp_path, "check-pe", cfg) == 0
    said = capsys.readouterr().out
    assert "order" in said
    cfg = {"trajectories": [{"inputs": [[1.0], [2.0], [4.0], [9.0]]}]}
    assert run(tmp_path, "check-pe", cfg) == 0
    assert "order: 2" in capsys.readouterr().out


def test_verify_theorem1_random_recipe(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"random": {"count": 6, "n_max": 4, "m_max": 2, "p_max": 2,
                      "tau_max": 2, "L_max": 3}}
    assert run(tmp_path, "verify-theorem1", cfg, seed=2, out=out) == 0
    report = (out / "theorem1_report.csv").read_text().strip().split("\n")
    assert report[0].startswith("case,")
    assert len(report) == 7
    assert all(",holds," in line for line in report[1:])
    capsys.readouterr()


def test_verify_theorem1_state_condition_counterexample(tmp_path, capsys):
    # data gathered from the origin never covers the uncontrollable pair,
    # so a start on the third coordinate is flagged
    out = tmp_path / "out"
    cfg = {
        "system": plant_section(),
        "tau": 2,
        "L": 3,
        "x0_columns": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "xbar0_samples": [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
    }
    assert run(tmp_path, "verify-theorem1", cfg, seed=5, out=out) == 0
    rows = (out / "state_condition.csv").read_text().strip().split("\n")
    first = rows[1].split(",")
    second = rows[2].split(",")
    assert first[1] == "False" and first[3] == "False"
    assert float(first[2]) > 1e-3
    assert second[1] == "True" and second[3] == "True"
    capsys.readouterr()


def test_verify_theorem1_pe_gate_exits_3(tmp_path, capsys):
    cfg = {"system": plant_section(), "tau": 1, "L": 3, "length": 6}
    assert run(tmp_path, "verify-theorem1", cfg, seed=5, out=tmp_path / "o") == 3
    assert "hypothesis violated" in capsys.readouterr().err


def test_deepc_command_runs_bundled_experiment(tmp_path, capsys):
    bundled = bundled_config("fig1_deepc.json")
    bundled["K"] = 40  # shorten the run, keep everything else
    out = tmp_path / "out"
    assert run(tmp_path, "deepc", bundled, out=out) == 0
    said = capsys.readouterr().out
    assert "controller agreement" in said
    log_rows = (out / "closed_loop.csv").read_text().strip().split("\n")
    assert len(log_rows) == 1 + 41
    diff_rows = (out / "controller_diff.csv").read_text().strip().split("\n")
    assert diff_rows[0] == "t,input_diff,objective_diff"
    worst = max(float(r.split(",")[1]) for r in diff_rows[1:])
    assert worst <= 1e-5


def test_deepc_single_control_step_when_k_equals_t(tmp_path, capsys):
    bundled = bundled_config("fig1_deepc.json")
    bundled["K"] = bundled["T"]
    bundled["controller"] = "deepc"
    out = tmp_path / "out"
    assert run(tmp_path, "deepc", bundled, out=out) == 0
    rows = (out / "closed_loop.csv").read_text().strip().split("\n")
    phases = [r.split(",")[1] for r in rows[1:]]
    assert phases.count("control") == 1  # the loop includes t = K itself
    capsys.readouterr()


def test_deepc_too_short_data_exits_2_before_drawing(tmp_path, capsys):
    # fig1 needs excitation order delta + N + L = 13 (its minimal polynomial
    # has degree delta = n = 4) from one input, hence
    # T >= 2 * 13 - 1 = 25; with T = 24 no draw could ever succeed
    bundled = bundled_config("fig1_deepc.json")
    bundled["T"] = 24
    out = tmp_path / "out"
    assert run(tmp_path, "deepc", bundled, out=out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "T >= 25" in err
    assert not out.exists()


def test_deepc_infeasible_run_exits_4(tmp_path, capsys):
    cfg = {
        "system": {"A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
        "N": 1, "L": 2, "T": 8, "K": 12,
        "Q": [[1.0]], "R": [[0.5]], "r": [0.0],
        "y_min": -0.5, "y_max": 0.5,
        "excitation_low": -0.1, "excitation_high": 0.1,
        "x0": [1.0],
        "controller": "mpc",
    }
    assert run(tmp_path, "deepc", cfg, seed=0, out=tmp_path / "o") == 4
    assert "aborted" in capsys.readouterr().out


def test_identify_command_full_pipeline(tmp_path, capsys):
    bundled = bundled_config("fig2_multiagent.json")
    bundled["sweep_agents"] = [3, 4]
    out = tmp_path / "out"
    assert run(tmp_path, "identify", bundled, out=out) == 0
    said = capsys.readouterr().out
    assert "recovery errors" in said
    recovery = (out / "recovery_report.csv").read_text().strip().split("\n")
    by_name = {r.split(",")[0]: float(r.split(",")[1]) for r in recovery[1:]}
    assert by_name["Abar"] <= 1e-6
    assert by_name["Bbar"] <= 1e-6
    assert by_name["E"] == 0.0
    sweep = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(sweep) == 1 + 2 * 2  # two rules, two agent counts


@pytest.mark.parametrize(
    "anchor",
    [
        "abc",
        [0, 1],
        [0, 0.5, 1],
        [0, -1, 1],
        [0, 0, 0],
        [0, 0, 2],
        [9, 9, 1],
        [2, 0, 1],
    ],
    ids=[
        "text",
        "pair",
        "agent-not-integral",
        "agent-negative",
        "sign-0",
        "sign-2",
        "outside-grid",
        "edge-past-last",
    ],
)
def test_identify_bad_anchor_exits_2_before_any_simulation(
    tmp_path, capsys, monkeypatch, anchor
):
    # the bundled star has 2 edges and 3 agents: a 2 x 3 grid of blocks
    calls = []
    monkeypatch.setattr(multiagent, "simulate", lambda *args: calls.append(args))
    bundled = bundled_config(
        "fig2_multiagent.json", anchor=anchor, sweep_agents=[3]
    )
    assert run(tmp_path, "identify", bundled, out=tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'anchor'" in err
    assert not calls


def test_identify_anchor_on_a_zero_block_exits_5(tmp_path, capsys):
    # edge 0 of the star joins agents 0 and 1, so its block at agent 2 is
    # zero: the anchored blocks lack the rank the shift solve needs, which
    # only the data show
    bundled = bundled_config(
        "fig2_multiagent.json", anchor=[0, 2, 1], sweep_agents=[3]
    )
    assert run(tmp_path, "identify", bundled, out=tmp_path / "o") == 5
    assert "numerical failure" in capsys.readouterr().err


def test_identify_single_agent_skips(tmp_path, capsys):
    cfg = {
        "Abar": [[0.9, 0.1], [0.0, 0.8]],
        "Bbar": [[0.0], [1.0]],
        "N": 1,
        "T": 40,
        "sweep_agents": [3],
    }
    assert run(tmp_path, "identify", cfg, out=tmp_path / "o") == 0
    said = capsys.readouterr().out
    assert "skipped" in said


def csv_without_timing(path):
    rows = [line.split(",") for line in path.read_text().split("\n")]
    keep = [i for i, h in enumerate(rows[0]) if h not in ("solve_ms", "elapsed_ms")]
    return [[r[i] for i in keep] if len(r) > 1 else r for r in rows]


def test_outputs_are_reproducible_bitwise(tmp_path, capsys):
    # one test over every command that writes CSVs, timing columns aside
    runs = [
        ("simulate", {"system": plant_section(), "T": 18, "seed": 11}),
        ("deepc", bundled_config("fig1_deepc.json", K=40)),
        ("identify", bundled_config("fig2_multiagent.json", sweep_agents=[3, 4])),
        ("verify-theorem1", {"random": {"count": 5}, "seed": 2}),
    ]
    for command, cfg in runs:
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        assert run(tmp_path, command, cfg, out=out1) == 0
        assert run(tmp_path, command, cfg, out=out2) == 0
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names and names == sorted(p.name for p in out2.glob("*.csv"))
        for name in names:
            first, second = out1 / name, out2 / name
            assert csv_without_timing(first) == csv_without_timing(second), name
    capsys.readouterr()


# SHA-256 of each CSV the bundled commands write, with the wall-clock
# columns dropped, cells joined with "," and rows with "\n" (no trailing
# newline). Pinned with numpy 2.4.6 and the OpenBLAS 0.3.31 its wheel
# bundles (DYNAMIC_ARCH, Haswell kernels); another numpy or BLAS build may
# round the last digits differently and move them.
BUNDLED_SHA256 = {
    "deepc": {
        "closed_loop.csv": "fe3f956aa6f7ada09297bacff3c3ca58eff55917e5be111c61d965b580b494a1",
        "closed_loop_plot.csv": "862214f0e524cbeb79f63c1cc95a667b6623885a6c23fe28cd9320b2565432dd",
        "controller_diff.csv": "7b95f706d3833c41fc3f45002c3d3dc2692bd7d52202276dcc292af6b4e309ec",
    },
    "identify": {
        "recovery_report.csv": "6bd63ff58f9eac13c7319984fb03843f5c336bbbb8094d87b5e8f9f196e412cf",
        "sweep.csv": "299105f0e66b08efcf33878da90553ce395f6175919cdb9470d204111234ac3d",
    },
    "verify-theorem1": {
        "theorem1_report.csv": "ac656075073e0ef161aa924e2f7c61c8751bf62e8ddbeb2783a6cb6003fe40ba",
    },
}


@pytest.mark.parametrize("command", sorted(BUNDLED_SHA256))
def test_bundled_outputs_keep_their_bytes(tmp_path, capsys, command):
    cfg = {
        "deepc": bundled_config("fig1_deepc.json"),
        "identify": bundled_config("fig2_multiagent.json"),
        "verify-theorem1": {"random": {"count": 50}, "seed": 3},
    }[command]
    out = tmp_path / "out"
    assert run(tmp_path, command, cfg, out=out) == 0
    digests = {}
    for path in out.glob("*.csv"):
        text = "\n".join(",".join(row) for row in csv_without_timing(path))
        digests[path.name] = hashlib.sha256(text.rstrip("\n").encode()).hexdigest()
    assert digests == BUNDLED_SHA256[command]
    capsys.readouterr()


def csv_bytes(out):
    return {p.name: csv_without_timing(p) for p in out.glob("*.csv")}


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("simulate", {"system": plant_section(), "T": 6}, "x0"),
        ("simulate", {"system": plant_section(), "T": 6}, "seed"),
        ("simulate", {"system": plant_section(), "T": 6}, "input_low"),
        ("deepc", bundled_config("fig1_deepc.json", K=30), "y_max"),
        ("deepc", bundled_config("fig1_deepc.json", K=30), "controller"),
        ("verify-theorem1", {"random": {"count": 2}}, "random.n_max"),
        ("check-pe", {"trajectories": [{"inputs": [1, 3, 2]}]}, "trajectory"),
    ],
    ids=[
        "simulate-x0",
        "simulate-seed",
        "simulate-input-low",
        "deepc-y-max",
        "deepc-controller",
        "theorem1-random-n-max",
        "check-pe-trajectory",
    ],
)
def test_null_field_writes_what_the_absent_field_writes(
    tmp_path, capsys, command, cfg, field
):
    section, _, sub = field.rpartition(".")
    with_null = json.loads(json.dumps(cfg))
    (with_null[section] if section else with_null)[sub] = None
    without = json.loads(json.dumps(with_null))
    del (without[section] if section else without)[sub]
    a, b = tmp_path / "null", tmp_path / "absent"
    assert run(tmp_path, command, with_null, out=a) == 0
    said = capsys.readouterr()
    assert run(tmp_path, command, without, out=b) == 0
    assert capsys.readouterr().out.replace(str(b), "") == said.out.replace(str(a), "")
    assert csv_bytes(a) == csv_bytes(b)


@pytest.mark.parametrize("order", [13, 23, 99])
def test_deepc_ignores_a_stray_pe_order(tmp_path, capsys, order):
    # the data are excited once, at delta + N + L; an old config's
    # pe_order field is ignored like any other unknown field
    cfg = bundled_config("fig1_deepc.json", K=30)
    a, b = tmp_path / "with", tmp_path / "without"
    assert run(tmp_path, "deepc", {**cfg, "pe_order": order}, out=a) == 0
    assert run(tmp_path, "deepc", cfg, out=b) == 0
    assert csv_bytes(a) == csv_bytes(b)
    capsys.readouterr()


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = {"system": plant_section(), "T": 18, "seed": 1}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(tmp_path, "simulate", cfg, out=out1)
    run(tmp_path, "simulate", cfg, seed=9, out=out2)
    t1 = trajectory_from_csv(str(out1 / "trajectory.csv"))
    t2 = trajectory_from_csv(str(out2 / "trajectory.csv"))
    assert not np.array_equal(t1.inputs, t2.inputs)


def test_deepc_max_iter_step_exits_5_and_logs_its_status(
    tmp_path, capsys, monkeypatch
):
    def stalled(prob, **_):
        return QpSolution(np.zeros(prob.n), 0.0, "max_iter", 1.0, 100000)

    monkeypatch.setattr("willems.predictive.solve_qp", stalled)
    cfg = bundled_config("fig1_deepc.json", K=30)
    out = tmp_path / "out"
    assert run(tmp_path, "deepc", cfg, out=out) == 5
    assert "aborted" in capsys.readouterr().out
    rows = (out / "closed_loop.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + cfg["T"] + 1
    assert rows[-1].split(",")[-2] == "max_iter"
    assert all(r.split(",")[-2] == "excite" for r in rows[1:-1])


def test_deepc_accepts_weights_asymmetric_within_tolerance(tmp_path, capsys):
    # the stored weight is (Q + Q')/2, so the QP's P = 2 kron(I, Q) is
    # symmetric even though Q itself is not quite
    cfg = bundled_config("fig1_deepc.json", Q=[[1.0, 8e-11], [0.0, 1.0]], K=30)
    assert run(tmp_path, "deepc", cfg, out=tmp_path / "o") == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "override",
    [
        {"u_max": [1, 2]},
        {"u_max": float("nan")},
        {"excitation_low": 0.5, "excitation_high": 0.5},
        {"u_min": 1.5},
        {"y_min": float("inf")},
    ],
    ids=[
        "wrong-shape",
        "nan",
        "empty-excitation-range",
        "input-bounds-cross",
        "output-lower-bound-infinite",
    ],
)
def test_deepc_bad_controller_config_exits_2_before_drawing(
    tmp_path, capsys, override
):
    out = tmp_path / "out"
    cfg = bundled_config("fig1_deepc.json", **override)
    assert run(tmp_path, "deepc", cfg, out=out) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        None,
        "t,u_0,y_0\n0,0.5,1.0\n1,0.25\n",
        "t,u_0\n0,0.5\n1,nan\n",
        "t,u_0\n",
    ],
    ids=["missing", "ragged", "nan", "no-rows"],
)
def test_unreadable_trajectory_csv_exits_2(tmp_path, capsys, content):
    path = tmp_path / "traj.csv"
    if content is not None:
        path.write_text(content)
    for command, cfg in (
        ("check-pe", {"trajectory": str(path)}),
        ("simulate", {"system": plant_section(), "input": str(path)}),
    ):
        assert run(tmp_path, command, cfg, out=tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        (
            "check-pe",
            {"trajectories": [{"inputs": [[1.0], [float("nan")], [2.0]]}]},
            "trajectories[0].inputs",
        ),
        ("check-pe", {"trajectories": []}, "trajectories"),
        (
            "simulate",
            {"system": plant_section(), "inputs": [[0.1], [float("nan")]]},
            "inputs",
        ),
        ("simulate", {"system": plant_section(), "inputs": [[1.0, 2.0]]}, "inputs"),
        ("simulate", {"system": plant_section(), "T": 5, "x0": [1.0, 0.0]}, "x0"),
        (
            "simulate",
            {"system": plant_section(), "T": 5, "x0": [float("nan"), 0, 0, 0]},
            "x0",
        ),
        (
            "simulate",
            {"system": plant_section(), "T": 5, "input_low": 1.0, "input_high": 1.0},
            "input_low",
        ),
        (
            "identify",
            bundled_config("fig2_multiagent.json", rules=["corollary2", "bogus"]),
            "rules",
        ),
        ("identify", bundled_config("fig2_multiagent.json", tau=0), "tau"),
        ("identify", bundled_config("fig2_multiagent.json", T=0), "T"),
        # three four-state agents: windows of 13 samples
        ("identify", bundled_config("fig2_multiagent.json", T=12), "T"),
        ("identify", bundled_config("fig2_multiagent.json", kmax=0), "kmax"),
        # recovery needs Markov parameters through index nbar + 1 = 5
        ("identify", bundled_config("fig2_multiagent.json", kmax=4), "kmax"),
        ("identify", bundled_config("fig2_multiagent.json", kmax=13), "kmax"),
        (
            "check-pe",
            {"trajectories": [{"inputs": [[1.0], [2.0]]}, {"inputs": [[1.0, 2.0]]}]},
            "trajectories",
        ),
        ("verify-theorem1", {"system": plant_section(), "tau": 0, "L": 3}, "tau"),
        ("verify-theorem1", {"system": plant_section(), "tau": 2, "L": 0}, "L"),
        # the plant's minimal polynomial has degree 4
        (
            "verify-theorem1",
            {"system": plant_section(), "tau": 2, "L": 3, "delta": 2},
            "delta",
        ),
        ("verify-theorem1", {"random": {"count": 3, "n_max": 1}}, "n_max"),
        ("verify-theorem1", {"random": {"count": 0}}, "count"),
        ("verify-theorem1", {"random": {"count": "many"}}, "count"),
        (
            "verify-theorem1",
            {"system": plant_section(), "tau": 2, "L": 3, "length": 0},
            "length",
        ),
        (
            "verify-theorem1",
            {"system": plant_section(), "tau": 2, "L": 3, "x0_columns": [[1.0]] * 4},
            "x0_columns",
        ),
        (
            "verify-theorem1",
            {
                "system": plant_section(), "tau": 2, "L": 3,
                "xbar0_samples": [[1.0, 2.0]],
            },
            "xbar0_samples",
        ),
        ("identify", bundled_config("fig2_multiagent.json", tau=1.7), "tau"),
        ("identify", bundled_config("fig2_multiagent.json", tau=True), "tau"),
        ("identify", bundled_config("fig2_multiagent.json", N="three"), "N"),
        (
            "identify",
            bundled_config("fig2_multiagent.json", sweep_agents=[3, "x"]),
            "sweep_agents[1]",
        ),
        (
            "identify",
            bundled_config("fig2_multiagent.json", sweep_agents=[0]),
            "sweep_agents[0]",
        ),
        (
            "identify",
            bundled_config("fig2_multiagent.json", input_low="low"),
            "input_low",
        ),
        ("verify-theorem1", {"random": {"count": 2.9}}, "count"),
        (
            "verify-theorem1",
            {"system": plant_section(), "tau": 2, "L": 3, "xbar0_samples": True},
            "xbar0_samples",
        ),
        ("simulate", {"system": plant_section(), "T": "ten"}, "T"),
        ("deepc", bundled_config("fig1_deepc.json", N=4.9), "N"),
        ("deepc", bundled_config("fig1_deepc.json", K=80.5), "K"),
        (
            "deepc",
            bundled_config("fig1_deepc.json", excitation_high=float("inf")),
            "excitation_high",
        ),
        ("simulate", {"system": plant_section(), "T": 5, "seed": "abc"}, "seed"),
        ("identify", bundled_config("fig2_multiagent.json", Abar="x"), "Abar"),
        (
            "identify",
            bundled_config("fig2_multiagent.json", graph="given", edges=5),
            "edges",
        ),
        (
            "identify",
            bundled_config(
                "fig2_multiagent.json", graph="given", edges=[[0.5, 1]]
            ),
            "edges[0]",
        ),
        (
            "identify",
            bundled_config(
                "fig2_multiagent.json", graph="given", edges=[[0, 1], [2, True]]
            ),
            "edges[1]",
        ),
        ("check-pe", {"trajectories": 5}, "trajectories"),
        ("simulate", {"system": plant_section(), "T": 5, "x0": "abc"}, "x0"),
        ("simulate", {"system": plant_section(), "T": 5, "out_name": 5}, "out_name"),
        (
            "verify-theorem1",
            {"system": plant_section(), "tau": 2, "L": 3, "x0_columns": "abc"},
            "x0_columns",
        ),
        ("simulate", {"system": 5, "T": 5}, "system"),
        ("verify-theorem1", {"random": [1, 2]}, "random"),
        ("deepc", bundled_config("fig1_deepc.json", u_max={"a": 1}), "u_max"),
        ("deepc", bundled_config("fig1_deepc.json", x0=[0.0, 0.5]), "x0"),
        ("deepc", bundled_config("fig1_deepc.json", x0=["a", "b"]), "x0"),
        ("deepc", bundled_config("fig1_deepc.json", Q=[[1.0]], r=[0.0]), "Q"),
        ("identify", bundled_config("fig2_multiagent.json", rules=True), "rules"),
        (
            "identify",
            bundled_config("fig2_multiagent.json", input_low=0.2),
            "input_low",
        ),
        ("simulate", {"system": plant_section(), "inputs": {"a": 1}}, "inputs"),
        ("simulate", {"system": plant_section(), "input": [[0.1]]}, "input"),
        # an integer is not a path: open() would take it as a descriptor
        ("simulate", {"system": plant_section(), "input": 0}, "input"),
        ("simulate", {"system": plant_section(), "input": 1}, "input"),
        # JSON booleans and numeric strings are not numbers, at any depth
        ("deepc", bundled_config("fig1_deepc.json", u_max=True), "u_max"),
        ("deepc", bundled_config("fig1_deepc.json", u_max="0.5"), "u_max"),
        ("deepc", bundled_config("fig1_deepc.json", r=[True, "1"]), "r"),
        ("deepc", bundled_config("fig1_deepc.json", Q=[[1, 0], [0, True]]), "Q"),
        ("deepc", bundled_config("fig1_deepc.json", x0=[0, 0, "0.5", 0.2]), "x0"),
        (
            "simulate",
            {"system": {**plant_section(), "D": [[0.0], [False]]}, "T": 5},
            "D",
        ),
        ("simulate", {"system": plant_section(), "inputs": [[0.1], ["0.2"]]}, "inputs"),
        ("deepc", bundled_config("fig1_deepc.json", u_max=10**400), "u_max"),
        # a non-finite reference is rejected before the excitation draw
        ("deepc", bundled_config("fig1_deepc.json", r=[float("nan"), 0.1]), "r"),
        ("deepc", bundled_config("fig1_deepc.json", r=[float("inf"), 0.1]), "r"),
    ],
    ids=[
        "check-pe-nan",
        "check-pe-empty",
        "simulate-nan",
        "simulate-wide-inputs",
        "simulate-x0-dimension",
        "simulate-x0-nan",
        "simulate-empty-input-range",
        "identify-unknown-rule",
        "identify-tau-0",
        "identify-T-0",
        "identify-T-below-state-dimension",
        "identify-kmax-0",
        "identify-kmax-below-recovery",
        "identify-kmax-above-state-dimension",
        "check-pe-mixed-input-widths",
        "theorem1-tau-0",
        "theorem1-L-0",
        "theorem1-delta-below-min-poly",
        "theorem1-n_max-1",
        "theorem1-count-0",
        "theorem1-count-not-an-integer",
        "theorem1-length-0",
        "theorem1-too-few-x0-columns",
        "theorem1-xbar0-dimension",
        "identify-tau-not-integral",
        "identify-tau-boolean",
        "identify-N-not-a-number",
        "identify-sweep-agent-not-a-number",
        "identify-sweep-agent-0",
        "identify-input-low-not-a-number",
        "theorem1-count-not-integral",
        "theorem1-xbar0-boolean",
        "simulate-T-not-a-number",
        "deepc-N-not-integral",
        "deepc-K-not-integral",
        "deepc-excitation-high-infinite",
        "seed-not-a-number",
        "identify-Abar-not-a-matrix",
        "identify-edges-not-a-list",
        "identify-edge-endpoint-not-integral",
        "identify-edge-endpoint-boolean",
        "check-pe-trajectories-not-a-list",
        "simulate-x0-not-numeric",
        "simulate-out-name-not-a-name",
        "theorem1-x0-columns-not-numeric",
        "system-not-an-object",
        "theorem1-random-not-an-object",
        "deepc-bound-an-object",
        "deepc-x0-dimension",
        "deepc-x0-not-numeric",
        "deepc-weights-not-matching-the-plant",
        "identify-rules-not-a-list",
        "identify-input-range-reversed",
        "simulate-inputs-an-object",
        "simulate-input-a-list",
        "simulate-input-stdin-descriptor",
        "simulate-input-stdout-descriptor",
        "deepc-bound-boolean",
        "deepc-bound-numeric-string",
        "deepc-reference-boolean-and-string",
        "deepc-weight-boolean-entry",
        "deepc-x0-numeric-string-entry",
        "simulate-system-boolean-entry",
        "simulate-inputs-numeric-string-entry",
        "deepc-bound-beyond-float-range",
        "deepc-r-nan",
        "deepc-r-inf",
    ],
)
def test_bad_inline_inputs_exit_2_naming_the_field(
    tmp_path, capsys, command, cfg, field
):
    # rejected before anything runs, so nothing is written
    out = tmp_path / "o"
    assert run(tmp_path, command, cfg, out=out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}'" in err
    assert not out.exists()


# every value the sweep below puts in place of each config field in turn
MALFORMED = [
    {"a": 1}, ["a", "b"], "abc", True, None, [[1, 2], [3]], -1, 1.5, [], float("inf")
]


def test_malformed_fields_never_raise_and_exit_2_writing_nothing(tmp_path, capsys):
    # small base configs, one per form of each command; the fields nested
    # in `system` and `random` are swept in their first base only
    csv = tmp_path / "traj.csv"
    csv.write_text("t,u_0\n" + "".join(f"{t},{t * t % 7 - 3}\n" for t in range(12)))
    recipe = {"count": 1, "n_max": 2, "m_max": 1, "p_max": 1, "tau_max": 1, "L_max": 1}
    plant = plant_section()
    bases = [
        (
            "simulate",
            {"system": plant, "T": 6, "x0": [0, 0, 0, 0], "input_low": -1,
             "input_high": 1, "out_name": "t.csv"},
        ),
        ("simulate", {"system": plant, "input": str(csv)}),
        ("simulate", {"system": plant, "inputs": [[0.1], [0.2]]}),
        ("check-pe", {"trajectories": [{"inputs": [[1.0], [2.0], [4.0]]}, str(csv)]}),
        ("check-pe", {"trajectory": str(csv)}),
        ("verify-theorem1", {"random": recipe}),
        (
            "verify-theorem1",
            {"system": plant, "tau": 2, "L": 1, "delta": 4, "length": 14,
             "x0_columns": [[0.0, 0.0]] * 4, "xbar0_samples": 2},
        ),
        ("deepc", bundled_config("fig1_deepc.json", K=25)),
        ("identify", bundled_config("fig2_multiagent.json", sweep_agents=[3])),
    ]
    configs, nested = [], set()
    for command, base in bases:
        for key, value in base.items():
            configs += [(command, key, {**base, key: bad}) for bad in MALFORMED]
            if isinstance(value, dict) and key not in nested:
                nested.add(key)
                for sub in value:
                    configs += [
                        (command, f"{key}.{sub}", {**base, key: {**value, sub: bad}})
                        for bad in MALFORMED
                    ]
    assert len(configs) == 580
    for k, (command, field, cfg) in enumerate(configs):
        out = tmp_path / f"o{k}"
        code = run(tmp_path, command, cfg, out=out)
        err = capsys.readouterr().err
        assert code != 5, (command, field, cfg[field.split(".")[0]], err)
        if code == 2:
            assert err.startswith("config error") and not out.exists(), (command, field)
