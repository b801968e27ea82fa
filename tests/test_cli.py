import dataclasses
import hashlib
import importlib
import json
import logging
import re
import shutil
from importlib.resources import files

import numpy as np
import pytest

from conftest import bordered_face_errors
from willems import cli, multiagent, qp, trajectory_from_csv
from willems.cli import main
from willems.qp import QpSolution
from willems.subspace import Verdict


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


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    # the parser is built once; a usage error leaves it as it was, so the
    # same error prints the same message and the next command still parses
    argv = ["unknown-command", "--config", "cfg.json"]
    assert main(argv) == 2
    first = capsys.readouterr().err
    assert main(argv) == 2 and capsys.readouterr().err == first
    cfg = {"trajectories": [[1.0, -1.0, 2.0]]}
    assert run(tmp_path, "check-pe", cfg) == 0
    assert cli._parser.cache_info().currsize == 1


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
    cfg = {"trajectories": [str(out / "trajectory.csv")]}
    assert run(tmp_path, "check-pe", cfg) == 0
    said = capsys.readouterr().out
    assert "order" in said
    cfg = {"trajectories": [[[1.0], [2.0], [4.0], [9.0]]]}
    assert run(tmp_path, "check-pe", cfg) == 0
    assert "order: 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("check-pe", {"trajectory": {"inputs": [1.0, -1.0, 2.0]}}, "trajectories"),
        ("simulate", {"system": plant_section(), "length": 6}, "T"),
        ("simulate", {"system": plant_section(), "input": "traj.csv"}, "inputs"),
        (
            "check-pe",
            {"trajectories": [{"inputs": [1.0, -1.0, 2.0]}]},
            "trajectories[0]",
        ),
    ],
    ids=["check-pe-trajectory", "simulate-length", "simulate-input", "check-pe-object"],
)
def test_a_retired_alias_exits_2_naming_the_field_read(
    tmp_path, capsys, command, cfg, field
):
    out = tmp_path / "o"
    assert run(tmp_path, command, cfg, out=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, fields, field",
    [
        ({"seed": -1}, {}, "seed"),
        ({}, {"seed": -1}, "seed"),
        ({"out": ""}, {}, "out"),
        ({}, {"out": ""}, "out"),
        ({"out": "file.txt"}, {}, "out"),
        ({}, {"out": "file.txt"}, "out"),
    ],
    ids=[
        "seed-flag-negative",
        "seed-field-negative",
        "out-flag-empty",
        "out-field-empty",
        "out-flag-a-file",
        "out-field-a-file",
    ],
)
def test_a_flag_is_read_as_the_field_it_names(
    tmp_path, capsys, monkeypatch, flags, fields, field
):
    # --seed and --out set the config's fields, so the fields' checks catch
    # a bad flag before any work: exit 2, naming the field, nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("kept")
    cfg = {"random": {"count": 1}, **fields}
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(tmp_path, "verify-theorem1", cfg, **flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{field}'" in err
    # the config file is written anew, and nothing else
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*before, "cfg.json"})
    assert (tmp_path / "file.txt").read_text() == "kept"


def test_an_output_that_cannot_be_written_exits_2_naming_its_path(tmp_path, capsys):
    # a directory below a file passes the `out` check, since it does not
    # exist, and fails only when the first CSV is written
    (tmp_path / "file.txt").write_text("kept")
    out = tmp_path / "file.txt" / "sub"
    assert run(tmp_path, "verify-theorem1", {"random": {"count": 1}}, out=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output") and str(out) in err


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


def test_verify_theorem1_image_failure_exits_5(tmp_path, capsys, monkeypatch):
    # a FAILS verdict for the second of three cases: the report is still
    # written, with that case's verdict, and the command exits 5
    check = cli.pe_image_check
    reports = []

    def second_fails(*args):
        report = check(*args)
        reports.append(report)
        if len(reports) == 2:
            report = dataclasses.replace(report, verdict=Verdict.FAILS, gap=0.5)
        return report

    monkeypatch.setattr(cli, "pe_image_check", second_fails)
    out = tmp_path / "out"
    cfg = {"random": {"count": 3}}
    assert run(tmp_path, "verify-theorem1", cfg, seed=2, out=out) == 5
    said = capsys.readouterr().out
    assert "image check: 2/3 hold" in said
    assert "image equality FAILED in at least one case" in said
    report = (out / "theorem1_report.csv").read_text().strip().split("\n")
    verdicts = [line.split(",")[7] for line in report[1:]]
    assert verdicts == ["holds", "fails", "holds"]


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
    monkeypatch.setattr(multiagent, "simulate_set", lambda *args: calls.append(args))
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


@pytest.mark.parametrize(
    "network, field, value",
    [
        ({"N": 1}, "kmax", "x"),
        ({"N": 1}, "anchor", "bad"),
        ({"N": 3, "edges": []}, "kmax", "x"),
        ({"N": 3, "edges": []}, "anchor", [0, 0, 2]),
    ],
    ids=["one-agent-kmax", "one-agent-anchor", "no-edges-kmax", "no-edges-anchor-sign"],
)
def test_identify_without_edges_still_reads_kmax_and_anchor(
    tmp_path, capsys, network, field, value
):
    # nothing is identified without a measured edge, but the fields' kinds
    # and the anchor's sign are read all the same
    cfg = {
        "Abar": [[0.9, 0.1], [0.0, 0.8]],
        "Bbar": [[0.0], [1.0]],
        "T": 40,
        "sweep_agents": [3],
        **network,
        field: value,
    }
    out = tmp_path / "o"
    assert run(tmp_path, "identify", cfg, out=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{field}'" in err
    assert not out.exists()


def csv_without_timing(path, drop=()):
    rows = [line.split(",") for line in path.read_text().split("\n")]
    dropped = ("solve_ms", "elapsed_ms", *drop)
    keep = [i for i, h in enumerate(rows[0]) if h not in dropped]
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
        "closed_loop.csv": "627bc62f0b6851c24847055a023ca6377386b3a4ca2b80faf0af953b1cd00c5a",
        "closed_loop_plot.csv": "aa6176ba75590559e9b7daa791805dda682c4cdcc1488bd611a9ecbbb8899576",
        "controller_diff.csv": "68ebec428605914cf793ef1170ecb37e8be0aff582bde656c01635ff9575c18d",
    },
    "identify": {
        "recovery_report.csv": "e4451e72d68f8a4e4f9c374678f65a2e56e2cd8c9ba25fbec87e59d423095dbd",
        "sweep.csv": "299105f0e66b08efcf33878da90553ce395f6175919cdb9470d204111234ac3d",
    },
    "verify-theorem1": {
        "theorem1_report.csv": "64a750739007306bf9bdf84b39ce73f2f1061279532443b41661acebce5012db",
    },
}
# the same bundled closed_loop.csv with `iterations` dropped too: that
# column counts the solver's path, the rest are its answers
DEEPC_ANSWERS_SHA256 = "e85d56efc691f41b1f5eecbd4b455da9543af41519d63131f6089fdd23f48678"
# the same bundled closed_loop.csv reduced to t, phase, iterations and
# status: the path the solver took at each step, without its answers
DEEPC_PATH_SHA256 = "486554cbebca481fd5b40260fb0a4a3f6f9593fd1f8b6fb2bdabadad95821886"
DEEPC_ANSWER_COLUMNS = ("u_0", "y_0", "y_1", "objective", "kkt_residual")
# the same bundled theorem1_report.csv with `gap` dropped: the gap is a
# rounding-level diagnostic, the rest are the cases and their verdicts
THEOREM1_VERDICTS_SHA256 = "a4c2bb4ab53ca2a095f7b3b9df92ef2cec344f59f894ec980cf81ce194d9138a"
# the same bundled recovery_report.csv with `frobenius_error` dropped: the
# quantities it reports, in their order
RECOVERY_QUANTITIES_SHA256 = "31732c1f2f116d4a97039ddc0363f00934a3651b0e781934102b436f0db0d0eb"
# the same bundled controller_diff.csv reduced to t: the steps compared,
# without the rounding-level differences
DEEPC_DIFF_STEPS_SHA256 = "8e082aae96ec40391c32a5f3557a65fa54ac9f32a7e299a8b42a60b02ffb4e21"
DEEPC_DIFF_COLUMNS = ("input_diff", "objective_diff")


def csv_digest(path, drop=()):
    text = "\n".join(",".join(row) for row in csv_without_timing(path, drop))
    return hashlib.sha256(text.rstrip("\n").encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(BUNDLED_SHA256))
def test_bundled_outputs_keep_their_bytes(tmp_path, capsys, command):
    cfg = {
        "deepc": bundled_config("fig1_deepc.json"),
        "identify": bundled_config("fig2_multiagent.json"),
        "verify-theorem1": {"random": {"count": 50}, "seed": 3},
    }[command]
    out = tmp_path / "out"
    assert run(tmp_path, command, cfg, out=out) == 0
    digests = {path.name: csv_digest(path) for path in out.glob("*.csv")}
    assert digests == BUNDLED_SHA256[command]
    if command == "deepc":
        answers = csv_digest(out / "closed_loop.csv", drop=("iterations",))
        assert answers == DEEPC_ANSWERS_SHA256
        path = csv_digest(out / "closed_loop.csv", drop=DEEPC_ANSWER_COLUMNS)
        assert path == DEEPC_PATH_SHA256
        steps = csv_digest(out / "controller_diff.csv", drop=DEEPC_DIFF_COLUMNS)
        assert steps == DEEPC_DIFF_STEPS_SHA256
    if command == "verify-theorem1":
        verdicts = csv_digest(out / "theorem1_report.csv", drop=("gap",))
        assert verdicts == THEOREM1_VERDICTS_SHA256
    if command == "identify":
        quantities = csv_digest(
            out / "recovery_report.csv", drop=("frobenius_error",)
        )
        assert quantities == RECOVERY_QUANTITIES_SHA256
    capsys.readouterr()


def test_bundled_identify_recovers_to_rounding(tmp_path, capsys):
    # the bundled network, recovered from its data: every error is at
    # rounding level and the graph is exact. The sweep, which the report
    # does not read, is cut to one agent count.
    cfg = bundled_config("fig2_multiagent.json", sweep_agents=[3])
    out = tmp_path / "out"
    assert run(tmp_path, "identify", cfg, out=out) == 0
    rows = [line.split(",") for line in (out / "recovery_report.csv").read_text().split()]
    assert rows[0] == ["quantity", "frobenius_error"]
    errors = {name: float(value) for name, value in rows[1:]}
    assert errors["E"] == 0.0
    assert all(value <= 1e-10 for value in errors.values())
    capsys.readouterr()


def pe_verdicts(caplog):
    """(route, order, rows, cols, message) of each PE verdict the Cholesky
    certificate or the SVD decided, in the order they were logged; rows and
    cols are 0 after an SVD, whose line does not give them."""
    pattern = re.compile(
        r"PE order (\d+): (?:cholesky of|svd after) the (\w+) gram"
        r"(?: certifies (\d+) x (\d+))?"
    )
    found = []
    for record in caplog.records:
        match = pattern.match(record.getMessage())
        if record.name == "willems.hankel" and match:
            order, route, rows, cols = match.groups(default="0")
            found.append((route, int(order), int(rows), int(cols), match.string))
    return found


def test_bundled_identify_certifies_every_pe_verdict_by_cholesky(
    tmp_path, capsys, caplog, svd_calls
):
    # 13 verdicts, every one certified, and only 4 factorizations, all
    # SVDs: the controllability test, the data matrix's rank cap, the
    # known rows' pseudo-inverse and the shift solve. The sweep's large
    # points take the structured route, the rest the direct one, as the
    # routing rule says.
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    cfg = bundled_config("fig2_multiagent.json")
    assert run(tmp_path, "identify", cfg, out=tmp_path / "out") == 0
    verdicts = pe_verdicts(caplog)
    assert len(verdicts) == 13
    assert all(": cholesky of the " in v[-1] for v in verdicts)
    assert all(v[-1].endswith(": True") for v in verdicts)
    assert len(svd_calls) == 4
    work = importlib.import_module("willems.hankel")._STRUCTURED_GRAM_WORK
    for route, order, rows, cols, _ in verdicts:
        inputs = rows // order
        assert route == ("structured" if inputs * rows * cols >= work else "direct")
    routes = {(rows, cols): route for route, _, rows, cols, _ in verdicts}
    # the full_n points from N = 4 on; N = 3, at 150 x 192, stays direct
    for shape in [(264, 264), (410, 480), (588, 648), (798, 832), (1040, 1064)]:
        assert routes[shape] == "structured"
    assert routes[(150, 192)] == "direct"
    capsys.readouterr()


def test_bundled_theorem1_certifies_every_image_check(
    tmp_path, capsys, caplog, svd_calls
):
    # the random recipe draws controllable plants with delta = n, so both
    # sides of every image check are the whole space: two Cholesky
    # certificates decide each case, W of n rows and D of n + mL, and the
    # run, degree and PE tests included, takes no SVD
    caplog.set_level(logging.DEBUG, logger="willems.subspace")
    out = tmp_path / "out"
    cfg = {"random": {"count": 50}, "seed": 3}
    assert run(tmp_path, "verify-theorem1", cfg, out=out) == 0
    pattern = re.compile(
        r"image check: cholesky certifies W (\d+) x \d+, sigma_r/sigma_1 >= \S+, "
        r"and D (\d+) x \d+, sigma_r/sigma_1 >= \S+: holds"
    )
    lines = [r.getMessage() for r in caplog.records if r.name == "willems.subspace"]
    shapes = [tuple(int(v) for v in pattern.fullmatch(line).groups()) for line in lines]
    rows = [line.split(",") for line in (out / "theorem1_report.csv").read_text().split()]
    cases = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert len(shapes) == len(cases) == 50
    for (w_rows, d_rows), case in zip(shapes, cases):
        n, m, L = int(case["n"]), int(case["m"]), int(case["L"])
        assert (w_rows, d_rows) == (n, n + m * L)
        assert case["gap"] == "0"
    assert not svd_calls
    capsys.readouterr()


def test_bundled_deepc_factors_every_qp_face_by_lu(
    tmp_path, capsys, monkeypatch, svd_calls, inv_calls
):
    # 5 SVDs: DeePC's Hu^+, the cut of each window's O (2) and each
    # workspace's Aeq (2). Each workspace factors its base by LU, the empty
    # face's KKT matrix of order n + r = 33; every other face the loop
    # visits is bordered from it through one inverse of order j, its pins,
    # and nothing else is inverted: 12 faces, built in the workspace's one
    # slot, and no step of iterative refinement. With an LU per face this
    # run took 16 inverses of order 33 to 36, and with an SVD per face 16
    # SVDs
    per_face, face = [], qp.Workspace.face
    refined, pinned_solve = [], qp._pinned_solve

    def recording(ws, signs):
        before = len(inv_calls)
        entry = face(ws, signs)
        per_face.append((entry[1].size, inv_calls[before:]))
        return entry

    def solving(*args):
        # a refinement passes the point it refines; record its residual
        refined.extend(point[2] for point in args[3:])
        return pinned_solve(*args)

    monkeypatch.setattr(qp.Workspace, "face", recording)
    monkeypatch.setattr(qp, "_pinned_solve", solving)
    cfg = bundled_config("fig1_deepc.json")
    assert run(tmp_path, "deepc", cfg, out=tmp_path / "out") == 0
    assert len(svd_calls) == 5 and not refined
    assert len(inv_calls) == 14 and inv_calls.count((33, 33)) == 2
    bordered = [calls for _, calls in per_face if calls]
    assert len(bordered) == 12
    assert all(calls == [(j, j)] for j, calls in per_face if calls)
    capsys.readouterr()


def test_bundled_deepc_faces_are_bordered_from_the_base_to_rounding(
    tmp_path, capsys, monkeypatch
):
    # each of the 8 faces with pins that the bundled loop solves, over both
    # controllers' workspaces, matches its own LU on the range rows in its
    # inverse and its x to 1e-9 (the run borders 12 faces: the one-face
    # slot rebuilds four that come back)
    solved, pinned_solve = {}, qp._pinned_solve

    def recording(ws, beq, face):
        key = (id(ws), face.astype(np.int8).tobytes())
        solved.setdefault(key, (ws, beq, face.copy()))
        return pinned_solve(ws, beq, face)

    monkeypatch.setattr(qp, "_pinned_solve", recording)
    cfg = bundled_config("fig1_deepc.json")
    assert run(tmp_path, "deepc", cfg, out=tmp_path / "out") == 0
    faces = [(ws, beq, face) for ws, beq, face in solved.values() if face.any()]
    assert len(faces) == 8
    for ws, beq, face in faces:
        assert max(bordered_face_errors(ws, beq, face)) <= 1e-9
    capsys.readouterr()


def test_bundled_deepc_polishes_cold_once_per_workspace(tmp_path, capsys, qp_solves):
    # 56 control steps, each solved by both controllers (the CSV pins only
    # the applied one's): each workspace's first solve certifies on the
    # polish from the empty face, with no walk, and every later one on the
    # face the step before ended on
    cfg = bundled_config("fig1_deepc.json")
    assert run(tmp_path, "deepc", cfg, out=tmp_path / "out") == 0
    assert len(qp_solves) == 112
    assert {status for status, _, _, _ in qp_solves} == {"optimal"}
    paths = [path for _, _, path, _ in qp_solves]
    assert paths[:2] == ["cold polish"] * 2
    assert paths[2:] == ["last face"] * 110
    capsys.readouterr()


def test_small_mosaics_keep_the_direct_gram(tmp_path, capsys, caplog):
    # the fig1 excitation check and a verify-theorem1 random case: their
    # mosaics stay on the product H H^T, the code path of the pinned bytes
    caplog.set_level(logging.DEBUG, logger="willems.hankel")
    deepc = bundled_config("fig1_deepc.json", K=27)
    theorem1 = {"random": {"count": 1}, "seed": 3}
    for command, cfg in [("deepc", deepc), ("verify-theorem1", theorem1)]:
        caplog.clear()
        assert run(tmp_path, command, cfg, out=tmp_path / command) == 0
        routes = [route for route, *_ in pe_verdicts(caplog)]
        assert routes and set(routes) == {"direct"}, command
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
    ],
    ids=[
        "simulate-x0",
        "simulate-seed",
        "simulate-input-low",
        "deepc-y-max",
        "deepc-controller",
        "theorem1-random-n-max",
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
    def stalled(ws, beq):
        return QpSolution(np.zeros(ws.n), 0.0, "max_iter", 1.0, 100000)

    monkeypatch.setattr("willems.qp.Workspace.solve", stalled)
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
        # columns in another order or with gaps would be read on the wrong
        # channel: only the header trajectory_to_csv writes is accepted
        "t,y_0,u_0\n0,1.0,0.5\n1,2.0,0.25\n",
        "t,u_0,u_5,x_9\n0,0.5,0.25,1.0\n1,0.25,0.5,2.0\n",
    ],
    ids=["missing", "ragged", "nan", "no-rows", "outputs-first", "gapped"],
)
def test_unreadable_trajectory_csv_exits_2(tmp_path, capsys, content):
    path = tmp_path / "traj.csv"
    if content is not None:
        path.write_text(content)
    for command, cfg, field in (
        ("check-pe", {"trajectories": [str(path)]}, "trajectories[0]"),
        ("simulate", {"system": plant_section(), "inputs": str(path)}, "inputs"),
    ):
        assert run(tmp_path, command, cfg, out=tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err and f"'{field}'" in err


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        (
            "check-pe",
            {"trajectories": [[[1.0], [float("nan")], [2.0]]]},
            "trajectories[0]",
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
            {"trajectories": [[[1.0], [2.0]], [[1.0, 2.0]]]},
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
            bundled_config("fig2_multiagent.json", edges=5),
            "edges",
        ),
        (
            "identify",
            bundled_config("fig2_multiagent.json", edges=[[0.5, 1]]),
            "edges[0]",
        ),
        (
            "identify",
            bundled_config("fig2_multiagent.json", edges=[[0, 1], [2, True]]),
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
        # the retired `input` field is not read: the message names `inputs`
        ("simulate", {"system": plant_section(), "input": [[0.1]]}, "inputs"),
        # an integer is not a path: open() would take it as a descriptor
        ("simulate", {"system": plant_section(), "inputs": 0}, "inputs"),
        ("simulate", {"system": plant_section(), "inputs": 1}, "inputs"),
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
    {"a": 1}, ["a", "b"], "abc", True, None, [[1, 2], [3]], -1, 1.5, [], float("inf"),
    float("nan"), [[float("nan")]], [[1, float("inf")], [0, 1]],
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
        ("simulate", {"system": plant, "inputs": str(csv)}),
        ("simulate", {"system": plant, "inputs": [[0.1], [0.2]]}),
        ("check-pe", {"trajectories": [[[1.0], [2.0], [4.0]], str(csv)]}),
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
    assert len(configs) == 728
    for k, (command, field, cfg) in enumerate(configs):
        out = tmp_path / f"o{k}"
        code = run(tmp_path, command, cfg, out=out)
        err = capsys.readouterr().err
        assert code != 5, (command, field, cfg[field.split(".")[0]], err)
        if code == 2:
            assert err.startswith("config error") and not out.exists(), (command, field)
            # the message quotes the swept field (`system.A` by its key, a
            # list by an entry); a null or an object in its place may leave
            # out a required field, and then the message names that one
            *section, key = field.split(".")
            value = (cfg[section[0]] if section else cfg)[key]
            named = re.search(rf"'{re.escape(key)}(\[\d+\])*'", err)
            absent = value is None or isinstance(value, dict)
            assert named or (absent and "missing config field" in err), (field, err)
