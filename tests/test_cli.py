import argparse
import hashlib
import json
import math
import os
import signal
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flexjoint
from flexjoint import cli, tuning
from flexjoint.cli import (EXIT_DIVERGED, EXIT_INTERRUPTED, EXIT_OK,
                           EXIT_UNSTABLE, EXIT_USAGE, METRIC_COLUMNS,
                           TRAJ_COLUMNS, build_parser, main)
from flexjoint.control import (Controller, ControllerKind, GainSet, Reference,
                               simulate)
from flexjoint.fuzzy import FlrBounds
from flexjoint.gainsio import BOUND_KEYS, GAIN_KEYS, PLANT_KEYS, gains_text
from flexjoint.metrics import FAILED_COST
from flexjoint.plant import DisturbanceModel, PlantParams, SimConfig
from flexjoint.tuning import TunerConfig
from oracles import read_csv


def run(args):
    return main(args)


def test_simulate_writes_trajectory_and_metrics(tmp_path):
    out = str(tmp_path / "run")
    assert run(["simulate", "--out", out, "--horizon", "2"]) == EXIT_OK
    header, data = read_csv(out + "_trajectory.csv")
    assert tuple(header) == TRAJ_COLUMNS
    assert data.shape == (40, len(TRAJ_COLUMNS))
    np.testing.assert_allclose(data[:, 0], np.arange(40) * 0.05, atol=1e-12)
    mh, mdata = read_csv(out + "_metrics.csv")
    assert tuple(mh) == METRIC_COLUMNS and mdata.shape == (1, 5)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["seed"] == 10
    assert "PCG64" in meta["rng"]


def test_simulate_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    flags = ["--disturbance", "uniform", "--seed", "3", "--horizon", "10"]
    assert run(["simulate", "--out", a] + flags) == EXIT_OK
    assert run(["simulate", "--out", b] + flags) == EXIT_OK
    for suffix in ("_trajectory.csv", "_metrics.csv"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == \
            (tmp_path / ("b" + suffix)).read_bytes()


def test_simulate_zero_horizon_degenerate(tmp_path, capsys):
    """A zero horizon leaves no control step to score: exit 1 with one
    error line, and, as for every failing run, no file."""
    out = str(tmp_path / "z")
    assert run(["simulate", "--out", out, "--horizon", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: degenerate metrics")
    assert list(tmp_path.iterdir()) == []


def test_zero_horizon_records_an_infinite_torque(tmp_path, capsys):
    """A zero horizon integrates nothing, so even a torque of inf is
    recorded as the one row at rest instead of raised as a divergence."""
    huge = GainSet(1e308, 1e308, 1e308, 1e308)
    traj = simulate(PlantParams(), SimConfig(horizon=0.0),
                    Controller(ControllerKind.CASCADED_PD, huge),
                    Reference("square"), DisturbanceModel())
    assert len(traj) == 1 and traj.u[0] == math.inf
    gfile = tmp_path / "huge.txt"
    gfile.write_text(gains_text(huge))
    out = str(tmp_path / "zi")
    assert run(["simulate", "--out", out, "--horizon", "0",
                "--gains", str(gfile)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: degenerate metrics")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.txt"]


def test_simulate_divergence_exit_code(tmp_path):
    out = str(tmp_path / "d")
    code = run(["simulate", "--out", out, "--controller", "single-pd"])
    assert code == EXIT_DIVERGED


def test_simulate_nonfinite_torque_exit_code(tmp_path, capsys):
    gfile = tmp_path / "huge.txt"
    gfile.write_text(gains_text(GainSet(1e300, 1e300, 1e300, 1e300)))
    out = str(tmp_path / "h")
    assert run(["simulate", "--out", out, "--gains", str(gfile)]) == EXIT_DIVERGED
    assert "non-finite torque" in capsys.readouterr().err


def test_simulate_controller_choices(tmp_path):
    for kind in ("cascaded", "fuzzy-cascaded", "fuzzy1-pd2", "pd1-fuzzy2"):
        out = str(tmp_path / kind)
        assert run(["simulate", "--out", out, "--horizon", "1",
                    "--controller", kind]) == EXIT_OK


def test_gains_file_flows_into_simulation(tmp_path):
    gfile = tmp_path / "gains.txt"
    gfile.write_text(gains_text(GainSet(60.0, 12.0, 120.0, 9.0)))
    out = str(tmp_path / "g")
    assert run(["simulate", "--out", out, "--horizon", "1",
                "--controller", "cascaded", "--gains", str(gfile)]) == EXIT_OK
    header, data = read_csv(out + "_trajectory.csv")
    kp1 = data[0, header.index("kp1_eff")]
    assert kp1 == 60.0


def test_bad_gains_file_is_usage_error(tmp_path, capsys):
    gfile = tmp_path / "gains.txt"
    gfile.write_text("kp1 = banana\n")
    out = str(tmp_path / "bad")
    assert run(["simulate", "--out", out, "--gains", str(gfile)]) == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,content", [("--gains", "kp1 = nan\n"),
                                          ("--plant", "g = nan\n")])
def test_nonfinite_input_file_is_one_line_usage_error(tmp_path, capsys,
                                                      flag, content):
    path = tmp_path / "in.txt"
    path.write_text(content)
    out = str(tmp_path / "nf")
    assert run(["simulate", "--out", out, flag, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: line 1: non-finite number 'nan'"]


def test_rejected_plant_file_is_one_line_usage_error(tmp_path, capsys):
    """A plant file that parses but holds a value PlantParams rejects: one
    error line that names the file."""
    path = tmp_path / "plant.txt"
    path.write_text("I_m = -1\n")
    out = str(tmp_path / "rp")
    assert run(["simulate", "--out", out, "--plant", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: I_m must be strictly positive, got -1.0"]


def test_rejected_gains_file_is_one_line_usage_error(tmp_path, capsys):
    """A gains file that parses but holds a gain GainSet rejects: one error
    line that names the file."""
    path = tmp_path / "neg.txt"
    path.write_text("kp1 = -1\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n")
    out = str(tmp_path / "rg")
    assert run(["simulate", "--out", out, "--gains", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: kp1 must be finite and >= 0, got -1.0"]
    assert not list(tmp_path.glob("rg*"))


@pytest.mark.parametrize("flags", [
    ["--horizon", "inf"],
    ["--sim-dt", "nan"],
    ["--disturbance", "uniform", "--amplitude", "nan"],
    ["--reference", "constant", "--reference-value", "nan"],
], ids=" ".join)
def test_nonfinite_flag_is_one_line_usage_error(tmp_path, capsys, flags):
    out = str(tmp_path / "nf")
    assert run(["simulate", "--out", out] + flags) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be finite" in err[0]


def test_grid_above_the_step_cap_is_one_line_usage_error(tmp_path, capsys):
    """A horizon of 1,000,010 sim steps is refused before anything is
    drawn, simulated or written."""
    out = str(tmp_path / "long")
    assert run(["simulate", "--out", out, "--disturbance", "uniform",
                "--horizon", "5000.05"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: horizon and control_dt must each be at most "
                   "1000000 sim steps"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["tune", "--stage", "pd", "--episodes", "4", "--n-init", "2",
     "--ucb-h", "nan"],
    ["tune", "--stage", "pd", "--episodes", "4", "--n-init", "2",
     "--ucb-h", "1e308"],
    ["analyze", "--L", "nan", "0", "0", "0"],
], ids=" ".join)
def test_nonfinite_parameter_is_one_line_usage_error(tmp_path, capsys, argv):
    out = str(tmp_path / "np")
    assert run(argv + ["--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be finite" in err[0]


@pytest.mark.parametrize("half_width", ["nan", "inf", "1e308"])
def test_flr_half_width_is_one_line_usage_error(tmp_path, capsys, half_width):
    gfile = tmp_path / "gains.txt"
    gfile.write_text(gains_text(GainSet()))
    out = str(tmp_path / "hw")
    assert run(["tune", "--stage", "flr", "--gains", str(gfile), "--out", out,
                "--episodes", "3", "--n-init", "2",
                "--flr-half-width", half_width]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv,name", [
    (["simulate", "--gains"], "missing.txt"),
    (["simulate", "--out"], "missing/dir/x"),
    (["analyze", "--plant"], "adir"),
    (["ablate", "--gains"], "missing"),
    (["tune", "--stage", "flr", "--episodes", "2", "--n-init", "1", "--gains"],
     "latin1.txt"),
    (["tune", "--stage", "pd", "--episodes", "2", "--n-init", "1", "--plant"],
     "latin1.txt"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_unreadable_file_is_one_line_usage_error(tmp_path, capsys, argv, name):
    """A file the command cannot open, write or decode ends in one error
    line that names it."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.txt").write_bytes(b"kp1 = 1.0 # caf\xe9\n")
    path = str(tmp_path / name)
    out = [] if argv[-1] == "--out" else ["--out", str(tmp_path / "o")]
    assert run(argv + [path] + out) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and path in err[0]


def test_tune_with_every_episode_failed_writes_no_gains(tmp_path, capsys):
    out = str(tmp_path / "tf")
    assert run(["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2",
                "--disturbance", "uniform", "--amplitude", "1e300",
                "--out", out]) == EXIT_DIVERGED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "tf_gains.txt").exists()


def test_simulate_nonfinite_state_exit_code(tmp_path, capsys):
    """A motor inertia of 1e-308 turns the first step's state into NaN: a
    divergence, not a usage error."""
    pfile = tmp_path / "plant.txt"
    pfile.write_text("I_m = 1e-308\n")
    out = str(tmp_path / "ns")
    assert run(["simulate", "--out", out, "--controller", "cascaded",
                "--plant", str(pfile)]) == EXIT_DIVERGED
    assert "non-finite state" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["simulate", "--frobnicate"]) == EXIT_USAGE


def test_plant_file_overrides(tmp_path):
    pfile = tmp_path / "plant.txt"
    pfile.write_text("mu = 0.5\n")
    out = str(tmp_path / "p")
    assert run(["simulate", "--out", out, "--horizon", "1",
                "--plant", str(pfile)]) == EXIT_OK
    meta = json.loads((tmp_path / "p_meta.json").read_text())
    assert meta["plant"]["mu"] == 0.5


def test_analyze_stable_gains(tmp_path, capsys):
    out = str(tmp_path / "an")
    assert run(["analyze", "--out", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "stable" in text and "eigenvalues" in text
    assert "worst-case" in text  # default bounds are non-zero
    header, data = read_csv(out + "_analysis.csv")
    assert data.shape[0] == 8  # nominal + worst-case spectra


def test_analyze_zero_gains_unstable(tmp_path):
    gfile = tmp_path / "zero.txt"
    gfile.write_text(gains_text(GainSet(0.0, 0.0, 0.0, 0.0)))
    out = str(tmp_path / "an0")
    assert run(["analyze", "--out", out, "--gains", str(gfile)]) == EXIT_UNSTABLE


def test_analyze_lipschitz_flags(tmp_path):
    out = str(tmp_path / "anl")
    # L12 above kd1 violates the first gain condition
    assert run(["analyze", "--out", out, "--L", "0", "11", "0", "0"]) \
        == EXIT_UNSTABLE


def test_analyze_worst_case_uses_the_unclamped_sums(tmp_path, capsys):
    """kd2 + dkd2_lo = -0.15: the worst-case spectrum is that of the gains
    the regulator applies, not of a gain clamped at 0."""
    gfile = tmp_path / "neg.txt"
    gfile.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 0.05\n"
                     "dkd2_lo = -0.2\ndkd2_hi = 0\n")
    out = str(tmp_path / "neg")
    assert run(["analyze", "--out", out, "--gains", str(gfile)]) == EXIT_UNSTABLE
    text = capsys.readouterr().out
    assert "worst-case regulator eigenvalues: -5.0900-5.1266j, " \
        "-5.0900+5.1266j, 0.0833-28.5481j, 0.0833+28.5481j" in text
    assert "violated: (mu+kd2+dkd2_lo)/I_m > L22" in text
    header, data = read_csv(out + "_analysis.csv")
    worst = data[data[:, 0] == 1.0]
    np.testing.assert_allclose(worst[:, 2], [-5.09, -5.09, 1 / 12, 1 / 12])


@pytest.mark.parametrize("gains", [
    "kp1 = 1e308\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 0.05\n"
    "dkp1_lo = 1e308\ndkp1_hi = 1e308\n",
    "kp1 = 52.19\nkd1 = 1e308\nkp2 = 144.5\nkd2 = 0.05\n"
    "dkd1_lo = 1e308\ndkd1_hi = 1e308\n",
], ids=["kp1", "kd1"])
def test_analyze_overflowing_gains_is_one_line_usage_error(tmp_path, capsys,
                                                           gains):
    """Finite gains whose worst-case sums or characteristic polynomial
    overflow: one error line that names the gains, not numpy's."""
    gfile = tmp_path / "huge.txt"
    gfile.write_text(gains)
    out = str(tmp_path / "huge")
    assert run(["analyze", "--out", out, "--gains", str(gfile)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "overflows for GainSet(kp1=" in err[0]


@pytest.mark.parametrize("value", ["I_m = 5e-324", "I_l = 5e-324",
                                   "k = 1e308", "mu = 1e308"])
def test_analyze_overflowing_plant_names_the_plant(tmp_path, capsys, value):
    """A finite plant value that overflows the error Jacobian: the one
    error line names the plant value, not only the (bundled) gains."""
    pfile = tmp_path / "plant.txt"
    pfile.write_text(value + "\n")
    out = str(tmp_path / "op")
    assert run(["analyze", "--out", out, "--plant", str(pfile)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    key, number = value.split(" = ")
    assert len(err) == 1 and err[0].startswith(
        "error: the error Jacobian overflows for GainSet(kp1=52.19")
    assert "PlantParams(m=1.2756" in err[0]
    assert f"{key}={float(number)!r}" in err[0]


def test_analyze_ill_scaled_plant_is_one_line_usage_error(tmp_path, capsys):
    """I_m = 1e-300 loses the motor block's slow eigenvalue (about -28) to
    rounding beside one near -8.7e300; the spectrum printed as 0 used to
    make a stability failure beside two "stable" verdicts."""
    pfile = tmp_path / "plant.txt"
    pfile.write_text("I_m = 1e-300\n")
    out = str(tmp_path / "ill")
    assert run(["analyze", "--out", out, "--plant", str(pfile)]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: the error Jacobian is too ill-scaled to resolve its "
        "eigenvalues for GainSet(kp1=52.19")
    assert "I_m=1e-300" in err[0] and captured.out == ""
    assert not (tmp_path / "ill_analysis.csv").exists()


def test_analyze_zero_worst_case_gain_is_unstable(tmp_path, capsys):
    """kp1 + dkp1_lo = 0 exactly: a true zero eigenvalue, reported as a
    stability failure (exit 3), not as a lost one."""
    gfile = tmp_path / "zero_lo.txt"
    gfile.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n"
                     "dkp1_lo = -52.19\ndkp1_hi = 0\n")
    out = str(tmp_path / "zlo")
    assert run(["analyze", "--out", out, "--gains", str(gfile)]) == EXIT_UNSTABLE
    assert "0.0000+0.0000j" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_overflowing_regulator_width_is_one_line_usage_error(tmp_path, capsys,
                                                             command):
    """Bounds whose width hi - lo overflows: one error line, exit 1, and no
    numpy warning (which the suite turns into an error), where simulate
    used to report NaN singletons as a divergence and analyze a verdict."""
    gfile = tmp_path / "wide.txt"
    gfile.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n"
                     "dkp1_lo = -1e308\ndkp1_hi = 1e308\n")
    out = str(tmp_path / "wide")
    assert run([command, "--out", out, "--gains", str(gfile)]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {gfile}: dkp1 bounds")
    assert "overflow" in err[0] and captured.out == ""


@pytest.mark.parametrize("flags", [[], ["--disturbance", "uniform"]],
                         ids=["off", "uniform"])
def test_negative_seed_is_one_line_usage_error(tmp_path, capsys, flags):
    out = str(tmp_path / "ns")
    assert run(["simulate", "--out", out, "--seed", "-1"] + flags) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --seed must be >= 0, got -1"]
    assert not list(tmp_path.iterdir())


def test_negative_tuner_seed_is_one_line_usage_error(tmp_path, capsys):
    out = str(tmp_path / "nt")
    assert run(["tune", "--stage", "pd", "--out", out, "--episodes", "2",
                "--n-init", "2", "--tuner-seed", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --tuner-seed must be >= 0, got -1"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--horizon", "nan"], ["--seed", "3"],
                                   ["--sim-dt", "-1"], ["--control-dt", "1"]],
                         ids=" ".join)
def test_analyze_rejects_simulation_flags(tmp_path, capsys, flags):
    out = str(tmp_path / "as")
    assert run(["analyze", "--out", out] + flags) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == \
        [f"flexjoint: error: unrecognized arguments: {' '.join(flags)}"]
    assert not list(tmp_path.iterdir())


def test_ablate_table(tmp_path, capsys):
    out = str(tmp_path / "ab")
    assert run(["ablate", "--out", out, "--seed", "10"]) == EXIT_OK
    lines = (tmp_path / "ab_ablation.csv").read_text().splitlines()
    assert lines[0] == "controller,cost,overshoot_pct,settling_time,status"
    assert len(lines) == 6
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["fuzzy+fuzzy", "PD+PD", "fuzzy+PD", "PD+fuzzy",
                     "single-PD"]
    assert "diverged" in lines[5]       # the single-PD baseline blows up
    assert all("ok" in l for l in lines[1:5])


def test_ablate_byte_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["ablate", "--out", a, "--seed", "4"]) == EXIT_OK
    assert run(["ablate", "--out", b, "--seed", "4"]) == EXIT_OK
    assert (tmp_path / "a_ablation.csv").read_bytes() == \
        (tmp_path / "b_ablation.csv").read_bytes()


def test_tune_pd_quick(tmp_path):
    out = str(tmp_path / "t")
    assert run(["tune", "--stage", "pd", "--out", out, "--episodes", "3",
                "--n-init", "2", "--tuner-seed", "0"]) == EXIT_OK
    lines = (tmp_path / "t_gains.txt").read_text().splitlines()
    keys = [l.split("=")[0].strip() for l in lines]
    assert keys == ["kp1", "kd1", "kp2", "kd2"]
    header, data = read_csv(out + "_history.csv")
    assert header == ["episode", "kp1", "kd1", "kp2", "kd2", "y", "best_y"]
    assert data.shape[0] == 3
    y = data[:, 5]
    np.testing.assert_array_equal(data[:, 6], np.maximum.accumulate(y))
    # gains inside the search box, from the best episode
    vals = [float(l.split("=")[1]) for l in lines]
    assert 0.0 <= vals[0] <= 150.0 and 0.0 <= vals[1] <= 30.0
    assert vals == data[np.argmax(y), 1:5].tolist()


def test_tune_too_short_horizon_is_usage_error(tmp_path, capsys):
    """A grid of fewer control steps than the tuning cost reads, from a
    short --horizon or a coarse --control-dt, is a usage error before
    anything is written, where it used to fail mid-run: after an episode,
    or as 'all episodes failed' once every episode diverged."""
    for flags in (["--horizon", "5"], ["--control-dt", "0.1"]):
        out = str(tmp_path / "ts")
        assert run(["tune", "--stage", "pd", "--out", out, "--episodes", "3",
                    "--n-init", "2"] + flags) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --horizon ")
        assert "--control-dt" in err[0] and "100 control steps, need 200" in err[0]
        assert not list(tmp_path.iterdir())


def test_tune_flr_requires_gains(tmp_path, capsys):
    out = str(tmp_path / "t2")
    assert run(["tune", "--stage", "flr", "--out", out,
                "--episodes", "2", "--n-init", "1"]) == EXIT_USAGE
    assert "requires --gains" in capsys.readouterr().err


def test_tune_pd_rejects_gains(tmp_path, capsys):
    gfile = tmp_path / "bad.txt"
    gfile.write_text("kp1 = x\n")
    out = str(tmp_path / "tp")
    assert run(["tune", "--stage", "pd", "--out", out, "--gains", str(gfile),
                "--episodes", "2", "--n-init", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.txt"]


def test_tune_flr_quick(tmp_path):
    gfile = tmp_path / "pd.txt"
    gfile.write_text(gains_text(GainSet()))
    out = str(tmp_path / "t3")
    assert run(["tune", "--stage", "flr", "--out", out, "--gains", str(gfile),
                "--episodes", "2", "--n-init", "1"]) == EXIT_OK
    lines = (tmp_path / "t3_gains.txt").read_text().splitlines()
    assert len(lines) == 12  # 4 gains + 8 ordered bound values
    vals = {l.split("=")[0].strip(): float(l.split("=")[1]) for l in lines}
    for name in ("dkp1", "dkd1", "dkp2", "dkd2"):
        assert vals[f"{name}_lo"] <= vals[f"{name}_hi"]


def test_tune_flr_reads_gains_once(tmp_path, capsys):
    gfile = tmp_path / "pd.txt"
    gfile.write_text("kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n"
                     "dkp1_lo = 15.27\ndkp1_hi = -11.61\n")
    out = str(tmp_path / "t5")
    assert run(["tune", "--stage", "flr", "--out", out, "--gains", str(gfile),
                "--episodes", "2", "--n-init", "1"]) == EXIT_OK
    assert capsys.readouterr().err.count("note: dkp1 bounds") == 1


def test_tune_single_episode_returns_the_sample(tmp_path):
    # tuner seed 5 draws a sample that does not diverge; a failed one would
    # exit EXIT_DIVERGED with no gains file
    out = str(tmp_path / "t4")
    assert run(["tune", "--stage", "pd", "--out", out, "--episodes", "1",
                "--n-init", "1", "--tuner-seed", "5"]) == EXIT_OK
    header, data = read_csv(out + "_history.csv")
    assert data.shape[0] == 1 and data[0, 5] != FAILED_COST
    lines = (tmp_path / "t4_gains.txt").read_text().splitlines()
    vals = [float(l.split("=")[1]) for l in lines]
    np.testing.assert_allclose(vals, data[0, 1:5])


def _subparsers() -> dict:
    """build_parser()'s parser of each command, by command name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_options():
    """(command, option, position) of each float and int value that
    build_parser() reads, one per position of a multi-value option."""
    for command, parser in _subparsers().items():
        for action in parser._actions:
            if action.type in (float, int):
                for i in range(action.nargs or 1):
                    yield command, action.option_strings[-1], i


NUMERIC_OPTIONS = list(_numeric_options())
BAD_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1",
              "1000000000000")


# The constructor that each flag's value reaches, with the other values the
# flag test passes (tune's one episode from one initial sample).  --L and
# --flr-half-width reach the analysis checks and the tuning domain instead.
FLAG_CONSTRUCTORS = {
    "--sim-dt": lambda v: SimConfig(sim_dt=float(v)),
    "--control-dt": lambda v: SimConfig(control_dt=float(v)),
    "--horizon": lambda v: SimConfig(horizon=float(v)),
    "--amplitude": lambda v: DisturbanceModel(amplitude=float(v)),
    "--seed": lambda v: DisturbanceModel(seed=int(v)),
    "--reference-value": lambda v: Reference(value=float(v)),
    "--episodes": lambda v: TunerConfig(T=int(v), n_init=1),
    "--n-init": lambda v: TunerConfig(T=1, n_init=int(v)),
    "--ucb-h": lambda v: TunerConfig(T=1, n_init=1, h=float(v)),
    "--tuner-seed": lambda v: TunerConfig(T=1, n_init=1, seed=int(v)),
}


def _flag_rejection(option: str, value: str) -> str | None:
    """The message of the ValueError that the constructor option reaches
    raises for value, or None if it accepts value."""
    try:
        FLAG_CONSTRUCTORS[option](value)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("command,option,position", NUMERIC_OPTIONS,
                         ids=[f"{c} {o}" + (f" {i}" if o == "--L" else "")
                              for c, o, i in NUMERIC_OPTIONS])
def test_bad_flag_values_end_in_a_documented_exit(tmp_path, capsys, command,
                                                  option, position):
    """Each of BAD_VALUES in each numeric flag: an exit code from the
    documented set, and at most one error line (exactly one for exit 1 or
    2), never an exception out of main.  An exit 1 for a value that parses
    comes, for a flag in FLAG_CONSTRUCTORS, from a value its constructor
    rejects, with the constructor's message or that of the command line's
    own check of the flag; a value the constructor accepts ends in exit 1
    only in a later check: tune's cost window or the metrics of a horizon
    without control steps."""
    base = []
    if command == "tune":
        gfile = tmp_path / "gains.txt"
        gfile.write_text(gains_text(GainSet()))
        stage = (["--stage", "flr", "--gains", str(gfile)]
                 if option == "--flr-half-width" else ["--stage", "pd"])
        base = stage + ["--episodes", "1", "--n-init", "1"]
    for n, value in enumerate(BAD_VALUES):
        if option == "--L":
            # argparse reads a bare -1e308 or -inf as an option name; float()
            # ignores the leading space that stops it
            values = ["0"] * 4
            values[position] = " " + value
            flag = ["--L"] + values
        else:
            flag = [f"{option}={value}"]
        argv = [command] + base + flag + ["--out", str(tmp_path / f"o{n}")]
        code = run(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED, EXIT_UNSTABLE), argv
        assert "Traceback" not in err, argv
        assert len(errors) == (code in (EXIT_USAGE, EXIT_DIVERGED)), (argv, err)
        if (code != EXIT_USAGE or option not in FLAG_CONSTRUCTORS
                or f"error: argument {option}: invalid" in errors[0]):
            continue
        rejection = _flag_rejection(option, value)
        if rejection is not None:
            assert errors[0] in (f"error: {rejection}",
                                 f"error: {option} must be >= 0, got {value}"), (argv, err)
        else:
            assert errors[0].startswith(("error: --horizon ",
                                         "error: degenerate metrics: ")), (argv, err)


EDGE_VALUES = ("nan", "inf", "-inf", "-0.0", "5e-324", "1e308", str(2 ** 64),
               "0", "1", "2", "0.5", "0.05", "-1")
# the choice options that command_lines may set
CHOICES = {"--controller": [k.value for k in ControllerKind],
           "--reference": ["square", "sine", "constant"],
           "--disturbance": ["off", "uniform"],
           "--hold": ["per-sim-step", "per-control-step"]}


@st.composite
def command_lines(draw, directory: Path) -> list:
    """A simulate, analyze or ablate line, or a tune of at most 3 episodes,
    with any subset of its numeric flags and choices set, and plant and
    gains files whose keys take values from EDGE_VALUES."""
    command = draw(st.sampled_from(["simulate", "analyze", "ablate", "tune"]))
    argv, stage = [command], None
    if command == "tune":  # at most 3 episodes, so not from the edge values
        stage = draw(st.sampled_from(["pd", "flr"]))
        argv += ["--stage", stage,
                 "--episodes", draw(st.sampled_from(["1", "2", "3"])),
                 "--n-init", draw(st.sampled_from(["1", "2", "3"]))]
    for c, option, position in NUMERIC_OPTIONS:
        if c != command or option in ("--episodes", "--n-init") or position:
            continue
        if draw(st.integers(0, 3)) == 0:  # a few flags per line
            if option == "--L":  # the leading space keeps -inf a value
                argv += ["--L"] + [" " + draw(st.sampled_from(EDGE_VALUES))
                                   for _ in range(4)]
            else:
                argv.append(f"{option}={draw(st.sampled_from(EDGE_VALUES))}")
    for action in _subparsers()[command]._actions:
        option = action.option_strings[-1] if action.option_strings else None
        if option in CHOICES and draw(st.integers(0, 3)) == 0:
            argv.append(f"{option}={draw(st.sampled_from(CHOICES[option]))}")
    for kind, keys in (("plant", PLANT_KEYS), ("gains", GAIN_KEYS + BOUND_KEYS)):
        if kind == "gains" and stage:
            # the flr stage takes the gains file that the pd stage refuses
            wanted = stage == "flr"
        else:
            wanted = draw(st.booleans())
        if wanted:
            values = draw(st.dictionaries(st.sampled_from(keys),
                                          st.sampled_from(EDGE_VALUES)))
            path = directory / f"{kind}.txt"
            path.write_text(_file_text(kind, **values))
            argv += [f"--{kind}", str(path)]
    return argv + ["--out", str(directory / "o")]


@given(data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_command_lines_end_in_a_documented_exit(tmp_path, capsys, data):
    """Random command lines with edge values in their flags and files:
    main never raises and never warns, and ends in an exit code from 0 to
    3 with at most one error line."""
    argv = data.draw(command_lines(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    err = capsys.readouterr().err
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED, EXIT_UNSTABLE), argv
    assert "Traceback" not in err, argv
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)


FILE_KEYS = ([("plant", key) for key in PLANT_KEYS]
             + [("gains", key) for key in GAIN_KEYS + BOUND_KEYS])


def _file_text(kind: str, **overrides: str) -> str:
    """A plant or gains file with the default values, overrides applied."""
    if kind == "plant":
        values = PlantParams()._asdict()
    else:
        values = dict(GainSet()._asdict(), dkp1_lo=-1.0, dkp1_hi=1.0,
                      dkd1_lo=-1.0, dkd1_hi=1.0, dkp2_lo=-1.0, dkp2_hi=1.0,
                      dkd2_lo=-1.0, dkd2_hi=1.0)
    values.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _constructor_rejects(kind: str, key: str, value: str) -> bool:
    """Whether the constructor that a file's key reaches raises ValueError
    for value, with the other values of _file_text: PlantParams for a
    plant key, GainSet for a gain, FlrBounds for a bound, whose pair the
    gains loader stores as (min, max) when it is reversed."""
    v = float(value)
    try:
        if kind == "plant":
            PlantParams(**{key: v})
        elif key in GAIN_KEYS:
            GainSet(**{key: v})
        else:
            name, side = key.rsplit("_", 1)
            lo, hi = (v, 1.0) if side == "lo" else (-1.0, v)
            if lo > hi:
                lo, hi = hi, lo
            FlrBounds(**{name: (lo, hi)})
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("kind,key", FILE_KEYS,
                         ids=[f"{kind} {key}" for kind, key in FILE_KEYS])
def test_bad_file_values_end_in_a_documented_exit(tmp_path, capsys, kind, key):
    """Each of BAD_VALUES as one key of a plant or gains file, in simulate
    and ablate over a 0.5-s horizon, analyze, and, for plant keys, a
    3-episode tune: an exit code from the documented set, never an
    exception out of main (warnings fail the suite), exactly one error
    line on exit 1 or 2 and none otherwise, and a usage error that names
    the file, after the values for analyze's overflow checks.  A usage
    error that blames the file comes only for a value its constructor
    rejects: a value the constructor accepts is simulated, analyzed or
    tuned, and may end in exit 2 or 3, or in analyze's checks, never in a
    file error."""
    commands = [["simulate", "--horizon", "0.5"], ["ablate", "--horizon", "0.5"],
                ["analyze"]]
    if kind == "plant":
        commands.append(["tune", "--stage", "pd", "--episodes", "3",
                         "--n-init", "2"])
    for n, value in enumerate(BAD_VALUES):
        path = tmp_path / f"{kind}{n}.txt"
        path.write_text(_file_text(kind, **{key: value}))
        for command in commands:
            argv = command + [f"--{kind}", str(path),
                              "--out", str(tmp_path / f"o{n}")]
            code = run(argv)
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED,
                            EXIT_UNSTABLE), argv
            assert "Traceback" not in err, argv
            assert len(errors) == (code in (EXIT_USAGE, EXIT_DIVERGED)), \
                (argv, err)
            if code != EXIT_USAGE:
                continue
            if errors[0].startswith("error: the error Jacobian"):
                # analyze's checks on what it forms from both files name
                # the gains and plant values, as the tests above pin, and
                # end with where each came from
                assert "PlantParams(m=" in errors[0], (argv, err)
                assert str(path) in errors[0], (argv, err)
            else:
                assert errors[0].startswith(f"error: {path}: "), (argv, err)
                assert _constructor_rejects(kind, key, value), (argv, err)


# sha256 of the artifacts, each recorded before a refactor of the
# simulation core that had to keep it; such a refactor must leave every
# byte in place.
# The two longer tunes fit the GP at n = 10..15 in 4-D and at n = 10, 11 in
# 8-D, so a change to the surrogate's rounding shows in their histories.
# GAINS stands for the first-stage gains file the test writes, GAINS_FLR
# for the same gains with regulator bounds.
FROZEN_ARTIFACTS = (
    ("simulate --controller fuzzy-cascaded",
     ["simulate", "--controller", "fuzzy-cascaded", "--disturbance", "uniform",
      "--seed", "10"],
     {"_trajectory.csv": "5886d9122683d9907df30182f4f193da1556a01ba12d5938696defe1e6909437",
      "_metrics.csv": "26ec99abdf9022dd6cd48ae777096d8aabdce5c104412f3b645db161001ff27d"}),
    ("simulate --controller pd1-fuzzy2",
     ["simulate", "--controller", "pd1-fuzzy2"],
     {"_trajectory.csv": "9294308176ac7452ddf317495439f62111c203e84a6e8e0f5f394685362fe6f9",
      "_metrics.csv": "dcf63593bbce5fd0b8fec69d22ef2d5e0521ed0194ac9ca7890c97e26639716a"}),
    ("simulate --controller cascaded",
     ["simulate", "--controller", "cascaded", "--disturbance", "uniform",
      "--seed", "3"],
     {"_trajectory.csv": "a4fb09e0615877ac1e461caf236963680ea840ebf7551daeadc84bd35db65959",
      "_metrics.csv": "a9596525b71093fb3561d75b362314cb5bce1879f74c5aaa1456c881321d2543"}),
    ("simulate --controller fuzzy1-pd2 --hold per-control-step",
     ["simulate", "--controller", "fuzzy1-pd2", "--disturbance", "uniform",
      "--hold", "per-control-step", "--seed", "3"],
     {"_trajectory.csv": "78118cbd633f311565a719c270a71b613ec412aea92ae5c0ce16d50fa48205e7",
      "_metrics.csv": "9c3e73701052f28887b0b633236ba162028bcf42fa20f812fa4aaf0e74e84e87"}),
    # the branches of the control law that the four runs above leave out:
    # the single PD, a sine and a negative constant reference, and the
    # plain cascade under the per-control-step hold
    ("simulate --controller single-pd --horizon 1",
     ["simulate", "--controller", "single-pd", "--horizon", "1"],
     {"_trajectory.csv": "db449d950d436a20e0e22b54ea926a31cb387392d55715bfcb0f586cba10cb35",
      "_metrics.csv": "ee34a366f0a684be7eabaf21cf3e9a39f02d3c7a9dc345d8768aa3e0ad7f60ab"}),
    ("simulate --reference sine --disturbance uniform --seed 7",
     ["simulate", "--reference", "sine", "--disturbance", "uniform",
      "--seed", "7"],
     {"_trajectory.csv": "af5d67f17c0b5c02f04c8d229b4c2d7aef57726e57c4c89a3f4a9f1cc26b78f8",
      "_metrics.csv": "ddd42085b235b8ed8373bd8e27496a59dbc56eb65ce6c507cc6fe32efda4964c"}),
    ("simulate --controller pd1-fuzzy2 --reference constant",
     ["simulate", "--controller", "pd1-fuzzy2", "--reference", "constant",
      "--reference-value", "-0.5"],
     {"_trajectory.csv": "0677e8396a7a9e083a18d14edbec0760f5384b1b6ff91cb3ef2c9a14f7784f33",
      "_metrics.csv": "f366311e27f4476e4449ed45a5000137eb1147ee78cda05888799025a52b4c5b"}),
    ("simulate --controller cascaded --hold per-control-step",
     ["simulate", "--controller", "cascaded", "--hold", "per-control-step",
      "--disturbance", "uniform", "--seed", "5"],
     {"_trajectory.csv": "0364cb0875606bf4af5f0aefc269fbc03d112bb835ea98e885705f1e076bce20",
      "_metrics.csv": "f8a6398575aec697151bd0b58ea1fd9d7c55cea4c12aeaca718c9bf7d76d05f5"}),
    ("ablate --seed 10",
     ["ablate", "--seed", "10"],
     {"_ablation.csv": "dc1181b45f77cfb3158efd3efb52c125375c5f91c05c99c26acc8d0366ef8fd1"}),
    ("tune --stage pd",
     ["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2"],
     {"_history.csv": "de8dc1b6a5b211b1d25564e4810be48ec497042806add9eb3fbe97ee7afbc4a1"}),
    ("tune --stage pd --episodes 16",
     ["tune", "--stage", "pd", "--episodes", "16", "--n-init", "10"],
     {"_history.csv": "6ea9081b0c19d2836e1bb009e705b8faa6ea1ed3e6d3f15046028b1d9c176234",
      "_gains.txt": "747253cd762c9bcf540d2358dd62e0beaa24a88e5a8033ecee09acd223f3b77a"}),
    ("tune --stage flr --episodes 12",
     ["tune", "--stage", "flr", "--episodes", "12", "--n-init", "10",
      "--gains", "GAINS"],
     {"_history.csv": "b0f739b285fb90e3a49cb807f70fde324ad7188c440c7a9f1e312abf49b87052",
      "_gains.txt": "096a4dfcca912f8d28024ad8c28bbc46e29cc0f49f103639524ce1220bb8f5ec"}),
    ("analyze --with-flr",
     ["analyze", "--with-flr"],
     {"_analysis.csv": "e74d724c249895cd9ce56de18cc26a8ece4573fab3e9db8545074f797fc43a61"}),
    ("analyze --gains GAINS_FLR --L 0 4.5 0 0",
     ["analyze", "--gains", "GAINS_FLR", "--L", "0", "4.5", "0", "0"],
     {"_analysis.csv": "6f50d5c7e38da1d217ab5e5d90edaf452ec7a5c5845749a0decd2f7eaba3f2bb"}),
)


@pytest.mark.parametrize("args,digests", [a[1:] for a in FROZEN_ARTIFACTS],
                         ids=[a[0] for a in FROZEN_ARTIFACTS])
def test_artifacts_match_frozen_bytes(tmp_path, args, digests):
    gains = "kp1 = 52.19\nkd1 = 10.18\nkp2 = 144.5\nkd2 = 8.636\n"
    files = {"GAINS": gains,
             "GAINS_FLR": gains + "dkp1_lo = -20.0\ndkp1_hi = 5.0\n"
             "dkd1_lo = -5.5\ndkd1_hi = 2.0\ndkp2_lo = -40.0\ndkp2_hi = 10.0\n"
             "dkd2_lo = -3.0\ndkd2_hi = 1.0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    out = str(tmp_path / "f")
    assert run(args + ["--out", out]) == EXIT_OK
    for suffix, digest in digests.items():
        data = (tmp_path / ("f" + suffix)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


# The _meta.json of four commands, key for key: the resolved configuration
# that a run echoes must not move when the records behind it are rebuilt.
# GAINS and PLANT stand for the files the test writes; the gains file
# stores dkp1 reversed, and the meta holds the pair as (min, max).
RNG = "numpy PCG64 (default_rng) keyed by (seed, step_index)"
DEFAULT_PLANT = {"I_l": 1.0, "I_m": 0.3, "g": 9.8, "k": 100.0, "l": 0.4,
                 "m": 1.2756, "mu": 0.1}
DEFAULT_SIM = {"control_dt": 0.05, "horizon": 10.0, "sim_dt": 0.005}
UNIFORM_10 = {"amplitude": 10.0, "hold": "per-sim-step", "kind": "uniform",
              "seed": 10}
BUNDLED_GAINS = {"kd1": 10.18, "kd2": 8.636, "kp1": 52.19, "kp2": 144.5}
BUNDLED_BOUNDS = {"dkd1": [-3.228, 0.1], "dkd2": [-0.1, 0.9537],
                  "dkp1": [-11.61, 15.27], "dkp2": [-16.94, 2.997]}
FROZEN_META = (
    ("simulate --gains --plant",
     ["simulate", "--gains", "GAINS", "--plant", "PLANT"],
     {"command": "simulate", "controller": "fuzzy-cascaded",
      "disturbance": {"amplitude": 10.0, "hold": "per-sim-step", "kind": "off",
                      "seed": 10},
      "flr_bounds": {"dkd1": [0.0, 0.0], "dkd2": [-1.0, 1.0],
                     "dkp1": [-2.0, 3.0], "dkp2": [0.0, 0.0]},
      "gains": {"kd1": 9.5, "kd2": 8.0, "kp1": 50.0, "kp2": 140.0},
      "plant": {"I_l": 1.0, "I_m": 0.3, "g": 9.8, "k": 90.0, "l": 0.4,
                "m": 1.3, "mu": 0.12},
      "reference": "square", "rng": RNG, "seed": 10, "sim": DEFAULT_SIM}),
    ("ablate",
     ["ablate"],
     {"command": "ablate", "disturbance": UNIFORM_10,
      "flr_bounds": BUNDLED_BOUNDS, "gains": BUNDLED_GAINS,
      "plant": DEFAULT_PLANT, "rng": RNG, "seed": 10, "sim": DEFAULT_SIM}),
    ("analyze --with-flr",
     ["analyze", "--with-flr"],
     {"L": [0.0, 0.0, 0.0, 0.0], "command": "analyze",
      "flr_bounds": BUNDLED_BOUNDS, "gains": BUNDLED_GAINS,
      "plant": DEFAULT_PLANT, "rng": RNG}),
    ("tune --stage pd",
     ["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2"],
     {"command": "tune", "disturbance": UNIFORM_10, "plant": DEFAULT_PLANT,
      "rng": RNG, "seed": 10, "sim": DEFAULT_SIM, "stage": "pd",
      "tuner": {"T": 3, "h": 2.576, "n_init": 2, "seed": 0}, "tuner_seed": 0}),
)


@pytest.mark.parametrize("args,meta", [a[1:] for a in FROZEN_META],
                         ids=[a[0] for a in FROZEN_META])
def test_meta_matches_frozen_config(tmp_path, capsys, args, meta):
    files = {"GAINS": "kp1 = 50.0\nkd1 = 9.5\nkp2 = 140.0\nkd2 = 8.0\n"
                      "dkp1_lo = 3.0\ndkp1_hi = -2.0\ndkd2_lo = -1.0\ndkd2_hi = 1.0\n",
             "PLANT": "m = 1.3\nk = 90.0\nmu = 0.12\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    assert run(args + ["--out", str(tmp_path / "f")]) == EXIT_OK
    assert json.loads((tmp_path / "f_meta.json").read_text()) == meta


def _files(directory) -> dict[str, bytes]:
    """The name and bytes of each entry of directory."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


TUNE_QUICK = ["tune", "--stage", "pd", "--episodes", "3", "--n-init", "2"]

# (first run, which succeeds; second run on the same prefix, which fails;
# the second run's exit code; the first run's set of suffixes)
RUN_THEN_FAIL = (
    (["simulate", "--disturbance", "uniform"],
     ["simulate", "--controller", "single-pd"], EXIT_DIVERGED,
     ["_meta.json", "_metrics.csv", "_trajectory.csv"]),
    (TUNE_QUICK, TUNE_QUICK + ["--tuner-seed", "7", "--horizon", "1"],
     EXIT_USAGE, ["_gains.txt", "_history.csv", "_meta.json"]),
    (["analyze"], ["analyze", "--plant", "BAD_PLANT"], EXIT_USAGE,
     ["_analysis.csv", "_meta.json"]),
    (["ablate", "--horizon", "2"], ["ablate", "--horizon", "2", "--seed", "-1"],
     EXIT_USAGE, ["_ablation.csv", "_meta.json"]),
)


@pytest.mark.parametrize("first,second,code,suffixes", RUN_THEN_FAIL,
                         ids=[r[0][0] for r in RUN_THEN_FAIL])
def test_a_failing_run_leaves_the_earlier_set_whole(tmp_path, capsys, first,
                                                    second, code, suffixes):
    """A run that succeeds, then a run that fails on the same prefix: the
    prefix holds exactly the first run's set, byte for byte, so its
    _meta.json still describes the first run."""
    bad_plant = tmp_path / "bad_plant.txt"
    bad_plant.write_text("m = -1\n")
    runs = tmp_path / "runs"
    runs.mkdir()
    out = str(runs / "p")
    assert run(first + ["--out", out]) == EXIT_OK
    before = _files(runs)
    assert list(before) == ["p" + suffix for suffix in suffixes]
    assert json.loads(before["p_meta.json"])["command"] == first[0]
    capsys.readouterr()
    second = [str(bad_plant) if a == "BAD_PLANT" else a for a in second]
    assert run(second + ["--out", out]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert _files(runs) == before


def test_an_unstable_analyze_replaces_the_set(tmp_path):
    """Exit 3 is a run that returns: its report replaces the earlier one."""
    runs = tmp_path / "runs"
    runs.mkdir()
    out = str(runs / "p")
    assert run(["analyze", "--out", out]) == EXIT_OK
    gfile = tmp_path / "zero.txt"
    gfile.write_text(gains_text(GainSet(0.0, 0.0, 0.0, 0.0)))
    assert run(["analyze", "--gains", str(gfile), "--out", out]) == EXIT_UNSTABLE
    files = _files(runs)
    assert list(files) == ["p_analysis.csv", "p_meta.json"]
    assert json.loads(files["p_meta.json"])["gains"] == GainSet(0, 0, 0, 0)._asdict()


def test_an_all_failed_tune_drops_the_earlier_gains(tmp_path, capsys):
    """A tune whose every episode fails over an earlier tune's prefix leaves
    its own history and meta, and no _gains.txt that a later flr stage
    could take for its result."""
    out = str(tmp_path / "tf")
    assert run(TUNE_QUICK + ["--out", out]) == EXIT_OK
    earlier = _files(tmp_path)
    assert run(TUNE_QUICK + ["--amplitude", "1e300", "--out", out]) == EXIT_DIVERGED
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: all 3 episodes failed; no gains written"]
    files = _files(tmp_path)
    assert list(files) == ["tf_history.csv", "tf_meta.json"]
    assert files["tf_history.csv"] != earlier["tf_history.csv"]
    meta = json.loads(files["tf_meta.json"])
    assert meta["disturbance"]["amplitude"] == 1e300


def test_an_interrupted_tune_leaves_the_earlier_set(tmp_path, capsys,
                                                    monkeypatch):
    """A KeyboardInterrupt at episode 2, after the first fit, ends main with
    one line and exit 130; the earlier set keeps every byte and the scratch
    directory is gone."""
    out = str(tmp_path / "p")
    assert run(TUNE_QUICK + ["--out", out]) == EXIT_OK
    before = _files(tmp_path)
    make_pd_cost = tuning.make_pd_cost

    def make_interrupted_cost(*args):
        cost, episodes = make_pd_cost(*args), iter(range(10))

        def interrupted_cost(x):
            if next(episodes) == 2:
                raise KeyboardInterrupt
            return cost(x)
        return interrupted_cost

    monkeypatch.setattr(tuning, "make_pd_cost", make_interrupted_cost)
    capsys.readouterr()
    argv = TUNE_QUICK + ["--episodes", "4", "--tuner-seed", "7", "--out", out]
    try:
        code = run(argv)
    except KeyboardInterrupt:  # would end the whole test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert _files(tmp_path) == before


def test_sigint_ends_a_tune_in_one_line_and_exit_130(tmp_path):
    """A tune in a fresh interpreter, sent SIGINT once its scratch directory
    appears: one error line, exit 130, no traceback and no new file."""
    out = str(tmp_path / "p")
    assert run(TUNE_QUICK + ["--out", out]) == EXIT_OK
    before = _files(tmp_path)
    argv = ["tune", "--stage", "pd", "--episodes", "40", "--tuner-seed", "7",
            "--out", out]
    # the interpreter's own SIGINT handler, even where the test runner's
    # shell started it with SIGINT ignored
    code = ("import signal, sys\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from flexjoint.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    src = str(Path(flexjoint.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("p.tmp-*")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert err == "error: interrupted\n"
    assert _files(tmp_path) == before


def test_a_failed_rename_leaves_none_of_the_set(tmp_path, capsys, monkeypatch):
    """A rename that fails after the first one has landed: exit 1, one line,
    and none of the set's names, so the prefix never mixes two runs."""
    out = str(tmp_path / "p")
    assert run(["simulate", "--horizon", "2", "--out", out]) == EXIT_OK
    replace, targets = os.replace, []

    def replace_but_the_second(src, dst):
        targets.append(dst)
        if len(targets) == 2:
            raise OSError(f"cannot rename to {dst}")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_but_the_second)
    capsys.readouterr()
    assert run(["simulate", "--horizon", "3", "--out", out]) == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert len(targets) == 2
    assert list(tmp_path.iterdir()) == []


# Each step of main's write path for a simulate run, which writes three
# texts: the function that takes the step and its call number
WRITE_STEPS = ([("mkdir", 0)]
               + [(step, i) for step in ("write_text", "unlink", "replace")
                  for i in range(3)])


@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
@pytest.mark.parametrize("step,call", WRITE_STEPS,
                         ids=[f"{step} {i}" for step, i in WRITE_STEPS])
def test_an_interrupt_at_any_write_step_leaves_no_scratch(tmp_path, capsys,
                                                          monkeypatch, step,
                                                          call, after):
    """A KeyboardInterrupt just before or just after each step of the write
    path: the scratch directory's os.mkdir, each write_text into it, each
    unlink under the prefix and each os.replace out of it.  main ends with
    exit 130 and one line, no scratch entry is left, and the prefix holds
    what _replace_set promises: the earlier set whole while only the
    scratch directory and its texts were made, none of the set's names
    once a removal has begun."""
    out = str(tmp_path / "p")
    assert run(["simulate", "--horizon", "2", "--out", out]) == EXIT_OK
    before = _files(tmp_path)
    owner = cli.os if step in ("mkdir", "replace") else Path
    real, calls = getattr(owner, step), []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) == call + 1 and not after:
            raise KeyboardInterrupt
        result = real(*args, **kwargs)
        if len(calls) == call + 1:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(owner, step, interrupted)
    capsys.readouterr()
    try:
        code = run(["simulate", "--horizon", "3", "--out", out])
    except KeyboardInterrupt:  # would end the whole test session
        pytest.fail("KeyboardInterrupt escaped main")
    finally:
        monkeypatch.undo()
    assert len(calls) > call
    assert code == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert not list(tmp_path.glob("*.tmp-*"))
    if step in ("mkdir", "write_text"):
        assert _files(tmp_path) == before
    else:
        assert list(tmp_path.iterdir()) == []


def test_artifacts_keep_the_mode_write_text_gives(tmp_path):
    """The scratch directory is private, but the artifacts moved out of it
    have the umask's mode, as a file Path.write_text makes."""
    umask = os.umask(0o027)
    try:
        (tmp_path / "ref").write_text("")
        assert run(["analyze", "--out", str(tmp_path / "p")]) == EXIT_OK
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["p_analysis.csv", "p_meta.json", "ref"], 0o640)


def test_an_out_prefix_ending_in_a_separator_writes_into_that_directory(tmp_path):
    """--out somedir/ names the files somedir/_meta.json and so on, and the
    scratch directory is made inside somedir and removed."""
    (tmp_path / "d").mkdir()
    assert run(["analyze", "--out", str(tmp_path / "d") + os.sep]) == EXIT_OK
    assert list(_files(tmp_path / "d")) == ["_analysis.csv", "_meta.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter's run of args with src/ on its path."""
    src = str(Path(flexjoint.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)


# gc.freeze wrapped before main registers it, so the wrapper counts the
# runs of the exit hook; then two in-process runs of main
COUNT_FREEZES = """\
import gc, sys
freeze = gc.freeze
def counted_freeze():
    freeze()
    print("exit freeze, frozen", gc.get_freeze_count() > 0)
gc.freeze = counted_freeze
from flexjoint.cli import main
for out in sys.argv[1:]:
    assert main(["simulate", "--horizon", "1", "--out", out]) == 0
    print("main returned, frozen", gc.get_freeze_count())
"""


def test_main_freezes_the_heap_once_at_exit_and_never_while_it_runs(tmp_path):
    """However often main runs in a process, nothing is frozen when it
    returns, and the exit runs gc.freeze once."""
    proc = _python("-c", COUNT_FREEZES, str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if not line.startswith("cost=")] == [
        "main returned, frozen 0", "main returned, frozen 0",
        "exit freeze, frozen True"]


@pytest.mark.parametrize("argv, code, err", [
    (["simulate", "--disturbance", "uniform", "--horizon", "2"], EXIT_OK, ""),
    (["simulate", "--seed", "-1"], EXIT_USAGE,
     "error: --seed must be >= 0, got -1\n"),
    (["simulate", "--controller", "single-pd"], EXIT_DIVERGED,
     "error: trajectory diverged at sim step 253 (t=1.2650s): |state| > 1e+06\n")],
    ids=["disturbed-simulate", "usage-error", "diverged-single-pd"])
def test_the_module_ends_as_main_returns(tmp_path, capsys, argv, code, err):
    """python -m flexjoint.cli exits with main's code and prints main's
    stdout and stderr, and the files it leaves are main's, byte for byte."""
    (tmp_path / "module").mkdir()
    (tmp_path / "main").mkdir()
    proc = _python("-m", "flexjoint.cli", *argv, "--out", str(tmp_path / "module" / "r"))
    assert run(argv + ["--out", str(tmp_path / "main" / "r")]) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stderr) == (code, err)
    assert (captured.out, captured.err) == (proc.stdout, err)
    assert _files(tmp_path / "module") == _files(tmp_path / "main")
