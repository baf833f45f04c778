import hashlib
import json

import numpy as np
import pytest

from flexjoint.cli import (EXIT_DIVERGED, EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE,
                           METRIC_COLUMNS, TRAJ_COLUMNS, main, read_csv)
from flexjoint.gainsio import save_gains
from flexjoint.control import GainSet
from flexjoint.metrics import FAILED_COST


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
    out = str(tmp_path / "z")
    assert run(["simulate", "--out", out, "--horizon", "0"]) == EXIT_USAGE
    header, data = read_csv(out + "_trajectory.csv")
    assert data.shape == (1, len(TRAJ_COLUMNS))
    assert "degenerate" in capsys.readouterr().err


def test_simulate_divergence_exit_code(tmp_path):
    out = str(tmp_path / "d")
    code = run(["simulate", "--out", out, "--controller", "single-pd"])
    assert code == EXIT_DIVERGED


def test_simulate_nonfinite_torque_exit_code(tmp_path, capsys):
    gfile = tmp_path / "huge.txt"
    save_gains(gfile, GainSet(1e300, 1e300, 1e300, 1e300))
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
    save_gains(gfile, GainSet(60.0, 12.0, 120.0, 9.0))
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
    assert len(err) == 1 and err[0].startswith("error: line 1")


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
    save_gains(gfile, GainSet())
    out = str(tmp_path / "hw")
    assert run(["tune", "--stage", "flr", "--gains", str(gfile), "--out", out,
                "--episodes", "3", "--n-init", "2",
                "--flr-half-width", half_width]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


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
    save_gains(gfile, GainSet(0.0, 0.0, 0.0, 0.0))
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
    # gains inside the search box
    vals = [float(l.split("=")[1]) for l in lines]
    assert 0.0 <= vals[0] <= 150.0 and 0.0 <= vals[1] <= 30.0


def test_tune_too_short_horizon_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "ts")
    assert run(["tune", "--stage", "pd", "--out", out, "--horizon", "5",
                "--episodes", "3", "--n-init", "2"]) == EXIT_USAGE
    assert "need 200" in capsys.readouterr().err


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
    save_gains(gfile, GainSet())
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


# sha256 of the artifacts, recorded before the trajectory became a column
# array; a refactor of the simulation core must leave every byte in place.
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
