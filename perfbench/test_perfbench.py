"""Quick checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from cli_workloads import TUNE_EPISODES, CliOneshot, Context, TunePd

sys.path.insert(0, str(run.ROOT / "src"))

import sweep  # noqa: E402  (imports flexjoint from src/)
from flexjoint import control, plant, tuning  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(sweep, "TRACE_ROUNDS", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "sweep", "--seed", "3",
                         "--seconds", "0.2", "--trace", str(trace)]) == 0
        result = last_json(capsys)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] > 0
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}


def test_traced_command_writes_the_same_artifacts(tmp_path):
    wl = CliOneshot(Context(run.ROOT, tmp_path), seed=5, reference=None)
    op = wl.ops[0]                      # simulate, fuzzy-cascaded, disturbed
    plain, ok_plain = wl.run_op(op)
    traced, ok_traced = wl.run_op(op, tmp_path / "spans.npz")
    assert ok_plain and ok_traced, wl.problems
    assert set(plain.artifacts) == {"_trajectory.csv", "_metrics.csv"}
    assert traced.artifacts == plain.artifacts
    trace = tracer.Trace()
    trace.add_file(tmp_path / "spans.npz")
    layers = tracer.layer_metrics(trace)
    assert layers["control.simulate.calls"] == 1
    assert layers["plant.euler_step.calls"] == 2000


def test_in_process_tune_is_timed_per_episode(tmp_path):
    reference = json.loads((run.BENCH / "reference.json").read_text())["tune-pd"]["0"]
    original = tuning.make_pd_cost
    wl = TunePd(Context(run.ROOT, tmp_path), seed=0, reference=reference)
    m = wl.measure(0.0)                 # the warm-up tune, then one timed tune
    assert not wl.problems and m["failed"] == 0
    assert [s[0] for s in m["samples"]] == [f"tune#{k}"
                                            for k in range(TUNE_EPISODES + 1)]
    assert tuning.make_pd_cost is original


def test_per_operation_sums_the_median_of_each_segment():
    samples = [("a#0", 2.0, 1.5), ("b#0", 1.0, 0.9), ("a#0", 1.0, 1.2), ("a#0", 3.0, 0.8),
               ("a#1", 1.0, 1.0), ("a#1", 2.0, 0.5), ("*#s", 0.5, 0.5), ("*#s", 0.25, 1.0)]
    assert run.per_operation(samples) == {"a": (3.875, 2.7), "b": (1.375, 1.65)}
    assert run.per_operation([("a", 2.0, 1.0), ("a", 1.0, 2.0)]) == {"a": (1.5, 1.5)}


def test_uncalled_or_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("plant.euler_step", "plant", "no_longer_exists", None, "call"),))
    t = tracer.Tracer()
    t.install()
    try:
        # A zero-length horizon computes one torque and integrates nothing.
        control.simulate(plant.PlantParams(), plant.SimConfig(horizon=0.0),
                         control.Controller(), control.Reference(),
                         plant.DisturbanceModel())
    finally:
        t.uninstall()
    trace = tracer.Trace()
    trace.add_tracer(t)
    layers = tracer.layer_metrics(trace)
    assert layers["control.simulate.calls"] == 1
    assert layers["control.Controller.torque.calls"] == 1
    assert layers["plant.euler_step.calls"] == 0
    assert layers["plant.euler_step.self_s"] == 0
    assert layers["tuning.gp_fit.calls"] == 0


def test_wrapping_follows_identity_not_name(monkeypatch):
    original = plant.euler_step
    monkeypatch.setattr(control, "moved_step", original, raising=False)
    t = tracer.Tracer()
    t.install()
    try:
        assert control.moved_step is not original
        assert control.euler_step is control.moved_step
        control.moved_step(plant.PlantParams(), plant.State(0.0, 0.0, 0.0, 0.0),
                           0.0, 0.0, 0.0, 0.005)
    finally:
        t.uninstall()
    assert control.moved_step is original and plant.euler_step is original
    trace = tracer.Trace()
    trace.add_tracer(t)
    assert tracer.layer_metrics(trace)["plant.euler_step.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("walls,expected", [
    ([1.0] * 99, None),
    ([float(i) for i in range(1, 101)], (90.0, 90.0)),
])
def test_tail_has_ten_samples_beyond(walls, expected):
    assert run.tail(walls) == expected
