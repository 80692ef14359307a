"""Self-test of the benchmark at smoke size.

Run from the repository root with ``python3 -m pytest perfbench``.  It
checks that every metric named in BENCHMARK.json is printed with its unit,
that no correctness gate is vacuous, that a fixed seed gives fixed outputs,
and that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS, ErgodicityWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, seed=1, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, key):
    _, result = smoke(workload, trace=trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wall_time_is_the_mean_repeat_at_the_host_speed(workload):
    detail, result = smoke(workload)
    fulls = [wall for tag, wall in detail["child_wall_s"] if tag.startswith("full")]
    scale = 1.0 / detail["host_slowdown"] if WORKLOADS[workload].host_scaled else 1.0
    assert detail["host_slowdown"] > 0
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(sum(fulls) / len(fulls) * scale)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_outputs(workload):
    first, _ = smoke(workload, seed=4)
    again, _ = smoke(workload, seed=4)
    assert first["output_sha256"] == again["output_sha256"]


def wrong_expectations(w):
    if isinstance(w, ErgodicityWorkload):
        # agreement far tighter than the Monte Carlo error allows
        return [dataclasses.replace(w, n_se=-50.0)]
    cases = [dataclasses.replace(w, min_overlap=1.01)]
    if w.max_energy_error_gaps is not None:
        cases.append(dataclasses.replace(w, max_energy_error_gaps=-1.0))
    return cases


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gates_reject_a_wrong_expectation(workload, tmp_path):
    w = WORKLOADS[workload]
    session = run.Session(ROOT, w, 2, True, tmp_path)
    session.measure(0)
    assert session.failures == []
    assert w.check(tmp_path) == []
    for wrong in wrong_expectations(w):
        assert wrong.check(tmp_path), wrong


def test_missing_trace_target_is_omitted_with_a_warning(capsys):
    tracer = traced.Tracer("test")
    tracer.install([("channel", "no_such_step", "channel.trajectory_step")])
    assert tracer.missing == {"channel.no_such_step": "channel.trajectory_step"}
    span = ["channel.run_simulation", 0.0, 1.0, -1, 0.0]
    metrics, _ = run.layer_metrics([span], tracer.missing, "channel.run_simulation")
    assert "channel.trajectory_step.calls" not in metrics
    assert "channel.build_w.s" in metrics
    assert "cannot trace channel.no_such_step" in capsys.readouterr().err


def test_layer_self_time_subtracts_children():
    spans = [
        ["channel.run_simulation", 0.0, 10.0, -1, 0.0],
        ["channel.build_w", 1.0, 4.0, 0, 5.0],
        ["linalg.hermitian_eig", 1.0, 2.0, 1, 0.0],
        ["channel.trajectory_step", 5.0, 9.0, 0, 0.0],
    ]
    metrics, layers = run.layer_metrics(spans, {}, "channel.run_simulation")
    assert layers["channel.build_w"]["self_s"] == pytest.approx(2.0)
    assert metrics["trace.unaccounted_s"][0] == pytest.approx(3.0)
    assert metrics["trace.coverage"][0] == pytest.approx(0.7)
    assert metrics["channel.build_w.rss_growth_mb"][0] == 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "rc-ergodicity", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
