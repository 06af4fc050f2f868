"""Tests of the benchmark itself: wrappers, traced-run identity, repeatable counts."""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracer import LAYER_METRICS, TARGETS, Tracer, _resolve
from quantmatch import cli, geometry

ROOT = Path(__file__).resolve().parent.parent
COUNT_KEYS = ("calls", "pairs", "bytes", "bytes_computed", "iterations", "on_support", "unconverged", "distinct_input_ratio", "forward_per_step")


def _spec(tmp_path, workload, epochs, out="out"):
    config = workloads.write_config(ROOT, workload, 0, tmp_path / f"{workload}.cfg", tmp_path / out)
    spec = cli.load_spec(config)
    return replace(spec, train=replace(spec.train, epochs=epochs))


def _outputs(spec):
    assert cli.run_experiment(spec) == 0
    summary = json.loads((spec.out_dir / "summary.json").read_text())
    del summary["runtime_ms"], summary["config"]["out_dir"]
    return (spec.out_dir / "trace.csv").read_bytes(), summary


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_KEYS)}


def test_wrappers_restore_originals():
    sites = [_resolve(module, path) for entries in TARGETS.values() for module, path in entries]
    originals = [vars(owner)[attr] for owner, attr in sites]
    with pytest.raises(KeyError):
        with Tracer():
            assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(sites, originals))
            raise KeyError("leave the block with an exception")
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(sites, originals))


@pytest.mark.parametrize("workload,epochs", [("fullbatch_sixblobs", 20), ("bank_sixblobs", 3)])
def test_traced_run_writes_the_same_outputs(tmp_path, workload, epochs):
    plain = _outputs(_spec(tmp_path, workload, epochs, "plain"))
    with Tracer() as tracer:
        traced = _outputs(_spec(tmp_path, workload, epochs, "traced"))
    assert traced == plain
    assert tracer.layer_metrics()["cli.run_experiment.calls"] == 1


def test_training_counts_repeat_exactly(tmp_path):
    epochs = 20
    runs = []
    for i in range(2):
        with Tracer() as tracer:
            _outputs(_spec(tmp_path, "fullbatch_sixblobs", epochs, f"run{i}"))
        runs.append(tracer.layer_metrics())
    assert _counts(runs[0]) == _counts(runs[1])
    # full batch: the gradient pass repeats the previous evaluation's points
    ratio = runs[0]["loss.quantile_loss_on_points.distinct_input_ratio"]
    assert ratio == (epochs + 1) / (2 * epochs + 1)
    assert runs[0]["bank.per_sample_units.calls"] == 0


def test_inverse_inputs_match_verify_and_counts_repeat(tmp_path):
    trials = 240
    path = tmp_path / "inputs.npz"
    workloads.save_inverse_inputs(workloads.inverse_inputs(0, trials), path)
    clouds = [(geometry.PointCloud(p), u) for p, u in workloads.load_inverse_inputs(path)]
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            for cloud, u in clouds:
                geometry.geometric_quantile(cloud, u)
        runs.append(tracer.layer_metrics())
    assert _counts(runs[0]) == _counts(runs[1])
    assert runs[0]["geometry.geometric_quantile.calls"] == trials

    lines = []
    cli.verify_inverse_map(trials, 0, lines)
    passed = int(lines[0].split(":")[1].split("/")[0])
    assert runs[0]["geometry.geometric_quantile.unconverged"] == trials - passed


def test_worker_reports_setup_then_identical_passes(tmp_path):
    inputs = tmp_path / "inputs.npz"
    workloads.save_inverse_inputs(workloads.inverse_inputs(1, 20), inputs)
    runner = run.Runner(tmp_path, {"workload": "inverse_map", "inputs": str(inputs)}, time.perf_counter() + 60)
    result, _ = runner.launch(0, budget_s=1.0)
    assert len(runner.setup_s) == 1
    assert len(result["run_s"]) >= 2
    assert len(set(result["pass_digests"])) == 1
    assert len(result["solves"]) == 20
    assert len(result["chunk_s"]) == len(result["run_s"])
    assert all(t > 0 for t in result["chunk_s"] + result["run_s"])


def test_speed_sampler_samples_during_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with worker.SpeedSampler() as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= len(sampler.chunk_s) <= 7
    assert 0 < sampler.spent_s < 0.3
    with worker.SpeedSampler() as short:
        pass
    assert len(short.chunk_s) == 1 and short.spent_s == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    layers = (*LAYER_METRICS, "trace.overhead_s")
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inverse_map", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
