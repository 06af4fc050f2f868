"""quantmatch benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh worker process, one at a time (a closed loop
with one client), until `--seconds` of repetitions have run; at least
MIN_REPS always run. With `--trace 0` the last stdout line holds the
end-to-end metrics: medians over repetitions, with the two times rescaled to
a fixed host speed by the calibration chunks each worker times during its
timed calls (see CALIBRATION_REF_S); with `--trace 1` it holds the
per-layer metrics of traced repetitions, which alternate with untraced ones
so that the tracing overhead is measured in the same run. Every repetition's
outputs are checked. The line before the result records the environment.
Work files go to `.perfbench/<workload>/` in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_REPS = 3
MIN_TRACED_REPS = 4  # traced and untraced alternate, so two of each
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 160.0  # no worker starts or runs past this; a run must end within 180 s
# `setup_s` and `run_s` are reported as if one calibration chunk
# (worker.SpeedSampler) had taken this long. Each timed call's time is
# multiplied by CALIBRATION_REF_S / the mean chunk time during that call.
# The median set-up time is multiplied by CALIBRATION_REF_S / the median of
# those means: chunks timed during imports, which run mostly in C, followed
# set-up worse than the run's own chunks did (spread over ten seeds 0.07 to
# 0.23 against 0.02 to 0.09). 0.55 ms is about the fastest chunk mean on a
# 2.1 GHz Xeon VM.
CALIBRATION_REF_S = 0.55e-3


def _environment() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(numpy),
        "machine": platform.machine(),
    }


def _blas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


class Runner:
    """Launches worker processes for one workload and collects their samples."""

    def __init__(self, work: Path, job: dict, limit: float):
        self.work = work
        self.job = job
        self.limit = limit
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.setup_s: list[float] = []

    def launch(self, rep: int, traced=False, probe=False, budget_s=0.0) -> tuple[dict | None, float]:
        """Run one worker; returns (its result or None on failure, its wall time).

        The worker repeats the timed call while another call fits in `budget_s`.
        """
        job_path = self.work / "job.json"
        spans = str(self.work / f"spans-{rep}.csv")
        job = dict(self.job, rep=rep, traced=traced, probe=probe, budget_s=budget_s, spans=spans)
        job_path.write_text(json.dumps(job))
        with open(self.work / "worker-stderr.txt", "a") as err:
            started = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, str(WORKER), str(job_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True,
            ) as proc:
                try:
                    ready = proc.stdout.readline()
                    ready_at = time.perf_counter()
                    out, _ = proc.communicate(timeout=max(1.0, self.limit - ready_at))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    return None, time.perf_counter() - started
                except BaseException:
                    proc.kill()
                    raise
        wall = time.perf_counter() - started
        if ready.strip() != "ready":
            return None, wall
        self.setup_s.append(ready_at - started)
        if probe or proc.returncode != 0:
            return ({} if probe and proc.returncode == 0 else None), wall
        return json.loads(out.strip().splitlines()[-1]), wall


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_training(workload: str, out_dir: Path, result: dict) -> tuple[list[str], str, dict]:
    """Problems with one training repetition, its output digest, and its quality figures."""
    from workloads import QUALITY_GATE, W2_SKIPPED

    problems = []
    if result["exit_code"] != 0:
        problems.append(f"run_experiment returned {result['exit_code']}")
    summary = json.loads((out_dir / "summary.json").read_text())
    trace_bytes = (out_dir / "trace.csv").read_bytes()
    first, last = summary["initial_metrics"], summary["final_metrics"]
    for key in ("quantile_loss", "paired_mse"):
        if not (_finite(first[key]) and _finite(last[key])):
            problems.append(f"non-finite {key}")
    for row in trace_bytes.decode().splitlines()[1:]:
        if not all(_finite(float(cell)) for cell in row.split(",") if cell):
            problems.append("non-finite value in trace.csv")
            break
    if summary["flags"]["aborted_steps"]:
        problems.append(f"{summary['flags']['aborted_steps']} nonfinite_grad steps")
    if workload in QUALITY_GATE and not last["paired_mse"] <= QUALITY_GATE[workload] * first["paired_mse"]:
        problems.append(f"final paired MSE {last['paired_mse']!r} above {QUALITY_GATE[workload]} x initial {first['paired_mse']!r}")
    if workload in W2_SKIPPED and not summary["flags"]["wasserstein_skipped"]:
        problems.append("exact W2 was expected to be skipped")
    deterministic = {k: summary[k] for k in ("initial_metrics", "final_metrics", "adapter_params", "flags")}
    digest = hashlib.sha256(trace_bytes + json.dumps(deterministic, sort_keys=True).encode()).hexdigest()
    quality = {"initial_paired_mse": first["paired_mse"], "final_paired_mse": last["paired_mse"]}
    return problems, digest, quality


def check_inverse(result: dict) -> tuple[list[str], int]:
    """Problems with one inverse-map worker's solves, and its unconverged solves."""
    from workloads import UNCONVERGED_RESIDUAL

    problems, failed = [], 0
    for i, solve in enumerate(result["solves"]):
        if "error" in solve:
            failed += 1
            continue
        if not solve["finite"]:
            problems.append(f"solve {i}: non-finite quantile")
            continue
        if abs(solve["check"] - solve["residual"]) > 1e-10:
            problems.append(f"solve {i}: reported residual {solve['residual']!r} != recomputed {solve['check']!r}")
        failed += solve["residual"] > UNCONVERGED_RESIDUAL
    return problems, failed


def _median_layers(samples: list[dict], problems: list[str]) -> dict:
    """Medians of the per-layer times over traced repetitions; counts must repeat exactly."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        if key.endswith(("_s", "_mb")):
            out[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"traced count {key} differs between repetitions: {values}")
            out[key] = values[0]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads
    from tracer import LAYER_METRICS

    work = ROOT / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"
    if workload == workloads.INVERSE_MAP:
        inputs = work / "inputs.npz"
        workloads.save_inverse_inputs(workloads.inverse_inputs(seed), inputs)
        job = {"workload": workload, "inputs": str(inputs)}
    else:
        config = workloads.write_config(ROOT, workload, seed, work / "config.cfg", out_dir)
        job = {"workload": workload, "config": str(config)}
    started = time.perf_counter()
    runner = Runner(work, job, started + RUN_LIMIT_S)

    problems: list[str] = []
    digests: set[str] = set()
    samples: dict[bool, list[dict]] = {False: [], True: []}
    walls: list[float] = []
    failed_reps = 0
    failed_ops = attempted_ops = 0
    quality = None
    rep = 0
    while True:
        traced = trace and rep % 2 == 0
        repeat = workload in workloads.REPEATED_IN_PROCESS and not trace
        budget = max(0.0, seconds - (time.perf_counter() - started)) if repeat else 0.0
        shutil.rmtree(out_dir, ignore_errors=True)
        result, wall = runner.launch(rep, traced=traced, budget_s=budget)
        rep += 1
        walls.append(wall)
        if result is None:
            failed_reps += 1
            problems.append(f"repetition {rep - 1} did not complete; see {work / 'worker-stderr.txt'}")
        else:
            samples[traced].append(
                {
                    "pass_s": result["run_s"],
                    "chunk_s": result["chunk_s"],
                    "peak_rss_mb": result["peak_rss_mb"],
                    "layers": result.get("layers"),
                }
            )
            if workload == workloads.INVERSE_MAP:
                rep_problems, failed_ops = check_inverse(result)
                attempted_ops = len(result["solves"])
                digests.update(result["pass_digests"])
            else:
                rep_problems, digest, quality = check_training(workload, out_dir, result)
                digests.add(digest)
            problems.extend(f"repetition {rep - 1}: {p}" for p in rep_problems)
        elapsed = time.perf_counter() - started
        timed = sum(len(s["pass_s"]) for s in samples[False] + samples[True])
        enough = timed >= (MIN_TRACED_REPS if trace else MIN_REPS) and (not trace or (samples[True] and samples[False]))
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed + max(walls) > RUN_LIMIT_S or (rep >= 4 * MIN_REPS and not timed):
            break
    while (
        len(runner.setup_s) < MIN_SETUP_SAMPLES
        and time.perf_counter() - started < RUN_LIMIT_S - 5.0
        and runner.launch(rep, probe=True)[0] is not None
    ):
        rep += 1
    if len(digests) > 1:
        problems.append("outputs (trace.csv and summary metrics, or solver results) differ between repetitions")

    untraced = [t for s in samples[False] for t in s["pass_s"]]
    chunks = [c for s in samples[False] for c in s["chunk_s"]]
    plain = {}
    if untraced:
        plain = {
            "setup_s": statistics.median(runner.setup_s),
            "run_s": statistics.median(untraced),
            "chunk_s": statistics.median(chunks),  # of the timed calls
        }
    if trace:
        traced_runs = samples[True]
        metrics = _median_layers([s["layers"] for s in traced_runs], problems) if traced_runs else {}
        if traced_runs and untraced:
            metrics["trace.overhead_s"] = statistics.median(t for s in traced_runs for t in s["pass_s"]) - plain["run_s"]
        units = {name: _layer_unit(name) for name in (*LAYER_METRICS, "trace.overhead_s")}
    else:
        metrics = {}
        if untraced:
            metrics = {
                "setup_s": plain["setup_s"] * CALIBRATION_REF_S / plain["chunk_s"],
                "run_s": statistics.median(t * CALIBRATION_REF_S / c for t, c in zip(untraced, chunks)),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples[False]),
            }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

    if workload == workloads.INVERSE_MAP:
        attempted, failed = attempted_ops + failed_reps, failed_ops + failed_reps
    else:
        attempted, failed = len(walls), failed_reps
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": _environment(),
        "repetitions": {
            "untraced": sum(len(s["pass_s"]) for s in samples[False]),
            "traced": sum(len(s["pass_s"]) for s in samples[True]),
            "failed": failed_reps,
        },
        "setup_samples": len(runner.setup_s),
        "wall_medians": plain,
        "quality": quality,
        "problems": problems,
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result, "samples": samples}, indent=1))
    return info, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith(("ratio", "per_step")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/quantmatch/__init__.py", str(workloads.SHIPPED_CONFIG)) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a quantmatch checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import quantmatch

    if Path(quantmatch.__file__).resolve().parent != ROOT / "src" / "quantmatch":
        print(f"perfbench: imported quantmatch from {quantmatch.__file__}, not from this checkout", file=sys.stderr)
        return 2

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
