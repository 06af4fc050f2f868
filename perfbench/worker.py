"""One repetition of one workload, in a process of its own.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, its config or input file, whether to trace, and
a budget. The worker imports quantmatch and loads the config, prints `ready`
(the launching process times set-up up to that line), runs the timed call
once, and again while another call fits in the budget. During an untraced
timed call a SpeedSampler times a calibration chunk every 50 ms, so the
launcher can rescale the call to a fixed host speed; the sampler's own time
is taken out of the call's time. It prints one JSON line with the
measurements. A probe job stops after `ready`.
"""

import contextlib
import hashlib
import json
import signal
import sys
import time

import numpy as np

SAMPLE_PERIOD_S = 0.05


class SpeedSampler:
    """Times one calibration chunk every SAMPLE_PERIOD_S of wall time while active.

    The chunk runs from a SIGALRM handler, so it runs between two bytecodes
    of the timed call, on the same thread and CPU, at times spread evenly
    over it. The host's speed swings by up to 1.7x within seconds, and the
    mean chunk time over a timed call tracks the call's own time (correlation
    0.94 to 0.98 over 23 `bank_sixblobs` and 48 `inverse_map` passes, with a
    mix of the same parts). A chunk mixes the kinds of work the workloads
    do: numpy calls on one memory-bank-batch-shaped array (R=60, b=32, d=2),
    18 Weiszfeld-like steps of many tiny numpy calls on a 50x4 cloud, and a
    pure-Python loop of float and dict operations, 0.52 ms at the fastest.
    Each kind alone slows more or less than some workload when the host
    slows; their mix slows about as much as each workload does
    (log-log slope 0.9 to 1.0). It calls nothing in quantmatch,
    so a change to the program cannot change it. A call too short for the
    timer to fire gets one chunk after it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.refs, self.batch = rng.standard_normal((60, 2)), rng.standard_normal((32, 2))
        self.cloud, self.start = rng.standard_normal((50, 4)), 0.1 * rng.standard_normal(4)
        self.chunk_s: list[float] = []
        self.spent_s = 0.0  # time inside the handler, taken out of the timed call
        self._chunk()  # the first chunk in a process runs about 25% slow; not a sample

    def _chunk(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        diff = self.refs[:, None, :] - self.batch[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        (diff / dist[..., None]).mean(axis=1)
        q = self.start
        for _ in range(18):
            diff = q - self.cloud
            dist = np.linalg.norm(diff, axis=1)
            int(np.argmin(dist))
            weights = 1.0 / dist
            q = (self.cloud.T.dot(weights) + diff.T.dot(weights) / 50) / weights.sum()
        total, table = 0.0, {}
        for j in range(2500):
            total += j * 0.5
            table[j & 63] = total
        self.chunk_s.append(time.perf_counter() - started)
        self.spent_s += time.perf_counter() - started

    def __enter__(self):
        self.chunk_s, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunk_s:
            self._chunk()
            self.spent_s = 0.0


def _independent_residual(points, q, u, eps=1e-12):
    """||index(q) - u|| computed here rather than by the program."""
    diff = q - points
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = dist >= eps
    return float(np.linalg.norm((diff[keep] / dist[keep, None]).sum(axis=0) / keep.sum() - u))


def _describe(inputs, reports) -> list[dict]:
    """Per solve: the reported residual and iterations, and the residual recomputed here."""
    solves = []
    for (cloud, u), report in zip(inputs, reports):
        if isinstance(report, Exception):
            solves.append({"error": f"{type(report).__name__}: {report}"})
            continue
        q = report.quantile
        finite = bool(np.all(np.isfinite(q)))
        solves.append(
            {
                "residual": report.residual,
                "iterations": report.iterations,
                "finite": finite,
                "check": _independent_residual(cloud.points, q, u) if finite else None,
            }
        )
    return solves


def _solve_all(geometry, inputs):
    """Solve every input; a solve that raises yields its exception."""
    reports = []
    for cloud, u in inputs:
        try:
            reports.append(geometry.geometric_quantile(cloud, u))
        except Exception as exc:  # noqa: BLE001 - a solve that raises is a failed operation
            reports.append(exc)
    return reports


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)

    from quantmatch import cli, geometry

    spec = cli.load_spec(job["config"]) if job.get("config") else None
    print("ready", flush=True)
    if job["probe"]:
        return 0

    import resource
    from pathlib import Path

    from tracer import Tracer
    from workloads import load_inverse_inputs

    inputs = None
    if spec is None:
        inputs = [(geometry.PointCloud(p), u) for p, u in load_inverse_inputs(Path(job["inputs"]))]

    # per timed call: its time less the sampler's, and the mean chunk time during it
    result = {"run_s": [], "chunk_s": [], "pass_digests": []}
    sampler = None if job["traced"] else SpeedSampler()
    loop_started = time.perf_counter()
    while True:
        with Tracer() if job["traced"] else contextlib.nullcontext() as tracer, sampler or contextlib.nullcontext():
            started = time.perf_counter()
            if spec is not None:
                outcome = cli.run_experiment(spec)
            else:
                outcome = _solve_all(geometry, inputs)
            wall = time.perf_counter() - started
        if sampler is None:
            result["run_s"].append(wall)
        else:
            result["run_s"].append(wall - sampler.spent_s)
            result["chunk_s"].append(sum(sampler.chunk_s) / len(sampler.chunk_s))
        if spec is not None:
            result["exit_code"] = outcome
        else:
            result["solves"] = _describe(inputs, outcome)
            result["pass_digests"].append(hashlib.sha256(json.dumps(result["solves"]).encode()).hexdigest())
        if time.perf_counter() - loop_started + result["run_s"][-1] > job["budget_s"]:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["spans"], job["rep"], started)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
