"""Per-layer tracing from outside the program.

Each public function below is wrapped where its caller looks it up, so the
program itself is not edited: `trainer` and `cli` import names directly, so
patching `quantmatch.loss.quantile_loss_on_points` alone would record nothing.
A wrapper records one span (name, start, end, parent) per call, keeps the
spans in memory, and adds work counts measured at the same boundary.
`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import resource
import time
from collections import Counter

from workloads import UNCONVERGED_RESIDUAL

# layer metric name -> the (module, attribute path) sites to patch
TARGETS = {
    "cli.run_experiment": [("quantmatch.cli", "run_experiment")],
    "trainer.train": [("quantmatch.cli", "train")],
    "trainer.sgd_step": [("quantmatch.trainer", "sgd_step")],
    "trainer.evaluate_epoch": [("quantmatch.trainer", "evaluate_epoch")],
    "loss.quantile_loss_on_points": [("quantmatch.trainer", "quantile_loss_on_points")],
    "loss.select_references": [("quantmatch.trainer", "select_references")],
    # the bank's own snapshot functions call per_sample_units through `bank`
    "bank.per_sample_units": [("quantmatch.trainer", "per_sample_units"), ("quantmatch.bank", "per_sample_units")],
    "bank.population_moments": [("quantmatch.trainer", "population_moments")],
    "bank.initialize_bank": [("quantmatch.trainer", "initialize_bank")],
    "bank.refresh_snapshot": [("quantmatch.trainer", "refresh_snapshot")],
    "bank.control_variate_estimate": [("quantmatch.trainer", "control_variate_estimate")],
    "adapters.Adapter.forward_cloud": [("quantmatch.adapters", "Adapter.forward_cloud")],
    "adapters.Adapter.backward_cloud": [("quantmatch.adapters", "Adapter.backward_cloud")],
    "adapters.FeatureMap.forward_cloud": [("quantmatch.adapters", "FeatureMap.forward_cloud")],
    "adapters.FeatureMap.backward_cloud": [("quantmatch.adapters", "FeatureMap.backward_cloud")],
    "oracles.wasserstein2": [("quantmatch.trainer", "wasserstein2")],
    "oracles.paired_mse": [("quantmatch.trainer", "paired_mse")],
    "geometry.geometric_quantile": [("quantmatch.geometry", "geometric_quantile")],
    "datasets.six_blobs": [("quantmatch.cli", "six_blobs")],
    "datasets.cloud_to_csv": [("quantmatch.cli", "cloud_to_csv")],
    "rng.SplitMix64.permutation": [("quantmatch.rng", "SplitMix64.permutation")],
}

# calls that build (R, m, d) arrays; the rise of the RSS high-water mark is
# recorded around each of them
RSS_TRACKED = (
    "loss.quantile_loss_on_points",
    "loss.select_references",
    "bank.per_sample_units",
    "bank.population_moments",
    "bank.initialize_bank",
    "bank.refresh_snapshot",
)


def _count_loss(tracer, args, result):
    points, refs = args[0], args[1]
    pairs = refs.count * points.shape[0]
    tracer.counts["loss.quantile_loss_on_points.pairs"] += pairs
    tracer.counts["loss.quantile_loss_on_points.bytes_computed"] += pairs * points.shape[1] * 8
    tracer.loss_inputs.add(hashlib.blake2b(repr(points.shape).encode() + points.tobytes(), digest_size=16).digest())


def _count_select(tracer, args, result):
    tracer.counts["loss.select_references.pairs"] += args[1] * args[0].n


def _count_units(tracer, args, result):
    tracer.counts["bank.per_sample_units.pairs"] += args[1].shape[0] * args[0].shape[0]


def _count_solve(tracer, args, result):
    tracer.counts["geometry.geometric_quantile.iterations"] += result.iterations
    tracer.counts["geometry.geometric_quantile.on_support"] += int(result.on_support)
    tracer.counts["geometry.geometric_quantile.unconverged"] += int(result.residual > UNCONVERGED_RESIDUAL)


def _count_csv(tracer, args, result):
    tracer.counts["datasets.cloud_to_csv.bytes"] += os.path.getsize(args[1])


COUNTERS = {
    "loss.quantile_loss_on_points": _count_loss,
    "loss.select_references": _count_select,
    "bank.per_sample_units": _count_units,
    "geometry.geometric_quantile": _count_solve,
    "datasets.cloud_to_csv": _count_csv,
}

# every per-layer metric a traced run reports, in output order
COUNT_METRICS = (
    "loss.quantile_loss_on_points.pairs",
    "loss.quantile_loss_on_points.bytes_computed",
    "loss.quantile_loss_on_points.distinct_input_ratio",
    "loss.select_references.pairs",
    "bank.per_sample_units.pairs",
    "adapters.forward_per_step",
    "geometry.geometric_quantile.iterations",
    "geometry.geometric_quantile.on_support",
    "geometry.geometric_quantile.unconverged",
    "datasets.cloud_to_csv.bytes",
)
LAYER_METRICS = (
    tuple(f"{name}.{kind}" for name in TARGETS for kind in ("calls", "busy_s", "self_s"))
    + COUNT_METRICS
    + tuple(f"{name}.peak_rss_gain_mb" for name in RSS_TRACKED)
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the TARGETS while installed; spans and counts stay in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.rss_gain_mb: Counter = Counter()
        self.loss_inputs: set[bytes] = set()  # digests of the points passed to the loss
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in TARGETS.items():
            for module, path in sites:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name, fn):
        spans, stack, gains = self.spans, self._stack, self.rss_gain_mb
        counter = COUNTERS.get(name)
        track_rss = name in RSS_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            rss_before = _maxrss_mb() if track_rss else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if track_rss:
                gains[name] += _maxrss_mb() - rss_before
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Calls, busy and self time per wrapped function, plus the work counts.

        Self time is busy time minus the time of wrapped direct callees; no
        wrapped function calls itself, so busy time counts no span twice.
        """
        calls, busy, child = Counter(), Counter(), [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner

        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
        loss_calls = calls["loss.quantile_loss_on_points"]
        steps = calls["trainer.sgd_step"]
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        out["loss.quantile_loss_on_points.distinct_input_ratio"] = (
            len(self.loss_inputs) / loss_calls if loss_calls else 0.0
        )
        out["adapters.forward_per_step"] = calls["adapters.Adapter.forward_cloud"] / steps if steps else 0.0
        for name in RSS_TRACKED:
            out[f"{name}.peak_rss_gain_mb"] = self.rss_gain_mb[name]
        return out

    def write_spans(self, path, rep: int, origin: float) -> None:
        """One CSV row per span; `rep` is the id the spans of one repetition share."""
        with open(path, "w") as fh:
            fh.write("rep,span,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{rep},{index},{name},{start - origin!r},{end - origin!r},{parent}\n")
