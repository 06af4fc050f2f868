"""Quantile-matching training loop with optional memory-bank minibatch SGD.

Reference indices are computed once against the source features before the
first epoch and never refreshed.  Full-batch mode takes one exact gradient
step per epoch; minibatch mode estimates the per-reference averages with the
snapshot control variate and refreshes the snapshot every `snapshot_every`
epochs.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import loss as loss_mod, oracles
from .adapters import Adapter, FeatureMap
# initialize_bank, per_sample_units, population_moments and refresh_snapshot
# are not called here, but perfbench/tracer.py patches them by name in this module
from .bank import (
    MemoryBank,
    control_variate_estimate,
    initialize_bank,
    lemma_variances,
    per_sample_units,
    population_moments,
    refresh_snapshot,
    sweep,
)
from .geometry import PointCloud
from .loss import (
    ReferenceSet,
    Workspace,
    direction_point_grads,
    point_sums,
    quantile_loss_on_points,
    reference_blocks,
    select_references,
    unit_directions,
)
# wasserstein2 is not called here (the W2 helper thread calls oracles.wasserstein2,
# off perfbench/tracer.py's single-threaded span stack), but the tracer patches it by name in this module
from .oracles import MAX_EXACT_SIZE, paired_mse, wasserstein2
from .rng import SplitMix64

# the full-data metrics of a record; summary.json reports them at the first and the last record
SUMMARY_METRICS = ("quantile_loss", "paired_mse", "wasserstein2")
TRACE_COLUMNS = ("epoch", *SUMMARY_METRICS, "crude_var", "control_var", "grad_norm")

# a run has diverged once its adapted cloud spreads this many times wider
# than the source features (or than its own start, if that is wider)
DIVERGENCE_SPREAD = 1e3


class ConfigError(ValueError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 0  # train needs it in [1, n]; a run from a config reads 0 as all target points
    learning_rate: float = 1e-2
    reference_count: int = 60
    momentum: float = 0.9
    seed: int = 0
    snapshot_every: int = 1
    full_batch: bool = False
    wasserstein_every: int = 10

    def validate(self, n_source: int, n_target: int) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 1 <= self.batch_size <= n_target:
            raise ConfigError(f"batch_size must be in [1, {n_target}]")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if not 1 <= self.reference_count <= n_source:
            raise ConfigError(f"reference_count must be in [1, {n_source}]")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")
        if self.wasserstein_every < 1:
            raise ConfigError("wasserstein_every must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    quantile_loss: float
    paired_mse: float | None
    wasserstein2: float | None
    crude_var: float | None = 0.0  # None on a memory-bank record off the W2 cadence
    control_var: float | None = 0.0
    grad_norm: float = 0.0
    flag: str = ""


@dataclass
class RunTrace:
    records: list[EpochRecord] = field(default_factory=list)
    adapted: np.ndarray | None = None  # the last record's (n, d) adapted cloud
    divergence: tuple[int, float] | None = None  # (epoch, spread ratio) of a stopped run
    aborted_steps: int = 0  # sgd_step calls refused for a non-finite gradient; a record flags its epoch once

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.records]
        return np.asarray([v for v in vals if v is not None], dtype=float)

    def to_csv(self, path) -> None:
        """Deterministic trace, so reruns are byte-identical: each field is its value's repr, or empty for None."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for r in self.records:
                writer.writerow("" if (v := getattr(r, name)) is None else repr(v) for name in TRACE_COLUMNS)


def sgd_step(
    adapter: Adapter,
    grads: np.ndarray,
    cfg: TrainConfig,
    velocity: np.ndarray | None = None,
) -> tuple[Adapter, np.ndarray]:
    """Classical momentum update: v <- mu*v + g, theta <- theta - lr*v."""
    grads = np.asarray(grads, dtype=float)
    if grads.shape != adapter.params.shape:
        raise ConfigError("gradient length does not match parameter count")
    if not np.isfinite(grads).all():
        raise NonFiniteGradientError("non-finite gradient")
    if velocity is None:
        velocity = np.zeros_like(adapter.params)
    velocity = cfg.momentum * velocity + grads
    return adapter.with_params(adapter.params - cfg.learning_rate * velocity), velocity


def _chain_param_grad(
    adapter: Adapter,
    fmap: FeatureMap,
    target_pts: np.ndarray,
    transformed: np.ndarray,
    point_grads: np.ndarray,
) -> np.ndarray:
    upstream = fmap.backward_cloud(transformed, point_grads)
    param_grad, _ = adapter.backward_cloud(target_pts, upstream)
    return param_grad


def rms_spread(points: np.ndarray) -> float:
    """Root-mean-square distance of the points from their mean; inf for a cloud too wide to square."""
    with np.errstate(over="ignore"):  # an overflowing spread is the divergence stop's signal
        centered = points - points.mean(axis=0)
        return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))


def minibatch_point_grads(
    yb: np.ndarray,
    batch: np.ndarray,
    bank: MemoryBank,
    refs: ReferenceSet,
    work: Workspace | None = None,
) -> np.ndarray:
    """Point gradients of mean_r ||estimate_r - u_r||^2 through the batch term.

    yb holds the adapted points, at the current parameters, of the samples
    whose indices are `batch`; their snapshot units are built from the bank's
    points `batch`.  estimate_r is the control-variate estimate of the
    population average, so only yb's own units carry gradient.

    One serial loop over blocks of references (reference_blocks), as the
    loss with its gradient runs: each block builds the snapshot units of the
    b points toward its references and their mean, then, in the same
    buffers, the current units, their point sums, its estimate and its
    gradient terms, and direction_point_grads carries the rows' sums from
    block to block, so the bits do not depend on the blocks.  On six-blobs
    the batch fits one block.  The step holds one block's unit planes and
    the (b, d) rows; the planes are views of `work`'s buffers (a new
    Workspace's when not given), so the steps of an epoch can share one
    workspace: a smaller last batch takes views of their fronts.
    """
    b, d = yb.shape
    work = Workspace() if work is None else work
    grads = None
    for block in reference_blocks(refs.count, b * d):
        ref_points = refs.quantiles[block]
        snapshot_mean = bank.batch_mean(batch, ref_points, work)
        units, dist, mask = unit_directions(yb, ref_points, work)
        estimate = control_variate_estimate(bank, point_sums(units, work) / b, snapshot_mean, block)
        if mask.all():  # every pair kept, so every dist is at least COINCIDENCE_EPS
            scale = np.multiply(refs.count * b, dist, out=work.take("scale", dist.shape))
            np.divide(2.0, scale, out=scale)
        else:
            scale = np.where(mask, 2.0 / (refs.count * b * dist.clip(min=1e-300)), 0.0)
        grads = direction_point_grads(units, estimate - refs.target_indices[block], scale, grads, work)
    return grads


def evaluate_epoch(
    adapted: np.ndarray,
    source_feats: PointCloud,
    loss: float,
    paired: bool = False,
    epoch: int = 0,
) -> EpochRecord:
    """The record of the adapted (n, d) cloud, whose quantile loss is `loss`; `train` adds the exact W2 on cadence.

    With `paired`, the paired MSE compares adapted row i with source row i.
    """
    mse = paired_mse(adapted, source_feats.points) if paired else None
    return EpochRecord(epoch=epoch, quantile_loss=loss, paired_mse=mse, wasserstein2=None)


def train(
    source_feats: PointCloud,
    target: PointCloud,
    adapter: Adapter,
    fmap: FeatureMap,
    cfg: TrainConfig,
    paired: bool = False,
    source_labels=None,
) -> tuple[Adapter, RunTrace]:
    """Run quantile matching and return the adapter plus the per-epoch trace.

    The trace carries one record per epoch plus a pre-training record at
    epoch 0, so initial/final metric ratios are well-defined. Each record
    forwards the full cloud once, and the next full-batch step reuses it;
    the last record's cloud is kept as `trace.adapted`. A cloud that is
    non-finite or spreads more than DIVERGENCE_SPREAD times wider than the
    source features (or the starting cloud, if wider) gets no record: the
    run stops, sets `trace.divergence` and returns the last record's adapter.
    Pass `paired` when target row i is the corrupted source row i; each
    record then carries their paired MSE.

    On cadence (epoch 0, the last epoch and every `wasserstein_every`-th) a
    record gets its exact W2 from one helper thread beside training, or the
    `wasserstein_skipped` flag where the adapted and source clouds are not of
    one size within MAX_EXACT_SIZE, and then no thread starts. Every distance
    is in its record when train returns; a W2 that raises is raised from
    train, and no thread outlives it.

    In memory-bank mode the variance columns follow the same cadence: an
    on-cadence record after epoch 0 carries crude_var and control_var (0.0
    at batch_size = n), and the records between carry None.
    """
    cfg.validate(source_feats.n, target.n)
    if fmap.out_dim != source_feats.dim:
        raise ConfigError("source features must live in the feature-map output space")
    if fmap.in_dim != adapter.dim or adapter.dim != target.dim:
        raise ConfigError("adapter/feature-map/target dimensions are inconsistent")

    try:
        refs = select_references(source_feats, cfg.reference_count, cfg.seed, labels=source_labels)
    except ValueError as exc:
        raise ConfigError(f"cannot select references: {exc}") from exc
    spread_scale = rms_spread(source_feats.points)

    n = target.n
    rng = SplitMix64.stream("trainer_batches", cfg.seed)
    velocity = np.zeros_like(adapter.params)
    # epoch 0's sweep fills the bank
    bank = None if cfg.full_batch else MemoryBank.empty(source_feats.dim, refs.count, n)
    trace = RunTrace()

    def step(x: np.ndarray, transformed: np.ndarray, point_grads: np.ndarray) -> float:
        """One SGD update from the point gradients at x's forward; a non-finite gradient is counted and refused."""
        nonlocal adapter, velocity
        param_grad = _chain_param_grad(adapter, fmap, x, transformed, point_grads)
        try:
            adapter, velocity = sgd_step(adapter, param_grad, cfg, velocity)
        except NonFiniteGradientError:
            trace.aborted_steps += 1
        return math.sqrt(param_grad.dot(param_grad))

    # The pool starts its thread at the first submit. A record submits its
    # cloud and does not wait, unless the clouds queued, its own among them,
    # would take more than loss.BLOCK_BYTES: then it waits for the oldest plans.
    exact_w2 = n == source_feats.n <= MAX_EXACT_SIZE
    pending = deque()  # (record, cloud, plan) of each record whose W2 is not yet written, oldest first

    def write_w2(budget: int) -> None:
        """Write the oldest pending records' W2: each whose plan is done, then more while their clouds take over budget bytes."""
        while pending and (pending[0][2].done() or sum(cloud.nbytes for _, cloud, _ in pending) > budget):
            rec, _, plan = pending.popleft()
            rec.wasserstein2 = plan.result().distance

    helper = ThreadPoolExecutor(max_workers=1)
    try:
        for epoch in range(cfg.epochs + 1):
            aborted = trace.aborted_steps
            grad_norm = 0.0

            if epoch > 0 and cfg.full_batch:
                # the previous record's forward is at the current parameters
                _, point_grads = quantile_loss_on_points(adapted, refs)
                grad_norm = step(target.points, transformed, point_grads)
            elif epoch > 0:
                order = np.asarray(rng.permutation(n), dtype=int)
                step_work = Workspace()  # the epoch's step buffers, freed before the record's sweep
                for start in range(0, n, cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    xb = target.points[batch]
                    tb = adapter.forward_cloud(xb)
                    grad_norm = step(xb, tb, minibatch_point_grads(fmap.forward_cloud(tb), batch, bank, refs, step_work))
                del step_work

            transformed = adapter.forward_cloud(target.points)
            adapted = fmap.forward_cloud(transformed)
            # stop before a blown-up cloud reaches the loss or the oracles
            ratio = rms_spread(adapted) / spread_scale if np.all(np.isfinite(adapted)) else math.inf
            if epoch == 0:
                spread_scale *= max(1.0, ratio)
            elif ratio > DIVERGENCE_SPREAD:
                trace.divergence = (epoch, ratio)
                break
            on_cadence = epoch == 0 or epoch == cfg.epochs or epoch % cfg.wasserstein_every == 0
            if bank is None:
                loss, moments = quantile_loss_on_points(adapted, refs, want_grad=False)[0], None
            else:
                # one pass over the references gives the record's loss, on the
                # W2 cadence the variance moments against the outgoing snapshot
                # and, when due, the refresh for the next epoch
                refresh = epoch < cfg.epochs and epoch % cfg.snapshot_every == 0
                want_moments = epoch > 0 and on_cadence and cfg.batch_size < n
                loss, moments = sweep(bank, PointCloud(adapted), refs, refresh=refresh, moments=want_moments)
            rec = evaluate_epoch(adapted, source_feats, loss, paired, epoch=epoch)
            if on_cadence and exact_w2:
                write_w2(loss_mod.BLOCK_BYTES - adapted.nbytes)
                pending.append((rec, adapted, helper.submit(oracles.wasserstein2, adapted, source_feats)))
            elif on_cadence:
                rec.flag = "wasserstein_skipped"
            if moments is not None:
                rec.crude_var, rec.control_var = lemma_variances(moments, n, cfg.batch_size)
            elif bank is not None and epoch > 0 and not on_cadence:
                rec.crude_var = rec.control_var = None
            rec.grad_norm = grad_norm
            if trace.aborted_steps > aborted:
                rec.flag = ";".join(x for x in (rec.flag, "nonfinite_grad") if x)
            trace.records.append(rec)
            trace.adapted, trained = adapted, adapter
        write_w2(-1)
    finally:
        # after an exception: queued plans are cancelled and a running one is awaited
        helper.shutdown(cancel_futures=True)

    return trained, trace
