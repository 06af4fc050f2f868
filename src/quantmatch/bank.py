"""Snapshot cache and control-variate estimator for small-batch training.

The per-reference population average of unit vectors is estimated from a
batch as  batch_mean(theta_t) + [snapshot_mean - batch_mean(theta_snap)].
The bracketed correction has zero mean over batches, so the estimate stays
unbiased, and it cancels almost all of the sampling noise when the snapshot
parameters are close to the current ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DimensionMismatchError, PointCloud
from .loss import (
    ReferenceSet,
    Workspace,
    index_averages,
    plane_dot,
    point_sums,
    residual_loss,
    unit_directions,
)
from .oracles import ENUMERATION_LIMIT, enumerate_batches, exceeds_enumeration_limit
from .rng import SplitMix64


@dataclass
class MemoryBank:
    """The snapshot's adapted cloud and its per-reference mean unit vectors.

    The bank holds n + R points, not the n x R unit vectors at the snapshot:
    a reader rebuilds the units it needs from the cloud with the kernel's
    elementwise arithmetic, so they have the bits the refresh saw.  A refresh
    rebinds both arrays to the refreshing sweep's and never writes into one:
    the bank keeps the adapted cloud's own array, not a copy, so nothing may
    write to that array afterwards.
    """

    snapshot_points: np.ndarray  # (n, d) adapted cloud at theta_snap
    snapshot_avgs: np.ndarray    # (R, d) per-reference mean unit vectors at theta_snap

    @classmethod
    def empty(cls, dim: int, count: int, n: int) -> MemoryBank:
        """An unfilled bank for n points and `count` references; the first refreshing sweep fills it."""
        return cls(snapshot_points=np.empty((n, dim)), snapshot_avgs=np.empty((count, dim)))

    def batch_mean(self, batch: np.ndarray, ref_points: np.ndarray, work: Workspace | None = None) -> np.ndarray:
        """(R, d) mean of the snapshot units of the points `batch` toward ref_points, added in batch order.

        The units are built in work's buffers (a new Workspace's when not
        given), which a caller may reuse once this returns.
        """
        work = Workspace() if work is None else work
        return point_sums(unit_directions(self.snapshot_points[batch], ref_points, work)[0], work) / len(batch)


class Sweep(NamedTuple):
    """What one pass over the references at the current parameters gives."""

    loss: float            # quantile_loss_on_points' loss, bit for bit
    moments: tuple | None  # population_moments of the current units against the outgoing snapshot


def per_sample_units(points: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
    """(d, R, n) unit planes from each point toward each reference, as unit_directions builds them.

    Coincident pairs contribute a zero vector without renormalization; this
    keeps every batch/population average linear in the per-sample terms, so
    the control-variate cancellation and unbiasedness hold exactly.
    """
    return unit_directions(points, ref_points)[0]


def sweep(bank: MemoryBank, adapted: PointCloud, refs: ReferenceSet, refresh: bool = False, moments: bool = True) -> Sweep:
    """The loss from index_averages at `adapted`, whose visitor takes the bank's needs from the same units.

    Each block's point sums give the bank means (divided by n).  With
    moments, the block then rebuilds its snapshot units from the bank's
    cloud in a second workspace of its range, never in the buffers that hold
    its current units, and takes the population moments of the two; the
    snapshot's deviations overwrite its units there.  The visitor keeps none
    of either workspace's arrays after its block.  With refresh, the bank
    then stores the adapted cloud and the means, once the pass has run, so a
    sweep that raises leaves the bank as it was.
    """
    if adapted.points.shape != bank.snapshot_points.shape:
        raise DimensionMismatchError("bank size does not match the adapted cloud")
    avgs = np.empty_like(refs.target_indices)
    out = np.empty((2, refs.count)) if moments else None
    snapshot_work = {}  # id of a range's workspace -> the range's workspace for its snapshot units

    def visit(block, units, sums, work):
        avgs[block] = sums / adapted.n
        if moments:
            s_work = snapshot_work.setdefault(id(work), Workspace())
            s_units = unit_directions(bank.snapshot_points, refs.quantiles[block], s_work)[0]
            out[:, block] = population_moments(units, s_units, avgs[block], bank.snapshot_avgs[block], work, s_units)

    loss = residual_loss(index_averages(adapted.points, refs.quantiles, visit) - refs.target_indices)
    if refresh:
        bank.snapshot_points, bank.snapshot_avgs = adapted.points, avgs
    return Sweep(loss, None if out is None else tuple(out))


def initialize_bank(adapted: PointCloud, refs: ReferenceSet) -> MemoryBank:
    return refresh_snapshot(MemoryBank.empty(adapted.dim, refs.count, adapted.n), adapted, refs)


def refresh_snapshot(bank: MemoryBank, adapted: PointCloud, refs: ReferenceSet) -> MemoryBank:
    """Overwrite the snapshot, in place, with the units at the current parameters; returns the bank."""
    sweep(bank, adapted, refs, refresh=True, moments=False)
    return bank


def control_variate_estimate(bank: MemoryBank, current_h: np.ndarray, snapshot_h: np.ndarray, block: slice = slice(None)) -> np.ndarray:
    """Per-reference estimate of the population average at the current parameters, for every reference or one block of them."""
    snapshot_avgs = bank.snapshot_avgs[block]
    if current_h.shape != snapshot_avgs.shape or snapshot_h.shape != snapshot_avgs.shape:
        raise DimensionMismatchError("per-reference batch averages have wrong shape")
    # associated so identical batch terms cancel exactly
    return (current_h - snapshot_h) + snapshot_avgs


@dataclass(frozen=True)
class EstimatorDiagnostics:
    crude_variance: float
    control_variance: float
    beta_star: float
    crude_formula: float    # lemma_variances of the moments at these parameters, as the trainer's crude_var
    control_formula: float  # and control_var


def population_moments(
    a_units: np.ndarray,
    s_units: np.ndarray,
    a_mean=None,
    s_mean=None,
    work: Workspace | None = None,
    s_out: np.ndarray | None = None,
):
    """Per-reference variances of a and of a - s, two (d, R, n) unit-plane populations.

    Returns (sigma_a2, sigma_d2), each (R,), in the expected squared-norm
    convention; sigma_d2 is taken from the deviations of a - s, so it is
    never negative.  A population's (R, d) mean, when given, must be its
    point_sums / n; it is computed when not given.  The deviations are
    written contiguous, so each mean(axis=1) adds along contiguous points:
    those of a to work's "rows" buffer, which point_sums has finished with,
    and those of s, then of a - s, to s_out, which may be s_units itself when
    the caller has no further use for it, or else to work's "deviations"
    buffer (a new Workspace's when not given).
    """
    n = a_units.shape[2]
    work = Workspace() if work is None else work
    a_mean = point_sums(a_units, work) / n if a_mean is None else a_mean
    s_mean = point_sums(s_units, work) / n if s_mean is None else s_mean
    da = np.subtract(a_units, a_mean.T[:, :, None], out=work.take("rows", a_units.shape))
    dd = np.subtract(s_units, s_mean.T[:, :, None], out=work.take("deviations", s_units.shape) if s_out is None else s_out)
    np.subtract(da, dd, out=dd)
    return plane_dot(da, da).mean(axis=1), plane_dot(dd, dd).mean(axis=1)


def lemma_variance(sigma2: float, n: int, b: int) -> float:
    """Without-replacement sample-mean variance: (1/b) * (n-b)/(n-1) * sigma2."""
    return sigma2 * (n - b) / (b * (n - 1))


def lemma_variances(moments, n: int, b: int) -> tuple[float, ...]:
    """lemma_variance at each moment's mean over the references, as Python floats: the crude and control variances."""
    return tuple(lemma_variance(float(m.mean()), n, b) for m in moments)


def _batch_iter(n: int, b: int, mode: str, draws: int, seed: int):
    if mode == "exhaustive":
        for combo in enumerate_batches(n, b):
            yield np.asarray(combo, dtype=int)
    else:
        rng = SplitMix64.stream("estimator_variance", seed)
        for _ in range(draws):
            yield np.asarray(rng.sample_without_replacement(n, b), dtype=int)


def estimator_variance(
    adapted_t: PointCloud,
    adapted_snap: PointCloud,
    refs: ReferenceSet,
    b: int,
    mode: str = "exhaustive",
    draws: int = 10_000,
    seed: int = 0,
) -> EstimatorDiagnostics:
    """Measured variance of the crude and control-variate estimators, and their closed forms from the same sweep.

    Variances are expected squared norms of the estimate around the exact
    population average, averaged across references.  beta_star, the
    variance-optimal control coefficient, is measured over the same batches
    as sum <a_B - a_mean, s_B - s_mean> / sum ||s_B - s_mean||^2, and nan at
    b = n; the estimator uses beta = 1.  The control estimate is the
    trainer's: control_variate_estimate on a bank initialized at the
    snapshot, so at theta = theta_snap it measures exactly zero.
    """
    n = adapted_t.n
    if adapted_snap.n != n:
        raise DimensionMismatchError("current and snapshot clouds differ in size")
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if mode == "exhaustive":
        if exceeds_enumeration_limit(n, b):
            raise ValueError(f"exhaustive mode limited to C(n, b) <= {ENUMERATION_LIMIT}")
    elif mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    elif draws < 1:
        raise ValueError(f"monte_carlo mode needs draws >= 1, got {draws}")

    bank = initialize_bank(adapted_snap, refs)
    # a second bank shares the snapshot's arrays until the sweep that takes the
    # moments against them rebinds its own to the current cloud
    current = MemoryBank(bank.snapshot_points, bank.snapshot_avgs)
    moments = sweep(current, adapted_t, refs, refresh=True).moments
    a_mean = current.snapshot_avgs

    crude_sq = control_sq = cross = s_sq = 0.0
    count = 0
    work = Workspace()
    for batch in _batch_iter(n, b, mode, draws, seed):
        a_hat = current.batch_mean(batch, refs.quantiles, work)
        s_hat = bank.batch_mean(batch, refs.quantiles, work)
        da, ds = a_hat - a_mean, s_hat - bank.snapshot_avgs
        crude_sq += float(np.mean(np.sum(da**2, axis=1)))
        est = control_variate_estimate(bank, a_hat, s_hat)
        control_sq += float(np.mean(np.sum((est - a_mean) ** 2, axis=1)))
        cross += float(np.sum(da * ds))
        s_sq += float(np.sum(ds * ds))
        count += 1

    beta_star = cross / s_sq if b < n and s_sq > 0 else float("nan")  # at b = n both sums are rounding noise
    return EstimatorDiagnostics(crude_sq / count, control_sq / count, beta_star, *lemma_variances(moments, n, b))
