"""Snapshot cache and control-variate estimator for small-batch training.

The per-reference population average of unit vectors is estimated from a
batch as  batch_mean(theta_t) + [snapshot_mean - batch_mean(theta_snap)].
The bracketed correction has zero mean over batches, so the estimate stays
unbiased, and it cancels almost all of the sampling noise when the snapshot
parameters are close to the current ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DimensionMismatchError, PointCloud
from .loss import ReferenceSet, plane_dot, point_sums, unit_directions
from .oracles import ENUMERATION_LIMIT, enumerate_batches
from .rng import SplitMix64


@dataclass
class MemoryBank:
    """Snapshot unit vectors and their per-reference averages."""

    snapshot_units: np.ndarray  # (d, R, n) unit planes toward each reference at theta_snap
    snapshot_avgs: np.ndarray   # (R, d) per-reference mean unit vectors at theta_snap


def per_sample_units(points: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
    """(d, R, n) unit planes from each point toward each reference, as unit_directions builds them.

    Coincident pairs contribute a zero vector without renormalization; this
    keeps every batch/population average linear in the per-sample terms, so
    the control-variate cancellation and unbiasedness hold exactly.
    """
    return unit_directions(points, ref_points)[0]


def initialize_bank(adapted: PointCloud, refs: ReferenceSet) -> MemoryBank:
    units = per_sample_units(adapted.points, refs.quantiles)
    return MemoryBank(snapshot_units=units, snapshot_avgs=point_sums(units) / adapted.n)


def refresh_snapshot(bank: MemoryBank, adapted: PointCloud, refs: ReferenceSet) -> MemoryBank:
    """Recompute the snapshot at the current parameters."""
    if adapted.n != bank.snapshot_units.shape[2]:
        raise DimensionMismatchError("bank size does not match the adapted cloud")
    return initialize_bank(adapted, refs)


def control_variate_estimate(bank: MemoryBank, current_h: np.ndarray, snapshot_h: np.ndarray) -> np.ndarray:
    """Per-reference estimate of the population average at the current parameters."""
    if current_h.shape != bank.snapshot_avgs.shape or snapshot_h.shape != bank.snapshot_avgs.shape:
        raise DimensionMismatchError("per-reference batch averages have wrong shape")
    # associated so identical batch terms cancel exactly
    return (current_h - snapshot_h) + bank.snapshot_avgs


@dataclass(frozen=True)
class EstimatorDiagnostics:
    crude_variance: float
    control_variance: float
    beta_star: float


def population_moments(a_units: np.ndarray, s_units: np.ndarray):
    """Per-reference variances and cross-covariance of two (d, R, n) unit-plane populations.

    Returns (sigma_a2, sigma_s2, sigma_as), each (R,), using the expected
    squared-norm convention.
    """
    n = a_units.shape[2]
    da, ds = (units - (point_sums(units) / n).T[:, :, None] for units in (a_units, s_units))
    return plane_dot(da, da).mean(axis=1), plane_dot(ds, ds).mean(axis=1), plane_dot(da, ds).mean(axis=1)


def lemma_variance(sigma2: float, n: int, b: int) -> float:
    """Without-replacement sample-mean variance: (1/b) * (n-b)/(n-1) * sigma2."""
    return sigma2 * (n - b) / (b * (n - 1))


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
    """Measured variance of the crude and control-variate estimators.

    Variances are expected squared norms of the estimate around the exact
    population average, averaged across references.  beta_star is the
    variance-optimal control coefficient sigma_as / sigma_s^2 computed from
    population sums; the estimator itself always uses beta = 1.
    """
    n = adapted_t.n
    if adapted_snap.n != n:
        raise DimensionMismatchError("current and snapshot clouds differ in size")
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if mode == "exhaustive":
        if math.comb(n, b) > ENUMERATION_LIMIT:
            raise ValueError(f"exhaustive mode limited to C(n, b) <= {ENUMERATION_LIMIT}")
    elif mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    elif draws < 1:
        raise ValueError(f"monte_carlo mode needs draws >= 1, got {draws}")

    a_units = per_sample_units(adapted_t.points, refs.quantiles)
    s_units = per_sample_units(adapted_snap.points, refs.quantiles)
    a_mean = point_sums(a_units) / n
    s_mean = point_sums(s_units) / n

    crude_sq = 0.0
    control_sq = 0.0
    count = 0
    for batch in _batch_iter(n, b, mode, draws, seed):
        a_hat = point_sums(a_units[:, :, batch]) / b
        s_hat = point_sums(s_units[:, :, batch]) / b
        crude_sq += float(np.mean(np.sum((a_hat - a_mean) ** 2, axis=1)))
        est = a_hat + (s_mean - s_hat)
        control_sq += float(np.mean(np.sum((est - a_mean) ** 2, axis=1)))
        count += 1

    sigma_a2, sigma_s2, sigma_as = population_moments(a_units, s_units)
    total_s2 = float(sigma_s2.sum())
    beta_star = float(sigma_as.sum() / total_s2) if total_s2 > 0 else float("nan")
    return EstimatorDiagnostics(
        crude_variance=crude_sq / count,
        control_variance=control_sq / count,
        beta_star=beta_star,
    )
