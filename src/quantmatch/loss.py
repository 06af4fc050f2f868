"""Reference selection, the quantile-matching loss, and its point gradients.

The loss compares, at a fixed set of reference points drawn from the source
cloud, the quantile index computed against the adapted cloud with the index
precomputed against the source cloud, and averages the squared discrepancy.
It decomposes as a mean of nonlinear functions g_r of per-sample averages of
unit vectors h_r, which is what the memory-bank estimator exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    COINCIDENCE_EPS,
    DegenerateCloudError,
    DimensionMismatchError,
    PointCloud,
    as_vector,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class ReferenceSet:
    """Reference points plus their precomputed source quantile indices."""

    quantiles: np.ndarray       # (R, d) reference points
    target_indices: np.ndarray  # (R, d) indices w.r.t. the source cloud
    labels: np.ndarray | None = None
    source_positions: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=float)
        t = np.asarray(self.target_indices, dtype=float)
        if q.shape != t.shape or q.ndim != 2:
            raise DimensionMismatchError("reference quantiles/indices shape mismatch")
        norms = np.linalg.norm(t, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError("target index outside the unit ball")
        object.__setattr__(self, "quantiles", q)
        object.__setattr__(self, "target_indices", t)

    @property
    def count(self) -> int:
        return self.quantiles.shape[0]

    @property
    def dim(self) -> int:
        return self.quantiles.shape[1]


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    per_reference: np.ndarray
    regularizer: float


def select_references(
    source: PointCloud,
    count: int,
    seed: int,
    labels=None,
) -> ReferenceSet:
    """Pick reference points uniformly without replacement, class-balanced if labeled.

    Selected indices are sorted ascending so the reference set at count == n
    is independent of the seed.  Indices are precomputed against the source
    cloud once; they are never refreshed during training.
    """
    n = source.n
    if not 1 <= count <= n:
        raise ValueError(f"reference count {count} out of range [1, {n}]")
    rng = SplitMix64.stream("select_references", seed)

    if labels is None:
        chosen = sorted(rng.sample_without_replacement(n, count))
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError("labels must align with the source cloud")
        classes = np.unique(labels)
        if count % len(classes) != 0:
            raise ValueError(f"count {count} not a multiple of {len(classes)} classes")
        share = count // len(classes)
        chosen = []
        for cls in classes:
            pool = np.flatnonzero(labels == cls)
            if len(pool) < share:
                raise ValueError(f"class {cls} has {len(pool)} points, needs {share}")
            picks = rng.sample_without_replacement(len(pool), share)
            chosen.extend(int(pool[p]) for p in picks)
        chosen = sorted(chosen)

    idx = np.asarray(chosen, dtype=int)
    quantiles = source.points[idx].copy()
    # same vectorized path the loss uses, so a loss of exactly zero is
    # attainable when the adapted cloud reproduces the source
    target_indices, _, _, _ = index_averages(source.points, quantiles)
    return ReferenceSet(
        quantiles=quantiles,
        target_indices=target_indices,
        labels=None if labels is None else np.asarray(labels)[idx].copy(),
        source_positions=idx,
    )


def h_r(x, z_r) -> np.ndarray:
    """Unit vector from x toward the reference z_r."""
    x = as_vector(x)
    z_r = as_vector(z_r)
    if x.shape != z_r.shape:
        raise DimensionMismatchError("h_r: dimension mismatch")
    diff = z_r - x
    dist = float(np.linalg.norm(diff))
    if dist < COINCIDENCE_EPS:
        raise DegenerateCloudError("h_r undefined: x coincides with the reference")
    return diff / dist


def g_r(avg, u_r) -> float:
    """Squared distance of an averaged direction to the target index."""
    avg = as_vector(avg)
    u_r = as_vector(u_r)
    if avg.shape != u_r.shape:
        raise DimensionMismatchError("g_r: dimension mismatch")
    return float(np.sum((avg - u_r) ** 2))


def unit_directions(points: np.ndarray, ref_points: np.ndarray):
    """Unit vectors from each point toward each reference, for the loss and the bank.

    Returns (units, dist, mask): units is (R, m, d) with zero rows where the
    point coincides with the reference (dist < COINCIDENCE_EPS), dist is the
    (R, m) distance and mask marks the pairs that are kept.
    """
    diff = ref_points[:, None, :] - points[None, :, :]          # (R, m, d)
    dist = np.linalg.norm(diff, axis=2)                          # (R, m)
    mask = dist >= COINCIDENCE_EPS
    units = diff / np.where(mask, dist, 1.0)[:, :, None]
    units[~mask] = 0.0
    return units, dist, mask


def direction_point_grads(units: np.ndarray, resid: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """-sum_r scale[r, j] * (I - v v^T) resid[r] for v = units[r, j], one row per point.

    This is the point gradient of a loss in the residuals of averaged unit
    vectors, since d v / d x_j = -(I - v v^T) / dist_rj.  The caller's (R, m)
    scale carries 1/dist_rj, the averaging weight and the loss's own factor.
    """
    dots = np.einsum("rjd,rd->rj", units, resid)                 # (R, m)
    contrib = resid[:, None, :] - units * dots[:, :, None]       # (R, m, d)
    return -(contrib * scale[:, :, None]).sum(axis=0)


def index_averages(points: np.ndarray, ref_points: np.ndarray):
    """Per-reference averaged unit vectors from the points toward each reference.

    Returns (avgs, dist, units, mask): avgs is (R, d) with coincident pairs
    excluded and the mean renormalized by the surviving count.
    """
    units, dist, mask = unit_directions(points, ref_points)
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DegenerateCloudError("a reference coincides with every adapted point")
    avgs = units.sum(axis=1) / counts[:, None]
    return avgs, dist, units, mask


def _penalty_terms(points: np.ndarray, source_mean, source_std):
    source_mean = as_vector(source_mean)
    source_std = as_vector(source_std)
    if np.any(source_std <= 0):
        raise ValueError("source std must be strictly positive")
    if points.shape[0] < 2:
        raise DegenerateCloudError("std undefined for fewer than 2 points")
    mean = points.mean(axis=0)
    std = points.std(axis=0, ddof=1)
    return mean, std, source_mean, source_std


def batch_stat_penalty(adapted, source_mean, source_std) -> float:
    """Squared deviation of the cloud's mean and per-coordinate std from targets."""
    points = adapted.points if isinstance(adapted, PointCloud) else np.asarray(adapted, dtype=float)
    mean, std, source_mean, source_std = _penalty_terms(points, source_mean, source_std)
    return float(np.sum((mean - source_mean) ** 2) + np.sum((std - source_std) ** 2))


def batch_stat_penalty_grad(adapted, source_mean, source_std) -> np.ndarray:
    points = adapted.points if isinstance(adapted, PointCloud) else np.asarray(adapted, dtype=float)
    mean, std, source_mean, source_std = _penalty_terms(points, source_mean, source_std)
    m = points.shape[0]
    grad = np.broadcast_to(2.0 * (mean - source_mean) / m, points.shape).copy()
    safe_std = np.where(std > 1e-300, std, 1.0)
    coeff = np.where(std > 1e-300, 2.0 * (std - source_std) / ((m - 1) * safe_std), 0.0)
    grad += coeff * (points - mean)
    return grad


def quantile_loss_on_points(
    points: np.ndarray,
    refs: ReferenceSet,
    reg_weight: float = 0.0,
    source_mean=None,
    source_std=None,
    want_grad: bool = True,
) -> tuple[LossBreakdown, np.ndarray | None]:
    """Mean squared index discrepancy over the references, plus optional penalty.

    Takes the adapted cloud as a raw (m, d) array; the gradient, one row per
    point, is d(total)/d(point) and is None unless want_grad.
    """
    if points.ndim != 2 or points.shape[1] != refs.dim:
        raise DimensionMismatchError("quantile_loss_on_points: dimension mismatch")
    avgs, dist, units, mask = index_averages(points, refs.quantiles)
    resid = avgs - refs.target_indices                           # (R, d)
    per_reference = np.sum(resid**2, axis=1)
    total = float(per_reference.mean())

    penalty = 0.0
    if reg_weight != 0.0:
        penalty = batch_stat_penalty(points, source_mean, source_std)
        total += reg_weight * penalty

    grads = None
    if want_grad:
        counts = mask.sum(axis=1)
        scale = np.where(mask, 1.0 / (counts[:, None] * dist.clip(min=1e-300)), 0.0)
        scale *= 2.0 / refs.count
        grads = direction_point_grads(units, resid, scale)
        if reg_weight != 0.0:
            grads += reg_weight * batch_stat_penalty_grad(points, source_mean, source_std)

    return LossBreakdown(total=total, per_reference=per_reference, regularizer=penalty), grads
