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


def plane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[k] * b[k] over the leading coordinate axis, in coordinate order (numpy adds 8 or more pairwise)."""
    total = a[0] * b[0]
    for ak, bk in zip(a[1:], b[1:]):
        total += ak * bk
    return total


def unit_directions(points: np.ndarray, ref_points: np.ndarray):
    """Unit vectors from each point toward each reference, one (R, m) plane per coordinate.

    Returns (units, dist, mask): units is (d, R, m) with zeros where the
    point coincides with the reference (dist < COINCIDENCE_EPS), dist is the
    (R, m) distance and mask marks the pairs that are kept.  The squared
    distance is added up one coordinate at a time, in coordinate order.
    Points that are not (m, d) for the references' d raise
    DimensionMismatchError here, the one check the loss and the bank share.
    """
    if points.ndim != 2 or points.shape[1] != ref_points.shape[1]:
        raise DimensionMismatchError(
            f"points of shape {points.shape} do not match references of dimension {ref_points.shape[1]}"
        )
    cols = np.ascontiguousarray(points.T)                        # (d, m)
    units = ref_points.T[:, :, None] - cols[:, None, :]          # (d, R, m) differences, scaled below
    dist = np.sqrt(plane_dot(units, units))                      # (R, m)
    mask = dist >= COINCIDENCE_EPS
    if mask.all():
        units /= dist
    else:
        units /= np.where(mask, dist, 1.0)
        units[:, ~mask] = 0.0
    return units, dist, mask


def point_sums(units: np.ndarray) -> np.ndarray:
    """(R, d) sums of the (d, R, m) unit planes over the points, added in point order.

    numpy adds along the contiguous last axis pairwise, so the sums are taken
    over a (d, m, R) copy, whose point rows it adds one after another.
    """
    if units.shape[1] == 1:  # one reference: its points would be the contiguous axis again
        sums = np.cumsum(units, axis=2)[..., -1]
    else:
        sums = np.ascontiguousarray(units.transpose(0, 2, 1)).sum(axis=1)
    return np.ascontiguousarray(sums.T)


def direction_point_grads(units: np.ndarray, resid: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """-sum_r scale[r, j] * (I - v v^T) resid[r] for v = units[:, r, j], one row per point.

    This is the point gradient of a loss in the residuals of averaged unit
    vectors, since d v / d x_j = -(I - v v^T) / dist_rj.  The caller's (R, m)
    scale carries 1/dist_rj, the averaging weight and the loss's own factor.
    Works one (R, m) coordinate plane at a time; returns an (m, d) array.
    """
    d, _, m = units.shape
    dots = plane_dot(units, resid.T[:, :, None])                 # (R, m)
    terms = ((resid[:, k, None] - plane * dots) * scale for k, plane in enumerate(units))
    if m == 1:
        # numpy adds a lone (R, 1) column pairwise, but an (R, d) block row by row
        return -np.hstack(list(terms)).sum(axis=0, keepdims=True)
    grads = np.empty((m, d))
    for k, term in enumerate(terms):
        grads[:, k] = term.sum(axis=0)
    return -grads


def index_averages(points: np.ndarray, ref_points: np.ndarray):
    """Per-reference averaged unit vectors from the points toward each reference.

    Returns (avgs, dist, units, mask): avgs is (R, d) with coincident pairs
    excluded and the mean renormalized by the surviving count; units is the
    (d, R, m) array of unit_directions.
    """
    units, dist, mask = unit_directions(points, ref_points)
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DegenerateCloudError("a reference coincides with every adapted point")
    avgs = point_sums(units) / counts[:, None]
    return avgs, dist, units, mask


def quantile_loss_on_points(
    points: np.ndarray,
    refs: ReferenceSet,
    want_grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Mean squared index discrepancy over the references, and its point gradients.

    Takes the adapted cloud as a raw (m, d) array; the gradient, one row per
    point, is d(total)/d(point) and is None unless want_grad.
    """
    avgs, dist, units, mask = index_averages(points, refs.quantiles)
    resid = avgs - refs.target_indices                           # (R, d)
    total = float(np.sum(resid**2, axis=1).mean())

    grads = None
    if want_grad:
        counts = mask.sum(axis=1)
        scale = np.where(mask, 1.0 / (counts[:, None] * dist.clip(min=1e-300)), 0.0)
        scale *= 2.0 / refs.count
        grads = direction_point_grads(units, resid, scale)
    return total, grads
