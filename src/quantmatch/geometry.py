"""Point clouds, the directional quantile objective, and the quantile solver.

A quantile of a cloud is indexed by a vector u in the open unit ball: the
quantile at u minimizes the convex loss (1/n) * sum_i phi(u, Z_i - Q) with
phi(u, t) = ||t|| + <u, t>.  The index function maps a probe point z to the
average unit vector (1/n) * sum_i (z - Z_i)/||z - Z_i||; it is the gradient
of the objective, so solving for a quantile and reading off an index are
inverse operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COINCIDENCE_EPS = 1e-12
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
_FLOAT_EPS = np.finfo(float).eps


class DimensionMismatchError(ValueError):
    pass


class InvalidIndexError(ValueError):
    """Quantile index outside the closed unit ball."""


class DegenerateCloudError(ValueError):
    """Cloud (or probe) for which the requested quantity is undefined."""


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True)
class PointCloud:
    """Finite multiset of d-dimensional points, stored as an (n, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError(f"points must be (n, d), got shape {pts.shape}")
        n, d = pts.shape
        if n < 2 or d < 1:
            raise DegenerateCloudError(f"need n >= 2 points of dimension >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud has non-finite coordinates")
        if np.all(pts == pts[0]):
            raise DegenerateCloudError("all cloud points are identical")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n


def _check_index(u: np.ndarray, open_ball: bool = False) -> None:
    norm = float(np.linalg.norm(u))
    if open_ball:
        if norm >= 1.0:
            raise InvalidIndexError(f"quantile index must satisfy ||u|| < 1, got {norm}")
    elif norm > 1.0 + 1e-9:
        raise InvalidIndexError(f"quantile index must satisfy ||u|| <= 1, got {norm}")


def phi(u, t) -> float:
    """||t|| + <u, t>; nonnegative whenever ||u|| <= 1."""
    u = as_vector(u)
    t = as_vector(t)
    if u.shape != t.shape:
        raise DimensionMismatchError(f"phi: dim {u.shape[0]} vs {t.shape[0]}")
    _check_index(u)
    return float(np.linalg.norm(t) + u @ t)


def phi_loss(cloud: PointCloud, u, q) -> float:
    """Quantile objective (1/n) * sum_i phi(u, Z_i - Q); convex in Q."""
    u = as_vector(u)
    q = as_vector(q)
    if u.shape[0] != cloud.dim or q.shape[0] != cloud.dim:
        raise DimensionMismatchError("phi_loss: dimension mismatch")
    _check_index(u)
    diff = cloud.points - q
    return float(np.mean(np.linalg.norm(diff, axis=1) + diff @ u))


def quantile_index(cloud: PointCloud, z) -> np.ndarray:
    """Average unit vector from the cloud toward z.

    Points within COINCIDENCE_EPS of z are excluded and the average
    renormalized by the remaining count, matching the on-support form of the
    inverse map.
    """
    z = as_vector(z)
    if z.shape[0] != cloud.dim:
        raise DimensionMismatchError("quantile_index: dimension mismatch")
    diff = z - cloud.points
    return _average_direction(diff, np.linalg.norm(diff, axis=1))


def _average_direction(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """quantile_index from the probe's differences z - Z_i and their norms."""
    keep = dist >= COINCIDENCE_EPS
    m = int(keep.sum())
    if m == 0:
        raise DegenerateCloudError("probe coincides with every cloud point")
    return diff[keep].T.dot(1.0 / dist[keep]) / m


def maybe_nonunique(cloud: PointCloud) -> bool:
    """Whether the cloud lies in a proper affine subspace, where a quantile need not be unique."""
    pts = cloud.points
    return bool(np.linalg.matrix_rank(pts - pts.mean(axis=0)) < cloud.dim)


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a geometric-quantile solve."""

    quantile: np.ndarray
    iterations: int
    residual: float
    converged: bool
    on_support: bool = False
    loss_history: tuple[float, ...] | None = None
    fallbacks: int = 0  # Weiszfeld steps replaced by gradient descent
    halvings: int = 0   # step halvings, in the fallback and when stepping off a data point


def _on_support_pull(pts: np.ndarray, r: int, dist: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """Pseudo-gradient at data point r, for an iterate whose distances to the points are `dist`.

    Returns (pull, its norm, the sum of the inverse distances, k): the pull
    is the sum of unit vectors from the other points to point r minus n*u,
    over the points at COINCIDENCE_EPS or more from the iterate, and k counts
    the points dropped, r and its copies.  Each dropped distance term
    contributes a unit subgradient ball, so point r is the exact minimizer
    iff the pull has norm <= k.
    """
    keep = dist >= COINCIDENCE_EPS
    diff = pts[r] - pts[keep]
    inv = 1.0 / np.linalg.norm(diff, axis=1)
    pull = diff.T.dot(inv) - len(pts) * u
    return pull, float(np.linalg.norm(pull)), float(inv.sum()), len(pts) - int(keep.sum())


def _loss_at(pts: np.ndarray, u: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """phi_loss at q with its q - Z_i and their norms, bit for bit as phi_loss computes it.

    q - Z_i is the exact negation of phi_loss's Z_i - q, and the norm is
    numpy's own axis-1 norm; a non-finite loss is checked for a non-finite q,
    the one case in which phi_loss rejects its input here.
    """
    diff = q - pts
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    loss = float(np.add.reduce(dist - diff @ u) / len(pts))
    if not math.isfinite(loss) and not np.all(np.isfinite(q)):
        raise ValueError("vector has non-finite coordinates")
    return loss, diff, dist


def geometric_quantile(cloud: PointCloud, u, track_losses: bool = False) -> SolverReport:
    """Solve for the quantile at index u by damped Weiszfeld iteration.

    The fixed-point map Q <- (sum_i Z_i/d_i + n*u) / (sum_i 1/d_i) comes from
    the stationarity condition index(Q) = u.  Steps that would increase the
    objective fall back to halving-step gradient descent, so accepted
    iterations never increase phi_loss.  Iterates landing on a data point are
    snapped there when the subgradient optimality test passes.  Each iterate's
    distances to the cloud are computed once: the pass that gives its loss
    also gives the next step's weights and gradient.
    """
    pts = cloud.points
    n, d = pts.shape
    u = as_vector(u)
    if u.shape[0] != d:
        raise DimensionMismatchError("geometric_quantile: dimension mismatch")
    _check_index(u, open_ball=True)

    q = pts.mean(axis=0)
    loss, diff, dist = _loss_at(pts, u, q)
    losses = [loss] if track_losses else None
    on_support = False
    iterations = fallbacks = halvings = 0

    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        nearest = dist.argmin()

        if dist[nearest] < COINCIDENCE_EPS:
            pull, pull_norm, inv_sum, k = _on_support_pull(pts, nearest, dist, u)
            if pull_norm <= k:
                q = pts[nearest].copy()
                on_support = True
                break
            # not optimal: step off the point along the descent direction
            step = (pull_norm - k) / inv_sum
            candidate = pts[nearest] - step * pull / pull_norm
            at_candidate = _loss_at(pts, u, candidate)
            while at_candidate[0] > loss and step > 1e-18:
                step *= 0.5
                halvings += 1
                candidate = pts[nearest] - step * pull / pull_norm
                at_candidate = _loss_at(pts, u, candidate)
            q, (loss, diff, dist) = candidate, at_candidate
            if losses is not None:
                losses.append(loss)
            continue

        weights = 1.0 / dist
        grad = diff.T.dot(weights) / n - u  # = index(q) - u
        if math.sqrt(grad.dot(grad)) <= DEFAULT_TOL:
            break

        candidate = (pts.T.dot(weights) + n * u) / np.add.reduce(weights)
        at_candidate = _loss_at(pts, u, candidate)
        slack = 4.0 * _FLOAT_EPS * max(1.0, abs(loss))  # absorb ulp noise only
        if at_candidate[0] > loss + slack:
            # halving-step gradient descent fallback
            fallbacks += 1
            step = float(np.linalg.norm(candidate - q))
            candidate = q - step * grad
            at_candidate = _loss_at(pts, u, candidate)
            while at_candidate[0] > loss + slack and step > 1e-18:
                step *= 0.5
                halvings += 1
                candidate = q - step * grad
                at_candidate = _loss_at(pts, u, candidate)
            if at_candidate[0] > loss + slack:
                break  # stalled at numerical precision
        q, (loss, diff, dist) = candidate, at_candidate
        if losses is not None:
            losses.append(loss)

    # the loop's last differences and distances are at q, unless q was snapped to a data point
    index = quantile_index(cloud, q) if on_support else _average_direction(diff, dist)
    residual = float(np.linalg.norm(index - u))
    return SolverReport(
        quantile=q,
        iterations=iterations,
        residual=residual,
        converged=residual <= DEFAULT_TOL,
        on_support=on_support,
        loss_history=tuple(losses) if losses is not None else None,
        fallbacks=fallbacks,
        halvings=halvings,
    )
