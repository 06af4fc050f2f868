"""Independent validation oracles: exact transport, paired error, finite differences.

Nothing here touches the loss, bank, or trainer code paths; these functions
exist so those paths can be checked against a second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .geometry import DimensionMismatchError, PointCloud

MAX_EXACT_SIZE = 512
ENUMERATION_LIMIT = 10**6
FD_STEP = 1e-5


def _points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return np.asarray(cloud, dtype=float)


@dataclass(frozen=True)
class TransportPlan:
    """Minimum-cost perfect matching; cost is mean squared matched distance."""

    assignment: np.ndarray
    cost: float

    @property
    def distance(self) -> float:
        return math.sqrt(self.cost)


def wasserstein2(a, b) -> TransportPlan:
    """Exact Wasserstein-2 between equal-size clouds via optimal assignment."""
    pa, pb = _points(a), _points(b)
    if pa.shape[1] != pb.shape[1]:
        raise DimensionMismatchError("wasserstein2: dimension mismatch")
    if pa.shape[0] != pb.shape[0]:
        raise ValueError("exact mode requires equal-size clouds")
    if pa.shape[0] > MAX_EXACT_SIZE:
        raise ValueError(f"cloud size {pa.shape[0]} exceeds exact-mode cap {MAX_EXACT_SIZE}")
    sq = cdist(pa, pb, "sqeuclidean")
    rows, cols = linear_sum_assignment(sq)
    assignment = np.empty(pa.shape[0], dtype=int)
    assignment[rows] = cols
    cost = float(sq[rows, cols].mean())
    return TransportPlan(assignment=assignment, cost=cost)


def paired_mse(a, b) -> float:
    """Mean squared distance between a[i] and b[i], over the rows."""
    pa, pb = _points(a), _points(b)
    if pa.shape != pb.shape:
        raise DimensionMismatchError(f"paired_mse: clouds of shapes {pa.shape} and {pb.shape}")
    return float(np.mean(np.sum((pa - pb) ** 2, axis=1)))


def finite_diff_grad(fn: Callable[[np.ndarray], float], theta) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = FD_STEP
        hi = fn(theta + bump)
        lo = fn(theta - bump)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def exceeds_enumeration_limit(n: int, b: int) -> bool:
    """Whether C(n, b) > ENUMERATION_LIMIT, from C(n, i + 1) = C(n, i) * (n - i) / (i + 1), stopping once past the limit.

    C(n, i) grows with i, and is at least 2^i, up to i = min(b, n - b), so it stops within 20 steps however large n is.
    """
    count = 1
    for i in range(min(b, n - b)):
        count = count * (n - i) // (i + 1)
        if count > ENUMERATION_LIMIT:
            return True
    return False


def enumerate_batches(n: int, b: int) -> Iterator[tuple[int, ...]]:
    """All b-subsets of range(n) in lexicographic order."""
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} invalid for population {n}")
    if exceeds_enumeration_limit(n, b):
        raise ValueError(f"C({n},{b}) exceeds enumeration limit {ENUMERATION_LIMIT}")
    return combinations(range(n), b)
