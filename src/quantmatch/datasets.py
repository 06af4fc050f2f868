"""Seeded toy datasets and corruption operators with identity pairings.

Defaults for the six-blobs geometry (hexagon means, per-class covariance
scales, per-class counts) live here; the underlying experiments prescribe
no numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DimensionMismatchError, PointCloud
from .oracles import Pairing, identity_pairing
from .rng import SplitMix64

# per-class counts kept within 80-120 and summing to 510 so exact transport
# (capped at 512 points) stays available for every epoch of the run
SIX_BLOBS_COUNTS = (80, 82, 84, 86, 88, 90)
SIX_BLOBS_RADIUS = 8.0
SIX_BLOBS_COV_SCALES = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
SIX_BLOBS_COV_ASPECT = 0.6

TWO_MOONS_CENTER = np.array([0.5, 0.25])


class SingularCorruptionError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledCloud:
    """Cloud with per-point class ids and an identity pairing to its twin."""

    cloud: PointCloud
    labels: np.ndarray
    pairing: Pairing

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.shape != (self.cloud.n,):
            raise DimensionMismatchError("labels must align with the cloud")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.cloud.n


def _rotation(angle_deg: float) -> np.ndarray:
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@dataclass(frozen=True)
class Corruption:
    """Covariate-shift operator applied pointwise to a clean cloud."""

    kind: str  # linear | rotation | shift | gaussian_noise
    matrix: np.ndarray | None = None  # linear and rotation
    offset: np.ndarray | None = None
    sigma: float | None = None

    @classmethod
    def linear(cls, matrix) -> "Corruption":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("linear corruption needs a square matrix")
        if abs(np.linalg.det(m)) <= 1e-9:
            raise SingularCorruptionError("corruption matrix is numerically singular")
        return cls(kind="linear", matrix=m)

    @classmethod
    def rotation(cls, angle_deg: float) -> "Corruption":
        return cls(kind="rotation", matrix=_rotation(angle_deg))

    @classmethod
    def shift(cls, offset) -> "Corruption":
        return cls(kind="shift", offset=np.asarray(offset, dtype=float))

    @classmethod
    def gaussian_noise(cls, sigma: float) -> "Corruption":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        return cls(kind="gaussian_noise", sigma=float(sigma))

    def exact_inverse_matrix(self) -> np.ndarray | None:
        """Inverse linear map for oracle use, when one exists."""
        return None if self.matrix is None else np.linalg.inv(self.matrix)


def six_blobs(seed: int = 0, counts=SIX_BLOBS_COUNTS) -> LabeledCloud:
    """Six Gaussian classes with differing counts, means, and covariances."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != 6:
        raise ValueError("six_blobs needs exactly 6 class counts")
    if any(c < 10 for c in counts):
        raise ValueError("each class needs at least 10 points")

    angles = np.deg2rad(60.0 * np.arange(6))
    means = SIX_BLOBS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    rng = SplitMix64.stream("six_blobs", seed)
    points, labels = [], []
    for cls, (count, mean, scale) in enumerate(zip(counts, means, SIX_BLOBS_COV_SCALES)):
        rot = _rotation(60.0 * cls)
        chol = np.linalg.cholesky(rot @ np.diag([scale, SIX_BLOBS_COV_ASPECT * scale]) @ rot.T)
        z = rng.normals((count, mean.shape[0]))
        points.append(mean + z @ chol.T)
        labels.extend([cls] * count)

    cloud = PointCloud(np.concatenate(points, axis=0))
    return LabeledCloud(cloud=cloud, labels=np.asarray(labels), pairing=identity_pairing(cloud.n))


def two_moons(seed: int = 0, n: int = 200, noise_sigma: float = 0.05) -> LabeledCloud:
    """Interleaved half-circles centered so a 180-degree rotation swaps the moons."""
    if n < 4:
        raise ValueError("two_moons needs n >= 4")
    if n % 2 != 0:
        raise ValueError("two_moons needs an even n")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError("two_moons needs a finite noise_sigma >= 0")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1) - TWO_MOONS_CENTER
    points = np.concatenate([upper, -upper], axis=0)
    if noise_sigma > 0:
        rng = SplitMix64.stream("two_moons", seed)
        points = points + noise_sigma * rng.normals(points.shape)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return LabeledCloud(cloud=PointCloud(points), labels=labels, pairing=identity_pairing(n))


def apply_corruption(clean: LabeledCloud, corruption: Corruption, seed: int = 0) -> LabeledCloud:
    """Corrupt a cloud pointwise; indices, labels, and pairing are preserved."""
    pts = clean.cloud.points
    if corruption.matrix is not None:
        if corruption.matrix.shape[0] != pts.shape[1]:
            raise DimensionMismatchError("corruption matrix does not match the cloud dimension")
        out = pts @ corruption.matrix.T
    elif corruption.kind == "shift":
        if corruption.offset.shape[0] != pts.shape[1]:
            raise DimensionMismatchError("shift vector does not match the cloud dimension")
        out = pts + corruption.offset
    elif corruption.kind == "gaussian_noise":
        rng = SplitMix64.stream("corruption_noise", seed)
        out = pts + corruption.sigma * rng.normals(pts.shape)
    else:
        raise ValueError(f"unknown corruption kind {corruption.kind!r}")
    return LabeledCloud(cloud=PointCloud(out), labels=clean.labels.copy(), pairing=Pairing(clean.pairing.target_to_source.copy()))


def cloud_to_csv(labeled: LabeledCloud, path) -> None:
    """Write rows of (class, x1..xd)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + [f"x{i + 1}" for i in range(labeled.cloud.dim)])
        for label, row in zip(labeled.labels, labeled.cloud.points):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
