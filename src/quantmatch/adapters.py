"""Trainable adapter maps and frozen feature maps with reverse-mode gradients.

Adapters start as the exact identity (the "good initialization" the training
scheme relies on): the affine kind at A = I, b = 0, the residual MLP with a
zeroed output layer.  Feature maps are fixed at construction and only expose
their Jacobian for chaining adapter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import DimensionMismatchError
from .rng import SplitMix64


def _orthogonalish(rows: int, cols: int, rng: SplitMix64, scale: float) -> np.ndarray:
    """Random matrix with roughly orthonormal rows/columns, rescaled."""
    raw = rng.normals((max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(raw)
    q = q[: max(rows, cols), : min(rows, cols)]
    if rows < cols:
        q = q.T
    return scale * q[:rows, :cols]


@dataclass(frozen=True)
class Adapter:
    """Parameterized map T_theta with a flat parameter vector."""

    kind: str
    params: np.ndarray
    dim: int
    hidden: int = 0

    @property
    def n_params(self) -> int:
        return self.params.size

    def _unpack(self):
        d, h = self.dim, self.hidden
        if self.kind == "affine":
            return self.params[: d * d].reshape(d, d), self.params[d * d :]
        if self.kind == "mlp1":
            w1 = self.params[: h * d].reshape(h, d)
            b1 = self.params[h * d : h * d + h]
            w2 = self.params[h * d + h :].reshape(d, h)
            return w1, b1, w2
        raise ValueError(f"unknown adapter kind {self.kind!r}")

    def forward_cloud(self, x: np.ndarray) -> np.ndarray:
        """Apply to an (m, d) array of points."""
        if x.shape[1] != self.dim:
            raise DimensionMismatchError("adapter forward: dimension mismatch")
        if self.kind == "identity":
            return x.copy()
        if self.kind == "affine":
            a, b = self._unpack()
            return x @ a.T + b
        w1, b1, w2 = self._unpack()
        return x + np.tanh(x @ w1.T + b1) @ w2.T

    def backward_cloud(self, x: np.ndarray, upstream: np.ndarray):
        """Accumulated (param_grad, input_grads) of sum_j <upstream_j, T(x_j)>."""
        if x.shape != upstream.shape or x.shape[1] != self.dim:
            raise DimensionMismatchError("adapter backward: dimension mismatch")
        if self.kind == "identity":
            return np.zeros(0), upstream.copy()
        if self.kind == "affine":
            a, _ = self._unpack()
            da = upstream.T @ x
            db = upstream.sum(axis=0)
            return np.concatenate([da.ravel(), db]), upstream @ a
        w1, b1, w2 = self._unpack()
        act = np.tanh(x @ w1.T + b1)
        dw2 = upstream.T @ act
        dact = upstream @ w2
        dpre = dact * (1.0 - act**2)
        dw1 = dpre.T @ x
        db1 = dpre.sum(axis=0)
        return (
            np.concatenate([dw1.ravel(), db1, dw2.ravel()]),
            upstream + dpre @ w1,
        )

    def with_params(self, params: np.ndarray) -> "Adapter":
        if params.shape != self.params.shape:
            raise DimensionMismatchError("parameter vector length mismatch")
        return replace(self, params=params)

    @classmethod
    def identity(cls, dim: int) -> "Adapter":
        return cls(kind="identity", params=np.zeros(0), dim=dim)

    @classmethod
    def affine(cls, dim: int, init_rotation_deg: float = 0.0) -> "Adapter":
        """A = I, b = 0; init_rotation_deg (2-d only) starts A at a rotation instead.

        The rotation places the start near a symmetry of the data rather than
        at the identity.
        """
        if not np.isfinite(init_rotation_deg):
            raise ValueError("init_rotation_deg must be finite")
        a = np.eye(dim)
        if init_rotation_deg != 0.0:
            if dim != 2:
                raise ValueError("init_rotation_deg only supported for dim == 2")
            t = np.deg2rad(init_rotation_deg)
            a = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        return cls(kind="affine", params=np.concatenate([a.ravel(), np.zeros(dim)]), dim=dim)

    @classmethod
    def mlp1(cls, dim: int, hidden: int = 16, seed: int = 0) -> "Adapter":
        """Residual one-hidden-layer MLP with a zeroed output layer."""
        if hidden < 1:
            raise ValueError("mlp1 needs hidden >= 1")
        rng = SplitMix64.stream("adapter_mlp1", seed)
        w1 = _orthogonalish(hidden, dim, rng, scale=0.1)
        params = np.concatenate([w1.ravel(), np.zeros(hidden), np.zeros(dim * hidden)])
        return cls(kind="mlp1", params=params, dim=dim, hidden=hidden)


def make_adapter(
    kind: str,
    dim: int,
    hidden: int = 16,
    seed: int = 0,
    init_rotation_deg: float = 0.0,
) -> Adapter:
    """Build an adapter of any kind initialized at the identity map.

    The arguments that the kind's constructor (`Adapter.identity`,
    `Adapter.affine`, `Adapter.mlp1`) does not take are ignored, except that
    a non-finite init_rotation_deg is refused for every kind.
    """
    if not np.isfinite(init_rotation_deg):
        raise ValueError("init_rotation_deg must be finite")
    if kind == "identity":
        return Adapter.identity(dim)
    if kind == "affine":
        return Adapter.affine(dim, init_rotation_deg)
    if kind == "mlp1":
        return Adapter.mlp1(dim, hidden, seed)
    raise ValueError(f"unknown adapter kind {kind!r}")


@dataclass(frozen=True)
class FeatureMap:
    """Frozen map from adapter outputs to feature space."""

    kind: str
    in_dim: int
    out_dim: int
    matrix: np.ndarray | None = None      # fixed_affine
    w1: np.ndarray | None = None          # fixed_mlp
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def forward_cloud(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise DimensionMismatchError("feature map forward: dimension mismatch")
        if self.kind == "identity":
            return x.copy()
        if self.kind == "fixed_affine":
            return x @ self.matrix.T
        return np.tanh(x @ self.w1.T + self.b1) @ self.w2.T + self.b2

    def backward_cloud(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Input gradients of sum_j <upstream_j, f(x_j)>; parameters are frozen."""
        if upstream.shape[1] != self.out_dim or x.shape[1] != self.in_dim:
            raise DimensionMismatchError("feature map backward: dimension mismatch")
        if self.kind == "identity":
            return upstream.copy()
        if self.kind == "fixed_affine":
            return upstream @ self.matrix
        act = np.tanh(x @ self.w1.T + self.b1)
        return (upstream @ self.w2) * (1.0 - act**2) @ self.w1

    @classmethod
    def identity(cls, in_dim: int, out_dim: int | None = None) -> "FeatureMap":
        if _out_dim(in_dim, out_dim) != in_dim:
            raise ValueError("identity feature map cannot change dimension")
        return cls(kind="identity", in_dim=in_dim, out_dim=in_dim)

    @classmethod
    def fixed_affine(cls, in_dim: int, out_dim: int | None = None, seed: int = 0) -> "FeatureMap":
        out_dim = _out_dim(in_dim, out_dim)
        m = _orthogonalish(out_dim, in_dim, SplitMix64.stream("feature_affine", seed), 1.0)
        return cls(kind="fixed_affine", in_dim=in_dim, out_dim=out_dim, matrix=m)

    @classmethod
    def fixed_mlp(cls, in_dim: int, out_dim: int | None = None, hidden: int = 0, seed: int = 0) -> "FeatureMap":
        """tanh layer then a linear one; hidden = 0 sizes the layer as max(in_dim, out_dim, 4)."""
        out_dim = _out_dim(in_dim, out_dim)
        if hidden < 0:
            raise ValueError(f"hidden must be >= 0, got {hidden}")
        if hidden == 0:
            hidden = max(in_dim, out_dim, 4)
        rng = SplitMix64.stream("feature_mlp", seed)
        return cls(
            kind="fixed_mlp",
            in_dim=in_dim,
            out_dim=out_dim,
            w1=_orthogonalish(hidden, in_dim, rng, 1.0),
            b1=0.1 * rng.normals(hidden),
            w2=_orthogonalish(out_dim, hidden, rng, 1.0),
            b2=0.1 * rng.normals(out_dim),
        )


def _out_dim(in_dim: int, out_dim: int | None) -> int:
    """The output dimension, in_dim when not given."""
    out_dim = in_dim if out_dim is None else out_dim
    if out_dim < 1:
        raise ValueError(f"out_dim must be >= 1, got {out_dim}")
    return out_dim


def make_feature_map(
    kind: str,
    in_dim: int,
    out_dim: int | None = None,
    hidden: int = 0,
    seed: int = 0,
) -> FeatureMap:
    """Build a frozen feature map of any kind.

    The arguments that the kind's constructor (`FeatureMap.identity`,
    `FeatureMap.fixed_affine`, `FeatureMap.fixed_mlp`) does not take are
    checked but ignored.
    """
    if hidden < 0:
        raise ValueError(f"hidden must be >= 0, got {hidden}")
    if kind == "identity":
        return FeatureMap.identity(in_dim, out_dim)
    if kind == "fixed_affine":
        return FeatureMap.fixed_affine(in_dim, out_dim, seed)
    if kind == "fixed_mlp":
        return FeatureMap.fixed_mlp(in_dim, out_dim, hidden, seed)
    raise ValueError(f"unknown feature map kind {kind!r}")
