"""Geometric quantile matching: align point-cloud distributions by training
an adapter map to match quantile indices, with a variance-reduced memory-bank
estimator for small-batch training."""

from .adapters import Adapter, FeatureMap
from .bank import (
    EstimatorDiagnostics,
    MemoryBank,
    control_variate_estimate,
    estimator_variance,
    initialize_bank,
    refresh_snapshot,
)
from .datasets import Corruption, LabeledCloud, apply_corruption, six_blobs, two_moons
from .geometry import (
    PointCloud,
    SolverReport,
    geometric_quantile,
    phi,
    phi_loss,
    quantile_index,
)
from .loss import (
    ReferenceSet,
    g_r,
    h_r,
    quantile_loss_on_points,
    select_references,
)
from .oracles import (
    TransportPlan,
    enumerate_batches,
    finite_diff_grad,
    paired_mse,
    wasserstein2,
)
from .trainer import EpochRecord, RunTrace, TrainConfig, evaluate_epoch, sgd_step, train

__all__ = [
    "Adapter",
    "Corruption",
    "EpochRecord",
    "EstimatorDiagnostics",
    "FeatureMap",
    "LabeledCloud",
    "MemoryBank",
    "PointCloud",
    "ReferenceSet",
    "RunTrace",
    "SolverReport",
    "TrainConfig",
    "TransportPlan",
    "apply_corruption",
    "control_variate_estimate",
    "enumerate_batches",
    "estimator_variance",
    "evaluate_epoch",
    "finite_diff_grad",
    "g_r",
    "geometric_quantile",
    "h_r",
    "initialize_bank",
    "paired_mse",
    "phi",
    "phi_loss",
    "quantile_index",
    "quantile_loss_on_points",
    "refresh_snapshot",
    "select_references",
    "sgd_step",
    "six_blobs",
    "train",
    "two_moons",
    "wasserstein2",
]
