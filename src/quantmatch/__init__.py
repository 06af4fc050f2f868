"""Geometric quantile matching: align point-cloud distributions by training
an adapter map to match quantile indices, with a variance-reduced memory-bank
estimator for small-batch training."""

from .adapters import Adapter, FeatureMap, make_adapter, make_feature_map
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
    LossBreakdown,
    ReferenceSet,
    batch_stat_penalty,
    g_r,
    h_r,
    quantile_loss_on_points,
    select_references,
)
from .oracles import (
    Pairing,
    TransportPlan,
    enumerate_batches,
    finite_diff_grad,
    identity_pairing,
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
    "LossBreakdown",
    "MemoryBank",
    "Pairing",
    "PointCloud",
    "ReferenceSet",
    "RunTrace",
    "SolverReport",
    "TrainConfig",
    "TransportPlan",
    "apply_corruption",
    "batch_stat_penalty",
    "control_variate_estimate",
    "enumerate_batches",
    "estimator_variance",
    "evaluate_epoch",
    "finite_diff_grad",
    "g_r",
    "geometric_quantile",
    "h_r",
    "identity_pairing",
    "initialize_bank",
    "make_adapter",
    "make_feature_map",
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
