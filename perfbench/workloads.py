"""The benchmark's workloads and the inputs each one is built from.

Three workloads train from a config derived from the shipped six-blobs
config; `inverse_map` solves geometric quantiles on inputs drawn exactly as
`quantmatch verify inverse-map` draws them. The benchmark seed is added to
every seed of the shipped config, so seed 0 reproduces the shipped run and
the verify suite's default inputs.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

SHIPPED_CONFIG = Path("configs") / "sixblobs_linear.cfg"

# per workload: the config entries that differ from the shipped config
TRAINING = {
    # as shipped: n=510, R=60, d=2, affine adapter, 1000 full-batch epochs
    "fullbatch_sixblobs": {},
    # the same data through the memory bank: many small per-batch calls
    "bank_sixblobs": {
        "train": {"full_batch": "false", "batch_size": "32", "snapshot_every": "1", "epochs": "200"},
    },
    # few calls on large (R, n, d) arrays; n > 512, so exact W2 is skipped
    "scaled_features": {
        "dataset": {"counts": "640,656,672,688,704,720"},
        "adapter": {"kind": "mlp1"},
        "feature_map": {"kind": "fixed_mlp", "out_dim": "8", "seed": "0"},
        "train": {"full_batch": "false", "batch_size": "256", "reference_count": "300", "epochs": "2"},
    },
}
INVERSE_MAP = "inverse_map"
WORKLOADS = (*TRAINING, INVERSE_MAP)

# Workloads whose worker, in an untraced run, repeats the timed call while
# the run's time lasts; each pass is one `run_s` sample. The solver keeps no
# state between calls, so every pass does the same work. A training run's
# first call in a process is the cold start a user pays, so each training
# repetition gets a fresh process and one timed call.
REPEATED_IN_PROCESS = (INVERSE_MAP,)

# training workloads whose final paired MSE must fall to this share of the initial one
QUALITY_GATE = {"fullbatch_sixblobs": 1e-3, "bank_sixblobs": 1e-3}
# training workloads on which the exact-W2 oracle must report itself skipped
W2_SKIPPED = ("scaled_features",)

INVERSE_SOLVES = 2000
UNCONVERGED_RESIDUAL = 1e-6  # the threshold `quantmatch verify inverse-map` applies


def write_config(root: Path, workload: str, seed: int, path: Path, out_dir: Path) -> Path:
    """Write the workload's config for `seed`; its runs write to `out_dir`."""
    parser = configparser.ConfigParser()
    if not parser.read(root / SHIPPED_CONFIG):
        raise FileNotFoundError(root / SHIPPED_CONFIG)
    for section, entries in TRAINING[workload].items():
        parser[section].update(entries)
    for section in parser.sections():
        if "seed" in parser[section]:
            parser[section]["seed"] = str(int(parser[section]["seed"]) + seed)
    parser["output"]["dir"] = str(out_dir)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def inverse_inputs(seed: int, count: int = INVERSE_SOLVES):
    """(points, u) pairs drawn like `quantmatch verify inverse-map --seed seed`."""
    from quantmatch.rng import SplitMix64

    rng = SplitMix64.stream("verify_inverse", seed)
    inputs = []
    for _ in range(count):
        n = 10 + rng.randbelow(191)
        d = 2 + rng.randbelow(15)
        points = rng.normals((n, d))
        direction = rng.normals(d)
        direction /= np.linalg.norm(direction)
        inputs.append((points, (0.9 * rng.uniform()) * direction))
    return inputs


def save_inverse_inputs(inputs, path: Path) -> None:
    np.savez(
        path,
        shapes=np.array([p.shape for p, _ in inputs], dtype=np.int64),
        points=np.concatenate([p.ravel() for p, _ in inputs]),
        u=np.concatenate([u for _, u in inputs]),
    )


def load_inverse_inputs(path: Path):
    with np.load(path) as data:
        shapes, flat_points, flat_u = data["shapes"], data["points"], data["u"]
    inputs, p_at, u_at = [], 0, 0
    for n, d in shapes:
        inputs.append((flat_points[p_at : p_at + n * d].reshape(n, d), flat_u[u_at : u_at + d]))
        p_at += n * d
        u_at += d
    return inputs
