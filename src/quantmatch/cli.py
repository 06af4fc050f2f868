"""Experiment runner and property-suite verifier.

Exit codes: 0 success, 1 property/runtime failure, 2 usage or config error.
Failures emit a machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import permutations
from pathlib import Path

import numpy as np

from . import bank as bank_mod
from . import oracles
from .adapters import Adapter, FeatureMap, make_adapter, make_feature_map
from .datasets import Corruption, LabeledCloud, apply_corruption, cloud_to_csv, six_blobs, two_moons
from .geometry import PointCloud, geometric_quantile
from .loss import quantile_loss_on_points, select_references
from .rng import SplitMix64
from .trainer import ConfigError, TrainConfig, _chain_param_grad, _variance_sample, minibatch_point_grads, train

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class ExperimentSpec:
    name: str
    dataset: dict
    corruption: dict
    adapter: dict
    feature_map: dict
    train: TrainConfig
    out_dir: Path


def _whole_numbers(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _square_matrix(text: str) -> list[list[float]]:
    """A row-major square matrix as its list of rows."""
    vals = _floats(text)
    d = math.isqrt(len(vals))
    if d == 0 or d * d != len(vals):
        raise ValueError(f"needs d*d numbers of a square matrix, row-major; got {len(vals)}")
    return [vals[i * d : (i + 1) * d] for i in range(d)]


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# every section and key a config may hold, each with the reader of its value
CONFIG_KEYS = {
    "experiment": {"name": str},
    "dataset": {"kind": str, "seed": int, "counts": _whole_numbers, "n": int, "noise_sigma": float},
    "corruption": {"kind": str, "seed": int, "matrix": _square_matrix, "angle_deg": float, "offset": _floats, "sigma": float},
    "adapter": {"kind": str, "hidden": int, "seed": int, "init_rotation_deg": float},
    "feature_map": {"kind": str, "out_dim": int, "hidden": int, "seed": int},
    "train": {"epochs": int, "batch_size": int, "learning_rate": float, "momentum": float, "reference_count": int,
              "seed": int, "snapshot_every": int, "full_batch": _boolean, "wasserstein_every": int},
    "output": {"dir": str},
}

# the constructor of each kind of these sections (the datasets' are looked up per run, see run_experiment);
# the section's other keys are its keyword arguments
CORRUPTIONS = {kind: getattr(Corruption, kind) for kind in ("linear", "rotation", "shift", "gaussian_noise")}
ADAPTERS = {kind: getattr(Adapter, kind) for kind in ("identity", "affine", "mlp1")}
FEATURE_MAPS = {kind: getattr(FeatureMap, kind) for kind in ("identity", "fixed_affine", "fixed_mlp")}


def _read(section: str, key: str, text: str):
    try:
        return CONFIG_KEYS[section][key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


def load_spec(path, out_override=None, seed_override=None) -> ExperimentSpec:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    unknown = []
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            unknown.append(f"[{section}]")
        else:
            unknown += [f"[{section}] {key}" for key in sorted(set(parser[section]) - set(CONFIG_KEYS[section]))]
    if unknown:
        raise ConfigError("unknown config names: " + ", ".join(unknown))

    sections = {section: {} for section in CONFIG_KEYS}
    for section in parser.sections():
        sections[section] = {key: _read(section, key, text) for key, text in parser[section].items()}
    if seed_override is not None:
        sections["train"]["seed"] = seed_override

    named = (("experiment", "name"), ("output", "dir"))
    empty = [f"[{section}] {key}" for section, key in named if sections[section].get(key) == ""]
    if empty:
        raise ConfigError("empty config values: " + ", ".join(empty))

    name = sections["experiment"].get("name", path.stem)
    return ExperimentSpec(
        name=name,
        dataset=sections["dataset"],
        corruption=sections["corruption"],
        adapter=sections["adapter"],
        feature_map=sections["feature_map"],
        train=TrainConfig(**sections["train"]),
        out_dir=Path(out_override or sections["output"].get("dir", f"runs/{name}")),
    )


def _construct(section: str, constructors: dict, values: dict, *skip: str, **given):
    """Call the constructor of the section's kind with `given` and the section's other keys, less `skip`.

    A key that the constructor does not take, or an argument that it needs
    and is not given, is a ConfigError raised before the constructor runs; a
    ValueError that the constructor raises is a ConfigError naming the section.
    """
    kind = values.get("kind")
    if kind not in constructors:
        raise ConfigError(f"[{section}] kind must be one of {', '.join(constructors)}; got {kind!r}")
    constructor = constructors[kind]
    args = {key: value for key, value in values.items() if key not in ("kind", *skip)}
    params = inspect.signature(constructor).parameters
    extra = [f"[{section}] {key}" for key in args if key not in params]
    if extra:
        raise ConfigError(f"{section} kind {kind!r} does not take " + ", ".join(extra))
    needed = [key for key, p in params.items() if p.default is p.empty and key not in given]
    missing = [f"[{section}] {key}" for key in needed if key not in args]
    if missing:
        raise ConfigError(f"{section} kind {kind!r} needs " + ", ".join(missing))
    with _section_values(section):
        return constructor(**given, **args)


@contextmanager
def _section_values(section: str):
    """Report a library ValueError raised in the block as a ConfigError naming the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad value in [{section}]: {exc}") from exc


def run_experiment(spec: ExperimentSpec) -> int:
    """Train per the spec and write trace.csv, summary.json, and cloud dumps."""
    started = time.perf_counter()
    # looked up per run, so that a wrapper patched over this module's names (perfbench/tracer.py) is called
    clean = _construct("dataset", {"six_blobs": six_blobs, "two_moons": two_moons}, spec.dataset)
    corruption = _construct("corruption", CORRUPTIONS, spec.corruption, "seed")
    seed = {key: value for key, value in spec.corruption.items() if key == "seed"}
    with _section_values("corruption"):
        corrupted = apply_corruption(clean, corruption, **seed)
    fmap = _construct("feature_map", FEATURE_MAPS, {"kind": "identity", **spec.feature_map}, in_dim=clean.cloud.dim)
    adapter = _construct("adapter", ADAPTERS, {"kind": "affine", **spec.adapter}, dim=corrupted.cloud.dim)
    source_feats = PointCloud(fmap.forward_cloud(clean.cloud.points))

    cfg = spec.train
    if cfg.batch_size == 0:
        cfg = replace(cfg, batch_size=corrupted.n)
    adapter, trace = train(
        source_feats,
        corrupted.cloud,
        adapter,
        fmap,
        cfg,
        pairing=corrupted.pairing,
        source_labels=clean.labels,
    )

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(spec.out_dir / "trace.csv")
    cloud_to_csv(clean, spec.out_dir / "source.csv")
    cloud_to_csv(corrupted, spec.out_dir / "target.csv")
    final_adapted = LabeledCloud(cloud=PointCloud(trace.adapted), labels=corrupted.labels, pairing=corrupted.pairing)
    cloud_to_csv(final_adapted, spec.out_dir / "adapted.csv")

    first, last = trace.records[0], trace.records[-1]
    diverged = trace.divergence is not None
    mse_plateau = (
        not diverged
        and first.paired_mse is not None
        and last.paired_mse is not None
        and first.paired_mse > 1e-12
        and last.paired_mse > 0.5 * first.paired_mse
    )
    summary = {
        "config": {
            "name": spec.name,
            "dataset": spec.dataset,
            "corruption": spec.corruption,
            "adapter": spec.adapter,
            "feature_map": spec.feature_map,
            "train": asdict(cfg),
            "out_dir": str(spec.out_dir),
        },
        "initial_metrics": {
            "quantile_loss": first.quantile_loss,
            "paired_mse": first.paired_mse,
            "wasserstein2": first.wasserstein2,
        },
        "final_metrics": {
            "quantile_loss": last.quantile_loss,
            "paired_mse": last.paired_mse,
            "wasserstein2": last.wasserstein2,
        },
        "adapter_params": [float(v) for v in adapter.params],
        "flags": {
            "diverged": diverged,
            "mse_plateau": bool(mse_plateau),
            "wasserstein_skipped": any("wasserstein_skipped" in r.flag for r in trace.records),
            "aborted_steps": sum("nonfinite_grad" in r.flag for r in trace.records),
        },
        "runtime_ms": 1000.0 * (time.perf_counter() - started),
    }
    with open(spec.out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if diverged:
        epoch, ratio = trace.divergence
        message = f"training diverged at epoch {epoch}: adapted cloud spread ratio {ratio:.3g}"
        finite_ratio = ratio if np.isfinite(ratio) else None
        print(json.dumps({"error": "diverged", "message": message, "epoch": epoch, "spread_ratio": finite_ratio}))
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _report(lines: list[str], ok: bool, name: str, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def verify_inverse_map(trials: int, seed: int, lines: list[str]) -> bool:
    rng = SplitMix64.stream("verify_inverse", seed)
    worst = 0.0
    failures = iterations = snaps = fallbacks = halvings = 0
    for _ in range(trials):
        n = 10 + rng.randbelow(191)
        d = 2 + rng.randbelow(15)
        cloud = PointCloud(rng.normals((n, d)))
        direction = rng.normals(d)
        direction /= np.linalg.norm(direction)
        u = (0.9 * rng.uniform()) * direction
        report = geometric_quantile(cloud, u)
        worst = max(worst, report.residual)
        failures += report.residual > 1e-6
        iterations += report.iterations
        snaps += report.on_support
        fallbacks += report.fallbacks
        halvings += report.halvings
    ok = failures == 0
    counters = f"{iterations} iterations, {snaps} on-support snaps, {fallbacks} fallbacks, {halvings} step halvings"
    return _report(lines, ok, "inverse-map", f"{trials - failures}/{trials} residuals <= 1e-6, worst {worst:.3e}; {counters}")


def verify_variance(n: int, b: int, seed: int, lines: list[str]) -> bool:
    """The trainer's closed-form crude and control variances, against both measured over every b-subset."""
    rng = SplitMix64.stream("verify_variance", seed)
    pts = rng.normals((n, 3))
    cloud = PointCloud(pts)
    snap = PointCloud(pts + 0.05 * rng.normals((n, 3)))
    refs = select_references(cloud, min(4, n), seed)
    diag = bank_mod.estimator_variance(cloud, snap, refs, b, mode="exhaustive")
    moments = bank_mod.sweep(bank_mod.initialize_bank(snap, refs), cloud, refs).moments
    crude, control = _variance_sample(moments, b, n)
    gap = max(abs(diag.crude_variance - crude), abs(diag.control_variance - control))
    ok = gap <= 1e-10
    return _report(lines, ok, "variance", f"n={n} b={b} crude and control, max |measured - formula| = {gap:.3e}")


def verify_gradients(seed: int, lines: list[str]) -> bool:
    rng = SplitMix64.stream("verify_gradients", seed)
    ok_all = True
    for kind in ("identity", "affine", "mlp1"):
        d, m = 3, 12
        source = PointCloud(rng.normals((m, d)))
        target = PointCloud(rng.normals((m, d)) + 0.5)
        fmap = make_feature_map("identity", d)
        adapter = make_adapter(kind, d, hidden=5, seed=seed)
        refs = select_references(source, 4, seed)

        def loss_at(theta, adapter=adapter):
            probe = adapter.with_params(theta)
            pts = fmap.forward_cloud(probe.forward_cloud(target.points))
            return quantile_loss_on_points(pts, refs, want_grad=False)[0]

        transformed = adapter.forward_cloud(target.points)
        adapted = fmap.forward_cloud(transformed)
        _, point_grads = quantile_loss_on_points(adapted, refs)
        analytic = _chain_param_grad(adapter, fmap, target.points, transformed, point_grads)

        if adapter.n_params == 0:
            ok = True
            detail = "identity adapter has no parameters"
        else:
            numeric = oracles.finite_diff_grad(loss_at, adapter.params)
            rel = float(np.max(np.abs(analytic - numeric)) / (1.0 + np.max(np.abs(analytic))))
            ok = rel < 1e-4
            detail = f"max relative error {rel:.3e}"
        ok_all &= _report(lines, ok, f"gradients[{kind}]", detail)
    return ok_all


def verify_minibatch_gradients(n: int, b: int, seed: int, lines: list[str]) -> bool:
    """The bank's batch gradient, averaged over every b-subset at theta_snap, is the full-batch gradient."""
    rng = SplitMix64.stream("verify_minibatch_gradients", seed)
    ok_all = True
    for kind in ("affine", "mlp1"):
        d = 3
        source = PointCloud(rng.normals((n, d)))
        target = PointCloud(rng.normals((n, d)) + 0.5)
        fmap = make_feature_map("identity", d)
        adapter = make_adapter(kind, d, hidden=5, seed=seed)
        refs = select_references(source, min(4, n), seed)

        transformed = adapter.forward_cloud(target.points)
        adapted = fmap.forward_cloud(transformed)
        _, point_grads = quantile_loss_on_points(adapted, refs)
        full = _chain_param_grad(adapter, fmap, target.points, transformed, point_grads)

        bank = bank_mod.initialize_bank(PointCloud(adapted), refs)
        total = np.zeros_like(full)
        count = 0
        for combo in oracles.enumerate_batches(n, b):
            batch = np.asarray(combo, dtype=int)
            xb = target.points[batch]
            tb = adapter.forward_cloud(xb)
            grads = minibatch_point_grads(fmap.forward_cloud(tb), batch, bank, refs)
            total += _chain_param_grad(adapter, fmap, xb, tb, grads)
            count += 1
        rel = float(np.max(np.abs(total / count - full)) / (1.0 + np.max(np.abs(full))))
        ok = rel <= 1e-12
        ok_all &= _report(lines, ok, f"minibatch-gradients[{kind}]", f"{count} batches, max relative error {rel:.3e}")
    return ok_all


def verify_wasserstein(seed: int, lines: list[str]) -> bool:
    rng = SplitMix64.stream("verify_wasserstein", seed)
    a = rng.normals((6, 2))
    b = rng.normals((6, 2))
    plan = oracles.wasserstein2(a, b)
    best = min(float(np.sum((a - b[list(p)]) ** 2)) / 6 for p in permutations(range(6)))
    gap = abs(plan.cost - best)
    ok = gap <= 1e-12
    ok &= _report(lines, ok, "wasserstein[enumeration]", f"assignment vs 720 permutations gap {gap:.3e}")

    shift = np.array([2.0, -1.0])
    d_shift = oracles.wasserstein2(a, a + shift).distance
    ok2 = abs(d_shift - np.linalg.norm(shift)) <= 1e-9
    ok &= _report(lines, ok2, "wasserstein[translation]", f"|W2 - ||c||| = {abs(d_shift - np.linalg.norm(shift)):.3e}")

    sym = abs(oracles.wasserstein2(a, b).cost - oracles.wasserstein2(b, a).cost)
    ok3 = sym <= 1e-12
    ok &= _report(lines, ok3, "wasserstein[symmetry]", f"asymmetry {sym:.3e}")
    return ok


def cmd_run(args) -> int:
    try:
        return run_experiment(load_spec(args.config, args.out, args.seed))
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - contract: error JSON + nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_FAIL


def _verify_usage_error(args) -> str | None:
    """Why the verify arguments cannot run, or None."""
    if args.trials < 1:
        return f"--trials must be >= 1, got {args.trials}"
    if args.n < 2:
        return f"--n must be >= 2, got {args.n}"
    if not 1 <= args.b <= args.n:
        return f"--b must be in [1, {args.n}], got {args.b}"
    if args.suite in ("variance", "minibatch-gradients") and math.comb(args.n, args.b) > oracles.ENUMERATION_LIMIT:
        return f"C({args.n}, {args.b}) batches exceed the enumeration limit {oracles.ENUMERATION_LIMIT}"
    return None


def cmd_verify(args) -> int:
    problem = _verify_usage_error(args)
    if problem is not None:
        print(json.dumps({"error": "usage", "message": problem}))
        return EXIT_USAGE
    lines: list[str] = []
    try:
        if args.suite == "inverse-map":
            ok = verify_inverse_map(args.trials, args.seed, lines)
        elif args.suite == "variance":
            ok = verify_variance(args.n, args.b, args.seed, lines)
        elif args.suite == "minibatch-gradients":
            ok = verify_minibatch_gradients(args.n, args.b, args.seed, lines)
        elif args.suite == "gradients":
            ok = verify_gradients(args.seed, lines)
        else:
            ok = verify_wasserstein(args.seed, lines)
    except Exception as exc:  # noqa: BLE001
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_FAIL
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quantmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed", type=int, default=None, help="override [train] seed")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="run a property suite")
    ver_p.add_argument("suite", choices=["inverse-map", "variance", "gradients", "minibatch-gradients", "wasserstein"])
    ver_p.add_argument("--trials", type=int, default=100)
    ver_p.add_argument("--n", type=int, default=8)
    ver_p.add_argument("--b", type=int, default=3)
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
