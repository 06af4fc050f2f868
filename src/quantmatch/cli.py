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
from .adapters import Adapter, FeatureMap
from .datasets import Corruption, LabeledCloud, apply_corruption, cloud_to_csv, six_blobs, two_moons
from .geometry import PointCloud, geometric_quantile
from .loss import quantile_loss_on_points, select_references
from .rng import SplitMix64
from .trainer import SUMMARY_METRICS, ConfigError, TrainConfig, _chain_param_grad, minibatch_point_grads, train

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


def _seed(value) -> int:
    """A seed as an int in [0, 2**64): SplitMix64 reduces seeds modulo 2**64, so one outside would alias one inside."""
    seed = int(value)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"a seed must be in [0, 2**64), got {seed}")
    return seed


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# every section and key a config may hold, each with the reader of its value
CONFIG_KEYS = {
    "experiment": {"name": str},
    "dataset": {"kind": str, "seed": _seed, "counts": _whole_numbers, "n": int, "noise_sigma": float},
    "corruption": {"kind": str, "seed": _seed, "matrix": _square_matrix, "angle_deg": float, "offset": _floats, "sigma": float},
    "adapter": {"kind": str, "hidden": int, "seed": _seed, "init_rotation_deg": float},
    "feature_map": {"kind": str, "out_dim": int, "hidden": int, "seed": _seed},
    "train": {"epochs": int, "batch_size": int, "learning_rate": float, "momentum": float, "reference_count": int,
              "seed": _seed, "snapshot_every": int, "full_batch": _boolean, "wasserstein_every": int},
    "output": {"dir": str},
}

# the most bytes one hidden layer may take on the whole cloud: an mlp1
# adapter's or a fixed_mlp feature map's activations are n * hidden floats,
# and a config that asks for more exits 2 before any map is built
MAX_HIDDEN_BYTES = 1 << 30
HIDDEN_KINDS = {"adapter": "mlp1", "feature_map": "fixed_mlp"}

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
    # values are literal text (a % is a %); no header can name the default section, so [DEFAULT] is unknown, not copied
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
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
        try:
            sections["train"]["seed"] = _seed(seed_override)
        except ValueError as exc:
            raise ConfigError(f"bad value for --seed (for [train] seed): {exc}") from exc

    named = (("experiment", "name"), ("output", "dir"))
    empty = [f"[{section}] {key}" for section, key in named if sections[section].get(key) == ""]
    if out_override == "":
        empty.append("--out (for [output] dir)")
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
        out_dir=Path(sections["output"].get("dir", f"runs/{name}") if out_override is None else out_override),
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


def _check_squared_distances(section: str, points: np.ndarray) -> None:
    """A ConfigError naming the section if the squared distances between its cloud's points could overflow.

    Points within radius r of the origin lie at squared distance at most 4 r^2
    from each other, so the cloud passes when 4 r^2 is finite for its
    largest norm r; the loss, the paired MSE and exact W2 all square
    distances between the clouds.
    """
    with np.errstate(over="ignore"):
        bound = 4.0 * float(np.max(np.sum(points * points, axis=1)))
    if not math.isfinite(bound):
        largest = float(np.max(np.abs(points)))
        raise ConfigError(f"bad value in [{section}]: its cloud's squared distances overflow (largest coordinate {largest:.3g})")


def _check_hidden_layers(spec: ExperimentSpec, n: int) -> None:
    """A ConfigError naming the section whose hidden layer on n points would take more than MAX_HIDDEN_BYTES."""
    for section, kind in HIDDEN_KINDS.items():
        values = getattr(spec, section)
        hidden = values.get("hidden", 0)
        if values.get("kind") == kind and 8 * n * hidden > MAX_HIDDEN_BYTES:
            raise ConfigError(
                f"bad value in [{section}]: hidden = {hidden} on {n} points takes {8 * n * hidden} bytes a layer,"
                f" above the limit of {MAX_HIDDEN_BYTES}"
            )


def run_experiment(spec: ExperimentSpec) -> int:
    """Train per the spec and write trace.csv, summary.json, and cloud dumps."""
    started = time.perf_counter()
    # looked up per run, so that a wrapper patched over this module's names (perfbench/tracer.py) is called
    clean = _construct("dataset", {"six_blobs": six_blobs, "two_moons": two_moons}, spec.dataset)
    _check_hidden_layers(spec, clean.n)
    corruption = _construct("corruption", CORRUPTIONS, spec.corruption, "seed")
    seed = {key: value for key, value in spec.corruption.items() if key == "seed"}
    with _section_values("corruption"):
        corrupted = apply_corruption(clean, corruption, **seed)
    fmap = _construct("feature_map", FEATURE_MAPS, {"kind": "identity", **spec.feature_map}, in_dim=clean.cloud.dim)
    adapter = _construct("adapter", ADAPTERS, {"kind": "affine", **spec.adapter}, dim=corrupted.cloud.dim)
    source_feats = PointCloud(fmap.forward_cloud(clean.cloud.points))
    for section, points in (("dataset", clean.cloud.points), ("corruption", corrupted.cloud.points), ("feature_map", source_feats.points)):
        _check_squared_distances(section, points)

    cfg = spec.train
    if cfg.batch_size == 0:
        cfg = replace(cfg, batch_size=corrupted.n)
    # the output dir is made before training, so that an unusable one costs no
    # run; training writes nothing there, so a failed one takes back the
    # directories it made
    made = [path for path in (spec.out_dir, *spec.out_dir.parents) if not path.exists()]
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use [output] dir {spec.out_dir}: {exc}") from exc
    try:
        adapter, trace = train(
            source_feats,
            corrupted.cloud,
            adapter,
            fmap,
            cfg,
            paired=True,
            source_labels=clean.labels,
        )
    except BaseException:
        for path in made:
            path.rmdir()
        raise

    trace.to_csv(spec.out_dir / "trace.csv")
    cloud_to_csv(clean, spec.out_dir / "source.csv")
    cloud_to_csv(corrupted, spec.out_dir / "target.csv")
    final_adapted = LabeledCloud(cloud=PointCloud(trace.adapted), labels=corrupted.labels)
    cloud_to_csv(final_adapted, spec.out_dir / "adapted.csv")

    first, last = trace.records[0], trace.records[-1]
    diverged = trace.divergence is not None
    # training ran paired, so every record has its paired MSE
    mse_plateau = not diverged and first.paired_mse > 1e-12 and last.paired_mse > 0.5 * first.paired_mse
    summary = {
        "config": {**asdict(spec), "train": asdict(cfg), "out_dir": str(spec.out_dir)},
        "initial_metrics": {name: getattr(first, name) for name in SUMMARY_METRICS},
        "final_metrics": {name: getattr(last, name) for name in SUMMARY_METRICS},
        "adapter_params": [float(v) for v in adapter.params],
        "flags": {
            "diverged": diverged,
            "mse_plateau": mse_plateau,
            "wasserstein_skipped": any("wasserstein_skipped" in r.flag for r in trace.records),
            "aborted_steps": trace.aborted_steps,
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
    failures = iterations = snaps = weiszfeld_steps = 0
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
        weiszfeld_steps += report.weiszfeld_steps
    ok = failures == 0
    counters = f"{iterations} iterations, {snaps} on-support snaps, {weiszfeld_steps} Weiszfeld steps"
    return _report(lines, ok, "inverse-map", f"{trials - failures}/{trials} residuals <= 1e-6, worst {worst:.3e}; {counters}")


def verify_variance(n: int, b: int, seed: int, lines: list[str]) -> bool:
    """The trainer's closed-form crude and control variances, against both measured over every b-subset."""
    rng = SplitMix64.stream("verify_variance", seed)
    pts = rng.normals((n, 3))
    cloud = PointCloud(pts)
    snap = PointCloud(pts + 0.05 * rng.normals((n, 3)))
    refs = select_references(cloud, min(4, n), seed)
    diag = bank_mod.estimator_variance(cloud, snap, refs, b, mode="exhaustive")
    gap = max(abs(diag.crude_variance - diag.crude_formula), abs(diag.control_variance - diag.control_formula))
    ok = gap <= 1e-10
    return _report(lines, ok, "variance", f"n={n} b={b} crude and control, max |measured - formula| = {gap:.3e}")


def _gradient_case(rng: SplitMix64, adapter: Adapter, m: int, seed: int):
    """A gradient suite's case: (target, fmap, refs, adapted, grad) for the adapter, at m points.

    Draws an (m, d) source cloud, then an (m, d) target cloud shifted by 0.5,
    from rng; fmap is the identity and grad the full-batch parameter gradient.
    """
    d = adapter.dim
    source = PointCloud(rng.normals((m, d)))
    target = rng.normals((m, d)) + 0.5
    fmap = FeatureMap.identity(d)
    refs = select_references(source, min(4, m), seed)
    transformed = adapter.forward_cloud(target)
    adapted = fmap.forward_cloud(transformed)
    _, point_grads = quantile_loss_on_points(adapted, refs)
    return target, fmap, refs, adapted, _chain_param_grad(adapter, fmap, target, transformed, point_grads)


def verify_gradients(seed: int, lines: list[str]) -> bool:
    rng = SplitMix64.stream("verify_gradients", seed)
    ok_all = True
    for adapter in (Adapter.identity(3), Adapter.affine(3), Adapter.mlp1(3, hidden=5, seed=seed)):
        target, fmap, refs, _, analytic = _gradient_case(rng, adapter, 12, seed)

        def loss_at(theta, adapter=adapter):
            pts = fmap.forward_cloud(adapter.with_params(theta).forward_cloud(target))
            return quantile_loss_on_points(pts, refs, want_grad=False)[0]

        if adapter.n_params == 0:
            ok = True
            detail = "identity adapter has no parameters"
        else:
            numeric = oracles.finite_diff_grad(loss_at, adapter.params)
            # relative to the numeric gradient's own size; an all-zero one checks nothing, so it fails
            scale = float(np.max(np.abs(numeric)))
            rel = float(np.max(np.abs(analytic - numeric))) / scale if scale > 0 else math.inf
            ok = rel <= 1e-6
            detail = f"max relative error {rel:.3e}"
        ok_all &= _report(lines, ok, f"gradients[{adapter.kind}]", detail)
    return ok_all


def verify_minibatch_gradients(n: int, b: int, seed: int, lines: list[str]) -> bool:
    """The bank's batch gradient, averaged over every b-subset at theta_snap, is the full-batch gradient."""
    rng = SplitMix64.stream("verify_minibatch_gradients", seed)
    ok_all = True
    for adapter in (Adapter.affine(3), Adapter.mlp1(3, hidden=5, seed=seed)):
        target, fmap, refs, adapted, full = _gradient_case(rng, adapter, n, seed)
        bank = bank_mod.initialize_bank(PointCloud(adapted), refs)
        total = np.zeros_like(full)
        count = 0
        for combo in oracles.enumerate_batches(n, b):
            batch = np.asarray(combo, dtype=int)
            xb = target[batch]
            tb = adapter.forward_cloud(xb)
            grads = minibatch_point_grads(fmap.forward_cloud(tb), batch, bank, refs)
            total += _chain_param_grad(adapter, fmap, xb, tb, grads)
            count += 1
        rel = float(np.max(np.abs(total / count - full)) / (1.0 + np.max(np.abs(full))))
        ok = rel <= 1e-12
        ok_all &= _report(lines, ok, f"minibatch-gradients[{adapter.kind}]", f"{count} batches, max relative error {rel:.3e}")
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


# each suite's runner, from the parsed arguments and the list its report lines go to
SUITES = {
    "inverse-map": lambda args, lines: verify_inverse_map(args.trials, args.seed, lines),
    "variance": lambda args, lines: verify_variance(args.n, args.b, args.seed, lines),
    "gradients": lambda args, lines: verify_gradients(args.seed, lines),
    "minibatch-gradients": lambda args, lines: verify_minibatch_gradients(args.n, args.b, args.seed, lines),
    "wasserstein": lambda args, lines: verify_wasserstein(args.seed, lines),
}


def cmd_run(args) -> int:
    return run_experiment(load_spec(args.config, args.out, args.seed))


def _verify_usage_error(args) -> str | None:
    """Why the verify arguments cannot run, or None."""
    try:
        _seed(args.seed)
    except ValueError as exc:
        return f"--seed: {exc}"
    if args.trials < 1:
        return f"--trials must be >= 1, got {args.trials}"
    if args.n < 2:
        return f"--n must be >= 2, got {args.n}"
    if not 1 <= args.b <= args.n:
        return f"--b must be in [1, {args.n}], got {args.b}"
    if args.suite in ("variance", "minibatch-gradients") and oracles.exceeds_enumeration_limit(args.n, args.b):
        return f"C({args.n}, {args.b}) batches exceed the enumeration limit {oracles.ENUMERATION_LIMIT}"
    return None


def cmd_verify(args) -> int:
    problem = _verify_usage_error(args)
    if problem is not None:
        print(json.dumps({"error": "usage", "message": problem}))
        return EXIT_USAGE
    lines: list[str] = []
    ok = SUITES[args.suite](args, lines)
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
    ver_p.add_argument("suite", choices=SUITES)
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - contract: error JSON + nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
