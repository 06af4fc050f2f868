"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from quantmatch import (
    Adapter,
    Corruption,
    FeatureMap,
    PointCloud,
    TrainConfig,
    apply_corruption,
    enumerate_batches,
    estimator_variance,
    finite_diff_grad,
    geometric_quantile,
    initialize_bank,
    quantile_index,
    select_references,
    six_blobs,
    train,
)
from quantmatch.bank import control_variate_estimate, per_sample_units
from quantmatch.cli import load_spec, run_experiment
from quantmatch.loss import quantile_loss_on_points
from quantmatch.rng import SplitMix64

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_cloud(rng, n, d):
    return PointCloud(rng.normals((n, d)))


@pytest.fixture(scope="module")
def sixblobs_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sixblobs")
    spec = load_spec(CONFIG_DIR / "sixblobs_linear.cfg", out_override=out)
    started = time.perf_counter()
    assert run_experiment(spec) == 0
    elapsed = time.perf_counter() - started
    summary = json.loads((out / "summary.json").read_text())
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    return summary, rows, elapsed


@pytest.fixture(scope="module")
def twomoons_runs(tmp_path_factory):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"twomoons_{tag}")
        spec = load_spec(CONFIG_DIR / "twomoons_flip.cfg", out_override=out)
        assert run_experiment(spec) == 0
        outs.append(out)
    return outs


def test_criterion_1_inverse_map_fixed_point():
    rng = SplitMix64.stream("verify_inverse", 0)
    started = time.perf_counter()
    worst, failures = 0.0, 0
    for _ in range(100):
        n = 10 + rng.randbelow(191)
        d = 2 + rng.randbelow(15)
        cloud = random_cloud(rng, n, d)
        direction = rng.normals(d)
        direction /= np.linalg.norm(direction)
        u = 0.9 * rng.uniform() * direction
        rep = geometric_quantile(cloud, u)
        worst = max(worst, rep.residual)
        failures += rep.residual > 1e-6
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    report(1, ok, f"{100 - failures}/100 residuals <= 1e-6, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_equivariances():
    rng = SplitMix64.stream("equivariance", 1)
    worst_t, worst_o, worst_s = 0.0, 0.0, 0.0
    for _ in range(100):
        d = 2 + rng.randbelow(7)
        cloud = random_cloud(rng, 8 + rng.randbelow(30), d)
        z = 2.0 * rng.normals(d)
        base = quantile_index(cloud, z)

        c = 5.0 * rng.normals(d)
        worst_t = max(worst_t, float(np.max(np.abs(
            quantile_index(PointCloud(cloud.points + c), z + c) - base))))

        q, r = np.linalg.qr(rng.normals((d, d)))
        rot = q * np.sign(np.diag(r))
        worst_o = max(worst_o, float(np.max(np.abs(
            quantile_index(PointCloud(cloud.points @ rot.T), rot @ z) - rot @ base))))

        s = 0.1 + 10.0 * rng.uniform()
        worst_s = max(worst_s, float(np.max(np.abs(
            quantile_index(PointCloud(s * cloud.points), s * z) - base))))
    ok = worst_t <= 1e-12 and worst_o <= 1e-9 and worst_s <= 1e-9
    report(2, ok, f"translation {worst_t:.1e} (<=1e-12), orthogonal {worst_o:.1e} (<=1e-9), scale {worst_s:.1e} (<=1e-9)")


def test_criterion_3_one_dimensional_consistency():
    rng = SplitMix64.stream("oneD", 2)
    worst_ratio = 0.0
    ok = True
    for _ in range(5):
        sample = np.sort(rng.normals(60) * 2.0)
        cloud = PointCloud(sample[:, None])
        for u in (-0.8, -0.5, 0.0, 0.5, 0.8):
            rep = geometric_quantile(cloud, [u])
            p = (1.0 + u) / 2.0
            emp = np.quantile(sample, p)
            k = int(np.clip(np.floor(p * (len(sample) - 1)), 0, len(sample) - 2))
            gap = sample[min(k + 2, len(sample) - 1)] - sample[max(k - 1, 0)]
            ok &= abs(rep.quantile[0] - emp) <= gap
            worst_ratio = max(worst_ratio, abs(rep.quantile[0] - emp) / gap)
    report(3, ok, f"5 samples x 5 levels within one inter-sample gap, worst |Q-emp|/gap {worst_ratio:.3f}")


def test_criterion_4_distribution_equality_null():
    rng = SplitMix64.stream("null", 3)
    worst = 0.0
    for _ in range(20):
        d = 2 + rng.randbelow(4)
        source = random_cloud(rng, 30, d)
        refs = select_references(source, 10, seed=4)
        permuted = PointCloud(source.points[rng.permutation(30)])
        loss, _ = quantile_loss_on_points(permuted.points, refs, want_grad=False)
        worst = max(worst, loss)
    ok = worst <= 1e-12
    report(4, ok, f"permutation-null loss worst {worst:.2e} (<= 1e-12)")


def test_criterion_5_pipeline_gradient_correctness():
    rng = SplitMix64.stream("pipeline_grads", 4)
    # each kind's constructor, from the dimension d, the feature dimension k and the trial's seed
    adapter_kinds = (
        lambda d, seed: Adapter.identity(d),
        lambda d, seed: Adapter.affine(d),
        lambda d, seed: Adapter.mlp1(d, hidden=4, seed=seed),
    )
    fmap_kinds = (
        lambda d, k, seed: FeatureMap.identity(d),
        lambda d, k, seed: FeatureMap.fixed_affine(d, out_dim=k, seed=seed),
        lambda d, k, seed: FeatureMap.fixed_mlp(d, out_dim=k, hidden=4, seed=seed),
    )
    worst = 0.0
    for trial in range(50):
        d = 2 + rng.randbelow(3)
        k = d + rng.randbelow(2)
        fmap = fmap_kinds[(trial // 3) % 3](d, k, trial)
        adapter = adapter_kinds[trial % 3](d, trial)
        if adapter.n_params:
            adapter = adapter.with_params(adapter.params + 0.2 * rng.normals(adapter.params.shape))
        source = PointCloud(fmap.forward_cloud(rng.normals((14, d))))
        refs = select_references(source, 4, seed=trial)
        target = rng.normals((14, d)) + 0.4

        transformed = adapter.forward_cloud(target)
        adapted = fmap.forward_cloud(transformed)
        _, point_grads = quantile_loss_on_points(adapted, refs)
        upstream = fmap.backward_cloud(transformed, point_grads)
        param_grad, input_grads = adapter.backward_cloud(target, upstream)

        if adapter.n_params:
            def loss_theta(theta):
                pts = fmap.forward_cloud(adapter.with_params(theta).forward_cloud(target))
                return quantile_loss_on_points(pts, refs, want_grad=False)[0]

            numeric = finite_diff_grad(loss_theta, adapter.params)
            rel = np.max(np.abs(param_grad - numeric)) / (1.0 + np.max(np.abs(param_grad)))
        else:
            def loss_points(flat):
                pts = fmap.forward_cloud(adapter.forward_cloud(flat.reshape(14, d)))
                return quantile_loss_on_points(pts, refs, want_grad=False)[0]

            numeric = finite_diff_grad(loss_points, target.ravel())
            rel = np.max(np.abs(input_grads.ravel() - numeric)) / (1.0 + np.max(np.abs(input_grads)))
        worst = max(worst, rel)
    ok = worst < 1e-4
    report(5, ok, f"50 instances over adapter x feature-map kinds, worst rel err {worst:.2e} (< 1e-4)")


def test_criterion_6_estimator_unbiasedness():
    rng = SplitMix64.stream("unbiased", 5)
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        source = random_cloud(rng, 15, 2)
        refs = select_references(source, 5, seed=6)
        current = random_cloud(rng, n, 2)
        snap = PointCloud(current.points + 0.05 * rng.normals(current.points.shape))
        bank = initialize_bank(snap, refs)
        # a contiguous (R, n, d) copy of the bank's (d, R, n) planes
        cur_units = np.ascontiguousarray(per_sample_units(current.points, refs.quantiles).transpose(1, 2, 0))
        snap_units = np.ascontiguousarray(per_sample_units(snap.points, refs.quantiles).transpose(1, 2, 0))
        exact = cur_units.mean(axis=1)
        for b in {1, n // 2, n}:
            acc, count = 0.0, 0
            for batch in enumerate_batches(n, b):
                idx = np.asarray(batch)
                acc = acc + control_variate_estimate(
                    bank, cur_units[:, idx, :].mean(axis=1), snap_units[:, idx, :].mean(axis=1)
                )
                count += 1
            worst = max(worst, float(np.max(np.abs(acc / count - exact))))
    ok = worst <= 1e-12
    report(6, ok, f"batch-averaged estimate vs exact mean, worst gap {worst:.2e} (<= 1e-12)")


def test_criterion_7_lemma_variance_formula():
    from quantmatch.bank import lemma_variance, population_moments

    rng = SplitMix64.stream("lemma", 6)
    worst = 0.0
    for n in range(2, 11):
        source = random_cloud(rng, 15, 3)
        refs = select_references(source, 5, seed=7)
        current = random_cloud(rng, n, 3)
        units = per_sample_units(current.points, refs.quantiles)
        sigma_a2, _ = population_moments(units, units)
        for b in range(1, n + 1):
            diag = estimator_variance(current, current, refs, b=b, mode="exhaustive")
            expected = lemma_variance(float(sigma_a2.mean()), n, b)
            worst = max(worst, abs(diag.crude_variance - expected))
    ok = worst <= 1e-10
    report(7, ok, f"exhaustive crude variance vs (1/b)((n-b)/(n-1))tr(Sigma), worst gap {worst:.2e} (<= 1e-10)")


def test_criterion_8_variance_reduction():
    rng = SplitMix64.stream("reduction", 7)
    source = random_cloud(rng, 40, 3)
    refs = select_references(source, 8, seed=8)
    adapter = Adapter.affine(3)
    target = rng.normals((64, 3))
    current = PointCloud(adapter.forward_cloud(target))
    perturbed = adapter.with_params(adapter.params + 1e-4 * rng.normals(adapter.params.shape))
    snap = PointCloud(perturbed.forward_cloud(target))
    diag = estimator_variance(current, snap, refs, b=8, mode="monte_carlo", draws=10_000, seed=9)
    ratio = diag.control_variance / diag.crude_variance
    ok = ratio < 0.05 and 0.9 <= diag.beta_star <= 1.1
    report(8, ok, f"control/crude = {ratio:.2e} (< 0.05), beta* = {diag.beta_star:.4f} (in [0.9, 1.1])")


def test_criterion_9_sixblobs_reproduction(sixblobs_run):
    summary, rows, elapsed = sixblobs_run
    w2_ratio = summary["final_metrics"]["wasserstein2"] / summary["initial_metrics"]["wasserstein2"]
    mse_ratio = summary["final_metrics"]["paired_mse"] / summary["initial_metrics"]["paired_mse"]
    pearson = float(np.corrcoef(rows["quantile_loss"], rows["paired_mse"])[0, 1])
    ok = w2_ratio < 0.10 and mse_ratio < 0.10 and pearson > 0.5 and elapsed < 120.0
    report(9, ok, f"W2 ratio {w2_ratio:.4f} (< 0.1), MSE ratio {mse_ratio:.5f} (< 0.1), "
                  f"Pearson {pearson:.3f} (> 0.5), runtime {elapsed:.1f}s (< 120)")


def test_criterion_10_twomoons_failure_mode(twomoons_runs):
    summary = json.loads((twomoons_runs[0] / "summary.json").read_text())
    w2_ratio = summary["final_metrics"]["wasserstein2"] / summary["initial_metrics"]["wasserstein2"]
    mse_ratio = summary["final_metrics"]["paired_mse"] / summary["initial_metrics"]["paired_mse"]
    plateau = summary["flags"]["mse_plateau"]
    ok = w2_ratio < 0.20 and mse_ratio > 0.50 and plateau
    report(10, ok, f"W2 ratio {w2_ratio:.3f} (< 0.2), MSE ratio {mse_ratio:.3f} (> 0.5), "
                   f"mse_plateau {plateau}")


def test_criterion_11_minibatch_parity():
    clean = six_blobs(seed=7)
    target = apply_corruption(clean, Corruption.linear([[1.25, 0.2], [-0.15, 0.9]]))
    target = apply_corruption(target, Corruption.gaussian_noise(0.1), seed=13)
    fmap = FeatureMap.identity(2)
    src = PointCloud(clean.cloud.points)
    finals = []
    for full, bs in ((True, clean.n), (False, 32)):
        cfg = TrainConfig(epochs=400, batch_size=bs, learning_rate=1e-2, momentum=0.9,
                          reference_count=60, seed=5, full_batch=full, snapshot_every=1,
                          wasserstein_every=10**9)
        _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg,
                         paired=True, source_labels=clean.labels)
        finals.append(trace.records[-1].quantile_loss)
    fb, mb = finals
    gap = abs(mb - fb) / fb
    ok = gap <= 0.20
    report(11, ok, f"full-batch {fb:.3e} vs memory-bank batch-32 {mb:.3e}, gap {gap:.1%} (<= 20%)")


def test_criterion_12_determinism(twomoons_runs):
    a = (twomoons_runs[0] / "trace.csv").read_bytes()
    b = (twomoons_runs[1] / "trace.csv").read_bytes()
    ok = a == b
    report(12, ok, f"two invocations byte-identical: {ok} ({len(a)} bytes)")
