from dataclasses import replace

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
    evaluate_epoch,
    finite_diff_grad,
    g_r,
    h_r,
    initialize_bank,
    quantile_loss_on_points,
    select_references,
    sgd_step,
    six_blobs,
    train,
    two_moons,
    wasserstein2,
)
from quantmatch import bank as bank_mod, loss as loss_mod, trainer as trainer_mod
from quantmatch.bank import lemma_variance, per_sample_units, population_moments
from quantmatch.oracles import MAX_EXACT_SIZE
from quantmatch.trainer import (
    DIVERGENCE_SPREAD,
    ConfigError,
    NonFiniteGradientError,
    minibatch_point_grads,
    rms_spread,
)
from quantmatch.rng import SplitMix64

CORRUPTION = Corruption.linear([[1.25, 0.2], [-0.15, 0.9]])


def sixblobs_setup(noise=0.0, seed=7):
    clean = six_blobs(seed=seed)
    target = apply_corruption(clean, CORRUPTION)
    if noise > 0:
        target = apply_corruption(target, Corruption.gaussian_noise(noise), seed=13)
    fmap = FeatureMap.identity(2)
    return clean, target, PointCloud(clean.cloud.points), fmap


def cfg_for(n, **kw):
    base = dict(
        epochs=50,
        batch_size=n,
        learning_rate=1e-2,
        momentum=0.9,
        reference_count=60,
        seed=5,
        full_batch=True,
        wasserstein_every=10,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestSgdStep:
    def _adapter(self):
        return Adapter.affine(2)

    def test_zero_gradient_keeps_parameters(self):
        ad = self._adapter()
        cfg = cfg_for(10)
        out, _ = sgd_step(ad, np.zeros(ad.n_params), cfg)
        np.testing.assert_array_equal(out.params, ad.params)

    def test_plain_step(self):
        ad = self._adapter()
        cfg = cfg_for(10, learning_rate=0.1, momentum=0.0)
        grad = np.zeros(ad.n_params)
        grad[0] = 1.0
        out, _ = sgd_step(ad, grad, cfg)
        assert out.params[0] == pytest.approx(ad.params[0] - 0.1, abs=1e-15)

    def test_momentum_matches_hand_recursion(self):
        ad = self._adapter()
        cfg = cfg_for(10, learning_rate=0.05, momentum=0.9)
        rng = SplitMix64.stream("sgd", 0)
        g1, g2 = rng.normals(ad.n_params), rng.normals(ad.n_params)

        out, vel = sgd_step(ad, g1, cfg)
        out, vel = sgd_step(out, g2, cfg, vel)

        v1 = g1
        theta1 = ad.params - 0.05 * v1
        v2 = 0.9 * v1 + g2
        theta2 = theta1 - 0.05 * v2
        np.testing.assert_allclose(out.params, theta2, atol=1e-12)

    def test_nonfinite_gradient_rejected(self):
        ad = self._adapter()
        grad = np.zeros(ad.n_params)
        grad[2] = np.inf
        with pytest.raises(NonFiniteGradientError):
            sgd_step(ad, grad, cfg_for(10))

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            sgd_step(self._adapter(), np.zeros(3), cfg_for(10))


class TestTrainBasics:
    def test_no_shift_stays_at_identity(self):
        clean, _, src, fmap = sixblobs_setup()
        adapter = Adapter.affine(2)
        cfg = cfg_for(clean.n, epochs=3)
        out, trace = train(src, clean.cloud, adapter, fmap, cfg, paired=True)
        assert trace.records[0].quantile_loss <= 1e-6
        np.testing.assert_allclose(out.params, adapter.params, atol=cfg.learning_rate * 1e-8)

    def test_config_validation(self):
        clean, target, src, fmap = sixblobs_setup()
        adapter = Adapter.affine(2)
        with pytest.raises(ConfigError):
            train(src, target.cloud, adapter, fmap, cfg_for(clean.n, epochs=0))
        with pytest.raises(ConfigError):
            train(src, target.cloud, adapter, fmap, cfg_for(clean.n, batch_size=clean.n + 1, full_batch=False))
        with pytest.raises(ConfigError):
            train(src, target.cloud, adapter, fmap, cfg_for(clean.n, learning_rate=0.0))
        with pytest.raises(ConfigError):
            train(src, target.cloud, adapter, fmap, cfg_for(clean.n, wasserstein_every=0))

    def test_trace_has_one_record_per_epoch_plus_baseline(self):
        clean, target, src, fmap = sixblobs_setup()
        cfg = cfg_for(clean.n, epochs=7)
        _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg, paired=True)
        assert [r.epoch for r in trace.records] == list(range(8))
        assert all(r.quantile_loss >= 0 for r in trace.records)

    def test_determinism_bitwise(self):
        clean, target, src, fmap = sixblobs_setup(noise=0.1)
        cfg = cfg_for(clean.n, epochs=5, batch_size=64, full_batch=False)
        runs = []
        for _ in range(2):
            adapter = Adapter.affine(2)
            out, trace = train(src, target.cloud, adapter, fmap, cfg,
                               paired=True, source_labels=clean.labels)
            runs.append((out.params.copy(), [r.quantile_loss for r in trace.records],
                         [r.grad_norm for r in trace.records]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_full_batch_descent_is_monotone(self):
        clean, target, src, fmap = sixblobs_setup()
        cfg = cfg_for(clean.n, epochs=120, learning_rate=1e-3, momentum=0.0, wasserstein_every=10**9)
        _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg)
        ql = trace.column("quantile_loss")
        assert np.all(ql[1:] <= ql[:-1] + 1e-9)

    def test_divergence_stops_at_the_last_record(self):
        clean, target, src, fmap = sixblobs_setup()
        cfg = cfg_for(clean.n, epochs=5, learning_rate=1e6)
        out, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg, paired=True)
        epoch, ratio = trace.divergence
        assert ratio > DIVERGENCE_SPREAD
        assert [r.epoch for r in trace.records] == list(range(epoch))
        # the returned adapter and trace.adapted both belong to the last record
        assert rms_spread(trace.adapted) <= DIVERGENCE_SPREAD * rms_spread(src.points)
        np.testing.assert_array_equal(trace.adapted, fmap.forward_cloud(out.forward_cloud(target.cloud.points)))

    def test_target_wider_than_source_is_not_divergence(self):
        clean, _, src, fmap = sixblobs_setup()
        wide = apply_corruption(clean, Corruption.linear([[1e4, 0.0], [0.0, 1e4]]))
        _, trace = train(src, wide.cloud, Adapter.affine(2), fmap, cfg_for(clean.n, epochs=5))
        assert trace.divergence is None
        assert len(trace.records) == 6


class TestForwardCount:
    # one full-cloud forward per parameter value (the record's, which the next
    # full-batch step reuses), plus one forward per minibatch
    @pytest.mark.parametrize("full_batch, batch_size, batch_calls", [(True, 510, 0), (False, 64, 3 * 8)])
    def test_one_full_cloud_forward_per_record(self, monkeypatch, full_batch, batch_size, batch_calls):
        clean, target, src, fmap = sixblobs_setup()
        rows = []
        forward = Adapter.forward_cloud

        def counting_forward(self, x):
            rows.append(x.shape[0])
            return forward(self, x)

        monkeypatch.setattr(Adapter, "forward_cloud", counting_forward)
        cfg = cfg_for(clean.n, epochs=3, batch_size=batch_size, full_batch=full_batch)
        train(src, target.cloud, Adapter.affine(2), fmap, cfg, paired=True)
        assert clean.n == 510
        assert rows.count(clean.n) == cfg.epochs + 1
        assert len(rows) - rows.count(clean.n) == batch_calls


class TestUnitBuildCount:
    # in memory-bank mode a record builds the units of its R x n pairs once,
    # for the loss, the bank means, the variance moments and the refresh
    # together, and each step builds the R x b pairs of its batch
    @pytest.mark.parametrize("batch_size, snapshot_every", [(64, 1), (64, 2), (510, 1)])
    def test_one_unit_build_per_record(self, monkeypatch, batch_size, snapshot_every):
        clean, target, src, fmap = sixblobs_setup()
        pairs = []
        build = loss_mod.unit_directions

        def counting_build(points, ref_points, work=None):
            pairs.append(ref_points.shape[0] * points.shape[0])
            return build(points, ref_points, work)

        for module in (loss_mod, bank_mod, trainer_mod):
            monkeypatch.setattr(module, "unit_directions", counting_build)
        cfg = cfg_for(clean.n, epochs=3, batch_size=batch_size, full_batch=False, snapshot_every=snapshot_every)
        train(src, target.cloud, Adapter.affine(2), fmap, cfg, paired=True)
        count, n, records = cfg.reference_count, clean.n, cfg.epochs + 1
        steps = cfg.epochs * -(-n // batch_size)
        # select_references builds the source's pairs once, in one block as every pass here
        assert len(pairs) == 1 + records + steps
        assert sum(pairs) == count * src.n + records * count * n + cfg.epochs * count * n


class TestTrendBehaviors:
    def test_sixblobs_good_initialization_both_losses_fall(self):
        clean, target, src, fmap = sixblobs_setup()
        cfg = cfg_for(clean.n, epochs=300)
        _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg,
                         paired=True, source_labels=clean.labels)
        first, last = trace.records[0], trace.records[-1]
        assert last.quantile_loss < 0.2 * first.quantile_loss
        assert last.paired_mse < 0.2 * first.paired_mse
        assert last.wasserstein2 < 0.5 * first.wasserstein2

    def test_twomoons_flip_initialization_mse_stalls(self):
        clean = two_moons(seed=3, n=200, noise_sigma=0.03)
        target = apply_corruption(clean, Corruption.rotation(180.0))
        fmap = FeatureMap.identity(2)
        adapter = Adapter.affine(2, init_rotation_deg=45.0)
        cfg = cfg_for(200, epochs=80, learning_rate=0.5, reference_count=200)
        _, trace = train(PointCloud(clean.cloud.points), target.cloud, adapter, fmap, cfg,
                         paired=True, source_labels=clean.labels)
        first, last = trace.records[0], trace.records[-1]
        assert last.quantile_loss < 0.5 * first.quantile_loss
        assert last.paired_mse > 0.9 * first.paired_mse  # conditionals swapped, MSE cannot recover

    def test_minibatch_tracks_full_batch(self):
        clean, target, src, fmap = sixblobs_setup(noise=0.1)
        finals = []
        for full, bs in ((True, clean.n), (False, 32)):
            cfg = cfg_for(clean.n, epochs=400, batch_size=bs, full_batch=full, wasserstein_every=10**9)
            _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg,
                             paired=True, source_labels=clean.labels)
            finals.append(trace.records[-1].quantile_loss)
        fb, mb = finals
        assert abs(mb - fb) <= 0.2 * fb

    def test_minibatch_variance_columns_populated(self):
        clean, target, src, fmap = sixblobs_setup(noise=0.1)
        cfg = cfg_for(clean.n, epochs=3, batch_size=32, full_batch=False)
        _, trace = train(src, target.cloud, Adapter.affine(2), fmap, cfg)
        rec = trace.records[-1]
        assert rec.crude_var > 0
        assert 0 <= rec.control_var < rec.crude_var


class TestEvaluateEpoch:
    def test_perfect_reconstruction(self):
        clean, target, src, fmap = sixblobs_setup()
        refs = select_references(src, 60, seed=5, labels=clean.labels)
        inverse = CORRUPTION.exact_inverse_matrix()
        adapter = Adapter.affine(2)
        adapter = adapter.with_params(np.concatenate([inverse.ravel(), np.zeros(2)]))
        adapted = fmap.forward_cloud(adapter.forward_cloud(target.cloud.points))
        rec = evaluate_epoch(adapted, src, quantile_loss_on_points(adapted, refs, want_grad=False)[0], paired=True)
        assert rec.paired_mse == pytest.approx(0.0, abs=1e-18)
        assert rec.quantile_loss == pytest.approx(0.0, abs=1e-18)
        assert wasserstein2(adapted, src).distance == pytest.approx(0.0, abs=1e-9)

    def test_identity_on_shifted_data_all_positive(self):
        clean, target, src, fmap = sixblobs_setup()
        refs = select_references(src, 60, seed=5)
        rec = evaluate_epoch(target.cloud.points, src, quantile_loss_on_points(target.cloud.points, refs, want_grad=False)[0], paired=True)
        assert rec.quantile_loss > 0
        assert rec.paired_mse > 0
        assert wasserstein2(target.cloud.points, src).distance > 0

    def test_oversize_cloud_skips_wasserstein(self):
        clean = six_blobs(seed=7, counts=(90,) * 6)
        target = apply_corruption(clean, CORRUPTION)
        assert clean.n > MAX_EXACT_SIZE
        cfg = cfg_for(clean.n, epochs=1, reference_count=10)
        _, trace = train(PointCloud(clean.cloud.points), target.cloud, Adapter.affine(2), FeatureMap.identity(2), cfg)
        assert [r.wasserstein2 for r in trace.records] == [None, None]
        assert all("wasserstein_skipped" in r.flag for r in trace.records)


class TestMinibatchGradient:
    @pytest.mark.parametrize(
        "adapter",
        [pytest.param(Adapter.affine(2), id="affine"), pytest.param(Adapter.mlp1(2, hidden=5, seed=3), id="mlp1")],
    )
    def test_batch_average_equals_full_batch_at_snapshot(self, adapter):
        # at theta = theta_snap every batch's control-variate estimate is the
        # population average, and each point lies in b/n of the batches, so
        # the mean over all C(n, b) batch gradients is the full-batch gradient
        rng = SplitMix64.stream("minibatch_oracle", 0)
        n, b, d = 8, 3, 2
        source = PointCloud(rng.normals((n, 3)))
        target = rng.normals((n, d)) + 0.5
        refs = select_references(source, 4, seed=1)
        fmap = FeatureMap.fixed_mlp(d, out_dim=3, seed=2)
        adapter = adapter.with_params(adapter.params + 0.1 * rng.normals(adapter.n_params))

        def param_grad(x, point_grads_of):
            transformed = adapter.forward_cloud(x)
            adapted = fmap.forward_cloud(transformed)
            upstream = fmap.backward_cloud(transformed, point_grads_of(adapted))
            return adapter.backward_cloud(x, upstream)[0]

        full = param_grad(target, lambda y: quantile_loss_on_points(y, refs)[1])
        bank = initialize_bank(PointCloud(fmap.forward_cloud(adapter.forward_cloud(target))), refs)
        batches = [np.asarray(batch) for batch in enumerate_batches(n, b)]
        assert len(batches) == 56
        mean = sum(
            param_grad(target[idx], lambda y, idx=idx: minibatch_point_grads(y, idx, bank, refs))
            for idx in batches
        ) / len(batches)
        assert np.max(np.abs(full)) > 1e-3
        np.testing.assert_allclose(mean, full, rtol=0, atol=1e-12)

    @staticmethod
    def batch_case(d):
        """(yb, batch, bank, refs, objective): a batch 0.3 off its snapshot, and the batch objective of its points.

        The objective is mean_r ||(mean_j h_r(y_j) - s_B,r) + s_mean_r - u_r||^2
        with the bank held fixed, built from h_r and g_r.
        """
        rng = SplitMix64.stream("minibatch_finite_differences", d)
        n, b = 12, 5
        snapshot = PointCloud(rng.normals((n, d)))
        refs = select_references(PointCloud(rng.normals((n, d))), 4, seed=d)
        bank = initialize_bank(snapshot, refs)
        batch = np.asarray(rng.sample_without_replacement(n, b), dtype=int)
        yb = snapshot.points[batch] + 0.3 * rng.normals((b, d))
        s_hat = bank.batch_mean(batch)

        def objective(flat):
            points = flat.reshape(b, d)
            return np.mean([
                g_r(np.mean([h_r(y, q) for y in points], axis=0) - s_hat[r] + bank.snapshot_avgs[r], refs.target_indices[r])
                for r, q in enumerate(refs.quantiles)
            ])

        return yb, batch, bank, refs, objective

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_finite_differences_away_from_snapshot(self, d):
        yb, batch, bank, refs, objective = self.batch_case(d)
        numeric = finite_diff_grad(objective, yb.ravel()).reshape(yb.shape)
        analytic = minibatch_point_grads(yb, batch, bank, refs)
        assert np.max(np.abs(numeric)) > 1e-3
        assert np.max(np.abs(analytic - numeric)) <= 1e-7 * np.max(np.abs(numeric))

    def test_one_coordinate_gradient_is_zero(self):
        # a point's unit vector toward a reference on a line is a constant +-1
        yb, batch, bank, refs, _ = self.batch_case(1)
        assert np.all(minibatch_point_grads(yb, batch, bank, refs) == 0.0)


class TestStepPaths:
    """The step builds the units of all b points once per reference block, with the bits of one block."""

    @staticmethod
    def sixblobs_step(monkeypatch, threads, budget):
        """One b = 32 step of a six-blobs bank run, (R, d) = (60, 2): its gradient bytes and unit builds."""
        clean, target, src, _ = sixblobs_setup()
        refs = select_references(src, 60, seed=5)
        bank = initialize_bank(src, refs)
        batch = np.asarray(SplitMix64.stream("trainer_batches", 5).permutation(clean.n)[:32], dtype=int)
        monkeypatch.setattr("quantmatch.loss.THREADS", threads)
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
        builds = []
        build = trainer_mod.unit_directions
        monkeypatch.setattr(trainer_mod, "unit_directions", lambda *args: builds.append((len(args[0]), len(args[1]))) or build(*args))
        grads = minibatch_point_grads(target.cloud.points[batch], batch, bank, refs)
        return grads.tobytes(), builds

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_block_is_one_direct_call(self, monkeypatch, threads):
        assert len(loss_mod.reference_blocks(60, 32 * 2)) == 1
        _, builds = self.sixblobs_step(monkeypatch, threads, loss_mod.BLOCK_BYTES)
        assert builds == [(32, 60)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reference_blocks_give_the_one_block_bits(self, monkeypatch, threads):
        want, _ = self.sixblobs_step(monkeypatch, 1, loss_mod.BLOCK_BYTES)
        budget = 8 * 32 * 2 * 20  # reference blocks of 20
        grads, builds = self.sixblobs_step(monkeypatch, threads, budget)
        assert builds == [(32, 20)] * 3
        assert grads == want


class TestVarianceColumns:
    # (snapshot_every, record k, epoch of the snapshot record k is measured against)
    @pytest.mark.parametrize(
        "snapshot_every, k, snap",
        [(1, 1, 0), (1, 3, 2), (1, 4, 3), (2, 2, 0), (2, 3, 2), (2, 4, 2)],
    )
    def test_matches_units_rebuilt_from_shorter_runs(self, snapshot_every, k, snap):
        # the batch stream is a deterministic prefix, so a run cut after j
        # epochs ends at the parameters the longer run holds at epoch j
        clean, target, src, fmap = sixblobs_setup(noise=0.1)
        cfg = cfg_for(clean.n, epochs=4, batch_size=64, full_batch=False, snapshot_every=snapshot_every)
        adapter = Adapter.affine(2)
        _, trace = train(src, target.cloud, adapter, fmap, cfg)
        refs = select_references(src, cfg.reference_count, cfg.seed)

        def units_at(epochs):
            theta = adapter if epochs == 0 else train(src, target.cloud, adapter, fmap, replace(cfg, epochs=epochs))[0]
            return per_sample_units(fmap.forward_cloud(theta.forward_cloud(target.cloud.points)), refs.quantiles)

        sigma_a2, sigma_d2 = population_moments(units_at(k), units_at(snap))
        n, b = target.n, cfg.batch_size
        rec = trace.records[k]
        assert rec.crude_var == lemma_variance(float(sigma_a2.mean()), n, b)
        assert rec.control_var == lemma_variance(float(sigma_d2.mean()), n, b)
        assert rec.control_var > 0
        assert (trace.records[0].crude_var, trace.records[0].control_var) == (0.0, 0.0)

    def test_control_positive_and_quadratic_at_tiny_learning_rate(self):
        # the memory-bank six-blobs run (b = 32, one refresh an epoch) at learning rates
        # that keep each snapshot within ~1e-10 of the current parameters: the variance
        # of a - s is then tiny, and scales as the square of the learning rate
        clean, target, src, fmap = sixblobs_setup()
        cfg = cfg_for(clean.n, epochs=6, batch_size=32, full_batch=False, learning_rate=1e-10)
        control = train(src, target.cloud, Adapter.affine(2), fmap, cfg)[1].column("control_var")[1:]
        smaller = train(src, target.cloud, Adapter.affine(2), fmap, replace(cfg, learning_rate=1e-11))[1].column("control_var")[1:]
        assert np.all(control > 0)
        np.testing.assert_allclose(control, 100.0 * smaller, rtol=1e-3)
