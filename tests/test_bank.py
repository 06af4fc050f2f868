import numpy as np
import pytest

from quantmatch import (
    PointCloud,
    control_variate_estimate,
    enumerate_batches,
    estimator_variance,
    initialize_bank,
    make_adapter,
    refresh_snapshot,
    select_references,
)
from quantmatch.bank import lemma_variance, per_sample_units, population_moments
from quantmatch.geometry import DimensionMismatchError
from quantmatch.loss import point_sums, row_sums
from quantmatch.rng import SplitMix64


def make_instance(seed, n=10, d=2, ref_count=4, offset=0.5):
    rng = SplitMix64.stream("bank_instance", seed)
    source = PointCloud(rng.normals((max(n, 12), d)))
    refs = select_references(source, ref_count, seed=seed)
    current = PointCloud(rng.normals((n, d)) + offset)
    return rng, refs, current


def rnd_units(points, refs):
    """The bank's (d, R, n) unit planes as a contiguous (R, n, d) array, for the direct means below.

    Contiguous, so that mean(axis=1) adds the points one after another, as point_sums does.
    """
    return np.ascontiguousarray(per_sample_units(points, refs.quantiles).transpose(1, 2, 0))


def batch_avg(units, batch):
    return units[:, np.asarray(batch), :].mean(axis=1)


class TestControlVariateEstimate:
    def test_exact_cancellation_at_snapshot(self):
        _, refs, current = make_instance(1)
        bank = initialize_bank(current, refs)
        units = rnd_units(current.points, refs)
        for batch in ((0, 1), (2, 5, 7), tuple(range(current.n))):
            h = batch_avg(units, batch)
            est = control_variate_estimate(bank, h, h)
            np.testing.assert_array_equal(est, bank.snapshot_avgs)

    def test_full_batch_is_exact(self):
        rng, refs, current = make_instance(2)
        snap = PointCloud(current.points + 0.01 * rng.normals(current.points.shape))
        bank = initialize_bank(snap, refs)
        cur_units = rnd_units(current.points, refs)
        snap_units = rnd_units(snap.points, refs)
        full = np.arange(current.n)
        est = control_variate_estimate(bank, batch_avg(cur_units, full), batch_avg(snap_units, full))
        np.testing.assert_allclose(est, cur_units.mean(axis=1), atol=1e-14)

    def test_unbiased_over_all_batches(self):
        rng, refs, current = make_instance(3, n=6)
        snap = PointCloud(current.points + 0.05 * rng.normals(current.points.shape))
        bank = initialize_bank(snap, refs)
        cur_units = rnd_units(current.points, refs)
        snap_units = rnd_units(snap.points, refs)
        exact = cur_units.mean(axis=1)
        acc, count = 0.0, 0
        for batch in enumerate_batches(6, 2):
            b = np.asarray(batch)
            acc = acc + control_variate_estimate(bank, batch_avg(cur_units, b), batch_avg(snap_units, b))
            count += 1
        assert count == 15
        np.testing.assert_allclose(acc / count, exact, atol=1e-12)


class TestRefreshSnapshot:
    def test_estimate_exact_right_after_refresh(self):
        rng, refs, current = make_instance(5)
        bank = initialize_bank(current, refs)
        moved = PointCloud(current.points + 0.1 * rng.normals(current.points.shape))
        bank = refresh_snapshot(bank, moved, refs)
        units = rnd_units(moved.points, refs)
        exact = units.mean(axis=1)
        for batch in ((0, 3), (1, 2, 8)):
            b = np.asarray(batch)
            est = control_variate_estimate(bank, batch_avg(units, b), batch_avg(units, b))
            np.testing.assert_array_equal(est, exact)

    def test_idempotent_at_fixed_parameters(self):
        _, refs, current = make_instance(6)
        bank = refresh_snapshot(initialize_bank(current, refs), current, refs)
        avgs, units = bank.snapshot_avgs.copy(), bank.snapshot_units.copy()
        refresh_snapshot(bank, current, refs)
        np.testing.assert_array_equal(bank.snapshot_avgs, avgs)
        np.testing.assert_array_equal(bank.snapshot_units, units)

    def test_refresh_overwrites_the_one_snapshot_array(self):
        rng, refs, current = make_instance(21)
        bank = initialize_bank(current, refs)
        units = bank.snapshot_units
        moved = PointCloud(current.points + 0.1 * rng.normals(current.points.shape))
        assert refresh_snapshot(bank, moved, refs) is bank
        assert bank.snapshot_units is units
        np.testing.assert_array_equal(units, per_sample_units(moved.points, refs.quantiles).transpose(0, 2, 1))
        np.testing.assert_array_equal(bank.snapshot_avgs, initialize_bank(moved, refs).snapshot_avgs)

    def test_small_parameter_step_moves_averages_little(self):
        # empirical Lipschitz probe: a small adapter step perturbs the
        # snapshot averages by a small amount
        rng, refs, current = make_instance(7, n=40)
        adapter = make_adapter("affine", 2)
        bank = refresh_snapshot(initialize_bank(current, refs), current, refs)
        before = bank.snapshot_avgs.copy()
        step = 1e-2 * rng.normals(adapter.params.shape)
        moved = PointCloud(adapter.with_params(adapter.params + step).forward_cloud(current.points))
        after = refresh_snapshot(bank, moved, refs).snapshot_avgs
        drift = np.max(np.linalg.norm(after - before, axis=1))
        assert drift > 0
        assert drift < 0.05

    def test_size_mismatch(self):
        _, refs, current = make_instance(8)
        bank = initialize_bank(current, refs)
        smaller = PointCloud(current.points[:-1])
        with pytest.raises(DimensionMismatchError):
            refresh_snapshot(bank, smaller, refs)
        # as many points as references: a check on the reference axis would pass it
        assert refs.count < current.n
        with pytest.raises(DimensionMismatchError):
            refresh_snapshot(bank, PointCloud(current.points[: refs.count]), refs)
        moved = PointCloud(current.points + 0.1)
        assert refresh_snapshot(bank, moved, refs).snapshot_units.shape[1] == current.n

    def test_cloud_dimension_must_match_references(self):
        _, refs, _ = make_instance(20)
        with pytest.raises(DimensionMismatchError):
            initialize_bank(PointCloud(np.arange(8.0)[:, None]), refs)

    def test_snapshot_avgs_inside_unit_ball(self):
        _, refs, current = make_instance(9, n=25)
        bank = initialize_bank(current, refs)
        assert np.all(np.linalg.norm(bank.snapshot_avgs, axis=1) <= 1.0 + 1e-12)

    @pytest.mark.parametrize(
        "d, ref_count", [pytest.param(d, r, id=f"{d}" if r > 1 else f"{d}-R1") for r in (6, 1) for d in (2, 8)]
    )
    def test_batch_slice_equals_batch_build(self, d, ref_count):
        # the minibatch step reads a batch's snapshot units out of the bank
        # instead of rebuilding them, so both routes must agree bit for bit;
        # the last point sits on a reference, so a masked zero row is covered
        _, refs, current = make_instance(10 + d, n=30, d=d, ref_count=ref_count)
        on_ref = min(2, ref_count - 1)
        current = PointCloud(np.vstack([current.points, refs.quantiles[on_ref : on_ref + 1]]))
        bank = initialize_bank(current, refs)
        assert bank.snapshot_units.shape == (d, 31, ref_count)
        for idx in ((0, 1, 2), (30, 3, 17, 4), (5,), (30,), tuple(range(30, -1, -1))):
            idx = np.asarray(idx)
            built = per_sample_units(current.points[idx], refs.quantiles)
            np.testing.assert_array_equal(bank.snapshot_units[:, idx], built.transpose(0, 2, 1))
            assert row_sums(bank.snapshot_units[:, idx]).tobytes() == point_sums(built).tobytes()


class TestEstimatorVariance:
    def test_zero_at_full_batch(self):
        _, refs, current = make_instance(10, n=8)
        diag = estimator_variance(current, current, refs, b=8, mode="exhaustive")
        assert diag.crude_variance == pytest.approx(0.0, abs=1e-30)
        assert diag.control_variance == pytest.approx(0.0, abs=1e-30)

    def test_control_is_exactly_zero_at_snapshot(self):
        # the trainer's estimator cancels its batch terms exactly when theta = theta_snap
        _, refs, current = make_instance(16, n=8)
        for b in (1, 3, 7):
            assert estimator_variance(current, current, refs, b).control_variance == 0.0

    def test_lemma_formula_n8_b3(self):
        _, refs, current = make_instance(11, n=8)
        diag = estimator_variance(current, current, refs, b=3, mode="exhaustive")
        units = per_sample_units(current.points, refs.quantiles)
        sigma_a2, _, _ = population_moments(units, units)
        expected = lemma_variance(float(sigma_a2.mean()), 8, 3)
        assert diag.crude_variance == pytest.approx(expected, abs=1e-10)

    def test_lemma_formula_all_small_sizes(self):
        # the closed forms the trainer writes as crude_var and control_var,
        # against both variances measured over every batch, snapshot != current
        for n in range(2, 13):
            rng, refs, current = make_instance(100 + n, n=n)
            snap = PointCloud(current.points + 0.05 * rng.normals(current.points.shape))
            sigma_a2, sigma_s2, sigma_as = population_moments(
                per_sample_units(current.points, refs.quantiles), per_sample_units(snap.points, refs.quantiles)
            )
            for b in range(1, n + 1):
                diag = estimator_variance(current, snap, refs, b=b, mode="exhaustive")
                crude = lemma_variance(float(sigma_a2.mean()), n, b)
                control = lemma_variance(float((sigma_a2 + sigma_s2 - 2.0 * sigma_as).mean()), n, b)
                assert diag.crude_variance == pytest.approx(crude, abs=1e-10), (n, b)
                assert diag.control_variance == pytest.approx(control, abs=1e-10), (n, b)

    def test_variance_reduction_near_snapshot(self):
        rng = SplitMix64.stream("var_reduction", 12)
        source = PointCloud(rng.normals((40, 3)))
        refs = select_references(source, 8, seed=3)
        current = PointCloud(rng.normals((64, 3)))
        snap = PointCloud(current.points + 1e-4 * rng.normals(current.points.shape))
        diag = estimator_variance(current, snap, refs, b=8, mode="monte_carlo", draws=10_000, seed=1)
        assert diag.control_variance < 0.05 * diag.crude_variance
        assert 0.9 <= diag.beta_star <= 1.1

    def test_variance_shrinks_monotonically_with_proximity(self):
        rng = SplitMix64.stream("proximity", 13)
        source = PointCloud(rng.normals((30, 2)))
        refs = select_references(source, 6, seed=5)
        current = PointCloud(rng.normals((32, 2)))
        noise = rng.normals(current.points.shape)
        variances = []
        for eps in (1e-2, 1e-3, 1e-4):
            snap = PointCloud(current.points + eps * noise)
            diag = estimator_variance(current, snap, refs, b=4, mode="exhaustive")
            variances.append(diag.control_variance)
        assert variances[0] > variances[1] > variances[2]

    def test_invalid_batch_size(self):
        _, refs, current = make_instance(14, n=8)
        with pytest.raises(ValueError):
            estimator_variance(current, current, refs, b=0)
        with pytest.raises(ValueError):
            estimator_variance(current, current, refs, b=9)

    def test_invalid_mode_or_draws_rejected_before_any_units(self, monkeypatch):
        _, refs, current = make_instance(18, n=8)

        def no_units(*args):
            raise AssertionError("unit planes built before the arguments were checked")

        monkeypatch.setattr("quantmatch.bank.per_sample_units", no_units)
        for kwargs in ({"mode": "monte_carlo", "draws": 0}, {"mode": "monte_carlo", "draws": -5}, {"mode": "sampled"}):
            with pytest.raises(ValueError):
                estimator_variance(current, current, refs, b=3, **kwargs)

    def test_cloud_dimension_must_match_references(self):
        _, refs, current = make_instance(19, n=8)
        flat = PointCloud(current.points[:, :1])
        with pytest.raises(DimensionMismatchError):
            estimator_variance(flat, flat, refs, b=3)

    def test_exhaustive_combinatorial_guard(self):
        _, refs, current = make_instance(17, n=40)
        with pytest.raises(ValueError):
            estimator_variance(current, current, refs, b=20, mode="exhaustive")

    def test_monte_carlo_close_to_exhaustive(self):
        rng, refs, current = make_instance(15, n=10)
        snap = PointCloud(current.points + 0.02 * rng.normals(current.points.shape))
        ex = estimator_variance(current, snap, refs, b=3, mode="exhaustive")
        mc = estimator_variance(current, snap, refs, b=3, mode="monte_carlo", draws=20_000, seed=7)
        assert mc.crude_variance == pytest.approx(ex.crude_variance, rel=0.05)
        assert mc.control_variance == pytest.approx(ex.control_variance, rel=0.05)


class TestGradientEquivalence:
    def test_batch_averaged_gradient_matches_full(self):
        # with the snapshot at the current parameters, the estimate equals the
        # exact average for every batch; averaging the per-batch parameter
        # gradients over all batches then reproduces the full-batch gradient
        rng = SplitMix64.stream("grad_equiv", 16)
        n, d = 8, 2
        source = PointCloud(rng.normals((12, d)))
        refs = select_references(source, 4, seed=9)
        adapter = make_adapter("affine", d)
        adapter = adapter.with_params(adapter.params + 0.05 * rng.normals(adapter.params.shape))
        target = rng.normals((n, d)) + 0.3

        current = PointCloud(adapter.forward_cloud(target))
        bank = initialize_bank(current, refs)
        cur_units = rnd_units(current.points, refs)
        exact = cur_units.mean(axis=1)
        resid = exact - refs.target_indices

        def batch_param_grad(batch):
            b = len(batch)
            yb = current.points[batch]
            dist = np.linalg.norm(refs.quantiles[:, None, :] - yb[None, :, :], axis=2)
            units_b = cur_units[:, batch, :]
            dots = np.einsum("rjd,rd->rj", units_b, resid)
            scale = 2.0 / (refs.count * b * dist)
            contrib = -((resid[:, None, :] - units_b * dots[:, :, None]) * scale[:, :, None]).sum(axis=0)
            pg, _ = adapter.backward_cloud(target[batch], contrib)
            return pg

        full_dist = np.linalg.norm(refs.quantiles[:, None, :] - current.points[None, :, :], axis=2)
        dots = np.einsum("rjd,rd->rj", cur_units, resid)
        scale = 2.0 / (refs.count * n * full_dist)
        full_points = -((resid[:, None, :] - cur_units * dots[:, :, None]) * scale[:, :, None]).sum(axis=0)
        full_grad, _ = adapter.backward_cloud(target, full_points)

        acc, count = 0.0, 0
        for batch in enumerate_batches(n, 3):
            acc = acc + batch_param_grad(np.asarray(batch))
            count += 1
        np.testing.assert_allclose(acc / count, full_grad, atol=1e-10)
