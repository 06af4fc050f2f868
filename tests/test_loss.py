import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantmatch import (
    PointCloud,
    finite_diff_grad,
    g_r,
    h_r,
    quantile_index,
    quantile_loss_on_points,
    select_references,
)
from quantmatch.bank import MemoryBank, estimator_variance, initialize_bank, per_sample_units, population_moments
from quantmatch.geometry import DegenerateCloudError, DimensionMismatchError
from quantmatch.loss import ReferenceSet, index_averages, unit_directions
from quantmatch.oracles import enumerate_batches
from quantmatch.rng import SplitMix64
from quantmatch.trainer import minibatch_point_grads


def labeled_source(n_per_class, classes, d, seed=0):
    rng = SplitMix64.stream("labeled_source", seed)
    pts, labels = [], []
    for cls in range(classes):
        center = 6.0 * rng.normals(d)
        pts.append(center + rng.normals((n_per_class, d)))
        labels.extend([cls] * n_per_class)
    return PointCloud(np.concatenate(pts)), np.asarray(labels)


def loss_total(points, refs):
    total, _ = quantile_loss_on_points(points, refs, want_grad=False)
    return total


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normals((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def brute_force_loss(adapted_pts, refs):
    total = 0.0
    for z_r, u_r in zip(refs.quantiles, refs.target_indices):
        acc = np.zeros(len(z_r))
        kept = 0
        for x in adapted_pts:
            dist = np.linalg.norm(z_r - x)
            if dist >= 1e-12:
                acc += (z_r - x) / dist
                kept += 1
        total += float(np.sum((acc / kept - u_r) ** 2))
    return total / len(refs.quantiles)


class TestSelectReferences:
    def test_class_balanced_share(self):
        source, labels = labeled_source(100, 6, 2, seed=1)
        refs = select_references(source, 60, seed=3, labels=labels)
        assert refs.count == 60
        values, counts = np.unique(refs.labels, return_counts=True)
        assert list(values) == list(range(6))
        assert all(c == 10 for c in counts)

    def test_exhaustive_when_count_equals_n(self):
        source, _ = labeled_source(10, 2, 3, seed=2)
        refs = select_references(source, source.n, seed=7)
        np.testing.assert_array_equal(refs.source_positions, np.arange(source.n))

    def test_deterministic_per_seed(self):
        source, labels = labeled_source(30, 3, 2, seed=3)
        a = select_references(source, 9, seed=11, labels=labels)
        b = select_references(source, 9, seed=11, labels=labels)
        np.testing.assert_array_equal(a.source_positions, b.source_positions)
        np.testing.assert_array_equal(a.target_indices, b.target_indices)

    def test_seed_invariance_at_full_count(self):
        source, _ = labeled_source(12, 2, 2, seed=4)
        a = select_references(source, source.n, seed=1)
        b = select_references(source, source.n, seed=999)
        np.testing.assert_array_equal(a.quantiles, b.quantiles)

    def test_count_too_large(self):
        source, _ = labeled_source(5, 2, 2, seed=5)
        with pytest.raises(ValueError):
            select_references(source, source.n + 1, seed=0)

    def test_class_share_infeasible(self):
        source, _ = labeled_source(4, 2, 2, seed=6)
        lopsided = np.zeros(source.n, dtype=int)
        lopsided[-1] = 1  # class 1 has a single point but the share is n/2
        with pytest.raises(ValueError):
            select_references(source, source.n, seed=0, labels=lopsided)

    def test_count_not_multiple_of_classes(self):
        source, labels = labeled_source(10, 3, 2, seed=7)
        with pytest.raises(ValueError):
            select_references(source, 10, seed=0, labels=labels)


class TestQuantileLoss:
    def test_zero_on_identical_clouds(self):
        source, _ = labeled_source(15, 2, 2, seed=8)
        refs = select_references(source, 6, seed=1)
        assert loss_total(source.points, refs) == 0.0

    def test_zero_on_permutation(self):
        source, _ = labeled_source(15, 2, 3, seed=9)
        refs = select_references(source, 8, seed=2)
        rng = SplitMix64.stream("perm", 1)
        permuted = PointCloud(source.points[rng.permutation(source.n)])
        assert loss_total(permuted.points, refs) <= 1e-12

    def test_matches_double_loop_oracle(self):
        source, _ = labeled_source(20, 2, 2, seed=10)
        refs = select_references(source, 5, seed=3)
        adapted = PointCloud(source.points + np.array([10.0, 0.0]))
        got, _ = quantile_loss_on_points(adapted.points, refs, want_grad=False)
        want = brute_force_loss(adapted.points, refs)
        assert got > 0
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative(self):
        # indices lie in the unit ball, so each squared discrepancy is at most 4
        rng = SplitMix64.stream("nonneg", 3)
        for _ in range(20):
            source = PointCloud(rng.normals((12, 2)))
            refs = select_references(source, 4, seed=5)
            adapted = PointCloud(rng.normals((12, 2)))
            assert 0 <= loss_total(adapted.points, refs) <= 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_joint_similarity(self, seed):
        rng = SplitMix64(seed)
        d = 2 + rng.randbelow(4)
        source = rng.normals((12, d))
        adapted = rng.normals((12, d)) + 0.4
        want = loss_total(adapted, select_references(PointCloud(source), 4, seed=seed))
        rot = random_rotation(rng, d)
        shift = 5.0 * rng.normals(d)
        factor = 0.1 + 10.0 * rng.uniform()
        for move in (lambda x: x @ rot.T, lambda x: x + shift, lambda x: factor * x):
            refs = select_references(PointCloud(move(source)), 4, seed=seed)
            assert loss_total(move(adapted), refs) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        source, _ = labeled_source(6, 2, 2, seed=13)
        refs = select_references(source, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            quantile_loss_on_points(np.zeros((6, 3)), refs)


class TestQuantileLossGrad:
    def test_zero_at_global_minimum(self):
        source, _ = labeled_source(12, 2, 2, seed=11)
        refs = select_references(source, 6, seed=6)
        grads = quantile_loss_on_points(source.points, refs)[1]
        np.testing.assert_allclose(grads, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = SplitMix64.stream("grad_fd", 4)
        for _ in range(10):
            n, d = 20, 3
            source = PointCloud(rng.normals((n, d)))
            refs = select_references(source, 5, seed=7)
            adapted = rng.normals((n, d)) + 0.5

            def flat_loss(flat):
                return loss_total(flat.reshape(n, d), refs)

            analytic = quantile_loss_on_points(adapted, refs)[1]
            numeric = finite_diff_grad(flat_loss, adapted.ravel())
            rel = np.max(np.abs(analytic.ravel() - numeric)) / (1.0 + np.max(np.abs(analytic)))
            assert rel < 1e-4

    def test_translation_has_restoring_direction(self):
        source, _ = labeled_source(20, 2, 2, seed=12)
        refs = select_references(source, 8, seed=8)
        adapted = PointCloud(source.points + np.array([3.0, 0.0]))
        grads = quantile_loss_on_points(adapted.points, refs)[1]
        assert grads[:, 0].mean() > 0  # descent direction points back toward the source


class TestComposite:
    def test_h_r_normalization(self):
        np.testing.assert_allclose(h_r([0, 0], [3, 4]), [0.6, 0.8], atol=1e-15)

    def test_h_r_coincidence(self):
        with pytest.raises(DegenerateCloudError):
            h_r([1, 2], [1, 2])

    def test_g_r_zero_at_match(self):
        assert g_r([0.3, -0.2], [0.3, -0.2]) == 0.0

    def test_index_equals_mean_h(self):
        # probe-minus-sample orientation on both sides: equal, not negated
        # (tolerance only covers summation order)
        rng = SplitMix64.stream("sign", 6)
        for _ in range(20):
            d = 2 + rng.randbelow(4)
            cloud = PointCloud(rng.normals((10, d)))
            z = 2.0 * rng.normals(d)
            mean_h = np.mean([h_r(x, z) for x in cloud.points], axis=0)
            np.testing.assert_allclose(quantile_index(cloud, z), mean_h, atol=1e-15)
            assert np.linalg.norm(quantile_index(cloud, z) + mean_h) > 1e-3  # not the negation

    def test_negated_average_same_loss_value(self):
        # a consistent global sign flip on both averages leaves g_r unchanged
        rng = SplitMix64.stream("sign_flip", 7)
        avg, u = rng.normals(3), 0.5 * rng.normals(3)
        assert g_r(-avg, -u) == pytest.approx(g_r(avg, u), abs=1e-15)

    def test_decomposition_reproduces_loss(self):
        rng = SplitMix64.stream("decomp", 8)
        for _ in range(100):
            d = 2 + rng.randbelow(3)
            source = PointCloud(rng.normals((12, d)))
            refs = select_references(source, 4, seed=10)
            adapted = PointCloud(rng.normals((12, d)) + 0.4)
            composite = np.mean(
                [
                    g_r(np.mean([h_r(x, z_r) for x in adapted.points], axis=0), u_r)
                    for z_r, u_r in zip(refs.quantiles, refs.target_indices)
                ]
            )
            assert composite == pytest.approx(loss_total(adapted.points, refs), abs=1e-12)


def broadcast_units(points, ref_points):
    """(dist, mask, units) in the direct (R, m, d) broadcast form."""
    diff = ref_points[:, None, :] - points[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    mask = dist >= 1e-12
    units = diff / np.where(mask, dist, 1.0)[:, :, None]
    units[~mask] = 0.0
    return dist, mask, units


def broadcast_point_grads(units, resid, scale):
    # a broadcast sum, not an einsum: numpy's vectorised einsum adds three or
    # more coordinates in another order
    dots = np.sum(units * resid[:, None, :], axis=2)
    contrib = resid[:, None, :] - units * dots[:, :, None]
    return -(contrib * scale[:, :, None]).sum(axis=0)


def broadcast_oracle(points, refs):
    """(dist, mask, units, avgs, total, grads, scale) in the (R, m, d) broadcast form.

    scale holds the (R, m) weights of the point gradient.
    """
    dist, mask, units = broadcast_units(points, refs.quantiles)
    counts = mask.sum(axis=1)
    avgs = units.sum(axis=1) / counts[:, None]
    resid = avgs - refs.target_indices
    total = float(np.sum(resid**2, axis=1).mean())
    scale = np.where(mask, 1.0 / (counts[:, None] * dist.clip(min=1e-300)), 0.0)
    scale *= 2.0 / refs.count
    return dist, mask, units, avgs, total, broadcast_point_grads(units, resid, scale), scale


def broadcast_minibatch_grads(yb, batch, snapshot_units, refs):
    """The batch point gradients and their (R, b) weights."""
    dist, mask, units = broadcast_units(yb, refs.quantiles)
    snap = snapshot_units[:, batch]
    estimate = (units.mean(axis=1) - snap.mean(axis=1)) + snapshot_units.mean(axis=1)
    scale = np.where(mask, 2.0 / (refs.count * len(batch) * dist.clip(min=1e-300)), 0.0)
    return broadcast_point_grads(units, estimate - refs.target_indices, scale), scale


def broadcast_moments(a_units, s_units):
    """(3, R): sigma_a2, sigma_s2 and sigma_as of two (R, n, d) unit arrays."""
    da = a_units - a_units.mean(axis=1)[:, None, :]
    ds = s_units - s_units.mean(axis=1)[:, None, :]
    return np.array([np.mean(np.sum(x * y, axis=2), axis=1) for x, y in ((da, da), (ds, ds), (da, ds))])


def broadcast_estimator_variance(a_units, s_units, b):
    """(crude, control) variances over every b-subset, from (R, n, d) batch means."""
    a_mean, s_mean = a_units.mean(axis=1), s_units.mean(axis=1)
    crude = control = 0.0
    batches = [np.asarray(batch) for batch in enumerate_batches(a_units.shape[1], b)]
    for batch in batches:
        a_hat, s_hat = a_units[:, batch].mean(axis=1), s_units[:, batch].mean(axis=1)
        crude += float(np.mean(np.sum((a_hat - a_mean) ** 2, axis=1)))
        control += float(np.mean(np.sum((a_hat + (s_mean - s_hat) - a_mean) ** 2, axis=1)))
    return np.array([crude, control]) / len(batches)


@st.composite
def kernel_cases(draw, dims):
    """A cloud, at random with a coincident pair and a point on or next to a reference; a batch; a snapshot."""
    d = draw(st.sampled_from(dims))
    r = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    rng = SplitMix64(draw(st.integers(0, 2**32 - 1)))
    points = rng.normals((m, d)) * 10.0 ** draw(st.integers(-3, 3))
    ref_points = rng.normals((r, d))
    if m > 1 and draw(st.booleans()):
        points[-1] = points[0]
    if m > 1 and draw(st.booleans()):
        points[m // 2] = ref_points[0] + draw(st.sampled_from([0.0, 1e-13]))  # within COINCIDENCE_EPS
    target = rng.normals((r, d))
    target *= 0.9 * rng.uniform() / np.linalg.norm(target, axis=1, keepdims=True)
    batch = np.sort(np.asarray(rng.sample_without_replacement(m, 1 + rng.randbelow(m)), dtype=int))
    snapshot = points + 0.01 * rng.normals((m, d))
    return points, ReferenceSet(quantiles=ref_points, target_indices=target), batch, snapshot


def kernel_pairs(points, refs, batch, snapshot):
    """(name, plane-kernel value, oracle value, size) for every output of the kernel and of the bank code on its planes.

    size is the scale rounding errors are measured against: 1 for unit
    vectors, the loss, the moments and the variances, and for a gradient the
    largest per-point sum of its weights, since residuals are differences of
    unit-vector averages.
    """
    dist, mask, units, avgs, total, grads, scale = broadcast_oracle(points, refs)
    got_units, got_dist, got_mask = unit_directions(points, refs.quantiles)
    got_total, got_grads = quantile_loss_on_points(points, refs)
    snap_units = broadcast_units(snapshot, refs.quantiles)[2]
    bank = MemoryBank(snapshot_units=np.ascontiguousarray(snap_units.transpose(2, 0, 1)), snapshot_avgs=snap_units.mean(axis=1))
    batch_grads, batch_scale = broadcast_minibatch_grads(points[batch], batch, snap_units, refs)
    got_moments = population_moments(per_sample_units(points, refs.quantiles), per_sample_units(snapshot, refs.quantiles))
    pairs = [
        ("dist", got_dist, dist, np.max(dist)),
        ("mask", got_mask, mask, None),
        ("units", got_units.transpose(1, 2, 0), units, 1.0),
        ("per_sample_units", per_sample_units(points, refs.quantiles).transpose(1, 2, 0), units, 1.0),
        ("avgs", index_averages(points, refs.quantiles)[0], avgs, 1.0),
        ("loss", got_total, total, 1.0),
        ("grads", got_grads, grads, np.max(scale.sum(axis=0))),
        ("minibatch_grads", minibatch_point_grads(points[batch], batch, bank, refs), batch_grads, np.max(batch_scale.sum(axis=0))),
        ("population_moments", np.array(got_moments), broadcast_moments(units, snap_units), 1.0),
    ]
    m = points.shape[0]
    if m > 1 and np.any(points != points[0]):  # a PointCloud needs two distinct points
        cloud, snap = PointCloud(points), PointCloud(snapshot)
        # all m subsets of m - 1 points: batch means over nearly the whole cloud
        diag = estimator_variance(cloud, snap, refs, b=m - 1, mode="exhaustive")
        pairs += [
            ("snapshot_avgs", initialize_bank(snap, refs).snapshot_avgs, snap_units.mean(axis=1), 1.0),
            (
                "estimator_variance",
                np.array([diag.crude_variance, diag.control_variance]),
                broadcast_estimator_variance(units, snap_units, m - 1),
                1.0,
            ),
        ]
    return pairs


class TestPlaneKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(dims=range(1, 8)))
    def test_bit_identical_to_broadcast_form_below_8_coordinates(self, case):
        for name, got, want, _ in kernel_pairs(*case):
            np.testing.assert_array_equal(got, want, err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases(dims=(8, 16)))
    def test_within_1e_14_of_broadcast_form_from_8_coordinates(self, case):
        # from 8 coordinates numpy's norm adds the squares in another order than the planes
        for name, got, want, size in kernel_pairs(*case):
            if size is None:
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:
                assert np.max(np.abs(np.asarray(got) - want)) <= 1e-14 * size, name
