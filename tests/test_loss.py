import hashlib
import importlib
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quantmatch import (
    PointCloud,
    finite_diff_grad,
    g_r,
    h_r,
    quantile_index,
    quantile_loss_on_points,
    select_references,
)
from quantmatch.bank import (
    MemoryBank,
    estimator_variance,
    initialize_bank,
    lemma_variances,
    per_sample_units,
    population_moments,
    sweep,
)
from quantmatch.geometry import DegenerateCloudError, DimensionMismatchError
import quantmatch.loss
import quantmatch.trainer
from quantmatch.loss import (
    BLOCK_BYTES,
    MIN_BLOCK_REFS,
    ReferenceSet,
    Workspace,
    direction_point_grads,
    for_each_block,
    index_averages,
    plane_dot,
    point_sums,
    reference_blocks,
    row_sums,
    unit_directions,
)
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


def source_rows(source, refs):
    """The row of the source cloud each reference point was drawn from; the rows must be distinct."""
    matches = np.all(refs.quantiles[:, None, :] == source.points[None, :, :], axis=2)
    assert np.all(matches.sum(axis=1) == 1)
    return matches.argmax(axis=1)


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
        values, counts = np.unique(labels[source_rows(source, refs)], return_counts=True)
        assert list(values) == list(range(6))
        assert all(c == 10 for c in counts)

    def test_exhaustive_when_count_equals_n(self):
        source, _ = labeled_source(10, 2, 3, seed=2)
        refs = select_references(source, source.n, seed=7)
        np.testing.assert_array_equal(source_rows(source, refs), np.arange(source.n))

    def test_deterministic_per_seed(self):
        source, labels = labeled_source(30, 3, 2, seed=3)
        a = select_references(source, 9, seed=11, labels=labels)
        b = select_references(source, 9, seed=11, labels=labels)
        np.testing.assert_array_equal(source_rows(source, a), source_rows(source, b))
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
    """(2, R): sigma_a2 and sigma_d2, the variances of a and of a - s, for two (R, n, d) unit arrays."""
    da = a_units - a_units.mean(axis=1)[:, None, :]
    dd = da - (s_units - s_units.mean(axis=1)[:, None, :])
    return np.array([np.mean(np.sum(x * x, axis=2), axis=1) for x in (da, dd)])


def broadcast_estimator_variance(a_units, s_units, b):
    """(crude, control) variances over every b-subset, from (R, n, d) batch means."""
    a_mean, s_mean = a_units.mean(axis=1), s_units.mean(axis=1)
    crude = control = 0.0
    batches = [np.asarray(batch) for batch in enumerate_batches(a_units.shape[1], b)]
    for batch in batches:
        a_hat, s_hat = a_units[:, batch].mean(axis=1), s_units[:, batch].mean(axis=1)
        crude += float(np.mean(np.sum((a_hat - a_mean) ** 2, axis=1)))
        # associated as control_variate_estimate, so that equal batch terms cancel exactly
        control += float(np.mean(np.sum(((a_hat - s_hat) + s_mean - a_mean) ** 2, axis=1)))
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
    bank = MemoryBank(snapshot_units=np.ascontiguousarray(snap_units.transpose(2, 1, 0)), snapshot_avgs=snap_units.mean(axis=1))
    batch_grads, batch_scale = broadcast_minibatch_grads(points[batch], batch, snap_units, refs)
    got_moments = population_moments(per_sample_units(points, refs.quantiles), per_sample_units(snapshot, refs.quantiles))
    pairs = [
        ("dist", got_dist, dist, np.max(dist)),
        ("mask", got_mask, mask, None),
        ("units", got_units.transpose(1, 2, 0), units, 1.0),
        ("per_sample_units", per_sample_units(points, refs.quantiles).transpose(1, 2, 0), units, 1.0),
        ("avgs", index_averages(points, refs.quantiles), avgs, 1.0),
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


def blocked_outputs(points, refs, snapshot):
    """Every output that a pass over reference blocks produces, as (name, value) pairs."""
    total, grads = quantile_loss_on_points(points, refs)
    outs = [("loss", total), ("grads", grads), ("loss_only", quantile_loss_on_points(points, refs, want_grad=False)[0])]
    m = points.shape[0]
    if m > 1 and np.any(points != points[0]) and np.any(snapshot != snapshot[0]):
        cloud, snap = PointCloud(points), PointCloud(snapshot)
        source_refs = select_references(snap, min(refs.count, m), seed=1)
        bank = initialize_bank(snap, refs)
        outs += [
            ("target_indices", source_refs.target_indices),
            ("snapshot_units", bank.snapshot_units.copy()),
            ("snapshot_avgs", bank.snapshot_avgs),
        ]
        moments = sweep(bank, cloud, refs).moments
        outs += [("moments", np.array(moments)), ("variances", lemma_variances(moments, m, 1))]
        refreshed = sweep(bank, cloud, refs, refresh=True).moments
        outs += [
            ("refresh_moments", np.array(refreshed)),
            ("refreshed_units", bank.snapshot_units),
            ("refreshed_avgs", bank.snapshot_avgs),
            ("diagnostics", np.array(astuple(estimator_variance(cloud, snap, refs, b=1)))),
        ]
    return outs


def assert_blocks_change_nothing(monkeypatch, points, refs, snapshot):
    whole = blocked_outputs(points, refs, snapshot)
    assert len(reference_blocks(refs.count, points.size)) == 1
    monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)  # MIN_BLOCK_REFS = 2 references per block
    assert [b.stop - b.start for b in reference_blocks(refs.count, points.size)][:-1] == [2] * ((refs.count - 1) // 2)
    for (name, got), (_, want) in zip(blocked_outputs(points, refs, snapshot), whole):
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
        else:
            assert got == want, name


class TestReferenceBlocks:
    """Blocks of two references, with a last block of one, must give the bits of a single block."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_bit_identical_to_one_block(self, monkeypatch, d, m):
        rng = SplitMix64.stream("reference_blocks", 10 * d + m)
        ref_points = rng.normals((5, d))
        points = rng.normals((m, d))
        if m > 1:
            points[m // 2] = ref_points[4]  # a coincident pair in the last block
        if m > 2:
            points[-1] = points[0]
        target = rng.normals((5, d))
        target *= 0.5 / np.linalg.norm(target, axis=1, keepdims=True)
        refs = ReferenceSet(quantiles=ref_points, target_indices=target)
        assert_blocks_change_nothing(monkeypatch, points, refs, points + 0.01 * rng.normals((m, d)))

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(dims=range(1, 9)))
    def test_bit_identical_on_kernel_cases(self, case):
        points, refs, _, snapshot = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_blocks_change_nothing(monkeypatch, points, refs, snapshot)

    @pytest.mark.parametrize("m", [1, 3])
    def test_reference_on_every_point_raises_in_any_block(self, monkeypatch, m):
        rng = SplitMix64.stream("reference_blocks_degenerate", m)
        ref_points = rng.normals((5, 3))
        refs = ReferenceSet(quantiles=ref_points, target_indices=np.zeros((5, 3)))
        points = np.repeat(ref_points[4:], m, axis=0)
        for budget in (BLOCK_BYTES, 1):
            monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
            for want_grad in (True, False):
                with pytest.raises(DegenerateCloudError):
                    quantile_loss_on_points(points, refs, want_grad=want_grad)


class TestBoundedMemory:
    """At (R, n, d) = (300, 4080, 8) every pass holds a few blocks of unit planes, not (d, R, n) arrays."""

    R, N, D = 300, 4080, 8
    BLOCKS = 5  # the peak allowed over a pass's inputs, in BLOCK_BYTES

    @pytest.fixture(scope="class")
    def clouds(self):
        rng = SplitMix64.stream("bounded_memory", 0)
        source = PointCloud(rng.normals((self.N, self.D)))
        current = PointCloud(rng.normals((self.N, self.D)) + 0.3)
        return source, current, select_references(source, self.R, seed=0)

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_loss_and_reference_selection(self, clouds):
        source, current, refs = clouds
        full_planes = 8 * self.D * self.R * self.N
        assert full_planes > 15 * BLOCK_BYTES
        for call in (
            lambda: select_references(source, self.R, seed=0),
            lambda: quantile_loss_on_points(current.points, refs),
            lambda: quantile_loss_on_points(current.points, refs, want_grad=False),
        ):
            assert self.peak_bytes(call) <= self.BLOCKS * BLOCK_BYTES

    def test_bank_record_holds_one_snapshot(self, clouds):
        source, current, refs = clouds
        snapshot_bytes = 8 * self.D * self.R * self.N

        def record():
            bank = initialize_bank(source, refs)
            sweep(bank, current, refs, refresh=True)
            sweep(bank, source, refs)

        assert self.peak_bytes(record) <= snapshot_bytes + self.BLOCKS * BLOCK_BYTES

    # The two bounds below are the tracemalloc peaks measured when every block
    # allocated its own arrays (3.54 and 3.39 BLOCK_BYTES), plus one block
    # shared by the slots: the workspaces may cost at most that much.
    def test_minibatch_epoch_holds_one_batch(self, clouds):
        """An epoch of b = 256 steps, and one step at b = n, each hold one reference block's planes and the batch's rows."""
        source, current, refs = clouds
        bank = initialize_bank(source, refs)
        order = np.asarray(SplitMix64.stream("bounded_step", 0).permutation(self.N), dtype=int)

        def epoch(b):
            work = Workspace()  # one epoch's step buffers, as train keeps them
            for start in range(0, self.N, b):  # at b = 256, 15 batches of 256 and one of 240
                batch = order[start : start + b]
                minibatch_point_grads(current.points[batch], batch, bank, refs, work)

        for b in (256, self.N):
            assert self.peak_bytes(lambda: epoch(b)) <= 4.5 * BLOCK_BYTES, b

    def test_refreshing_sweep_with_moments(self, clouds):
        source, current, refs = clouds
        bank = initialize_bank(source, refs)
        assert self.peak_bytes(lambda: sweep(bank, current, refs, refresh=True, moments=True)) <= 4.35 * BLOCK_BYTES


class TestSweepLoss:
    """The bank's sweep gives quantile_loss_on_points' loss bit for bit, in one block or in blocks of two references and a last one of one."""

    @pytest.mark.parametrize("budget", [BLOCK_BYTES, 1])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_identical_to_the_loss(self, monkeypatch, d, budget):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
        rng = SplitMix64.stream("sweep_loss", d)
        ref_points = rng.normals((5, d))
        points = rng.normals((9, d))
        points[4] = ref_points[4]  # a coincident pair in the last block
        points[-1] = points[0]
        target = rng.normals((5, d))
        target *= 0.5 / np.linalg.norm(target, axis=1, keepdims=True)
        refs = ReferenceSet(quantiles=ref_points, target_indices=target)
        assert [len(range(5)[b]) for b in reference_blocks(5, points.size)] == ([5] if budget == BLOCK_BYTES else [2, 2, 1])
        want = quantile_loss_on_points(points, refs, want_grad=False)[0]
        bank = initialize_bank(PointCloud(points + 0.01 * rng.normals((9, d))), refs)
        for refresh, moments in ((False, True), (True, True), (False, False), (True, False)):
            assert sweep(bank, PointCloud(points), refs, refresh=refresh, moments=moments).loss.hex() == want.hex()

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(dims=range(1, 9)), st.booleans())
    def test_bit_identical_on_kernel_cases(self, case, blocks):
        points, refs, _, snapshot = case
        assume(np.any(points != points[0]) and np.any(snapshot != snapshot[0]))
        with pytest.MonkeyPatch.context() as monkeypatch:
            if blocks:
                monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)
            got = sweep(initialize_bank(PointCloud(snapshot), refs), PointCloud(points), refs).loss
            want = quantile_loss_on_points(points, refs, want_grad=False)[0]
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("budget", [BLOCK_BYTES, 1])
    def test_reference_on_every_point_raises(self, monkeypatch, budget):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
        ref_points = SplitMix64.stream("sweep_loss_degenerate", 0).normals((5, 3))
        refs = ReferenceSet(quantiles=ref_points, target_indices=np.zeros((5, 3)))
        # two distinct points, both within COINCIDENCE_EPS of the last reference
        cloud = PointCloud(np.vstack([ref_points[4], ref_points[4] + 1e-13]))
        with pytest.raises(DegenerateCloudError):
            quantile_loss_on_points(cloud.points, refs, want_grad=False)
        for refresh, moments in ((False, True), (True, False)):
            with pytest.raises(DegenerateCloudError):
                sweep(MemoryBank.empty(3, 5, 2), cloud, refs, refresh=refresh, moments=moments)


class TestThreadedBlocks:
    """index_averages' passes, reference selection, the sweep and the loss alone, give the same bits on one thread as on two."""

    @staticmethod
    def outputs(source, current, count):
        refs = select_references(source, count, seed=0)
        bank = initialize_bank(source, refs)
        swept = sweep(bank, current, refs, refresh=True)
        return (
            refs.target_indices.tobytes(),
            swept.loss.hex(),
            np.asarray(swept.moments).tobytes(),
            hashlib.sha256(bank.snapshot_units).hexdigest(),
            bank.snapshot_avgs.tobytes(),
            quantile_loss_on_points(current.points, refs, want_grad=False)[0].hex(),
        )

    @pytest.mark.parametrize(
        "budget, shape",
        [(1, (41, 60, 3)), (BLOCK_BYTES, (TestBoundedMemory.R, TestBoundedMemory.N, TestBoundedMemory.D))],
    )
    def test_two_threads_give_the_serial_bits(self, monkeypatch, budget, shape):
        count, n, d = shape
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
        rng = SplitMix64.stream("threaded_blocks", n)
        source = PointCloud(rng.normals((n, d)))
        current = PointCloud(rng.normals((n, d)) + 0.3)
        assert len(reference_blocks(count, source.points.size)) > 1
        monkeypatch.setattr("quantmatch.loss.THREADS", 1)
        want = self.outputs(source, current, count)

        threads = set()

        def recorded(points, ref_points, work=None):
            threads.add(threading.get_ident())
            time.sleep(1e-3)  # hand over the GIL, so that both threads take blocks
            return unit_directions(points, ref_points, work)

        monkeypatch.setattr("quantmatch.loss.unit_directions", recorded)
        monkeypatch.setattr("quantmatch.bank.unit_directions", recorded)
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        assert self.outputs(source, current, count) == want
        # the calling thread and each pass's helper (a new thread, so idents may differ between passes)
        assert threading.get_ident() in threads and len(threads) >= 2

    def test_blocks_halve_when_threaded(self, monkeypatch):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 64)  # 4 references against a plane of 2 values
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        calls = []

        def fn(block, work):
            calls.append((block.start, block.stop, threading.get_ident()))

        for_each_block(fn, 4, 2)
        assert calls == [(0, 4, threading.get_ident())]  # one block: a plain call on the calling thread
        calls.clear()
        for_each_block(fn, 8, 2)
        assert sorted(call[:2] for call in calls) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lowest_failing_block_raises(self, monkeypatch, threads):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)  # blocks of MIN_BLOCK_REFS = 2 references
        monkeypatch.setattr("quantmatch.loss.THREADS", threads)
        ran = []

        def fn(block, work):
            index = block.start // 2
            ran.append(index)
            if index == 1:
                time.sleep(0.05)  # block 3 fails first
                raise ValueError("block 1")
            if index == 3:
                raise KeyError("block 3")

        before = threading.active_count()
        with pytest.raises(ValueError, match="block 1"):
            for_each_block(fn, 12, 1)
        assert threading.active_count() == before
        assert {0, 1} <= set(ran)

    def test_each_block_runs_once_under_contention(self, monkeypatch):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)
        monkeypatch.setattr("quantmatch.loss.THREADS", 4)  # twice the most THREADS takes, so threads contend for blocks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                for_each_block(lambda block, work: ran.append(block.start), 400, 1)
                assert sorted(ran) == list(range(0, 400, 2))
        finally:
            sys.setswitchinterval(interval)

    def test_threads_follow_the_affinity(self):
        assert quantmatch.loss.THREADS == min(2, len(os.sched_getaffinity(0)))

    def test_tracer_sites_run_on_the_calling_thread(self, monkeypatch):
        """perfbench's tracer keeps one span stack, so no site it patches may run inside a block."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracer")
        ran = {}

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                ran.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for name, sites in tracer.TARGETS.items():
            for module, path in sites:
                owner, attr = tracer._resolve(module, path)
                monkeypatch.setattr(owner, attr, recording(name, getattr(owner, attr)))
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        rng = SplitMix64.stream("threaded_blocks", 0)
        source = PointCloud(rng.normals((60, 3)))
        current = PointCloud(rng.normals((60, 3)) + 0.3)
        # through the names the tracer wraps, so each pass is one span on this thread
        refs = quantmatch.trainer.select_references(source, 41, seed=0)
        bank = quantmatch.trainer.initialize_bank(source, refs)
        sweep(bank, current, refs, refresh=True)
        quantmatch.trainer.quantile_loss_on_points(current.points, refs, want_grad=False)
        assert len(reference_blocks(41, current.points.size)) > 1
        here = {threading.get_ident()}
        assert ran == {"loss.select_references": here, "bank.initialize_bank": here, "loss.quantile_loss_on_points": here}


class TestThreadedStep:
    """The minibatch step over blocks of two references, with THREADS at 2, gives the bits of one block with THREADS at 1."""

    @staticmethod
    def case(b, count, d, seed=0):
        rng = SplitMix64.stream("threaded_step", 1000 * seed + 100 * d + b)
        n = max(b, count) + 3
        snapshot = PointCloud(rng.normals((n, d)))
        refs = select_references(snapshot, count, seed=seed)
        bank = initialize_bank(snapshot, refs)
        batch = np.asarray(rng.permutation(n)[:b], dtype=int)
        return snapshot.points[batch] + 0.1 * rng.normals((b, d)), batch, bank, refs

    @staticmethod
    def one_block(monkeypatch, yb, batch, bank, refs):
        monkeypatch.setattr("quantmatch.loss.THREADS", 1)
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", BLOCK_BYTES)
        assert len(reference_blocks(refs.count, yb.size)) == 1
        return minibatch_point_grads(yb, batch, bank, refs).tobytes()

    @staticmethod
    def threaded(monkeypatch, yb, batch, bank, refs):
        """Blocks of two references, with THREADS at 2; the step starts no thread."""
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)
        return minibatch_point_grads(yb, batch, bank, refs).tobytes()

    @pytest.mark.parametrize(
        "b, count, d",
        [
            (8, 9, 3),   # a last block of one reference, whose batch mean takes row_sums' cumsum path
            (9, 12, 1),  # six blocks, whose gradient terms are all zero at d = 1
            (9, 12, 2),  # six blocks of an odd batch
            (25, 40, 2),  # twenty reference blocks
            (1, 5, 2),   # one point against three blocks: direction_point_grads' m == 1 path carries its sums
        ],
    )
    def test_two_threads_give_the_one_block_bits(self, monkeypatch, b, count, d):
        yb, batch, bank, refs = self.case(b, count, d)
        want = self.one_block(monkeypatch, yb, batch, bank, refs)
        builds = []

        def recorded(points, ref_points, work=None):
            builds.append((threading.get_ident(), len(points), len(ref_points)))
            return unit_directions(points, ref_points, work)

        monkeypatch.setattr("quantmatch.trainer.unit_directions", recorded)
        assert self.threaded(monkeypatch, yb, batch, bank, refs) == want
        # one build of all b points per block of two references, on the calling thread
        sizes = [2] * (count // 2) + [1] * (count % 2)
        assert builds == [(threading.get_ident(), b, size) for size in sizes]

    @pytest.mark.parametrize("on_reference", [False, True])
    def test_one_point_and_one_reference(self, monkeypatch, on_reference):
        yb, batch, bank, refs = self.case(1, 1, 2)
        if on_reference:
            yb = refs.quantiles.copy()
        want = self.one_block(monkeypatch, yb, batch, bank, refs)
        assert self.threaded(monkeypatch, yb, batch, bank, refs) == want
        # a coincident pair is excluded, so it carries no gradient
        assert np.frombuffer(want).any() != on_reference

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases(dims=range(1, 5)))
    def test_bit_identical_on_kernel_cases(self, case):
        points, refs, batch, snapshot = case
        assume(len(points) > 1)  # a bank needs a cloud of two points
        bank = initialize_bank(PointCloud(snapshot), refs)
        yb = points[batch]
        with pytest.MonkeyPatch.context() as monkeypatch:
            want = self.one_block(monkeypatch, yb, batch, bank, refs)
            assert self.threaded(monkeypatch, yb, batch, bank, refs) == want

    def test_tracer_sites_run_on_the_calling_thread(self, monkeypatch):
        """perfbench's tracer keeps one span stack, so no site it patches may run inside a block."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracer")
        ran = {}

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                ran.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        yb, batch, bank, refs = self.case(9, 12, 2)
        for name, sites in tracer.TARGETS.items():
            for module, path in sites:
                owner, attr = tracer._resolve(module, path)
                monkeypatch.setattr(owner, attr, recording(name, getattr(owner, attr)))
        self.threaded(monkeypatch, yb, batch, bank, refs)
        assert ran == {"bank.control_variate_estimate": {threading.get_ident()}}


def threaded_cut(monkeypatch, count, plane_size, threads=2):
    """The block sizes, in order, of a for_each_block pass on `threads` threads."""
    monkeypatch.setattr("quantmatch.loss.THREADS", threads)
    blocks = []
    for_each_block(lambda block, work: blocks.append(block), count, plane_size)
    blocks.sort(key=lambda block: block.start)
    assert [block.start for block in blocks] == [0] + [block.stop for block in blocks[:-1]] and blocks[-1].stop == count
    return [block.stop - block.start for block in blocks]


class TestBalancedCut:
    """A threaded pass is cut into a multiple of THREADS blocks of near-equal size, each within BLOCK_BYTES // THREADS."""

    @pytest.mark.parametrize(
        "count, plane_size, sizes",
        [
            (256, 300 * 8, [64] * 4),    # a scaled_features step's points against (R, d) = (300, 8)
            (240, 300 * 8, [60] * 4),    # and its short last batch
            (300, 256 * 8, [75] * 4),    # its batch means' references against (b, d) = (256, 8)
            (300, 4080 * 8, [8] * 34 + [7] * 4),  # its reference selection and sweeps
        ],
    )
    def test_scaled_features_cuts(self, monkeypatch, count, plane_size, sizes):
        assert threaded_cut(monkeypatch, count, plane_size) == sizes

    @pytest.mark.parametrize("threads", [2, 3])
    def test_near_equal_blocks_within_budget(self, monkeypatch, threads):
        budget = BLOCK_BYTES // threads
        cuts = 0
        for plane_size in (2048, 2400, 32640, BLOCK_BYTES // 400, BLOCK_BYTES // 100):
            for count in range(1, 700, 7):
                if len(reference_blocks(count, plane_size)) == 1:
                    continue  # one full block: a plain call, not a threaded pass
                cuts += 1
                sizes = threaded_cut(monkeypatch, count, plane_size, threads)
                case = (threads, plane_size, count, sizes)
                assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True), case
                assert len(sizes) % threads == 0, case
                assert all(8 * plane_size * size <= budget or size <= MIN_BLOCK_REFS for size in sizes), case
                assert min(sizes) >= MIN_BLOCK_REFS, case
        assert cuts > 200

    def test_min_block_refs_before_a_multiple_of_threads(self, monkeypatch):
        """Where the budget holds fewer than MIN_BLOCK_REFS items, rounding up must not cut blocks below it."""
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)  # MIN_BLOCK_REFS = 2 items per block
        # six blocks would leave blocks of one point, so the cut keeps five
        assert threaded_cut(monkeypatch, 9, 2) == [2, 2, 2, 2, 1]
        assert threaded_cut(monkeypatch, 12, 2) == [2] * 6
        assert threaded_cut(monkeypatch, 14, 2) == [2] * 7  # eight blocks of fewer than two
        assert threaded_cut(monkeypatch, 15, 2) == [2] * 7 + [1]


def fresh_unit_directions(points, ref_points):
    """unit_directions' arithmetic on fresh arrays, as each block ran before it had a workspace."""
    cols = np.ascontiguousarray(points.T)
    units = ref_points.T[:, :, None] - cols[:, None, :]
    dist = np.sqrt(plane_dot(units, units))
    mask = dist >= 1e-12
    if mask.all():
        units /= dist
    else:
        units /= np.where(mask, dist, 1.0)
        units[:, ~mask] = 0.0
    return units, dist, mask


def fresh_moments(a_units, s_units, a_mean, s_mean):
    """population_moments' arithmetic on fresh deviation arrays."""
    da, ds = (np.subtract(units, mean.T[:, :, None], order="C") for units, mean in ((a_units, a_mean), (s_units, s_mean)))
    return [plane_dot(x, x).mean(axis=1) for x in (da, da - ds)]


def used_workspace(d, count, m):
    """A workspace that a larger block has used, with every buffer then overwritten by garbage."""
    rng = SplitMix64.stream("used_workspace", d)
    work = Workspace()
    units = unit_directions(rng.normals((m + 3, d)), rng.normals((count + 2, d)), work)[0]
    population_moments(units, units, work=work)
    for buf in work.values():
        buf[...] = True if buf.dtype == bool else np.nan
    return work


def assert_buffered_is_fresh(points, ref_points, snapshot):
    (m, d), count = points.shape, ref_points.shape[0]
    work = used_workspace(d, count, m)
    want = fresh_unit_directions(points, ref_points)
    got = unit_directions(points, ref_points, work)
    for name, g, w in zip(("units", "dist", "mask"), got, want):
        assert g.shape == w.shape and g.flags.c_contiguous and g.tobytes() == w.tobytes(), name
    want_sums = row_sums(np.ascontiguousarray(want[0].transpose(0, 2, 1)))
    assert point_sums(got[0], work).tobytes() == want_sums.tobytes()
    # the snapshot as the bank passes it: a transposed view of point-major planes
    s_units = np.ascontiguousarray(fresh_unit_directions(snapshot, ref_points)[0].transpose(0, 2, 1)).transpose(0, 2, 1)
    a_mean, s_mean = want_sums / m, row_sums(np.ascontiguousarray(s_units.transpose(0, 2, 1))) / m
    want_moments = np.array(fresh_moments(want[0], s_units, a_mean, s_mean))
    for means in ((a_mean, s_mean), (None, None)):
        got_moments = np.array(population_moments(got[0], s_units, *means, work))
        assert got_moments.tobytes() == want_moments.tobytes(), means


class TestWorkspaces:
    """Blocks that reuse their slot's buffers give the bits of blocks with fresh arrays, and a pass keeps one buffer per slot."""

    @pytest.mark.parametrize(
        "d, count, m",
        [(1, 5, 9), (3, 1, 9), (3, 5, 1), (1, 1, 1), (2, 7, 40), (8, 4, 17), (9, 3, 6)],
    )
    @pytest.mark.parametrize("coincident", [None, 0.0, 1e-13])  # no pair, or one within COINCIDENCE_EPS
    def test_bit_identical_to_fresh_arrays(self, d, count, m, coincident):
        rng = SplitMix64.stream("workspaces", 100 * d + 10 * count + m)
        ref_points = rng.normals((count, d))
        points = rng.normals((m, d))
        if coincident is not None:
            points[m // 2] = ref_points[-1] + coincident
        assert_buffered_is_fresh(points, ref_points, points + 0.01 * rng.normals((m, d)))

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(dims=range(1, 10)))
    def test_bit_identical_on_kernel_cases(self, case):
        points, refs, _, snapshot = case
        assert_buffered_is_fresh(points, refs.quantiles, snapshot)

    def test_epoch_workspace_gives_fresh_bits(self, monkeypatch):
        """A step in an epoch's used workspace, on a full batch and then a short one, gives the bits of a new workspace."""
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)  # blocks of two points and two references
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        rng = SplitMix64.stream("epoch_workspace", 0)
        snapshot = PointCloud(rng.normals((23, 3)))
        refs = select_references(snapshot, 9, seed=0)
        bank = initialize_bank(snapshot, refs)
        order = np.asarray(rng.permutation(23), dtype=int)
        adapted = snapshot.points + 0.1 * rng.normals((23, 3))
        work = Workspace()
        for start in range(0, 23, 8):  # batches of 8, 8 and 7
            batch = order[start : start + 8]
            want = minibatch_point_grads(adapted[batch], batch, bank, refs)
            got = minibatch_point_grads(adapted[batch], batch, bank, refs, work)
            assert got.tobytes() == want.tobytes()
            for buf in work.values():
                buf[...] = True if buf.dtype == bool else np.nan

    @pytest.mark.parametrize("count, m", [(60, 510), (30600, 1)])  # one (R, m) plane is 244.8 kB either way
    @pytest.mark.parametrize("carry", [False, True], ids=["one_block", "previous_carry"])
    def test_point_grads_in_a_warm_workspace_make_no_plane(self, count, m, carry):
        """A second direction_point_grads call into one workspace allocates less than an (R, m) plane and gives the fresh bits."""
        rng = SplitMix64.stream("point_grads_workspace", m)
        work = Workspace()
        units, dist, _ = unit_directions(rng.normals((m, 2)), rng.normals((count, 2)), work)
        resid = 0.1 * rng.normals((count, 2))
        scale = 1.0 / dist
        previous = rng.normals((m, 2)) if carry else None
        want = direction_point_grads(units, resid, scale, previous)
        direction_point_grads(units, resid, scale, previous, work)
        tracemalloc.start()
        try:
            got = direction_point_grads(units, resid, scale, previous, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 8 * count * m, peak
        direction_point_grads(units, -resid, scale, previous, work)  # the result is no view of the workspace
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_pass_keeps_one_unit_buffer_per_slot(self, monkeypatch, threads):
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)  # blocks of two references or points
        monkeypatch.setattr("quantmatch.loss.THREADS", threads)
        passes = []

        def recorded(points, ref_points, work=None):
            time.sleep(1e-3)  # hand over the GIL, so that both threads take blocks
            units, dist, mask = unit_directions(points, ref_points, work)
            passes[-1].append(units.base)  # held, so that no buffer's id is reused
            return units, dist, mask

        for module in ("loss", "bank", "trainer"):
            monkeypatch.setattr(f"quantmatch.{module}.unit_directions", recorded)
        rng = SplitMix64.stream("one_buffer_per_slot", 0)
        source = PointCloud(rng.normals((30, 3)))
        current = PointCloud(rng.normals((30, 3)) + 0.3)

        def record(run):
            passes.append([])
            return run()

        refs = record(lambda: select_references(source, 11, seed=0))
        bank = record(lambda: initialize_bank(source, refs))
        record(lambda: sweep(bank, current, refs, refresh=True, moments=True))
        record(lambda: quantile_loss_on_points(current.points, refs, want_grad=False))
        record(lambda: quantile_loss_on_points(current.points, refs))
        work = Workspace()  # an epoch's steps share one workspace
        record(lambda: [minibatch_point_grads(current.points[batch], batch, bank, refs, work) for batch in (np.arange(16), np.arange(16, 30))])
        one_slot = {4, 5}  # the loss with its gradient runs on slot 0; the step's planes stay in the epoch's buffers
        for i, bases in enumerate(passes):
            assert len(bases) >= 4, i
            assert len({id(base) for base in bases}) <= (1 if i in one_slot else threads), i
