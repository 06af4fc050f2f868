import math
from itertools import permutations

import numpy as np
import pytest

from quantmatch import (
    PointCloud,
    enumerate_batches,
    finite_diff_grad,
    paired_mse,
    wasserstein2,
)
from quantmatch.geometry import DimensionMismatchError
from quantmatch.oracles import ENUMERATION_LIMIT, exceeds_enumeration_limit
from quantmatch.rng import SplitMix64


class TestWasserstein2:
    def test_zero_on_equal_clouds(self):
        rng = SplitMix64.stream("w2_equal", 0)
        pts = rng.normals((12, 3))
        plan = wasserstein2(pts, pts)
        assert plan.distance == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(plan.assignment, np.arange(12))

    def test_translation(self):
        rng = SplitMix64.stream("w2_shift", 1)
        pts = rng.normals((20, 2))
        c = np.array([2.5, -1.0])
        assert wasserstein2(pts, pts + c).distance == pytest.approx(np.linalg.norm(c), abs=1e-9)

    def test_matches_factorial_enumeration(self):
        rng = SplitMix64.stream("w2_enum", 2)
        for _ in range(5):
            a = rng.normals((6, 2))
            b = rng.normals((6, 2))
            plan = wasserstein2(a, b)
            best = min(float(np.mean(np.sum((a - b[list(p)]) ** 2, axis=1))) for p in permutations(range(6)))
            assert plan.cost == pytest.approx(best, abs=1e-12)

    def test_symmetry(self):
        rng = SplitMix64.stream("w2_sym", 3)
        for _ in range(10):
            a, b = rng.normals((9, 3)), rng.normals((9, 3))
            assert wasserstein2(a, b).cost == pytest.approx(wasserstein2(b, a).cost, abs=1e-12)

    def test_triangle_inequality(self):
        rng = SplitMix64.stream("w2_tri", 4)
        for _ in range(10):
            a, b, c = (rng.normals((8, 2)) for _ in range(3))
            dab = wasserstein2(a, b).distance
            dbc = wasserstein2(b, c).distance
            dac = wasserstein2(a, c).distance
            assert dac <= dab + dbc + 1e-9

    def test_zero_iff_multiset_equal(self):
        rng = SplitMix64.stream("w2_zero", 5)
        pts = rng.normals((10, 2))
        perm = rng.permutation(10)
        assert wasserstein2(pts, pts[perm]).distance == pytest.approx(0.0, abs=1e-12)
        nudged = pts.copy()
        nudged[0] += 0.5
        assert wasserstein2(pts, nudged).distance > 1e-3

    def test_rigid_motion_invariance(self):
        rng = SplitMix64.stream("w2_rigid", 6)
        a, b = rng.normals((10, 2)), rng.normals((10, 2))
        base = wasserstein2(a, b).distance
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -1.0])
        moved = wasserstein2(a @ rot.T + shift, b @ rot.T + shift).distance
        assert moved == pytest.approx(base, abs=1e-9)

    def test_unequal_sizes_rejected(self):
        rng = SplitMix64.stream("w2_sizes", 7)
        with pytest.raises(ValueError):
            wasserstein2(rng.normals((5, 2)), rng.normals((6, 2)))

    def test_size_cap(self):
        rng = SplitMix64.stream("w2_cap", 8)
        pts = rng.normals((513, 2))
        with pytest.raises(ValueError, match="exceeds exact-mode cap 512"):
            wasserstein2(pts, pts)


class TestPairedMse:
    def test_zero_under_identity(self):
        rng = SplitMix64.stream("mse0", 0)
        pts = rng.normals((15, 3))
        assert paired_mse(pts, pts) == 0.0

    def test_unit_shift(self):
        rng = SplitMix64.stream("mse1", 1)
        pts = rng.normals((15, 4))
        shifted = pts + np.array([0.5, 0.5, 0.5, 0.5])
        assert paired_mse(shifted, pts) == pytest.approx(1.0, abs=1e-12)

    def test_matches_hand_loop(self):
        rng = SplitMix64.stream("mse2", 2)
        a, b = rng.normals((10, 3)), rng.normals((10, 3))
        got = paired_mse(PointCloud(a), b)
        want = sum(float(np.sum((a[i] - b[i]) ** 2)) for i in range(10)) / 10
        assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_shape_mismatch(self):
        rng = SplitMix64.stream("mse3", 3)
        pts = rng.normals((10, 3))
        for other in (pts[:9], pts[:, :2]):
            with pytest.raises(DimensionMismatchError):
                paired_mse(pts, other)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(np.sum(t**2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_linear_exact(self):
        w = np.array([3.0, -1.0, 0.25])
        grad = finite_diff_grad(lambda t: float(w @ t), np.zeros(3))
        np.testing.assert_allclose(grad, w, atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: float("nan"), np.zeros(2))


class TestEnumerateBatches:
    def test_counts(self):
        assert len(list(enumerate_batches(4, 2))) == 6
        assert len(list(enumerate_batches(8, 3))) == 56
        assert math.comb(8, 3) == 56

    def test_full_batch_single(self):
        assert list(enumerate_batches(5, 5)) == [(0, 1, 2, 3, 4)]

    def test_lexicographic_and_unique(self):
        batches = list(enumerate_batches(6, 2))
        assert batches == sorted(set(batches))

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            enumerate_batches(60, 30)

    def test_limit_rule_is_the_full_binomial_rule(self):
        for n in range(1, 401):
            for b in range(1, n + 1):
                assert exceeds_enumeration_limit(n, b) == (math.comb(n, b) > ENUMERATION_LIMIT), (n, b)
        assert math.comb(1414, 2) == 998_991 and math.comb(1415, 2) == 1_000_405
        assert not exceeds_enumeration_limit(10**6, 1)
        assert not exceeds_enumeration_limit(1414, 2)
        assert exceeds_enumeration_limit(1415, 2)
        assert exceeds_enumeration_limit(10**9, 5 * 10**8)
