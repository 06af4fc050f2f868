import numpy as np
import pytest

from quantmatch import Corruption, apply_corruption, paired_mse, six_blobs, two_moons
from quantmatch.datasets import (
    SIX_BLOBS_COUNTS,
    SIX_BLOBS_COV_ASPECT,
    SIX_BLOBS_COV_SCALES,
    SIX_BLOBS_RADIUS,
    TWO_MOONS_CENTER,
    SingularCorruptionError,
    _rotation,
)


class TestSixBlobs:
    def test_default_counts_and_classes(self):
        data = six_blobs(seed=7)
        assert data.n == sum(SIX_BLOBS_COUNTS)
        values, counts = np.unique(data.labels, return_counts=True)
        assert list(values) == list(range(6))
        assert tuple(counts) == SIX_BLOBS_COUNTS

    def test_deterministic_per_seed(self):
        a = six_blobs(seed=3)
        b = six_blobs(seed=3)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        assert not np.array_equal(a.cloud.points, six_blobs(seed=4).cloud.points)

    def test_empirical_means_near_configured(self):
        data = six_blobs(seed=7)
        angles = np.deg2rad(60.0 * np.arange(6))
        means = SIX_BLOBS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for cls in range(6):
            pts = data.cloud.points[data.labels == cls]
            sigma = np.sqrt(SIX_BLOBS_COV_SCALES[cls])  # largest per-class axis scale
            bound = 3.0 * sigma / np.sqrt(len(pts))
            offset = np.abs(pts.mean(axis=0) - means[cls])
            assert np.all(offset <= bound), (cls, offset, bound)

    def test_empirical_covariance_scale(self):
        data = six_blobs(seed=11)
        for cls in (0, 5):
            pts = data.cloud.points[data.labels == cls]
            cov = np.cov(pts.T)
            scale = SIX_BLOBS_COV_SCALES[cls]
            expected = scale * (1 + SIX_BLOBS_COV_ASPECT) / 2
            assert np.trace(cov) / 2 == pytest.approx(expected, rel=0.35)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            six_blobs(seed=0, counts=(80, 82, 84, 86, 88))
        with pytest.raises(ValueError):
            six_blobs(seed=0, counts=(5, 82, 84, 86, 88, 90))


class TestTwoMoons:
    def test_labels_split_evenly(self):
        data = two_moons(seed=1, n=100)
        assert (data.labels == 0).sum() == 50
        assert (data.labels == 1).sum() == 50

    def test_noise_free_points_on_unit_arcs(self):
        data = two_moons(seed=1, n=80, noise_sigma=0.0)
        centers = np.where(data.labels[:, None] == 0, -TWO_MOONS_CENTER, TWO_MOONS_CENTER)
        radii = np.linalg.norm(data.cloud.points - centers, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_flip_maps_moons_onto_each_other(self):
        data = two_moons(seed=1, n=60, noise_sigma=0.0)
        upper = data.cloud.points[data.labels == 0]
        lower = data.cloud.points[data.labels == 1]
        rotated = upper @ _rotation(180.0).T
        np.testing.assert_allclose(np.sort(rotated, axis=0), np.sort(lower, axis=0), atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_moons(seed=0, n=2)
        with pytest.raises(ValueError):
            two_moons(seed=0, n=7)


class TestApplyCorruption:
    def test_rotation_involution(self):
        data = two_moons(seed=5, n=40)
        once = apply_corruption(data, Corruption.rotation(180.0))
        twice = apply_corruption(once, Corruption.rotation(180.0))
        np.testing.assert_allclose(twice.cloud.points, data.cloud.points, atol=1e-12)

    def test_shift_mse(self):
        data = six_blobs(seed=2)
        c = np.array([1.5, -2.0])
        shifted = apply_corruption(data, Corruption.shift(c))
        got = paired_mse(shifted.cloud.points, data.cloud.points)
        assert got == pytest.approx(float(np.sum(c**2)), abs=1e-12)

    def test_gaussian_noise_moment(self):
        data = two_moons(seed=9, n=2000, noise_sigma=0.05)
        sigma = 0.7
        noisy = apply_corruption(data, Corruption.gaussian_noise(sigma), seed=4)
        got = paired_mse(noisy.cloud.points, data.cloud.points)
        assert got == pytest.approx(2 * sigma**2, rel=0.10)

    def test_labels_preserved(self):
        data = six_blobs(seed=6)
        corrupted = apply_corruption(data, Corruption.linear([[1.2, 0.1], [0.0, 0.9]]))
        np.testing.assert_array_equal(corrupted.labels, data.labels)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularCorruptionError):
            Corruption.linear([[1.0, 2.0], [2.0, 4.0]])

    def test_exact_inverse_recorded(self):
        m = np.array([[1.25, 0.2], [-0.15, 0.9]])
        corr = Corruption.linear(m)
        np.testing.assert_allclose(corr.exact_inverse_matrix() @ m, np.eye(2), atol=1e-12)
        rot = Corruption.rotation(90.0)
        np.testing.assert_allclose(rot.exact_inverse_matrix(), _rotation(-90.0), atol=1e-15)
        assert Corruption.gaussian_noise(0.1).exact_inverse_matrix() is None

    def test_linear_roundtrip_through_inverse(self):
        data = six_blobs(seed=8)
        corr = Corruption.linear([[1.25, 0.2], [-0.15, 0.9]])
        corrupted = apply_corruption(data, corr)
        restored = corrupted.cloud.points @ corr.exact_inverse_matrix().T
        np.testing.assert_allclose(restored, data.cloud.points, atol=1e-10)


class TestCsvDump:
    def test_schema_and_roundtrip(self, tmp_path):
        from quantmatch.datasets import cloud_to_csv

        data = two_moons(seed=2, n=20)
        path = tmp_path / "cloud.csv"
        cloud_to_csv(data, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,x1,x2"
        assert len(lines) == 21
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, data.cloud.points)

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_bytes_of_csv_writer(self, tmp_path, d):
        import csv

        from quantmatch import PointCloud
        from quantmatch.datasets import LabeledCloud, cloud_to_csv
        from quantmatch.rng import SplitMix64

        points = SplitMix64.stream("csv_bytes", d).normals((12, d))
        points[0, 0] = -0.0
        points[1, -1] = 5e-324  # subnormal
        points[2, 0] = 1e300
        points[3, -1] = -1e-300
        points[4, 0] = 0.1 + 0.2
        data = LabeledCloud(PointCloud(points), np.arange(12) % 6)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class"] + [f"x{i + 1}" for i in range(d)])
            for label, row in zip(data.labels, data.cloud.points):
                writer.writerow([int(label)] + [repr(float(v)) for v in row])
        got = tmp_path / "got.csv"
        cloud_to_csv(data, got)
        assert got.read_bytes() == want.read_bytes()
        assert b"-0.0" in got.read_bytes() and b"5e-324" in got.read_bytes()
