import numpy as np
import pytest

from quantmatch import (
    Adapter,
    FeatureMap,
    PointCloud,
    TrainConfig,
    finite_diff_grad,
    train,
)
from quantmatch.geometry import DimensionMismatchError
from quantmatch.rng import SplitMix64
from quantmatch.trainer import ConfigError


class TestForward:
    def test_identity(self):
        ad = Adapter.identity(3)
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(ad.forward_cloud(x), x)
        assert ad.n_params == 0

    def test_affine_identity_init(self):
        ad = Adapter.affine(2)
        np.testing.assert_array_equal(ad.forward_cloud(np.array([[3.0, -1.0]])), [[3.0, -1.0]])

    def test_affine_rotation(self):
        ad = Adapter.affine(2, init_rotation_deg=90.0)
        np.testing.assert_allclose(ad.forward_cloud(np.array([[1.0, 0.0]])), [[0.0, 1.0]], atol=1e-15)

    def test_mlp1_identity_init(self):
        ad = Adapter.mlp1(4, hidden=6, seed=3)
        rng = SplitMix64.stream("mlp_fwd", 0)
        for _ in range(5):
            x = rng.normals((1, 4))
            np.testing.assert_array_equal(ad.forward_cloud(x), x)

    def test_identity_init_exact_for_all_kinds(self):
        rng = SplitMix64.stream("identity_init", 1)
        for ad in (Adapter.identity(3), Adapter.affine(3), Adapter.mlp1(3, hidden=5, seed=2)):
            cloud = rng.normals((20, 3))
            np.testing.assert_array_equal(ad.forward_cloud(cloud), cloud)

    def test_dimension_mismatch(self):
        ad = Adapter.affine(2)
        with pytest.raises(DimensionMismatchError):
            ad.forward_cloud(np.array([[1.0, 2.0, 3.0]]))


class TestBackward:
    def test_identity_backward(self):
        ad = Adapter.identity(3)
        up = np.array([[0.5, -1.0, 2.0]])
        pg, ig = ad.backward_cloud(np.ones((1, 3)), up)
        assert pg.size == 0
        np.testing.assert_array_equal(ig, up)

    def test_affine_bias_gradient_is_upstream(self):
        rng = SplitMix64.stream("affine_bias", 2)
        ad = Adapter.affine(3)
        ad = ad.with_params(ad.params + 0.2 * rng.normals(ad.params.shape))
        x, up = rng.normals((1, 3)), rng.normals((1, 3))
        pg, _ = ad.backward_cloud(x, up)
        np.testing.assert_array_equal(pg[9:], up[0])

    @pytest.mark.parametrize(
        "kind,build",
        [
            pytest.param("affine", lambda d, seed: Adapter.affine(d), id="affine-0"),
            pytest.param("mlp1", lambda d, seed: Adapter.mlp1(d, hidden=5, seed=seed), id="mlp1-5"),
        ],
    )
    def test_matches_finite_differences(self, kind, build):
        rng = SplitMix64.stream(f"fd_{kind}", 3)
        failures = 0
        for trial in range(25):
            d = 2 + rng.randbelow(4)
            ad = build(d, trial)
            ad = ad.with_params(ad.params + 0.3 * rng.normals(ad.params.shape))
            x, up = rng.normals(d), rng.normals(d)

            pg, ig = ad.backward_cloud(x[None, :], up[None, :])
            ig = ig[0]
            fd_p = finite_diff_grad(lambda th: float(up @ ad.with_params(th).forward_cloud(x[None, :])[0]), ad.params)
            fd_x = finite_diff_grad(lambda xv: float(up @ ad.forward_cloud(xv[None, :])[0]), x)
            rel_p = np.max(np.abs(pg - fd_p)) / (1.0 + np.max(np.abs(pg)))
            rel_x = np.max(np.abs(ig - fd_x)) / (1.0 + np.max(np.abs(ig)))
            failures += (rel_p >= 1e-4) or (rel_x >= 1e-4)
        assert failures == 0

    def test_batched_matches_per_point(self):
        rng = SplitMix64.stream("batched", 4)
        ad = Adapter.mlp1(3, hidden=4, seed=9)
        ad = ad.with_params(ad.params + 0.1 * rng.normals(ad.params.shape))
        xs = rng.normals((6, 3))
        ups = rng.normals((6, 3))
        pg_b, ig_b = ad.backward_cloud(xs, ups)
        pg_acc = np.zeros_like(ad.params)
        for i in range(6):
            pg, ig = ad.backward_cloud(xs[i : i + 1], ups[i : i + 1])
            pg_acc += pg
            np.testing.assert_allclose(ig_b[i], ig[0], atol=1e-12)
        np.testing.assert_allclose(pg_b, pg_acc, atol=1e-12)

    def test_determinism(self):
        ad = Adapter.mlp1(3, hidden=4, seed=5)
        x, up = np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, -1.0, 0.5]])
        first = ad.backward_cloud(x, up)
        second = ad.backward_cloud(x, up)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestFeatureMaps:
    def test_identity_composition(self):
        rng = SplitMix64.stream("compose", 5)
        cloud = PointCloud(rng.normals((10, 2)))
        ad = Adapter.affine(2, init_rotation_deg=30.0)
        fm = FeatureMap.identity(2)
        out = fm.forward_cloud(ad.forward_cloud(cloud.points))
        np.testing.assert_array_equal(out, ad.forward_cloud(cloud.points))

    def test_fixed_affine_on_identity_adapter(self):
        rng = SplitMix64.stream("fixed_affine", 6)
        fm = FeatureMap.fixed_affine(2, out_dim=3, seed=4)
        assert fm.matrix.shape == (3, 2)
        cloud = PointCloud(rng.normals((8, 2)))
        np.testing.assert_array_equal(fm.forward_cloud(cloud.points), cloud.points @ fm.matrix.T)
        out = fm.forward_cloud(Adapter.identity(2).forward_cloud(cloud.points))
        np.testing.assert_allclose(out, cloud.points @ fm.matrix.T, atol=1e-15)

    def test_feature_maps_frozen_and_deterministic(self):
        a = FeatureMap.fixed_mlp(3, out_dim=4, hidden=6, seed=11)
        b = FeatureMap.fixed_mlp(3, out_dim=4, hidden=6, seed=11)
        x = np.array([[0.3, -0.7, 1.1]])
        np.testing.assert_array_equal(a.forward_cloud(x), b.forward_cloud(x))

    @pytest.mark.parametrize(
        "fm",
        [
            pytest.param(FeatureMap.fixed_affine(3, out_dim=4, seed=8), id="fixed_affine-4"),
            pytest.param(FeatureMap.fixed_mlp(3, out_dim=3, hidden=5, seed=8), id="fixed_mlp-3"),
        ],
    )
    def test_jacobian_matches_finite_differences(self, fm):
        rng = SplitMix64.stream(f"fmap_fd_{fm.kind}", 7)
        x, up = rng.normals(3), rng.normals(fm.out_dim)
        ig = fm.backward_cloud(x[None, :], up[None, :])[0]
        fd = finite_diff_grad(lambda xv: float(up @ fm.forward_cloud(xv[None, :])[0]), x)
        assert np.max(np.abs(ig - fd)) / (1.0 + np.max(np.abs(ig))) < 1e-4

    def test_full_chain_gradient_vs_finite_differences(self):
        rng = SplitMix64.stream("chain", 9)
        cloud = rng.normals((10, 2))
        ad = Adapter.mlp1(2, hidden=4, seed=1)
        ad = ad.with_params(ad.params + 0.2 * rng.normals(ad.params.shape))
        fm = FeatureMap.fixed_mlp(2, out_dim=3, hidden=5, seed=2)
        weights = rng.normals((10, 3))  # arbitrary linear functional of the outputs

        def scalar(theta):
            pts = fm.forward_cloud(ad.with_params(theta).forward_cloud(cloud))
            return float(np.sum(weights * pts))

        transformed = ad.forward_cloud(cloud)
        upstream = fm.backward_cloud(transformed, weights)
        analytic, _ = ad.backward_cloud(cloud, upstream)
        numeric = finite_diff_grad(scalar, ad.params)
        assert np.max(np.abs(analytic - numeric)) / (1.0 + np.max(np.abs(analytic))) < 1e-4

    def test_dimension_guard(self):
        rng = SplitMix64.stream("dim_guard", 10)
        source, target = PointCloud(rng.normals((6, 2))), PointCloud(rng.normals((6, 3)))
        cfg = TrainConfig(epochs=1, batch_size=6, learning_rate=0.1, reference_count=2)
        fm = FeatureMap.fixed_affine(2, out_dim=2, seed=0)
        with pytest.raises(ConfigError, match="inconsistent"):
            train(source, target, Adapter.affine(3), fm, cfg)
        wide = FeatureMap.fixed_affine(3, out_dim=4, seed=0)
        with pytest.raises(ConfigError, match="output space"):
            train(source, target, Adapter.affine(3), wide, cfg)
