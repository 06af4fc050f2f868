import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantmatch import PointCloud, geometric_quantile, geometry, phi, phi_loss, quantile_index
from quantmatch.geometry import (
    COINCIDENCE_EPS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DegenerateCloudError,
    DimensionMismatchError,
    InvalidIndexError,
    SolverReport,
    _check_index,
    as_vector,
)
from quantmatch.rng import SplitMix64


def random_cloud(rng, n, d, scale=1.0):
    return PointCloud(scale * rng.normals((n, d)))


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normals((d, d)))
    return q * np.sign(np.diag(r))


class TestPhi:
    def test_pure_norm(self):
        assert phi([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_boundary_cancellation(self):
        assert phi([1, 0], [-2, 0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert phi([0.5, 0], [2, 0]) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            phi([1, 0], [1, 0, 0])

    def test_nonnegative_inside_ball(self):
        rng = SplitMix64.stream("phi_nonneg", 0)
        for _ in range(200):
            d = 1 + rng.randbelow(6)
            u = rng.normals(d)
            u *= rng.uniform() / max(np.linalg.norm(u), 1e-12)
            t = 3.0 * rng.normals(d)
            assert phi(u, t) >= -1e-12


class TestPhiLoss:
    def test_mean_distance(self):
        cloud = PointCloud([[-1, 0], [1, 0]])
        assert phi_loss(cloud, [0, 0], [0, 0]) == pytest.approx(1.0)

    def test_hand_value(self):
        cloud = PointCloud([[-1, 0], [1, 0]])
        assert phi_loss(cloud, [0, 0], [0, 1]) == pytest.approx(np.sqrt(2.0))

    def test_median_minimizes_among_cloud_points(self):
        rng = SplitMix64.stream("phi_loss_min", 1)
        cloud = random_cloud(rng, 30, 3)
        u = np.zeros(3)
        median = geometric_quantile(cloud, u).quantile
        at_median = phi_loss(cloud, u, median)
        for z in cloud.points:
            assert at_median <= phi_loss(cloud, u, z) + 1e-12

    def test_convex_along_segments(self):
        rng = SplitMix64.stream("phi_loss_convex", 2)
        cloud = random_cloud(rng, 25, 4)
        u = rng.normals(4)
        u *= 0.8 / np.linalg.norm(u)
        for _ in range(10):
            q0, q1 = 2.0 * rng.normals(4), 2.0 * rng.normals(4)
            mid = 0.5 * (q0 + q1)
            lhs = phi_loss(cloud, u, mid)
            rhs = 0.5 * (phi_loss(cloud, u, q0) + phi_loss(cloud, u, q1))
            assert lhs <= rhs + 1e-12


class TestQuantileIndex:
    def test_symmetric_pair(self):
        cloud = PointCloud([[-1, 0], [1, 0]])
        np.testing.assert_allclose(quantile_index(cloud, [0, 0]), [0, 0], atol=1e-15)

    def test_on_support_exclusion(self):
        cloud = PointCloud([[0, 0], [4, 0]])
        np.testing.assert_allclose(quantile_index(cloud, [4, 0]), [1, 0], atol=1e-15)

    def test_square_center(self):
        cloud = PointCloud([[0, 0], [2, 0], [0, 2], [2, 2]])
        np.testing.assert_allclose(quantile_index(cloud, [1, 1]), [0, 0], atol=1e-15)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateCloudError):
            # both cloud points coincide with the probe after exclusion
            quantile_index(PointCloud([[1.0, 1.0], [1.0, 1.0 + 5e-13]]), [1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_ball_bound(self, seed):
        rng = SplitMix64(seed)
        n = 2 + rng.randbelow(40)
        d = 1 + rng.randbelow(8)
        pts = rng.normals((n, d))
        pts[1] += 1.0  # guard against an all-identical draw
        cloud = PointCloud(pts)
        z = 3.0 * rng.normals(d)
        assert np.linalg.norm(quantile_index(cloud, z)) <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_translation_equivariance(self, seed):
        rng = SplitMix64(seed)
        d = 1 + rng.randbelow(6)
        cloud = PointCloud(rng.normals((12, d)))
        z = rng.normals(d)
        c = 5.0 * rng.normals(d)
        lhs = quantile_index(PointCloud(cloud.points + c), z + c)
        rhs = quantile_index(cloud, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthogonal_equivariance(self):
        rng = SplitMix64.stream("ortho", 3)
        for _ in range(100):
            d = 2 + rng.randbelow(6)
            cloud = random_cloud(rng, 15, d)
            z = rng.normals(d)
            rot = random_orthogonal(rng, d)
            lhs = quantile_index(PointCloud(cloud.points @ rot.T), rot @ z)
            rhs = rot @ quantile_index(cloud, z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_positive_scale_invariance(self):
        rng = SplitMix64.stream("scale", 4)
        for _ in range(100):
            d = 1 + rng.randbelow(6)
            cloud = random_cloud(rng, 15, d)
            z = rng.normals(d)
            s = 0.1 + 10.0 * rng.uniform()
            lhs = quantile_index(PointCloud(s * cloud.points), s * z)
            rhs = quantile_index(cloud, z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestGeometricQuantile:
    def test_square_median(self):
        cloud = PointCloud([[0, 0], [2, 0], [0, 2], [2, 2]])
        rep = geometric_quantile(cloud, [0, 0])
        np.testing.assert_allclose(rep.quantile, [1, 1], atol=1e-8)
        assert rep.converged

    def test_grid_search_oracle_1d(self):
        # 101 equispaced points on [0, 1]; minimizer located by grid search
        pts = np.linspace(0.0, 1.0, 101)
        cloud = PointCloud(pts[:, None])
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        oracle = grid[int(np.argmin([phi_loss(cloud, [0.5], [g]) for g in grid]))]
        rep = geometric_quantile(cloud, [0.5])
        assert abs(rep.quantile[0] - oracle) <= 1e-4
        assert abs(rep.quantile[0] - np.quantile(pts, 0.75)) <= 0.01 + 1e-12

    def test_roundtrip_fixed_point(self):
        rng = SplitMix64.stream("roundtrip", 5)
        cloud = random_cloud(rng, 40, 3)
        u = np.array([0.2, -0.1, 0.3])
        rep = geometric_quantile(cloud, u)
        assert np.linalg.norm(quantile_index(cloud, rep.quantile) - u) < 1e-6

    def test_fixed_point_random_instances(self):
        rng = SplitMix64.stream("fixed_point", 8)
        for _ in range(60):
            n = 10 + rng.randbelow(191)
            d = 2 + rng.randbelow(15)
            cloud = random_cloud(rng, n, d)
            direction = rng.normals(d)
            direction /= np.linalg.norm(direction)
            u = 0.9 * rng.uniform() * direction
            rep = geometric_quantile(cloud, u)
            assert rep.residual <= 1e-6, (n, d, rep.residual)

    def test_one_dim_reduction_sort_oracle(self):
        # the Hessian vanishes in one dimension, and is singular on the line of a collinear
        # cloud when u lies along it: every step is a Weiszfeld step
        rng = SplitMix64.stream("oneD", 2)
        for _ in range(5):
            sample = np.sort(rng.normals(60) * 2.0)
            line = np.stack([sample, 0.0 * sample], axis=1)
            for cloud, u in itertools.product((PointCloud(sample[:, None]), PointCloud(line)), (-0.8, -0.5, 0.0, 0.5, 0.8)):
                rep = geometric_quantile(cloud, [u] + [0.0] * (cloud.dim - 1))
                assert rep.converged
                assert rep.weiszfeld_steps == rep.iterations - 1
                assert np.all(rep.quantile[1:] == 0.0)
                p = (1.0 + u) / 2.0
                emp = np.quantile(sample, p)
                k = int(np.clip(np.floor(p * (len(sample) - 1)), 0, len(sample) - 2))
                gap = sample[min(k + 2, len(sample) - 1)] - sample[max(k - 1, 0)]
                assert abs(rep.quantile[0] - emp) <= gap

    def test_monotone_loss_history(self):
        rng = SplitMix64.stream("monotone", 7)
        for _ in range(10):
            cloud = random_cloud(rng, 20, 2)
            u = rng.normals(2)
            u *= 0.7 * rng.uniform() / np.linalg.norm(u)
            rep = geometric_quantile(cloud, u, track_losses=True)
            hist = np.asarray(rep.loss_history)
            assert np.all(hist[1:] <= hist[:-1] + 1e-12)

    def test_invalid_index_rejected(self):
        cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
        with pytest.raises(InvalidIndexError):
            geometric_quantile(cloud, [1.0, 0.0])

    def test_on_support_snap(self):
        # index taken exactly at a data point's own index: that point is optimal
        cloud = PointCloud([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [5.0, 5.0]])
        u = quantile_index(cloud, cloud.points[3])
        rep = geometric_quantile(cloud, 0.999 * u)
        assert rep.on_support
        np.testing.assert_allclose(rep.quantile, cloud.points[3], atol=0)

    @pytest.mark.parametrize("u, on_support", [((0.3, 0.1), True), ((0.5, 0.3), False)])
    def test_repeated_data_point(self, u, on_support):
        # the solve starts at the mean (0, 0), which the cloud holds twice:
        # both copies drop out of the pull, and its ball widens to radius 2
        cloud = PointCloud([[0, 0], [0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
        u = np.asarray(u)
        rep = geometric_quantile(cloud, u)
        assert rep.on_support == on_support
        grid = np.stack(np.meshgrid(*[np.linspace(-1.5, 1.5, 301)] * 2), axis=-1).reshape(-1, 1, 2)
        offsets = cloud.points - grid
        brute = np.min(np.mean(np.linalg.norm(offsets, axis=2) + offsets @ u, axis=1))
        assert phi_loss(cloud, u, rep.quantile) <= brute + 1e-12
        if on_support:
            # the certificate: the pull of the other points lies in the ball of the two dropped terms
            away = np.linalg.norm(cloud.points - rep.quantile, axis=1) >= COINCIDENCE_EPS
            diff = rep.quantile - cloud.points[away]
            pull = diff.T.dot(1.0 / np.linalg.norm(diff, axis=1)) - cloud.n * u
            assert np.count_nonzero(~away) == 2
            assert np.linalg.norm(pull) <= 2.0
        else:
            assert rep.converged


def verify_draws(seed):
    """The (cloud, u) draws of `quantmatch verify inverse-map --seed seed`, in order."""
    rng = SplitMix64.stream("verify_inverse", seed)
    while True:
        n = 10 + rng.randbelow(191)
        d = 2 + rng.randbelow(15)
        cloud = PointCloud(rng.normals((n, d)))
        direction = rng.normals(d)
        direction /= np.linalg.norm(direction)
        yield cloud, (0.9 * rng.uniform()) * direction


def reference_quantile(cloud, u, track_losses=False):
    """The damped Weiszfeld solver as it was before Newton steps and shared distances: every loss from the public phi_loss."""
    pts = cloud.points
    n, d = pts.shape
    u = as_vector(u)
    if u.shape[0] != d:
        raise DimensionMismatchError("geometric_quantile: dimension mismatch")
    _check_index(u, open_ball=True)

    q = pts.mean(axis=0)
    loss = phi_loss(cloud, u, q)
    losses = [loss] if track_losses else None
    on_support = False
    iterations = 0

    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        diff = q - pts
        dist = np.linalg.norm(diff, axis=1)
        nearest = int(np.argmin(dist))

        if dist[nearest] < COINCIDENCE_EPS:
            # the pull as it was before repeated points were dropped with point r
            others = pts[np.arange(n) != nearest]
            inv = 1.0 / np.linalg.norm(pts[nearest] - others, axis=1)
            pull = (pts[nearest] - others).T.dot(inv) - n * u
            pull_norm, inv_sum = float(np.linalg.norm(pull)), float(inv.sum())
            if pull_norm <= 1.0:
                q = pts[nearest].copy()
                on_support = True
                break
            step = (pull_norm - 1.0) / inv_sum
            candidate = pts[nearest] - step * pull / pull_norm
            cand_loss = phi_loss(cloud, u, candidate)
            while cand_loss > loss and step > 1e-18:
                step *= 0.5
                candidate = pts[nearest] - step * pull / pull_norm
                cand_loss = phi_loss(cloud, u, candidate)
            q, loss = candidate, cand_loss
            if losses is not None:
                losses.append(loss)
            continue

        grad = diff.T.dot(1.0 / dist) / n - u
        if np.linalg.norm(grad) <= DEFAULT_TOL:
            break

        weights = 1.0 / dist
        candidate = (pts.T.dot(weights) + n * u) / weights.sum()
        cand_loss = phi_loss(cloud, u, candidate)
        slack = 4.0 * np.finfo(float).eps * max(1.0, abs(loss))
        if cand_loss > loss + slack:
            step = float(np.linalg.norm(candidate - q))
            candidate = q - step * grad
            cand_loss = phi_loss(cloud, u, candidate)
            while cand_loss > loss + slack and step > 1e-18:
                step *= 0.5
                candidate = q - step * grad
                cand_loss = phi_loss(cloud, u, candidate)
            if cand_loss > loss + slack:
                break
        q, loss = candidate, cand_loss
        if losses is not None:
            losses.append(loss)

    residual = float(np.linalg.norm(quantile_index(cloud, q) - u))
    return SolverReport(
        quantile=q,
        iterations=iterations,
        residual=residual,
        converged=residual <= DEFAULT_TOL,
        on_support=on_support,
        loss_history=tuple(losses) if losses is not None else None,
    )


def assert_agrees_with_reference(cloud, u, got, want):
    """The Newton solve and the Weiszfeld reference reach the same quantile by different iterations.

    The bounds are set from the 300 verify draws: the worst index residual
    read 9.79e-9 where the reference converged, the worst loss gap 5.81 ulps
    of max(1, |loss|) and the worst distance between the answers 4.8e-8 of
    max(1, ||answer||).
    """
    assert got.on_support == want.on_support
    if want.converged:
        assert np.linalg.norm(quantile_index(cloud, got.quantile) - u) <= 1e-8
    loss, want_loss = phi_loss(cloud, u, got.quantile), phi_loss(cloud, u, want.quantile)
    assert abs(loss - want_loss) <= 8.0 * np.finfo(float).eps * max(1.0, abs(want_loss))
    assert np.linalg.norm(got.quantile - want.quantile) <= 1e-6 * max(1.0, np.linalg.norm(want.quantile))
    if not got.on_support:
        # the loop's last loss comes from the distances it shares between steps
        assert got.loss_history[-1] == loss


class TestSolverOracle:
    """The Newton solver against the Weiszfeld reference: the same answers, in at most 0.35 of its iterations."""

    def test_verify_draws_match_reference(self):
        iterations = reference_iterations = 0
        for cloud, u in itertools.islice(verify_draws(0), 300):
            got, want = geometric_quantile(cloud, u, track_losses=True), reference_quantile(cloud, u, True)
            assert_agrees_with_reference(cloud, u, got, want)
            iterations += got.iterations
            reference_iterations += want.iterations
        # 1597 against 6663 when this bound was set
        assert iterations <= 0.35 * reference_iterations

    def test_step_off_a_data_point_matches_reference(self):
        # the solve starts at the mean (0, 0), a data point whose pull has norm 4.5 > 1
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        u = np.array([0.9, 0.0])
        got = geometric_quantile(cloud, u, track_losses=True)
        want = reference_quantile(cloud, u, True)
        assert not got.on_support
        assert got.loss_history[1] < got.loss_history[0]
        assert got.loss_history[:2] == want.loss_history[:2]  # the step off the point is unchanged
        assert_agrees_with_reference(cloud, u, got, want)

    def test_overflowing_cloud_solves_scaled_down(self):
        # squared distances of this cloud overflow; it is solved scaled by 2^-e and its answer scaled back
        rng = SplitMix64.stream("overflow", 0)
        cloud = PointCloud(1e200 * rng.normals((20, 3)))
        u = np.array([0.3, 0.0, 0.1])
        e = int(np.frexp(np.max(np.abs(cloud.points)))[1])
        got = geometric_quantile(cloud, u, track_losses=True)
        want = geometric_quantile(PointCloud(np.ldexp(cloud.points, -e)), u, track_losses=True)
        assert got.converged
        assert got.quantile.tobytes() == np.ldexp(want.quantile, e).tobytes()
        assert got.loss_history == tuple(np.ldexp(want.loss_history, e))


class TestSolverCounters:
    """weiszfeld_steps counts what the solver did, and an uphill candidate stops the solve; an uphill trial loss is forced by inflating _loss_at."""

    @staticmethod
    def solve_with_uphill_calls(monkeypatch, cloud, u, uphill):
        real, calls = geometry._loss_at, []

        def inflated(pts, u, q):
            calls.append(q)
            loss, diff, dist = real(pts, u, q)
            return (loss + 1.0 if len(calls) in uphill else loss), diff, dist

        monkeypatch.setattr(geometry, "_loss_at", inflated)
        return geometric_quantile(cloud, u, track_losses=True), calls

    def test_plain_solve_counts_nothing(self):
        rep = geometric_quantile(PointCloud(SplitMix64.stream("counters", 0).normals((30, 3))), [0.2, -0.1, 0.3])
        assert rep.weiszfeld_steps == 0

    def test_uphill_weiszfeld_candidate_stalls(self, monkeypatch):
        cloud = PointCloud(SplitMix64.stream("counters", 0).normals((30, 3)))
        # call 1 is the loss at the mean, 2 the first Newton candidate, 3 the Weiszfeld candidate
        rep, calls = self.solve_with_uphill_calls(monkeypatch, cloud, np.array([0.2, -0.1, 0.3]), uphill=(2, 3))
        assert len(calls) == 3
        assert (rep.iterations, rep.weiszfeld_steps, len(rep.loss_history)) == (1, 1, 1)
        assert rep.quantile.tobytes() == cloud.points.mean(axis=0).tobytes()
        assert not rep.on_support and not rep.converged

    def test_uphill_step_off_a_data_point_stalls(self, monkeypatch):
        # the solve starts at the mean (0, 0), a data point whose pull has norm 4.5 > 1; call 2 is the step off it
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        rep, calls = self.solve_with_uphill_calls(monkeypatch, cloud, np.array([0.9, 0.0]), uphill=(2,))
        assert len(calls) == 2
        assert (rep.iterations, rep.weiszfeld_steps, len(rep.loss_history)) == (1, 0, 1)
        assert np.all(rep.quantile == 0.0)
        assert not rep.on_support and not rep.converged

    @pytest.mark.parametrize("solve", ["infinite", "singular"])
    def test_failed_newton_solve_takes_weiszfeld_steps(self, monkeypatch, solve):
        def failed(a, b):
            if solve == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.inf)

        monkeypatch.setattr(np.linalg, "solve", failed)
        cloud = PointCloud(SplitMix64.stream("counters", 0).normals((30, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = geometric_quantile(cloud, [0.2, -0.1, 0.3])
        # every step but the last iteration's convergence test is Weiszfeld's
        assert rep.weiszfeld_steps == rep.iterations - 1 > 0
        assert rep.converged


class TestNearSnap:
    """A rejected Newton step next to a data point that is the exact minimizer snaps there.

    Without the snap, Weiszfeld closes in on such a point linearly: seed 0
    draw 217 took 100 iterations, and seed 4 draw 438 stopped at the cap,
    unconverged, next to the point.
    """

    @pytest.mark.parametrize("seed, draw", [(0, 217), (4, 438)])
    def test_verify_draw_ends_on_support(self, seed, draw):
        cloud, u = next(itertools.islice(verify_draws(seed), draw, None))
        rep = geometric_quantile(cloud, u)
        assert rep.on_support
        assert rep.iterations <= 5
        # the certificate: the answer is a data point whose pull lies in the unit subgradient ball
        away = np.linalg.norm(cloud.points - rep.quantile, axis=1) >= COINCIDENCE_EPS
        assert np.count_nonzero(~away) == 1
        diff = rep.quantile - cloud.points[away]
        assert np.linalg.norm(diff.T.dot(1.0 / np.linalg.norm(diff, axis=1)) - cloud.n * u) <= 1.0


class TestPointCloud:
    def test_rejects_identical_points(self):
        with pytest.raises(DegenerateCloudError):
            PointCloud([[1, 2], [1, 2]])

    def test_rejects_single_point(self):
        with pytest.raises(DegenerateCloudError):
            PointCloud([[1, 2]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud([[np.nan, 0], [1, 2]])
