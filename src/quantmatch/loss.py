"""Reference selection, the quantile-matching loss, and its point gradients.

The loss compares, at a fixed set of reference points drawn from the source
cloud, the quantile index computed against the adapted cloud with the index
precomputed against the source cloud, and averages the squared discrepancy.
It decomposes as a mean of nonlinear functions g_r of per-sample averages of
unit vectors h_r, which is what the memory-bank estimator exploits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (
    COINCIDENCE_EPS,
    DegenerateCloudError,
    DimensionMismatchError,
    PointCloud,
    as_vector,
)
from .rng import SplitMix64

# Reference selection, the loss, the bank's sweep and the minibatch step run
# over blocks of references, whose (d, R, m) unit planes take at most
# BLOCK_BYTES, with at least MIN_BLOCK_REFS references each (one reference
# alone takes row_sums' cumsum path).  Each reference's arithmetic is the same
# in any block, and the gradient rows carry their sums from block to block, so
# the outputs do not depend on the block size.  index_averages runs its
# references on THREADS threads (for_each_block), one contiguous range each,
# cut into blocks of BLOCK_BYTES // THREADS, so the bytes in flight stay
# within one BLOCK_BYTES.
BLOCK_BYTES = 4 << 20
MIN_BLOCK_REFS = 2
THREADS = min(2, len(os.sched_getaffinity(0)))


class Workspace(dict):
    """Named flat buffers that a pass reuses from block to block, so that its blocks map no fresh pages.

    take(name, shape) views the front of the flat buffer `name` in the exact
    shape, contiguous, as a fresh array of that shape would be; the buffer is
    allocated on first use, and again only if a later block needs more.  A
    pass's blocks come largest first, so each of its workspaces allocates
    once.  A view shares its memory with every later take of the same name.
    Each view is kept, so a later take of the same name and shape, as every
    full batch of an epoch's steps makes, returns it without building a new
    one; a buffer that grows drops the views of the old one.
    """

    def __init__(self):
        super().__init__()
        self.views = {}

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        view = self.views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            buf = self.get(name)
            if buf is None or buf.size < size:
                buf = self[name] = np.empty(size, dtype)
                self.views = {key: kept for key, kept in self.views.items() if key[0] != name}
            view = self.views[name, shape] = buf[:size].reshape(shape)
        return view


def reference_blocks(count: int, plane_size: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices of `count` references, each against plane_size = m * d values for m points.

    The cut is the fewest blocks whose unit planes take at most `budget`
    bytes (BLOCK_BYTES when not given), or hold MIN_BLOCK_REFS references
    where the budget holds fewer.  Block sizes differ by at most one, the
    larger blocks first.
    """
    budget = BLOCK_BYTES if budget is None else budget
    size = max(MIN_BLOCK_REFS, budget // (8 * max(plane_size, 1)))
    blocks = -(-count // size)
    if blocks <= 1:  # every pass of a small run: no dearer than a fixed-size slice
        return [slice(0, count)] if blocks else []
    small, extra = divmod(count, blocks)
    starts = [i * small + min(i, extra) for i in range(blocks + 1)]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


def _run_range(fn, start: int, stop: int, plane_size: int, budget: int) -> None:
    """fn(block, work) on each block of references [start, stop), in order, in one new Workspace."""
    work = Workspace()
    for block in reference_blocks(stop - start, plane_size, budget):
        fn(slice(start + block.start, start + block.stop), work)


def for_each_block(fn, count: int, plane_size: int) -> None:
    """Call fn(block, work) on every block of `count` references against plane_size values, on up to THREADS threads.

    With one thread, or references that fit one full block, this is a plain
    loop over reference_blocks(count, plane_size) on the calling thread, in
    one Workspace.  Otherwise [0, count) is cut into THREADS contiguous
    ranges whose sizes differ by at most one; each range runs the same loop
    over its own blocks of BLOCK_BYTES // THREADS, in its own Workspace.  The
    calling thread runs the first range and a pool of THREADS - 1 helpers,
    which lives for the pass, the others.

    fn must write only its own block's slices of its outputs; then the
    outputs do not depend on which thread ran a block, or when.  A range
    stops at its first failing block, and the exception of the lowest
    failing block is raised once every helper has stopped; blocks above it
    may or may not have run.  fn must not reach a site of perfbench's
    tracer, whose span stack is single-threaded: trace the whole pass from
    the calling thread instead.  The exact-W2 helper thread of trainer.train
    is the other place that keeps this rule: it calls oracles.wasserstein2,
    which the tracer does not wrap.
    """
    if THREADS == 1 or len(reference_blocks(count, plane_size)) <= 1:
        _run_range(fn, 0, count, plane_size, BLOCK_BYTES)
        return
    bounds = [count * i // THREADS for i in range(THREADS + 1)]
    budget = BLOCK_BYTES // THREADS
    with ThreadPoolExecutor(THREADS - 1) as pool:
        ranges = zip(bounds[1:-1], bounds[2:])
        helpers = [pool.submit(_run_range, fn, start, stop, plane_size, budget) for start, stop in ranges]
        _run_range(fn, 0, bounds[1], plane_size, budget)  # if it raises, leaving the pool waits for the helpers
        for helper in helpers:
            helper.result()


@dataclass(frozen=True)
class ReferenceSet:
    """Reference points plus their precomputed source quantile indices."""

    quantiles: np.ndarray       # (R, d) reference points
    target_indices: np.ndarray  # (R, d) indices w.r.t. the source cloud

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=float)
        t = np.asarray(self.target_indices, dtype=float)
        if q.shape != t.shape or q.ndim != 2:
            raise DimensionMismatchError("reference quantiles/indices shape mismatch")
        norms = np.linalg.norm(t, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError("target index outside the unit ball")
        object.__setattr__(self, "quantiles", q)
        object.__setattr__(self, "target_indices", t)

    @property
    def count(self) -> int:
        return self.quantiles.shape[0]

    @property
    def dim(self) -> int:
        return self.quantiles.shape[1]


def select_references(
    source: PointCloud,
    count: int,
    seed: int,
    labels=None,
) -> ReferenceSet:
    """Pick reference points uniformly without replacement, class-balanced if labeled.

    Selected indices are sorted ascending so the reference set at count == n
    is independent of the seed.  Indices are precomputed against the source
    cloud once; they are never refreshed during training.
    """
    n = source.n
    if not 1 <= count <= n:
        raise ValueError(f"reference count {count} out of range [1, {n}]")
    rng = SplitMix64.stream("select_references", seed)

    if labels is None:
        chosen = sorted(rng.sample_without_replacement(n, count))
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError("labels must align with the source cloud")
        classes = np.unique(labels)
        if count % len(classes) != 0:
            raise ValueError(f"count {count} not a multiple of {len(classes)} classes")
        share = count // len(classes)
        chosen = []
        for cls in classes:
            pool = np.flatnonzero(labels == cls)
            if len(pool) < share:
                raise ValueError(f"class {cls} has {len(pool)} points, needs {share}")
            picks = rng.sample_without_replacement(len(pool), share)
            chosen.extend(int(pool[p]) for p in picks)
        chosen = sorted(chosen)

    idx = np.asarray(chosen, dtype=int)
    quantiles = source.points[idx].copy()
    # the pass the loss uses, so a loss of exactly zero is attainable when
    # the adapted cloud reproduces the source
    return ReferenceSet(quantiles=quantiles, target_indices=index_averages(source.points, quantiles))


def h_r(x, z_r) -> np.ndarray:
    """Unit vector from x toward the reference z_r."""
    x = as_vector(x)
    z_r = as_vector(z_r)
    if x.shape != z_r.shape:
        raise DimensionMismatchError("h_r: dimension mismatch")
    diff = z_r - x
    dist = float(np.linalg.norm(diff))
    if dist < COINCIDENCE_EPS:
        raise DegenerateCloudError("h_r undefined: x coincides with the reference")
    return diff / dist


def g_r(avg, u_r) -> float:
    """Squared distance of an averaged direction to the target index."""
    avg = as_vector(avg)
    u_r = as_vector(u_r)
    if avg.shape != u_r.shape:
        raise DimensionMismatchError("g_r: dimension mismatch")
    return float(np.sum((avg - u_r) ** 2))


def plane_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, part: np.ndarray | None = None) -> np.ndarray:
    """sum_k a[k] * b[k] over the leading coordinate axis, in coordinate order (numpy adds 8 or more pairwise).

    The sum goes to `out` and each later product to `part` when they are given.
    """
    total = np.multiply(a[0], b[0], out=out)
    for ak, bk in zip(a[1:], b[1:]):
        total += np.multiply(ak, bk, out=part)
    return total


def unit_directions(points: np.ndarray, ref_points: np.ndarray, work: Workspace | None = None):
    """Unit vectors from each point toward each reference, one (R, m) plane per coordinate.

    Returns (units, dist, mask): units is (d, R, m) with zeros where the
    point coincides with the reference (dist < COINCIDENCE_EPS), dist is the
    (R, m) distance and mask marks the pairs that are kept.  The squared
    distance is added up one coordinate at a time, in coordinate order.  The
    three arrays, and the squared distance's partial products, are work's
    "units", "dist", "mask" and "part" buffers (a new Workspace's when not
    given).  Points that are not (m, d) for the references' d raise
    DimensionMismatchError here, the one check the loss and the bank share.
    """
    if points.ndim != 2 or points.shape[1] != ref_points.shape[1]:
        raise DimensionMismatchError(
            f"points of shape {points.shape} do not match references of dimension {ref_points.shape[1]}"
        )
    work = Workspace() if work is None else work
    (m, d), count = points.shape, ref_points.shape[0]
    units = work.take("units", (d, count, m))
    dist = work.take("dist", (count, m))
    mask = work.take("mask", (count, m), bool)
    cols = np.ascontiguousarray(points.T)                        # (d, m)
    np.subtract(ref_points.T[:, :, None], cols[:, None, :], out=units)  # (d, R, m) differences, scaled below
    np.sqrt(plane_dot(units, units, dist, work.take("part", (count, m))), out=dist)
    np.greater_equal(dist, COINCIDENCE_EPS, out=mask)
    if mask.all():
        units /= dist
    else:
        np.divide(units, dist, out=units, where=mask)
        units[:, ~mask] = 0.0
    return units, dist, mask


def row_sums(rows: np.ndarray) -> np.ndarray:
    """(R, d) sums over the points of point-major (d, m, R) units, added in point order.

    numpy adds a contiguous (d, m, R) array's point rows one after another;
    along the contiguous last axis it would add pairwise.
    """
    if rows.shape[2] == 1:  # one reference: its points would be the contiguous axis again
        sums = np.cumsum(rows, axis=1)[:, -1]
    else:
        sums = rows.sum(axis=1)
    return np.ascontiguousarray(sums.T)


def point_sums(units: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """(R, d) sums of the (d, R, m) unit planes over the points, added in point order.

    The planes are copied point-major, to (d, m, R), for row_sums, into
    work's "rows" buffer (a new Workspace's when not given).
    """
    d, count, m = units.shape
    rows = (Workspace() if work is None else work).take("rows", (d, m, count))
    np.copyto(rows, units.transpose(0, 2, 1))
    return row_sums(rows)


def direction_point_grads(
    units: np.ndarray,
    resid: np.ndarray,
    scale: np.ndarray,
    previous: np.ndarray | None = None,
    work: Workspace | None = None,
) -> np.ndarray:
    """-sum_r scale[r, j] * (I - v v^T) resid[r] for v = units[:, r, j], one row per point.

    This is the point gradient of a loss in the residuals of averaged unit
    vectors, since d v / d x_j = -(I - v v^T) / dist_rj.  The caller's (R, m)
    scale carries 1/dist_rj, the averaging weight and the loss's own factor.
    Works one (R, m) coordinate plane at a time; returns an (m, d) array.
    `previous`, this function's result for the earlier reference blocks, is
    carried on: its sums head this block's terms, so the references are still
    added one after another, as in a single block.  The (R, m) dot products,
    their partial products and the terms are work's "dots", "part" and "term"
    buffers (a new Workspace's when not given); "term" always holds a row for
    the carry, so that the carrying blocks reuse the first block's buffer.
    """
    work = Workspace() if work is None else work
    d, count, m = units.shape
    carry = previous is not None
    dots = plane_dot(units, resid.T[:, :, None], work.take("dots", (count, m)), work.take("part", (count, m)))
    if m == 1:
        # numpy adds a lone (R, 1) column pairwise, but an (R, d) block row by row;
        # at d = 1 every term is a zero (the projection off a 1-D unit vector vanishes)
        block = work.take("term", (count + 1, d))[1 - carry :]
        if carry:
            np.negative(previous, out=block[:1])
        for k, plane in enumerate(units):
            _term(plane, dots, resid[:, k, None], scale, block[carry:, k : k + 1])
        return -block.sum(axis=0, keepdims=True)
    grads = np.empty((m, d))
    terms = work.take("term", (count + 1, m))[1 - carry :]
    for k, plane in enumerate(units):
        if carry:
            np.negative(previous[:, k], out=terms[0])
        _term(plane, dots, resid[:, k, None], scale, terms[carry:])
        grads[:, k] = terms.sum(axis=0)
    return np.negative(grads, out=grads)


def _term(plane: np.ndarray, dots: np.ndarray, resid_k: np.ndarray, scale: np.ndarray, out: np.ndarray) -> None:
    """(resid_k - plane * dots) * scale, one coordinate's terms, into `out`."""
    np.multiply(plane, dots, out=out)
    np.subtract(resid_k, out, out=out)
    out *= scale


def kept_counts(mask: np.ndarray) -> np.ndarray:
    """(R,) pairs kept per reference; a reference that coincides with every point raises DegenerateCloudError."""
    if mask.shape[1] and mask.all():  # every pair kept, as on most blocks: no sum
        return np.full(mask.shape[0], mask.shape[1])
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DegenerateCloudError("a reference coincides with every adapted point")
    return counts


def index_averages(points: np.ndarray, ref_points: np.ndarray, visit=None) -> np.ndarray:
    """(R, d) per-reference averaged unit vectors from the points toward each reference.

    Coincident pairs are excluded and each mean renormalized by the surviving
    count.  The references run in blocks through for_each_block, each in its
    range's workspace; visit(block, units, sums, work), when given, then sees
    each block's (d, R_b, m) unit planes, its (R_b, d) point sums and the
    workspace, under for_each_block's rules for fn.  The planes live in the
    workspace, which the range's next block overwrites, so visit must not keep
    them, or anything else it takes from the workspace, after it returns.
    """
    averages = np.empty(ref_points.shape)

    def index_block(block, work):
        units, _, mask = unit_directions(points, ref_points[block], work)
        sums = point_sums(units, work)
        averages[block] = sums / kept_counts(mask)[:, None]
        if visit is not None:
            visit(block, units, sums, work)

    for_each_block(index_block, ref_points.shape[0], points.size)
    return averages


def residual_loss(resid: np.ndarray) -> float:
    """The loss from the (R, d) residuals of the averaged unit vectors against the target indices."""
    return float(np.sum(resid**2, axis=1).mean())


def quantile_loss_on_points(
    points: np.ndarray,
    refs: ReferenceSet,
    want_grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Mean squared index discrepancy over the references, and its point gradients.

    Takes the adapted cloud as a raw (m, d) array; the gradient, one row per
    point, is d(total)/d(point) and is None unless want_grad.  Runs over
    reference blocks, one block's unit planes at a time: index_averages' for
    the loss alone, on its threads; one serial loop that carries the gradient's
    sums from block to block otherwise, in one workspace.
    """
    if not want_grad:
        return residual_loss(index_averages(points, refs.quantiles) - refs.target_indices), None
    resid = np.empty_like(refs.target_indices)                   # (R, d)
    grads = None
    work = Workspace()
    for block in reference_blocks(refs.count, points.size):
        units, dist, mask = unit_directions(points, refs.quantiles[block], work)
        counts = kept_counts(mask)
        resid[block] = point_sums(units, work) / counts[:, None] - refs.target_indices[block]
        if mask.all():  # every pair kept, so every dist is at least COINCIDENCE_EPS
            scale = np.multiply(counts[:, None], dist, out=work.take("scale", dist.shape))
            np.divide(1.0, scale, out=scale)
        else:
            scale = np.where(mask, 1.0 / (counts[:, None] * dist.clip(min=1e-300)), 0.0)
        scale *= 2.0 / refs.count
        grads = direction_point_grads(units, resid[block], scale, grads, work)
    return residual_loss(resid), grads
