"""Covers, packing bounds, cutoff fields and their integrals."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spherestab import cutoff as cut
from spherestab import geometry as geo
from spherestab import sampling as smp
from spherestab.errors import (
    BudgetInfeasible,
    PreconditionViolated,
    UnsupportedFamily,
)
from spherestab.fields import (
    AmbientCoordinateField,
    ConstantField,
    surface_laplacian,
    tangential_gradient_sq,
)
from spherestab.sampling import ZERO_ESTIMATE, nearest_chart_point, stratified_integral

import oracles


# ---------------------------------------------------------------------------
# cover construction
# ---------------------------------------------------------------------------

def test_cover_single_point_uses_budget():
    cov = cut.cover_singular_set(np.array([[1.0, 0, 0, 0, 0, 0]]), n=4, q=2, epsilon=0.1)
    # uniform split of 90% of the budget: r = (0.9 * 0.1)^(1/2) = 0.3
    assert cov.size == 1
    assert abs(cov.radii[0] - 0.3) <= 1e-12
    assert cov.radii[0] ** 2 < 0.1
    assert cov.budget_sum < 0.1


def test_cover_empty_set():
    cov = cut.cover_singular_set(None, 2, 1, 0.1)
    assert cov.size == 0 and cov.budget_sum < 0.1
    field = cut.build_inf_cutoff(cov)
    X = np.eye(4)
    assert np.all(field.value(X) == 1.0)
    assert np.all(field.ambient_gradient(X) == 0.0)


def test_cover_ten_separated_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 9))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cov = cut.cover_singular_set(pts, n=7, q=4, epsilon=0.01)
    assert cov.size == 10
    assert np.all(cov.radii**3 < 1e-3)
    assert np.all(cov.radii < 0.1)
    assert cov.budget_sum < 0.01


def test_cover_budget_infeasible():
    pts = np.eye(4)[:3]
    with pytest.raises(BudgetInfeasible):
        cut.cover_singular_set(pts, n=2, q=1, epsilon=0.001, r_min=0.01)
    with pytest.raises(BudgetInfeasible, match="epsilon must exceed the cluster count"):
        cut.cover_singular_set(pts, n=2, q=2, epsilon=0.1)  # q = n: sum r^0 = count >= epsilon
    with pytest.raises(BudgetInfeasible, match="epsilon must exceed the cluster count"):
        cut.cover_singular_set(pts, n=2, q=2, epsilon=3.0, r_min=1e-9)  # r_min cannot help
    assert cut.cover_singular_set(pts, n=2, q=2, epsilon=3.5).budget_sum == 3.0
    for points in (pts, None):  # q > n: refused up front, the empty set too
        with pytest.raises(BudgetInfeasible, match=r"^exponent q=3 > n=2: "):
            cut.cover_singular_set(points, n=2, q=3, epsilon=100.0)


def _arc(count, step):
    """``count`` points of a great circle of S^3, ``step`` radians apart: one linked chain."""
    t = step * np.arange(count)
    return np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=-1)


@pytest.mark.parametrize("kwargs, error, match", [
    ({"epsilon": 0.0}, ValueError, "epsilon must be positive"),
    ({"epsilon": -1.0}, ValueError, "epsilon must be positive"),
    # a chain 0.735 rad long: its one ball alone spends the budget
    ({"points": _arc(50, 0.015)}, BudgetInfeasible, r"^sum r\^\(n-q\) = "),
    # a chain 2.2 rad long: its one ball needs radius >= 1
    ({"points": _arc(150, 0.015)}, BudgetInfeasible, "radius >= 1"),
], ids=["epsilon 0", "epsilon < 0", "budget spent", "radius >= 1"])
def test_cover_refusals(kwargs, error, match):
    args = {"points": np.eye(4)[:1], "n": 2, "q": 1, "epsilon": 0.1, "r_min": 0.01, **kwargs}
    with pytest.raises(error, match=match):
        cut.cover_singular_set(**args)


def test_cover_budget_invariant_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        pts = rng.normal(size=(m, 5))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        n, q = 3, float(rng.uniform(0.5, 2.5))
        eps = float(rng.uniform(0.05, 0.5))
        try:
            cov = cut.cover_singular_set(pts, n, q, eps)
        except BudgetInfeasible:
            continue
        assert cov.budget_sum < eps
        assert np.all(cov.radii < 1.0)
        assert cut.covers_points(cov, 1.0)


def test_point_cloud_roundtrip(tmp_path):
    path = tmp_path / "sing.txt"
    path.write_text("# synthetic singular set\n1.0 0.0 0.0 0.0\n0.0 1.0 0.0 0.0\n")
    pts = cut.load_point_cloud(path)
    assert pts.shape == (2, 4)
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.2)
    assert cov.size == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 0.0\n1.0 0.0 0.0\n")
    with pytest.raises(ValueError):
        cut.load_point_cloud(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert cut.load_point_cloud(empty).size == 0


def test_cover_clusters_nearby_points():
    pts = np.array([[1.0, 0, 0, 0], [1.0, 1e-4, 0, 0], [0, 1, 0, 0]])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.2, r_min=1e-3)
    assert cov.size == 2  # first two merge
    assert cut.covers_points(cov, 1.0)


def test_linkage_and_discard_match_loop_reference():
    # union-find linkage, as first written
    def linkage_loop(points, link, dist):
        parent = list(range(len(points)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(len(points)):
            for j in np.flatnonzero(dist(points, points[i]) <= link):
                parent[find(i)] = find(int(j))
        groups = {}
        for i in range(len(points)):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values(), key=lambda ix: ix[0])

    rng = np.random.default_rng(23)
    for trial in range(12):
        pts = sphere_cloud(int(rng.integers(1, 120)), seed=trial)
        if trial % 2:
            pts = pts[:1] + 0.1 * pts  # clustered cloud
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for metric in ("geodesic", "euclidean"):
            dist = geo._distance(metric)
            link = rng.uniform(0.02, 0.4)
            got = [list(ix) for ix in cut._single_linkage(pts, link, dist)]
            assert got == linkage_loop(pts, link, dist)

    def arc(order, step=0.01):
        # points on a great circle, step apart in the given index order
        t = np.empty(len(order))
        t[order] = step * np.arange(len(order))
        return np.column_stack([np.cos(t), np.sin(t), np.zeros((len(t), 2))])

    for pts, link in [
        (sphere_cloud(300, seed=12), 0.3),  # components across the 256-row chunks
        (arc(np.arange(60)[::-1]), 0.015),  # a chain linked in decreasing index order
        (np.vstack([arc(rng.permutation(150)), -arc(rng.permutation(150))]), 0.015),
    ]:
        for metric in ("geodesic", "euclidean"):
            dist = geo._distance(metric)
            got = [list(ix) for ix in cut._single_linkage(pts, link, dist)]
            assert got == linkage_loop(pts, link, dist)


# ---------------------------------------------------------------------------
# packing bounds
# ---------------------------------------------------------------------------

def test_intersection_bound_tight_intervals():
    centers = np.array([[1.0], [3.0], [5.0]])
    max_degree, bound = oracles.intersection_bound_check(centers, np.ones(3), 1, 1)
    assert max_degree == 2 and bound == 2.0
    # no balls: degree 0 against (3 alpha beta)^N - 1 = 9^3 - 1
    assert oracles.intersection_bound_check(np.empty((0, 3)), np.empty(0), 2, 1.5) == (0, 728.0)


def test_intersection_bound_preconditions():
    with pytest.raises(PreconditionViolated):  # overlapping sub-balls
        oracles.intersection_bound_check(np.array([[0.0], [0.5]]), np.ones(2), 1, 1)
    with pytest.raises(PreconditionViolated):  # radii not comparable
        oracles.intersection_bound_check(np.array([[0.0], [9.0]]), np.array([1.0, 3.0]), 1, 2)


def random_admissible_family(rng, N, alpha, beta, max_balls=12):
    m_target = int(rng.integers(3, max_balls + 1))
    radii_pool = rng.uniform(1.0, beta, size=m_target * 60)
    L = (m_target ** (1.0 / N)) * (2.0 * beta / alpha) * 1.6
    pool = rng.uniform(0.0, L, size=(m_target * 60, N))
    centers, radii = [], []
    for cand, r in zip(pool, radii_pool):
        if all(np.linalg.norm(cand - c) >= (r + rc) / alpha for c, rc in zip(centers, radii)):
            centers.append(cand)
            radii.append(r)
            if len(centers) == m_target:
                break
    return np.array(centers), np.array(radii)


def test_intersection_bound_random_sample():
    # quick slice of the property suite; the full 10^3-per-combination run
    # lives in the acceptance tests
    rng = np.random.default_rng(5)
    for N in (1, 2, 3):
        for alpha in (1, 2, 3):
            for beta in (1, 2):
                for _ in range(40):
                    centers, radii = random_admissible_family(rng, N, alpha, beta)
                    deg, bound = oracles.intersection_bound_check(centers, radii, alpha, beta)
                    assert deg <= bound
                    if (N, alpha, beta) == (2, 3, 2):
                        assert bound == 323.0  # 18^2 - 1


def test_cover_checks_match_loop_reference():
    # a per-point loop, as the check was first written
    def covers_loop(cov, factor):
        dist = geo._distance(cov.metric)
        return all(np.any(dist(cov.centers, p) <= factor * cov.radii + 1e-12) for p in cov.points)

    rng = np.random.default_rng(17)
    pts = sphere_cloud(80, seed=17)
    for metric in ("geodesic", "euclidean"):
        centers = sphere_cloud(40, seed=18)
        cov = cut.BallCover(centers, rng.uniform(0.1, 0.5, 40), 2, 1, 1e9, metric, points=pts)
        for factor in (1.0, 2.0, 3.0):  # False, False, True on both metrics
            assert cut.covers_points(cov, factor) == covers_loop(cov, factor)
    empty = cut.empty_cover(2, 1, 1.0, ambient_dim=4)
    assert cut.covers_points(empty, 1.0)                        # no points to cover
    no_balls = cut.BallCover(empty.centers, empty.radii, 2, 1, 1.0, points=pts)
    assert not cut.covers_points(no_balls, 1.0)
    unrecorded = cut.BallCover(empty.centers, empty.radii, 2, 1, 1.0)  # built without points
    assert unrecorded.points is None and cut.covers_points(unrecorded, 1.0)


def _cover_centers_loop(points, clusters, metric, factor):
    # centres and containment radii one cluster at a time, as the cover first built them
    dist = geo._distance(metric)
    centers, need = [], []
    for idx in clusters:
        c = points[idx].mean(axis=0)
        if metric == "geodesic":
            c = c / np.linalg.norm(c)
        centers.append(c)
        spread = float(np.max(dist(points[idx], c))) if len(idx) > 1 else float(dist(points[idx][0], c))
        need.append(factor * spread * (1.0 + 1e-9))
    return np.array(centers), np.array(need)


@pytest.mark.parametrize("metric", ["geodesic", "euclidean"])
def test_singleton_cover_matches_cluster_loop(metric):
    # the batched cluster sums give the loop's centres and radii bit for bit
    # (signs of zero included), on singleton and multi-point clusters
    torus = geo.clifford_hypersurface((1, 1))
    U = np.random.default_rng(61).uniform(0.0, 2 * math.pi, size=(150, 2))
    U[:20, 0] = 0.0                      # exact zero coordinates
    U[20:30, 0] = -0.0                   # ... and negative zeros
    U[30:40, 1] = math.pi
    pair = torus.chart.embed(np.array([[-0.0, 1.0], [-0.0, 1.001]]))
    assert np.all(np.signbit(pair[:, 1]) & (pair[:, 1] == 0.0))   # a shared -0.0 coordinate
    pts = torus.chart.embed(U)
    near = pts[40:46] + 2e-4
    near /= np.linalg.norm(near, axis=1, keepdims=True)  # back onto the sphere
    pts = np.vstack([pts, near, pair])  # seven two-point clusters
    for containment, factor in (("full", 1.0), ("half", 2.0)):
        cover = cut.cover_singular_set(pts, 2, 1, 10.0, r_min=1e-3, metric=metric,
                                       containment=containment)
        clusters = cut._single_linkage(pts, 2e-3, geo._distance(metric))
        assert sum(len(idx) == 1 for idx in clusters) == 144 and len(clusters) == 151
        centers, need = _cover_centers_loop(pts, clusters, metric, factor)
        pair_at = next(i for i, idx in enumerate(clusters) if 156 in idx)
        assert list(clusters[pair_at]) == [156, 157]
        assert centers[pair_at, 1] == 0.0 and not np.signbit(centers[pair_at, 1])  # mean's +0.0
        radii = np.maximum(np.maximum(need, 1e-3), min(cut.BUDGET_SHARE * 10.0 / 151, 0.95))
        assert np.array_equal(cover.centers, centers)
        assert np.array_equal(np.signbit(cover.centers), np.signbit(centers))
        assert np.array_equal(cover.radii, radii)


def test_cover_rejects_unknown_metric():
    with pytest.raises(ValueError):
        cut.BallCover(np.zeros((1, 4)), np.array([0.1]), 2, 1, 1.0, "chord")


def test_cover_rejects_unknown_containment():
    # two torus points 1.5e-3 apart in the chart (chord 1.0607e-3): the half
    # cover holds them in B(p, r/2), and a misspelt containment must not
    # quietly build the full cover (radius 0.00099 = 0.9 epsilon, and the
    # points leave the half-balls)
    pts = geo.clifford_hypersurface((1, 1)).chart.embed([[0.3, 1.0], [0.3, 1.0015]])
    cover = cut.cover_singular_set(pts, 2, 1, 0.0011, r_min=6e-4, metric="euclidean", containment="half")
    assert abs(cover.radii[0] - 0.0010607) <= 1e-6 and cut.covers_points(cover, 0.5)
    full = cut.cover_singular_set(pts, 2, 1, 0.0011, r_min=6e-4, metric="euclidean")
    assert abs(full.radii[0] - 0.00099) <= 1e-12 and not cut.covers_points(full, 0.5)
    for containment in ("Half", "sixth", ""):
        with pytest.raises(ValueError, match="unknown containment"):
            cut.cover_singular_set(pts, 2, 1, 0.0011, r_min=6e-4, metric="euclidean",
                                   containment=containment)


# ---------------------------------------------------------------------------
# cutoff fields
# ---------------------------------------------------------------------------

def one_ball_cover(radius, metric, n=2):
    center = np.zeros(4)
    center[0] = 1.0
    return cut.BallCover(center[None], np.array([radius]), n, 1.0, 1.0, metric,
                         points=center[None])


def sphere_cloud(count, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(count, 4))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _every_ball(field, X):
    # (d, grad d, r, ramp value, slope) over every ball of the cover, the
    # table the field's public methods evaluate
    return field._table_ramps(X, np.arange(field.cover.size), False)


def test_inf_cutoff_one_ball_profile():
    field = cut.build_inf_cutoff(one_ball_cover(0.2, "geodesic"))
    t = 0.3  # geodesic distance = 1.5 r: midpoint of the ramp
    x = np.array([[math.cos(t), math.sin(t), 0.0, 0.0]])
    assert abs(field.value(x)[0] - 0.5) <= 1e-12


def test_inf_cutoff_invariants():
    r = 0.25
    field = cut.build_inf_cutoff(one_ball_cover(r, "geodesic"))
    X = sphere_cloud(4000, seed=1)
    vals = field.value(X)
    d = geo.geodesic_distance(X, field.cover.centers[0])
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[d <= r] == 0.0)
    assert np.all(vals[d >= 2 * r] == 1.0)
    grads = np.linalg.norm(field.ambient_gradient(X), axis=1)
    # |grad phi| <= 2/r on the annulus (the linear ramp has slope 1/r; the
    # chord-arc correction stays below 2/r for r < 1)
    assert np.all(grads <= 2.0 / r + 1e-12)


def test_inf_cutoff_multi_ball_slope_bound(torus):
    _, pts = geo.sample_points(torus, 4, seed=6)
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.3)
    field = cut.build_inf_cutoff(cov)
    X = sphere_cloud(5000, seed=2)
    grads = np.linalg.norm(field.ambient_gradient(X), axis=1)
    assert np.all(grads <= np.max(2.0 / cov.radii) + 1e-12)
    # the active ramp's value is phi itself, bit for bit, and its ball is
    # the active index
    every = np.arange(cov.size)
    assert np.array_equal(field._active_ramp(X, every, False)[1], field.value(X))
    assert np.array_equal(field.active_index(X), field._active_ramp(X, every, False)[0])


def test_product_cutoff_profile_sets():
    r = 0.3
    field = cut.build_product_cutoff(one_ball_cover(r, "euclidean"))
    X = sphere_cloud(4000, seed=3)
    d = geo.chord_distance(X, field.cover.centers[0])
    vals = field.value(X)
    assert np.all(vals[d <= r / 2] == 0.0)
    assert np.all(vals[d >= r] == 1.0)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    with pytest.raises(UnsupportedFamily, match="inf kind"):  # no single active ball
        field.active_index(X)


def test_product_cutoff_c0_bound():
    # |D phi|^2 + |D^2 phi| <= C0 r^-2 at 10^4 sampled points
    r = 0.2
    field = cut.build_product_cutoff(one_ball_cover(r, "euclidean"))
    X = sphere_cloud(10_000, seed=4)
    grads = field.ambient_gradient(X)
    hess = field.ambient_hessian(X)
    total = np.sum(grads**2, axis=1) + np.linalg.norm(hess, ord=2, axis=(1, 2))
    assert np.all(total <= field.C0 / r**2 * (1.0 + 1e-9))


def test_product_cutoff_derivatives_match_fd():
    field = cut.build_product_cutoff(
        cut.BallCover(
            np.array([[1.0, 0, 0, 0], [0.96, 0.28, 0, 0]]),
            np.array([0.3, 0.22]), 2, 1.0, 1.0, "euclidean",
        )
    )
    X = sphere_cloud(50, seed=5)
    h = 1e-6
    for x in X[:20]:
        g = field.ambient_gradient(x[None])[0]
        H = field.ambient_hessian(x[None])[0]
        for a in range(4):
            e = np.zeros(4)
            e[a] = h
            fd = (field.value((x + e)[None]) - field.value((x - e)[None]))[0] / (2 * h)
            assert abs(fd - g[a]) <= 1e-6
            fd_row = (
                field.ambient_gradient((x + e)[None])[0]
                - field.ambient_gradient((x - e)[None])[0]
            ) / (2 * h)
            assert np.abs(fd_row - H[a]).max() <= 1e-4


def _pairwise_product_hessian(field, X):
    """Reference: the product-cutoff Hessian by its explicit i != j double loop."""
    p, dim = X.shape
    d, grad_d, r, vals, slope = _every_ball(field, X)
    curv = cut._quintic_d2(2.0 * (d / r) - 1.0) * 4.0 / r**2
    other = cut._product_excluding_one(vals)
    safe_d = np.where(d > 1e-300, d, 1.0)
    out = np.zeros((p, dim, dim))
    for i in range(field.cover.size):
        gi = grad_d[:, i, :]
        proj = gi[:, :, None] * gi[:, None, :]
        Hi = curv[:, i, None, None] * proj + (slope[:, i] / safe_d[:, i])[:, None, None] * (
            np.eye(dim)[None] - proj
        )
        out += other[:, i, None, None] * Hi
    grads = slope[..., None] * grad_d
    for i in range(field.cover.size):
        for j in range(field.cover.size):
            if i == j:
                continue
            live = vals[:, j] > 0.0
            pair = np.where(live, other[:, i] / np.where(live, vals[:, j], 1.0), 0.0)
            out += pair[:, None, None] * grads[:, i, :, None] * grads[:, j, None, :]
    return out


def test_product_hessian_matches_pairwise_loop_on_overlapping_balls():
    centers = np.array([
        [1.0, 0, 0, 0], [1.0, 0.15, 0, 0], [1.0, 0, 0.15, 0],
        [1.0, 0.1, 0.1, 0.1], [1.0, -0.1, 0, 0.12],
    ])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    field = cut.build_product_cutoff(cut.BallCover(
        centers, np.array([0.3, 0.28, 0.32, 0.26, 0.3]), 2, 1.0, 10.0, "euclidean"
    ))
    X = np.array([1.0, 0, 0, 0]) + np.random.default_rng(11).normal(scale=0.15, size=(4000, 4))
    _, _, _, vals, slope = _every_ball(field, X)
    active = np.sum(slope > 0.0, axis=1)
    vanishing = np.any(vals == 0.0, axis=1)
    crowded = (active >= 3) & ~vanishing
    assert crowded.sum() >= 100 and np.sum((active >= 4) & ~vanishing) >= 10
    assert np.sum(vanishing & (active >= 2)) >= 100

    hess = field.ambient_hessian(X)
    ref = _pairwise_product_hessian(field, X)
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(hess - ref).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.all(hess[vanishing] == 0.0)   # phi == 0 near a point inside some B(p_k, r_k/2)

    h = 1e-6
    for x in X[crowded][:40]:
        fd = np.stack([
            (field.ambient_gradient((x + h * e)[None])[0] - field.ambient_gradient((x - h * e)[None])[0])
            / (2 * h)
            for e in np.eye(4)
        ])
        H = field.ambient_hessian(x[None])[0]
        assert np.abs(fd - H).max() <= 1e-6 * np.abs(H).max()


def test_product_excluding_one_matches_prefix_suffix_loop():
    # the same left-to-right multiplications as the loop, so equal bit for bit
    for m in (1, 2, 7):
        vals = np.random.default_rng(m).random((200, m))
        vals[vals < 0.25] = 0.0
        prefix, suffix = np.ones((200, m + 1)), np.ones((200, m + 1))
        for i in range(m):
            prefix[:, i + 1] = prefix[:, i] * vals[:, i]
            suffix[:, m - 1 - i] = suffix[:, m - i] * vals[:, m - 1 - i]
        assert np.array_equal(cut._product_excluding_one(vals), prefix[:, :m] * suffix[:, 1:])


def test_inf_cutoff_has_no_hessian():
    field = cut.build_inf_cutoff(one_ball_cover(0.2, "geodesic"))
    with pytest.raises(UnsupportedFamily):
        field.ambient_hessian(np.eye(4))


@pytest.mark.parametrize("q, epsilon, error, match", [
    (3, 100.0, BudgetInfeasible, r"^exponent q=3 > n=2: "),  # one ball costs 0.5^-1 = 2 < 100
    (1, 0.0, ValueError, "epsilon must be positive"),
    (1, -1.0, ValueError, "epsilon must be positive"),
    (1, math.nan, ValueError, "epsilon must be positive"),
], ids=["q > n", "epsilon 0", "epsilon < 0", "epsilon nan"])
def test_ball_cover_refuses_budget_hypotheses(torus, q, epsilon, error, match):
    # a hand-built cover meets the same budget rules as cover_singular_set's,
    # so no field, and no gradient estimate, can be built over one at q > n
    _, x = geo.sample_points(torus, 1, seed=5)
    with pytest.raises(error, match=match):
        cut.BallCover(x, [0.5], 2, q, epsilon, points=x)
    with pytest.raises(error, match=match):
        cut.BallCover(np.empty((0, 4)), np.empty(0), 2, q, epsilon)


def test_unsatisfied_cover_rejected():
    # refused when the cover is built, so no field can be built over it
    with pytest.raises(BudgetInfeasible, match=r"^sum r\^\(n-q\) = 0.5 >= epsilon = 0.1$"):
        cut.BallCover(np.eye(4)[:1], np.array([0.5]), 2, 1.0, 0.1, "geodesic")


def _half_radius_cover(M):
    # two chart points of clifford(1,1) about 0.0218 from their centroid,
    # one ball of radius r_min = 0.022: inside the ball, outside its half-ball
    pts = M.chart.embed(np.array([[0.3, 1.0], [0.3, 1.0618]]))
    return pts, cut.cover_singular_set(pts, n=2, q=0, epsilon=5e-4, r_min=0.022,
                                       metric="euclidean", containment="full")


@pytest.mark.parametrize("call, error, match", [
    (lambda M, geodesic, euclidean: cut.build_product_cutoff(
        cut.BallCover(np.eye(4)[:1], np.array([0.5]), 2, 1.0, 0.1, "euclidean")),
     BudgetInfeasible, r"^sum r\^\(n-q\) = 0.5 >= epsilon = 0.1$"),
    (lambda M, geodesic, euclidean: cut.gradient_integral_estimate(
        M, cut.build_product_cutoff(euclidean), C_V=1.0),
     PreconditionViolated, "applies to the inf cutoff"),
    (lambda M, geodesic, euclidean: cut.mr_quality_report(M, cut.build_inf_cutoff(geodesic), C_V=1.0),
     PreconditionViolated, "applies to the product cutoff"),
    # refused when the field is built, so no Hessian can run
    (lambda M, geodesic, euclidean: cut.CutoffField(geodesic, "product").ambient_hessian(np.eye(4)),
     PreconditionViolated, "uses Euclidean balls"),
    # a misspelt kind would mix the inf and product ramps in one field
    (lambda M, geodesic, euclidean: cut.CutoffField(euclidean, "Inf"), ValueError, "unknown cutoff kind"),
    (lambda M, geodesic, euclidean: cut.CutoffField(euclidean, ""), ValueError, "unknown cutoff kind"),
    (lambda M, geodesic, euclidean: cut.CutoffField(
        cut.BallCover(np.eye(4)[:1], np.array([0.5]), 2, 1.0, 0.1, "geodesic"), "inf"),
     BudgetInfeasible, r"^sum r\^\(n-q\) = 0.5 >= epsilon = 0.1$"),
    # a cover and q beside the field are refused: the estimate reads both
    # from the field, and takes C_V only by keyword
    (lambda M, geodesic, euclidean: cut.gradient_integral_estimate(
        M, geodesic, cut.build_inf_cutoff(geodesic), 1.0, C_V=1.0),
     TypeError, "takes 2 positional arguments"),
    (lambda M, geodesic, euclidean: oracles.ibp_residual(
        M, cut.build_product_cutoff(euclidean), ConstantField(1.0), ConstantField(1.0)),
     PreconditionViolated, "applies to the inf cutoff"),
    # the product ramps read about 1 at points outside the half-balls
    (lambda M, geodesic, euclidean: cut.build_product_cutoff(_half_radius_cover(M)[1]),
     PreconditionViolated, "does not vanish at every cover point"),
], ids=["unsatisfied product cover", "estimate of a product field",
        "quality of an inf field", "hessian on a geodesic cover",
        "kind Inf", "empty kind", "unsatisfied cover, direct field",
        "estimate with a cover beside its field", "ibp of a product field",
        "product field missing its points"])
def test_cutoff_refusals(torus, call, error, match):
    _, pts = geo.sample_points(torus, 1, seed=5)
    geodesic = cut.BallCover(pts, np.array([0.2]), 2, 1.0, 0.5, "geodesic")
    euclidean = cut.BallCover(pts, np.array([0.2]), 2, 1.0, 0.5, "euclidean")
    with pytest.raises(error, match=match):
        call(torus, geodesic, euclidean)


def test_inf_field_vanishes_at_the_points_of_a_half_radius_cover(torus):
    # the cover the product kind refuses holds its points within r, where
    # the inf ramps vanish
    pts, cov = _half_radius_cover(torus)
    assert cov.size == 1 and cov.radii[0] == 0.022
    assert np.all(cut.build_inf_cutoff(cov).value(pts) == 0.0)


def test_no_cutoff_check_takes_a_cover_beside_its_field():
    # every check reads the cover from its field, so the two cannot disagree
    for name, fn in vars(cut).items():
        if inspect.isfunction(fn) and fn.__module__ == cut.__name__ and not name.startswith("_"):
            assert not {"cover", "field"} <= set(inspect.signature(fn).parameters), name
    for check in (cut.gradient_integral_estimate, oracles.ibp_residual, oracles.cutoff_cross_term,
                  cut.mr_quality_report):
        assert list(inspect.signature(check).parameters)[:2] == ["M", "field"], check.__name__


def test_product_field_on_empty_geodesic_cover():
    # no ball, so no ball metric to refuse: phi is 1 and its Hessian 0
    field = cut.CutoffField(cut.empty_cover(2, 0.0, 0.05, ambient_dim=4), "product")
    X = np.eye(4)
    assert np.all(field.value(X) == 1.0)
    assert np.all(field.ambient_hessian(X) == 0.0)


# ---------------------------------------------------------------------------
# gradient integral estimate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def m12():
    return geo.clifford_hypersurface((1, 2))


@pytest.fixture(scope="module")
def m12_cv(m12):
    return geo.measure_volume_growth(m12)


def test_gradient_estimate_feasible_case(m12, m12_cv):
    _, pts = geo.sample_points(m12, 5, seed=7, pad=0.05)
    cov = cut.cover_singular_set(pts, n=3, q=2, epsilon=0.05)
    field = cut.build_inf_cutoff(cov)
    rep = cut.gradient_integral_estimate(m12, field, C_V=m12_cv)
    assert rep.passed
    assert rep.stderr <= 0.1 * rep.bound
    assert rep.integral <= rep.bound + 3 * rep.stderr


@pytest.mark.parametrize("q", [1, 2])
def test_gradient_estimate_reads_q_and_epsilon_from_its_field(m12, m12_cv, q):
    _, pts = geo.sample_points(m12, 5, seed=7, pad=0.05)
    cov = cut.cover_singular_set(pts, n=3, q=q, epsilon=0.05)
    rep = cut.gradient_integral_estimate(m12, cut.build_inf_cutoff(cov), C_V=m12_cv)
    assert (rep.q, rep.epsilon) == (q, 0.05)
    assert rep.bound == 2 ** (3 + q) * m12_cv * 0.05


def test_gradient_estimate_epsilon_linearity(m12, m12_cv):
    _, pts = geo.sample_points(m12, 3, seed=8, pad=0.05)
    values = {}
    for eps in (0.05, 0.025):
        cov = cut.cover_singular_set(pts, n=3, q=2, epsilon=eps)
        field = cut.build_inf_cutoff(cov)
        rep = cut.gradient_integral_estimate(m12, field, C_V=m12_cv, seed=1)
        values[eps] = rep
    assert abs(values[0.025].bound - values[0.05].bound / 2.0) <= 1e-12
    # integral scales ~linearly in the budget (within Monte-Carlo error)
    ratio = values[0.05].integral / values[0.025].integral
    assert 1.5 <= ratio <= 2.5


def test_gradient_estimate_torus_q1(torus, torus_cv_geodesic):
    _, pts = geo.sample_points(torus, 3, seed=2)
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.1)
    field = cut.build_inf_cutoff(cov)
    rep = cut.gradient_integral_estimate(torus, field, C_V=torus_cv_geodesic)
    assert rep.passed


def test_gradient_estimate_ball_at_coordinate_pole():
    # clifford(2, 1) is homogeneous, so a ball centred at the pole of the S^2
    # chart (its chart box is clipped onto the polar face) must give the
    # same integral as a ball of the same radius at an S^2 equator point
    M = geo.clifford_hypersurface((2, 1))
    C_V = geo.measure_volume_growth(M)
    reports = []
    for u in ([0.0, 0.0, 0.0], [math.pi / 2, 0.0, 0.0]):
        cov = cut.cover_singular_set(M.chart.embed(np.array([u])), n=3, q=1, epsilon=0.1)
        field = cut.build_inf_cutoff(cov)
        reports.append(cut.gradient_integral_estimate(M, field, C_V=C_V, seed=3))
    pole, equator_point = reports
    assert pole.passed and equator_point.passed
    assert pole.integral > 0.2 * pole.bound
    assert abs(pole.integral - equator_point.integral) <= 3.0 * math.hypot(pole.stderr, equator_point.stderr)


def _all_balls_integrand(M, field, i, q):
    """|grad phi|^q where ball i holds the active ramp with nonzero slope, from
    every ball's ramp; the rows' box indices go unread."""

    def integrand(U, X, box):
        _, grad_d, _, vals, slope = _every_ball(field, X)
        act = vals.argmin(axis=1)
        take = np.arange(X.shape[0])
        grad = slope[take, act][:, None] * grad_d[take, act]
        gsq = cut.tangential_gradient_sq(M, X, grad)
        return np.where((act == i) & (slope[take, act] > 0.0), gsq ** (q / 2.0), 0.0)

    return integrand


def _rows_straddling(M, field, i, target, count, rng):
    """Chart points along random chart rays from ball i's centre whose
    distance to it, as the field computes it, brackets ``target`` as
    tightly as floats allow: the last bisection bracket on each ray, both
    sides.  The distance of unit-size coordinates resolves steps of about
    one ulp of 1, so that is the bracket's width."""
    chart = M.chart
    u0 = chart.inverse(field.cover.centers[i])
    dirs = rng.normal(size=(count, M.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def dist(t):
        return _every_ball(field, chart.embed(u0 + t[:, None] * dirs))[0][:, i]

    lo, hi = np.zeros(count), np.full(count, target)
    while np.any(dist(hi) <= target):
        hi = np.where(dist(hi) <= target, 2.0 * hi, hi)
    for _ in range(120):
        mid = (lo + hi) / 2.0
        below = dist(mid) <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    for t in (lo, hi):
        assert np.all(np.abs(dist(t) - target) <= 4.0 * np.spacing(1.0))
    return u0 + np.concatenate([lo, hi])[:, None] * np.concatenate([dirs, dirs])


@pytest.mark.parametrize("kl, count, radius", [((1, 1), 30, (0.1, 0.4)), ((1, 2), 12, (0.15, 0.5)),
                                               ((1, 1), 30, (0.02, 0.2)), ((1, 2), 12, (0.05, 0.3))])
def test_local_gradient_integrand_matches_all_balls(kl, count, radius):
    # the batched integrand (annulus screen, padded neighbour table) equals
    # the all-balls formula, kept here as the oracle, on chart-uniform rows,
    # rows in each ball's chart box, and rows on both sides of d = r_i and
    # d = 2 r_i within float resolution, where the screen's slack decides;
    # the smaller radii leave a third to two thirds of the balls without a
    # neighbour, which read their own ramp directly
    M = geo.clifford_hypersurface(kl)
    _, centers = geo.sample_points(M, count, seed=31, pad=0.3)
    rng = np.random.default_rng(32)
    cov = cut.BallCover(centers, rng.uniform(*radius, count), M.dimension, 1, 1e9, "geodesic")
    field = cut.build_inf_cutoff(cov)
    listed = np.sum(~cut._neighbour_table(cov, 2.0)[1], axis=1)
    assert np.any((1 < listed) & (listed < count))  # overlapping, yet local
    boxes, hit = cut._ball_chart_boxes(M, cov.centers, 2.0 * cov.radii, "geodesic")
    assert hit.all()
    U_all, _ = geo.sample_points(M, 400, seed=33)
    blocks = []
    for i in range(count):
        edges = [_rows_straddling(M, field, i, target, 20, rng) for target in (cov.radii[i], 2.0 * cov.radii[i])]
        box = rng.uniform(boxes[i, :, 0], boxes[i, :, 1], size=(400, M.dimension))
        blocks.append(np.vstack([U_all, box, *edges]))
    U = np.vstack(blocks)
    X = M.chart.embed(U)
    own = np.repeat(np.arange(count), [len(block) for block in blocks])
    nonzero = 0
    for q in (0, 1, 2):  # q = 0 reads 1 on the whole support of the slope
        batched = cut._annulus_gradient_integrand(M, field, q)(U, X, own)
        for i in range(count):
            rows = own == i
            assert np.array_equal(batched[rows], _all_balls_integrand(M, field, i, q)(U[rows], X[rows], None))
        nonzero += int(np.count_nonzero(batched))
        edge_rows = np.concatenate([np.flatnonzero(own == i)[-80:] for i in range(count)])
        assert np.count_nonzero(batched[edge_rows]) > 10 * count  # the ulp rows inside the annulus
    assert nonzero > 1000


def _box_excludes_ball_reference(chart, box, center, reach, dist, face_samples=7):
    # the per-ball face test as gradient_integral_estimate first ran it
    n = chart.dim
    axes = [np.linspace(box[a, 0], box[a, 1], face_samples) for a in range(n)]
    for a in range(n):
        lo, hi = chart.box[a]
        if chart.periodic[a] and np.isclose(box[a, 0], lo) and np.isclose(box[a, 1], hi):
            continue
        sub = [axes[b] for b in range(n) if b != a]
        face = geo._tensor_grid(sub) if sub else np.empty((1, 0))
        for side in (0, 1):
            if not chart.periodic[a] and box[a, side] == chart.box[a][side]:
                continue
            pts = np.insert(face, a, box[a, side], axis=1)
            if np.any(dist(chart.embed(pts), center) <= reach):
                return False
    return True


def _ball_chart_box_reference(M, center, reach, metric, safety=1.5):
    # the per-ball box search as gradient_integral_estimate first ran it
    chart = M.chart
    u0 = nearest_chart_point(M, center)
    reach_geo = geo._chord_to_arc(reach) if metric == "euclidean" else reach
    if geo.geodesic_distance(chart.embed(u0), center) >= reach_geo:
        return None, 0
    width = safety * reach_geo / np.sqrt(chart.metric_diag(u0))
    for rounds in range(1, 7):
        box = np.stack([u0 - width, u0 + width], axis=-1)
        for a, per in enumerate(chart.periodic):
            lo, hi = chart.box[a]
            if per:
                if width[a] * 2 >= hi - lo:
                    box[a] = (lo, hi)
            else:
                box[a] = np.clip(box[a], lo, hi)
        if _box_excludes_ball_reference(chart, box, center, reach, geo._distance(metric)):
            return box, rounds
        width *= 1.4
    raise PreconditionViolated("could not bound the ball region in chart coordinates")


def _per_ball_reference(M, cover, field, q, strata, samples_per_cell, seed):
    # one box search, one stratified_integral and one all-balls integrand per ball
    children = np.random.SeedSequence(seed).spawn(max(cover.size, 1))
    total, rounds = ZERO_ESTIMATE, []
    for i in range(cover.size):
        box, grown = _ball_chart_box_reference(M, cover.centers[i], 2.0 * cover.radii[i], cover.metric)
        rounds.append(grown)
        if box is not None:
            total = total + stratified_integral(
                M, _all_balls_integrand(M, field, i, q), box[None], [children[i]], strata=strata,
                samples_per_cell=samples_per_cell,
            )[0]
    return total, rounds


def _identity_covers():
    torus, m12, m21 = (geo.clifford_hypersurface(kl) for kl in ((1, 1), (1, 2), (2, 1)))
    rng = np.random.default_rng(41)
    _, c11 = geo.sample_points(torus, 24, seed=42)
    _, c12 = geo.sample_points(m12, 6, seed=43)
    off = np.array([[0.0, 0.0, 1.0, 0.0]])  # geodesic distance pi/4 from the torus
    pole = cut.cover_singular_set(m21.chart.embed(np.array([[0.0, 0.0, 0.0]])), n=3, q=1, epsilon=0.1)
    radii = rng.uniform(0.05, 0.3, 24)
    # the last ball repeats ball 0, so every ramp ties with ball 0's and the
    # lower index stays active: a table that listed the repeat before ball 0
    # would make the repeat active
    doubled = cut.BallCover(np.vstack([c11, c11[:1]]), np.append(radii, radii[0]), 2, 1, 1e9, "geodesic")
    return [
        ("geodesic", torus, doubled, 1),
        ("euclidean", torus, cut.BallCover(c11, rng.uniform(0.05, 0.3, 24), 2, 2, 1e9, "euclidean"), 2),
        ("pole", m21, pole, 1),
        ("off-surface", torus, cut.BallCover(np.vstack([c11[:3], off, c11[3:6]]),
                                             np.full(7, 0.1), 2, 1, 1e9, "geodesic"), 1),
        ("growth", m12, cut.BallCover(c12, np.full(6, 0.1), 3, 1, 1e9, "geodesic"), 1),
    ]


@pytest.mark.parametrize("case", range(5), ids=["geodesic", "euclidean", "pole", "off-surface", "growth"])
def test_batched_gradient_estimate_matches_per_ball_loop(case, monkeypatch):
    # the batched box search, stacked sampling and annulus integrand give
    # the per-ball loop's integral, stderr and samples bit for bit, and the
    # sampler's chunk size (7 rows, which splits every box, the default, or
    # every ball in one chunk) changes nothing
    name, M, cover, q = _identity_covers()[case]
    field = cut.build_inf_cutoff(cover)
    strata, per_cell = (14, 3) if M.dimension == 2 else (8, 3)
    expected, rounds = _per_ball_reference(M, cover, field, q, strata, per_cell, seed=5)
    if name == "off-surface":
        assert rounds.count(0) == 1 and expected.samples == 6 * 3 * strata**2
    if name == "growth":
        assert max(rounds) > 1
    reports = []
    for chunk_rows in (7, smp._CHUNK_ROWS, 10**9):
        monkeypatch.setattr(smp, "_CHUNK_ROWS", chunk_rows)
        rep = cut.gradient_integral_estimate(M, field, C_V=5.0, strata=strata,
                                             samples_per_cell=per_cell, seed=5)
        assert (rep.integral, rep.stderr, rep.samples) == (expected.value, expected.stderr, expected.samples)
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]
    assert expected.value > 0.0


def _pole_cover():
    # balls at both poles of the polar axes of clifford(2,2)
    M22 = geo.clifford_hypersurface((2, 2))
    poles = M22.chart.embed(np.array([[0.0, 1.0, 0.5, 2.0], [math.pi, 1.0, 0.5, 2.0],
                                      [1.0, 1.0, math.pi, 2.0], [0.02, 1.0, 0.03, 2.0]]))
    return M22, cut.BallCover(poles, np.array([0.1, 0.2, 0.3, 0.15]), 4, 1, 1e9, "geodesic")


def _cutoff_balls_cover(kl, points, epsilon, q):
    # the cover `spherestab cutoff --kind inf` builds at seed 0; its radius
    # floor is the default 1e-3 for both benchmark configs
    M = geo.clifford_hypersurface(kl)
    _, pts = geo.sample_points(M, points, seed=0, pad=0.05)
    return M, cut.cover_singular_set(pts, M.dimension, q, epsilon)


def test_batched_chart_boxes_match_per_ball_search():
    # every cover of the identity test, plus balls at both poles of the
    # polar axes of clifford(2,2): the same boxes and the same misses
    covers = [(M, cover) for _, M, cover, _ in _identity_covers()] + [_pole_cover()]
    for M, cover in covers:
        boxes, hit = cut._ball_chart_boxes(M, cover.centers, 2.0 * cover.radii, cover.metric)
        for i in range(cover.size):
            box, _ = _ball_chart_box_reference(M, cover.centers[i], 2.0 * cover.radii[i], cover.metric)
            assert hit[i] == (box is not None)
            if box is not None:
                assert np.array_equal(boxes[i], box)


def test_chart_boxes_contain_every_sample_within_reach():
    # an oracle that runs no face search: chart-uniform samples, over the
    # whole chart box and over a window three box widths wide around each
    # box, that lie within reach of a ball lie in that ball's box (periodic
    # axes mod their period), and a ball that misses M has no such sample
    covers = [(M, cover) for _, M, cover, _ in _identity_covers()]
    covers += [_pole_cover(), _cutoff_balls_cover((1, 1), 150, 1.0, 1),
               _cutoff_balls_cover((1, 2), 5, 0.05, 2)]
    rng = np.random.default_rng(61)
    within = 0
    for M, cover in covers:
        chart = M.chart
        lo, hi = chart.box[:, 0], chart.box[:, 1]
        periodic = np.asarray(chart.periodic, dtype=bool)
        reach = 2.0 * cover.radii
        boxes, hit = cut._ball_chart_boxes(M, cover.centers, reach, cover.metric)
        U_all = rng.uniform(lo, hi, size=(20_000, chart.dim))
        X_all = chart.embed(U_all)
        dist = geo._distance(cover.metric)
        for i in range(cover.size):
            near = dist(X_all, cover.centers[i]) < reach[i]
            if not hit[i]:
                assert not near.any()
                continue
            mid, width = boxes[i].mean(axis=1), boxes[i, :, 1] - boxes[i, :, 0]
            w_lo = np.where(periodic, mid - 1.5 * width, np.maximum(mid - 1.5 * width, lo))
            w_hi = np.where(periodic, mid + 1.5 * width, np.minimum(mid + 1.5 * width, hi))
            window = rng.uniform(w_lo, w_hi, size=(4_000, chart.dim))
            window[:, periodic] = lo[periodic] + (window[:, periodic] - lo[periodic]) % (hi - lo)[periodic]
            U = np.vstack([U_all[near], window])
            U = U[dist(chart.embed(U), cover.centers[i]) < reach[i]]
            assert len(U) > 0
            offset = U - boxes[i, :, 0]
            offset[:, periodic] %= (hi - lo)[periodic]
            assert np.all((offset >= 0.0) & (offset <= width)), (M.family, i)
            within += len(U)
    assert within > 50_000


def test_gradient_estimate_empty_cover(torus, torus_cv_geodesic):
    cov = cut.empty_cover(2, 1, 0.05, ambient_dim=4)
    field = cut.build_inf_cutoff(cov)
    rep = cut.gradient_integral_estimate(torus, field, C_V=torus_cv_geodesic)
    assert rep.integral == 0.0 and rep.stderr == 0.0


def test_gradient_estimate_off_surface_ball_skipped(torus, torus_cv_geodesic):
    # a ball far from the surface contributes exactly zero
    center = np.array([[0.0, 0.0, 1.0, 0.0]])  # on S^3 but max-distance from the torus? close enough
    cov = cut.BallCover(center, np.array([0.01]), 2, 1.0, 0.1, "geodesic")
    field = cut.build_inf_cutoff(cov)
    rep = cut.gradient_integral_estimate(torus, field, C_V=torus_cv_geodesic)
    assert rep.integral == 0.0


# ---------------------------------------------------------------------------
# smooth-cutoff quality report
# ---------------------------------------------------------------------------

def test_mr_quality_report_one_ball(torus, torus_cv_chord):
    _, pts = geo.sample_points(torus, 1, seed=5)
    eps = 0.05
    r = math.sqrt(0.8 * eps)
    cov = cut.BallCover(pts, np.array([r]), 2, 0.0, eps, "euclidean", points=pts)
    field = cut.build_product_cutoff(cov)
    rep = cut.mr_quality_report(torus, field, C_V=torus_cv_chord, seed=0)
    assert rep.passed
    assert rep.area_not_one.value < rep.bounds[0]
    # per-ball Laplacian mass <= C1 C_V r^(k-2) (k = 2 here)
    assert rep.lap_l1.value <= rep.c1 * rep.c_v + 3 * rep.lap_l1.stderr


def test_mr_bounds_count_every_ball_a_point_lies_in(torus, torus_cv_chord):
    # a ball of radius 0.5 at chart point (1, 2) and three of radius 0.1
    # within chart distance 0.06 of it: points near (1, 2) lie in all four.
    # The grad bound K C0 C_V sum r_i^(n-2) reads K = 4 back, at least the
    # most balls any of 2e5 sampled points lies in; a count within one
    # dyadic class (2^m <= r < 2^(m+1)) reads 3, the three small balls
    chart = torus.chart
    base = np.array([[1.0, 2.0], [1.06, 2.0], [1.0, 2.06], [0.94, 2.0]])
    radii = np.array([0.5, 0.1, 0.1, 0.1])
    cover = cut.BallCover(chart.embed(base), radii, 2, 0.0, 0.5, "euclidean")
    rep = cut.mr_quality_report(torus, cut.build_product_cutoff(cover), C_V=torus_cv_chord, seed=0)
    assert rep.passed
    K = rep.bounds[1] / (rep.c0 * rep.c_v * np.sum(radii ** (2 - 2)))
    assert K == pytest.approx(4.0, rel=1e-12)
    U = np.random.default_rng(0).uniform((0.2, 1.2), (1.8, 2.8), size=(200_000, 2))
    held = np.sum(np.linalg.norm(chart.embed(U)[:, None, :] - cover.centers, axis=-1) < radii, axis=1)
    assert K >= held.max() == 4


def test_mr_area_against_quadrature_oracle(torus, torus_cv_chord):
    # independent oracle for H^2({phi != 1}): deterministic indicator
    # quadrature of the union of the balls on a fine grid.  The crowded
    # cover's five overlapping balls have areas summing to 0.3544 and a
    # union of 0.1046, so a point counted in every ball that holds it
    # fails; the pole and seam balls need boxes clipped at a polar face and
    # wrapped across both periodic seams
    _, pts = geo.sample_points(torus, 1, seed=5)
    r = 0.25
    single = cut.BallCover(pts, np.array([r]), 2, 0.0, 0.1, "euclidean", points=pts)
    oracle = _union_area(torus, single)
    assert oracle <= torus_cv_chord * r**2  # the area form of the growth bound
    base, radii, _ = _crowded_torus_cover()
    crowded = cut.BallCover(torus.chart.embed(base), radii, 2, 0.0, 0.5, "euclidean")
    assert abs(_union_area(torus, crowded) - 0.1046) <= 1e-4
    eq2 = geo.equator(2)
    pole = cut.BallCover(eq2.chart.embed(np.array([[0.05, 1.0]])), np.array([0.2]), 2, 0.0, 0.5,
                         "euclidean")
    seam = cut.BallCover(torus.chart.embed(np.array([[0.02, 6.27]])), np.array([0.2]), 2, 0.0, 0.5,
                         "euclidean")
    for M, cover in ((torus, single), (torus, crowded), (eq2, pole), (torus, seam)):
        rep = cut.mr_quality_report(M, cut.build_product_cutoff(cover), C_V=10.0, seed=1)
        area = rep.area_not_one
        assert abs(area.value - _union_area(M, cover)) <= 4.0 * area.stderr + 1e-3, (M.family, area)


def _union_area(M, cover, resolution=768):
    # chart quadrature of the points within r_i of some centre p_i
    from spherestab.geometry import chart_quadrature, sqrt_det_metric

    nodes, weights = chart_quadrature(M.chart, resolution)
    X = M.chart.embed(nodes)
    inside = np.any([geo.chord_distance(X, c) < r for c, r in zip(cover.centers, cover.radii)], axis=0)
    return float(np.sum((weights * sqrt_det_metric(M.chart, nodes))[inside]))


def test_mr_grad_l2_on_balls_smaller_than_a_cell(torus):
    # 20 balls of radius 1e-3 on the torus: each ball sampled on its own
    # box reads the quintic ramp's flat constant
    # c_2 = |S^1| int_(1/2)^1 rho'(s)^2 s ds = 13.46397 (scale-free at n = 2),
    # where one chart-wide grid of cells 65x wider reads 0 +- 0
    _, pts = geo.sample_points(torus, 20, seed=0, pad=0.05)
    cover = cut.cover_singular_set(pts, 2, 2.0, 25.0, metric="euclidean", containment="half")
    assert cover.size == 20 and np.all(cover.radii == 1e-3)
    t, w = np.polynomial.legendre.leggauss(5)   # exact: the integrand is a degree-9 polynomial
    s = 0.75 + 0.25 * t
    flat = 2.0 * math.pi * 0.25 * np.sum(w * (2.0 * cut._quintic_d1(2.0 * s - 1.0)) ** 2 * s)
    assert abs(flat - 13.46397) <= 1e-5
    grad = cut.mr_quality_report(torus, cut.build_product_cutoff(cover), seed=0).grad_l2
    assert grad.stderr > 0.0
    assert abs(grad.value - 20 * flat) <= 3.0 * grad.stderr + 0.01 * 20 * flat, grad


def test_mr_quality_report_memory_at_n3():
    # clifford(1,2)'s 20-point product cover: the report's Python-heap peak
    # stays under 32 MB (216 MB when one chart-wide cell grid of 96^3
    # cells was masked against every ball at once)
    M = geo.clifford_hypersurface((1, 2))
    _, pts = geo.sample_points(M, 20, seed=0, pad=0.05)
    cover = cut.cover_singular_set(pts, 3, 0.0, 0.5, metric="euclidean", containment="half")
    field = cut.build_product_cutoff(cover)
    tracemalloc.start()
    try:
        rep = cut.mr_quality_report(M, field, C_V=10.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.grad_l2.value > 0.0
    assert peak < 32e6, peak / 1e6


def test_mr_quality_report_empty(torus, torus_cv_chord):
    field = cut.build_product_cutoff(cut.empty_cover(2, 0.0, 0.05, metric="euclidean", ambient_dim=4))
    rep = cut.mr_quality_report(torus, field, C_V=torus_cv_chord, strata=24)
    assert rep.area_not_one.value == 0.0
    assert rep.grad_l2.value == 0.0
    assert rep.lap_l1.value == 0.0


def _crowded_torus_cover():
    """Five overlapping Euclidean balls on the torus, with surface points at
    chord distance r and r(1 -/+ 1e-12) from every centre.

    On the torus (cos a, sin a, cos b, sin b) / sqrt(2) a step s in one angle
    moves a chord sqrt(2) |sin(s/2)|, so the target distances are exact up
    to rounding.
    """
    r = 0.15
    base = np.array([[1.0 + 0.04 * j, 2.0] for j in range(5)])
    steps = 2.0 * np.arcsin(np.array([r, r * (1.0 - 1e-12), r * (1.0 + 1e-12)]) / math.sqrt(2.0))
    moves = np.array([(sign * s, 0.0) for sign in (1.0, -1.0) for s in steps]
                     + [(0.0, sign * s) for sign in (1.0, -1.0) for s in steps])
    U = (base[:, None, :] + moves[None]).reshape(-1, 2)
    return base, np.full(5, r), U


def test_quality_integrands_read_zero_outside_every_ball(torus):
    # brute force: a row with |x - p_i| >= r_i for every ball reads exactly
    # 0.0 in all three integrands, whichever ball's box it is drawn in, and
    # there every ramp of the whole cover (the all-balls oracle) is exactly
    # 1 with zero slope, so the 0.0 is the cutoff's value and not an
    # artefact of the neighbour table
    chart = torus.chart
    U_bg = np.random.default_rng(3).uniform(chart.box[:, 0], chart.box[:, 1], size=(3000, 2))
    _, pts = geo.sample_points(torus, 20, seed=0, pad=0.05)   # energy-integrals product cover
    workload = cut.cover_singular_set(pts, 2, 0.0, 0.5, metric="euclidean", containment="half")
    base, radii, U_edge = _crowded_torus_cover()
    crowded = cut.BallCover(chart.embed(base), radii, 2, 0.0, 0.5, "euclidean")
    for cover, U in ((workload, U_bg), (crowded, np.concatenate([U_edge, U_bg]))):
        field = cut.build_product_cutoff(cover)
        X = chart.embed(U)
        outside = np.all(np.linalg.norm(X[:, None, :] - cover.centers, axis=-1) >= cover.radii, axis=1)
        assert 0 < outside.sum() < len(U)
        own = np.random.default_rng(4).integers(cover.size, size=len(U))
        for integrand in cut._quality_integrands(torus, field, *cut._neighbour_table(cover, 1.0)):
            assert np.all(integrand(U, X, own)[outside] == 0.0)
        _, _, _, vals, slope = _every_ball(field, X[outside])
        assert np.all(vals == 1.0) and np.all(slope == 0.0)


def test_quality_integrands_count_each_point_in_its_lowest_ball(torus):
    # on the crowded cover, where rows lie in up to 5 balls, and on the
    # energy-integrals cover, whose neighbour table pads 14 of its 20 rows:
    # each row reads its value only in the lowest-index ball that holds it,
    # 0 in every other ball's box, and that value is the one the field's
    # public methods give over every ball, to rounding (the area integrand
    # is 1 on the union of the balls, where phi < 1)
    chart = torus.chart
    base, radii, U_edge = _crowded_torus_cover()
    crowded = cut.BallCover(chart.embed(base), radii, 2, 0.0, 0.5, "euclidean")
    _, pts = geo.sample_points(torus, 20, seed=0, pad=0.05)
    workload = cut.cover_singular_set(pts, 2, 0.0, 0.5, metric="euclidean", containment="half")
    assert cut._neighbour_table(workload, 1.0)[1].sum() == 14
    rng = np.random.default_rng(5)
    U_crowded = np.concatenate([U_edge, rng.uniform((0.75, 1.7), (1.45, 2.3), size=(4000, 2))])
    U_chart = rng.uniform(chart.box[:, 0], chart.box[:, 1], size=(30000, 2))
    for cover, U in ((crowded, U_crowded), (workload, U_chart)):
        field = cut.build_product_cutoff(cover)
        X = chart.embed(U)
        holds = np.linalg.norm(X[:, None, :] - cover.centers, axis=-1) < cover.radii
        lowest = np.where(holds.any(axis=1), holds.argmax(axis=1), -1)
        assert np.sum(holds.sum(axis=1) > 1) > (1000 if cover is crowded else 10)
        grad, hess = field.ambient_gradient(X), field.ambient_hessian(X)
        reference = (
            (lowest >= 0).astype(float),
            tangential_gradient_sq(torus, X, grad),
            np.abs(surface_laplacian(torus, X, grad, hess)),
        )
        balls = np.arange(cover.size)
        integrands = cut._quality_integrands(torus, field, *cut._neighbour_table(cover, 1.0))
        for integrand, ref in zip(integrands, reference):
            per_ball = np.array([integrand(U, X, np.full(len(U), i)) for i in balls])
            assert np.all(per_ball[balls[:, None] != lowest] == 0.0)
            assert np.sum(ref > 0.0) > 1000
            assert np.allclose(per_ball.sum(axis=0), ref, rtol=1e-12, atol=1e-12 * ref.max())
    # points just inside a ball (and off the other balls' zero sets) carry
    # nonzero ramp derivatives
    X = chart.embed(U_edge[1::3])
    lowest = np.argmax(np.linalg.norm(X[:, None, :] - crowded.centers, axis=-1) < radii, axis=1)
    lap = cut._quality_integrands(torus, cut.build_product_cutoff(crowded),
                                  *cut._neighbour_table(crowded, 1.0))[2]
    assert np.sum(lap(U_edge[1::3], X, lowest) > 0.0) >= 10


def test_inf_neighbour_table_pads_match_every_ball(torus):
    # the crowded cover as a geodesic inf cover (rows in up to 5 balls),
    # with a sixth ball that neighbours balls 2-4 only, so the table pads
    # rows 0, 1 and 5.  On every row the report's screen keeps within 2 r of
    # a ball, the inf over that ball's table row, neutral pads after the
    # listed balls, equals the inf over its listed balls alone bit for bit
    # (ball, phi, slope, distance gradient), and its phi and slope equal
    # those over every ball; where phi < 1 the ball and gradient do too.
    # Rows 2 r (1 + 1e-12) from a centre, off the others' annuli, read 1 on
    # every listed ramp: the tie goes to the first listed ball, ball 2 for
    # ball 5, where a pad (index 0) winning it would read ball 0
    chart = torus.chart
    base, radii, _ = _crowded_torus_cover()
    base, radii = np.vstack([base, [1.95, 2.0]]), np.append(radii, radii[0])
    field = cut.build_inf_cutoff(cut.BallCover(chart.embed(base), radii, 2, 1, 1e9, "geodesic"))
    table, pad = cut._neighbour_table(field.cover, 2.0)
    assert list(pad.sum(axis=1)) == [1, 1, 0, 0, 0, 2] and list(table[5, :4]) == [2, 3, 4, 5]
    # a chart step (s, t) moves the chord sqrt(2) (sin^2(s/2) + sin^2(t/2))^(1/2)
    chord = 2.0 * math.sin(radii[0] * (1.0 + 1e-12))   # of the arc 2 r (1 + 1e-12)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    steps = 2.0 * np.arcsin(chord / math.sqrt(2.0) * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    ring = (base[:, None, :] + steps).reshape(-1, 2)
    rng = np.random.default_rng(6)
    U = np.concatenate([ring, rng.uniform((0.4, 1.4), (2.6, 2.6), size=(8000, 2))])
    X = chart.embed(U)
    every = field._active_ramp(X, np.arange(6), False)
    outer_sq = cut._chord_sq_bound(2.0 * radii, "geodesic")
    ties = first_not_zero = 0
    for i in range(6):
        rows = np.flatnonzero(np.sum((X - field.cover.centers[i]) ** 2, axis=1) < outer_sq[i])
        own = np.full(len(rows), i)
        local = field._active_ramp(X[rows], table[own], pad[own])
        for a, b in zip(local, field._active_ramp(X[rows], table[i][~pad[i]], False)):
            assert np.array_equal(a, b)
        ball, phi, slope, grad = local
        assert np.array_equal(phi, every[1][rows]) and np.array_equal(slope, every[2][rows])
        below = phi < 1.0
        assert np.array_equal(ball[below], every[0][rows][below])
        assert np.array_equal(grad[below], every[3][rows][below])
        tie = np.all(field._table_ramps(X[rows], table[i], pad[i])[3][:, ~pad[i]] == 1.0, axis=1)
        assert np.all(ball[tie] == table[i, 0])
        ties += int(tie.sum())
        first_not_zero += int(tie.sum()) if table[i, 0] != 0 else 0
    assert ties >= 100 and first_not_zero >= 10


def test_product_c0_is_computed_on_first_use():
    # importing the CLI does not run the 200,001-point profile sweep
    code = "import spherestab.cli, spherestab.cutoff as c; print(c._profile_c0.cache_info().currsize)"
    src = str(Path(cut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
    field = cut.build_product_cutoff(cut.empty_cover(2, 0.0, 0.05, metric="euclidean", ambient_dim=4))
    assert field.C0 == 27.23795013167537


def test_mr_quality_report_refuses_geodesic_cover(torus, monkeypatch):
    # a product field on a geodesic cover is refused when it is built, so
    # no quality report, and no integral, can run on it
    _, pts = geo.sample_points(torus, 1, seed=5)
    cov = cut.BallCover(pts, np.array([0.2]), 2, 0.0, 0.1, "geodesic")

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the cover check")

    monkeypatch.setattr(cut, "stratified_integral", no_integral)
    with pytest.raises(PreconditionViolated, match="uses Euclidean balls"):
        cut.mr_quality_report(torus, cut.CutoffField(cov, "product"), C_V=1.0)


# ---------------------------------------------------------------------------
# integration by parts
# ---------------------------------------------------------------------------

def test_ibp_empty_cover_equator(equator2):
    u = AmbientCoordinateField(0)
    field = cut.build_inf_cutoff(cut.empty_cover(2, 1, 0.1, ambient_dim=4))
    resid = oracles.ibp_residual(equator2, field, u, u)
    assert resid <= 1e-8


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_ibp_empty_cover_torus_coordinates(torus, index):
    # the quadrature's periodic nodes include angle 0, where the chart
    # derivatives of x_1 and x_3 go through a vanishing sine
    u = AmbientCoordinateField(index, scale=math.sqrt(2.0))
    field = cut.build_inf_cutoff(cut.empty_cover(2, 1, 0.1, ambient_dim=4))
    resid = oracles.ibp_residual(torus, field, u, u)
    assert resid <= 1e-8


def test_ibp_cross_term_decreases(torus):
    _, pts = geo.sample_points(torus, 1, seed=2)
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    crosses = []
    for eps in (0.1, 0.05, 0.025):
        cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=eps)
        field = cut.build_inf_cutoff(cov)
        crosses.append(oracles.cutoff_cross_term(torus, field, u))
    assert crosses[0] > crosses[1] > crosses[2] > 0.0


def test_ibp_residual_small_at_tight_budget(torus):
    _, pts = geo.sample_points(torus, 1, seed=2)
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.01)
    resid = oracles.ibp_residual(torus, cut.build_inf_cutoff(cov), u, u)
    assert resid <= 1e-4


def _patch_reference(M, field, u, v, i, which):
    """The all-balls patch integrand of ball i, as ibp_residual ("ibp") and
    cutoff_cross_term ("cross") first wrote it."""
    cover = field.cover
    chart = M.chart

    def integrand(U, X):
        d, grad_d, _, vals, slope = _every_ball(field, X)
        uu = np.asarray(u.value(X), dtype=float)
        if field.kind == "product":
            in_ann = (d > cover.radii[None] / 2.0) & (d < cover.radii[None])
            first = np.where(in_ann.any(axis=1), in_ann.argmax(axis=1), -1)
            grad = cut._product_gradient(cut._product_excluding_one(vals), slope, grad_d)
            gsq = cut.tangential_gradient_sq(M, X, grad)
            return np.where(first == i, np.abs(uu) * np.sqrt(gsq), 0.0)
        act = vals.argmin(axis=1)
        take = np.arange(X.shape[0])
        phi, grad = vals[take, act], slope[take, act][:, None] * grad_d[take, act]
        if which == "cross":
            gsq = cut.tangential_gradient_sq(M, X, grad)
            return np.where(act == i, np.abs(uu) * np.sqrt(gsq), 0.0)
        jac, gdiag = oracles.chart_jacobian(M, U), chart.metric_diag(U)
        du, dv, dphi = (np.einsum("pia,pi->pa", jac, g, optimize=True)
                        for g in (u.ambient_gradient(X), v.ambient_gradient(X), grad))
        lap = -M.dimension * v.value(X)  # Delta x_j = -n x_j
        inn = np.sum(du * dv / gdiag, axis=-1)
        cross = uu * np.sum(dv * dphi / gdiag, axis=-1)
        return np.where(act == i, -(1.0 - phi) * (uu * lap + inn) + cross, 0.0)

    return integrand


def test_patch_integrands_match_all_balls(torus, monkeypatch):
    # ibp_residual and cutoff_cross_term evaluate each patch against its
    # ball's neighbours only (reach 2 (r_i + r_j) inf, r_i + r_j product);
    # on crowded covers, on the patch rows and on rows far from the ball,
    # the inf patch integrands equal the all-balls ones bit for bit and the
    # product one has the same support and values to rounding
    chart = torus.chart
    _, centers = geo.sample_points(torus, 30, seed=51, pad=0.3)
    rng = np.random.default_rng(52)
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    v = AmbientCoordinateField(2, scale=math.sqrt(2.0))
    inf_cover = cut.BallCover(centers, rng.uniform(0.05, 0.3, 30), 2, 1, 1e9, "geodesic")
    product_cover = cut.BallCover(centers, rng.uniform(0.1, 0.6, 30), 2, 0.0, 1e9, "euclidean")
    patches = []
    monkeypatch.setattr(oracles, "local_polar_integral",
                        lambda M, center, fn, reach, **kw: patches.append((center, fn, reach)) or 0.0)
    U_bg = rng.uniform(chart.box[:, 0], chart.box[:, 1], size=(1500, 2))
    cases = (
        ("ibp", inf_cover,
         lambda: oracles.ibp_residual(torus, cut.build_inf_cutoff(inf_cover), u, v, resolution=16)),
        ("cross", inf_cover, lambda: oracles.cutoff_cross_term(torus, cut.build_inf_cutoff(inf_cover), u)),
        ("cross", product_cover, lambda: oracles.cutoff_cross_term(torus, cut.CutoffField(product_cover, "product"), u)),
    )
    for which, cover, run in cases:
        field = cut.CutoffField(cover, "inf" if cover is inf_cover else "product")
        reach = 2.0 if field.kind == "inf" else 1.0
        listed = np.sum(~cut._neighbour_table(cover, reach)[1], axis=1)
        assert np.any((1 < listed) & (listed < cover.size))
        patches.clear()
        run()
        assert len(patches) == cover.size
        nonzero = 0
        for i, (center, fn, patch_reach) in enumerate(patches):
            assert np.array_equal(center, cover.centers[i])
            u0 = chart.inverse(center)
            U = np.vstack([U_bg, u0 + rng.uniform(-1.0, 1.0, size=(1500, 2)) * patch_reach * 1.6])
            X = chart.embed(U)
            local = fn(U, X)
            ref = _patch_reference(torus, field, u, v, i, which)(U, X)
            if field.kind == "inf":
                assert np.array_equal(local, ref)
            else:
                # the product gradient is one matmul over the ball columns;
                # summing fewer columns may round differently where two or
                # more annuli overlap, so values agree to rounding
                assert np.array_equal(local == 0.0, ref == 0.0)
                assert np.allclose(local, ref, rtol=1e-14, atol=0.0)
            nonzero += int(np.count_nonzero(local))
        assert nonzero > 200 * cover.size


def test_ibp_residual_one_jacobian_per_patch(torus, monkeypatch):
    # each patch evaluates the chart frame of its rows once and passes it to
    # every gradient: the fields' gradients, the inner product and dphi
    calls = []
    jacobian = oracles.chart_jacobian
    monkeypatch.setattr(oracles, "chart_jacobian", lambda M, U: calls.append(len(U)) or jacobian(M, U))
    per_patch = []
    polar = oracles.local_polar_integral

    def counted(M, center, fn, reach, **kw):
        def patch(U, X):
            before = len(calls)
            out = fn(U, X)
            per_patch.append(len(calls) - before)
            return out

        return polar(M, center, patch, reach, **kw)

    monkeypatch.setattr(oracles, "local_polar_integral", counted)
    _, centers = geo.sample_points(torus, 4, seed=11)
    cover = cut.BallCover(centers, np.full(4, 0.05), 2, 1, 1e9, "geodesic")
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    v = AmbientCoordinateField(2, scale=math.sqrt(2.0))
    resid = oracles.ibp_residual(torus, cut.build_inf_cutoff(cover), u, v, resolution=16, n_angular=16,
                             nodes_per_segment=8)
    assert np.isfinite(resid)
    assert per_patch == [1] * cover.size


def test_ibp_constant_u_divergence_form(torus):
    # u == 1: residual reduces to |int phi Delta v + int <grad v, grad phi>|
    _, pts = geo.sample_points(torus, 1, seed=4)
    cov = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.01)
    v = AmbientCoordinateField(2, scale=math.sqrt(2.0))
    resid = oracles.ibp_residual(torus, cut.build_inf_cutoff(cov), ConstantField(1.0), v)
    assert resid <= 1e-6


def test_patch_sum_takes_arc_radii_of_a_euclidean_cover(torus, monkeypatch):
    # a Euclidean (chord) cover's reach and breaks reach the patches as
    # geodesic radii; an indicator of each ball's chord ball then integrates
    # to the closed-form area of that ball, whose geodesic radius is the arc
    _, centers = geo.sample_points(torus, 3, seed=8)
    radii = np.array([0.1, 0.2, 0.3])
    field = cut.CutoffField(cut.BallCover(centers, radii, 2, 0.0, 1e9, "euclidean"), "product")
    seen = []
    polar = oracles.local_polar_integral

    def recorded(M, center, fn, reach, breaks=(), **kw):
        seen.append((reach, list(breaks)))
        return polar(M, center, fn, reach, breaks=breaks, **kw)

    monkeypatch.setattr(oracles, "local_polar_integral", recorded)

    def chord_ball(i, nb, U, X):
        return (np.linalg.norm(X - centers[i], axis=-1) < radii[i]).astype(float)

    total = oracles._patch_sum(torus, field, chord_ball, 64, 24)
    arc = geo._chord_to_arc
    assert seen == [(arc(r), [arc(r / 2.0), arc(r)]) for r in radii]
    exact = sum(float(geo._ball_area(1, 1, 1.0 - r**2 / 2.0)) for r in radii)
    assert abs(total / exact - 1.0) <= 5e-3


def test_product_cross_term_matches_chart_quadrature(torus):
    # the local patches of a product cover against a 384^2 chart quadrature
    # of |u| |grad phi| over the whole torus
    _, centers = geo.sample_points(torus, 5, seed=4)
    field = cut.CutoffField(cut.BallCover(centers, np.full(5, 0.3), 2, 0.0, 1e9, "euclidean"),
                            "product")
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    patches = oracles.cutoff_cross_term(torus, field, u)
    nodes, weights = geo.chart_quadrature(torus.chart, 384)
    X = torus.chart.embed(nodes)
    gsq = cut.tangential_gradient_sq(torus, X, field.ambient_gradient(X))
    density = weights * geo.sqrt_det_metric(torus.chart, nodes)
    quadrature = float(density @ (np.abs(u.value(X)) * np.sqrt(gsq)))
    assert abs(patches / quadrature - 1.0) <= 1e-3
