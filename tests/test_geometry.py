"""Geometry backends: closed forms, finite differences, areas, chart files."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from spherestab import geometry as geo
from spherestab.errors import DegenerateChart, ImmersionDrift, UnsupportedFamily
from spherestab.sampling import nearest_chart_point

RNG = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# exact oracles for the product family, in rational arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (2, 3), (1, 5)])
def test_product_family_symbolic_oracle(k, l):
    # principal curvatures sqrt(l/k) (x k) and -sqrt(k/l) (x l):
    # trace zero <=> k^2 (l/k) == l^2 (k/l), square sum == n; both exact in Fractions
    n = k + l
    assert Fraction(k) ** 2 * Fraction(l, k) == Fraction(l) ** 2 * Fraction(k, l)
    assert Fraction(k) * Fraction(l, k) + Fraction(l) * Fraction(k, l) == n
    spec = geo.CliffordSpec(k, l)
    rk2, rl2 = spec.radius_sq
    assert rk2 + rl2 == 1  # exact rational identity


def test_ambient_point_validation():
    geo.AmbientPoint(np.array([1.0, 0.0, 0.0, 0.0]), 2)
    with pytest.raises(ImmersionDrift):
        geo.AmbientPoint(np.array([1.0 + 1e-11, 0.0, 0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        geo.AmbientPoint(np.array([1.0, 0.0, 0.0]), 2)


# ---------------------------------------------------------------------------
# shape data
# ---------------------------------------------------------------------------

def test_equator_shape_trivial(equator2):
    U, X = geo.sample_points(equator2, 100, seed=1)
    _, _, A, H, a2 = equator2.shape_batch(U)   # A == 0 at all 100 points
    assert np.abs(A).max() == 0.0 and np.abs(H).max() == 0.0
    assert np.abs(a2).max() <= 1e-12
    for u in U[:10]:
        sd = geo.shape_at(equator2, u)
        assert np.allclose(sd.second_fundamental, 0.0, atol=1e-14)
        assert sd.mean_curvature == 0.0
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_equator3_shape_trivial():
    M = geo.equator(3)
    U, _ = geo.sample_points(M, 100, seed=2)
    gdiag, nu, A, H, a2 = M.shape_batch(U)
    assert np.abs(A).max() == 0.0
    assert np.abs(H).max() == 0.0
    assert np.abs(a2).max() <= 1e-12


def test_torus_shape(torus):
    U, _ = geo.sample_points(torus, 20, seed=3)
    for u in U[:5]:
        sd = geo.shape_at(torus, u)
        assert sd.norm_A_sq == 2.0          # |A|^2 = n exactly in the closed form
        assert sd.mean_curvature == 0.0
        assert np.allclose(sd.metric, 0.5 * np.eye(2))  # flat induced metric


def test_clifford21_principal_curvatures():
    M = geo.clifford_hypersurface((2, 1))
    U, _ = geo.sample_points(M, 5, seed=4)
    sd = geo.shape_at(M, U[0])
    kappa = np.sort(np.linalg.eigvalsh(np.linalg.solve(sd.metric, sd.second_fundamental)))
    expected = np.sort([math.sqrt(0.5), math.sqrt(0.5), -math.sqrt(2.0)])
    assert np.allclose(kappa, expected, atol=1e-12)
    assert abs(sd.norm_A_sq - 3.0) <= 1e-12
    assert abs(sd.mean_curvature) <= 1e-12


def test_clifford_minimality_invariants(clifford_families):
    for (k, l), M in clifford_families.items():
        n = k + l
        U, X = geo.sample_points(M, 200, seed=5)
        gdiag, nu, A, H, a2 = M.shape_batch(U)
        assert np.abs(H).max() <= 1e-10
        assert np.abs(a2 - n).max() <= 1e-10
        # stored H matches trace_g(A)
        trace = np.einsum("ma,maa->m", 1.0 / gdiag, A)
        assert np.abs(trace - H).max() <= 1e-10
        # normals are unit, tangent to the sphere, orthogonal to the chart frame
        assert np.allclose(np.linalg.norm(nu, axis=1), 1.0, atol=1e-12)
        assert np.abs(np.einsum("mi,mi->m", nu, X)).max() <= 1e-12
        jac = M.chart.jacobian(U)
        assert np.abs(np.einsum("mia,mi->ma", jac, nu)).max() <= 1e-10


def test_clifford12_radii():
    spec = geo.CliffordSpec(1, 2)
    rk, rl = spec.radii
    assert rk == math.sqrt(1.0 / 3.0) and rl == math.sqrt(2.0 / 3.0)


def test_generic_backends_match_closed_form():
    M = geo.clifford_hypersurface((2, 1))
    U, _ = geo.sample_points(M, 5, seed=6, pad=0.05)
    for u in U:
        cf = geo.shape_at(M, u)
        nd = geo.shape_at(M, u, method="normal-derivative")
        he = geo.shape_at(M, u, method="hessian")
        # O(h^2) truncation with h = 1e-3 on a curved chart
        assert abs(nd.norm_A_sq - cf.norm_A_sq) <= 5e-6
        assert abs(nd.mean_curvature) <= 5e-6
        assert abs(he.norm_A_sq - cf.norm_A_sq) <= 1e-4   # second differences are noisier
        # A matrices agree up to the normal orientation sign
        diff = min(
            np.abs(nd.second_fundamental - cf.second_fundamental).max(),
            np.abs(nd.second_fundamental + cf.second_fundamental).max(),
        )
        assert diff <= 5e-6


def test_normal_derivative_vs_hessian_refinement():
    # the two A computations agree to O(h^2): errors shrink ~4x per halving
    M = geo.clifford_hypersurface((1, 2))
    u = geo.sample_points(M, 1, seed=7, pad=0.05)[0][0]
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        nd = geo.shape_at(M, u, method="normal-derivative", fd_step=h)
        he = geo.shape_at(M, u, method="hessian", fd_step=h)
        diff = min(
            np.abs(nd.second_fundamental - he.second_fundamental).max(),
            np.abs(nd.second_fundamental + he.second_fundamental).max(),
        )
        errs.append(diff)
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 8.0  # at least order ~1.5 over 4x step reduction


def test_chart_invariance_reparametrized_torus(torus):
    # same surface under a shifted chart: |A|^2 and H agree where charts overlap
    base = torus.chart
    off = np.array([0.7, 1.3])
    chart2 = geo.Chart(base.box.copy(), base.periodic, lambda U: base.embed(np.asarray(U) + off))
    M2 = geo.ParametrizedHypersurface(2, chart2, family="custom")
    U, _ = geo.sample_points(torus, 5, seed=8)
    for u in U:
        sd2 = geo.shape_at(M2, u - off)       # same ambient point
        assert abs(sd2.norm_A_sq - 2.0) <= 1e-8
        assert abs(sd2.mean_curvature) <= 1e-8


def test_degenerate_chart_raises():
    M = geo.clifford_hypersurface((2, 1))
    with pytest.raises(DegenerateChart):
        geo.shape_at(M, np.array([1e-9, 0.3, 0.4]))  # at the coordinate pole


def test_immersion_drift_raises(torus):
    base = torus.chart
    bad = geo.Chart(base.box.copy(), base.periodic, lambda U: 1.001 * base.embed(U))
    M = geo.ParametrizedHypersurface(2, bad, family="custom")
    with pytest.raises(ImmersionDrift):
        geo.shape_at(M, np.array([0.3, 0.4]))


# ---------------------------------------------------------------------------
# chart inverse and nearest chart points
# ---------------------------------------------------------------------------

INVERSE_FAMILIES = [("equator", n) for n in (2, 3, 4, 5)] + [
    ("clifford", kl) for kl in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
]


def _family(kind, arg):
    return geo.equator(arg) if kind == "equator" else geo.clifford_hypersurface(arg)


def _scan_only(M):
    """The same surface with its closed-form inverse removed (grid-scan path)."""
    chart = dataclasses.replace(M.chart, inverse=None)
    return geo.ParametrizedHypersurface(M.dimension, chart, family="custom")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sphere_angles_inverts_sphere_point(k):
    box, _ = geo._sphere_axes(k)
    rng = np.random.default_rng(k)
    t = rng.uniform(box[:, 0] + 0.01, box[:, 1] - 0.01, size=(50, k))
    x = geo.sphere_point(t)
    assert np.max(np.abs(geo.sphere_angles(x) - t)) <= 1e-12
    assert np.max(np.abs(geo.sphere_angles(3.0 * x) - t)) <= 1e-12  # scale-free


def _former_sphere_point(angles):
    # the hyperspherical embedding loop as it was before the embeds shared an output
    angles = np.asarray(angles, dtype=float)
    k = angles.shape[-1]
    out = np.empty(angles.shape[:-1] + (k + 1,))
    run = np.ones(angles.shape[:-1])
    for i in range(k):
        out[..., i] = run * np.cos(angles[..., i])
        run = run * np.sin(angles[..., i])
    out[..., k] = run
    return out


def _former_sphere_jacobian(angles):
    # the running-product Jacobian loop as it was before the charts shared an output
    angles = np.asarray(angles, dtype=float)
    k = angles.shape[-1]
    s, c = np.sin(angles), np.cos(angles)
    jac = np.zeros(angles.shape[:-1] + (k + 1, k))
    prefix = np.ones(angles.shape[:-1])
    for a in range(k):
        jac[..., a, a] = -prefix * s[..., a]
        run = prefix * c[..., a]
        for i in range(a + 1, k):
            jac[..., i, a] = run * c[..., i]
            run = run * s[..., i]
        jac[..., k, a] = run
        prefix = prefix * s[..., a]
    return jac


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (4, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 4)])
def test_embed_and_jacobian_match_former_loops(k, l):
    # bit for bit, signs of zero included: sphere_point and sphere_jacobian,
    # and the equator and clifford embed and jacobian, which write each
    # (scaled) factor straight into one output
    M = geo.equator(k) if l == 0 else geo.clifford_hypersurface((k, l))
    rng = np.random.default_rng(7 * k + l)
    for base in [(), (1,), (300,), (6, 7)]:
        U = rng.uniform(-7.0, 7.0, size=base + (M.dimension,))
        U[..., 0] = np.where(rng.random(base) < 0.3, 0.0, U[..., 0])   # zero angles
        U[..., -1] = np.where(rng.random(base) < 0.3, np.pi, U[..., -1])
        jac = np.zeros(base + (M.dimension + 2, M.dimension))
        if l == 0:
            x, jac[..., :-1, :] = _former_sphere_point(U), _former_sphere_jacobian(U)
            assert _same_bits(geo.sphere_point(U), x)
            assert _same_bits(geo.sphere_jacobian(U), jac[..., :-1, :])
            x = np.concatenate([x, np.zeros(base + (1,))], axis=-1)
        else:
            rk, rl = geo.CliffordSpec(k, l).radii
            x = np.concatenate([_former_sphere_point(U[..., :k]) * rk,
                                _former_sphere_point(U[..., k:]) * rl], axis=-1)
            jac[..., : k + 1, :k] = _former_sphere_jacobian(U[..., :k]) * rk
            jac[..., k + 1 :, k:] = _former_sphere_jacobian(U[..., k:]) * rl
        assert _same_bits(M.chart.embed(U), x)
        assert _same_bits(M.chart.jacobian(U), jac)


@pytest.mark.parametrize("M", [geo.equator(3), geo.clifford_hypersurface((1, 1)),
                               geo.clifford_hypersurface((2, 1))], ids=repr)
def test_jacobian_at_zero_angles_matches_central_differences(M):
    # every combination of exactly-zero angles among random ones: the
    # derivative through a vanishing sin t_a must not be dropped
    rng = np.random.default_rng(M.dimension)
    n = M.dimension
    U = rng.uniform(0.3, 2.8, size=(2**n, n))
    for row, zeros in enumerate(np.ndindex(*(2,) * n)):
        U[row, np.flatnonzero(zeros)] = 0.0
    fd = geo._central_diff(M.chart.embed, U, 1e-6)
    assert np.max(np.abs(M.chart.jacobian(U) - fd)) <= 1e-9


@pytest.mark.parametrize("kind, arg", INVERSE_FAMILIES)
def test_nearest_chart_point_round_trip(kind, arg):
    M = _family(kind, arg)
    chart = M.chart
    U, X = geo.sample_points(M, 40, seed=3)
    for x in X:
        u = nearest_chart_point(M, x)
        assert np.all(u >= chart.box[:, 0]) and np.all(u <= chart.box[:, 1])
        assert np.max(np.abs(chart.embed(u) - x)) <= 1e-12


@pytest.mark.parametrize("kind, arg", [("equator", 2), ("clifford", (1, 2))])
def test_nearest_chart_point_clips_poles_like_scan(kind, arg):
    M = _family(kind, arg)
    scan = _scan_only(M)
    chart = M.chart
    sample = chart.sample_box()
    a = chart.periodic.index(False)       # first polar axis
    u = sample.mean(axis=1)
    for pole, bound in ((0.0, sample[a, 0]), (math.pi, sample[a, 1])):
        u[a] = pole
        x = chart.embed(u)
        fast, slow = nearest_chart_point(M, x), nearest_chart_point(scan, x)
        assert fast[a] == bound and abs(slow[a] - bound) <= 1e-12
        gap_fast = np.linalg.norm(chart.embed(fast) - x)
        assert gap_fast <= np.linalg.norm(chart.embed(slow) - x) + 1e-12


@pytest.mark.parametrize("kind, arg, count", [
    ("equator", 2, 6), ("clifford", (1, 1), 6), ("clifford", (1, 2), 2),
])
def test_nearest_chart_point_beats_scan_off_surface(kind, arg, count):
    # the scan costs ~0.8 s per call at n = 3, so only a few points there
    M = _family(kind, arg)
    scan = _scan_only(M)
    embed = M.chart.embed
    rng = np.random.default_rng(21)
    X = rng.normal(size=(count, M.dimension + 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    for x in X:
        fast = np.linalg.norm(embed(nearest_chart_point(M, x)) - x)
        slow = np.linalg.norm(embed(nearest_chart_point(scan, x)) - x)
        assert fast <= slow + 1e-12


def test_nearest_chart_point_takes_a_batch():
    # an (..., n+2) array of points gives, on both paths, exactly the
    # per-point answers in the same layout
    M = geo.clifford_hypersurface((1, 1))
    rng = np.random.default_rng(22)
    X = rng.normal(size=(2, 3, 4))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    for surface in (M, _scan_only(M)):
        batch = nearest_chart_point(surface, X)
        assert batch.shape == (2, 3, 2)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(batch[idx], nearest_chart_point(surface, X[idx]))


@pytest.mark.parametrize("M", [geo.equator(4), geo.clifford_hypersurface((2, 2))])
def test_nearest_chart_point_scan_refused_above_three(M):
    with pytest.raises(UnsupportedFamily):
        nearest_chart_point(_scan_only(M), M.chart.embed(M.chart.sample_box().mean(axis=1)))


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------

def test_area_equator2(equator2):
    assert abs(geo.area(equator2, 256) - 4.0 * math.pi) <= 1e-6


def test_area_torus(torus):
    # product of circumferences (2 pi / sqrt 2)^2 = 2 pi^2
    assert abs(geo.area(torus, 256) - 2.0 * math.pi**2) <= 1e-8


def test_area_clifford12():
    M = geo.clifford_hypersurface((1, 2))
    expected = (2.0 * math.pi / math.sqrt(3.0)) * (4.0 * math.pi * 2.0 / 3.0)
    assert abs(geo.area(M, 256) - expected) <= 1e-6


def test_area_clifford33():
    # each factor S^3(sqrt(1/2)) has volume (1/2)^{3/2} * 2 pi^2
    M = geo.clifford_hypersurface((3, 3))
    expected = (0.5**1.5 * 2.0 * math.pi**2) ** 2
    assert abs(geo.area(M, 128) - expected) <= 1e-8


def test_volume_growth_bounds(torus):
    cv = geo.measure_volume_growth(torus, resolution=128)
    # flat density ~ pi at small radii, total-area ratio ~ 5.5 near r = 2
    assert math.pi < cv < 10.0


BUILT_IN = [geo.equator(2), geo.equator(3)] + [
    geo.clifford_hypersurface(kl) for kl in [(1, 1), (1, 2), (2, 2), (3, 3)]
]


def ball_area(M, r, metric="geodesic"):
    """area(M cap B_r(x)) as measure_volume_growth reads it on one radius, without safety."""
    return geo.measure_volume_growth(M, metric=metric, radii=[r], safety=1.0) * r**M.dimension


@pytest.mark.parametrize("kl,geodesic,chord", [
    ((1, 1), 4.3991, 5.6215), ((1, 2), 4.6071, 5.8979), ((2, 1), 4.6071, 5.8979),
    ((2, 2), 5.4260, 5.4283), ((3, 3), 5.6783, 5.6818),
])
def test_volume_growth_exact_values(kl, geodesic, chord):
    M = geo.clifford_hypersurface(kl)
    for seed in (0, 1, 7):
        assert abs(geo.measure_volume_growth(M, seed=seed) - geodesic) <= 1e-4
        assert abs(geo.measure_volume_growth(M, metric="chord", seed=seed) - chord) <= 1e-4


@pytest.mark.parametrize("M", BUILT_IN, ids=repr)
def test_ball_area_limits(M):
    n = M.dimension
    # the chord ball of radius 2 is all of M
    assert abs(ball_area(M, 2.0, "chord") / geo.area(M) - 1.0) <= 1e-12
    # a small ball is a flat n-disc
    r = 1e-3
    assert abs(ball_area(M, r) / (math.pi ** (n / 2) / math.gamma(n / 2 + 1) * r**n) - 1.0) <= 1e-5


@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 3)])
def test_ball_area_factor_order(k, l):
    a, b = geo.clifford_hypersurface((k, l)), geo.clifford_hypersurface((l, k))
    for metric in ("geodesic", "chord"):
        for r in np.geomspace(0.05, 1.9, 12):
            assert abs(ball_area(a, r, metric) / ball_area(b, r, metric) - 1.0) <= 1e-10


@pytest.mark.parametrize("kl,res", [((1, 1), 256), ((1, 2), 96)])
def test_ball_area_against_chart_quadrature(kl, res):
    M = geo.clifford_hypersurface(kl)
    chart = M.chart
    nodes, weights = geo.chart_quadrature(chart, res)
    mass = weights * geo.sqrt_det_metric(chart, nodes)
    X = chart.embed(nodes)
    _, centers = geo.sample_points(M, 3, seed=2)
    for c in centers:
        d = geo.geodesic_distance(X, c)
        for r in (0.5, 1.0, 1.5):
            assert abs(float(mass[d <= r].sum()) / ball_area(M, r) - 1.0) <= 0.01, (c, r)


def test_chart_file_volume_growth(tmp_path, torus):
    path = tmp_path / "torus.chart"
    geo.save_chart_file(torus, path, 128)
    loaded = geo.load_chart_file(path)  # family "chartfile": the quadrature branch
    built_in = geo.measure_volume_growth(torus)
    assert abs(geo.measure_volume_growth(loaded) / built_in - 1.0) <= 0.005


@pytest.mark.parametrize("metric", ["geodesic", "chord"])
def test_chart_file_volume_growth_matches_radius_loop(tmp_path, torus, metric):
    # reference: the ball mass of every centre x radius pair by its own mask
    path = tmp_path / "torus.chart"
    geo.save_chart_file(torus, path, 128)
    loaded = geo.load_chart_file(path)
    chart = loaded.chart
    nodes, weights = geo.chart_quadrature(chart, 128)
    mass = weights * geo.sqrt_det_metric(chart, nodes)
    X = chart.embed(nodes)
    _, centers = geo.sample_points(loaded, 20, seed=0)
    dist = geo._distance(metric)
    radii = np.geomspace(0.05, 1.9, 12)
    best = 0.0
    for c in centers:
        d = dist(X, c)
        for r in radii:
            best = max(best, float(mass[d <= r].sum()) / r**2)
    got = geo.measure_volume_growth(loaded, metric=metric)
    assert abs(got / (1.1 * best) - 1.0) <= 1e-12


def test_volume_growth_rejects_unknown_metric(torus):
    with pytest.raises(ValueError):
        geo.measure_volume_growth(torus, metric="geodesc")


# ---------------------------------------------------------------------------
# chart files
# ---------------------------------------------------------------------------

def test_chart_file_roundtrip(tmp_path, torus):
    path = tmp_path / "torus.chart"
    U, X = geo.sample_points(torus, 6, seed=11)
    errs = []
    for res in (128, 192):
        geo.save_chart_file(torus, path, res)
        loaded = geo.load_chart_file(path)
        assert loaded.dimension == 2
        assert np.abs(loaded.chart.embed(U) - X).max() < 1e-7
        sd = geo.shape_at(loaded, U[0])
        errs.append(abs(sd.norm_A_sq - 2.0))
        assert abs(sd.mean_curvature) < 1e-3
    assert errs[1] < errs[0]  # spline geometry converges under grid refinement


def test_chart_file_coarse_grid_drifts(tmp_path, torus):
    path = tmp_path / "coarse.chart"
    geo.save_chart_file(torus, path, 48)
    loaded = geo.load_chart_file(path)
    u = geo.sample_points(torus, 1, seed=12)[0][0]
    with pytest.raises(ImmersionDrift):
        geo.shape_at(loaded, u)


def test_chart_file_polar_axis(tmp_path, equator2):
    path = tmp_path / "s2.chart"
    geo.save_chart_file(equator2, path, 128)
    loaded = geo.load_chart_file(path)
    assert abs(geo.area(loaded, 96) - 4.0 * math.pi) < 1e-5
    sd = geo.shape_at(loaded, np.array([1.0, 2.0]))
    assert sd.norm_A_sq < 1e-6


def test_chart_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.chart"
    path.write_text("charts 1 dim 2\n")
    with pytest.raises(ValueError):
        geo.load_chart_file(path)


def test_chart_file_refuses_several_charts(tmp_path):
    # a surface has one chart: a file that splits the circle into two
    # half-circle charts is refused, while the same data as one chart loads
    circle = geo.equator(1)
    path = tmp_path / "circle.chart"
    geo.save_chart_file(circle, path, 64)
    assert geo.load_chart_file(path).dimension == 1
    header, *_ = path.read_text().splitlines()
    assert header == "dim 1 charts 1"
    half = math.pi
    lines = ["dim 1 charts 2"]
    for lo in (0.0, half):
        t = np.linspace(lo, lo + half, 33)
        lines += [f"box {lo!r} {lo + half!r}", "periodic 0", "grid 33"]
        lines += [" ".join(repr(float(v)) for v in row) for row in circle.embed(t[:, None])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnsupportedFamily):
        geo.load_chart_file(path)


def test_chart_file_dimension_limit(tmp_path):
    path = tmp_path / "big.chart"
    path.write_text("dim 3 charts 1\n")
    with pytest.raises(UnsupportedFamily):
        geo.load_chart_file(path)
