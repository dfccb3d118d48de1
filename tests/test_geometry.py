"""Geometry backends: closed forms, finite differences, areas, ball areas."""

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
    product = geo.clifford_hypersurface((k, l)).product
    rk2, rl2 = product.radius_sq
    assert rk2 + rl2 == 1  # exact rational identity
    # the curvatures, |A|^2 and the family name all come from the factors
    assert product.curvature_sq == (Fraction(l, k), Fraction(k, l))
    assert product.norm_A_sq == n and product.dims == (k, l) and product.family == "clifford"


def test_sphere_product_refuses_what_is_not_a_minimal_hypersurface():
    # radii off d_i / n (not minimal), and three factors (codimension 2)
    with pytest.raises(ValueError, match="minimal"):
        geo.SphereProduct("clifford", ((1, Fraction(1, 3)), (1, Fraction(2, 3))))
    with pytest.raises(ValueError, match="two sphere factors"):
        geo.SphereProduct("clifford", ((1, Fraction(1, 3)),) * 3)


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
    rk, rl = geo.clifford_hypersurface((1, 2)).product.radii
    assert rk == math.sqrt(1.0 / 3.0) and rl == math.sqrt(2.0 / 3.0)


def test_generic_backends_match_closed_form():
    M = geo.clifford_hypersurface((2, 1))
    U, _ = geo.sample_points(M, 5, seed=6, pad=0.05)
    for u in U:
        cf = geo.shape_at(M, u)
        nd = geo.shape_at(M, u, method="normal-derivative")
        # O(h^2) truncation with h = 1e-3 on a curved chart
        assert abs(nd.norm_A_sq - cf.norm_A_sq) <= 5e-6
        assert abs(nd.mean_curvature) <= 5e-6
        # A matrices agree up to the normal orientation sign
        diff = min(
            np.abs(nd.second_fundamental - cf.second_fundamental).max(),
            np.abs(nd.second_fundamental + cf.second_fundamental).max(),
        )
        assert diff <= 5e-6


def test_normal_derivative_refinement():
    # the differentiated normal converges to the closed form at O(h^2):
    # errors shrink ~4x per halving
    M = geo.clifford_hypersurface((1, 2))
    u = geo.sample_points(M, 1, seed=7, pad=0.05)[0][0]
    cf = geo.shape_at(M, u, method="closed-form")
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        nd = geo.shape_at(M, u, method="normal-derivative", fd_step=h)
        diff = min(
            np.abs(nd.second_fundamental - cf.second_fundamental).max(),
            np.abs(nd.second_fundamental + cf.second_fundamental).max(),
        )
        errs.append(diff)
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 8.0  # at least order ~1.5 over 4x step reduction


def test_chart_invariance_reparametrized_torus(torus):
    # same surface under a shifted chart: |A|^2 and H agree where charts overlap
    base = torus.chart
    off = np.array([0.7, 1.3])
    chart2 = geo.Chart(
        base.box.copy(), base.periodic,
        lambda U: base.embed(np.asarray(U) + off),
        lambda U: base.jacobian(np.asarray(U) + off),
        lambda U: base.metric_diag(np.asarray(U) + off),
        [lambda t, a=a: base.axis_density[a](t + off[a]) for a in range(2)],
        lambda X: np.mod(base.inverse(X) - off, 2.0 * math.pi),
        base.density_const,
    )
    M2 = geo.ParametrizedHypersurface(chart2, torus.product)
    assert abs(geo.area(M2) - geo.area(torus)) <= 1e-12
    U, _ = geo.sample_points(torus, 5, seed=8)
    for u in U:
        sd2 = geo.shape_at(M2, u - off)       # same ambient point
        sd = geo.shape_at(torus, u, method="normal-derivative")
        assert abs(sd2.norm_A_sq - sd.norm_A_sq) <= 1e-10
        assert abs(sd2.mean_curvature) <= 1e-8
        # O(h^2) truncation with h = 1e-3, as in the comparison with the closed form
        assert abs(sd2.norm_A_sq - 2.0) <= 5e-6


def test_chart_requires_its_analytic_frame(torus):
    base = torus.chart
    with pytest.raises(TypeError):
        geo.Chart(base.box, base.periodic, base.embed)
    with pytest.raises(TypeError):
        geo.Chart(base.box, base.periodic, base.embed, base.jacobian, base.metric_diag,
                  base.axis_density)


@pytest.mark.parametrize("product, error, match", [
    ((), TypeError, "product"),
    ((None,), UnsupportedFamily, "SphereProduct"),
    ((geo.SphereProduct("equator", ((3, Fraction(1)),)),), UnsupportedFamily, "SphereProduct"),
], ids=["no product", "None", "other dimension"])
def test_surface_refuses_a_chart_without_its_product(torus, product, error, match):
    # a surface is built once from its exact description, of its chart's dimension
    with pytest.raises(error, match=match):
        geo.ParametrizedHypersurface(torus.chart, *product)


def test_degenerate_chart_raises():
    M = geo.clifford_hypersurface((2, 1))
    with pytest.raises(DegenerateChart):
        geo.shape_at(M, np.array([1e-9, 0.3, 0.4]))  # at the coordinate pole


def test_immersion_drift_raises(torus):
    base = torus.chart
    bad = dataclasses.replace(
        base,
        embed=lambda U: 1.001 * base.embed(U),
        jacobian=lambda U: 1.001 * base.jacobian(U),
        metric_diag=lambda U: 1.001**2 * base.metric_diag(U),
        density_const=1.001**2 * base.density_const,
    )
    M = geo.ParametrizedHypersurface(bad, torus.product)
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


def _scan_nearest(M, x, resolution=96, zoom=3):
    """Oracle of the closed-form inverse: a grid argmin of |embed(u) - x| over
    the sample box, followed by ``zoom`` refinements around the best node."""
    chart = M.chart
    sample = chart.sample_box()
    polar = ~np.asarray(chart.periodic, dtype=bool)
    box = sample
    for _ in range(zoom + 1):
        pts = geo._tensor_grid([np.linspace(lo, hi, resolution) for lo, hi in box])
        u = pts[int(np.argmin(np.linalg.norm(chart.embed(pts) - x, axis=-1)))]
        width = (box[:, 1] - box[:, 0]) / resolution * 2.0
        box = np.stack([u - width, u + width], axis=-1)
        box[polar] = np.clip(box[polar], sample[polar, :1], sample[polar, 1:])
    return u


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
            rk, rl = M.product.radii
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
    chart = M.chart
    sample = chart.sample_box()
    a = chart.periodic.index(False)       # first polar axis
    u = sample.mean(axis=1)
    for pole, bound in ((0.0, sample[a, 0]), (math.pi, sample[a, 1])):
        u[a] = pole
        x = chart.embed(u)
        fast, slow = nearest_chart_point(M, x), _scan_nearest(M, x)
        assert fast[a] == bound and abs(slow[a] - bound) <= 1e-12
        gap_fast = np.linalg.norm(chart.embed(fast) - x)
        assert gap_fast <= np.linalg.norm(chart.embed(slow) - x) + 1e-12


@pytest.mark.parametrize("kind, arg, count", [
    ("equator", 2, 6), ("clifford", (1, 1), 6), ("clifford", (1, 2), 2),
])
def test_nearest_chart_point_beats_scan_off_surface(kind, arg, count):
    # the scan costs ~0.8 s per call at n = 3, so only a few points there
    M = _family(kind, arg)
    embed = M.chart.embed
    rng = np.random.default_rng(21)
    X = rng.normal(size=(count, M.dimension + 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    for x in X:
        fast = np.linalg.norm(embed(nearest_chart_point(M, x)) - x)
        slow = np.linalg.norm(embed(_scan_nearest(M, x)) - x)
        assert fast <= slow + 1e-12


def test_nearest_chart_point_takes_a_batch():
    # an (..., n+2) array of points gives exactly the per-point answers in
    # the same layout
    M = geo.clifford_hypersurface((1, 1))
    rng = np.random.default_rng(22)
    X = rng.normal(size=(2, 3, 4))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    batch = nearest_chart_point(M, X)
    assert batch.shape == (2, 3, 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(batch[idx], nearest_chart_point(M, X[idx]))


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
    cv = geo.measure_volume_growth(torus)
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
    assert abs(geo.measure_volume_growth(M) - geodesic) <= 1e-4
    assert abs(geo.measure_volume_growth(M, metric="euclidean") - chord) <= 1e-4


@pytest.mark.parametrize("M", BUILT_IN, ids=repr)
def test_ball_area_limits(M):
    n = M.dimension
    # the chord ball of radius 2 is all of M
    assert abs(ball_area(M, 2.0, "euclidean") / geo.area(M) - 1.0) <= 1e-12
    # a small ball is a flat n-disc
    r = 1e-3
    assert abs(ball_area(M, r) / (math.pi ** (n / 2) / math.gamma(n / 2 + 1) * r**n) - 1.0) <= 1e-5


@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 3)])
def test_ball_area_factor_order(k, l):
    a, b = geo.clifford_hypersurface((k, l)), geo.clifford_hypersurface((l, k))
    for metric in ("geodesic", "euclidean"):
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


def test_volume_growth_rejects_unknown_metric(torus):
    # "euclidean" is the one name of the chord metric, as in BallCover
    for metric in ("geodesc", "chord"):
        with pytest.raises(ValueError):
            geo.measure_volume_growth(torus, metric=metric)


# ---------------------------------------------------------------------------
# small caps: int_0^a sin^m
# ---------------------------------------------------------------------------

def _sin_power_reference(m, a):
    """int_0^a sin^m by a 32-panel, 32-node composite Gauss-Legendre rule:
    positive terms, so no cancellation at small a."""
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, a, 33)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    return math.fsum((half[:, None] * w * np.sin(mid[:, None] + half[:, None] * x) ** m).ravel())


CAP_ANGLES = np.concatenate([np.geomspace(1e-4, math.pi, 41), [math.pi / 2]])


@pytest.mark.parametrize("m", [0] + list(range(2, 15)))
def test_sin_power_integral_small_caps(m):
    got = geo._sin_power_integral(m, CAP_ANGLES)
    ref = np.array([_sin_power_reference(m, a) for a in CAP_ANGLES])
    assert np.all(got > 0.0)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12
    # independent anchors: J_m(pi) = 2 J_m(pi/2) = sqrt(pi) Gamma((m+1)/2) / Gamma(m/2 + 1),
    # and the series a^(m+1) (1/(m+1) - m a^2 / (6 (m+3)) + (m^2/72 - m/180) a^4 / (m+5))
    exact = math.sqrt(math.pi) * math.gamma((m + 1) / 2) / math.gamma(m / 2 + 1)
    assert abs(float(geo._sin_power_integral(m, math.pi)) / exact - 1.0) <= 1e-13
    assert abs(float(geo._sin_power_integral(m, math.pi / 2)) / (exact / 2) - 1.0) <= 1e-13
    for a in (1e-4, 1e-3):
        series = a ** (m + 1) * (1 / (m + 1) - m * a**2 / (6 * (m + 3))
                                 + (m**2 / 72 - m / 180) * a**4 / (m + 5))
        assert abs(float(geo._sin_power_integral(m, a)) / series - 1.0) <= 1e-12


def test_sin_power_integral_m1_closed_form():
    # J_1(a) = 1 - cos a, written 2 sin^2(a/2) because 1 - cos a cancels at
    # small a (9e-9 relative at a = 1e-4); against its Taylor series, whose
    # first omitted term is below 1e-16 relative for a <= 1e-2
    a = np.concatenate([np.geomspace(1e-8, 1e-2, 25), [1e-4]])
    series = a**2 / 2 - a**4 / 24 + a**6 / 720
    assert np.max(np.abs(geo._sin_power_integral(1, a) / series - 1.0)) <= 1e-15
    assert abs(float(geo._sin_power_integral(1, math.pi)) - 2.0) <= 4e-16
    assert abs(float(geo._sin_power_integral(1, math.pi / 2)) - 1.0) <= 4e-16


def _swapped_ball_area(l, r, panels=64):
    """area of B_r(x) on S^1(sqrt(1/n)) x S^l(sqrt(l/n)), n = l + 1, integrating
    the S^l polar angle phi outside and the circle angle in closed form:
    |theta| <= theta*(phi) with sin^2(theta*/2) = (sin^2(r/2) - wl sin^2(phi/2)) / wk,
    up to phi_max where that vanishes; phi = phi_max (1 - (1 - s)^2) keeps the
    square-root edge smooth."""
    n = l + 1
    wk, wl = 1.0 / n, l / n
    phi_max = 2.0 * math.asin(math.sin(r / 2.0) / math.sqrt(wl))
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, 1.0, panels + 1)
    s = ((edges[1:] + edges[:-1]) / 2.0)[:, None] + (np.diff(edges) / 2.0)[:, None] * x
    ws = (np.diff(edges) / 2.0)[:, None] * w
    phi = phi_max * (1.0 - (1.0 - s) ** 2)
    dphi = 2.0 * phi_max * (1.0 - s) * ws
    q = (math.sin(r / 2.0) ** 2 - wl * np.sin(phi / 2.0) ** 2) / wk
    theta = 2.0 * np.arcsin(np.sqrt(np.clip(q, 0.0, 1.0)))
    total = math.fsum((2.0 * theta * np.sin(phi) ** (l - 1) * dphi).ravel())
    return math.sqrt(wk) * wl ** (l / 2) * geo._sphere_area(l - 1) * total


@pytest.mark.parametrize("l", [2, 5, 8, 12])
@pytest.mark.parametrize("r", [0.01, 0.05, 0.3])
def test_small_ball_area_against_swapped_integral(l, r):
    # the cap integrals J_(l-1) of clifford(1, l) at small radii, where the
    # reduction formula went negative for l = 12, r = 0.01
    got = float(geo._ball_area(1, l, np.cos(r)))
    assert got > 0.0
    assert abs(got / _swapped_ball_area(l, r) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_row_product_is_np_prod_bit_for_bit(n):
    # the left-to-right product over a short last axis, on a stacked (boxes,
    # cells, n) layout and on magnitudes whose products round differently
    # in another order
    rng = np.random.default_rng(n)
    a = rng.random((3, 257, n)) * 10.0 ** rng.integers(-8, 9, size=(3, 257, n))
    assert np.array_equal(geo._row_product(np.moveaxis(a, -1, 0)), np.prod(a, axis=-1))
    assert np.array_equal(geo._row_product(np.moveaxis(a[0], -1, 0)), np.prod(a[0], axis=-1))
