"""Curvature-energy bounds, absorption constants and the cone threshold."""

import json
import math

import numpy as np
import pytest

from spherestab import estimates as est
from spherestab import geometry as geo
from spherestab.cli import main
from spherestab.errors import PreconditionViolated


def test_ssy_examples():
    first = est.ssy_constants(2, 0.4)
    assert abs(first.coefficient - 0.875) <= 1e-15 and first.admissible

    boundary = est.ssy_constants(3, 1.0 / 3.0)
    assert boundary.coefficient == 1.0 and not boundary.admissible

    seventh = est.ssy_constants(7, 0.1)
    assert abs(seventh.coefficient - 1.1 / (1.0 + 2.0 / 7.0 - 0.1)) <= 1e-15
    assert abs(seventh.coefficient - 0.928) <= 5e-4 and seventh.admissible


def test_ssy_admissibility_monotone():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = float(rng.uniform(1e-4, 1.0))
        if est.ssy_constants(n, a).admissible:
            a2 = float(rng.uniform(1e-5, a))
            assert est.ssy_constants(n, a2).admissible


def test_ssy_absorbed_constant():
    res = est.ssy_constants(3, 0.1, alpha=6.0)
    assert res.admissible and res.absorbed is not None and res.absorbed > 0.0
    assert est.ssy_constants(3, 0.5).absorbed is None


@pytest.mark.parametrize("call, match", [
    (lambda: est.ssy_constants(2, 0.0), "a must be positive"),
    (lambda: est.ssy_constants(2, -0.1), "a must be positive"),
    (lambda: est.cone_stability_table(0), "n_max must be >= 1"),
], ids=["a = 0", "a < 0", "n_max = 0"])
def test_out_of_range_constants_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_cone_table_exact():
    table = est.cone_stability_table(10)
    assert [v.stable_possible for v in table] == [False] * 5 + [True] * 5
    v6 = table[5]
    assert v6.link_bound == -12.0 and v6.threshold == -12.25
    assert v6.margin == 0.25  # exact in binary floats
    v1 = table[0]
    assert v1.link_bound == -2.0 and v1.threshold == -1.0 and not v1.stable_possible
    v5 = table[4]
    assert v5.link_bound == -10.0 and v5.threshold == -9.0 and not v5.stable_possible


def test_cone_table_matches_integer_quadratic():
    for v in est.cone_stability_table(50):
        assert v.stable_possible == (v.n * v.n - 6 * v.n + 1 >= 0)


def test_l4_identity_all_small_families():
    for k in range(1, 6):
        for l in range(1, 6):
            if k + l > 6:
                continue
            rep = est.l4_identity_check(geo.clifford_hypersurface((k, l)))
            rel = abs(rep.lhs - rep.rhs) / max(abs(rep.rhs), 1e-300)
            assert rel <= 1e-8
    rep = est.l4_identity_check(geo.equator(3))
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_local_A_bound_constant_reduction(torus, torus_cv_geodesic):
    # |A|^2 == 2 on the torus, so the measured energy equals 2 * area(M cap B);
    # oracle: the ball area by an independent quadrature of the indicator
    _, P = geo.sample_points(torus, 1, seed=9)
    p, r = P[0], 0.5
    rep = est.local_A_bound(torus, p, r, -4.0, C_V=torus_cv_geodesic)[0]
    from spherestab.geometry import chart_quadrature, sqrt_det_metric, geodesic_distance

    chart = torus.chart
    nodes, weights = chart_quadrature(chart, 512)
    w = weights * sqrt_det_metric(chart, nodes)
    ball_area = float(w[geodesic_distance(chart.embed(nodes), p) <= r].sum())
    assert abs(rep.lhs - 2.0 * ball_area) <= 4.0 * rep.stderr + 1e-3
    assert rep.passed
    assert rep.params["alpha"] == 2.0


def test_local_A_bound_radius_scaling(torus, torus_cv_geodesic):
    _, P = geo.sample_points(torus, 1, seed=9)
    big = est.local_A_bound(torus, P[0], 0.5, -4.0, C_V=torus_cv_geodesic)[0]
    small = est.local_A_bound(torus, P[0], 0.25, -4.0, C_V=torus_cv_geodesic)[0]
    # lhs shrinks ~quadratically while the r^(n-2) term of the bound is flat (n = 2)
    assert 3.0 <= big.lhs / small.lhs <= 5.0
    assert big.rhs > small.rhs  # only through the alpha r^n term


def test_local_A_bound_equator_zero(equator2):
    _, P = geo.sample_points(equator2, 1, seed=1)
    rep = est.local_A_bound(equator2, P[0], 0.5, -2.0)[0]
    assert rep.lhs == 0.0 and rep.passed


@pytest.mark.parametrize("kl", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
def test_local_A_bound_family_sweep(kl, clifford_families):
    M = clifford_families[kl]
    n = M.dimension
    c_v = geo.measure_volume_growth(M)
    _, centers = geo.sample_points(M, 20, seed=4)
    for r in (0.1, 0.25, 0.5, 1.0):
        for c in centers:
            rep = est.local_A_bound(M, c, r, -2.0 * n, C_V=c_v)[0]
            assert rep.passed, (kl, r)


def test_local_A_bound_small_ball_is_exact():
    # |A|^2 == n == 4 on clifford(2, 2); a ball this small must not read 0
    M = geo.clifford_hypersurface((2, 2))
    _, centers = geo.sample_points(M, 3, seed=901)
    expect = 4.0 * float(geo._ball_area(2, 2, np.cos(0.1)))
    assert expect > 0.0
    for c in centers:
        rep = est.local_A_bound(M, c, 0.1, -8.0)[0]
        assert abs(rep.lhs - expect) <= 1e-12 * expect
        assert rep.stderr == 0.0 and rep.passed


@pytest.mark.parametrize("make", [lambda: geo.clifford_hypersurface((1, 1)),
                                  lambda: geo.clifford_hypersurface((1, 2)),
                                  lambda: geo.equator(3)], ids=["torus", "clifford12", "equator3"])
def test_local_A_bound_batch_matches_each_centre(make):
    # an (m, n+2) array of centres gives one report per centre, each with
    # the row of a single-centre call bit for bit; a single centre is a
    # batch of one
    M = make()
    n = M.dimension
    c_v = geo.measure_volume_growth(M)
    _, centers = geo.sample_points(M, 7, seed=12)
    for r in (0.1, 0.5, 1.5):
        batch = est.local_A_bound(M, centers, r, -2.0 * n, C_V=c_v)
        assert isinstance(batch, list) and len(batch) == len(centers)
        assert [rep.row() for rep in batch] == [
            rep.row() for c in centers for rep in est.local_A_bound(M, c, r, -2.0 * n, C_V=c_v)
        ]
    single = est.local_A_bound(M, centers[0], 0.5, -2.0 * n, C_V=c_v)
    assert isinstance(single, list) and len(single) == 1
    assert isinstance(single[0], est.EstimateReport)


@pytest.mark.parametrize("where", [0, 3, 6])
def test_local_A_bound_batch_refuses_any_off_surface_centre(torus, where):
    _, centers = geo.sample_points(torus, 7, seed=12)
    centers[where] *= 1.01
    with pytest.raises(PreconditionViolated, match="off the surface"):
        est.local_A_bound(torus, centers, 0.25, -4.0, C_V=4.4)
    with pytest.raises(ValueError):
        est.local_A_bound(torus, centers, 2.5, -4.0, C_V=4.4)


def test_local_A_bound_refuses_off_surface_centre(torus):
    _, P = geo.sample_points(torus, 1, seed=2)
    with pytest.raises(PreconditionViolated):
        est.local_A_bound(torus, 1.01 * P[0], 0.25, -4.0, C_V=4.4)
    with pytest.raises(PreconditionViolated):
        est.local_A_bound(torus, np.array([1.0, 0, 0, 0]), 0.25, -4.0, C_V=4.4)


@pytest.mark.parametrize("area", [-1e-21, math.nan, math.inf])
def test_local_A_bound_refuses_a_negative_or_non_finite_lhs(tmp_path, torus, monkeypatch, area):
    _, P = geo.sample_points(torus, 1, seed=2)
    monkeypatch.setattr(est, "ball_area", lambda M, r: area)
    with pytest.raises(PreconditionViolated, match="negative or not finite"):
        est.local_A_bound(torus, P[0], 0.25, -4.0, C_V=4.4)
    code = main(["estimates", "--family", "clifford", "--k", "1", "--l", "1", "--points", "1",
                 "--radii", "0.25", "--format", "json", "--out", str(tmp_path)])
    assert code == 3
    doc = json.loads((tmp_path / "estimates_clifford_1_1.json").read_text())
    assert doc["failure"].startswith("PreconditionViolated: curvature energy")


def test_local_A_bound_small_cap_in_thirteen_dimensions(tmp_path):
    # clifford(1, 12) at r = 0.01: the curvature energy is n times the ball
    # area, a flat 13-disc up to O(r^2); the cap integral J_11 once went negative here
    code = main(["estimates", "--family", "clifford", "--k", "1", "--l", "12", "--points", "1",
                 "--radii", "0.01", "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "estimates_clifford_1_12.json").read_text())
    lhs = doc["rows"][0]["lhs"]
    disc = 13 * math.pi**6.5 / math.gamma(7.5) * 0.01**13
    assert lhs > 0.0 and abs(lhs / disc - 1.0) <= 1e-3


def test_local_A_bound_rejects_bad_radius(torus):
    with pytest.raises(ValueError):
        est.local_A_bound(torus, np.array([1.0, 0, 0, 0]), 2.5, -4.0, C_V=4.0)

