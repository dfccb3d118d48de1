"""Stratified Monte Carlo (the live-row density against weighting every row)
and the deterministic local polar patches."""

import math

import numpy as np
import pytest

from spherestab import geometry as geo
from spherestab import sampling as smp
from spherestab.errors import PreconditionViolated, UnsupportedFamily
from spherestab.sampling import BoxEstimates, MCEstimate, stratified_integral

import oracles
from oracles import local_polar_integral


def _dense_reference(M, fn, boxes, seeds, strata, samples_per_cell):
    # every row weighted by its density and every cell reduced, as the
    # sampler did before it skipped the rows where fn is zero, box by box
    # with all its rows at once; fn(U, X, box) gets the box index i
    chart = M.chart
    n = chart.dim
    k = max(2, int(samples_per_cell))
    out = []
    for i, (box, seed) in enumerate(zip(boxes, seeds)):
        edges = [np.linspace(lo, hi, strata + 1) for lo, hi in box]
        lows = geo._tensor_grid([e[:-1] for e in edges])
        sides = geo._tensor_grid([np.diff(e) for e in edges])
        vols = np.prod(sides, axis=-1)
        draws = np.random.default_rng(seed).random((len(lows), k, n))
        flat = (lows[:, None, :] + draws * sides[:, None, :]).reshape(-1, n)
        X = chart.embed(flat)
        vals = np.asarray(fn(flat, X, i), dtype=float) * geo.sqrt_det_metric(chart, flat)
        vals = vals.reshape(len(lows), k)
        mean, var = vals.mean(axis=-1), vals.var(axis=-1, ddof=1)
        out.append(MCEstimate(float(np.sum(vols * mean)),
                              float(np.sqrt(np.sum(vols**2 * var / k))), len(lows) * k))
    return out


def _signed_sparse(U, X, which):
    # zero on most rows, of either sign on the rest, and shifted by the box index
    return np.where(X[:, 0] > 0.4, np.cos(3.0 * U[:, -1]) - 0.1 * which, 0.0)


def _cases():
    # boxes that reach a pole of a polar axis, where the density tends to 0
    m21 = geo.clifford_hypersurface((2, 1))
    eq2 = geo.equator(2)
    return [
        [m21, [m21.chart.sample_box(), [[0.0, 0.4], [0.5, 2.0], [1.0, 3.0]],
               [[2.8, math.pi], [0.0, 1.0], [0.0, 6.0]]]],
        [eq2, [eq2.chart.sample_box(), [[0.0, 0.3], [0.0, 2 * math.pi]]]],
    ]


@pytest.mark.parametrize("case", range(2), ids=["clifford21", "equator2"])
def test_live_row_density_matches_dense_reference(case, monkeypatch):
    # bit for bit: value, stderr and samples of each box, stacked or alone,
    # whether a chunk of rows splits a box (7 rows), holds the default
    # count or the whole stack; the stacked integrand reads each row's box
    # from its third argument
    M, boxes = _cases()[case]
    strata, per_cell = 6, 3
    seeds = np.random.SeedSequence(17).spawn(len(boxes))
    seen = []
    expected = _dense_reference(M, lambda U, X, i: seen.append(_signed_sparse(U, X, i)) or seen[-1],
                                boxes, seeds, strata, per_cell)
    seen = np.concatenate(seen)
    assert (seen < 0).any() and (seen > 0).any() and (seen == 0).mean() > 0.3
    for chunk_rows in (7, smp._CHUNK_ROWS, 10**9):
        monkeypatch.setattr(smp, "_CHUNK_ROWS", chunk_rows)
        stacked = stratified_integral(M, _signed_sparse, np.array(boxes, dtype=float), seeds,
                                      strata=strata, samples_per_cell=per_cell)
        assert isinstance(stacked, BoxEstimates)
        assert list(stacked) == expected
        assert stacked.samples == sum(est.samples for est in expected)
        assert stacked.samples == len(boxes) * strata**M.dimension * per_cell
        for i, (box, seed, ref) in enumerate(zip(boxes, seeds, expected)):
            alone = stratified_integral(M, lambda U, X, box, i=i: _signed_sparse(U, X, i),
                                        np.array(box, dtype=float)[None], [seed],
                                        strata=strata, samples_per_cell=per_cell)
            assert alone[0] == ref


def test_rows_on_a_pole_match_dense_reference():
    # a box of zero width at the pole of clifford(2,1): every row has density
    # exactly 0 yet a non-zero integrand, so its cells are busy and read 0
    M = geo.clifford_hypersurface((2, 1))
    box = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    seed = np.random.SeedSequence(5)
    expected = _dense_reference(M, _signed_sparse, [box], [seed], 4, 2)[0]
    u = np.array([[0.0, 1.0, 2.0]])
    assert _signed_sparse(u, M.chart.embed(u), 0)[0] != 0.0
    assert geo.sqrt_det_metric(M.chart, u)[0] == 0.0
    assert stratified_integral(M, _signed_sparse, np.array(box)[None], [seed], strata=4)[0] == expected


def test_all_zero_integrand_reads_exact_zero():
    M = geo.clifford_hypersurface((1, 2))
    est = stratified_integral(M, lambda U, X, box: np.zeros(len(U)), M.chart.box[None], [3], strata=5)[0]
    assert (est.value, est.stderr, est.samples) == (0.0, 0.0, 5**3 * 2)
    assert not math.copysign(1.0, est.value) < 0


def test_zero_width_box_leaves_stacked_boxes_unchanged():
    # a box stacked beside a zero-width pole box gets the cell edges, and so
    # the estimate, that it gets in a stack of its own
    M = geo.clifford_hypersurface((2, 1))
    box = [[0.0, 0.4], [0.5, 2.0], [1.0, 3.0]]
    pole = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    fn = lambda U, X, box: X[:, 0]  # noqa: E731
    alone = stratified_integral(M, fn, np.array([box]), [11], strata=6, samples_per_cell=3)
    stacked = stratified_integral(M, fn, np.array([box, pole]), [11, 11], strata=6, samples_per_cell=3)
    assert stacked[0] == alone[0]


# ---------------------------------------------------------------------------
# local polar patches
# ---------------------------------------------------------------------------

def _ball_indicator(center, r):
    return lambda U, X: (geo.geodesic_distance(X, center) < r).astype(float)


def _patch_ball_area(M, center, r):
    return local_polar_integral(M, center, _ball_indicator(center, r), r, breaks=(r,),
                                n_angular=64)


@pytest.mark.parametrize("kl", [(1, 1), (1, 2), (2, 1), (1, 0)])
@pytest.mark.parametrize("r", [0.05, 0.1])
def test_polar_patch_integrates_geodesic_ball_area(kl, r):
    # the closed-form area of M cap B_r(x); centres 0.5 rad or more from a
    # pole.  (1, 0) is the great circle equator(1), where the patch takes the
    # two directions +-1 and the area is the arc length 2r
    M = geo.clifford_hypersurface(kl) if kl[1] else geo.equator(1)
    _, centers = geo.sample_points(M, 2, seed=3, pad=0.5)
    exact = float(geo._ball_area(*kl, np.cos(r)))
    for center in centers:
        assert abs(_patch_ball_area(M, center, r) / exact - 1.0) <= 5e-3


def test_polar_patch_off_surface_center():
    # a centre off the torus, at geodesic distance 0.1 from its nearest point
    # (1, 0, 1, 0)/sqrt(2): a ball that does not reach M reads exactly 0, and
    # one that does integrates to its area, a one-dimensional integral over
    # the first angle of the arc of admissible second angles
    M = geo.clifford_hypersurface((1, 1))
    t = math.pi / 4.0 - 0.1
    center = np.array([math.cos(t), 0.0, math.sin(t), 0.0])
    assert _patch_ball_area(M, center, 0.09) == 0.0
    r = 0.2
    a = np.linspace(-math.pi, math.pi, 400_001)
    q = (math.sqrt(2.0) * math.cos(r) - math.cos(t) * np.cos(a)) / math.sin(t)
    exact = 0.5 * float(np.mean(2.0 * np.arccos(np.clip(q, -1.0, 1.0)))) * 2.0 * math.pi
    assert abs(_patch_ball_area(M, center, r) / exact - 1.0) <= 5e-3


def test_polar_patch_refuses_a_pole():
    # a ball centred on the polar pole of clifford(2,1) would leave the chart
    # box; the same ball 0.5 rad from that pole integrates to its area
    M = geo.clifford_hypersurface((2, 1))
    r = 0.1
    with pytest.raises(PreconditionViolated, match="pole"):
        _patch_ball_area(M, M.chart.embed(np.array([0.0, 1.0, 2.0])), r)
    off_pole = _patch_ball_area(M, M.chart.embed(np.array([0.5, 1.0, 2.0])), r)
    assert abs(off_pole / float(geo._ball_area(2, 1, np.cos(r))) - 1.0) <= 5e-3


def test_polar_patch_refuses_four_dimensional_charts():
    M = geo.clifford_hypersurface((2, 2))
    with pytest.raises(UnsupportedFamily, match="dimension <= 3"):
        _patch_ball_area(M, M.chart.embed(np.array([1.0, 1.0, 1.0, 1.0])), 0.1)


def test_polar_patch_rim_growth_gives_up(monkeypatch):
    # a ball around (1, 0, 0, 0), at distance pi/4 from the torus, whose
    # patch wraps around the periodic axes: its rim comes back inside the
    # ball, the chart box is tested once, and the patch is refused
    M = geo.clifford_hypersurface((1, 1))
    center = np.array([1.0, 0.0, 0.0, 0.0])
    calls = []
    inside = oracles._inside_box
    monkeypatch.setattr(oracles, "_inside_box", lambda chart, pts: calls.append(1) or inside(chart, pts))
    with pytest.raises(PreconditionViolated, match="could not enclose"):
        _patch_ball_area(M, center, 1.0)
    assert len(calls) == 1
