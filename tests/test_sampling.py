"""Stratified Monte Carlo (the live-row density against weighting every row)
and the deterministic local polar patches."""

import math

import numpy as np
import pytest

from spherestab import geometry as geo
from spherestab import sampling as smp
from spherestab.errors import PreconditionViolated, UnsupportedFamily
from spherestab.sampling import BoxEstimates, MCEstimate, local_polar_integral, stratified_integral


def _dense_reference(M, fns, boxes, seeds, strata, samples_per_cell):
    # every row weighted by its density and every cell reduced, as the
    # sampler did before it skipped the rows where fn is zero; fns holds
    # one integrand of (U, X) per box
    chart = M.chart
    n = chart.dim
    k = max(2, int(samples_per_cell))
    out = []
    for fn, box, seed in zip(fns, boxes, seeds):
        edges = [np.linspace(lo, hi, strata + 1) for lo, hi in box]
        lows = geo._tensor_grid([e[:-1] for e in edges])
        sides = geo._tensor_grid([np.diff(e) for e in edges])
        vols = np.prod(sides, axis=-1)
        draws = np.random.default_rng(seed).random((len(lows), k, n))
        flat = (lows[:, None, :] + draws * sides[:, None, :]).reshape(-1, n)
        X = chart.embed(flat)
        vals = np.asarray(fn(flat, X), dtype=float) * geo.sqrt_det_metric(chart, flat)
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
def test_live_row_density_matches_dense_reference(case):
    # bit for bit: value, stderr and samples of each box, stacked or alone;
    # the stacked integrand reads each row's box from the documented layout
    # (box by box, _stratified_rows rows each)
    M, boxes = _cases()[case]
    strata, per_cell = 6, 3
    seeds = np.random.SeedSequence(17).spawn(len(boxes))
    fns = [lambda U, X, b=b: _signed_sparse(U, X, b) for b in range(len(boxes))]
    seen = []
    expected = _dense_reference(M, [lambda U, X, fn=fn: seen.append(fn(U, X)) or seen[-1] for fn in fns],
                                boxes, seeds, strata, per_cell)
    seen = np.concatenate(seen)
    assert (seen < 0).any() and (seen > 0).any() and (seen == 0).mean() > 0.3
    rows = smp._stratified_rows(M.dimension, strata, per_cell)
    stacked = stratified_integral(M, lambda U, X: _signed_sparse(U, X, np.arange(len(U)) // rows),
                                  box=np.array(boxes, dtype=float), strata=strata,
                                  samples_per_cell=per_cell, seed=seeds)
    assert isinstance(stacked, BoxEstimates)
    assert list(stacked) == expected
    assert stacked.samples == sum(est.samples for est in expected) == len(boxes) * rows
    for fn, box, seed, ref in zip(fns, boxes, seeds, expected):
        alone = stratified_integral(M, fn, box=box, strata=strata, samples_per_cell=per_cell,
                                    seed=seed)
        assert alone == ref


def test_rows_on_a_pole_match_dense_reference():
    # a box of zero width at the pole of clifford(2,1): every row has density
    # exactly 0 yet a non-zero integrand, so its cells are busy and read 0
    M = geo.clifford_hypersurface((2, 1))
    box = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    seed = np.random.SeedSequence(5)
    fn = lambda U, X: _signed_sparse(U, X, 0)  # noqa: E731
    expected = _dense_reference(M, [fn], [box], [seed], 4, 2)[0]
    u = np.array([[0.0, 1.0, 2.0]])
    assert fn(u, M.chart.embed(u))[0] != 0.0 and geo.sqrt_det_metric(M.chart, u)[0] == 0.0
    assert stratified_integral(M, fn, box=box, strata=4, seed=seed) == expected


def test_all_zero_integrand_reads_exact_zero():
    M = geo.clifford_hypersurface((1, 2))
    est = stratified_integral(M, lambda U, X: np.zeros(len(U)), strata=5, seed=3)
    assert (est.value, est.stderr, est.samples) == (0.0, 0.0, 5**3 * 2)
    assert not math.copysign(1.0, est.value) < 0


def test_zero_width_box_leaves_stacked_boxes_unchanged():
    # a box stacked beside a zero-width pole box gets the cell edges, and so
    # the estimate, that it gets alone
    M = geo.clifford_hypersurface((2, 1))
    box = [[0.0, 0.4], [0.5, 2.0], [1.0, 3.0]]
    pole = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    fn = lambda U, X: X[:, 0]  # noqa: E731
    alone = stratified_integral(M, fn, box=box, strata=6, samples_per_cell=3, seed=11)
    stacked = stratified_integral(M, fn, box=np.array([box, pole]), strata=6,
                                  samples_per_cell=3, seed=[11, 11])
    assert stacked[0] == alone


def _band_cells(boxes, strata, lo, hi):
    # the cells (boxes, cells) whose first-axis interval meets (lo, hi)
    lows, sides = smp._cell_grid(np.asarray(boxes, dtype=float), strata)
    return (lows[..., 0] + sides[..., 0] > lo) & (lows[..., 0] < hi)


def _band(U, X, lo, hi):
    # the signed sparse integrand on the band lo < u_0 < hi, exactly 0 off it
    return np.where((U[:, 0] > lo) & (U[:, 0] < hi), _signed_sparse(U, X, 0), 0.0)


@pytest.mark.parametrize("case", range(2), ids=["clifford21", "equator2"])
def test_cell_mask_matches_unmasked_call(case):
    # an integrand that vanishes off the kept cells gives the unmasked
    # estimate bit for bit, single and stacked; fn sees only the kept rows
    M, boxes = _cases()[case]
    strata, per_cell = 6, 3
    boxes = np.array(boxes[:2], dtype=float)
    lo, hi = 1.0, 1.6
    fn = lambda U, X: _band(U, X, lo, hi)  # noqa: E731
    mask = _band_cells(boxes, strata, lo, hi)
    assert 0 < mask.sum() < mask.size
    seeds = np.random.SeedSequence(23).spawn(len(boxes))
    stacked = stratified_integral(M, fn, box=boxes, strata=strata, samples_per_cell=per_cell,
                                  seed=seeds)
    assert any(est.value != 0.0 for est in stacked)
    assert list(stratified_integral(M, fn, box=boxes, strata=strata, samples_per_cell=per_cell,
                                    seed=seeds, cells=mask)) == list(stacked)
    seen = []
    for box, seed, cells, full in zip(boxes, seeds, mask, stacked):
        masked = stratified_integral(M, lambda U, X: seen.append(len(U)) or fn(U, X), box=box,
                                     strata=strata, samples_per_cell=per_cell, seed=seed, cells=cells)
        assert masked == full
    assert seen == [int(c.sum()) * per_cell for c in mask]


def test_cell_mask_dropping_a_live_cell_changes_the_estimate():
    # the mask is honoured: a dropped cell's rows read 0 even where fn is not
    M = geo.clifford_hypersurface((1, 2))
    fn = lambda U, X: 1.0 + X[:, 0] ** 2  # noqa: E731
    full = stratified_integral(M, fn, strata=4, seed=7)
    cells = np.ones(4**3, dtype=bool)
    cells[5] = False
    dropped = stratified_integral(M, fn, strata=4, seed=7, cells=cells)
    assert dropped.value < full.value
    assert dropped.samples == full.samples


def test_all_false_mask_forms_no_row(monkeypatch):
    # every cell dropped: an exact 0.0 +- 0.0 over the full sample count,
    # and neither fn nor the embedding receives a row
    M = geo.clifford_hypersurface((1, 2))
    seen = []
    embed = M.chart.embed
    monkeypatch.setattr(M.chart, "embed", lambda U: seen.append(("embed", len(U))) or embed(U))
    fn = lambda U, X: seen.append(("fn", len(U))) or 1.0 + X[:, 0] ** 2  # noqa: E731
    est = stratified_integral(M, fn, strata=4, seed=7, cells=np.zeros(4**3, dtype=bool))
    assert (est.value, est.stderr, est.samples) == (0.0, 0.0, 4**3 * 2)
    assert sum(rows for _, rows in seen) == 0


@pytest.mark.parametrize("case", range(2), ids=["clifford21", "equator2"])
def test_stacked_mask_dropping_a_whole_box(case):
    # the dropped box reads 0 over its full sample count; every other box
    # gets its single-box, unmasked estimate bit for bit
    M, boxes = _cases()[case]
    strata, per_cell = 5, 3
    boxes = np.array(boxes, dtype=float)
    fn = lambda U, X: 1.0 + X[:, 0] ** 2  # noqa: E731
    seeds = np.random.SeedSequence(29).spawn(len(boxes))
    mask = np.ones((len(boxes), strata**M.dimension), dtype=bool)
    mask[0] = False
    stacked = stratified_integral(M, fn, box=boxes, strata=strata, samples_per_cell=per_cell,
                                  seed=seeds, cells=mask)
    rows = smp._stratified_rows(M.dimension, strata, per_cell)
    assert stacked[0] == MCEstimate(0.0, 0.0, rows)
    for est, box, seed in zip(stacked[1:], boxes[1:], seeds[1:]):
        alone = stratified_integral(M, fn, box=box, strata=strata, samples_per_cell=per_cell,
                                    seed=seed)
        assert alone.value != 0.0 and est == alone


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
    inside = smp._inside_box
    monkeypatch.setattr(smp, "_inside_box", lambda chart, pts: calls.append(1) or inside(chart, pts))
    with pytest.raises(PreconditionViolated, match="could not enclose"):
        _patch_ball_area(M, center, 1.0)
    assert len(calls) == 1
