"""Stratified Monte Carlo: the live-row density against weighting every row."""

import math

import numpy as np
import pytest

from spherestab import geometry as geo
from spherestab.errors import DegenerateChart
from spherestab.sampling import BoxEstimates, MCEstimate, stratified_integral


def _dense_reference(M, fn, boxes, seeds, strata, samples_per_cell):
    # every row weighted by its density and every cell reduced, as the
    # sampler did before it skipped the rows where fn is zero
    chart = M.chart
    n = chart.dim
    k = max(2, int(samples_per_cell))
    out = []
    for b, (box, seed) in enumerate(zip(boxes, seeds)):
        edges = [np.linspace(lo, hi, strata + 1) for lo, hi in box]
        lows = geo._tensor_grid([e[:-1] for e in edges])
        sides = geo._tensor_grid([np.diff(e) for e in edges])
        vols = np.prod(sides, axis=-1)
        draws = np.random.default_rng(seed).random((len(lows), k, n))
        flat = (lows[:, None, :] + draws * sides[:, None, :]).reshape(-1, n)
        X = chart.embed(flat)
        which = np.full(len(flat), b)
        vals = np.asarray(fn(flat, X, which), dtype=float) * geo.sqrt_det_metric(chart, flat)
        vals = vals.reshape(len(lows), k)
        mean, var = vals.mean(axis=-1), vals.var(axis=-1, ddof=1)
        out.append(MCEstimate(float(np.sum(vols * mean)),
                              float(np.sqrt(np.sum(vols**2 * var / k))), len(lows) * k))
    return out


def _signed_sparse(U, X, which):
    # zero on most rows, of either sign on the rest, and box-dependent
    return np.where(X[:, 0] > 0.4, np.cos(3.0 * U[:, -1]) - 0.1 * which, 0.0)


def _fd_chart(M):
    # the same chart without its analytic accessories: finite-difference density
    c = M.chart
    return geo.ParametrizedHypersurface(M.dimension, geo.Chart(c.box, c.periodic, c.embed))


def _cases():
    # boxes that reach a pole of a polar axis, where the density tends to 0
    m21 = geo.clifford_hypersurface((2, 1))
    eq2 = geo.equator(2)
    return [
        [m21, [m21.chart.sample_box(), [[0.0, 0.4], [0.5, 2.0], [1.0, 3.0]],
               [[2.8, math.pi], [0.0, 1.0], [0.0, 6.0]]]],
        [eq2, [eq2.chart.sample_box(), [[0.0, 0.3], [0.0, 2 * math.pi]]]],
        [_fd_chart(eq2), [[[0.2, 1.0], [0.0, 2 * math.pi]], [[1.0, 2.9], [1.0, 2.0]]]],
    ]


@pytest.mark.parametrize("case", range(3), ids=["clifford21", "equator2", "equator2-fd"])
def test_live_row_density_matches_dense_reference(case):
    # bit for bit: value, stderr and samples of each box, stacked or alone
    M, boxes = _cases()[case]
    strata, per_cell = 6, 3
    seeds = np.random.SeedSequence(17).spawn(len(boxes))
    seen = []
    expected = _dense_reference(M, lambda U, X, w: seen.append(_signed_sparse(U, X, w)) or seen[-1],
                                boxes, seeds, strata, per_cell)
    seen = np.concatenate(seen)
    assert (seen < 0).any() and (seen > 0).any() and (seen == 0).mean() > 0.3
    stacked = stratified_integral(M, _signed_sparse, box=np.array(boxes, dtype=float),
                                  strata=strata, samples_per_cell=per_cell, seed=seeds)
    assert isinstance(stacked, BoxEstimates)
    assert list(stacked) == expected
    for b, (box, seed) in enumerate(zip(boxes, seeds)):
        alone = stratified_integral(M, lambda U, X, b=b: _signed_sparse(U, X, b), box=box,
                                    strata=strata, samples_per_cell=per_cell, seed=seed)
        assert alone == expected[b]


def test_rows_on_a_pole_match_dense_reference():
    # a box of zero width at the pole of clifford(2,1): every row has density
    # exactly 0 yet a non-zero integrand, so its cells are busy and read 0
    M = geo.clifford_hypersurface((2, 1))
    box = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    seed = np.random.SeedSequence(5)
    fn = lambda U, X: _signed_sparse(U, X, 0)  # noqa: E731
    expected = _dense_reference(M, lambda U, X, w: fn(U, X), [box], [seed], 4, 2)[0]
    u = np.array([[0.0, 1.0, 2.0]])
    assert fn(u, M.chart.embed(u))[0] != 0.0 and geo.sqrt_det_metric(M.chart, u)[0] == 0.0
    assert stratified_integral(M, fn, box=box, strata=4, seed=seed) == expected


def test_all_zero_integrand_reads_exact_zero():
    M = geo.clifford_hypersurface((1, 2))
    est = stratified_integral(M, lambda U, X: np.zeros(len(U)), strata=5, seed=3)
    assert (est.value, est.stderr, est.samples) == (0.0, 0.0, 5**3 * 2)
    assert not math.copysign(1.0, est.value) < 0


def test_finite_difference_density_still_checks_every_node():
    # a chart without metric_diag raises at a degenerate node even where the
    # integrand is zero, as it did when every row was weighted
    M = _fd_chart(geo.clifford_hypersurface((2, 1)))
    flat_pole = [[0.0, 0.0], [0.5, 2.0], [1.0, 3.0]]
    with pytest.raises(DegenerateChart):
        stratified_integral(M, lambda U, X: np.zeros(len(U)), box=flat_pole, strata=3, seed=0)
