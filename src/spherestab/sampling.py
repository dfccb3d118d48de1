"""Measure-aware integration: stratified Monte Carlo over chart boxes.

Integrals over a surface use stratified Monte Carlo over a chart cell grid
with metric-density weights (every cell contributes its volume times the
cell sample mean, which makes the estimator unbiased and gives an honest
per-cell variance).  Integrands concentrated on thin annuli around small
balls are integrated the same way, over a chart box around each ball.

All randomness is driven by ``numpy.random.SeedSequence`` spawns, so
partial sums are reproducible and independent streams combine
deterministically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import ParametrizedHypersurface, _per_axis, _row_product, sqrt_det_metric


@dataclass
class MCEstimate:
    value: float
    stderr: float
    samples: int

    def __add__(self, other):
        return MCEstimate(
            self.value + other.value,
            float(np.hypot(self.stderr, other.stderr)),
            self.samples + other.samples,
        )


ZERO_ESTIMATE = MCEstimate(0.0, 0.0, 0)


class BoxEstimates(list):
    """The per-box estimates of one stacked :func:`stratified_integral` call."""

    @property
    def samples(self):
        return sum(est.samples for est in self)


_MAX_CELLS = 96**3   # cells per box: the largest grid a report draws, the n = 3 product's


def _strata_counts(strata, n):
    """Cells per axis of :func:`stratified_integral`: ``strata`` per axis, each
    count capped at the largest s with s^n <= ``_MAX_CELLS`` (30 at n = 4,
    15 at n = 5, 9 at n = 6), so that no box holds more cells in high
    dimension than the n = 3 product report's 96^3."""
    cap = round(_MAX_CELLS ** (1.0 / n))
    while cap**n > _MAX_CELLS:
        cap -= 1
    return [min(c, cap) for c in _per_axis(strata, n)]


def _stratified_rows(n, strata, samples_per_cell):
    """Sample rows per box of :func:`stratified_integral`: cells times samples per cell."""
    return int(np.prod(_strata_counts(strata, n))) * max(2, int(samples_per_cell))


def _cell_grid(boxes, strata):
    """Low corners and sides (boxes, cells, n) of the cells of each box of a stack (boxes, n, 2).

    Each box is cut into ``strata`` cells per axis (:func:`_strata_counts`),
    listed row-major.  The edges take linspace's arithmetic box by box: a
    stacked linspace rounds every box another way once any box has zero
    width.
    """
    b, n = boxes.shape[:2]
    counts = _strata_counts(strata, n)
    grid = (b, *counts)

    def cell_grid(per_axis):
        # per box, the row-major tensor grid of per-axis cell values (boxes, cells, n)
        shapes = [grid[:1] + tuple(-1 if j == a else 1 for j in range(n)) for a in range(n)]
        return np.stack([
            np.broadcast_to(v.reshape(shape), grid) for v, shape in zip(per_axis, shapes)
        ], axis=-1).reshape(b, -1, n)

    edges = []
    for a, c in enumerate(counts):
        lo, hi = boxes[:, a, :1], boxes[:, a, 1:]
        edges.append(np.concatenate([lo + np.arange(c) * ((hi - lo) / c), hi], axis=-1))
    return cell_grid([e[:, :-1] for e in edges]), cell_grid([np.diff(e, axis=-1) for e in edges])


def stratified_integral(
    M: ParametrizedHypersurface,
    fn,
    box=None,
    strata=24,
    samples_per_cell=2,
    seed=0,
    cells=None,
) -> MCEstimate:
    """Stratified Monte-Carlo integral of ``fn`` against the area measure.

    ``fn(U, X)`` receives chart parameters and ambient points and returns
    the integrand values (without the metric density; the density is part
    of the measure).  ``box`` restricts integration to a chart sub-box.

    ``cells`` is an optional boolean mask over the cell grid (the row-major
    cells of :func:`_cell_grid`), of shape (cells,) or (boxes, cells).  The
    random block of every box is drawn whole, so the stream does not depend
    on the mask, but the points of a False cell are never formed: only the
    kept cells' low corners, sides and draws are gathered into sample rows,
    and only those rows are embedded and passed to ``fn``, in their
    row-major order.  A dropped cell contributes an exact 0, so when ``fn``
    vanishes on its rows the estimate is bit for bit that of the unmasked
    call.  ``None`` keeps every cell, through the same code.

    The density sqrt(det g) is taken only on the rows where ``fn`` is
    non-zero (negative values count), and the cell mean and variance only
    for the cells that hold such a row.  They are scattered into zero
    arrays over every cell before the sums, so the summation order is that
    of the dense computation, and the estimate is bit for bit that of
    weighting every row.

    A stack of boxes (b, n, 2) with a sequence of b seeds integrates every
    box in one pass and returns their estimates as :class:`BoxEstimates`;
    each box gets exactly the samples and the estimate that a call with
    that box and its seed alone would give.  ``fn(U, X)`` then receives the
    kept rows of every box, box by box, :func:`_stratified_rows` of them
    per box when no cell is dropped.
    """
    chart = M.chart
    n = chart.dim
    boxes = np.asarray(chart.box if box is None else box, dtype=float)
    single = boxes.ndim == 2
    if single:
        boxes, seed = boxes[None], [seed]
    lows, sides = _cell_grid(boxes, strata)
    vols = _row_product(np.moveaxis(sides, -1, 0))
    count = lows.shape[1]
    k = max(2, int(samples_per_cell))

    draws = np.empty((len(boxes), count, k, n))
    for out, s in zip(draws, seed):
        np.random.default_rng(s).random(out=out)  # int, SeedSequence or Generator all work
    keep = np.broadcast_to(True if cells is None else cells, vols.shape).ravel()
    # the kept cells of the whole stack, row-major; compress beats a boolean index ~10x
    low, side, draw = (np.compress(keep, a.reshape(len(keep), -1, n), axis=0)
                       for a in (lows, sides, draws))
    U = (low + draw * side).reshape(-1, n)
    vals = np.empty(len(U))
    vals[:] = fn(U, chart.embed(U))
    vals = vals.reshape(-1, k)
    live = vals != 0.0  # negative values count
    # or of the k sample columns: cheaper than any(axis=-1) over so short an axis
    busy = functools.reduce(np.logical_or, live.T)
    dens = sqrt_det_metric(chart, np.compress(live.ravel(), U, axis=0))
    # the live rows of the busy cells, in the same row-major order as dens
    weighted, busy_live = vals[busy], live[busy]
    weighted[busy_live] *= dens
    mean = np.zeros(vols.size)
    var = np.zeros(vols.size)
    cells_busy = np.flatnonzero(keep)[busy]
    mean[cells_busy] = weighted.mean(axis=-1)
    var[cells_busy] = weighted.var(axis=-1, ddof=1)
    mean, var = mean.reshape(vols.shape), var.reshape(vols.shape)
    value = np.sum(vols * mean, axis=-1)
    stderr = np.sqrt(np.sum(vols**2 * var / k, axis=-1))
    ests = BoxEstimates(MCEstimate(float(v), float(e), count * k) for v, e in zip(value, stderr))
    return ests[0] if single else ests


# ---------------------------------------------------------------------------
# chart inversion
# ---------------------------------------------------------------------------

def nearest_chart_point(M, x):
    """Chart coordinates of the closest surface point to x, inside ``sample_box()``.

    ``x`` is one ambient point or an array of them (..., n+2).  The chart's
    closed-form ``inverse`` gives the coordinates, with polar axes clipped
    into the sample box.
    """
    chart = M.chart
    sample = chart.sample_box()
    polar = ~np.asarray(chart.periodic, dtype=bool)
    u = chart.inverse(x)
    return np.where(polar, np.clip(u, sample[:, 0], sample[:, 1]), u)
