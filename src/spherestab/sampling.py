"""Measure-aware integration: stratified Monte Carlo over chart boxes.

Integrals over a surface use stratified Monte Carlo over a chart cell grid
with metric-density weights (every cell contributes its volume times the
cell sample mean, which makes the estimator unbiased and gives an honest
per-cell variance).  The sampler takes one form: a stack of chart boxes
with one seed each, returning one estimate per box.  Integrands
concentrated on small balls or thin annuli around them stack a chart box
around each ball, so a ball is sampled at its own scale however small it
is; a whole-chart integral is a stack of the chart box alone.  The sampler
alone decides how many sample rows exist at once: at most ``_CHUNK_ROWS``,
whatever the box count, the dimension or the strata.

All randomness is driven by ``numpy.random.SeedSequence`` spawns, so
partial sums are reproducible and independent streams combine
deterministically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ParametrizedHypersurface, _capped_per_axis, _row_product, sqrt_det_metric


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


_CHUNK_ROWS = 32768   # sample rows formed at once by stratified_integral


def _cell_grid(boxes, strata, index):
    """Low corners and sides (cells, n) of cells of a stack of boxes (boxes, n, 2).

    Each box is cut into ``strata`` cells per axis (capped as
    :func:`.geometry._capped_per_axis` caps them), listed row-major, and
    the stack lists its boxes' cells box by box; ``index`` picks cells by
    their position in that list.  The edges of an
    axis are ``lo + j (hi - lo) / c`` and ``hi``, taken box by box: a
    stacked linspace rounds every box another way once any box has zero
    width.
    """
    b, n = boxes.shape[:2]
    counts = _capped_per_axis(strata, n)
    count = math.prod(counts)
    box, cell = np.divmod(index, count)
    lows, sides = np.empty((2, len(box), n))
    for a, (c, j) in enumerate(zip(counts, np.unravel_index(cell, counts))):
        lo, hi = boxes[:, a, :1], boxes[:, a, 1:]
        edges = np.concatenate([lo + np.arange(c) * ((hi - lo) / c), hi], axis=-1)
        lows[:, a] = edges[box, j]
        sides[:, a] = edges[box, j + 1] - lows[:, a]
    return lows, sides


def stratified_integral(
    M: ParametrizedHypersurface,
    fn,
    boxes,
    seeds,
    strata=24,
    samples_per_cell=2,
) -> BoxEstimates:
    """Stratified Monte-Carlo integrals of ``fn`` against the area measure
    over a stack of chart boxes (b, n, 2), one seed per box in ``seeds``.

    ``fn(U, X, box)`` receives sample rows as chart parameters and ambient
    points, with the index of each row's box in the stack, and returns the
    integrand values (without the metric density; the density is part of
    the measure).  The rows come in chunks of at most ``_CHUNK_ROWS``, cut
    anywhere in the stack's cell list, so ``fn`` must treat each row on its
    own.  The estimates come back box by box as :class:`BoxEstimates`.
    Each box draws its rows from its own generator, in cell order, chunk
    after chunk, so the chunk size changes no bit, and each box gets
    exactly the samples and the estimate that a stack of that box alone
    with its seed would give.

    The density sqrt(det g) is taken only on the rows where ``fn`` is
    non-zero (negative values count), and the cell volume (its sides
    multiplied in axis order), mean and variance only for the cells that
    hold such a row.  Every other cell adds an exact 0 to a box's sums,
    which run over all its cells in order once the box is complete, so the
    estimate is bit for bit that of weighting every row.
    """
    chart = M.chart
    n = chart.dim
    boxes = np.asarray(boxes, dtype=float)
    count = math.prod(_capped_per_axis(strata, n))
    k = max(2, int(samples_per_cell))
    rngs = [np.random.default_rng(s) for s in seeds]  # int, SeedSequence or Generator all work
    total = len(boxes) * count
    step = max(1, min(_CHUNK_ROWS // k, total))   # cells per chunk
    draws = np.empty((step, k, n))
    # per cell, vol * mean and vol^2 * var / k, from the first box not yet summed
    terms = np.zeros((2, count + step))
    sums = np.zeros((2, len(boxes)))
    start = 0
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        for b in range(lo // count, (hi - 1) // count + 1):
            # the chunk's cells of box b, from that box's own stream
            first, last = max(lo, b * count), min(hi, (b + 1) * count)
            rngs[b].random(out=draws[first - lo:last - lo])
        terms[:, lo - start:hi - start] = 0.0
        index = np.arange(lo, hi)
        low, side = _cell_grid(boxes, strata, index)
        U = (low[:, None, :] + draws[:hi - lo] * side[:, None, :]).reshape(-1, n)
        vals = np.empty(len(U))
        vals[:] = fn(U, chart.embed(U), np.repeat(index // count, k))
        vals = vals.reshape(-1, k)
        live = vals != 0.0  # negative values count
        # or of the k sample columns: cheaper than any(axis=-1) over so short an axis
        busy = functools.reduce(np.logical_or, live.T)
        dens = sqrt_det_metric(chart, np.compress(live.ravel(), U, axis=0))
        # the live rows of the busy cells, in the same row-major order as dens
        weighted, busy_live = vals[busy], live[busy]
        weighted[busy_live] *= dens
        vols = _row_product(side[busy].T)
        at = index[busy] - start
        terms[0, at] = vols * weighted.mean(axis=-1)
        terms[1, at] = vols**2 * weighted.var(axis=-1, ddof=1) / k
        done = (hi // count) * count   # the boxes before it are complete
        if done > start:
            sums[:, start // count:hi // count] = terms[:, :done - start].reshape(2, -1, count).sum(axis=-1)
            terms[:, :hi - done] = terms[:, done - start:hi - start]
            start = done
    return BoxEstimates(MCEstimate(float(v), math.sqrt(e), count * k) for v, e in sums.T)


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
