"""Measure-aware integration utilities: stratified Monte Carlo and local patches.

Integrals over a surface come in two flavours here.  Diffuse integrands use
stratified Monte Carlo over a chart cell grid with metric-density weights
(every cell contributes its volume times the cell sample mean, which makes
the estimator unbiased and gives an honest per-cell variance).  Integrands
concentrated on thin annuli around small balls use a deterministic local
polar patch around the ball center with radial Gauss segments split at the
profile breakpoints; global sampling would essentially never hit them.

All randomness is driven by ``numpy.random.SeedSequence`` spawns, so
partial sums are reproducible and independent streams combine
deterministically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, UnsupportedFamily
from .geometry import (
    ParametrizedHypersurface,
    _gauss_rule,
    _per_axis,
    _row_product,
    geodesic_distance,
    sqrt_det_metric,
)


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
# deterministic local polar patches
# ---------------------------------------------------------------------------

_PATCH_SAFETY = 1.4   # patch radius, in units of reach + gap


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


def _unit_directions(n, n_angular):
    """Quadrature on S^(n-1): directions (m, n) and weights (m,)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        w = 2.0 * np.pi / n_angular
        ang = (np.arange(n_angular) + 0.5) * w
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.full(n_angular, w)
    if n == 3:
        half = max(4, n_angular // 2)
        xi, wxi = _gauss_rule(half)
        xi = np.pi / 2.0 * (xi + 1.0)
        wxi = np.pi / 2.0 * wxi * np.sin(xi)
        wom = 2.0 * np.pi / n_angular
        om = (np.arange(n_angular) + 0.5) * wom
        dirs = np.stack(
            [
                np.repeat(np.cos(xi), n_angular),
                np.repeat(np.sin(xi), n_angular) * np.tile(np.cos(om), half),
                np.repeat(np.sin(xi), n_angular) * np.tile(np.sin(om), half),
            ],
            axis=-1,
        )
        w = np.repeat(wxi, n_angular) * wom
        return dirs, w
    raise UnsupportedFamily("local patches support chart dimension <= 3")


def _radial_rule(breaks, s_max, nodes_per_segment=24):
    pts = sorted({0.0, s_max, *[b for b in breaks if 0.0 < b < s_max]})
    xs, ws = [], []
    gauss_x, gauss_w = _gauss_rule(nodes_per_segment)
    for lo, hi in zip(pts, pts[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        xs.append(mid + half * gauss_x)
        ws.append(half * gauss_w)
    return np.concatenate(xs), np.concatenate(ws)


def local_polar_integral(
    M: ParametrizedHypersurface,
    center_ambient,
    fn,
    reach,
    breaks=(),
    n_angular=96,
    nodes_per_segment=24,
):
    """Deterministic integral of ``fn`` over M within geodesic distance ``reach``.

    Builds a chart-polar patch around the closest surface point, verifies
    that its rim lies in the chart box and beyond ``reach`` (else raises
    :class:`PreconditionViolated`), and integrates with radial Gauss
    segments split at ``breaks`` (geodesic radii where the integrand may
    kink).  ``fn(U, X)`` must vanish at distance >= ``reach`` from the
    center; returns 0 when the ball does not meet the surface.  The patch
    frame is the chart's ``metric_diag`` at the patch centre.
    """
    chart = M.chart
    n = chart.dim
    center_ambient = np.asarray(center_ambient, dtype=float)
    u0 = nearest_chart_point(M, center_ambient)
    gap = geodesic_distance(chart.embed(u0), center_ambient)
    if gap >= reach:
        return 0.0

    E = 1.0 / np.sqrt(chart.metric_diag(u0))
    dirs, dir_w = _unit_directions(n, n_angular)

    s_max = _PATCH_SAFETY * (reach + gap)
    rim = u0 + s_max * dirs * E
    if not _inside_box(chart, rim):
        raise PreconditionViolated(
            "local patch leaves the chart box; move the ball away from a pole"
        )
    if not np.all(geodesic_distance(chart.embed(rim), center_ambient) > reach):
        raise PreconditionViolated("could not enclose the ball in a chart patch")

    # kink loci in patch-radius terms; both the on-surface (s ~ b) and the
    # offset-center (s ~ sqrt(b^2 - gap^2)) placements are included so every
    # Gauss segment sees a smooth integrand up to a negligible sliver
    s_breaks = []
    for b in breaks:
        s_breaks += [b, gap + b, float(np.sqrt(max(b * b - gap * gap, 0.0)))]
    s, w_s = _radial_rule(s_breaks, s_max, nodes_per_segment)
    U = u0[None, None, :] + s[:, None, None] * dirs[None, :, :] * E[None, None, :]
    flat = U.reshape(-1, n)
    dens = sqrt_det_metric(chart, flat)
    vals = np.asarray(fn(flat, chart.embed(flat)), dtype=float)
    jac = (s[:, None] ** (n - 1) * np.prod(E)) * (w_s[:, None] * dir_w[None, :])
    return float(np.sum(vals * dens * jac.ravel()))


def _inside_box(chart, pts):
    for a, per in enumerate(chart.periodic):
        if per:
            continue
        lo, hi = chart.box[a]
        if np.any(pts[..., a] <= lo + 1e-9) or np.any(pts[..., a] >= hi - 1e-9):
            return False
    return True
