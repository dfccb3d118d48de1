"""Discrete stability operators on chart grids, as a nest of 1-D pencils.

The stability operator of a minimal hypersurface M^n of the unit sphere is
``L = Delta_M + |A|^2 + n`` (the ambient Ricci curvature of S^(n+1) is the
constant n).  With the sign convention ``L u = -lambda u``, its spectrum is
that of the generalized pencil

    (S - V) x = lambda B x,

where S is the weak-form stiffness (Dirichlet energy), B the lumped mass
and V = c B the potential ``c = |A|^2 + n``, the exact constant
``M.potential`` of the surface's sphere factors.  The discretization is
second-order finite volumes in chart coordinates with metric-density
weights: one node per cell, periodic axes wrap, and polar axes need no
boundary rows because the density ``sqrt(det g)`` vanishes at the poles
(the flux through a pole is zero).  The mass of a node is
``sqrt(det g) * cell`` and the flux weight of the edge from a node to its
neighbour one step up axis e is ``sqrt(det g) / g_ee * cell / h_e^2`` at
the edge midpoint; S is the sum over edges of ``w (e_i - e_j)(e_i - e_j)^T``.

The pencil is never formed on the n-D grid.  It is held as a nest of 1-D
pencils (tensor-product separation; Lynch, Rice & Thomas, Numer. Math. 6,
1964).  The chart's metric diagonal is a nest when each entry g_ii is the
product, over the axes a <= i, of one factor f_ai(t_a) per axis: entry i's
own factor f_ii is g_ii along axis i with every other axis at the box
centre, and for a < i, f_ai is g_ii along axis a over its value at the
centre.  The hyperspherical chart of S^d is one (g_0 = 1,
g_(i+1) = g_i sin^2 t_i), and a product of spheres is one nest per
factor.  With rho_a = sqrt(prod_(i>=a) f_ai), the density factor of axis
a, :class:`AxisPencils` keeps per axis a

* ``masses[a] = rho_a * h_a`` at the nodes;
* ``weights[a] = rho_a / f_aa / h_a`` at the edge midpoints, the 1-D edge
  weight from each node to its neighbour one step up the axis, set to
  exactly 0 on the edge through the box end of a polar axis;
* ``links[a] = rho_a / f_ae * h_a`` at the nodes, one column per later
  axis e > a: the axis's factor in the weights of axis e's edges.  Its
  factor in the weights of an earlier axis's edges is its mass.

so that at a grid node t

    B(t)   = prod_a masses[a](t_a),
    w_e(t) = weights[e](t_e) * prod_(a<e) links[a][e](t_a) * prod_(a>e) masses[a](t_a),

each the full-grid value up to the rounding of a product (the split
identity the tests check against the n-D assembly of ``tests/oracles.py``).
Every array has one entry per node of one axis.

All of them come from one stacked ``chart.metric_diag`` call on per-axis
rows -- each axis over its nodes and its edge midpoints, every other axis
at the box centre -- the centre itself, and the grid's diagonal nodes
(node j of every axis, j below the smallest count).  Nothing is taken from a closed form.  The
diagonal checks the nest rather than assuming it: a chart whose metric
there differs from the product of its factors by more than ``NEST_TOL``
relative is refused with :class:`AssemblyFailure`.

S 1 = 0 holds exactly (the flux of a constant is 0), and S is positive
semidefinite whenever every edge weight is >= 0, which holds when every
1-D weight, link coefficient and mass is; that is what
:func:`spherestab.spectrum.first_stability_eigenvalue` certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyFailure, DegenerateChart
from .geometry import ParametrizedHypersurface, _per_axis, _row_product

NEST_TOL = 1e-12  # relative misfit of the metric at the diagonal nodes to the nest's product


@dataclass(eq=False)
class AxisPencils:
    """The stability pencil on one chart grid as per-axis 1-D arrays (module docstring)."""

    weights: tuple      # per axis a: (N_a,) 1-D edge weights, >= 0 on a built grid
    masses: tuple       # per axis a: (N_a,) node masses, positive
    links: tuple        # per axis a: (N_a, n - a - 1) link coefficients of the later axes
    potential: float    # c, with V = c B

    @property
    def size(self):
        """Nodes of the n-D grid."""
        return math.prod(len(m) for m in self.masses)


def axis_pencils(M: ParametrizedHypersurface, resolution) -> AxisPencils:
    """Build the 1-D nest of M's stability pencil on a tensor grid.

    ``resolution`` is the node count per axis (scalar or list), at least
    8: uniform nodes on a periodic axis, cell-centred on a polar one.
    Raises :class:`DegenerateChart` when the metric is not positive at a
    node, the box centre or a diagonal node, and :class:`AssemblyFailure`
    when the metric at the diagonal nodes is not the nest's product.
    """
    chart = M.chart
    n = chart.dim
    res = _per_axis(resolution, n)
    if min(res) < 8:
        raise ValueError("resolution must be >= 8 per axis")
    box = np.asarray(chart.box, dtype=float)
    starts = np.concatenate(([0], np.cumsum(res) * 2))  # the first row of each axis's block
    d = min(res)                                         # diagonal nodes (j, ..., j), j < d

    # one stacked metric, every axis at the centre but the one a row varies:
    # per axis a block of its nodes and then its edge midpoints; then the
    # diagonal nodes; then the centre
    points = np.empty((starts[-1] + d + 1, n))
    points[:] = (box[:, 0] + box[:, 1]) / 2.0
    steps = []
    for a, count in enumerate(res):
        lo, hi = box[a]
        h = (hi - lo) / count
        x = lo + (np.arange(count) + (0.0 if chart.periodic[a] else 0.5)) * h
        points[starts[a] : starts[a] + count, a] = x
        points[starts[a] + count : starts[a + 1], a] = x + h / 2.0
        points[starts[-1] : -1, a] = x[:d]
        steps.append(h)
    g = chart.metric_diag(points)
    g_diag, g_centre = g[starts[-1] : -1], g[-1]
    if not ((g[starts[-1] :] > 0).all() and all((g[s : s + c] > 0).all() for s, c in zip(starts, res))):
        raise DegenerateChart("metric degenerates at a grid node")

    weights, masses, links = [], [], []
    nest = np.ones_like(g_diag)
    for a, (count, h) in enumerate(zip(res, steps)):
        # the factors f_ai of the entries i >= a: entry a whole, the later
        # ones over their centre values
        f = g[starts[a] : starts[a + 1], a:] / np.concatenate(([1.0], g_centre[a + 1 :]))
        nest[:, a:] *= f[:d]
        rho = _row_product(f.T) ** 0.5
        up = rho[count:] / f[count:, 0] / h
        if not chart.periodic[a]:
            up[-1] = 0.0  # the edge through the box end, where the density vanishes
        weights.append(up)
        masses.append(rho[:count] * h)
        links.append(rho[:count, None] / f[:count, 1:] * h)
    misfit = float((np.abs(nest - g_diag) / g_diag).max())
    if not misfit <= NEST_TOL:
        raise AssemblyFailure(f"chart metric is not a nest of per-axis factors: relative misfit "
                              f"{misfit:.3e} > {NEST_TOL:g} at the grid's diagonal nodes")
    return AxisPencils(tuple(weights), tuple(masses), tuple(links), float(M.potential))
