"""Discrete and analytic stability operators on chart grids.

The stability operator of a minimal hypersurface M^n of the unit sphere is
``L = Delta_M + |A|^2 + n`` (the ambient Ricci curvature of S^(n+1) is the
constant n).  With the sign convention ``L u = -lambda u``, its spectrum is
computed here from the generalized pencil

    (S - V) x = lambda B x,

where S is the weak-form stiffness (Dirichlet energy), B the lumped mass
and V the potential ``|A|^2 + n`` weighted by the mass, the exact
constant ``SphereProduct.potential`` of the surface's sphere factors.  The
discretization is second-order finite volumes in chart coordinates with
metric-density weights: one node per cell, periodic axes wrap, and polar
axes need no boundary rows because the density ``sqrt(det g)`` vanishes at
the poles (the flux through a pole is zero).

The pencil is held in edge form (:class:`DiscreteOperator`): per axis a,
the flux weight ``w_a = sqrt(det g) / g_aa * cell / h_a^2`` of the edge
from each node to its neighbour one step up axis a, at the edge midpoint,
with the edge through the box end of a polar axis set to exactly 0; and
the node values of B and V.  Each is an array on the open grid, one that
broadcasts to the grid's shape.  ``DiscreteOperator.apply`` computes
(S - V) x from them as per-axis fluxes on the tensor array,

    flux = w_a * (roll(x, -1, a) - x),    S x += roll(flux, 1, a) - flux,

so S is symmetric by construction, positive semidefinite whenever every
weight is >= 0, and S 1 is exactly 0: on a surface with constant
potential the constant function is an exact discrete eigenvector,
mirroring the continuous situation.  That structure is what
:func:`spherestab.spectrum.first_stability_eigenvalue` certifies, and it
refuses a pencil without it: when the weights are >= 0 and V = c B -- as
on every surface, where |A|^2 is the constant of its sphere factors --
the smallest eigenvalue is -c with the constant eigenvector.  As
(S - V) 1 = -V, that eigenvalue and its residual are sums over the
open-grid B and V, so the certified path builds nothing of the grid's
size.

The geometry is evaluated on the grid axes, not on the full grid.  A
diagonal chart metric is asked for on an open grid (the per-axis node
coordinates, or those of one axis moved to its midpoints, as arrays that
broadcast against each other), so each axis's sines are taken once per
coordinate value; on the hyperspherical charts entry g_aa varies only
along the axes before a within its sphere factor.  sqrt(det g), the mass
and the flux weights are then formed by broadcasting, with the same IEEE
operations in the same order as on the stacked per-node (m, d) metric:
the product runs over the axes in order, then ``** 0.5``, then
``/ g_aa * cell / h^2``.  Broadcasting only repeats a value, it does not
round it again, so every grid value goes through the same roundings on
the same operands and the weights are bit for bit those of a per-node
evaluation.  |A|^2 is the constant of the surface's sphere factors, so V
stays on the open grid too.

The matrices S, B and V, and the (m, n) node array, are views built on
demand from the edge form, for ``export_coo`` and oracle checks.  S is
canonical CSR: row i holds the (2d + 1)-point stencil of node i in the
slot order
``[lo_0 ... lo_(d-1), self, hi_(d-1) ... hi_0]`` (lo_a and hi_a are the
neighbours one step down and up axis a), which is ascending column order
except on the rows that wrap on a periodic axis.  Each off-diagonal is the
negated flux weight of its edge, and the diagonal is their negated sum
taken in one fixed order: axis by axis, the flux to lo_a before the flux
to hi_a.  The two slots through the box ends of a polar axis are not
stored.  B and V are diagonal CSR.

An analytic backend covers every surface, a product of round spheres
S^(d_i)(r_i) (the equator has one factor): its -Delta eigenvalues
are the sums of one factor eigenvalue j (j + d_i - 1) / r_i^2 per factor,
with the product of their multiplicities C(d+j, d) - C(d+j-2, d).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import AssemblyFailure, DegenerateChart
from .geometry import ParametrizedHypersurface, SphereProduct, _per_axis, _row_product, _tensor_grid


@dataclass(eq=False)
class DiscreteOperator:
    """The stability pencil on one chart grid, in edge form.

    ``weights[a]`` holds the flux weight of the edge from each node to its
    neighbour one step up axis a (0 through the box end of a polar axis),
    ``node_mass`` the lumped mass B_ii and ``node_potential`` V_ii; each
    broadcasts to ``shape``.  ``stiffness``, ``mass``, ``potential`` and
    ``nodes`` are views built from these on first use.
    """

    weights: tuple                 # per axis, >= 0 on an assembled grid
    node_mass: np.ndarray          # positive
    node_potential: np.ndarray     # (|A|^2 + n) * node_mass
    periodic: tuple                # per axis
    coords: tuple                  # per-axis node coordinates

    @property
    def shape(self):
        return tuple(len(c) for c in self.coords)

    @property
    def size(self):
        return math.prod(self.shape)

    def apply(self, x):
        """(S - V) x for a vector x of length ``size``, as per-axis fluxes on the grid."""
        u = np.reshape(x, self.shape)
        out = -(self.node_potential * u)
        for a, w in enumerate(self.weights):
            flux = w * (np.roll(u, -1, axis=a) - u)
            out += np.roll(flux, 1, axis=a) - flux
        return out.ravel()

    @cached_property
    def mass_diagonal(self):
        """B_ii, one per node in row-major order."""
        return np.broadcast_to(self.node_mass, self.shape).ravel()

    @cached_property
    def _csr(self):
        return _csr_views(self)

    @property
    def stiffness(self):
        """S as canonical CSR."""
        return self._csr[0]

    @property
    def mass(self):
        """B as diagonal CSR."""
        return self._csr[1]

    @property
    def potential(self):
        """V as diagonal CSR."""
        return self._csr[2]

    @cached_property
    def nodes(self):
        """(m, n) chart coordinates of the grid nodes, row-major."""
        return _tensor_grid(self.coords)

    def export_coo(self, which="stiffness", path=None):
        """Matrix in text triplet form, one ``row col value`` line per entry."""
        mat = getattr(self, which).tocoo()
        order = np.lexsort((mat.col, mat.row))
        lines = [
            f"{mat.row[i]} {mat.col[i]} {float(mat.data[i])!r}"
            for i in order
            if mat.data[i] != 0.0
        ]
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def grid_axes(chart, resolution):
    """Node coordinates and spacing per axis: uniform (periodic) or cell-centered."""
    res = _per_axis(resolution, chart.dim)
    axes = []
    for a, count in enumerate(res):
        lo, hi = chart.box[a]
        h = (hi - lo) / count
        offset = 0.0 if chart.periodic[a] else 0.5
        axes.append((lo + (np.arange(count) + offset) * h, h))
    return axes


def assemble_jacobi(M: ParametrizedHypersurface, resolution) -> DiscreteOperator:
    """Assemble the stability pencil of M on a tensor grid, in edge form.

    Requires a chart with diagonal (orthogonal-coordinate) metric, which
    covers every built-in family.  ``resolution`` is the node count
    per axis (scalar or list), at least 8.

    ``chart.metric_diag`` is evaluated on open grids (``np.ix_`` of the
    per-axis coordinates): once at the nodes, for the metric and mass
    checks and the mass, and once per axis a with that axis moved to its
    edge midpoints, for the flux weights.  The mass and the flux weight
    ``sqrt(det g) / g_aa * cell / h_a^2`` of each edge, at the edge
    midpoint, are broadcast products of those per-axis entries, multiplied
    in the order ``np.prod`` uses on a stacked (m, d) metric, so they round
    as a per-node evaluation would.  On a polar axis the last edge ends at
    the box end, where the density vanishes; its weight is set to 0, so no
    flux crosses.  Nothing of the grid's full size is built here.
    """
    chart = M.chart
    res = _per_axis(resolution, chart.dim)
    if min(res) < 8:
        raise ValueError("resolution must be >= 8 per axis")

    axes = grid_axes(chart, resolution)
    coords = tuple(ax[0] for ax in axes)
    cell = float(np.prod([ax[1] for ax in axes]))

    # metric on the open grid: one broadcastable entry per axis
    grid = np.ix_(*coords)
    gdiag = chart.metric_diag(grid)
    if any(np.any(g <= 0) for g in gdiag):
        raise DegenerateChart("metric degenerates at a grid node")
    # the products of the diagonal entries start from ones with an axis per
    # chart axis (1.0 * g_0 is exact), so mass and weights are arrays even
    # where every entry is a scalar (the circle factors of S^1 and the torus)
    ones = (np.ones((1,) * len(gdiag)),)
    mass = _row_product(ones + gdiag) ** 0.5 * cell
    if np.any(mass <= 0):
        raise AssemblyFailure("mass matrix is not positive definite")

    weights = []
    for a, (_, h) in enumerate(axes):
        # flux weight of the edge from each node to its hi neighbour, at the
        # edge midpoint; on a polar axis the last one is the box end
        gd = chart.metric_diag(grid[:a] + (grid[a] + h / 2.0,) + grid[a + 1 :])
        up = _row_product(ones + gd) ** 0.5 / gd[a] * cell / h**2
        if not chart.periodic[a]:
            up = np.array(np.broadcast_to(up, up.shape[:a] + (res[a],) + up.shape[a + 1 :]))
            np.moveaxis(up, a, 0)[-1] = 0.0
        weights.append(up)

    return DiscreteOperator(
        weights=tuple(weights),
        node_mass=mass,
        node_potential=float(M.product.potential) * mass,
        periodic=tuple(chart.periodic),
        coords=coords,
    )


def _csr_views(op):
    """(S, B, V) of an edge-form pencil as CSR, in the layout of the module docstring.

    The slots through the box ends of a polar axis are dropped by position;
    their weight is 0, so the diagonal can add every slot, axis by axis,
    lo_a before hi_a, and no sort decides its rounding.  One
    ``sort_indices`` orders the rows that wrap on a periodic axis.
    """
    import scipy.sparse as sp

    shapes, n_nodes, ndim = op.shape, op.size, len(op.shape)
    idx = np.arange(n_nodes, dtype=np.int32).reshape(shapes)
    cols = np.empty((*shapes, 2 * ndim + 1), dtype=np.int32)
    vals = np.empty((*shapes, 2 * ndim + 1))
    keep = np.ones((*shapes, 2 * ndim + 1), dtype=bool)
    diag = np.zeros(shapes)
    for a, up in enumerate(op.weights):
        lo = np.roll(up, 1, axis=a)
        cols[..., a] = np.roll(idx, 1, axis=a)
        cols[..., -1 - a] = np.roll(idx, -1, axis=a)
        vals[..., a] = -lo
        vals[..., -1 - a] = -up
        if not op.periodic[a]:
            np.moveaxis(keep[..., a], a, 0)[0] = False
            np.moveaxis(keep[..., -1 - a], a, 0)[-1] = False
        diag += lo
        diag += up
    cols[..., ndim] = idx
    vals[..., ndim] = diag

    # scipy stores the index arrays as int32 wherever the counts fit
    indptr = np.concatenate(([0], np.cumsum(keep.reshape(n_nodes, -1).sum(axis=1))))
    S = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n_nodes, n_nodes))
    S.sort_indices()  # the rows that wrap on a periodic axis
    diagonal = np.arange(n_nodes + 1, dtype=np.int32)

    def diagonal_csr(values):
        values = np.broadcast_to(values, shapes).ravel()
        return sp.csr_matrix((values, diagonal[:-1], diagonal), shape=S.shape)

    return S, diagonal_csr(op.node_mass), diagonal_csr(op.node_potential)


# ---------------------------------------------------------------------------
# analytic backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticSpectrum:
    """Exact -Delta eigenvalues of a product of round spheres plus its constant potential."""

    product: SphereProduct

    def eigenvalues(self, count):
        """First ``count`` eigenvalues of -Delta, sorted, multiplicity-expanded.

        A product eigenvalue is a sum of one eigenvalue j_i (j_i + d_i - 1) / r_i^2
        of each factor S^(d_i)(r_i), with the product of their multiplicities.
        The sums are visited in increasing exact (``Fraction``) order from a
        heap of degree tuples, and a multiplicity is expanded only up to
        ``count``, so high-dimensional factors cost nothing extra.
        """
        dims, radius_sq = self.product.dims, self.product.radius_sq

        def value(js):
            return sum(Fraction(j * (j + d - 1)) / r2 for j, d, r2 in zip(js, dims, radius_sq))

        start = (0,) * len(dims)
        heap, seen, vals = [(Fraction(0), start)], {start}, []
        while len(vals) < count:
            val, js = heapq.heappop(heap)
            mult = math.prod(_harmonic_count(d, j) for d, j in zip(dims, js))
            vals += [float(val)] * min(mult, count - len(vals))
            for i in range(len(js)):
                nxt = js[:i] + (js[i] + 1,) + js[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (value(nxt), nxt))
        return np.array(vals, dtype=float)


def _harmonic_count(d, j):
    """Multiplicity C(d+j, d) - C(d+j-2, d) of the degree-j eigenvalue of S^d."""
    return math.comb(d + j, d) - (math.comb(d + j - 2, d) if j >= 2 else 0)


def analytic_laplace_spectrum(M: ParametrizedHypersurface) -> AnalyticSpectrum:
    """Exact -Delta spectrum enumerator of a surface, from its sphere factors."""
    return AnalyticSpectrum(M.product)
