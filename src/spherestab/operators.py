"""Discrete and analytic stability operators on chart grids.

The stability operator of a minimal hypersurface M^n of the unit sphere is
``L = Delta_M + |A|^2 + n`` (the ambient Ricci curvature of S^(n+1) is the
constant n).  With the sign convention ``L u = -lambda u``, its spectrum is
computed here from the generalized pencil

    (S - V) x = lambda B x,

where S is the weak-form stiffness matrix (Dirichlet energy), B the lumped
mass matrix and V the potential ``(|A|^2 + n)`` weighted by the mass.  The
discretization is second-order finite volumes in chart coordinates with
metric-density weights: one node per cell, periodic axes wrap, and polar
axes need no boundary rows because the density ``sqrt(det g)`` vanishes at
the poles (the flux through a pole is zero).  By construction S is
symmetric positive semidefinite with the constant vector in its kernel, so
on a surface with constant potential the constant function is an exact
discrete eigenvector -- mirroring the continuous situation.

That structure is what :func:`spherestab.spectrum.first_stability_eigenvalue`
certifies before it solves anything: S is symmetric with nonpositive
off-diagonals and zero row sums (a weighted graph Laplacian), so when V = c B
-- as on every built-in family, where |A|^2 is constant -- the smallest
eigenvalue is -c with the constant eigenvector.

An analytic backend covers the closed-form families: round spheres
(eigenvalues j(j+n-1)/r^2 with the usual multiplicities), the flat product
torus (2(j^2+m^2) over integer pairs) and, restricted to axisymmetric
modes, general products of spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyFailure, DegenerateChart, UnsupportedFamily
from .geometry import ParametrizedHypersurface, _norm_A_sq, _per_axis, _tensor_grid


@dataclass
class DiscreteOperator:
    """Assembled weak-form matrices of the stability pencil on one chart grid."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix            # diagonal, positive
    potential: sp.csr_matrix       # diagonal, (|A|^2 + n) mass-weighted
    dimension: int
    resolution: list
    periodic: tuple
    nodes: np.ndarray              # (m, n) chart coordinates of the grid nodes
    surface: str = "custom"

    @property
    def size(self):
        return self.stiffness.shape[0]

    def pencil(self):
        """(S - V, B) of the generalized eigenproblem."""
        return (self.stiffness - self.potential).tocsc(), self.mass

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
    """Assemble the stability pencil of M on a tensor grid.

    Requires a single chart with diagonal (orthogonal-coordinate) metric,
    which covers every built-in family.  ``resolution`` is the node count
    per axis (scalar or list), at least 8.
    """
    if len(M.charts) != 1:
        raise AssemblyFailure("assembly supports single-chart surfaces")
    chart = M.charts[0]
    if chart.metric_diag is None:
        raise AssemblyFailure("assembly needs an analytic diagonal metric (orthogonal chart)")
    res = _per_axis(resolution, chart.dim)
    if min(res) < 8:
        raise ValueError("resolution must be >= 8 per axis")

    axes = grid_axes(chart, resolution)
    shapes = [len(ax[0]) for ax in axes]
    n_nodes = int(np.prod(shapes))
    idx = np.arange(n_nodes).reshape(shapes)
    nodes = _tensor_grid([ax[0] for ax in axes])
    cell = float(np.prod([ax[1] for ax in axes]))

    gdiag = chart.metric_diag(nodes)
    if np.any(gdiag <= 0):
        raise DegenerateChart("metric degenerates at a grid node")
    sqrtg = np.prod(gdiag, axis=-1) ** 0.5
    mass = sqrtg * cell
    if np.any(mass <= 0):
        raise AssemblyFailure("mass matrix is not positive definite")

    a2 = _norm_A_sq(M, 0, nodes)
    pot = (a2 + M.dimension) * mass

    # one flux sweep per axis: (lo node, hi node, weight) per edge, by slab
    ndim = chart.dim
    grid = nodes.reshape(*shapes, ndim)
    sweeps = []
    for a in range(ndim):
        coords, h = axes[a]
        # no flux through the vanishing-density box ends of a polar axis
        keep = slice(None) if chart.periodic[a] else slice(0, -1)
        lo = np.moveaxis(idx, a, 0)[keep]
        hi = np.moveaxis(np.roll(idx, -1, axis=a), a, 0)[keep]
        pts = np.moveaxis(grid, a, 0)[keep].copy()
        pts[..., a] = (coords + h / 2.0)[keep].reshape((-1,) + (1,) * (ndim - 1))
        gd = chart.metric_diag(pts.reshape(-1, ndim))
        w = np.prod(gd, axis=-1) ** 0.5 / gd[:, a] * cell / h**2
        sweeps.append([arr.reshape(len(lo), -1) for arr in (lo, hi, w)])

    # per edge w at (ii, ii) and (jj, jj), -w at (ii, jj) and (jj, ii), laid out
    # slab after slab, so duplicates sum in the order of a per-slab loop
    rows = np.concatenate([np.stack([ii, jj, ii, jj], axis=1).ravel() for ii, jj, _ in sweeps])
    cols = np.concatenate([np.stack([ii, jj, jj, ii], axis=1).ravel() for ii, jj, _ in sweeps])
    vals = np.concatenate([np.stack([w, w, -w, -w], axis=1).ravel() for _, _, w in sweeps])
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    S.sum_duplicates()
    return DiscreteOperator(
        stiffness=S,
        mass=sp.diags(mass).tocsr(),
        potential=sp.diags(pot).tocsr(),
        dimension=M.dimension,
        resolution=res,
        periodic=chart.periodic,
        nodes=nodes,
        surface=M.family + str(M.params),
    )


# ---------------------------------------------------------------------------
# analytic backend
# ---------------------------------------------------------------------------

@dataclass
class AnalyticSpectrum:
    """Exact -Delta eigenvalues of a closed-form family plus its constant potential."""

    family: str
    params: tuple
    potential: float               # |A|^2 + n, exact for these families
    dimension: int
    axisymmetric: bool = False
    _values: list = field(default_factory=list, repr=False)

    def eigenvalues(self, count):
        """First ``count`` eigenvalues of -Delta, sorted, multiplicity-expanded."""
        while len(self._values) < count:
            self._extend(count)
        return np.array(self._values[:count], dtype=float)

    def _extend(self, count):
        fam, par = self.family, self.params
        if fam == "equator":
            vals = _sphere_spectrum(par[0], Fraction(1), count)
        elif fam == "clifford" and par == (1, 1):
            vals = _torus_spectrum(count)
        elif fam == "clifford":
            vals = _zonal_product_spectrum(par[0], par[1], count)
        else:  # pragma: no cover - constructor forbids this
            raise UnsupportedFamily(fam)
        self._values = sorted(vals)[: max(count, len(self._values))]


def _sphere_spectrum(n, r_sq, count):
    """j(j+n-1)/r^2 with multiplicity C(n+j, n) - C(n+j-2, n) on S^n(r)."""
    vals = []
    j = 0
    while len(vals) < count:
        mult = math.comb(n + j, n) - (math.comb(n + j - 2, n) if j >= 2 else 0)
        vals += [float(Fraction(j * (j + n - 1)) / r_sq)] * mult
        j += 1
    return vals


def _torus_spectrum(count):
    """2(j^2 + m^2) over integer pairs for the flat Clifford torus."""
    J = int(math.isqrt(count)) + 2
    vals = [2.0 * (j * j + m * m) for j in range(-J, J + 1) for m in range(-J, J + 1)]
    return sorted(vals)[:count]


def _zonal_product_spectrum(k, l, count):
    """Axisymmetric modes of S^k(sqrt(k/n)) x S^l(sqrt(l/n)): zonal sums."""
    n = k + l
    J = count + 1
    vals = []
    for j in range(J):
        for m in range(J):
            v = Fraction(j * (j + k - 1) * n, k) + Fraction(m * (m + l - 1) * n, l)
            vals.append(float(v))
    return sorted(vals)[:count]


def analytic_laplace_spectrum(M: ParametrizedHypersurface, axisymmetric=False) -> AnalyticSpectrum:
    """Exact -Delta spectrum enumerator for a built-in family.

    Supported: any equator, the (1, 1) product torus, and general (k, l)
    products restricted to axisymmetric modes (pass ``axisymmetric=True``).
    """
    if M.family == "equator":
        n = M.params[0]
        return AnalyticSpectrum("equator", (n,), float(n), n)
    if M.family == "clifford":
        k, l = M.params
        if (k, l) != (1, 1) and not axisymmetric:
            raise UnsupportedFamily(
                f"clifford{(k, l)} has no full analytic enumeration; "
                "restrict to axisymmetric modes or use the numeric backend"
            )
        n = k + l
        return AnalyticSpectrum("clifford", (k, l), float(2 * n), n, axisymmetric=(k, l) != (1, 1))
    raise UnsupportedFamily(f"no analytic spectrum for family {M.family!r}")
