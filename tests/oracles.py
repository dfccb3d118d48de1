"""Test oracles: deterministic integrals and checks the acceptance suite runs.

No report of the library calls these; the tests do.  They hold the facts
the cutoff step of the paper rests on, checked numerically:

* the local polar patch integrator (:func:`local_polar_integral`), a
  deterministic integral over a geodesic ball with radial Gauss segments
  split at the profile breakpoints, for integrands concentrated on thin
  annuli that global sampling would essentially never hit;
* the vanishing of the cutoff cross term int u <grad v, grad phi> in
  integration by parts (:func:`ibp_residual`, :func:`cutoff_cross_term`,
  acceptance criterion 10).  Both evaluate each ball's patch against the
  ball's neighbours only (:func:`spherestab.cutoff._neighbour_table`);
* the packing bound ``max degree <= (3 alpha beta)^N - 1`` for balls with
  disjoint sub-balls and beta-comparable radii
  (:func:`intersection_bound_check`, acceptance criterion 7);
* central-difference Christoffel symbols, Laplace-Beltrami operators and
  squared gradients of chart-parameter callables, built from the stencil
  helpers that :func:`spherestab.spectrum.simons_check` runs;
* the analytic chart Jacobian of the built-in surfaces
  (:func:`chart_jacobian`) and the chart-frame surface calculus it gives
  (:func:`chart_frame_gradient_sq`, :func:`chart_frame_laplacian`): the
  reference of the library's normal-frame kernels in :mod:`spherestab.fields`;
* the second fundamental form by central differences of the unit normal
  (:func:`shape_by_normal_derivative`), independent of the closed forms
  that :func:`spherestab.shape_at` reads;
* the stability pencil assembled on the whole n-D grid in edge form
  (:func:`assemble_jacobi`, a :class:`DiscreteOperator`) from the stacked
  metric at every node and edge midpoint, with its CSR views: the oracle
  of the library's per-axis nest (:func:`spherestab.operators.axis_pencils`)
  and of the dense ``eigh`` / ``eigsh`` checks;
* that pencil applied matrix-free as per-axis fluxes
  (:func:`apply_pencil`), and the grid Rayleigh quotient
  x^T (S - V) x / x^T B x it gives (:func:`operator_rayleigh_quotient`),
  which is always >= the certified lambda_1 of that grid.

The tests import this module as ``oracles``: ``tests/`` has no
``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from spherestab.cutoff import (
    CutoffField,
    _neighbour_table,
    _product_excluding_one,
    _product_gradient,
)
from spherestab.errors import (
    AssemblyFailure,
    DegenerateChart,
    PreconditionViolated,
    SpherestabError,
    UnsupportedFamily,
    ZeroTestFunction,
)
from spherestab.fields import surface_laplacian, tangential_gradient_sq
from spherestab.geometry import (
    ParametrizedHypersurface,
    ShapeData,
    _check_metric,
    _chord_to_arc,
    _gauss_rule,
    _per_axis,
    _stencil,
    _tensor_grid,
    chart_quadrature,
    geodesic_distance,
    sqrt_det_metric,
)
from spherestab.sampling import nearest_chart_point
from spherestab.spectrum import _christoffel, _christoffel_trace, _gradient_sq, _laplacian


# ---------------------------------------------------------------------------
# deterministic local polar patches
# ---------------------------------------------------------------------------

_PATCH_SAFETY = 1.4   # patch radius, in units of reach + gap


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


# ---------------------------------------------------------------------------
# packing bound
# ---------------------------------------------------------------------------

class BoundViolation(SpherestabError):
    """A proved inequality was violated numerically (should never happen)."""


def intersection_bound_check(centers, radii, alpha, beta):
    """Max intersection degree of a ball family against (3 alpha beta)^N - 1.

    Preconditions (checked): the sub-balls B(p_i, r_i/alpha) are pairwise
    disjoint and the radii are beta-comparable (sup r <= beta inf r).
    Euclidean balls in R^N.  Raises :class:`BoundViolation` if the packing
    bound fails -- it cannot, the point of the check is the verification.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    m, N = centers.shape
    if m == 0:
        return 0, (3.0 * alpha * beta) ** N - 1
    if radii.max() > beta * radii.min() * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"radii not {beta}-comparable: sup/inf = {radii.max() / radii.min():.3f}"
        )
    diff = centers[:, None, :] - centers[None, :, :]
    d = np.linalg.norm(diff, axis=-1)
    rsum = radii[:, None] + radii[None, :]
    off = ~np.eye(m, dtype=bool)
    if np.any(d[off] < (rsum[off] / alpha) * (1.0 - 1e-12)):
        raise PreconditionViolated("sub-balls B(p_i, r_i/alpha) are not pairwise disjoint")
    degrees = np.sum((d <= rsum) & off, axis=1)
    max_degree = int(degrees.max())
    bound = (3.0 * alpha * beta) ** N - 1
    if max_degree > bound:
        raise BoundViolation(f"degree {max_degree} exceeds ({3 * alpha * beta})^{N} - 1")
    return max_degree, bound


# ---------------------------------------------------------------------------
# integration by parts across the covered set
# ---------------------------------------------------------------------------

def ibp_residual(
    M: ParametrizedHypersurface,
    field: CutoffField,
    u,
    v,
    resolution=128,
    n_angular=128,
    nodes_per_segment=24,
) -> float:
    """| int phi u Delta v + int phi <grad u, grad v> + int u <grad v, grad phi> |.

    The identity holds exactly in the continuum for any Lipschitz cutoff on
    a closed surface, so the returned number measures quadrature error plus
    the cutoff cross terms' cancellation quality.  The smooth global parts
    are integrated on the full chart; everything supported near the cover
    (the (1 - phi) corrections and the grad-phi term) uses deterministic
    local polar patches, partitioned by the active ball of the inf field (a
    product field raises :class:`PreconditionViolated`).
    """
    if field.kind != "inf":
        raise PreconditionViolated("the integration-by-parts residual applies to the inf cutoff")
    chart = M.chart

    def terms(U, X):
        # u, u Delta v + <grad u, grad v>, d_a v and the chart frame at the
        # rows: one chart Jacobian serves every gradient
        jac, gdiag = chart_jacobian(M, U), chart.metric_diag(U)
        grad_v = v.ambient_gradient(X)
        du = chart_gradient(jac, u.ambient_gradient(X))
        dv = chart_gradient(jac, grad_v)
        uu = np.asarray(u.value(X), dtype=float)
        lap = surface_laplacian(M, X, grad_v, v.ambient_hessian(X))
        return uu, uu * lap + np.sum(du * dv / gdiag, axis=-1), dv, jac, gdiag

    def correction(i, nb, U, X):
        # 0 wherever another ball is active, so evaluate only where ball i is
        act, phi, slope, grad_d = field._active_ramp(X, *nb)
        rows = act == i
        out = np.zeros(len(U))
        if not rows.any():
            return out
        U, X, phi, slope, grad_d = U[rows], X[rows], phi[rows], slope[rows], grad_d[rows]
        uu, smooth, dv, jac, gdiag = terms(U, X)
        dphi = chart_gradient(jac, slope[:, None] * grad_d)
        out[rows] = -(1.0 - phi) * smooth + uu * np.sum(dv * dphi / gdiag, axis=-1)
        return out

    nodes, weights = chart_quadrature(chart, resolution)
    w = weights * sqrt_det_metric(chart, nodes)
    total = float(w @ terms(nodes, chart.embed(nodes))[1])
    return abs(_patch_sum(M, field, correction, n_angular, nodes_per_segment, total))


def cutoff_cross_term(
    M: ParametrizedHypersurface,
    field: CutoffField,
    u,
) -> float:
    """int_M |u| |grad_M phi| by local patches (the vanishing cross term).

    Each patch integrand takes its partition mask and grad phi from one
    distance evaluation against the patch ball's neighbours
    (:func:`_neighbour_table`, reach 2 (r_i + r_j) for inf ramps and
    r_i + r_j for product ramps); where the mask holds, no other ramp
    differs from 1 with zero slope, so the integrand is that of the full
    field (for product ramps, up to the rounding of the gradient's sum over
    fewer balls).
    """

    def integrand(i, nb, U, X):
        if field.kind == "inf":
            act, _, slope, grad_d = field._active_ramp(X, *nb)
            mask = act == i
            grad = slope[:, None] * grad_d
        else:
            d, grad_d, r, vals, slope = field._table_ramps(X, *nb)
            # partition supp(grad phi) by the first annulus containing the point
            in_ann = (d > r / 2.0) & (d < r)
            first = np.where(in_ann.any(axis=1), nb[0][in_ann.argmax(axis=1)], -1)
            mask = first == i
            grad = _product_gradient(_product_excluding_one(vals), slope, grad_d)
        uu = np.abs(np.asarray(u.value(X), dtype=float))
        gsq = tangential_gradient_sq(M, X, grad)
        return np.where(mask, uu * np.sqrt(gsq), 0.0)

    return _patch_sum(M, field, integrand, n_angular=128, nodes_per_segment=24)


def _patch_sum(M, field: CutoffField, integrand, n_angular, nodes_per_segment, total=0.0):
    """``total`` plus, in ball order, the patch integral (:func:`local_polar_integral`)
    of ``integrand(i, neighbours_i, U, X)`` around each ball i of the cover.

    ``neighbours_i`` is ball i's row of :func:`_neighbour_table`, as the
    pair (table row, pad row).  A patch reaches as far as ramp i differs
    from 1, with radial breaks at the ramp ends: reach 2 r and breaks
    (r, 2 r) inf, reach r and breaks (r/2, r) product;
    a Euclidean cover's chords become geodesic radii by :func:`_chord_to_arc`.
    """
    cover = field.cover
    inf = field.kind == "inf"
    table, pad = _neighbour_table(cover, 2.0 if inf else 1.0)
    for i in range(cover.size):
        r = cover.radii[i]
        reach, breaks = (2.0 * r, (r, 2.0 * r)) if inf else (r, (r / 2.0, r))
        if cover.metric == "euclidean":
            reach, breaks = _chord_to_arc(reach), [_chord_to_arc(b) for b in breaks]
        total += local_polar_integral(
            M, cover.centers[i], lambda U, X, i=i: integrand(i, (table[i], pad[i]), U, X), reach,
            breaks=breaks, n_angular=n_angular, nodes_per_segment=nodes_per_segment,
        )
    return total


# ---------------------------------------------------------------------------
# finite-difference operators on chart-parameter callables
# ---------------------------------------------------------------------------

def christoffel_fd(M: ParametrizedHypersurface, U, step=2e-3):
    """Christoffel symbols from central differences of the (diagonal) metric.

    Returns (gdiag, ginv_diag, gamma) with gamma[:, d, c, a] = Gamma^d_{ca}.
    """
    metric = M.chart.metric_diag
    U = np.asarray(U, dtype=float)
    plus, minus = _stencil(U, step)
    return _christoffel(metric(U), [metric(P) for P in plus], [metric(P) for P in minus], step)


def surface_laplacian_fd(M, U, fn, step=2e-3, parts=None):
    """Laplace-Beltrami of a chart-parameter callable by central differences.

    ``Delta f = g^{cc} (d^2_cc f - Gamma^e_{cc} d_e f)`` on the diagonal-metric
    charts of the built-in families.  ``parts`` may carry a precomputed
    (gdiag, ginv, gamma) triple from :func:`christoffel_fd`.
    """
    U = np.asarray(U, dtype=float)
    _, ginv, gamma = parts if parts is not None else christoffel_fd(M, U, step)
    plus, minus = _stencil(U, step)
    return _laplacian(fn(U), [fn(P) for P in plus], [fn(P) for P in minus], step, ginv,
                      _christoffel_trace(ginv, gamma))


def surface_gradient_sq_fd(M, U, fn, step=2e-3):
    """|grad f|^2 = g^{cc} (d_c f)^2 by central differences (diagonal metric)."""
    U = np.asarray(U, dtype=float)
    plus, minus = _stencil(U, step)
    return _gradient_sq([fn(P) for P in plus], [fn(P) for P in minus], step, M.chart.metric_diag(U))


# ---------------------------------------------------------------------------
# the chart Jacobian and the chart-frame surface calculus
# ---------------------------------------------------------------------------

def _write_hyperspherical_jacobian(out, angles, scale):
    """Write the analytic Jacobian of the unit S^k's hyperspherical point at
    ``angles`` (..., k), times ``scale``, into the zeroed ``out`` (..., k+1, k).

    Column a is d/dt_a: row a is -prod_(m<a) sin t_m * sin t_a, and each
    later row is its coordinate's product with sin t_a swapped for cos t_a,
    built as a running product, so it holds where sin t_a == 0 too.
    """
    k = angles.shape[-1]
    s, c = np.sin(angles), np.cos(angles)
    prefix = None  # prod_(m<a) sin t_m; None stands for 1.0
    for a in range(k):
        np.multiply(-s[..., a] if prefix is None else -prefix * s[..., a], scale, out=out[..., a, a])
        run = c[..., a] if prefix is None else prefix * c[..., a]
        for i in range(a + 1, k):
            np.multiply(run * c[..., i], scale, out=out[..., i, a])
            run = run * s[..., i]
        np.multiply(run, scale, out=out[..., k, a])
        prefix = s[..., a] if prefix is None else prefix * s[..., a]


def chart_jacobian(M: ParametrizedHypersurface, U):
    """The tangent frame dx/dU (..., n+2, n) of a built-in surface's chart at U.

    Factor S^d(r) of the surface's sphere product takes the next d chart
    axes and the next d + 1 ambient coordinates, as in its ``embed``.
    """
    U = np.asarray(U, dtype=float)
    jac = np.zeros(U.shape[:-1] + (M.dimension + 2, M.dimension))
    start = 0
    for i, (d, r) in enumerate(zip(M.product.dims, M.product.radii)):
        _write_hyperspherical_jacobian(jac[..., start + i:start + i + d + 1, start:start + d],
                                       U[..., start:start + d], r)
        start += d
    return jac


def chart_gradient(jac, ambient_grad):
    """Chart partials d_a f = J^T grad f from the chart Jacobian ``jac`` at the rows."""
    grad = np.asarray(ambient_grad, dtype=float)
    # J^T grad per row as one batched matmul, in the operand layout that
    # einsum("pia,pi->pa", optimize=True) hands to matmul: the same rounding
    return np.matmul(jac.swapaxes(-1, -2), grad.reshape(grad.shape + (1,)))[..., 0]


def chart_frame_gradient_sq(M, U, ambient_grad):
    """|grad_M f|^2 = g^aa (d_a f)^2 through the chart Jacobian at the chart points U."""
    U = np.asarray(U, dtype=float)
    return np.sum(chart_gradient(chart_jacobian(M, U), ambient_grad) ** 2 / M.chart.metric_diag(U),
                  axis=-1)


def chart_frame_laplacian(M, U, X, ambient_grad, ambient_hess):
    """Delta_M f = g^aa J_a^T Hess f J_a - n <grad f, x> at X = x(U), through the chart Jacobian."""
    U = np.asarray(U, dtype=float)
    jac = chart_jacobian(M, U)
    trace = np.einsum("pia,pij,pja,pa->p", jac, ambient_hess, jac, 1.0 / M.chart.metric_diag(U),
                      optimize=True)
    return trace - M.dimension * np.einsum("pj,pj->p", ambient_grad, X)


# ---------------------------------------------------------------------------
# the normal-derivative shape operator
# ---------------------------------------------------------------------------

def _unit_normal(jac, x):
    """Unit vector orthogonal to the chart tangents and to the sphere radius."""
    span = np.column_stack([jac, x])
    u_svd, s, _ = np.linalg.svd(span, full_matrices=True)
    nu = u_svd[:, -1]
    pivot = np.argmax(np.abs(nu))
    return nu if nu[pivot] > 0 else -nu


def shape_by_normal_derivative(chart, jacobian, u, step=1e-3):
    """Shape data of a chart at one parameter point, with A_ab = <d_a nu, d_b x>
    by central differences (step ``step``) of the unit normal.

    ``jacobian`` maps chart points to the chart's tangent frame (n+2, n),
    as :func:`chart_jacobian` does for a built-in surface; the unit normal
    is the direction orthogonal to it and to x, not the chart's ``normal``.

    Refuses (``ValueError``) a chart whose image leaves the unit sphere by
    more than 1e-8 at u; raises ``DegenerateChart`` when cond(g) > 1e12.
    """
    u = np.asarray(u, dtype=float)
    x = chart.embed(u)
    drift = np.linalg.norm(x) - 1.0
    if abs(drift) > 1e-8:
        raise ValueError(f"the chart image leaves the unit sphere: |x(u)| - 1 = {drift:.3e}")
    jac = jacobian(u)
    g = jac.T @ jac
    _check_metric(g)
    nu = _unit_normal(jac, x)

    n = chart.dim
    dnu = np.empty((n + 2, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        nu_p = _unit_normal(jacobian(u + e), chart.embed(u + e))
        nu_m = _unit_normal(jacobian(u - e), chart.embed(u - e))
        if nu_p @ nu < 0:
            nu_p = -nu_p
        if nu_m @ nu < 0:
            nu_m = -nu_m
        dnu[:, a] = (nu_p - nu_m) / (2.0 * step)
    A = dnu.T @ jac
    A = 0.5 * (A + A.T)

    ginv = np.linalg.inv(g)
    H = float(np.trace(ginv @ A))
    a2 = float(np.trace(ginv @ A @ ginv @ A))
    return ShapeData(g, nu, A, H, a2)


# ---------------------------------------------------------------------------
# the n-D pencil in edge form, its CSR views, its matrix-free apply
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DiscreteOperator:
    """The stability pencil on one chart grid, in edge form.

    ``weights[a]`` holds, on the grid, the flux weight of the edge from each
    node to its neighbour one step up axis a (0 through the box end of a
    polar axis), ``node_mass`` the lumped mass B_ii and ``node_potential``
    V_ii.  ``stiffness``, ``mass`` and ``potential`` are CSR views built
    from these on first use (:func:`_csr_views`).
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

    The per-node form of the finite volumes of :mod:`spherestab.operators`:
    ``chart.metric_diag`` at every node, for the mass
    ``sqrt(det g) * cell``, and at every node with axis a moved to its edge
    midpoints, for the flux weight ``sqrt(det g) / g_aa * cell / h_a^2`` of
    axis a, whose edge through the box end of a polar axis is set to 0.
    ``resolution`` is the node count per axis (scalar or list), at least 8.
    Every array has the grid's size, so keep the grids small.
    """
    chart = M.chart
    if min(_per_axis(resolution, chart.dim)) < 8:
        raise ValueError("resolution must be >= 8 per axis")
    axes = grid_axes(chart, resolution)
    coords = tuple(x for x, _ in axes)
    shape = tuple(len(x) for x in coords)
    cell = float(np.prod([h for _, h in axes]))

    gdiag = chart.metric_diag(_tensor_grid(coords))
    if np.any(gdiag <= 0):
        raise DegenerateChart("metric degenerates at a grid node")
    mass = (np.prod(gdiag, axis=-1) ** 0.5 * cell).reshape(shape)
    if np.any(mass <= 0):
        raise AssemblyFailure("mass matrix is not positive definite")

    weights = []
    for a, (x, h) in enumerate(axes):
        gd = chart.metric_diag(_tensor_grid(coords[:a] + (x + h / 2.0,) + coords[a + 1 :]))
        up = (np.prod(gd, axis=-1) ** 0.5 / gd[:, a] * cell / h**2).reshape(shape)
        if not chart.periodic[a]:
            np.moveaxis(up, a, 0)[-1] = 0.0
        weights.append(up)
    return DiscreteOperator(tuple(weights), mass, float(M.potential) * mass, tuple(chart.periodic), coords)


def _csr_views(op):
    """(S, B, V) of an edge-form pencil as CSR.

    S is canonical CSR: row i holds the (2d + 1)-point stencil of node i in
    the slot order ``[lo_0 ... lo_(d-1), self, hi_(d-1) ... hi_0]`` (lo_a
    and hi_a are the neighbours one step down and up axis a), ascending
    column order except on the rows that wrap on a periodic axis.  Each
    off-diagonal is the negated flux weight of its edge, and the diagonal
    is their negated sum in one fixed order: axis by axis, the flux to lo_a
    before the flux to hi_a.  The two slots through the box ends of a polar
    axis are dropped by position; their weight is 0, so the diagonal can add
    every slot and no sort decides its rounding.  One ``sort_indices``
    orders the rows that wrap on a periodic axis.  B and V are diagonal CSR.
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


def apply_pencil(op, x):
    """(S - V) x for a vector x of length ``op.size``, as per-axis fluxes on
    the grid: flux = w_a * (roll(x, -1, a) - x), S x += roll(flux, 1, a) - flux."""
    u = np.reshape(x, op.shape)
    out = -(op.node_potential * u)
    for a, w in enumerate(op.weights):
        flux = w * (np.roll(u, -1, axis=a) - u)
        out += np.roll(flux, 1, axis=a) - flux
    return out.ravel()


def operator_rayleigh_quotient(M, f, resolution):
    """x^T (S - V) x / x^T B x of an ambient field f sampled at the nodes of
    the pencil assembled at ``resolution``."""
    op = assemble_jacobi(M, resolution)
    x = np.asarray(f.value(M.chart.embed(_tensor_grid(op.coords))), dtype=float)
    b = np.broadcast_to(op.node_mass, op.shape).ravel()
    denom = float(x @ (b * x))
    if denom <= 1e-28 * b.sum():
        raise ZeroTestFunction("test field vanishes identically on the grid")
    return float(x @ apply_pencil(op, x)) / denom
