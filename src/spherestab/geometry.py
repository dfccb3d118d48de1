"""Chart-based closed hypersurfaces of the round unit sphere.

Surfaces M^n in S^(n+1), the unit sphere of R^(n+2), are described by one
parametrization chart (a box of angles with periodicity flags and an
immersion map); chart coordinates U are arrays (..., n).  Two families ship
with exact closed-form geometry:

* ``equator(n)``     -- the totally geodesic S^n (A == 0, H == 0),
* ``clifford(k, l)`` -- S^k(sqrt(k/n)) x S^l(sqrt(l/n)) with k + l = n,
  the minimal product of round spheres (|A|^2 == n, H == 0).

Each carries a :class:`SphereProduct`, its round-sphere factors with exact
squared radii (the equator is the one-factor case); its curvatures, ball
areas and spectrum are all derived from that one description.

Conventions.  The unit normal nu is tangent to the ambient sphere and
normal to M; the second fundamental form is the tangential derivative of
nu, ``A_ab = <d_a nu, d_b x>``, so ``H = trace_g A = div_M nu``.  On the
product family nu is oriented so the S^k-factor principal curvatures
(sqrt(l/k), multiplicity k) are positive; the S^l factor contributes
-sqrt(k/l) with multiplicity l.

Charts use hyperspherical coordinates.  Polar axes span [0, pi] and carry
a sampling margin (``POLE_MARGIN``, 1e-3) so random evaluation never touches a
coordinate pole; quadrature uses interior nodes (Gauss-Legendre on polar
axes, uniform on periodic axes) where the vanishing metric density keeps
integrals accurate.  Every chart carries its analytic frame: the unit
normal, the metric diagonal and the nearest-point inverse.  The normal
and the position x span the normal space of M in R^(n+2), so surface
derivatives are ambient ones with x and nu projected out
(:mod:`.fields`) and need no chart Jacobian.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import DegenerateChart, UnsupportedFamily

POLE_MARGIN = 1e-3
COND_LIMIT = 1e12


def chord_distance(x, p):
    """Euclidean distance |x - p| along the last axis."""
    return np.linalg.norm(np.asarray(x) - np.asarray(p), axis=-1)


def geodesic_distance(x, p):
    """Great-circle distance on the unit sphere via the chord-arc map 2*asin(c/2)."""
    return _chord_to_arc(chord_distance(x, p))


def _chord_to_arc(c):
    """Great-circle length 2*asin(c/2) of a chord of the unit sphere."""
    return 2.0 * np.arcsin(np.clip(c / 2.0, 0.0, 1.0))


def _distance(metric):
    """Distance function of a metric name: "geodesic" or "euclidean" (the chord)."""
    if metric == "geodesic":
        return geodesic_distance
    if metric == "euclidean":
        return chord_distance
    raise ValueError(f"unknown metric {metric!r}; use 'geodesic' or 'euclidean'")


# ---------------------------------------------------------------------------
# hyperspherical coordinate helpers for a unit S^k
# ---------------------------------------------------------------------------

def _write_hyperspherical_point(out, angles, scale):
    """Write the point of the unit S^k of R^(k+1) at hyperspherical
    ``angles`` (..., k), times ``scale``, into ``out`` (..., k+1).

    x_0 = cos t_0, x_i = sin t_0 ... sin t_(i-1) cos t_i, x_k = sin t_0 ... sin t_(k-1).
    Axes 0..k-2 are polar ([0, pi]); the last axis is periodic ([0, 2pi)).
    Each coordinate is multiplied by ``scale`` straight into ``out``.
    """
    k = angles.shape[-1]
    run = None  # the product of the sines so far; None stands for 1.0
    for i in range(k):
        x = np.cos(angles[..., i]) if run is None else run * np.cos(angles[..., i])
        np.multiply(x, scale, out=out[..., i])
        sin = np.sin(angles[..., i])
        run = sin if run is None else run * sin
    np.multiply(run, scale, out=out[..., k])


def sphere_angles(x):
    """Hyperspherical angles (..., k) of points x (..., k+1); inverse of
    :func:`_write_hyperspherical_point`.

    Polar angles are t_i = atan2(|x_(i+1:)|, x_i) in [0, pi]; the last angle
    is atan2(x_k, x_(k-1)) mod 2 pi.  Every angle is invariant under positive
    scaling, so x need not be unit: the result is the angle chart of x/|x|.
    """
    x = np.asarray(x, dtype=float)
    k = x.shape[-1] - 1
    out = np.empty(x.shape[:-1] + (k,))
    for i in range(k - 1):
        out[..., i] = np.arctan2(np.linalg.norm(x[..., i + 1 :], axis=-1), x[..., i])
    out[..., k - 1] = np.mod(np.arctan2(x[..., k], x[..., k - 1]), 2.0 * math.pi)
    return out


def _sphere_metric_diag(angles):
    """Diagonal (..., k) of the unit S^k round metric at hyperspherical
    ``angles`` (..., k), by the recurrence g_0 = 1, g_(i+1) = g_i sin^2 t_i."""
    angles = np.asarray(angles, dtype=float)
    out = np.empty(angles.shape)
    out[..., 0] = 1.0
    for i in range(angles.shape[-1] - 1):  # the last angle's sine enters no entry
        out[..., i + 1] = out[..., i] * np.sin(angles[..., i]) ** 2
    return out


def _sphere_axes(k):
    """(box rows, periodic flags) for the hyperspherical chart of S^k."""
    boxes = [(0.0, math.pi)] * (k - 1) + [(0.0, 2.0 * math.pi)]
    periodic = (False,) * (k - 1) + (True,)
    return np.array(boxes), periodic


# ---------------------------------------------------------------------------
# charts and surfaces
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    """One parametrization chart: a coordinate box plus an immersion map.

    ``embed`` maps parameter arrays (..., n) to ambient points (..., n+2).
    Every field is required.  ``normal`` maps surface points X (..., n+2)
    to their unit normals nu (..., n+2), tangent to the sphere; with x
    they span the normal space that :mod:`.fields` projects out.
    ``metric_diag`` maps points (..., n) to the metric diagonal (..., n),
    its one input form; it is the one source of sqrt(det g)
    (:func:`sqrt_det_metric`) and of the stability pencil
    (:func:`.operators.axis_pencils`).  ``inverse``
    maps ambient points (..., n+2) to the chart coordinates of their
    nearest surface points.
    """

    box: np.ndarray                      # (n, 2) coordinate bounds
    periodic: tuple
    embed: Callable
    normal: Callable
    metric_diag: Callable
    inverse: Callable

    @property
    def dim(self):
        return len(self.periodic)

    def sample_box(self, pad=0.0):
        """Coordinate box shrunk by the pole margin (plus pad) on non-periodic axes."""
        box = np.array(self.box, dtype=float)
        for a, per in enumerate(self.periodic):
            if not per:
                box[a, 0] += POLE_MARGIN + pad
                box[a, 1] -= POLE_MARGIN + pad
        return box


@dataclass(frozen=True)
class SphereProduct:
    """Exact description of a built-in surface: its round-sphere factors.

    ``factors`` holds one (dimension d_i, squared radius r_i^2) pair per
    factor, the squared radius a ``Fraction``.  One factor of radius 1 is
    the equator S^n; two factors are S^k(sqrt(k/n)) x S^l(sqrt(l/n)).
    Every built-in surface is minimal, r_i^2 = d_i / n, so the squared
    radii sum to 1 and H = 0.  ``family`` names the surface in reports.
    The constants derived from the factors are computed once per instance,
    on first use; ``potential`` is the one stability potential |A|^2 + n.
    """

    family: str
    factors: tuple

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 2:
            raise ValueError("a built-in surface has one or two sphere factors")
        if any(r2 != Fraction(d, self.dimension) for d, r2 in self.factors):
            raise ValueError("a minimal product has squared radii d_i / n")

    @cached_property
    def dims(self):
        return tuple(d for d, _ in self.factors)

    @cached_property
    def dimension(self):
        return sum(self.dims)

    @cached_property
    def radius_sq(self):
        return tuple(r2 for _, r2 in self.factors)

    @cached_property
    def radii(self):
        return tuple(math.sqrt(r2) for r2 in self.radius_sq)

    @property
    def curvature_sq(self):
        """Exact squared principal curvature 1/r_i^2 - 1 of each factor (l/k and k/l)."""
        return tuple(1 / r2 - 1 for r2 in self.radius_sq)

    @cached_property
    def principal_curvatures(self):
        """kappa_i, multiplicity d_i: positive on the first factor, negative after."""
        return tuple((1 if i == 0 else -1) * math.sqrt(q) for i, q in enumerate(self.curvature_sq))

    @cached_property
    def norm_A_sq(self):
        """Exact |A|^2 = sum d_i kappa_i^2 (0 on the equator, n on the products)."""
        return sum(d * q for d, q in zip(self.dims, self.curvature_sq))

    @cached_property
    def potential(self):
        """Exact stability potential |A|^2 + n (n on the equator, 2n on the products).

        The constant functions are the bottom (0) of the -Delta spectrum, so
        the first stability eigenvalue is exactly -potential.
        """
        return self.norm_A_sq + self.dimension

    def laplace_eigenvalues(self, count):
        """First ``count`` eigenvalues of -Delta, sorted, multiplicity-expanded.

        A product eigenvalue is a sum of one eigenvalue j_i (j_i + d_i - 1) / r_i^2
        of each factor S^(d_i)(r_i), with the product of their multiplicities
        C(d+j, d) - C(d+j-2, d).  The sums are visited in increasing exact
        (``Fraction``) order from a heap of degree tuples, and a multiplicity
        is expanded only up to ``count``, so high-dimensional factors cost
        nothing extra.
        """
        def value(js):
            return sum(Fraction(j * (j + d - 1)) / r2 for j, d, r2 in zip(js, self.dims, self.radius_sq))

        def multiplicity(d, j):
            return math.comb(d + j, d) - (math.comb(d + j - 2, d) if j >= 2 else 0)

        start = (0,) * len(self.dims)
        heap, seen, vals = [(Fraction(0), start)], {start}, []
        while len(vals) < count:
            val, js = heapq.heappop(heap)
            mult = math.prod(multiplicity(d, j) for d, j in zip(self.dims, js))
            vals += [float(val)] * min(mult, count - len(vals))
            for i in range(len(js)):
                nxt = js[:i] + (js[i] + 1,) + js[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (value(nxt), nxt))
        return np.array(vals, dtype=float)

    def ball_area(self, level):
        """area{y in M : <x, y> >= level}, the same for every x in M; ``level`` may be an array.

        A product of round spheres is homogeneous, so the ball area does not
        depend on its centre; the factor dimensions (k,) or (k, l) give
        :func:`_ball_area`'s (k, 0) or (k, l).
        """
        return _ball_area(self.dims[0], sum(self.dims[1:]), level)


@dataclass(frozen=True)
class ShapeData:
    """Pointwise first/second fundamental data of a hypersurface chart."""

    metric: np.ndarray              # (n, n), positive definite
    normal: np.ndarray              # (n+2,), unit, tangent to S^(n+1)
    second_fundamental: np.ndarray  # (n, n), lowered indices
    mean_curvature: float           # trace_g(A)
    norm_A_sq: float                # g^{ac} g^{bd} A_ab A_cd


class ParametrizedHypersurface:
    """A closed n-dimensional hypersurface of S^(n+1) given by one chart.

    ``product`` is the surface's exact description, a :class:`SphereProduct`
    of the chart's dimension; ``dimension``, ``family``, ``params`` and the
    exact constants ``norm_A_sq`` and ``potential`` are read from it.
    Anything else raises :class:`UnsupportedFamily`.
    ``closed_form`` maps chart points to batched shape arrays
    (:meth:`shape_batch`).
    """

    def __init__(self, chart, product, closed_form):
        if not isinstance(product, SphereProduct) or product.dimension != chart.dim:
            raise UnsupportedFamily(f"{product!r} is not the SphereProduct of a {chart.dim}-dimensional chart")
        self.dimension = product.dimension
        self.chart = chart
        self.product = product
        self._closed_form = closed_form  # U -> batched shape arrays

    @property
    def family(self):
        return self.product.family

    @property
    def params(self):
        return self.product.dims

    @property
    def norm_A_sq(self):
        return self.product.norm_A_sq

    @property
    def potential(self):
        return self.product.potential

    def shape_batch(self, U):
        """Batched (metric diag, normal, A, H, |A|^2) arrays of the closed form."""
        return self._closed_form(U)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def equator(n):
    """The totally geodesic S^n in S^(n+1): intersection with a coordinate hyperplane."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _product_surface(SphereProduct("equator", ((n, Fraction(1)),)))


def clifford_hypersurface(kl):
    """The minimal product S^k(sqrt(k/n)) x S^l(sqrt(l/n)) in S^(n+1), from a (k, l) pair.

    Axes belonging to a circle factor (k == 1 or l == 1) are periodic.
    """
    k, l = kl
    if k < 1 or l < 1:
        raise ValueError("factor dimensions must be >= 1")
    n = k + l
    return _product_surface(SphereProduct("clifford", ((k, Fraction(k, n)), (l, Fraction(l, n)))))


def _product_surface(product):
    """The surface of a :class:`SphereProduct`, with its chart and closed form.

    The chart is the product of the factors' hyperspherical charts: factor
    S^d(r) takes the next d chart axes and the next d + 1 ambient
    coordinates.  The equator's one factor leaves the last coordinate,
    which is its normal.  The closed form has A = diag(kappa_i g_aa), each
    factor's curvature on its own axes, H = 0 and the exact |A|^2 of the
    factors.
    """
    dims, radii, n = product.dims, product.radii, product.dimension
    starts = np.cumsum((0,) + dims)
    # (chart axes, ambient coordinates, radius) of each factor
    blocks = [(slice(c, c + d), slice(c + i, c + i + d + 1), r)
              for i, (c, d, r) in enumerate(zip(starts, dims, radii))]
    axes = [_sphere_axes(d) for d in dims]
    box = np.vstack([box for box, _ in axes])
    periodic = sum((per for _, per in axes), ())

    def embed(U):
        U = np.asarray(U, dtype=float)
        out = np.zeros(U.shape[:-1] + (n + 2,))
        for ax, amb, r in blocks:
            _write_hyperspherical_point(out[..., amb], U[..., ax], r)
        return out

    def metric_diag(U):
        U = np.asarray(U, dtype=float)
        return np.concatenate([_sphere_metric_diag(U[..., ax]) * r**2 for ax, _, r in blocks], axis=-1)

    # nu = kappa_i x on factor i: at x = (r_k a, r_l b) it is (r_l a, -r_k b),
    # as r_l / r_k = kappa_1 and -r_k / r_l = kappa_2; the equator's is e_(n+1)
    kappa = np.repeat(product.principal_curvatures, dims)
    scale = np.repeat(product.principal_curvatures, [d + 1 for d in dims])

    def normal(X):
        X = np.asarray(X, dtype=float)
        if len(blocks) > 1:
            return X * scale
        nu = np.zeros(X.shape)
        nu[..., n + 1] = 1.0
        return nu

    def inverse(X):
        # the nearest point to (a, b) is (r_k a/|a|, r_l b/|b|), and that of
        # the equator drops the normal coordinate: each factor block maps to
        # its own angles, which are scale-invariant
        X = np.asarray(X, dtype=float)
        return np.concatenate([sphere_angles(X[..., amb]) for _, amb, _ in blocks], axis=-1)

    a2 = float(product.norm_A_sq)

    def closed_form(U):
        U = np.asarray(U, dtype=float)
        base = U.shape[:-1]
        gdiag = metric_diag(U)
        return gdiag, normal(embed(U)), _diag_embed(kappa * gdiag), np.zeros(base), np.full(base, a2)

    chart = Chart(box, periodic, embed, normal, metric_diag, inverse)
    return ParametrizedHypersurface(chart, product, closed_form)


def _diag_embed(diag):
    """(..., n) diagonal entries -> (..., n, n) diagonal matrices."""
    diag = np.asarray(diag)
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,))
    idx = np.arange(n)
    out[..., idx, idx] = diag
    return out


# ---------------------------------------------------------------------------
# pointwise shape data
# ---------------------------------------------------------------------------

def shape_at(M, u):
    """First and second fundamental forms of M at a chart parameter point,
    read from the surface's closed form.

    Raises ``ValueError`` unless ``u`` is one point of shape (n,), and
    :class:`DegenerateChart` when cond(g) > 1e12.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (M.dimension,):
        raise ValueError(f"shape_at expects a single parameter point of length {M.dimension}, "
                         f"not an array of shape {u.shape}")
    gdiag, nu, A, H, a2 = M.shape_batch(u[None, :])
    g = _diag_embed(gdiag)[0]
    _check_metric(g)
    return ShapeData(g, nu[0], A[0], float(H[0]), float(a2[0]))


def _stencil(U, h):
    """The points U + h e_a and U - h e_a of each chart axis a, as two lists."""
    U = np.asarray(U, dtype=float)
    steps = np.eye(U.shape[-1]) * h
    return [U + e for e in steps], [U - e for e in steps]


def _difference(plus, minus, h):
    """(f(U + h e_a) - f(U - h e_a)) / 2h from the values at :func:`_stencil`'s
    points, stacked on a last axis."""
    return np.stack([(p - m) / (2.0 * h) for p, m in zip(plus, minus)], axis=-1)


def _check_metric(g):
    eig = np.linalg.eigvalsh(g)
    if eig[0] <= 0 or eig[-1] / eig[0] > COND_LIMIT:
        raise DegenerateChart(f"metric condition number {eig[-1] / max(eig[0], 1e-300):.3e}")


# ---------------------------------------------------------------------------
# quadrature and area
# ---------------------------------------------------------------------------

def axis_rule(chart, axis, count):
    """1D quadrature nodes/weights for one chart axis.

    Periodic axes get the uniform rule (spectrally accurate for smooth
    integrands); polar axes get Gauss-Legendre, whose nodes stay strictly
    inside (0, pi) so coordinate poles are never evaluated.
    """
    lo, hi = chart.box[axis]
    if chart.periodic[axis]:
        h = (hi - lo) / count
        return lo + h * np.arange(count), np.full(count, h)
    nodes, weights = _gauss_rule(count)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * nodes, half * weights


def chart_quadrature(chart, resolution):
    """Tensor-product nodes (m, n) and weights (m,) without the metric density."""
    res = _per_axis(resolution, chart.dim)
    rules = [axis_rule(chart, a, res[a]) for a in range(chart.dim)]
    nodes = _tensor_grid([r[0] for r in rules])
    weights = reduce(np.multiply.outer, [r[1] for r in rules]).ravel()
    return nodes, weights


def _tensor_grid(axes):
    """Row-major tensor product of 1D axes as points, shape (prod of lengths, len(axes)).

    The stacked array is filled one axis at a time through a broadcast
    view, so forming it takes its own size and no per-axis copy of the grid.
    """
    shape = tuple(len(a) for a in axes)
    out = np.empty((math.prod(shape), len(axes)), dtype=np.result_type(*axes))
    grid = out.reshape(shape + (len(axes),))
    for i, a in enumerate(axes):
        grid[..., i] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - i))
    return out


def _per_axis(resolution, n):
    res = [int(resolution)] * n if np.isscalar(resolution) else [int(r) for r in resolution]
    if len(res) != n:
        raise ValueError("resolution list length must match the chart dimension")
    if min(res) < 1:
        raise ValueError(f"resolution must be >= 1 per axis, got {resolution}")
    return res


_MAX_NODES = 96**3   # nodes of one capped grid: the largest a report draws, the n = 3 product's


def _capped_per_axis(resolution, n):
    """Per-axis counts of :func:`_per_axis`, each capped at the largest s with
    s^n <= ``_MAX_NODES`` (30 at n = 4, 15 at n = 5, 9 at n = 6), so that no
    grid holds more nodes in high dimension than the n = 3 product report's
    96^3.  The cells of a stratified integral and the nodes of a Rayleigh
    quotient's quadrature both take their counts from here."""
    cap = round(_MAX_NODES ** (1.0 / n))
    while cap**n > _MAX_NODES:
        cap -= 1
    return [min(c, cap) for c in _per_axis(resolution, n)]


def _row_product(entries):
    """The product of a sequence of entries, left to right, as a reduce of ``np.multiply``.

    A stacked array ``a`` (..., n) passes ``np.moveaxis(a, -1, 0)`` and gets
    ``np.prod(a, axis=-1)`` bit for bit: both multiply the entries of a row
    left to right, but ``np.prod`` pays a reduction per row, so over a short
    last axis this is about 10x faster.  It is the product of metric
    diagonals behind sqrt(det g) on stacked nodes (:func:`sqrt_det_metric`).
    """
    return reduce(np.multiply, entries)


def sqrt_det_metric(chart, nodes):
    """sqrt(det g) at parameter nodes, from the chart's metric diagonal."""
    return _row_product(np.moveaxis(chart.metric_diag(nodes), -1, 0)) ** 0.5


def sample_points(M, count, seed=0, pad=0.0):
    """Random chart parameter points (margin-respecting) and their ambient images.

    Returns (U, X).  Sampling is uniform in chart coordinates; use
    quadrature weights when an area-uniform law matters.
    """
    box = M.chart.sample_box(pad)
    U = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(count, M.dimension))
    return U, M.chart.embed(U)


def ball_area(M, r, metric="geodesic"):
    """area(M cap B_r(x)), the same for every x in M; ``r`` may be an array.

    ``metric`` selects geodesic balls of S^(n+1) ("geodesic"; from r = pi
    on, the whole sphere) or Euclidean balls of R^(n+2) ("euclidean"); any
    other name raises ``ValueError``.  The surfaces are homogeneous products
    of spheres, so the area is evaluated exactly (to quadrature rounding)
    from the sphere factors by :meth:`SphereProduct.ball_area`, in any
    dimension.
    """
    r = np.asarray(r, dtype=float)
    # <x, y> >= cos r on geodesic balls; |x - y|^2 = 2 - 2 <x, y> on chord balls
    geodesic = _distance(metric) is geodesic_distance
    return M.product.ball_area(np.cos(np.minimum(r, np.pi)) if geodesic else 1.0 - r**2 / 2.0)


def measure_volume_growth(M, metric="geodesic"):
    """Area-growth constant C_V with sup area(M cap B_r(x)) / r^n <= C_V.

    The sup runs over a log-spaced radius grid of :func:`ball_area` (which
    does not depend on the centre x), then takes a 10% safety factor.
    """
    radii = np.geomspace(0.05, 1.9, 12)
    return 1.1 * float(np.max(ball_area(M, radii, metric) / radii**M.dimension))


@lru_cache(maxsize=None)
def _gauss_rule(count):
    """``count``-node Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built on first use of each count and kept: building a rule costs more
    than most of the integrals it serves.
    """
    rule = np.polynomial.legendre.leggauss(count)
    for a in rule:
        a.flags.writeable = False
    return rule


def _ball_area(k, l, c):
    """area{y in M : <x, y> >= c} on S^k(sqrt(k/n)) x S^l(sqrt(l/n)), any x in M; c an array.

    ``l = 0`` is the equator S^k, whose balls are spherical caps.  With theta
    and phi the polar angles of the two factors measured from x,
    ``<x, y> = (k/n) cos theta + (l/n) cos phi``, so the ball is
    phi <= phi*(theta) and its area is one theta integral of the cap area
    J_(l-1)(phi*).  That integral is Gauss-Legendre on the segments between
    the kinks where phi* reaches pi or 0; the map
    theta = a + (b - a)(1 - cos(pi t))/2 absorbs the square-root behaviour
    of phi* at the segment ends.
    """
    c = np.asarray(c, dtype=float)
    if l == 0:
        return _sphere_area(k - 1) * _sin_power_integral(k - 1, np.arccos(np.clip(c, -1.0, 1.0)))
    wk, wl = k / (k + l), l / (k + l)
    # 0 <= kink(phi* = pi) <= kink(phi* = 0) <= pi; an absent kink clips onto an end
    kinks = np.arccos(np.clip([(c + wl) / wk, (c - wl) / wk], -1.0, 1.0))
    edges = np.concatenate([np.zeros((1,) + c.shape), kinks, np.full((1,) + c.shape, np.pi)])
    lo, width = edges[:-1, ..., None], np.diff(edges, axis=0)[..., None]
    t, w = _gauss_rule(48)
    theta = lo + width * (1.0 - np.cos(np.pi * (t + 1.0) / 2.0)) / 2.0
    dtheta = width * (np.pi / 4.0) * np.sin(np.pi * (t + 1.0) / 2.0) * w
    phi = np.arccos(np.clip((c[..., None] - wk * np.cos(theta)) / wl, -1.0, 1.0))
    total = np.sum(dtheta * np.sin(theta) ** (k - 1) * _sin_power_integral(l - 1, phi), axis=(0, -1))
    return wk ** (k / 2) * wl ** (l / 2) * _sphere_area(k - 1) * _sphere_area(l - 1) * total


def _sphere_area(m):
    """|S^m| = 2 pi^((m+1)/2) / Gamma((m+1)/2); |S^0| = 2 counts two points."""
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def _sin_power_integral(m, a):
    """J_m(a) = int_0^a sin^m for 0 <= a <= pi; ``a`` may be an array.

    m = 0 and 1 are closed forms, J_1 written 2 sin^2(a/2) because 1 - cos a
    cancels at small a (9e-9 relative at a = 1e-4).  For m >= 2,
    Gauss-Legendre on [0, a] (48 nodes) sums positive terms, so
    small caps keep their relative accuracy: within 3e-14 of a 1024-node
    composite rule for m <= 14 and a in [1e-4, pi].  The reduction formula
    J_m = -sin^(m-1)(a) cos(a) / m + (m-1)/m J_(m-2) cancels there (a
    relative error of 0.5 at m = 8, a = 0.01, and negative values at
    m = 10-12).
    """
    if m == 0:
        return a
    if m == 1:
        return 2.0 * np.sin(np.asarray(a) / 2.0) ** 2
    t, w = _gauss_rule(48)
    half = np.asarray(a, dtype=float)[..., None] / 2.0
    return np.sum(w * np.sin(half * (t + 1.0)) ** m, axis=-1) * half[..., 0]
