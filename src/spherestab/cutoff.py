"""Ball covers of synthetic singular sets and the two cutoff constructions.

Two cutoff fields are built over a finite cover {B(p_i, r_i)} whose radii
satisfy the budget ``sum_i r_i^(n-q) < epsilon``:

* the *inf* cutoff: linear ramps ``phi_i`` vanishing on B(p_i, r_i),
  reaching 1 outside B(p_i, 2 r_i) with slope 1/r_i <= 2/r_i, combined as
  ``phi = inf_i phi_i`` (Lipschitz, gradient taken from the active ramp);
* the *product* cutoff: a C^2 quintic ramp per ball vanishing on
  B(p_i, r_i/2), equal to 1 outside B(p_i, r_i), multiplied together.  The
  profile constant C0 with ``|D phi|^2 + |D^2 phi| <= C0 r^-2`` is computed
  from the quintic once, on first use, and read from the field.

The quantitative facts verified numerically: the gradient estimate
``int_M |grad phi|^q <= 2^(n+q) C_V epsilon``; and the smooth-cutoff
quality triple against its bounds in the cover's own sums,
``area{phi != 1} <= C_V sum r_i^n``, ``int_M |grad phi|^2 <= K C0 C_V
sum r_i^(n-2)`` and ``int_M |Delta phi| <= (C1 + K C0) C_V sum r_i^(n-2)``,
with K the most balls any one point lies in (:func:`mr_quality_report`).

Geodesic balls of the ambient sphere are used for the gradient estimate
(radii converted by the chord-arc map); the smooth product construction
uses plain Euclidean balls of R^(n+2).  A field is checked once, when built
(:class:`CutoffField`); each check reads cover, epsilon and q from the field.
A cutoff is an ambient field like those of :mod:`.fields`, and its surface
gradient and Laplacian come from the calculus there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BudgetInfeasible,
    InsufficientSamples,
    PreconditionViolated,
    UnsupportedFamily,
)
from .fields import surface_laplacian, tangential_gradient_sq
from .geometry import (
    ParametrizedHypersurface,
    _chord_to_arc,
    _distance,
    _tensor_grid,
    geodesic_distance,
    measure_volume_growth,
)
from .sampling import MCEstimate, ZERO_ESTIMATE, nearest_chart_point, stratified_integral

BUDGET_SHARE = 0.9   # fraction of epsilon the greedy cover actually spends
_BOX_SAFETY = 1.5    # first chart box of a ball: this many reaches over the axis speed
_FACE_SAMPLES = 7    # samples per axis of a chart-box face tested against its ball


# ---------------------------------------------------------------------------
# quintic ramp profile (product cutoff)
# ---------------------------------------------------------------------------

def _quintic(t):
    t = np.clip(t, 0.0, 1.0)
    return ((6.0 * t - 15.0) * t + 10.0) * t**3


def _quintic_d1(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def _quintic_d2(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 60.0 * t * (2.0 * t - 1.0) * (t - 1.0), 0.0)


@functools.cache
def _profile_c0():
    """sup over the unit ramp of |D phi|^2 + |D^2 phi| (radius-1 ball).

    A 200,001-point sweep, run once, on the first product field rather
    than at import.
    """
    s = np.linspace(0.5, 1.0, 200_001)
    t = 2.0 * s - 1.0
    d1 = 2.0 * _quintic_d1(t)
    d2 = 4.0 * _quintic_d2(t)
    val = d1**2 + np.maximum(np.abs(d2), d1 / s)
    return float(val.max()) * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# ball covers
# ---------------------------------------------------------------------------

def load_point_cloud(path):
    """Singular-set points from plain text: one point per line, floats."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split()])
    return _point_array(rows) if rows else np.empty((0, 1))


def _point_array(points):
    """Points as a 2-D float array; rows of unequal length raise ValueError."""
    try:
        points = np.asarray(points)
    except ValueError:
        raise ValueError("inconsistent coordinate count across points") from None
    return np.atleast_2d(points.astype(float, copy=False))


@dataclass
class BallCover:
    """Finite ball family under the Hausdorff budget ``sum r_i^(n-q) < epsilon``.

    ``dimension`` is n, ``exponent`` q, and ``points`` the covered input set.
    Built only within budget: an unknown metric or epsilon <= 0 raises
    ``ValueError``; q > n (r^(n-q) grows as a ball shrinks) or a sum >=
    epsilon raises :class:`BudgetInfeasible`.
    """

    centers: np.ndarray
    radii: np.ndarray
    dimension: int
    exponent: float
    epsilon: float
    metric: str = "geodesic"
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.metric not in ("geodesic", "euclidean"):
            raise ValueError(f"unknown cover metric {self.metric!r}; use 'geodesic' or 'euclidean'")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.exponent > self.dimension:
            raise BudgetInfeasible(f"exponent q={self.exponent} > n={self.dimension}: "
                                   "sum r^(n-q) grows as the balls shrink; use q <= n")
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if self.centers.size == 0:
            self.centers = self.centers.reshape(0, max(self.centers.shape[-1], 1))
        if not self.budget_sum < self.epsilon:
            raise BudgetInfeasible(f"sum r^(n-q) = {self.budget_sum:.3g} >= epsilon = {self.epsilon}")

    @property
    def size(self):
        return len(self.radii)

    @property
    def budget_sum(self):
        return float(np.sum(self.radii ** (self.dimension - self.exponent)))


def empty_cover(n, q, epsilon, metric="geodesic", ambient_dim=1):
    return BallCover(
        np.empty((0, ambient_dim)), np.empty(0), n, q, epsilon, metric,
        points=np.empty((0, ambient_dim)),
    )


def cover_singular_set(
    points,
    n,
    q,
    epsilon,
    r_min=None,
    metric="geodesic",
    containment="full",
):
    """Greedy ball cover of a finite point set under the budget sum r^(n-q) < epsilon.

    Points closer than 2*r_min are clustered (single linkage); each cluster
    gets a ball at its (sphere-projected) centroid.  Radii default to the
    uniform budget split ``(0.9 epsilon / m)^(1/(n-q))`` and never drop
    below the cluster containment radius or r_min (``None``: 1e-3, or
    ``0.5 (epsilon / k)^(1/(n-q))`` if k points of radius 1e-3 would spend
    the budget); ``containment="half"`` takes twice that radius, so the
    cluster lies in B(p, r/2), where the product cutoff vanishes.

    :class:`BallCover` refuses a bad epsilon or q > n before any work.
    ``ValueError`` names the rule an unknown ``containment`` or the points
    break: an (m, n+2) array of finite unit vectors (|x| = 1 within 1e-9).
    :class:`BudgetInfeasible`, with advice: ``m * r_min^(n-q) >= epsilon``
    for m clusters, or a cluster needs radius >= 1.
    """
    empty = empty_cover(n, q, epsilon, metric)
    factor = {"full": 1.0, "half": 2.0}.get(containment)
    if factor is None:
        raise ValueError(f"unknown containment {containment!r}; use 'full' or 'half'")
    points = _point_array([] if points is None else points)
    if points.size == 0:
        return empty
    if points.ndim != 2 or points.shape[1] != n + 2:
        raise ValueError(f"singular-set points need {n + 2} coordinates, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("singular-set points must have finite coordinates")
    if np.any(np.abs(np.linalg.norm(points, axis=1) - 1.0) > 1e-9):
        raise ValueError("singular-set points must lie on the unit sphere (|x| = 1 within 1e-9)")
    if r_min is None:  # 1e-3, unless that many balls of it would spend the budget
        spent = q < n and len(points) * 1e-3 ** (n - q) >= epsilon
        r_min = 0.5 * (epsilon / len(points)) ** (1.0 / (n - q)) if spent else 1e-3
    dist = _distance(metric)

    clusters = _single_linkage(points, 2.0 * r_min, dist)
    m = len(clusters)
    if m * r_min ** (n - q) >= epsilon:
        advice = ("at q = n each ball costs 1, so epsilon must exceed the cluster count"
                  if q == n else "lower r_min or raise epsilon")
        raise BudgetInfeasible(
            f"{m} cluster(s) with r_min={r_min} give sum r^(n-q) >= {m * r_min ** (n - q):.3g}"
            f" >= epsilon={epsilon}; {advice}"
        )

    # every cluster's members in cluster order; each cluster is summed in
    # member order, as ``mean`` sums, and + 0.0 gives the +0.0 that ``mean``'s
    # sum from the identity gives on an all -0.0 coordinate
    sizes = np.array([len(idx) for idx in clusters])
    starts = np.cumsum(sizes) - sizes
    members = points[np.concatenate(clusters)]
    centers = (np.add.reduceat(members, starts, axis=0) + 0.0) / sizes[:, None]
    if metric == "geodesic":
        centers = centers / np.sqrt(np.matmul(centers[:, None, :], centers[:, :, None])[:, 0])
    spread = np.maximum.reduceat(dist(members, np.repeat(centers, sizes, axis=0)), starts)
    need = factor * spread * (1.0 + 1e-9)

    radii = np.maximum(need, r_min)
    if n > q:
        r_star = (BUDGET_SHARE * epsilon / m) ** (1.0 / (n - q))
        radii = np.maximum(radii, min(r_star, 0.95))
    if np.any(radii >= 1.0):
        raise BudgetInfeasible("a cluster needs radius >= 1; the set is not coverable")
    return BallCover(centers, radii, n, q, epsilon, metric, points=points)


def _single_linkage(points, link, dist):
    """Connected components of the graph dist <= link, ordered by smallest member.

    The linked pairs (i, j) are found 256 rows at a time, so the pairwise
    differences never hold more than 256 x m points; both orders of a pair
    are found, as ``dist`` is symmetric.  Every point starts labelled with
    its own index.  Each round lowers the label of i, and the label of i's
    label, to the label of j across every link, then jumps each label to its
    label's label.  Labels only fall and always name a member of the same
    component, whose smallest member keeps its own index; so when a round
    changes nothing, every point carries the smallest index of its
    component, and sorting by label lists the components in that order.
    Lowering the label's label too merges whole labelled groups at once: a
    shuffled chain of m points takes about log m rounds instead of m / 3.
    """
    i, j = np.concatenate([
        np.argwhere(dist(points[lo:lo + 256, None, :], points[None, :, :]) <= link)
        + (lo, 0)
        for lo in range(0, len(points), 256)
    ]).T
    labels = np.arange(len(points))
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, labels[i], labels[j])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")  # each component's members, ascending
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    return np.split(order, starts[1:])


def covers_points(cover: BallCover, factor) -> bool:
    """Every input point within factor * r_i of some center (widened Gram screen)."""
    if cover.points is None:
        return True
    bound = _chord_sq_bound(factor * cover.radii, cover.metric)[:, None]
    return bool(np.all(np.any(_gram_chord_sq(cover.centers, cover.points) < bound, axis=0)))


# ---------------------------------------------------------------------------
# cutoff fields
# ---------------------------------------------------------------------------

@dataclass
class CutoffField:
    """Evaluable cutoff 0 <= phi <= 1 built over a ball cover.

    inf kind:  phi = min_i clip((d_i - r_i)/r_i, 0, 1); vanishes on every
    B(p_i, r_i), equals 1 outside the union of B(p_i, 2 r_i), and the active
    ramp has |grad phi| <= 2/r_i on its annulus.  Only Lipschitz: no
    Laplacian.

    product kind:  phi = prod_i rho(d_i / r_i) with the C^2 quintic ramp
    rho supported on [1/2, 1]; vanishes on every B(p_i, r_i/2), equals 1
    outside the union of B(p_i, r_i), and each factor obeys
    |D phi_i|^2 + |D^2 phi_i| <= C0 r_i^-2 with C0 the quintic's profile
    constant (:func:`_profile_c0`).

    Both kinds evaluate ramps through one route, :meth:`_table_ramps`, over
    a ball table per point.  The public methods pass every ball of the
    cover; the reports pass each ball's neighbour table
    (:func:`_neighbour_table`), whose pad slots are neutral.

    Building a field is its only check (its cover met its budget when
    built): an unknown kind raises :class:`ValueError`; a nonempty cover of
    non-Euclidean balls under the product kind, or with a recorded point
    where phi does not vanish (:func:`covers_points` at r_i inf, r_i/2
    product), raises :class:`PreconditionViolated`.
    """

    cover: BallCover
    kind: str

    def __post_init__(self):
        if self.kind not in ("inf", "product"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}; use 'inf' or 'product'")
        if self.cover.size and self.kind == "product" and self.cover.metric != "euclidean":
            raise PreconditionViolated("the product construction uses Euclidean balls")
        if self.cover.size and not covers_points(self.cover, 1.0 if self.kind == "inf" else 0.5):
            raise PreconditionViolated(f"the {self.kind} cutoff does not vanish at every cover point")

    @property
    def C0(self):
        """The product ramps' profile constant; None on the inf kind."""
        return _profile_c0() if self.kind == "product" else None

    # -- ramps -------------------------------------------------------------
    def _ramps(self, d, r):
        """Ramp values and slopes at distances d from the centres of balls of radii r."""
        if self.kind == "inf":
            vals = np.clip((d - r) / r, 0.0, 1.0)
            slope = np.where((d > r) & (d < 2.0 * r), 1.0 / r, 0.0)
            return vals, slope
        t = 2.0 * (d / r) - 1.0
        vals = _quintic(t)
        slope = _quintic_d1(t) * 2.0 / r
        return vals, slope

    def _table_ramps(self, X, table, pad):
        """Per row of X and slot of its ball table, the distance, its
        gradient, the ball radius, the ramp value and slope.

        ``table`` holds cover indices, one list per row (rows, width) or
        one list for every row (width,); ``pad`` is a mask broadcast to it.
        A pad slot reads distance inf: its ramp is exactly 1 with zero slope
        and curvature, so it is neutral in every product and sum, and it
        never wins the inf's argmin over a listed ball.  Any table that
        lists, at each row, every ball whose ramp differs from 1 there gives
        that row's phi.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d, grad_d = _distance_gradient(X[:, None, :] - self.cover.centers[table], self.cover.metric)
        d = np.where(pad, np.inf, d)
        r = self.cover.radii[table]
        vals, slope = self._ramps(d, r)
        return d, grad_d, r, vals, slope

    def _active_ramp(self, X, table, pad):
        """Inf kind: per point the active ball of its table row (the first
        listed on ties, never a pad), phi (its ramp value), its ramp slope
        and the gradient of its distance, from one :meth:`_table_ramps`."""
        _, grad_d, _, vals, slope = self._table_ramps(X, table, pad)
        act = vals.argmin(axis=1)
        take = np.arange(act.shape[0])
        ball = np.broadcast_to(table, vals.shape)[take, act]
        return ball, vals[take, act], slope[take, act], grad_d[take, act]

    # -- evaluation over every ball ----------------------------------------
    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cover.size == 0:
            return np.ones(X.shape[0])
        if self.kind == "product":
            return self._table_ramps(X, np.arange(self.cover.size), False)[3].prod(axis=1)
        return self._active_ramp(X, np.arange(self.cover.size), False)[1]

    def active_index(self, X):
        """Index of the ball whose ramp achieves the inf (lowest index on ties)."""
        if self.kind != "inf":
            raise UnsupportedFamily("active ball is only defined for the inf kind")
        return self._active_ramp(X, np.arange(self.cover.size), False)[0]

    def ambient_gradient(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cover.size == 0:
            return np.zeros_like(X)
        if self.kind == "inf":
            _, _, slope, grad_d = self._active_ramp(X, np.arange(self.cover.size), False)
            return slope[:, None] * grad_d
        _, grad_d, _, vals, slope = self._table_ramps(X, np.arange(self.cover.size), False)
        return _product_gradient(_product_excluding_one(vals), slope, grad_d)

    def ambient_hessian(self, X):
        """Euclidean Hessian of the product cutoff (sum and cross terms)."""
        if self.kind != "product":
            raise UnsupportedFamily("the inf cutoff is Lipschitz only; no Hessian")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cover.size == 0:
            return np.zeros(X.shape + X.shape[-1:])
        return _product_derivatives(self._table_ramps(X, np.arange(self.cover.size), False))[1]


def _product_derivatives(ramps):
    """Product kind: (gradient, Hessian) from the :meth:`CutoffField._table_ramps`
    of a set of points, one distance evaluation per listed ball.

    With v_i the ramp values, g_i = slope_i grad d_i, other_i =
    prod_{k != i} v_k and S = sum_{v_j > 0} g_j / v_j, the i != j cross
    term sum_{i != j} other_i g_i g_j^T / v_j is
    ``grad phi S^T - sum_{v_i > 0} other_i g_i g_i^T / v_i`` (v_i = 0
    forces g_i = 0).  Its diagonal part joins the per-ball Hessians, whose
    radial parts are grad d_i grad d_i^T terms, in one batched
    (dim, width) @ (width, dim) product per point.
    """
    d, grad_d, r, vals, slope = ramps
    other = _product_excluding_one(vals)
    grad = _product_gradient(other, slope, grad_d)
    curv = _quintic_d2(2.0 * (d / r) - 1.0) * 4.0 / r**2
    tangential = slope / np.where(d > 1e-300, d, 1.0)   # Hess d_i = (I - grad d_i grad d_i^T) / d_i
    live = vals > 0.0
    rate = np.where(live, slope / np.where(live, vals, 1.0), 0.0)   # |g_i| / v_i
    coef = other * (curv - tangential - slope * rate)
    hess = np.matmul(grad_d.transpose(0, 2, 1), coef[..., None] * grad_d)
    S = np.matmul(rate[:, None, :], grad_d)[:, 0]
    hess += grad[:, :, None] * S[:, None, :]
    idx = np.arange(grad.shape[1])
    hess[:, idx, idx] += np.sum(other * tangential, axis=1)[:, None]
    return grad, hess


def _distance_gradient(diff, metric):
    """Distances (...) of the difference vectors ``diff`` (..., dim) = x - p of
    a cover ``metric``, and their gradients in x (..., dim)."""
    chord = np.linalg.norm(diff, axis=-1)
    safe = np.where(chord > 1e-300, chord, 1.0)
    direction = diff / safe[..., None]
    if metric == "geodesic":
        scale = 1.0 / np.sqrt(np.clip(1.0 - (chord / 2.0) ** 2, 1e-12, None))
        return _chord_to_arc(chord), direction * scale[..., None]
    return chord, direction


def _gram_chord_sq(a, b):
    """Squared chords |a_i - b_j|^2 (len(a), len(b)) from the Gram form
    |a|^2 + |b|^2 - 2 a.b, one matrix product; on the unit sphere its
    rounding is about 1e-15."""
    sq = a @ b.T
    sq *= -2.0
    sq += np.einsum("pj,pj->p", b, b)
    sq += np.einsum("ij,ij->i", a, a)[:, None]
    return sq


def _chord_sq_bound(radius, metric, lower=False):
    """The squared chord of a ball radius, widened for a conservative screen.

    A geodesic radius r is the chord 2 sin(r/2) (all of the sphere from
    r = pi on).  The 1e-9 relative and 1e-12 absolute slack lies far above
    the rounding of any squared chord of unit vectors, so a screen that
    keeps ``sq < bound`` (or ``sq > bound`` with ``lower``) keeps every
    point whose computed distance is below (above) the radius.
    """
    chord = 2.0 * np.sin(np.minimum(radius, np.pi) / 2.0) if metric == "geodesic" else radius
    if lower:
        return chord**2 * (1.0 - 1e-9) - 1e-12
    return chord**2 * (1.0 + 1e-9) + 1e-12


def _product_gradient(other, slope, grad_d):
    """grad prod_i v_i = sum_i other_i slope_i grad d_i, other_i = prod_{k != i} v_k."""
    # the path optimize=True finds at every shape, given as a literal because
    # optimize=True searches for it again on every call
    return np.einsum("pi,pi,pij->pj", other, slope, grad_d,
                     optimize=["einsum_path", (0, 1), (0, 1)])


def _product_excluding_one(vals):
    """prod_{j != i} vals[:, j] via prefix/suffix products (zero-safe)."""
    prefix = np.ones_like(vals)
    suffix = np.ones_like(vals)
    np.cumprod(vals[:, :-1], axis=1, out=prefix[:, 1:])
    suffix[:, :-1] = np.cumprod(vals[:, :0:-1], axis=1)[:, ::-1]
    return prefix * suffix


def build_inf_cutoff(cover: BallCover) -> CutoffField:
    """Infimum-of-ramps cutoff over a cover (checked by :class:`CutoffField`)."""
    return CutoffField(cover, "inf")


def build_product_cutoff(cover: BallCover) -> CutoffField:
    """C^2 product cutoff over a Euclidean cover (checked by :class:`CutoffField`)."""
    return CutoffField(cover, "product")


# ---------------------------------------------------------------------------
# quantitative reports
# ---------------------------------------------------------------------------

@dataclass
class GradientIntegralReport:
    integral: float
    stderr: float
    bound: float
    epsilon: float
    c_v: float
    q: float
    dimension: int
    samples: int

    @property
    def passed(self):
        return self.integral <= self.bound + 3.0 * self.stderr


def gradient_integral_estimate(
    M: ParametrizedHypersurface,
    field: CutoffField,
    *,
    C_V=None,
    strata=14,
    samples_per_cell=3,
    seed=0,
) -> GradientIntegralReport:
    """Monte-Carlo  int_M |grad phi|^q  against the bound 2^(n+q) C_V epsilon.

    The cover, its epsilon and its exponent q are the field's (``field.cover``).
    The integral runs over supp grad phi, the points where the active ramp
    has nonzero slope; so at q = 0 it is the area of that support, not of
    the whole chart box (where |grad phi|^0 would read 1 on phi == 1).
    Integration is per ball on a chart box around its reach 2 r_i
    (:func:`_per_ball_integrals`; the integrand lives on thin annuli, which
    global sampling would miss), deduplicated by the active-ball partition.
    Each row is first screened by the distance to its own ball: only rows
    that may lie in its ramp annulus evaluate the ramps, and only those of
    the ball's neighbours, the balls j with dist(p_i, p_j) < 2 r_i + 2 r_j;
    no other ramp can drop below 1 where ball i's does, so the active ball
    and the integrand equal those of the full field bit for bit.  Raises
    :class:`InsufficientSamples` when the standard error exceeds 10% of the
    bound; an estimate above bound + 3 stderr is returned as a report with
    ``passed`` false.
    """
    if field.kind != "inf":
        raise PreconditionViolated("the gradient estimate applies to the inf cutoff")
    cover, q = field.cover, field.cover.exponent
    n = M.dimension
    if C_V is None:
        C_V = measure_volume_growth(M, metric=cover.metric)
    bound = 2.0 ** (n + q) * C_V * cover.epsilon

    [total] = _per_ball_integrals(M, cover, 2.0, [_annulus_gradient_integrand(M, field, q)],
                                  [np.random.SeedSequence(seed)], strata, samples_per_cell)
    if total.stderr > 0.1 * bound:
        raise InsufficientSamples(
            f"stderr {total.stderr:.3g} exceeds 10% of the bound {bound:.3g}"
        )
    return GradientIntegralReport(
        total.value, total.stderr, bound, cover.epsilon, C_V, q, n, total.samples
    )


def _neighbour_table(cover: BallCover, reach):
    """Per ball i, its neighbours j (i included), with dist(p_i, p_j) < reach (r_i + r_j),
    as one (balls, width) table and the (balls, width) mask of its pad slots.

    With ``reach`` 2 (inf ramps, below 1 within 2 r) a point with both
    ramps below 1 lies within 2 r_i of p_i and 2 r_j of p_j, so the triangle
    inequality bounds the centre distance; ``reach`` 1 does the same for
    product ramps, below 1 within r.  The test is a conservative
    squared-chord screen against that distance (:func:`_chord_sq_bound`;
    chord <= arc, so a Euclidean bound also holds for a geodesic cover).
    It may admit extra balls, which cannot change an argmin or a product.
    Each row lists its neighbours ascending, then pads to the widest row's
    count with slots of index 0 that :meth:`CutoffField._table_ramps`
    reads as neutral.  Balls are screened 256 at a time, so the
    temporaries hold at most 256 x balls entries.
    """
    c, r = cover.centers, cover.radii
    i, j = np.concatenate([np.empty((0, 2), dtype=int)] + [
        np.argwhere(_gram_chord_sq(c[lo:lo + 256], c)
                    < _chord_sq_bound(reach * (r[lo:lo + 256, None] + r[None, :]), "euclidean"))
        + (lo, 0)
        for lo in range(0, cover.size, 256)
    ]).T
    count = np.bincount(i, minlength=cover.size)
    pad = np.arange(count.max(initial=0)) >= count[:, None]
    table = np.zeros(pad.shape, dtype=int)
    table[~pad] = j   # row by row, each row's balls ascending
    return table, pad


def _annulus_gradient_integrand(M, field, q):
    """``integrand(U, X, own)``: |grad phi|^q where the row's own ball
    ``own`` (one cover index per row) holds the active ramp with nonzero
    slope, else 0.

    A row outside a conservative screen of its ball's open annulus
    r < d < 2 r (where the ramp slope is nonzero) reads an exact 0.0 without
    evaluating any ramp.  The screen compares the squared chord to the
    ball's centre with the widened bounds of :func:`_chord_sq_bound`.  A
    ball whose neighbour table row lists no other ball reads its own ramp
    directly, which is what the inf over that row gives.
    """
    cover = field.cover
    table, pad = _neighbour_table(cover, 2.0)
    alone = pad[:, 1:].all(axis=1)
    inner_sq = _chord_sq_bound(cover.radii, cover.metric, lower=True)
    outer_sq = _chord_sq_bound(2.0 * cover.radii, cover.metric)

    def integrand(U, X, own):
        diff = X - cover.centers[own]
        sq = np.einsum("pj,pj->p", diff, diff)
        rows = np.flatnonzero((sq > inner_sq[own]) & (sq < outer_sq[own]))
        own = own[rows]
        # every row's own ramp, then the inf over the neighbours where there are any
        d, grad_d = _distance_gradient(diff[rows], cover.metric)
        _, slope = field._ramps(d, cover.radii[own])
        keep = slope > 0.0
        grad = slope[:, None] * grad_d
        shared = ~alone[own]
        if shared.any():
            mine = own[shared]
            act, _, slope, grad_d = field._active_ramp(X[rows[shared]], table[mine], pad[mine])
            keep[shared] = (act == mine) & (slope > 0.0)
            grad[shared] = slope[:, None] * grad_d
        rows = rows[keep]
        out = np.zeros(X.shape[0])
        out[rows] = tangential_gradient_sq(M, X[rows], grad[keep]) ** (q / 2.0)
        return out

    return integrand


def _per_ball_integrals(M, cover, reach, integrands, seeds, strata, samples_per_cell):
    """Per integrand, the sum in ball order of its integrals over every ball's chart box.

    ``integrand(U, X, own)`` reads each row's ball as a cover index and
    must vanish on M outside B(p_own, reach r_own) and count each point in
    at most one ball.  All balls' chart boxes come from one batched search
    (:func:`_ball_chart_boxes`; a ball that misses M adds nothing), and
    each integrand is one stacked :func:`stratified_integral` call, which
    bounds the rows in memory, with ball i drawing from child i of the
    integrand's ``SeedSequence`` in ``seeds``.
    """
    if not cover.size:
        return [ZERO_ESTIMATE] * len(integrands)
    boxes, hit = _ball_chart_boxes(M, cover.centers, reach * cover.radii, cover.metric)
    balls = np.flatnonzero(hit)
    totals = []
    for integrand, seq in zip(integrands, seeds):
        children = seq.spawn(cover.size)
        totals.append(sum(stratified_integral(
            M, lambda U, X, box, f=integrand: f(U, X, balls[box]), boxes[balls],
            [children[i] for i in balls], strata=strata, samples_per_cell=samples_per_cell,
        ), ZERO_ESTIMATE))
    return totals


def _ball_chart_boxes(M, centers, reach, metric):
    """Chart boxes (balls, n, 2) guaranteed to contain M cap B(center, reach), and the
    mask of the balls that meet M (the other rows are unset).

    One nearest-point call and one gap test serve every ball.  A box starts
    at ``_BOX_SAFETY`` times the reach over each axis's speed and grows
    by 1.4 until every face that bounds its image lies outside its ball;
    faces clipped onto a polar face of the chart do not count (see
    :func:`_boxes_exclude_balls`), so balls at a coordinate pole are
    covered.  Each round tests only the balls still unresolved, and a ball
    left after six rounds raises :class:`PreconditionViolated`.
    """
    chart = M.chart
    u0 = nearest_chart_point(M, centers)
    reach_geo = _chord_to_arc(reach) if metric == "euclidean" else reach
    hit = geodesic_distance(chart.embed(u0), centers) < reach_geo
    boxes = np.empty(u0.shape + (2,))
    todo = np.flatnonzero(hit)
    width = np.zeros_like(u0)
    width[todo] = _BOX_SAFETY * reach_geo[todo, None] / np.sqrt(chart.metric_diag(u0[todo]))
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    periodic = np.asarray(chart.periodic, dtype=bool)
    dist = _distance(metric)
    for _ in range(6):
        if not todo.size:
            return boxes, hit
        box = np.stack([u0[todo] - width[todo], u0[todo] + width[todo]], axis=-1)
        full = periodic & (width[todo] * 2 >= hi - lo)
        box = np.where(full[..., None], chart.box, box)
        box[:, ~periodic] = np.clip(box[:, ~periodic], lo[~periodic, None], hi[~periodic, None])
        done = _boxes_exclude_balls(chart, box, centers[todo], reach[todo], dist)
        boxes[todo[done]] = box[done]
        todo = todo[~done]
        width[todo] *= 1.4
    if todo.size:
        raise PreconditionViolated("could not bound the ball region in chart coordinates")
    return boxes, hit


def _boxes_exclude_balls(chart, boxes, centers, reach, dist):
    """Per box, every face that bounds its image lies outside its ball.

    A full periodic axis has no face, and a face clipped onto a polar face
    of the chart collapses inside M (the density vanishes there), so
    neither is checked; the box then covers M cap B(center, reach).  Each
    face is a ``_FACE_SAMPLES``^(n-1) grid.
    """
    count, n = boxes.shape[:2]
    axes = np.linspace(boxes[..., 0], boxes[..., 1], _FACE_SAMPLES, axis=-1)  # (boxes, n, samples)
    excluded = np.ones(count, dtype=bool)
    for a in range(n):
        lo, hi = chart.box[a]
        other = [b for b in range(n) if b != a]
        grid = _tensor_grid([np.arange(_FACE_SAMPLES)] * len(other)) if other else np.zeros((1, 0), int)
        pts = np.empty((count, grid.shape[0], n))
        pts[..., other] = axes[:, other, grid]
        full = chart.periodic[a] & np.isclose(boxes[:, a, 0], lo) & np.isclose(boxes[:, a, 1], hi)
        for side in (0, 1):
            rows = excluded & ~full  # a full periodic axis has no face
            if not chart.periodic[a]:
                rows &= boxes[:, a, side] != chart.box[a][side]  # polar face of the chart
            rows = np.flatnonzero(rows)
            pts[rows, :, a] = boxes[rows, a, side, None]
            near = dist(chart.embed(pts[rows]), centers[rows, None, :]) <= reach[rows, None]
            excluded[rows[near.any(axis=1)]] = False
    return excluded


@dataclass
class MRQualityReport:
    """Measured quality triple of a product cutoff with its proof-side bounds."""

    area_not_one: MCEstimate
    grad_l2: MCEstimate
    lap_l1: MCEstimate
    bounds: tuple
    c_v: float
    c0: float
    c1: float

    @property
    def passed(self):
        ests = (self.area_not_one, self.grad_l2, self.lap_l1)
        return all(e.value <= b + 3.0 * e.stderr for e, b in zip(ests, self.bounds))


def mr_quality_report(
    M: ParametrizedHypersurface,
    field: CutoffField,
    C_V=None,
    strata=10,
    seed=0,
) -> MRQualityReport:
    """Measure (area{phi != 1}, int |grad phi|^2, int |Delta phi|) for a product cutoff.

    phi differs from 1 only inside the balls, so each integral runs ball
    by ball (:func:`_per_ball_integrals`), on a chart box around
    M cap B(p_i, r_i) cut into ``strata`` cells per axis with 2 samples
    each, whatever the ball's size; a point counts only in the
    lowest-index ball that holds it (:func:`_quality_integrands`), so an
    overlap counts once.  The three integrals draw from the three children
    of ``seed``, and ball i from child i of its integral's child.

    Bounds come from the construction's proof, in the cover's own sums:
    C_V sum r_i^n for the area, K C0 C_V sum r_i^(n-2) for grad L^2 and
    (C1 + K C0) C_V sum r_i^(n-2) for Laplacian L^1, with C1 = n C0 +
    C_H sqrt(C0), C_H the ambient mean-curvature bound (n for minimal
    hypersurfaces of the unit sphere) and the default C_V's metric that of
    ``field.cover``.  K is the widest row of the balls' neighbour table at
    reach 1 (:func:`_neighbour_table`, which the integrands read too): a
    point in k balls has |p_i - p_j| < r_i + r_j for each pair of them, so
    all k lie in one ball's row and K bounds how many balls hold any point.

    The derivation: phi != 1 only on the union of the balls, whose area is
    at most sum_i area(M cap B(p_i, r_i)) <= C_V sum r_i^n (centres p_i on
    M).  With 0 <= phi_i <= 1, |grad phi| <= sum_i |grad phi_i|, where at
    most K terms are nonzero at any point, so (sum_i |grad phi_i|)^2 <= K
    sum_i |grad phi_i|^2 (Cauchy-Schwarz); |grad phi_i|^2 <= C0 r_i^-2 on
    B(p_i, r_i) integrates to C0 C_V r_i^(n-2).  Delta phi = sum_i
    (prod_(k != i) phi_k) Delta phi_i + sum_(i != j) (prod_(k != i, j)
    phi_k) <grad phi_i, grad phi_j>, so |Delta phi| <= sum_i |Delta phi_i|
    + K sum_i |grad phi_i|^2; and |Delta_M phi_i| <= n |D^2 phi_i| + C_H
    |D phi_i| <= n C0 r_i^-2 + C_H sqrt(C0) r_i^-1 <= C1 r_i^-2, the drift
    term using r_i <= 1 (:func:`cover_singular_set` refuses radii >= 1).

    Raises :class:`InsufficientSamples` when a standard error exceeds 10% of
    its bound; a measured value above bound + 3 stderr is returned as a
    report with ``passed`` false.
    """
    if field.kind != "product":
        raise PreconditionViolated("quality report applies to the product cutoff")
    cover, n = field.cover, M.dimension
    if C_V is None:
        C_V = measure_volume_growth(M, metric=cover.metric)
    c0 = field.C0
    c_h = float(n)  # |H_vec| of a minimal hypersurface of the unit sphere
    c1 = n * c0 + c_h * math.sqrt(c0)
    table, pad = _neighbour_table(cover, 1.0)
    K = pad.shape[1]
    energy = C_V * float(np.sum(cover.radii ** (n - 2)))
    bounds = (C_V * float(np.sum(cover.radii**n)), K * c0 * energy, (c1 + K * c0) * energy)
    area, grad, lap = _per_ball_integrals(M, cover, 1.0, _quality_integrands(M, field, table, pad),
                                          np.random.SeedSequence(seed).spawn(3), strata, 2)
    for est, bnd, name in zip((area, grad, lap), bounds, ("area", "grad", "lap")):
        if est.stderr > 0.1 * bnd:
            raise InsufficientSamples(f"{name} stderr {est.stderr:.3g} > 10% of {bnd:.3g}")
    return MRQualityReport(area, grad, lap, bounds, C_V, c0, c1)


def _quality_integrands(M, field: CutoffField, table, pad):
    """The three quality integrands 1{phi != 1}, |grad_M phi|^2 and |Delta_M phi|
    as ``integrand(U, X, own)``: a row's value where its ball ``own`` (a cover
    index per row) is the lowest-index ball j with d_j < r_j there, else 0,
    so each point of the union of the balls, where phi < 1, counts once.

    Only rows within a conservative screen of their own ball, and for the
    derivatives outside B(p_own, r_own/2), where both are exactly 0, take
    ramps, and only those of the ball's neighbours: ``table`` and ``pad``
    are :func:`_neighbour_table` at reach 1.
    """
    cover = field.cover
    outer_sq = _chord_sq_bound(cover.radii, cover.metric)

    def per_ball(quantity, inner):
        inner_sq = _chord_sq_bound(inner * cover.radii, cover.metric, lower=True)

        def integrand(U, X, own):
            diff = X - cover.centers[own]
            sq = np.einsum("pj,pj->p", diff, diff)
            rows = np.flatnonzero((sq > inner_sq[own]) & (sq < outer_sq[own]))
            balls = table[own[rows]]
            ramps = field._table_ramps(X[rows], balls, pad[own[rows]])
            holds = ramps[0] < ramps[2]
            first = balls[np.arange(len(rows)), holds.argmax(axis=1)]
            mine = holds.any(axis=1) & (first == own[rows])
            rows = rows[mine]
            out = np.zeros(X.shape[0])
            out[rows] = quantity(X[rows], tuple(a[mine] for a in ramps))
            return out

        return integrand

    return (
        per_ball(lambda X, ramps: 1.0, 0.0),
        per_ball(lambda X, ramps: tangential_gradient_sq(
            M, X, _product_gradient(_product_excluding_one(ramps[3]), ramps[4], ramps[1])), 0.5),
        per_ball(lambda X, ramps: np.abs(surface_laplacian(
            M, X, *_product_derivatives(ramps))), 0.5),
    )
