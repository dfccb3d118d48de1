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
``int_M |grad phi|^q <= 2^(n+q) C_V epsilon``; the Vitali-style discard
(sixth-balls pairwise disjoint, half-balls still cover); the packing bound
``max degree <= (3 alpha beta)^N - 1`` for balls with disjoint sub-balls
and beta-comparable radii; the smooth-cutoff quality triple (area of
{phi != 1}, grad L^2, Laplacian L^1) against its proof-side constants; and
the vanishing of the cutoff cross term in integration by parts.

Geodesic balls of the ambient sphere are used for the gradient estimate
(radii converted by the chord-arc map); the smooth product construction
uses plain Euclidean balls of R^(n+2).  A field is checked once, when built
(:class:`CutoffField`); each check reads cover, epsilon and q from the field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BoundViolation,
    BudgetInfeasible,
    InsufficientSamples,
    PreconditionViolated,
    UnsupportedFamily,
)
from .fields import grad_inner
from .geometry import (
    ParametrizedHypersurface,
    _chord_to_arc,
    _distance,
    _tensor_grid,
    chart_quadrature,
    geodesic_distance,
    measure_volume_growth,
    sqrt_det_metric,
)
from .sampling import (
    MCEstimate,
    ZERO_ESTIMATE,
    _cell_grid,
    _stratified_rows,
    local_polar_integral,
    nearest_chart_point,
    stratified_integral,
)

BUDGET_SHARE = 0.9   # fraction of epsilon the greedy cover actually spends
_CHUNK_ROWS = 8192   # sample rows per batched pass of gradient_integral_estimate
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
    if not rows:
        return np.empty((0, 1))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("inconsistent coordinate count across point-cloud lines")
    return np.array(rows)


@dataclass
class BallCover:
    """Finite ball family with its Hausdorff-budget bookkeeping.

    ``dimension`` is the surface dimension n and ``exponent`` the q of the
    budget ``sum r_i^(n-q) < epsilon``.  ``points`` keeps the covered input
    set so discard operations can re-verify coverage.
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
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if self.centers.size == 0:
            self.centers = self.centers.reshape(0, max(self.centers.shape[-1], 1))

    @property
    def size(self):
        return len(self.radii)

    @property
    def budget_sum(self):
        if self.size == 0:
            return 0.0
        return float(np.sum(self.radii ** (self.dimension - self.exponent)))

    @property
    def satisfied(self):
        return self.budget_sum < self.epsilon

    @property
    def dyadic_classes(self):
        """Partition {i : 2^m <= r_i < 2^(m+1)} keyed by the integer m."""
        out = {}
        for i, r in enumerate(self.radii):
            out.setdefault(int(np.floor(np.log2(r))), []).append(i)
        return {m: np.array(ix) for m, ix in out.items()}

    def subset(self, indices):
        return BallCover(
            self.centers[indices],
            self.radii[indices],
            self.dimension,
            self.exponent,
            self.epsilon,
            self.metric,
            self.points,
        )


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
    r_min=1e-3,
    metric="geodesic",
    containment="full",
):
    """Greedy ball cover of a finite point set under the budget sum r^(n-q) < epsilon.

    Points closer than 2*r_min are clustered (single linkage); each cluster
    gets a ball at its (sphere-projected) centroid.  Radii default to the
    uniform budget split ``(0.9 epsilon / m)^(1/(n-q))`` and never drop
    below the cluster containment radius or r_min; ``containment="sixth"``
    takes six times that radius, so the points lie in B(p, r/6).

    Raises :class:`BudgetInfeasible` when ``m * r_min^(n-q) >= epsilon`` (in
    particular whenever q >= n and the set is nonempty with epsilon <= m):
    no admissible radii exist; lower r_min or raise epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float)) if points is not None else None
    if points is None or points.size == 0:
        return empty_cover(n, q, epsilon, metric)
    dist = _distance(metric)

    clusters = _single_linkage(points, 2.0 * r_min, dist)
    m = len(clusters)
    if m * r_min ** (n - q) >= epsilon:
        raise BudgetInfeasible(
            f"{m} cluster(s) with r_min={r_min} give sum r^(n-q) >= {m * r_min ** (n - q):.3g}"
            f" >= epsilon={epsilon}; lower r_min or raise epsilon"
        )

    factor = 6.0 if containment == "sixth" else 1.0
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
    if n != q:
        r_star = (BUDGET_SHARE * epsilon / m) ** (1.0 / (n - q))
        if n > q and r_star > 0:
            radii = np.maximum(radii, min(r_star, 0.95))
    if np.any(radii >= 1.0):
        raise BudgetInfeasible("a cluster needs radius >= 1; the set is not coverable")
    cover = BallCover(centers, radii, n, q, epsilon, metric, points=points)
    if not cover.satisfied:
        raise BudgetInfeasible(
            f"sum r^(n-q) = {cover.budget_sum:.3g} >= epsilon = {epsilon}"
        )
    return cover


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


def vitali_discard(cover: BallCover) -> BallCover:
    """Keep a subfamily whose sixth-balls are pairwise disjoint.

    Balls are visited in decreasing radius (ties broken by lexicographic
    center order); a ball is dropped when its sixth-ball meets the
    sixth-ball of a retained, at-least-as-large ball -- its sixth-ball then
    lies inside that ball's half-ball, so the retained half-balls still
    cover the input points.
    """
    if cover.size == 0:
        return cover
    d = _distance(cover.metric)(cover.centers[:, None, :], cover.centers[None, :, :])
    clash = d < (cover.radii[:, None] + cover.radii[None, :]) / 6.0
    keys = tuple(cover.centers.T[::-1]) + (-cover.radii,)
    retained = []
    for j in np.lexsort(keys):
        if not clash[j, retained].any():
            retained.append(int(j))
    return cover.subset(np.array(sorted(retained)))


def covers_points(cover: BallCover, factor) -> bool:
    """Every input point within factor * r_i of some center (widened Gram screen)."""
    if cover.points is None:
        return True
    bound = _chord_sq_bound(factor * cover.radii, cover.metric)[:, None]
    return bool(np.all(np.any(_gram_chord_sq(cover.centers, cover.points) < bound, axis=0)))


# ---------------------------------------------------------------------------
# packing / intersection bounds
# ---------------------------------------------------------------------------

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


def enlarged_class_count(cover: BallCover):
    """Per dyadic class, max count of enlarged balls B(p_i, r_i + r_j) containing p_j.

    Valid after :func:`vitali_discard` (disjoint sixth-balls): within one
    class the enlarged radii are 2-comparable and their 18th-part sub-balls
    inherit disjointness, so the count is at most 108^N.
    """
    N = cover.centers.shape[1]
    bound = 108.0**N
    d = _distance(cover.metric)(cover.centers[:, None, :], cover.centers[None, :, :])
    dyadic = np.floor(np.log2(cover.radii))
    inside = (d <= cover.radii[:, None] + cover.radii[None, :]) & (dyadic[:, None] == dyadic[None, :])
    worst = int(inside.sum(axis=0).max(initial=0))
    if worst > bound:
        raise BoundViolation(f"class count {worst} exceeds 108^{N}")
    return worst, bound


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
    constant (:func:`_profile_c0`).  Its value and derivatives
    at a point take only the balls that may hold the point
    (:meth:`_ball_table`); every other ramp is exactly 1 there with zero
    derivatives.

    Building a field is its only check: an unknown kind raises
    :class:`ValueError`; a nonempty cover over its budget, of non-Euclidean
    balls under the product kind, or with a recorded point where phi does
    not vanish (:func:`covers_points` at r_i inf, r_i/2 product) raises
    :class:`PreconditionViolated`.
    """

    cover: BallCover
    kind: str

    def __post_init__(self):
        if self.kind not in ("inf", "product"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}; use 'inf' or 'product'")
        if self.cover.size and not self.cover.satisfied:
            raise PreconditionViolated("cover budget not satisfied")
        if self.cover.size and self.kind == "product" and self.cover.metric != "euclidean":
            raise PreconditionViolated("the product construction uses Euclidean balls")
        if self.cover.size and not covers_points(self.cover, 1.0 if self.kind == "inf" else 0.5):
            raise PreconditionViolated(f"the {self.kind} cutoff does not vanish at every cover point")

    @property
    def C0(self):
        """The product ramps' profile constant; None on the inf kind."""
        return _profile_c0() if self.kind == "product" else None

    # -- distances ---------------------------------------------------------
    def _dist_grad(self, X, centers=None):
        """Distances (points, balls) from each row of X to the ball centres, and their gradients.

        ``centers`` defaults to every ball of the cover; a (balls, dim) or
        per-row (points, balls, dim) array evaluates a subset of them.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if centers is None:
            centers = self.cover.centers
        return _distance_gradient(X[:, None, :] - centers, self.cover.metric)

    def _ramps(self, d, radii=None):
        """Ramp values and slopes at distances d (``radii`` matching the centres of d)."""
        r = self.cover.radii if radii is None else radii
        if self.kind == "inf":
            vals = np.clip((d - r) / r, 0.0, 1.0)
            slope = np.where((d > r) & (d < 2.0 * r), 1.0 / r, 0.0)
            return vals, slope
        t = 2.0 * (d / r) - 1.0
        vals = _quintic(t)
        slope = _quintic_d1(t) * 2.0 / r
        return vals, slope

    def _ball_table(self, X):
        """Per row of X, the balls B(p_i, r_i) that may hold it: (table, pad), both (rows, width).

        A product ramp is exactly 1 with zero derivatives wherever d >= r
        (t >= 1 in :meth:`_ramps`), so the balls left out of a row's list
        cannot change its phi or derivatives.  The squared chord comes from
        the Gram form (:func:`_gram_chord_sq`, laid out balls x points so
        the broadcasts run along long rows) and is compared with
        :func:`_chord_sq_bound`, whose slack covers its rounding, so every
        ball whose computed distance from the row is below r is listed.
        Each row lists its balls in ascending order, then pads to the
        widest row's count; ``pad`` marks the padded slots, whose index is
        0.  A row of pads only lies in no ball.  Needs a nonempty cover.
        """
        bound = _chord_sq_bound(self.cover.radii, self.cover.metric)
        holds = _gram_chord_sq(self.cover.centers, X) < bound[:, None]
        count = holds.sum(axis=0)
        pad = np.arange(count.max(initial=0)) >= count[:, None]
        table = np.zeros(pad.shape, dtype=int)
        table[~pad] = np.nonzero(holds.T)[1]  # row by row, each row's balls ascending
        return table, pad

    def _table_ramps(self, X):
        """Product kind: per row of X and slot of its :meth:`_ball_table`,
        the distance, its gradient, the ball radius, the ramp value and slope.

        A pad reads distance inf: its ramp is exactly 1 with zero slope and
        curvature, so it is neutral in every product and sum.
        """
        table, pad = self._ball_table(X)
        d, grad_d = self._dist_grad(X, self.cover.centers[table])
        d[pad] = np.inf
        r = self.cover.radii[table]
        vals, slope = self._ramps(d, r)
        return d, grad_d, r, vals, slope

    # -- evaluation --------------------------------------------------------
    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cover.size == 0:
            return np.ones(X.shape[0])
        if self.kind == "product":
            return self._table_ramps(X)[3].prod(axis=1)
        return self._active_ramp(X)[1]

    def _active_ramp(self, X, balls=None):
        """Inf kind: per point the active ball (lowest index on ties), phi (its
        ramp value, which ``value`` returns), its ramp slope and the
        gradient of its distance, from one distance evaluation.

        ``balls`` restricts the inf to some balls: a sorted index list for
        every row, or one per row (points, k).  A row may repeat a ball
        after its sorted list (see :func:`_neighbour_table`); the argmin
        takes the first of equal values, so the repeat never changes it.
        """
        if balls is None:
            d, grad_d = self._dist_grad(X)
            vals, slope = self._ramps(d)
        else:
            d, grad_d = self._dist_grad(X, self.cover.centers[balls])
            vals, slope = self._ramps(d, self.cover.radii[balls])
        act = vals.argmin(axis=1)
        take = np.arange(act.shape[0])
        ball = act if balls is None else np.broadcast_to(balls, vals.shape)[take, act]
        return ball, vals[take, act], slope[take, act], grad_d[take, act]

    def active_index(self, X):
        """Index of the ball whose ramp achieves the inf (lowest index on ties)."""
        if self.kind != "inf":
            raise UnsupportedFamily("active ball is only defined for the inf kind")
        return self._active_ramp(X)[0]

    def ambient_gradient(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.cover.size == 0:
            return np.zeros_like(X)
        if self.kind == "inf":
            _, _, slope, grad_d = self._active_ramp(X)
            return slope[:, None] * grad_d
        _, grad_d, _, vals, slope = self._table_ramps(X)
        return _product_gradient(_product_excluding_one(vals), slope, grad_d)

    def ambient_hessian(self, X):
        """Euclidean Hessian of the product cutoff (sum and cross terms)."""
        return self._product_derivatives(X)[1]

    def _product_derivatives(self, X):
        """Product kind: (gradient, Hessian) from one distance evaluation per
        listed ball, O(balls holding the point) per point (:meth:`_ball_table`).

        With v_i the ramp values, g_i = slope_i grad d_i, other_i =
        prod_{k != i} v_k and S = sum_{v_j > 0} g_j / v_j, the i != j cross
        term sum_{i != j} other_i g_i g_j^T / v_j is
        ``grad phi S^T - sum_{v_i > 0} other_i g_i g_i^T / v_i`` (v_i = 0
        forces g_i = 0).  Its diagonal part joins the per-ball Hessians, whose
        radial parts are grad d_i grad d_i^T terms, in one batched
        (dim, width) @ (width, dim) product per point.
        """
        if self.kind != "product":
            raise UnsupportedFamily("the inf cutoff is Lipschitz only; no Hessian")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        p, dim = X.shape
        if self.cover.size == 0:
            return np.zeros((p, dim)), np.zeros((p, dim, dim))
        d, grad_d, r, vals, slope = self._table_ramps(X)
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
        idx = np.arange(dim)
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
    """Infimum-of-ramps cutoff over a satisfied cover (checked by :class:`CutoffField`)."""
    return CutoffField(cover, "inf")


def build_product_cutoff(cover: BallCover) -> CutoffField:
    """C^2 product cutoff over a satisfied Euclidean cover (checked by :class:`CutoffField`)."""
    return CutoffField(cover, "product")


# ---------------------------------------------------------------------------
# surface calculus of ambient fields
# ---------------------------------------------------------------------------

def tangential_gradient_sq(M, U, ambient_grad):
    """|grad_M phi|^2 from an ambient gradient via the chart frame."""
    chart = M.chart
    U = np.asarray(U, dtype=float)
    grad = np.asarray(ambient_grad, dtype=float)
    # J^T grad per row as one batched matmul, in the operand layout that
    # einsum("pia,pi->pa", optimize=True) hands to matmul: the same rounding,
    # without a contraction-path search on every call
    comps = np.matmul(chart.jacobian(U).swapaxes(-1, -2), grad.reshape(grad.shape + (1,)))[..., 0]
    return np.sum(comps**2 / chart.metric_diag(U), axis=-1)


def surface_laplacian_of_cutoff(M, U, X, field: CutoffField):
    """Delta_Sigma phi = tr_Sigma Hess phi + <grad phi, H_vec> at surface points.

    Needs the Euclidean Hessian (product kind) and the mean curvature
    vector of M in R^(n+2); for the built-in minimal families that vector
    is -n x.
    """
    n = M.dimension  # Delta x = -n x on a minimal hypersurface of the unit sphere
    chart = M.chart
    jac = chart.jacobian(np.asarray(U, dtype=float))
    gdiag = chart.metric_diag(np.asarray(U, dtype=float))
    grad, hess = field._product_derivatives(X)
    trace = np.einsum("pia,pij,pja,pa->p", jac, hess, jac, 1.0 / gdiag,
                      optimize=["einsum_path", (0, 1), (0, 2), (0, 1)])  # as in _product_gradient
    drift = -n * np.einsum("pj,pj->p", grad, X)
    return trace + drift


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
    Integration is per ball on a chart box around it (the integrand lives on
    thin annuli; global sampling would miss them), deduplicated by the
    active-ball partition, and the per-ball estimates are summed in ball
    order.  All balls' chart boxes come from one batched search
    (:func:`_ball_chart_boxes`), and the boxes are sampled in chunks of at
    most ``_CHUNK_ROWS`` rows (at least one ball each), so the transient
    memory does not grow with the ball count.  Each row is first screened
    by the distance to its own ball: only rows that may lie in its ramp
    annulus evaluate the ramps, and only those of the ball's neighbours,
    the balls j with dist(p_i, p_j) < 2 r_i + 2 r_j; no other ramp can
    drop below 1 where ball i's does, so the active ball and the integrand
    equal those of the full field bit for bit.  Raises
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

    total = ZERO_ESTIMATE
    rng_children = np.random.SeedSequence(seed).spawn(max(cover.size, 1))
    if cover.size:
        reach = 2.0 * cover.radii
        boxes, hit = _ball_chart_boxes(M, cover.centers, reach, cover.metric)
        integrand = _annulus_gradient_integrand(M, field, q)
        balls = np.flatnonzero(hit)
        rows = _stratified_rows(M.chart.dim, strata, samples_per_cell)
        per_chunk = max(1, _CHUNK_ROWS // rows)
        for lo in range(0, len(balls), per_chunk):
            chunk = balls[lo:lo + per_chunk]
            for est in stratified_integral(
                M,
                lambda U, X, chunk=chunk: integrand(U, X, chunk),
                box=boxes[chunk],
                strata=strata,
                samples_per_cell=samples_per_cell,
                seed=[rng_children[i] for i in chunk],
            ):
                total = total + est

    if total.stderr > 0.1 * bound:
        raise InsufficientSamples(
            f"stderr {total.stderr:.3g} exceeds 10% of the bound {bound:.3g}"
        )
    return GradientIntegralReport(
        total.value, total.stderr, bound, cover.epsilon, C_V, q, n, total.samples
    )


def _ramp_neighbours(cover: BallCover, reach=2.0):
    """Per ball i, the sorted indices j (i included) with dist(p_i, p_j) < reach (r_i + r_j).

    With ``reach`` 2 (inf ramps, below 1 within 2 r) a point with both
    ramps below 1 lies within 2 r_i of p_i and 2 r_j of p_j, so the triangle
    inequality bounds the centre distance; ``reach`` 1 does the same for
    product ramps, below 1 within r.  The test is a conservative
    squared-chord screen against that distance (:func:`_chord_sq_bound`;
    chord <= arc, so a Euclidean bound also holds for a geodesic cover).
    It may admit extra balls, which cannot change an argmin or a product.
    Rows are screened 256 at a time, so the temporaries hold at most
    256 x balls entries.
    """
    c, r = cover.centers, cover.radii
    out = []
    for lo in range(0, cover.size, 256):
        bound = _chord_sq_bound(reach * (r[lo:lo + 256, None] + r[None, :]), "euclidean")
        out += [np.flatnonzero(row) for row in _gram_chord_sq(c[lo:lo + 256], c) < bound]
    return out


def _neighbour_table(neighbours):
    """Neighbour lists as one (balls, width) table, each row padded with its own ball.

    The pad comes after the sorted list, which holds the ball itself, so
    an argmin over a table row picks the same ball as over the list.
    """
    table = np.repeat(np.arange(len(neighbours))[:, None], max(map(len, neighbours)), axis=1)
    for row, nb in zip(table, neighbours):
        row[: len(nb)] = nb
    return table


def _annulus_gradient_integrand(M, field, q):
    """``integrand(U, X, balls)``: |grad phi|^q where the row's own ball holds
    the active ramp with nonzero slope, else 0.  The rows come box by box,
    the same number for each ball of ``balls``, as a stacked
    :func:`stratified_integral` call lays them out.

    A row outside a conservative screen of its ball's open annulus
    r < d < 2 r (where the ramp slope is nonzero) reads an exact 0.0 without
    evaluating any ramp.  The screen compares the squared chord to the
    ball's centre with the widened bounds of :func:`_chord_sq_bound`.  A
    ball whose neighbour list holds no other ball reads its own ramp
    directly, which is what the inf over its table row (that ball
    repeated) gives.
    """
    cover = field.cover
    neighbours = _ramp_neighbours(cover)
    table = _neighbour_table(neighbours)
    alone = np.array([len(nb) == 1 for nb in neighbours])
    inner_sq = _chord_sq_bound(cover.radii, cover.metric, lower=True)
    outer_sq = _chord_sq_bound(2.0 * cover.radii, cover.metric)

    def integrand(U, X, balls):
        dim = X.shape[-1]
        diff = X.reshape(len(balls), -1, dim) - cover.centers[balls, None, :]
        sq = np.einsum("bpj,bpj->bp", diff, diff)
        screen = (sq > inner_sq[balls, None]) & (sq < outer_sq[balls, None])
        rows = np.flatnonzero(screen)
        own = balls[rows // screen.shape[1]]
        # every row's own ramp, then the inf over the neighbours where there are any
        d, grad_d = _distance_gradient(diff[screen], cover.metric)
        _, slope = field._ramps(d, cover.radii[own])
        keep = slope > 0.0
        grad = slope[:, None] * grad_d
        shared = ~alone[own]
        if shared.any():
            act, _, slope, grad_d = field._active_ramp(X[rows[shared]], table[own[shared]])
            keep[shared] = (act == own[shared]) & (slope > 0.0)
            grad[shared] = slope[:, None] * grad_d
        rows = rows[keep]
        out = np.zeros(X.shape[0])
        out[rows] = tangential_gradient_sq(M, U[rows], grad[keep]) ** (q / 2.0)
        return out

    return integrand


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
    strata=96,
    seed=0,
) -> MRQualityReport:
    """Measure (area{phi != 1}, int |grad phi|^2, int |Delta phi|) for a product cutoff.

    Work is done only where phi may differ from 1.  The three integrals
    share the chart box and the strata, so one cell mask
    (:func:`_cells_meeting_balls`) serves all three: the random draws of
    a cell that meets no ball are taken, so the stream does not change,
    but its points are never formed, embedded or evaluated.  A row of a
    kept cell that lies in no ball reads an exact 0.0 in all three
    integrands, as its :meth:`CutoffField._ball_table` row is all pads, so
    the estimates are those of evaluating every cell bit for bit.

    Bounds come from the construction's proof: C_V eps, 8 * 108^N C0 C_V eps
    and (C1 + 8 * 108^N C0) C_V eps with C1 = n C0 + C_H sqrt(C0), C_H the
    ambient mean-curvature bound (n for minimal hypersurfaces of the unit
    sphere), N the Euclidean dimension, eps and the default C_V's metric
    those of ``field.cover``.  Raises :class:`InsufficientSamples` when a
    standard error exceeds 10% of its bound; a measured value above bound +
    3 stderr is returned as a report with ``passed`` false.
    """
    if field.kind != "product":
        raise PreconditionViolated("quality report applies to the product cutoff")
    n = M.dimension
    N = n + 2
    if C_V is None:
        C_V = measure_volume_growth(M, metric=field.cover.metric)
    eps = field.cover.epsilon
    c0 = field.C0
    c_h = float(n)  # |H_vec| of a minimal hypersurface of the unit sphere
    c1 = n * c0 + c_h * math.sqrt(c0)
    bounds = (
        C_V * eps,
        8.0 * 108.0**N * c0 * C_V * eps,
        (c1 + 8.0 * 108.0**N * c0) * C_V * eps,
    )
    seeds = np.random.SeedSequence(seed).spawn(3)
    cells = _cells_meeting_balls(M, field.cover, strata)
    area, grad, lap = [
        stratified_integral(
            M, integrand, strata=strata, samples_per_cell=2, seed=child, cells=cells,
        )
        for integrand, child in zip(_quality_integrands(M, field), seeds)
    ]
    for est, bnd, name in zip((area, grad, lap), bounds, ("area", "grad", "lap")):
        if est.stderr > 0.1 * bnd:
            raise InsufficientSamples(f"{name} stderr {est.stderr:.3g} > 10% of {bnd:.3g}")
    return MRQualityReport(area, grad, lap, bounds, C_V, c0, c1)


def _cells_meeting_balls(M, cover: BallCover, strata):
    """Mask of the cells of :func:`stratified_integral` over the whole chart
    box whose image may meet a ball of a Euclidean cover.

    A point u of a cell with centre c and sides s is reached from c by a
    chart segment whose image has length at most the half-diagonal
    rho = sqrt(sum_a B_a^2 (s_a / 2)^2), B the chart's speed bound, so
    |x(u) - x(c)| <= rho, and a point within r_i of p_i lies in a cell whose
    centre is within r_i + rho of p_i.  A cell is kept when the Gram squared
    chord from x(c) to some centre is below (r_i + rho)^2, widened by the
    slack of :func:`_chord_sq_bound`, which also covers the rounding of the
    centres and of the sample rows' images.
    """
    chart = M.chart
    lows, sides = (a[0] for a in _cell_grid(np.asarray(chart.box, dtype=float)[None], strata))
    if cover.size == 0:
        return np.zeros(len(lows), dtype=bool)
    rho = math.sqrt(float(np.max(np.sum((chart.speed_bound * sides / 2.0) ** 2, axis=-1))))
    sq = _gram_chord_sq(cover.centers, chart.embed(lows + sides / 2.0))
    return np.any(sq < _chord_sq_bound(cover.radii + rho, "euclidean")[:, None], axis=0)


def _quality_integrands(M, field: CutoffField):
    """The three quality integrands 1{phi != 1}, |grad_M phi|^2 and |Delta_M phi|."""
    return (
        lambda U, X: (field.value(X) < 1.0 - 1e-12).astype(float),
        lambda U, X: tangential_gradient_sq(M, U, field.ambient_gradient(X)),
        lambda U, X: np.abs(surface_laplacian_of_cutoff(M, U, X, field)),
    )


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
    nodes, weights = chart_quadrature(chart, resolution)
    w = weights * sqrt_det_metric(chart, nodes)
    u_vals = np.asarray(u.value(M, nodes), dtype=float)
    lap_v = v.laplacian(M, nodes)
    inner = grad_inner(M, nodes, u, v)

    def correction(i, nb, U, X):
        # 0 wherever another ball is active, so evaluate only where ball i is
        act, phi, slope, grad_d = field._active_ramp(X, nb)
        rows = act == i
        out = np.zeros(len(U))
        if not rows.any():
            return out
        U, phi, slope, grad_d = U[rows], phi[rows], slope[rows], grad_d[rows]
        # one chart frame of the patch rows serves every derivative below
        jac, gdiag = chart.jacobian(U), chart.metric_diag(U)
        uu = np.asarray(u.value(M, U), dtype=float)
        lap = v.laplacian(M, U)
        inn = grad_inner(M, U, u, v, jac, gdiag)
        dv = v.chart_gradient(M, U, jac=jac)
        dphi = np.einsum("pia,pi->pa", jac, slope[:, None] * grad_d, optimize=True)
        cross = uu * np.sum(dv * dphi / gdiag, axis=-1)
        out[rows] = -(1.0 - phi) * (uu * lap + inn) + cross
        return out

    total = float(w @ (u_vals * lap_v + inner))
    return abs(_patch_sum(M, field, correction, n_angular, nodes_per_segment, total))


def cutoff_cross_term(
    M: ParametrizedHypersurface,
    field: CutoffField,
    u,
) -> float:
    """int_M |u| |grad_M phi| by local patches (the vanishing cross term).

    Each patch integrand takes its partition mask and grad phi from one
    distance evaluation against the patch ball's neighbours
    (:func:`_ramp_neighbours`, reach 2 (r_i + r_j) for inf ramps and
    r_i + r_j for product ramps); where the mask holds, no other ramp
    differs from 1 with zero slope, so the integrand is that of the full
    field (for product ramps, up to the rounding of the gradient's sum over
    fewer balls).
    """
    cover = field.cover

    def integrand(i, nb, U, X):
        if field.kind == "inf":
            act, _, slope, grad_d = field._active_ramp(X, nb)
            mask = act == i
            grad = slope[:, None] * grad_d
        else:
            r = cover.radii[nb]
            d, grad_d = field._dist_grad(X, cover.centers[nb])
            vals, slope = field._ramps(d, r)
            # partition supp(grad phi) by the first annulus containing the point
            in_ann = (d > r / 2.0) & (d < r)
            first = np.where(in_ann.any(axis=1), nb[in_ann.argmax(axis=1)], -1)
            mask = first == i
            grad = _product_gradient(_product_excluding_one(vals), slope, grad_d)
        uu = np.abs(np.asarray(u.value(M, U), dtype=float))
        gsq = tangential_gradient_sq(M, U, grad)
        return np.where(mask, uu * np.sqrt(gsq), 0.0)

    return _patch_sum(M, field, integrand, n_angular=128, nodes_per_segment=24)


def _patch_sum(M, field: CutoffField, integrand, n_angular, nodes_per_segment, total=0.0):
    """``total`` plus, in ball order, the patch integral (:func:`local_polar_integral`)
    of ``integrand(i, neighbours_i, U, X)`` around each ball i of the cover.

    ``neighbours_i`` comes from :func:`_ramp_neighbours`.  A patch reaches
    as far as ramp i differs from 1, with radial breaks at the ramp ends:
    reach 2 r and breaks (r, 2 r) inf, reach r and breaks (r/2, r) product;
    a Euclidean cover's chords become geodesic radii by :func:`_chord_to_arc`.
    """
    cover = field.cover
    inf = field.kind == "inf"
    neighbours = _ramp_neighbours(cover, 2.0 if inf else 1.0)
    for i in range(cover.size):
        r = cover.radii[i]
        reach, breaks = (2.0 * r, (r, 2.0 * r)) if inf else (r, (r / 2.0, r))
        if cover.metric == "euclidean":
            reach, breaks = _chord_to_arc(reach), [_chord_to_arc(b) for b in breaks]
        total += local_polar_integral(
            M, cover.centers[i], lambda U, X, i=i: integrand(i, neighbours[i], U, X), reach,
            breaks=breaks, n_angular=n_angular, nodes_per_segment=nodes_per_segment,
        )
    return total
