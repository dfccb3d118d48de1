"""Numeric and algebraic forms of the curvature integral estimates.

Three families of checks live here.

* ``local_A_bound``: on any of the built-in minimal surfaces, the curvature
  energy in a ball obeys ``int_{M cap B_r(p)} |A|^2 <= C r^(n-2)`` with the
  explicit constant assembled from the stability-inequality proof,
  ``2 * 2^(n+2) C_V r^(n-2) + alpha * 2^n C_V r^n`` where
  ``alpha = |-lambda_1 - n|``.  The left side is exact on these
  homogeneous surfaces.  Reports carry it with the bound and the margin,
  so the looseness of the constant stays visible.

* ``ssy_constants`` / ``l4_identity_check``: the absorption coefficient
  ``(1 + a) / (1 + 2/n - a)`` of the L^2-to-L^4 upgrade is admissible
  exactly for a < 1/n, and on the product families the equality
  ``int |A|^4 = n int |A|^2`` holds (|A|^2 is the constant n there).

* ``cone_stability_table``: a cone over a link M^n is stable iff
  ``lambda_1(M) >= -(n+1)^2/4``; combined with the link bound -2n this
  allows stable non-flat cones first at n = 6, i.e. ambient dimension 8.
  The verdict reduces to the integer inequality n^2 - 6n + 1 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionViolated
from .geometry import ParametrizedHypersurface, _norm_A_sq, area, measure_volume_growth


@dataclass
class EstimateReport:
    """One verified inequality: measured left side against its bound."""

    name: str
    lhs: float
    rhs: float
    stderr: float = 0.0
    params: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.margin >= -3.0 * self.stderr

    def row(self):
        return {
            "name": self.name,
            "n": self.params.get("n"),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "stderr": self.stderr,
        }


def geodesic_ball_area(M: ParametrizedHypersurface, r) -> float:
    """Area of M cap B_r(p) for a geodesic radius r, the same at every p of M.

    That holds on every surface, a homogeneous product of round spheres
    whose factors give the area (:meth:`SphereProduct.ball_area`).
    """
    return float(M.product.ball_area(np.cos(r)))


def local_A_bound(M: ParametrizedHypersurface, p, r, lambda1, C_V=None):
    """Exact int_{M cap B_r(p)} |A|^2 against 2^(n+3) C_V r^(n-2) (+ alpha term).

    ``p`` is an (m, n+2) array of centres on M, or one point (a batch of
    one), ``r`` a geodesic radius in (0, 2) and ``lambda1`` the first
    stability eigenvalue that feeds ``alpha = |-lambda_1 - n|``.  On a
    product of round spheres |A|^2 is the constant of the sphere factors and
    the ball area does not depend on the centre, so the left side is
    |A|^2(p) times :func:`geodesic_ball_area`, with stderr 0.  Returns a
    list with one :class:`EstimateReport` per centre, in order: a caller
    that bounds many centres at one radius passes them as one array, which
    takes one ball area, one chart inverse and one embedding.  A centre
    farther than 1e-9 from M (checked through the chart inverse) raises
    :class:`PreconditionViolated`, as does a left side that is negative or
    not finite (a failed ball-area quadrature).
    ``C_V`` defaults to the geodesic :func:`measure_volume_growth`, exact
    on the same families.
    """
    if not 0.0 < r < 2.0:
        raise ValueError("radius must lie in (0, 2)")
    ball = geodesic_ball_area(M, r)
    n = M.dimension
    alpha = abs(-lambda1 - n)
    if C_V is None:
        C_V = measure_volume_growth(M)
    centres = np.atleast_2d(np.asarray(p, dtype=float))
    chart = M.chart
    u = chart.inverse(centres)
    off = np.linalg.norm(chart.embed(u) - centres, axis=-1)
    far = ~(off <= 1e-9)
    if far.any():
        raise PreconditionViolated(f"ball centre lies {off[far][0]:.3g} off the surface")
    lhs = [float(a2) * ball for a2 in _norm_A_sq(M, u)]
    for v in lhs:
        if not 0.0 <= v < math.inf:
            raise PreconditionViolated(
                f"curvature energy {v!r} on the ball is negative or not finite")
    rhs = 2.0 * 2.0 ** (n + 2) * C_V * r ** (n - 2) + alpha * 2.0**n * C_V * r**n
    return [
        EstimateReport(
            "local_A_bound",
            v,
            rhs,
            0.0,
            {"n": n, "r": r, "alpha": alpha, "C_V": C_V, "lambda1": lambda1},
        )
        for v in lhs
    ]


@dataclass
class SSYConstants:
    """Absorption constants of the L^2 -> L^4 curvature upgrade."""

    coefficient: float          # (1 + a) / (1 + 2/n - a)
    admissible: bool            # coefficient < 1, i.e. a < 1/n
    absorbed: Optional[float]   # C(n, a, alpha) once the left side absorbs

    def __iter__(self):
        return iter((self.coefficient, self.admissible))


def ssy_constants(n, a, alpha=0.0) -> SSYConstants:
    """Coefficient (1+a)/(1+2/n-a) and its admissibility (a < 1/n, strictly).

    When admissible, also the absorbed constant C with
    ``int |A|^4 f^2 <= C int |A|^2 (f^2 + |grad f|^2)``, namely
    ``max((1+a)/(a (1+2/n-a)) + 1 + 1/a, alpha) / (1 - coefficient)``.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    coefficient = (1.0 + a) / (1.0 + 2.0 / n - a)
    admissible = a < 1.0 / n
    absorbed = None
    if admissible:
        grad_coef = (1.0 + a) / (a * (1.0 + 2.0 / n - a)) + 1.0 + 1.0 / a
        absorbed = max(grad_coef, alpha) / (1.0 - coefficient)
    return SSYConstants(coefficient, admissible, absorbed)


def l4_identity_check(M: ParametrizedHypersurface, resolution=96) -> EstimateReport:
    """int |A|^4 == n int |A|^2 on the product families (both sides by quadrature).

    |A|^2 is the constant of the surface's sphere factors (n on the
    products, 0 on equators), so the identity is exact up to quadrature
    rounding; the report's lhs/rhs are the two integrals.
    """
    n = M.dimension
    const = float(M.product.norm_A_sq)
    total = area(M, resolution)
    lhs = const**2 * total
    rhs = n * const * total
    return EstimateReport(
        "l4_identity", lhs, rhs, 0.0, {"n": n, "normA2": const, "area": total}
    )


@dataclass
class ConeVerdict:
    """Stability verdict for the cone over a link of dimension n."""

    n: int
    link_bound: float       # -2n, the sharp first-eigenvalue bound on the link
    threshold: float        # -(n+1)^2 / 4, the cone stability criterion
    stable_possible: bool   # -2n >= -(n+1)^2/4, exact integer arithmetic

    @property
    def margin(self):
        return self.link_bound - self.threshold


def cone_stability_table(n_max) -> list:
    """Verdicts for n = 1..n_max; the first True row is n = 6 (cone in R^8)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    for n in range(1, n_max + 1):
        stable = 8 * n <= (n + 1) ** 2   # -2n >= -(n+1)^2/4 in integers
        out.append(ConeVerdict(n, -2.0 * n, -((n + 1) ** 2) / 4.0, stable))
    return out
