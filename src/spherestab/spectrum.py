"""First stability eigenvalues, Rayleigh quotients and curvature identities.

The first stability eigenvalue is

    lambda_1 = inf_f  ( int |grad f|^2 - (|A|^2 + n) f^2 )  /  int f^2,

the infimum of the stability Rayleigh quotient.  Benchmarks verified here:
equators attain lambda_1 = -n with the constant eigenfunction; the minimal
products of spheres attain lambda_1 = -2n, again with constant first
eigenfunction, and |A| = sqrt(n) is the natural test field that exhibits
the value.  On a grid both values are certified from the pencil's nest of
1-D pencils (non-negative weights and link coefficients, positive masses,
V = c B); a pencil that fails the check is refused, not solved.  The
pointwise identity

    Delta |A|^2 = 2 |grad A|^2 + 2 n |A|^2 - 2 |A|^4

and its consequence ``|A| Delta |A| >= (2/n) |grad |A||^2 + n |A|^2 - |A|^4``
hold on every minimal hypersurface of the sphere and are checked by finite
differences with covariant (Christoffel) corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators
from .errors import AssemblyFailure, NonMinimal, ZeroTestFunction
from .fields import ConstantField, tangential_gradient_sq
from .geometry import (
    ParametrizedHypersurface,
    _capped_per_axis,
    _diag_embed,
    _difference,
    _stencil,
    chart_quadrature,
    sample_points,
    sqrt_det_metric,
)
from .sampling import _CHUNK_ROWS

ORDER_FLOOR = 1e-9  # errors below it sit at the solver floor (observed_order)


@dataclass
class EigenResult:
    """Smallest stability eigenvalue with its eigenvector and residual."""

    lambda1: float
    eigenvector: Optional[np.ndarray]   # the B-normalized constant, read-only
                                        # (a broadcast view); None when analytic
    residual: float                     # ||(S-V)x - lambda B x|| / ||B x||
    backend: str                        # "analytic" | "numeric"
    converged: bool = True              # always: every result is certified or exact

    def record(self, surface, resolution=None):
        return {
            "surface": surface,
            "backend": self.backend,
            "resolution": resolution,
            "lambda1": self.lambda1,
            "residual": self.residual,
        }


def first_stability_eigenvalue(M: ParametrizedHypersurface, resolution) -> EigenResult:
    """Smallest eigenvalue of M's stability pencil on a tensor grid of ``resolution``.

    The pencil is built as its nest of 1-D pencils
    (:func:`.operators.axis_pencils`) and certified on them, in
    O(resolution * n): when every 1-D weight and link coefficient is
    finite and >= 0 and every mass is finite and positive, each edge
    weight of the n-D pencil, a product of these, is >= 0, so S is
    positive semidefinite with S 1 = 0, and B is positive.  As V = c B,

        lambda_1 = min x^T (S - V) x / x^T B x = -c,

    attained by the constant vector.  The eigenvector is the B-normalized
    constant as a read-only ``np.broadcast_to`` view, its normalization
    the product of the per-axis mass sums, and its residual is exactly 0:
    S 1 = 0 and V 1 = c B 1.  A pencil that fails the certificate -- a
    negative or non-finite 1-D weight or link coefficient, a mass that is
    not positive, a potential that is not finite -- raises
    :class:`AssemblyFailure`, and nothing is solved: no surface the
    library builds produces one.
    """
    pencil = operators.axis_pencils(M, resolution)
    # min and max are NaN where an entry is, and every comparison with NaN fails
    signs = np.concatenate([p.ravel() for p in pencil.weights + pencil.links])
    masses = np.concatenate(pencil.masses)
    if not (0.0 <= signs.min() and signs.max() < math.inf and 0.0 < masses.min()
            and masses.max() < math.inf and math.isfinite(pencil.potential)):
        raise AssemblyFailure(
            "stability pencil fails the certificate: a 1-D weight or link coefficient is "
            "negative or not finite, a mass is not positive, or the potential is not finite"
        )
    mass = math.prod(float(m.sum()) for m in pencil.masses)
    x = np.broadcast_to(1.0 / math.sqrt(mass), (pencil.size,))
    return EigenResult(-pencil.potential, x, 0.0, "numeric")


def rayleigh_quotient(M: ParametrizedHypersurface, f, resolution=48) -> float:
    """Stability Rayleigh quotient of a test field (an ambient field of :mod:`.fields`).

    Integrates |grad f|^2 - (|A|^2 + n) f^2 and f^2 with the chart
    quadrature of ``resolution`` nodes per axis, capped in high dimension
    as the strata of a stratified integral are (9 per axis at n = 6),
    |grad f|^2 from the field's ambient gradient through
    :func:`.fields.tangential_gradient_sq`.  The per-node density, f and
    |grad f|^2 are taken ``_CHUNK_ROWS`` nodes at a time, so the metric,
    the embedding and the normal frame never hold the whole grid.
    """
    chart = M.chart
    nodes, weights = chart_quadrature(chart, _capped_per_axis(resolution, chart.dim))
    w, vals, grads = np.empty((3, len(nodes)))
    for lo in range(0, len(nodes), _CHUNK_ROWS):
        U = nodes[lo:lo + _CHUNK_ROWS]
        w[lo:lo + len(U)] = weights[lo:lo + len(U)] * sqrt_det_metric(chart, U)
        X = chart.embed(U)
        vals[lo:lo + len(U)] = f.value(X)
        grads[lo:lo + len(U)] = tangential_gradient_sq(M, X, f.ambient_gradient(X))
    num = float(w @ (grads - float(M.potential) * vals**2))
    denom = float(w @ vals**2)
    if denom <= 1e-28 * float(w.sum()):
        raise ZeroTestFunction("test field vanishes identically at the quadrature nodes")
    return num / denom


def test_function_A(M: ParametrizedHypersurface) -> ConstantField:
    """The |A| test field: the constant sqrt of the surface's exact |A|^2
    (sqrt(n) on the products, zero on equators)."""
    return ConstantField(math.sqrt(M.norm_A_sq))


# ---------------------------------------------------------------------------
# curvature identity checks
# ---------------------------------------------------------------------------

@dataclass
class SimonsReport:
    """Pointwise residuals of the curvature identity and its inequality form."""

    max_identity_residual: float
    max_inequality_violation: float
    sample_count: int


def _christoffel(gdiag, g_plus, g_minus, step):
    """Christoffel symbols of a diagonal metric by central differences.

    From the metric diagonal g_aa at U and at the :func:`_stencil` points
    U +/- step e_a, returns (gdiag, ginv_diag, gamma) with
    gamma[:, d, c, a] = Gamma^d_{ca} = 1/2 g^{dd} (d_c g_da + d_a g_dc - d_d g_ca).
    """
    m, n = gdiag.shape
    # dg[:, c, a, b] = d_c g_ab
    dg = np.moveaxis(
        _difference([_diag_embed(g) for g in g_plus], [_diag_embed(g) for g in g_minus], step), -1, 1
    )
    ginv = 1.0 / gdiag
    # gamma[:, d, c, a] = Gamma^d_{ca} = 1/2 g^{dd} (d_c g_da + d_a g_dc - d_d g_ca)
    gamma = np.empty((m, n, n, n))
    for d in range(n):
        gamma[:, d] = 0.5 * ginv[:, d, None, None] * (
            dg[:, :, d, :] + dg[:, :, :, d].transpose(0, 2, 1) - dg[:, d, :, :]
        )
    return gdiag, ginv, gamma


def _christoffel_trace(ginv, gamma):
    """g^{cc} Gamma^e_{cc} from the ``ginv``, ``gamma`` of :func:`_christoffel`:
    the first-order term of every Laplacian on those points."""
    return np.einsum("mc,mecc->me", ginv, gamma, optimize=True)


def _laplacian(f0, f_plus, f_minus, step, ginv, corr):
    """Laplace-Beltrami ``Delta f = g^{cc} (d^2_cc f - Gamma^e_{cc} d_e f)`` of a
    diagonal metric by central differences, from the values of f at U and at
    the :func:`_stencil` points, ``ginv`` of :func:`_christoffel` and ``corr``
    of :func:`_christoffel_trace`."""
    df = _difference(f_plus, f_minus, step)
    ddf = np.stack([(fp - 2 * f0 + fm) / step**2 for fp, fm in zip(f_plus, f_minus)], axis=-1)
    return np.einsum("mc,mc->m", ginv, ddf) - np.einsum("me,me->m", corr, df)


def _gradient_sq(f_plus, f_minus, step, gdiag):
    """``|grad f|^2 = g^{cc} (d_c f)^2`` of a diagonal metric by central
    differences, from the values of f at the :func:`_stencil` points."""
    df = _difference(f_plus, f_minus, step)
    return np.sum(df * df / gdiag, axis=-1)


def simons_check(M: ParametrizedHypersurface, samples=200, seed=0, step=2e-3) -> SimonsReport:
    """Check Delta|A|^2 = 2|grad A|^2 + 2n|A|^2 - 2|A|^4 at sampled points.

    Derivatives of A use central differences of its chart components with
    Christoffel corrections (Christoffels themselves from differences of the
    metric); Laplacians of |A|^2 and |A| use the same stencils.  The
    closed-form shape arrays are evaluated twice: once at the sample
    points, and once at the 2n stencil point sets U +/- step e_a stacked
    into one batch, whatever n is.  The metric, A, |A|^2 and |A| are all
    read from those.  The inequality form is scored one-sidedly as
    max(0, RHS - LHS).

    Raises :class:`NonMinimal` if |H| > 1e-6 at any sample, before any
    stencil work: the identity is only claimed for minimal surfaces.
    """
    n = M.dimension
    U, _ = sample_points(M, samples, seed=seed, pad=2.0 * step)
    m = U.shape[0]

    gdiag0, _, A0, H0, a2_0 = M.shape_batch(U)
    if np.any(np.abs(H0) > 1e-6):
        raise NonMinimal(f"|H| up to {np.abs(H0).max():.3e} at samples; identity needs H = 0")

    plus, minus = _stencil(U, step)
    # one batch for all 2n point sets; stencil[i][j] is array i at point set j
    stencil = [a.reshape(2 * n, m, *a.shape[1:])
               for a in M.shape_batch(np.concatenate(plus + minus))]

    def at_stencil(i):
        # array i of shape_batch at the plus and at the minus points
        return stencil[i][:n], stencil[i][n:]

    _, ginv, gamma = _christoffel(gdiag0, *at_stencil(0), step)
    # dA[:, c, a, b] = d_c A_ab
    dA = np.moveaxis(_difference(*at_stencil(2), step), -1, 1)
    # nabla_c A_ab = d_c A_ab - Gamma^d_{ca} A_db - Gamma^d_{cb} A_ad
    nabla = (
        dA
        - np.einsum("mdca,mdb->mcab", gamma, A0, optimize=True)
        - np.einsum("mdcb,mad->mcab", gamma, A0, optimize=True)
    )
    # the path optimize=True finds at every n >= 2 (at n = 1, A = 0 and any
    # order gives 0), given as a literal because optimize=True searches for
    # it again on every call
    grad_A_sq = np.einsum(
        "mc,ma,mb,mcab,mcab->m", ginv, ginv, ginv, nabla, nabla,
        optimize=["einsum_path", (3, 4), (0, 3), (0, 2), (0, 1)],
    )

    a2_plus, a2_minus = at_stencil(4)
    normA0 = np.sqrt(a2_0)
    norm_plus, norm_minus = list(map(np.sqrt, a2_plus)), list(map(np.sqrt, a2_minus))
    corr = _christoffel_trace(ginv, gamma)   # shared by both Laplacians
    lap_a2 = _laplacian(a2_0, a2_plus, a2_minus, step, ginv, corr)
    lap_norm = _laplacian(normA0, norm_plus, norm_minus, step, ginv, corr)
    grad_norm_sq = _gradient_sq(norm_plus, norm_minus, step, gdiag0)

    identity = np.abs(lap_a2 - (2 * grad_A_sq + 2 * n * a2_0 - 2 * a2_0**2))
    rhs9 = (2.0 / n) * grad_norm_sq + n * a2_0 - a2_0**2
    lhs9 = normA0 * lap_norm
    violation = np.maximum(0.0, rhs9 - lhs9)
    return SimonsReport(float(identity.max()), float(violation.max()), m)


def simons_refinement(M, steps=(0.08, 0.04, 0.02), samples=100, seed=0):
    """Identity residual at decreasing difference steps (for observed-order checks)."""
    return [simons_check(M, samples=samples, seed=seed, step=h).max_identity_residual for h in steps]


def observed_order(errors):
    """Least log2 ratio of successive errors; inf when all sit at the solver floor
    (``ORDER_FLOOR``).

    An error sequence already at the floor (constant eigenvectors are exact
    discrete eigenvectors, so lambda_1 carries no discretization error on
    the product families) is reported as converged beyond measurement.
    """
    errors = [abs(e) for e in errors]
    if max(errors) < ORDER_FLOOR:
        return float("inf")
    rates = []
    for a, b in zip(errors, errors[1:]):
        if b < ORDER_FLOOR and a < ORDER_FLOOR:
            continue
        rates.append(np.log2(max(a, ORDER_FLOOR) / max(b, ORDER_FLOOR)))
    return float(min(rates)) if rates else float("inf")
