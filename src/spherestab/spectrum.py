"""First stability eigenvalues, Rayleigh quotients and curvature identities.

The first stability eigenvalue is

    lambda_1 = inf_f  ( int |grad f|^2 - (|A|^2 + n) f^2 )  /  int f^2,

the infimum of the stability Rayleigh quotient.  Benchmarks verified here:
equators attain lambda_1 = -n with the constant eigenfunction; the minimal
products of spheres attain lambda_1 = -2n, again with constant first
eigenfunction, and |A| = sqrt(n) is the natural test field that exhibits
the value.  On an assembled pencil both values are certified from its
edge form (non-negative edge weights and a bound ptp(V_ii / B_ii) on the
distance to the constant vector's Rayleigh quotient); a pencil that fails
the check is refused, not solved.  The pointwise identity

    Delta |A|^2 = 2 |grad A|^2 + 2 n |A|^2 - 2 |A|^4

and its consequence ``|A| Delta |A| >= (2/n) |grad |A||^2 + n |A|^2 - |A|^4``
hold on every minimal hypersurface of the sphere and are checked by finite
differences with covariant (Christoffel) corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AssemblyFailure, NonMinimal, UnsupportedFamily, ZeroTestFunction
from .fields import ConstantField, SurfaceField
from .geometry import (
    ParametrizedHypersurface,
    _diag_embed,
    _difference,
    _stencil,
    chart_quadrature,
    sample_points,
    sqrt_det_metric,
)
from .operators import AnalyticSpectrum, DiscreteOperator, assemble_jacobi

CERT_TOL = 1e-8   # the residual bar the CLI asserts on every numeric rung
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


def first_stability_eigenvalue(op: Union[DiscreteOperator, AnalyticSpectrum]) -> EigenResult:
    """Smallest eigenvalue of the stability pencil.

    A numeric operator is first certified on its edge form, in O(size):
    when every edge weight is >= 0, S is positive semidefinite with the
    constants as its kernel, and :func:`_constant_mode_gap` bounds the
    distance from lambda_1 to the constant vector's Rayleigh quotient by
    ptp(V_ii / B_ii).  When that is at most ``CERT_TOL``, lambda_1 is the
    Rayleigh quotient, and it is read off the open-grid arrays of B and V
    with nothing of the grid's size built: S 1 = 0 exactly for finite
    weights, so (S - V) 1 = -V, and each sum over the grid is an open-grid
    sum times the number of nodes each open-grid entry stands for.  The
    eigenvector is then the B-normalized constant as a read-only
    ``np.broadcast_to`` view, and the residual is ||V + lambda_1 B|| / ||B||.
    An operator that fails the certificate -- a negative or non-finite
    weight, a mass entry that is not positive, or V / B off a constant by
    more than ``CERT_TOL`` -- raises :class:`AssemblyFailure` with the gap,
    and nothing is solved: no surface the library builds produces one.
    The analytic backend is exact: the bottom of the enumerated -Delta
    spectrum (the constant mode's 0) minus ``SphereProduct.potential``.
    """
    if isinstance(op, AnalyticSpectrum):
        lam = float(op.eigenvalues(1)[0]) - float(op.product.potential)
        return EigenResult(lam, None, 0.0, "analytic")

    gap = _constant_mode_gap(op)
    if gap > CERT_TOL:
        raise AssemblyFailure(
            f"stability pencil fails the constant-mode certificate: gap {gap:.3e} > {CERT_TOL:g}"
        )
    b, v = np.broadcast_arrays(op.node_mass, op.node_potential)
    copies = op.size // b.size
    mass = float(np.sum(b)) * copies
    lam = -float(np.sum(v)) * copies / mass
    residual = math.sqrt(float(np.sum((v + lam * b) ** 2)) / float(np.sum(b * b)))
    x = np.broadcast_to(1.0 / math.sqrt(mass), (op.size,))
    return EigenResult(lam, x, residual, "numeric")


def _constant_mode_gap(op):
    """Bound on |lambda_1 - R(1)| from the edge form of the pencil; inf if it fails.

    R(1) = -sum(V_ii) / sum(B_ii) is the Rayleigh quotient of the constant
    vector.  S is the sum over edges ij of w_ij (e_i - e_j)(e_i - e_j)^T,
    so with finite weights w_ij >= 0 it is positive semidefinite with
    S 1 = 0, and for B_ii > 0

        -max(V_ii / B_ii) <= lambda_1 <= R(1) <= -min(V_ii / B_ii),

    and the bound is ptp(V_ii / B_ii).  Symmetry, the diagonal form of B
    and V and the zero row sums hold by construction of the edge form;
    what is checked is the sign and finiteness of the stored arrays.
    """
    if not all(np.all(np.isfinite(w)) and np.all(w >= 0) for w in op.weights):
        return np.inf
    b = op.node_mass
    if not (np.all(np.isfinite(b)) and np.all(b > 0)):
        return np.inf
    gap = float(np.ptp(op.node_potential / b))
    return gap if np.isfinite(gap) else np.inf


def rayleigh_quotient(
    M: ParametrizedHypersurface,
    f: SurfaceField,
    resolution=48,
    method="auto",
) -> float:
    """Stability Rayleigh quotient of a test field.

    ``method="operator"`` evaluates x^T (S - V) x / x^T B x on the assembled
    grid with ``DiscreteOperator.apply`` (so the value is always >= the
    numeric lambda_1 of that grid);
    ``method="quadrature"`` integrates |grad f|^2 - (|A|^2 + n) f^2 with the
    chart quadrature, using the field's analytic gradient when it has one
    and central differences otherwise.  ``"auto"`` picks quadrature when an
    analytic gradient exists, otherwise the operator path.
    """
    if method == "auto":
        probe = f.gradient_sq(M, M.chart.sample_box().mean(axis=1)[None, :])
        method = "quadrature" if probe is not None else "operator"

    if method == "operator":
        op = assemble_jacobi(M, resolution)
        x = np.asarray(f.value(M, op.nodes), dtype=float)
        b = op.mass_diagonal
        denom = float(x @ (b * x))
        if denom <= 1e-28 * b.sum():
            raise ZeroTestFunction("test field vanishes identically on the grid")
        return float(x @ op.apply(x)) / denom

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    chart = M.chart
    if chart.dim <= 3:
        nodes, weights = chart_quadrature(chart, resolution)
        w = weights * sqrt_det_metric(chart, nodes)
    else:
        # high-dimensional charts: sampled quadrature with density weights
        nodes, _ = sample_points(M, max(2000, resolution), seed=0)
        w = sqrt_det_metric(chart, nodes)
    vals = np.asarray(f.value(M, nodes), dtype=float)
    grads = f.gradient_sq(M, nodes)
    if grads is None:
        grads = surface_gradient_sq_fd(M, nodes, lambda pts: f.value(M, pts), step=1e-5)
    num = float(w @ (grads - float(M.product.potential) * vals**2))
    denom = float(w @ vals**2)
    if denom <= 1e-28 * float(w.sum()):
        raise ZeroTestFunction("test field vanishes identically at the quadrature nodes")
    return num / denom


def test_function_A(M: ParametrizedHypersurface) -> SurfaceField:
    """The |A| test field: the constant sqrt of the surface's exact |A|^2
    (sqrt(n) on the products, zero on equators)."""
    return ConstantField(math.sqrt(M.product.norm_A_sq))


# ---------------------------------------------------------------------------
# curvature identity checks
# ---------------------------------------------------------------------------

@dataclass
class SimonsReport:
    """Pointwise residuals of the curvature identity and its inequality form."""

    max_identity_residual: float
    max_inequality_violation: float
    sample_count: int


def christoffel_fd(M: ParametrizedHypersurface, U, step=2e-3):
    """Christoffel symbols from central differences of the (diagonal) metric.

    Returns (gdiag, ginv_diag, gamma) with gamma[:, d, c, a] = Gamma^d_{ca}.
    """
    metric = M.chart.metric_diag
    U = np.asarray(U, dtype=float)
    plus, minus = _stencil(U, step)
    return _christoffel(metric(U), [metric(P) for P in plus], [metric(P) for P in minus], step)


def _christoffel(gdiag, g_plus, g_minus, step):
    """:func:`christoffel_fd`'s triple from the metric diagonal at U and at the
    :func:`_stencil` points U +/- step e_a."""
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


def surface_laplacian_fd(M, U, fn, step=2e-3, parts=None):
    """Laplace-Beltrami of a chart-parameter callable by central differences.

    ``Delta f = g^{cc} (d^2_cc f - Gamma^e_{cc} d_e f)`` on the diagonal-metric
    charts of the built-in families.  ``parts`` may carry a precomputed
    (gdiag, ginv, gamma) triple from :func:`christoffel_fd`.
    """
    U = np.asarray(U, dtype=float)
    _, ginv, gamma = parts if parts is not None else christoffel_fd(M, U, step)
    plus, minus = _stencil(U, step)
    return _laplacian(fn(U), [fn(P) for P in plus], [fn(P) for P in minus], step, ginv, gamma)


def _laplacian(f0, f_plus, f_minus, step, ginv, gamma):
    """:func:`surface_laplacian_fd` from the values at U and at the :func:`_stencil` points."""
    df = _difference(f_plus, f_minus, step)
    ddf = np.stack([(fp - 2 * f0 + fm) / step**2 for fp, fm in zip(f_plus, f_minus)], axis=-1)
    corr = np.einsum("mc,mecc->me", ginv, gamma, optimize=True)
    return np.einsum("mc,mc->m", ginv, ddf) - np.einsum("me,me->m", corr, df)


def surface_gradient_sq_fd(M, U, fn, step=2e-3):
    """|grad f|^2 = g^{cc} (d_c f)^2 by central differences (diagonal metric)."""
    U = np.asarray(U, dtype=float)
    plus, minus = _stencil(U, step)
    return _gradient_sq([fn(P) for P in plus], [fn(P) for P in minus], step, M.chart.metric_diag(U))


def _gradient_sq(f_plus, f_minus, step, gdiag):
    """:func:`surface_gradient_sq_fd` from the values at the :func:`_stencil` points."""
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
    if not M.has_closed_form:
        raise UnsupportedFamily("identity check needs the closed-form geometry backend")
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
    lap_a2 = _laplacian(a2_0, a2_plus, a2_minus, step, ginv, gamma)
    lap_norm = _laplacian(normA0, norm_plus, norm_minus, step, ginv, gamma)
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
