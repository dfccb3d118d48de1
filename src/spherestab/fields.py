"""Scalar fields on a minimal hypersurface of the unit sphere, and their surface calculus.

Every field is a function on the ambient space R^(n+2): it answers
``value(X)``, ``ambient_gradient(X)`` and ``ambient_hessian(X)`` at points
X (..., n+2), as :class:`~spherestab.cutoff.CutoffField` does.  Its
surface derivatives at the surface points X = x(U) all come from the
helpers below, which read the chart frame at the chart points U:

* :func:`chart_gradient`, the chart partials d_a f = J^T grad f;
* :func:`tangential_gradient_sq`, |grad_M f|^2 = g^aa (d_a f)^2;
* :func:`surface_laplacian`, Delta_M f = tr_M Hess f + <grad f, H_vec>
  with the mean curvature vector H_vec = -n x of a minimal hypersurface
  of the unit sphere in R^(n+2) (Takahashi: Delta_M x = -n x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _zero_hessian(X):
    shape = np.shape(X)
    return np.zeros(shape + shape[-1:])


@dataclass
class ConstantField:
    constant: float

    def value(self, X):
        return np.full(np.shape(X)[:-1], self.constant)

    def ambient_gradient(self, X):
        return np.zeros(np.shape(X))

    def ambient_hessian(self, X):
        return _zero_hessian(X)


@dataclass
class AmbientCoordinateField:
    """A scaled ambient coordinate, f = scale * x_index.

    On a minimal hypersurface of the unit sphere it is an eigenfunction of
    the Laplacian, Delta_M x_j = -n x_j, which :func:`surface_laplacian`
    gives from the zero Hessian and the mean curvature vector alone.
    """

    index: int
    scale: float = 1.0

    def value(self, X):
        return self.scale * np.asarray(X, dtype=float)[..., self.index]

    def ambient_gradient(self, X):
        grad = np.zeros(np.shape(X))
        grad[..., self.index] = self.scale
        return grad

    def ambient_hessian(self, X):
        return _zero_hessian(X)


def chart_gradient(M, U, ambient_grad, jac=None):
    """Chart partials d_a f = J^T grad f; ``jac`` is the chart Jacobian at U if the caller has it."""
    if jac is None:
        jac = M.chart.jacobian(np.asarray(U, dtype=float))
    grad = np.asarray(ambient_grad, dtype=float)
    # J^T grad per row as one batched matmul, in the operand layout that
    # einsum("pia,pi->pa", optimize=True) hands to matmul: the same rounding,
    # without a contraction-path search on every call
    return np.matmul(jac.swapaxes(-1, -2), grad.reshape(grad.shape + (1,)))[..., 0]


def tangential_gradient_sq(M, U, ambient_grad):
    """|grad_M f|^2 from an ambient gradient via the chart frame."""
    U = np.asarray(U, dtype=float)
    return np.sum(chart_gradient(M, U, ambient_grad) ** 2 / M.chart.metric_diag(U), axis=-1)


def surface_laplacian(M, U, X, ambient_grad, ambient_hess, jac=None):
    """Delta_M f = tr_M Hess f + <grad f, H_vec> at the surface points X = x(U).

    ``ambient_grad`` (points, n+2) and ``ambient_hess`` (points, n+2, n+2)
    are the field's Euclidean derivatives at X; ``jac`` is the chart
    Jacobian at U if the caller has it.  H_vec = -n x is the mean
    curvature vector of a minimal hypersurface of the unit sphere.
    """
    U = np.asarray(U, dtype=float)
    if jac is None:
        jac = M.chart.jacobian(U)
    trace = np.einsum("pia,pij,pja,pa->p", jac, ambient_hess, jac, 1.0 / M.chart.metric_diag(U),
                      optimize=["einsum_path", (0, 1), (0, 2), (0, 1)])  # the path optimize=True finds
    drift = -M.dimension * np.einsum("pj,pj->p", ambient_grad, X)
    return trace + drift
