"""Scalar fields on a minimal hypersurface of the unit sphere, and their surface calculus.

Every field is a function on the ambient space R^(n+2): it answers
``value(X)``, ``ambient_gradient(X)`` and ``ambient_hessian(X)`` at points
X (..., n+2), as :class:`~spherestab.cutoff.CutoffField` does.  Its
surface derivatives at surface points X all come from the helpers below,
which read the normal frame there: the position x and the chart's unit
normal nu (``Chart.normal``) are an orthonormal basis of the normal space
of M in R^(n+2), so the tangent part of a vector is what is left when
both are projected out.

* :func:`tangential_gradient_sq`, |grad_M f|^2 = |t|^2 with
  t = grad f - <grad f, x> x - <grad f, nu> nu;
* :func:`surface_laplacian`, Delta_M f = tr_M Hess f + <grad f, H_vec>
  with tr_M Hess f = tr Hess f - x^T Hess f x - nu^T Hess f nu and the
  mean curvature vector H_vec = -n x of a minimal hypersurface of the
  unit sphere in R^(n+2) (Takahashi: Delta_M x = -n x).
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


def tangential_gradient_sq(M, X, ambient_grad):
    """|grad_M f|^2 at the surface points X from the ambient gradient.

    The tangent part t is formed as a vector and then squared, so nothing
    cancels as it would in |grad f|^2 - <grad f, x>^2 - <grad f, nu>^2.
    """
    X = np.asarray(X, dtype=float)
    grad = np.asarray(ambient_grad, dtype=float)
    nu = M.chart.normal(X)
    t = grad - _dot(grad, X)[..., None] * X - _dot(grad, nu)[..., None] * nu
    return _dot(t, t)


def surface_laplacian(M, X, ambient_grad, ambient_hess):
    """Delta_M f = tr_M Hess f + <grad f, H_vec> at the surface points X.

    ``ambient_grad`` (points, n+2) and ``ambient_hess`` (points, n+2, n+2)
    are the field's Euclidean derivatives at X.  The tangential trace is the
    full trace less the two normal directions x and nu; H_vec = -n x is the
    mean curvature vector of a minimal hypersurface of the unit sphere.
    """
    X = np.asarray(X, dtype=float)
    hess = np.asarray(ambient_hess, dtype=float)
    nu = M.chart.normal(X)
    trace = np.trace(hess, axis1=-2, axis2=-1) - _form(hess, X) - _form(hess, nu)
    return trace - M.dimension * _dot(ambient_grad, X)


def _dot(a, b):
    """Row-wise inner products along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _form(hess, v):
    """Row-wise quadratic forms v^T Hess v."""
    return _dot(v, np.matmul(hess, v[..., None])[..., 0])
