"""Scalar fields on a parametrized hypersurface.

A field knows its values at chart parameter points, its chart gradient,
its surface Laplacian and, when analytically available, its squared
tangential gradient.  The base class leaves all but the last abstract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ParametrizedHypersurface


class SurfaceField:
    """Base field: subclasses override ``value``, ``chart_gradient`` and ``laplacian``."""

    def value(self, M, U):
        raise NotImplementedError

    def chart_gradient(self, M, U, jac=None):
        """Chart partials d_a f; ``jac`` is the chart Jacobian at U if the caller has it."""
        raise NotImplementedError

    def gradient_sq(self, M, U):
        """|grad f|^2 at the points, or None when not analytically known."""
        return None

    def laplacian(self, M, U):
        """Delta_M f at the points."""
        raise NotImplementedError


@dataclass
class ConstantField(SurfaceField):
    constant: float

    def value(self, M, U):
        U = np.asarray(U, dtype=float)
        return np.full(U.shape[:-1], self.constant)

    def chart_gradient(self, M, U, jac=None):
        return np.zeros(np.shape(U))

    def gradient_sq(self, M, U):
        U = np.asarray(U, dtype=float)
        return np.zeros(U.shape[:-1])

    def laplacian(self, M, U):
        U = np.asarray(U, dtype=float)
        return np.zeros(U.shape[:-1])


@dataclass
class AmbientCoordinateField(SurfaceField):
    """Restriction of a scaled ambient coordinate, f = scale * x_index.

    On the built-in minimal families these are eigenfunctions of the
    Laplacian: Delta_M x_j = -n x_j (the inclusion of a minimal hypersurface
    of the unit sphere is harmonic up to the radial tension -n x), which
    gives exact gradients and Laplacians.
    """

    index: int
    scale: float = 1.0

    def value(self, M, U):
        return self.scale * M.embed(U)[..., self.index]

    def chart_gradient(self, M, U, jac=None):
        """Chart partials d_a f; ``jac`` is the chart Jacobian at U if the caller has it."""
        if jac is None:
            jac = M.chart.jacobian(np.asarray(U, dtype=float))
        return self.scale * jac[..., self.index, :]

    def gradient_sq(self, M, U):
        df = self.chart_gradient(M, U)
        gdiag = M.chart.metric_diag(np.asarray(U, dtype=float))
        return np.sum(df * df / gdiag, axis=-1)

    def laplacian(self, M, U):
        # Delta x = -n x on a minimal hypersurface of the unit sphere
        return -M.dimension * self.value(M, U)


def grad_inner(
    M: ParametrizedHypersurface, U, f: SurfaceField, g: SurfaceField, jac=None, gdiag=None
):
    """<grad f, grad g> from the two fields' chart gradients.

    ``jac`` and ``gdiag`` are the chart Jacobian and metric diagonal at U,
    evaluated here when the caller does not pass them.
    """
    df = f.chart_gradient(M, U, jac=jac)
    dg = g.chart_gradient(M, U, jac=jac)
    if gdiag is None:
        gdiag = M.chart.metric_diag(np.asarray(U, dtype=float))
    return np.sum(df * dg / gdiag, axis=-1)
