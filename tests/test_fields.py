"""The one surface calculus of ambient fields, against chart-frame, chart-free and
finite-difference oracles."""

import numpy as np
import pytest

from spherestab import cutoff as cut
from spherestab import geometry as geo
from spherestab.fields import AmbientCoordinateField, surface_laplacian, tangential_gradient_sq

import oracles

SURFACES = [("clifford", kl) for kl in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]] + [
    ("equator", n) for n in (2, 3, 4)
]


def _surface(family, param):
    return geo.clifford_hypersurface(param) if family == "clifford" else geo.equator(param)


@pytest.mark.parametrize("family, param", SURFACES, ids=[f"{f}{p}" for f, p in SURFACES])
def test_tangential_gradient_of_coordinates_is_chart_free(family, param):
    # grad_M x_j is e_j less its components along x and the unit normal nu,
    # so |grad_M (s x_j)|^2 = s^2 (1 - x_j^2 - nu_j^2), with no chart in it
    M = _surface(family, param)
    U, X = geo.sample_points(M, 200, seed=5)
    nu = M.shape_batch(U)[1]
    s = 1.7
    for j in range(M.dimension + 2):
        f = AmbientCoordinateField(j, scale=s)
        gsq = tangential_gradient_sq(M, X, f.ambient_gradient(X))
        assert np.max(np.abs(gsq - s**2 * (1.0 - X[:, j] ** 2 - nu[:, j] ** 2))) <= 1e-12


@pytest.mark.parametrize("kl", [(1, 1), (1, 2), (2, 1)], ids=str)
def test_surface_laplacian_matches_finite_differences(kl):
    # a product cutoff over four Euclidean balls, where its Laplacian is
    # neither zero nor a single ramp's: the ambient calculus against the
    # covariant central differences of phi o x (order 2; 1.7-2.8e-5 of
    # max |Delta phi| at step 1e-3)
    M = geo.clifford_hypersurface(kl)
    _, centers = geo.sample_points(M, 4, seed=3, pad=0.3)
    field = cut.CutoffField(cut.BallCover(centers, np.full(4, 0.5), M.dimension, 0.0, 1e9, "euclidean"),
                            "product")
    U, X = geo.sample_points(M, 4000, seed=4, pad=0.05)
    phi = field.value(X)
    ramp = (phi > 0.05) & (phi < 0.95)
    assert ramp.sum() > 100
    U, X = U[ramp], X[ramp]
    lap = surface_laplacian(M, X, field.ambient_gradient(X), field.ambient_hessian(X))
    fd = oracles.surface_laplacian_fd(M, U, lambda V: field.value(M.chart.embed(V)), step=1e-3)
    assert np.max(np.abs(lap - fd)) <= 1e-4 * np.max(np.abs(lap))


def _rows_near_every_pole(M, count, rng):
    """Random chart rows, then ``count`` more per polar face: one polar angle
    within ``POLE_MARGIN`` of 0 or of pi, every other angle random."""
    box = M.chart.box
    U = [rng.uniform(box[:, 0], box[:, 1], size=(count, M.dimension))]
    for a in np.flatnonzero(~np.asarray(M.chart.periodic)):
        for face in (0.0, np.pi):
            V = rng.uniform(box[:, 0], box[:, 1], size=(count, M.dimension))
            V[:, a] = np.abs(face - rng.uniform(0.0, geo.POLE_MARGIN, size=count))
            U.append(V)
    return np.concatenate(U)


@pytest.mark.parametrize("family, param", SURFACES, ids=[f"{f}{p}" for f, p in SURFACES])
def test_normal_frame_kernels_match_chart_frame(family, param):
    # projecting x and nu out of a random ambient gradient and Hessian gives
    # what the pull-back through the oracle's chart Jacobian gives, at random
    # rows and at rows within the pole margin of every polar face, to 1e-13
    # of the row's largest input
    M = _surface(family, param)
    rng = np.random.default_rng(sum(map(ord, f"{family}{param}")))
    U = _rows_near_every_pole(M, 300, rng)
    X = M.chart.embed(U)
    grad = rng.normal(size=X.shape)
    hess = rng.normal(size=X.shape + X.shape[-1:])
    hess = hess + hess.swapaxes(-1, -2)
    scale = np.max(np.abs(grad), axis=-1)
    gsq = tangential_gradient_sq(M, X, grad)
    assert np.max(np.abs(gsq - oracles.chart_frame_gradient_sq(M, U, grad)) / scale**2) <= 1e-13
    scale = np.maximum(np.max(np.abs(hess), axis=(-2, -1)), scale)
    lap = surface_laplacian(M, X, grad, hess)
    assert np.max(np.abs(lap - oracles.chart_frame_laplacian(M, U, X, grad, hess)) / scale) <= 1e-13
