import pytest

from spherestab import geometry as geo


@pytest.fixture(scope="session")
def torus():
    return geo.clifford_hypersurface((1, 1))


@pytest.fixture(scope="session")
def equator2():
    return geo.equator(2)


@pytest.fixture(scope="session")
def clifford_families():
    return {kl: geo.clifford_hypersurface(kl) for kl in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]}


@pytest.fixture(scope="session")
def torus_cv_geodesic(torus):
    return geo.measure_volume_growth(torus, metric="geodesic")


@pytest.fixture(scope="session")
def torus_cv_chord(torus):
    return geo.measure_volume_growth(torus, metric="euclidean")

