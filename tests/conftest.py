import pytest

from rfim1d import Contour, CouplingSpec, Triangle, Volume


@pytest.fixture
def spec():
    return CouplingSpec(alpha=0.55, j1=10.0)


@pytest.fixture
def ten_site_volume():
    return Volume(0, 9)


@pytest.fixture
def nested_contour():
    """Two-class contour (masses 1 and 8) realizable on a 10-site volume."""
    return Contour.of([Triangle(0, 8), Triangle(3, 4)])
