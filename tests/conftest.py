import pytest

from oracles import boundary_field, coupling
from rfim1d import Contour, CouplingSpec, Volume


@pytest.fixture
def spec():
    return CouplingSpec(alpha=0.55, j1=10.0)


@pytest.fixture
def ten_site_volume():
    return Volume(0, 9)


@pytest.fixture
def nested_contour():
    """Two-class contour (masses 1 and 8) realizable on a 10-site volume."""
    return Contour.of([(0, 8), (3, 4)])


def double_sum_energy(spec, vol, spins, boundary=+1, field=None, theta=0.0):
    """H_0 + theta * G summed pair by pair from the ``coupling`` and
    ``boundary_field`` oracles: the test oracle for ``rfim1d.model.energy``."""
    s = [int(x) for x in spins]
    sites = list(vol.sites())
    e = 0.0
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            e += coupling(spec, b - a) * (1 - s[a] * s[b])
        e += boundary_field(spec, sites[a], vol) * (1 - boundary * s[a])
        if field is not None:
            e -= theta * field[a] * s[a]
    return e


@pytest.fixture
def energy_oracle():
    return double_sum_energy
