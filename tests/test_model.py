import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from rfim1d import (CapacityError, CouplingSpec, DisorderField,
                    SpinConfiguration, Volume, VolumeMismatchError,
                    exact_gibbs_marginal, field_energy, hamiltonian,
                    hamiltonian_deterministic)
from rfim1d.model import batch_h0, enumerate_spins


class TestVolume:
    def test_sites_and_bonds(self):
        vol = Volume(-2, 3)
        assert vol.n_sites == 6
        assert list(vol.sites()) == [-2, -1, 0, 1, 2, 3]
        assert list(vol.bonds()) == [-3, -2, -1, 0, 1, 2, 3]

    def test_centered_contains_origin(self):
        for n in (1, 2, 7, 10):
            assert 0 in Volume.centered(n)
            assert Volume.centered(n).n_sites == n

    def test_empty_volume_rejected(self):
        with pytest.raises(ValueError):
            Volume(2, 1)


class TestCoupling:
    def test_values(self):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        assert spec.coupling(1) == 10.0
        assert spec.coupling(2) == pytest.approx(2.0 ** (0.55 - 2.0))
        assert spec.coupling(7) == pytest.approx(7.0 ** (0.55 - 2.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CouplingSpec(alpha=1.2)
        with pytest.raises(ValueError):
            CouplingSpec(j1=0.9)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.55, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    def test_power_tail_matches_hurwitz_zeta(self, alpha, d):
        # independent oracle: sum_{n>=d} n^(alpha-2) = zeta(2-alpha, d)
        spec = CouplingSpec(alpha=alpha)
        assert spec.power_tail(d) == pytest.approx(
            float(hurwitz_zeta(2.0 - alpha, d)), abs=1e-10)

    def test_tail_honours_j1_at_distance_one(self):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        assert spec.tail(1) == pytest.approx(10.0 + spec.power_tail(2), abs=1e-12)

    def test_boundary_field_symmetry(self):
        spec = CouplingSpec()
        vol = Volume(-3, 3)
        bf = [spec.boundary_field(i, vol) for i in vol.sites()]
        assert bf == pytest.approx(bf[::-1])
        # edges see the boundary more strongly than the centre
        assert bf[0] > bf[3]

    @pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
    def test_boundary_vector_matches_boundary_field(self, n):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        vol = Volume.centered(n)
        per_site = np.array([spec.boundary_field(i, vol) for i in vol.sites()])
        assert np.array_equal(spec.boundary_vector(vol), per_site)

    def test_coupling_matrix(self):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        jm = spec.coupling_matrix(Volume(0, 3))
        assert np.allclose(jm, jm.T)
        assert np.all(np.diag(jm) == 0.0)
        assert jm[0, 1] == 10.0
        assert jm[0, 2] == pytest.approx(2.0 ** (0.55 - 2.0))


class TestHamiltonian:
    def test_all_plus_ground_state_energy_zero(self, spec):
        vol = Volume(-4, 4)
        sigma = SpinConfiguration.homogeneous(vol, +1)
        assert hamiltonian_deterministic(spec, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_energy_nonnegative(self, spec):
        vol = Volume(0, 7)
        for code in range(2 ** 8):
            sigma = SpinConfiguration(vol, enumerate_spins(8)[code])
            assert hamiltonian_deterministic(spec, sigma) >= -1e-12

    def test_single_flip_cost(self, spec):
        # flipping one spin in the all-plus state costs 2 * sum_j J(|i-j|)
        vol = Volume(-5, 5)
        sigma = SpinConfiguration.homogeneous(vol, +1).flipped(0)
        expected = 2.0 * (sum(spec.coupling(abs(j)) for j in vol.sites() if j != 0)
                          + spec.boundary_field(0, vol))
        assert hamiltonian_deterministic(spec, sigma) == pytest.approx(expected, abs=1e-9)

    def test_field_energy_sign(self):
        vol = Volume(0, 3)
        sigma = SpinConfiguration.homogeneous(vol, +1)
        h = DisorderField(vol, np.array([1.0, -1.0, 1.0, 1.0]), theta=0.5)
        assert field_energy(sigma, h) == pytest.approx(-2.0)

    def test_field_volume_mismatch(self, spec):
        sigma = SpinConfiguration.homogeneous(Volume(0, 3), +1)
        h = DisorderField.generate(Volume(0, 4), 0.1, seed=0)
        with pytest.raises(VolumeMismatchError):
            hamiltonian(spec, sigma, h)

    def test_batch_matches_scalar(self, spec):
        vol = Volume(0, 5)
        spins = enumerate_spins(6)
        energies = batch_h0(spec, vol, spins)
        for code in (0, 1, 17, 63):
            sigma = SpinConfiguration(vol, spins[code])
            assert energies[code] == pytest.approx(
                hamiltonian_deterministic(spec, sigma), abs=1e-9)


class TestDisorderField:
    def test_bernoulli_values(self):
        h = DisorderField.generate(Volume(-8, 8), 0.2, seed=3)
        assert set(np.unique(h.values)) <= {-1.0, 1.0}

    def test_same_seed_same_field(self):
        a = DisorderField.generate(Volume(0, 9), 0.2, seed=42)
        b = DisorderField.generate(Volume(0, 9), 0.2, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_field_independent_of_volume(self):
        # the value at a site depends only on (seed, site), not on the window
        small = DisorderField.generate(Volume(-2, 2), 0.2, seed=7, distribution="gaussian")
        large = DisorderField.generate(Volume(-10, 10), 0.2, seed=7, distribution="gaussian")
        for i in range(-2, 3):
            assert small.value(i) == large.value(i)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DisorderField.generate(Volume(0, 3), 0.1, seed=0, distribution="cauchy")

    @pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
    def test_symmetric_distributions_centered(self, distribution):
        h = DisorderField.generate(Volume(0, 1999), 0.1, seed=1, distribution=distribution)
        assert abs(h.values.mean()) < 5.0 / math.sqrt(2000)


class TestExactMarginal:
    def test_infinite_temperature_is_half(self, spec):
        vol = Volume.centered(6)
        h = DisorderField.generate(vol, 0.3, seed=2)
        assert exact_gibbs_marginal(spec, vol, h, 0.3, 0.0, 0) == pytest.approx(0.5)

    def test_low_temperature_plus_boundary(self, spec):
        vol = Volume.centered(6)
        p = exact_gibbs_marginal(spec, vol, None, 0.0, 5.0, 0)
        assert p < 1e-6

    def test_boundary_flip_symmetry(self, spec):
        # at theta=0 the minus-boundary marginal of -1 equals the plus one of +1
        vol = Volume.centered(6)
        p_plus = exact_gibbs_marginal(spec, vol, None, 0.0, 0.7, 0, boundary=+1)
        p_minus = exact_gibbs_marginal(spec, vol, None, 0.0, 0.7, 0, boundary=-1)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-9)

    def test_capacity_guard(self, spec):
        with pytest.raises(CapacityError):
            exact_gibbs_marginal(spec, Volume.centered(25), None, 0.0, 1.0, 0)
