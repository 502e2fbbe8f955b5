import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import zeta as hurwitz_zeta

import rfim1d
from oracles import (boundary_field, coupling, exterior_tails, minus_row, power_tail,
                     splitmix64_next, splitmix64_word, tail)
from rfim1d import (CapacityError, CouplingSpec, DisorderField, Volume, VolumeMismatchError,
                    energy, exact_gibbs_marginal, hamiltonian, triangles_to_spins)
from rfim1d.model import (TAIL_TOLERANCE, _logsumexp, _site_words, _word_values,
                          enumerate_spins)

FIELD_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 123456789012345, 2**64 - 1, 2**70 + 5, -3]


def _zigzag(site: int) -> int:
    return 2 * site if site >= 0 else -2 * site - 1


def _reference_word(seed: int, site: int) -> int:
    """Output k + 1 of the generator seeded with seed, k the site's zigzag key."""
    return splitmix64_word(seed, _zigzag(site))


def _reference_value(seed: int, site: int, distribution: str) -> float:
    word = _reference_word(seed, site)
    if distribution == "bernoulli":
        return 1.0 if word >> 63 else -1.0
    return -1.0 + 2.0 * ((word >> 11) * 2.0**-53)


_REFERENCE_VOLUME = Volume.centered(4096)
_reference_cache: dict = {}


def _reference_field(seed: int, vol: Volume, distribution: str) -> np.ndarray:
    """Per-site reference draws on vol, a window of Volume.centered(4096)."""
    key = (seed, distribution)
    if key not in _reference_cache:
        _reference_cache[key] = np.array([_reference_value(seed, int(i), distribution)
                                          for i in _REFERENCE_VOLUME.sites()])
    lo = vol.lo - _REFERENCE_VOLUME.lo
    return _reference_cache[key][lo:lo + vol.n_sites]


class TestVolume:
    def test_sites_and_bonds(self):
        vol = Volume(-2, 3)
        assert vol.n_sites == 6
        assert list(vol.sites()) == [-2, -1, 0, 1, 2, 3]
        # the bonds touching the volume, boundary bonds included, are -3..3
        assert list(triangles_to_spins([(-3, 3)], vol)) == [-1] * 6
        with pytest.raises(ValueError):
            triangles_to_spins([(-4, 3)], vol)
        with pytest.raises(ValueError):
            triangles_to_spins([(-3, 4)], vol)

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
        assert coupling(spec, 1) == 10.0
        assert coupling(spec, 2) == pytest.approx(2.0 ** (0.55 - 2.0))
        assert coupling(spec, 7) == pytest.approx(7.0 ** (0.55 - 2.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CouplingSpec(alpha=1.2)
        with pytest.raises(ValueError):
            CouplingSpec(j1=0.9)

    @pytest.mark.parametrize("j1", [1.0, math.nan, math.inf])
    def test_nearest_neighbour_coupling_finite_above_one(self, j1):
        with pytest.raises(ValueError, match="j1 must be finite and exceed 1"):
            CouplingSpec(j1=j1)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.55, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    def test_power_tail_matches_hurwitz_zeta(self, alpha, d):
        # independent oracle: sum_{n>=d} n^(alpha-2) = zeta(2-alpha, d)
        spec = CouplingSpec(alpha=alpha)
        assert power_tail(spec, d) == pytest.approx(
            float(hurwitz_zeta(2.0 - alpha, d)), abs=1e-10)

    def test_tail_honours_j1_at_distance_one(self):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        assert tail(spec, 1) == pytest.approx(10.0 + power_tail(spec, 2), abs=1e-12)

    def test_boundary_field_symmetry(self):
        spec = CouplingSpec()
        vol = Volume(-3, 3)
        bf = [boundary_field(spec, i, vol) for i in vol.sites()]
        assert bf == pytest.approx(bf[::-1])
        # edges see the boundary more strongly than the centre
        assert bf[0] > bf[3]

    @pytest.mark.parametrize("n", [1, 2, 17, 512, 4096])
    def test_boundary_vector_matches_boundary_field(self, n):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        vol = Volume.centered(n)
        per_site = np.array([boundary_field(spec, i, vol) for i in vol.sites()])
        assert np.array_equal(spec.boundary_vector(vol), per_site)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.55, 0.99])
    def test_boundary_vector_accuracy(self, alpha):
        # against fsum tails summed to 10^5, on both sides of the truncation
        # point (83 at alpha = 0.55), where the closures become one numpy pass
        spec = CouplingSpec(alpha=alpha, j1=10.0)
        tails = np.array(exterior_tails(spec, 4096))
        for n in [82, 83, 84, 512, 4096]:
            want = tails[:n] + tails[:n][::-1]
            err = np.abs(spec.boundary_vector(Volume.centered(n)) - want).max()
            assert err <= 2 * TAIL_TOLERANCE, (n, err)

    def test_coupling_matrix(self):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        jm = spec.coupling_matrix(Volume(0, 3))
        assert np.allclose(jm, jm.T)
        assert np.all(np.diag(jm) == 0.0)
        assert jm[0, 1] == 10.0
        assert jm[0, 2] == pytest.approx(2.0 ** (0.55 - 2.0))


class TestSetupTablesUnchanged:
    """The chain's start-up tables keep the bits of their slower forms."""

    @pytest.mark.parametrize("alpha", [float(a) for a in np.linspace(0.0, 0.99, 9)])
    def test_boundary_vector_equals_per_distance_tails(self, alpha):
        spec = CouplingSpec(alpha=alpha, j1=10.0)
        tails = np.array([tail(spec, d) for d in range(1, 8193)])
        for n in [*range(1, 100), 511, 512, 513, 1024, 4096, 8192]:
            # the vector as it was built with one tail call per distance
            per_distance = tails[:n] + tails[:n][::-1]
            assert np.array_equal(spec.boundary_vector(Volume.centered(n)), per_distance), n


class TestHamiltonian:
    def test_all_plus_ground_state_energy_zero(self, spec):
        vol = Volume(-4, 4)
        assert hamiltonian(spec, vol, minus_row(vol)) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_energy_nonnegative(self, spec):
        vol = Volume(0, 7)
        for spins in enumerate_spins(8):
            assert hamiltonian(spec, vol, spins) >= -1e-12

    def test_single_flip_cost(self, spec):
        # flipping one spin in the all-plus state costs 2 * sum_j J(|i-j|)
        vol = Volume(-5, 5)
        expected = 2.0 * (sum(coupling(spec, abs(j)) for j in vol.sites() if j != 0)
                          + boundary_field(spec, 0, vol))
        assert hamiltonian(spec, vol, minus_row(vol, [0])) == pytest.approx(expected, abs=1e-9)

    def test_field_energy_sign(self, spec):
        # G = -sum_i h_i sigma_i, scaled by theta (0 unless given)
        vol = Volume(0, 3)
        sigma = minus_row(vol)
        h = DisorderField(vol, np.array([1.0, -1.0, 1.0, 1.0]))
        assert energy(spec, vol, sigma, +1, h, 1.0) - hamiltonian(spec, vol, sigma) == \
            pytest.approx(-2.0)
        assert energy(spec, vol, sigma, +1, h, 0.5) - hamiltonian(spec, vol, sigma) == \
            pytest.approx(-1.0)
        assert energy(spec, vol, sigma, +1, h) == hamiltonian(spec, vol, sigma)

    def test_field_volume_mismatch(self, spec):
        vol = Volume(0, 3)
        h = DisorderField.generate(Volume(0, 4), seed=0)
        with pytest.raises(VolumeMismatchError):
            energy(spec, vol, minus_row(vol), +1, h)

    def test_batch_matches_scalar(self, spec):
        vol = Volume(0, 5)
        spins = enumerate_spins(6)
        energies = energy(spec, vol, spins)
        for code in (0, 1, 17, 63):
            assert energies[code] == pytest.approx(hamiltonian(spec, vol, spins[code]), abs=1e-9)


class TestEnergy:
    @pytest.mark.parametrize("vol", [Volume(0, 7), Volume(-4, 3)])
    @pytest.mark.parametrize("boundary", [+1, -1])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_matches_double_sum_oracle(self, vol, boundary, theta, energy_oracle):
        spec = CouplingSpec(alpha=0.55, j1=1.5)
        spins = enumerate_spins(8)
        h = DisorderField.generate(vol, seed=11, distribution="gaussian")
        batch = energy(spec, vol, spins, boundary, h, theta)
        assert batch.shape == (2 ** 8,)
        for code, row in enumerate(spins):
            single = energy(spec, vol, row, boundary, h, theta)
            assert isinstance(single, float)
            assert single == batch[code]  # bit for bit
            expected = energy_oracle(spec, vol, row, boundary, h.values, theta)
            assert single == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_homogeneous_boundary_state_has_zero_energy(self, spec):
        vol = Volume.centered(33)
        for boundary in (+1, -1):
            row = np.full(vol.n_sites, boundary)
            assert energy(spec, vol, row, boundary) == pytest.approx(0.0, abs=1e-12)

    def test_large_volume_matches_dense_form(self, spec):
        # the rounded FFT autocorrelations stay exact far beyond the oracle's sizes
        vol = Volume.centered(1024)
        rng = np.random.default_rng(5)
        s = np.where(rng.random(vol.n_sites) < 0.3, -1.0, 1.0)
        jm = spec.coupling_matrix(vol)
        bv = spec.boundary_vector(vol)
        dense = 0.5 * (jm.sum() - s @ jm @ s) + bv @ (1.0 - s)
        assert energy(spec, vol, s) == pytest.approx(dense, rel=1e-12)

    def test_memory_is_linear_in_volume(self, spec):
        import tracemalloc

        vol = Volume.centered(4096)
        energy(spec, vol, np.ones(vol.n_sites))  # fill the coupling cache
        s = np.where(np.arange(vol.n_sites) % 3 == 0, -1.0, 1.0)
        tracemalloc.start()
        energy(spec, vol, s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # an N x N float64 table would take 134 MB
        assert peak < 4 * 2**20

    def test_spin_count_must_match_volume(self, spec):
        with pytest.raises(VolumeMismatchError):
            energy(spec, Volume(0, 3), np.ones(5))


class TestDisorderField:
    def test_bernoulli_values(self):
        h = DisorderField.generate(Volume(-8, 8), seed=3)
        assert set(np.unique(h.values)) <= {-1.0, 1.0}

    def test_same_seed_same_field(self):
        a = DisorderField.generate(Volume(0, 9), seed=42)
        b = DisorderField.generate(Volume(0, 9), seed=42)
        assert np.array_equal(a.values, b.values)

    def test_field_independent_of_volume(self):
        # the value at a site depends only on (seed, site), not on the window
        small = DisorderField.generate(Volume(-2, 2), seed=7, distribution="gaussian")
        large = DisorderField.generate(Volume(-10, 10), seed=7, distribution="gaussian")
        for i in range(-2, 3):
            assert small.values[small.volume.index(i)] == large.values[large.volume.index(i)]

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DisorderField.generate(Volume(0, 3), seed=0, distribution="cauchy")

    @pytest.mark.parametrize("distribution", ["gaussian", "uniform"])
    def test_symmetric_distributions_centered(self, distribution):
        h = DisorderField.generate(Volume(0, 1999), seed=1, distribution=distribution)
        assert abs(h.values.mean()) < 5.0 / math.sqrt(2000)


class TestExactMarginal:
    def test_infinite_temperature_is_half(self, spec):
        vol = Volume.centered(6)
        h = DisorderField.generate(vol, seed=2)
        assert exact_gibbs_marginal(spec, vol, h, 0.3, 0.0, 0, +1) == pytest.approx(0.5)

    def test_low_temperature_plus_boundary(self, spec):
        vol = Volume.centered(6)
        p = exact_gibbs_marginal(spec, vol, None, 0.0, 5.0, 0, +1)
        assert p < 1e-6

    def test_boundary_flip_symmetry(self, spec):
        # at theta=0 the minus-boundary marginal of -1 equals the plus one of +1
        vol = Volume.centered(6)
        p_plus = exact_gibbs_marginal(spec, vol, None, 0.0, 0.7, 0, boundary=+1)
        p_minus = exact_gibbs_marginal(spec, vol, None, 0.0, 0.7, 0, boundary=-1)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-9)

    def test_capacity_guard(self, spec):
        with pytest.raises(CapacityError):
            exact_gibbs_marginal(spec, Volume.centered(25), None, 0.0, 1.0, 0, +1)


class TestFieldStream:
    """The vectorized draw against a scalar SplitMix64 generator per (seed, site)."""

    def test_known_answer_seed_zero(self):
        # the first three outputs of SplitMix64 from state 0 (Steele, Lea & Flood 2014)
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        state, stream = 0, []
        for _ in range(3):
            state, word = splitmix64_next(state)
            stream.append(word)
        assert stream == published
        # keys 0, 1, 2 are sites 0, -1, 1
        words = _site_words(0, Volume(-1, 1))
        assert [int(w) for w in words[[1, 0, 2]]] == published

    def test_words_follow_one_stream(self):
        # site with key k holds output k + 1 of the generator seeded with the seed
        state, stream = 7, []
        for _ in range(64):
            state, word = splitmix64_next(state)
            stream.append(word)
        vol = Volume(-32, 31)
        keys = [_zigzag(int(i)) for i in vol.sites()]
        assert [int(w) for w in _site_words(7, vol)] == [stream[k] for k in keys]

    @pytest.mark.parametrize("seed", FIELD_SEEDS)
    def test_words_equal_splitmix64_reference(self, seed):
        vol = Volume(-256, 255)
        expected = [_reference_word(seed % 2**64, int(i)) for i in vol.sites()]
        assert [int(w) for w in _site_words(seed, vol)] == expected

    @pytest.mark.parametrize("distribution", ["bernoulli", "uniform"])
    @pytest.mark.parametrize("seed", FIELD_SEEDS)
    def test_values_equal_per_site_generators(self, seed, distribution):
        windows = [Volume.centered(n) for n in (1, 2, 17, 512, 4096)]
        windows += [Volume(-2048, -2048), Volume(-300, -200), Volume(-2048, -1)]
        for vol in windows:
            h = DisorderField.generate(vol, seed=seed, distribution=distribution)
            assert np.array_equal(h.values, _reference_field(seed % 2**64, vol,
                                                             distribution)), vol

    def test_extreme_sites(self):
        # keys 2**32 - 1 and 2**32 - 2, the largest the site range allows
        for vol in (Volume(-2**31, -2**31 + 1), Volume(2**31 - 2, 2**31 - 1)):
            assert [int(w) for w in _site_words(5, vol)] == [
                _reference_word(5, int(i)) for i in vol.sites()]
            expected = [_reference_value(5, int(i), "uniform") for i in vol.sites()]
            assert np.array_equal(DisorderField.generate(vol, 5, "uniform").values,
                                  expected)

    @pytest.mark.parametrize("vol", [Volume(2**31 - 1, 2**31), Volume(-2**31 - 1, 0),
                                     Volume(2**40, 2**40 + 3)])
    def test_too_large_site_key_rejected(self, vol):
        with pytest.raises(ValueError, match="site key"):
            DisorderField.generate(vol, seed=0)

    def test_gaussian_volume_independent_and_seed_dependent(self):
        big = DisorderField.generate(Volume.centered(512), 9, "gaussian")
        window = DisorderField.generate(Volume(-40, 13), 9, "gaussian")
        assert np.array_equal(window.values, big.values[256 - 40:256 + 14])
        other = DisorderField.generate(Volume.centered(512), 10, "gaussian")
        assert not np.any(other.values == big.values)

    def test_extreme_words(self):
        raw = np.array([0, 2**64 - 1, 2**63 - 1, 2**63], dtype=np.uint64)
        g = _word_values(raw, "gaussian")
        assert np.all(np.isfinite(g))
        assert g[0] == -g[1] and g[2] == -g[3] and g[0] < g[2] < 0.0
        u = _word_values(raw, "uniform")
        assert u[0] == -1.0 and u[1] < 1.0
        assert list(_word_values(np.array([2**63 - 1, 2**63], dtype=np.uint64),
                                 "bernoulli")) == [-1.0, 1.0]

    @pytest.mark.parametrize("seed", [0, 2**32, -3])
    def test_gaussian_moments(self, seed):
        n = 20_000
        h = DisorderField.generate(Volume.centered(n), seed, "gaussian")
        assert np.all(np.isfinite(h.values))
        assert abs(h.values.mean()) < 5.0 / math.sqrt(n)
        # the sample variance of n standard normals has standard deviation sqrt(2/n)
        assert abs(h.values.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_large_sample_statistics(self):
        # each statistic within 5 standard deviations of its i.i.d. value
        n = 2**20
        vol = Volume.centered(n)
        g = DisorderField.generate(vol, 1, "gaussian").values
        assert abs(g.mean()) < 5.0 / math.sqrt(n)
        assert abs(g.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
        # neighbouring sites, and neighbouring keys (consecutive stream outputs)
        by_key = np.empty(n)
        by_key[np.where(vol.sites() >= 0, 2 * vol.sites(), -2 * vol.sites() - 1)] = g
        for x in (g, by_key):
            assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 5.0 / math.sqrt(n)
        b = DisorderField.generate(vol, 1, "bernoulli").values
        assert abs(np.mean(b == 1.0) - 0.5) < 5.0 * 0.5 / math.sqrt(n)


class TestLogsumexp:
    def test_rows_match_scipy(self):
        rng = np.random.default_rng(4)
        a = rng.normal(scale=50.0, size=(6, 40))
        a[1, ::3] = -np.inf
        a[2, :] = -np.inf
        a[3, 7] = 700.0
        ours = _logsumexp(a, axis=1)
        ref = scipy_logsumexp(a, axis=1)
        assert ours.shape == (6,)
        assert ours[2] == -np.inf and ref[2] == -np.inf
        finite = np.isfinite(ref)
        assert np.allclose(ours[finite], ref[finite], rtol=1e-14, atol=0.0)

    def test_non_finite_maximum(self):
        assert _logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
        assert _logsumexp(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(_logsumexp(np.array([1.0, np.nan])))
        assert np.isnan(_logsumexp(np.array([[0.0, np.nan], [0.0, 0.0]]), axis=1)[0])


def _run_python(code: str) -> str:
    """stdout of code run by a fresh interpreter that imports rfim1d from this tree."""
    src = os.path.dirname(os.path.dirname(rfim1d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


@pytest.mark.parametrize("n,start,count", [(1, 0, 2), (6, 0, 64), (6, 5, 17),
                                           (6, 63, 1), (11, 1024, 1024), (4, 16, 0)])
def test_spin_block_is_a_slice_of_the_table(n, start, count):
    block = enumerate_spins(n, start, count)
    assert block.dtype == np.int8
    assert np.array_equal(block, enumerate_spins(n)[start:start + count])
    # bit k of the code is the spin at site k
    codes = (block > 0).astype(np.int64) @ (1 << np.arange(n))
    assert codes.tolist() == list(range(start, start + count))


def test_cli_import_leaves_scipy_unloaded():
    assert _run_python("import sys, rfim1d.cli; print('scipy' in sys.modules)") == "False\n"


def test_sampling_leaves_numpy_random_unloaded():
    # seeds, site orders and uniforms all come from SplitMix64 words
    code = textwrap.dedent("""
        import os, sys
        from rfim1d.cli import main
        common = ["--size", "16", "--sweeps", "20", "--burnin", "5", "--realizations", "2",
                  "--deterministic", "--out", os.devnull]
        assert main(["simulate", *common]) == 0
        assert main(["simulate", "--distribution", "uniform", *common]) == 0
        assert main(["sweep", "--beta", "0.2,0.4", *common]) == 0
        print("numpy.random" in sys.modules)
    """)
    assert _run_python(code) == "False\n"
