import functools
import math
import warnings

import numpy as np
import pytest

from oracles import boundary_field, coupling, homogeneous, splitmix64_word
from rfim1d import (CouplingSpec, DisorderField, RunConfig, SpinConfiguration,
                    Volume, disorder_sweep, exact_gibbs_marginal, hamiltonian,
                    metropolis_run, spins_to_triangles)
from rfim1d.contours import contours
from rfim1d import mc as mc_module
from rfim1d import model as model_module
from rfim1d.model import energy, enumerate_spins


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.volume().n_sites == cfg.size
        assert 0 in cfg.volume()

    @pytest.mark.parametrize("kwargs", [
        {"size": 0},
        {"sweeps": 10, "burnin": 10},
        {"realizations": 0},
        {"boundary": 2},
        {"occupancy_stride": 0},
        {"c": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"beta": -0.5},
        {"beta": -1e-300},
        {"beta": math.nan},
        {"theta": math.nan},
        {"theta": math.inf},
        {"theta": -math.inf},
    ])
    def test_meaningless_temperature(self, kwargs):
        with pytest.raises(ValueError, match="beta|theta"):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta": math.inf}, "beta must be finite"),
        ({"j1": math.nan}, "j1 must be finite and exceed 1"),
        ({"j1": math.inf}, "j1 must be finite and exceed 1"),
        ({"alpha": 1.0}, "alpha must lie in"),
    ])
    def test_coupling_and_infinite_beta_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_edge_temperatures_accepted(self):
        assert RunConfig(beta=0.0).beta == 0.0
        assert RunConfig(beta=-0.0, theta=-1.0).theta == -1.0

    def test_sweep_cap(self):
        assert RunConfig(size=16, sweeps=mc_module.MAX_SWEEPS).sweeps == mc_module.MAX_SWEEPS
        # the draw counter 2 * size * sweep must stay below 2**64
        assert RunConfig(size=2**37, sweeps=2**26 - 1, burnin=0).size == 2**37
        for kwargs in ({"size": 16, "sweeps": mc_module.MAX_SWEEPS + 1},
                       {"size": 16, "sweeps": 10**14, "burnin": 1},
                       {"size": 2**37, "sweeps": 2**26, "burnin": 0}):
            with pytest.raises(ValueError, match="sweeps must be"):
                RunConfig(**kwargs)


def flipped(sigma, i):
    """sigma with the spin at site i reversed."""
    spins = sigma.spins.copy()
    spins[sigma.volume.index(i)] *= -1
    return SpinConfiguration(sigma.volume, spins, sigma.boundary)


def kernel_flip_energy(spec, sigma, h, theta, i):
    """Energy change the sweep kernel books for flipping site i.

    An odd number of proposals at i, all accepted at beta = 0, leaves
    exactly that one flip; the returned energy starts from 0.
    """
    vol = sigma.volume
    n = vol.n_sites
    assert n % 2 == 1
    t = spec.coupling_toeplitz(vol)
    s = sigma.spins.astype(np.float64)
    m = model_module._coupling_sums(t, s)
    hv = np.zeros(n) if h is None else h.values
    e, acc = mc_module._sweep(s, m, t, spec.boundary_vector(vol), hv, theta, 0.0, 1.0,
                              np.full(n, vol.index(i)), np.zeros(n), 0.0)
    assert acc == n
    assert np.array_equal(s, flipped(sigma, i).spins)
    return e


class TestLocalField:
    def test_matches_hamiltonian_difference(self, spec):
        vol = Volume.centered(9)
        rng = np.random.default_rng(3)
        h = DisorderField.generate(vol, 0.3, seed=8)
        for _ in range(5):
            sigma = SpinConfiguration(vol, rng.choice([-1, 1], size=9).astype(np.int8))
            for i in (vol.lo, -1, 0, vol.hi):
                de = kernel_flip_energy(spec, sigma, h, 0.3, i)
                direct = (hamiltonian(spec, flipped(sigma, i), h, 0.3)
                          - hamiltonian(spec, sigma, h, 0.3))
                assert de == pytest.approx(direct, abs=1e-9)

    def test_flip_back_negates(self, spec):
        vol = Volume.centered(7)
        sigma = SpinConfiguration.from_minus_sites(vol, [0, 2])
        de = kernel_flip_energy(spec, sigma, None, 0.0, 2)
        back = kernel_flip_energy(spec, flipped(sigma, 2), None, 0.0, 2)
        assert de == pytest.approx(-back, abs=1e-12)

    def test_all_plus_closed_form(self, spec):
        vol = Volume.centered(7)
        sigma = homogeneous(vol, +1)
        expected = 2.0 * (sum(coupling(spec, abs(j)) for j in vol.sites() if j != 0)
                          + boundary_field(spec, 0, vol))
        assert kernel_flip_energy(spec, sigma, None, 0.0, 0) == pytest.approx(expected,
                                                                             abs=1e-9)


class TestChainStream:
    """Seeds and per-sweep draws against the scalar SplitMix64 reference."""

    SEEDS = [0, 11, 2**64 - 1, -3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derived_seeds(self, seed):
        for r in (0, 1, 63):
            for stream in (0, 1):
                assert mc_module._derived_seed(seed, r, stream) == splitmix64_word(
                    seed % 2**64, 2 * r + stream)

    @pytest.mark.parametrize("n", [1, 2, 3, 512, 513, 4096])
    def test_sweep_draws(self, n):
        seed = 2**64 - 5
        b = (n - 1).bit_length()
        for sweep in (0, 1, 7):
            w = [splitmix64_word(seed, 2 * n * sweep + j) for j in range(2 * n)]
            order, unif = mc_module._sweep_draws(seed, n, sweep)
            assert order.tolist() == sorted(range(n), key=lambda j: (w[j] >> b, j))
            assert sorted(order.tolist()) == list(range(n))
            assert unif.tolist() == [(x >> 11) * 2.0**-53 for x in w[n:]]

    def test_readme_worked_example(self):
        chain_seed = mc_module._derived_seed(0, 0, 1)
        assert (mc_module._derived_seed(0, 0, 0), chain_seed) == (0xE220A8397B1DCDAF,
                                                                  0x6E789E6AA1B965F4)
        order, unif = mc_module._sweep_draws(chain_seed, 4, 0)
        assert order.tolist() == [3, 1, 0, 2] and unif[0] == 0.4167232513006093

    def test_order_is_stable_argsort_of_top_bits(self, monkeypatch):
        # words equal above the low b = 3 bits tie, and ties keep index order;
        # words decreasing there reverse it
        n = 6
        top = np.uint64(1 << 60)
        for words, want in ((top | np.arange(2 * n, dtype=np.uint64)[::-1] % 8,
                             list(range(n))),
                            (top * np.arange(2 * n, 0, -1, dtype=np.uint64),
                             list(range(n - 1, -1, -1)))):
            monkeypatch.setattr(mc_module, "_stream_words", lambda seed, start, count: words)
            assert mc_module._sweep_draws(0, n, 0)[0].tolist() == want

    def test_sweeps_read_consecutive_disjoint_counters(self, monkeypatch):
        calls = []
        stream = mc_module._stream_words

        def recording(seed, start, count):
            calls.append((seed, start, count))
            return stream(seed, start, count)

        monkeypatch.setattr(mc_module, "_stream_words", recording)
        cfg = RunConfig(alpha=0.55, beta=0.2, theta=1.0, j1=1.5, size=12, sweeps=9,
                        burnin=2, seed=3, realizations=1)
        h = DisorderField.generate(cfg.volume(), cfg.theta, seed=4)
        metropolis_run(cfg, h, chain_seed=2**64 - 1)
        assert calls == [(2**64 - 1, 24 * k, 24) for k in range(9)]


def run_small(beta, theta, seed=11, sweeps=6000, **kwargs):
    cfg = RunConfig(alpha=0.55, beta=beta, theta=theta, size=10, sweeps=sweeps,
                    burnin=sweeps // 6, seed=seed, realizations=1, **kwargs)
    vol = cfg.volume()
    h = DisorderField.generate(vol, theta, seed=seed + 1)
    return cfg, h, metropolis_run(cfg, h, chain_seed=seed + 2)


class TestMetropolis:
    def test_infinite_temperature(self):
        _, _, res = run_small(0.0, 0.0)
        assert res.estimate == pytest.approx(0.5, abs=3.0 * max(res.stderr, 0.01))

    def test_matches_exact_marginal(self):
        for beta, theta in [(0.05, 0.2), (0.1, 0.4)]:
            cfg, h, res = run_small(beta, theta)
            exact = exact_gibbs_marginal(cfg.coupling_spec(), cfg.volume(), h,
                                         theta, beta, 0)
            assert abs(res.estimate - exact) <= 3.0 * max(res.stderr, 0.01)

    def test_strong_coupling_plus_boundary(self):
        _, _, res = run_small(5.0, 0.0, sweeps=600)
        assert res.estimate < 1e-3

    def test_reproducible(self):
        _, _, a = run_small(0.08, 0.3, sweeps=800)
        _, _, b = run_small(0.08, 0.3, sweeps=800)
        assert a == b

    def test_no_decomposition_violations(self):
        for beta in (0.0, 0.1):
            _, _, res = run_small(beta, 0.3, sweeps=2000)
            assert res.violations == 0
            assert res.estimate <= res.occupancy + 1e-12

    def test_volume_mismatch_rejected(self):
        cfg = RunConfig(size=10, sweeps=100, burnin=10)
        h = DisorderField.generate(Volume(0, 4), cfg.theta, seed=0)
        with pytest.raises(ValueError):
            metropolis_run(cfg, h)

    def test_single_kernel_matches_oracles(self, energy_oracle):
        # after a short run the running sums and energy equal independent recomputations
        beta, theta = 0.2, 1.0
        for n in (5, 64):
            cfg = RunConfig(size=n, beta=beta, theta=theta, j1=1.5, sweeps=1, burnin=0)
            vol, spec = cfg.volume(), cfg.coupling_spec()
            h = DisorderField.generate(vol, theta, seed=n)
            t = spec.coupling_toeplitz(vol)
            bv = spec.boundary_vector(vol)
            s = np.ones(n)
            m = model_module._coupling_sums(t, s)
            e = energy(spec, vol, s, +1, h, theta)
            rng = np.random.default_rng(n)
            accepted = 0
            for _ in range(20):
                e, acc = mc_module._sweep(s, m, t, bv, h.values, theta, beta, 1.0,
                                          rng.permutation(n), rng.random(n), e)
                accepted += acc
            assert accepted > 0
            dense = spec.coupling_matrix(vol) @ s
            assert np.allclose(m, dense, rtol=1e-9, atol=1e-9 * np.abs(t).sum())
            exact = energy_oracle(spec, vol, s, +1, h.values, theta)
            assert e == pytest.approx(exact, rel=1e-9)
            assert energy(spec, vol, s, +1, h, theta) == pytest.approx(exact, rel=1e-9)
            assert hamiltonian(spec, SpinConfiguration(vol, s.astype(np.int8)), h,
                               theta) == pytest.approx(exact, rel=1e-9)
        # the sampled marginal, here under a minus boundary, matches the oracle
        cfg, h, res = run_small(0.05, 0.2, boundary=-1)
        exact = exact_gibbs_marginal(cfg.coupling_spec(), cfg.volume(), h, 0.2, 0.05, 0,
                                     boundary=-1)
        assert abs(res.estimate - exact) <= 3.0 * max(res.stderr, 0.01)


class TestStationaryDistribution:
    def test_empirical_state_frequencies(self):
        # chi-square sanity check on a 4-site chain against exact Gibbs weights
        n, beta, theta = 4, 0.2, 0.3
        cfg = RunConfig(size=n, beta=beta, theta=theta, sweeps=1, burnin=0, seed=0)
        vol = cfg.volume()
        spec = cfg.coupling_spec()
        h = DisorderField.generate(vol, theta, seed=4)
        t = spec.coupling_toeplitz(vol)
        bv = spec.boundary_vector(vol)
        s = np.ones(n)
        m = model_module._coupling_sums(t, s)
        e = 0.0
        rng = np.random.default_rng(123)
        sweeps, burnin = 40_000, 2_000
        counts = np.zeros(2 ** n)
        for sweep in range(sweeps):
            e, _ = mc_module._sweep(
                s, m, t, bv, h.values, theta, beta, 1.0,
                rng.permutation(n), rng.random(n), e)
            if sweep >= burnin:
                code = sum(1 << k for k in range(n) if s[k] > 0)
                counts[code] += 1
        log_w = -beta * energy(spec, vol, enumerate_spins(n), +1, h, theta)
        probs = np.exp(log_w - log_w.max())
        probs /= probs.sum()
        expected = probs * counts.sum()
        # generous chi-square threshold; sweeps are correlated samples
        chi2 = float(np.sum((counts - expected) ** 2 / np.maximum(expected, 1.0)))
        assert chi2 < 40.0 * (2 ** n - 1)


def kernel_run(kernel, n, beta, theta, j1, sweeps=20, seed=0, boundary=+1,
               distribution="bernoulli"):
    """Final (s, m, e, accepted) of `sweeps` kernel sweeps on seeded draws,
    from the all-boundary state."""
    cfg = RunConfig(size=n, alpha=0.55, beta=beta, theta=theta, j1=j1, sweeps=1, burnin=0)
    vol, spec = cfg.volume(), cfg.coupling_spec()
    h = DisorderField.generate(vol, theta, seed=seed, distribution=distribution)
    t = spec.coupling_toeplitz(vol)
    s = np.full(n, float(boundary))
    m = model_module._coupling_sums(t, s)
    e = energy(spec, vol, s, boundary, h, theta)
    rng = np.random.default_rng(seed + 1)
    accepted = 0
    for _ in range(sweeps):
        e, acc = kernel(s, m, t, spec.boundary_vector(vol), h.values, theta, beta,
                        float(boundary), rng.permutation(n), rng.random(n), e)
        accepted += acc
    return s, m, e, accepted


def _reference_sweep(s, m, t, bv, hv, theta, beta, tau, order, unif, e):
    """One Metropolis sweep in the given site order; returns (energy, accepted)."""
    n = s.shape[0]
    acc = 0
    for k in range(n):
        i = order[k]
        de = 2.0 * s[i] * (m[i] + tau * bv[i] + theta * hv[i])
        if de <= 0.0 or unif[k] < np.exp(-beta * de):
            s[i] = -s[i]
            m += (2.0 * s[i]) * t[n - 1 - i:2 * n - 1 - i]
            e += de
            acc += 1
    return e, acc


def uphill_decisions(kernel, x, u):
    """Whether kernel accepts, for each k, an uphill move with -beta * de = x[k]
    against the draw u[k].

    Every site sees only its own field (the couplings are zero), so the
    sites are independent proposals with de = 2 b_k and beta = 1; the
    halving and doubling of x are exact.
    """
    n = x.size
    s, m = np.ones(n), np.zeros(n)
    kernel(s, m, np.zeros(2 * n - 1), -x / 2.0, np.zeros(n), 0.0, 1.0, 1.0,
           np.arange(n), np.asarray(u, dtype=np.float64), 0.0)
    return s < 0


def exp_disagreements(lo, hi, points):
    """Grid points of [lo, hi] where math.exp and np.exp round differently."""
    x = np.linspace(lo, hi, points)
    return x[np.exp(x) != np.frompyfunc(math.exp, 1, 1)(x).astype(np.float64)]


class TestScalarKernel:
    """The Python-float ``_sweep`` against the numpy-scalar loop it replaced."""

    @pytest.mark.parametrize("n, beta, theta, j1, boundary, distribution", [
        (512, 0.2, 1.0, 1.5, +1, "bernoulli"),  # sample-hot parameters
        (512, 0.0, 1.0, 1.5, +1, "bernoulli"),
        (512, 0.4, 1.0, 1.5, +1, "bernoulli"),
        (1, 0.3, 1.0, 1.5, +1, "bernoulli"),
        (128, 0.2, 1.0, 1.5, -1, "bernoulli"),
        (128, 0.2, 1.0, 1.5, +1, "gaussian"),
        (4096, 5.0, 0.05, 10.0, +1, "bernoulli"),  # sample-cold parameters
    ], ids=["hot", "beta0", "beta0.4", "n1", "minus", "gaussian", "cold"])
    def test_bit_identical_to_reference(self, n, beta, theta, j1, boundary, distribution):
        sweeps = 3 if n == 4096 else 20
        s, m, e, acc = kernel_run(mc_module._sweep, n, beta, theta, j1, sweeps,
                                  boundary=boundary, distribution=distribution)
        s2, m2, e2, acc2 = kernel_run(_reference_sweep, n, beta, theta, j1, sweeps,
                                      boundary=boundary, distribution=distribution)
        assert np.array_equal(s, s2) and np.array_equal(m, m2)
        assert e == e2 and acc == acc2
        if n > 1 and 0.0 < beta < 1.0:
            assert 0 < acc < sweeps * n

    @staticmethod
    def _assert_decides_as_numpy(x):
        ex = np.exp(x)
        ties = [ex, np.nextafter(ex, 0.0), np.nextafter(ex, 1.0),
                np.frompyfunc(math.exp, 1, 1)(x).astype(np.float64), np.zeros_like(x)]
        for u in ties:
            want = u < ex
            assert np.array_equal(uphill_decisions(_reference_sweep, x, u), want)
            assert np.array_equal(uphill_decisions(mc_module._sweep, x, u), want)

    def test_exp_ties_decide_as_numpy(self):
        # math.exp and np.exp may round to neighbouring doubles (they do for a few
        # percent of x with an AVX-512 np.exp); a draw equal to either must still
        # decide as np.exp does
        x = exp_disagreements(-60.0, -1e-9, 200_001)
        self._assert_decides_as_numpy(np.concatenate([x, np.linspace(-60.0, 0.0, 1001)[:-1]]))

    def test_subnormal_and_zero_exponentials_decide_as_numpy(self):
        # below 2.2e-308 the exponential is subnormal and below -745.13 it is 0: a
        # band relative to it alone vanishes there, while the draw can be 0.0
        x = exp_disagreements(-745.2, -708.4, 400_001)
        edge = np.nextafter(-745.1332191019, -np.inf) + np.arange(-5, 6) * 1e-11
        x = np.concatenate([x, edge, [-800.0, -745.2, -1e308, -np.inf]])
        assert (np.exp(x) == 0.0).any() and (np.exp(x) == 5e-324).any()
        self._assert_decides_as_numpy(x)

    def test_nan_flip_energy_is_rejected(self):
        n = 8
        for kernel in (_reference_sweep, mc_module._sweep):
            s, m = np.ones(n), np.zeros(n)
            hv = np.full(n, np.nan)
            e, acc = kernel(s, m, np.zeros(2 * n - 1), np.zeros(n), hv, 1.0, 0.5, 1.0,
                            np.arange(n), np.zeros(n), 0.0)
            assert acc == 0 and e == 0.0 and np.array_equal(s, np.ones(n))

    def test_commit_signs(self):
        # a plus spin flips to minus and subtracts its doubled coupling row; a
        # minus spin flips to plus and adds it
        spec = CouplingSpec(alpha=0.55, j1=1.5)
        vol = Volume.centered(5)
        t = spec.coupling_toeplitz(vol)
        s = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
        m = model_module._coupling_sums(t, s)
        want = m.copy()
        rows = model_module.toeplitz_rows(t)
        order = [1, 2, 0, 3, 3]
        mc_module._sweep(s, m, t, np.zeros(5), np.zeros(5), 0.0, 0.0, 1.0,
                         np.array(order), np.zeros(5), 0.0)
        assert np.array_equal(s, [-1.0, -1.0, 1.0, 1.0, 1.0])
        for i, sign in zip(order, [-1, +1, -1, -1, +1]):
            want += sign * (2.0 * rows[i])
        assert np.array_equal(m, want)


class TestSkipPath:
    @pytest.mark.parametrize("n, beta, theta, j1, acceptance", [
        (4096, 5.0, 0.05, 10.0, (0.0, 0.0)),  # sample-cold parameters
        (512, 0.2, 1.0, 1.5, (0.2, 0.45)),  # sample-hot parameters
        (512, 0.4, 1.0, 1.5, (0.005, 0.05)),  # rare accepts inside windows
        (512, 0.0, 1.0, 1.5, (1.0, 1.0)),  # beta = 0 accepts everything
        (1, 0.3, 1.0, 1.5, (0.0, 1.0)),
    ], ids=["cold", "hot", "rare", "beta0", "n1"])
    @pytest.mark.parametrize("w0", [mc_module.SKIP_WINDOW, 1000])
    def test_same_chain_as_scalar_loop(self, n, beta, theta, j1, acceptance, w0):
        s, m, e, acc = kernel_run(mc_module._sweep, n, beta, theta, j1)
        s2, m2, e2, acc2 = kernel_run(functools.partial(mc_module._skip_sweep, w0=w0),
                                      n, beta, theta, j1)
        assert np.array_equal(s, s2) and np.array_equal(m, m2)
        assert e == e2 and acc == acc2
        lo, hi = acceptance
        assert lo <= acc / (20 * n) <= hi

    def test_large_negative_flip_energy_does_not_overflow(self):
        # a field of strength 1000 gives de near -2000 at every site it opposes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, m, e, acc = kernel_run(mc_module._skip_sweep, 64, 5.0, 1000.0, 1.5, sweeps=2)
        ref = kernel_run(mc_module._sweep, 64, 5.0, 1000.0, 1.5, sweeps=2)
        assert np.array_equal(s, ref[0]) and e == ref[2] and acc == ref[3] > 0

    def test_threshold_is_a_speed_setting(self, monkeypatch):
        calls = []
        skip = mc_module._skip_sweep

        def counting(*args):
            calls.append(1)
            return skip(*args)

        monkeypatch.setattr(mc_module, "_skip_sweep", counting)
        cfg = RunConfig(alpha=0.55, beta=0.3, theta=0.5, j1=1.5, size=16, sweeps=600,
                        burnin=100, seed=3, realizations=1)
        h = DisorderField.generate(cfg.volume(), cfg.theta, seed=4)
        results, ran = [], []
        for threshold in (mc_module.SKIP_BELOW_ACCEPTANCE, 0.0, 1.0):
            monkeypatch.setattr(mc_module, "SKIP_BELOW_ACCEPTANCE", threshold)
            calls.clear()
            results.append(metropolis_run(cfg, h, chain_seed=5))
            ran.append(len(calls))
        assert results[0] == results[1] == results[2]
        assert 0.0 < results[0].acceptance < 1.0
        # the default switches paths; 0 keeps the scalar loop; 1 skips every sweep
        assert 0 < ran[0] < cfg.sweeps
        assert ran[1] == 0 and ran[2] == cfg.sweeps


class TestDriftCheck:
    @staticmethod
    def _counting_energy(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return energy(*args)

        monkeypatch.setattr(mc_module, "energy", counting)
        return calls

    def test_frozen_chain_computes_energy_once(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        # 400 sweeps of 64 updates pass two drift checks with no flip since the start
        cfg = RunConfig(alpha=0.55, beta=5.0, theta=0.05, j1=10.0, size=64, sweeps=400,
                        burnin=10, seed=1, realizations=1)
        res = metropolis_run(cfg, DisorderField.generate(cfg.volume(), cfg.theta, seed=2))
        assert res.acceptance == 0.0
        assert len(calls) == 1

    def test_corrupted_running_energy_raises(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        accepted = []

        def drifting(sweep):
            def run(*args, **kwargs):
                e, acc = sweep(*args, **kwargs)
                accepted.append(acc)
                return e + 1.0, acc
            return run

        monkeypatch.setattr(mc_module, "_sweep", drifting(mc_module._sweep))
        monkeypatch.setattr(mc_module, "_skip_sweep", drifting(mc_module._skip_sweep))
        cfg = RunConfig(alpha=0.55, beta=0.2, theta=1.0, j1=1.5, size=64, sweeps=400,
                        burnin=10, seed=1, realizations=1)
        h = DisorderField.generate(cfg.volume(), cfg.theta, seed=2)
        with pytest.raises(mc_module.EnergyDriftError):
            metropolis_run(cfg, h)
        # the first check, after 157 sweeps of 64 updates, caught the drift
        assert len(accepted) == 157 and sum(accepted) > 0
        assert len(calls) == 2


class TestDisorderSweep:
    def test_report_fields(self):
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=400, burnin=100,
                        seed=5, realizations=3)
        rep = disorder_sweep(cfg)
        assert len(rep.chains) == 3
        assert 0.0 <= rep.estimate <= 1.0
        assert rep.stderr >= 0.0
        assert rep.reference_100 == pytest.approx(math.exp(-rep.b_bar / 100.0))
        assert rep.reference_200 == pytest.approx(math.exp(-rep.b_bar / 200.0))
        d = rep.to_dict()
        assert d["config"]["seed"] == 5
        assert len(rep.csv_rows()) == 3

    def test_reproducible(self):
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=300, burnin=50,
                        seed=5, realizations=2)
        assert disorder_sweep(cfg) == disorder_sweep(cfg)

    def test_jobs_do_not_change_result(self):
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=300, burnin=50,
                        seed=5, realizations=4)
        serial = disorder_sweep(cfg, jobs=1)
        assert disorder_sweep(cfg, jobs=2) == serial
        assert disorder_sweep(cfg, jobs=4) == serial

    def test_distinct_fields_per_realization(self):
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=300, burnin=50,
                        seed=5, realizations=4)
        rep = disorder_sweep(cfg)
        assert len({c.field_seed for c in rep.chains}) == 4


def origin_in_contour(sigma):
    return any(g.contains_site(0) for g in contours(spins_to_triangles(sigma), 3))


class TestDecompositionCheck:
    def test_all_plus_sample(self):
        vol = Volume.centered(8)
        assert not origin_in_contour(homogeneous(vol, +1))

    def test_minus_origin_is_covered(self):
        vol = Volume.centered(8)
        samples = [SpinConfiguration.from_minus_sites(vol, [0]),
                   SpinConfiguration.from_minus_sites(vol, [0, 1]),
                   SpinConfiguration.from_minus_sites(vol, [-2, 0, 3])]
        for sigma in samples:
            assert sigma.spins[vol.index(0)] == -1
            assert origin_in_contour(sigma)


class TestCouplingTables:
    def test_built_once_per_run_and_read_only(self, monkeypatch):
        calls = []
        original = CouplingSpec.boundary_vector

        def counting(self, vol):
            calls.append(vol)
            return original(self, vol)

        monkeypatch.setattr(CouplingSpec, "boundary_vector", counting)
        model_module._coupling_tables.cache_clear()
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=30, burnin=5,
                        seed=5, realizations=4)
        disorder_sweep(cfg)
        assert calls == [cfg.volume()]
        t, bv = model_module._coupling_tables(cfg.coupling_spec(), cfg.volume())
        assert not t.flags.writeable and not bv.flags.writeable
        assert np.array_equal(t, cfg.coupling_spec().coupling_toeplitz(cfg.volume()))
        assert np.array_equal(bv, original(cfg.coupling_spec(), cfg.volume()))
        model_module._coupling_tables.cache_clear()
