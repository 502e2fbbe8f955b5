import dataclasses
import math
import warnings

import numpy as np
import pytest

from oracles import boundary_field, coupling, minus_row, splitmix64_word
from rfim1d import (CouplingSpec, DisorderField, RunConfig, Volume, disorder_sweep,
                    exact_gibbs_marginal, metropolis_run, spins_to_triangles)
from rfim1d.contours import contours
from rfim1d import mc as mc_module
from rfim1d import model as model_module
from rfim1d.model import energy, enumerate_spins, toeplitz_rows


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
        {"burnin": -1},
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
        assert RunConfig(beta=-0.0, theta=-0.0).theta == 0.0
        with pytest.raises(ValueError, match=r"theta must be >= 0, got -1.0"):
            RunConfig(theta=-1.0)

    def test_sweep_cap(self):
        assert RunConfig(size=16, sweeps=mc_module.MAX_SWEEPS).sweeps == mc_module.MAX_SWEEPS
        # the draw counter 2 * size * sweep must stay below 2**64
        assert RunConfig(size=2**37, sweeps=2**26 - 1, burnin=0).size == 2**37
        for kwargs in ({"size": 16, "sweeps": mc_module.MAX_SWEEPS + 1},
                       {"size": 16, "sweeps": 10**14, "burnin": 1},
                       {"size": 2**37, "sweeps": 2**26, "burnin": 0}):
            with pytest.raises(ValueError, match="sweeps must be"):
                RunConfig(**kwargs)

    def test_unknown_distribution_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a word was drawn")

        monkeypatch.setattr(mc_module, "_stream_words", no_draw)
        monkeypatch.setattr(model_module, "_stream_words", no_draw)
        for name in ("cauchy", "Gaussian", ""):
            with pytest.raises(ValueError, match=f"^unknown distribution '{name}'$"):
                RunConfig(distribution=name)

    def test_realization_cap(self):
        cap = mc_module.MAX_REALIZATIONS
        assert RunConfig(realizations=cap).realizations == cap
        for realizations in (0, cap + 1, 10**23):
            with pytest.raises(ValueError, match=r"^realizations must be in \[1, 1000000\], got "):
                RunConfig(realizations=realizations)


def flipped(vol, sigma, i):
    """The spin row sigma on vol with the spin at site i reversed."""
    spins = sigma.copy()
    spins[vol.index(i)] *= -1
    return spins


def kernel_flip_energy(spec, vol, sigma, h, theta, i):
    """Energy change the sweep kernel books for flipping site i of the row sigma.

    An odd number of proposals at i, all accepted at beta = 0, leaves
    exactly that one flip; the returned energy starts from 0.
    """
    n = vol.n_sites
    assert n % 2 == 1
    s = sigma.astype(np.float64)
    m = spec.coupling_matrix(vol) @ s
    if h is None:
        h = DisorderField(vol, np.zeros(n))
    cfg = RunConfig(alpha=spec.alpha, j1=spec.j1, theta=theta, size=n, sweeps=1, burnin=0)
    chain = mc_module._Chain(cfg, h, 0)
    e, acc = mc_module._sweep(s, m, chain.rows2, chain.tb, chain.th, 0.0,
                              np.full(n, vol.index(i)), np.full(n, np.inf), 0.0)
    assert acc == n
    assert np.array_equal(s, flipped(vol, sigma, i))
    return e


class TestLocalField:
    def test_matches_hamiltonian_difference(self, spec):
        vol = Volume.centered(9)
        rng = np.random.default_rng(3)
        h = DisorderField.generate(vol, seed=8)
        for _ in range(5):
            sigma = rng.choice([-1, 1], size=9).astype(np.int8)
            for i in (vol.lo, -1, 0, vol.hi):
                de = kernel_flip_energy(spec, vol, sigma, h, 0.3, i)
                direct = (energy(spec, vol, flipped(vol, sigma, i), +1, h, 0.3)
                          - energy(spec, vol, sigma, +1, h, 0.3))
                assert de == pytest.approx(direct, abs=1e-9)

    def test_flip_back_negates(self, spec):
        vol = Volume.centered(7)
        sigma = minus_row(vol, [0, 2])
        de = kernel_flip_energy(spec, vol, sigma, None, 0.0, 2)
        back = kernel_flip_energy(spec, vol, flipped(vol, sigma, 2), None, 0.0, 2)
        assert de == pytest.approx(-back, abs=1e-12)

    def test_all_plus_closed_form(self, spec):
        vol = Volume.centered(7)
        expected = 2.0 * (sum(coupling(spec, abs(j)) for j in vol.sites() if j != 0)
                          + boundary_field(spec, 0, vol))
        assert kernel_flip_energy(spec, vol, minus_row(vol), None, 0.0, 0) == \
            pytest.approx(expected, abs=1e-9)


class TestStartSums:
    """The all-boundary start state's J s in closed form."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 512, 1000, 4096])
    def test_equal_dense_product(self, n):
        spec = CouplingSpec(alpha=0.55, j1=10.0)
        vol = Volume.centered(n)
        jm = spec.coupling_matrix(vol)
        for tau in (1.0, -1.0):
            m = mc_module._start_sums(spec.coupling_toeplitz(vol), tau)
            dense = jm @ np.full(n, tau)
            assert np.allclose(m, dense, rtol=1e-12, atol=0.0)
            assert np.array_equal(m, m[::-1])


class TestChainStream:
    """Seeds and per-sweep draws against the scalar SplitMix64 reference."""

    SEEDS = [0, 11, 2**64 - 1, -3]

    @staticmethod
    def _run_seeds(monkeypatch, seed, realizations):
        """The (field seed, chain seed) pairs disorder_sweep hands its chains,
        checked to come from one call of _stream_words."""
        pairs, calls = [], []
        stream = mc_module._stream_words

        def recording(*args):
            calls.append(args)
            return stream(*args)

        def chain(config, field_seed, chain_seed):
            pairs.append([field_seed, chain_seed])
            return mc_module.ChainResult(0.0, 0.0, 0.0, 0.0, 0, 1, field_seed)

        monkeypatch.setattr(mc_module, "_stream_words", recording)
        monkeypatch.setattr(mc_module, "metropolis_run", chain)
        disorder_sweep(RunConfig(size=10, sweeps=2, burnin=1, seed=seed,
                                 realizations=realizations))
        assert calls == [(seed, 0, 2 * realizations)]
        return pairs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derived_seeds(self, seed, monkeypatch):
        pairs = self._run_seeds(monkeypatch, seed, 64)
        assert pairs == [[splitmix64_word(seed % 2**64, 2 * r + stream) for stream in (0, 1)]
                         for r in range(64)]
        assert all(type(x) is int for pair in pairs for x in pair)

    @pytest.mark.parametrize("n", [1, 2, 3, 512, 513, 4096])
    def test_sweep_draws(self, n):
        seed = 2**64 - 5
        b = (n - 1).bit_length()
        for sweep in (0, 1, 7):
            w = [splitmix64_word(seed, 2 * n * sweep + j) for j in range(2 * n)]
            order, thr = mc_module._sweep_draws(seed, n, sweep)
            assert order.tolist() == sorted(range(n), key=lambda j: (w[j] >> b, j))
            assert sorted(order.tolist()) == list(range(n))
            u = np.array([(x >> 11) * 2.0**-53 for x in w[n:]])
            assert np.array_equal(thr, -np.log(u))

    def test_zero_uniform_gives_infinite_threshold(self, monkeypatch):
        # a word below 2**11 gives u = 0, whose threshold -ln 0 is +inf, silently
        n = 3
        words = np.array([5, 9, 1, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
        monkeypatch.setattr(mc_module, "_stream_words", lambda seed, start, count: words)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thr = mc_module._sweep_draws(0, n, 0)[1]
        assert thr[0] == np.inf
        assert thr[1] == -np.log(2.0**-53) and 0.0 < thr[2] < 2.0**-52

    def test_readme_worked_example(self, monkeypatch):
        [(field_seed, chain_seed)] = self._run_seeds(monkeypatch, 0, 1)
        assert (field_seed, chain_seed) == (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)
        assert (field_seed, chain_seed) == (splitmix64_word(0, 0), splitmix64_word(0, 1))
        order, thr = mc_module._sweep_draws(chain_seed, 4, 0)
        # the first uniform is 0.4167232513006093, and its threshold -ln u
        assert order.tolist() == [3, 1, 0, 2] and thr[0] == 0.8753329434528468
        assert thr[0] == -np.log(0.4167232513006093)

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
        metropolis_run(cfg, 4, 2**64 - 1)
        # the start state predicts fewer than one flip: the first sweep reads its
        # thresholds, fails the whole-sweep test and then reads its order; each
        # later sweep follows one that flipped and reads its 2n words in one call
        assert mc_module._Chain(cfg, cfg.field(4), 0).acc < 1.0
        seed = 2**64 - 1
        assert calls == [(seed, 12, 12), (seed, 0, 12)] + [(seed, 24 * k, 24)
                                                            for k in range(1, 9)]
        # a frozen sweep reads its thresholds alone: no proposal passes, so
        # its order words are never read
        calls.clear()
        cfg = TestDriftCheck.FROZEN
        n = cfg.size
        metropolis_run(cfg, 2, 7)
        assert calls == [(7, 2 * n * k + n, n) for k in range(cfg.sweeps)]


def run_small(beta, theta, seed=11, sweeps=6000, **kwargs):
    cfg = RunConfig(alpha=0.55, beta=beta, theta=theta, size=10, sweeps=sweeps,
                    burnin=sweeps // 6, seed=seed, realizations=1, **kwargs)
    return cfg, cfg.field(seed + 1), metropolis_run(cfg, seed + 1, seed + 2)


class TestMetropolis:
    def test_infinite_temperature(self):
        _, _, res = run_small(0.0, 0.0)
        assert res.estimate == pytest.approx(0.5, abs=3.0 * max(res.stderr, 0.01))

    def test_matches_exact_marginal(self):
        for beta, theta in [(0.05, 0.2), (0.1, 0.4)]:
            cfg, h, res = run_small(beta, theta)
            exact = exact_gibbs_marginal(cfg.coupling_spec(), cfg.volume(), h,
                                         theta, beta, 0, +1)
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
        h = DisorderField.generate(Volume(0, 4), seed=0)
        with pytest.raises(ValueError, match="field volume does not match config"):
            mc_module._Chain(cfg, h, cfg.seed)

    def test_single_kernel_matches_oracles(self, energy_oracle):
        # after a short run the running sums and energy equal independent recomputations
        beta, theta = 0.2, 1.0
        for n in (5, 64):
            cfg = RunConfig(size=n, beta=beta, theta=theta, j1=1.5, sweeps=1, burnin=0)
            vol, spec = cfg.volume(), cfg.coupling_spec()
            h = DisorderField.generate(vol, seed=n)
            t = spec.coupling_toeplitz(vol)
            chain = mc_module._Chain(cfg, h, 0)
            s, m = chain.s, chain.m
            e = energy(spec, vol, s, +1, h, theta)
            rng = np.random.default_rng(n)
            accepted = 0
            for _ in range(20):
                e, acc = mc_module._sweep(s, m, chain.rows2, chain.tb, chain.th, beta,
                                          rng.permutation(n), -np.log(rng.random(n)), e)
                accepted += acc
            assert accepted > 0
            dense = spec.coupling_matrix(vol) @ s
            assert np.allclose(m, dense, rtol=1e-9, atol=1e-9 * np.abs(t).sum())
            exact = energy_oracle(spec, vol, s, +1, h.values, theta)
            assert e == pytest.approx(exact, rel=1e-9)
            assert energy(spec, vol, s, +1, h, theta) == pytest.approx(exact, rel=1e-9)
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
        h = DisorderField.generate(vol, seed=4)
        chain = mc_module._Chain(cfg, h, cfg.seed)
        s, m, e = chain.s, chain.m, chain.e
        rng = np.random.default_rng(123)
        sweeps, burnin = 40_000, 2_000
        counts = np.zeros(2 ** n)
        for sweep in range(sweeps):
            e, _ = mc_module._sweep(
                s, m, chain.rows2, chain.tb, chain.th, beta,
                rng.permutation(n), -np.log(rng.random(n)), e)
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
    from the all-boundary state.

    ``_reference_sweep`` takes its own arguments and the uniforms u; a
    kernel takes the per-chain tables and the thresholds -ln u of the same u.
    """
    cfg = RunConfig(size=n, alpha=0.55, beta=beta, theta=theta, j1=j1, sweeps=1, burnin=0,
                    boundary=boundary)
    vol, spec = cfg.volume(), cfg.coupling_spec()
    h = DisorderField.generate(vol, seed=seed, distribution=distribution)
    t = spec.coupling_toeplitz(vol)
    chain = mc_module._Chain(cfg, h, seed)
    s, m = chain.s, chain.m
    e = energy(spec, vol, s, boundary, h, theta)
    rng = np.random.default_rng(seed + 1)
    accepted = 0
    for _ in range(sweeps):
        order, u = rng.permutation(n), rng.random(n)
        if kernel is _reference_sweep:
            e, acc = kernel(s, m, t, spec.boundary_vector(vol), h.values, theta, beta,
                            chain.tau, order, u, e)
        else:
            # as the chain passes them: tb and th as lists of floats
            e, acc = kernel(s, m, chain.rows2, chain.tb.tolist(), chain.th.tolist(), beta,
                            order, -np.log(u), e)
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


class TestScalarKernel:
    """The Python-float ``_sweep`` against a numpy-scalar loop of the exponential
    rule u < exp(-beta * de), fed the same uniforms."""

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

    def test_threshold_ties(self):
        # with zero couplings each site is an independent proposal with
        # de = 2 b_k; a move is accepted iff beta * de <= its threshold
        beta = 0.7
        rng = np.random.default_rng(5)
        b = np.concatenate([np.geomspace(1e-310, 1e300, 401), 40.0 * rng.random(600)])
        n = b.size

        def accepts(b, thr):
            s, m = np.ones(n), np.zeros(n)
            mc_module._sweep(s, m, np.zeros((n, n)), b, np.zeros(n), beta, np.arange(n), thr,
                             0.0)
            return s < 0

        x = beta * (2.0 * b)
        assert np.all(np.isfinite(x) & (x > 0.0))
        assert accepts(b, x).all()
        assert not accepts(b, np.nextafter(x, -np.inf)).any()
        assert accepts(b, np.full(n, np.inf)).all()
        # a downhill move passes the smallest threshold, -ln(1 - 2**-53)
        assert accepts(-b, np.full(n, -np.log1p(-2.0**-53))).all()
        assert not accepts(np.full(n, np.nan), np.full(n, np.inf)).any()

    def test_nan_flip_energy_is_rejected(self):
        n = 8
        hv = np.full(n, np.nan)
        s, m = np.ones(n), np.zeros(n)
        e, acc = _reference_sweep(s, m, np.zeros(2 * n - 1), np.zeros(n), hv, 1.0, 0.5, 1.0,
                                  np.arange(n), np.zeros(n), 0.0)
        assert acc == 0 and e == 0.0 and np.array_equal(s, np.ones(n))
        s, m = np.ones(n), np.zeros(n)
        # the uniform 0 is the threshold +inf
        e, acc = mc_module._sweep(s, m, np.zeros((n, n)), np.zeros(n), hv, 0.5,
                                  np.arange(n), np.full(n, np.inf), 0.0)
        assert acc == 0 and e == 0.0 and np.array_equal(s, np.ones(n))

    def test_commit_signs(self):
        # a plus spin flips to minus and subtracts its doubled coupling row; a
        # minus spin flips to plus and adds it
        spec = CouplingSpec(alpha=0.55, j1=1.5)
        vol = Volume.centered(5)
        t = spec.coupling_toeplitz(vol)
        s = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
        m = spec.coupling_matrix(vol) @ s
        want = m.copy()
        rows = toeplitz_rows(t)
        order = [1, 2, 0, 3, 3]
        mc_module._sweep(s, m, toeplitz_rows(2.0 * t), np.zeros(5), np.zeros(5), 0.0,
                         np.array(order), np.full(5, np.inf), 0.0)
        assert np.array_equal(s, [-1.0, -1.0, 1.0, 1.0, 1.0])
        for i, sign in zip(order, [-1, +1, -1, -1, +1]):
            want += sign * (2.0 * rows[i])
        assert np.array_equal(m, want)


class TestSkipPath:
    """A chain skips a predicted-frozen sweep only when the whole-sweep test
    shows that no proposal can pass, so skipping changes no chain."""

    @pytest.mark.parametrize("n, beta, theta, j1, acceptance", [
        (4096, 5.0, 0.05, 10.0, (0.0, 0.0)),  # sample-cold parameters
        (512, 0.2, 1.0, 1.5, (0.2, 0.45)),  # sample-hot parameters
        (512, 0.4, 1.0, 1.5, (0.005, 0.05)),  # rare accepts
        (512, 0.0, 1.0, 1.5, (1.0, 1.0)),  # beta = 0 accepts everything
        (1, 0.3, 1.0, 1.5, (0.0, 1.0)),
    ], ids=["cold", "hot", "rare", "beta0", "n1"])
    @pytest.mark.parametrize("seed", [64, 1000])
    def test_same_chain_as_scalar_loop(self, n, beta, theta, j1, acceptance, seed):
        # the second chain predicts a flip before every sweep, so it never
        # tests a sweep whole; after every sweep the two agree to the bit
        cfg = RunConfig(size=n, alpha=0.55, beta=beta, theta=theta, j1=j1, sweeps=20,
                        burnin=0)
        h = DisorderField.generate(cfg.volume(), seed=0)
        chain, scalar = mc_module._Chain(cfg, h, seed), mc_module._Chain(cfg, h, seed)
        for sweep in range(cfg.sweeps):
            chain.sweep(sweep)
            scalar.acc = 1.0
            scalar.sweep(sweep)
            assert np.array_equal(chain.s, scalar.s) and np.array_equal(chain.m, scalar.m)
            assert (chain.e, chain.acc) == (scalar.e, scalar.acc), sweep
        lo, hi = acceptance
        assert lo <= chain.accepted / (cfg.sweeps * n) <= hi


class TestProposalLoop:
    """Every sweep that proposes runs ``_sweep``; the whole-sweep test only
    ends sweeps in which no proposal can pass, so it changes no chain."""

    def test_forced_scalar_sweeps_give_the_same_result(self, monkeypatch):
        # a warm chain: some predicted-frozen sweeps pass the whole-sweep test
        # and some fail it
        cfg = RunConfig(alpha=0.55, beta=0.4, theta=0.5, j1=1.5, size=32, sweeps=400,
                        burnin=10, seed=0, realizations=1)
        calls = []
        scalar = mc_module._sweep

        def counting(*args):
            calls.append(1)
            return scalar(*args)

        monkeypatch.setattr(mc_module, "_sweep", counting)
        step = mc_module._Chain.sweep
        tested = []  # per predicted-frozen sweep: whether it ran _sweep

        def logged(chain, k):
            frozen, before = chain.acc < 1.0, len(calls)
            step(chain, k)
            if frozen:
                tested.append(len(calls) > before)

        monkeypatch.setattr(mc_module._Chain, "sweep", logged)
        want = metropolis_run(cfg, 10, 20)
        assert True in tested and False in tested
        assert 0.0 < want.acceptance < 1.0

        def forced(chain, k):
            chain.acc = 1.0
            step(chain, k)

        monkeypatch.setattr(mc_module._Chain, "sweep", forced)
        calls.clear()
        assert metropolis_run(cfg, 10, 20) == want
        assert len(calls) == cfg.sweeps

    def test_large_negative_flip_energy_does_not_overflow(self):
        # a field of strength 1000 gives de near -2000 at every site it opposes:
        # each site takes its field's sign, then every sweep is tested whole
        cfg = RunConfig(alpha=0.55, beta=5.0, theta=1000.0, j1=1.5, size=64, sweeps=200,
                        burnin=1, seed=0, realizations=1)
        h = cfg.field(3)
        assert cfg.sweeps > -(-mc_module.DRIFT_CHECK_UPDATES // cfg.size)  # a drift check runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = metropolis_run(cfg, 3, cfg.seed)
        assert res.acceptance > 0.0
        assert res.estimate == float(h.values[cfg.volume().index(0)] < 0)


class TestWholeSweepRejection:
    """The order-free test that ends a predicted-frozen sweep of a chain
    with no flip when the least beta * de exceeds the greatest threshold."""

    BETA = 0.7

    def _run(self, b, thr, monkeypatch):
        """One predicted-frozen chain sweep with zero couplings, so that
        proposal k has de = 2 b_k, against the thresholds thr: the chain's
        (s, e, accepted), the number of times it drew its order, and the
        (s, e, accepted) of ``_sweep`` in the same order."""
        n = b.size
        drawn = []

        def draw_order(w):
            drawn.append(1)
            return np.arange(n)

        monkeypatch.setattr(mc_module, "_thresholds", lambda w: thr)
        monkeypatch.setattr(mc_module, "_site_order", draw_order)
        cfg = RunConfig(size=n, alpha=0.55, beta=self.BETA, sweeps=1, burnin=0)
        chain = mc_module._Chain(cfg, DisorderField.generate(cfg.volume(), seed=0), 1)
        chain.rows2, chain.m = np.zeros((n, n)), np.zeros(n)
        chain.tb, chain.th, chain.acc = b, np.zeros(n), 0
        chain.sweep(0)
        s2, m2 = np.ones(n), np.zeros(n)
        e2, acc2 = mc_module._sweep(s2, m2, np.zeros((n, n)), b.tolist(), [0.0] * n, self.BETA,
                                    np.arange(n), thr, 0.0)
        return (chain.s.tolist(), chain.e, chain.acc), len(drawn), (s2.tolist(), e2, acc2)

    @pytest.mark.parametrize("n", [1, 5])
    def test_threshold_ties(self, n, monkeypatch):
        # a constant field: every proposal has the same beta * de, equal to
        # every threshold, and each passes (<=)
        b = np.full(n, 3.0)
        x = self.BETA * (2.0 * b)
        got, drawn, scalar = self._run(b, x, monkeypatch)
        assert got == scalar and got[2] == n and drawn == 1
        # one ulp less, no proposal passes, and the order is never drawn
        got, drawn, scalar = self._run(b, np.nextafter(x, -np.inf), monkeypatch)
        assert got == scalar == ([1.0] * n, 0.0, 0) and drawn == 0

    def test_one_tie_among_rejections(self, monkeypatch):
        b = np.array([5.0, 3.0, 7.0])
        thr = np.array([1.0, self.BETA * (2.0 * 3.0), 2.0])
        got, drawn, scalar = self._run(b, thr, monkeypatch)
        assert got == scalar == ([1.0, -1.0, 1.0], 6.0, 1) and drawn == 1

    def test_infinite_threshold_scans_the_sweep(self, monkeypatch):
        # u = 0 gives the threshold +inf, the greatest, which no beta * de exceeds
        b = np.full(6, 3.0)
        thr = np.full(6, 1.0)
        thr[4] = np.inf
        got, drawn, scalar = self._run(b, thr, monkeypatch)
        assert got == scalar and got[2] == 1 and drawn == 1

    def test_nan_flip_energy_scans_the_sweep(self, monkeypatch):
        # a NaN de makes the least beta * de NaN, and the test fails; _sweep
        # rejects every proposal
        got, drawn, scalar = self._run(np.full(6, np.nan), np.full(6, 1.0), monkeypatch)
        assert got == scalar == ([1.0] * 6, 0.0, 0) and drawn == 1


class TestMeasurement:
    # a field of strength 10 turns each site to its own sign within the
    # burn-in; then no proposal passes, and the origin lies in a contour
    CFG = RunConfig(alpha=0.55, beta=5.0, theta=10.0, j1=1.5, size=64, sweeps=60, burnin=5,
                    seed=0, realizations=1)

    @staticmethod
    def hand_stepped(cfg, field_seed, seed, fresh_least=False):
        """The ``ChainResult`` of a chain stepped by hand on the field that
        ``DisorderField.generate`` draws from ``field_seed``, which measures the
        state after every measured sweep; with ``fresh_least`` the chain's
        cached least is cleared before every sweep."""
        h = DisorderField.generate(cfg.volume(), field_seed, cfg.distribution)
        chain = mc_module._Chain(cfg, h, seed)
        origin = chain.vol.index(0)
        minus, covered = [], []
        for sweep in range(cfg.sweeps):
            if fresh_least:
                chain.least = None
            chain.sweep(sweep)
            if sweep >= cfg.burnin:
                minus.append(chain.s[origin] < 0)
                covered.append(origin_in_contour(chain.s, chain.vol))
        minus, covered = np.array(minus), np.array(covered)
        x = minus.astype(np.float64)
        return mc_module.ChainResult(
            estimate=float(x.mean()), stderr=mc_module._batch_means_stderr(x),
            occupancy=float(covered.mean()),
            acceptance=chain.accepted / (cfg.sweeps * cfg.size),
            violations=int(np.count_nonzero(minus & ~covered)),
            n_measured=cfg.sweeps - cfg.burnin, field_seed=field_seed)

    def test_sweep_without_flip_is_not_measured_again(self, monkeypatch):
        cfg = self.CFG
        want = self.hand_stepped(cfg, 10, 20)
        assert want.acceptance > 0.0 and want.estimate == want.occupancy == 1.0

        calls = []

        def counting(spins, vol):
            calls.append(1)
            return spins_to_triangles(spins, vol)

        monkeypatch.setattr(mc_module, "spins_to_triangles", counting)
        assert metropolis_run(cfg, 10, 20) == want
        assert len(calls) == 1

    def test_chain_draws_the_configured_field(self):
        # a warm chain, whose path turns on the field's magnitudes and not only
        # its signs (a gaussian value has its bernoulli value's sign)
        cfg = RunConfig(alpha=0.55, beta=0.4, theta=0.5, j1=1.5, size=32, sweeps=400,
                        burnin=10, seed=0, realizations=1, distribution="gaussian")
        res = metropolis_run(cfg, 10, 20)
        assert res == self.hand_stepped(cfg, 10, 20)
        assert res.field_seed == 10 and 0.0 < res.acceptance < 1.0


class TestCachedLeast:
    """A chain caches the least beta * de of its state (``_Chain.least``) for
    the whole-sweep test while nothing flips; the cache changes no chain."""

    @staticmethod
    def _side_by_side(cfg, h, seed):
        """Step a chain next to one whose least is cleared before every sweep.

        After every sweep the two agree to the bit, and a cached least is
        the ``_least`` of the state.  Returns, per sweep, whether the chain
        began it with a cached least and how many flips it accepted.
        """
        chain, fresh = mc_module._Chain(cfg, h, seed), mc_module._Chain(cfg, h, seed)
        log = []
        for sweep in range(cfg.sweeps):
            cached = chain.least is not None
            chain.sweep(sweep)
            fresh.least = None
            fresh.sweep(sweep)
            assert np.array_equal(chain.s, fresh.s) and np.array_equal(chain.m, fresh.m)
            assert (chain.e, chain.acc) == (fresh.e, fresh.acc), sweep
            if chain.least is not None:
                assert chain.least == mc_module._least(chain.s, chain.m, chain.tb, chain.th,
                                                       cfg.beta), sweep
            log.append((cached, chain.acc))
        return log

    def test_flipping_then_frozen_chain(self):
        cfg = TestMeasurement.CFG
        log = self._side_by_side(cfg, cfg.field(10), 20)
        # the chain flips, then holds one cached least to its end
        assert log[0][0] is False and log[0][1] > 0 and log[-1] == (True, 0)
        assert metropolis_run(cfg, 10, 20) == TestMeasurement.hand_stepped(
            cfg, 10, 20, fresh_least=True)

    def test_cache_is_dropped_after_any_flip(self):
        # a warm chain: some predicted-frozen sweeps, which test a cached least,
        # accept one flip and some more than one
        cfg = RunConfig(alpha=0.55, beta=0.4, theta=0.5, j1=1.5, size=32, sweeps=400,
                        burnin=10, seed=0, realizations=1)
        log = self._side_by_side(cfg, cfg.field(10), 20)
        assert (True, 1) in log and any(cached and acc > 1 for cached, acc in log)

    def test_frozen_chain_evaluates_least_once(self, monkeypatch):
        calls = []
        least = mc_module._least

        def counting(*args):
            calls.append(1)
            return least(*args)

        monkeypatch.setattr(mc_module, "_least", counting)
        cfg = TestDriftCheck.FROZEN
        res = metropolis_run(cfg, 2, cfg.seed)
        assert res.acceptance == 0.0
        assert len(calls) == 1


class TestDriftCheck:
    @staticmethod
    def _counting_energy(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return energy(*args)

        monkeypatch.setattr(mc_module, "energy", counting)
        return calls

    # 400 sweeps of 64 updates pass two drift checks, after sweeps 156 and 313
    FROZEN = RunConfig(alpha=0.55, beta=5.0, theta=0.05, j1=10.0, size=64, sweeps=400,
                       burnin=10, seed=1, realizations=1)

    @staticmethod
    def _drifting(monkeypatch):
        """Add 1 to the running energy after every sweep; returns the accept counts.

        A least beta * de of -inf fails every whole-sweep test, so every
        sweep runs ``_sweep``, as it would without the test."""
        accepted = []
        sweep = mc_module._sweep

        def drifting(*args):
            e, acc = sweep(*args)
            accepted.append(acc)
            return e + 1.0, acc

        monkeypatch.setattr(mc_module, "_sweep", drifting)
        monkeypatch.setattr(mc_module, "_least", lambda *args: -np.inf)
        return accepted

    def test_frozen_chain_computes_no_energy(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        cfg = self.FROZEN
        res = metropolis_run(cfg, 2, cfg.seed)
        assert res.acceptance == 0.0
        assert len(calls) == 0

    def test_short_flipping_chain_computes_no_energy(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        # a sample-hot chain: 3 sweeps of 512 updates end before the first check
        cfg = RunConfig(alpha=0.55, beta=0.2, theta=1.0, j1=1.5, size=512, sweeps=3,
                        burnin=2, seed=1, realizations=1)
        assert cfg.sweeps * cfg.size < mc_module.DRIFT_CHECK_UPDATES
        res = metropolis_run(cfg, 2, cfg.seed)
        assert res.acceptance > 0.0
        assert len(calls) == 0

    @pytest.mark.parametrize("boundary", [+1, -1])
    def test_flipping_chain_passes_checks_against_start_energy(self, monkeypatch, boundary):
        # the start energy, with its boundary and field terms, is computed once,
        # then the current energy at each of the two checks
        calls = self._counting_energy(monkeypatch)
        cfg = RunConfig(alpha=0.55, beta=0.2, theta=1.0, j1=1.5, size=64, sweeps=400,
                        burnin=10, seed=1, realizations=1, boundary=boundary,
                        distribution="uniform")
        res = metropolis_run(cfg, 2, cfg.seed)
        assert res.acceptance > 0.0
        assert len(calls) == 3

    def test_drift_before_first_flip_raises(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        accepted = self._drifting(monkeypatch)
        cfg = self.FROZEN
        with pytest.raises(mc_module.EnergyDriftError):
            metropolis_run(cfg, 2, cfg.seed)
        # the first check compares the drifted running energy with the start's, 0
        assert len(accepted) == 157 and sum(accepted) == 0
        assert len(calls) == 0

    @pytest.mark.parametrize("size, sweeps_before_check", [
        (3000, 4),  # ceil(10^4 / 3000) = 4 sweeps between checks
        (2500, 4),  # 4 sweeps reach 10^4 updates exactly, and the check falls there
        (10_001, 1),  # past 10^4 sites a check follows every sweep
    ])
    def test_first_check_falls_after_ceil_updates_over_size_sweeps(self, monkeypatch, size,
                                                                   sweeps_before_check):
        calls = self._counting_energy(monkeypatch)
        accepted = self._drifting(monkeypatch)
        cfg = dataclasses.replace(self.FROZEN, size=size)
        with pytest.raises(mc_module.EnergyDriftError):
            metropolis_run(cfg, 2, cfg.seed)
        assert len(accepted) == sweeps_before_check and sum(accepted) == 0
        assert len(calls) == 0

    def test_corrupted_running_energy_raises(self, monkeypatch):
        calls = self._counting_energy(monkeypatch)
        accepted = self._drifting(monkeypatch)
        cfg = RunConfig(alpha=0.55, beta=0.2, theta=1.0, j1=1.5, size=64, sweeps=400,
                        burnin=10, seed=1, realizations=1)
        with pytest.raises(mc_module.EnergyDriftError):
            metropolis_run(cfg, 2, cfg.seed)
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
        assert rep.config is cfg

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

    def test_alpha_outside_peierls_range_rejected_before_chains(self, monkeypatch):
        # RunConfig accepts alpha < 1; b_bar needs zeta(alpha) > 0
        def no_work(*args, **kwargs):
            raise AssertionError("a chain ran at alpha = 0.7")

        monkeypatch.setattr(mc_module, "metropolis_run", no_work)
        cfg = RunConfig(alpha=0.7, size=10, sweeps=300, burnin=50, realizations=2)
        with pytest.raises(ValueError, match="alpha=0.7 outside"):
            disorder_sweep(cfg)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_chains(self, monkeypatch, jobs):
        # refused before a process pool or a chain could start
        def no_work(*args, **kwargs):
            raise AssertionError(f"work started at jobs = {jobs}")

        for name in ("_stream_words", "metropolis_run"):
            monkeypatch.setattr(mc_module, name, no_work)
        cfg = RunConfig(size=10, sweeps=300, burnin=50, realizations=2)
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            disorder_sweep(cfg, jobs=jobs)

    def test_distinct_fields_per_realization(self):
        cfg = RunConfig(size=10, beta=0.1, theta=0.2, sweeps=300, burnin=50,
                        seed=5, realizations=4)
        rep = disorder_sweep(cfg)
        assert len({c.field_seed for c in rep.chains}) == 4


def origin_in_contour(spins, vol):
    return any(g.contains_site(0) for g in contours(spins_to_triangles(spins, vol), 3))


class TestDecompositionCheck:
    def test_all_plus_sample(self):
        vol = Volume.centered(8)
        assert not origin_in_contour(minus_row(vol), vol)

    def test_minus_origin_is_covered(self):
        vol = Volume.centered(8)
        for minus in ([0], [0, 1], [-2, 0, 3]):
            sigma = minus_row(vol, minus)
            assert sigma[vol.index(0)] == -1
            assert origin_in_contour(sigma, vol)


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
