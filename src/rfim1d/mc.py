"""Single-site Metropolis sampling of the finite-volume plus-boundary measure.

Each chain (``_Chain``) owns its kernel tables, its state and its drift
check.  It keeps the running sums m_i = sum_j J(|i-j|) sigma_j, which
start in closed form (``_start_sums``), so a flip proposal costs O(1) to
evaluate and O(N) to commit; the couplings are one length-(2N-1)
Toeplitz vector (row i of J is a slice of it), so memory stays O(N).
Its running energy, the change since the start, is checked after every
ceil(10^4/N) sweeps against ``model.energy`` of the current state less
that of the start state.  The current energy is recomputed only if a flip
was accepted since the last check, and the start energy once, at the
first recomputation: before it both sides are exactly 0, so a chain that
never flips, or ends before its first check, evaluates no energy.

Every random number of a run is a SplitMix64 word (``model._stream_words``).
Realization r of seed S takes its field seed and its chain seed from
words 2r and 2r + 1 of ``SplittableRandom(S)``.  Sweep k of a chain owns
words [2Nk, 2Nk + 2N) of ``SplittableRandom(chain seed)``: the first N
give the site order, the stable argsort of w >> b with
b = (N - 1).bit_length(), and the next N the uniforms u = (w >> 11) / 2**53
(counter-based as in Salmon et al., SC 2011), so the chains never import
numpy's random module.  A sweep reads its 2N words in one call, except
one that the chain predicts frozen: it reads the uniforms, and the order
words only when a proposal may pass (see the whole-sweep test below).
Being counter-based, a skipped read moves no later draw.

A proposal with flip energy dE is accepted when beta * dE <= -ln u, the
log form of u <= exp(-beta * dE): no exponential is taken, u = 0 gives
the threshold +inf, a downhill move always passes and a NaN dE fails.
The rule u < exp(-beta * dE) would decide differently only where u lies
within an ulp of the exponential, or where u = 0 meets an exponential
that underflowed: about 2**-52 per uphill proposal.

The sweep kernel ``_sweep`` is a loop on Python floats over the chain's
tables (doubled coupling rows, tau * b, theta * h) that commits an
accepted flip as one in-place numpy subtract or add of a doubled row.
When the chain predicts no flip (the previous sweep accepted none, or the
start state predicts fewer than one), the sweep is first tested whole, in
no order: if the least beta * dE over all sites (``_least``, the kernel's
own float product) exceeds the greatest threshold, every proposal
compares a value at least that least one with a threshold at most that
greatest one, so none passes in any order.  The sweep then ends with no
flip and without reading its order words; otherwise ``_sweep`` runs as
it would without the test, so the test cannot change a chain.  The chain
caches the least from the first sweep that tests it and drops it after
any sweep that accepts a flip: with no flip the state, and so the least,
keeps its bits, and a frozen chain computes it once.  A NaN dE makes the
least value NaN, and u = 0 the greatest threshold +inf; either fails the
test, and ``_sweep`` decides each proposal.  A chain that flips skips the
test, which would nearly always fail, and reads its words in one call.
A measured sweep with no flip reuses the previous sweep's measurement
instead of rebuilding its triangles and contours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .contours import check_separation_constant, contours
from .disorder import b_bar
from .model import (DISTRIBUTIONS, CouplingSpec, DisorderField, Volume, _coupling_tables,
                    _stream_words, energy, toeplitz_rows)
from .triangles import spins_to_triangles

DRIFT_CHECK_UPDATES = 10_000
DRIFT_TOLERANCE = 1e-6
BATCHES = 32  # batch means of a chain's error bar
MAX_SWEEPS = 10**8  # a chain keeps at most two one-byte records per measured sweep
MAX_REALIZATIONS = 10**6  # a run draws its 2 * realizations seed words up front: 16 MB


class EnergyDriftError(RuntimeError):
    """Incremental chain energy diverged from a full recomputation."""


class WorkerPoolError(RuntimeError):
    """A worker process of a ``jobs > 1`` run died before it returned."""


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one disorder-averaged sampling run."""

    alpha: float = 0.55
    beta: float = 1.0
    theta: float = 0.05
    j1: float = 10.0
    size: int = 512
    sweeps: int = 10_000
    burnin: int = 1_000
    seed: int = 0
    boundary: int = +1
    realizations: int = 64
    distribution: str = "bernoulli"
    c: int = 3

    def __post_init__(self):
        if not self.beta >= 0.0:  # also rejects NaN
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if not 0 <= self.burnin < self.sweeps:
            raise ValueError(f"need sweeps > burnin >= 0, got sweeps={self.sweeps}, "
                             f"burnin={self.burnin}")
        # the records of a chain, and its draw counter 2 * size * sweep, must fit
        if self.sweeps > MAX_SWEEPS or 2 * self.size * self.sweeps >= 2**64:
            raise ValueError(f"sweeps must be <= {MAX_SWEEPS} and 2 * size * sweeps "
                             f"< 2**64, got sweeps={self.sweeps}, size={self.size}")
        if not 1 <= self.realizations <= MAX_REALIZATIONS:
            raise ValueError(f"realizations must be in [1, {MAX_REALIZATIONS}], "
                             f"got {self.realizations}")
        if self.boundary not in (-1, +1):
            raise ValueError(f"boundary must be +-1, got {self.boundary}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        check_separation_constant(self.c)
        self.coupling_spec()  # checks alpha and j1

    def volume(self) -> Volume:
        return Volume.centered(self.size)

    def coupling_spec(self) -> CouplingSpec:
        return CouplingSpec(alpha=self.alpha, j1=self.j1)

    def field(self, seed: int) -> DisorderField:
        """The run's field drawn from ``seed``: its volume and distribution."""
        return DisorderField.generate(self.volume(), seed, self.distribution)


@dataclass(frozen=True)
class ChainResult:
    """One realization: marginal estimate with batch-means error bars."""

    estimate: float
    stderr: float
    occupancy: float
    acceptance: float
    violations: int
    n_measured: int
    field_seed: int


@dataclass(frozen=True)
class RunReport:
    """Disorder-averaged summary with the Peierls reference scales."""

    config: RunConfig
    chains: Tuple[ChainResult, ...]
    estimate: float
    stderr: float
    occupancy: float
    b_bar: float
    reference_100: float
    reference_200: float


def _sweep(s, m, rows2, tb, th, beta, order, thr, e):
    """One Metropolis sweep in the given site order; returns (energy, accepted).

    Proposal k flips site i = order[k] iff beta * de <= thr[k], with
    de = 2 s_i (m_i + tb_i + th_i); a flip of a plus (minus) spin subtracts
    (adds) the doubled coupling row rows2[i] from (to) m.  The tables tb
    and th are lists of Python floats, built once per chain.
    """
    sl = s.tolist()
    m_at = m.item
    acc = 0
    for i, v in zip(order.tolist(), thr.tolist()):
        si = sl[i]
        de = 2.0 * si * (m_at(i) + tb[i] + th[i])
        if beta * de <= v:
            if si > 0.0:
                m -= rows2[i]
            else:
                m += rows2[i]
            sl[i] = -si
            e += de
            acc += 1
    s[:] = sl
    return e, acc


def _least(s, m, tb, th, beta):
    """The least beta * de over all sites, the kernel's own float product."""
    return (beta * (2.0 * s * (m + tb + th))).min()


def _start_sums(t: np.ndarray, tau: float) -> np.ndarray:
    """J s of the all-tau state, tau * (C[i] + C[N-1-i]) with C[k] the sum of
    J(1..k) from the Toeplitz vector t: O(N) and mirror-symmetric to the bit."""
    n = (t.size + 1) // 2
    c = np.concatenate(([0.0], np.cumsum(t[n:])))
    return tau * (c + c[::-1])


def _batch_means_stderr(x: np.ndarray) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    n = x.size
    nb = min(BATCHES, n)
    if nb < 2:
        return 0.0
    size = n // nb
    means = x[: nb * size].reshape(nb, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


class _Chain:
    """One chain's tables, state and drift check (see the module docstring)."""

    def __init__(self, config: RunConfig, h: DisorderField, seed: int):
        self.config, self.h, self.seed = config, h, seed
        self.spec, self.vol = config.coupling_spec(), config.volume()
        if h.volume != self.vol:
            raise ValueError("field volume does not match config")
        n = self.n = config.size
        tau = self.tau = float(config.boundary)
        t, bv = _coupling_tables(self.spec, self.vol)
        # the kernel's tables; doubling is exact: row i is 2 * t[n-1-i : 2n-1-i]
        self.rows2, self.tb, self.th = toeplitz_rows(2.0 * t), tau * bv, config.theta * h.values
        # the scalar loop's tables and the cached _least wait until a sweep needs them
        self.tb_list = self.th_list = self.least = None
        self.s = np.full(n, tau)
        self.m = _start_sums(t, tau)
        # energy changes since the start; e0 and scale wait for a recomputation
        self.e = self.ref = 0.0
        self.e0, self.scale = None, 1.0
        self.check_every = -(-DRIFT_CHECK_UPDATES // n)  # sweeps between drift checks
        self.accepted = self.flips_since_check = 0
        # the acceptance the start state predicts: the sum of min(1, exp(-beta * de))
        de = 2.0 * self.s * (self.m + self.tb + self.th)
        self.acc = float(np.exp(np.minimum(-config.beta * de, 0.0)).sum())

    def sweep(self, k: int) -> None:
        """Run sweep k, then the drift check if one falls after it."""
        n, beta, seed = self.n, self.config.beta, self.seed
        if self.acc >= 1.0:
            order, thr = _sweep_draws(seed, n, k)
        else:
            # no flip predicted: the order words wait for the whole-sweep test
            thr = _thresholds(_stream_words(seed, 2 * n * k + n, n))
            if self.least is None:
                self.least = _least(self.s, self.m, self.tb, self.th, beta)
            order = (None if self.least > thr.max()
                     else _site_order(_stream_words(seed, 2 * n * k, n)))
        self.acc = 0
        if order is not None:
            if self.tb_list is None:
                self.tb_list, self.th_list = self.tb.tolist(), self.th.tolist()
            self.e, self.acc = _sweep(self.s, self.m, self.rows2, self.tb_list, self.th_list,
                                      beta, order, thr, self.e)
            if self.acc:
                self.least = None  # a flip changed the state
        self.accepted += self.acc
        self.flips_since_check += self.acc
        if (k + 1) % self.check_every == 0:
            # with no flip since the last recomputation (or the start), s and e
            # are exactly those it saw, so its value stands
            if self.flips_since_check:
                self.flips_since_check = 0
                rest = (self.config.boundary, self.h, self.config.theta)
                if self.e0 is None:
                    self.e0 = energy(self.spec, self.vol, np.full(n, self.tau), *rest)
                now = energy(self.spec, self.vol, self.s, *rest)
                self.ref, self.scale = now - self.e0, max(1.0, abs(now))
            if abs(self.e - self.ref) > DRIFT_TOLERANCE * self.scale:
                raise EnergyDriftError(f"energy drift {self.e - self.ref:g} after sweep {k}")
            self.e = self.ref


def metropolis_run(config: RunConfig, field_seed: int, chain_seed: int) -> ChainResult:
    """Sample one chain on the field ``config.field(field_seed)`` and estimate
    mu(+/-)_Lambda(sigma_0 = -1).

    Starts from the all-boundary state; measures the origin occupation and
    the fraction of measured sweeps whose decomposition has a contour
    through the origin.  Deterministic given (config, field_seed, chain_seed).
    """
    chain = _Chain(config, config.field(field_seed), chain_seed)
    origin = chain.vol.index(0)
    n_measured = config.sweeps - config.burnin
    minus = np.zeros(n_measured, dtype=bool)
    in_contour = np.zeros(n_measured, dtype=bool)
    for sweep in range(config.sweeps):
        chain.sweep(sweep)
        k = sweep - config.burnin
        if k > 0 and chain.acc == 0:
            # no flip: the state is the one measured after the previous sweep
            minus[k], in_contour[k] = minus[k - 1], in_contour[k - 1]
        elif k >= 0:
            minus[k] = chain.s[origin] < 0
            # fold a minus boundary onto the plus-boundary construction
            fam = spins_to_triangles(chain.tau * chain.s, chain.vol)
            in_contour[k] = any(g.contains_site(0) for g in contours(fam, config.c))

    x = minus.astype(np.float64)
    return ChainResult(
        estimate=float(x.mean()),
        stderr=_batch_means_stderr(x),
        occupancy=float(in_contour.mean()),
        acceptance=chain.accepted / (config.sweeps * config.size),
        violations=int(np.count_nonzero(minus & ~in_contour)),
        n_measured=n_measured,
        field_seed=field_seed,
    )


def _sweep_draws(seed: int, n: int, sweep: int) -> Tuple[np.ndarray, np.ndarray]:
    """Site order and accept thresholds of one sweep, from words
    [2n k, 2n k + 2n) of ``SplittableRandom(seed)``, k the sweep: the
    first n give ``_site_order``, the next n ``_thresholds``."""
    w = _stream_words(seed, 2 * n * sweep, 2 * n)
    return _site_order(w[:n]), _thresholds(w[n:])


def _site_order(w: np.ndarray) -> np.ndarray:
    """The stable argsort of w >> b for n = len(w) words, b = (n - 1).bit_length():
    each key (w >> b, j) is packed into one word with the index j in its low
    b bits, so one sort of n words finds it."""
    n = w.size
    mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    order = np.sort((w & ~mask) | np.arange(n, dtype=np.uint64)) & mask
    return order.astype(np.intp)


def _thresholds(w: np.ndarray) -> np.ndarray:
    """The thresholds -ln u in (0, inf] of the uniforms u = (w >> 11) / 2**53 in [0, 1)."""
    with np.errstate(divide="ignore"):
        return -np.log((w >> np.uint64(11)) * 2.0**-53)


def disorder_sweep(config: RunConfig, jobs: int = 1) -> RunReport:
    """Average metropolis_run over independent field realizations.

    With jobs > 1 the realizations run in that many worker processes
    (at most one per realization); results do not depend on jobs.  The
    workers are spawned, so each re-imports the caller's main module:
    a script must keep its call under ``if __name__ == "__main__":``.
    Raises ``ValueError`` for jobs < 1 and for alpha outside the Peierls
    range, before the first chain, and ``WorkerPoolError`` when a worker dies.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    bb = b_bar(config.beta, config.theta, config.alpha)  # checks alpha's Peierls range
    # words 2r and 2r + 1 of SplittableRandom(seed) seed realization r's field and chain
    words = _stream_words(config.seed, 0, 2 * config.realizations).tolist()
    configs, field_seeds, chain_seeds = [config] * config.realizations, words[0::2], words[1::2]
    workers = min(jobs, config.realizations)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                chains = list(pool.map(metropolis_run, configs, field_seeds, chain_seeds))
        except BrokenProcessPool as exc:
            raise WorkerPoolError(
                "a worker process died; with jobs > 1 a script must make its call under "
                "`if __name__ == \"__main__\":`, as each spawned worker re-imports it"
            ) from exc
    else:
        chains = list(map(metropolis_run, configs, field_seeds, chain_seeds))

    est = np.array([c.estimate for c in chains])
    # realization scatter plus mean within-chain sampling error
    scatter = float(est.std(ddof=1) / math.sqrt(len(est))) if len(est) > 1 else 0.0
    within = float(np.sqrt(np.mean([c.stderr**2 for c in chains]) / len(chains)))
    return RunReport(
        config=config,
        chains=tuple(chains),
        estimate=float(est.mean()),
        stderr=max(scatter, within),
        occupancy=float(np.mean([c.occupancy for c in chains])),
        b_bar=bb,
        reference_100=math.exp(-bb / 100.0),
        reference_200=math.exp(-bb / 200.0),
    )
