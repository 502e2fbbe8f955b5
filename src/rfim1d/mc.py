"""Single-site Metropolis sampling of the finite-volume plus-boundary measure.

Each chain keeps the running sums m_i = sum_j J(|i-j|) sigma_j so a flip
proposal costs O(1) to evaluate and O(N) to commit.  The couplings are
held as one length-(2N-1) Toeplitz vector t (row i of J is a slice of
t), read from the model's per-(spec, volume) cache, so memory stays O(N)
at every volume size.
The running energy starts from, and is checked every 10^4 updates
against, ``model.energy``; the recomputation is skipped when no flip was
accepted since the last one, as it would return the same value.

Every random number of a run is a SplitMix64 word (``model._stream_words``,
the generator the fields use).  Realization r of seed S takes its field
seed and its chain seed from words 2r and 2r + 1 of
``SplittableRandom(S)``.  Sweep k of a chain reads words [2Nk, 2Nk + 2N)
of ``SplittableRandom(chain seed)``: the first N give the site order, the
stable argsort of w >> b with b = (N - 1).bit_length() (one sort of the
words with the site index packed into their low b bits), and the next N
the uniforms (w >> 11) / 2**53 of the accept tests.  So a sweep's draws
depend on (chain seed, k) alone, counter-based as in Salmon et al.,
SC 2011, and the chains never import numpy's random module.

The sweep kernel has two paths over the same draws.  ``_sweep`` is the
scalar loop, run on Python floats: it reads the draws, spins and fields
as lists and m one element at a time, and commits an accepted flip as
one in-place numpy subtract or add of a row of the doubled couplings.
It decides uphill moves with ``math.exp`` and hands the rare draw that
lies within a rounding band of it to ``np.exp``, so every decision is
the one ``np.exp`` makes.  Each proposal still costs about a
microsecond of interpreted Python, so after a sweep whose acceptance
fell below ``SKIP_BELOW_ACCEPTANCE`` (for the first sweep: the
acceptance expected from the start state) ``_skip_sweep`` runs instead:
it evaluates a window of upcoming proposals in one numpy expression,
commits the first accepted one and skips the rejected run before it (the
rejection-skipping idea of Bortz, Kalos & Lebowitz, J. Comput. Phys. 17
(1975) 10, here without changing the chain).  Both paths apply the same
elementwise float operations to the same ``order``/``unif`` draws (a
row doubled once and added or subtracted equals the row times the new
spin's +-2, as doubling and negation are exact), so the path choice
cannot change a chain: spins, running sums, energy and accept counts are
bit-identical, and the threshold is a speed setting only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .contours import contours
from .disorder import b_bar
from .model import (CouplingSpec, DisorderField, SpinConfiguration, Volume,
                    _coupling_sums, _coupling_tables, _stream_words, energy,
                    toeplitz_rows)
from .triangles import spins_to_triangles

DRIFT_CHECK_UPDATES = 10_000
DRIFT_TOLERANCE = 1e-6
SKIP_BELOW_ACCEPTANCE = 0.05  # previous sweep's acceptance below which _skip_sweep runs
SKIP_WINDOW = 64  # fewest proposals in the first window after a start or a commit
MAX_SWEEPS = 10**8  # a chain keeps three one-byte records per measured sweep


class EnergyDriftError(RuntimeError):
    """Incremental chain energy diverged from a full recomputation."""


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
    occupancy_stride: int = 1

    def __post_init__(self):
        if not self.beta >= 0.0:  # also rejects NaN
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if not 0 <= self.burnin < self.sweeps:
            raise ValueError("need sweeps > burnin >= 0")
        # the records of a chain, and its draw counter 2 * size * sweep, must fit
        if self.sweeps > MAX_SWEEPS or 2 * self.size * self.sweeps >= 2**64:
            raise ValueError(f"sweeps must be <= {MAX_SWEEPS} and 2 * size * sweeps "
                             f"< 2**64, got sweeps={self.sweeps}, size={self.size}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.boundary not in (-1, +1):
            raise ValueError("boundary must be +-1")
        if self.occupancy_stride < 1:
            raise ValueError("occupancy_stride must be >= 1")
        if self.c < 1:
            raise ValueError("separation constant c must be >= 1")
        self.coupling_spec()  # checks alpha and j1

    def volume(self) -> Volume:
        return Volume.centered(self.size)

    def coupling_spec(self) -> CouplingSpec:
        return CouplingSpec(alpha=self.alpha, j1=self.j1)


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

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> List[List]:
        return [
            [r, c.estimate, c.stderr, c.occupancy, c.acceptance, c.violations,
             self.estimate, self.stderr, self.b_bar, self.reference_100]
            for r, c in enumerate(self.chains)
        ]


RUN_CSV_COLUMNS = ["realization", "estimate", "stderr", "occupancy", "acceptance",
                   "violations", "mean_estimate", "mean_stderr", "b_bar", "reference_100"]


def _sweep(s, m, t, bv, hv, theta, beta, tau, order, unif, e):
    """One Metropolis sweep in the given site order; returns (energy, accepted).

    Proposal k flips site order[k] iff its flip energy de is <= 0 or
    unif[k] < np.exp(-beta * de).  The loop runs on Python floats with the
    float operations of that rule; ``math.exp`` may differ from ``np.exp``
    by an ulp, so a draw within a band around it (relative, with an
    absolute floor for subnormal and zero exponentials) is decided by
    ``np.exp``.  A NaN de fails every comparison and is rejected.
    """
    exp, np_exp = math.exp, np.exp
    rows = toeplitz_rows(2.0 * t)  # doubling is exact: row i is 2 * t[n-1-i : 2n-1-i]
    sl = s.tolist()
    tb = (tau * bv).tolist()
    th = (theta * hv).tolist()
    m_at = m.item
    acc = 0
    for i, u in zip(order.tolist(), unif.tolist()):
        si = sl[i]
        de = 2.0 * si * (m_at(i) + tb[i] + th[i])
        if not de <= 0.0:
            x = -beta * de
            ex = exp(x)
            band = 1e-12 * ex + 1e-300
            if not (u < ex - band or u < ex + band and u < np_exp(x)):
                continue
        # m += (2 * new spin) * row, as one in-place subtract or add
        if si > 0.0:
            m -= rows[i]
        else:
            m += rows[i]
        sl[i] = -si
        e += de
        acc += 1
    s[:] = sl
    return e, acc


def _skip_sweep(s, m, t, bv, hv, theta, beta, tau, order, unif, e, w0=SKIP_WINDOW):
    """``_sweep`` on the same draws, skipping runs of rejected proposals.

    The flip energies and accept tests of a window of upcoming proposals
    are one numpy expression with the scalar loop's float operations; the
    first accepted proposal is committed as there and the scan resumes
    right after it.  Windows start at w0 proposals, after each commit
    too, and a window without an accept doubles the next one.
    """
    n = s.shape[0]
    acc = 0
    k = 0
    w = w0
    while k < n:
        idx = order[k:k + w]
        de = 2.0 * s[idx] * (m[idx] + tau * bv[idx] + theta * hv[idx])
        # de <= 0 is accepted without the exponential, which could overflow there
        hit = (de <= 0.0) | (unif[k:k + w] < np.exp(-beta * np.maximum(de, 0.0)))
        j = int(hit.argmax())
        if not hit[j]:
            k += w
            w *= 2
            continue
        i = idx[j]
        s[i] = -s[i]
        m += (2.0 * s[i]) * t[n - 1 - i:2 * n - 1 - i]
        e += de[j]
        acc += 1
        k += j + 1
        w = w0
    return e, acc


def _batch_means_stderr(x: np.ndarray, n_batches: int = 32) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    n = x.size
    nb = min(n_batches, n)
    if nb < 2:
        return 0.0
    size = n // nb
    means = x[: nb * size].reshape(nb, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


def metropolis_run(config: RunConfig, h: DisorderField,
                   chain_seed: Optional[int] = None) -> ChainResult:
    """Sample one chain and estimate mu(+/-)_Lambda(sigma_0 = -1).

    Starts from the all-boundary state; measures the origin occupation and
    the fraction of measured sweeps whose decomposition has a contour
    through the origin.  Deterministic given (config, seeds).
    """
    vol = config.volume()
    if h.volume != vol:
        raise ValueError("field volume does not match config")
    spec = config.coupling_spec()
    n = config.size
    tau = float(config.boundary)
    origin = vol.index(0)
    t, bv = _coupling_tables(spec, vol)
    hv = h.values
    s = np.full(n, tau)
    m = _coupling_sums(t, s)
    e = ref = energy(spec, vol, s, config.boundary, h, config.theta)

    seed = config.seed if chain_seed is None else chain_seed
    n_measured = config.sweeps - config.burnin
    minus = np.zeros(n_measured, dtype=bool)
    in_contour = np.zeros(n_measured, dtype=bool)
    occ_checked = np.zeros(n_measured, dtype=bool)
    accepted = 0
    since_check = flips_since_check = 0
    # before the first sweep, the acceptance the start state predicts stands in
    # for the previous sweep's
    de = 2.0 * s * (m + tau * bv + config.theta * hv)
    acc = float(np.exp(-config.beta * np.maximum(de, 0.0)).sum())
    for sweep in range(config.sweeps):
        order, unif = _sweep_draws(seed, n, sweep)
        if acc >= SKIP_BELOW_ACCEPTANCE * n:
            e, acc = _sweep(s, m, t, bv, hv, config.theta, config.beta, tau, order, unif, e)
        else:
            # a first window as long as the run of rejections acc predicts
            e, acc = _skip_sweep(s, m, t, bv, hv, config.theta, config.beta, tau, order,
                                 unif, e, max(SKIP_WINDOW, int(n / (acc + 1.0))))
        accepted += acc
        flips_since_check += acc
        since_check += n
        if since_check >= DRIFT_CHECK_UPDATES:
            since_check = 0
            # with no flip since the last recomputation (or the start), s and e
            # are exactly those it saw, so its value stands
            if flips_since_check:
                flips_since_check = 0
                ref = energy(spec, vol, s, config.boundary, h, config.theta)
            if abs(e - ref) > DRIFT_TOLERANCE * max(1.0, abs(ref)):
                raise EnergyDriftError(f"energy drift {e - ref:g} after sweep {sweep}")
            e = ref
        k = sweep - config.burnin
        if k >= 0:
            minus[k] = s[origin] < 0
            if k % config.occupancy_stride == 0:
                occ_checked[k] = True
                # fold a minus boundary onto the plus-boundary construction
                sigma = SpinConfiguration(vol, (tau * s).astype(np.int8))
                fam = spins_to_triangles(sigma)
                in_contour[k] = any(g.contains_site(0) for g in contours(fam, config.c))

    x = minus.astype(np.float64)
    checked_minus = minus[occ_checked]
    violations = int(np.count_nonzero(checked_minus & ~in_contour[occ_checked]))
    occupancy = float(in_contour[occ_checked].mean()) if occ_checked.any() else 0.0
    return ChainResult(
        estimate=float(x.mean()),
        stderr=_batch_means_stderr(x),
        occupancy=occupancy,
        acceptance=accepted / (config.sweeps * n),
        violations=violations,
        n_measured=n_measured,
        field_seed=h.seed,
    )


def _sweep_draws(seed: int, n: int, sweep: int) -> Tuple[np.ndarray, np.ndarray]:
    """Site order and uniforms of one sweep, from words [2n k, 2n k + 2n) of
    ``SplittableRandom(seed)``, k the sweep.

    The first n words w give the order, the stable argsort of w >> b with
    b = (n - 1).bit_length(): each key (w >> b, j) is packed into one word
    with the index j in its low b bits, so one sort of n words finds it.
    The next n give the uniforms (w >> 11) / 2**53 in [0, 1).
    """
    w = _stream_words(seed, 2 * n * sweep, 2 * n)
    mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    order = np.sort((w[:n] & ~mask) | np.arange(n, dtype=np.uint64)) & mask
    return order.astype(np.intp), (w[n:] >> np.uint64(11)) * 2.0**-53


def _derived_seed(seed: int, realization: int, stream: int) -> int:
    """Word 2 r + stream of ``SplittableRandom(seed)``, r the realization:
    stream 0 seeds its field, stream 1 its chain."""
    return int(_stream_words(seed, 2 * realization + stream, 1)[0])


def _realization(config: RunConfig, r: int) -> ChainResult:
    """Chain of realization r, seeded from (config.seed, r) alone."""
    h = DisorderField.generate(config.volume(), config.theta,
                               seed=_derived_seed(config.seed, r, 0),
                               distribution=config.distribution)
    return metropolis_run(config, h, chain_seed=_derived_seed(config.seed, r, 1))


def disorder_sweep(config: RunConfig, jobs: int = 1) -> RunReport:
    """Average metropolis_run over independent field realizations.

    With jobs > 1 the realizations run in that many worker processes
    (at most one per realization); results do not depend on jobs.
    """
    indices = range(config.realizations)
    workers = min(jobs, config.realizations)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            chains = list(pool.map(_realization, [config] * len(indices), indices))
    else:
        chains = [_realization(config, r) for r in indices]

    est = np.array([c.estimate for c in chains])
    # realization scatter plus mean within-chain sampling error
    scatter = float(est.std(ddof=1) / math.sqrt(len(est))) if len(est) > 1 else 0.0
    within = float(np.sqrt(np.mean([c.stderr**2 for c in chains]) / len(chains)))
    bb = b_bar(config.beta, config.theta, config.alpha)
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
