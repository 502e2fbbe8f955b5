"""Core model: long-range couplings, random fields, Hamiltonians, exact Gibbs marginals.

The chain carries ferromagnetic pair couplings J(1) = j1 (large) and
J(n) = n**(alpha - 2) for n >= 2, a site-wise random field of strength
theta, and homogeneous +/-1 boundary conditions outside a finite
interval.  Exterior sums reduce to power-law tails, evaluated by a
truncated sum with an Euler-Maclaurin correction whose remainder is kept
below ``TAIL_TOLERANCE``.

All energies come from one function, ``energy``: H_0 + theta * G of a
spin row or of a batch of rows, under either boundary sign, in O(N)
memory per row.  It reads the couplings as one length-(2N-1) Toeplitz
vector plus the boundary vector, cached per (spec, volume) and shared
with the Metropolis chains.  A configuration is a plain +-1 row over the
volume; ``hamiltonian`` is H_0 of one row, ``energy`` under the plus boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# zeta(alpha) = 1 - 2(2**alpha - 1) is positive strictly below this value.
ALPHA_PEIERLS_MAX = math.log(3, 2) - 1.0

DISTRIBUTIONS = ("bernoulli", "gaussian", "uniform")

# absolute accuracy of the power-law tail sums
TAIL_TOLERANCE = 1e-10


class CapacityError(RuntimeError):
    """An exhaustive computation was requested above its configured limit."""


class VolumeMismatchError(ValueError):
    """Operands defined on different volumes."""


@dataclass(frozen=True, order=True)
class Volume:
    """Finite integer interval [lo, hi], both ends included."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty volume [{self.lo}, {self.hi}]")

    @property
    def n_sites(self) -> int:
        return self.hi - self.lo + 1

    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def __contains__(self, i) -> bool:
        return self.lo <= i <= self.hi

    def index(self, i: int) -> int:
        if i not in self:
            raise ValueError(f"site {i} outside volume [{self.lo}, {self.hi}]")
        return i - self.lo

    @classmethod
    def centered(cls, n_sites: int) -> "Volume":
        """Volume of n_sites sites containing the origin."""
        lo = -(n_sites // 2)
        return cls(lo, lo + n_sites - 1)


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling parameters: alpha in [0, 1), finite nearest-neighbour value j1 > 1."""

    alpha: float = 0.55
    j1: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 1.0 < self.j1 < math.inf:  # also rejects NaN
            raise ValueError(f"j1 must be finite and exceed 1, got {self.j1}")

    def _truncation_point(self) -> int:
        """Smallest M >= 16 with M**(alpha-5)/30 <= TAIL_TOLERANCE: the
        remainder of the closure from M on is below M**(alpha-5)/30."""
        m_min = (1.0 / (30.0 * TAIL_TOLERANCE)) ** (1.0 / (5.0 - self.alpha))
        return max(int(math.ceil(m_min)), 16)

    def _closure(self, m):
        """Euler-Maclaurin closure integral + f(m)/2 - f'(m)/12 of the sum of
        f(n) = n**(alpha-2) over n >= m, for a number m or elementwise over
        a float64 array."""
        a = self.alpha
        return m ** (a - 1.0) / (1.0 - a) + m ** (a - 2.0) / 2.0 - (a - 2.0) * m ** (a - 3.0) / 12.0

    def coupling_toeplitz(self, vol: Volume) -> np.ndarray:
        """J(|i-j|) as one length-(2N-1) vector t, zero at the centre.

        Row i of the coupling matrix is t[N-1-i : 2N-1-i].
        """
        n = vol.n_sites
        right = np.arange(1, n, dtype=np.float64) ** (self.alpha - 2.0)
        right[:1] = self.j1  # J(1); empty when N = 1
        return np.concatenate((right[::-1], [0.0], right))

    def coupling_matrix(self, vol: Volume) -> np.ndarray:
        """Dense J(|i-j|) over the volume, zero diagonal."""
        return toeplitz_rows(self.coupling_toeplitz(vol)).copy()

    def boundary_vector(self, vol: Volume) -> np.ndarray:
        """Sum of J(|i-j|) over the sites j outside the volume, at every site i.

        Site i sees the tails T(d) = sum of J(n) over n >= d from its
        distances d to the two ends, T(1) = j1 + P(2) and T(d) = P(d)
        beyond, where P(d), the sum of n**(alpha-2) over n >= d, is the
        partial sum up to the truncation point M plus the closure from M
        on (from d on when d >= M).  Below M the partial sums are suffixes
        of one array of powers; the closures from d >= M are one numpy
        pass, whose float64 powers may differ from Python's by an ulp.
        """
        m0 = self._truncation_point()
        p = np.arange(1, m0, dtype=np.float64) ** (self.alpha - 2.0)
        c0 = self._closure(m0)
        head = [float(np.sum(p[d - 1:])) + c0 for d in range(1, min(vol.n_sites, m0 - 1) + 1)]
        head[0] = self.j1 + (float(np.sum(p[1:])) + c0)
        far = self._closure(np.arange(m0, vol.n_sites + 1, dtype=np.float64))
        tails = np.concatenate((head, far))
        return tails + tails[::-1]


def toeplitz_rows(t: np.ndarray) -> np.ndarray:
    """Read-only (N, N) view whose row i is t[N-1-i : 2N-1-i]."""
    n = (t.size + 1) // 2
    return sliding_window_view(t, n)[::-1]


# SplitMix64's golden-ratio increment and the two multipliers of its finalizer mix64
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _stream_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words start, ..., start + count - 1 of ``SplittableRandom(seed)``.

    Word k is mix64(seed mod 2**64 + (k + 1) * gamma), the (k + 1)-th
    ``nextLong()`` of Java's ``SplittableRandom(seed)`` (Steele, Lea &
    Flood, OOPSLA 2014), so any run of words costs one numpy pass, from
    any counter (counters and sums wrap modulo 2**64).
    """
    k = np.arange(1, count + 1, dtype=np.uint64) + np.uint64(start % 2**64)
    z = np.uint64(int(seed) % 2**64) + k * _GAMMA
    z = (z ^ (z >> 30)) * _MIX_A
    z = (z ^ (z >> 27)) * _MIX_B
    return z ^ (z >> 31)


def _site_words(seed: int, vol: Volume) -> np.ndarray:
    """The SplitMix64 word of ``SplittableRandom(seed)`` at each site's zigzag key.

    The key k = 2i for i >= 0 and -2i - 1 below keeps keys non-negative;
    the field at a site is then independent of the enclosing volume and
    of generation order.
    """
    if vol.lo < -2**31 or vol.hi >= 2**31:
        raise ValueError(f"volume [{vol.lo}, {vol.hi}] has a site key >= 2**32; "
                         "fields are defined on sites [-2**31, 2**31 - 1]")
    sites = vol.sites()
    keys = np.where(sites >= 0, 2 * sites, -2 * sites - 1)
    # the keys of a volume span fewer than 2N counters
    lo = int(keys.min())
    return _stream_words(seed, lo, int(keys.max()) - lo + 1)[keys - lo]


def _word_values(raw: np.ndarray, distribution: str) -> np.ndarray:
    """Field values from each site's SplitMix64 word: bernoulli the sign of its top
    bit, uniform its top 53 bits, gaussian the inverse normal CDF at the midpoint
    of its top 52 bits."""
    if distribution == "bernoulli":
        return 2.0 * (raw >> 63) - 1.0
    if distribution == "gaussian":
        from scipy.special import ndtri

        # midpoints (k + 1/2) / 2**52 are exact, below 1 and symmetric about 1/2
        return ndtri(((raw >> 12) + 0.5) * 2.0**-52)
    # uniform on [-1, 1], a convenient subgaussian example
    return -1.0 + 2.0 * ((raw >> 11) * 2.0**-53)


@dataclass(frozen=True, eq=False)
class DisorderField:
    """A realization of the i.i.d. symmetric random field at unit scale; the
    field strength theta is an argument of the energy."""

    volume: Volume
    values: np.ndarray
    distribution: str = "bernoulli"
    seed: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.volume.n_sites,):
            raise ValueError("field length does not match volume")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "bernoulli" and not np.all(np.abs(values) == 1.0):
            raise ValueError("bernoulli field values must be exactly +-1")

    @classmethod
    def generate(cls, vol: Volume, seed: int, distribution: str = "bernoulli") -> "DisorderField":
        """Draw one realization, keyed per (seed, site) for order-independence."""
        values = _word_values(_site_words(seed, vol), distribution)
        return cls(vol, values, distribution, seed)


def hamiltonian(spec: CouplingSpec, vol: Volume, spins: np.ndarray) -> float:
    """H_0 of a +-1 spin row under the plus boundary."""
    return energy(spec, vol, spins)


@lru_cache(maxsize=8)
def _coupling_tables(spec: CouplingSpec, vol: Volume) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Toeplitz vector and boundary vector, built once per (spec, vol)
    and shared by every energy evaluation and chain on that volume."""
    t = spec.coupling_toeplitz(vol)
    bv = spec.boundary_vector(vol)
    t.flags.writeable = False
    bv.flags.writeable = False
    return t, bv


def energy(
    spec: CouplingSpec,
    vol: Volume,
    spins: np.ndarray,
    boundary: int = +1,
    h: Optional[DisorderField] = None,
    theta: float = 0.0,
):
    """H_0 + theta * G of one +-1 spin row (a float) or of each row of a (K, N) batch.

    H_0 = sum_{i<j} J(|i-j|) (1 - s_i s_j) + sum_i b_i (1 - boundary * s_i)
    is >= 0, with b the boundary field; G = -sum_i h_i s_i.  Rows go in
    blocks of about 4096 spins, so temporaries stay O(N); time is
    O(K N log N).  A row gives the same bits alone or in a batch.
    """
    t, bv = _coupling_tables(spec, vol)
    rows = np.atleast_2d(spins)
    n = vol.n_sites
    if rows.shape[1] != n:
        raise VolumeMismatchError(f"{rows.shape[1]} spins on a {n}-site volume")
    if h is not None and h.volume != vol:
        raise VolumeMismatchError(f"volumes differ: {vol} vs {h.volume}")
    e = np.empty(len(rows))
    step = max(1, 4096 // n)
    for k in range(0, len(rows), step):
        s = rows[k:k + step].astype(np.float64)
        # autocorrelations c_d = sum_i s_i s_{i+d}, d = 1..N-1, are integers,
        # so rounding the FFT values (error far below 1/2) makes them exact
        f = np.fft.rfft(s, 2 * n)
        corr = np.rint(np.fft.irfft(f * f.conj(), 2 * n)[:, 1:n])
        # the N - d pairs at distance d contribute J(d) (N - d - c_d)
        block = np.sum((np.arange(n - 1, 0, -1) - corr) * t[n:], axis=1)
        block += np.sum((1.0 - boundary * s) * bv, axis=1)
        if h is not None:
            block -= theta * np.sum(s * h.values, axis=1)
        e[k:k + step] = block
    return float(e[0]) if np.ndim(spins) == 1 else e


def _logsumexp(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by a finite maximum.

    A non-finite maximum is not subtracted: the sum is then 0 (all -inf),
    inf or nan, and the result is that maximum.
    """
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.log(np.sum(np.exp(a - np.where(np.isfinite(m), m, 0.0)),
                          axis=axis, keepdims=True))
    return np.squeeze(m + s, axis=axis)


def enumerate_spins(n: int, start: int = 0, count: Optional[int] = None) -> np.ndarray:
    """The n-site sign vectors of codes start .. start + count - 1 (by
    default all 2**n) as an int8 array of shape (count, n): bit k of a
    code is set when spin k is +1."""
    if count is None:
        count = 2**n - start
    codes = np.arange(start, start + count, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def exact_gibbs_marginal(
    spec: CouplingSpec,
    vol: Volume,
    h: Optional[DisorderField],
    theta: float,
    beta: float,
    site: int,
    boundary: int,
) -> float:
    """P[sigma_site = -1] under the finite-volume Gibbs measure, by enumeration."""
    n = vol.n_sites
    if n > 20:
        raise CapacityError(f"{n} sites exceeds exhaustive limit 20")
    idx = vol.index(site)
    spins = enumerate_spins(n)
    log_w = -beta * energy(spec, vol, spins, boundary, h, theta)
    minus = spins[:, idx] == -1
    return float(np.exp(_logsumexp(log_w[minus]) - _logsumexp(log_w)))
