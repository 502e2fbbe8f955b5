"""Core model: long-range couplings, random fields, Hamiltonians, exact Gibbs marginals.

The chain carries ferromagnetic pair couplings J(1) = j1 (large) and
J(n) = n**(alpha - 2) for n >= 2, a site-wise random field of strength
theta, and homogeneous +/-1 boundary conditions outside a finite
interval.  Exterior sums reduce to power-law tails, evaluated by a
truncated sum with an Euler-Maclaurin correction whose remainder is kept
below ``tail_tolerance``.

All energies come from one function, ``energy``: H_0 + theta * G of a
spin row or of a batch of rows, under either boundary sign, in O(N)
memory per row.  It reads the couplings as one length-(2N-1) Toeplitz
vector plus the boundary vector, cached per (spec, volume) and shared
with the Metropolis chains.  ``hamiltonian`` is its entry point for a
``SpinConfiguration``.
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
    """Coupling parameters: alpha in [0, 1), nearest-neighbour value j1 > 1."""

    alpha: float = 0.55
    j1: float = 10.0
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.j1 <= 1.0:
            raise ValueError(f"j1 must exceed 1, got {self.j1}")
        if self.tail_tolerance <= 0.0:
            raise ValueError("tail_tolerance must be positive")

    def coupling(self, n: int) -> float:
        """J(n): j1 at distance 1, n**(alpha-2) beyond."""
        if n < 1:
            raise ValueError(f"coupling distance must be >= 1, got {n}")
        if n == 1:
            return self.j1
        return float(n) ** (self.alpha - 2.0)

    def power_tail(self, d: int) -> float:
        """Sum of n**(alpha-2) over n >= d, to absolute accuracy tail_tolerance.

        Truncated sum plus the Euler-Maclaurin closure
        integral + f(M)/2 - f'(M)/12; the remainder is below
        M**(alpha-5)/30, which fixes the truncation point M.
        """
        if d < 1:
            raise ValueError("tail start must be >= 1")
        a = self.alpha
        m_min = (1.0 / (30.0 * self.tail_tolerance)) ** (1.0 / (5.0 - a))
        m = max(d, int(math.ceil(m_min)), 16)
        n = np.arange(d, m, dtype=np.float64)
        partial = float(np.sum(n ** (a - 2.0))) if n.size else 0.0
        fm = float(m) ** (a - 2.0)
        closure = float(m) ** (a - 1.0) / (1.0 - a) + fm / 2.0 - (a - 2.0) * float(m) ** (a - 3.0) / 12.0
        return partial + closure

    def tail(self, d: int) -> float:
        """Sum of J(n) over n >= d (j1 honoured when d == 1)."""
        if d == 1:
            return self.j1 + self.power_tail(2)
        return self.power_tail(d)

    def boundary_field(self, i: int, vol: Volume) -> float:
        """Sum of J(|i-j|) over sites j outside the volume."""
        if i not in vol:
            raise ValueError(f"site {i} outside volume")
        d_left = i - vol.lo + 1
        d_right = vol.hi - i + 1
        return self.tail(d_left) + self.tail(d_right)

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
        """boundary_field at every site, with each tail sum evaluated once."""
        tails = np.array([self.tail(d) for d in range(1, vol.n_sites + 1)])
        return tails + tails[::-1]


def toeplitz_rows(t: np.ndarray) -> np.ndarray:
    """Read-only (N, N) view whose row i is t[N-1-i : 2N-1-i]."""
    n = (t.size + 1) // 2
    return sliding_window_view(t, n)[::-1]


@dataclass(frozen=True, eq=False)
class SpinConfiguration:
    """+-1 spins on a volume with a homogeneous boundary value."""

    volume: Volume
    spins: np.ndarray
    boundary: int = +1

    def __post_init__(self):
        spins = np.asarray(self.spins, dtype=np.int8)
        object.__setattr__(self, "spins", spins)
        if spins.shape != (self.volume.n_sites,):
            raise ValueError("spin count does not match volume")
        if not np.all(np.abs(spins) == 1):
            raise ValueError("spins must be +-1")
        if self.boundary not in (-1, +1):
            raise ValueError("boundary must be +-1")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinConfiguration)
            and self.volume == other.volume
            and self.boundary == other.boundary
            and np.array_equal(self.spins, other.spins)
        )

    @classmethod
    def homogeneous(cls, vol: Volume, value: int = +1, boundary: int = +1) -> "SpinConfiguration":
        return cls(vol, np.full(vol.n_sites, value, dtype=np.int8), boundary)

    @classmethod
    def from_minus_sites(cls, vol: Volume, minus, boundary: int = +1) -> "SpinConfiguration":
        spins = np.ones(vol.n_sites, dtype=np.int8)
        for i in minus:
            spins[vol.index(i)] = -1
        return cls(vol, spins, boundary)


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# its PCG64 (pcg64.h); numpy keeps both streams stable across versions.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1

# The arithmetic below works on Python ints and on uint64 arrays holding
# 32-bit words alike: every product of two words fits in 64 bits.


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hashmix; returns (mixed value, next hash constant)."""
    hash_const_next = (hash_const * mult) & _MASK32
    value = ((value ^ hash_const) * hash_const_next) & _MASK32
    return value ^ (value >> 16), hash_const_next


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 LCG step state * M + inc on 128-bit (hi, lo) uint64 pairs."""
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & _MASK64
    hi = hi * m_lo + lo * m_hi + _mulhi64(lo, m_lo)
    lo = lo * m_lo
    lo_sum = lo + inc_lo
    return hi + inc_hi + (lo_sum < lo), lo_sum


def _site_words(seed, vol: Volume) -> np.ndarray:
    """First PCG64 output of SeedSequence(seed, spawn_key=(zigzag(i),)) per site i.

    Equals ``PCG64(SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(key,))).random_raw()`` site by site, computed for the whole
    volume at once.  The zigzag key keeps spawn keys non-negative; the
    field at a site is then independent of the enclosing volume and of
    generation order.  A sequence of seeds gives one row per seed.
    """
    for end in (vol.lo, vol.hi):
        key = 2 * end if end >= 0 else -2 * end - 1
        if key > _MASK32:
            raise ValueError(f"site {end} has spawn key {key} >= 2**32; "
                             f"fields are defined on sites [-2**31, 2**31 - 1]")
    sites = vol.sites()
    keys = np.where(sites >= 0, 2 * sites, -2 * sites - 1).astype(np.uint64)

    # entropy: little-endian 32-bit words of the seed, zero-padded to the
    # pool size 4 because a spawn key follows; the key word is mixed last
    entropy = (int(seed) & _MASK64 if np.ndim(seed) == 0
               else np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)[:, None])
    words = [entropy & _MASK32, entropy >> 32, 0, 0]
    hash_const = _INIT_A
    pool = []
    for w in words:
        h, hash_const = _hashmix(w, hash_const, _MULT_A)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for dst in range(4):
        h, hash_const = _hashmix(keys, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], h)

    # generate_state(4, uint64): eight 32-bit words paired little-endian
    hash_const = _INIT_B
    state = []
    for k in range(8):
        h, hash_const = _hashmix(pool[k % 4], hash_const, _MULT_B)
        state.append(h)
    w0, w1, w2, w3 = (state[2 * k] | (state[2 * k + 1] << 32) for k in range(4))

    # PCG64 seeding: inc = (w2:w3) << 1 | 1; s = inc + (w0:w1); s = s*M + inc;
    # one more step gives the first output
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR output: rotate hi ^ lo right by the top 6 bits
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _word_values(raw: np.ndarray, distribution: str) -> np.ndarray:
    """Field values from each site's first PCG64 word.

    bernoulli and uniform values equal numpy's ``Generator.integers(0, 2)``
    and ``Generator.uniform(-1, 1)`` draws from that stream; gaussian
    values are the inverse normal CDF at the midpoint of the word's top
    52 bits.
    """
    if distribution == "bernoulli":
        # Lemire's bounded draw on the low 32-bit half keeps its top bit
        return 2.0 * ((raw >> 31) & 1) - 1.0
    if distribution == "gaussian":
        from scipy.special import ndtri

        # midpoints (k + 1/2) / 2**52 are exact, below 1 and symmetric about 1/2
        return ndtri(((raw >> 12) + 0.5) * 2.0**-52)
    # uniform on [-1, 1], a convenient subgaussian example
    return -1.0 + 2.0 * ((raw >> 11) * 2.0**-53)


@dataclass(frozen=True, eq=False)
class DisorderField:
    """A realization of the i.i.d. symmetric random field (unit scale; theta separate)."""

    volume: Volume
    values: np.ndarray
    theta: float
    distribution: str = "bernoulli"
    seed: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.volume.n_sites,):
            raise ValueError("field length does not match volume")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "bernoulli" and not np.all(np.abs(values) == 1.0):
            raise ValueError("bernoulli field values must be exactly +-1")

    @classmethod
    def generate(
        cls,
        vol: Volume,
        theta: float,
        seed: int,
        distribution: str = "bernoulli",
    ) -> "DisorderField":
        """Draw one realization, keyed per (seed, site) for order-independence."""
        values = _word_values(_site_words(seed, vol), distribution)
        return cls(vol, values, theta, distribution, seed)


def _check_same_volume(a_vol: Volume, b_vol: Volume) -> None:
    if a_vol != b_vol:
        raise VolumeMismatchError(f"volumes differ: {a_vol} vs {b_vol}")


def hamiltonian(
    spec: CouplingSpec,
    sigma: SpinConfiguration,
    h: Optional[DisorderField] = None,
    theta: Optional[float] = None,
) -> float:
    """Full random Hamiltonian H_0 + theta * G; theta defaults to h.theta."""
    th = 0.0 if h is None else (h.theta if theta is None else theta)
    return energy(spec, sigma.volume, sigma.spins, sigma.boundary, h, th)


@lru_cache(maxsize=8)
def _coupling_tables(spec: CouplingSpec, vol: Volume) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Toeplitz vector and boundary vector, built once per (spec, vol)
    and shared by every energy evaluation and chain on that volume."""
    t = spec.coupling_toeplitz(vol)
    bv = spec.boundary_vector(vol)
    t.flags.writeable = False
    bv.flags.writeable = False
    return t, bv


def _coupling_sums(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """J @ s from the Toeplitz vector t, 64 rows at a time.

    Blocks keep memory O(N); each row is still summed by a BLAS
    matrix-vector product, as in a dense J @ s.
    """
    rows = toeplitz_rows(t)
    return np.concatenate([np.ascontiguousarray(rows[k:k + 64]) @ s
                           for k in range(0, s.size, 64)])


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
    if h is not None:
        _check_same_volume(vol, h.volume)
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


def enumerate_spins(n: int) -> np.ndarray:
    """All 2**n sign vectors as an int8 array of shape (2**n, n)."""
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def exact_gibbs_marginal(
    spec: CouplingSpec,
    vol: Volume,
    h: Optional[DisorderField],
    theta: float,
    beta: float,
    site: int,
    boundary: int = +1,
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
