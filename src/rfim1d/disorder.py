"""Random functionals of the Peierls argument, computed exactly on small volumes.

For a fixed contour, the log-ratio functionals F_j compare constrained
partition sums in which the j smallest equal-mass classes of the contour
have been erased from the deterministic energy, with and without the
matching erasure in the field term.  Sign flips of the field on the
composed class supports exchange numerator and denominator, which makes
F_j antisymmetric and mean zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np

from .bounds import zeta
from .contours import Contour
from .model import CapacityError, CouplingSpec, Volume, _logsumexp, energy, enumerate_spins
from .triangles import families, family_code

EXHAUSTIVE_SITE_CAP = 12
ANTISYMMETRY_TOL = 1e-9
# constant in the exponent of the class-level probability bound
PROBABILITY_CONSTANT = 2.0**10


def class_support(contour: Contour, ell: int) -> FrozenSet[int]:
    """Integer support of the ell-th equal-mass class."""
    classes = contour.classes()
    if not 0 <= ell < len(classes):
        raise ValueError(f"class index {ell} out of range")
    sites = set()
    for left, right in classes[ell][1]:
        sites.update(range(left + 1, right + 1))
    return frozenset(sites)


def flip_composition(contour: Contour, j: int) -> FrozenSet[int]:
    """Effective flip set D_j of the composed class flips 0..j.

    Sites covered by an even number of class supports drop out; equality
    with the union holds exactly when the supports are disjoint.
    """
    if not 0 <= j < contour.n_classes:
        raise ValueError(f"level {j} out of range")
    counts: dict = {}
    for ell in range(j + 1):
        for i in class_support(contour, ell):
            counts[i] = counts.get(i, 0) + 1
    return frozenset(i for i, c in counts.items() if c % 2 == 1)


def thresholds(contour: Contour, alpha: float) -> np.ndarray:
    """A_i = (zeta/4) * sum_{l <= i} n_l * Delta_l**alpha, strictly increasing."""
    z = zeta(alpha)
    terms = [len(ts) * d**alpha for d, ts in contour.classes()]
    return 0.25 * z * np.cumsum(terms)


def b_bar(beta: float, theta: float, alpha: float) -> float:
    """min(beta*zeta/4, zeta^2 / (2^10 theta^2)); the first branch at theta=0."""
    z = zeta(alpha)
    first = beta * z / 4.0
    if theta == 0.0:
        return first
    return min(first, z**2 / (PROBABILITY_CONSTANT * theta**2))


def check_beta_theta(beta: float, theta: float) -> None:
    """Raise ``ValueError`` unless F_j is defined: beta positive and finite
    (F_j divides by it) and theta finite."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


class ConstrainedEnsemble:
    """Exhaustive sums over triangle families compatible with a fixed contour.

    Precomputes, for every compatible family T and every level j, the
    deterministic energy of the configuration with classes 0..j erased and
    the spin images entering the two field terms of F_j.  Configurations
    are indexed by the bit code of ``enumerate_spins``; the energies of
    all of them come from one batched call.
    """

    def __init__(self, spec: CouplingSpec, contour: Contour, vol: Volume):
        n = vol.n_sites
        if n > EXHAUSTIVE_SITE_CAP:
            raise CapacityError(f"{n} sites exceeds exhaustive cap {EXHAUSTIVE_SITE_CAP}")
        self.spec = spec
        self.contour = contour
        self.vol = vol
        self.n_levels = contour.n_classes
        members = set(contour.triangles)

        all_spins = enumerate_spins(n)
        codes: List[int] = []
        compatible: List[Tuple[Tuple[int, int], ...]] = []
        for code, fam in enumerate(families(vol)):
            if members.issubset(fam):
                codes.append(code)
                compatible.append(tuple(t for t in fam if t not in members))
        if not compatible:
            raise ValueError("contour does not fit the volume")
        self.families = compatible

        # erasing classes 0..j undoes their flips: XOR their bits into the code
        classes = contour.classes()
        all_plus = 2**n - 1
        erase_bits = np.array([
            family_code([t for _, ts in classes[: j + 1] for t in ts], vol) ^ all_plus
            for j in range(self.n_levels)
        ])
        erased = np.array(codes)[None, :] ^ erase_bits[:, None]  # (levels, T)
        self.sigma_full = all_spins[codes].astype(np.float64)
        self.sigma_erased = all_spins[erased].astype(np.float64)
        self.h0_erased = energy(spec, vol, all_spins)[erased]

    def f_values(self, fields: np.ndarray, theta: float, beta: float) -> np.ndarray:
        """F_j for a batch of field rows; shape (n_fields, n_levels)."""
        check_beta_theta(beta, theta)
        fields = np.atleast_2d(np.asarray(fields, dtype=np.float64))
        out = np.empty((fields.shape[0], self.n_levels))
        m_full = fields @ self.sigma_full.T  # (R, T)
        for j in range(self.n_levels):
            base = -beta * self.h0_erased[j][None, :]
            num = base + beta * theta * m_full
            den = base + beta * theta * (fields @ self.sigma_erased[j].T)
            out[:, j] = (_logsumexp(num, axis=1) - _logsumexp(den, axis=1)) / beta
        return out


def check_antisymmetry(ens: ConstrainedEnsemble, theta: float, beta: float) -> List[bool]:
    """For each level j, whether F_j(h) = -F_j(h flipped on D_j) over all
    Bernoulli realizations, from one evaluation of F."""
    vol = ens.vol
    fields = enumerate_spins(vol.n_sites).astype(np.float64)
    f = ens.f_values(fields, theta, beta)
    codes = np.arange(fields.shape[0])
    ok = []
    for j in range(ens.n_levels):
        mask = 0
        for i in flip_composition(ens.contour, j):
            mask |= 1 << vol.index(i)
        ok.append(bool(np.all(np.abs(f[:, j] + f[codes ^ mask, j]) <= ANTISYMMETRY_TOL)))
    return ok


@dataclass(frozen=True)
class BjEstimate:
    """Exact probability of the level-j event with its class-level bound."""

    j: int
    estimate: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.estimate <= self.bound


def _bj_indicators(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Indicator matrix of the events B_{-1}, ..., B_k from F rows."""
    k = f.shape[1] - 1
    below = f <= a[None, :]
    above = ~below
    cols = []
    # B_{-1}: every level stays above its threshold
    cols.append(np.all(above, axis=1))
    for j in range(k):
        cols.append(below[:, j] & np.all(above[:, j + 1:], axis=1))
    cols.append(below[:, k])
    return np.column_stack(cols)


def _bj_bounds(contour: Contour, alpha: float, theta: float) -> np.ndarray:
    """Right-hand sides of the class-level probability bound, j = -1..k."""
    z = zeta(alpha)
    masses = np.array([len(ts) * float(d)**(2 * alpha - 1.0) for d, ts in contour.classes()])
    k = len(masses) - 1
    out = np.empty(k + 2)
    for idx, j in enumerate(range(-1, k + 1)):
        tail = float(np.sum(masses[j + 1:]))
        if tail == 0.0:
            out[idx] = 1.0
        elif theta == 0.0:
            out[idx] = 0.0
        else:
            out[idx] = math.exp(-(z**2 / (PROBABILITY_CONSTANT * theta**2)) * tail)
    return out


def estimate_Bj_probability(ens: ConstrainedEnsemble, theta: float,
                            beta: float) -> List[BjEstimate]:
    """P[B_j] for j = -1..k, exact over all Bernoulli fields.

    Bernoulli fields are symmetric and subgaussian, the class the bound is
    proved for.  The indicators are verified to partition field space.
    """
    alpha, contour = ens.spec.alpha, ens.contour
    a = thresholds(contour, alpha)
    bounds = _bj_bounds(contour, alpha, theta)
    fields = enumerate_spins(ens.vol.n_sites).astype(np.float64)
    ind = _bj_indicators(ens.f_values(fields, theta, beta), a)
    if not np.all(ind.sum(axis=1) == 1):
        raise AssertionError("B_j events do not partition field space")
    probs = ind.mean(axis=0)
    return [BjEstimate(j, float(p), float(b))
            for j, p, b in zip(range(-1, ens.n_levels), probs, bounds)]
