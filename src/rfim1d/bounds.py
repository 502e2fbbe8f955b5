"""Brute-force verification of the deterministic Peierls energy bounds.

The cost of erasing the i smallest triangles of a family is compared to
zeta(alpha) * sum |T|^alpha, and the cost of erasing a whole contour to
(zeta/2) * sum_{T in Gamma} |T|^alpha, exhaustively over all
configurations of a small volume.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .contours import check_separation_constant, contours
from .model import ALPHA_PEIERLS_MAX, CapacityError, CouplingSpec, Volume, energy, enumerate_spins
from .triangles import families

TOLERANCE = 1e-9
MAX_SITES = 14  # the energy table holds 2**n rows
# the j1 values minimal_j1 tries, in increasing order
J1_GRID = (1.5, 2.0, 3.0, 5.0, 10.0, 100.0)


def zeta(alpha: float) -> float:
    """Peierls constant 1 - 2(2**alpha - 1), positive below log2(3) - 1."""
    if not 0.0 <= alpha < ALPHA_PEIERLS_MAX:
        raise ValueError(f"alpha={alpha} outside [0, {ALPHA_PEIERLS_MAX:.6f}); "
                         "the Peierls constant is not positive there")
    return 1.0 - 2.0 * (2.0**alpha - 1.0)


class BoundReport(NamedTuple):
    """One energy-bound comparison: passes iff lhs - rhs >= -1e-9."""

    instance: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.margin >= -TOLERANCE


def exhaustive_reports(spec: CouplingSpec, n: int, c: int = 3) -> Iterator[BoundReport]:
    """Bound reports over every configuration of an n-site volume.

    Instance ids are "<config index>:<check>"; configurations are indexed
    by their bit code (bit k set means spin +1 at site k).  The energies
    of all 2**n configurations come from one batched call; an erased
    family is looked up by the bit code of its image.  ``families``
    yields the family of each code in code order, and a triangle (l, r)
    flips the bits of sites l + 1..r, so that image is the code XORed
    with the flip masks of the erased triangles.  Before that call,
    c < 1 and n < 2 raise ValueError, n > MAX_SITES CapacityError.
    """
    check_separation_constant(c)
    if not 2 <= n <= MAX_SITES:
        error = CapacityError if n > MAX_SITES else ValueError
        raise error(f"n must lie in 2..{MAX_SITES} for exhaustive energy checks, got {n}")
    vol = Volume(0, n - 1)
    z = zeta(spec.alpha)
    table = energy(spec, vol, enumerate_spins(n)).tolist()

    for code, family in enumerate(families(vol)):
        full = table[code]
        tris = sorted(family, key=lambda t: (t[1] - t[0], t))
        image = code
        rhs = 0.0
        for i, (l, r) in enumerate(tris, 1):
            image ^= ((1 << (r - l)) - 1) << (l + 1)
            lhs = full - table[image]
            rhs += z * (r - l)**spec.alpha
            yield BoundReport(f"{code}:prefix{i}", lhs, rhs)
        for k, gamma in enumerate(contours(family, c)):
            image = code
            for l, r in gamma.triangles:
                image ^= ((1 << (r - l)) - 1) << (l + 1)
            lhs = full - table[image]
            rhs = 0.5 * z * gamma.power_mass(spec.alpha)
            yield BoundReport(f"{code}:{k}", lhs, rhs)


def minimal_j1(alpha: float, n: int = 8) -> Optional[float]:
    """Smallest j1 of ``J1_GRID`` for which every bound report at c = 3
    passes at this alpha, or None.

    The required size of J(1) is an empirical question; failures at small
    j1 are reported rather than asserted.
    """
    for j1 in J1_GRID:
        spec = CouplingSpec(alpha=alpha, j1=j1)
        if all(r.passed for r in exhaustive_reports(spec, n)):
            return j1
    return None
