"""Brute-force verification of the deterministic Peierls energy bounds.

The cost of erasing the i smallest triangles of a family is compared to
zeta(alpha) * sum |T|^alpha, and the cost of erasing a whole contour to
(zeta/2) * sum_{T in Gamma} |T|^alpha, exhaustively over all
configurations of a small volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from .contours import contours
from .model import (ALPHA_PEIERLS_MAX, CouplingSpec, SpinConfiguration, Volume,
                    energy, enumerate_spins, hamiltonian)
from .triangles import (Triangle, TriangleFamily, family_code, spins_to_triangles,
                        triangles_to_spins)

TOLERANCE = 1e-9


def zeta(alpha: float) -> float:
    """Peierls constant 1 - 2(2**alpha - 1), positive below log2(3) - 1."""
    if not 0.0 <= alpha < ALPHA_PEIERLS_MAX:
        raise ValueError(
            f"alpha must lie in [0, {ALPHA_PEIERLS_MAX:.6f}) for a positive Peierls constant"
        )
    return 1.0 - 2.0 * (2.0**alpha - 1.0)


@dataclass(frozen=True)
class BoundReport:
    """One energy-bound comparison: passes iff lhs - rhs >= -1e-9."""

    alpha: float
    j1: float
    c: int
    n: int
    instance: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.margin >= -TOLERANCE

    def csv_row(self) -> List:
        return [self.alpha, self.j1, self.c, self.n, self.instance,
                self.lhs, self.rhs, self.margin, int(self.passed)]


BOUND_CSV_COLUMNS = ["alpha", "j1", "C", "N", "instance", "lhs", "rhs", "margin", "pass"]


H0 = Callable[[Iterable[Triangle]], float]


def _image_h0(spec: CouplingSpec, vol: Volume) -> H0:
    """H_0 of the spin image of a set of triangles on vol."""
    return lambda tris: hamiltonian(spec, triangles_to_spins(TriangleFamily.of(tris), vol))


def _contour_reports(spec: CouplingSpec, family: TriangleFamily, vol: Volume, c: int,
                     instance: str, h0: H0) -> List[BoundReport]:
    """Per-contour bound reports, with H_0 of a set of triangles taken from h0."""
    z = zeta(spec.alpha)
    full = h0(family)
    reports = []
    for k, gamma in enumerate(contours(family, c)):
        lhs = full - h0(family.difference(gamma.family()))
        rhs = 0.5 * z * gamma.power_mass(spec.alpha)
        reports.append(BoundReport(spec.alpha, spec.j1, c, vol.n_sites,
                                   f"{instance or 'contour'}:{k}", lhs, rhs))
    return reports


def check_erase_prefix(spec: CouplingSpec, family: TriangleFamily, vol: Volume, i: int,
                       instance: str = "", c: int = 3) -> BoundReport:
    """Lower bound for erasing the i smallest triangles: >= zeta * sum |T|^alpha."""
    if not 1 <= i <= len(family):
        raise ValueError(f"prefix length {i} out of range 1..{len(family)}")
    h0 = _image_h0(spec, vol)
    z = zeta(spec.alpha)
    tris = family.sorted_by_mass()
    lhs = h0(family) - h0(tris[i:])
    rhs = z * sum(t.mass**spec.alpha for t in tris[:i])
    return BoundReport(spec.alpha, spec.j1, c, vol.n_sites, instance or f"prefix{i}", lhs, rhs)


def check_contour_bound(spec: CouplingSpec, family: TriangleFamily, vol: Volume,
                        c: int = 3, instance: str = "") -> List[BoundReport]:
    """Per-contour bound: erasing a contour costs >= (zeta/2) * sum |T|^alpha."""
    return _contour_reports(spec, family, vol, c, instance, _image_h0(spec, vol))


def telescoping_error(spec: CouplingSpec, family: TriangleFamily, vol: Volume) -> float:
    """|H0(family) - sum of sequential erasure costs| for smallest-first erasure."""
    h0 = _image_h0(spec, vol)
    total = h0(family) - h0([])
    tris = family.sorted_by_mass()
    acc = 0.0
    for i in range(len(tris)):
        acc += h0(tris[i:]) - h0(tris[i + 1:])
    return abs(total - acc)


def exhaustive_reports(spec: CouplingSpec, n: int, c: int = 3,
                       kinds: Sequence[str] = ("prefix", "contour")) -> Iterator[BoundReport]:
    """Bound reports over every configuration of an n-site volume.

    Instance ids are "<config index>:<check>"; configurations are indexed
    by their bit code (bit k set means spin +1 at site k).  The energies
    of all 2**n configurations come from one batched call; an erased
    family is looked up by the bit code of its image.
    """
    vol = Volume(0, n - 1)
    z = zeta(spec.alpha)
    all_spins = enumerate_spins(n)
    table = energy(spec, vol, all_spins).tolist()

    def h0(tris: Iterable[Triangle]) -> float:
        return table[family_code(tris, vol)]

    for code in range(2**n):
        family = spins_to_triangles(SpinConfiguration(vol, all_spins[code]))
        tris = family.sorted_by_mass()
        if "prefix" in kinds:
            full = table[code]
            rhs = 0.0
            for i in range(1, len(tris) + 1):
                lhs = full - h0(tris[i:])
                rhs += z * tris[i - 1].mass**spec.alpha
                yield BoundReport(spec.alpha, spec.j1, c, n, f"{code}:prefix{i}", lhs, rhs)
        if "contour" in kinds:
            yield from _contour_reports(spec, family, vol, c, str(code), h0)


def minimal_j1(alpha: float, n: int = 8, c: int = 3,
               grid: Sequence[float] = (1.5, 2.0, 3.0, 5.0, 10.0, 100.0)) -> Optional[float]:
    """Smallest grid j1 for which every bound report passes at this alpha.

    The required size of J(1) is an empirical question; failures at small
    j1 are reported rather than asserted.
    """
    for j1 in sorted(grid):
        spec = CouplingSpec(alpha=alpha, j1=j1)
        if all(r.passed for r in exhaustive_reports(spec, n, c)):
            return j1
    return None
