"""Brute-force verification of the deterministic Peierls energy bounds.

The cost of erasing the i smallest triangles of a family is compared to
zeta(alpha) * sum |T|^alpha, and the cost of erasing a whole contour to
(zeta/2) * sum_{T in Gamma} |T|^alpha, exhaustively over all
configurations of a small volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .contours import Contour, contours
from .model import ALPHA_PEIERLS_MAX, CouplingSpec, Volume, enumerate_spins
from .triangles import TriangleFamily, spins_to_triangles

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


class EnergyModel:
    """Precomputed couplings over one volume for fast plus-boundary energies."""

    def __init__(self, spec: CouplingSpec, vol: Volume):
        self.spec = spec
        self.vol = vol
        self.jm = spec.coupling_matrix(vol)
        self.bv = spec.boundary_vector(vol)
        self.jsum = float(self.jm.sum())

    def h0(self, spins: np.ndarray) -> float:
        s = spins.astype(np.float64)
        return float(0.5 * (self.jsum - s @ self.jm @ s) + self.bv @ (1.0 - s))

    def family_image(self, family: TriangleFamily) -> np.ndarray:
        spins = np.ones(self.vol.n_sites, dtype=np.int8)
        lo = self.vol.lo
        for t in family.triangles:
            spins[t.left + 1 - lo:t.right + 1 - lo] *= -1
        return spins

    def h0_family(self, family: TriangleFamily) -> float:
        return self.h0(self.family_image(family))


def check_erase_prefix(spec: CouplingSpec, family: TriangleFamily, vol: Volume, i: int,
                       instance: str = "", c: int = 3,
                       model: Optional[EnergyModel] = None) -> BoundReport:
    """Lower bound for erasing the i smallest triangles: >= zeta * sum |T|^alpha."""
    if not 1 <= i <= len(family):
        raise ValueError(f"prefix length {i} out of range 1..{len(family)}")
    model = model or EnergyModel(spec, vol)
    z = zeta(spec.alpha)
    tris = family.sorted_by_mass()
    lhs = model.h0_family(family) - model.h0_family(TriangleFamily.of(tris[i:]))
    rhs = z * sum(t.mass**spec.alpha for t in tris[:i])
    return BoundReport(spec.alpha, spec.j1, c, vol.n_sites, instance or f"prefix{i}", lhs, rhs)


def check_contour_bound(spec: CouplingSpec, family: TriangleFamily, vol: Volume,
                        c: int = 3, instance: str = "",
                        model: Optional[EnergyModel] = None) -> List[BoundReport]:
    """Per-contour bound: erasing a contour costs >= (zeta/2) * sum |T|^alpha."""
    model = model or EnergyModel(spec, vol)
    z = zeta(spec.alpha)
    full = model.h0_family(family)
    reports = []
    for k, gamma in enumerate(contours(family, c)):
        rest = family.difference(gamma.family())
        lhs = full - model.h0_family(rest)
        rhs = 0.5 * z * gamma.power_mass(spec.alpha)
        reports.append(BoundReport(spec.alpha, spec.j1, c, vol.n_sites,
                                   f"{instance or 'contour'}:{k}", lhs, rhs))
    return reports


def telescoping_error(spec: CouplingSpec, family: TriangleFamily, vol: Volume,
                      model: Optional[EnergyModel] = None) -> float:
    """|H0(family) - sum of sequential erasure costs| for smallest-first erasure."""
    model = model or EnergyModel(spec, vol)
    empty = model.h0_family(TriangleFamily.empty())
    total = model.h0_family(family) - empty
    tris = family.sorted_by_mass()
    acc = 0.0
    for i in range(len(tris)):
        acc += (model.h0_family(TriangleFamily.of(tris[i:]))
                - model.h0_family(TriangleFamily.of(tris[i + 1:])))
    return abs(total - acc)


def exhaustive_reports(spec: CouplingSpec, n: int, c: int = 3,
                       kinds: Sequence[str] = ("prefix", "contour")) -> Iterator[BoundReport]:
    """Bound reports over every configuration of an n-site volume.

    Instance ids are "<config index>:<check>"; configurations are indexed
    by their bit code (bit k set means spin +1 at site k).
    """
    vol = Volume(0, n - 1)
    model = EnergyModel(spec, vol)
    z = zeta(spec.alpha)
    all_spins = enumerate_spins(n)
    from .model import SpinConfiguration

    for code in range(2**n):
        sigma = SpinConfiguration(vol, all_spins[code])
        family = spins_to_triangles(sigma)
        tris = family.sorted_by_mass()
        if "prefix" in kinds:
            full = model.h0_family(family)
            rhs = 0.0
            for i in range(1, len(tris) + 1):
                rest = TriangleFamily.of(tris[i:])
                lhs = full - model.h0_family(rest)
                rhs += z * tris[i - 1].mass**spec.alpha
                yield BoundReport(spec.alpha, spec.j1, c, n, f"{code}:prefix{i}", lhs, rhs)
        if "contour" in kinds:
            yield from check_contour_bound(spec, family, vol, c, instance=str(code), model=model)


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
