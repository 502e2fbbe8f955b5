"""Triangle representation of spin configurations with plus boundary.

Each sign change between neighbouring sites is an interface, placed at a
point slightly off the bond midpoint so that all pairwise distances
between interface points are distinct.  Growing 45-degree lines from the
interface points collide pairwise, one collision at a time, and each
collision freezes a triangle.  The resulting family of triangles is a
bijective encoding of the configuration.

Offsets are dyadic rationals of a common sign, decreasing with the bond
rank inside the volume.  With that choice the collision order reduces to
an integer rule: among adjacent unpaired interfaces, the pair with the
smallest bond distance collides first, leftmost pair on equal distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .model import SpinConfiguration, Volume


_MAX_OFFSET = Fraction(1, 100)


class IncompatibleFamiliesError(ValueError):
    """Union of the given triangle families is not realizable by any configuration."""


@dataclass(frozen=True)
class InterfacePoint:
    """Interface on bond (bond, bond+1), located at bond + 1/2 + offset."""

    bond: int
    offset: Fraction = field(default=Fraction(0), compare=False)

    def __post_init__(self):
        if abs(self.offset) > _MAX_OFFSET:
            raise ValueError("interface offset exceeds 1/100")

    @property
    def position(self) -> Fraction:
        return Fraction(2 * self.bond + 1, 2) + self.offset


@dataclass(frozen=True)
class Triangle:
    """Coupled interface pair; mass = number of integer sites on its basis."""

    left: InterfacePoint
    right: InterfacePoint

    def __post_init__(self):
        if self.left.bond >= self.right.bond:
            raise ValueError("triangle requires left bond < right bond")

    @property
    def left_bond(self) -> int:
        return self.left.bond

    @property
    def right_bond(self) -> int:
        return self.right.bond

    @property
    def mass(self) -> int:
        return self.right.bond - self.left.bond

    def sites(self) -> range:
        """Integer sites covered by the basis."""
        return range(self.left.bond + 1, self.right.bond + 1)

    def contains_site(self, i: int) -> bool:
        return self.left.bond < i <= self.right.bond

    def contains_triangle(self, other: "Triangle") -> bool:
        return self.left_bond <= other.left_bond and other.right_bond <= self.right_bond

    @property
    def bonds(self) -> Tuple[int, int]:
        return (self.left_bond, self.right_bond)

    @classmethod
    def from_bonds(cls, left: int, right: int) -> "Triangle":
        return cls(InterfacePoint(left), InterfacePoint(right))


def triangle_distance(a: Triangle, b: Triangle) -> int:
    """Distance between triangle bases (bond units).

    Disjoint bases: the gap.  Nested bases: distance from the inner base
    to the outer base's endpoints.  Partial overlap (never produced by
    the construction): 0.
    """
    if a.right_bond <= b.left_bond:
        return b.left_bond - a.right_bond
    if b.right_bond <= a.left_bond:
        return a.left_bond - b.right_bond
    if a.contains_triangle(b):
        a, b = b, a
    if b.contains_triangle(a):
        return min(a.left_bond - b.left_bond, b.right_bond - a.right_bond)
    return 0


@dataclass(frozen=True)
class TriangleFamily:
    """Finite set of triangles."""

    triangles: FrozenSet[Triangle]

    @classmethod
    def of(cls, triangles: Iterable[Triangle]) -> "TriangleFamily":
        return cls(frozenset(triangles))

    @classmethod
    def from_bond_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "TriangleFamily":
        return cls(frozenset(Triangle.from_bonds(l, r) for l, r in pairs))

    @classmethod
    def empty(cls) -> "TriangleFamily":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.triangles)

    def __iter__(self):
        return iter(self.sorted())

    def sorted(self) -> List[Triangle]:
        return sorted(self.triangles, key=lambda t: t.bonds)

    def sorted_by_mass(self) -> List[Triangle]:
        return sorted(self.triangles, key=lambda t: (t.mass, t.bonds))

    def bond_pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(t.bonds for t in self.triangles)

    @property
    def total_mass(self) -> int:
        return sum(t.mass for t in self.triangles)

    def union(self, other: "TriangleFamily") -> "TriangleFamily":
        return TriangleFamily(self.triangles | other.triangles)

    def difference(self, other: "TriangleFamily") -> "TriangleFamily":
        return TriangleFamily(self.triangles - other.triangles)

    def coverage_parity(self, i: int) -> int:
        return sum(1 for t in self.triangles if t.contains_site(i)) % 2

    def satisfies_ma1(self) -> bool:
        """dist(T, T') >= min(|T|, |T'|) for every pair (nested pairs included)."""
        tris = self.sorted()
        for i, a in enumerate(tris):
            for b in tris[i + 1:]:
                if triangle_distance(a, b) < min(a.mass, b.mass):
                    return False
        return True

    def shifted(self, k: int) -> "TriangleFamily":
        return TriangleFamily.from_bond_pairs((l + k, r + k) for l, r in self.bond_pairs())


def assign_offsets(vol: Volume) -> Dict[int, Fraction]:
    """Deterministic interface offsets with all pairwise distances distinct.

    s_x = (1/100) * 2**-(rank+1) with rank the position of bond x among the
    volume's bonds; distinct powers of two make any signed combination of
    four offsets nonzero, so no two interface distances coincide.
    """
    return {
        bond: Fraction(1, 100 * 2 ** (rank + 1))
        for rank, bond in enumerate(vol.bonds())
    }


def interfaces(sigma: SpinConfiguration) -> List[InterfacePoint]:
    """Interface points of a configuration in the plus-boundary class."""
    if sigma.boundary != +1:
        raise ValueError("triangle construction requires plus boundary")
    padded = np.concatenate(([1], sigma.spins, [1]))
    change = padded[:-1] * padded[1:] == -1
    first_bond = sigma.volume.lo - 1
    # bond first_bond + k has rank k in assign_offsets
    return [
        InterfacePoint(int(first_bond + k), Fraction(1, 100 * 2 ** (int(k) + 1)))
        for k in np.flatnonzero(change)
    ]


def pair_interface_bonds(bonds: List[int]) -> List[Tuple[int, int]]:
    """Collision pairing on interface bonds.

    Equivalent to the exact-offset event queue: adjacent pair with the
    smallest bond distance collides first, leftmost pair breaking ties.
    """
    if len(bonds) % 2 != 0:
        raise RuntimeError("odd interface count: configuration not in the plus class")
    active = sorted(bonds)
    pairs: List[Tuple[int, int]] = []
    while active:
        best = min(range(len(active) - 1), key=lambda k: (active[k + 1] - active[k], k))
        pairs.append((active[best], active[best + 1]))
        del active[best:best + 2]
    return pairs


def spins_to_triangles(sigma: SpinConfiguration) -> TriangleFamily:
    """Map a plus-boundary configuration to its triangle family."""
    points = interfaces(sigma)
    by_bond = {p.bond: p for p in points}
    pairs = pair_interface_bonds([p.bond for p in points])
    return TriangleFamily.of(Triangle(by_bond[l], by_bond[r]) for l, r in pairs)


def triangles_to_spins(family: TriangleFamily, vol: Volume) -> SpinConfiguration:
    """Inverse map: sigma_i = (-1)**(number of triangles covering site i)."""
    spins = np.ones(vol.n_sites, dtype=np.int8)
    for t in family.triangles:
        if t.left_bond < vol.lo - 1 or t.right_bond > vol.hi:
            raise ValueError(f"triangle {t.bonds} outside volume [{vol.lo}, {vol.hi}]")
        spins[t.left_bond + 1 - vol.lo:t.right_bond + 1 - vol.lo] *= -1
    return SpinConfiguration(vol, spins, boundary=+1)


def _is_realizable(pairs: FrozenSet[Tuple[int, int]]) -> bool:
    bonds: List[int] = []
    for l, r in pairs:
        bonds.append(l)
        bonds.append(r)
    if len(set(bonds)) != len(bonds):
        return False
    return set(pair_interface_bonds(bonds)) == set(pairs)


def is_compatible(a: TriangleFamily, b: TriangleFamily) -> bool:
    """True iff the union is realizable by some plus-boundary configuration.

    Decided by regeneration: the union's spin image must decompose back
    into exactly the union.
    """
    if a.triangles & b.triangles:
        return False
    return _is_realizable(a.union(b).bond_pairs())


def family_volume(family: TriangleFamily, pad: int = 1) -> Volume:
    """Smallest volume containing the family, padded on both sides."""
    pairs = family.bond_pairs()
    if not pairs:
        return Volume(0, 0)
    lo = min(l for l, _ in pairs) + 1 - pad
    hi = max(r for _, r in pairs) + pad
    return Volume(lo, hi)


def energy_difference(
    spec,
    s: TriangleFamily,
    rest: TriangleFamily,
    vol: Volume,
    h=None,
    theta: Optional[float] = None,
) -> float:
    """H^+(s | rest) = H^+(s u rest) - H^+(rest)."""
    from .model import hamiltonian

    if not is_compatible(s, rest):
        raise IncompatibleFamiliesError("families are not compatible")
    full = hamiltonian(spec, triangles_to_spins(s.union(rest), vol), h, theta)
    base = hamiltonian(spec, triangles_to_spins(rest, vol), h, theta)
    return full - base
