"""Triangle representation of spin configurations with plus boundary.

Each sign change between neighbouring sites is an interface on a bond.
In the construction the interface points sit slightly off the bond
midpoints, so that all pairwise distances between them are distinct.
Growing 45-degree lines from the interface points collide pairwise, one
collision at a time, and each collision freezes a triangle.  The
resulting family of triangles is a bijective encoding of the
configuration.  A triangle is its integer bond pair, and a family is the
sorted tuple of its triangles.  ``families(vol)`` streams the families
of all 2**n configurations of a volume, in the bit-code order of
``model.enumerate_spins``, from one batched interface scan.

The offsets only break ties, so none is stored.  Taken as dyadic
rationals of a common sign, decreasing with the bond rank inside the
volume, they reduce the collision order to an integer rule: among
adjacent unpaired interfaces, the pair with the smallest bond distance
collides first, leftmost pair on equal distances (the offset of the
leftmost interface outweighs the sum of all offsets to its right).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .model import SpinConfiguration, Volume, enumerate_spins


class _BondPair(NamedTuple):
    left: int
    right: int


class Triangle(_BondPair):
    """Coupled interface pair (left bond, right bond); mass = number of
    integer sites on its basis.  Equality, hash and order are the pair's."""

    __slots__ = ()

    def __new__(cls, left: int, right: int) -> "Triangle":
        if left >= right:
            raise ValueError("triangle requires left bond < right bond")
        return super().__new__(cls, left, right)

    @property
    def mass(self) -> int:
        return self.right - self.left

    def sites(self) -> range:
        """Integer sites covered by the basis."""
        return range(self.left + 1, self.right + 1)

    def contains_triangle(self, other: "Triangle") -> bool:
        return self.left <= other.left and other.right <= self.right


def triangle_distance(a: Triangle, b: Triangle) -> int:
    """Distance between triangle bases (bond units).

    Disjoint bases: the gap.  Nested bases: distance from the inner base
    to the outer base's endpoints.  Partial overlap (never produced by
    the construction): 0.
    """
    if a.right <= b.left:
        return b.left - a.right
    if b.right <= a.left:
        return a.left - b.right
    if a.contains_triangle(b):
        a, b = b, a
    if b.contains_triangle(a):
        return min(a.left - b.left, b.right - a.right)
    return 0


def satisfies_ma1(family: Sequence[Triangle]) -> bool:
    """dist(T, T') >= min(|T|, |T'|) for every pair (nested pairs included)."""
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if triangle_distance(a, b) < min(a.mass, b.mass):
                return False
    return True


def _interface_bonds(spins: np.ndarray, first_bond: int) -> Iterator[List[int]]:
    """Sorted interface bonds of each row of a (rows, n) spin table with
    plus boundary, row by row; bond first_bond lies left of column 0."""
    padded = np.ones((spins.shape[0], spins.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = spins
    change = padded[:, :-1] != padded[:, 1:]
    bonds = (np.flatnonzero(change) % change.shape[1] + first_bond).tolist()
    start = 0
    for count in change.sum(axis=1).tolist():
        yield bonds[start:start + count]
        start += count


def interfaces(sigma: SpinConfiguration) -> List[int]:
    """Sorted interface bonds of a configuration in the plus-boundary class."""
    if sigma.boundary != +1:
        raise ValueError("triangle construction requires plus boundary")
    return next(_interface_bonds(sigma.spins[None, :], sigma.volume.lo - 1))


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
        best, best_gap = 0, active[1] - active[0]
        for k in range(1, len(active) - 1):
            gap = active[k + 1] - active[k]
            if gap < best_gap:  # strict: the leftmost pair wins ties
                best, best_gap = k, gap
        pairs.append((active[best], active[best + 1]))
        del active[best:best + 2]
    return pairs


def _family(bonds: List[int]) -> Tuple[Triangle, ...]:
    return tuple(Triangle(l, r) for l, r in sorted(pair_interface_bonds(bonds)))


def spins_to_triangles(sigma: SpinConfiguration) -> Tuple[Triangle, ...]:
    """Map a plus-boundary configuration to its triangle family, in bond order."""
    return _family(interfaces(sigma))


def families(vol: Volume) -> Iterator[Tuple[Triangle, ...]]:
    """Triangle families of all plus-boundary configurations on vol, lazily.

    Item ``code`` is the family of ``enumerate_spins(vol.n_sites)[code]``:
    bit k of the code is set when the spin at site vol.lo + k is +1.
    """
    for bonds in _interface_bonds(enumerate_spins(vol.n_sites), vol.lo - 1):
        yield _family(bonds)


def triangles_to_spins(family: Iterable[Tuple[int, int]], vol: Volume) -> SpinConfiguration:
    """Inverse map: sigma_i = (-1)**(number of triangles covering site i)."""
    spins = np.ones(vol.n_sites, dtype=np.int8)
    for left, right in family:
        if left < vol.lo - 1 or right > vol.hi:
            raise ValueError(f"triangle ({left}, {right}) outside volume [{vol.lo}, {vol.hi}]")
        spins[left + 1 - vol.lo:right + 1 - vol.lo] *= -1
    return SpinConfiguration(vol, spins, boundary=+1)


def family_code(triangles: Iterable[Tuple[int, int]], vol: Volume) -> int:
    """Bit code of the spin image of the given triangles on vol.

    Uses the encoding of ``model.enumerate_spins``: bit k is set when the
    spin at site vol.lo + k is +1, so the image equals
    ``enumerate_spins(vol.n_sites)[code]``.  A triangle (l, r) flips the
    bits of sites l + 1..r.
    """
    code = (1 << vol.n_sites) - 1
    for left, right in triangles:
        code ^= ((1 << (right - left)) - 1) << (left + 1 - vol.lo)
    return code


def _is_realizable(pairs: Iterable[Tuple[int, int]]) -> bool:
    """True iff the pairs are the triangle family of some configuration."""
    pairs = set(pairs)
    bonds = [b for pair in pairs for b in pair]
    if len(set(bonds)) != len(bonds):
        return False
    return set(pair_interface_bonds(bonds)) == pairs


def is_compatible(a: Iterable[Tuple[int, int]], b: Iterable[Tuple[int, int]]) -> bool:
    """True iff the union is realizable by some plus-boundary configuration.

    Decided by regeneration: the union's spin image must decompose back
    into exactly the union.
    """
    a, b = set(a), set(b)
    if a & b:
        return False
    return _is_realizable(a | b)

