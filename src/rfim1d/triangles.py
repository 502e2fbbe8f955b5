"""Triangle representation of spin configurations with plus boundary.

Each sign change between neighbouring sites is an interface on a bond.
In the construction the interface points sit slightly off the bond
midpoints, so that all pairwise distances between them are distinct.
Growing 45-degree lines from the interface points collide pairwise, one
collision at a time, and each collision freezes a triangle.  The
resulting family of triangles is a bijective encoding of the
configuration.  A triangle is a plain ``(left, right)`` tuple of int
bonds with left < right; its mass, the number of sites it flips, is
``right - left``.  A family is the sorted tuple of such bond pairs.
``families(vol)`` streams the families of all 2**n configurations of a
volume, in the bit-code order of ``model.enumerate_spins``, from one
batched interface scan per block of ``FAMILY_BLOCK`` codes, so its
memory does not grow with 2**n.

The offsets only break ties, so none is stored.  Taken as dyadic
rationals of a common sign, decreasing with the bond rank inside the
volume, they reduce the collision order to an integer rule: among
adjacent unpaired interfaces, the pair with the smallest bond distance
collides first, leftmost pair on equal distances (the offset of the
leftmost interface outweighs the sum of all offsets to its right).

That rule is computed in one left-to-right pass with a stack of
unpaired interfaces.  Before an interface is pushed, the top two
entries are popped as a pair while their gap is <= the gap from the top
to the new interface; a final infinite bond flushes the stack.  So the
gaps along the stack stay strictly decreasing, and each popped pair
has a gap strictly below its left neighbour's and <= its right
neighbour's.  Such a pair collides: removing a pair only widens the gaps
next to it, so no neighbour of the popped pair ever beats it, and on a
tie with its right neighbour the leftmost pair wins.  The collisions
happen in nondecreasing gap order, as removing a pair of gap g leaves
a gap of at least 3g behind; so all pairs of one gap exist before the
first of them collides and collide from left to right, and sorting the
pairs by (gap, left bond) gives the collision order.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .model import SpinConfiguration, Volume, enumerate_spins

FAMILY_BLOCK = 1024  # codes per interface scan in ``families``


def triangle_distance(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """Distance between triangle bases (bond units).

    Disjoint bases: the gap.  Nested bases: distance from the inner base
    to the outer base's endpoints.  Partial overlap (never produced by
    the construction): 0.
    """
    (al, ar), (bl, br) = a, b
    if ar <= bl:
        return bl - ar
    if br <= al:
        return al - br
    if al <= bl and br <= ar:
        (al, ar), (bl, br) = b, a
    if bl <= al and ar <= br:
        return min(al - bl, br - ar)
    return 0


def satisfies_ma1(family: Sequence[Tuple[int, int]]) -> bool:
    """dist(T, T') >= min(|T|, |T'|) for every pair (nested pairs included)."""
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if triangle_distance(a, b) < min(a[1] - a[0], b[1] - b[0]):
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
    """Collision pairing on interface bonds, in bond order.

    Equivalent to the exact-offset event queue: adjacent pair with the
    smallest bond distance collides first, leftmost pair breaking ties.
    Sorting the pairs by (right - left, left) gives the collision order.
    """
    if len(bonds) % 2 != 0:
        raise RuntimeError("odd interface count: configuration not in the plus class")
    stack: List[int] = []
    pairs: List[Tuple[int, int]] = []
    for b in [*sorted(bonds), math.inf]:
        while len(stack) >= 2 and stack[-1] - stack[-2] <= b - stack[-1]:
            right = stack.pop()
            pairs.append((stack.pop(), right))
        stack.append(b)
    pairs.sort()
    return pairs


def spins_to_triangles(sigma: SpinConfiguration) -> Tuple[Tuple[int, int], ...]:
    """Map a plus-boundary configuration to its triangle family, in bond order."""
    return tuple(pair_interface_bonds(interfaces(sigma)))


def families(vol: Volume) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Triangle families of all plus-boundary configurations on vol, lazily.

    Item ``code`` is the family of ``enumerate_spins(vol.n_sites)[code]``:
    bit k of the code is set when the spin at site vol.lo + k is +1.
    The codes are scanned ``FAMILY_BLOCK`` at a time.
    """
    n = vol.n_sites
    for start in range(0, 2**n, FAMILY_BLOCK):
        block = enumerate_spins(n, start, min(FAMILY_BLOCK, 2**n - start))
        for bonds in _interface_bonds(block, vol.lo - 1):
            yield tuple(pair_interface_bonds(bonds))


def triangles_to_spins(family: Iterable[Tuple[int, int]], vol: Volume) -> SpinConfiguration:
    """Inverse map: sigma_i = (-1)**(number of triangles covering site i)."""
    spins = np.ones(vol.n_sites, dtype=np.int8)
    for left, right in family:
        if not vol.lo - 1 <= left < right <= vol.hi:
            raise ValueError(f"triangle ({left}, {right}) is not a bond pair left < right "
                             f"inside volume [{vol.lo}, {vol.hi}]")
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
