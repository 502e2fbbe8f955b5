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
pairs by (gap, left bond) gives the collision order.  Every gap is <=
the infinite one, so that bond pops the pairs left on the stack from
the top down: a flush loop does the same without pushing it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .model import CapacityError, Volume, VolumeMismatchError, enumerate_spins

FAMILY_BLOCK = 1024  # codes per interface scan in ``families``


def satisfies_ma1(family: Sequence[Tuple[int, int]]) -> bool:
    """dist(T, T') >= min(|T|, |T'|) for every pair (nested pairs included).

    The distance between two bases, in bond units: the gap between
    disjoint bases; for nested bases, the distance from the inner base to
    the nearer endpoint of the outer one; 0 for a partial overlap, which
    the construction never produces.
    """
    for (al, ar), (bl, br) in combinations(family, 2):
        if ar <= bl:
            d = bl - ar
        elif br <= al:
            d = al - br
        elif bl <= al and ar <= br:
            d = min(al - bl, br - ar)
        elif al <= bl and br <= ar:
            d = min(bl - al, ar - br)
        else:
            d = 0
        if d < ar - al and d < br - bl:
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


def interfaces(spins: np.ndarray, vol: Volume) -> List[int]:
    """Sorted interface bonds of a +-1 spin row on vol under the plus boundary.

    The library's one check on a row from outside: a row that is not
    vol.n_sites long, or holds a value other than +-1, raises ValueError.
    """
    spins = np.asarray(spins)
    if spins.shape != (vol.n_sites,):
        raise VolumeMismatchError(f"spin row of shape {spins.shape} on {vol.n_sites} sites")
    if not np.all(np.abs(spins) == 1):
        raise ValueError("spins must be +-1")
    return next(_interface_bonds(spins[None, :], vol.lo - 1))


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
    for b in sorted(bonds):
        while len(stack) >= 2 and stack[-1] - stack[-2] <= b - stack[-1]:
            right = stack.pop()
            pairs.append((stack.pop(), right))
        stack.append(b)
    # the final infinite bond: every pair left pops, from the top
    while stack:
        right = stack.pop()
        pairs.append((stack.pop(), right))
    pairs.sort()
    return pairs


def spins_to_triangles(spins: np.ndarray, vol: Volume) -> Tuple[Tuple[int, int], ...]:
    """Map a +-1 spin row on vol, plus boundary, to its triangle family, in bond order."""
    return tuple(pair_interface_bonds(interfaces(spins, vol)))


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


def triangles_to_spins(family: Iterable[Tuple[int, int]], vol: Volume) -> np.ndarray:
    """Inverse map, as an int8 row: sigma_i = (-1)**(number of triangles covering site i)."""
    spins = np.ones(vol.n_sites, dtype=np.int8)
    for left, right in family:
        if not vol.lo - 1 <= left < right <= vol.hi:
            raise ValueError(f"triangle ({left}, {right}) is not a bond pair left < right "
                             f"inside volume [{vol.lo}, {vol.hi}]")
        spins[left + 1 - vol.lo:right + 1 - vol.lo] *= -1
    return spins


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


def roundtrip_failures(n: int) -> Tuple[int, int]:
    """Roundtrip and compatibility failures over all 2**n configurations of
    ``Volume.centered(n)``: the families whose bit code is not their
    configuration's, and the families that break ``satisfies_ma1``.

    n < 1 raises ValueError, n > 16 CapacityError, before any work.
    """
    if not 1 <= n <= 16:
        error = CapacityError if n > 16 else ValueError
        raise error(f"n must lie in 1..16 for the exhaustive roundtrip, got {n}")
    vol = Volume.centered(n)
    failures = ma1_failures = 0
    for code, fam in enumerate(families(vol)):
        failures += family_code(fam, vol) != code
        ma1_failures += not satisfies_ma1(fam)
    return failures, ma1_failures
