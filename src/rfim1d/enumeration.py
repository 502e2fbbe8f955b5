"""Exhaustive enumeration of origin contours of fixed mass.

Contours of total mass m through the origin are generated shape-first:
canonical families (leftmost bond at 0) are built from top-level
triangles with nested subfamilies and bounded gaps, filtered down to
realizable families that the separation algorithm maps to a single
contour.  Each shape then contributes one contour per translation whose
enclosing basis covers the origin.

A depth-first search places blocks (a top-level triangle with its nested
content) left to right and carries the clusters of the prefix placed so
far, as the plain tuples ``contours._merge`` works on (see the
``contours`` docstring), so each prefix cluster keeps its sorted bonds
and no ``Contour`` is built until a candidate is finished.  Each block
shape is merged once; placing it merges its clusters, shifted by
``contours._shifted``, into the prefix's, which are pairwise separated
already and are not checked against each other again.  A candidate is
kept when its last block leaves one cluster and its bond pairs are
realizable.  The top-level triangles fix the blocks, so no family is
built twice.

Realizability is decided on the way down.  The search also carries the
stack of ``triangles.pair_interface_bonds`` over the bonds placed so
far, and each placed block pushes its sorted, shifted bonds through it.
Its bonds are distinct, and every later block lies right of them, so
the pairing of a finished candidate's bonds pushes the same bonds first,
in the same order: a pair that pops is a pair of that pairing, whatever
comes after.  The candidate is realizable iff that pairing is its own
bond pairs (criterion 1's bijection).  So a placement that pops a pair
which is not one of the placed pairs is pruned with its whole subtree,
which holds only unrealizable candidates; and at a leaf, flushing the
stack pops the last pairs, which decides realizability.

The merge order does not matter (the argument is in the ``contours``
docstring), so the prefix's clusters and a block's clusters, each of
which lies inside the contours of the whole candidate, merge into the
candidate's contours.

Gap soundness: a candidate's clusters merge into one only if some merge
bridges each gap.  Merge the prefix first, as the order does not
matter; its clusters are separated, so the first merge across the gap
after it joins a prefix cluster X with a cluster right of the gap of
mass at most r = m - used.  Their intervals are disjoint, so the gap is
at most X.right + C * min(|X|, r)**3 - right, maximized over X
(``contours._reach``).  As X.right <= right and |X| <= used, this is at
most C * min(used, r)**3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .contours import (Cluster, Contour, _contour, _merge, _reach, _shifted,
                       check_separation_constant)
from .model import CapacityError

DEFAULT_MASS_CAP = 6
# the weight constants b at which certify_C0 checks the entropy bound, in increasing order
B_GRID = tuple(float(b) for b in range(1, 51))

BondPairs = Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=None)
def _interior_families(width: int, mass: int) -> Tuple[BondPairs, ...]:
    """All bond-pair sets of given total mass with bonds inside 1..width-1.

    Small interiors only (nested triangles); realizability is checked later
    on the assembled family.
    """
    if mass == 0:
        return ((),)
    candidates = [(l, r) for l in range(1, width) for r in range(l + 1, width)]
    out = []
    for k in range(1, mass + 1):
        for combo in itertools.combinations(candidates, k):
            if sum(r - l for l, r in combo) != mass:
                continue
            bonds = [b for pair in combo for b in pair]
            if len(set(bonds)) != len(bonds):
                continue
            out.append(tuple(sorted(combo)))
    return tuple(out)


@lru_cache(maxsize=None)
def _block_shapes(mass: int) -> Tuple[BondPairs, ...]:
    """Top-level triangle plus nested content, total mass as given, left bond 0."""
    shapes = []
    for own in range(1, mass + 1):
        for interior in _interior_families(own, mass - own):
            shapes.append(tuple(sorted(((0, own),) + interior)))
    return tuple(shapes)


def _shift(pairs: BondPairs, k: int) -> BondPairs:
    return tuple((l + k, r + k) for l, r in pairs)


def _push(stack: List[int], bonds: Sequence[Tuple[int, int]], left: int,
          mate: Dict[int, int]) -> Optional[List[int]]:
    """Push a block's (bond, mate) pairs, moved ``left`` bonds to the right,
    through a copy of the pairing stack; None when a pair pops that is not
    one of the placed pairs.  ``mate`` maps each placed bond to the other
    bond of its pair."""
    stack = stack.copy()
    for b, other in bonds:
        b += left
        mate[b] = other + left
        while len(stack) >= 2 and stack[-1] - stack[-2] <= b - stack[-1]:
            if mate[stack.pop()] != stack.pop():
                return None
        stack.append(b)
    return stack


def _flushes(stack: List[int], mate: Dict[int, int]) -> bool:
    """True iff every pair the end of the bonds pops is a placed pair."""
    while stack:
        if mate[stack.pop()] != stack.pop():
            return False
    return True


@lru_cache(maxsize=None)
def contour_shapes(m: int, c: int, /) -> Tuple[BondPairs, ...]:
    """Canonical (leftmost bond 0) single-contour families of total mass m.

    Both arguments are positional, so each (m, c) is one cache entry.
    The cap is checked before the search.
    """
    _check_cap(m, c)
    # per block mass: each block shape's width, its own clusters, merged once, and
    # its (bond, mate) pairs in bond order
    blocks = [[(max(r for _, r in shape), _merge(shape, c),
                sorted(x for l, r in shape for x in ((l, r), (r, l))))
               for shape in _block_shapes(mass)]
              for mass in range(m + 1)]
    results: List[BondPairs] = []
    # a placed bond's mate; a stale entry is never read, as every bond on the
    # stack was written by its own placement, after any earlier one at its place
    mate: Dict[int, int] = {}

    def extend(clusters: List[Cluster], stack: List[int], used: int, right: int) -> None:
        remaining = m - used
        if remaining == 0:
            if len(clusters) == 1 and _flushes(stack, mate):
                results.append(_contour(clusters[0]).triangles)
            return
        gaps = range(1, _reach(clusters, c, remaining) - right + 1) if used else (0,)
        for block_mass in range(1, remaining + 1):
            for width, block, bonds in blocks[block_mass]:
                for gap in gaps:
                    left = right + gap
                    pushed = _push(stack, bonds, left, mate)
                    if pushed is None:
                        continue
                    moved = [_shifted(x, left) for x in block]
                    extend(_merge((), c, moved, clusters), pushed, used + block_mass,
                           left + width)

    extend([], [], 0, 0)
    return tuple(sorted(results))


def _shape_aggregates(m: int, c: int) -> Dict[Tuple[int, ...], int]:
    """Mass multiset -> summed origin-translation counts over shapes.

    A canonical shape spanning bonds [0, B] covers the origin for exactly B
    translations, so B is its contribution to any origin-contour sum whose
    weight depends only on the triangle masses.
    """
    agg: Dict[Tuple[int, ...], int] = {}
    for shape in contour_shapes(m, c):
        masses = tuple(sorted(r - l for l, r in shape))
        span = max(r for _, r in shape)
        agg[masses] = agg.get(masses, 0) + span
    return agg


def _check_cap(m: int, c: int) -> None:
    """Check the mass, the separation constant and the search width before
    any work: gaps go up to c * m**3, capped at its value for c = 3 at
    ``DEFAULT_MASS_CAP``."""
    if m < 1:
        raise ValueError("mass must be >= 1")
    check_separation_constant(c)
    if m > DEFAULT_MASS_CAP:
        raise CapacityError(f"mass {m} exceeds enumeration cap {DEFAULT_MASS_CAP}")
    cap = 3 * DEFAULT_MASS_CAP**3
    if c * m**3 > cap:
        raise CapacityError(f"c * m**3 = {c * m**3} exceeds enumeration cap {cap}")


def origin_contour_counts(m_max: int, c: int = 3) -> List[Tuple[int, int]]:
    """(origin contours, canonical shapes) of each mass 1..m_max, in order;
    the cap is checked for m_max before any enumeration."""
    _check_cap(m_max, c)
    # each shape spanning bonds [0, B] gives B origin contours
    return [(sum(_shape_aggregates(m, c).values()), len(contour_shapes(m, c)))
            for m in range(1, m_max + 1)]


def enumerate_origin_contours(m: int) -> List[Contour]:
    """All contours of mass m whose enclosing basis contains the origin, at c = 3."""
    _check_cap(m, 3)
    out: List[Contour] = []
    for shape in contour_shapes(m, 3):
        span = max(r for _, r in shape)
        # translations t with 0 in the enclosing basis (t, t + span]
        for t in range(-span, 0):
            out.append(Contour(t, t + span, m, _shift(shape, t)))
    return out


@dataclass(frozen=True)
class CertifyResult:
    b_star: Optional[float]
    rows: Tuple[Tuple[int, float, float, float, bool], ...]  # (m, b, sum, bound, pass)


def certify_C0(gamma: float, m_max: int = DEFAULT_MASS_CAP, c: int = 3) -> CertifyResult:
    """Smallest b* of ``B_GRID`` above which the entropy bound holds for all m <= m_max.

    The origin contours of mass m weigh sum over contours of
    exp(-b * sum_T |T|**gamma); the bound is 2m * exp(-b * m**gamma).  It is
    checked at every grid point at and above the candidate; absence of an
    admissible b* is reported, not raised.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    _check_cap(m_max, c)
    rows = []
    ok_by_b: Dict[float, bool] = {b: True for b in B_GRID}
    for m in range(1, m_max + 1):
        # each mass multiset's sum |T|**gamma with its origin-translation count
        terms = [(count, sum(float(mass)**gamma for mass in masses))
                 for masses, count in _shape_aggregates(m, c).items()]
        for b in B_GRID:
            s = float(sum(count * math.exp(-b * t) for count, t in terms))
            bd = 2.0 * m * math.exp(-b * float(m)**gamma)
            ok = s <= bd
            ok_by_b[b] = ok_by_b[b] and ok
            rows.append((m, b, s, bd, ok))
    b_star = None
    for i, b in enumerate(B_GRID):
        if all(ok_by_b[bb] for bb in B_GRID[i:]):
            b_star = b
            break
    return CertifyResult(b_star, tuple(rows))
