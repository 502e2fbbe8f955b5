"""Grouping triangle families into well-separated contours.

A contour is a cluster of triangles; two distinct contours must either
have disjoint enclosing intervals at distance > C * min(|G|^3, |G'|^3)
or be nested, with the inner one at distance > C * |inner|^3 from the
outer and each outer triangle containing or avoiding the inner's
enclosing interval.  The decomposition is computed by merging violating
pairs to a fixed point.

``_merge`` works on plain tuples.  A cluster is ``(left, right, mass,
bonds, members)``: its enclosing bonds, its mass, the bonds of its
members in increasing order, and the members, each a ``(left, right)``
bond pair, in merge order.  This module alone reads and builds that
layout: the shape enumerator makes clusters with ``_merge``, moves them
with ``_shifted`` and bounds its gaps with ``_reach``, and
``contours()`` wraps each final cluster once in a ``Contour``, the
named tuple (left, right, mass, triangles) with its members in bond
order.

The separation rule is inlined in ``_merge``'s loop.  Disjoint
enclosing intervals are separated iff their facing end bonds are more
than C * min(|G|, |G'|)^3 apart: the closest triangles are the facing
ends.  In the nested case, with inner enclosing bonds [L, R] and
threshold d = C * |inner|^3, each outer member (l, r), l < r, must lie
below or above [L, R] at a gap > d, or contain it with both gaps > d.
That holds iff neither l nor r lies in the window [L - d, R + d]: a
member below or above [L, R] has its facing bond in the window iff its
gap is <= d, a containing member has l or r in it iff a gap is <= d,
and any other member crosses L or R and so has a bond inside [L, R].
So the pair is separated iff no outer bond lies in the window, which one
bisection of the outer's sorted bonds decides.  The outer's last bond is
its right end, at or above R, so the bisection always lands on a bond.
A fused cluster's sorted bonds are merged from its parents' when it is
built, and a starting cluster brings its own, so no bonds are sorted
twice.

Merge order: if clusters A and B violate the separation rules, so do
any disjoint A' >= A and B' >= B, since intervals, masses and windows
only grow.  A disjoint pair within reach stays within reach, or comes
to nest with the facing end bond in the inner's window.  A partially
overlapping pair cannot come apart, and if it nests, the outer has an
end bond inside the inner's interval.  A nested pair with an outer bond
in the inner's window keeps it there, or nests the other way round with
the former inner's end bonds inside the new inner's interval.  So, by
induction, every cluster a merge builds lies inside one contour of any
separated partition coarser than the start, and the fixed point is the
finest such partition whatever the merge order.  ``_merge`` relies on
this twice.  A popped cluster scans the separated clusters newest
first: the input comes in bond order, so the newest are its nearest
neighbours, which it most often violates.  And clusters merged on their
own can be merged further with the same result.  The scan order does
not show in the output either: the fixed point is one partition, which
``_merge`` returns in (left, mass) order.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

# M, the number of terms the separation series sums before its tail bound
SEPARATION_TERMS = 2_000_000


def separation_series(c: int) -> Tuple[float, float]:
    """Partial sum and tail bound of sum_m 4m / floor(c*m)**3."""
    m = np.arange(1, SEPARATION_TERMS + 1, dtype=np.float64)
    partial = float(np.sum(4.0 * m / np.floor(c * m) ** 3))
    # floor(c*m) >= c*m - 1, so the tail is below (4/c^3) * (1/M) / (1 - 1/(c*M))^3
    tail = (4.0 / c**3) / SEPARATION_TERMS / (1.0 - 1.0 / (c * SEPARATION_TERMS)) ** 3
    return partial, tail


def choose_C() -> int:
    """Smallest integer C with sum_m 4m / floor(C*m)**3 <= 1/2."""
    for c in range(1, 64):
        partial, tail = separation_series(c)
        if partial + tail <= 0.5:
            return c
    raise RuntimeError("no admissible separation constant found")


def check_separation_constant(c: int) -> None:
    """Raise ``ValueError`` for c < 1, where the separation rule no longer holds."""
    if c < 1:
        raise ValueError(f"separation constant c must be >= 1, got {c}")


class Contour(NamedTuple):
    """A cluster of triangles: enclosing bonds, total mass and members.

    The members are (left, right) bond pairs; ``of`` and ``contours()``
    list them in bond order.
    """

    left: int
    right: int
    mass: int
    triangles: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, triangles: Iterable[Tuple[int, int]]) -> "Contour":
        """The contour of the given members, with its bonds and mass."""
        members = tuple(sorted(triangles))
        if not members:
            raise ValueError("a contour needs at least one triangle")
        if any(l >= r for l, r in members):
            raise ValueError("each triangle requires left bond < right bond")
        if len({b for t in members for b in t}) < 2 * len(members):
            raise ValueError("a bond can belong to one triangle only")
        return cls(members[0][0], max(r for _, r in members),
                   sum(r - l for l, r in members), members)

    def classes(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Equal-mass classes (Delta_l, members), strictly increasing in mass."""
        by_mass: Dict[int, List[Tuple[int, int]]] = {}
        for t in self.triangles:
            by_mass.setdefault(t[1] - t[0], []).append(t)
        return [(mass, by_mass[mass]) for mass in sorted(by_mass)]

    @property
    def n_classes(self) -> int:
        return len({r - l for l, r in self.triangles})

    def power_mass(self, rho: float) -> float:
        """sum_l n_l * Delta_l**rho."""
        return float(sum(n * d**rho for d, n in ((d, len(ts)) for d, ts in self.classes())))

    def contains_site(self, i: int) -> bool:
        """Site inside the enclosing basis."""
        return self.left < i <= self.right


# a cluster of the merge: (left, right, mass, sorted bonds, members)
Cluster = Tuple[int, int, int, Sequence[int], Tuple[Tuple[int, int], ...]]
_left_and_mass = itemgetter(0, 2)


def _merge(pairs: Sequence[Tuple[int, int]], c: int, clusters: Sequence[Cluster] = (),
           separated: Sequence[Cluster] = ()) -> List[Cluster]:
    """Merge clusters to a fixed point of the separation rules.

    The starting clusters are ``separated``, which the caller vouches are
    pairwise separated and which are not checked against each other, the
    given ``clusters``, and one per bond pair.  A popped cluster is
    checked against the clusters found pairwise separated so far, newest
    first, fused with the first one it violates, and the fused cluster
    goes back on the worklist.  The fixed point does not depend on the
    merge order (see the module docstring).  Returns the clusters in
    (left, mass) order; the members of a fused cluster are in merge
    order, not bond order.
    """
    work = list(clusters)
    work += [(p[0], p[1], p[1] - p[0], p, (p,)) for p in pairs]
    work.reverse()  # pop in the given order
    separated = list(separated)
    while work:
        g = gl, gr, gm, gb, gt = work.pop()
        gd = c * gm ** 3
        for k in range(len(separated) - 1, -1, -1):
            hl, hr, hm, hb, ht = separated[k]
            # disjoint enclosing intervals: the closest triangles are the facing ends
            if hr <= gl:
                if gl - hr > (gd if gm < hm else c * hm ** 3):
                    continue
            elif gr <= hl:
                if hl - gr > (gd if gm < hm else c * hm ** 3):
                    continue
            # nested: the first outer bond at or above L - d lies beyond R + d
            elif gl <= hl and hr <= gr:
                d = c * hm ** 3
                if gb[bisect_left(gb, hl - d)] > hr + d:
                    continue
            elif hl <= gl and gr <= hr:
                if hb[bisect_left(hb, gl - gd)] > gr + gd:
                    continue
            # not separated (partial overlaps included): fuse, left cluster first;
            # the bonds are two sorted runs, which sorted() merges in linear time
            del separated[k]
            if hl < gl:
                work.append((hl, max(gr, hr), gm + hm, sorted([*hb, *gb]), ht + gt))
            else:
                work.append((gl, max(gr, hr), gm + hm, sorted([*gb, *hb]), gt + ht))
            break
        else:
            separated.append(g)
    separated.sort(key=_left_and_mass)
    return separated


def _shifted(g: Cluster, k: int) -> Cluster:
    """Cluster g moved k bonds to the right."""
    left, right, mass, bonds, members = g
    return (left + k, right + k, mass, [b + k for b in bonds],
            tuple([(l + k, r + k) for l, r in members]))


def _reach(clusters: Sequence[Cluster], c: int, mass: int) -> int:
    """The farthest left bond at which a cluster of at most ``mass``, placed
    right of all ``clusters``, can still violate the disjoint rule with one."""
    return max(right + c * min(m, mass) ** 3 for _, right, m, _, _ in clusters)


def _contour(g: Cluster) -> Contour:
    """The ``Contour`` of a cluster, its members in bond order."""
    left, right, mass, _, members = g
    return Contour(left, right, mass, members if len(members) == 1 else tuple(sorted(members)))


def contours(family: Sequence[Tuple[int, int]], c: int = 3) -> List[Contour]:
    """Partition a family into contours, ordered by left endpoint.

    Each contour lists its bond pairs in bond order.
    """
    return [_contour(g) for g in _merge(family, c)]
