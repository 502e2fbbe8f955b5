"""Grouping triangle families into well-separated contours.

A contour is a cluster of triangles; two distinct contours must either
have disjoint enclosing intervals at distance > C * min(|G|^3, |G'|^3)
or be nested, with the inner one at distance > C * |inner|^3 from the
outer and each outer triangle containing or avoiding the inner's
enclosing interval.  The decomposition is computed by merging violating
pairs to a fixed point.

A ``Contour`` is the cluster the merge builds: its enclosing bonds, its
mass and its member triangles, each a ``(left, right)`` bond pair.  The
shape enumerator and ``contours()`` share the merge.

The nested test is one bisection on the outer cluster's sorted bonds
(see ``_pair_separated``), not a walk over its members; a fused
cluster's sorted bonds are merged from its parents' when it is built.

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
this: it fuses violating pairs in worklist order, and clusters merged
on their own can be merged further with the same result.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

DEFAULT_SEPARATION_TERMS = 2_000_000


def separation_series(c: int, terms: int = DEFAULT_SEPARATION_TERMS) -> Tuple[float, float]:
    """Partial sum and tail bound of sum_m 4m / floor(c*m)**3."""
    m = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(4.0 * m / np.floor(c * m) ** 3))
    # floor(c*m) >= c*m - 1, so the tail is below (4/c^3) * (1/M) / (1 - 1/(c*M))^3
    tail = (4.0 / c**3) / terms / (1.0 - 1.0 / (c * terms)) ** 3
    return partial, tail


def choose_C(terms: int = DEFAULT_SEPARATION_TERMS) -> int:
    """Smallest integer C with sum_m 4m / floor(C*m)**3 <= 1/2."""
    for c in range(1, 64):
        partial, tail = separation_series(c, terms)
        if partial + tail <= 0.5:
            return c
    raise RuntimeError("no admissible separation constant found")


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


def _pair_separated(a: Contour, a_bonds: Sequence[int], b: Contour,
                    b_bonds: Sequence[int], c: int) -> bool:
    """True iff the pair satisfies one of the separation alternatives.

    ``a_bonds`` and ``b_bonds`` are the bonds of each cluster's members in
    increasing order.  In the nested case, with inner enclosing bonds
    [L, R] and threshold d = c * |inner|^3, each outer member (l, r),
    l < r, must lie below or above [L, R] at a gap > d, or contain it with
    both gaps > d.  That holds iff neither l nor r lies in the window
    [L - d, R + d]: a member below or above [L, R] has its facing bond in
    the window iff its gap is <= d, a containing member has l or r in it
    iff a gap is <= d, and any other member crosses L or R and so has a
    bond inside [L, R].  So the pair is separated iff no outer bond lies
    in the window, which one bisection of the outer's sorted bonds decides.
    """
    # disjoint enclosing intervals: the closest triangles are the facing ends
    if a.right <= b.left:
        return b.left - a.right > c * min(a.mass, b.mass) ** 3
    if b.right <= a.left:
        return a.left - b.right > c * min(a.mass, b.mass) ** 3
    if a.left <= b.left and b.right <= a.right:
        a, b, b_bonds = b, a, a_bonds
    if not (b.left <= a.left and a.right <= b.right):
        return False  # partial overlap of enclosing intervals
    inner, outer_bonds = a, b_bonds
    threshold = c * inner.mass ** 3
    k = bisect_left(outer_bonds, inner.left - threshold)
    return k == len(outer_bonds) or outer_bonds[k] > inner.right + threshold


def _merge(pairs: Sequence[Tuple[int, int]], c: int,
           clusters: Sequence[Contour] = ()) -> List[Contour]:
    """Merge clusters to a fixed point of the separation rules.

    The starting clusters are the given ones plus one per bond pair.  A
    worklist holds each cluster with its sorted bonds; a popped cluster is
    checked against the clusters found pairwise separated so far, fused
    with the first one it violates, and the fused cluster goes back on the
    worklist.  The fixed point does not depend on the merge order (see the
    module docstring).  Returns the clusters in (left, mass) order; the
    members of a fused cluster are in merge order, not bond order.
    """
    work = [(g, g.triangles[0] if len(g.triangles) == 1
             else sorted([b for t in g.triangles for b in t])) for g in clusters]
    work += ((Contour(p[0], p[1], p[1] - p[0], (p,)), p) for p in pairs)
    work.reverse()  # pop in the given order
    separated: List[Tuple[Contour, Sequence[int]]] = []
    while work:
        g, g_bonds = work.pop()
        for k, (h, h_bonds) in enumerate(separated):
            if not _pair_separated(g, g_bonds, h, h_bonds, c):
                del separated[k]
                if h.left < g.left:
                    g, g_bonds, h, h_bonds = h, h_bonds, g, g_bonds
                # two sorted runs, which sorted() merges in linear time
                work.append((Contour(g.left, max(g.right, h.right), g.mass + h.mass,
                                     g.triangles + h.triangles),
                             sorted([*g_bonds, *h_bonds])))
                break
        else:
            separated.append((g, g_bonds))
    merged = [g for g, _ in separated]
    merged.sort(key=lambda g: (g.left, g.mass))
    return merged


def contours(family: Sequence[Tuple[int, int]], c: int = 3) -> List[Contour]:
    """Partition a family into contours, ordered by left endpoint.

    Each contour lists its bond pairs in bond order.
    """
    return [g if len(g.triangles) == 1 else g._replace(triangles=tuple(sorted(g.triangles)))
            for g in _merge(family, c)]
