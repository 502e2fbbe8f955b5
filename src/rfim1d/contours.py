"""Grouping triangle families into well-separated contours.

A contour is a cluster of triangles; two distinct contours must either
have disjoint enclosing intervals at distance > C * min(|G|^3, |G'|^3)
or be nested, with the inner one at distance > C * |inner|^3 from the
outer and each outer triangle containing or avoiding the inner's
enclosing interval.  The decomposition is computed by merging violating
pairs to a fixed point.

The merge runs on integer clusters built straight from sorted bond
pairs, so the shape enumerator shares it without building triangle
objects; ``Contour`` objects are built only at the API boundary, by
``contours()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .triangles import Triangle, TriangleFamily

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


@dataclass(frozen=True)
class Contour:
    """A cluster of triangles with its equal-mass class decomposition."""

    triangles: Tuple[Triangle, ...]

    def __post_init__(self):
        if not self.triangles:
            raise ValueError("a contour needs at least one triangle")
        object.__setattr__(self, "triangles", tuple(sorted(self.triangles)))

    @classmethod
    def of(cls, triangles) -> "Contour":
        return cls(tuple(triangles))

    @property
    def left_bond(self) -> int:
        return min(t.left for t in self.triangles)

    @property
    def right_bond(self) -> int:
        return max(t.right for t in self.triangles)

    @property
    def mass(self) -> int:
        return sum(t.mass for t in self.triangles)

    def family(self) -> TriangleFamily:
        return TriangleFamily.of(self.triangles)

    def classes(self) -> List[Tuple[int, List[Triangle]]]:
        """Equal-mass classes (Delta_l, members), strictly increasing in mass."""
        by_mass: Dict[int, List[Triangle]] = {}
        for t in self.triangles:
            by_mass.setdefault(t.mass, []).append(t)
        return [(mass, by_mass[mass]) for mass in sorted(by_mass)]

    @property
    def n_classes(self) -> int:
        return len({t.mass for t in self.triangles})

    def power_mass(self, rho: float) -> float:
        """sum_l n_l * Delta_l**rho."""
        return float(sum(n * d**rho for d, n in ((d, len(ts)) for d, ts in self.classes())))

    def contains_site(self, i: int) -> bool:
        """Site inside the enclosing basis."""
        return self.left_bond < i <= self.right_bond


class _Cluster(NamedTuple):
    """Integer view of a contour: enclosing bonds, mass and member bond pairs."""

    left: int
    right: int
    mass: int
    members: Tuple[Tuple[int, int], ...]


def _pair_separated(a: _Cluster, b: _Cluster, c: int) -> bool:
    """True iff the pair satisfies one of the separation alternatives."""
    # disjoint enclosing intervals: the closest triangles are the facing ends
    if a.right <= b.left:
        return b.left - a.right > c * min(a.mass, b.mass) ** 3
    if b.right <= a.left:
        return a.left - b.right > c * min(a.mass, b.mass) ** 3
    if a.left <= b.left and b.right <= a.right:
        a, b = b, a
    if not (b.left <= a.left and a.right <= b.right):
        return False  # partial overlap of enclosing intervals
    inner, outer = a, b
    threshold = c * inner.mass ** 3
    # each outer triangle must contain or avoid the inner enclosing interval;
    # its distance to the inner contour is then fixed by the inner's ends
    for l, r in outer.members:
        if r <= inner.left:
            gap = inner.left - r
        elif inner.right <= l:
            gap = l - inner.right
        elif l <= inner.left and inner.right <= r:
            gap = min(inner.left - l, r - inner.right)
        else:
            return False
        if gap <= threshold:
            return False
    return True


def _first_violation(clusters: Sequence[_Cluster], c: int) -> Optional[Tuple[int, int]]:
    """Lexicographically first pair (i, j), i < j, that is not separated."""
    for i, a in enumerate(clusters):
        reach = a.right + c * a.mass ** 3
        for j in range(i + 1, len(clusters)):
            b = clusters[j]
            if b.left > reach:
                # b and every later cluster lie beyond a's largest threshold
                break
            if not _pair_separated(a, b, c):
                return i, j
    return None


_merge_order = itemgetter(0, 2)  # a cluster's (left, mass)


def _merge(pairs: Sequence[Tuple[int, int]], c: int) -> List[_Cluster]:
    """Merge sorted bond pairs to a fixed point of the separation rules.

    Deterministic: among violating pairs, the one with the smallest
    (left endpoint, mass) keys merges first, and the fused cluster goes
    to the end of the list before the next stable sort.  Returns the
    clusters in (left, mass) order.
    """
    clusters = [_Cluster(p[0], p[1], p[1] - p[0], (p,)) for p in pairs]
    while True:
        clusters.sort(key=_merge_order)
        pair = _first_violation(clusters, c)
        if pair is None:
            return clusters
        i, j = pair
        a, b = clusters[i], clusters[j]
        del clusters[j]
        del clusters[i]
        clusters.append(_Cluster(min(a.left, b.left), max(a.right, b.right),
                                 a.mass + b.mass, a.members + b.members))


def contours(family: TriangleFamily, c: int = 3) -> List[Contour]:
    """Partition a family into contours, ordered by left endpoint.

    The contours hold the family's own triangle objects.
    """
    return [Contour.of(g.members) for g in _merge(family.sorted(), c)]


def verify_P1(contour_list: Sequence[Contour], c: int = 3) -> bool:
    """Certificate: every distinct pair satisfies a separation alternative."""
    clusters = [_Cluster(g.left_bond, g.right_bond, g.mass, g.triangles) for g in contour_list]
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            if not _pair_separated(a, b, c):
                return False
    return True


def verify_P2(families: Sequence[TriangleFamily], c: int = 3) -> bool:
    """Independence: the decomposition of a union of pre-separated families
    is the union of the individual decompositions."""
    individual: List[Contour] = []
    for fam in families:
        individual.extend(contours(fam, c))
    if not verify_P1(individual, c):
        raise ValueError("families' contours do not pairwise satisfy the separation rules")
    union = TriangleFamily.empty()
    for fam in families:
        union = union.union(fam)
    joint = contours(union, c)
    key = lambda gs: sorted(g.triangles for g in gs)
    return key(joint) == key(individual)
