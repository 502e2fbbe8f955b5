"""Reference oracles for the library's model and combinatorial layers.

Each one computes a quantity or decides a property of the construction
by a slower, independent route, and only the tests call them:

- ``coupling``, ``power_tail``, ``tail`` and ``boundary_field``: J(n),
  its tail sums and the boundary field of one site, one scalar at a time;
- ``exterior_tails``: the tail sums to far beyond the truncation point,
  by ``math.fsum``, for the accuracy of the library's closure;
- ``minus_row``: the int8 +-1 row with -1 spins at given sites;
- ``splitmix64_next`` and ``splitmix64_word``: a scalar SplitMix64
  generator, against which every vectorized stream is checked;

- ``triangle_distance``: the distance between two triangle bases, the
  pair rule that ``triangles.satisfies_ma1`` inlines in its flat loop;
- ``is_realizable``: a set of bond pairs is the triangle family of some
  configuration, decided by pairing its bonds from scratch, which the
  shape enumerator decides on its pairing stack as it places blocks;
- ``is_compatible``: a union of triangle families is realizable, decided
  by regenerating its pairing;
- ``verify_P1`` / ``verify_P2``: the separation certificate of a contour
  list and the independence of pre-separated families; ``_pair_separated``,
  the certificate's pair predicate, is the library's rule as a function of
  two contours and their sorted bonds, before ``contours._merge`` inlined it;
- ``spin_scan_origin_contours``: origin contours of mass m found by
  scanning spin configurations, against which the shape enumerator is
  checked (acceptance criterion 6);

- ``rescan_pair_interface_bonds``: the collision pairing that rescans
  every adjacent gap after each collision;
- ``restart_merge``: the contour merge that re-sorts its clusters and
  restarts the scan for a violating pair after each fusion, with its
  sorted-bond cache keyed on cluster ids;
- ``materialized_bound_rows``: the CSV rows of ``verify-energy`` from
  the list of all bound reports, written in one piece.  These three were
  the library's own implementations before the one-pass forms replaced
  them.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from rfim1d.bounds import exhaustive_reports
from rfim1d.contours import Contour, contours
from rfim1d.model import CouplingSpec, Volume
from rfim1d.triangles import pair_interface_bonds, spins_to_triangles

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1


def coupling(spec: CouplingSpec, n: int) -> float:
    """J(n): j1 at distance 1, n**(alpha-2) beyond."""
    if n < 1:
        raise ValueError(f"coupling distance must be >= 1, got {n}")
    if n == 1:
        return spec.j1
    return float(n) ** (spec.alpha - 2.0)


def power_tail(spec: CouplingSpec, d: int) -> float:
    """Sum of n**(alpha-2) over n >= d, to absolute accuracy TAIL_TOLERANCE:
    the partial sum up to the truncation point plus the Euler-Maclaurin
    closure from there on.  From the truncation point on, the closure is
    evaluated on a 0-d float64 array, with numpy's powers, as the library
    evaluates all of those closures in one array."""
    if d < 1:
        raise ValueError("tail start must be >= 1")
    m0 = spec._truncation_point()
    if d >= m0:
        return float(spec._closure(np.array(d, dtype=np.float64)))
    n = np.arange(d, m0, dtype=np.float64)
    return float(np.sum(n ** (spec.alpha - 2.0))) + spec._closure(m0)


def exterior_tails(spec: CouplingSpec, n: int, far: int = 10**5) -> List[float]:
    """The sums of J(k) over k >= d for d = 1 .. n, by an independent route:
    ``math.fsum`` of the terms below ``far`` (j1 at k = 1, k**(alpha-2)
    beyond) plus the Euler-Maclaurin closure at ``far``, integral + f/2 -
    f'/12, written out here.  The terms from n + 1 on are summed once."""
    if not 1 <= n < far:
        raise ValueError(f"need 1 <= n < far, got n={n}, far={far}")
    a, f = spec.alpha, float(far)
    terms = [spec.j1] + [float(k) ** (a - 2.0) for k in range(2, far)]
    rest = math.fsum(terms[n:]) + (f ** (a - 1.0) / (1.0 - a) + f ** (a - 2.0) / 2.0
                                   - (a - 2.0) * f ** (a - 3.0) / 12.0)
    return [math.fsum(terms[d - 1:n]) + rest for d in range(1, n + 1)]


def tail(spec: CouplingSpec, d: int) -> float:
    """Sum of J(n) over n >= d (j1 honoured when d == 1)."""
    if d == 1:
        return spec.j1 + power_tail(spec, 2)
    return power_tail(spec, d)


def boundary_field(spec: CouplingSpec, i: int, vol: Volume) -> float:
    """Sum of J(|i-j|) over sites j outside the volume."""
    if i not in vol:
        raise ValueError(f"site {i} outside volume")
    d_left = i - vol.lo + 1
    d_right = vol.hi - i + 1
    return tail(spec, d_left) + tail(spec, d_right)


def minus_row(vol: Volume, minus: Iterable[int] = ()) -> np.ndarray:
    """The int8 +-1 row on vol, -1 at the sites ``minus`` and +1 elsewhere."""
    spins = np.ones(vol.n_sites, dtype=np.int8)
    spins[[vol.index(i) for i in minus]] = -1
    return spins


def splitmix64_next(state: int) -> Tuple[int, int]:
    """One step of a scalar SplitMix64 generator: (next state, its output)."""
    state = (state + SPLITMIX64_GAMMA) & _MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def splitmix64_word(seed: int, k: int) -> int:
    """Output k + 1 of the generator seeded with seed: k increments are
    skipped, then one step is taken."""
    return splitmix64_next((seed + k * SPLITMIX64_GAMMA) & _MASK64)[1]


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


def is_realizable(pairs: Iterable[Tuple[int, int]]) -> bool:
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
    return is_realizable(a | b)


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


def verify_P1(contour_list: Sequence[Contour], c: int = 3) -> bool:
    """Certificate: every distinct pair satisfies a separation alternative."""
    bonds = [sorted(b for t in g.triangles for b in t) for g in contour_list]
    for i, a in enumerate(contour_list):
        for j in range(i + 1, len(contour_list)):
            if not _pair_separated(a, bonds[i], contour_list[j], bonds[j], c):
                return False
    return True


def verify_P2(families: Sequence[Sequence[Tuple[int, int]]], c: int = 3) -> bool:
    """Independence: the decomposition of a union of pre-separated families
    is the union of the individual decompositions."""
    individual = [g for fam in families for g in contours(fam, c)]
    if not verify_P1(individual, c):
        raise ValueError("families' contours do not pairwise satisfy the separation rules")
    joint = contours(sorted(set().union(*families)), c)
    key = lambda gs: sorted(g.triangles for g in gs)
    return key(joint) == key(individual)


def max_span(m: int, c: int = 3) -> int:
    """Upper bound on the bond span of a mass-m contour."""
    return m + c * sum(min(p, m - p) ** 3 for p in range(1, m))


def spin_scan_origin_contours(m: int, c: int = 3,
                              half_width: Optional[int] = None) -> List[Contour]:
    """Independent oracle: origin contours of mass m found by scanning spin
    configurations with at most m minus sites on a window.

    A family of total mass m flips at most m sites, so the restricted scan
    is exhaustive for mass-m contours fitting the window.
    """
    if half_width is None:
        half_width = max_span(m, c) + 2
    vol = Volume(-half_width, half_width)
    sites = list(vol.sites())
    found = {}
    for k in range(1, m + 1):
        for minus in itertools.combinations(sites, k):
            for gamma in contours(spins_to_triangles(minus_row(vol, minus), vol), c):
                if gamma.mass == m and gamma.contains_site(0):
                    found[gamma.triangles] = gamma
    return list(found.values())


def rescan_pair_interface_bonds(bonds: List[int]) -> List[Tuple[int, int]]:
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


def _restart_sorted_bonds(g: Contour, cache: Dict[int, tuple]) -> Sequence[int]:
    """The bonds of g's members in increasing order.

    A one-member cluster's pair already is its sorted bonds; ``_merge``
    caches a fused one's, and a starting one's are sorted once per cache.
    An entry holds its cluster, so its id cannot be reused.
    """
    if len(g.triangles) == 1:
        return g.triangles[0]
    hit = cache.get(id(g))
    if hit is None:
        hit = cache[id(g)] = (g, sorted([b for t in g.triangles for b in t]))
    return hit[1]


def _restart_pair_separated(a: Contour, b: Contour, c: int, cache: Dict[int, tuple]) -> bool:
    """True iff the pair satisfies one of the separation alternatives.

    In the nested case, with inner enclosing bonds [L, R] and threshold
    d = c * |inner|^3, each outer member (l, r), l < r, must lie below or
    above [L, R] at a gap > d, or contain it with both gaps > d.  That
    holds iff neither l nor r lies in the window [L - d, R + d]: a member
    below or above [L, R] has its facing bond in the window iff its gap
    is <= d, a containing member has l or r in it iff a gap is <= d, and
    any other member crosses L or R and so has a bond inside [L, R].  So
    the pair is separated iff no outer bond lies in the window, which
    one bisection of the outer's sorted bonds decides.  ``cache`` keeps
    the sorted bonds of fused clusters between calls.
    """
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
    bonds = _restart_sorted_bonds(outer, cache)
    k = bisect_left(bonds, inner.left - threshold)
    return k == len(bonds) or bonds[k] > inner.right + threshold


def _restart_first_violation(clusters: Sequence[Contour], c: int,
                             cache: Dict[int, tuple]) -> Optional[Tuple[int, int]]:
    """Lexicographically first pair (i, j), i < j, that is not separated."""
    for i, a in enumerate(clusters):
        reach = a.right + c * a.mass ** 3
        for j in range(i + 1, len(clusters)):
            b = clusters[j]
            if b.left > reach:
                # b and every later cluster lie beyond a's largest threshold
                break
            if not _restart_pair_separated(a, b, c, cache):
                return i, j
    return None


_restart_merge_order = itemgetter(0, 2)  # a cluster's (left, mass)


def restart_merge(pairs: Sequence[Tuple[int, int]], c: int,
                  clusters: Sequence[Contour] = ()) -> List[Contour]:
    """Merge clusters to a fixed point of the separation rules.

    The starting clusters are the given ones plus one per bond pair.
    Deterministic: among violating pairs, the one with the smallest
    (left endpoint, mass) keys merges first, and the fused cluster goes
    to the end of the list before the next stable sort.  Returns the
    clusters in (left, mass) order; the members of a fused cluster are in
    merge order, not bond order.
    """
    clusters = [*clusters, *(Contour(p[0], p[1], p[1] - p[0], (p,)) for p in pairs)]
    cache: Dict[int, tuple] = {}
    while True:
        clusters.sort(key=_restart_merge_order)
        pair = _restart_first_violation(clusters, c, cache)
        if pair is None:
            return clusters
        i, j = pair
        a, b = clusters[i], clusters[j]
        del clusters[j]
        del clusters[i]
        g = Contour(min(a.left, b.left), max(a.right, b.right), a.mass + b.mass,
                    a.triangles + b.triangles)
        # the parents' sorted bonds are two runs, which sorted() merges in linear
        # time; no merge sees the parents again
        cache[id(g)] = (g, sorted([*_restart_sorted_bonds(a, cache),
                                   *_restart_sorted_bonds(b, cache)]))
        cache.pop(id(a), None)
        cache.pop(id(b), None)
        clusters.append(g)


def materialized_bound_rows(spec: CouplingSpec, n: int, c: int = 3) -> str:
    """CSV text of the bound-report rows, built from the list of every report."""
    reports = list(exhaustive_reports(spec, n, c))
    rows = [[spec.alpha, spec.j1, c, n, r.instance, r.lhs, r.rhs, r.margin, int(r.passed)]
            for r in reports]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
