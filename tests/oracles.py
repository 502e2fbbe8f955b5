"""Reference oracles for the library's combinatorial layers.

Each one decides a property of the construction by a slower, independent
route, and only the tests call them:

- ``is_compatible``: a union of triangle families is realizable, decided
  by regenerating its pairing;
- ``verify_P1`` / ``verify_P2``: the separation certificate of a contour
  list and the independence of pre-separated families;
- ``spin_scan_origin_contours``: origin contours of mass m found by
  scanning spin configurations, against which the shape enumerator is
  checked (acceptance criterion 6).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from rfim1d.contours import Contour, _pair_separated, contours
from rfim1d.model import SpinConfiguration, Volume
from rfim1d.triangles import _is_realizable, spins_to_triangles


def is_compatible(a: Iterable[Tuple[int, int]], b: Iterable[Tuple[int, int]]) -> bool:
    """True iff the union is realizable by some plus-boundary configuration.

    Decided by regeneration: the union's spin image must decompose back
    into exactly the union.
    """
    a, b = set(a), set(b)
    if a & b:
        return False
    return _is_realizable(a | b)


def verify_P1(contour_list: Sequence[Contour], c: int = 3) -> bool:
    """Certificate: every distinct pair satisfies a separation alternative."""
    cache: Dict[int, tuple] = {}
    for i, a in enumerate(contour_list):
        for b in contour_list[i + 1:]:
            if not _pair_separated(a, b, c, cache):
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
            sigma = SpinConfiguration.from_minus_sites(vol, minus)
            for gamma in contours(spins_to_triangles(sigma), c):
                if gamma.mass == m and gamma.contains_site(0):
                    found[gamma.triangles] = gamma
    return list(found.values())
