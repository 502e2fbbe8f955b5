"""Reference oracles for the library's model and combinatorial layers.

Each one computes a quantity or decides a property of the construction
by a slower, independent route, and only the tests call them:

- ``coupling``, ``tail`` and ``boundary_field``: J(n), its tail sums and
  the boundary field of one site, one scalar at a time;
- ``homogeneous``: the configuration with every spin equal;
- ``splitmix64_next`` and ``splitmix64_word``: a scalar SplitMix64
  generator, against which every vectorized stream is checked;

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

import numpy as np

from rfim1d.contours import Contour, _pair_separated, contours
from rfim1d.model import CouplingSpec, SpinConfiguration, Volume
from rfim1d.triangles import _is_realizable, spins_to_triangles

SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1


def coupling(spec: CouplingSpec, n: int) -> float:
    """J(n): j1 at distance 1, n**(alpha-2) beyond."""
    if n < 1:
        raise ValueError(f"coupling distance must be >= 1, got {n}")
    if n == 1:
        return spec.j1
    return float(n) ** (spec.alpha - 2.0)


def tail(spec: CouplingSpec, d: int) -> float:
    """Sum of J(n) over n >= d (j1 honoured when d == 1)."""
    if d == 1:
        return spec.j1 + spec.power_tail(2)
    return spec.power_tail(d)


def boundary_field(spec: CouplingSpec, i: int, vol: Volume) -> float:
    """Sum of J(|i-j|) over sites j outside the volume."""
    if i not in vol:
        raise ValueError(f"site {i} outside volume")
    d_left = i - vol.lo + 1
    d_right = vol.hi - i + 1
    return tail(spec, d_left) + tail(spec, d_right)


def homogeneous(vol: Volume, value: int = +1, boundary: int = +1) -> SpinConfiguration:
    return SpinConfiguration(vol, np.full(vol.n_sites, value, dtype=np.int8), boundary)


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
