"""Exhaustive enumeration of origin contours of fixed mass.

Contours of total mass m through the origin are generated shape-first:
canonical families (leftmost bond at 0) are built from top-level
triangles with nested subfamilies and bounded gaps, filtered down to
realizable families that the separation algorithm maps to a single
contour.  Each shape then contributes one contour per translation whose
enclosing basis covers the origin.

Candidates stay sorted tuples of integer bond pairs: the separation
merge (``contours._merge``) and the realizability check run on them
directly, and a candidate is kept when the merge leaves one cluster.
``enumerate_origin_contours`` turns the kept shapes into ``Contour``s of
``Triangle``s.

Gap soundness: a merge bridging the gap after prefix mass p joins
clusters of masses at most p and m - p, so the gap is at most
C * min(p, m - p)**3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .contours import Contour, _merge, contours
from .model import CapacityError, SpinConfiguration, Volume
from .triangles import Triangle, _is_realizable, spins_to_triangles

DEFAULT_MASS_CAP = 6

BondPairs = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class WeightSpec:
    """Per-triangle weight exp(-b * |T|**gamma)."""

    b: float
    gamma: float

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError("b must be finite and positive")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and positive")

    def log_weight(self, masses: Sequence[int]) -> float:
        return -self.b * sum(float(m)**self.gamma for m in masses)


def max_span(m: int, c: int = 3) -> int:
    """Upper bound on the bond span of a mass-m contour."""
    return m + c * sum(min(p, m - p) ** 3 for p in range(1, m))


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


@lru_cache(maxsize=None)
def contour_shapes(m: int, c: int, /) -> Tuple[BondPairs, ...]:
    """Canonical (leftmost bond 0) single-contour families of total mass m.

    Both arguments are positional, so each (m, c) is one cache entry.
    """
    if m < 1:
        raise ValueError("mass must be >= 1")
    results: List[BondPairs] = []

    def extend(prefix: BondPairs, used: int, right: int) -> None:
        remaining = m - used
        if remaining == 0:
            pairs = tuple(sorted(prefix))
            if len(_merge(pairs, c)) == 1 and _is_realizable(pairs):
                results.append(pairs)
            return
        gap_cap = c * min(used, remaining) ** 3 if used else 0
        gaps = range(1, gap_cap + 1) if used else (0,)
        for block_mass in range(1, remaining + 1):
            for shape in _block_shapes(block_mass):
                width = max(r for _, r in shape)
                for gap in gaps:
                    left = right + gap
                    extend(prefix + _shift(shape, left), used + block_mass, left + width)

    extend((), 0, 0)
    return tuple(sorted(set(results)))


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


def _check_cap(m: int, cap: int) -> None:
    if m < 1:
        raise ValueError("mass must be >= 1")
    if m > cap:
        raise CapacityError(f"mass {m} exceeds enumeration cap {cap}")


def enumerate_origin_contours(m: int, c: int = 3, cap: int = DEFAULT_MASS_CAP) -> List[Contour]:
    """All contours of mass m whose enclosing basis contains the origin."""
    _check_cap(m, cap)
    out: List[Contour] = []
    for shape in contour_shapes(m, c):
        span = max(r for _, r in shape)
        # translations t with 0 in the enclosing basis (t, t + span]
        for t in range(-span, 0):
            members = tuple(Triangle(l, r) for l, r in _shift(shape, t))
            out.append(Contour(t, t + span, m, members))
    return out


def weight_sum(m: int, spec: WeightSpec, c: int = 3, cap: int = DEFAULT_MASS_CAP) -> float:
    """sum over origin contours of mass m of prod_T exp(-b |T|**gamma)."""
    _check_cap(m, cap)
    return float(sum(count * math.exp(spec.log_weight(masses))
                     for masses, count in _shape_aggregates(m, c).items()))


def weight_bound(m: int, spec: WeightSpec) -> float:
    """The entropy bound 2m * exp(-b * m**gamma)."""
    return 2.0 * m * math.exp(-spec.b * float(m)**spec.gamma)


@dataclass(frozen=True)
class CertifyResult:
    gamma: float
    m_max: int
    c: int
    b_grid: Tuple[float, ...]
    b_star: Optional[float]
    rows: Tuple[Tuple[int, float, float, float, bool], ...]  # (m, b, sum, bound, pass)

    def csv_rows(self) -> List[List]:
        return [[m, b, self.gamma, s, bd, int(ok)] for m, b, s, bd, ok in self.rows]


ENUM_CSV_COLUMNS = ["m", "b", "gamma", "weight_sum", "bound", "pass"]


def certify_C0(gamma: float, m_max: int = DEFAULT_MASS_CAP,
               b_grid: Sequence[float] = tuple(range(1, 51)),
               c: int = 3, cap: int = DEFAULT_MASS_CAP) -> CertifyResult:
    """Smallest grid b* above which the entropy bound holds for all m <= m_max.

    The bound is checked at every grid point at and above the candidate;
    absence of an admissible b* is reported, not raised.
    """
    _check_cap(m_max, cap)
    grid = tuple(sorted(float(b) for b in b_grid))
    rows = []
    ok_by_b: Dict[float, bool] = {b: True for b in grid}
    for m in range(1, m_max + 1):
        agg = _shape_aggregates(m, c)
        for b in grid:
            spec = WeightSpec(b=b, gamma=gamma)
            s = float(sum(count * math.exp(spec.log_weight(masses))
                          for masses, count in agg.items()))
            bd = weight_bound(m, spec)
            ok = s <= bd
            ok_by_b[b] = ok_by_b[b] and ok
            rows.append((m, b, s, bd, ok))
    b_star = None
    for i, b in enumerate(grid):
        if all(ok_by_b[bb] for bb in grid[i:]):
            b_star = b
            break
    return CertifyResult(gamma, m_max, c, grid, b_star, tuple(rows))


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
