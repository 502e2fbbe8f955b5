"""Exhaustive enumeration of origin contours of fixed mass.

Contours of total mass m through the origin are generated shape-first:
canonical families (leftmost bond at 0) are built from top-level
triangles with nested subfamilies and bounded gaps, filtered down to
realizable families that the separation algorithm maps to a single
contour.  Each shape then contributes one contour per translation whose
enclosing basis covers the origin.

A depth-first search places blocks (a top-level triangle with its nested
content) left to right and carries the clusters of the prefix placed so
far.  Each block shape is merged (``contours._merge``) once; placing it
merges its shifted clusters into the prefix's.  A candidate is kept when its last
block leaves one cluster and its bond pairs are realizable.  The top-
level triangles fix the blocks, so no family is built twice.

The merge order does not matter (the argument is in the ``contours``
docstring), so the prefix's clusters and a block's clusters, each of
which lies inside the contours of the whole candidate, merge into the
candidate's contours.

Gap soundness: a candidate's clusters merge into one only if some merge
bridges each gap.  Merge the prefix first, as the order does not
matter; its clusters are separated, so the first merge across the gap
after it joins a prefix cluster X with a cluster right of the gap of
mass at most r = m - used.  Their intervals are disjoint, so the gap is
at most X.right + C * min(|X|, r)**3 - right, maximized over X.  As
X.right <= right and |X| <= used, this is at most C * min(used, r)**3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .contours import Contour, _merge
from .model import CapacityError
from .triangles import _is_realizable

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
    # per block mass: each block shape's width and its own clusters, merged once
    blocks = [[(max(r for _, r in shape), _merge(shape, c)) for shape in _block_shapes(mass)]
              for mass in range(m + 1)]
    results: List[BondPairs] = []

    def extend(clusters: List[Contour], used: int, right: int) -> None:
        remaining = m - used
        if remaining == 0:
            if len(clusters) == 1:
                pairs = tuple(sorted(clusters[0].triangles))
                if _is_realizable(pairs):
                    results.append(pairs)
            return
        if used:
            reach = max(x.right + c * min(x.mass, remaining) ** 3 for x in clusters)
            gaps = range(1, reach - right + 1)
        else:
            gaps = (0,)
        for block_mass in range(1, remaining + 1):
            for width, block in blocks[block_mass]:
                for gap in gaps:
                    left = right + gap
                    moved = [Contour(x.left + left, x.right + left, x.mass,
                                     _shift(x.triangles, left)) for x in block]
                    extend(_merge((), c, clusters + moved), used + block_mass, left + width)

    extend([], 0, 0)
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


def _check_cap(m: int) -> None:
    if m < 1:
        raise ValueError("mass must be >= 1")
    if m > DEFAULT_MASS_CAP:
        raise CapacityError(f"mass {m} exceeds enumeration cap {DEFAULT_MASS_CAP}")


def enumerate_origin_contours(m: int, c: int = 3) -> List[Contour]:
    """All contours of mass m whose enclosing basis contains the origin."""
    _check_cap(m)
    out: List[Contour] = []
    for shape in contour_shapes(m, c):
        span = max(r for _, r in shape)
        # translations t with 0 in the enclosing basis (t, t + span]
        for t in range(-span, 0):
            out.append(Contour(t, t + span, m, _shift(shape, t)))
    return out


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
               c: int = 3) -> CertifyResult:
    """Smallest grid b* above which the entropy bound holds for all m <= m_max.

    The bound is checked at every grid point at and above the candidate;
    absence of an admissible b* is reported, not raised.
    """
    _check_cap(m_max)
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
