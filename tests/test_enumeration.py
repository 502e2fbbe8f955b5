import dataclasses
import itertools
import math

import pytest

from oracles import is_realizable, max_span, spin_scan_origin_contours, verify_P1
from rfim1d import CapacityError, certify_C0, enumeration, enumerate_origin_contours
from rfim1d.contours import _merge, contours
from rfim1d.enumeration import (_block_shapes, _flushes, _push, _shape_aggregates, _shift,
                                contour_shapes, origin_contour_counts)


def contour_keys(contour_list):
    return sorted(g.triangles for g in contour_list)


def _reference_contour_shapes(m, c=3):
    """Brute-force shape generator, the oracle for contour_shapes():
    every candidate becomes a sorted tuple of bond pairs, is decomposed
    from scratch by contours() and is checked for realizability on a
    frozenset of its pairs."""
    results = []

    def extend(prefix, used, right):
        remaining = m - used
        if remaining == 0:
            fam = tuple(sorted(prefix))
            if is_realizable(frozenset(fam)) and len(contours(fam, c)) == 1:
                results.append(fam)
            return
        gaps = range(1, c * min(used, remaining) ** 3 + 1) if used else (0,)
        for block_mass in range(1, remaining + 1):
            for shape in _block_shapes(block_mass):
                width = max(r for _, r in shape)
                for gap in gaps:
                    left = right + gap
                    extend(prefix + _shift(shape, left), used + block_mass, left + width)

    extend((), 0, 0)
    return tuple(sorted(set(results)))


class TestEnumeration:
    def test_mass_one(self):
        gs = enumerate_origin_contours(1)
        assert contour_keys(gs) == [((-1, 0),)]

    def test_mass_two_count(self):
        # 2 single mass-2 triangles + 12 merged pairs of unit triangles
        gs = enumerate_origin_contours(2)
        assert len(gs) == 14
        singles = [g for g in gs if len(g.triangles) == 1]
        assert contour_keys(singles) == [((-2, 0),), ((-1, 1),)]

    def test_all_outputs_have_requested_mass_and_origin(self):
        for m in (1, 2, 3):
            for g in enumerate_origin_contours(m):
                assert g.mass == m
                assert g.contains_site(0)
                assert verify_P1([g])

    def test_outputs_are_distinct(self):
        keys = contour_keys(enumerate_origin_contours(3))
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_spin_scan_oracle(self, m):
        fast = contour_keys(enumerate_origin_contours(m))
        scan = contour_keys(spin_scan_origin_contours(m))
        assert fast == scan

    def test_translation_covariance(self):
        # contours through site k are the origin contours shifted by k
        k = 4
        origin = contour_keys(enumerate_origin_contours(2))
        through_k = sorted(
            tuple((l + k, r + k) for l, r in key) for key in origin
        )
        scanned = contour_keys(spin_scan_origin_contours(2, half_width=14))
        # rebuild the site-k scan by shifting the window result
        shifted = sorted(tuple((l + k, r + k) for l, r in key) for key in scanned)
        assert shifted == through_k

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_origin_contours(7)
        with pytest.raises(ValueError):
            enumerate_origin_contours(0)

    def test_search_width_guard(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("contour_shapes called before the cap check")

        monkeypatch.setattr(enumeration, "contour_shapes", no_work)
        for m, c in ((4, 11), (3, 25), (1, 649), (6, 4)):
            with pytest.raises(CapacityError, match="exceeds enumeration cap 648"):
                certify_C0(0.1, m_max=m, c=c)
            with pytest.raises(CapacityError, match="exceeds enumeration cap 648"):
                origin_contour_counts(m, c)
            with pytest.raises(CapacityError, match="exceeds enumeration cap 648"):
                contour_shapes(m, c)
        # below c = 1 the separation rule breaks: at c = 0, mass 3 would give 3 contours, not 92
        for m, c in ((3, 0), (1, -2)):
            with pytest.raises(ValueError, match=f"c must be >= 1, got {c}"):
                certify_C0(0.1, m_max=m, c=c)
            with pytest.raises(ValueError, match=f"c must be >= 1, got {c}"):
                origin_contour_counts(m, c)
            with pytest.raises(ValueError, match=f"c must be >= 1, got {c}"):
                contour_shapes(m, c)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_shapes_match_object_oracle(self, m):
        assert contour_shapes(m, 3) == _reference_contour_shapes(m)

    def test_mass_six_counts(self):
        # enumerate-contours --mmax 6 at the object-based generator: 2,306,048
        # origin contours from 55,962 shapes; the cache is shared with criterion 7
        shapes = contour_shapes(6, 3)
        assert len(shapes) == 55_962
        assert sum(max(r for _, r in shape) for shape in shapes) == 2_306_048

    def test_mirror_images(self):
        # a mirror image is a shape unless unrealizable: the separation rules are
        # mirror-symmetric, only the pairing of interface bonds is not
        missing = []
        for m in range(1, 7):
            shapes = contour_shapes(m, 3)
            known = set(shapes)
            mirrors = [tuple(sorted((span - r, span - l) for l, r in shape))
                       for shape, span in ((s, max(r for _, r in s)) for s in shapes)]
            absent = [mirror for mirror in mirrors if mirror not in known]
            assert not any(is_realizable(mirror) for mirror in absent)
            missing.append(len(absent))
        assert missing == [0, 0, 1, 6, 201, 3_426]

    def test_pairing_stack_decides_realizability(self):
        # one block's pairs pushed through an empty stack, then flushed, against
        # the oracle that pairs the bonds from scratch; the flush rejects nested or
        # crossing leftovers such as (0, 6) around (3, 5), whose gaps 3 > 2 > 1
        # pop nothing, and which need a mass of at least 8
        window = [(l, r) for l in range(9) for r in range(l + 1, 10)]
        rejected_by_flush = 0
        for k in (1, 2, 3):
            for pairs in itertools.combinations(window, k):
                if len({b for pair in pairs for b in pair}) < 2 * k:
                    continue
                mate = {}
                bonds = sorted(x for l, r in pairs for x in ((l, r), (r, l)))
                stack = _push([], bonds, 0, mate)
                decided = stack is not None and _flushes(stack, mate)
                rejected_by_flush += stack is not None and not decided
                assert decided is is_realizable(pairs), pairs
        assert rejected_by_flush > 0

    def test_search_size(self, monkeypatch):
        # merges and fusions of one uncached mass-5 search: each block shape is
        # merged once, and the reach-bounded gaps leave 5,128 finished
        # candidates, where merging each candidate from scratch took 10,008;
        # the prefix clusters a placement starts from are pairwise separated,
        # and go in as such, so they are not checked against each other again;
        # a placement whose bonds pop a pair that is not placed is pruned before
        # its merge: 116 of 6,376 placements, which took the counts down from
        # 6,522 merges and 8,689 fusions
        work = [0, 0, 0]
        tried = [0, 0]  # placements pushed through the pairing stack, and pruned
        flushed = []  # the leaf flush of each single-cluster candidate

        def counting(pairs, c, clusters=(), separated=()):
            assert len(_merge((), c, separated)) == len(separated)
            out = _merge(pairs, c, clusters, separated)
            work[0] += 1
            work[1] += len(pairs) + len(clusters) + len(separated) - len(out)
            work[2] += len(separated)
            return out

        def counting_push(*args):
            stack = _push(*args)
            tried[0] += 1
            tried[1] += stack is None
            return stack

        def counting_flush(*args):
            flushed.append(_flushes(*args))
            return flushed[-1]

        want = contour_shapes(5, 3)  # cached before the count, which sees one search
        globals_ = contour_shapes.__wrapped__.__globals__
        monkeypatch.setitem(globals_, "_merge", counting)
        monkeypatch.setitem(globals_, "_push", counting_push)
        monkeypatch.setitem(globals_, "_flushes", counting_flush)
        assert contour_shapes.__wrapped__(5, 3) == want
        assert work[:2] == [6_268, 8_395] and work[2] > 0
        # every placement that is not pruned is merged, after the block shapes' own merges
        blocks = sum(len(_block_shapes(mass)) for mass in range(1, 6))
        assert tried[0] - tried[1] == work[0] - blocks
        assert tried == [6_376, 116]
        # each single-cluster candidate is flushed; below mass 8 the placements'
        # pops leave the flush nothing to reject (see the test above)
        assert flushed == [True] * len(want)

    def test_each_mass_is_enumerated_once(self):
        # (1, 5) and (2, 5) are pairs no other test enumerates, so the first call
        # of each is its one miss
        m, c = 2, 5
        before = contour_shapes.cache_info()
        shapes = contour_shapes(m, c)
        aggregates = _shape_aggregates(m, c)
        counts = origin_contour_counts(m, c)
        after = contour_shapes.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (2, 4)
        assert counts[-1] == (sum(aggregates.values()), len(shapes))
        assert sum(aggregates.values()) == sum(max(r for _, r in s) for s in shapes)
        # a second spelling of the same call would be a second cache entry
        with pytest.raises(TypeError):
            contour_shapes(m)
        with pytest.raises(TypeError):
            contour_shapes(m, c=c)

    def test_max_span_growth(self):
        assert max_span(1) == 1
        assert max_span(2) == 2 + 3
        assert max_span(3) == 3 + 3 * (1 + 1)


def weight_sums(gamma, m_max):
    """The weight_sum column of the certificate, keyed by (m, b)."""
    return {(m, b): s for m, b, s, _bd, _ok in certify_C0(gamma, m_max).rows}


class TestWeightSums:
    def test_mass_one_value(self):
        assert weight_sums(0.1, 1)[1, 2.0] == pytest.approx(math.exp(-2.0))

    def test_matches_direct_sum(self):
        # each origin contour weighs exp(-b * sum_T |T|**gamma)
        b, gamma = 2.0, 0.3
        sums = weight_sums(gamma, 3)
        for m in (1, 2, 3):
            direct = sum(
                math.exp(-b * sum((r - l) ** gamma for l, r in g.triangles))
                for g in enumerate_origin_contours(m)
            )
            assert sums[m, b] == pytest.approx(direct, rel=1e-12)

    def test_monotone_decreasing_in_b(self):
        sums = weight_sums(0.1, 3)
        assert sums[3, 1.0] > sums[3, 2.0] > sums[3, 4.0]

    def test_bound_formula(self):
        # the bound column is 2m * exp(-b * m**gamma)
        bounds = {(m, b): bd for m, b, _s, bd, _ok in certify_C0(0.1, 3).rows}
        assert bounds[3, 3.0] == pytest.approx(6.0 * math.exp(-3.0 * 3.0 ** 0.1))


class TestCertificate:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_checked_before_work(self, monkeypatch, gamma):
        def no_work(*args):
            raise AssertionError("certify_C0 enumerated before checking gamma")

        monkeypatch.setattr(enumeration, "_shape_aggregates", no_work)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            certify_C0(gamma, m_max=2)

    def test_small_mass_certificate(self):
        result = certify_C0(0.1, m_max=3)
        assert result.b_star is not None
        assert result.b_star <= 50
        # stability: the bound holds at every grid point above b*
        for m, b, s, bd, ok in result.rows:
            if b >= result.b_star:
                assert ok and s <= bd

    def test_smaller_gamma_is_easier(self):
        # the slack in the bound comes from sum |T|^gamma - m^gamma, which
        # grows as gamma shrinks; at gamma=1 it vanishes and no b works
        stars = [certify_C0(g, m_max=3).b_star for g in (0.1, 0.5, 0.8)]
        assert all(s is not None for s in stars)
        assert stars[0] <= stars[1] <= stars[2]
        assert certify_C0(1.0, m_max=3).b_star is None

    def test_rows_shape(self):
        # one (m, b, sum, bound, pass) row per mass and grid value, mass-major
        result = certify_C0(0.1, m_max=2)
        assert enumeration.B_GRID == tuple(float(b) for b in range(1, 51))
        assert [(m, b) for m, b, *_ in result.rows] == [
            (m, b) for m in (1, 2) for b in enumeration.B_GRID]
        assert all(len(r) == 5 for r in result.rows)
        # the run's gamma, m_max, c and grid stay with the caller
        assert [f.name for f in dataclasses.fields(result)] == ["b_star", "rows"]
