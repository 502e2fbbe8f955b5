import itertools
import random
from typing import Tuple

import numpy as np
import pytest

from oracles import (_pair_separated, minus_row, rescan_pair_interface_bonds,
                     restart_merge, triangle_distance, verify_P1, verify_P2)
from rfim1d import Contour, DisorderField, RunConfig, Volume, choose_C, separation_series
from rfim1d import mc as mc_module
from rfim1d.contours import _contour, _merge, contours
from rfim1d.model import enumerate_spins
from rfim1d.triangles import families, interfaces, pair_interface_bonds, spins_to_triangles


def _distance(a: Contour, b: Contour) -> int:
    return min(triangle_distance(s, t) for s in a.triangles for t in b.triangles)


def _bonds(g: Contour) -> list:
    """The bonds of g's members in increasing order."""
    return sorted(b for t in g.triangles for b in t)


def _cluster(g: Contour) -> tuple:
    """The merge's cluster of a contour: (left, right, mass, sorted bonds, members)."""
    return g.left, g.right, g.mass, _bonds(g), g.triangles


def _separated_by_merge(a: Contour, b: Contour, c: int) -> bool:
    """The separation rule ``_merge`` inlines: a two-cluster merge keeps both."""
    return len(_merge((), c, [_cluster(a), _cluster(b)])) == 2


def _enclosing(g: Contour) -> tuple:
    return g.left, g.right


def _contains(outer, inner) -> bool:
    """The bond pair outer contains the bond pair inner."""
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _reference_pair_separated(a: Contour, b: Contour, c: int) -> bool:
    """Separation rule evaluated on Contour objects, triangle pair by pair."""
    if a.right <= b.left or b.right <= a.left:
        return _distance(a, b) > c * min(a.mass, b.mass) ** 3
    if _contains(_enclosing(a), _enclosing(b)):
        a, b = b, a
    if not _contains(_enclosing(b), _enclosing(a)):
        return False
    inner, outer = a, b
    for l, r in outer.triangles:
        if not (_contains((l, r), _enclosing(inner))
                or r <= inner.left
                or inner.right <= l):
            return False
    return _distance(inner, outer) > c * inner.mass ** 3


def _reference_member_loop(a: Contour, b: Contour, c: int) -> bool:
    """Separation rule with the nested case walked outer member by member."""
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
    for l, r in outer.triangles:
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


def _reference_contours(family, c: int = 3):
    """Object-based restart-from-scratch merge loop, the oracle for contours()."""
    clusters = [Contour.of([t]) for t in family]
    merged = True
    while merged:
        merged = False
        clusters.sort(key=lambda g: (g.left, g.mass))
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if not _reference_pair_separated(clusters[i], clusters[j], c):
                    best = (i, j)
                    break
            if best:
                break
        if best:
            i, j = best
            fused = Contour.of(clusters[i].triangles + clusters[j].triangles)
            clusters = [g for k, g in enumerate(clusters) if k not in (i, j)] + [fused]
            merged = True
    return sorted(clusters, key=lambda g: g.left)


def _merge_in_order(family, c: int, pick):
    """Merge to a fixed point, fusing the violating pair ``pick`` chooses
    from the list of all of them; the partition as sorted member tuples."""
    clusters = [Contour.of([t]) for t in family]
    while True:
        violating = [(a, b) for a, b in itertools.combinations(clusters, 2)
                     if not _reference_pair_separated(a, b, c)]
        if not violating:
            return sorted(g.triangles for g in clusters)
        a, b = pick(violating)
        clusters = [g for g in clusters if g is not a and g is not b]
        clusters.append(Contour.of(a.triangles + b.triangles))


def _partition(clusters):
    """A merge's partition: each cluster's members (its last field), sorted."""
    return sorted(tuple(sorted(g[-1])) for g in clusters)


def _sampled_configuration(seed: int) -> Tuple[np.ndarray, Volume]:
    """N=512 state after three Metropolis sweeps at the sample-hot parameters,
    as its spin row and volume."""
    cfg = RunConfig(alpha=0.55, j1=1.5, beta=0.2, theta=1.0, size=512)
    chain = mc_module._Chain(cfg, DisorderField.generate(cfg.volume(), seed=seed), seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        mc_module._sweep(chain.s, chain.m, chain.rows2, chain.tb, chain.th, cfg.beta,
                         rng.permutation(cfg.size), -np.log(rng.random(cfg.size)), 0.0)
    return chain.s, chain.vol


class TestSeparationConstant:
    def test_chosen_value(self):
        assert choose_C() == 3
        assert type(choose_C()) is int

    def test_series_certificate(self):
        # the defining series crosses 1/2 between C=2 and C=3
        p2, t2 = separation_series(2)
        p3, t3 = separation_series(3)
        assert p2 > 0.5 + 1e-6
        assert p3 + t3 <= 0.5 - 1e-6
        assert t2 < 1e-6 and t3 < 1e-6


class TestContour:
    def test_enclosing_and_mass(self, nested_contour):
        assert nested_contour.left == 0
        assert nested_contour.right == 8
        assert nested_contour.mass == 9

    def test_classes_sorted_by_mass(self, nested_contour):
        classes = nested_contour.classes()
        assert [(d, len(ts)) for d, ts in classes] == [(1, 1), (8, 1)]
        assert nested_contour.n_classes == 2

    def test_power_mass(self, nested_contour):
        assert nested_contour.power_mass(1.0) == pytest.approx(9.0)
        assert nested_contour.power_mass(0.5) == pytest.approx(1.0 + 8.0 ** 0.5)

    def test_contains_site(self, nested_contour):
        assert nested_contour.contains_site(1)
        assert nested_contour.contains_site(8)
        assert not nested_contour.contains_site(0)
        assert not nested_contour.contains_site(9)

    def test_needs_triangles(self):
        with pytest.raises(ValueError):
            Contour.of([])

    def test_orientation_required(self):
        with pytest.raises(ValueError):
            Contour.of([(5, 2)])
        with pytest.raises(ValueError):
            Contour.of([(0, 8), (4, 4)])

    @pytest.mark.parametrize("members", [[(0, 3), (0, 3)], [(0, 3), (3, 5)],
                                         [(1, 4), (4, 6), (8, 9)], [(2, 7), (0, 2)]])
    def test_bond_in_one_triangle_only(self, members):
        with pytest.raises(ValueError, match="one triangle only"):
            Contour.of(members)


class TestDecomposition:
    def test_single_triangle(self):
        fam = ((0, 3),)
        [g] = contours(fam)
        assert g.mass == 3

    def test_close_pair_merges(self):
        # two mass-1 triangles at distance 2 <= C merge into one contour
        fam = ((0, 1), (3, 4))
        assert len(contours(fam, 3)) == 1

    def test_distant_pair_stays_separate(self):
        fam = ((0, 1), (10, 11))
        gs = contours(fam, 3)
        assert len(gs) == 2
        assert verify_P1(gs, 3)

    def test_nested_inner_merges(self, nested_contour):
        # inner mass-1 triangle at distance 3 = C*1^3 is not separated
        fam = nested_contour.triangles
        assert len(contours(fam, 3)) == 1

    def test_merge_threshold_is_strict(self):
        # distance exactly C*min(m,m')^3 still merges; one more bond separates
        at_threshold = ((0, 1), (4, 5))
        beyond = ((0, 1), (5, 6))
        assert len(contours(at_threshold, 3)) == 1
        assert len(contours(beyond, 3)) == 2

    def test_mass_conserved(self):
        fam = ((0, 1), (3, 4), (20, 26), (40, 41))
        gs = contours(fam, 3)
        assert sum(g.mass for g in gs) == sum(r - l for l, r in fam)
        assert sorted(t for g in gs for t in g.triangles) == sorted(fam)

    def test_output_always_satisfies_separation(self):
        vol = Volume.centered(12)
        spins = enumerate_spins(12)
        for code in range(0, 2 ** 12, 7):
            fam = spins_to_triangles(spins[code], vol)
            if len(fam):
                assert verify_P1(contours(fam, 3), 3)

    def test_translation_covariant(self):
        fam = ((0, 1), (3, 4), (9, 15))
        base = {g.triangles for g in contours(fam, 3)}
        moved = tuple((l + 11, r + 11) for l, r in fam)
        shifted = {g.triangles for g in contours(moved, 3)}
        assert shifted == {tuple((l + 11, r + 11) for l, r in m) for m in base}


class TestReferenceOracle:
    def _assert_agrees(self, fam):
        got = contours(fam, 3)
        assert got == _reference_contours(fam, 3)
        # the contours hold the family's own triangle objects
        assert sorted(id(t) for g in got for t in g.triangles) == sorted(
            id(t) for t in fam)

    def test_all_families_of_twelve_sites(self):
        vol = Volume.centered(12)
        for spins in enumerate_spins(12):
            self._assert_agrees(spins_to_triangles(spins, vol))

    def test_sampled_configurations(self):
        for seed in range(20):
            fam = spins_to_triangles(*_sampled_configuration(seed))
            assert len(fam) > 10
            self._assert_agrees(fam)


class TestMergeOrder:
    """The fixed point does not depend on which violating pair merges first
    (the argument is in the ``contours`` docstring), so clusters merged
    on their own can be merged further, as the shape enumerator does."""

    def test_reversed_and_random_order_on_all_families_of_twelve_sites(self):
        rng = random.Random(12)
        merged = 0
        for fam in families(Volume(0, 11)):
            got = _partition(_merge(fam, 3))
            assert _merge_in_order(fam, 3, lambda pairs: pairs[-1]) == got, fam
            assert _merge_in_order(fam, 3, rng.choice) == got, fam
            merged += len(got) < len(fam)
        assert merged > 1000

    def test_prefix_then_rest_equals_whole_family(self):
        for fam in families(Volume(0, 11)):
            whole = _partition(_merge(fam, 3))
            for k in range(1, len(fam)):
                prefix, rest = _merge(fam[:k], 3), _merge(fam[k:], 3)
                assert _partition(_merge((), 3, prefix + rest)) == whole, (fam, k)
                # as the shape enumerator merges: the prefix's clusters start out separated
                assert _partition(_merge((), 3, rest, prefix)) == whole, (fam, k)


class TestPairPredicate:
    """``_merge`` inlines the separation rule, bisecting the outer's sorted
    bonds: a two-cluster merge keeps both clusters exactly when the
    triangle-distance rule says the pair is separated.  The member loop is
    a second oracle, and it also checks ``oracles._pair_separated``, the
    predicate of ``verify_P1``."""

    @staticmethod
    def _clusters(span, size):
        """Every cluster of at most ``size`` bond pairs within [0, span] that
        share no bond, crossing (unrealizable) member pairs included."""
        pairs = list(itertools.combinations(range(span + 1), 2))
        return [Contour.of(members) for k in range(1, size + 1)
                for members in itertools.combinations(pairs, k)
                if len({b for t in members for b in t}) == 2 * k]

    def test_agrees_with_member_loop_on_all_small_pairs(self):
        clusters = self._clusters(7, 2)
        edges = {"left": 0, "right": 0, "equal": 0, "crossing": 0}
        for a in clusters:
            for b in clusters:
                want = _reference_pair_separated(a, b, 1)
                assert _reference_member_loop(a, b, 1) is want, (a, b)
                assert _separated_by_merge(a, b, 1) is want, (a, b)
                assert _pair_separated(a, _bonds(a), b, _bonds(b), 1) is want, (a, b)
                if b.left <= a.left and a.right <= b.right:
                    thr = a.mass ** 3
                    bonds = {x for t in b.triangles for x in t}
                    edges["left"] += a.left - thr in bonds
                    edges["right"] += a.right + thr in bonds
                    edges["equal"] += (a.left, a.right) == (b.left, b.right)
                    edges["crossing"] += any(l < a.left < r < a.right or a.left < l < a.right < r
                                             for l, r in b.triangles)
        # the set reaches both window ends, equal intervals and crossing members
        assert all(edges.values()), edges

    def test_window_ends_are_closed(self):
        inner = Contour.of([(10, 11)])  # threshold c * 1 = 2 at c = 2
        for outer, separated in [
            ([(7, 14)], True), ([(8, 14)], False), ([(7, 13)], False),  # containing
            ([(0, 7), (14, 20)], True), ([(0, 8), (14, 20)], False),  # avoiding
            ([(0, 7), (13, 20)], False), ([(0, 7), (10, 11), (14, 20)], False),
        ]:
            b = Contour.of(outer)
            assert _reference_member_loop(inner, b, 2) is separated
            assert _separated_by_merge(inner, b, 2) is separated
            assert _separated_by_merge(b, inner, 2) is separated
            assert _pair_separated(inner, _bonds(inner), b, _bonds(b), 2) is separated
            assert _pair_separated(b, _bonds(b), inner, _bonds(inner), 2) is separated

    def test_agrees_with_triangle_distance_rule(self):
        clusters = [Contour.of(g.triangles) for g in self._clusters(6, 2)]
        for a in clusters:
            for b in clusters:
                assert _separated_by_merge(a, b, 1) is _reference_pair_separated(a, b, 1)

    def test_fused_bonds_sorted_once_per_merge(self, monkeypatch):
        calls = []

        def counting(items):
            calls.append(list(items))
            return sorted(items)

        monkeypatch.setitem(_merge.__globals__, "sorted", counting)
        # one-member clusters never sort: (50, 51) sits far inside (0, 100)
        assert len(_merge([(0, 100), (50, 51)], 3)) == 2
        assert calls == []
        fam = spins_to_triangles(*_sampled_configuration(3))
        merged = _merge(fam, 3)
        # each fusion sorts the fused cluster's bonds exactly once, and nothing else sorts
        assert len(calls) == len(fam) - len(merged) > 0
        assert min(map(len, calls)) >= 4
        # from its parents' sorted bonds: two sorted runs, merged in linear time
        for items in calls:
            assert sum(x > y for x, y in zip(items, items[1:])) <= 1, items

    def test_starting_cluster_sorted_once(self, monkeypatch):
        calls = []

        def counting(items):
            calls.append(list(items))
            return sorted(items)

        monkeypatch.setitem(_merge.__globals__, "sorted", counting)
        # a fused starting cluster sorts its bonds when it is built ...
        [outer] = _merge([(40, 60), (0, 10)], 3)
        # ... and carries them: (62, 63) joins it, while (20, 21) and (30, 31)
        # stay nested inside before and after
        got = _merge([(20, 21), (30, 31), (62, 63)], 3, [outer])
        assert _partition(got) == [((0, 10), (40, 60), (62, 63)), ((20, 21),), ((30, 31),)]
        assert calls == [[0, 10, 40, 60], [0, 10, 40, 60, 62, 63]]


def _random_state(n: int, seed: int) -> Tuple[np.ndarray, Volume]:
    """A plus-boundary configuration of n sites with a random fifth of them
    minus, as its spin row and volume."""
    vol = Volume.centered(n)
    return minus_row(vol, random.Random(seed).sample(list(vol.sites()), n // 5)), vol


def _merged(clusters):
    """A merge's output: its clusters in order, each as (left, right, mass)
    and its members (the last field) in bond order."""
    return [(*g[:3], sorted(g[-1])) for g in clusters]


def _collision_order(pairs):
    """Pairs sorted by (gap, left bond): the order in which they collide."""
    return sorted(pairs, key=lambda p: (p[1] - p[0], p[0]))


def _chain_family(seed: int):
    """The family a ``sample-hot`` chain hands to ``contours()``: N=512 at
    beta=0.2, theta=1, j1=1.5, measured after three sweeps of the sampler's
    own random stream."""
    cfg = RunConfig(alpha=0.55, j1=1.5, beta=0.2, theta=1.0, size=512,
                    sweeps=3, burnin=2, realizations=1, seed=seed)
    seen = []

    def recording(fam, c):
        seen.append(fam)
        return contours(fam, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc_module, "contours", recording)
        mc_module.metropolis_run(cfg, DisorderField.generate(cfg.volume(), seed))
    [fam] = seen
    return fam


class TestOnePassEquivalence:
    """The stack pairing and the worklist merge give what the rescanning
    pairing and the restarting merge (``oracles``) gave: the same pairs,
    which sorted by (gap, left bond) fall in the rescan's collision order,
    and the same clusters in the same order."""

    @pytest.fixture(scope="class")
    def states(self):
        return ([_sampled_configuration(seed) for seed in range(20)]
                + [_random_state(n, seed) for n in (2048, 4096) for seed in range(3)])

    @pytest.fixture(scope="class")
    def chain_families(self):
        return [_chain_family(seed) for seed in range(700, 708)]

    def test_pairing_on_all_configurations_of_twelve_sites(self):
        vol = Volume(0, 11)
        for spins in enumerate_spins(12):
            bonds = interfaces(spins, vol)
            pairs = pair_interface_bonds(bonds)
            assert _collision_order(pairs) == rescan_pair_interface_bonds(bonds), bonds

    def test_pairing_on_sampled_and_random_states(self, states):
        for state in states:
            bonds = interfaces(*state)
            pairs = pair_interface_bonds(bonds)
            assert _collision_order(pairs) == rescan_pair_interface_bonds(bonds)

    def test_pop_rule_and_collision_order(self):
        # gaps 1, 1, 2: (0, 1) collides first, then (2, 4) at gap 2
        assert _collision_order(pair_interface_bonds([0, 1, 2, 4])) == [(0, 1), (2, 4)]
        # popped in the order (0, 2), (5, 6); collided by (gap, left bond)
        assert pair_interface_bonds([0, 2, 5, 6]) == [(0, 2), (5, 6)]
        assert _collision_order(pair_interface_bonds([0, 2, 5, 6])) == [(5, 6), (0, 2)]

    def test_merge_on_all_families_of_twelve_sites(self):
        fused = 0
        for fam in families(Volume(0, 11)):
            got = _merge(fam, 3)
            assert _merged(got) == _merged(restart_merge(fam, 3)), fam
            fused += len(got) < len(fam)
        assert fused > 1000

    def test_merge_on_sampled_and_random_states(self, states, chain_families):
        for fam in [spins_to_triangles(*state) for state in states] + chain_families:
            assert len(fam) > 10
            assert _merged(_merge(fam, 3)) == _merged(restart_merge(fam, 3))

    def test_merge_of_starting_clusters(self, states, chain_families):
        # the sampled N=512 states and the sample-hot chains
        for fam in [spins_to_triangles(*state) for state in states[:20]] + chain_families:
            half = len(fam) // 2
            start = _merge(fam[:half], 3) + _merge(fam[half:], 3)
            assert len(start) > len(_merge((), 3, start))  # the halves fuse across the cut
            assert _merged(_merge((), 3, start)) == _merged(
                restart_merge((), 3, [_contour(g) for g in start]))


class TestIndependence:
    def test_union_of_distant_families(self):
        a = ((0, 1), (3, 4))
        b = ((100, 101), (104, 106))
        assert verify_P2([a, b], 3)

    def test_precondition_violation_raises(self):
        a = ((0, 1),)
        b = ((3, 4),)  # too close: would merge
        with pytest.raises(ValueError):
            verify_P2([a, b], 3)
