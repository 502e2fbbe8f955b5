from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import is_compatible, minus_row
from rfim1d import (CapacityError, Volume, energy, families, family_code, hamiltonian,
                    interfaces, pair_interface_bonds, satisfies_ma1, spins_to_triangles,
                    triangle_distance, triangles_to_spins)
from rfim1d import triangles
from rfim1d.model import enumerate_spins


def collision_key(pair):
    """(gap, left bond): the order in which the pairs of a family collide."""
    return pair[1] - pair[0], pair[0]


def _reference_pairing(bonds, vol):
    """Collision pairing by the exact event order of the offset construction.

    The interface on bond b sits at b + 1/2 + 2**-(rank+1) / 100, with rank
    the position of b among the volume's bonds; the adjacent unpaired pair
    at the smallest exact distance collides first.
    """
    rank = {b: k for k, b in enumerate(range(vol.lo - 1, vol.hi + 1))}
    position = {b: Fraction(2 * b + 1, 2) + Fraction(1, 100 * 2 ** (rank[b] + 1))
                for b in bonds}
    dists = [position[b] - position[a] for a, b in combinations(sorted(bonds), 2)]
    assert len(set(dists)) == len(dists)
    active = sorted(bonds)
    pairs = []
    while active:
        k = min(range(len(active) - 1),
                key=lambda k: position[active[k + 1]] - position[active[k]])
        pairs.append((active[k], active[k + 1]))
        del active[k:k + 2]
    return pairs


class TestTriangle:
    def test_orientation_required(self):
        # a reversed or empty bond pair flips no site; it must not pass as all-plus
        with pytest.raises(ValueError):
            triangles_to_spins([(3, 3)], Volume(0, 9))
        with pytest.raises(ValueError):
            triangles_to_spins([(5, 2)], Volume(0, 9))

    def test_distance_disjoint(self):
        assert triangle_distance((0, 2), (5, 6)) == 3

    def test_distance_nested(self):
        outer, inner = (0, 8), (3, 4)
        assert triangle_distance(outer, inner) == 3
        assert triangle_distance(inner, outer) == 3

    def test_distance_shared_endpoint(self):
        assert triangle_distance((0, 2), (2, 4)) == 0

    def test_ma1_rejects_close_pair(self):
        # distance 1 is below the smaller mass 2
        assert triangle_distance((0, 3), (4, 6)) == 1
        assert not satisfies_ma1(((0, 3), (4, 6)))
        assert satisfies_ma1(((0, 3), (5, 7)))


class TestPairing:
    def test_two_interfaces(self):
        assert pair_interface_bonds([3, 7]) == [(3, 7)]

    def test_closest_pair_first(self):
        # gaps 3, 1, 4: the middle pair collides first, the rest nest around it
        assert set(pair_interface_bonds([0, 3, 4, 8])) == {(3, 4), (0, 8)}

    def test_leftmost_tie_break(self):
        # equal gaps: pair from the left
        assert set(pair_interface_bonds([0, 1, 2, 3])) == {(0, 1), (2, 3)}

    def test_translation_covariance(self):
        bonds = [0, 3, 4, 8, 20, 21]
        base = pair_interface_bonds(bonds)
        for k in (-7, 1, 13):
            shifted = pair_interface_bonds([b + k for b in bonds])
            assert shifted == [(l + k, r + k) for l, r in base]

    def test_matches_exact_offset_collision_order(self):
        vol = Volume.centered(12)
        for spins in enumerate_spins(12):
            bonds = interfaces(spins, vol)
            pairs = pair_interface_bonds(bonds)
            assert pairs == sorted(pairs)
            # sorted by (gap, left bond), the pairs fall in collision order
            assert sorted(pairs, key=collision_key) == _reference_pairing(bonds, vol)

    def test_odd_count_rejected(self):
        with pytest.raises(RuntimeError):
            pair_interface_bonds([0, 1, 2])


class TestSpinTriangleBijection:
    def test_all_plus_maps_to_empty_family(self):
        vol = Volume(0, 5)
        assert len(spins_to_triangles(minus_row(vol), vol)) == 0

    def test_single_minus_site(self):
        vol = Volume(0, 5)
        sigma = minus_row(vol, [2])
        assert interfaces(sigma, vol) == [1, 2]
        fam = spins_to_triangles(sigma, vol)
        assert fam == ((1, 2),)
        assert all(type(t) is tuple and all(type(b) is int for b in t) for t in fam)

    def test_nested_block(self):
        # minus sites 1,2,3,5,6,7,8 with site 4 plus: one big triangle, one island
        vol = Volume(0, 9)
        fam = spins_to_triangles(minus_row(vol, [1, 2, 3, 5, 6, 7, 8]), vol)
        assert fam == ((0, 8), (3, 4))

    @pytest.mark.parametrize("row", [
        [1, 1, 0, 1, 1, 1],  # not +-1
        [1, -1, 2, 1, 1, 1],
        [1.0, -1.0, 1.0, float("nan"), 1.0, 1.0],
        [1, -1, 1, 1, 1],  # wrong length
        [1, -1, 1, 1, 1, 1, 1],
        [[1, -1, 1, 1, 1, 1]],
    ])
    def test_bad_row_rejected(self, row):
        vol = Volume(0, 5)
        with pytest.raises(ValueError):
            interfaces(np.array(row), vol)
        with pytest.raises(ValueError):
            spins_to_triangles(np.array(row), vol)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_roundtrip_exhaustive(self, n):
        vol = Volume.centered(n)
        spins = enumerate_spins(n)
        for code in range(2 ** n):
            fam = spins_to_triangles(spins[code], vol)
            back = triangles_to_spins(fam, vol)
            assert back.dtype == np.int8 and np.array_equal(back, spins[code])
            # a chain's float64 row gives the family of its int8 form
            assert spins_to_triangles(spins[code].astype(np.float64), vol) == fam

    @pytest.mark.parametrize("n", range(1, 13))
    def test_family_code_inverts_enumeration(self, n):
        # the bit code of a configuration's family is its enumerate_spins index
        vol = Volume.centered(n)
        spins = enumerate_spins(n)
        for code in range(2 ** n):
            fam = spins_to_triangles(spins[code], vol)
            assert family_code(fam, vol) == code
            assert np.array_equal(spins[family_code(fam, vol)], triangles_to_spins(fam, vol))

    def test_decomposition_translation_covariant(self):
        vol = Volume(0, 9)
        fam = spins_to_triangles(minus_row(vol, [1, 3, 4, 5]), vol)
        shifted_vol = Volume(5, 14)
        shifted = minus_row(shifted_vol, [6, 8, 9, 10])
        assert spins_to_triangles(shifted, shifted_vol) == tuple((l + 5, r + 5) for l, r in fam)

    def test_roundtrip_failures_range_checked_before_work(self, monkeypatch):
        monkeypatch.setattr(triangles, "families", None)
        with pytest.raises(ValueError, match="got 0$"):
            triangles.roundtrip_failures(0)
        with pytest.raises(CapacityError, match="got 17$"):
            triangles.roundtrip_failures(17)

    def test_pairwise_distance_compatibility_exhaustive(self):
        # every produced family keeps pair distances >= the smaller mass
        vol = Volume.centered(10)
        spins = enumerate_spins(10)
        for code in range(2 ** 10):
            assert satisfies_ma1(spins_to_triangles(spins[code], vol))


class TestFamilies:
    def test_coverage_parity(self):
        # a site's spin is -1 to the number of triangles covering it
        fam = ((0, 8), (3, 4))
        sigma = triangles_to_spins(fam, Volume(0, 9))
        assert sigma[4] == 1
        assert sigma[3] == -1
        assert sigma[9] == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_families_match_per_configuration_map(self, n):
        for vol in (Volume(0, n - 1), Volume.centered(n), Volume(-20, -20 + n - 1)):
            expected = [spins_to_triangles(row, vol) for row in enumerate_spins(n)]
            assert list(families(vol)) == expected

    def test_families_is_lazy(self, monkeypatch):
        paired = []
        real = triangles.pair_interface_bonds
        monkeypatch.setattr(triangles, "pair_interface_bonds",
                            lambda bonds: paired.append(bonds) or real(bonds))
        fams = families(Volume.centered(16))
        assert iter(fams) is fams
        assert next(fams) == ((-9, 7),)  # code 0: all 16 spins minus
        assert len(paired) == 1

    def test_families_memory_does_not_grow_with_the_code_table(self):
        import tracemalloc

        tracemalloc.start()
        count = sum(1 for _ in families(Volume.centered(16)))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert count == 2**16
        # the interface bonds of all 65,536 rows at once took 15.7 MB
        assert peak < 2**20


class TestCompatibility:
    def test_disjoint_families_compatible(self):
        a = ((0, 1),)
        b = ((10, 12),)
        assert is_compatible(a, b)

    def test_repairing_union_incompatible(self):
        # interfaces 2,3,4,5 would re-pair as (2,3),(4,5)
        a = ((2, 5),)
        b = ((3, 4),)
        assert not is_compatible(a, b)

    def test_shared_bond_incompatible(self):
        a = ((0, 2),)
        b = ((2, 4),)
        assert not is_compatible(a, b)

    def test_energy_difference_matches_direct(self, spec):
        # H(s | rest) read from the energy table by bit code, as the bound checks do
        vol = Volume(0, 9)
        s = ((1, 2),)
        rest = ((6, 8),)
        assert is_compatible(s, rest)
        expected = (hamiltonian(spec, vol, triangles_to_spins(s + rest, vol))
                    - hamiltonian(spec, vol, triangles_to_spins(rest, vol)))
        table = energy(spec, vol, enumerate_spins(10))
        looked_up = table[family_code(s + rest, vol)] - table[family_code(rest, vol)]
        assert looked_up == pytest.approx(expected, abs=1e-12)
