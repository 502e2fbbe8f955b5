import math

import numpy as np
import pytest

from rfim1d import (CapacityError, ConstrainedEnsemble, Contour, DisorderField,
                    Volume, b_bar, check_antisymmetry, class_support,
                    estimate_Bj_probability, flip_composition, thresholds, zeta)
from rfim1d.disorder import ANTISYMMETRY_TOL
from rfim1d.model import enumerate_spins


@pytest.fixture
def single_class_contour():
    return Contour.of([(3, 5)])


@pytest.fixture
def nested_ensemble(spec, nested_contour, ten_site_volume):
    return ConstrainedEnsemble(spec, nested_contour, ten_site_volume)


class TestFlipComposition:
    def test_level_zero_is_smallest_class_support(self, nested_contour):
        assert flip_composition(nested_contour, 0) == class_support(nested_contour, 0)
        assert flip_composition(nested_contour, 0) == frozenset({4})

    def test_double_cover_drops_out(self, nested_contour):
        # site 4 is flipped by both classes, so it leaves the composition
        d1 = flip_composition(nested_contour, 1)
        assert d1 == frozenset({1, 2, 3, 5, 6, 7, 8})

    def test_contained_in_union_of_supports(self, nested_contour):
        union = class_support(nested_contour, 0) | class_support(nested_contour, 1)
        assert flip_composition(nested_contour, 1) <= union

    def test_level_range(self, nested_contour):
        with pytest.raises(ValueError):
            flip_composition(nested_contour, 2)

    def test_plain_bond_pairs(self, nested_contour):
        plain = Contour.of([(0, 8), (3, 4)])
        for ell in range(nested_contour.n_classes):
            assert class_support(plain, ell) == class_support(nested_contour, ell)
            assert flip_composition(plain, ell) == flip_composition(nested_contour, ell)


class TestThresholds:
    def test_values(self, nested_contour):
        z = zeta(0.55)
        a = thresholds(nested_contour, 0.55)
        assert a[0] == pytest.approx(0.25 * z * 1.0)
        assert a[1] == pytest.approx(0.25 * z * (1.0 + 8.0 ** 0.55))

    def test_strictly_increasing(self, nested_contour):
        a = thresholds(nested_contour, 0.3)
        assert np.all(np.diff(a) > 0)

    def test_matches_prefix_power_mass(self, nested_contour):
        z = zeta(0.55)
        a = thresholds(nested_contour, 0.55)
        assert a[-1] == pytest.approx(0.25 * z * nested_contour.power_mass(
            [d ** 0.55 for d in range(10)]))


class TestBbar:
    def test_reference_point(self):
        assert b_bar(100.0, 0.01, 0.55) == pytest.approx(0.0504, abs=2e-4)

    def test_theta_zero_uses_first_branch(self):
        assert b_bar(8.0, 0.0, 0.55) == pytest.approx(2.0 * zeta(0.55))

    def test_small_beta_limit(self):
        assert b_bar(1e-9, 0.1, 0.55) == pytest.approx(zeta(0.55) * 1e-9 / 4.0)


class TestEnsemble:
    def test_compatible_families_exclude_contour(self, spec, nested_contour,
                                                 ten_site_volume):
        ens = ConstrainedEnsemble(spec, nested_contour, ten_site_volume)
        for fam in ens.families:
            assert not set(fam) & set(nested_contour.triangles)

    def test_capacity_guard(self, spec, nested_contour):
        big = Volume(-10, 10)
        with pytest.raises(CapacityError):
            ConstrainedEnsemble(spec, nested_contour, big)

    def test_contour_must_fit(self, spec):
        contour = Contour.of([(0, 8)])
        with pytest.raises(ValueError):
            ConstrainedEnsemble(spec, contour, Volume(0, 4))


class TestFj:
    def test_theta_zero_vanishes(self, nested_ensemble, ten_site_volume):
        h = DisorderField.generate(ten_site_volume, seed=5)
        assert np.all(nested_ensemble.f_values(h.values, 0.0, 2.0) == 0.0)

    def test_exact_mean_is_zero(self, nested_ensemble):
        fields = enumerate_spins(10).astype(np.float64)
        f = nested_ensemble.f_values(fields, theta=0.3, beta=2.0)
        assert np.abs(f.mean(axis=0)).max() < 1e-9

    @pytest.mark.parametrize("theta, beta", [
        (0.3, 0.0), (0.3, -1.0), (0.3, math.inf), (0.3, math.nan),
        (math.inf, 2.0), (-math.inf, 2.0), (math.nan, 2.0),
    ])
    def test_meaningless_temperature_rejected(self, nested_ensemble, theta, beta):
        # F_j divides by beta: beta = 0 used to give nan and a false antisymmetry failure
        with pytest.raises(ValueError, match="beta must be positive|theta must be finite"):
            nested_ensemble.f_values(enumerate_spins(10), theta, beta)
        with pytest.raises(ValueError, match="beta must be positive|theta must be finite"):
            check_antisymmetry(nested_ensemble, theta, beta)

    def test_level_range(self, nested_ensemble, nested_contour, ten_site_volume):
        # one column per equal-mass class of the contour
        h = DisorderField.generate(ten_site_volume, seed=0)
        f = nested_ensemble.f_values(h.values, 0.1, 2.0)
        assert f.shape == (1, nested_contour.n_classes) == (1, nested_ensemble.n_levels)


class TestAntisymmetry:
    @pytest.mark.parametrize("j", [0, 1])
    def test_nested_two_class(self, nested_ensemble, j):
        assert check_antisymmetry(nested_ensemble, theta=0.3, beta=2.0)[j]

    def test_single_class(self, spec, single_class_contour, ten_site_volume):
        ens = ConstrainedEnsemble(spec, single_class_contour, ten_site_volume)
        assert check_antisymmetry(ens, theta=0.4, beta=1.5) == [True]

    def test_failure_is_reported_per_level(self, nested_ensemble, ten_site_volume,
                                           monkeypatch):
        # a stand-in F whose level 0 is odd under the flip on D_0 = {4} and
        # whose level 1 is even
        site = ten_site_volume.index(4)
        monkeypatch.setattr(nested_ensemble, "f_values", lambda fields, theta, beta:
                            np.column_stack([fields[:, site], np.ones(len(fields))]))
        assert check_antisymmetry(nested_ensemble, theta=0.3, beta=2.0) == [True, False]

    def test_level_flip_is_the_composition_not_the_union(self, nested_ensemble,
                                                         ten_site_volume, monkeypatch):
        # a stand-in F whose level 1, (sum of h over D_1) * (1 + h_4), is odd under
        # the flip on D_1 = {1, 2, 3, 5, 6, 7, 8} but not under the flip on the
        # union D_0 | D_1 = {1, ..., 8}, which also flips h_4
        site = ten_site_volume.index(4)
        d1 = [ten_site_volume.index(i) for i in (1, 2, 3, 5, 6, 7, 8)]
        monkeypatch.setattr(nested_ensemble, "f_values", lambda fields, theta, beta:
                            np.column_stack([fields[:, site],
                                             fields[:, d1].sum(axis=1) * (1.0 + fields[:, site])]))
        assert check_antisymmetry(nested_ensemble, theta=0.3, beta=2.0) == [True, True]

    def test_sampled_gaussian_pairs(self, nested_ensemble, nested_contour, ten_site_volume):
        # continuous fields cannot be enumerated: pair each sampled field with
        # its flip on D_j, and the two values of F_j must cancel
        j, theta, beta = 1, 0.25, 2.0
        fields = np.array([DisorderField.generate(ten_site_volume, seed, "gaussian").values
                           for seed in range(64)])
        flipped = fields.copy()
        for i in flip_composition(nested_contour, j):
            flipped[:, ten_site_volume.index(i)] *= -1.0
        f = nested_ensemble.f_values(fields, theta, beta)[:, j]
        g = nested_ensemble.f_values(flipped, theta, beta)[:, j]
        assert not np.allclose(f, 0.0)
        assert np.all(np.abs(f + g) <= ANTISYMMETRY_TOL)


class TestBjEvents:
    def test_partition_and_bounds(self, nested_ensemble):
        ests = estimate_Bj_probability(nested_ensemble, theta=0.3, beta=2.0)
        assert [e.j for e in ests] == [-1, 0, 1]
        assert sum(e.estimate for e in ests) == pytest.approx(1.0, abs=1e-12)
        assert ests[-1].bound == 1.0  # top level: empty tail sum

    def test_theta_zero_concentrates_on_top_level(self, nested_ensemble):
        ests = estimate_Bj_probability(nested_ensemble, theta=0.0, beta=2.0)
        assert ests[-1].estimate == 1.0
        assert all(e.estimate == 0.0 for e in ests[:-1])
        # an estimate equal to its bound passes
        assert ests[-1].bound == 1.0 and ests[-1].passed
