import numpy as np
import pytest

from rfim1d import (CapacityError, ConstrainedEnsemble, Contour, DisorderField,
                    F_j, Triangle, Volume, b_bar, check_antisymmetry,
                    check_antisymmetry_sampled, class_support,
                    estimate_Bj_probability, flip_composition, flip_field,
                    thresholds, zeta)
from rfim1d.disorder import BJ_CSV_COLUMNS, _sampled_fields
from rfim1d.model import enumerate_spins


@pytest.fixture
def single_class_contour():
    return Contour.of([Triangle(3, 5)])


class TestFlipField:
    def test_empty_set_is_identity(self):
        h = DisorderField.generate(Volume(0, 5), 0.2, seed=1)
        assert np.array_equal(flip_field(h, []).values, h.values)

    def test_involution(self):
        h = DisorderField.generate(Volume(0, 5), 0.2, seed=1, distribution="gaussian")
        twice = flip_field(flip_field(h, [1, 3]), [1, 3])
        assert np.array_equal(twice.values, h.values)

    def test_flips_only_listed_sites(self):
        h = DisorderField.generate(Volume(0, 5), 0.2, seed=1)
        flipped = flip_field(h, [2])
        assert flipped.value(2) == -h.value(2)
        for i in (0, 1, 3, 4, 5):
            assert flipped.value(i) == h.value(i)

    def test_disjoint_flips_commute(self):
        h = DisorderField.generate(Volume(0, 5), 0.2, seed=1)
        a = flip_field(flip_field(h, [0, 1]), [4])
        b = flip_field(flip_field(h, [4]), [0, 1])
        assert np.array_equal(a.values, b.values)

    def test_site_outside_volume(self):
        h = DisorderField.generate(Volume(0, 5), 0.2, seed=1)
        with pytest.raises(ValueError):
            flip_field(h, [9])


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
        assert a[-1] == pytest.approx(0.25 * z * nested_contour.power_mass(0.55))


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
        gamma_pairs = nested_contour.family().triangles
        for fam in ens.families:
            assert not (fam.triangles & gamma_pairs)

    def test_capacity_guard(self, spec, nested_contour):
        big = Volume(-10, 10)
        with pytest.raises(CapacityError):
            ConstrainedEnsemble(spec, nested_contour, big)

    def test_contour_must_fit(self, spec):
        contour = Contour.of([Triangle(0, 8)])
        with pytest.raises(ValueError):
            ConstrainedEnsemble(spec, contour, Volume(0, 4))


class TestFj:
    def test_theta_zero_vanishes(self, spec, nested_contour, ten_site_volume):
        h = DisorderField.generate(ten_site_volume, 0.0, seed=5)
        for j in range(nested_contour.n_classes):
            assert F_j(spec, nested_contour, j, ten_site_volume, h, 0.0, 2.0) == 0.0

    def test_exact_mean_is_zero(self, spec, nested_contour, ten_site_volume):
        ens = ConstrainedEnsemble(spec, nested_contour, ten_site_volume)
        fields = enumerate_spins(10).astype(np.float64)
        f = ens.f_values(fields, theta=0.3, beta=2.0)
        assert np.abs(f.mean(axis=0)).max() < 1e-9

    def test_level_range(self, spec, nested_contour, ten_site_volume):
        h = DisorderField.generate(ten_site_volume, 0.1, seed=0)
        with pytest.raises(ValueError):
            F_j(spec, nested_contour, 5, ten_site_volume, h, 0.1, 2.0)


class TestAntisymmetry:
    @pytest.mark.parametrize("j", [0, 1])
    def test_nested_two_class(self, spec, nested_contour, ten_site_volume, j):
        assert check_antisymmetry(spec, nested_contour, j, ten_site_volume,
                                  theta=0.3, beta=2.0)

    def test_single_class(self, spec, single_class_contour, ten_site_volume):
        assert check_antisymmetry(spec, single_class_contour, 0, ten_site_volume,
                                  theta=0.4, beta=1.5)

    def test_sampled_gaussian_pairs(self, spec, nested_contour, ten_site_volume):
        assert check_antisymmetry_sampled(spec, nested_contour, 1, ten_site_volume,
                                          theta=0.25, beta=2.0, n_samples=64)


class TestSampledFields:
    @pytest.mark.parametrize("distribution", ["bernoulli", "gaussian"])
    def test_equal_to_per_sample_draws(self, ten_site_volume, distribution):
        fields = _sampled_fields(ten_site_volume, 64, 9, distribution)
        stacked = np.stack([
            DisorderField.generate(ten_site_volume, 0.3, seed=9 + r,
                                   distribution=distribution).values
            for r in range(64)
        ])
        assert np.array_equal(fields, stacked)


class TestBjEvents:
    def test_partition_and_bounds(self, spec, nested_contour, ten_site_volume):
        ests = estimate_Bj_probability(spec, nested_contour, ten_site_volume,
                                       theta=0.3, beta=2.0)
        assert [e.j for e in ests] == [-1, 0, 1]
        assert sum(e.estimate for e in ests) == pytest.approx(1.0, abs=1e-12)
        assert ests[-1].bound == 1.0  # top level: empty tail sum

    def test_theta_zero_concentrates_on_top_level(self, spec, nested_contour,
                                                  ten_site_volume):
        ests = estimate_Bj_probability(spec, nested_contour, ten_site_volume,
                                       theta=0.0, beta=2.0)
        assert ests[-1].estimate == 1.0
        assert all(e.estimate == 0.0 for e in ests[:-1])

    def test_monte_carlo_close_to_exact(self, spec, nested_contour, ten_site_volume):
        exact = estimate_Bj_probability(spec, nested_contour, ten_site_volume,
                                        theta=0.3, beta=2.0, exhaustive=True)
        mc = estimate_Bj_probability(spec, nested_contour, ten_site_volume,
                                     theta=0.3, beta=2.0, exhaustive=False,
                                     n_samples=2000, seed=9,
                                     distribution="bernoulli")
        for e_exact, e_mc in zip(exact, mc):
            assert e_mc.stderr >= 0.0
            assert abs(e_mc.estimate - e_exact.estimate) <= 4.0 * max(e_mc.stderr, 1e-3)

    def test_csv_rows(self, spec, nested_contour, ten_site_volume):
        ests = estimate_Bj_probability(spec, nested_contour, ten_site_volume,
                                       theta=0.3, beta=2.0)
        for e in ests:
            assert len(e.csv_row("x")) == len(BJ_CSV_COLUMNS)
