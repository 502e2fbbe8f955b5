import math

import pytest

from rfim1d import (ALPHA_PEIERLS_MAX, BOUND_CSV_COLUMNS, CouplingSpec,
                    SpinConfiguration, TriangleFamily, Volume,
                    check_contour_bound, check_erase_prefix, energy,
                    exhaustive_reports, family_code, hamiltonian, minimal_j1,
                    telescoping_error, triangles_to_spins, zeta)
from rfim1d.model import enumerate_spins
from rfim1d.triangles import spins_to_triangles


class TestZeta:
    def test_reference_value(self):
        assert zeta(0.55) == pytest.approx(1.0 - 2.0 * (2.0 ** 0.55 - 1.0))
        assert zeta(0.55) == pytest.approx(0.0718286, abs=1e-6)

    def test_zero_alpha(self):
        assert zeta(0.0) == pytest.approx(1.0)

    def test_vanishes_at_domain_edge(self):
        eps = 1e-9
        assert 0.0 < zeta(ALPHA_PEIERLS_MAX - eps) < 1e-8

    def test_strictly_decreasing(self):
        values = [zeta(a) for a in (0.0, 0.2, 0.4, 0.55, 0.58)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            zeta(0.6)


class TestEnergyModel:
    def test_family_image_roundtrip(self, spec):
        vol = Volume(0, 9)
        fam = TriangleFamily.of([(0, 8), (3, 4)])
        image = enumerate_spins(10)[family_code(fam, vol)]
        assert list(image) == [1, -1, -1, -1, 1, -1, -1, -1, -1, 1]

    def test_empty_family_has_zero_energy(self, spec):
        vol = Volume(0, 7)
        table = energy(spec, vol, enumerate_spins(8))
        assert table[family_code(TriangleFamily.empty(), vol)] == pytest.approx(0.0, abs=1e-12)


class TestEraseBounds:
    def test_single_triangle(self, spec):
        vol = Volume(0, 9)
        fam = TriangleFamily.of([(4, 5)])
        report = check_erase_prefix(spec, fam, vol, 1)
        assert report.passed
        assert report.rhs == pytest.approx(zeta(0.55))
        # erasing the only triangle costs its full creation energy
        assert report.lhs == pytest.approx(hamiltonian(spec, triangles_to_spins(fam, vol)),
                                           abs=1e-9)

    def test_two_distant_unit_triangles(self, spec):
        vol = Volume(0, 11)
        fam = TriangleFamily.of([(1, 2), (8, 9)])
        report = check_erase_prefix(spec, fam, vol, 2)
        assert report.passed
        assert report.rhs == pytest.approx(2.0 * zeta(0.55))

    def test_prefix_range_validated(self, spec):
        fam = TriangleFamily.of([(1, 2)])
        with pytest.raises(ValueError):
            check_erase_prefix(spec, fam, Volume(0, 5), 2)

    def test_margin_and_pass_fields(self, spec):
        vol = Volume(0, 7)
        report = check_erase_prefix(spec, TriangleFamily.of([(2, 4)]), vol, 1)
        assert report.margin == pytest.approx(report.lhs - report.rhs)
        assert len(report.csv_row()) == len(BOUND_CSV_COLUMNS)


class TestContourBound:
    def test_single_contour_configuration(self, spec):
        vol = Volume(0, 9)
        fam = TriangleFamily.of([(0, 8), (3, 4)])
        reports = check_contour_bound(spec, fam, vol)
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].rhs == pytest.approx(0.5 * zeta(0.55) * (1.0 + 8.0 ** 0.55))

    def test_two_contours_give_two_reports(self, spec):
        vol = Volume(0, 13)
        fam = TriangleFamily.of([(1, 2), (8, 9)])
        reports = check_contour_bound(spec, fam, vol)
        assert len(reports) == 2
        assert all(r.passed for r in reports)


class TestTelescoping:
    @pytest.mark.parametrize("pairs", [
        [(1, 2)],
        [(1, 2), (5, 7)],
        [(0, 8), (3, 4)],
        [(0, 1), (2, 3), (6, 9)],
    ])
    def test_sequential_erasure_sums_to_total(self, spec, pairs):
        vol = Volume(0, 9)
        fam = TriangleFamily.of(pairs)
        assert telescoping_error(spec, fam, vol) < 1e-9


class TestExhaustive:
    def test_all_pass_at_default_parameters(self, spec):
        reports = list(exhaustive_reports(spec, 8))
        assert reports
        assert all(r.passed for r in reports)

    def test_failures_reported_at_small_j1(self):
        weak = CouplingSpec(alpha=0.55, j1=1.01)
        assert any(not r.passed for r in exhaustive_reports(weak, 6))

    def test_minimal_j1_on_grid(self):
        assert minimal_j1(0.55, n=6, grid=(1.5, 2.0, 10.0)) == 1.5
        assert minimal_j1(0.55, n=6, grid=(1.01,)) is None

    def test_code_lookups_match_per_family_energies(self, spec):
        n = 6
        vol = Volume(0, n - 1)
        reports = {r.instance: r for r in exhaustive_reports(spec, n)}
        for code, row in enumerate(enumerate_spins(n)):
            fam = spins_to_triangles(SpinConfiguration(vol, row))
            for i in range(1, len(fam) + 1):
                direct = check_erase_prefix(spec, fam, vol, i)
                assert reports[f"{code}:prefix{i}"].lhs == pytest.approx(direct.lhs, abs=1e-9)
            for direct in check_contour_bound(spec, fam, vol, instance=str(code)):
                assert reports[direct.instance].lhs == pytest.approx(direct.lhs, abs=1e-9)
