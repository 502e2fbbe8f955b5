import dataclasses
import math

import pytest

from rfim1d import (ALPHA_PEIERLS_MAX, CapacityError, CouplingSpec, Volume, energy,
                    exhaustive_reports, family_code, hamiltonian, minimal_j1,
                    triangles_to_spins, zeta)
from rfim1d import bounds
from rfim1d.contours import contours
from rfim1d.model import enumerate_spins
from rfim1d.triangles import spins_to_triangles


@pytest.fixture(scope="module")
def reports_10():
    """Every bound report on Volume(0, 9) at alpha = 0.55, j1 = 10, by instance id."""
    spec = CouplingSpec(alpha=0.55, j1=10.0)
    return {r.instance: r for r in exhaustive_reports(spec, 10)}


def _code(pairs):
    return family_code(pairs, Volume(0, 9))


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
        with pytest.raises(ValueError, match=r"^alpha=0.6 outside \[0, 0.584963\)"):
            zeta(0.6)


class TestEnergyModel:
    def test_family_image_roundtrip(self, spec):
        vol = Volume(0, 9)
        fam = ((0, 8), (3, 4))
        image = enumerate_spins(10)[family_code(fam, vol)]
        assert list(image) == [1, -1, -1, -1, 1, -1, -1, -1, -1, 1]

    def test_empty_family_has_zero_energy(self, spec):
        vol = Volume(0, 7)
        table = energy(spec, vol, enumerate_spins(8))
        assert table[family_code((), vol)] == pytest.approx(0.0, abs=1e-12)


class TestEraseBounds:
    def test_single_triangle(self, spec, reports_10):
        vol = Volume(0, 9)
        fam = ((4, 5),)
        report = reports_10[f"{_code(fam)}:prefix1"]
        assert report.passed
        assert report.rhs == pytest.approx(zeta(0.55))
        # erasing the only triangle costs its full creation energy
        assert report.lhs == pytest.approx(hamiltonian(spec, vol, triangles_to_spins(fam, vol)),
                                           abs=1e-9)

    def test_two_distant_unit_triangles(self, reports_10):
        report = reports_10[f"{_code([(1, 2), (8, 9)])}:prefix2"]
        assert report.passed
        assert report.rhs == pytest.approx(2.0 * zeta(0.55))

    def test_prefix_range_validated(self, reports_10):
        # one prefix report per triangle of the family, and no more
        code = _code([(1, 2)])
        assert f"{code}:prefix1" in reports_10
        assert f"{code}:prefix2" not in reports_10
        assert not any(k.startswith(f"{_code([])}:") for k in reports_10)

    def test_margin_and_pass_fields(self, reports_10):
        report = reports_10[f"{_code([(2, 4)])}:prefix1"]
        assert report.margin == pytest.approx(report.lhs - report.rhs)
        assert report.passed == (report.margin >= -1e-9)
        # the run's parameters stay with the caller: a report is its comparison
        assert [f.name for f in dataclasses.fields(report)] == ["instance", "lhs", "rhs"]


class TestContourBound:
    def test_one_contour_configuration(self, reports_10):
        code = _code([(0, 8), (3, 4)])
        report = reports_10[f"{code}:0"]
        assert f"{code}:1" not in reports_10
        assert report.passed
        assert report.rhs == pytest.approx(0.5 * zeta(0.55) * (1.0 + 8.0 ** 0.55))

    def test_two_contours_give_two_reports(self, reports_10):
        code = _code([(1, 2), (8, 9)])
        reports = [reports_10[f"{code}:{k}"] for k in (0, 1)]
        assert f"{code}:2" not in reports_10
        assert all(r.passed for r in reports)
        assert all(r.rhs == pytest.approx(0.5 * zeta(0.55)) for r in reports)


class TestTelescoping:
    @pytest.mark.parametrize("pairs", [
        [(1, 2)],
        [(1, 2), (5, 7)],
        [(0, 8), (3, 4)],
        [(0, 1), (2, 3), (6, 9)],
    ])
    def test_sequential_erasure_sums_to_total(self, spec, reports_10, energy_oracle, pairs):
        # erasing every triangle, smallest first, costs H_0 of the configuration
        vol = Volume(0, 9)
        report = reports_10[f"{_code(pairs)}:prefix{len(pairs)}"]
        image = triangles_to_spins(pairs, vol)
        assert report.lhs == pytest.approx(energy_oracle(spec, vol, image), rel=1e-9)


class TestExhaustive:
    def test_all_pass_at_default_parameters(self, spec):
        reports = list(exhaustive_reports(spec, 8))
        assert reports
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("c", [0, -2])
    def test_separation_constant_below_one(self, spec, monkeypatch, c):
        def no_work(*args, **kwargs):
            raise AssertionError(f"exhaustive_reports started work at c = {c}")

        for name in ("energy", "families", "contours"):
            monkeypatch.setattr(bounds, name, no_work)
        with pytest.raises(ValueError, match=f"c must be >= 1, got {c}"):
            next(exhaustive_reports(spec, 4, c))

    @pytest.mark.parametrize("n, error", [(0, ValueError), (1, ValueError),
                                          (15, CapacityError), (30, CapacityError)])
    def test_volume_checked_before_work(self, spec, monkeypatch, n, error):
        # n = 30 would be a 2**30-row spin table
        def no_work(*args, **kwargs):
            raise AssertionError(f"exhaustive_reports started work at n = {n}")

        for name in ("enumerate_spins", "energy", "families"):
            monkeypatch.setattr(bounds, name, no_work)
        with pytest.raises(error, match=f"^n must lie in 2..14 for exhaustive energy checks, "
                                        f"got {n}$"):
            next(exhaustive_reports(spec, n))

    def test_smallest_volume_runs(self, spec):
        assert bounds.MAX_SITES == 14
        reports = list(exhaustive_reports(spec, 2))
        assert reports and all(r.passed for r in reports)

    def test_failures_reported_at_small_j1(self):
        weak = CouplingSpec(alpha=0.55, j1=1.01)
        assert any(not r.passed for r in exhaustive_reports(weak, 6))

    def test_minimal_j1_on_grid(self):
        assert minimal_j1(0.55, n=6, grid=(1.5, 2.0, 10.0)) == 1.5
        assert minimal_j1(0.55, n=6, grid=(1.01,)) is None

    @pytest.mark.parametrize("grid", [(), []])
    def test_minimal_j1_empty_grid_rejected_before_work(self, monkeypatch, grid):
        # None would read as "no j1 on the grid keeps every bound"
        def no_work(*args, **kwargs):
            raise AssertionError("minimal_j1 checked a bound on an empty grid")

        monkeypatch.setattr(bounds, "exhaustive_reports", no_work)
        with pytest.raises(ValueError, match="grid is empty"):
            minimal_j1(0.55, n=6, grid=grid)

    def test_code_lookups_match_per_family_energies(self, spec):
        n = 6
        vol = Volume(0, n - 1)
        reports = {r.instance: r for r in exhaustive_reports(spec, n)}

        def h0(tris):
            return hamiltonian(spec, vol, triangles_to_spins(tris, vol))

        for code, row in enumerate(enumerate_spins(n)):
            fam = spins_to_triangles(row, vol)
            tris = sorted(fam, key=lambda t: (t[1] - t[0], t))
            for i in range(1, len(tris) + 1):
                direct = h0(tris) - h0(tris[i:])
                assert reports[f"{code}:prefix{i}"].lhs == pytest.approx(direct, abs=1e-9)
            for k, gamma in enumerate(contours(fam, 3)):
                direct = h0(tris) - h0(set(fam) - set(gamma.triangles))
                assert reports[f"{code}:{k}"].lhs == pytest.approx(direct, abs=1e-9)
            assert f"{code}:{len(contours(fam, 3))}" not in reports
