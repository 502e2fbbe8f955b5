"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import spin_scan_origin_contours
from rfim1d import (Contour, CouplingSpec, DisorderField, RunConfig, Volume,
                    certify_C0, choose_C,
                    disorder_sweep, enumerate_origin_contours,
                    exact_gibbs_marginal, exhaustive_reports, metropolis_run,
                    satisfies_ma1, separation_series, spins_to_triangles,
                    triangles_to_spins)
from rfim1d.cli import main
from rfim1d.disorder import (ConstrainedEnsemble, check_antisymmetry,
                             estimate_Bj_probability, thresholds)
from rfim1d.model import enumerate_spins

ALPHA_GRID = (0.1, 0.3, 0.5, 0.55)


def report(num, description, ok):
    print(f"\n{'PASS' if ok else 'FAIL'}: criterion {num:2d} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def nested_instance():
    spec = CouplingSpec(alpha=0.55, j1=10.0)
    vol = Volume(0, 9)
    contour = Contour.of([(0, 8), (3, 4)])
    return spec, vol, contour, ConstrainedEnsemble(spec, contour, vol)


@pytest.fixture(scope="module")
def exhaustive_14():
    vol = Volume.centered(14)
    spins = enumerate_spins(14)
    start = time.time()
    families = []
    roundtrip_ok = True
    for code in range(2 ** 14):
        fam = spins_to_triangles(spins[code], vol)
        families.append(fam)
        if not np.array_equal(triangles_to_spins(fam, vol), spins[code]):
            roundtrip_ok = False
    return families, roundtrip_ok, time.time() - start


def test_criterion_01_bijection_roundtrip(exhaustive_14):
    families, roundtrip_ok, elapsed = exhaustive_14
    ok = roundtrip_ok and len(families) == 2 ** 14 and elapsed < 60.0
    report(1, f"exhaustive 14-site bijection roundtrip ({elapsed:.1f}s)", ok)


def test_criterion_02_family_compatibility(exhaustive_14):
    families, _, _ = exhaustive_14
    ok = all(satisfies_ma1(fam) for fam in families)
    report(2, "pair distances >= smaller mass in all 2^14 families", ok)


def test_criterion_03_erasure_bounds_and_telescoping(energy_oracle):
    n = 12
    vol = Volume(0, n - 1)
    spins = enumerate_spins(n)
    ok = True
    for alpha in ALPHA_GRID:
        spec = CouplingSpec(alpha=alpha, j1=10.0)
        erase_all = {}
        for rep in exhaustive_reports(spec, n):
            code, check = rep.instance.split(":")
            if not check.startswith("prefix"):
                continue
            if not rep.passed:
                ok = False
            erase_all[int(code)] = rep  # prefixes come in increasing length
        # erasing every triangle leaves all plus, so the cost telescopes to H_0
        if sorted(erase_all) != list(range(2 ** n - 1)):
            ok = False
        for code, rep in erase_all.items():
            ref = energy_oracle(spec, vol, spins[code])
            if abs(rep.lhs - ref) > 1e-9 * abs(ref):
                ok = False
    report(3, "erasure lower bounds; full erasure telescopes to H_0, N=12, 4 alphas", ok)


def test_criterion_04_contour_bounds():
    c = choose_C()
    ok = c == 3
    for alpha in ALPHA_GRID:
        spec = CouplingSpec(alpha=alpha, j1=10.0)
        for rep in exhaustive_reports(spec, 12, c):
            # the contour reports, "<code>:<k>"
            if not rep.instance.split(":")[1].startswith("prefix") and not rep.passed:
                ok = False
    report(4, "per-contour bounds (zeta/2 power mass), N=12, 4 alphas, C=3", ok)


def test_criterion_05_separation_constant_certificate():
    p2, t2 = separation_series(2)
    p3, t3 = separation_series(3)
    ok = (choose_C() == 3
          and t2 < 1e-6 and t3 < 1e-6
          and p2 - t2 > 0.5 and p3 + t3 <= 0.5)
    report(5, f"series certificate: C=2 gives {p2:.3f} > 1/2, C=3 gives {p3:.3f} <= 1/2", ok)


def test_criterion_06_enumeration_oracle():
    ok = True
    for m in (1, 2, 3):
        fast = sorted(g.triangles for g in enumerate_origin_contours(m))
        scan = sorted(g.triangles for g in spin_scan_origin_contours(m))
        if fast != scan:
            ok = False
    report(6, "origin-contour enumeration matches spin-window scan, m <= 3", ok)


def test_criterion_07_entropy_certificate():
    result = certify_C0(0.1, m_max=6)
    ok = result.b_star is not None and result.b_star <= 50
    for m, b, s, bd, row_ok in result.rows:
        if result.b_star is not None and b >= result.b_star and not row_ok:
            ok = False
    report(7, f"entropy bound certificate, gamma=0.1, m <= 6: b* = {result.b_star}", ok)


def test_criterion_08_antisymmetry(nested_instance):
    spec, vol, contour, ens = nested_instance
    theta, beta = 0.3, 2.0
    ok = all(check_antisymmetry(ens, theta, beta))
    fields = enumerate_spins(10).astype(np.float64)
    means = ens.f_values(fields, theta, beta).mean(axis=0)
    ok = ok and float(np.abs(means).max()) < 1e-9
    report(8, "F_j odd under the composed flip; exact mean zero (2^10 fields)", ok)


def test_criterion_09_theta_zero_degeneracy(nested_instance):
    spec, vol, contour, ens = nested_instance
    fields = enumerate_spins(10).astype(np.float64)
    f = ens.f_values(fields, theta=0.0, beta=2.0)
    ok = bool(np.all(f == 0.0))
    report(9, "F_j identically zero at theta = 0", ok)


def test_criterion_10_event_partition(nested_instance):
    spec, vol, contour, ens = nested_instance
    ests = estimate_Bj_probability(ens, theta=0.3, beta=2.0)
    total = sum(e.estimate for e in ests)
    a = thresholds(contour, spec.alpha)
    ok = abs(total - 1.0) < 1e-12 and bool(np.all(np.diff(a) > 0))
    report(10, "threshold events partition field space (exhaustive, exact)", ok)


def test_criterion_11_sampler_vs_oracle():
    start = time.time()
    ok = True
    for beta, theta in [(0.0, 0.0), (0.05, 0.2), (0.1, 0.4)]:
        cfg = RunConfig(alpha=0.55, beta=beta, theta=theta, size=10,
                        sweeps=6000, burnin=1000, seed=21, realizations=1)
        vol = cfg.volume()
        h = DisorderField.generate(vol, seed=22)
        res = metropolis_run(cfg, h, chain_seed=23)
        exact = exact_gibbs_marginal(cfg.coupling_spec(), vol, h, theta, beta, 0, +1)
        tol = 3.0 * max(res.stderr, 0.01)
        if abs(res.estimate - exact) > tol:
            ok = False
        if beta == 0.0 and abs(res.estimate - 0.5) > tol:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report(11, f"Metropolis within 3 SE of exact marginal, N=10 ({elapsed:.1f}s)", ok)


def test_criterion_12_per_sample_decomposition():
    cfg = RunConfig(alpha=0.55, beta=0.1, theta=0.3, size=10,
                    sweeps=10_000, burnin=0, seed=31, realizations=1)
    h = DisorderField.generate(cfg.volume(), seed=32)
    res = metropolis_run(cfg, h, chain_seed=33)
    ok = res.violations == 0 and res.n_measured == 10_000
    report(12, "no sample with a minus origin spin outside every contour (10^4 sweeps)", ok)


def test_criterion_13_physics_trends():
    def run(beta, theta):
        cfg = RunConfig(alpha=0.55, beta=beta, theta=theta, size=512,
                        sweeps=800, burnin=200, seed=41, realizations=4)
        return disorder_sweep(cfg)

    beta_reports = [run(b, 0.05) for b in (0.5, 2.0, 8.0)]
    theta_reports = [run(4.0, t) for t in (0.02, 0.1, 0.5)]
    ok = True
    for lo, hi in zip(beta_reports[1:], beta_reports[:-1]):
        slack = 2.0 * math.hypot(lo.stderr, hi.stderr)
        if lo.estimate > hi.estimate + slack:
            ok = False
    for lo, hi in zip(theta_reports[:-1], theta_reports[1:]):
        slack = 2.0 * math.hypot(lo.stderr, hi.stderr)
        if hi.estimate < lo.estimate - slack:
            ok = False
    r = beta_reports[1]
    report(13, "monotone trends in beta and theta at N=512 "
               f"(b_bar={r.b_bar:.4g}, exp(-b_bar/100)={r.reference_100:.6f})", ok)


def test_criterion_14_reproducibility(tmp_path, capsys):
    ok = True
    cases = [
        ["simulate", "--beta", "0.1", "--theta", "0.1", "--size", "8",
         "--sweeps", "200", "--burnin", "50", "--seed", "7",
         "--realizations", "2", "--format", "json", "--deterministic"],
        ["verify-energy", "--alpha", "0.55", "--j1", "10", "--n", "5",
         "--deterministic"],
        ["certify-c0", "--gamma", "0.1", "--mmax", "2", "--deterministic"],
    ]
    for k, argv in enumerate(cases):
        outputs = []
        for run_idx in range(2):
            out_file = tmp_path / f"case{k}_{run_idx}"
            code = main(argv + ["--out", str(out_file)])
            if code != 0:
                ok = False
            outputs.append(out_file.read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
    capsys.readouterr()
    report(14, "deterministic runs produce byte-identical outputs", ok)
