"""Exact statistics of the random erasure functionals on a tiny instance.

Builds a nested two-class contour on a 10-site volume, enumerates all
2^10 Bernoulli field realizations, and reports the distribution of the
log-ratio functionals F_j, their antisymmetry under the composed sign
flip, and the exact probabilities of the threshold-crossing events
against their exponential bounds.
"""

import numpy as np

from rfim1d import (ConstrainedEnsemble, Contour, CouplingSpec, Volume, b_bar,
                    check_antisymmetry, estimate_Bj_probability, flip_composition,
                    thresholds)
from rfim1d.model import enumerate_spins


def main():
    spec = CouplingSpec(alpha=0.55, j1=10.0)
    vol = Volume(0, 9)
    contour = Contour.of([(0, 8), (3, 4)])
    theta, beta = 0.3, 2.0

    print("contour triangles:", list(contour.triangles))
    print("mass classes:     ", [(d, len(ts)) for d, ts in contour.classes()])
    for j in range(contour.n_classes):
        print(f"composed flip set D_{j}:", sorted(flip_composition(contour, j)))
    print("thresholds A_i:   ", np.round(thresholds(contour, spec.alpha), 6))

    ens = ConstrainedEnsemble(spec, contour, vol)
    print("\ncompatible exterior families:", len(ens.families))

    fields = enumerate_spins(vol.n_sites).astype(np.float64)
    f = ens.f_values(fields, theta, beta)
    print(f"\nF_j over all {fields.shape[0]} Bernoulli fields "
          f"(theta = {theta}, beta = {beta}):")
    for j, anti in enumerate(check_antisymmetry(ens, theta, beta)):
        print(f"  j = {j}: mean {f[:, j].mean():+.2e}  std {f[:, j].std():.4f}  "
              f"range [{f[:, j].min():+.4f}, {f[:, j].max():+.4f}]  "
              f"antisymmetric: {anti}")

    print("\nthreshold-crossing event probabilities (exact):")
    for e in estimate_Bj_probability(ens, theta, beta):
        print(f"  level {e.j:+d}: P = {e.estimate:.4f}  bound {e.bound:.6f}  "
              f"within bound: {e.passed}")

    print(f"\nPeierls exponent b_bar(beta={beta}, theta={theta}) = "
          f"{b_bar(beta, theta, spec.alpha):.6f}")


if __name__ == "__main__":
    main()
