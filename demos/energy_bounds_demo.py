"""Exhaustive check of the Peierls energy bounds on a small volume.

For a grid of decay exponents alpha the script verifies, over every spin
configuration of an 8-site volume, that erasing triangles costs at least
zeta(alpha) per unit of |T|^alpha and that whole contours cost at least
half of that per contour.  It also locates the smallest nearest-neighbour
coupling j1 on a grid for which the bounds still hold, and certifies the
entropy-side constant for the contour weights.
"""

import numpy as np

from rfim1d import (CouplingSpec, certify_C0, choose_C, exhaustive_reports,
                    minimal_j1, separation_series, zeta)


def main():
    c = choose_C()
    p2, t2 = separation_series(2)
    p3, t3 = separation_series(3)
    print(f"separation constant C = {c}")
    print(f"  series value at C=2: {p2:.6f} (+tail {t2:.1e})  > 1/2")
    print(f"  series value at C=3: {p3:.6f} (+tail {t3:.1e})  <= 1/2")

    print("\nbound margins over all configurations of an 8-site volume, j1 = 10:")
    print(f"{'alpha':>6} {'zeta':>8} {'checks':>7} {'fails':>6} {'min margin':>11}")
    for alpha in (0.1, 0.3, 0.5, 0.55):
        spec = CouplingSpec(alpha=alpha, j1=10.0)
        reports = list(exhaustive_reports(spec, 8, c))
        margin = min(r.margin for r in reports)
        fails = sum(not r.passed for r in reports)
        print(f"{alpha:6.2f} {zeta(alpha):8.4f} {len(reports):7d} {fails:6d} {margin:11.4f}")

    print("\nsmallest grid j1 keeping every bound (6-site exhaustive):")
    for alpha in (0.1, 0.3, 0.55):
        j1 = minimal_j1(alpha, n=6)
        print(f"  alpha = {alpha}: j1 >= {j1}")

    print("\nentropy certificate for contour weights, gamma = 0.1:")
    m_max = 4
    result = certify_C0(0.1, m_max=m_max)
    print(f"  masses up to {m_max}: bound holds for every grid b >= {result.b_star}")


if __name__ == "__main__":
    main()
