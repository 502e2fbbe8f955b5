"""Walk through the triangle encoding of a spin configuration.

Takes a hand-picked configuration on a small volume, lists its
interfaces, shows how they pair into triangles, groups the triangles
into contours, and confirms the encoding inverts exactly.
"""

import numpy as np

from rfim1d import (Volume, interfaces, satisfies_ma1, spins_to_triangles,
                    triangles_to_spins)
from rfim1d.contours import contours


def render(sigma):
    return "".join("+" if s > 0 else "-" for s in sigma)


def main():
    vol = Volume(0, 19)
    minus_sites = [1, 2, 3, 5, 6, 7, 8, 14, 17]
    sigma = np.where(np.isin(vol.sites(), minus_sites), -1, 1)

    print("volume:        ", f"[{vol.lo}, {vol.hi}]  (plus boundary outside)")
    print("configuration: ", render(sigma))

    print("\ninterfaces sit on the sign-change bonds:")
    for b in interfaces(sigma, vol):
        print(f"  bond ({b}, {b + 1})")

    family = spins_to_triangles(sigma, vol)
    print("\ntriangles (left bond, right bond, mass):")
    for l, r in family:
        print(f"  ({l}, {r})  mass {r - l}  sites {list(range(l + 1, r + 1))}")
    print("pairwise distances respect the smaller mass:", satisfies_ma1(family))

    print("\ncontour decomposition (separation constant C = 3):")
    for k, g in enumerate(contours(family, 3)):
        print(f"  contour {k}: mass {g.mass}, enclosing bonds "
              f"({g.left}, {g.right}), triangles {list(g.triangles)}")

    back = triangles_to_spins(family, vol)
    print("\nreconstructed:  ", render(back))
    print("roundtrip exact:", np.array_equal(back, sigma))


if __name__ == "__main__":
    main()
