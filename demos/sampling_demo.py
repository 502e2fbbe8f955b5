"""Metropolis sampling against the exact marginal, then a trend sweep.

First compares the sampled probability of a minus spin at the origin with
the exactly enumerated value on a 10-site chain, then runs small
disorder-averaged sweeps on a 512-site chain to show how the estimate
moves with the inverse temperature and the field strength.
"""

import time

from rfim1d import RunConfig, disorder_sweep, exact_gibbs_marginal, metropolis_run


def main():
    print("sampler vs exact enumeration, N = 10:")
    for beta, theta in [(0.0, 0.0), (0.05, 0.2), (0.1, 0.4)]:
        cfg = RunConfig(alpha=0.55, beta=beta, theta=theta, size=10,
                        sweeps=6000, burnin=1000, seed=1, realizations=1)
        res = metropolis_run(cfg, 2, 3)  # field seed 2, chain seed 3
        exact = exact_gibbs_marginal(cfg.coupling_spec(), cfg.volume(), cfg.field(2),
                                     theta, beta, 0, +1)
        print(f"  beta={beta:<5} theta={theta:<4}  "
              f"sampled {res.estimate:.4f} +- {res.stderr:.4f}  exact {exact:.4f}  "
              f"origin-in-contour fraction {res.occupancy:.3f}")

    print("\ndisorder-averaged trend at N = 512 (4 realizations each):")
    start = time.time()
    for beta in (0.5, 2.0, 8.0):
        cfg = RunConfig(alpha=0.55, beta=beta, theta=0.05, size=512,
                        sweeps=800, burnin=200, seed=5, realizations=4)
        rep = disorder_sweep(cfg)
        print(f"  beta={beta:<4} theta=0.05  estimate {rep.estimate:.5f} "
              f"+- {rep.stderr:.5f}  b_bar {rep.b_bar:.4g}  "
              f"exp(-b_bar/100) {rep.reference_100:.6f}")
    for theta in (0.02, 0.1, 0.5):
        cfg = RunConfig(alpha=0.55, beta=4.0, theta=theta, size=512,
                        sweeps=800, burnin=200, seed=5, realizations=4)
        rep = disorder_sweep(cfg)
        print(f"  beta=4.0  theta={theta:<4} estimate {rep.estimate:.5f} "
              f"+- {rep.stderr:.5f}  b_bar {rep.b_bar:.4g}")
    print(f"  ({time.time() - start:.1f}s)")


if __name__ == "__main__":
    main()
