"""One-dimensional random-field Ising chain with power-law couplings.

Library layout:

- ``model``: volumes, couplings, fields, the one energy function, exact marginals
- ``triangles``: interface pairing and the triangle encoding of a +-1 spin
  row under the plus boundary; a triangle is a ``(left, right)`` int bond
  pair, a family is a sorted tuple of them, and ``families`` streams those
  of every configuration of a volume
- ``contours``: separation rules and the contour decomposition; a ``Contour``
  is a named tuple (left, right, mass, triangles), and the decomposition
  itself is ``rfim1d.contours.contours``
- ``bounds``: exhaustive verification of the deterministic energy bounds
- ``enumeration``: origin contours of fixed mass and the entropy certificate
- ``disorder``: the random functionals F_j, their antisymmetry and event probabilities
- ``mc``: Metropolis sampling and disorder-averaged estimates
- ``cli``: command-line entry point; the other modules return dataclasses,
  and ``cli`` alone names the report columns and builds the CSV rows and
  the JSON lists from them

The reference oracles that check these layers (the spin-window scan of
origin contours, the P1/P2 separation certificates and the compatibility
test) live with the tests, in ``tests/oracles.py``.
"""

from .bounds import BoundReport, exhaustive_reports, minimal_j1, zeta
from .contours import Contour, choose_C, separation_series
from .disorder import (BjEstimate, ConstrainedEnsemble, b_bar, check_antisymmetry,
                       class_support, estimate_Bj_probability, flip_composition,
                       thresholds)
from .enumeration import CertifyResult, certify_C0, enumerate_origin_contours
from .mc import ChainResult, RunConfig, RunReport, disorder_sweep, metropolis_run
from .model import (ALPHA_PEIERLS_MAX, CapacityError, CouplingSpec, DisorderField,
                    Volume, VolumeMismatchError, energy, exact_gibbs_marginal,
                    hamiltonian)
from .triangles import (families, family_code, interfaces, pair_interface_bonds,
                        satisfies_ma1, spins_to_triangles, triangles_to_spins)

__version__ = "0.1.0"
