"""Critical diamond hierarchical lattice polymer toolkit.

Exact path-space combinatorics, the total-mass variance recursion and its
moment ladder, cylinder-pair correlation tables, Monte Carlo cascade
sampling of the random polymer measures, and finite-dimensional Gaussian
multiplicative chaos experiments (composition law with its exact
renormalization-step audit, strong-disorder bounds).
"""

__version__ = "0.1.0"
