"""Parameters and path counts of the diamond hierarchical lattice.

A generation-``n`` directed path picks one of ``b`` branches at the top
level and then crosses ``s`` first-generation sub-copies in series, each
crossing being itself a generation-``(n-1)`` path.  A path is therefore a
complete ``s``-ary tree of ``d_n = (s^n - 1)/(s - 1)`` branch decisions in
1..b, and |Gamma_n| = b^(d_n).

Edge index: a generation-``n`` edge is a length-``n`` sequence of
(branch, segment) pairs; its index is the base-``b*s`` integer with the
top-level pair as the most significant digit.  A path crosses exactly
``s^n`` edges, and the shared-edge count ``N_n(p, q)`` is the overlap of
the two edge sets.  The cascade's leaf arrays use this order, which is what
lets every cylinder functional run edge-locally on the leaf tree, so no
path is ever enumerated.  The path arrays, the cylinder index and the
shared-edge counts live in the test oracles, which check the edge order
against brute-force enumeration at small n.

For b < s it also gives the fixed point in (0, 1) of
M(x) = (1 - (1 - x)^s)/b and the dimension (log s - log b)/log s of a
nontrivial intersection set of two paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UsageError


@dataclass(frozen=True)
class LatticeParams:
    """Branching number ``b`` and segmenting number ``s`` of the lattice."""

    b: int
    s: int

    def __post_init__(self):
        if not (isinstance(self.b, int) and isinstance(self.s, int)):
            raise UsageError("b and s must be integers")
        if self.b < 2 or self.s < 2:
            raise UsageError(f"b and s must both be >= 2, got b={self.b}, s={self.s}")

    def require_critical(self):
        """Reject all but the critical lattice b = s (Hausdorff dimension two)."""
        if self.b != self.s:
            raise UsageError(
                f"operation requires the critical lattice b = s, got b={self.b}, s={self.s}"
            )


def decision_count(s: int, n: int) -> int:
    """Number of branch decisions in a generation-``n`` path: (s^n - 1)/(s - 1)."""
    return (s**n - 1) // (s - 1)


def path_count_int(params: LatticeParams, n: int) -> int:
    """Exact |Gamma_n| = b^(d_n) as a Python integer (no generation cap)."""
    return params.b ** decision_count(params.s, n)


def intersection_fixed_point(b: int, s: int, tol: float = 1e-14) -> float:
    """Unique fixed point in (0, 1) of M(x) = (1 - (1-x)^s)/b for b < s.

    Solved by bisection; M(x) - x is positive near 0 (slope s/b > 1) and
    negative at 1 (M(1) = 1/b < 1).
    """
    params = LatticeParams(b, s)
    if params.b >= params.s:
        raise DomainError(
            f"nontrivial intersection fixed point requires b < s (b = s is the "
            f"critical lattice, where typical pairs intersect only finitely); "
            f"got b={b}, s={s}"
        )

    def g(x):
        return (1.0 - (1.0 - x) ** s) / b - x

    lo, hi = 1e-12, 1.0
    if g(lo) <= 0.0:
        raise DomainError("bisection bracket failed; no root in (0, 1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def intersection_hausdorff_dim(b: int, s: int) -> float:
    """(log s - log b)/log s, the dimension of a nontrivial intersection set (b < s)."""
    params = LatticeParams(b, s)
    if params.b >= params.s:
        raise DomainError(
            f"intersection dimension formula requires b < s (b = s is the "
            f"critical lattice); got b={b}, s={s}"
        )
    return (math.log(s) - math.log(b)) / math.log(s)
