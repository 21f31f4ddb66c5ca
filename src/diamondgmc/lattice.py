"""Path-space combinatorics of the diamond hierarchical lattice.

A generation-``n`` directed path picks one of ``b`` branches at the top
level and then crosses ``s`` first-generation sub-copies in series, each
crossing being itself a generation-``(n-1)`` path.  A path is therefore a
complete ``s``-ary tree of branch decisions with ``(s^n - 1)/(s - 1)``
nodes, which we store breadth-first so that coarsening to a lower
generation is a pure prefix truncation.

Two index systems are used throughout the package:

* cylinder index -- mixed-radix integer built from the recursive
  decomposition ``p = (i; p_1, ..., p_s)``::

      index(p) = (i - 1) * C**s + sum_j index(p_j) * C**(s - j)

  with ``C`` the number of generation-``(n-1)`` paths.  This matches the
  layout produced by flattening branch blocks of outer products, which is
  how the cascade module assembles cylinder-mass vectors.

* edge index -- a generation-``n`` edge is a length-``n`` sequence of
  (branch, segment) pairs; its index is the base-``b*s`` integer with the
  top-level pair as the most significant digit.  A path crosses exactly
  ``s^n`` edges, and the shared-edge count ``N_n(p, q)`` is the overlap of
  the two edge sets.  The cascade's leaf arrays use this order, which is
  what lets the chaos functionals run edge-locally on the leaf tree.

Both conventions are unit-tested against brute-force enumeration (the edge
maps and the dense incidence matrix live in the test oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, UsageError

# Hard ceiling on dense path enumeration.
ENUMERATION_BUDGET = 1 << 16

# Exact integer counts are carried up to this generation; beyond it only the
# log-space representation is guaranteed (growth is doubly exponential).
EXACT_COUNT_GENERATION = 6


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

    def critical(self) -> bool:
        """True when branching equals segmenting (Hausdorff dimension two)."""
        return self.b == self.s

    def require_critical(self):
        if not self.critical():
            raise UsageError(
                f"operation requires the critical lattice b = s, got b={self.b}, s={self.s}"
            )


def decision_count(s: int, n: int) -> int:
    """Number of branch decisions in a generation-``n`` path: (s^n - 1)/(s - 1)."""
    return (s**n - 1) // (s - 1)


def _level_offset(s: int, level: int) -> int:
    return (s**level - 1) // (s - 1)


@dataclass(frozen=True)
class CylinderPath:
    """A generation-``n`` path, i.e. a cylinder set of the continuum path space.

    ``decisions`` holds the branch choices breadth-first: entry 0 is the top
    branch, the next ``s`` entries are the top branches of the ``s`` sub-paths
    in segment order, and so on.
    """

    params: LatticeParams
    generation: int
    decisions: tuple

    def __post_init__(self):
        if self.generation < 0:
            raise UsageError("generation must be >= 0")
        want = decision_count(self.params.s, self.generation)
        if len(self.decisions) != want:
            raise UsageError(
                f"decision array has length {len(self.decisions)}, expected {want} "
                f"for generation {self.generation}"
            )
        if any(not (1 <= d <= self.params.b) for d in self.decisions):
            raise UsageError(f"branch decisions must lie in 1..{self.params.b}")

    def coarsen(self, k: int) -> "CylinderPath":
        """Generation-``k`` coarsening: truncate the decision tree below level ``k``."""
        if k < 0 or k > self.generation:
            raise UsageError(f"cannot coarsen generation {self.generation} to {k}")
        return CylinderPath(
            self.params, k, self.decisions[: decision_count(self.params.s, k)]
        )

    def split(self):
        """Recursive decomposition ``p = (i; p_1, ..., p_s)``.

        Returns the top branch and the ``s`` generation-``(n-1)`` sub-paths.
        """
        if self.generation == 0:
            raise UsageError("a generation-0 path has no sub-paths")
        s, n = self.params.s, self.generation
        top = self.decisions[0]
        subs = []
        for j in range(s):
            parts = []
            for lev in range(n - 1):
                off = _level_offset(s, lev + 1)
                width = s**lev
                start = off + j * width
                parts.append(self.decisions[start : start + width])
            subs.append(
                CylinderPath(self.params, n - 1, tuple(x for part in parts for x in part))
            )
        return top, subs


def join_paths(top: int, subs) -> CylinderPath:
    """Inverse of :meth:`CylinderPath.split`: assemble ``(i; p_1, ..., p_s)``."""
    params = subs[0].params
    s = params.s
    n = subs[0].generation + 1
    if len(subs) != s or any(q.generation != n - 1 or q.params != params for q in subs):
        raise UsageError("join_paths needs s sub-paths of equal generation and params")
    decisions = [top]
    for lev in range(n - 1):
        off = _level_offset(s, lev)
        width = s**lev
        for q in subs:
            decisions.extend(q.decisions[off : off + width])
    return CylinderPath(params, n, tuple(decisions))


@dataclass(frozen=True)
class BigCount:
    """An exact arbitrary-precision count paired with its natural logarithm.

    The exact integer is dropped past :data:`EXACT_COUNT_GENERATION`; the
    log-space value is always present.
    """

    exact: "int | None"
    log_value: float

    @classmethod
    def from_int(cls, value: int) -> "BigCount":
        if value <= 0:
            raise UsageError("counts must be positive")
        return cls(value, math.log(value))

    @property
    def log10(self) -> float:
        return self.log_value / math.log(10.0)

    def consistent(self, rel_tol: float = 1e-12) -> bool:
        if self.exact is None:
            return True
        return math.isclose(math.log(self.exact), self.log_value, rel_tol=rel_tol)


def path_count(params: LatticeParams, n: int, exact_limit: int = EXACT_COUNT_GENERATION) -> BigCount:
    """|Gamma_n| = b^((s^n - 1)/(s - 1)), equivalently c_{k+1} = b * c_k^s with c_0 = 1."""
    if n < 0:
        raise UsageError("generation must be >= 0")
    exponent = decision_count(params.s, n)
    log_value = exponent * math.log(params.b)
    exact = params.b**exponent if n <= exact_limit else None
    return BigCount(exact, log_value)


def path_count_int(params: LatticeParams, n: int) -> int:
    """Exact |Gamma_n| as a Python integer (no generation cap)."""
    return params.b ** decision_count(params.s, n)


def sample_uniform_path(params: LatticeParams, n: int, rng: np.random.Generator) -> CylinderPath:
    """Draw a path from the uniform cylinder measure: decisions iid on 1..b."""
    if n < 0:
        raise UsageError("generation must be >= 0")
    draws = rng.integers(1, params.b + 1, size=decision_count(params.s, n))
    return CylinderPath(params, n, tuple(int(d) for d in draws))


def _check_pair(p: CylinderPath, q: CylinderPath):
    if p.params != q.params:
        raise UsageError("paths have different lattice parameters")
    if p.generation != q.generation:
        raise UsageError(
            f"paths have different generations ({p.generation} vs {q.generation})"
        )


def shared_edge_count(p: CylinderPath, q: CylinderPath) -> int:
    """N_n(p, q): number of generation-``n`` edges crossed by both paths.

    Computed by the branch-split recursion N_0 = 1 and, for ``p = (i; p_j)``,
    ``q = (i'; q_j)``: zero when ``i != i'`` and ``sum_j N_{n-1}(p_j, q_j)``
    otherwise.  Implemented iteratively over breadth-first levels: a time
    slot's edge is shared iff every branch decision along its segment chain
    agrees, and slots sharing a length-``(n-1)`` chain prefix contribute in
    blocks of ``s``.
    """
    _check_pair(p, q)
    s, n = p.params.s, p.generation
    if n == 0:
        return 1
    pd = np.asarray(p.decisions)
    qd = np.asarray(q.decisions)
    agree = pd == qd
    chain = np.array([agree[0]])
    for lev in range(1, n):
        off = _level_offset(s, lev)
        level_agree = agree[off : off + s**lev]
        chain = np.repeat(chain, s) & level_agree
    return int(s * chain.sum())


def kernel_estimate(p: CylinderPath, q: CylinderPath) -> float:
    """Finite-generation estimate kappa^2 N_n(p,q) / n^2 of the intersection kernel.

    This is the generation-``n`` evaluation of a quantity defined as an
    ``n -> infinity`` limit; convergence in ``n`` is O(log n / n).
    """
    p.params.require_critical()
    _check_pair(p, q)
    if p.generation < 1:
        raise UsageError("kernel estimate needs generation >= 1")
    kappa_sq = 2.0 / (p.params.b - 1)
    return kappa_sq * shared_edge_count(p, q) / p.generation**2


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


def ultrametric_proxy_distance(p: CylinderPath, q: CylinderPath) -> float:
    """s^(-K) where K is the deepest generation at which the coarsenings agree.

    Stand-in for the continuum path metric: it depends only on cylinder
    identity, satisfies the ultrametric inequality, and equals s^(-n) for
    identical generation-``n`` paths.
    """
    _check_pair(p, q)
    s, n = p.params.s, p.generation
    if p.decisions == q.decisions:
        return float(s) ** (-n)
    first_diff = next(
        i for i, (a, c) in enumerate(zip(p.decisions, q.decisions)) if a != c
    )
    level = 0
    while _level_offset(s, level + 1) <= first_diff:
        level += 1
    return float(s) ** (-level)


# -- cylinder and edge index maps -------------------------------------------


def path_index(p: CylinderPath) -> int:
    """Canonical cylinder index from the recursive decomposition (see module docs)."""
    if p.generation == 0:
        return 0
    c_sub = path_count_int(p.params, p.generation - 1)
    top, subs = p.split()
    sub_idx = 0
    for q in subs:
        sub_idx = sub_idx * c_sub + path_index(q)
    return (top - 1) * c_sub ** p.params.s + sub_idx


def path_from_index(params: LatticeParams, n: int, index: int) -> CylinderPath:
    """Inverse of :func:`path_index`."""
    total = path_count_int(params, n)
    if not (0 <= index < total):
        raise UsageError(f"index {index} out of range for |Gamma_{n}| = {total}")
    if n == 0:
        return CylinderPath(params, 0, ())
    c_sub = path_count_int(params, n - 1)
    block = c_sub**params.s
    top = index // block + 1
    rem = index % block
    sub_indices = []
    for _ in range(params.s):
        rem, sub_idx = divmod(rem, c_sub)
        sub_indices.append(sub_idx)
    sub_indices.reverse()
    subs = [path_from_index(params, n - 1, i) for i in sub_indices]
    return join_paths(top, subs)


def enumerate_paths(params: LatticeParams, n: int):
    """All of Gamma_n in cylinder-index order."""
    total = path_count_int(params, n)
    if total > ENUMERATION_BUDGET:
        raise BudgetError(
            f"|Gamma_{n}| = {total} exceeds the enumeration budget {ENUMERATION_BUDGET}; "
            f"largest enumerable generation for b={params.b}, s={params.s} is "
            f"{max(k for k in range(n) if path_count_int(params, k) <= ENUMERATION_BUDGET)}"
        )
    return [path_from_index(params, n, i) for i in range(total)]
