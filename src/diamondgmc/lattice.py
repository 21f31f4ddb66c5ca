"""Path-space combinatorics of the diamond hierarchical lattice.

A generation-``n`` directed path picks one of ``b`` branches at the top
level and then crosses ``s`` first-generation sub-copies in series, each
crossing being itself a generation-``(n-1)`` path.  A path is therefore a
complete ``s``-ary tree of ``d_n = (s^n - 1)/(s - 1)`` branch decisions in
1..b, stored breadth-first so that coarsening to a lower generation is a
pure prefix truncation.  Paths are integer arrays of shape ``(..., d_n)``:
every function here takes a batch of decision rows and broadcasts over the
leading axes.

Two index systems are used throughout the package:

* cylinder index -- mixed-radix integer built from the recursive
  decomposition ``p = (i; p_1, ..., p_s)``::

      index(p) = (i - 1) * C**s + sum_j index(p_j) * C**(s - j)

  with ``C`` the number of generation-``(n-1)`` paths.  Unrolled, this is
  the linear form ``(D - 1) @ w`` in the decision array ``D``, where ``w``
  is a fixed permutation of ``b^0 .. b^(d_n - 1)``.  It matches the layout
  produced by flattening branch blocks of outer products, which is how the
  cascade module assembles cylinder-mass vectors.

* edge index -- a generation-``n`` edge is a length-``n`` sequence of
  (branch, segment) pairs; its index is the base-``b*s`` integer with the
  top-level pair as the most significant digit.  A path crosses exactly
  ``s^n`` edges, and the shared-edge count ``N_n(p, q)`` is the overlap of
  the two edge sets.  The cascade's leaf arrays use this order, which is
  what lets the chaos functionals run edge-locally on the leaf tree.

Both conventions are unit-tested against brute-force enumeration (the
recursive index, the edge maps and the dense incidence matrix live in the
test oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, UsageError

# Hard ceiling on dense path enumeration.
ENUMERATION_BUDGET = 1 << 16


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


def path_count_int(params: LatticeParams, n: int) -> int:
    """Exact |Gamma_n| = b^(d_n) as a Python integer (no generation cap)."""
    return params.b ** decision_count(params.s, n)


def _decisions(params: LatticeParams, n: int, paths) -> np.ndarray:
    """``paths`` as an int64 array of generation-``n`` decision rows, validated."""
    if n < 0:
        raise UsageError("generation must be >= 0")
    arr = np.asarray(paths)
    want = decision_count(params.s, n)
    if arr.ndim == 0 or arr.shape[-1] != want:
        raise UsageError(
            f"decision arrays of shape {arr.shape} do not end in length {want} "
            f"(generation {n})"
        )
    if arr.size and arr.dtype.kind not in "iu":
        raise UsageError(f"branch decisions must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 1 or arr.max() > params.b):
        raise UsageError(f"branch decisions must lie in 1..{params.b}")
    return arr.astype(np.int64, copy=False)


def _index_weights(params: LatticeParams, n: int) -> np.ndarray:
    """Weight b^e of each breadth-first decision in the cylinder index.

    Unrolls the recursion: the top decision carries C^s = b^(d_n - 1), and
    sub-path ``j`` (0-based) shifts the exponents of its own decisions by
    ``d_(n-1) * (s - 1 - j)`` before they are laid out level by level.
    """
    b, s = params.b, params.s
    if path_count_int(params, n) > 1 << 63:
        raise BudgetError(
            f"|Gamma_{n}| = {b}^{decision_count(s, n)} cylinder indices exceed int64"
        )
    exps = np.zeros(0, dtype=np.int64)
    for k in range(1, n + 1):
        shift = decision_count(s, k - 1) * np.arange(s - 1, -1, -1)
        levels = [np.array([decision_count(s, k) - 1])]
        for lev in range(k - 1):
            block = exps[decision_count(s, lev) : decision_count(s, lev + 1)]
            levels.append((shift[:, None] + block[None, :]).ravel())
        exps = np.concatenate(levels)
    return np.int64(b) ** exps


def path_index(params: LatticeParams, n: int, paths) -> np.ndarray:
    """Cylinder index of each decision row: the linear form (D - 1) @ w."""
    return (_decisions(params, n, paths) - 1) @ _index_weights(params, n)


def enumerate_paths(params: LatticeParams, n: int) -> np.ndarray:
    """All of Gamma_n as a (|Gamma_n|, d_n) array; row k has cylinder index k."""
    total = path_count_int(params, n)
    if total > ENUMERATION_BUDGET:
        raise BudgetError(
            f"|Gamma_{n}| = {total} exceeds the enumeration budget {ENUMERATION_BUDGET}; "
            f"largest enumerable generation for b={params.b}, s={params.s} is "
            f"{max(k for k in range(n) if path_count_int(params, k) <= ENUMERATION_BUDGET)}"
        )
    # row k holds the base-b digits of k, read off at the index weights
    return 1 + (np.arange(total)[:, None] // _index_weights(params, n)) % params.b


def shared_edge_count(params: LatticeParams, n: int, p, q) -> np.ndarray:
    """N_n(p, q): number of generation-``n`` edges crossed by both paths.

    ``p`` and ``q`` are decision arrays whose leading axes broadcast; the
    result has the broadcast leading shape.  Follows the branch-split
    recursion N_0 = 1 and, for ``p = (i; p_j)``, ``q = (i'; q_j)``: zero when
    ``i != i'`` and ``sum_j N_{n-1}(p_j, q_j)`` otherwise.  Unrolled over
    breadth-first levels: a time slot's edge is shared iff every branch
    decision along its segment chain agrees, and each level's chain splits
    into ``s`` slots below it.
    """
    p, q = _decisions(params, n, p), _decisions(params, n, q)
    try:
        shape = np.broadcast_shapes(p.shape, q.shape)
    except ValueError:
        raise UsageError(f"path arrays of shapes {p.shape} and {q.shape} do not broadcast")
    s = params.s
    agree = p == q
    chain = np.ones(shape[:-1] + (1,), dtype=bool)
    for lev in range(n):
        off = decision_count(s, lev)
        chain = np.repeat(chain & agree[..., off : off + s**lev], s, axis=-1)
    return chain.sum(axis=-1)


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
