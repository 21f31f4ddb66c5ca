"""Brute-force oracles, independent of the library's index maps and recursions.

Paths are decision arrays, as in the library.  Besides the label-level path
oracles and the recursive cylinder index, this holds the dense reference for the
chaos functionals: the path-by-edge incidence matrix, the kernel
K = lam * N_n = F F^T with F = sqrt(lam) * incidence, and cylinder-level
chaos weights and moments computed from them (small n only).
"""

import itertools
import math
from functools import reduce

import numpy as np

from diamondgmc.errors import BudgetError, UsageError
from diamondgmc.lattice import LatticeParams

INCIDENCE_CELL_BUDGET = 1 << 24


def _offset(s: int, level: int) -> int:
    return (s**level - 1) // (s - 1)


def all_paths(params: LatticeParams, n: int) -> np.ndarray:
    """Every decision array, (|Gamma_n|, d_n), in raw lexicographic order (not index order)."""
    length = _offset(params.s, n)
    rows = itertools.product(range(1, params.b + 1), repeat=length)
    return np.array(list(rows), dtype=np.int64).reshape(-1, length)


def recursive_path_index(params: LatticeParams, n: int, decisions) -> int:
    """Cylinder index by its definition index(p) = (i - 1) C^s + sum_j index(p_j) C^(s - j).

    Sub-path j collects, level by level, the j-th block of s^level decisions.
    """
    if n == 0:
        return 0
    s = params.s
    c_sub = params.b ** _offset(s, n - 1)
    index = 0
    for j in range(s):
        sub = [
            d
            for level in range(n - 1)
            for d in decisions[_offset(s, level + 1) + j * s**level :][: s**level]
        ]
        index = index * c_sub + recursive_path_index(params, n - 1, sub)
    return (int(decisions[0]) - 1) * c_sub**s + index


def index_ordered_paths(params: LatticeParams, n: int) -> np.ndarray:
    """``all_paths`` sorted by ``recursive_path_index``."""
    paths = all_paths(params, n)
    order = np.argsort([recursive_path_index(params, n, p) for p in paths])
    return paths[order]


def edge_label_chains(params: LatticeParams, n: int, decisions):
    """Edge labels per time slot, straight from the decision-tree layout.

    Time slot (j_1..j_n) crosses the edge labelled
    ((i_1, j_1), ..., (i_n, j_n)) where i_t is the branch decision at the
    node addressed by the segment prefix (j_1..j_{t-1}).  Nodes are read
    from the breadth-first array by level offset plus lexicographic rank.
    """
    s = params.s
    labels = []
    for chain in itertools.product(range(1, s + 1), repeat=n):
        label = []
        for t in range(1, n + 1):
            prefix = chain[: t - 1]
            level = t - 1
            rank = 0
            for k, j in enumerate(prefix):
                rank += (j - 1) * s ** (level - 1 - k)
            label.append((int(decisions[_offset(s, level) + rank]), chain[t - 1]))
        labels.append(tuple(label))
    return labels


def brute_shared_edges(params: LatticeParams, n: int, p, q) -> int:
    """Number of time slots whose edge labels coincide."""
    return sum(
        a == c
        for a, c in zip(edge_label_chains(params, n, p), edge_label_chains(params, n, q))
    )


def edge_index_from_label(params: LatticeParams, label) -> int:
    """Base-(b*s) integer of a label chain, top pair most significant."""
    idx = 0
    for i, j in label:
        idx = idx * (params.b * params.s) + (i - 1) * params.s + (j - 1)
    return idx


def brute_pair_histogram(params: LatticeParams, n: int) -> dict:
    """Histogram of shared-edge counts over all ordered path pairs."""
    paths = all_paths(params, n)
    out = {}
    for p in paths:
        for q in paths:
            k = brute_shared_edges(params, n, p, q)
            out[k] = out.get(k, 0) + 1
    return out


def path_edge_indices(params: LatticeParams, n: int, paths) -> np.ndarray:
    """Indices of the s^n edges crossed by each decision row, (..., s^n), ascending.

    One gather through a fixed node table: time slot (j_1..j_n) reads, at
    level t, the node addressed by its segment prefix (j_1..j_t).
    """
    b, s = params.b, params.s
    slots = np.array(list(itertools.product(range(s), repeat=n)), dtype=np.int64)
    slots = slots.reshape(s**n, n)
    nodes = np.zeros_like(slots)
    for t in range(n):
        nodes[:, t] = _offset(s, t) + slots[:, :t] @ s ** np.arange(t - 1, -1, -1)
    digits = (np.asarray(paths)[..., nodes] - 1) * s + slots
    return digits @ (b * s) ** np.arange(n - 1, -1, -1)


def incidence_matrix(params: LatticeParams, n: int, support) -> np.ndarray:
    """0/1 matrix with rows = decision rows of ``support``, columns = generation edges."""
    support = np.asarray(support)
    if len(support) == 0:
        raise UsageError("empty support")
    if support.shape[1:] != (_offset(params.s, n),):
        raise UsageError(f"support of shape {support.shape} is not generation-{n} paths")
    cols = (params.b * params.s) ** n
    if len(support) * cols > INCIDENCE_CELL_BUDGET:
        raise BudgetError(
            f"incidence matrix {len(support)} x {cols} exceeds the "
            f"{INCIDENCE_CELL_BUDGET}-cell budget (b={params.b}, s={params.s}, n={n})"
        )
    out = np.zeros((len(support), cols), dtype=np.float64)
    np.put_along_axis(out, path_edge_indices(params, n, support), 1.0, axis=1)
    return out


def shared_edge_matrix(params: LatticeParams, n: int, support) -> np.ndarray:
    """Matrix of N_n(p, q) over a support array, via edge incidence."""
    inc = incidence_matrix(params, n, support)
    return inc @ inc.T


def dense_kernel(params: LatticeParams, n: int, lam: float):
    """(K, F) over all of Gamma_n in index order: K = lam * N_n and F = sqrt(lam) * incidence."""
    inc = incidence_matrix(params, n, index_ordered_paths(params, n))
    return lam * (inc @ inc.T), math.sqrt(lam) * inc


def dense_chaos(factor: np.ndarray, reference: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cylinder weights exp(F g - diag(F F^T)/2) * reference; trailing axes of g are draws."""
    field = factor @ g
    extra = (1,) * (field.ndim - 1)
    diag = (factor**2).sum(axis=1).reshape(-1, *extra)
    return np.exp(field - 0.5 * diag) * reference.reshape(-1, *extra)


def dense_kahane(kernel: np.ndarray, reference: np.ndarray, m: int) -> float:
    """sum over m-tuples of prod reference(p_k) exp(sum_{k<l} K(p_k, p_l)), enumerated."""
    size = len(reference)
    axes = [
        np.arange(size).reshape([size if d == k else 1 for d in range(m)]) for k in range(m)
    ]
    exponent = sum(kernel[axes[k], axes[l]] for k in range(m) for l in range(k + 1, m))
    weight = reduce(np.multiply, [reference[ax] for ax in axes])
    return float((weight * np.exp(exponent)).sum())
