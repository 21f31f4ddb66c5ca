"""Brute-force oracles, independent of the library's recursions.

Besides the label-level path oracles, this holds the dense reference for the
chaos functionals: the path-by-edge incidence matrix, the kernel
K = lam * N_n = F F^T with F = sqrt(lam) * incidence, and cylinder-level
chaos weights and moments computed from them (small n only).
"""

import itertools
import math
from functools import reduce

import numpy as np

from diamondgmc.errors import BudgetError, UsageError
from diamondgmc.lattice import CylinderPath, LatticeParams, enumerate_paths

INCIDENCE_CELL_BUDGET = 1 << 24


def edge_label_chains(path: CylinderPath):
    """Edge labels per time slot, straight from the decision-tree layout.

    Time slot (j_1..j_n) crosses the edge labelled
    ((i_1, j_1), ..., (i_n, j_n)) where i_t is the branch decision at the
    node addressed by the segment prefix (j_1..j_{t-1}).  Nodes are read
    from the breadth-first array by level offset plus lexicographic rank.
    """
    s, n = path.params.s, path.generation
    labels = []
    for chain in itertools.product(range(1, s + 1), repeat=n):
        label = []
        for t in range(1, n + 1):
            prefix = chain[: t - 1]
            level = t - 1
            offset = (s**level - 1) // (s - 1)
            rank = 0
            for k, j in enumerate(prefix):
                rank += (j - 1) * s ** (level - 1 - k)
            label.append((path.decisions[offset + rank], chain[t - 1]))
        labels.append(tuple(label))
    return labels


def brute_shared_edges(p: CylinderPath, q: CylinderPath) -> int:
    """Number of time slots whose edge labels coincide."""
    return sum(a == b for a, b in zip(edge_label_chains(p), edge_label_chains(q)))


def all_paths(params: LatticeParams, n: int):
    """Every decision array, in raw lexicographic order (not index order)."""
    length = (params.s**n - 1) // (params.s - 1)
    return [
        CylinderPath(params, n, decisions)
        for decisions in itertools.product(range(1, params.b + 1), repeat=length)
    ]


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
            k = brute_shared_edges(p, q)
            out[k] = out.get(k, 0) + 1
    return out


def path_edge_indices(p: CylinderPath) -> np.ndarray:
    """Indices of the ``s^n`` edges crossed by ``p``, ascending."""
    params, n = p.params, p.generation
    if n == 0:
        return np.array([0], dtype=np.int64)
    top, subs = p.split()
    width = (params.b * params.s) ** (n - 1)
    pieces = []
    for j, q in enumerate(subs, start=1):
        base = ((top - 1) * params.s + (j - 1)) * width
        pieces.append(base + path_edge_indices(q))
    return np.concatenate(pieces)


def incidence_matrix(support) -> np.ndarray:
    """0/1 matrix with rows = paths of ``support``, columns = generation edges."""
    if len(support) == 0:
        raise UsageError("empty support")
    params, n = support[0].params, support[0].generation
    cols = (params.b * params.s) ** n
    if len(support) * cols > INCIDENCE_CELL_BUDGET:
        raise BudgetError(
            f"incidence matrix {len(support)} x {cols} exceeds the "
            f"{INCIDENCE_CELL_BUDGET}-cell budget (b={params.b}, s={params.s}, n={n})"
        )
    out = np.zeros((len(support), cols), dtype=np.float64)
    for row, p in enumerate(support):
        if p.params != params or p.generation != n:
            raise UsageError("support paths must share params and generation")
        out[row, path_edge_indices(p)] = 1.0
    return out


def shared_edge_matrix(support) -> np.ndarray:
    """Matrix of N_n(p, q) over a support list, via edge incidence."""
    inc = incidence_matrix(support)
    return inc @ inc.T


def dense_kernel(params: LatticeParams, n: int, lam: float):
    """(K, F) over all of Gamma_n: K = lam * N_n and F = sqrt(lam) * incidence."""
    inc = incidence_matrix(enumerate_paths(params, n))
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
