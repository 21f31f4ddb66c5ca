"""Brute-force oracles, independent of the library's recursions.

The library never enumerates paths: every functional runs on the cascade's
leaf tree in edge order.  The path space itself lives here.  A path is a
decision array: the ``d_n`` branch decisions of its s-ary decision tree,
breadth-first, so coarsening is a prefix truncation.  ``all_paths`` and
``index_ordered_paths`` enumerate Gamma_n, ``recursive_path_index`` is the
cylinder index by its definition, and the shared-edge count N_n(p, q) has
two independent routes: ``brute_shared_edges`` compares edge labels slot by
slot, and ``shared_edge_matrix`` multiplies edge-incidence rows.

Besides these, this holds the dense reference for the chaos functionals: the
path-by-edge incidence matrix, the kernel K = lam * N_n = F F^T with
F = sqrt(lam) * incidence, and cylinder-level chaos weights and moments
computed from them (small n only).  It also keeps
earlier library routes as references: the cylinder-vector assembly of leaf
masses with its dense pair-weight matrix, the asymptotic-expansion solver that
finds each coefficient from two residual evaluations, the row-by-row
``csv.writer`` emission of float tables, the population step that draws
all b^2 factors of a step in one (b, b, size) call, the Kahane moment
recursion at a numeric edge weight, the moment-ladder step that
enumerates multinomial compositions, the pair-count histogram by its own
recursion over ordered pairs, the R orbit seeded and stepped in mpmath, the
correlation-measure sum over every histogram entry, and the quoted two-term
asymptotic of R.
"""

import csv
import itertools
import math
from fractions import Fraction
from functools import reduce

import mpmath as mp
import numpy as np

from diamondgmc.errors import BudgetError, UsageError
from diamondgmc.lattice import LatticeParams, path_count_int
from diamondgmc.reporting import format_float
from diamondgmc.rfunction import asymptotic_expansion, eta, kappa_sq

INCIDENCE_CELL_BUDGET = 1 << 24


def _offset(s: int, level: int) -> int:
    return (s**level - 1) // (s - 1)


def all_paths(params: LatticeParams, n: int) -> np.ndarray:
    """Every decision array, (|Gamma_n|, d_n), in raw lexicographic order (not index order)."""
    length = _offset(params.s, n)
    rows = itertools.product(range(1, params.b + 1), repeat=length)
    return np.array(list(rows), dtype=np.int64).reshape(params.b**length, length)


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


def dense_overlap_polynomial(shared: np.ndarray, reference: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of sum over m-tuples of prod reference(p_k) z^(sum_{k<l} N(p_k, p_l)), enumerated."""
    size = len(reference)
    axes = [
        np.arange(size).reshape([size if d == k else 1 for d in range(m)]) for k in range(m)
    ]
    exponent = sum(
        (shared[axes[k], axes[l]] for k in range(m) for l in range(k + 1, m)),
        np.zeros([1] * m, dtype=int),
    )
    weight = reduce(np.multiply, [reference[ax] for ax in axes])
    exponent, weight = np.broadcast_arrays(exponent, weight)
    return np.bincount(exponent.ravel(), weights=weight.ravel())


def dense_kahane(kernel: np.ndarray, reference: np.ndarray, m: int) -> float:
    """sum over m-tuples of prod reference(p_k) exp(sum_{k<l} K(p_k, p_l)), enumerated."""
    size = len(reference)
    axes = [
        np.arange(size).reshape([size if d == k else 1 for d in range(m)]) for k in range(m)
    ]
    exponent = sum(kernel[axes[k], axes[l]] for k in range(m) for l in range(k + 1, m))
    weight = reduce(np.multiply, [reference[ax] for ax in axes])
    return float((weight * np.exp(exponent)).sum())


# Series over Fractions, a key (k, j) holding the coefficient of L^j / t^k
# with t = -r and L = log t, written apart from the library's
# integer-numerator solver so that the oracle shares none of its code.


def _series_mul(u, v, k_cap):
    out = {}
    for (k1, j1), c1 in u.items():
        for (k2, j2), c2 in v.items():
            k = k1 + k2
            if k > k_cap:
                continue
            key = (k, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def _psi_series(y, b, k_cap):
    """psi_b(y) = sum_d C(b, d) y^d / b, truncated at 1/t^k_cap."""
    out = {}
    power = dict(y)
    for d in range(1, b + 1):
        coef = Fraction(math.comb(b, d), b)
        for key, c in power.items():
            out[key] = out.get(key, Fraction(0)) + coef * c
        if d < b:
            power = _series_mul(power, y, k_cap)
    return {key: c for key, c in out.items() if c != 0}


def _shift_series(y, k_cap):
    """Expand y(t - 1) as a series in 1/t and L = log t."""
    # 1/(t-1)^k = sum_i binom(k-1+i, i) t^-(k+i)
    inv_pow = {}
    for k in range(1, k_cap + 1):
        inv_pow[k] = {
            (k + i, 0): Fraction(math.comb(k - 1 + i, i))
            for i in range(0, k_cap - k + 1)
        }
    # delta = log(t-1) - log t = -sum_{i>=1} t^-i / i
    delta = {(i, 0): Fraction(-1, i) for i in range(1, k_cap + 1)}
    max_j = max((j for (_, j) in y), default=0)
    delta_pow = {0: {(0, 0): Fraction(1)}}
    for m in range(1, max_j + 1):
        delta_pow[m] = _series_mul(delta_pow[m - 1], delta, k_cap)

    out = {}
    for (k, j), c in y.items():
        for m in range(0, j + 1):
            binom = Fraction(math.comb(j, m))
            base = _series_mul(inv_pow[k], delta_pow[m], k_cap)
            for (kk, jj), cc in base.items():
                key = (kk, jj + (j - m))
                out[key] = out.get(key, Fraction(0)) + c * binom * cc
    return {key: c for key, c in out.items() if c != 0}


def _residual_coeff(coeffs, b, k_cap, key):
    res = _psi_series(coeffs, b, k_cap)
    for kk, cc in _shift_series(coeffs, k_cap).items():
        res[kk] = res.get(kk, Fraction(0)) - cc
    return res.get(key, Fraction(0))


def expansion_by_two_evaluations(b: int, order: int) -> dict:
    """Asymptotic-expansion coefficients, each solved from two full residual evaluations.

    The residual at order k + 1 is affine in an order-k unknown: evaluate it
    with the unknown at 0 and at 1 on the first equation (L^j, then lower
    powers of L) where the slope is nonzero.  Keys are inserted in the same
    order as the library's solver: (1, 0), (2, 0), then j descending per k.
    """
    coeffs = {(1, 0): Fraction(2, b - 1), (2, 0): Fraction(0)}
    for k in range(2, order + 1):
        for j in range(k - 1, -1, -1):
            if (k, j) in coeffs:
                continue
            for jj in range(j, -1, -1):
                eq = (k + 1, jj)
                coeffs[(k, j)] = Fraction(0)
                r0 = _residual_coeff(coeffs, b, k + 1, eq)
                coeffs[(k, j)] = Fraction(1)
                slope = _residual_coeff(coeffs, b, k + 1, eq) - r0
                if slope != 0:
                    coeffs[(k, j)] = -r0 / slope
                    break
            else:
                raise RuntimeError(f"no determining equation for coefficient {(k, j)}")
    return coeffs


def write_csv_by_rows(path, header, rows):
    """CSV through ``csv.writer`` one row at a time, floats by ``format_float``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, float) else v for v in row])


def population_step_one_shot(masses: np.ndarray, b: int, rng) -> np.ndarray:
    """Population step with its factors gathered as one (b, b, size) array."""
    idx = rng.integers(0, masses.size, size=(b, b, masses.size))
    return masses[idx].prod(axis=1).sum(axis=0) / b


def upsilon_combine(sub_vectors: np.ndarray) -> np.ndarray:
    """One renormalization step on cylinder vectors.

    ``sub_vectors[..., i, j, :]`` holds the b x b sub-measure vectors; branch
    ``i`` contributes the flattened outer product over its b segments, and the
    blocks are concatenated in branch order and divided by b.  The layout
    matches the cylinder index, ``recursive_path_index``.
    """
    b = sub_vectors.shape[-3]
    branch_vecs = []
    for i in range(b):
        v = sub_vectors[..., i, 0, :]
        for j in range(1, b):
            w = sub_vectors[..., i, j, :]
            v = (v[..., :, None] * w[..., None, :]).reshape(*v.shape[:-1], -1)
        branch_vecs.append(v)
    return np.concatenate(branch_vecs, axis=-1) / b


def assemble(leaves, b: int, n: int) -> np.ndarray:
    """Cylinder vectors, |Gamma_n| masses in index order, from leaves in edge order.

    Applies ``upsilon_combine`` level by level from the leaves up; leading
    axes batch.
    """
    leaves = np.asarray(leaves, dtype=float)
    if leaves.shape[-1] != b ** (2 * n):
        raise UsageError(
            f"{leaves.shape[-1]} leaves given, generation {n} has {b ** (2 * n)} edges"
        )
    vectors = leaves[..., None]
    for _ in range(n):
        vectors = upsilon_combine(
            vectors.reshape(*vectors.shape[:-2], -1, b, b, vectors.shape[-1])
        )
    return vectors[..., 0, :]


def cylinder_chaos_factor(g: np.ndarray, b: int, n: int, lam: float) -> np.ndarray:
    """exp(W(p) - K(p, p)/2) per generation-n cylinder from edge gaussians (leading axes batch)."""
    return b ** _offset(b, n) * assemble(np.exp(math.sqrt(lam) * g - 0.5 * lam), b, n)


def upsilon_pair_matrix(table, support) -> np.ndarray:
    """Correlation weights for all pairs of a (count, d_n) path array (small supports only)."""
    params = LatticeParams(table.profile.b, table.profile.b)
    N = shared_edge_matrix(params, table.n, support)
    return np.exp(N * table.log1p_R_shifted - 2.0 * table.log_gamma)


def dense_pair_class_sums(leaves, b: int, n: int) -> np.ndarray:
    """sum over pairs with N(p, q) = k of M_p M_q, k = 0..b^n, from assembled cylinder vectors."""
    params = LatticeParams(b, b)
    masses = assemble(leaves, b, n)
    N = shared_edge_matrix(params, n, index_ordered_paths(params, n)).astype(int)
    return np.bincount(N.ravel(), weights=np.outer(masses, masses).ravel(), minlength=b**n + 1)


def kahane_recursion(leaves, b: int, lam: float, m: int) -> float:
    """E[T^m] of the chaos total by carrying the numeric moments 0..m of every node up the tree.

    Leaf value l^k exp(lam k (k - 1)/2); segments in series multiply and
    branches combine binomially.
    """
    k = np.arange(m + 1)
    moments = np.asarray(leaves, dtype=float)[:, None] ** k * np.exp(0.5 * lam * k * (k - 1))
    binom = [[math.comb(kk, r) for r in range(kk + 1)] for kk in range(m + 1)]
    while moments.shape[0] > 1:
        branches = moments.reshape(-1, b, b, m + 1).prod(axis=2)
        acc = branches[:, 0]
        for i in range(1, b):
            x = branches[:, i]
            acc = np.stack(
                [
                    sum(binom[kk][r] * acc[:, r] * x[:, kk - r] for r in range(kk + 1))
                    for kk in range(m + 1)
                ],
                axis=-1,
            )
        moments = acc / float(b) ** k
    return float(moments[0, m])


def moment_step_by_compositions(b: int, moments) -> list:
    """Raw moments after one renormalization step, summed over the compositions of k.

    m_k' = b^(-k) sum_{k_1 + ... + k_b = k} multinomial(k; k_1..k_b) prod_i m_{k_i}^b.
    """

    def compositions(remaining, parts):
        if parts == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in compositions(remaining - first, parts - 1):
                yield (first,) + rest

    out = []
    for k in range(len(moments)):
        total = 0.0
        for comp in compositions(k, b):
            coef = math.factorial(k)
            prod = 1.0
            for part in comp:
                coef //= math.factorial(part)
                if part:
                    prod *= moments[part]
            total += coef * prod**b
        out.append(total / b**k)
    return out


def pair_histogram_by_recursion(b: int, n: int) -> tuple:
    """Pair-count histogram of Gamma_n x Gamma_n as sorted (N, count) pairs.

    h_0 = {1: 1},
    h_{n+1} = b * (h_n convolved with itself b times) + b (b - 1) |Gamma_n|^(2b) at N = 0:
    the two paths share their top branch (b choices; shared edges add across
    the b sub-pairs) or take different ones (b (b - 1) choices; no shared
    edge, all sub-paths free).
    """
    hist = {1: 1}
    for level in range(n):
        conv = {0: 1}
        for _ in range(b):
            step = {}
            for k1, c1 in conv.items():
                for k2, c2 in hist.items():
                    step[k1 + k2] = step.get(k1 + k2, 0) + c1 * c2
            conv = step
        hist = {k: b * c for k, c in conv.items()}
        gamma = b ** _offset(b, level)
        hist[0] = hist.get(0, 0) + b * (b - 1) * gamma ** (2 * b)
    return tuple(sorted(hist.items()))


def _seed_pair_mp(coeffs, t):
    """Series value of (R, R') at r = -t in the active mpmath precision."""
    L = mp.log(t)
    R = mp.mpf(0)
    Rp = mp.mpf(0)
    for (k, j), c in coeffs.items():
        c_mp = mp.mpf(c.numerator) / mp.mpf(c.denominator)
        Lj = L**j
        R += c_mp * Lj / t**k
        deriv = k * Lj
        if j:
            deriv -= j * L ** (j - 1)
        Rp += c_mp * deriv / t ** (k + 1)
    return R, Rp


def _psi_mp(b: int, x):
    return ((1 + x) ** b - 1) / b


def _step_mp(b: int, pair):
    R, Rp = pair
    return _psi_mp(b, R), (1 + R) ** (b - 1) * Rp


def orbit_by_mpmath(b: int, r0: float, count: int, seed_order: int = 10, dps: int = 40) -> list:
    """(R, R') float pairs at r0, r0 + 1, ..., seeded by the series at r0 and stepped in mpmath."""
    coeffs = asymptotic_expansion(b, seed_order)
    out = []
    with mp.workdps(dps):
        state = _seed_pair_mp(coeffs, -mp.mpf(r0))
        for _ in range(count):
            out.append((float(state[0]), float(state[1])))
            state = _step_mp(b, state)
    return out


def histogram_mass_all_terms(table, counts, tilt: float = 0.0) -> float:
    """sum_k c_k ((1 + R(r - n)) e^tilt)^k / |Gamma_n|^2 over every (k, c_k), in 30-digit mpmath."""
    with mp.workdps(30):
        step = mp.log1p(table.R_shifted) + tilt
        total = mp.fsum(c * mp.exp(k * step) for k, c in counts)
        gamma = path_count_int(LatticeParams(table.profile.b, table.profile.b), table.n)
        return float(total / mp.mpf(gamma) ** 2)


def asymptotic_R_two_term(b: int, r: float) -> float:
    """The quoted two-term vanishing asymptotic of R, valid for r << 0."""
    t = -r
    return kappa_sq(b) / t + kappa_sq(b) * eta(b) * math.log(t) / t**2
