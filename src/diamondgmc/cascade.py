"""Monte Carlo realization of the random polymer mass laws.

Total masses satisfy the in-law recursion

    M_{r+1} = (1/b) * sum_{i=1..b} prod_{j=1..b} M_r^{(i,j)}

with independent factors.  Populations approximate one step by drawing the
b^2 factors uniformly with replacement from the current population
(population dynamics); the exact tree of depth n is used only on top of
population-drawn leaves, for cylinder-level quantities.  ``population_step``
draws the b^2 factors one at a time, in the order of one (b, b, size) draw;
besides input and output it holds one branch product and one index block.

A trajectory runs as ``ISLANDS`` independent populations (islands), each
seeded from its own stream, resampled only within itself and renormalized by
its own mean.  Entries of one population share ancestors, so their spread
understates the population's own error; the islands are independent
replicas, and every population statistic takes its SE from the spread of
its J island values.  The generation-n leaves of a measure realization at r
are total masses at level r - n, which the trajectory to r passes through:
a trajectory draws the leaves it is asked for on its way, and realization i
draws its leaves from island i mod J as that island reaches r - n, so
realizations grouped by island are independent and their group means carry
the pool's own error.

Leaf arrays follow the lattice edge order: leaf k of a generation-n tree is
edge k, the base-b^2 integer whose most significant digit is the top-level
(branch, segment) pair.  A cylinder p then has mass b^(-d_n) prod_{e in p} l_e
(d_n branch decisions per path), so no check needs the |Gamma_n| cylinder
masses themselves: the total mass is the tree reduction ``tree_total``, and
every functional of k-tuples of cylinders that sees them only through their
shared-edge counts is read off the same reduction on polynomials in z
(``overlap_moments``): the pair sums by shared-edge count,
S_d = sum_{N(p, q) = d} M_p M_q, are the coefficients of Q_2.

One stabilization is essential: the empirical mean obeys mean' = mean^b, so
an O(N^-1/2) sampling drift at depth m is amplified by b^m and the raw
iteration leaves double range within a few dozen steps at any feasible
population size.  Each step therefore divides by the empirical mean, which
pins the mean at the exact value 1 of the target law; the divided-out
factors and the pre-normalization step means are recorded so the mean
preservation of one raw step remains a testable statistic.

No finite-level law is prescribed for the seeds (the target laws arise as a
continuum limit), so populations are seeded at a base level r0 = r - depth,
deep enough that the law is near the deterministic unit mass, with a
mean-one law matching the variance R(r0); seed insensitivity is part of the
test suite rather than an assumption.

Reproducibility: every stream is a Philox generator keyed by
(master seed, realm, index, island), so outputs are bit-reproducible; each
island runs its whole trajectory as one task on up to one thread each, and
writes only its own rows, so the thread count changes no byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    AUDIT_CELL_BUDGET, ORBIT_LEVEL_BUDGET, POPULATION_SIZE_BUDGET, UsageError, check_budget,
)
from .reporting import mean_se
from .rfunction import MINIMUM_BASE_LEVEL, SeedSpec, VarianceProfile  # SeedSpec: re-exported

# Stream realms (second key component after the master seed).
_REALM_SEED = 0
_REALM_EVOLVE = 1
_REALM_LEAF = 2

# A population step gathers POPULATION_BLOCK entries at a time.
POPULATION_BLOCK = 1 << 15
# Independent islands of every trajectory: the unit of streams, of threads and
# of the population statistics' SEs.  A 1M-entry population makes islands of
# 62 500 entries (500 KB), which gather faster than the whole 8 MB.
ISLANDS = 16

POPULATION_MAGIC = b"DGMCPOP1"


def worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: min(tasks, usable CPUs), at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(tasks, cpus or 1))


def for_each(task, count: int):
    """Run ``task(i)`` for i = 0..count-1 on ``worker_count(count)`` threads.

    A plain loop at one worker.  numpy releases the interpreter lock in the
    draws, ``take``, ``exp`` and the tree reductions; each task writes only
    its own rows from its own substream, so the thread count changes no byte.
    """
    workers = worker_count(count)
    if workers == 1:
        for i in range(count):
            task(i)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(task, range(count)))  # list() re-raises a task's error


def substream(master_seed: int, *key) -> np.random.Generator:
    """Counter-based generator for the given (master seed, key...) address."""
    if master_seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {master_seed}")
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _island_slices(size: int) -> list:
    """The ``ISLANDS`` slices of a population of ``size`` entries, in stream
    order; the first size % J islands hold one entry more."""
    base, extra = divmod(size, ISLANDS)
    starts = [j * base + min(j, extra) for j in range(ISLANDS + 1)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]


@dataclass
class MassPopulation:
    """An empirical population of total masses in ``ISLANDS`` islands, with the
    header ``population.bin`` stores: the trajectory's settings (level ``r``
    among them), its overflow count and its step record (``detail``)."""

    masses: np.ndarray
    header: dict

    @property
    def size(self) -> int:
        return self.masses.size

    @property
    def islands(self) -> list:
        """The J island slices of ``masses`` (views), each an independent population."""
        return [self.masses[s] for s in _island_slices(self.size)]

    def island_mean_se(self, values: np.ndarray, ddof: int = 0) -> tuple:
        """sum(values) / (size - ddof), for one value per entry, and its SE from
        the spread of the J island values sum / (island size - ddof)."""
        slices = _island_slices(self.size)
        sums = np.add.reduceat(values, [s.start for s in slices])
        island = sums / np.array([s.stop - s.start - ddof for s in slices])
        return float(values.sum() / (self.size - ddof)), float(
            island.std(ddof=1) / math.sqrt(ISLANDS))

    def central_moments_se(self, k_max: int) -> dict:
        """{k: (estimate, island SE)} for k = 2..k_max: the sample variance (over
        size - 1), then means of k-th powers of the deviations, as in-place
        products by fresh deviations (numpy's float ``**`` with an integer
        exponent above 2 calls ``pow`` per entry, about 10x slower); two such
        arrays live at most."""
        mean = self.masses.mean()
        power = self.masses - mean
        power *= power
        moments = {2: self.island_mean_se(power, ddof=1)}
        for k in range(3, k_max + 1):
            power *= self.masses - mean
            moments[k] = self.island_mean_se(power)
        return moments


def population_step(masses: np.ndarray, b: int, rng, out=None) -> np.ndarray:
    """One population-dynamics step by resampling with replacement, unnormalized.

    Each output entry draws its b^2 factors from ``rng``, one factor (i, j)
    at a time in C order, in blocks of ``POPULATION_BLOCK`` entries, which
    consumes the stream exactly as one (b, b, size) draw would; the product
    over j and the sum over i run in place, into ``out`` when given (an
    array of the input's size) and else into a fresh array.
    """
    size = masses.size
    if size < b * b:
        raise UsageError(f"population size {size} is below b^2 = {b * b}")
    total = np.empty(size) if out is None else out
    term, factor = np.empty(size), np.empty(min(size, POPULATION_BLOCK))
    for i in range(b):
        acc = total if i == 0 else term
        for j in range(b):
            for lo in range(0, size, POPULATION_BLOCK):
                block = acc[lo : lo + POPULATION_BLOCK]
                into = factor[: block.size] if j else block
                # the indices are in range, so "clip" never acts; it spares
                # the bounds-checked mode its temporary copy of ``into``
                masses.take(rng.integers(size, size=into.size), out=into, mode="clip")
                if j:
                    block *= into
        if i:
            total += term
    total /= b
    return total


def _renormalize(out: np.ndarray) -> tuple:
    """Divide by the empirical mean in place; returns (pre-mean, pre-SE)."""
    pre_mean, pre_se = mean_se(out)
    if math.isfinite(pre_mean) and pre_mean > 0:
        out /= pre_mean
    return pre_mean, pre_se


def simulate_mass_trajectory(
    b: int,
    r: float,
    seed_spec: SeedSpec,
    depth: int,
    size: int,
    master_seed: int,
    leaves=None,
    profile: "VarianceProfile | None" = None,
) -> tuple:
    """Population at r, of ``ISLANDS`` islands, and the leaves it was asked for.

    Seeds ``size`` draws of the seed law at r0 = r - depth (enforced to lie
    at or below the asymptotic validity level; ``size`` and ``depth`` are
    held to their budgets before the first draw) and applies ``depth``
    population-dynamics steps.  Island j draws its seed from the stream
    (seed realm, 0, j) and step t from (evolve realm, t, j); it runs its
    whole depth as one ``for_each`` task and writes its final rows into its
    slice of an array allocated up front, so no step writes its input and no
    population is copied.  The recorded step means and SEs combine the
    islands' (entries are iid within a step, given the previous population).

    ``leaves=(r_m, n, count)`` asks for the leaf masses of ``count``
    independent measure realizations at (r_m, n): total masses at level
    r_m - n, which must be a step of the trajectory.  Realization i draws its
    b^(2n) leaves, in edge order, from island i mod J as soon as that island
    has reached r_m - n, with the substream (master seed, leaf realm, i).
    Returns (population at r, leaves of shape (count, b^(2n)) or None).
    """
    if depth < 1:
        raise UsageError("depth must be >= 1")
    base_level = r - depth
    check_budget("population", size, POPULATION_SIZE_BUDGET)
    check_budget(f"population trajectory from r = {base_level} to {r}", depth, ORBIT_LEVEL_BUDGET)
    if size < ISLANDS * b * b:
        raise UsageError(
            f"population size {size} is below {ISLANDS} islands of b^2 = {b * b} entries"
        )
    if base_level > MINIMUM_BASE_LEVEL:
        raise UsageError(
            f"base level r - depth = {base_level} is above {MINIMUM_BASE_LEVEL}; "
            f"increase depth so the asymptotic seed is in its validity regime"
        )
    leaf_step, batch = None, None
    if leaves is not None:
        r_m, n, count = leaves
        leaf_step = int(round(r_m - n - base_level))
        if not (0 < leaf_step <= depth) or abs(base_level + leaf_step - (r_m - n)) > 1e-9:
            raise UsageError(
                f"leaf level r - n = {r_m - n} is not a level of the trajectory "
                f"{base_level}..{r}"
            )
        batch = np.empty((count, b ** (2 * n)))
    profile = profile or VarianceProfile(b)
    variance = profile.evaluate_R(base_level)

    final = np.empty(size)
    slices = _island_slices(size)
    pre = np.empty((2, depth, ISLANDS))  # each step's pre-normalization mean and SE

    def island(j):
        own = slices[j]
        seed_rng = substream(master_seed, _REALM_SEED, 0, j)
        masses = seed_spec.draw(seed_rng, own.stop - own.start, variance)
        # a seed of mean m makes the first step's mean m^b: at mean 1 every
        # step's raw mean has expectation 1
        _renormalize(masses)
        for iteration in range(1, depth + 1):
            into = final[own] if iteration == depth else None
            rng = substream(master_seed, _REALM_EVOLVE, iteration, j)
            # rebinding first frees the input population before the next step allocates
            masses = population_step(masses, b, rng, into)
            pre[:, iteration - 1, j] = _renormalize(masses)
            if iteration == leaf_step:
                for i in range(j, batch.shape[0], ISLANDS):
                    rng = substream(master_seed, _REALM_LEAF, i)
                    batch[i] = masses[rng.integers(0, masses.size, size=batch.shape[1])]

    for_each(island, ISLANDS)
    # exact sums, so that a step's figures do not depend on the steps after it
    counts = np.array([s.stop - s.start for s in slices])
    pre_means = [math.fsum(row) / size for row in pre[0] * counts]
    pre_ses = [math.sqrt(math.fsum(row)) / size for row in (pre[1] * counts) ** 2]
    header = {
        "b": b,
        "r": r,
        "base_level": base_level,
        "depth": depth,
        "size": size,
        "seed_kind": seed_spec.kind,
        "seed_variance": variance,
        "master_seed": master_seed,
        "overflow_count": int(np.count_nonzero(~np.isfinite(final))),
        "detail": {
            "step_pre_means": pre_means,
            "step_pre_ses": pre_ses,
            "norm_log": math.fsum(math.log(m) for m in pre_means if math.isfinite(m) and m > 0),
        },
    }
    return MassPopulation(final, header), batch


def island_group_mean_se(values: np.ndarray) -> tuple:
    """Mean of per-realization ``values`` and its SE over the island groups.

    Realization i draws its leaves from island i mod J (``simulate_mass_trajectory``),
    so the group means are independent, and each carries its island's own
    error, which the spread over realizations alone leaves out.  Given the
    pool the realizations are independent, so their own SE is a lower bound
    that the pool's error only adds to; with J - 1 degrees of freedom the
    groups' spread can fall under it, and the SE is then that bound.
    """
    groups = [values[j::ISLANDS].mean() for j in range(min(ISLANDS, values.size))]
    mean, iid_se = mean_se(values)
    return mean, max(float(np.std(groups, ddof=1) / math.sqrt(len(groups))), iid_se)


def tree_total(leaves: np.ndarray, b: int) -> np.ndarray:
    """Total mass over leaves in edge order, reduced along the first axis.

    Each level applies T = (1/b) sum_i prod_j T_ij to the b^2 children of a
    node; trailing axes (draws, say) are carried along.
    """
    totals = np.asarray(leaves, dtype=float)
    while totals.shape[0] > 1:
        totals = totals.reshape(-1, b, b, *totals.shape[1:]).prod(axis=2).sum(axis=1) / b
    return totals[0]


def _poly_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials with coefficients along the first axis, other axes elementwise."""
    out = np.zeros((len(p) + len(q) - 1, *p.shape[1:]))
    for d, row in enumerate(q):
        out[d : d + len(p)] += p * row
    return out


def overlap_moments(leaves: np.ndarray, b: int, m: int) -> list:
    """Overlap polynomials Q_0 .. Q_m of the cylinder measure over ``leaves``.

    Q_k(z) = sum over ordered k-tuples of cylinders of prod_i M(p_i)
    z^(sum_{i<j} N(p_i, p_j)), as coefficients along the first axis; leaves
    of a generation n >= 1 tree and trailing axes as in ``tree_total``.  A
    leaf is l^k z^C(k, 2), segments in series multiply, and branches, which
    share no edge, combine binomially:
    Q_k = b^(-k) sum_r C(k, r) Q_r^(acc) Q_(k-r)^(i), Q_0 = 1.
    Tuples that meet in a bottom branch share all b of its edges, so the
    recursion runs in w = z^b from level one, where a bottom branch of leaf
    product u carries u^r w^C(r, 2).
    """
    leaves = np.asarray(leaves, dtype=float)
    rest = leaves.shape[1:]
    u = leaves.reshape(-1, b, b, *rest).prod(axis=2)
    branches = [None]
    for r in range(1, m + 1):
        branches.append(np.zeros((math.comb(r, 2) + 1, *u.shape)))
        np.power(u, r, out=branches[r][-1])
    del u  # one leaf-level array fewer at the fold, where the audit peaks
    while True:
        moments = [None] + [p[:, :, 0] for p in branches[1:]]
        for i in range(1, b):
            # descending k, so that moments[r < k] still hold the branches before i;
            # the r = 0 and r = k terms reach the full degree, the others do not
            for k in range(m, 0, -1):
                acc = moments[k] + branches[k][:, :, i]
                for r in range(1, k):
                    cross = _poly_product(moments[r], branches[k - r][:, :, i])
                    acc[: len(cross)] += math.comb(k, r) * cross
                moments[k] = acc
        moments = [None] + [q / float(b) ** k for k, q in enumerate(moments) if k]
        if moments[1].shape[1] == 1:
            break
        branches = [None] + [
            reduce(_poly_product, np.moveaxis(q.reshape(len(q), -1, b, b, *rest), 3, 0))
            for q in moments[1:]
        ]
    out = [np.ones((1, *rest))]
    for q in moments[1:]:
        out.append(np.zeros((b * (len(q) - 1) + 1, *rest)))
        out[-1][::b] = q[:, 0]
    return out


def horner(coeffs: np.ndarray, z: float) -> np.ndarray:
    """Polynomial with coefficients along the first axis at z; for z >= 1 and
    nonnegative coefficients no partial sum exceeds the result, and a result
    beyond double range reads inf, without a warning.  (Importing
    numpy.polynomial for this would add to every command's start.)"""
    value = np.zeros(coeffs.shape[1:])
    with np.errstate(over="ignore"):
        for row in coeffs[::-1]:
            value = value * z + row
    return value


def edge_cells(b: int, n: int, rows: int, unit: str) -> tuple:
    """``check_budget``'s (need, budget, hint) for ``rows`` rows of b^(2n) edge
    cells (leaves or gaussians); the hint names the largest generation below
    ``n`` whose rows fit ``AUDIT_CELL_BUDGET``."""
    # b^(2k) >= 4^k passes the budget before k reaches its bit length
    top = min(n, AUDIT_CELL_BUDGET.bit_length())
    fits = [k for k in range(top) if rows * b ** (2 * k) <= AUDIT_CELL_BUDGET]
    hint = f"largest feasible n at {rows} {unit} is {fits[-1]}" if fits else (
        f"no n is feasible at {rows} {unit}")
    return rows * b ** (2 * n), AUDIT_CELL_BUDGET, hint


def leaf_level(r: float, n: int, depth: int) -> float:
    """Level r - n of the generation-n leaves; ``depth`` must leave a step below it."""
    if depth < n + 1:
        raise UsageError(f"depth {depth} must exceed the generation {n}")
    return r - n


# -- population persistence ----------------------------------------------------


def write_population(path, pop: MassPopulation):
    """Binary snapshot: magic, version header (JSON), then little-endian float64."""
    header = {"version": 1, **pop.header}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(POPULATION_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(pop.masses, dtype="<f8").data)


def read_population(path) -> MassPopulation:
    with open(path, "rb") as fh:
        magic = fh.read(len(POPULATION_MAGIC))
        if magic != POPULATION_MAGIC:
            raise UsageError(f"{path} is not a population snapshot (bad magic {magic!r})")
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length).decode("utf-8"))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != header["size"]:
        raise UsageError(
            f"{path}: expected {header['size']} masses, found {data.size}"
        )
    header.pop("version", None)
    return MassPopulation(data.copy(), header)
