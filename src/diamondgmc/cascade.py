"""Monte Carlo realization of the random polymer mass laws.

Total masses satisfy the in-law recursion

    M_{r+1} = (1/b) * sum_{i=1..b} prod_{j=1..b} M_r^{(i,j)}

with independent factors.  Populations approximate one step by drawing the
b^2 factors uniformly with replacement from the current population
(population dynamics); the exact tree of depth n is used only on top of
population-drawn leaves, for cylinder-level quantities.

Leaf arrays follow the lattice edge order: leaf k of a generation-n tree is
edge k, the base-b^2 integer whose most significant digit is the top-level
(branch, segment) pair.  A cylinder p then has mass b^(-d_n) prod_{e in p} l_e
(d_n branch decisions per path), so the total mass is the tree reduction
``tree_total`` and cylinder vectors (``assemble``) are needed only where a
check is stated per cylinder.

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
(master seed, realm, index, chunk), so outputs are bit-reproducible for a
fixed chunk count regardless of thread count.
"""

from __future__ import annotations

import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, UsageError
from .lattice import LatticeParams, path_count_int
from .rfunction import SEED_KINDS, VarianceProfile

# Stream realms (second key component after the master seed).
_REALM_SEED = 0
_REALM_EVOLVE = 1
_REALM_LEAF = 2

MEASURE_VECTOR_BUDGET = 1 << 16
MINIMUM_BASE_LEVEL = -16.0

POPULATION_MAGIC = b"DGMCPOP1"


def substream(master_seed: int, *key) -> np.random.Generator:
    """Counter-based generator for the given (master seed, key...) address."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SeedSpec:
    """Mean-one seed law for the base level of the recursion.

    two-point: mass 1/2 at 1 +- sqrt(V); matches mean 1, variance V and has
    third central moment zero.  lognormal: mean-one lognormal of variance V.
    deterministic-one: the exact fixed point (V ignored).
    """

    kind: str = "two-point"

    def __post_init__(self):
        if self.kind not in SEED_KINDS:
            raise UsageError(f"unknown seed kind {self.kind!r}; choose from {SEED_KINDS}")

    def draw(self, rng: np.random.Generator, size: int, variance: float) -> np.ndarray:
        if self.kind == "deterministic-one":
            return np.ones(size)
        if variance < 0:
            raise UsageError("seed variance must be >= 0")
        if self.kind == "lognormal":
            sigma_sq = math.log1p(variance)
            sigma = math.sqrt(sigma_sq)
            return rng.lognormal(mean=-0.5 * sigma_sq, sigma=sigma, size=size)
        if variance > 1.0:
            raise UsageError(
                f"two-point seed needs variance <= 1 for nonnegative support, got {variance}"
            )
        sigma = math.sqrt(variance)
        signs = 2.0 * rng.integers(0, 2, size=size) - 1.0
        return 1.0 + sigma * signs


@dataclass(frozen=True)
class Provenance:
    b: int
    r: float
    base_level: float
    depth: int
    size: int
    seed_kind: str
    seed_variance: float
    master_seed: int
    chunks: int
    overflow_count: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "b": self.b,
            "r": self.r,
            "base_level": self.base_level,
            "depth": self.depth,
            "size": self.size,
            "seed_kind": self.seed_kind,
            "seed_variance": self.seed_variance,
            "master_seed": self.master_seed,
            "chunks": self.chunks,
            "overflow_count": self.overflow_count,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass
class MassPopulation:
    """An empirical population of total masses at parameter r."""

    r: float
    masses: np.ndarray
    provenance: Provenance

    @property
    def size(self) -> int:
        return self.masses.size

    def mean_se(self):
        m = float(self.masses.mean())
        se = float(self.masses.std(ddof=1) / math.sqrt(self.size))
        return m, se

    def variance_se(self):
        """Sample variance and the standard error of that estimate."""
        dev_sq = (self.masses - self.masses.mean()) ** 2
        var = float(dev_sq.sum() / (self.size - 1))
        se = float(dev_sq.std(ddof=1) / math.sqrt(self.size))
        return var, se

    def central_moment_se(self, k: int):
        dev = (self.masses - self.masses.mean()) ** k
        return float(dev.mean()), float(dev.std(ddof=1) / math.sqrt(self.size))


def _chunk_sizes(total: int, chunks: int):
    base = total // chunks
    sizes = [base] * chunks
    for i in range(total - base * chunks):
        sizes[i] += 1
    return sizes


def population_step(masses: np.ndarray, b: int, streams, pool=None) -> np.ndarray:
    """One population-dynamics step by resampling with replacement, unnormalized.

    Output chunk ``c`` (sizes from ``_chunk_sizes``) draws the b^2 factors
    of each entry from ``streams[c]``; an executor ``pool`` runs the chunks
    concurrently without changing the result.
    """
    if masses.size < b * b:
        raise UsageError(f"population size {masses.size} is below b^2 = {b * b}")
    sizes = _chunk_sizes(masses.size, len(streams))

    def chunk(c):
        idx = streams[c].integers(0, masses.size, size=(b, b, sizes[c]))
        return masses[idx].prod(axis=1).sum(axis=0) / b

    chunks = range(len(sizes))
    return np.concatenate(list(pool.map(chunk, chunks)) if pool else [chunk(c) for c in chunks])


def _renormalize(out: np.ndarray):
    """Divide by the empirical mean; returns (normalized, pre-mean, pre-SE)."""
    pre_mean = float(out.mean())
    pre_se = float(out.std(ddof=1) / math.sqrt(out.size))
    if not math.isfinite(pre_mean) or pre_mean <= 0:
        return out, pre_mean, pre_se
    return out / pre_mean, pre_mean, pre_se


def simulate_mass_trajectory(
    b: int,
    r: float,
    seed_spec: SeedSpec,
    depth: int,
    size: int,
    master_seed: int,
    snapshot_levels=(),
    chunks: int = 1,
    threads: int = 1,
    profile: "VarianceProfile | None" = None,
) -> dict:
    """Population at r plus copies captured at intermediate trajectory levels.

    Seeds ``size`` draws of the seed law at r0 = r - depth (enforced to lie
    at or below the asymptotic validity level) and applies ``depth``
    population-dynamics steps with per-(iteration, chunk) streams.  Returns
    {level: MassPopulation} with the final level r always present.
    """
    if depth < 1:
        raise UsageError("depth must be >= 1")
    base_level = r - depth
    if base_level > MINIMUM_BASE_LEVEL:
        raise UsageError(
            f"base level r - depth = {base_level} is above {MINIMUM_BASE_LEVEL}; "
            f"increase depth so the asymptotic seed is in its validity regime"
        )
    offsets = {}
    for level in snapshot_levels:
        off = int(round(level - base_level))
        if not (0 < off <= depth) or abs(base_level + off - level) > 1e-9:
            raise UsageError(
                f"snapshot level {level} is not an integer step of the trajectory "
                f"{base_level}..{r}"
            )
        offsets[off] = float(level)
    profile = profile or VarianceProfile(b)
    variance = profile.evaluate_R(base_level)

    sizes = _chunk_sizes(size, chunks)
    masses = np.concatenate(
        [
            seed_spec.draw(substream(master_seed, _REALM_SEED, 0, c), n_c, variance)
            for c, n_c in enumerate(sizes)
        ]
    )
    out = {}
    pre_means, pre_ses, norm_log = [], [], 0.0

    def provenance(level, snapshot):
        detail = {
            "step_pre_means": list(pre_means),
            "step_pre_ses": list(pre_ses),
            "norm_log": norm_log,
        }
        if snapshot:
            detail["snapshot_of"] = r
        return Provenance(
            b=b,
            r=level,
            base_level=base_level,
            depth=int(round(level - base_level)),
            size=size,
            seed_kind=seed_spec.kind,
            seed_variance=variance,
            master_seed=master_seed,
            chunks=chunks,
            overflow_count=int(np.count_nonzero(~np.isfinite(masses))),
            detail=detail,
        )

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for iteration in range(1, depth + 1):
            streams = [
                substream(master_seed, _REALM_EVOLVE, iteration, c) for c in range(chunks)
            ]
            # rebinding first frees the input population before renormalizing allocates
            masses = population_step(masses, b, streams, pool)
            masses, pre_mean, pre_se = _renormalize(masses)
            pre_means.append(pre_mean)
            pre_ses.append(pre_se)
            if math.isfinite(pre_mean) and pre_mean > 0:
                norm_log += math.log(pre_mean)
            if iteration in offsets:
                level = offsets[iteration]
                out[level] = MassPopulation(level, masses.copy(), provenance(level, True))

    out[r] = MassPopulation(r, masses, provenance(r, False))
    return out


def simulate_mass_law(
    b: int,
    r: float,
    seed_spec: SeedSpec,
    depth: int,
    size: int,
    master_seed: int,
    chunks: int = 1,
    threads: int = 1,
    profile: "VarianceProfile | None" = None,
) -> MassPopulation:
    """Population of total masses at r (see :func:`simulate_mass_trajectory`)."""
    return simulate_mass_trajectory(
        b,
        r,
        seed_spec,
        depth,
        size,
        master_seed,
        chunks=chunks,
        threads=threads,
        profile=profile,
    )[r]


def fractional_moment(pop: MassPopulation, theta: float):
    """Sample mean and standard error of mass^theta."""
    if not (0.0 < theta <= 1.0):
        raise UsageError(f"theta must lie in (0, 1], got {theta}")
    vals = pop.masses**theta
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return est, se


# -- cylinder-mass vectors -----------------------------------------------------


@dataclass
class MeasureSample:
    """One realization of the cylinder-mass vector at (r, n).

    ``masses[k]`` is the mass of the cylinder with ``lattice.path_index`` k,
    i.e. of row k of ``lattice.enumerate_paths``; ``child_subtotals``
    holds the top-level (branch, segment) sub-measure totals used by the
    additivity audit.
    """

    r: float
    n: int
    b: int
    masses: np.ndarray
    child_subtotals: np.ndarray  # shape (b, b)
    provenance: Provenance

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def additivity_gap(self) -> float:
        """Relative gap between the vector total and its recursive assembly."""
        recombined = self.child_subtotals.prod(axis=1).sum() / self.b
        return abs(self.total - recombined) / max(abs(recombined), 1e-300)


def _check_measure_budget(b: int, n: int):
    params = LatticeParams(b, b)
    count = path_count_int(params, n)
    if count > MEASURE_VECTOR_BUDGET or b ** (2 * n) > MEASURE_VECTOR_BUDGET:
        feasible = max(
            k
            for k in range(n)
            if path_count_int(params, k) <= MEASURE_VECTOR_BUDGET
            and b ** (2 * k) <= MEASURE_VECTOR_BUDGET
        )
        raise BudgetError(
            f"cylinder vector at generation {n} needs |Gamma_n| = {count} entries "
            f"and b^(2n) = {b ** (2 * n)} leaves; largest feasible n is {feasible}"
        )


def upsilon_combine(sub_vectors: np.ndarray) -> np.ndarray:
    """One renormalization step on cylinder vectors.

    ``sub_vectors[..., i, j, :]`` holds the b x b sub-measure vectors; branch
    ``i`` contributes the flattened outer product over its b segments, and the
    blocks are concatenated in branch order and divided by b.  The layout
    matches the canonical cylinder index of the lattice module.
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


def assemble(leaves: np.ndarray, b: int, n: int) -> np.ndarray:
    """Cylinder vectors from leaf masses in edge order (leading axes batch).

    Applies ``upsilon_combine`` level by level from the leaves up; the result
    has |Gamma_n| entries per realization, hence the budget check.
    """
    _check_measure_budget(b, n)
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


def tree_total(leaves: np.ndarray, b: int) -> np.ndarray:
    """Total mass over leaves in edge order, reduced along the first axis.

    Each level applies T = (1/b) sum_i prod_j T_ij to the b^2 children of a
    node; trailing axes (draws, say) are carried along.
    """
    totals = np.asarray(leaves, dtype=float)
    while totals.shape[0] > 1:
        totals = totals.reshape(-1, b, b, *totals.shape[1:]).prod(axis=2).sum(axis=1) / b
    return totals[0]


def default_leaf_population(
    b: int,
    r: float,
    n: int,
    depth: int,
    seed_spec: SeedSpec,
    master_seed: int,
    pop_size: int = 1_000_000,
    chunks: int = 1,
    threads: int = 1,
    profile: "VarianceProfile | None" = None,
) -> MassPopulation:
    """Population at the leaf level r - n used to draw measure-sample leaves."""
    if depth < n + 1:
        raise UsageError(f"depth {depth} must exceed the generation {n}")
    return simulate_mass_law(
        b,
        r - n,
        seed_spec,
        depth - n,
        pop_size,
        master_seed,
        chunks=chunks,
        threads=threads,
        profile=profile,
    )


def sample_measure_batch(
    b: int,
    r: float,
    n: int,
    count: int,
    leaf_population: MassPopulation,
    master_seed: int,
) -> np.ndarray:
    """Leaf masses for ``count`` independent realizations at (r, n).

    Returns an array of shape (count, b^(2n)) in edge order; realization ``i``
    draws its leaves from the substream (master seed, leaf realm, i).
    """
    if leaf_population.r != r - n:
        raise UsageError(
            f"leaf population is at r = {leaf_population.r}, need r - n = {r - n}"
        )
    n_leaves = b ** (2 * n)
    pool = leaf_population.masses
    leaves = np.empty((count, n_leaves))
    for i in range(count):
        rng = substream(master_seed, _REALM_LEAF, i)
        leaves[i] = pool[rng.integers(0, pool.size, size=n_leaves)]
    return leaves


def sample_measure_cylinders(
    b: int,
    r: float,
    n: int,
    depth: int,
    seed_spec: SeedSpec,
    master_seed: int,
    leaf_population: "MassPopulation | None" = None,
    pop_size: int = 1_000_000,
    chunks: int = 1,
    profile: "VarianceProfile | None" = None,
) -> MeasureSample:
    """One cylinder-mass realization at (r, n) over population-drawn leaves."""
    if n < 1:
        raise UsageError("generation must be >= 1")
    if leaf_population is None:
        leaf_population = default_leaf_population(
            b, r, n, depth, seed_spec, master_seed, pop_size, chunks=chunks, profile=profile
        )
    n_leaves = b ** (2 * n)
    rng = substream(master_seed, _REALM_LEAF, 0)
    leaves = leaf_population.masses[
        rng.integers(0, leaf_population.size, size=n_leaves)
    ]
    masses = assemble(leaves, b, n)
    subtotals = tree_total(leaves.reshape(b * b, -1).T, b).reshape(b, b)
    prov = replace(
        leaf_population.provenance,
        r=r,
        detail={"generation": n, "leaves": n_leaves, "leaf_level": r - n},
    )
    return MeasureSample(r, n, b, masses, subtotals, prov)


# -- population persistence ----------------------------------------------------


def write_population(path, pop: MassPopulation):
    """Binary snapshot: magic, version header (JSON), then little-endian float64."""
    header = {"version": 1, **pop.provenance.to_dict()}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(POPULATION_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(pop.masses.astype("<f8").tobytes())


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
    prov = Provenance(
        b=header["b"],
        r=header["r"],
        base_level=header["base_level"],
        depth=header["depth"],
        size=header["size"],
        seed_kind=header["seed_kind"],
        seed_variance=header["seed_variance"],
        master_seed=header["master_seed"],
        chunks=header["chunks"],
        overflow_count=header["overflow_count"],
        detail=header.get("detail", {}),
    )
    return MassPopulation(header["r"], data.copy(), prov)
