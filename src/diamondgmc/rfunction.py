"""Total-mass variance profile R(r), its derivative, and the moment ladder.

R is the increasing solution of the one-step renormalization recursion

    R(r + 1) = psi_b(R(r)),        psi_b(x) = ((1 + x)^b - 1) / b,

pinned by its vanishing asymptotics as r -> -infinity,

    R(r) = kappa^2/(-r) + kappa^2 * eta * log(-r)/r^2 + O(log^2(-r)/r^3),

with kappa^2 = 2/(b - 1) and eta = (b + 1)/(3 (b - 1)).  Because the recursion
admits a one-parameter family of vanishing solutions (translates of each
other, which shift the 1/r^2 constant term), the stated error bound pins the
solution uniquely: it forces the log-free 1/r^2 coefficient to zero.

Evaluation strategy: seed far below the target at r0 = r - m with a truncated
asymptotic series, iterate psi_b forward m times, and double m until two
successive answers agree to tolerance.  The forward map amplifies seed error
by roughly m^2 in absolute terms, so the two-term seed alone cannot reach
1e-12; :func:`asymptotic_expansion` therefore extends the series to arbitrary
order with exact rational coefficients derived from the recursion itself
(the first two reproduce kappa^2 and kappa^2*eta).  It solves one order at a
time: the order-k coefficients enter the balance at order k + 1 linearly with
closed-form slopes, so one residual evaluation per order determines them, and
a final full-balance check proves that every order through the last vanishes
exactly.  Each residual runs on integer numerators with one denominator per
series (y over the lcm D of its denominators, psi_b(y) over b D^b), and
only its result is turned into Fractions.  Only the seed is evaluated in
``decimal``, with guard digits.  The orbit is iterated in integer fixed point
with at least ``PRECISION_DPS`` significant digits, built once per residue
class r mod 1 and cached, so the recursion identity psi_b(R(r)) = R(r+1) holds to
rounding on any evaluated grid.

R'(r) rides along the same orbit via the differentiated recursion
R'(r + 1) = (1 + R(r))^(b-1) R'(r), seeded with the series derivative.

Raw total-mass moments follow the map obtained from the in-law recursion
M_{r+1} = (1/b) * sum_i prod_j M_r^{(i,j)} with independent factors: a
branch prod_j M_r^{(i,j)} has moments x_k = m_k(r)^b, and independent
branches add, so their moments fold by binomial convolution,

    m_k(r + 1) = b^(-k) * (x * ... * x)_k,   (x * y)_k = sum_j C(k, j) x_j y_(k-j),

with b factors x, iterated from a seed law of prescribed mean 1 and
variance R(r0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    MOMENT_ORDER_BUDGET, ORBIT_LEVEL_BUDGET, PROFILE_LEVEL_BUDGET, ConvergenceError, DomainError,
    RangeError, UsageError, check_budget,
)

_FLOAT_CAP = 1e300
# the terms (C(k, j), j, k - j) of the moment ladder's binomial fold, per order k
_FOLD_TERMS = [
    [(math.comb(k, j), j, k - j) for j in range(k + 1)]
    for k in range(MOMENT_ORDER_BUDGET + 1)
]

SEED_KINDS = ("lognormal", "two-point")
# The highest base level a seed law is drawn at, or a moment ladder of given
# depth seeded at: the seed laws match R there, in its asymptotic regime.
MINIMUM_BASE_LEVEL = -16.0

# The R evaluator seeds its orbit SEED_DEPTH levels below the target with the
# asymptotic series through 1/t^SEED_ORDER and doubles the depth, up to
# MAX_SEED_DEPTH, until two successive values agree within TOLERANCE
# (relative above 1); the orbit keeps at least PRECISION_DPS significant
# decimal digits.
SEED_DEPTH = 1024
SEED_ORDER = 10
MAX_SEED_DEPTH = 1 << 16
TOLERANCE = 1e-12
PRECISION_DPS = 40
# R leaves double range above r = 9 (b = 2; lower for larger b), so no orbit
# is probed higher: above, the orbit runs into its overflow and reports it.
TOP_PROBE = 16


def kappa_sq(b: int) -> float:
    return 2.0 / (b - 1)


def eta(b: int) -> float:
    return (b + 1) / (3.0 * (b - 1))


def psi(b: int, x: float) -> float:
    """((1 + x)^b - 1)/b for x >= 0, stable for x << 1 via expm1/log1p."""
    if not isinstance(b, (int, np.integer)) or b < 2:
        raise UsageError(f"b must be an integer >= 2, got {b}")
    if x < 0:
        raise DomainError(f"psi is restricted to x >= 0, got {x}")
    return math.expm1(b * math.log1p(x)) / b


# -- exact asymptotic expansion ----------------------------------------------
#
# Ansatz: with t = -r and L = log t,
#     R(r) = sum_{k>=1} P_k(L) / t^k,  deg P_k = k - 1,
# and the recursion y(t-1) = psi_b(y(t)) determines every coefficient once
# the leading coefficient kappa^2 and the log-free 1/t^2 coefficient (zero,
# by the stated error bound) are fixed.  The coefficients are Fractions; the
# residual runs on integer numerators over one denominator per series and
# returns Fractions.  A key (k, j) holds the coefficient of L^j / t^k.


def _series_mul(u, v, k_cap):
    """Product of two integer-numerator series, truncated at 1/t^k_cap."""
    out = {}
    for (k1, j1), c1 in u.items():
        for (k2, j2), c2 in v.items():
            k = k1 + k2
            if k <= k_cap:
                key = (k, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def _shift_basis(k, m, k_cap):
    """(t - 1)^-k delta^m through 1/t^k_cap, over lcm(1..k_cap)^m.

    With 1/(t - 1)^k = sum_i C(k - 1 + i, i) t^-(k + i) and
    delta = log(t - 1) - log t = -sum_{i>=1} t^-i / i; returned as
    (k', numerator) pairs of the 1/t^k' terms.
    """
    lcm = math.lcm(*range(1, k_cap + 1))
    series = {k + i: math.comb(k - 1 + i, i) for i in range(k_cap - k + 1)}
    for _ in range(m):
        product = {}
        for kk, c in series.items():
            for i in range(1, k_cap - kk + 1):
                product[kk + i] = product.get(kk + i, 0) - c * (lcm // i)
        series = product
    return tuple(series.items())


def _residual(coeffs, b, k_cap):
    """Nonzero coefficients of psi_b(y(t)) - y(t - 1), truncated at 1/t^k_cap.

    y = coeffs is held over D, the lcm of its denominators, so psi_b(y) =
    sum_d C(b, d) y^d / b is held over b D^b, and the shifted series
    y(t - 1) = sum c (L + delta)^j / (t - 1)^k over D lcm(1..k_cap)^max_j.
    """
    D = math.lcm(*(c.denominator for c in coeffs.values()))
    y = {key: c.numerator * (D // c.denominator) for key, c in coeffs.items() if c}
    psi_num = {}
    power = y
    for d in range(1, b + 1):
        scale = math.comb(b, d) * D ** (b - d)
        for key, c in power.items():
            psi_num[key] = psi_num.get(key, 0) + scale * c
        if d < b:
            power = _series_mul(power, y, k_cap)
    max_j = max((j for _, j in y), default=0)
    lcm = math.lcm(*range(1, k_cap + 1))
    lcm_pow = lcm**max_j
    shift_num = {}
    for (k, j), c in y.items():
        for m in range(j + 1):
            scale = c * math.comb(j, m) * lcm ** (max_j - m)
            for kk, cc in _shift_basis(k, m, k_cap):
                key = (kk, j - m)
                shift_num[key] = shift_num.get(key, 0) + scale * cc
    # over the common denominator b D^b lcm(1..k_cap)^max_j
    shift_scale = b * D ** (b - 1)
    den = b * D**b * lcm_pow
    res = {}
    for key in psi_num.keys() | shift_num.keys():
        num = psi_num.get(key, 0) * lcm_pow - shift_num.get(key, 0) * shift_scale
        if num:
            res[key] = Fraction(num, den)
    return res


@lru_cache(maxsize=None)
def asymptotic_expansion(b: int, order: int):
    """Exact series coefficients {(k, j): Fraction} of R through 1/t^order."""
    if b < 2 or order < 2:
        raise UsageError("need b >= 2 and order >= 2")
    coeffs = {(1, 0): Fraction(2, b - 1), (2, 0): Fraction(0)}
    for k in range(2, order + 1):
        # The order-k coefficients are fixed by the balance at order k + 1,
        # where they enter linearly and nothing else of theirs survives: an
        # unknown c L^j / t^k adds (2 - k) c to the L^j equation (from the
        # cross term of psi_b with kappa^2/t and from the shift of 1/t^k)
        # and j c to the L^(j-1) equation (from the shift of L^j).  So one
        # residual with the unknowns at zero solves the whole order.
        unknown = [j for j in range(k - 1, -1, -1) if (k, j) not in coeffs]
        for j in unknown:
            coeffs[(k, j)] = Fraction(0)
        res = _residual(coeffs, b, k + 1)
        for j in unknown:
            if k == 2:
                # (2 - k) vanishes: L^j is determined by the L^(j-1) equation
                coeffs[(k, j)] = -res.get((k + 1, j - 1), Fraction(0)) / j
            else:
                above = (j + 1) * coeffs.get((k, j + 1), Fraction(0))
                coeffs[(k, j)] = -(res.get((k + 1, j), Fraction(0)) + above) / (2 - k)
    # Self-check: every balanced order must now vanish identically.
    res = _residual(coeffs, b, order + 1)
    bad = {key: c for key, c in res.items() if key[0] <= order + 1 and c != 0}
    if bad:
        raise RuntimeError(f"asymptotic expansion failed to balance: {bad}")
    return coeffs


def _seed_pair(coeffs, t):
    """Series value of (R, R') at r = -t in the active decimal context."""
    L = t.ln()
    R = Rp = Decimal(0)
    for (k, j), c in coeffs.items():
        c = Decimal(c.numerator) / c.denominator
        Lj = L**j
        R += c * Lj / t**k
        deriv = k * Lj - (j * L ** (j - 1) if j else 0)
        Rp += c * deriv / t ** (k + 1)
    return R, Rp


class _Orbit:
    """One residue class of the recursion, iterated upward from a deep seed.

    The state (R, R') at the top cached offset is held as integers scaled
    by 2^bits.
    """

    __slots__ = ("xi", "base_floor", "depth", "values", "bits", "R", "Rp")

    def __init__(self, xi, base_floor, depth, bits, R, Rp):
        self.xi = xi
        self.base_floor = base_floor
        self.depth = depth
        self.bits = bits
        self.R = R
        self.Rp = Rp
        one = 1 << bits
        # (R, R') float pairs, offset i <-> r = xi + base_floor + i
        self.values = [(R / one, Rp / one)]


@dataclass
class VarianceProfile:
    """Evaluator for R and R' pinned by the r -> -infinity asymptotics."""

    b: int
    _orbits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.b < 2:
            raise UsageError("b must be >= 2")

    # -- orbit machinery ----------------------------------------------------

    def _build_orbit(self, xi, probe_floor):
        coeffs = asymptotic_expansion(self.b, SEED_ORDER)
        depth = SEED_DEPTH
        prev = None
        while depth <= MAX_SEED_DEPTH:
            base_floor = probe_floor - depth
            with localcontext(Context(prec=PRECISION_DPS + 10)):
                R, Rp = _seed_pair(coeffs, -(Decimal(xi) + base_floor))
                # R' is the smaller of the two and only grows upward, so
                # scaling for its digits (R' >= 10^adjusted) keeps both at
                # PRECISION_DPS digits
                bits = math.ceil((PRECISION_DPS - min(0, Rp.adjusted())) * math.log2(10))
                orbit = _Orbit(xi, base_floor, depth, bits, int(R * 2**bits), int(Rp * 2**bits))
            self._extend_orbit(orbit, probe_floor)
            probe_val = orbit.values[-1][0]
            if prev is not None:
                scale = max(1.0, abs(probe_val))
                if abs(probe_val - prev) <= TOLERANCE * scale:
                    return orbit
            prev = probe_val
            depth *= 2
        raise ConvergenceError(
            f"R evaluation did not stabilize within depth {MAX_SEED_DEPTH} "
            f"at r ~ {xi + probe_floor} (b={self.b})",
            last_iterates=(prev, probe_val),
        )

    def _extend_orbit(self, orbit, top_floor):
        """Step the orbit up to ``top_floor`` in integer fixed point.

        With s = 1 + R, one step is R <- (s^b - 1)/b and R' <- s^(b-1) R',
        each product truncated back to ``bits`` fractional bits.  Floats are
        the correctly rounded quotients R / 2^bits.
        """
        need = top_floor - orbit.base_floor + 1 - len(orbit.values)
        if need <= 0:
            return
        levels = min(top_floor, TOP_PROBE) - orbit.base_floor + 1
        check_budget(f"R orbit from r = {orbit.xi + orbit.base_floor} to {orbit.xi + top_floor}",
                     levels, ORBIT_LEVEL_BUDGET)
        held = sum(len(o.values) for o in self._orbits.values() if o is not orbit)
        check_budget(f"R orbits of the b = {self.b} profile", held + levels, PROFILE_LEVEL_BUDGET)
        b, bits, values = self.b, orbit.bits, orbit.values
        one = 1 << bits
        shift = bits * (b - 2)
        R, Rp = orbit.R, orbit.Rp
        for _ in range(need):
            s = one + R
            power = s ** (b - 1) >> shift
            R_next = ((power * s >> bits) - one) // b
            Rp_next = power * Rp >> bits
            try:
                pair = (R_next / one, Rp_next / one)
            except OverflowError:  # either quotient beyond double range
                pair = (math.inf, math.inf)
            if pair[0] > _FLOAT_CAP:
                # leave the cache at the last representable level; the
                # integer state must stay aligned with the cached values
                orbit.R, orbit.Rp = R, Rp
                raise RangeError(
                    f"R overflows double precision above r = "
                    f"{orbit.xi + orbit.base_floor + len(values) - 1} (b={self.b})"
                )
            values.append(pair)
            R, Rp = R_next, Rp_next
        orbit.R, orbit.Rp = R, Rp

    def _orbit_for(self, r: float) -> tuple:
        if not math.isfinite(r):
            raise UsageError("r must be finite")
        floor_r = math.floor(r)
        xi = r - floor_r
        orbit = self._orbits.get(xi)
        if orbit is None or floor_r < orbit.base_floor:
            orbit = self._build_orbit(xi, min(floor_r, TOP_PROBE))
            self._orbits[xi] = orbit
        self._extend_orbit(orbit, floor_r)
        return orbit, floor_r - orbit.base_floor

    # -- public surface ------------------------------------------------------

    def evaluate_pair(self, r: float) -> tuple:
        orbit, offset = self._orbit_for(r)
        return orbit.values[offset]

    def evaluate_R(self, r: float) -> float:
        return self.evaluate_pair(r)[0]

    def evaluate_R_prime(self, r: float) -> float:
        return self.evaluate_pair(r)[1]

    def orbit_depth(self, r: float) -> int:
        """Converged seed depth of the residue-class orbit through r."""
        orbit, _ = self._orbit_for(r)
        return orbit.depth


# -- moment ladder ------------------------------------------------------------


def or_inf(fn, *args) -> float:
    """fn(*args), or inf where the value leaves double range (float ``**`` and
    ``math.exp`` raise there)."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SeedSpec:
    """Mean-one seed law for the base level of the recursion.

    two-point: mass 1/2 at 1 +- sqrt(V); matches mean 1, variance V and has
    third central moment zero (needs V <= 1 for nonnegative support).
    lognormal: mean-one lognormal of variance V, m_k = (1 + V)^C(k,2).
    """

    kind: str = "two-point"

    def __post_init__(self):
        if self.kind not in SEED_KINDS:
            raise UsageError(f"unknown seed kind {self.kind!r}; choose from {SEED_KINDS}")

    def _check_variance(self, variance: float):
        if variance < 0:
            raise DomainError("seed variance must be >= 0")
        if self.kind == "two-point" and variance > 1.0:
            raise DomainError(
                f"two-point seed needs variance <= 1 for nonnegative support, got {variance}"
            )

    def draw(self, rng: np.random.Generator, size: int, variance: float) -> np.ndarray:
        """``size`` independent draws of the law."""
        self._check_variance(variance)
        if self.kind == "lognormal":
            sigma_sq = math.log1p(variance)
            return rng.lognormal(mean=-0.5 * sigma_sq, sigma=math.sqrt(sigma_sq), size=size)
        signs = 2.0 * rng.integers(0, 2, size=size) - 1.0
        return 1.0 + math.sqrt(variance) * signs

    def raw_moments(self, variance: float, k_max: int) -> list:
        """Raw moments m_0..m_K of the law; an order beyond double range reads inf."""
        self._check_variance(variance)
        if self.kind == "lognormal":
            return [or_inf(pow, 1.0 + variance, math.comb(k, 2)) for k in range(k_max + 1)]
        sigma = math.sqrt(variance)
        return [0.5 * ((1.0 + sigma) ** k + (1.0 - sigma) ** k) for k in range(k_max + 1)]


def moment_recursion_step(b: int, moments) -> list:
    """Push raw moments m_0..m_K through one renormalization step.

    A branch is b independent factors in series, with moments x_k = m_k^b;
    the b independent branches fold by binomial convolution, and the branch
    average divides the k-th moment by b^k.  Order k reads only orders <= k,
    so an order beyond double range reads inf (never raises), the orders
    below it stay exact, and inf carries upward.
    """
    moments = list(moments)
    if not moments or moments[0] != 1.0:
        raise UsageError("moment vector must start with m_0 = 1")
    k_max = len(moments) - 1
    check_budget(f"moment ladder step of orders 0..{k_max}", k_max, MOMENT_ORDER_BUDGET)
    branch = [or_inf(pow, m, b) for m in moments]
    acc = branch
    for _ in range(1, b):
        acc = [
            sum([c * acc[i] * branch[j] for c, i, j in _FOLD_TERMS[k]])
            for k in range(k_max + 1)
        ]
    return [x / b**k for k, x in enumerate(acc)]


def law_se(moments, k: int, count: int) -> float:
    """sqrt(Var X^k / count) from exact raw moments of X; inf once E[X^2k] is."""
    var = moments[2 * k] - moments[k] ** 2 if math.isfinite(moments[2 * k]) else math.inf
    return math.sqrt(max(var, 0.0) / count)


def raw_to_centered(raw) -> list:
    """Centered moments about the preserved mean 1 via the binomial expansion."""
    k_max = len(raw) - 1
    out = []
    for m in range(k_max + 1):
        terms = [
            math.comb(m, i) * ((-1.0) ** (m - i)) * raw[i] for i in range(m + 1)
        ]
        out.append(math.fsum(terms))
    return out


@dataclass
class MomentTable:
    """Raw and centered total-mass moments over an r-grid."""

    raw: np.ndarray       # shape (grid points, k_max + 1)
    centered: np.ndarray  # same shape; column m is the m-th centered moment


def moment_table(
    profile: VarianceProfile,
    r_values,
    k_max: int = 6,
    seed_kind: str = "two-point",
    depth: "int | None" = None,
) -> MomentTable:
    """Iterate the moment map from a matched seed up through an r-grid.

    Each residue class r mod 1 of the grid runs its own ladder, seeded
    ``depth`` iterations below its smallest point, no higher than
    ``MINIMUM_BASE_LEVEL``; by default at the variance orbit's converged
    seed depth there.  A class whose ladder needs more than
    ``ORBIT_LEVEL_BUDGET`` steps raises ``BudgetError`` before it runs, and
    so does a grid whose classes' orbits cannot fit
    ``PROFILE_LEVEL_BUDGET`` levels.  ``k_max`` lies in
    2..``MOMENT_ORDER_BUDGET``.  Rows come back in grid order; a row holding
    an order beyond double range, or above ``_FLOAT_CAP``, is nan.
    """
    r_values = np.atleast_1d(np.asarray(r_values, dtype=float))
    if r_values.size == 0:
        raise UsageError("empty r grid")
    if not 2 <= k_max <= MOMENT_ORDER_BUDGET:
        raise UsageError(f"moment order k_max must lie in 2..{MOMENT_ORDER_BUDGET}, got {k_max}")
    if depth is not None and depth < 1:
        raise UsageError("depth must be >= 1")
    seed = SeedSpec(seed_kind)
    classes = {}
    for pos, rv in enumerate(r_values.tolist()):
        classes.setdefault(round(rv - math.floor(rv), 12), []).append(pos)
    # each class builds an orbit, and a converged one spans two seed depths
    least = 2 * SEED_DEPTH + 1
    check_budget(f"grid of {len(classes)} residue classes", len(classes) * least,
                 PROFILE_LEVEL_BUDGET, f"each builds an R orbit of at least {least} levels")
    raw_rows = np.full((r_values.size, k_max + 1), np.nan)
    for positions in classes.values():
        r_min = float(r_values[positions].min())
        base = r_min - (profile.orbit_depth(r_min) if depth is None else depth)
        if base > MINIMUM_BASE_LEVEL:
            raise UsageError(f"base level r - depth = {base} is above {MINIMUM_BASE_LEVEL}; "
                             "increase depth so the asymptotic seed is in its validity regime")
        targets = {}
        for pos in positions:
            targets.setdefault(int(round(r_values[pos] - base)), []).append(pos)
        steps = max(targets)
        check_budget(f"moment ladder from r = {base} to {base + steps}", steps, ORBIT_LEVEL_BUDGET)
        moments = seed.raw_moments(profile.evaluate_R(base), k_max)
        # the two-point m_2 = ((1 + s)^2 + (1 - s)^2) / 2 can round below 1
        variance = max(moments[2] - 1.0, 0.0)
        for step in range(1, steps + 1):
            moments = moment_recursion_step(profile.b, moments)
            # same map for the k = 2 channel in cancellation-free form:
            # m_2' - 1 = psi_b(m_2 - 1) exactly
            variance = psi(profile.b, variance) if moments[2] <= _FLOAT_CAP else math.inf
            moments[2] = 1.0 + variance
            if not all(math.isfinite(m) and m <= _FLOAT_CAP for m in moments):
                break  # this row and every later one stay nan
            for pos in targets.get(step, ()):
                raw_rows[pos] = moments

    centered_rows = np.array(
        [
            raw_to_centered(row) if np.all(np.isfinite(row)) else [math.nan] * (k_max + 1)
            for row in raw_rows
        ]
    )
    return MomentTable(raw_rows, centered_rows)
