"""Shared exception types, and the one budget table with its one check."""


class UsageError(ValueError):
    """Arguments violate an operation's preconditions."""


class DomainError(ValueError):
    """Inputs are outside the mathematical domain of the requested quantity."""


class BudgetError(UsageError):
    """A request exceeds the configured enumeration or memory budget."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to stabilize within the allowed depth."""

    def __init__(self, message, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class RangeError(OverflowError):
    """A value left the representable floating-point range."""


# -- budgets: every limit a run is held to before the work it bounds --------

# Cells (rows x b^(2n) edges) of a leaf batch or a chaos draw block, and of
# the conditional run's totals and strong-disorder's half-moment arrays.  At
# 2^20 cells (b = 2, n = 5, 1000 realizations) the ``simulate`` audit peaks
# 34 MiB above import, near the 1M-entry trajectory's 37 MiB; the m = 4
# overlap polynomials of the ``gmc`` conditional layer peak near 116 MiB
# (about 116 bytes a cell), growing 4x per generation at b = 2.
AUDIT_CELL_BUDGET = 1 << 20
# Entries of a population: a ``simulate`` run peaks about 40 bytes an entry
# above its import baseline (38 MiB at 1M, 159 MiB at 4M), so 2^24 entries
# is about 0.6 GiB.
POPULATION_SIZE_BUDGET = 1 << 24
# Levels of one R orbit: a level holds 16 bytes of floats and takes about
# 2 us, so 2^18 levels take about 0.5 s and 4 MiB.  A residue class's
# moment ladder (about 10 us a step), a population trajectory's steps and a
# ``--grid``'s points are held to the same number.
ORBIT_LEVEL_BUDGET = 1 << 18
# Levels of all the orbits of one profile: at about 17 bytes a level, 2^22
# levels are about 70 MiB.  ``rfunc --grid -8:0.004:8`` holds 1.35M levels
# in 659 orbits (about 5 s, 56 MiB peak).
PROFILE_LEVEL_BUDGET = 1 << 22
# Edges of one generation-n path (b^n), the span of a pair histogram: at
# b = 2 the step to n = 12 takes about 0.2 s and the step to n = 13 about
# 0.9 s (peak RSS 70 MiB).  One generation further, a packed histogram slot
# would need 4933 digits, beyond the 4300 that int() reads by default.
HISTOGRAM_EDGE_BUDGET = 8192
# Orders of the moment ladder: its binomial fold grows as k^2, and a step at
# order 16 takes about 27 us at b = 2 and 69 us at b = 4 (9 us at order 6).
MOMENT_ORDER_BUDGET = 16


def check_budget(what: str, need: int, budget: int, hint: str = ""):
    """Raise ``BudgetError`` if ``what`` needs more than ``budget``; ``hint`` ends the message."""
    if need > budget:
        # int() prints at most 4300 digits; past 100 a figure tells only its size
        shown = need if need < 10**100 else f"about 2^{need.bit_length()}"
        raise BudgetError(
            f"{what} needs {shown}, above the budget of {budget}" + (f"; {hint}" if hint else "")
        )
