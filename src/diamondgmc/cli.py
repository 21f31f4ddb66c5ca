"""Command-line harness: every experiment behind a reproducible config.

Commands: rfunc, correlation, simulate, gmc, fixed-point.  ``RunConfig``
declares every setting once; ``COMMAND_SETTINGS`` names the ones each command
reads, and only those are its flags and config-file keys; a ``gmc`` run reads
only those of its check (``GMC_CHECK_SETTINGS``).  Configuration is a flat
key = value text file; command-line flags override file keys; the merged
settings the run reads are what the manifest records.  Every command writes
exactly one JSON manifest (config snapshot, per-check verdicts, wall
clock) next to its data files; data files are byte-reproducible for a fixed
(config, seed), whatever the number of threads.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    edge_cells,
    island_group_mean_se,
    leaf_level,
    overlap_moments,
    simulate_mass_trajectory,
    tree_total,
    write_population,
)
from .correlation import (
    correlation_table,
    edge_weight,
    histogram_mass,
    kernel_marginal_identity_check,
    marginal_check,
    pair_count_histogram,
    rho_total,
)
from .errors import (
    ORBIT_LEVEL_BUDGET, ConvergenceError, DomainError, RangeError, UsageError, check_budget,
)
from .gmc import (
    conditional_gmc_experiment,
    kahane_experiment,
    shift_experiment,
    strong_disorder_bound,
)
from .lattice import (
    LatticeParams,
    intersection_fixed_point,
    intersection_hausdorff_dim,
    path_count_int,
)
from .reporting import (
    SEEDING_BIAS_NOTE,
    CheckResult,
    ExperimentReport,
    exact_check,
    se_check,
    write_csv,
    write_json,
)
from .rfunction import (
    SEED_KINDS, SEED_ORDER, SeedSpec, VarianceProfile, asymptotic_expansion, eta, kappa_sq,
    law_se, moment_table, psi,
)

# the settings each ``gmc --check`` reads besides ``out``; the unit-coupling
# edge weight of strong-disorder reads no r or a
_CHAOS = {"b", "n", "seed", "draws", "check", "allow_flagged"}
GMC_CHECK_SETTINGS = {
    "shift": _CHAOS | {"r", "a"},
    "kahane": _CHAOS | {"r", "a"},
    "conditional": _CHAOS | {"r", "a", "depth", "seed_spec", "realizations"},
    "strong-disorder": _CHAOS | {"depth", "seed_spec", "realizations", "grid"},
}


def _setting(default, choices=None):
    return field(default=default, metadata={"choices": choices})


@dataclass
class RunConfig:
    """Every setting's name, type (that of its default) and default.

    The flags and the config-file keys derive from these fields: ``seed_spec``
    is ``--seed-spec`` on the command line and ``seed_spec`` in a file.
    """

    b: int = 2
    s: int = 2
    r: float = 0.0
    a: float = 1.0
    n: int = 2
    depth: int = 24
    size: int = 1_000_000
    seed: int = 12345
    seed_spec: str = _setting("two-point", SEED_KINDS)
    grid: str = ""
    out: str = "."
    allow_flagged: bool = False
    check: str = _setting("conditional", tuple(GMC_CHECK_SETTINGS))
    realizations: int = 1000
    draws: int = 1000
    kmax: int = 6


# the settings each command reads besides ``out``; every command also takes --config
COMMAND_SETTINGS = {
    "rfunc": {"b", "grid", "kmax", "seed_spec", "allow_flagged"},
    "correlation": {"b", "r", "a", "n"},
    "simulate": {
        "b", "r", "depth", "size", "seed", "seed_spec", "n", "realizations", "allow_flagged",
    },
    "gmc": set().union(*GMC_CHECK_SETTINGS.values()),
    "fixed-point": {"b", "s"},
}


def _settings(names) -> list:
    """The fields of ``RunConfig`` in ``names``, and ``out``, in declaration order."""
    return [f for f in fields(RunConfig) if f.name in names | {"out"}]


def _reads(command: str, cfg: RunConfig) -> set:
    """The settings a run of ``command`` reads: for ``gmc``, those of its check."""
    return GMC_CHECK_SETTINGS[cfg.check] if command == "gmc" else COMMAND_SETTINGS[command]


def _flag(f) -> str:
    return "--" + f.name.replace("_", "-")


def _coerce(f, raw: str, what: str):
    """The value of setting ``f`` written as ``raw``; ``what`` names it in errors."""
    kind = type(f.default)
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"{what} expects a boolean, got {raw!r}")
    if kind is not str:
        return _number(kind, raw, what)
    choices = f.metadata.get("choices")
    if choices and raw not in choices:
        raise UsageError(f"{what} must be one of {', '.join(choices)}, got {raw!r}")
    return raw


def _number(kind, raw: str, what: str):
    try:
        value = kind(raw)
    except ValueError:
        raise UsageError(f"{what} expects {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{what} must be finite, got {raw!r}")
    return value


def parse_config_file(path, command: str) -> dict:
    """The settings of ``command`` in a flat ``key = value`` file; other keys are errors."""
    out = {}
    known = {f.name: f for f in _settings(COMMAND_SETTINGS[command])}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: {command} reads no config key {key!r}")
        out[key] = _coerce(known[key], raw, f"{path}:{lineno}: config key {key}")
    return out


def parse_grid(text: str):
    """Either 'start:step:stop' (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (_number(float, p, "grid") for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"grid {text!r} must have step > 0 and stop >= start")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise UsageError(f"grid {text!r} has no finite number of points")
        # counted before the list is built
        count = round(steps) + 1
        check_budget(f"grid {text!r}", count, ORBIT_LEVEL_BUDGET)
        return [start + i * step for i in range(count)]
    values = [_number(float, p, "grid") for p in text.split(",") if p.strip()]
    if not values:
        raise UsageError(f"grid {text!r} holds no values")
    return values


def _merge_config(args) -> RunConfig:
    """Defaults, then the config file's keys, then the flags given; a setting
    given that the run does not read is an error."""
    given = parse_config_file(args.config, args.command) if args.config else {}
    for f in _settings(COMMAND_SETTINGS[args.command]):
        value = getattr(args, f.name)
        if value is not None:
            given[f.name] = _coerce(f, value, _flag(f)) if isinstance(value, str) else value
    cfg = RunConfig(**given)
    reads = _reads(args.command, cfg) | {"out"}
    unread = [_flag(f) for f in fields(RunConfig) if f.name in given and f.name not in reads]
    if unread:  # only a gmc check reads less than its command
        raise UsageError(f"gmc --check {cfg.check} does not read {', '.join(unread)}")
    return cfg


class _Run:
    """Collects one command's checks and notes in a report and writes the manifest."""

    def __init__(self, command: str, cfg: RunConfig):
        self.command = command
        self.cfg = cfg
        self.report = ExperimentReport(command)
        self.started = time.time()
        self.out_dir = Path(cfg.out)

    def path(self, name: str) -> Path:
        """``name`` in the output directory, which the first write creates: a
        run rejected before it writes leaves no directory behind."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def finish(self) -> int:
        if self.report.failed:
            status = 1
        elif self.report.flagged and not self.cfg.allow_flagged:
            status = 2
        else:
            status = 0
        manifest = {
            "tool": "diamondgmc",
            "version": __version__,
            "command": self.command,
            "config": {
                f.name: getattr(self.cfg, f.name)
                for f in _settings(_reads(self.command, self.cfg))
            },
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_clock_seconds": time.time() - self.started,
            "checks": [c.to_dict() for c in self.report.checks],
            "notes": self.report.notes,
            "exit_status": status,
        }
        write_json(self.path(f"{self.command}_manifest.json"), manifest)
        for c in self.report.checks:
            print(f"[{c.verdict.upper():7s}] {c.name}: {c.detail or c.tolerance}")
        print(f"manifest: {self.out_dir / (self.command + '_manifest.json')}")
        return status


def cmd_rfunc(run: _Run) -> int:
    cfg = run.cfg
    profile = VarianceProfile(cfg.b)
    grid = parse_grid(cfg.grid or "-8:1:8")
    k_max = cfg.kmax
    table = moment_table(profile, grid, k_max=k_max, seed_kind=cfg.seed_spec)

    rows = []
    values = []  # (r, R) in grid order, where R is representable
    flagged_rows = 0  # rows with a nan entry or an R beyond range, each counted once
    psi_resid_max = 0.0
    for rv, raw, cen in zip(grid, table.raw, table.centered):
        try:
            R, Rp = profile.evaluate_pair(rv)
        except (RangeError, ConvergenceError):
            flagged_rows += 1
            rows.append([rv] + [math.nan] * (2 * k_max - 1))
            continue
        values.append((rv, R))
        flagged = bool(np.any(~np.isfinite(raw)))
        row = [rv, R, Rp]
        row.extend(float(raw[k]) for k in range(2, k_max + 1))
        row.extend(float(cen[k]) for k in range(3, k_max + 1))
        rows.append(row)
        try:
            R_next = profile.evaluate_R(rv + 1.0)
            resid = abs(psi(cfg.b, R) - R_next) / max(1.0, abs(R_next))
            psi_resid_max = max(psi_resid_max, resid)
        except (RangeError, ConvergenceError):
            flagged = True
        flagged_rows += flagged
    ascending = sorted(values)
    monotone = all(R0 < R1 for (r0, R0), (r1, R1) in zip(ascending, ascending[1:]) if r0 < r1)

    header = (
        ["r", "R", "R_prime"]
        + [f"m{k}" for k in range(2, k_max + 1)]
        + [f"Rc{k}" for k in range(3, k_max + 1)]
    )
    write_csv(run.path("rfunc_table.csv"), header, rows)

    # the solver derives R's L/t^2 coefficient from the recursion alone; the
    # closed forms say it is kappa^2 eta.  Their rounded product misses the
    # rounded coefficient by an ulp at some b (8, 10, 11, ...), hence 1e-15
    # relative rather than equality
    derived = float(asymptotic_expansion(cfg.b, SEED_ORDER)[(2, 1)])
    k2, eta_b = kappa_sq(cfg.b), eta(cfg.b)
    run.report.add(
        CheckResult(
            "kappa-sq-eta-closed-forms",
            "pass" if math.isclose(derived, k2 * eta_b, rel_tol=1e-15) else "fail",
            estimate=k2,
            tolerance="L/t^2 coefficient of the expansion = kappa^2 eta, 1e-15 relative",
            detail=f"kappa^2 = {k2:.17g}, eta = {eta_b:.17g}, "
            f"L/t^2 coefficient = {derived:.17g}",
        )
    )
    run.report.add(
        exact_check("psi-identity-residual", psi_resid_max, 1e-10, detail="relative")
    )
    run.report.add(
        CheckResult(
            "monotone-increasing",
            "pass" if monotone else "fail",
            tolerance="R strictly increasing on the grid",
        )
    )
    for rv, R in values:
        if rv <= -1000.0:
            ratio = R * (-rv) / k2
            lhs = abs(ratio - 1.0)
            rhs = 1.1 * eta_b * math.log(-rv) / (-rv)
            run.report.add(
                CheckResult(
                    f"asymptotic-sandwich(r={rv:g})",
                    # four roundings of 2^-53 relative: R, kappa^2, product, quotient
                    "pass" if lhs <= rhs + 4.01 * 2.0**-53 * ratio else "fail",
                    estimate=lhs,
                    target=rhs,
                    tolerance="|R(-r)/kappa^2 - 1| <= 1.1 eta log(-r)/(-r), "
                    "up to the left side's rounding (4 x 2^-53)",
                )
            )
    if flagged_rows:
        run.report.add(
            CheckResult(
                "overflow-rows",
                "flagged",
                estimate=float(flagged_rows),
                detail=f"{flagged_rows} grid rows exceeded double range (reported as nan)",
            )
        )
    return run.finish()


def cmd_correlation(run: _Run) -> int:
    cfg = run.cfg
    params = LatticeParams(cfg.b, cfg.b)
    if cfg.n < 1:
        raise UsageError("correlation checks need --n >= 1")
    profile = VarianceProfile(cfg.b)
    n_max = cfg.n

    # written after the identity checks, which may raise: a failed run leaves no files
    table_n = correlation_table(profile, cfg.r, n_max)
    histogram_rows = [
        [k, math.log10(c), table_n.log_weight(k)] for k, c in pair_count_histogram(params, n_max)
    ]

    target = 1.0 + profile.evaluate_R(cfg.r)
    masses = [
        histogram_mass(correlation_table(profile, cfg.r, n))
        for n in range(1, n_max + 1)
    ]
    # relative: 1 + R(r) grows without bound in r, and its rounding with it
    spread = max(abs(m - target) for m in masses) / target
    run.report.add(
        exact_check("upsilon-total-mass-consistency", spread, 1e-12,
                    detail=f"relative, n = 1..{n_max} vs 1 + R(r)")
    )

    table2 = correlation_table(profile, cfg.r, 2)
    closed = (1.0 + profile.evaluate_R(cfg.r)) / path_count_int(params, 2)
    dev = abs(marginal_check(table2) - closed) / closed
    run.report.add(
        exact_check("marginal-uniformity(n=2)", dev, 1e-12, detail="relative")
    )

    table3 = correlation_table(profile, cfg.r, 3)
    run.report.add(exact_check("rho-total(n=3)", rho_total(table3) - 1.0, 1e-9))

    check_rows = []
    n_rn = min(n_max, 8)
    tbl = correlation_table(profile, cfg.r, n_rn)
    rn_mass = histogram_mass(tbl, edge_weight(profile, cfg.r, cfg.a, n_rn))
    rn_target = 1.0 + profile.evaluate_R(cfg.r + cfg.a)
    run.report.add(
        exact_check(f"rn-exactness(n={n_rn})", (rn_mass - rn_target) / rn_target, 1e-12,
                    detail="relative")
    )
    check_rows.append(["rn-exactness", rn_mass, rn_target,
                       abs(rn_mass - rn_target), abs(rn_mass - rn_target) / rn_target])

    worst_rel = 0.0
    for n in range(1, n_rn + 1):
        # in logs: both sides shrink like 1/|Gamma_n| and leave double range
        log_lhs, log_rhs = kernel_marginal_identity_check(profile, cfg.r, n)
        rel = abs(math.expm1(log_lhs - log_rhs))
        worst_rel = max(worst_rel, rel)
        lhs, rhs = math.exp(log_lhs), math.exp(log_rhs)
        check_rows.append([f"kernel-marginal(n={n})", lhs, rhs, abs(lhs - rhs), rel])
    run.report.add(
        exact_check("kernel-marginal-identity", worst_rel, 1e-8, detail="relative")
    )
    write_csv(run.path("histogram.csv"), ["N", "count_log10", "weight_log"], histogram_rows)
    write_csv(
        run.path("identity_checks.csv"),
        ["check", "lhs", "rhs", "abs_err", "rel_err"],
        check_rows,
    )
    return run.finish()


def cmd_simulate(run: _Run) -> int:
    cfg = run.cfg
    run.report.notes.append(SEEDING_BIAS_NOTE)
    profile = VarianceProfile(cfg.b)
    seed_spec = SeedSpec(cfg.seed_spec)

    # the generation-n leaves are total masses at r - n, a level the
    # trajectory to r passes: it draws them there instead of simulating it again
    leaves = None
    if cfg.n >= 1:
        leaf_level(cfg.r, cfg.n, cfg.depth)
        if cfg.realizations < 2:
            raise UsageError("the measure audits need --realizations >= 2")
        check_budget(f"leaf batch at generation {cfg.n}",
                     *edge_cells(cfg.b, cfg.n, cfg.realizations, "realizations"))
        leaves = (cfg.r, cfg.n, cfg.realizations)
    # the law the run draws, whose mu4 gives the variance's exact SE: the
    # ladder from the trajectory's own base level r - depth, which refuses a
    # too-deep run (its step budget) or a too-shallow one before any population step
    law = moment_table(profile, [cfg.r], k_max=4, seed_kind=cfg.seed_spec, depth=cfg.depth)
    # one leaf batch serves both audits (class sums S_k, tree totals)
    pop, batch = simulate_mass_trajectory(
        cfg.b, cfg.r, seed_spec, cfg.depth, cfg.size, cfg.seed, leaves=leaves, profile=profile,
    )
    write_population(run.path("population.bin"), pop)

    mean, mean_err = pop.island_mean_se(pop.masses)
    moments = pop.central_moments_se(4)
    frac, frac_se = pop.island_mean_se(pop.masses**0.5)
    target_var = profile.evaluate_R(cfg.r)
    write_csv(
        run.path("summary.csv"),
        ["statistic", "estimate", "se", "target"],
        [
            ["mean", mean, mean_err, 1.0],
            ["variance", *moments[2], target_var],
            ["central3", *moments[3], math.nan],
            ["central4", *moments[4], math.nan],
            ["half_moment", frac, frac_se, math.nan],
        ],
    )

    pre_means = pop.header["detail"]["step_pre_means"]
    pre_ses = pop.header["detail"]["step_pre_ses"]
    drift = [
        (m, s) for m, s in zip(pre_means, pre_ses) if abs(m - 1.0) > 4.0 * s
    ]
    run.report.add(
        CheckResult(
            "mean-drift-alarm",
            "flagged" if drift else "pass",
            estimate=float(len(drift)),
            tolerance="per-step raw means within 4*SE of 1",
            detail=f"{len(drift)} of {len(pre_means)} steps drifted",
        )
    )
    # the sample variance's exact SE is sqrt((mu4 - R^2) / size); at r near 0
    # mu4 comes from tail events no feasible population holds
    run.report.add(se_check("variance-vs-R", target_var, *moments[2], 4.0,
                            floor=law_se(law.centered[0], 2, pop.size)))
    if pop.header["overflow_count"]:
        run.report.add(
            CheckResult(
                "overflow-samples",
                "flagged",
                estimate=float(pop.header["overflow_count"]),
                detail="non-finite masses counted, not dropped",
            )
        )
    del pop  # the audit reads only the leaf batch

    if cfg.n >= 1:
        class_sums = overlap_moments(batch.T, cfg.b, 2)[2]
        squares = tree_total(batch.T, cfg.b) ** 2
        gap = np.abs(class_sums.sum(axis=0) - squares) / np.maximum(squares, 1e-300)
        run.report.add(
            exact_check("measure-additivity-audit", float(gap.max()), 1e-12,
                        detail=f"relative, sum_k S_k vs T^2 over {cfg.realizations} realizations")
        )
        table = correlation_table(profile, cfg.r, cfg.n)
        for k, pairs in pair_count_histogram(LatticeParams(cfg.b, cfg.b), cfg.n):
            target = math.exp(math.log(pairs) + table.log_weight(k))
            # SE over the island groups of realizations: it carries the leaf pool's own error
            est, se = island_group_mean_se(class_sums[k])
            run.report.add(
                se_check(f"pair-correlation-audit(N={k})", target, est, se, 4.0,
                         detail=f"{pairs} pairs, {cfg.realizations} realizations")
            )
    return run.finish()


def cmd_gmc(run: _Run) -> int:
    cfg = run.cfg
    profile = VarianceProfile(cfg.b)

    # the statistical checks' SEs need two draws, and two realizations where
    # they read them
    if cfg.draws < 2:
        raise UsageError(f"gmc --check {cfg.check} needs --draws >= 2")
    if "realizations" in GMC_CHECK_SETTINGS[cfg.check] and cfg.realizations < 2:
        raise UsageError(f"gmc --check {cfg.check} needs --realizations >= 2")

    if cfg.check == "shift":
        report = shift_experiment(profile, cfg.r, cfg.a, cfg.n, cfg.draws, cfg.seed)
    elif cfg.check == "kahane":
        report = kahane_experiment(profile, cfg.r, cfg.a, cfg.n, cfg.draws, cfg.seed)
    elif cfg.check == "conditional":
        report = conditional_gmc_experiment(
            profile, cfg.r, cfg.a, cfg.n, cfg.depth,
            cfg.realizations, cfg.draws, cfg.seed, SeedSpec(cfg.seed_spec),
        )
    else:  # strong-disorder; the coercion of --check admits only these four
        grid = parse_grid(cfg.grid or "1,4,9,16")
        report = strong_disorder_bound(
            profile, grid, cfg.n, cfg.depth,
            cfg.realizations, cfg.draws, cfg.seed, SeedSpec(cfg.seed_spec),
        )
    run.report = report
    write_json(run.path(f"gmc_{cfg.check}_report.json"), report.to_dict())
    for label, values in report.arrays.items():
        arr = np.atleast_2d(np.asarray(values))
        if arr.shape[0] == 1:
            arr = arr.T
        write_csv(
            run.path(f"gmc_{cfg.check}_{label}.csv"),
            [label] if arr.shape[1] == 1 else [f"{label}_{i}" for i in range(arr.shape[1])],
            arr,
        )
    return run.finish()


def cmd_fixed_point(run: _Run) -> int:
    cfg = run.cfg
    try:
        x = intersection_fixed_point(cfg.b, cfg.s)
        dim = intersection_hausdorff_dim(cfg.b, cfg.s)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.report.add(
            CheckResult("subcritical-domain", "fail", detail=str(exc))
        )
        run.finish()
        return 1
    M = (1.0 - (1.0 - x) ** cfg.s) / cfg.b
    residual = abs(M - x)
    print(f"intersection_fixed_point({cfg.b},{cfg.s}) = {x:.15f}")
    print(f"intersection_hausdorff_dim({cfg.b},{cfg.s}) = {dim:.15f}")
    print(f"fixed_point_residual = {residual:.3e}")
    run.report.add(exact_check("fixed-point-residual", residual, 1e-12))
    return run.finish()


_COMMANDS = {
    "rfunc": cmd_rfunc,
    "correlation": cmd_correlation,
    "simulate": cmd_simulate,
    "gmc": cmd_gmc,
    "fixed-point": cmd_fixed_point,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``UsageError``: exit 1 with ``error:``, as every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diamondgmc",
        description="Critical diamond-lattice polymer: exact tables, cascade "
        "simulation, and finite-dimensional chaos experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value file")
        for f in _settings(COMMAND_SETTINGS[name]):
            if type(f.default) is bool:
                p.add_argument(_flag(f), action="store_const", const=True)
            else:
                p.add_argument(_flag(f), choices=f.metadata.get("choices"))
    return parser


def _join_flag_values(argv):
    """'--flag value' as '--flag=value' for every flag of the command that takes
    a value, so '--r -1e3' or '--grid -8:1:8' reads (argparse would take the
    value for an option)."""
    names = COMMAND_SETTINGS.get(argv[0], set()) if argv else set()
    takes_value = {"--config"} | {_flag(f) for f in _settings(names) if type(f.default) is not bool}
    out = []
    for token in argv:
        if out and out[-1] in takes_value:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_flag_values(list(argv)))
        cfg = _merge_config(args)
        return _COMMANDS[args.command](_Run(args.command, cfg))
    except (UsageError, DomainError, ConvergenceError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
