"""Command-line harness: every experiment behind a reproducible config.

Commands: rfunc, correlation, simulate, gmc, fixed-point.  Configuration is
a flat key = value text file; command-line flags override file keys; the
merged configuration is what the manifest records.  Unknown config keys are
rejected.  Every command writes exactly one JSON manifest (config snapshot,
per-check verdicts, wall clock) next to its data files; data files are
byte-reproducible for a fixed (config, seed, chunk count).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    SeedSpec,
    assemble,
    default_leaf_population,
    fractional_moment,
    sample_measure_batch,
    sample_measure_cylinders,
    simulate_mass_law,
    substream,
    write_population,
)
from .correlation import (
    correlation_table,
    kernel_marginal_identity_check,
    lebesgue_decomposition_weights,
    marginal_check,
    pair_count_histogram,
    rn_log_kernel,
    upsilon_pair_matrix,
    upsilon_total_mass,
)
from .errors import ConvergenceError, DomainError, RangeError, UsageError
from .gmc import (
    cameron_martin_density,
    chaos_totals,
    conditional_gmc_experiment,
    edge_weight,
    kahane_moment,
    renormalization_consistency,
    sample_gmc,
    shift_field,
    strong_disorder_bound,
)
from .lattice import (
    LatticeParams,
    enumerate_paths,
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
from .rfunction import VarianceProfile, eta, kappa_sq, moment_table, psi

_UNSET = object()


@dataclass
class RunConfig:
    command: str = ""
    b: int = 2
    s: int = 0  # 0 means "same as b" except for fixed-point
    r: float = 0.0
    a: float = 1.0
    n: int = 2
    depth: int = 24
    size: int = 1_000_000
    seed: int = 12345
    seed_spec: str = "two-point"
    mode: str = "exact-discrete"
    grid: str = ""
    out: str = "."
    threads: int = 1
    chunks: int = 1
    allow_flagged: bool = False
    check: str = "conditional"
    realizations: int = 1000
    draws: int = 1000
    kmax: int = 6

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_KEYS = {"allow_flagged"}
_INT_KEYS = {
    "b", "s", "n", "depth", "size", "seed", "threads", "chunks",
    "realizations", "draws", "kmax",
}
_FLOAT_KEYS = {"r", "a"}


def _coerce(key: str, raw: str):
    if key in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key} expects a boolean, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def parse_config_file(path) -> dict:
    out = {}
    known = set(_FIELD_TYPES) - {"command"}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def parse_grid(text: str):
    """Either 'start:step:stop' (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"grid {text!r} must have step > 0 and stop >= start")
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]
    return [float(p) for p in text.split(",") if p.strip()]


def _merge_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, _UNSET)
        if value is not _UNSET and value is not None:
            setattr(cfg, f.name, value)
    if cfg.s == 0:
        cfg.s = cfg.b
    return cfg


class _Run:
    """Collects one command's checks and notes in a report and writes the manifest."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.report = ExperimentReport(cfg.command)
        self.started = time.time()
        self.out_dir = Path(cfg.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def extend(self, report: ExperimentReport):
        self.report.checks.extend(report.checks)
        for note in report.notes:
            if note not in self.report.notes:
                self.report.notes.append(note)

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
            "command": self.cfg.command,
            "config": self.cfg.to_dict(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_clock_seconds": time.time() - self.started,
            "checks": [c.to_dict() for c in self.report.checks],
            "notes": self.report.notes,
            "exit_status": status,
        }
        write_json(self.out_dir / f"{self.cfg.command}_manifest.json", manifest)
        for c in self.report.checks:
            print(f"[{c.verdict.upper():7s}] {c.name}: {c.detail or c.tolerance}")
        print(f"manifest: {self.out_dir / (self.cfg.command + '_manifest.json')}")
        return status


def cmd_rfunc(cfg: RunConfig) -> int:
    run = _Run(cfg)
    profile = VarianceProfile(cfg.b)
    grid = parse_grid(cfg.grid or "-8:1:8")
    k_max = cfg.kmax

    rows = []
    flagged_rows = 0
    by_residue = {}
    for rv in grid:
        by_residue.setdefault(round(rv - math.floor(rv), 12), []).append(rv)
    tables = {}
    for residue, values in by_residue.items():
        tables[residue] = moment_table(
            profile, values, k_max=k_max, seed_kind=cfg.seed_spec
        )
    moment_lookup = {}
    for table in tables.values():
        for i, rv in enumerate(table.r_values):
            moment_lookup[float(rv)] = (table.raw[i], table.centered[i])

    psi_resid_max = 0.0
    monotone = True
    prev = None  # (r, R) along the sorted grid
    for rv in sorted(grid):
        try:
            R = profile.evaluate_R(rv)
        except (RangeError, ConvergenceError):
            continue
        if prev is not None and rv > prev[0] and R <= prev[1]:
            monotone = False
        prev = (rv, R)
    for rv in grid:
        try:
            R, Rp = profile.evaluate_pair(rv)
        except (RangeError, ConvergenceError):
            flagged_rows += 1
            rows.append([rv] + [math.nan] * (2 * k_max - 1))
            continue
        raw, cen = moment_lookup[float(rv)]
        if np.any(~np.isfinite(raw)):
            flagged_rows += 1
        row = [rv, R, Rp]
        row.extend(float(raw[k]) for k in range(2, k_max + 1))
        row.extend(float(cen[k]) for k in range(3, k_max + 1))
        rows.append(row)
        try:
            R_next = profile.evaluate_R(rv + 1.0)
            resid = abs(psi(cfg.b, R) - R_next) / max(1.0, abs(R_next))
            psi_resid_max = max(psi_resid_max, resid)
        except (RangeError, ConvergenceError):
            flagged_rows += 1

    header = (
        ["r", "R", "R_prime"]
        + [f"m{k}" for k in range(2, k_max + 1)]
        + [f"Rc{k}" for k in range(3, k_max + 1)]
    )
    write_csv(run.out_dir / "rfunc_table.csv", header, rows)

    run.report.add(
        CheckResult(
            "kappa-sq-eta-closed-forms",
            "pass"
            if profile.kappa_sq == 2.0 / (cfg.b - 1)
            and profile.eta == (cfg.b + 1) / (3.0 * (cfg.b - 1))
            else "fail",
            estimate=profile.kappa_sq,
            target=2.0 / (cfg.b - 1),
            detail=f"kappa^2 = {profile.kappa_sq:.17g}, eta = {profile.eta:.17g}",
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
    for rv in grid:
        if rv <= -1000.0:
            R = profile.evaluate_R(rv)
            lhs = abs(R * (-rv) / kappa_sq(cfg.b) - 1.0)
            rhs = 1.1 * eta(cfg.b) * math.log(-rv) / (-rv)
            run.report.add(
                CheckResult(
                    f"asymptotic-sandwich(r={rv:g})",
                    "pass" if lhs <= rhs else "fail",
                    estimate=lhs,
                    target=rhs,
                    tolerance="|R(-r)/kappa^2 - 1| <= 1.1 eta log(-r)/(-r)",
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


def cmd_correlation(cfg: RunConfig) -> int:
    run = _Run(cfg)
    params = LatticeParams(cfg.b, cfg.s)
    params.require_critical()
    if cfg.n < 1:
        raise UsageError("correlation checks need --n >= 1")
    profile = VarianceProfile(cfg.b)
    n_max = cfg.n

    hist = pair_count_histogram(params, n_max)
    table_n = correlation_table(profile, cfg.r, n_max)
    write_csv(
        run.out_dir / "histogram.csv",
        ["N", "count_log10", "weight_log"],
        [
            [k, math.log10(c), table_n.log_weight(k)]
            for k, c in hist.counts
        ],
    )

    target = 1.0 + profile.evaluate_R(cfg.r)
    masses = [
        upsilon_total_mass(correlation_table(profile, cfg.r, n))
        for n in range(1, n_max + 1)
    ]
    spread = max(abs(m - target) for m in masses)
    run.report.add(
        exact_check("upsilon-total-mass-consistency", spread, 1e-9,
                    detail=f"n = 1..{n_max} vs 1 + R(r)")
    )

    table2 = correlation_table(profile, cfg.r, 2)
    closed = (1.0 + profile.evaluate_R(cfg.r)) / path_count_int(params, 2)
    dev = abs(marginal_check(table2) - closed)
    run.report.add(
        exact_check("marginal-uniformity(n=2)", dev, 1e-12)
    )

    table3 = correlation_table(profile, cfg.r, 3)
    rho_total = lebesgue_decomposition_weights(table3).rho_total()
    run.report.add(exact_check("rho-total(n=3)", rho_total - 1.0, 1e-9))

    check_rows = []
    n_rn = min(n_max, 8)
    tbl = correlation_table(profile, cfg.r, n_rn)
    terms = [
        math.log(c) + tbl.log_weight(k) + rn_log_kernel(profile, cfg.r, cfg.a, n_rn, k)
        for k, c in tbl.histogram.counts
    ]
    peak = max(terms)
    rn_mass = math.exp(peak) * math.fsum(math.exp(t - peak) for t in terms)
    rn_target = 1.0 + profile.evaluate_R(cfg.r + cfg.a)
    run.report.add(
        exact_check(f"rn-exactness(n={n_rn})", rn_mass - rn_target, 1e-9)
    )
    check_rows.append(["rn-exactness", rn_mass, rn_target,
                       abs(rn_mass - rn_target), abs(rn_mass - rn_target) / rn_target])

    worst_rel = 0.0
    for n in range(1, n_rn + 1):
        lhs, rhs = kernel_marginal_identity_check(profile, cfg.r, n)
        rel = abs(lhs - rhs) / abs(rhs)
        worst_rel = max(worst_rel, rel)
        check_rows.append([f"kernel-marginal(n={n})", lhs, rhs, abs(lhs - rhs), rel])
    run.report.add(
        exact_check("kernel-marginal-identity", worst_rel, 1e-8, detail="relative")
    )
    write_csv(
        run.out_dir / "identity_checks.csv",
        ["check", "lhs", "rhs", "abs_err", "rel_err"],
        check_rows,
    )
    return run.finish()


def cmd_simulate(cfg: RunConfig) -> int:
    run = _Run(cfg)
    run.report.notes.append(SEEDING_BIAS_NOTE)
    params = LatticeParams(cfg.b, cfg.s)
    params.require_critical()
    profile = VarianceProfile(cfg.b)
    seed_spec = SeedSpec(cfg.seed_spec)

    pop = simulate_mass_law(
        cfg.b, cfg.r, seed_spec, cfg.depth, cfg.size, cfg.seed,
        chunks=cfg.chunks, threads=cfg.threads, profile=profile,
    )
    write_population(run.out_dir / "population.bin", pop)

    mean, mean_se = pop.mean_se()
    var, var_se = pop.variance_se()
    mu3, mu3_se = pop.central_moment_se(3)
    mu4, mu4_se = pop.central_moment_se(4)
    frac, frac_se = fractional_moment(pop, 0.5)
    target_var = profile.evaluate_R(cfg.r)
    write_csv(
        run.out_dir / "summary.csv",
        ["statistic", "estimate", "se", "target"],
        [
            ["mean", mean, mean_se, 1.0],
            ["variance", var, var_se, target_var],
            ["central3", mu3, mu3_se, math.nan],
            ["central4", mu4, mu4_se, math.nan],
            ["half_moment", frac, frac_se, math.nan],
        ],
    )

    pre_means = pop.provenance.detail.get("step_pre_means", [])
    pre_ses = pop.provenance.detail.get("step_pre_ses", [])
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
    run.report.add(se_check("variance-vs-R", target_var, var, var_se, 4.0))
    if pop.provenance.overflow_count:
        run.report.add(
            CheckResult(
                "overflow-samples",
                "flagged",
                estimate=float(pop.provenance.overflow_count),
                detail="non-finite masses counted, not dropped",
            )
        )

    if cfg.n >= 1:
        leaf = default_leaf_population(
            cfg.b, cfg.r, cfg.n, cfg.depth, seed_spec, cfg.seed,
            pop_size=min(cfg.size, 1_000_000), profile=profile,
        )
        sample = sample_measure_cylinders(
            cfg.b, cfg.r, cfg.n, cfg.depth, seed_spec, cfg.seed,
            leaf_population=leaf, profile=profile,
        )
        run.report.add(
            exact_check("measure-additivity-audit", sample.additivity_gap(), 1e-12)
        )
        if cfg.n <= 2:
            batch = assemble(
                sample_measure_batch(cfg.b, cfg.r, cfg.n, cfg.realizations, leaf, cfg.seed),
                cfg.b, cfg.n,
            )
            support = enumerate_paths(params, cfg.n)
            target = upsilon_pair_matrix(
                correlation_table(profile, cfg.r, cfg.n), support
            )
            prods = batch[:, :, None] * batch[:, None, :]
            se = prods.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
            worst = float(np.max(np.abs(prods.mean(axis=0) - target) / se))
            run.report.add(
                CheckResult(
                    "pair-correlation-audit",
                    "pass" if worst <= 4.0 else "fail",
                    estimate=worst,
                    tolerance="max |z| <= 4 over all cylinder pairs",
                    detail=f"{len(support) ** 2} pairs, {cfg.realizations} realizations",
                )
            )
    return run.finish()


def cmd_gmc(cfg: RunConfig) -> int:
    run = _Run(cfg)
    profile = VarianceProfile(cfg.b)
    seed_spec = SeedSpec(cfg.seed_spec)

    if cfg.check == "shift":
        lam = edge_weight(profile, cfg.r, cfg.a, cfg.n, cfg.mode)
        uniform = np.ones((cfg.b * cfg.b) ** cfg.n)  # leaves of the uniform measure
        rng = substream(cfg.seed, 3, 0)
        real = sample_gmc(uniform, cfg.b, lam, rng)
        phi = rng.standard_normal(uniform.size)
        shifted = shift_field(real, phi)
        direct = real.weights * np.exp(math.sqrt(lam) * phi)
        rel = float(np.max(np.abs(shifted.weights - direct) / direct))
        report = ExperimentReport("shift")
        report.add(exact_check("shift-covariance", rel, 1e-12))
        # the density itself underflows at a few thousand edges: compare logs,
        # which to first order is the relative comparison of the densities
        log_lr = -0.5 * float(((real.gaussian - phi) ** 2).sum()) + 0.5 * float(
            (real.gaussian**2).sum()
        )
        if math.ulp(abs(log_lr)) > 1e-12:
            raise RangeError(
                f"log Cameron-Martin density {log_lr:.6g} has an ulp of "
                f"{math.ulp(abs(log_lr)):.2g}, coarser than the 1e-12 comparison; "
                f"use a smaller --n"
            )
        cm_dev = cameron_martin_density(phi, real.gaussian) - log_lr
        report.add(exact_check("cameron-martin-density", cm_dev, 1e-12, detail="log densities"))
        run.extend(report)
    elif cfg.check == "kahane":
        lam = edge_weight(profile, cfg.r, cfg.a, cfg.n, cfg.mode)
        uniform = np.ones((cfg.b * cfg.b) ** cfg.n)
        totals = chaos_totals(uniform, cfg.b, lam, substream(cfg.seed, 3, 1), cfg.draws)
        report = ExperimentReport("kahane", provenance={"n": cfg.n})
        report.arrays["totals"] = totals
        for m in (2, 3):
            formula = kahane_moment(uniform, cfg.b, lam, m)
            vals = totals**m
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size))
            report.add(se_check(f"kahane-m{m}", formula, est, se, 4.0))
        run.extend(report)
    elif cfg.check == "conditional":
        report = conditional_gmc_experiment(
            profile, cfg.r, cfg.a, cfg.n, cfg.depth,
            cfg.realizations, cfg.draws, cfg.seed, seed_spec,
        )
        run.extend(report)
    elif cfg.check == "renormalization":
        report = renormalization_consistency(
            profile, cfg.r, cfg.a, cfg.n, cfg.depth,
            cfg.realizations, cfg.draws, cfg.seed, seed_spec,
        )
        run.extend(report)
    elif cfg.check == "strong-disorder":
        grid = parse_grid(cfg.grid or "1,4,9,16")
        report = strong_disorder_bound(
            profile, grid, cfg.n, cfg.depth,
            cfg.realizations, cfg.draws, cfg.seed, seed_spec,
        )
        run.extend(report)
    else:
        raise UsageError(
            f"unknown gmc check {cfg.check!r}; choose from shift, kahane, "
            f"conditional, renormalization, strong-disorder"
        )
    write_json(run.out_dir / f"gmc_{cfg.check}_report.json", report.to_dict())
    for label, values in report.arrays.items():
        arr = np.atleast_2d(np.asarray(values))
        if arr.shape[0] == 1:
            arr = arr.T
        write_csv(
            run.out_dir / f"gmc_{cfg.check}_{label}.csv",
            [label] if arr.shape[1] == 1 else [f"{label}_{i}" for i in range(arr.shape[1])],
            arr,
        )
    return run.finish()


def cmd_fixed_point(cfg: RunConfig) -> int:
    run = _Run(cfg)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondgmc",
        description="Critical diamond-lattice polymer: exact tables, cascade "
        "simulation, and finite-dimensional chaos experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value file")
        p.add_argument("--b", type=int, default=None)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--size", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--seed-spec", dest="seed_spec", default=None,
                       choices=("deterministic-one", "lognormal", "two-point"))
        p.add_argument("--mode", default=None,
                       choices=("exact-discrete", "asymptotic"))
        p.add_argument("--grid", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--chunks", type=int, default=None)
        p.add_argument("--allow-flagged", dest="allow_flagged",
                       action="store_const", const=True, default=None)
        p.add_argument("--check", default=None,
                       choices=("shift", "kahane", "conditional",
                                "renormalization", "strong-disorder"))
        p.add_argument("--realizations", type=int, default=None)
        p.add_argument("--draws", type=int, default=None)
        p.add_argument("--kmax", type=int, default=None)
    return parser


def _join_grid_values(argv):
    """Allow '--grid -8:1:8' (argparse would read the value as an option)."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_grid_values(list(argv)))
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (UsageError, DomainError, ConvergenceError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
