"""Outside-in layer tracer for one diamondgmc process.

``Tracer.install()`` wraps every public function of the diamondgmc layer
modules at every module that binds its name (``cli``, ``gmc``, ``cascade``
and ``correlation`` import functions with ``from .x import y``), plus the
evaluation methods of ``VarianceProfile`` on the class.  Each call that
crosses into another layer or another time metric records a span: name,
parent, start, end and whether an exception escaped.  Spans stay in memory; ``summary()`` reduces them to per-layer self times and
to counts taken from call arguments and return values, never from the
program's private state.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("lattice", "rfunction", "correlation", "cascade", "gmc", "reporting", "cli")
PROFILE_METHODS = ("evaluate_pair", "evaluate_R", "evaluate_R_prime", "orbit_depth")

# Time metric -> the functions whose self time it sums.  A call that stays in
# its caller's layer and is named in no other set (``psi`` inside
# ``moment_table``, ``format_float`` inside ``write_csv``, recursion) records
# no span: its time is the caller's self time.  Everything else a layer does
# outside the named sets counts only towards ``<layer>.self_s``.
_TIME_SETS = {
    "rfunction.expansion_s": ["asymptotic_expansion"],
    "rfunction.evaluate_s": ["evaluate_R", "evaluate_R_prime"]
    + [f"VarianceProfile.{m}" for m in PROFILE_METHODS],
    "rfunction.moment_table_s": [
        "moment_table", "centered_moment_table", "moment_recursion_step",
        "seed_raw_moments", "raw_to_centered",
    ],
    "correlation.histogram_s": ["pair_count_histogram"],
    "correlation.conditional_histogram_s": ["conditional_pair_histogram"],
    "correlation.table_s": [
        "correlation_table", "upsilon_total_mass", "marginal_check",
        "lebesgue_decomposition_weights", "rn_log_kernel",
        "kernel_marginal_identity_check", "upsilon_pair_matrix",
    ],
    "cascade.simulate_s": [
        "simulate_mass_law", "simulate_mass_trajectory", "evolve_population",
    ],
    "cascade.leaf_batch_s": [
        "sample_measure_batch", "sample_measure_cylinders", "default_leaf_population",
    ],
    "cascade.snapshot_write_s": ["write_population", "read_population"],
    "gmc.experiment_self_s": [
        "conditional_gmc_experiment", "renormalization_consistency",
        "renormalization_weight_audit", "strong_disorder_bound",
    ],
    "gmc.kernel_s": ["build_kernel", "kernel_with_edge_weight", "edge_weight", "kahane_moment"],
    "lattice.enumerate_s": ["enumerate_paths", "path_from_index"],
    "lattice.incidence_s": ["incidence_matrix", "shared_edge_matrix", "path_edge_indices"],
    "reporting.write_s": ["write_csv", "write_json"],
}
SPAN_METRIC = {
    f"{metric.split('.')[0]}.{fn}": metric
    for metric, fns in _TIME_SETS.items()
    for fn in fns
}
TIME_METRICS = tuple(_TIME_SETS) + tuple(f"{layer}.self_s" for layer in LAYERS)


def _path_count(b: int, n: int) -> int:
    """|Gamma_n| on the critical lattice: |Gamma_n| = b |Gamma_(n-1)|^b."""
    count = 1
    for _ in range(n):
        count = b * count**b
    return count


# -- counters: each hook sees (counters, bound arguments, result, parent) -------


def _count_evaluate(c, a, result, parent):
    r = a["r"]
    c["_residues"].add(r - (r // 1))
    if SPAN_METRIC.get(parent) != "rfunction.evaluate_s":
        c["rfunction.evaluate_calls"] += 1


def _count_histogram(c, a, result, parent):
    c["correlation.histogram_max_n"] = max(c["correlation.histogram_max_n"], a["n"])


def _count_simulate(c, a, result, parent):
    if SPAN_METRIC.get(parent) == "cascade.simulate_s":
        return  # simulate_mass_law delegates to simulate_mass_trajectory
    c["cascade.simulate_calls"] += 1
    c["_simulate_args"].add(tuple((k, v) for k, v in a.items() if k != "profile"))
    c["cascade.population_updates"] += a["size"] * a["depth"]


def _count_leaves(c, a, result, parent):
    # sample_measure_cylinders draws one realization, sample_measure_batch ``count``.
    c["cascade.leaves_drawn"] += a.get("count", 1) * a["b"] ** (2 * a["n"])


def _count_snapshot(c, a, result, parent):
    c["cascade.snapshot_bytes"] += os.path.getsize(a["path"])


def _count_conditional(c, a, result, parent):
    # Computed from shapes: the dense route forms, for every draw, the field
    # F g (|Gamma_n| x (b^2)^n multiply-adds) and |Gamma_n| exponentials.
    b, n = a["profile"].b, a["n"]
    paths, edges = _path_count(b, n), (b * b) ** n
    draws = a["realizations"] * a["draws"]
    c["gmc.chaos_draws"] += draws
    c["gmc.field_flops"] += 2 * draws * paths * edges
    c["gmc.exp_count"] += draws * paths


def _count_kernel(c, a, result, parent):
    # Computed from shapes: the float64 kernel matrix plus the Gram factor.
    b, n = a["profile"].b, a["n"]
    paths, edges = _path_count(b, n), (b * b) ** n
    c["gmc.kernel_bytes"] += 8 * (paths * paths + paths * edges)


def _count_enumerate(c, a, result, parent):
    c["lattice.paths_enumerated"] += len(result)


def _count_incidence(c, a, result, parent):
    c["lattice.incidence_cells"] += result.size


def _count_csv(c, a, result, parent):
    c["reporting.rows_written"] += len(a["rows"])
    c["reporting.bytes_written"] += os.path.getsize(a["path"])


def _count_json(c, a, result, parent):
    c["reporting.bytes_written"] += os.path.getsize(a["path"])


HOOKS = {
    **{f"rfunction.{fn}": _count_evaluate for fn in _TIME_SETS["rfunction.evaluate_s"]},
    "correlation.pair_count_histogram": _count_histogram,
    "cascade.simulate_mass_law": _count_simulate,
    "cascade.simulate_mass_trajectory": _count_simulate,
    "cascade.sample_measure_batch": _count_leaves,
    "cascade.sample_measure_cylinders": _count_leaves,
    "cascade.write_population": _count_snapshot,
    "gmc.conditional_gmc_experiment": _count_conditional,
    "gmc.build_kernel": _count_kernel,
    "lattice.enumerate_paths": _count_enumerate,
    "lattice.incidence_matrix": _count_incidence,
    "reporting.write_csv": _count_csv,
    "reporting.write_json": _count_json,
}
COUNT_METRICS = (
    "rfunction.evaluate_calls", "rfunction.residue_classes",
    "correlation.histogram_max_n",
    "cascade.simulate_calls", "cascade.simulate_distinct", "cascade.population_updates",
    "cascade.leaves_drawn", "cascade.snapshot_bytes",
    "gmc.chaos_draws", "gmc.field_flops", "gmc.exp_count", "gmc.kernel_bytes",
    "lattice.paths_enumerated", "lattice.incidence_cells",
    "reporting.rows_written", "reporting.bytes_written",
) + tuple(f"{layer}.raised" for layer in LAYERS)


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, raised, metric, layer]: a
        # span's metric is its own, or its parent's when it has none and the
        # parent is in the same layer.
        self.spans = []
        self.stack = []  # indices of the open spans
        self.counters = dict.fromkeys(COUNT_METRICS, 0)
        self.counters["_residues"] = set()
        self.counters["_simulate_args"] = set()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        layer, metric = name.split(".", 1)[0], SPAN_METRIC.get(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            top = spans[parent] if parent >= 0 else None
            same_layer = top is not None and top[6] == layer
            if same_layer and metric in (None, top[5]):
                result = fn(*args, **kwargs)
            else:
                span = [name, parent, clock(), 0.0, False,
                        metric or (top[5] if same_layer else None), layer]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[4] = True
                    raise
                finally:
                    span[3] = clock()
                    stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counters, bound.arguments, result, top[0] if top else None)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever diamondgmc binds them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"diamondgmc.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name == "diamondgmc" or name.startswith("diamondgmc."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])
        profile_cls = importlib.import_module("diamondgmc.rfunction").VarianceProfile
        for method in PROFILE_METHODS:
            setattr(profile_cls, method, self._wrap(
                f"rfunction.VarianceProfile.{method}", vars(profile_cls)[method]))

    def summary(self) -> dict:
        """Self time per layer and per named metric, plus the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, start, end, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        times = dict.fromkeys(TIME_METRICS, 0.0)
        counts = {k: v for k, v in self.counters.items() if not k.startswith("_")}
        for i, (name, parent, start, end, raised, metric, layer) in enumerate(spans):
            self_time = end - start - child_time[i]
            times[f"{layer}.self_s"] += self_time
            if metric:
                times[metric] += self_time
            if raised and (parent < 0 or spans[parent][6] != layer):
                counts[f"{layer}.raised"] += 1
        counts["rfunction.residue_classes"] = len(self.counters["_residues"])
        counts["cascade.simulate_distinct"] = len(self.counters["_simulate_args"])
        return {"times": times, "counts": counts, "spans": len(spans)}
