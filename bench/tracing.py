"""Per-layer spans for the traced benchmark run.

Timing wrappers are installed only in the traced run. Each wrapper replaces
a package function under every name a module of the package bound it to
(``almostdom.inference.std_curve_for``, ``almostdom.cli.load_csv``, ...),
so calls made inside the package are seen without editing it. A function
that no longer exists is simply not wrapped and reports 0 calls.

Spans carry a name, start, end and parent span, stay in memory, and are
summarized once the traced iterations are done. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (metric prefix, defining module, attribute). integrate_up and
# integrate_down share one prefix.
TARGETS = (
    ("cli.load_csv", "almostdom.cli", "load_csv"),
    ("empirical.EmpiricalDistribution", "almostdom.empirical", "EmpiricalDistribution"),
    ("coefficients.coefficient", "almostdom.coefficients", "coefficient"),
    ("coefficients.difference_curve", "almostdom.coefficients", "difference_curve"),
    ("calculus.integrate", "almostdom.calculus", "integrate_up"),
    ("calculus.integrate", "almostdom.calculus", "integrate_down"),
    ("covariance.std_curve_for", "almostdom.covariance", "std_curve_for"),
    ("rng.child_rng", "almostdom.rng", "child_rng"),
    ("rng.child_seed", "almostdom.rng", "child_seed"),
    ("inference.contact_sets", "almostdom.inference", "contact_sets"),
    ("inference.bootstrap_ci", "almostdom.inference", "bootstrap_ci"),
    ("inference.tuning_table", "almostdom.inference", "tuning_table"),
    ("simulation.population_coefficient", "almostdom.simulation", "population_coefficient"),
    ("simulation.monte_carlo", "almostdom.simulation", "monte_carlo"),
)

# Spans reported with self time and call count; rng.child_seed reports calls only.
TIMED = tuple(dict.fromkeys(prefix for prefix, _, _ in TARGETS if prefix != "rng.child_seed"))

# Spans that draw bootstrap replicates, and the non-replicate work inside
# them that replicate_us leaves out.
REPLICATE_SPANS = frozenset({"inference.bootstrap_ci", "inference.tuning_table"})
NOT_REPLICATE = frozenset(
    {"coefficients.coefficient", "covariance.std_curve_for", "inference.contact_sets"}
)


def _rows_loaded(args, result):
    n = getattr(result, "n", None)
    return {"rows": n if n is not None else sum(sample.n for sample in result)}


def _kernel(args, result):
    # operator degree 1 takes the diagonal path; above it the G x G kernel is built
    grid = args["spec"].n_points
    return {"kernel_bytes": grid * grid * 8 if args["family"].operator_degree > 1 else 0}


def _bootstrap(args, result):
    boot = args["cfg"].n_boot
    return {
        "attempted": boot,
        "used": result.n_boot_effective,
        "rows_bytes": boot * args["spec"].n_points * 8,
    }


def _tuning(args, result):
    # The table reports no used-replicate count. Under the default
    # skip_degenerate=False any unusable replicate raises, so a returned
    # table used every replicate it drew.
    attempted = args["n_cal_reps"] * args["n_cal_boot"]
    return {
        "attempted": attempted,
        "used": attempted,
        "rows_bytes": args["n_cal_boot"] * args["spec"].n_points * 8,
    }


DESCRIBE = {
    "cli.load_csv": _rows_loaded,
    "covariance.std_curve_for": _kernel,
    "inference.bootstrap_ci": _bootstrap,
    "inference.tuning_table": _tuning,
}


class Tracer:
    """In-memory span recorder for single-threaded runs."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        signature = inspect.signature(fn) if describe else None

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.info[index] = describe(bound.arguments, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every package-level binding of each target with its wrapper."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "almostdom" or name.startswith("almostdom."))
    ]
    patched = []
    for prefix, module_name, attr in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(prefix, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, key, value))
                    setattr(module, key, wrapper)
    try:
        yield tracer
    finally:
        for module, key, value in reversed(patched):
            setattr(module, key, value)


def summarize(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration that took ``wall_s``."""
    names = tracer.names
    parents = np.asarray(tracer.parents, dtype=np.int64)
    duration = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    nested = parents >= 0
    child_time = np.zeros(len(names))
    np.add.at(child_time, parents[nested], duration[nested])
    self_time = duration - child_time

    out: dict[str, float] = {}
    for prefix in TIMED:
        out[f"{prefix}.self_s"] = 0.0
        out[f"{prefix}.calls"] = 0
    out["rng.child_seed.calls"] = 0
    for i, name in enumerate(names):
        out[f"{name}.calls"] += 1
        if name in TIMED:
            out[f"{name}.self_s"] += float(self_time[i])

    # parents precede children, so one forward pass finds each span's
    # enclosing replicate span and excluded (non-replicate) ancestor
    in_replicates = np.zeros(len(names), dtype=bool)
    in_excluded = np.zeros(len(names), dtype=bool)
    replicate_s = 0.0
    for i, name in enumerate(names):
        p = parents[i]
        if p >= 0:
            in_replicates[i] = in_replicates[p] or names[p] in REPLICATE_SPANS
            in_excluded[i] = in_excluded[p] or names[p] in NOT_REPLICATE
        if name in REPLICATE_SPANS and not in_replicates[i]:
            replicate_s += duration[i]
        elif name in NOT_REPLICATE and in_replicates[i] and not in_excluded[i]:
            replicate_s -= duration[i]

    def info_total(key, reduce=sum):
        values = [rec[key] for rec in tracer.info.values() if key in rec]
        return reduce(values) if values else 0

    rows = info_total("rows")
    load_s = out["cli.load_csv.self_s"]
    attempted = info_total("attempted")
    out["cli.load_csv.rows_per_s"] = rows / load_s if load_s > 0 else 0.0
    out["inference.replicates_attempted"] = attempted
    out["inference.replicates_used_share"] = info_total("used") / attempted if attempted else 0.0
    out["inference.replicate_us"] = replicate_s / attempted * 1e6 if attempted else 0.0
    out["inference.rows_bytes"] = info_total("rows_bytes", max)
    out["covariance.kernel_bytes"] = info_total("kernel_bytes", max)
    out["trace.unattributed_s"] = wall_s - float(duration[~nested].sum())
    return out
