"""Scaling sweep of the two hot layers over sample size n and grid size G.

For n in {1e2, 1e3, 1e5} and G in {1e3, 1e4} it times ``std_curve_for``
on the Lorenz degree-1 diagonal path and the degree-2 full-kernel path,
and the per-replicate cost of ``bootstrap_ci`` (Lorenz degree 1, matched
pairs, measured with the same spans as the traced workloads). Cells over a
cap are skipped and reported with the reason; the caps depend only on n
and G, so the same cells are measured in every run:

* memory: the full degree-2 kernel needs G*G*8 bytes, and the kernel path
  holds a few copies of it; above ``MEMORY_CAP_BYTES`` it is not built.
* time: the diagonal path and each replicate's studentization cost grow
  like n*G (about 2.6e-8 s per element on a 2-core Xeon); above
  ``WORK_CAP`` elements a cell would take half a minute.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from tracing import Tracer, installed, summarize
from workloads import LDC_B, draw_pairs

SIZES = (100, 1000, 100_000)
GRIDS = (1000, 10_000)
MEMORY_CAP_BYTES = 256 * 2**20
WORK_CAP = 10**8


def skip_reason(kind: str, n: int, grid: int) -> str | None:
    if kind == "lorenz2" and grid * grid * 8 > MEMORY_CAP_BYTES:
        return (
            f"G x G kernel is {grid * grid * 8 / 2**20:.0f} MB, "
            f"over the {MEMORY_CAP_BYTES // 2**20} MB cap"
        )
    if n * grid > WORK_CAP:
        return f"n*G = {n * grid:.0e} elements, over the {WORK_CAP:.0e} cap"
    return None


def cell_names() -> list[tuple[str, str, int, int]]:
    """(metric name, kind, n, G) for every cell, measured or skipped."""
    cells = []
    for n in SIZES:
        for grid in GRIDS:
            for kind in ("lorenz1", "lorenz2"):
                cells.append((f"sweep.std_curve_for.{kind}.n{n}.G{grid}.s", kind, n, grid))
            cells.append((f"sweep.bootstrap_ci.replicate_us.n{n}.G{grid}", "replicate", n, grid))
    return cells


def _median_time(call, budget_s: float = 0.5, max_repeats: int = 5) -> float:
    times = []
    while len(times) < max_repeats and (not times or sum(times) < budget_s):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(seed: int) -> tuple[dict[str, float], list[dict]]:
    """Measure every cell under the caps; return metrics and skipped cells."""
    import almostdom as ad

    metrics: dict[str, float] = {}
    skipped: list[dict] = []
    for name, kind, n, grid in cell_names():
        reason = skip_reason(kind, n, grid)
        if reason is not None:
            skipped.append({"cell": name, "reason": reason})
            continue
        x1, x2 = draw_pairs(LDC_B, n, seed)
        pairs = ad.PairedSample(x1, x2)
        d1, d2 = ad.EmpiricalDistribution(x1), ad.EmpiricalDistribution(x2)
        spec = ad.GridSpec(grid)
        matched = ad.SamplingScheme.MATCHED
        if kind == "replicate":
            boot = 200 if n * grid <= 10**7 else 10
            cfg = ad.InferenceConfig(t_n=1.0, seed=seed, n_boot=boot)
            tracer = Tracer()
            with installed(tracer):
                start = perf_counter()
                ad.inference.bootstrap_ci(pairs, ad.DominanceFamily.lorenz(1), matched, spec, cfg)
                wall = perf_counter() - start
            metrics[name] = summarize(tracer, wall)["inference.replicate_us"]
        else:
            family = ad.DominanceFamily.lorenz(int(kind[-1]))
            metrics[name] = _median_time(
                lambda: ad.std_curve_for(family, d1, d2, pairs, matched, spec)
            )
    return metrics, skipped
