"""Benchmark workloads: seeded inputs, command lines and output checks.

Each workload drives ``almostdom.cli.main(argv)`` with ``--threads 1`` on
inputs generated here from the workload seed. The inputs are drawn with the
benchmark's own double-Pareto sampler, so a change to the package's
simulation code cannot change them, and they are written with ``repr``
floats, so the same seed gives byte-identical files.

The four command sets ("parts") each load one layer heavily:

* ``ci_large_n``   covariance kernel (degree-1 diagonal and degree-2 full
                   kernel) and CSV ingestion at n = 5e4; few replicates.
* ``tune_isd``     one full G x G kernel per calibration replicate at small
                   n, plus the per-candidate scoring loop.
* ``ci_many_boot`` bootstrap replicate path (independent scheme, B = 6000,
                   a 48 MB B x G draw matrix); covariance is negligible.
                   n1 = n2 = 2000 rather than 500: at 500 draws from these
                   heavy-tailed laws about 2% of seeds give a boundary
                   estimate c_hat = 1.
* ``simulate_sd``  many short ``bootstrap_ci`` calls on the SD family's
                   ``searchsorted`` path, the population oracle and the
                   Monte Carlo loop.

They are paired into two workloads, covariance-heavy and replicate-heavy,
so that a change to the covariance layer moves one and predicts no change
on the other, and the other way round for the replicate path. Two
workloads rather than four leave each run twice as long, which the
machine's run-to-run spread needs (see ``provenance.json``).

Which end-to-end metric each layer metric should move, with the traced
self-time shares of seed 0 (``provenance.json``):

=================================  ===========  ==========================  =========================
layer metric                       moves        heavy on                    light on (no change)
=================================  ===========  ==========================  =========================
covariance.std_curve_for.self_s    wall_s       ci_large_n.tune_isd (79%)   ci_many_boot.simulate_sd
                                                                            (2%)
replicate path: EmpiricalDistri-   wall_s       ci_many_boot.simulate_sd    ci_large_n.tune_isd (13%)
bution, difference_curve,                       (97%)
child_rng, bootstrap_ci self
time; inference.replicate_us
cli.load_csv.self_s                wall_s       ci_large_n.tune_isd (5%)    ci_many_boot.simulate_sd
                                                                            (0.2%)
inference.tuning_table.self_s      wall_s       ci_large_n.tune_isd (3%)    absent
simulation.*.self_s                wall_s       ci_many_boot.simulate_sd    absent
                                                (0.4%)
inference.rows_bytes               peak_rss_mb  ci_many_boot.simulate_sd    ci_large_n.tune_isd
                                                (48 MB)                     (0.8 MB)
covariance.kernel_bytes            peak_rss_mb  ci_large_n.tune_isd (8 MB   ci_many_boot.simulate_sd
                                                per kernel)                 (0, diagonal path)
=================================  ===========  ==========================  =========================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# DoublePareto (alpha, beta) pairs of the two laws, as in the CLI presets.
LDC_B = ((3.0, 1.5), (2.1, 3.0))
UISDC_B = ((2.1, 1.5), (200.0, 2.3))

GRID = 1000
CI_TN = 1.0
# Relative tolerance for floats compared with the recorded reference values.
REL_TOL = 1e-9


def double_pareto(alpha: float, beta: float, u: np.ndarray) -> np.ndarray:
    """Quantile of the unit-scale double Pareto law at uniforms ``u``."""
    pj = alpha / (alpha + beta)
    below = (np.minimum(u, pj) / pj) ** (1.0 / beta)
    above = ((1.0 - np.maximum(u, pj)) / (1.0 - pj)) ** (-1.0 / alpha)
    return np.where(u <= pj, below, above)


def draw_pairs(laws, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent draws from each of the two laws, keyed by ``seed``."""
    u = np.random.default_rng(seed).random((2, n))
    return double_pareto(*laws[0], u[0]), double_pareto(*laws[1], u[1])


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [f"{a!r},{b!r}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n")


def write_pairs(path: Path, laws, n: int, seed: int) -> None:
    x1, x2 = draw_pairs(laws, n, seed)
    _write_csv(path, "x1,x2", zip(x1.tolist(), x2.tolist()))


def write_groups(path: Path, laws, n: int, seed: int) -> None:
    x1, x2 = draw_pairs(laws, n, seed)
    rows = [(1, v) for v in x1.tolist()] + [(2, v) for v in x2.tolist()]
    _write_csv(path, "group,value", rows)


@dataclass(frozen=True)
class Part:
    """One command set of a workload.

    ``write_inputs(dir, seed, sizes)`` writes the input files;
    ``commands(dir, seed, sizes)`` returns ``n_commands`` argvs, call ``i``
    writing its JSON report to ``dir / f"out{i}.json"``; ``fields(reports)``
    extracts the statistical fields that are checked, and ``problems(fields)``
    runs the checks that hold for any seed.
    """

    name: str
    n_commands: int
    sizes: dict
    warm_sizes: dict
    write_inputs: Callable[[Path, int, dict], None]
    commands: Callable[[Path, int, dict], list[list[str]]]
    fields: Callable[[list], dict]
    problems: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    """Parts run one after another in each iteration, each in its own
    subdirectory of the work directory. ``warm`` selects the tiny sizes
    run once during set-up."""

    name: str
    why: str
    parts: tuple[Part, ...]

    def write_inputs(self, work: Path, seed: int, warm: bool = False) -> None:
        for part in self.parts:
            (work / part.name).mkdir(parents=True, exist_ok=True)
            part.write_inputs(work / part.name, seed, part.warm_sizes if warm else part.sizes)

    def commands(self, work: Path, seed: int, warm: bool = False) -> list[list[str]]:
        return [
            argv
            for part in self.parts
            for argv in part.commands(
                work / part.name, seed, part.warm_sizes if warm else part.sizes
            )
        ]

    def reports(self, work: Path) -> dict[str, list[Path]]:
        return {
            part.name: [work / part.name / f"out{i}.json" for i in range(part.n_commands)]
            for part in self.parts
        }

    def fields(self, work: Path) -> dict:
        return {
            part.name: part.fields([json.loads(path.read_text()) for path in paths])
            for part, paths in zip(self.parts, self.reports(work).values())
        }

    def problems(self, fields: dict) -> list[str]:
        """Checks that hold for any seed; an empty list means the output is sane."""
        return [
            f"{part.name}: {problem}"
            for part in self.parts
            for problem in part.problems(fields[part.name])
        ]


def _tail(work: Path, seed: int, index: int) -> list[str]:
    return [
        "--seed", str(seed), "--threads", "1",
        "--output", str(work / f"out{index}.json"),
    ]


def _ci_fields(report: dict) -> dict:
    return {
        key: report[key]
        for key in ("c_hat", "ci_lo", "ci_hi", "boundary_flag", "n1", "n2", "n_boot")
    }


# -- ci_large_n ---------------------------------------------------------------


def _large_inputs(work: Path, seed: int, sizes: dict) -> None:
    write_pairs(work / "pairs.csv", LDC_B, sizes["n"], seed)


def _large_commands(work: Path, seed: int, sizes: dict) -> list[list[str]]:
    return [
        [
            "ci", "--scheme", "matched", "--family", "lorenz", "--m", str(m),
            "--input", str(work / "pairs.csv"), "--grid", str(GRID),
            "--tn", str(CI_TN), "--boot", str(sizes["boot"]),
        ]
        + _tail(work, seed, i)
        for i, m in enumerate((1, 2))
    ]


def _large_fields(reports: list) -> dict:
    return {"m1": _ci_fields(reports[0]), "m2": _ci_fields(reports[1])}


# -- ci_many_boot -------------------------------------------------------------


def _boot_inputs(work: Path, seed: int, sizes: dict) -> None:
    write_groups(work / "groups.csv", LDC_B, sizes["n"], seed)


def _boot_commands(work: Path, seed: int, sizes: dict) -> list[list[str]]:
    return [
        [
            "ci", "--scheme", "ind", "--family", "lorenz", "--m", "1",
            "--input", str(work / "groups.csv"), "--grid", str(GRID),
            "--tn", str(CI_TN), "--boot", str(sizes["boot"]),
        ]
        + _tail(work, seed, 0)
    ]


def _boot_fields(reports: list) -> dict:
    return {"m1": _ci_fields(reports[0])}


# -- tune_isd -----------------------------------------------------------------


def _tune_inputs(work: Path, seed: int, sizes: dict) -> None:
    write_pairs(work / "pairs.csv", UISDC_B, sizes["n"], seed)


def _tune_commands(work: Path, seed: int, sizes: dict) -> list[list[str]]:
    return [
        [
            "tune", "--scheme", "matched", "--family", "isd", "--m", "3",
            "--dir", "up", "--input", str(work / "pairs.csv"), "--grid", str(GRID),
            "--cal-reps", str(sizes["cal_reps"]), "--cal-boot", str(sizes["cal_boot"]),
        ]
        + _tail(work, seed, 0)
    ]


def _tune_fields(reports: list) -> dict:
    rows = reports[0]
    selected = [row["t_n"] for row in rows if row["selected"]]
    return {
        "t_n": [row["t_n"] for row in rows],
        "coverage": [row["coverage"] for row in rows],
        "selected": selected,
        "pseudo_true": rows[0]["pseudo_true"],
    }


# -- simulate_sd --------------------------------------------------------------


def _no_inputs(work: Path, seed: int, sizes: dict) -> None:
    """The simulate command draws its data in-process from the seed."""


def _simulate_commands(work: Path, seed: int, sizes: dict) -> list[list[str]]:
    return [
        [
            "simulate", "--preset", "sdc-b", "--scheme", "matched",
            "--n1", str(sizes["n"]), "--n2", str(sizes["n"]), "--grid", str(GRID),
            "--tn", "1", "--boot", str(sizes["boot"]), "--reps", str(sizes["reps"]),
        ]
        + _tail(work, seed, 0)
    ]


def _simulate_fields(reports: list) -> dict:
    report = reports[0]
    return {
        key: report[key]
        for key in ("true_c", "Mean", "Bias", "SE", "RMSE", "CR", "reps", "boot", "n1", "n2")
    }


def _finite(fields: dict) -> list[str]:
    problems = []
    for key, value in fields.items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                problems.append(f"{key} is not finite: {v!r}")
    return problems


def _interior(value: float, where: str) -> list[str]:
    # an estimate at 0 or 1 is a clamped, boundary case; no workload times one
    return [] if 0.0 < value < 1.0 else [f"{where} = {value!r} is not strictly inside (0, 1)"]


def _ci_problems(fields: dict) -> list[str]:
    problems = []
    for label, rec in fields.items():
        problems += [f"{label}.{p}" for p in _finite(rec)]
        if not 0.0 <= rec["ci_lo"] <= rec["ci_hi"] <= 1.0:
            problems.append(f"{label}: interval [{rec['ci_lo']}, {rec['ci_hi']}] out of order")
        problems += _interior(rec["c_hat"], f"{label}.c_hat")
        if rec["boundary_flag"]:
            problems.append(f"{label}: boundary_flag is set")
    return problems


def _tune_problems(fields: dict) -> list[str]:
    problems = _finite(fields)
    problems += [
        f"coverage {c!r} outside [0, 1]" for c in fields["coverage"] if not 0.0 <= c <= 1.0
    ]
    if len(fields["selected"]) != 1:
        problems.append(f"{len(fields['selected'])} candidates selected, expected 1")
    return problems + _interior(fields["pseudo_true"], "pseudo_true")


def _simulate_problems(fields: dict) -> list[str]:
    problems = _finite(fields)
    if not 0.0 <= fields["CR"] <= 1.0:
        problems.append(f"CR {fields['CR']!r} outside [0, 1]")
    return problems + _interior(fields["true_c"], "true_c") + _interior(fields["Mean"], "Mean")


CI_LARGE_N = Part(
    "ci_large_n", 2, {"n": 50_000, "boot": 50}, {"n": 400, "boot": 5},
    _large_inputs, _large_commands, _large_fields, _ci_problems,
)
CI_MANY_BOOT = Part(
    "ci_many_boot", 1, {"n": 2000, "boot": 6000}, {"n": 100, "boot": 20},
    _boot_inputs, _boot_commands, _boot_fields, _ci_problems,
)
TUNE_ISD = Part(
    "tune_isd", 1,
    {"n": 1000, "cal_reps": 12, "cal_boot": 100}, {"n": 200, "cal_reps": 2, "cal_boot": 10},
    _tune_inputs, _tune_commands, _tune_fields, _tune_problems,
)
SIMULATE_SD = Part(
    "simulate_sd", 1, {"n": 200, "boot": 200, "reps": 50}, {"n": 50, "boot": 10, "reps": 2},
    _no_inputs, _simulate_commands, _simulate_fields, _simulate_problems,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ci_large_n.tune_isd",
            "covariance-heavy: ci Lorenz m=1,2 on 5e4 pairs (kernel, CSV ingestion at large n) "
            "then tune ISD m=3 on 1e3 pairs (a G x G kernel per calibration replicate)",
            (CI_LARGE_N, TUNE_ISD),
        ),
        Workload(
            "ci_many_boot.simulate_sd",
            "replicate-heavy: ci ind. Lorenz, n=2000, B=6000 (B x G draw matrix), then simulate "
            "sdc-b n=200 (many short bootstrap_ci calls, SD path, oracle); covariance idle",
            (CI_MANY_BOOT, SIMULATE_SD),
        ),
    )
}


def reference_problems(actual, expected, where: str = "") -> list[str]:
    """Differences from a recorded reference: floats within ``REL_TOL``
    relative error, everything else (counts, flags, lists' lengths) exact."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ from the reference"]
        out = []
        for key in expected:
            out += reference_problems(actual[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs from the reference"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += reference_problems(a, e, f"{where}[{i}]")
        return out
    if isinstance(expected, float) and not isinstance(actual, bool):
        if isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=0.0
        ):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return []
