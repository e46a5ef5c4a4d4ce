"""Command-line front end.

Subcommands
-----------
estimate   point estimate of a dominance coefficient from CSV data
ci         estimate plus a bootstrap confidence interval (ReportRecord)
simulate   Monte Carlo coverage study for a bundled DGP preset
tune       calibrate the studentization threshold on observed data
measures   rank-dependent welfare and inequality of one sample

Input CSV formats: matched pairs use one file with header ``x1,x2``;
independent samples use either one file with header ``group,value``
(group 1 or 2) or two single-column files (``--input`` and ``--input2``).
Outputs are JSON (default) or CSV, to stdout or ``--output``. Exit codes:
0 success, 2 indistinguishable curves (coefficient undefined), 3 boundary
estimate under ``--strict``, 1 other errors (a request too large for
memory among them).

``--threads 0`` (or unset, via the ALMOSTDOM_THREADS environment
variable) uses all cores for the simulate/tune/ci drivers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .calculus import GridSpec
from .coefficients import (
    Direction,
    DominanceFamily,
    Family,
    coefficient,
    cubic_preference,
    default_grid,
    difference_curve,
    family_curves,
    rank_measures,
)
from .covariance import std_curve_for
from .empirical import (
    EmpiricalDistribution,
    PairedSample,
    Sample,
    SamplingScheme,
)
from .errors import (
    AlmostDomError,
    CsvParseError,
    DegenerateCurvesError,
    InvalidConfigError,
    NegativeValueError,
)
from .inference import (
    InferenceConfig,
    _unpack,
    bootstrap_ci,
    select_tuning,
    tuning_table,
)
from .simulation import (
    DiscreteLaw,
    DoublePareto,
    MonteCarloStudy,
    monte_carlo,
    population_coefficient,
    population_curves,
)

__all__ = ["main", "load_csv", "ReportRecord", "PRESETS"]


# ---------------------------------------------------------------------------
# CSV ingestion


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_table(
    path: str, header: str | None, require_nonnegative: bool
) -> np.ndarray:
    """The data of a CSV file as a (columns, rows) float array, in file order.

    ``header`` (``"x1,x2"`` or ``"group,value"``) is the required first
    row, matched case-blind with its cells stripped; ``None`` reads one
    column whose first row is a header when it is not a number. Rows whose
    cells are all blank are skipped (in a single-column file, rows of at
    most one cell), and every other row needs one cell per column. The
    ``group`` column must hold 1 or 2; every other column must be
    nonnegative under ``require_nonnegative``. The first faulty cell in
    file order is reported, with 1-based row numbers that count the header.

    A well-formed file is parsed in one C call (:func:`_parse_table`); any
    other file, or one that call cannot parse, is read cell by cell
    (:func:`_scan_table`), which finds the fault. Both give the same table.
    """
    try:
        table = _parse_table(path, header, require_nonnegative)
    except Exception:  # whatever the fault, the scan reports it
        table = None
    return _scan_table(path, header, require_nonnegative) if table is None else table


def _parse_table(
    path: str, header: str | None, require_nonnegative: bool
) -> np.ndarray | None:
    """:func:`_read_table` of a well-formed file, whose body ``np.loadtxt``
    parses; None where a check fails.

    The first row is read as :func:`_scan_table` reads it. numpy takes no
    cell that ``float`` refuses: it splits each line at its commas (without
    quoting, so a quoted cell fails to convert) and converts only ASCII
    cells, without underscores. Nor does it read a cell past ``csv``'s
    field size limit, which no line here exceeds.
    """
    names = header.split(",") if header else ["value"]
    with open(path, newline="", encoding="utf-8-sig") as handle:
        first = next(csv.reader(handle), None)
        lines = handle.readlines()
    if first is None or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    if header:
        if [cell.strip().lower() for cell in first] != names:
            return None
    elif len(first) > 1:
        return None
    elif first and _is_number(first[0]):
        lines.insert(0, first[0] + "\n")  # a first row that is a number is data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a body without rows warns; the scan reports it
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if not rows.shape[0] or rows.shape[1] != len(names):
        return None
    table = rows.T
    if header == "group,value":
        group, checked = table[0], table[1:]
        ones, twos = group == 1.0, group == 2.0
        if not ((ones | twos).all() and ones.any() and twos.any()):
            return None
    else:
        checked = table
    if require_nonnegative and (checked < 0.0).any():
        return None
    return table


def _scan_table(
    path: str, header: str | None, require_nonnegative: bool
) -> np.ndarray:
    """:func:`_read_table`, reading each row and cell in turn."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet programs write
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise AlmostDomError(f"cannot read {path}: {exc}") from exc
    names = header.split(",") if header else ["value"]
    width = len(names)
    grouped = header == "group,value"
    if header:
        if not rows:
            raise CsvParseError(f"{path} is empty", row=1)
        if [cell.strip().lower() for cell in rows[0]] != names:
            hint = " (or pass two files)" if grouped else ""
            raise CsvParseError(
                f"expected header {header!r}{hint}, got {','.join(rows[0])!r}", row=1
            )
    numbers, cells = [], []
    first = 2 if header else 1
    for number, row in enumerate(rows[first - 1 :], start=first):
        if not any(map(str.strip, row)) and (width > 1 or len(row) <= 1):
            continue
        if len(row) != width:
            expected = "2 columns" if width > 1 else f"a single column, got {len(row)}"
            raise CsvParseError(f"row {number}: expected {expected}", row=number)
        numbers.append(number)
        cells += row
    if not header and numbers[:1] == [1] and not _is_number(cells[0]):
        del numbers[0], cells[0]

    try:
        values = np.fromiter(map(float, cells), float, len(cells))
        stop = len(cells)
    except ValueError:
        stop = next(k for k, text in enumerate(cells) if not _is_number(text))
        values = np.fromiter(map(float, cells[:stop]), float, stop)
    # a fault among the cells before the first unconvertible one comes first
    group = grouped & (np.arange(stop) % width == 0)
    negative = require_nonnegative & (values < 0.0)
    faults = np.flatnonzero(np.where(group, (values != 1.0) & (values != 2.0), negative))
    if faults.size or stop < len(cells):
        k = int(faults[0]) if faults.size else stop
        row, col = numbers[k // width], k % width + 1
        if k == stop:
            text = cells[k] if header else cells[k].strip()
            raise CsvParseError(
                f"row {row}, column {col}: {text!r} is not a number", row=row, col=col
            )
        if group[k]:
            raise CsvParseError(f"row {row}: group must be 1 or 2", row=row, col=col)
        raise NegativeValueError(
            f"row {row}: negative value {float(values[k])!r} not allowed for this family",
            row=row,
        )
    table = values.reshape(-1, width).T
    if grouped:
        if not ((table[0] == 1.0).any() and (table[0] == 2.0).any()):
            raise CsvParseError("both groups need at least one row", row=1)
    elif not numbers:
        raise CsvParseError(f"{path} contains no data rows", row=1)
    return table


def load_csv(
    path: str,
    scheme: SamplingScheme,
    path2: str | None = None,
    require_nonnegative: bool = False,
):
    """Load sample data per the sampling scheme.

    Matched pairs: ``path`` has header ``x1,x2``. Independent samples:
    either ``path`` has header ``group,value`` with groups 1 and 2, or
    ``path`` and ``path2`` are single-column files. Row numbers in errors
    are 1-based and count the header.
    """
    if scheme is SamplingScheme.MATCHED:
        if path2 is not None:
            raise InvalidConfigError("matched scheme takes a single two-column file")
        x1, x2 = _read_table(path, "x1,x2", require_nonnegative)
        return PairedSample(x1, x2)
    if path2 is not None:
        (v1,) = _read_table(path, None, require_nonnegative)
        (v2,) = _read_table(path2, None, require_nonnegative)
        return Sample(v1), Sample(v2)
    group, value = _read_table(path, "group,value", require_nonnegative)
    first = group == 1.0
    return Sample(value[first]), Sample(value[~first])


# ---------------------------------------------------------------------------
# Report records


@dataclass(frozen=True)
class ReportRecord:
    """Machine-readable result of a ``ci`` run; serializes losslessly.

    ``plus_nodes``, ``minus_nodes`` and ``zero_nodes`` count the grid nodes
    in each contact set; records that predate them parse with -1 there.
    """

    family: str
    m: int
    direction: str
    n1: int
    n2: int
    c_hat: float
    ci_lo: float
    ci_hi: float
    t_n: float
    xi0: float
    n_boot: int
    n_boot_effective: int
    seed: int
    boundary_flag: bool
    plus_nodes: int = -1
    minus_nodes: int = -1
    zero_nodes: int = -1
    runtime_ms: float = 0.0  # set by ``main``

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReportRecord":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ReportRecord":
        return cls.from_dict(json.loads(text))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(payload: dict | list[dict], fmt: str, output: str | None) -> None:
    """Write one record (a dict) or a table (a list of dicts) as JSON or CSV."""
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        rows = payload if isinstance(payload, list) else [payload]
        columns = list(rows[0])
        lines = [",".join(columns)]
        lines += [",".join(_format_value(r[c]) for c in columns) for r in rows]
        text = "\n".join(lines)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _write_curves(path: str, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(arrays[0].size):
            writer.writerow([f"{a[i]:.17g}" for a in arrays])


# ---------------------------------------------------------------------------
# Presets


def _sdc_laws(beta: float) -> tuple[DiscreteLaw, DiscreteLaw]:
    first = DiscreteLaw([(0.25, 1.0 / beta), (1.0, 1.0 - 1.0 / beta)])
    second = DiscreteLaw([(0.5, 2.0 / 3.0), (0.75, 1.0 / 3.0)])
    return first, second


PRESETS: dict[str, dict] = {}
for _name, _beta in zip("abcd", (2, 3, 4, 5)):
    PRESETS[f"ldc-{_name}"] = {
        "dgp1": DoublePareto(3.0, 1.5),
        "dgp2": DoublePareto(2.1, float(_beta)),
        "family": DominanceFamily.lorenz(1),
    }
for _name, _beta in zip("abcd", (2.2, 2.3, 2.4, 2.5)):
    PRESETS[f"uisdc-{_name}"] = {
        "dgp1": DoublePareto(2.1, 1.5),
        "dgp2": DoublePareto(200.0, _beta),
        "family": DominanceFamily.inverse_sd(3, Direction.UP),
    }
for _name, _beta in zip("abcd", (8, 6, 4, 2)):
    _d1, _d2 = _sdc_laws(float(_beta))
    PRESETS[f"sdc-{_name}"] = {
        "dgp1": _d1,
        "dgp2": _d2,
        "family": DominanceFamily.sd(1),
    }


# ---------------------------------------------------------------------------
# Argument plumbing


def _family_from_args(args) -> DominanceFamily:
    kind = {"lorenz": Family.LORENZ, "isd": Family.INVERSE_SD, "sd": Family.SD}[
        args.family
    ]
    direction = Direction.UP if args.dir == "up" else Direction.DOWN
    return DominanceFamily(kind, args.m, direction)


def _scheme_from_args(args) -> SamplingScheme:
    return (
        SamplingScheme.MATCHED if args.scheme == "matched" else SamplingScheme.INDEPENDENT
    )


def _threads(args) -> int:
    value = args.threads
    if value is None:
        try:
            value = int(os.environ.get("ALMOSTDOM_THREADS", "0"))
        except ValueError:
            raise InvalidConfigError("ALMOSTDOM_THREADS must be an integer") from None
    if value < 0:
        raise InvalidConfigError(f"thread count must be >= 0, got {value}")
    return value or os.cpu_count() or 1


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidConfigError(f"{what} must be comma-separated numbers: {text!r}") from None
    if not values:
        raise InvalidConfigError(f"{what} is empty")
    return values


def _load_data(args, family: DominanceFamily):
    scheme = _scheme_from_args(args)
    nonneg = family.kind in (Family.LORENZ, Family.INVERSE_SD)
    data = load_csv(args.input, scheme, args.input2, require_nonnegative=nonneg)
    d1, d2, pairs = _unpack(data, scheme)
    if args.domain is None:
        return data, d1, d2, pairs, scheme, default_grid(family, d1, d2, args.grid)
    parts = _parse_floats(args.domain, "--domain")
    if len(parts) != 2:
        raise InvalidConfigError(f"--domain needs exactly two numbers: {args.domain!r}")
    return data, d1, d2, pairs, scheme, GridSpec(args.grid, (parts[0], parts[1]))


def _fit_curves(family, d1, d2, pairs, scheme, spec, std=None) -> dict[str, np.ndarray]:
    """The ``--emit-curves`` columns of a fit; ``std`` is computed when not given."""
    if std is None:
        std = std_curve_for(family, d1, d2, pairs, scheme, spec)
    curve1, curve2 = family_curves(family, d1, d2, spec)
    return {
        "p": spec.nodes(),
        "curve1": curve1.values,
        "curve2": curve2.values,
        "diff": difference_curve(family, d1, d2, spec).values,
        "std": std.values,
    }


# ---------------------------------------------------------------------------
# Subcommands
#
# Each command returns ``(report, curves, exit_code)``: one record (a
# dict), or a list of rows for ``tune``; a zero-argument callable giving
# the ``--emit-curves`` columns, called only when they are asked for; and
# the exit code. ``main`` times the command, sets ``runtime_ms`` as the
# last key of every record (``ReportRecord`` keeps its slot there) and
# writes both.


def _cmd_estimate(args):
    family = _family_from_args(args)
    _, d1, d2, pairs, scheme, spec = _load_data(args, family)
    est = coefficient(family, d1, d2, spec)
    report = {
        "family": family.kind.value,
        "m": family.degree,
        "direction": family.direction.value,
        "n1": est.n1,
        "n2": est.n2,
        "c_hat": est.c_hat,
        "pos_area": est.pos_area,
        "neg_area": est.neg_area,
        "effective_n": est.effective_n,
        "size_share": est.size_share,
        "grid_points": spec.n_points,
        "domain_lo": spec.domain[0],
        "domain_hi": spec.domain[1],
    }
    return report, partial(_fit_curves, family, d1, d2, pairs, scheme, spec), 0


def _cmd_ci(args):
    family = _family_from_args(args)
    data, d1, d2, pairs, scheme, spec = _load_data(args, family)
    n_jobs = _threads(args)
    if args.tn is not None and args.tune:
        raise InvalidConfigError("pass either --tn or --tune, not both")
    if args.tn is None and not args.tune:
        raise InvalidConfigError("ci needs either --tn or --tune")
    cfg = InferenceConfig(
        t_n=args.tn if args.tn is not None else 1.0,
        seed=args.seed,
        xi0=args.xi0,
        n_boot=args.boot,
        alpha=args.alpha,
        clamp_to_unit=not args.no_clamp,
    )
    if args.tn is None:
        selected = select_tuning(
            data, family, scheme, spec, cfg,
            _parse_floats(args.candidates, "--candidates"),
            args.cal_reps, args.cal_boot, n_jobs=n_jobs,
        )
        cfg = replace(cfg, t_n=selected)
    result = bootstrap_ci(data, family, scheme, spec, cfg, n_jobs=n_jobs)
    record = ReportRecord(
        family=family.kind.value,
        m=family.degree,
        direction=family.direction.value,
        n1=result.estimate.n1,
        n2=result.estimate.n2,
        c_hat=result.estimate.c_hat,
        ci_lo=result.ci[0],
        ci_hi=result.ci[1],
        t_n=cfg.t_n,
        xi0=cfg.xi0,
        n_boot=cfg.n_boot,
        n_boot_effective=result.n_boot_effective,
        seed=cfg.seed,
        boundary_flag=result.boundary,
        plus_nodes=result.plus_nodes,
        minus_nodes=result.minus_nodes,
        zero_nodes=result.zero_nodes,
    )
    curves = partial(_fit_curves, family, d1, d2, pairs, scheme, spec, result.std)
    return record.to_dict(), curves, 3 if args.strict and result.boundary else 0


def _cmd_simulate(args):
    preset = PRESETS[args.preset]
    family = preset["family"]
    true_c = population_coefficient(preset["dgp1"], preset["dgp2"], family)
    cfg = InferenceConfig(t_n=args.tn, seed=args.seed, n_boot=args.boot, alpha=args.alpha)
    study = MonteCarloStudy(
        dgp1=preset["dgp1"],
        dgp2=preset["dgp2"],
        family=family,
        scheme=_scheme_from_args(args),
        sizes=(args.n1, args.n2),
        cfg=cfg,
        n_reps=args.reps,
        true_c=true_c,
        grid_points=args.grid,
    )
    report = monte_carlo(study, n_jobs=_threads(args))
    record = {
        "preset": args.preset,
        "family": family.kind.value,
        "m": family.degree,
        "direction": family.direction.value,
        "scheme": args.scheme,
        "n1": args.n1,
        "n2": args.n2,
        "reps": args.reps,
        "boot": args.boot,
        "seed": args.seed,
        "true_c": true_c,
        "Mean": report.mean,
        "Bias": report.bias,
        "SE": report.se,
        "RMSE": report.rmse,
        "t_n": cfg.t_n,
        "CR": report.cr,
        "CR_se": report.cr_se,
        "failed": report.n_failed,
    }

    def curves():
        spec, curve1, curve2, diff = population_curves(
            preset["dgp1"], preset["dgp2"], family, args.grid
        )
        return {"p": spec.nodes(), "curve1": curve1, "curve2": curve2, "diff": diff}

    return record, curves, 0


def _cmd_tune(args):
    family = _family_from_args(args)
    data, d1, d2, pairs, scheme, spec = _load_data(args, family)
    cfg = InferenceConfig(t_n=1.0, seed=args.seed, xi0=args.xi0, alpha=args.alpha)
    candidates = _parse_floats(args.candidates, "--candidates")
    table = tuning_table(
        data, family, scheme, spec, cfg, candidates, args.cal_reps, args.cal_boot,
        n_jobs=_threads(args),
    )
    rows = [
        {
            "t_n": t,
            "coverage": cov,
            "selected": t == table.selected,
            "pseudo_true": table.pseudo_true,
            "cal_failed": table.n_failed,
        }
        for t, cov in zip(table.candidates, table.coverage)
    ]
    return rows, partial(_fit_curves, family, d1, d2, pairs, scheme, spec), 0


def _cmd_measures(args):
    (values,) = _read_table(args.input, None, require_nonnegative=True)
    dist = EmpiricalDistribution(values)
    spec = GridSpec(args.grid, (0.0, 1.0))
    if args.preference != "cubic":
        raise InvalidConfigError(f"unknown preference {args.preference!r}")
    pref = cubic_preference()
    result = rank_measures(dist, pref, spec)
    record = {
        "n": dist.n,
        "mean": result.mean,
        "welfare": result.welfare,
        "inequality": result.inequality,
        "preference": pref.name,
        "grid_points": spec.n_points,
    }

    def curves():
        nodes = spec.nodes()
        return {
            "p": nodes,
            "quantile": dist.quantile(nodes),
            "lorenz": dist.lorenz(nodes),
            "weight": pref.weight(nodes),
        }

    return record, curves, 0


# ---------------------------------------------------------------------------
# Parser


def _add_common_output(parser) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--emit-curves",
        metavar="PATH",
        help="dump the fitted (or population) curves as CSV for plotting",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes; 0 = all cores (default from ALMOSTDOM_THREADS)",
    )


def _add_family_and_data(parser) -> None:
    parser.add_argument("--family", choices=("lorenz", "isd", "sd"), required=True)
    parser.add_argument("--m", type=int, default=1, help="dominance degree")
    parser.add_argument("--dir", choices=("up", "down"), default="up")
    parser.add_argument("--scheme", choices=("ind", "matched"), required=True)
    parser.add_argument("--input", required=True, help="CSV input file")
    parser.add_argument(
        "--input2", help="second single-column file (independent scheme)"
    )
    parser.add_argument("--grid", type=int, default=1000, help="grid points")
    parser.add_argument(
        "--domain", help="a,b domain override for the sd family (default: data hull)"
    )


def _add_inference(parser) -> None:
    parser.add_argument("--tn", type=float, help="studentization threshold")
    parser.add_argument(
        "--tune", action="store_true", help="calibrate the threshold first"
    )
    parser.add_argument("--boot", type=int, default=1000, help="bootstrap replicates")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--xi0", type=float, default=0.001)
    parser.add_argument(
        "--no-clamp", action="store_true", help="do not intersect the CI with [0, 1]"
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit 3 when the estimate sits at 0 or 1"
    )


def _add_tuning(parser) -> None:
    parser.add_argument(
        "--candidates",
        default="0.001,0.01,0.1,1,5,10,20",
        help="comma-separated thresholds to calibrate over",
    )
    parser.add_argument("--cal-reps", type=int, default=50)
    parser.add_argument("--cal-boot", type=int, default=100)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors reach ``main`` as InvalidConfigError."""

    def error(self, message):
        raise InvalidConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="almostdom",
        description="Almost-dominance coefficients with bootstrap confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="point estimate from CSV data")
    _add_family_and_data(p_est)
    _add_common_output(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_ci = sub.add_parser("ci", help="estimate plus bootstrap confidence interval")
    _add_family_and_data(p_ci)
    _add_inference(p_ci)
    _add_tuning(p_ci)
    _add_common_output(p_ci)
    p_ci.set_defaults(func=_cmd_ci)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage for a preset")
    p_sim.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p_sim.add_argument("--scheme", choices=("ind", "matched"), default="matched")
    p_sim.add_argument("--n1", type=int, required=True)
    p_sim.add_argument("--n2", type=int, required=True)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--boot", type=int, default=1000)
    p_sim.add_argument("--tn", type=float, required=True)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--grid", type=int, default=1000)
    _add_common_output(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tune = sub.add_parser("tune", help="calibrate the studentization threshold")
    _add_family_and_data(p_tune)
    p_tune.add_argument("--alpha", type=float, default=0.05)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--xi0", type=float, default=0.001)
    _add_tuning(p_tune)
    _add_common_output(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_meas = sub.add_parser("measures", help="welfare and inequality of one sample")
    p_meas.add_argument("--input", required=True, help="single-column CSV")
    p_meas.add_argument("--preference", default="cubic")
    p_meas.add_argument("--grid", type=int, default=1000)
    _add_common_output(p_meas)
    p_meas.set_defaults(func=_cmd_measures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report, curves, code = args.func(args)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        for record in report if isinstance(report, list) else [report]:
            record["runtime_ms"] = runtime_ms
        if args.emit_curves:
            _write_curves(args.emit_curves, curves())
        _emit(report, args.format, args.output)
        return code
    except (OSError, AlmostDomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DegenerateCurvesError) else 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
