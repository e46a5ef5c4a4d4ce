"""Seeded benchmark of the almostdom ``ci``, ``tune`` and ``simulate`` commands.

Run from the repository root:

    python3 bench/run.py --workload ci_large_n --seed 0 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed``, warms up on tiny
inputs, then calls ``almostdom.cli.main(argv)`` in this process, one
iteration (the workload's command or commands) after another, until
``--seconds`` would be exceeded. Every iteration's report is checked:
structural checks for any seed, and the recorded reference values in
``bench/reference.json`` for the seeds recorded there. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``       median wall time of one iteration (the iteration times
                   are printed on the line before the result);
* ``peak_rss_mb``  peak resident memory of this process, which runs only
                   this workload;
* ``setup_s``      time from the start of this script to the first timed
                   iteration (package import, input generation, warm-up),
                   the median over this process and ``SETUP_CHILDREN``
                   fresh processes that only set up.

``--trace 1`` alternates untraced and traced iterations for half of
``--seconds`` (at least one of each) and reports the per-layer metrics
of ``tracing.summarize`` averaged over the traced iterations,
``trace.overhead_s`` (median traced minus median untraced iteration),
``failed_share`` and the scaling sweep of ``sweep.py``.

Every process pins BLAS and OpenMP to one thread before numpy is
imported and holds glibc's mmap threshold fixed (``pin_allocator``); the
commands run with ``--threads 1``.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_CHILDREN = 6
# glibc's default mmap threshold, and the mallopt parameter that sets it
MMAP_THRESHOLD = 128 * 1024
M_MMAP_THRESHOLD = -3
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_allocator() -> None:
    """Hold glibc's mmap threshold at its default value.

    By default glibc raises the threshold after a large block is freed, so
    whether later large arrays reuse heap memory or fault in fresh pages
    depends on what the process happened to free before: the tune command
    alone took 1.1 s in one process and 1.9 s in another (2-core Xeon VM).
    A fixed threshold gives every process the same allocator behaviour.
    Without glibc the allocator is left alone.
    """
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (OSError, AttributeError):
        pass


def import_package():
    """Import almostdom from this checkout's ``src``, nowhere else."""
    if not (SRC / "almostdom" / "__init__.py").is_file():
        raise BenchError(f"no almostdom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import almostdom.cli

    if not Path(almostdom.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported almostdom from {almostdom.__file__}, not {SRC}")
    return almostdom.cli


def set_up(workload, seed: int, work: Path):
    """Import, write inputs, warm up; returns the CLI module."""
    cli = import_package()
    workload.write_inputs(work, seed, warm=True)
    for argv in workload.commands(work, seed, warm=True):
        if cli.main(argv) != 0:
            raise BenchError(f"warm-up command failed: {argv}")
    workload.write_inputs(work, seed)
    return cli


def run_iteration(cli, workload, work: Path, seed: int, expected) -> tuple[float, list[str]]:
    """Run the workload's commands once; return wall time and problems found."""
    from workloads import reference_problems

    for paths in workload.reports(work).values():
        for path in paths:
            path.unlink(missing_ok=True)
    wall = 0.0
    problems = []
    for argv in workload.commands(work, seed):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an iteration that raises is counted as failed
            traceback.print_exc()
            code = "exception"
        wall += time.perf_counter() - start
        if code != 0:
            problems.append(f"{argv[0]} exited with {code}")
    if problems:
        return wall, problems
    try:
        fields = workload.fields(work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wall, [f"unreadable report: {exc!r}"]
    problems = workload.problems(fields)
    if expected is not None:
        problems += reference_problems(fields, expected, workload.name)
    return wall, problems


def provenance() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": "BLAS/OpenMP pinned to 1, almostdom --threads 1",
        "allocator": f"glibc mmap threshold held at {MMAP_THRESHOLD} bytes",
    }


def child_setup_times(args) -> list[float]:
    """Set-up time of fresh processes that stop after set-up."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError("set-up child process failed")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args, workload, cli, work: Path, expected, setup_s: float) -> dict:
    from tracing import TIMED, Tracer, installed, summarize

    walls = {False: [], True: []}
    layer_runs = []
    failed = 0
    # the traced run leaves half its time to the scaling sweep
    budget = args.seconds / 2 if args.trace else args.seconds
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            with installed(Tracer()) as tracer:
                wall, problems = run_iteration(cli, workload, work, args.seed, expected)
            layer_runs.append(summarize(tracer, wall))
        else:
            wall, problems = run_iteration(cli, workload, work, args.seed, expected)
        walls[traced].append(wall)
        if problems:
            failed += 1
            print(f"iteration failed: {'; '.join(problems)}", file=sys.stderr)
        done = len(walls[False]) + len(walls[True])
        enough = done >= (2 if args.trace else 1)
        if enough and time.perf_counter() - begin + wall > budget:
            break
    attempted = len(walls[False]) + len(walls[True])

    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples = [setup_s] + child_setup_times(args)
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
        detail = {"iteration_s": walls[False], "setup_samples_s": setup_samples}
    else:
        import sweep

        layers = {key: statistics.fmean(run[key] for run in layer_runs) for key in layer_runs[0]}
        layers["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False])
        )
        layers["failed_share"] = failed / attempted
        traced_wall = statistics.fmean(walls[True])
        shares = {
            prefix: layers[f"{prefix}.self_s"] / traced_wall
            for prefix in TIMED
            if layers[f"{prefix}.self_s"] > 0
        }
        sweep_metrics, skipped = sweep.run(args.seed)
        layers.update(sweep_metrics)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
        detail = {
            "untraced_iteration_s": walls[False],
            "traced_iteration_s": walls[True],
            "self_time_share": shares,
            "sweep_skipped": skipped,
        }
    info = {"workload": workload.name, "seed": args.seed, "provenance": provenance()}
    print(json.dumps({**info, **detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name == "inference.replicates_attempted":
        return "count"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith("_us") or ".replicate_us." in name:
        return "us"
    return "s"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=REFERENCE,
        help="reference values to check against (default: bench/reference.json)",
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="run one iteration and store its fields as the reference for --seed",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    pin_allocator()
    try:
        cli = set_up(workload, args.seed, work)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        references = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
        if args.record_reference:
            return record_reference(args, workload, cli, work, references)
        expected = references.get(str(args.seed), {}).get(workload.name)
        result = measure(args, workload, cli, work, expected, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


def record_reference(args, workload, cli, work: Path, references: dict) -> int:
    for argv in workload.commands(work, args.seed):
        if cli.main(argv) != 0:
            raise BenchError(f"command failed: {argv}")
    fields = workload.fields(work)
    problems = workload.problems(fields)
    if problems:
        raise BenchError("; ".join(problems))
    references.setdefault(str(args.seed), {})[workload.name] = fields
    args.reference.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
