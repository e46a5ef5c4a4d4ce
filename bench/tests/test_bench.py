"""Tests of the benchmark itself: inputs, output checks and metric names.

Run from the repository root with ``python -m pytest bench/tests``; the
tests that start the benchmark take about three minutes together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def run_bench(*args, cwd=ROOT, timeout=240):
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec["per_layer"]]


def input_bytes(tmp_path: Path, name: str, seed: int, tag: str) -> dict[str, bytes]:
    work = tmp_path / tag
    workloads.WORKLOADS[name].write_inputs(work, seed)
    return {
        str(path.relative_to(work)): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(tmp_path, name):
    first = input_bytes(tmp_path, name, 3, "a")
    again = input_bytes(tmp_path, name, 3, "b")
    other = input_bytes(tmp_path, name, 4, "c")
    assert first and first == again
    assert first != other


def test_every_command_gets_the_seed():
    for workload in workloads.WORKLOADS.values():
        for argv in workload.commands(Path("w"), 11):
            assert argv[argv.index("--seed") + 1] == "11"


def test_boundary_estimate_is_flagged():
    fields = {
        "m1": {"c_hat": 1.0, "ci_lo": 0.9, "ci_hi": 1.0, "boundary_flag": True,
               "n1": 5, "n2": 5, "n_boot": 10}
    }
    problems = workloads.CI_MANY_BOOT.problems(fields)
    assert any("strictly inside" in p for p in problems)
    assert any("boundary_flag" in p for p in problems)


def test_reference_tolerance_is_relative():
    assert workloads.reference_problems({"x": 0.5 * (1 + 1e-12)}, {"x": 0.5}) == []
    assert workloads.reference_problems({"x": 0.5 * (1 + 1e-8)}, {"x": 0.5}) != []
    assert workloads.reference_problems({"n": 100}, {"n": 101}) != []
    assert workloads.reference_problems({"b": True}, {"b": False}) != []


def test_wrong_reference_fails_every_iteration(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["0"]["ci_many_boot.simulate_sd"]["simulate_sd"]["Mean"] *= 1 + 1e-6
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(reference))
    result = result_of(
        run_bench("--workload", "ci_many_boot.simulate_sd", "--seed", "0", "--seconds", "1",
                  "--trace", "1", "--reference", str(wrong))
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["failed_share"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    proc = run_bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(per_layer_names())
    assert result["metrics"]["failed_share"]["value"] == 0.0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    traced_wall = sum(detail["traced_iteration_s"]) / len(detail["traced_iteration_s"])
    assert 0 <= result["metrics"]["trace.unattributed_s"]["value"] < 0.1 * traced_wall


def test_untraced_run_reports_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = result_of(
        run_bench("--workload", "ci_many_boot.simulate_sd", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    )
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ci_many_boot.simulate_sd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
