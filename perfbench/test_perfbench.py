"""Smoke-size self-test of the benchmark.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import floqtrk
from floqtrk import cli, floquet, qed, sumrule
from tracing import JOB, Span, Tracer
from worker import check_report, run_one
from workloads import WORKLOADS, job_config, job_yaml

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _shape(tree):
    """The tree with every float replaced by its type: what a seed may not change."""
    if isinstance(tree, dict):
        return {k: _shape(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_shape(v) for v in tree]
    return float if isinstance(tree, float) else tree


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_seed_only_in_values(workload):
    assert job_yaml(workload, 3) == job_yaml(workload, 3)
    assert job_yaml(workload, 3) != job_yaml(workload, 4)
    assert _shape(job_config(workload, 3)) == _shape(job_config(workload, 4))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        Span(0, JOB, JOB, 0.0, 10.0, None, 7),
        Span(1, "cli.run_job", "run_job", 1.0, 9.0, 0, 7),
        Span(2, "floquet.eigensolve", "diagonalize_hermitian", 2.0, 6.0, 1, 7),
        Span(3, "cli.run_job", "run_job", 6.0, 8.0, 1, 7),
    ]
    times = tracer.layer_self_times(7)
    assert times["cli.run_job"] == pytest.approx((8.0 - 4.0 - 2.0) + 2.0)
    assert times["floquet.eigensolve"] == pytest.approx(4.0)
    assert times[JOB] == pytest.approx(2.0)


def test_tracer_reaches_nested_eigensolves_and_restores(tmp_path):
    original = floquet.diagonalize_hermitian
    config = tmp_path / "job.yaml"
    config.write_text(job_yaml("sweep_few", 0), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        for module in (floqtrk, cli, floquet, qed, sumrule):
            assert module.diagonalize_hermitian is not original
        with tracer.job(0):
            run_one(config, tmp_path / "out")
    finally:
        tracer.uninstall()
    for module in (floqtrk, cli, floquet, qed, sumrule):
        assert module.diagonalize_hermitian is original
    assert tracer.missing == []
    counts = tracer.counts[0]
    assert counts["floquet.eigensolve.calls"] == 60  # 20 points x (matter, Sambe, static)
    assert counts["cli.run_job.calls"] == 21
    assert counts["cli.files_written"] == 43
    times = tracer.layer_self_times(0)
    assert times[JOB] < 0.05 * tracer.job_wall(0)
    assert times["sumrule.static"] > 0 and times["floquet.eigensolve"] > 0


def test_checks_catch_a_wrong_value(tmp_path):
    config = tmp_path / "job.yaml"
    config.write_text(job_yaml("sweep_few", 0), encoding="utf-8")
    report, _ = run_one(config, tmp_path / "out")
    assert check_report(report, None) == []
    first, *rest = report.sweep_points
    tag, ffbz = first.report.reports[2]
    wrong = (tag, replace(ffbz, value=ffbz.value + 1e-9))
    bad_point = replace(first.report, reports=first.report.reports[:2] + (wrong,))
    bad = replace(report, sweep_points=(replace(first, report=bad_point), *rest))
    expected = [p.report.primary_report().value for p in report.sweep_points]
    problems = check_report(bad, expected)
    assert any("first moment" in p for p in problems)
    assert any("reference" in p for p in problems)


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, declared):
    proc = _run("--workload", "sweep_few", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in BENCH[declared]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["floquet.eigensolve.calls"]["value"] == 60
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(
        "--workload", "sweep_few", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
