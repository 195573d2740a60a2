"""floqtrk benchmark: one workload, one run, every metric by name and unit.

Run from the root of a checkout (the program is imported from ``./src``):

    python3 perfbench/run.py --workload floquet_grid --seed 0 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the traced jobs and prints the per-layer metrics. Each run starts the
workload in a fresh worker process, with BLAS threads pinned through its
environment, and checks every job. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The full
record (environment, load average, every job) is written under
``.bench_work/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, job_yaml

HERE = Path(__file__).resolve().parent

#: Fresh-interpreter launches behind ``setup_s``, half before the worker and
#: half after it; their median is reported.
SETUP_LAUNCHES = 11
#: Thread pin for BLAS: at most nproc, and never more than this.
MAX_BLAS_THREADS = 2
#: A run must end within this many seconds in all.
RUN_DEADLINE_S = 170.0
#: ``job_s.p90`` is reported only with this many jobs in a run (10 beyond p90).
P90_MIN_JOBS = 100

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the time from the parent's spawn to ready. CLOCK_MONOTONIC is one
# clock for every process on Linux, and reading it in the child keeps the
# parent's wait (which polls every 50 ms under a timeout) out of the figure.
_SETUP_CODE = (
    "import sys, time, floqtrk.cli as cli; cli.load_config(sys.argv[1]); "
    "print(time.monotonic() - float(sys.argv[2]))"
)

#: name -> unit, printed with ``--trace 0``.
END_TO_END = {
    "job_s.p50": "s",
    "job_cpu_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
}

#: name -> unit, in the JSON result with ``--trace 1``. A layer that a gated
#: workload never calls reads exactly 0 there on every run, so such layers
#: enter the JSON only through ``LAYER_SUMS`` and ``assemble.matrix_bytes``.
#: The unattributed time and the tracing overhead are at timer resolution or
#: below the host's noise. Every other layer time and count is still printed
#: as a line and kept in the run's record.
PER_LAYER = {
    "floquet.eigensolve.self_s": "s",
    "floquet.eigensolve.self_s_1t": "s",
    "floquet.eigensolve.calls": "count",
    "floquet.eigensolve.n3_sum": "count",
    "floquet.eigensolve.dim_max": "count",
    "assemble.self_s": "s",
    "assemble.matrix_bytes": "bytes",
    "ledgers.self_s": "s",
    "sumrule.ledger_rows": "count",
    "model.build.self_s": "s",
    "model.oracle.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.run_job.self_s": "s",
    "cli.run_job.calls": "count",
    "cli.serialize.self_s": "s",
    "cli.files_written": "count",
    "trace.job_s": "s",
}

#: Summed layers: Sambe or joint matrix assembly, and the sum-rule ledgers
#: with their closure oracles.
LAYER_SUMS = {
    "assemble.self_s": ("floquet.assemble", "qed.build"),
    "ledgers.self_s": (
        "sumrule.static", "sumrule.sambe", "sumrule.ffbz", "sumrule.density", "qed.sumrule",
    ),
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", "_s_1t")):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def blas_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env.update({name: str(threads) for name in _BLAS_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env.pop("FLOQTRK_THREADS", None)
    return env


def run_worker(root, work, args, env, seconds, traced, deadline) -> dict:
    result = work / f"worker-{'traced' if traced else 'timed'}-{env['OPENBLAS_NUM_THREADS']}t.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--config", str(work / "job.yaml"),
        "--work", str(work), "--result", str(result),
    ]
    command += ["--traced"] * traced
    try:
        proc = subprocess.run(command, cwd=root, env=env, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("worker ran past the deadline") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(result.read_text(encoding="utf-8"))
    imported = Path(record["environment"]["floqtrk_file"])
    if not imported.is_relative_to(root / "src"):
        raise BenchError(f"floqtrk was imported from {imported}, not from {root / 'src'}")
    return record


def measure_setup(root, work, env, launches, deadline) -> list[float]:
    """Wall time for a fresh interpreter to import the CLI and load the job."""
    samples = []
    for _ in range(launches):
        command = [sys.executable, "-c", _SETUP_CODE, str(work / "job.yaml")]
        try:
            proc = subprocess.run(
                command + [repr(time.monotonic())],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=deadline - time.monotonic(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up launch ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up launch exited with code {proc.returncode}")
        samples.append(float(proc.stdout))
    return samples


def end_to_end(record: dict, setup: list[float]) -> dict:
    jobs = [j for j in record["jobs"] if not j["warmup"]]
    walls = [j["wall_s"] for j in jobs]
    sizes = [j["report_bytes"] for j in jobs if "report_bytes" in j]
    return {
        "job_s.p50": statistics.median(walls),
        "job_cpu_s.p50": statistics.median(j["cpu_s"] for j in jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["peak_rss_mb"],
        # constant within a run unless a check failed; the median ignores that
        "report_bytes": statistics.median_low(sizes) if sizes else 0,
    }


def per_layer(record: dict, single: dict) -> dict:
    traced = [j for j in record["jobs"] if j["traced"]]
    plain = [j for j in record["jobs"] if not (j["traced"] or j["warmup"])]
    metrics = {}
    for layer in traced[0]["layers_self_s"]:
        if layer != "job":
            metrics[f"{layer}.self_s"] = statistics.median(
                j["layers_self_s"][layer] for j in traced
            )
    for name, layers in LAYER_SUMS.items():
        metrics[name] = statistics.median(
            sum(j["layers_self_s"][layer] for layer in layers) for j in traced
        )
    for name in traced[0]["counts"]:
        metrics[name] = traced[0]["counts"][name]
    single_job = next(j for j in single["jobs"] if j["traced"])
    metrics["floquet.eigensolve.self_s_1t"] = single_job["layers_self_s"]["floquet.eigensolve"]
    metrics["trace.job_s"] = statistics.median(j["traced_wall_s"] for j in traced)
    metrics["trace.unattributed_s"] = statistics.median(
        j["layers_self_s"]["job"] for j in traced
    )
    if plain:
        metrics["trace.overhead_s"] = statistics.median(
            j["wall_s"] for j in traced
        ) - statistics.median(j["wall_s"] for j in plain)
    return metrics


def count_failures(jobs: list[dict]) -> int:
    """Jobs that raised or failed a check; traced jobs must repeat their counts."""
    first = next((j["counts"] for j in jobs if "counts" in j), None)
    return sum(1 for j in jobs if j["problems"] or j.get("counts", first) != first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="floqtrk benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "floqtrk" / "cli.py").is_file():
        print(f"error: no floqtrk sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "job.yaml").write_text(job_yaml(args.workload, args.seed), encoding="utf-8")

    threads = blas_threads()
    env = child_env(root, threads)
    load_start = os.getloadavg()
    try:
        if args.trace:
            record = run_worker(root, work, args, env, args.seconds, True, deadline)
            # single-threaded baseline: one warm-up job, then one traced job
            single = run_worker(root, work, args, child_env(root, 1), 0, True, deadline)
            metrics, declared = per_layer(record, single), PER_LAYER
            jobs = record["jobs"] + single["jobs"]
        else:
            setup = measure_setup(root, work, env, SETUP_LAUNCHES // 2, deadline)
            record = run_worker(root, work, args, env, args.seconds, False, deadline)
            setup += measure_setup(root, work, env, SETUP_LAUNCHES - len(setup), deadline)
            metrics, declared = end_to_end(record, setup), END_TO_END
            jobs = record["jobs"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    attempted, failed = len(jobs), count_failures(jobs)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "environment": record["environment"],
        "trace_missing": record["trace_missing"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "jobs": jobs,
    }
    if not args.trace:
        summary["setup_s_samples"] = setup
    (work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    env_rec = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"blas_threads={threads} nproc={env_rec['nproc']} "
        f"numpy={env_rec['numpy']} scipy={env_rec['scipy']} "
        f"scipy_blas={(env_rec['scipy_blas'] or {}).get('version')} "
        f"loadavg={load_start[0]:.2f}->{load_end[0]:.2f} floqtrk={env_rec['floqtrk_file']}"
    )
    for j in jobs:
        for problem in j["problems"]:
            print(f"# check failed: {problem.strip().splitlines()[-1]}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit_of(name)}")
    walls = [j["wall_s"] for j in record["jobs"] if not j["warmup"]]
    print(f"{'job_s.n':32s} {len(walls):>16d} count")
    if len(walls) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(walls, n=10)[8]
        print(f"{'job_s.p90':32s} {p90:>16.6g} s")
    print(f"{'failed_frac':32s} {failed / attempted:>16.6g} 1")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
