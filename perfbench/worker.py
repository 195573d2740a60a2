"""One benchmark process: a closed loop of floqtrk jobs with one client.

Started by ``run.py`` with the BLAS thread variables already set in its
environment, so they apply before numpy is imported here. A job is one
pass through the public CLI layer, the path ``floqtrk <job> --config``
takes minus argparse: ``load_config`` -> ``run_job`` -> ``write_report``
into a fresh directory. The next job starts only when the previous one has
finished and been checked.

Usage: python3 worker.py --workload W --seed S --seconds T --config PATH
       --work DIR --result PATH [--traced]

Timed jobs run while one more, at their median length so far, still ends
within ``--seconds``; at least one always runs. Every job is timed (wall and
process CPU) and checked. With ``--traced`` one untimed warm-up job runs
first, so lazy imports and first allocations stay out of the traced jobs,
and the timed jobs alternate between traced and untraced, starting traced.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import floqtrk
from floqtrk import cli
from floqtrk.sumrule import first_moment

from tracing import Tracer
from workloads import reference_values

#: Closure identity tolerance, relative to max(1, |oracle value|).
CLOSURE_RTOL = 1e-8
#: Stored primary values must be met to this relative tolerance.
REFERENCE_RTOL = 1e-10
_CLOSURE_KINDS = ("static_trk", "sambe", "qed")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_one(config_path: Path, out_dir: Path):
    """One job through the CLI layer; names are looked up at call time so
    traced wrappers apply."""
    config = cli.load_config(config_path)
    report = cli.run_job(config)
    written = cli.write_report(report, out_dir, config.resolved["output"]["formats"])
    return report, written


def primary_values(report) -> list[float]:
    """The primary sum-rule value, one per sweep point for sweeps."""
    if report.sweep_points is not None:
        return [v for p in report.sweep_points for v in primary_values(p.report)]
    return [report.primary_report().value]


def check_report(report, expected: list[float] | None) -> list[str]:
    """Problems with one job's in-memory report (empty when all hold)."""
    problems = []
    reports = [report] + [p.report for p in report.sweep_points or ()]
    for r in reports:
        for tag, rule in r.reports:
            if rule.kind in _CLOSURE_KINDS and not abs(rule.oracle_residual) <= (
                CLOSURE_RTOL * max(1.0, abs(rule.oracle_value))
            ):
                problems.append(f"{tag}: oracle residual {rule.oracle_residual!r}")
        for row in r.convergence or ():
            if "n_max" in row:  # photon-cutoff rows are qed closure sums
                oracle = row["value"] - row["oracle_residual"]
                if not abs(row["oracle_residual"]) <= CLOSURE_RTOL * max(1.0, abs(oracle)):
                    problems.append(f"n_max={row['n_max']}: residual {row['oracle_residual']!r}")
        if r.density is not None:
            ffbz = dict(r.reports)["ffbz"].value
            moment = first_moment(r.density)
            if moment != ffbz:
                problems.append(f"first moment {moment!r} != ffbz value {ffbz!r}")
    if expected is not None:
        got = primary_values(report)
        if len(got) != len(expected) or any(
            not math.isclose(g, e, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
            for g, e in zip(got, expected)
        ):
            problems.append(f"primary values {got} differ from reference {expected}")
    return problems


def _another_fits(jobs: list[dict], elapsed: float, seconds: float) -> bool:
    """Whether one more job, at the median length so far, ends within the run."""
    timed = [j["wall_s"] for j in jobs if not j["warmup"]]
    return not timed or elapsed + statistics.median(timed) <= seconds


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    """What ran: machine, interpreter, libraries, BLAS, threads, code."""
    src = Path(floqtrk.__file__).resolve().parent
    code = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        code.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    numpy_build = np.show_config(mode="dicts")["Build Dependencies"]
    scipy_build = scipy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy_build.get("blas"),
        # scipy.linalg.eigh runs on scipy's own LAPACK build
        "scipy_blas": scipy_build.get("blas"),
        "scipy_lapack": scipy_build.get("lapack"),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "floqtrk_file": str(Path(floqtrk.__file__).resolve()),
        "floqtrk_version": floqtrk.__version__,
        "floqtrk_src_sha256": code.hexdigest(),
    }


class Loop:
    """Runs, times and checks jobs of one workload in this process."""

    def __init__(self, config: Path, work: Path, expected: list[float] | None):
        self.config = config
        self.work = work
        self.expected = expected
        self.tracer = Tracer()
        self.jobs: list[dict] = []
        self._first_digest: str | None = None

    def job(self, traced: bool, warmup: bool = False) -> None:
        job_id = len(self.jobs)
        out_dir = self.work / f"job{job_id}"
        problems = []
        if traced:
            self.tracer.install()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with self.tracer.job(job_id) if traced else contextlib.nullcontext():
                report, written = run_one(self.config, out_dir)
        except Exception:  # a failed job is counted, the loop goes on
            problems.append(traceback.format_exc(limit=3))
            report = written = None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        if traced:
            self.tracer.uninstall()
        record = {"warmup": warmup, "traced": traced, "wall_s": wall, "cpu_s": cpu}
        if report is not None:
            problems += check_report(report, self.expected)
            digest = _digest(out_dir / "report.json")
            self._first_digest = self._first_digest or digest
            if digest != self._first_digest:
                problems.append("report.json differs from the first job's")
            # timings.json holds wall-clock values, so only the other files
            # have an exact size
            record["report_bytes"] = sum(
                p.stat().st_size for p in written if p.name != "timings.json"
            )
        if traced:
            record["layers_self_s"] = self.tracer.layer_self_times(job_id)
            record["counts"] = self.tracer.counts[job_id]
            record["traced_wall_s"] = self.tracer.job_wall(job_id)
        record["problems"] = problems
        self.jobs.append(record)
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    loop = Loop(args.config, args.work, reference_values(args.workload, args.seed))
    if args.traced:
        loop.job(traced=False, warmup=True)
    start = time.perf_counter()
    measured = 0
    while _another_fits(loop.jobs, time.perf_counter() - start, args.seconds):
        loop.job(traced=args.traced and measured % 2 == 0)
        measured += 1

    if args.traced:
        loop.tracer.dump(args.work / "spans.json")
    result = {
        "environment": environment(),
        "trace_missing": loop.tracer.missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "jobs": loop.jobs,
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
