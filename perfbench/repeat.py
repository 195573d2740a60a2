"""Run the benchmark over many seeds and check that it is steady.

Run from the root of a checkout:

    python3 perfbench/repeat.py --seeds 10 --sets 2 --trace-seeds 1

For each set, every workload runs once per seed untraced (``--trace 0``)
and once per trace seed traced; seeds are the outer loop, so slow drift of
the machine touches every workload alike. Then, per workload:

* the spread of each end-to-end metric over the seeds of a set, as the
  distance between the first and third quartile over the median, must
  stay within the metric's bound from ``BENCHMARK.json``;
* with two sets, the second median of every end-to-end metric must not be
  worse than the first by more than the bound;
* with two sets, every exact count (``report_bytes`` and the per-layer
  counts) must repeat exactly, seed by seed.

Exits 1 when a check fails. Every run's last line is kept in
``.bench_work/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COUNTS

EXACT_E2E = ("report_bytes",)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{command} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    flat = {name: m["value"] for name, m in result["metrics"].items()}
    shown = {k: v for k, v in flat.items() if trace == 0 or k in COUNTS}
    print(
        f"{workload:13s} seed={seed:<3d} trace={trace} correct={result['correct']} "
        + " ".join(f"{k}={v:.6g}" for k, v in shown.items()),
        flush=True,
    )
    if not result["correct"]:
        raise SystemExit(f"{command}: a job failed its checks")
    return flat


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = []  # (set, workload, seed, trace, metrics)
    for s in range(args.sets):
        for seed in range(args.seeds):
            for workload in workloads:
                runs.append((s, workload, seed, 0, run_once(workload, seed, seconds, 0)))
                if seed < args.trace_seeds:
                    runs.append((s, workload, seed, 1, run_once(workload, seed, seconds, 1)))
    Path(".bench_work").mkdir(exist_ok=True)
    Path(".bench_work/repeat.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")

    ok = True
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [
                [m[name] for (s, w, _, t, m) in runs if s == k and w == workload and t == 0]
                for k in range(args.sets)
            ]
            line = f"{workload:13s} {name:14s} bound={bound:.3f}"
            for k, values in enumerate(per_set):
                sp = spread(values) if len(values) > 1 else 0.0
                fine = sp <= bound
                ok &= fine
                line += (
                    f" | set{k + 1} median={statistics.median(values):.6g}"
                    f" spread={sp:.4f}{'' if sp < bound / 3 else ' (>bound/3)'}"
                    f"{'' if fine else ' FAIL'}"
                )
            if args.sets == 2:
                m1, m2 = (statistics.median(v) for v in per_set)
                worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
                fine = worse <= bound
                ok &= fine
                line += f" | drift={worse:+.4f}{'' if fine else ' FAIL'}"
            print(line)
    if args.sets == 2:
        first = {(w, seed, t): m for (s, w, seed, t, m) in runs if s == 0}
        for s, w, seed, t, m in runs:
            if s == 1:
                for name in (*EXACT_E2E, *COUNTS):
                    if name in m and m[name] != first[w, seed, t][name]:
                        print(f"{w} seed={seed}: {name} {first[w, seed, t][name]} -> {m[name]} FAIL")
                        ok = False
        print("exact counts repeat" if ok else "checks failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
