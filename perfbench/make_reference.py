"""Recompute ``reference.json``: the primary values of every workload at
the stored seeds.

Run from the root of a checkout whose results are trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark then fails a job whose primary values differ from these by
more than 1e-10 relative.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from worker import primary_values, run_one
from workloads import WORKLOADS, job_yaml

#: Seeds with stored values; ``workloads.DEFAULT_SEED`` is among them.
SEEDS = range(10)


def main() -> None:
    table = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in WORKLOADS:
            table[workload] = {}
            for seed in SEEDS:
                config = Path(tmp) / f"{workload}-{seed}.yaml"
                config.write_text(job_yaml(workload, seed), encoding="utf-8")
                report, _ = run_one(config, Path(tmp) / f"{workload}-{seed}")
                table[workload][str(seed)] = primary_values(report)
                print(workload, seed, table[workload][str(seed)][:3], flush=True)
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
