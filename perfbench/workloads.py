"""Seeded inputs of the three canonical floqtrk jobs.

Each workload is a YAML job description drawn from ``random.Random(seed)``.
Only physical parameters depend on the seed; dimensions, dtype and drive
phases (all 0, so every solve takes the real-symmetric path) never do, so
the work per job is the same for every seed. The program under test only
ever sees the generated YAML.

Imports no numpy: the parent process loads this module, and BLAS threads
are pinned only in the child processes it starts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import yaml

DEFAULT_SEED = 0

#: One-electron harmonic grid shared by the grid workloads.
_GRID_MODEL = {
    "kind": "grid",
    "n_electrons": 1,
    "grid": {"n_points": 201, "x_min": -10.0, "x_max": 10.0},
    "potential": {"kind": "harmonic", "omega": 1.0},
    "kinetic": "three_point",
}


def _floquet_grid(rng: random.Random) -> dict:
    return {
        "job": "floquet",
        "model": _GRID_MODEL,
        "drive": {
            "omega": 0.35,
            "components": [
                {"harmonic": 1, "amplitude": rng.uniform(0.03, 0.07), "phase": 0.0}
            ],
        },
        "sambe": {"harmonic_cutoff": 8},
    }


def _qed_converge(rng: random.Random) -> dict:
    return {
        "job": "converge",
        "converge": {"axis": "fock_n_max", "values": [4, 6, 8, 10]},
        "model": _GRID_MODEL,
        "fock": {"omega_c": 0.9, "g": rng.uniform(0.03, 0.07)},
    }


def _sweep_few(rng: random.Random) -> dict:
    amplitudes = sorted(rng.uniform(0.0, 0.2) for _ in range(20))
    upper = {(i, j): rng.uniform(-0.5, 0.5) for i in range(3) for j in range(i, 3)}
    dipole = [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)]
    return {
        "job": "sweep",
        "sweep": {
            "job": "floquet",
            "path": "drive.components.0.amplitude",
            "values": amplitudes,
        },
        "model": {"kind": "few_level", "energies": [0.0, 0.3, 1.1], "dipole": dipole},
        "drive": {
            "omega": 0.35,
            "components": [{"harmonic": 1, "amplitude": 0.0, "phase": 0.0}],
        },
        "sambe": {"harmonic_cutoff": 8},
    }


_GENERATORS = {
    "floquet_grid": _floquet_grid,
    "qed_converge": _qed_converge,
    "sweep_few": _sweep_few,
}

#: Every workload ``run.py`` accepts; ``BENCHMARK.json`` gates a subset.
WORKLOADS = tuple(_GENERATORS)


def job_config(workload: str, seed: int) -> dict:
    """The job description of ``workload`` at ``seed`` as a plain mapping."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def job_yaml(workload: str, seed: int) -> str:
    """The job description as YAML text; every float loads back unchanged."""
    return yaml.safe_dump(job_config(workload, seed), sort_keys=False)


_REFERENCE_FILE = Path(__file__).with_name("reference.json")


def reference_values(workload: str, seed: int) -> list[float] | None:
    """Stored primary values of ``workload`` at ``seed``, if any."""
    table = json.loads(_REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))
