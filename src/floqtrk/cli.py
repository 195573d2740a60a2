"""Configuration-driven runner and serialization layer.

Jobs are described by a YAML file with sections mirroring the library
modules (``model``, ``drive``, ``sambe``, ``fock``, ...). The loader is
strict: unknown keys are rejected with a suggestion, every default is made
explicit in the echoed configuration, and the echo re-loads to an equal
configuration. Numerical payloads are a pure function of the resolved
config; wall-clock timings are quarantined in a separate file so that two
runs of the same config produce byte-identical structured reports.

Subcommands: ``static-trk``, ``floquet``, ``qed``, ``converge``, ``sweep``,
each taking ``--config <path>``, ``--out <dir>``, ``--threads <n>`` (0 =
library default; the FLOQTRK_THREADS environment variable supplies a
default; applied through threadpoolctl, with a warning when it is missing)
and ``--verbose``. Exit codes: 0 success, 2 configuration or input error,
3 numeric or zone failure (a broken closure identity included), 4 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import difflib
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import yaml

from .errors import ConfigError, InputError, NumericError, ZoneError
from .floquet import (
    EigenSystem,
    assemble_floquet_matrix,
    diagonalize_hermitian,
    fold_and_select_ffbz,
    fourier_blocks_of_hamiltonian,
)
from .model import (
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    GridBasis,
    InteractionSpec,
    MatterOperator,
    PotentialSpec,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
)
from .qed import FockSpec, build_joint_hamiltonian, joint_dipole, photon_cutoff_convergence, sumrule_qed
from .sumrule import (
    SpectralDensity,
    SumRuleReport,
    density_from_ledger,
    select_reference,
    static_trk,
    sumrule_ffbz,
    sumrule_sambe,
)
from .version import __version__

_JOB_KINDS = ("static_trk", "floquet", "qed", "converge", "sweep")

#: Per job kind: (required sections, all accepted sections).
_SECTIONS: dict[str, tuple[frozenset, frozenset]] = {
    "static_trk": (
        frozenset({"model"}),
        frozenset({"job", "model", "reference", "output"}),
    ),
    "floquet": (
        frozenset({"model", "drive"}),
        frozenset({"job", "model", "drive", "sambe", "reference", "output"}),
    ),
    "qed": (
        frozenset({"model", "fock"}),
        frozenset({"job", "model", "fock", "qed", "reference", "output"}),
    ),
    "converge": (
        frozenset({"model", "converge"}),
        frozenset(
            {"job", "model", "converge", "drive", "sambe", "fock", "reference", "output"}
        ),
    ),
    "sweep": (
        frozenset({"model", "sweep"}),
        frozenset(
            {"job", "model", "sweep", "drive", "sambe", "fock", "qed", "reference", "output"}
        ),
    ),
}

#: Report kinds summed over a complete spectrum, whose value must meet the
#: double-commutator oracle to CLOSURE_RTOL x max(1, |oracle value|).
_CLOSURE_KINDS = ("static_trk", "sambe", "qed")
CLOSURE_RTOL = 1e-8

_LEDGER_HEADER = ("lambda", "n", "quasienergy_diff", "dipole_fourier_abs2", "contribution")
_STICKS_HEADER = ("omega", "weight", "lambda", "n")


# ---------------------------------------------------------------------------
# config loading


@dataclass(frozen=True)
class JobConfig:
    """Fully validated job description: the canonical resolved mapping.

    Two configs are equal exactly when their resolved mappings are equal,
    which is the round-trip contract of :func:`load_config`.
    """

    resolved: dict

    @property
    def job_kind(self) -> str:
        return self.resolved["job"]

    @property
    def reference(self) -> int | str:
        return self.resolved["reference"]

    def matter(self) -> tuple[MatterOperator, MatterOperator, int]:
        """(Hamiltonian, dipole, electron count) of the model section."""
        return _build_matter(self.resolved["model"])

    def drive(self) -> DriveSpec:
        section = self.resolved["drive"]
        components = tuple(
            DriveComponent(
                harmonic=c["harmonic"], amplitude=c["amplitude"], phase=c["phase"]
            )
            for c in section["components"]
        )
        return DriveSpec(omega=section["omega"], components=components)

    def fock(self) -> FockSpec:
        section = self.resolved["fock"]
        return FockSpec(
            n_max=section["n_max"], omega_c=section["omega_c"], g=section["g"]
        )


def load_config(path: str | Path, default_job: str | None = None) -> JobConfig:
    """Load and validate a YAML job description.

    Every default is filled in, so the returned config's ``resolved``
    mapping is the canonical echo; dumping it back to YAML and re-loading
    yields an equal JobConfig.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level of {path} must be a mapping of sections")
    return JobConfig(resolved=_resolve(raw, default_job=default_job))


def _suggest(key: str, allowed) -> str:
    close = difflib.get_close_matches(str(key), sorted(allowed), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}{_suggest(key, allowed)}")


def _require_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


#: A YAML 1.2 float written without a dot or without an exponent sign
#: (``1e-3``, ``1.0e308``), which PyYAML's YAML 1.1 resolver leaves a string.
_YAML12_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


def _as_number(value: Any) -> Any:
    """``value`` as a number when it is one in YAML 1.2 float syntax."""
    if isinstance(value, str) and _YAML12_FLOAT.fullmatch(value):
        return float(value)
    return value


def _as_float(value: Any, key: str, where: str) -> float:
    value = _as_number(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"key {key!r} in {where} must be a number, got {type(value).__name__}"
        )
    result = float(value)
    if not math.isfinite(result):
        raise ConfigError(f"key {key!r} in {where} must be finite, got {value!r}")
    return result


def _as_int(value: Any, key: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"key {key!r} in {where} must be an integer, got {type(value).__name__}"
        )
    return int(value)


def _as_bool(value: Any, key: str, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(
            f"key {key!r} in {where} must be a boolean, got {type(value).__name__}"
        )
    return value


def _as_choice(value: Any, key: str, where: str, choices: tuple[str, ...]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(
            f"key {key!r} in {where} must be one of {list(choices)}, got "
            f"{value!r}{_suggest(value, choices) if isinstance(value, str) else ''}"
        )
    return value


_MISSING = object()


def _pick(section: dict, key: str, where: str, default: Any = _MISSING) -> Any:
    if key in section:
        return section[key]
    if default is _MISSING:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return default


def _resolve(raw: dict, default_job: str | None = None) -> dict:
    job = raw.get("job", default_job)
    if job is None:
        raise ConfigError("missing required key 'job' (or run through a subcommand)")
    if job not in _JOB_KINDS:
        raise ConfigError(
            f"key 'job' must be one of {list(_JOB_KINDS)}, got {job!r}"
            f"{_suggest(job, _JOB_KINDS) if isinstance(job, str) else ''}"
        )
    required, allowed = _SECTIONS[job]
    for key in raw:
        if key in allowed:
            continue
        if key in _SECTIONS["sweep"][1] | {"converge"}:
            raise ConfigError(f"section {key!r} is not used by job kind {job!r}")
        raise ConfigError(f"unknown key {key!r} at top level{_suggest(key, allowed)}")

    # self-contained sections first, so conditional requirements are known
    resolved: dict[str, Any] = {"job": job}
    if job == "converge":
        resolved["converge"] = _resolve_converge(
            _require_mapping(_pick(raw, "converge", "top level"), "section 'converge'")
        )
        axis = resolved["converge"]["axis"]
        required = required | (
            frozenset({"drive"}) if axis == "harmonic_cutoff" else frozenset({"fock"})
        )
        allowed = allowed - (
            frozenset({"fock"}) if axis == "harmonic_cutoff" else frozenset({"drive", "sambe"})
        )
    if job == "sweep":
        resolved["sweep"] = _resolve_sweep(
            _require_mapping(_pick(raw, "sweep", "top level"), "section 'sweep'")
        )
        base = resolved["sweep"]["job"]
        base_required, base_allowed = _SECTIONS[base]
        required = required | (base_required - frozenset({"model"}))
        allowed = frozenset({"job", "model", "sweep", "reference", "output"}) | base_allowed
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"section {key!r} is not used by job kind {job!r}")
    for name in sorted(required):
        if name not in raw and name not in ("model",) and name != "converge" and name != "sweep":
            raise ConfigError(f"job kind {job!r} requires section {name!r}")
    if "model" not in raw:
        raise ConfigError(f"job kind {job!r} requires section 'model'")

    resolved["model"] = _resolve_model(
        _require_mapping(raw["model"], "section 'model'")
    )
    if "drive" in allowed and (job != "qed"):
        if "drive" in raw or "drive" in required:
            resolved["drive"] = _resolve_drive(
                _require_mapping(_pick(raw, "drive", "top level"), "section 'drive'")
            )
    if "sambe" in allowed and "drive" in resolved:
        resolved["sambe"] = _resolve_sambe(
            _require_mapping(raw.get("sambe"), "section 'sambe'")
        )
    if "fock" in allowed:
        if "fock" in raw or "fock" in required:
            resolved["fock"] = _resolve_fock(
                _require_mapping(_pick(raw, "fock", "top level"), "section 'fock'")
            )
    if "qed" in allowed and "fock" in resolved:
        resolved["qed"] = _resolve_qed(_require_mapping(raw.get("qed"), "section 'qed'"))
    resolved["reference"] = _resolve_reference(raw.get("reference", "auto"))
    resolved["output"] = _resolve_output(
        _require_mapping(raw.get("output"), "section 'output'")
    )
    if job == "sweep":
        _validate_sweep_path(resolved)
    return resolved


def _resolve_model(section: dict) -> dict:
    where = "section 'model'"
    kind = _as_choice(
        _pick(section, "kind", where, "grid"), "kind", where, ("grid", "few_level")
    )
    if kind == "few_level":
        _check_keys(section, {"kind", "n_electrons", "energies", "dipole"}, where)
        energies = _pick(section, "energies", where)
        if not isinstance(energies, list) or not energies:
            raise ConfigError(f"key 'energies' in {where} must be a non-empty list")
        energies = [_as_float(e, "energies", where) for e in energies]
        dipole = _pick(section, "dipole", where)
        n = len(energies)
        if (
            not isinstance(dipole, list)
            or len(dipole) != n
            or any(not isinstance(row, list) or len(row) != n for row in dipole)
        ):
            raise ConfigError(
                f"key 'dipole' in {where} must be a {n}x{n} matrix matching 'energies'"
            )
        dipole = [[_as_float(v, "dipole", where) for v in row] for row in dipole]
        n_e = _as_int(_pick(section, "n_electrons", where, 1), "n_electrons", where)
        if n_e < 1:
            raise ConfigError(f"key 'n_electrons' in {where} must be >= 1, got {n_e}")
        return {"kind": kind, "n_electrons": n_e, "energies": energies, "dipole": dipole}

    n_e = _as_int(_pick(section, "n_electrons", where, 1), "n_electrons", where)
    if n_e not in (1, 2):
        raise ConfigError(
            f"key 'n_electrons' in {where} must be 1 or 2 for grid models, got {n_e}"
        )
    allowed = {"kind", "n_electrons", "grid", "potential", "kinetic"}
    if n_e == 2:
        allowed.add("interaction")
    _check_keys(section, allowed, where)
    grid_sec = _require_mapping(section.get("grid"), "section 'model.grid'")
    _check_keys(grid_sec, {"n_points", "x_min", "x_max"}, "section 'model.grid'")
    grid = {
        "n_points": _as_int(
            _pick(grid_sec, "n_points", "section 'model.grid'", 201),
            "n_points",
            "section 'model.grid'",
        ),
        "x_min": _as_float(
            _pick(grid_sec, "x_min", "section 'model.grid'", -10.0),
            "x_min",
            "section 'model.grid'",
        ),
        "x_max": _as_float(
            _pick(grid_sec, "x_max", "section 'model.grid'", 10.0),
            "x_max",
            "section 'model.grid'",
        ),
    }
    potential = _resolve_potential(
        _require_mapping(section.get("potential"), "section 'model.potential'")
    )
    kinetic_default = "three_point" if n_e == 1 else "sinc_dvr"
    kinetic = _as_choice(
        _pick(section, "kinetic", where, kinetic_default),
        "kinetic",
        where,
        ("three_point", "sinc_dvr"),
    )
    resolved = {
        "kind": kind,
        "n_electrons": n_e,
        "grid": grid,
        "potential": potential,
        "kinetic": kinetic,
    }
    if n_e == 2:
        resolved["interaction"] = _resolve_interaction(
            _require_mapping(section.get("interaction"), "section 'model.interaction'")
        )
    return resolved


def _resolve_potential(section: dict) -> dict:
    where = "section 'model.potential'"
    kind = _as_choice(
        _pick(section, "kind", where, "harmonic"),
        "kind",
        where,
        ("harmonic", "soft_coulomb", "box", "double_well", "tabulated"),
    )
    if kind == "harmonic":
        _check_keys(section, {"kind", "omega"}, where)
        return {
            "kind": kind,
            "omega": _as_float(_pick(section, "omega", where, 1.0), "omega", where),
        }
    if kind == "soft_coulomb":
        _check_keys(section, {"kind", "charge", "softening"}, where)
        return {
            "kind": kind,
            "charge": _as_float(_pick(section, "charge", where, 1.0), "charge", where),
            "softening": _as_float(
                _pick(section, "softening", where, 1.0), "softening", where
            ),
        }
    if kind == "box":
        _check_keys(section, {"kind"}, where)
        return {"kind": kind}
    if kind == "double_well":
        _check_keys(section, {"kind", "barrier", "separation"}, where)
        return {
            "kind": kind,
            "barrier": _as_float(
                _pick(section, "barrier", where, 1.0), "barrier", where
            ),
            "separation": _as_float(
                _pick(section, "separation", where, 2.0), "separation", where
            ),
        }
    _check_keys(section, {"kind", "values"}, where)
    values = _pick(section, "values", where)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"key 'values' in {where} must be a non-empty list")
    return {"kind": kind, "values": [_as_float(v, "values", where) for v in values]}


def _resolve_interaction(section: dict) -> dict:
    where = "section 'model.interaction'"
    kind = _as_choice(
        _pick(section, "kind", where, "none"), "kind", where, ("none", "soft_coulomb")
    )
    if kind == "none":
        _check_keys(section, {"kind"}, where)
        return {"kind": kind}
    _check_keys(section, {"kind", "strength", "softening"}, where)
    return {
        "kind": kind,
        "strength": _as_float(
            _pick(section, "strength", where, 1.0), "strength", where
        ),
        "softening": _as_float(
            _pick(section, "softening", where, 1.0), "softening", where
        ),
    }


def _resolve_drive(section: dict) -> dict:
    where = "section 'drive'"
    _check_keys(section, {"omega", "components"}, where)
    omega = _as_float(_pick(section, "omega", where), "omega", where)
    if omega <= 0:
        raise ConfigError(f"key 'omega' in {where} must be > 0, got {omega}")
    raw_components = _pick(section, "components", where, [])
    if not isinstance(raw_components, list):
        raise ConfigError(f"key 'components' in {where} must be a list")
    components = []
    for i, comp in enumerate(raw_components):
        comp_where = f"section 'drive.components.{i}'"
        comp = _require_mapping(comp, comp_where)
        _check_keys(comp, {"harmonic", "amplitude", "phase"}, comp_where)
        harmonic = _as_int(_pick(comp, "harmonic", comp_where, 1), "harmonic", comp_where)
        if harmonic < 1:
            raise ConfigError(
                f"key 'harmonic' in {comp_where} must be >= 1, got {harmonic}"
            )
        components.append(
            {
                "harmonic": harmonic,
                "amplitude": _as_float(
                    _pick(comp, "amplitude", comp_where), "amplitude", comp_where
                ),
                "phase": _as_float(
                    _pick(comp, "phase", comp_where, 0.0), "phase", comp_where
                ),
            }
        )
    return {"omega": omega, "components": components}


def _resolve_sambe(section: dict) -> dict:
    where = "section 'sambe'"
    _check_keys(section, {"harmonic_cutoff", "edge_tol", "n_max"}, where)
    cutoff = _as_int(
        _pick(section, "harmonic_cutoff", where, 8), "harmonic_cutoff", where
    )
    if cutoff < 0:
        raise ConfigError(f"key 'harmonic_cutoff' in {where} must be >= 0, got {cutoff}")
    edge_tol = _as_float(_pick(section, "edge_tol", where, 1e-6), "edge_tol", where)
    if edge_tol <= 0:
        raise ConfigError(f"key 'edge_tol' in {where} must be > 0, got {edge_tol}")
    n_max = section.get("n_max")
    if n_max is not None:
        n_max = _as_int(n_max, "n_max", where)
        if n_max < 0:
            raise ConfigError(f"key 'n_max' in {where} must be >= 0, got {n_max}")
    return {"harmonic_cutoff": cutoff, "edge_tol": edge_tol, "n_max": n_max}


def _resolve_fock(section: dict) -> dict:
    where = "section 'fock'"
    _check_keys(section, {"n_max", "omega_c", "g"}, where)
    n_max = _as_int(_pick(section, "n_max", where, 8), "n_max", where)
    if n_max < 0:
        raise ConfigError(f"key 'n_max' in {where} must be >= 0, got {n_max}")
    omega_c = _as_float(_pick(section, "omega_c", where), "omega_c", where)
    if omega_c <= 0:
        raise ConfigError(f"key 'omega_c' in {where} must be > 0, got {omega_c}")
    return {
        "n_max": n_max,
        "omega_c": omega_c,
        "g": _as_float(_pick(section, "g", where), "g", where),
    }


def _resolve_qed(section: dict) -> dict:
    where = "section 'qed'"
    _check_keys(section, {"h0_diagnostic"}, where)
    return {
        "h0_diagnostic": _as_bool(
            _pick(section, "h0_diagnostic", where, False), "h0_diagnostic", where
        )
    }


def _resolve_reference(value: Any) -> int | str:
    if value == "auto":
        return "auto"
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(
            f"key 'reference' must be 'auto' or a non-negative integer, got {value!r}"
        )
    return value


def _resolve_converge(section: dict) -> dict:
    where = "section 'converge'"
    _check_keys(section, {"axis", "values"}, where)
    axis = _as_choice(
        _pick(section, "axis", where), "axis", where, ("harmonic_cutoff", "fock_n_max")
    )
    values = _pick(section, "values", where)
    if not isinstance(values, list) or len(values) < 2:
        raise ConfigError(f"key 'values' in {where} must list at least 2 entries")
    values = [_as_int(v, "values", where) for v in values]
    for prev, nxt in zip(values, values[1:]):
        if nxt <= prev:
            raise ConfigError(f"key 'values' in {where} must be strictly increasing")
    if min(values) < 0:
        raise ConfigError(f"key 'values' in {where} must be non-negative")
    return {"axis": axis, "values": values}


def _resolve_sweep(section: dict) -> dict:
    where = "section 'sweep'"
    _check_keys(section, {"job", "path", "values"}, where)
    base = _as_choice(
        _pick(section, "job", where, "floquet"),
        "job",
        where,
        ("static_trk", "floquet", "qed"),
    )
    path = _pick(section, "path", where)
    if not isinstance(path, str) or not path:
        raise ConfigError(f"key 'path' in {where} must be a non-empty string")
    values = _pick(section, "values", where)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"key 'values' in {where} must be a non-empty list")
    cleaned = []
    for v in map(_as_number, values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"key 'values' in {where} must contain numbers only")
        cleaned.append(v)
    return {"job": base, "path": path, "values": cleaned}


def _resolve_output(section: dict) -> dict:
    where = "section 'output'"
    _check_keys(section, {"directory", "formats"}, where)
    directory = _pick(section, "directory", where, "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"key 'directory' in {where} must be a non-empty string")
    formats = _pick(section, "formats", where, ["json", "csv"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError(f"key 'formats' in {where} must be a non-empty list")
    seen = []
    for fmt in formats:
        _as_choice(fmt, "formats", where, ("json", "csv"))
        if fmt in seen:
            raise ConfigError(f"key 'formats' in {where} lists {fmt!r} twice")
        seen.append(fmt)
    return {"directory": directory, "formats": seen}


def _walk_path(tree: Any, path: str):
    """Yield (container, key) pairs along a dotted path; int segments index lists."""
    segments = path.split(".")
    node = tree
    for seg in segments[:-1]:
        node = _step(node, seg, path)
    return node, segments[-1]


def _step(node: Any, seg: str, path: str):
    if isinstance(node, list):
        try:
            index = int(seg)
        except ValueError:
            raise ConfigError(
                f"sweep path {path!r}: segment {seg!r} must be a list index"
            ) from None
        if not 0 <= index < len(node):
            raise ConfigError(f"sweep path {path!r}: index {index} out of range")
        return node[index]
    if isinstance(node, dict):
        if seg not in node:
            raise ConfigError(
                f"sweep path {path!r}: key {seg!r} not found{_suggest(seg, node.keys())}"
            )
        return node[seg]
    raise ConfigError(f"sweep path {path!r}: cannot descend into {type(node).__name__}")


def _validate_sweep_path(resolved: dict) -> None:
    path = resolved["sweep"]["path"]
    root = path.split(".", 1)[0]
    if root in ("sweep", "job", "output", "converge"):
        raise ConfigError(
            f"sweep path {path!r} must target a model/drive/sambe/fock/qed/reference parameter"
        )
    parent, leaf = _walk_path(resolved, path)
    current = _step(parent, leaf, path)
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(f"sweep path {path!r} must target a numeric parameter")


def _set_path(tree: dict, path: str, value: Any) -> None:
    parent, leaf = _walk_path(tree, path)
    _step(parent, leaf, path)  # existence check
    if isinstance(parent, list):
        parent[int(leaf)] = value
    else:
        parent[leaf] = value


# ---------------------------------------------------------------------------
# model construction from resolved sections


def _build_matter(model: dict) -> tuple[MatterOperator, MatterOperator, int]:
    n_e = model["n_electrons"]
    if model["kind"] == "few_level":
        few = FewLevelModel(
            energies=tuple(model["energies"]),
            dipole=np.array(model["dipole"], dtype=np.float64),
        )
        return few.hamiltonian(), few.dipole_operator(), n_e
    grid = GridBasis(**model["grid"])
    potential = _build_potential(model["potential"])
    if n_e == 1:
        h = build_grid_hamiltonian(grid, potential, kinetic_scheme=model["kinetic"])
        return h, build_dipole(grid), 1
    interaction = _build_interaction(model["interaction"])
    h = build_two_electron_hamiltonian(
        grid, potential, interaction=interaction, kinetic_scheme=model["kinetic"]
    )
    return h, build_dipole(grid, n_electrons=2), 2


def _build_potential(cfg: dict) -> PotentialSpec:
    kind = cfg["kind"]
    if kind == "harmonic":
        return PotentialSpec.harmonic(cfg["omega"])
    if kind == "soft_coulomb":
        return PotentialSpec.soft_coulomb(cfg["charge"], cfg["softening"])
    if kind == "box":
        return PotentialSpec.box()
    if kind == "double_well":
        return PotentialSpec.double_well(cfg["barrier"], cfg["separation"])
    return PotentialSpec.tabulated(cfg["values"])


def _build_interaction(cfg: dict) -> InteractionSpec:
    if cfg["kind"] == "none":
        return InteractionSpec.none()
    return InteractionSpec.soft_coulomb(cfg["strength"], cfg["softening"])


# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One executed sweep value and its full report."""

    parameter_value: float
    report: "RunReport"


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one job produced, timings quarantined from the payload."""

    config: dict
    run_hash: str
    version: str
    reports: tuple[tuple[str, SumRuleReport], ...]
    primary: str | None
    density: SpectralDensity | None
    spectrum_header: tuple[str, ...] | None
    spectrum_rows: tuple[tuple, ...] | None
    convergence: tuple[dict, ...] | None
    sweep_points: tuple[SweepPoint, ...] | None
    warnings: tuple[str, ...]
    timings: dict

    @property
    def job_kind(self) -> str:
        return self.config["job"]

    def primary_report(self) -> SumRuleReport | None:
        for tag, report in self.reports:
            if tag == self.primary:
                return report
        return None


def run_hash_of(resolved: dict) -> str:
    """Deterministic digest of a resolved configuration."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Stage:
    """Wall-clock bookkeeping kept away from the deterministic payload."""

    def __init__(self, timings: dict, verbose: bool):
        self.timings = timings
        self.verbose = verbose

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self.verbose:
            print(f"[floqtrk] {name} ...", file=sys.stderr)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed
            if self.verbose:
                print(f"[floqtrk] {name} done in {elapsed:.3f} s", file=sys.stderr)


def run_job(config: JobConfig, verbose: bool = False) -> RunReport:
    """Execute the configured pipeline and collect a full report.

    Module errors propagate (tagged with config context by the CLI wrapper);
    truncation warnings end up in the report, never silently dropped.
    """
    timings: dict[str, float] = {}
    stage = _Stage(timings, verbose)
    start = time.perf_counter()
    job = config.job_kind
    if job == "static_trk":
        pieces = _run_static(config, stage)
    elif job == "floquet":
        pieces = _run_floquet(config, stage)
    elif job == "qed":
        pieces = _run_qed(config, stage)
    elif job == "converge":
        pieces = _run_converge(config, stage)
    else:
        pieces = _run_sweep(config, stage, verbose)
    for tag, report in pieces["reports"]:
        _check_closure(tag, report)
    timings["total"] = time.perf_counter() - start
    return RunReport(
        config=config.resolved,
        run_hash=run_hash_of(config.resolved),
        version=__version__,
        timings=timings,
        **pieces,
    )


def _empty_pieces() -> dict:
    return {
        "reports": (),
        "primary": None,
        "density": None,
        "spectrum_header": None,
        "spectrum_rows": None,
        "convergence": None,
        "sweep_points": None,
        "warnings": (),
    }


def _check_closure(tag: str, report: SumRuleReport) -> None:
    """Enforce the closure identity of a complete-spectrum report.

    Over a complete spectrum the value equals the double-commutator oracle
    up to rounding, whatever the truncation; a larger residual means the
    eigensolve or the ledger is wrong, so no report is written.
    """
    if report.kind not in _CLOSURE_KINDS:
        return
    bound = CLOSURE_RTOL * max(1.0, abs(report.oracle_value))
    if not abs(report.oracle_residual) <= bound:
        raise NumericError(
            f"{tag} report breaks the closure identity: oracle residual "
            f"{report.oracle_residual:.3e} exceeds {bound:.3e}"
        )


def _static_reference(config: JobConfig) -> int:
    return 0 if config.reference == "auto" else int(config.reference)


def _matter_stack(
    config: JobConfig, stage: _Stage
) -> tuple[MatterOperator, MatterOperator, int, EigenSystem]:
    """Build the matter operators and diagonalize H_M, once per job."""
    with stage("matter_build"):
        h, d, n_e = config.matter()
    with stage("matter_eigensolve"):
        matter_system = diagonalize_hermitian(h.matrix)
    return h, d, n_e, matter_system


def _run_static(config: JobConfig, stage: _Stage) -> dict:
    h, d, n_e, matter_system = _matter_stack(config, stage)
    with stage("sumrule"):
        report = static_trk(
            h, d, _static_reference(config), n_electrons=n_e, system=matter_system
        )
    pieces = _empty_pieces()
    pieces["reports"] = (("static_trk", report),)
    pieces["primary"] = "static_trk"
    pieces["warnings"] = report.truncation_flags
    return pieces


def _resolvable_drive(config: JobConfig, matter_system: EigenSystem) -> DriveSpec:
    """The configured drive, if its Omega resolves the matter spectrum.

    Below span x machine epsilon no quasienergy can be folded into the
    first zone, so such an Omega is a configuration error.
    """
    drive = config.drive()
    span = float(matter_system.values[-1] - matter_system.values[0])
    floor = span * float(np.finfo(np.float64).eps)
    if drive.omega < floor:
        raise ConfigError(
            f"key 'omega' in section 'drive' must be >= {floor:.3e} (matter "
            f"spectral span {span:.6g} x machine epsilon), got {drive.omega!r}"
        )
    return drive


def _floquet_stack(
    config: JobConfig,
    stage: _Stage,
    h: MatterOperator,
    d: MatterOperator,
    drive: DriveSpec,
    matter_system: EigenSystem,
    harmonic_cutoff: int,
):
    """Assemble/diagonalize/fold pipeline of one harmonic cutoff."""
    with stage("sambe_assemble"):
        blocks = fourier_blocks_of_hamiltonian(h, d, drive)
        fm = assemble_floquet_matrix(blocks, drive.omega, harmonic_cutoff)
    with stage("eigensolve"):
        system = diagonalize_hermitian(fm.matrix)
    with stage("fold_select"):
        edge_tol = config.resolved["sambe"]["edge_tol"]
        selection = fold_and_select_ffbz(system, drive.omega, fm.spec, edge_tol=edge_tol)
        ground = matter_system.vectors[:, 0]
        if config.reference == "auto":
            ffbz_ref = select_reference(selection.representatives, ground)
        else:
            ffbz_ref = int(config.reference)
            if ffbz_ref >= len(selection.representatives):
                raise InputError(
                    f"reference {ffbz_ref} outside the "
                    f"{len(selection.representatives)} first-zone representatives"
                )
    return fm, system, selection, ffbz_ref


def _run_floquet(config: JobConfig, stage: _Stage) -> dict:
    sambe_cfg = config.resolved["sambe"]
    h, d, n_e, matter_system = _matter_stack(config, stage)
    drive = _resolvable_drive(config, matter_system)
    fm, system, selection, ffbz_ref = _floquet_stack(
        config, stage, h, d, drive, matter_system, sambe_cfg["harmonic_cutoff"]
    )
    with stage("sumrule"):
        static_report = static_trk(h, d, 0, n_electrons=n_e, system=matter_system)
        sambe_report = sumrule_sambe(
            fm, system, d, selection.source_indices[ffbz_ref], n_electrons=n_e
        )
        ffbz_report = sumrule_ffbz(
            selection.representatives,
            d,
            drive.omega,
            ffbz_ref,
            sambe_cfg["n_max"],
            h_matter=h,
            edge_tol=sambe_cfg["edge_tol"],
            n_electrons=n_e,
            extra_flags=selection.warnings,
        )
        density = density_from_ledger(ffbz_report)
    pieces = _empty_pieces()
    pieces["reports"] = (
        ("static_trk", static_report),
        ("sambe", sambe_report),
        ("ffbz", ffbz_report),
    )
    pieces["primary"] = "ffbz"
    pieces["density"] = density
    pieces["spectrum_header"] = ("index", "quasienergy", "edge_weight")
    pieces["spectrum_rows"] = tuple(
        (i, mode.quasienergy, mode.edge_weight)
        for i, mode in enumerate(selection.representatives)
    )
    pieces["warnings"] = selection.warnings
    return pieces


def _run_qed(config: JobConfig, stage: _Stage) -> dict:
    h, d, n_e, matter_system = _matter_stack(config, stage)
    fock = config.fock()
    reference = _static_reference(config)
    with stage("joint_assemble"):
        h_joint = build_joint_hamiltonian(h, d, fock)
        d_joint = joint_dipole(d, fock)
    with stage("eigensolve"):
        system = diagonalize_hermitian(h_joint)
    with stage("sumrule"):
        static_report = static_trk(h, d, 0, n_electrons=n_e, system=matter_system)
        qed_report = sumrule_qed(
            system, d_joint, reference, h_joint=h_joint, n_electrons=n_e
        )
    reports = [("static_trk", static_report), ("qed", qed_report)]
    if config.resolved["qed"]["h0_diagnostic"]:
        # same photon cutoff, so d (x) I is shared with the coupled report
        fock0 = FockSpec(n_max=fock.n_max, omega_c=fock.omega_c, g=0.0)
        with stage("joint_assemble"):
            h0 = build_joint_hamiltonian(h, d, fock0)
        with stage("eigensolve"):
            system0 = diagonalize_hermitian(h0)
        with stage("sumrule"):
            reports.append(
                (
                    "qed_h0",
                    sumrule_qed(system0, d_joint, reference, h_joint=h0, n_electrons=n_e),
                )
            )
    pieces = _empty_pieces()
    pieces["reports"] = tuple(reports)
    pieces["primary"] = "qed"
    pieces["spectrum_header"] = ("index", "energy")
    pieces["spectrum_rows"] = tuple(
        (i, float(e)) for i, e in enumerate(system.values)
    )
    pieces["warnings"] = qed_report.truncation_flags
    return pieces


def _run_converge(config: JobConfig, stage: _Stage) -> dict:
    axis = config.resolved["converge"]["axis"]
    values = config.resolved["converge"]["values"]
    pieces = _empty_pieces()
    if axis == "harmonic_cutoff":
        h, d, n_e, matter_system = _matter_stack(config, stage)
        drive = _resolvable_drive(config, matter_system)
        rows: list[dict] = []
        previous = None
        final_report = None
        final_warnings: tuple[str, ...] = ()
        for cutoff in values:
            _, _, selection, ffbz_ref = _floquet_stack(
                config, stage, h, d, drive, matter_system, cutoff
            )
            with stage("sumrule"):
                report = sumrule_ffbz(
                    selection.representatives,
                    d,
                    drive.omega,
                    ffbz_ref,
                    config.resolved["sambe"]["n_max"],
                    h_matter=h,
                    edge_tol=config.resolved["sambe"]["edge_tol"],
                    n_electrons=n_e,
                    extra_flags=selection.warnings,
                )
            delta = None if previous is None else report.value - previous
            rows.append(
                {
                    "harmonic_cutoff": cutoff,
                    "value": report.value,
                    "oracle_residual": report.oracle_residual,
                    "delta": delta,
                    "converged": delta is not None and abs(delta) < 1e-6,
                }
            )
            previous = report.value
            final_report = report
            final_warnings = selection.warnings
        pieces["reports"] = (("ffbz", final_report),)
        pieces["primary"] = "ffbz"
        pieces["convergence"] = tuple(rows)
        pieces["warnings"] = final_warnings
        return pieces

    with stage("matter_build"):
        h, d, n_e = config.matter()
    fock_cfg = config.resolved["fock"]
    focks = [
        FockSpec(n_max=v, omega_c=fock_cfg["omega_c"], g=fock_cfg["g"]) for v in values
    ]
    reference = _static_reference(config)
    with stage("convergence"):
        qed_rows = photon_cutoff_convergence(
            h, d, focks, reference, n_electrons=n_e
        )
    for row in qed_rows:
        _check_closure(f"n_max={row.n_max}", row.report)
    pieces["reports"] = (("qed", qed_rows[-1].report),)
    pieces["primary"] = "qed"
    pieces["convergence"] = tuple(
        {
            "n_max": row.n_max,
            "value": row.value,
            "oracle_residual": row.oracle_residual,
            "delta": row.delta,
            "edge_population": row.edge_population,
            "converged": row.converged,
        }
        for row in qed_rows
    )
    return pieces


def _run_sweep(config: JobConfig, stage: _Stage, verbose: bool) -> dict:
    sweep = config.resolved["sweep"]
    points: list[SweepPoint] = []
    for i, value in enumerate(sweep["values"]):
        raw = copy.deepcopy(config.resolved)
        raw.pop("sweep")
        raw["job"] = sweep["job"]
        _set_path(raw, sweep["path"], value)
        point_config = JobConfig(resolved=_resolve(raw))
        with stage(f"point_{i}"):
            report = run_job(point_config, verbose=verbose)
        points.append(SweepPoint(parameter_value=float(value), report=report))
    pieces = _empty_pieces()
    pieces["sweep_points"] = tuple(points)
    pieces["warnings"] = tuple(
        flag for point in points for flag in point.report.warnings
    )
    return pieces


# ---------------------------------------------------------------------------
# serialization


def _sumrule_payload(report: SumRuleReport) -> dict:
    return {
        "kind": report.kind,
        "value": report.value,
        "target": report.target,
        "residual": report.residual,
        "oracle_value": report.oracle_value,
        "oracle_residual": report.oracle_residual,
        "reference": report.reference,
        "omega": report.omega,
        "truncation_flags": list(report.truncation_flags),
        "contributions": [
            [c.lam, c.n, c.quasienergy_diff, c.abs2, c.weight]
            for c in report.contributions
        ],
        "aggregated_contributions": [
            [c.lam, c.n, c.quasienergy_diff, c.abs2, c.weight]
            for c in report.aggregated_contributions()
        ],
    }


def report_payload(report: RunReport) -> dict:
    """The deterministic structured payload (no timings)."""
    payload: dict[str, Any] = {
        "job": report.job_kind,
        "version": report.version,
        "run_hash": report.run_hash,
        "config": report.config,
        "warnings": list(report.warnings),
        "reports": {tag: _sumrule_payload(r) for tag, r in report.reports},
        "primary": report.primary,
    }
    if report.density is not None:
        payload["spectral_density"] = {
            "reference": report.density.reference,
            "sticks": [
                [s.omega, s.weight, s.lam, s.n] for s in report.density.sticks
            ],
        }
    if report.spectrum_rows is not None:
        payload["spectrum"] = {
            "header": list(report.spectrum_header),
            "rows": [list(row) for row in report.spectrum_rows],
        }
    if report.convergence is not None:
        payload["convergence"] = list(report.convergence)
    if report.sweep_points is not None:
        payload["sweep"] = [
            {
                "parameter_value": point.parameter_value,
                "report": report_payload(point.report),
            }
            for point in report.sweep_points
        ]
    return payload


def _csv_text(header: Sequence[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _ledger_csv(report: SumRuleReport) -> str:
    return _csv_text(
        _LEDGER_HEADER,
        (
            [c.lam, c.n, c.quasienergy_diff, c.abs2, c.weight]
            for c in report.contributions
        ),
    )


def _sticks_csv(density: SpectralDensity) -> str:
    return _csv_text(
        _STICKS_HEADER,
        ([s.omega, s.weight, s.lam, s.n] for s in density.sticks),
    )


def _convergence_csv(rows: tuple[dict, ...]) -> str:
    header = list(rows[0].keys())
    return _csv_text(
        header,
        (["" if row[k] is None else row[k] for k in header] for row in rows),
    )


def write_report(
    report: RunReport,
    directory: str | Path,
    formats: Sequence[str],
    *,
    threads_applied: int | None = None,
) -> list[Path]:
    """Serialize a run to disk; all content is built before the first write.

    ``report.json`` carries the complete deterministic payload,
    ``timings.json`` the quarantined wall-clock data plus
    ``threads_applied``, the BLAS thread cap the run was held to (None: the
    library default); CSV tables cover the primary ledger, representative
    spectra, spectral-density sticks, convergence rows, and per-point sweep
    ledgers with an index.
    """
    files: dict[str, str] = {}
    if "json" in formats:
        files["report.json"] = (
            json.dumps(report_payload(report), sort_keys=True, indent=2) + "\n"
        )
        files["timings.json"] = (
            json.dumps(
                {"timings": report.timings, "threads_applied": threads_applied},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    if "csv" in formats:
        primary = report.primary_report()
        if primary is not None:
            files["ledger.csv"] = _ledger_csv(primary)
        if report.density is not None:
            files["sticks.csv"] = _sticks_csv(report.density)
        if report.spectrum_rows is not None:
            files["spectrum.csv"] = _csv_text(report.spectrum_header, report.spectrum_rows)
        if report.convergence:
            files["convergence.csv"] = _convergence_csv(report.convergence)
        if report.sweep_points is not None:
            index_rows = []
            for i, point in enumerate(report.sweep_points):
                ledger_name = f"ledger_{i:03d}.csv"
                sticks_name = ""
                child = point.report.primary_report()
                if child is not None:
                    files[ledger_name] = _ledger_csv(child)
                if point.report.density is not None:
                    sticks_name = f"sticks_{i:03d}.csv"
                    files[sticks_name] = _sticks_csv(point.report.density)
                index_rows.append([i, point.parameter_value, ledger_name, sticks_name])
            files["index.csv"] = _csv_text(
                ("point", "parameter_value", "ledger_file", "sticks_file"), index_rows
            )
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, text in sorted(files.items()):
        path = target / name
        tmp = target / (name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point


@contextlib.contextmanager
def _thread_limit(threads: int):
    """Cap BLAS threads; yields the cap in force, None when none was applied."""
    if threads <= 0:
        yield None
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(
            f"warning: thread cap {threads} (--threads / FLOQTRK_THREADS) not "
            f"applied: threadpoolctl is not installed",
            file=sys.stderr,
        )
        yield None
        return
    with threadpool_limits(limits=threads):
        yield threads


def _resolve_threads(cli_value: int | None) -> int:
    if cli_value is not None:
        value = cli_value
    else:
        env = os.environ.get("FLOQTRK_THREADS")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(
                f"FLOQTRK_THREADS must be an integer, got {env!r}"
            ) from None
    if value < 0:
        raise ConfigError(f"thread count must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqtrk",
        description="Energy-weighted dipole sum rules for driven and photon-coupled models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, job in (
        ("static-trk", "static_trk"),
        ("floquet", "floquet"),
        ("qed", "qed"),
        ("converge", "converge"),
        ("sweep", "sweep"),
    ):
        sub = subparsers.add_parser(command, help=f"run a {job} job")
        sub.set_defaults(job_kind=job)
        sub.add_argument("--config", required=True, help="YAML job description")
        sub.add_argument("--out", default=None, help="output directory (overrides config)")
        sub.add_argument(
            "--threads",
            type=int,
            default=None,
            help="BLAS thread cap (0 = library default; env FLOQTRK_THREADS)",
        )
        sub.add_argument("--verbose", action="store_true", help="progress on stderr")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = _resolve_threads(args.threads)
        config = load_config(args.config, default_job=args.job_kind)
        if config.job_kind != args.job_kind:
            raise ConfigError(
                f"config declares job {config.job_kind!r} but subcommand expects "
                f"{args.job_kind!r}"
            )
        with _thread_limit(threads) as threads_applied:
            report = run_job(config, verbose=args.verbose)
        out_dir = args.out if args.out else config.resolved["output"]["directory"]
        written = write_report(
            report,
            out_dir,
            config.resolved["output"]["formats"],
            threads_applied=threads_applied,
        )
        if args.verbose:
            for path in written:
                print(f"[floqtrk] wrote {path}", file=sys.stderr)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ZoneError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
