"""Configuration-driven runner and serialization layer.

Jobs are described by a YAML file with sections mirroring the library
modules (``model``, ``drive``, ``sambe``, ``fock``, ...). The schema is
declared once, in ``_JOBS`` (the sections of each job kind) and ``_SCHEMA``
(each key's parser, default and bound); one walker, ``_walk``, checks a
section against it. The loader is strict: a key given twice in one mapping
and unknown keys are rejected (the latter with a suggestion), every default
is made explicit in the echoed configuration, and the echo re-loads to an
equal configuration. Numerical payloads are a pure function of the resolved
config; wall-clock timings are quarantined in a separate file so that two
runs of the same config produce byte-identical structured reports.

Subcommands: ``static-trk``, ``floquet``, ``qed``, ``converge``, ``sweep``,
each taking ``--config <path>``, ``--out <dir>``, ``--threads <n>`` (0 =
library default; the FLOQTRK_THREADS environment variable supplies a
default; applied through the thread control of numpy's bundled OpenBLAS,
with a warning when that is missing)
and ``--verbose``. Exit codes: 0 success, 2 configuration or input error,
3 numeric or zone failure (a broken closure identity included), 4 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
import platform
import re
import sys
import threading
import time
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
import yaml

from . import lapack
from .errors import ConfigError, InputError, NumericError, ZoneError
from .floquet import (
    EigenSystem,
    FfbzSelection,
    ProductOperator,
    Reflection,
    basis_reversal,
    diagonalize_hermitian,
    fold_and_select_ffbz,
    sambe_operator,
)
from .model import (
    HERMITICITY_TOL,
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    GridBasis,
    InteractionSpec,
    MatterOperator,
    PotentialSpec,
    _KINETIC_SCHEMES,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    hermiticity_defect,
)
from .qed import FockSpec, joint_operator, sumrule_qed
from .sumrule import (
    Ledger,
    SpectralDensity,
    SumRuleReport,
    density_from_ledger,
    first_moment,
    select_reference,
    static_trk,
    sumrule_ffbz,
    sumrule_sambe,
)
from .version import __version__

#: Report kinds summed over a complete spectrum, whose value must meet the
#: double-commutator oracle to CLOSURE_RTOL x max(1, |oracle value|).
_CLOSURE_KINDS = ("static_trk", "sambe", "qed")
CLOSURE_RTOL = 1e-8


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

    @functools.cached_property
    def sweep_points(self) -> list[tuple[int | float, JobConfig]]:
        """(value, base job) of every point of a sweep, resolved once: to be
        checked by :func:`load_config`, and run."""
        return _sweep_points(self.resolved)

    def matter(self) -> tuple[MatterOperator, MatterOperator, int]:
        """(Hamiltonian, dipole, electron count) of the model section."""
        model = self.resolved["model"]
        n_e = model["n_electrons"]
        if model["kind"] == "few_level":
            few = FewLevelModel(
                energies=tuple(model["energies"]),
                dipole=np.array(model["dipole"], dtype=np.float64),
            )
            return few.hamiltonian(), few.dipole_operator(), n_e
        grid = GridBasis(**model["grid"])
        potential = _spec_of(PotentialSpec, model["potential"])
        if n_e == 1:
            h = build_grid_hamiltonian(grid, potential, kinetic_scheme=model["kinetic"])
        else:
            h = build_two_electron_hamiltonian(
                grid,
                potential,
                interaction=_spec_of(InteractionSpec, model["interaction"]),
                kinetic_scheme=model["kinetic"],
            )
        return h, build_dipole(grid, n_electrons=n_e), n_e


def _spec_of(cls, section: dict):
    """``cls.<kind>(**keys)`` of a resolved tagged section."""
    keys = dict(section)
    return getattr(cls, keys.pop("kind"))(**keys)


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a mapping that repeats a key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # refused by the base class
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str | Path, default_job: str | None = None) -> JobConfig:
    """Load and validate a YAML job description.

    Every default is filled in, so the returned config's ``resolved``
    mapping is the canonical echo; dumping it back to YAML and re-loading
    yields an equal JobConfig. A sweep's points are resolved here too, so a
    value its base job refuses fails before any point runs.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"could not read {path} as UTF-8 text: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    # ValueError: a scalar YAML cannot convert; RecursionError: nesting too deep
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level of {path} must be a mapping of sections")
    config = JobConfig(resolved=_resolve(raw, default_job=default_job))
    if config.job_kind == "sweep":
        config.sweep_points  # every point is resolved, and so checked, here
    return config


def _suggest(key: str, allowed) -> str:
    import difflib  # only an error reaches here, so kept off the start-up path
    close = difflib.get_close_matches(str(key), sorted(allowed), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


_MISSING = object()


def _pick(section: dict, key: str, where: str, default: Any = _MISSING) -> Any:
    if key in section:
        return section[key]
    if default is _MISSING:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return default


# ---------------------------------------------------------------------------
# key parsers: each takes (value, key, where, **options) and returns the
# resolved value or raises ConfigError


#: A YAML 1.2 float written without a dot or without an exponent sign
#: (``1e-3``, ``1.0e308``), which PyYAML's YAML 1.1 resolver leaves a string.
_YAML12_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")

_COMPARISONS = {">": operator.gt, ">=": operator.ge}


def _as_number(value: Any) -> Any:
    """``value`` as a number when it is one in YAML 1.2 float syntax."""
    if isinstance(value, str) and _YAML12_FLOAT.fullmatch(value):
        return float(value)
    return value


def _within(value: float, bound: str | None, key: str, where: str):
    """``value`` if it meets ``bound`` (such as ``"> 0"``)."""
    if bound is not None:
        comparison, limit = bound.split()
        if not _COMPARISONS[comparison](value, float(limit)):
            raise ConfigError(f"key {key!r} in {where} must be {bound}, got {value}")
    return value


def _as_float(value: Any, key: str, where: str, bound: str | None = None) -> float:
    value = _as_number(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"key {key!r} in {where} must be a number, got {type(value).__name__}"
        )
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(
            f"key {key!r} in {where} must be finite, got an integer of "
            f"{len(str(abs(value)))} digits"
        ) from None
    if not math.isfinite(result):
        raise ConfigError(f"key {key!r} in {where} must be finite, got {value!r}")
    return _within(result, bound, key, where)


def _as_upper_end(value: Any, key: str, where: str, x_min: float) -> float:
    """A number above the section's ``x_min``."""
    upper = _as_float(value, key, where)
    if not upper > x_min:
        raise ConfigError(f"key {key!r} in {where} must be > 'x_min' ({x_min}), got {upper}")
    return upper


def _as_int(value: Any, key: str, where: str, bound: str | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"key {key!r} in {where} must be an integer, got {type(value).__name__}"
        )
    return _within(int(value), bound, key, where)


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


def _as_grid_electrons(value: Any, key: str, where: str, choices: tuple[int, ...]) -> int:
    count = _as_int(value, key, where)
    if count not in choices:
        raise ConfigError(
            f"key {key!r} in {where} must be {' or '.join(map(str, choices))} "
            f"for grid models, got {count}"
        )
    return count


def _as_text(value: Any, key: str, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"key {key!r} in {where} must be a non-empty string")
    return value


def _as_real(value: Any, key: str, where: str) -> int | float:
    """A number kept as written (an int stays an int)."""
    value = _as_number(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} in {where} must contain numbers only")
    return value


def _as_list(
    value: Any,
    key: str,
    where: str,
    item: Callable[..., Any] | None = None,
    min_len: int = 1,
    unique: bool = False,
) -> list:
    """A list of at least ``min_len`` entries, each parsed by ``item``."""
    if not isinstance(value, list) or len(value) < min_len:
        need = {0: "be a list", 1: "be a non-empty list"}.get(
            min_len, f"list at least {min_len} entries"
        )
        raise ConfigError(f"key {key!r} in {where} must {need}")
    if item is None:
        return value
    items: list = []
    for entry in value:
        entry = item(entry, key, where)
        if unique and entry in items:
            raise ConfigError(f"key {key!r} in {where} lists {entry!r} twice")
        items.append(entry)
    return items


def _as_levels(value: Any, key: str, where: str) -> list[float]:
    """A non-empty list of numbers in ascending order (ties allowed)."""
    levels = _as_list(value, key, where, _as_float)
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"key {key!r} in {where} must be in ascending order, got {levels}")
    return levels


def _as_matrix(value: Any, key: str, where: str, energies: list) -> list:
    """A real symmetric (so Hermitian) matrix with one row per level energy."""
    n = len(energies)
    if (
        not isinstance(value, list)
        or len(value) != n
        or any(not isinstance(row, list) or len(row) != n for row in value)
    ):
        raise ConfigError(
            f"key {key!r} in {where} must be a {n}x{n} matrix matching 'energies'"
        )
    matrix = [[_as_float(v, key, where) for v in row] for row in value]
    defect = hermiticity_defect(np.array(matrix, dtype=np.float64))
    if defect > HERMITICITY_TOL:
        raise ConfigError(
            f"key {key!r} in {where} must be symmetric, got max |d - d^T| = {defect:.3e}"
        )
    return matrix


def _as_cutoffs(value: Any, key: str, where: str, min_len: int) -> list[int]:
    """Strictly increasing non-negative cutoffs, at least ``min_len`` of them."""
    values = _as_list(value, key, where, _as_int, min_len)
    if any(nxt <= prev for prev, nxt in zip(values, values[1:])):
        raise ConfigError(f"key {key!r} in {where} must be strictly increasing")
    if min(values) < 0:
        raise ConfigError(f"key {key!r} in {where} must be non-negative")
    return values


def _as_reference(value: Any) -> int | str:
    if value == "auto":
        return "auto"
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(
            f"key 'reference' must be 'auto' or a non-negative integer, got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# the schema: every section's keys, parsers, defaults and bounds


def _key(parse: Callable[..., Any], default: Any = _MISSING, **options):
    """A plain key: its parser, the parser's options, and its default
    (``_MISSING``: the key is required; ``None``: it may be left out or
    null, and stays None)."""
    return parse, default, options


#: As a parser option: the value already resolved for the key of that name
#: in the same section.
_SIBLING = object()


@dataclass(frozen=True)
class _Tagged:
    """A section whose keys depend on the value of one of them, its tag.

    ``variants`` maps each accepted tag value to the section's other keys,
    which may hold a further ``_Tagged``; ``parse`` reads the tag and is
    given the accepted values.
    """

    tag: str
    default: Any
    variants: dict
    parse: Callable[..., Any] = _as_choice


#: Per job kind: the sections it requires and the sections it may have,
#: besides ``model``, ``reference`` and ``output``.
_JOBS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "static_trk": ((), ()),
    "floquet": (("drive",), ("sambe",)),
    "qed": (("fock",), ("qed",)),
    "converge": (("converge",), ()),
    "sweep": (("sweep",), ()),
}
_EVERY_JOB = ("job", "model", "reference", "output")

#: A converge or sweep job also takes the sections named by one key of its
#: own section: the scanned axis, or the job kind swept.
_ADDED_SECTIONS = {
    "converge": (
        "axis",
        {"harmonic_cutoff": _JOBS["floquet"], "fock_n_max": (("fock",), ())},
    ),
    "sweep": ("job", {kind: _JOBS[kind] for kind in ("static_trk", "floquet", "qed")}),
}

#: In a section's keys, a ``_key(...)`` is a plain key, a dict or
#: ``_Tagged`` a nested section (all defaults when left out or null), and
#: ``[section]`` a list of such sections (default empty).
_GRID = {
    "n_points": _key(_as_int, 201, bound=">= 3"),
    "x_min": _key(_as_float, -10.0),
    "x_max": _key(_as_upper_end, 10.0, x_min=_SIBLING),
}
_POTENTIAL = _Tagged("kind", "harmonic", {
    "harmonic": {"omega": _key(_as_float, 1.0, bound="> 0")},
    "soft_coulomb": {
        "charge": _key(_as_float, 1.0),
        "softening": _key(_as_float, 1.0, bound="> 0"),
    },
    "box": {},
    "double_well": {
        "barrier": _key(_as_float, 1.0, bound="> 0"),
        "separation": _key(_as_float, 2.0, bound="> 0"),
    },
    "tabulated": {"values": _key(_as_list, item=_as_float)},
})
_INTERACTION = _Tagged("kind", "none", {
    "none": {},
    "soft_coulomb": {
        "strength": _key(_as_float, 1.0),
        "softening": _key(_as_float, 1.0, bound="> 0"),
    },
})
#: Fewest photon cutoffs a photon-cutoff converge job may scan.
MIN_CUTOFF_FAMILY = 3

_SCHEMA = {
    "model": _Tagged("kind", "grid", {
        "grid": _Tagged("n_electrons", 1, {
            1: {
                "grid": _GRID,
                "potential": _POTENTIAL,
                "kinetic": _key(_as_choice, "three_point", choices=_KINETIC_SCHEMES),
            },
            2: {
                "grid": _GRID,
                "potential": _POTENTIAL,
                "kinetic": _key(_as_choice, "sinc_dvr", choices=_KINETIC_SCHEMES),
                "interaction": _INTERACTION,
            },
        }, parse=_as_grid_electrons),
        "few_level": {
            "energies": _key(_as_levels),
            "dipole": _key(_as_matrix, energies=_SIBLING),
            "n_electrons": _key(_as_int, 1, bound=">= 1"),
        },
    }),
    "drive": {
        "omega": _key(_as_float, bound="> 0"),
        "components": [{
            "harmonic": _key(_as_int, 1, bound=">= 1"),
            "amplitude": _key(_as_float),
            "phase": _key(_as_float, 0.0),
        }],
    },
    "sambe": {
        "harmonic_cutoff": _key(_as_int, 8, bound=">= 0"),
        "edge_tol": _key(_as_float, 1e-6, bound="> 0"),
        "n_max": _key(_as_int, None, bound=">= 0"),
    },
    "fock": {
        "n_max": _key(_as_int, 8, bound=">= 0"),
        "omega_c": _key(_as_float, bound="> 0"),
        "g": _key(_as_float),
    },
    "qed": {"h0_diagnostic": _key(_as_bool, False)},
    "converge": _Tagged("axis", _MISSING, {
        "harmonic_cutoff": {"values": _key(_as_cutoffs, min_len=2)},
        "fock_n_max": {"values": _key(_as_cutoffs, min_len=MIN_CUTOFF_FAMILY)},
    }),
    "sweep": {
        "job": _key(_as_choice, "floquet", choices=tuple(_ADDED_SECTIONS["sweep"][1])),
        "path": _key(_as_text),
        "values": _key(_as_list, item=_as_real),
    },
    "output": {
        "directory": _key(_as_text, "out"),
        "formats": _key(
            _as_list,
            ["json", "csv"],
            item=functools.partial(_as_choice, choices=("json", "csv")),
            unique=True,
        ),
    },
}


def _walk(schema: dict | _Tagged, value: Any, path: str) -> dict:
    """Validate the section at ``path`` against ``schema``, defaults filled in.

    Tags are read first, then unknown keys are refused, then the other keys
    are parsed in the order the schema declares them.
    """
    where = f"section {path!r}"
    section = {} if value is None else value
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(section).__name__}")
    resolved: dict[str, Any] = {}
    while isinstance(schema, _Tagged):
        tag = _pick(section, schema.tag, where, schema.default)
        resolved[schema.tag] = schema.parse(tag, schema.tag, where, tuple(schema.variants))
        schema = schema.variants[resolved[schema.tag]]
    allowed = [*resolved, *schema]
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}{_suggest(key, allowed)}")
    for key, spec in schema.items():
        if isinstance(spec, (dict, _Tagged)):
            resolved[key] = _walk(spec, section.get(key), f"{path}.{key}")
        elif isinstance(spec, list):
            items = _as_list(_pick(section, key, where, []), key, where, min_len=0)
            resolved[key] = [
                _walk(spec[0], item, f"{path}.{key}.{i}") for i, item in enumerate(items)
            ]
        else:
            parse, default, options = spec
            given = _pick(section, key, where, default)
            if given is None and default is None:
                resolved[key] = None
                continue
            options = {k: resolved[k] if v is _SIBLING else v for k, v in options.items()}
            resolved[key] = parse(given, key, where, **options)
    return resolved


def _resolve(raw: dict, default_job: str | None = None) -> dict:
    """The resolved mapping of a whole job description."""
    job = raw.get("job", default_job)
    if job is None:
        raise ConfigError("missing required key 'job' (or run through a subcommand)")
    if not isinstance(job, str) or job not in _JOBS:
        raise ConfigError(
            f"key 'job' must be one of {list(_JOBS)}, got {job!r}"
            f"{_suggest(job, _JOBS) if isinstance(job, str) else ''}"
        )
    required, optional = _JOBS[job]
    tag, added = _ADDED_SECTIONS.get(job, (None, {}))
    may_use = {*_EVERY_JOB, *required, *optional}
    for more_required, more_optional in added.values():
        may_use.update(more_required + more_optional)
    for key in raw:
        if key in may_use:
            continue
        if key in _SCHEMA:
            raise ConfigError(f"section {key!r} is not used by job kind {job!r}")
        raise ConfigError(f"unknown key {key!r} at top level{_suggest(key, may_use)}")

    resolved: dict[str, Any] = {"job": job}
    if added:
        # the job's own section first: it names the sections the job adds
        resolved[job] = _walk(_SCHEMA[job], _pick(raw, job, "top level"), job)
        more_required, more_optional = added[resolved[job][tag]]
        required, optional = required + more_required, optional + more_optional
    used = {*_EVERY_JOB, *required, *optional}
    for key in raw:
        if key not in used:
            raise ConfigError(f"section {key!r} is not used by job kind {job!r}")
    for name in sorted({"model", *required}):
        if name not in raw:
            raise ConfigError(f"job kind {job!r} requires section {name!r}")
    for name in ("model", "drive", "sambe", "fock", "qed"):
        if name in used:
            resolved[name] = _walk(_SCHEMA[name], raw.get(name), name)
    resolved["reference"] = _as_reference(raw.get("reference", "auto"))
    resolved["output"] = _walk(_SCHEMA["output"], raw.get("output"), "output")
    if job == "floquet":
        cutoff = resolved["sambe"]["harmonic_cutoff"]
        _check_harmonic_window(resolved, cutoff, "harmonic_cutoff", "sambe")
    elif job == "converge" and resolved["converge"]["axis"] == "harmonic_cutoff":
        # the values ascend, so the first is the smallest cutoff
        _check_harmonic_window(resolved, resolved["converge"]["values"][0], "values", "converge")
    return resolved


def _check_harmonic_window(resolved: dict, cutoff: int, key: str, section: str) -> None:
    """Refuse a harmonic cutoff below the highest drive harmonic with a
    nonzero amplitude, which the Sambe assembly would refuse at run time,
    and a ``sambe.n_max`` beyond the sideband range 2 x cutoff, which the
    zone-resolved sum would refuse after every solve."""
    driven = [c["harmonic"] for c in resolved["drive"]["components"] if c["amplitude"] != 0.0]
    if driven and cutoff < max(driven):
        raise ConfigError(
            f"key {key!r} in section {section!r} must be >= {max(driven)} (the highest "
            f"drive harmonic with a nonzero amplitude), got {cutoff}"
        )
    n_max = resolved["sambe"]["n_max"]
    if n_max is not None and n_max > 2 * cutoff:
        raise ConfigError(
            f"key 'n_max' in section 'sambe' must be <= {2 * cutoff} (the sideband "
            f"range, 2 x the harmonic cutoff {cutoff} of section {section!r}), got {n_max}"
        )


# ---------------------------------------------------------------------------
# sweeps


def _sweep_points(resolved: dict) -> list[tuple[int | float, JobConfig]]:
    """(value, base job) of every point of a resolved sweep."""
    sweep = resolved["sweep"]
    path = sweep["path"]
    if path.split(".", 1)[0] in ("sweep", "job", "output", "converge"):
        raise ConfigError(
            f"sweep path {path!r} must target a model/drive/sambe/fock/qed/reference parameter"
        )
    current = _step(*_path_parent(resolved, path), path)
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(f"sweep path {path!r} must target a numeric parameter")
    points = []
    for value in sweep["values"]:
        raw = copy.deepcopy(resolved)
        raw.pop("sweep")
        raw["job"] = sweep["job"]
        parent, leaf = _path_parent(raw, path)
        parent[int(leaf) if isinstance(parent, list) else leaf] = value
        points.append((value, JobConfig(resolved=_resolve(raw))))
    return points


def _path_parent(tree: Any, path: str) -> tuple[Any, str]:
    """(container, last segment) of a dotted path; int segments index lists."""
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



# ---------------------------------------------------------------------------
# running


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One executed sweep value and its full report."""

    parameter_value: float
    report: "RunReport"


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one job produced, timings quarantined from the payload.
    A job sets only the fields it produces."""

    config: dict
    run_hash: str
    version: str
    timings: dict
    reports: tuple[tuple[str, SumRuleReport], ...] = ()
    primary: str | None = None
    density: SpectralDensity | None = None
    spectrum: dict[str, list] | None = None
    convergence: tuple[dict, ...] | None = None
    sweep_points: tuple[SweepPoint, ...] | None = None
    warnings: tuple[str, ...] = ()
    members: tuple[dict, ...] = ()

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
    """Wall-clock bookkeeping kept away from the deterministic payload. Two
    members of a job may time their stages at once (:func:`_run_members`),
    so a stage's time is added under a lock, and a member's view
    (:meth:`member`) names its member in each ``--verbose`` line."""

    def __init__(self, timings: dict, verbose: bool):
        self.timings = timings
        self.verbose = verbose
        self.members: list[dict] = []
        self.lock = threading.Lock()
        self.label = ""

    def member(self, label: str) -> _Stage:
        """This bookkeeping, its lines prefixed with ``label``."""
        view = copy.copy(self)
        view.label = f"{label} "
        return view

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self.verbose:
            print(f"[floqtrk] {self.label}{name} ...", file=sys.stderr)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self.lock:
                self.timings[name] = self.timings.get(name, 0.0) + elapsed
            if self.verbose:
                print(f"[floqtrk] {self.label}{name} done in {elapsed:.3f} s", file=sys.stderr)


def _run_members(stage: _Stage, members: Sequence[tuple[str, Callable[[_Stage], Any]]]) -> list:
    """The results of a job's independent ``members`` (label, call on its
    stage view), in the order given, run on the job's two slots
    (:func:`floqtrk.lapack.each`, which takes them from the last
    one back, so a scan's largest cutoff starts first). A failure is
    that of the first member to fail in the order given, raised once both
    slots have ended, as running them in turn would raise it. Each member's
    wall time, and whether it ran on the calling thread or the helper, goes
    to ``stage.members`` in the order given."""
    caller = threading.get_ident()
    entries: list[dict | None] = [None] * len(members)

    def timed(i: int, label: str, call: Callable[[_Stage], Any]) -> Callable[[], Any]:
        def run() -> Any:
            start = time.perf_counter()
            result = call(stage.member(label))
            thread = "calling" if threading.get_ident() == caller else "helper"
            entries[i] = {"member": label, "wall_s": time.perf_counter() - start, "thread": thread}
            return result

        return run

    calls = [timed(i, label, call) for i, (label, call) in enumerate(members)]
    results = lapack.each(calls)
    stage.members.extend(entries)
    return results


def run_job(config: JobConfig, verbose: bool = False) -> RunReport:
    """Execute the configured pipeline and collect a full report.

    Module errors propagate (tagged with config context by the CLI wrapper);
    truncation warnings end up in the report, never silently dropped.
    """
    timings: dict[str, float] = {}
    stage = _Stage(timings, verbose)
    start = time.perf_counter()
    # one scheduler for the whole job: its helper thread ends with the job,
    # and OpenBLAS is held to one thread while it is open
    with lapack.scheduler(hold=True):
        pieces = _RUNNERS[config.job_kind](config, stage)
    reports = pieces.get("reports", ())
    for tag, report in reports:
        _check_identities(tag, report)
    if pieces.get("density") is not None:
        ffbz = dict(reports)["ffbz"].value
        moment = first_moment(pieces["density"])
        if moment != ffbz:
            raise NumericError(
                f"stick spectrum breaks the first-moment identity: first moment "
                f"{moment!r} != ffbz value {ffbz!r}"
            )
    timings["total"] = time.perf_counter() - start
    return RunReport(
        config=config.resolved,
        run_hash=run_hash_of(config.resolved),
        version=__version__,
        timings=timings,
        members=tuple(stage.members),
        **pieces,
    )


def _check_identities(tag: str, report: SumRuleReport) -> None:
    """Enforce the exact identities of one report, so no report that breaks
    one is written.

    Its value is the math.fsum of its ledger's stored weights, bit for bit.
    Over a complete spectrum the value also equals the double-commutator
    oracle up to rounding, whatever the truncation; a larger residual means
    the eigensolve or the ledger is wrong.
    """
    total = math.fsum(report.contributions.weight.tolist())
    if total != report.value:
        raise NumericError(
            f"{tag} report breaks the ledger identity: the fsum of its weights "
            f"{total!r} != its value {report.value!r}"
        )
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


class _Matter(NamedTuple):
    """The matter operators of one job, the reflection its eigensolves try
    and the H_M spectrum, solved for the reference of the job's static
    report (None when the job needs none)."""

    h: MatterOperator
    d: MatterOperator
    n_e: int
    reflection: Reflection | None
    system: EigenSystem | None

    def static_report(self, reference: int) -> SumRuleReport:
        """The static TRK report of ``reference``, read off the H_M spectrum."""
        return static_trk(self.h, self.d, reference, n_electrons=self.n_e, system=self.system)


def _matter(config: JobConfig, stage: _Stage, solve: bool = True) -> _Matter:
    """Build the matter operators and, if ``solve``, diagonalize H_M, once
    per job, for its static report's reference (a static job's own, 0 for
    every other job): its eigenvector, its dipole row and every
    eigenvalue. The reflection is basis reversal (x -> -x) for grid models
    and none for few-level models; on an asymmetric grid or potential it
    does not commute, and each operator is one sector, a band if narrow."""
    with stage("matter_build"):
        h, d, n_e = config.matter()
    reflection = basis_reversal(h.dim) if config.resolved["model"]["kind"] == "grid" else None
    system = None
    if solve:
        with stage("matter_eigensolve"):
            operator = ProductOperator(
                matter=h.matrix,
                labels=np.zeros(1, dtype=int),
                dipole=d.matrix,
                coupling=np.zeros((1, 1)),
                reflection=reflection,
            )
            static = config.resolved["job"] == "static_trk"
            reference = _static_reference(config) if static else 0
            system = diagonalize_hermitian(operator, reference=reference)
    return _Matter(h, d, n_e, reflection, system)


def _run_static(config: JobConfig, stage: _Stage) -> dict:
    matter = _matter(config, stage)
    with stage("sumrule"):
        report = matter.static_report(_static_reference(config))
    return {
        "reports": (("static_trk", report),),
        "primary": "static_trk",
        "warnings": report.truncation_flags,
    }


def _resolvable_drive(config: JobConfig, matter_system: EigenSystem) -> DriveSpec:
    """The configured drive, if its Omega resolves the matter spectrum.

    Below span x machine epsilon no quasienergy can be folded into the
    first zone, so such an Omega is a configuration error.
    """
    section = config.resolved["drive"]
    drive = DriveSpec(
        omega=section["omega"],
        components=tuple(DriveComponent(**c) for c in section["components"]),
    )
    span = float(matter_system.values[-1] - matter_system.values[0])
    floor = span * float(np.finfo(np.float64).eps)
    if drive.omega < floor:
        raise ConfigError(
            f"key 'omega' in section 'drive' must be >= {floor:.3e} (matter "
            f"spectral span {span:.6g} x machine epsilon), got {drive.omega!r}"
        )
    return drive


def _floquet_member(
    config: JobConfig, stage: _Stage, matter: _Matter, drive: DriveSpec, cutoff: int
) -> tuple[SumRuleReport, EigenSystem, FfbzSelection]:
    """Assemble/diagonalize/fold/sum pipeline of one harmonic cutoff: the
    ffbz report, the Sambe spectrum and its first-zone selection (which
    holds the operator). The reference representative is picked here;
    ``sumrule_ffbz`` refuses an explicit one beyond the selection. The
    eigensolve takes the same pick on the first-zone eigenpairs, and solves
    the reference's own parity sector values-only, as the sambe sum reads
    none of its vectors beyond the reference's."""
    with stage("sambe_assemble"):
        operator = sambe_operator(matter.h, matter.d, drive, cutoff, matter.reflection)
    ground = matter.system.column(0) if config.reference == "auto" else None

    def pick(selection: FfbzSelection) -> int:
        if ground is None:
            return config.reference
        return select_reference(selection.blocks, ground)

    with stage("eigensolve"):
        system = diagonalize_hermitian(operator, reference=pick)
    with stage("fold_select"):
        sambe_cfg = config.resolved["sambe"]
        selection = fold_and_select_ffbz(system, operator, edge_tol=sambe_cfg["edge_tol"])
        reference = pick(selection)
    with stage("sumrule"):
        report = sumrule_ffbz(selection, reference, sambe_cfg["n_max"], n_electrons=matter.n_e)
    return report, system, selection


def _run_floquet(config: JobConfig, stage: _Stage) -> dict:
    matter = _matter(config, stage)
    drive = _resolvable_drive(config, matter.system)
    ffbz_report, system, selection = _floquet_member(
        config, stage, matter, drive, config.resolved["sambe"]["harmonic_cutoff"]
    )
    with stage("sumrule"):
        static_report = matter.static_report(0)
        sambe_report = sumrule_sambe(
            selection.operator,
            system,
            selection.source_indices[ffbz_report.reference],
            n_electrons=matter.n_e,
        )
        density = density_from_ledger(ffbz_report)
    return {
        "reports": (
            ("static_trk", static_report),
            ("sambe", sambe_report),
            ("ffbz", ffbz_report),
        ),
        "primary": "ffbz",
        "density": density,
        "spectrum": {
            "index": list(range(len(selection.blocks))),
            "quasienergy": selection.quasienergies.tolist(),
            "edge_weight": selection.edge_weights.tolist(),
        },
        "warnings": ffbz_report.truncation_flags,
    }


def _qed_member(
    stage: _Stage, matter: _Matter, fock: FockSpec, reference: int
) -> tuple[SumRuleReport, np.ndarray, float]:
    """Assemble/diagonalize/sum pipeline of one photon cutoff: the report,
    the energies and the reference population in the top two Fock levels.
    The reference's own parity sector is solved values-only, as the sum
    reads none of its other vectors. The spectrum and the operator are
    freed on return."""
    with stage("joint_assemble"):
        operator = joint_operator(matter.h, matter.d, fock, matter.reflection)
    with stage("eigensolve"):
        system = diagonalize_hermitian(operator, reference=reference)
    with stage("sumrule"):
        report = sumrule_qed(operator, system, reference, n_electrons=matter.n_e)
        # photon-number distribution of the reference, traced over matter
        table = system.column(reference).reshape(fock.dim, -1)
        edge = math.fsum(np.sum(np.abs(table) ** 2, axis=1)[-2:])
    return report, system.values, edge


def _run_qed(config: JobConfig, stage: _Stage) -> dict:
    """The qed member and, for ``h0_diagnostic``, the g = 0 member beside
    it (:func:`_run_members`)."""
    matter = _matter(config, stage)
    fock = FockSpec(**config.resolved["fock"])
    reference = _static_reference(config)
    members = [("qed", fock)]
    if config.resolved["qed"]["h0_diagnostic"]:
        members.append(("qed_h0", FockSpec(n_max=fock.n_max, omega_c=fock.omega_c, g=0.0)))
    solved = _run_members(
        stage,
        [
            (tag, functools.partial(_qed_member, matter=matter, fock=spec, reference=reference))
            for tag, spec in members
        ],
    )
    (qed_report, energies, _), *h0 = solved
    with stage("sumrule"):
        static_report = matter.static_report(0)
    reports = [("static_trk", static_report), ("qed", qed_report)]
    reports += [("qed_h0", report) for report, _, _ in h0]
    return {
        "reports": tuple(reports),
        "primary": "qed",
        "spectrum": {"index": list(range(len(energies))), "energy": energies.tolist()},
        "warnings": qed_report.truncation_flags,
    }


def _run_converge(config: JobConfig, stage: _Stage) -> dict:
    """One member per cutoff, each through the stages of its base job, run
    on the job's two slots (:func:`_run_members`); the rows are built in
    cutoff order afterwards.

    A harmonic-cutoff row is converged when |delta| from the previous row
    is below 1e-6. A photon-cutoff row also needs the reference population
    in the top two Fock levels below 1e-10, so that the truncation edge is
    unoccupied, not merely stationary; its |delta| bound is 1e-8. A
    photon-cutoff scan runs no matter eigensolve.
    """
    harmonic = config.resolved["converge"]["axis"] == "harmonic_cutoff"
    matter = _matter(config, stage, solve=harmonic)
    if harmonic:
        drive = _resolvable_drive(config, matter.system)
        key, tol = "harmonic_cutoff", 1e-6
    else:
        reference = _static_reference(config)
        key, tol = "n_max", 1e-8
    values = config.resolved["converge"]["values"]

    def member(value: int, view: _Stage) -> tuple[SumRuleReport, float | None]:
        # keep no spectrum past the member's own solve
        if harmonic:
            report = _floquet_member(config, view, matter, drive, value)[0]
            edge = None
        else:
            fock = FockSpec(**{**config.resolved["fock"], "n_max": value})
            report, _, edge = _qed_member(view, matter, fock, reference)
        _check_identities(f"{key}={value}", report)
        return report, edge

    solved = _run_members(
        stage, [(f"{key}={value}", functools.partial(member, value)) for value in values]
    )
    rows: list[dict] = []
    previous = None
    for value, (report, edge) in zip(values, solved):
        delta = None if previous is None else report.value - previous
        row = {
            key: value,
            "value": report.value,
            "oracle_residual": report.oracle_residual,
            "delta": delta,
        }
        if edge is not None:
            row["edge_population"] = edge
        row["converged"] = (
            delta is not None and abs(delta) < tol and (edge is None or edge < 1e-10)
        )
        rows.append(row)
        previous = report.value
    return {
        "reports": ((report.kind, report),),
        "primary": report.kind,
        "convergence": tuple(rows),
        "warnings": report.truncation_flags,
    }


def _run_sweep(config: JobConfig, stage: _Stage) -> dict:
    points: list[SweepPoint] = []
    for i, (value, point) in enumerate(config.sweep_points):
        with stage(f"point_{i}"):
            report = run_job(point, verbose=stage.verbose)
        # the point's own stage timings, its total included, replace its wall time
        stage.timings[f"point_{i}"] = report.timings
        points.append(SweepPoint(parameter_value=float(value), report=report))
    return {
        "sweep_points": tuple(points),
        "warnings": tuple(flag for point in points for flag in point.report.warnings),
    }


#: The pipeline of each job kind.
_RUNNERS: dict[str, Callable[[JobConfig, _Stage], dict]] = {
    "static_trk": _run_static,
    "floquet": _run_floquet,
    "qed": _run_qed,
    "converge": _run_converge,
    "sweep": _run_sweep,
}


# ---------------------------------------------------------------------------
# serialization


#: Layout of ``report.json``: 2 writes every table once, as columns keyed by
#: its CSV header.
_REPORT_FORMAT = 2

#: Every file name ``write_report`` can produce; one of them that a run does
#: not write is a stale table of an earlier run and is removed.
_OUTPUT_NAME = re.compile(
    r"(report|timings)\.json"
    r"|(ledger|sticks|spectrum|convergence|index)\.csv"
    r"|(ledger|sticks)_\d{3,}\.csv"
)


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
        "contributions": report.contributions.columns(),
    }


def _run_payload(report: RunReport) -> dict:
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
            **report.density.columns(),
        }
    if report.spectrum is not None:
        payload["spectrum"] = report.spectrum
    if report.convergence is not None:
        payload["convergence"] = list(report.convergence)
    if report.sweep_points is not None:
        payload["sweep"] = [
            {
                "parameter_value": point.parameter_value,
                "report": _run_payload(point.report),
            }
            for point in report.sweep_points
        ]
    return payload


def report_payload(report: RunReport) -> dict:
    """The deterministic structured payload (no timings) that ``report.json``
    holds: every table once, as columns keyed by its CSV header."""
    return {"format": _REPORT_FORMAT, **_run_payload(report)}


def _environment() -> dict:
    """What ran the job: interpreter, machine, numpy and its BLAS build, the
    routine that solves real symmetric blocks, the CPUs this process may
    use and the floqtrk version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "eigensolver": lapack.eigensolver_name(),
        "cpus": cpus,
        "floqtrk": __version__,
    }


def _csv_text(header: Sequence[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _table_csv(table: Ledger | SpectralDensity) -> str:
    return _csv_text(table.HEADER, table.rows())


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

    ``report.json`` carries the complete deterministic payload as compact
    JSON, ``timings.json`` the quarantined wall-clock data (each stage's
    seconds, and each member's seconds and thread) plus
    ``threads_applied``, the BLAS thread cap the run was held to (None: the
    library default), and the ``environment`` that ran it; CSV tables cover
    the primary ledger, representative spectra, spectral-density sticks,
    convergence rows, and per-point sweep ledgers with an index. After the
    writes, any other file of those names in ``directory`` (a table of an
    earlier run) is removed; every other file stays.
    """
    files: dict[str, str] = {}
    if "json" in formats:
        files["report.json"] = (
            json.dumps(report_payload(report), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        files["timings.json"] = (
            json.dumps(
                {
                    "timings": report.timings,
                    "members": list(report.members),
                    "threads_applied": threads_applied,
                    "environment": _environment(),
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    if "csv" in formats:
        primary = report.primary_report()
        if primary is not None:
            files["ledger.csv"] = _table_csv(primary.contributions)
        if report.density is not None:
            files["sticks.csv"] = _table_csv(report.density)
        if report.spectrum is not None:
            files["spectrum.csv"] = _csv_text(
                list(report.spectrum), zip(*report.spectrum.values())
            )
        if report.convergence:
            files["convergence.csv"] = _convergence_csv(report.convergence)
        if report.sweep_points is not None:
            index_rows = []
            for i, point in enumerate(report.sweep_points):
                ledger_name = f"ledger_{i:03d}.csv"
                sticks_name = ""
                child = point.report.primary_report()
                if child is not None:
                    files[ledger_name] = _table_csv(child.contributions)
                if point.report.density is not None:
                    sticks_name = f"sticks_{i:03d}.csv"
                    files[sticks_name] = _table_csv(point.report.density)
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
    for path in target.iterdir():
        stale = path.name not in files and _OUTPUT_NAME.fullmatch(path.name)
        if stale and path.is_file():
            path.unlink()
    return written


# ---------------------------------------------------------------------------
# entry point


@contextlib.contextmanager
def _thread_limit(threads: int):
    """Cap BLAS threads; yields the count in force, None when no cap was
    applied. The previous count is restored on exit."""
    if threads <= 0:
        yield None
        return
    control = lapack.openblas()
    if control is None:
        print(
            f"warning: thread cap {threads} (--threads / FLOQTRK_THREADS) not "
            f"applied: numpy's bundled OpenBLAS thread control was not found",
            file=sys.stderr,
        )
        yield None
        return
    with lapack.thread_cap(control, threads) as applied:
        yield applied


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
        if args.out == "":
            raise ConfigError("--out must name a directory, got an empty string")
        threads = _resolve_threads(args.threads)
        config = load_config(args.config, default_job=args.job_kind)
        if config.job_kind != args.job_kind:
            raise ConfigError(
                f"config declares job {config.job_kind!r} but subcommand expects "
                f"{args.job_kind!r}"
            )
        with _thread_limit(threads) as threads_applied:
            report = run_job(config, verbose=args.verbose)
        out_dir = args.out if args.out is not None else config.resolved["output"]["directory"]
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
