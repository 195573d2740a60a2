"""The package's public namespace and what importing it loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import floqtrk

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    """Every name in floqtrk.__all__ exists, once, and a star import
    binds them all."""
    assert [name for name in floqtrk.__all__ if not hasattr(floqtrk, name)] == []
    assert len(set(floqtrk.__all__)) == len(floqtrk.__all__)
    namespace = {}
    exec("from floqtrk import *", namespace)
    assert set(floqtrk.__all__) <= set(namespace)


def _fresh(probe: str) -> str:
    """What a fresh interpreter that runs ``probe`` on the package prints."""
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


def test_package_loads_no_scipy():
    """numpy is the one linear-algebra library: a fresh interpreter that
    imports the package and its CLI has no scipy module loaded."""
    probe = (
        "import sys, floqtrk, floqtrk.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh(probe) == "[]"


def test_start_up_loads_no_error_or_thread_pool_module(tmp_path):
    """A fresh interpreter that imports the CLI and loads a valid floquet
    config, the start-up of every run, has not loaded ``difflib`` (only a
    config error's suggestion reads it) or ``concurrent.futures`` (only a
    job's spare slot runs on it)."""
    config = tmp_path / "floquet.yaml"
    config.write_text(
        "job: floquet\n"
        "model: {kind: grid, grid: {n_points: 21}}\n"
        "drive: {omega: 0.5, components: [{harmonic: 1, amplitude: 0.1}]}\n",
        encoding="utf-8",
    )
    probe = (
        "import sys\n"
        "from floqtrk import cli\n"
        f"cli.load_config({str(config)!r})\n"
        "print(sorted({'difflib', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert _fresh(probe) == "[]"


def _identifiers(path):
    """Every name a module reads, imports or looks up as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_or_a_documented_use():
    """Each name in floqtrk.__all__ is used by a package module other than
    ``__init__`` and the one defining it, or is named in README."""
    package = SRC / "floqtrk"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    home = {
        alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        path.stem: _identifiers(path)
        for path in package.glob("*.py")
        if path.name != "__init__.py"
    }
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    orphans = [
        name
        for name in floqtrk.__all__
        if not any(name in names for module, names in used.items() if module != home[name])
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == []


def test_readme_library_use_runs():
    """README's Library-use code block runs as written on a 21-point
    symmetric grid that supplies ``h``, ``d``, ``drive``, ``reflection`` and
    ``harmonic_cutoff``, and its reports keep their identities."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    grid = floqtrk.GridBasis(-5.0, 5.0, 21)
    namespace = {
        "h": floqtrk.build_grid_hamiltonian(grid, floqtrk.PotentialSpec.harmonic(1.0)),
        "d": floqtrk.build_dipole(grid),
        "drive": floqtrk.DriveSpec(
            omega=0.35, components=(floqtrk.DriveComponent(1, 0.05),)
        ),
        "reflection": floqtrk.basis_reversal(21),
        "harmonic_cutoff": 3,
    }
    exec("from floqtrk import *", namespace)
    exec(block, namespace)
    ffbz, sticks = namespace["ffbz"], namespace["sticks"]
    assert ffbz.kind == "ffbz" and floqtrk.first_moment(sticks) == ffbz.value
    for report in (namespace["sambe"], namespace["qed"]):
        assert abs(report.oracle_residual) <= 1e-8 * max(1.0, abs(report.oracle_value))


def test_no_module_defines_a_top_level_name_twice():
    """No module of the package or its tests defines the same top-level
    function or class twice: a later definition silently replaces the
    earlier one, so a test defined twice is collected once."""
    repeated = []
    for path in sorted([*(SRC / "floqtrk").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    repeated.append(f"{path.name}:{node.lineno} {node.name}")
                seen.add(node.name)
    assert repeated == []
