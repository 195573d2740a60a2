"""The package's public namespace and what importing it loads."""

import os
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


def test_package_loads_no_scipy():
    """numpy is the one linear-algebra library: a fresh interpreter that
    imports the package and its CLI has no scipy module loaded."""
    probe = (
        "import sys, floqtrk, floqtrk.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
