"""Package-level helpers that only the tests use.

These build on package objects (modes, spectra) rather than computing
independent reference values, which live in ``oracles``.
"""

import math

import numpy as np

from floqtrk import FloquetMode, InputError, Ledger, NumericError, SpectralDensity, floquet


def shift_replica(mode, n):
    """Replica of a mode with quasienergy shifted by n*Omega, and the weight
    the shift dropped.

    Coefficient blocks are reindexed c'_m = c_(m-n); content shifted beyond
    the truncation window is dropped and the remainder renormalized. The
    shift is lossless for interior modes (edge_weight ~ 0) and |n| small
    compared to the window.
    """
    n_h = mode.harmonic_cutoff
    if abs(n) > n_h:
        raise InputError(f"replica shift |n|={abs(n)} exceeds the window cutoff {n_h}")
    if n == 0:
        return mode, 0.0
    blocks = mode.blocks
    shifted = np.zeros_like(blocks)
    if n > 0:
        shifted[n:] = blocks[:-n]
        dropped = float(np.sum(np.abs(blocks[-n:]) ** 2))
    else:
        shifted[:n] = blocks[-n:]
        dropped = float(np.sum(np.abs(blocks[:-n]) ** 2))
    remaining = 1.0 - dropped
    if remaining <= 0.0:
        raise NumericError(f"replica shift n={n} dropped the entire mode content")
    shifted = shifted / math.sqrt(remaining)
    edge = float(np.sum(np.abs(shifted[0]) ** 2) + np.sum(np.abs(shifted[-1]) ** 2))
    replica = FloquetMode(
        quasienergy=mode.quasienergy + n * mode.omega,
        blocks=shifted,
        omega=mode.omega,
        edge_weight=edge,
    )
    return replica, dropped


def select_reference_sambe(system, operator, ground):
    """Eigenpair of the Sambe ``operator`` with the largest ground-state
    weight in its m=0 block."""
    n_b = operator.matter.shape[0]
    m0 = slice(operator.labels.size // 2 * n_b, (operator.labels.size // 2 + 1) * n_b)
    overlaps = np.abs(ground.conj() @ system.vectors[m0, :]) ** 2
    return int(np.argmax(overlaps))


def select_reference_joint(system, matter_ground, fock_dim):
    """Joint eigenpair with the largest |0> (x) (matter ground) weight."""
    target = np.kron(np.eye(fock_dim)[0], matter_ground)
    overlaps = np.abs(target.conj() @ system.vectors) ** 2
    return int(np.argmax(overlaps))


def record_lapack_solves(monkeypatch):
    """Patch ``floquet._eigensolve``, the package's one block-solve entry,
    with a recorder; returns the list the dimension of each block solve is
    appended to."""
    original = floquet._eigensolve
    dims = []

    def recorder(block):
        dims.append(block.shape[0])
        return original(block)

    monkeypatch.setattr(floquet, "_eigensolve", recorder)
    return dims


def assert_same_spectrum(matrix, system, dense):
    """``system`` is a complete eigensystem of ``matrix``: eigenvalues within
    1e-12 max|M| of the dense ones, residual and orthonormality at rounding
    level."""
    scale = float(np.max(np.abs(matrix)))
    n = matrix.shape[0]
    rounding = 64 * n * np.finfo(np.float64).eps
    assert np.max(np.abs(system.values - dense.values)) <= 1e-12 * scale
    v = system.vectors
    assert np.linalg.norm(matrix @ v - v * system.values) <= rounding * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= rounding


def column_rows(columns, header):
    """A table written as columns (``report.json``), zipped back into rows
    in ``header`` order (its CSV file)."""
    return [list(row) for row in zip(*(columns[name] for name in header))]


def _table_from_columns(cls, columns, **extra):
    return cls(*(np.array(columns[name]) for name in cls.HEADER), **extra)


def read_report_tables(payload):
    """The ledgers and stick spectrum of one run's ``report.json`` payload
    (or of a sweep point's nested payload), rebuilt as package tables:
    ``({tag: Ledger}, SpectralDensity or None)``."""
    ledgers = {
        tag: _table_from_columns(Ledger, report["contributions"])
        for tag, report in payload["reports"].items()
    }
    sticks = payload.get("spectral_density")
    if sticks is None:
        return ledgers, None
    return ledgers, _table_from_columns(
        SpectralDensity, sticks, reference=sticks["reference"]
    )
