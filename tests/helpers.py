"""Package-level helpers that only the tests use.

These build on package objects (selections, spectra) rather than computing
independent reference values, which live in ``oracles``.
"""

import dataclasses
import math

import numpy as np
import pytest

from floqtrk import (
    FfbzSelection,
    FockSpec,
    GridBasis,
    InputError,
    Ledger,
    MatterOperator,
    NumericError,
    PotentialSpec,
    Reflection,
    SpectralDensity,
    basis_reversal,
    build_dipole,
    build_grid_hamiltonian,
    floquet,
    joint_operator,
    lapack,
)


def dense_vectors(system):
    """The n x n eigenvector matrix of an ``EigenSystem``, Fortran-ordered,
    column j the eigenvector of ``values[j]``: every column read from the
    sectors; a values-only sector refuses the eigenvectors it did not
    keep."""
    return system.columns(range(system.dim))


def edge_weights(blocks):
    """Norm fraction in the two outermost harmonic blocks of each of the
    k x (2 N_h + 1) x N_b ``blocks``; one block when the window is m = 0."""
    blocks = np.asarray(blocks)
    outer = sorted({0, blocks.shape[1] - 1})
    return np.sum(np.abs(blocks[:, outer]) ** 2, axis=(1, 2))


def selection_of(quasienergies, blocks, operator, edge_tol=1e-6):
    """A first-zone selection of fabricated representatives on the window
    of ``operator``, their edge weights read off ``blocks``."""
    blocks = np.asarray(blocks).reshape(-1, operator.labels.size, operator.matter.shape[0])
    return FfbzSelection(
        quasienergies=quasienergies,
        blocks=blocks,
        edge_weights=edge_weights(blocks),
        labels=np.zeros(operator.shape[0], dtype=np.int64),
        warnings=(),
        source_indices=tuple(range(len(blocks))),
        operator=operator,
        edge_tol=edge_tol,
    )


def shift_replica(selection, index, n):
    """The selection with representative ``index`` replaced by its replica
    of quasienergy shifted by n*Omega, and the weight the shift dropped.

    Coefficient blocks are reindexed c'_m = c_(m-n); content shifted beyond
    the truncation window is dropped and the remainder renormalized. The
    shift is lossless for interior modes (edge weight ~ 0) and |n| small
    compared to the window.
    """
    n_h = selection.blocks.shape[1] // 2
    if abs(n) > n_h:
        raise InputError(f"replica shift |n|={abs(n)} exceeds the window cutoff {n_h}")
    if n == 0:
        return selection, 0.0
    blocks = selection.blocks[index]
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
    columns = {
        "quasienergies": selection.quasienergies.copy(),
        "blocks": selection.blocks.copy(),
        "edge_weights": selection.edge_weights.copy(),
    }
    columns["blocks"][index] = shifted / math.sqrt(remaining)
    columns["quasienergies"][index] += n * selection.operator.frequency
    columns["edge_weights"][index] = edge_weights(columns["blocks"][index : index + 1])[0]
    return dataclasses.replace(selection, **columns), dropped


def select_reference_sambe(system, operator, ground):
    """Eigenpair of the Sambe ``operator`` with the largest ground-state
    weight in its m=0 block."""
    n_b = operator.matter.shape[0]
    m0 = slice(operator.labels.size // 2 * n_b, (operator.labels.size // 2 + 1) * n_b)
    overlaps = np.abs(ground.conj() @ dense_vectors(system)[m0, :]) ** 2
    return int(np.argmax(overlaps))


def select_reference_joint(system, matter_ground, fock_dim):
    """Joint eigenpair with the largest |0> (x) (matter ground) weight."""
    target = np.kron(np.eye(fock_dim)[0], matter_ground)
    overlaps = np.abs(target.conj() @ dense_vectors(system)) ** 2
    return int(np.argmax(overlaps))


def record_lapack_solves(monkeypatch, bands=None, eighs=None):
    """Patch ``floquet._reduce`` and ``floquet._eigh``, the package's two
    dense block-solve entries (a reference solve's reduction and numpy's
    ``eigh``), ``lapack.band_reduce``, which reduces a sector band, and
    ``lapack.band_rows``, which solves the row sector of every reference
    solve for its row (a sector band, or a dense block's T), with
    recorders; returns the list the dimension of each block solve is
    appended to, in the order of the solves; two bands reduced side by
    side (``lapack.each``) come in either order. So a dense
    reference solve records its reductions, then its row sector. The
    dimension of each band solve, a reduction or a row solve, is also
    appended to ``bands``, when given, so a solve that wrote no dense block
    records the same list twice, and that of each ``eigh`` solve to
    ``eighs``, when given."""
    banded, rows = lapack.band_reduce, lapack.band_rows
    dims = []

    def recorder(solve, also=None):
        def recorded(block):
            dims.append(block.shape[0])
            if also is not None:
                also.append(block.shape[0])
            return solve(block)

        return recorded

    def band_recorder(solve):
        def recorded(band, *args):
            dims.append(band.shape[1])
            if bands is not None:
                bands.append(band.shape[1])
            return solve(band, *args)

        return recorded

    monkeypatch.setattr(floquet, "_reduce", recorder(floquet._reduce))
    monkeypatch.setattr(floquet, "_eigh", recorder(floquet._eigh, eighs))
    monkeypatch.setattr(lapack, "band_reduce", band_recorder(banded))
    monkeypatch.setattr(lapack, "band_rows", band_recorder(rows))
    return dims


def assert_rows_match_eigh(rows, probes, values, vectors):
    """The k x m ``rows`` of the m x k ``probes`` (entry (i, j) is
    probes[:, i] . v_j) are eigh's, ``probes``^T ``vectors`` for the
    ascending ``values``, within 64 m eps ||x|| for each probe x: entry by
    entry up to the sign of each eigenvector, and as the norm of the row
    over a run of values tied within m eps ||A||, whose eigenvectors
    rounding does not fix."""
    m = values.size
    eps = np.finfo(np.float64).eps
    expected = probes.T @ vectors
    bound = 64 * m * eps * np.linalg.norm(probes, axis=0)
    ties = np.concatenate([[0], np.cumsum(np.diff(values) > m * eps * np.max(np.abs(values)))])
    sizes = np.bincount(ties)
    alone = sizes[ties] == 1
    signs = np.where(np.sum(expected.conj() * rows, axis=0).real < 0.0, -1.0, 1.0)
    assert rows.shape == expected.shape
    assert np.all(np.abs(rows * signs - expected)[:, alone] <= bound[:, None])
    for tie in np.flatnonzero(sizes > 1):
        inside = ties == tie
        norms = [np.linalg.norm(r[:, inside], axis=1) for r in (rows, expected)]
        assert np.all(np.abs(norms[0] - norms[1]) <= bound)


def values_only_sector(system):
    """The reference's own sector of a reference solve: values-only, with no
    dipole row."""
    (sector,) = [s for s in system.sectors if s.kept is not None and s.row is None]
    return sector


def row_sector(system):
    """The position and the sector of a reference solve that holds the
    reference's dipole row."""
    ((position, sector),) = [(i, s) for i, s in enumerate(system.sectors) if s.row is not None]
    return position, sector


def assert_same_spectrum(matrix, system, dense):
    """``system`` is a complete eigensystem of ``matrix``: eigenvalues within
    1e-12 max|M| of the dense ones, residual and orthonormality at rounding
    level."""
    scale = float(np.max(np.abs(matrix)))
    n = matrix.shape[0]
    rounding = 64 * n * np.finfo(np.float64).eps
    assert np.max(np.abs(system.values - dense.values)) <= 1e-12 * scale
    v = dense_vectors(system)
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


def assert_band_is_sector(operator, parity):
    """``operator.sector_band(parity)`` is the lower band of the sector
    block under its band order, bit for bit, and every entry of that block
    beyond the band is zero; returns the half bandwidth kd."""
    block, _ = operator.sector(parity)
    band, order = operator.sector_band(parity)
    kd, m = band.shape[0] - 1, band.shape[1]
    assert kd == operator.band_width(parity) and m == block.shape[0]
    assert np.array_equal(np.sort(order), np.arange(m))
    permuted = block[np.ix_(order, order)]
    for t in range(kd + 1):
        assert band[t, : m - t].tobytes() == np.diagonal(permuted, -t).tobytes()
    assert not np.any(np.tril(permuted, -kd - 1)) and not np.any(np.triu(permuted, kd + 1))
    return kd


def band_joint(n_points=81, n_max=8, kinetic="three_point", signs=1.0, link=None):
    """The joint operator of an ``n_points`` harmonic grid on [-10, 10]
    with ``n_max`` photons and its reflection x -> -x, scaled by ``signs``;
    ``link`` replaces the kinetic coupling across the grid's middle."""
    grid = GridBasis(-10.0, 10.0, n_points)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), kinetic)
    if link is not None:
        middle = n_points // 2
        matrix = h.matrix.copy()
        matrix[middle - 1, middle] = matrix[middle, middle - 1] = link
        h = MatterOperator(matrix)
    perm, _ = basis_reversal(n_points)
    return joint_operator(
        h,
        build_dipole(grid),
        FockSpec(n_max=n_max, omega_c=0.9, g=0.05),
        Reflection(perm, np.full(n_points, signs)),
    )


def capped_threads(monkeypatch, threads, **routines):
    """Make OpenBLAS report ``threads`` threads, with ``routines`` replaced;
    returns the bundled library. The count is a fake: a count set on the
    patched library (a scheduler's hold at one thread, a dense solve's at
    the job's count) is what it reports next, and never reaches the real
    library. A scheduler opened afterwards (``lapack.scheduler``) has its
    spare slot free when ``threads`` >= 2, and one slot at 1, as at
    --threads 1, where every call runs in turn. Without the library a
    scheduler has one slot, so ``threads`` 1 needs no patch; anything else
    skips the test."""
    library = lapack.openblas()
    if library is None:
        if threads == 1 and not routines:
            return None
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    count = [threads]
    patched = library._replace(
        get_num_threads=lambda: count[0],
        set_num_threads=lambda n: count.__setitem__(0, n),
        **routines,
    )
    monkeypatch.setattr(lapack, "openblas", lambda: patched)
    return library
