"""Sambe operators, eigensolves, folding, and replica shifts."""

import _thread
import ast
import ctypes
import dataclasses
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    assert_band_is_sector,
    assert_rows_match_eigh,
    assert_same_spectrum,
    band_joint,
    band_rows,
    capped_threads,
    dense_vectors,
    record_lapack_solves,
    row_sector,
    selection_of,
    shift_replica,
    values_only_sector,
)
from floqtrk import (
    ConfigError,
    EigenSystem,
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    FfbzSelection,
    FockSpec,
    GridBasis,
    InputError,
    InteractionSpec,
    MatterOperator,
    NumericError,
    PotentialSpec,
    ProductOperator,
    Reflection,
    SizeError,
    basis_reversal,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    diagonalize_hermitian,
    fold_and_select_ffbz,
    fold_quasienergies,
    joint_operator,
    sambe_operator,
    sumrule_qed,
    sumrule_sambe,
)
from floqtrk import floquet, lapack

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_level(delta=1.0, mu=1.0):
    """Matter Hamiltonian diag(0, delta) and dipole mu * sigma_x."""
    h = MatterOperator(np.diag([0.0, delta]))
    d = MatterOperator(mu * SX)
    return h, d


def fourier_factors(operator):
    """{k: the factors f_k} read off a Sambe operator's coupling, whose
    entry C[m, m - k] is the factor of H_k = f_k d."""
    c = operator.coupling
    n = c.shape[0]
    return {k: np.diag(c, -k) for k in range(1 - n, n) if np.any(np.diag(c, -k))}


def test_single_component_blocks():
    """One cosine component gives keys {-1, 0, 1} with H_(+1) = -(E/2) d."""
    h, d = two_level()
    drive = DriveSpec(omega=0.8, components=(DriveComponent(1, 0.2),))
    operator = sambe_operator(h, d, drive, 1)
    factors = fourier_factors(operator)
    assert set(factors) == {-1, 1}
    assert np.array_equal(factors[1], [-0.1, -0.1])
    assert np.array_equal(factors[-1], [-0.1, -0.1])
    full = operator.toarray()  # block (m, m') is H_(m-m'); row block m = 0
    assert np.array_equal(full[2:4, 2:4], h.matrix)
    assert np.array_equal(full[2:4, 0:2], -0.1 * SX)
    assert np.array_equal(full[2:4, 4:6], -0.1 * SX)
    assert not np.iscomplexobj(full)


def test_zero_amplitude_component_dropped():
    """A zero-amplitude component contributes no coupling block."""
    h, d = two_level()
    drive = DriveSpec(omega=1.0, components=(DriveComponent(1, 0.0),))
    assert fourier_factors(sambe_operator(h, d, drive, 1)) == {}


def test_two_component_blocks():
    """Harmonics 1 and 2 populate keys {0, +-1, +-2}."""
    h, d = two_level()
    drive = DriveSpec(
        omega=0.8,
        components=(DriveComponent(1, 0.1), DriveComponent(2, 0.05, np.pi / 2.0)),
    )
    assert set(fourier_factors(sambe_operator(h, d, drive, 2))) == {-2, -1, 1, 2}


def test_phase_enters_coupling_block():
    """A quarter phase makes H_(+1) = -(E/2) i d with Hermitian partner."""
    h, d = two_level()
    drive = DriveSpec(omega=0.8, components=(DriveComponent(1, 0.2, np.pi / 2.0),))
    full = sambe_operator(h, d, drive, 1).toarray()
    plus, minus = full[2:4, 0:2], full[2:4, 4:6]
    assert np.max(np.abs(plus - (-0.1j) * SX)) < 1e-15
    assert np.max(np.abs(minus - plus.conj().T)) == 0.0


def test_blocks_reject_dimension_mismatch():
    """Matter Hamiltonian and dipole must share one basis dimension."""
    h = MatterOperator(np.diag([0.0, 1.0]))
    d = MatterOperator(np.zeros((3, 3)))
    drive = DriveSpec(omega=1.0, components=(DriveComponent(1, 0.1),))
    with pytest.raises(InputError):
        sambe_operator(h, d, drive, 1)


def test_assembled_dimension():
    """Two matter levels and cutoff 1 give the 6-dimensional operator."""
    h, d = two_level()
    drive = DriveSpec(omega=0.8, components=(DriveComponent(1, 0.1),))
    floquet = sambe_operator(h, d, drive, 1)
    assert floquet.shape == (6, 6)
    assert floquet.labels.tolist() == [-1, 0, 1]


def test_zero_drive_assembly_is_block_diagonal():
    """Without drive the operator is exactly diag(H - w, H, H + w)."""
    h, d = two_level()
    floquet = sambe_operator(h, d, DriveSpec(omega=0.8), 1)
    eye = np.eye(2)
    expected = np.zeros((6, 6))
    expected[0:2, 0:2] = h.matrix + (-1) * 0.8 * eye
    expected[2:4, 2:4] = h.matrix
    expected[4:6, 4:6] = h.matrix + 1 * 0.8 * eye
    assert np.array_equal(floquet.toarray(), expected)


def test_assembly_is_hermitian_for_random_blocks():
    """Random Hermitian H_M and d under random three-harmonic drives
    assemble to a Hermitian matrix."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = MatterOperator(oracles.random_hermitian(rng, 3))
        d = MatterOperator(oracles.random_hermitian(rng, 3))
        drive = DriveSpec(
            omega=0.7,
            components=tuple(
                DriveComponent(k, float(rng.standard_normal()), float(rng.uniform(-3, 3)))
                for k in (1, 2, 3)
            ),
        )
        full = sambe_operator(h, d, drive, 4).toarray()
        defect = np.max(np.abs(full - full.conj().T))
        assert defect <= 1e-12


def test_assembly_rejects_small_cutoff():
    """A window below the highest driven harmonic is a configuration error."""
    h, d = two_level()
    drive = DriveSpec(
        omega=0.8,
        components=(DriveComponent(1, 0.1), DriveComponent(2, 0.05)),
    )
    with pytest.raises(ConfigError):
        sambe_operator(h, d, drive, 1)


def test_assembly_rejects_non_integer_cutoff():
    """A fractional harmonic cutoff is refused, not truncated."""
    h, d = two_level()
    with pytest.raises(InputError, match="harmonic cutoff must be an integer"):
        sambe_operator(h, d, DriveSpec(omega=0.8, components=(DriveComponent(1, 0.1),)), 2.5)


def test_fractional_drive_harmonic_is_refused():
    """A drive harmonic that is not an integer is refused when the drive is
    made, not as an IndexError when the Sambe operator is filled."""
    h, d = two_level()
    with pytest.raises(InputError, match="drive harmonic index must be an integer"):
        sambe_operator(
            h, d, DriveSpec(omega=0.8, components=(DriveComponent(1.5, 0.1),)), 3
        )


def test_assembly_size_guard():
    """Truncated dimensions beyond the dense guard are rejected."""
    zero = MatterOperator(np.zeros((100, 100)))
    with pytest.raises(SizeError):
        sambe_operator(zero, zero, DriveSpec(omega=1.0), 30)


def test_diagonalize_sorts_ascending():
    """diag(3, 1, 2) comes back as (1, 2, 3) with basis eigenvectors."""
    system = diagonalize_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(system.values, [1.0, 2.0, 3.0])
    v = dense_vectors(system)
    assert abs(abs(v[1, 0]) - 1.0) < 1e-14
    assert abs(abs(v[2, 1]) - 1.0) < 1e-14
    assert abs(abs(v[0, 2]) - 1.0) < 1e-14


def test_diagonalize_matches_reference_solver():
    """Eigenpairs of a random 50x50 Hermitian matrix check out."""
    rng = np.random.default_rng(21)
    m = oracles.random_hermitian(rng, 50)
    system = diagonalize_hermitian(m)
    assert np.max(np.abs(system.values - np.linalg.eigvalsh(m))) < 1e-10
    scale = float(np.max(np.abs(system.values)))
    v = dense_vectors(system)
    residual = m @ v - v * system.values
    assert np.max(np.abs(residual)) <= 1e-8 * scale
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(50))) <= 1e-8
    rebuilt = (v * system.values) @ v.conj().T
    assert np.max(np.abs(rebuilt - m)) <= 1e-8 * scale


def test_diagonalize_rejects_non_hermitian(monkeypatch):
    """A non-Hermitian matrix is refused, and so is a narrow operator that
    does not split whose H_M is off by 1e-3 from Hermitian: a band holds
    only the lower triangle, so its reference solve reduces no band."""
    with pytest.raises(InputError):
        diagonalize_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        diagonalize_hermitian(np.zeros((2, 3)))
    operator = asymmetric_band_operators()["sambe"]
    matter = operator.matter.copy()
    matter[0, 1] += 1e-3
    skewed = dataclasses.replace(operator, matter=matter)
    assert floquet._narrow(operator) and not skewed.splits
    solved = record_lapack_solves(monkeypatch)
    with pytest.raises(InputError, match="not Hermitian"):
        diagonalize_hermitian(skewed, reference=0)
    assert solved == []


def signed_zero_matrix(dtype):
    """A 6 x 6 Hermitian matrix, Hermitian bit for bit, of two 3 x 3 blocks
    with -0.0 entries in and between them."""
    rng = np.random.default_rng(3)
    m = np.zeros((6, 6), dtype=dtype)
    for block in (slice(0, 3), slice(3, 6)):
        part = rng.standard_normal((3, 3)).astype(dtype)
        if dtype == complex:
            part += 1j * rng.standard_normal((3, 3))
        m[block, block] = part + part.conj().T
    m[3:, :3] = m[:3, 3:] = -0.0
    m[0, 1] = -0.0
    m[1, 0] = np.conj(m[0, 1])
    if dtype == complex:
        m[0, 2] = complex(-0.0, -0.5)
        m[2, 0] = np.conj(m[0, 2])
    return m


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_one_sector_solve_keeps_the_bits_of_eigh(monkeypatch, dtype):
    """Without the LAPACK kernel, an unsplit solve is numpy's eigh, bit for
    bit: its values, its Fortran-ordered vectors V, every column V[:, j]
    and the amplitudes conj(x) @ V, signed zeros included."""
    monkeypatch.setattr(lapack, "openblas", lambda: None)
    m = signed_zero_matrix(dtype)
    values, vectors = np.linalg.eigh(m)
    v = np.asfortranarray(vectors)
    system = diagonalize_hermitian(m)
    assert system.values.tobytes() == values.tobytes()
    dense = dense_vectors(system)
    assert dense.flags.f_contiguous
    assert dense.tobytes() == v.tobytes()
    for j in range(6):
        assert system.column(j).tobytes() == v[:, j].tobytes()
    for x in (
        np.array([1.0, -0.0, 0.5, -0.0, 0.0, -2.0]),
        np.array([complex(-0.0, -1.0), -0.0, complex(1.0, -0.0), complex(-0.0, 0.0), 2.0, -1j]),
    ):
        assert system.amplitudes(x).tobytes() == (x.conj() @ v).tobytes()


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_eigensystem_refuses_bad_index_and_vector(split):
    """column(j) takes an integer in [-n, n) and amplitudes(x) a vector of
    shape (n,); anything else is an InputError, on either representation."""
    matrix = np.diag([1.0, 2.0, 2.0, 1.0])
    system = diagonalize_hermitian(matrix, reflection=basis_reversal(4) if split else None)
    assert len(system.sectors) == (2 if split else 1)
    assert np.array_equal(system.column(-1), system.column(3))
    assert np.array_equal(system.column(np.int64(1)), system.column(1))
    for j in (4, -5, 1.5, 2.0, True, "0", None):
        with pytest.raises(InputError, match="eigenvector index"):
            system.column(j)
    for x in (np.ones(3), np.ones(5), np.ones((4, 1)), np.ones((1, 4)), 1.0):
        with pytest.raises(InputError, match="vector of length 4"):
            system.amplitudes(x)
    with pytest.raises(InputError, match="eigenvector index 3 outside"):
        diagonalize_hermitian(np.diag([1.0, 2.0, 3.0])).column(3)


@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_eigensystem_refuses_sectors_that_miss_its_values(split):
    """The sectors' ranks must partition range(len(values)): too few or too
    many values, or a rank held twice, is refused when the system is built,
    not met as an IndexError by a later column() or amplitudes()."""
    matrix = np.diag([1.0, 2.0, 5.0, 5.0, 2.0, 1.0])
    system = diagonalize_hermitian(matrix, reflection=basis_reversal(6) if split else None)
    assert len(system.sectors) == (2 if split else 1)
    ranks = system.sectors[0].ranks.copy()
    ranks[0] = (ranks[0] + 1) % 6  # rank ranks[0] lost, another held twice
    twice = (system.sectors[0]._replace(ranks=ranks), *system.sectors[1:])
    for values, sectors in (
        (system.values[:4], system.sectors),
        (np.append(system.values, 6.0), system.sectors),
        (system.values, twice),
    ):
        with pytest.raises(InputError, match="^sector ranks do not partition"):
            EigenSystem(values, sectors)


@pytest.mark.parametrize(
    "entry",
    [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)],
    ids=["nan", "inf", "-inf", "complex_nan"],
)
@pytest.mark.parametrize("split", [False, True], ids=["dense", "sectors"])
def test_diagonalize_rejects_non_finite(monkeypatch, entry, split):
    """A NaN or infinite entry is a numeric error before any solve, with or
    without a reflection that commutes with the finite part."""
    matrix = np.diag([1.0, 2.0, 2.0, 1.0]).astype(np.result_type(entry, 1.0))
    matrix[0, 3] = matrix[3, 0] = entry
    solved = record_lapack_solves(monkeypatch)
    with pytest.raises(NumericError, match="non-finite"):
        diagonalize_hermitian(matrix, reflection=basis_reversal(4) if split else None)
    assert solved == []


@pytest.mark.parametrize(
    "path, split, dims",
    [
        ("fallback", False, [4]),
        ("fallback", True, [2]),
        ("kernel", False, [4]),
        ("kernel", True, [2]),
    ],
    ids=["dense", "sectors", "kernel_dense", "kernel_sectors"],
)
def test_lapack_failure_is_a_numeric_error(monkeypatch, path, split, dims):
    """A failed eigensolve surfaces as NumericError, on the dense path and
    on the sector path: a LinAlgError of numpy's eigh, and a dsterf info > 0
    of the LAPACK kernel, give the same message. The kernel's dsterf runs
    in a reference solve, here of rank 1, which takes the band route (the
    diagonal blocks are bands of kd 0); the first block's failure ends the
    solve."""
    solved = []

    def failing(a, *args, **kwargs):
        solved.append(a.shape[0])
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing_dsterf(n, *args):
        solved.append(n)
        return 1  # an eigenvalue did not converge

    matrix = np.diag([1.0, 2.0, 2.0, 1.0])
    reflection = basis_reversal(4) if split else None
    if path == "fallback":
        monkeypatch.setattr(lapack, "openblas", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        target, options = matrix, {"reflection": reflection}
    else:
        library = lapack.openblas()
        if library is None:
            pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
        monkeypatch.setattr(lapack, "openblas", lambda: library._replace(dsterf=failing_dsterf))
        target = ProductOperator(
            matter=matrix,
            labels=np.zeros(1, dtype=int),
            dipole=np.diag([-1.5, -0.5, 0.5, 1.5]),
            coupling=np.zeros((1, 1)),
            reflection=reflection,
        )
        options = {"reference": 1}
    message = "^eigensolver failed: Eigenvalues did not converge$"
    with pytest.raises(NumericError, match=message):
        diagonalize_hermitian(target, **options)
    assert solved == dims


def test_unconverged_inverse_iteration_on_the_dense_route_takes_eigh(monkeypatch):
    """A reference solve of a few-level Sambe operator (one sector of
    m = 51, kd 35, not narrow) reduces its block densely; when dstein
    reports a vector that did not converge, the operator is solved by eigh,
    and the solve gives eigh's spectrum and vectors."""
    library = lapack.openblas()
    if library is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    operator = few_level_sweep_operator()
    assert not floquet._narrow(operator)
    full = diagonalize_hermitian(operator)
    monkeypatch.setattr(lapack, "openblas", lambda: library._replace(dstein=lambda *args: 1))
    bands, eighs = [], []
    solved = record_lapack_solves(monkeypatch, bands, eighs)
    system = diagonalize_hermitian(operator, reference=0)
    assert bands == [] and eighs == [51] and solved == [51, 51]
    assert system.values.tobytes() == full.values.tobytes()
    assert system.column(0).tobytes() == full.column(0).tobytes()


def grid_floquet_operator():
    """The 201-point harmonic-grid Sambe operator at cutoff 8,
    Omega = 0.35, of the floquet benchmark."""
    grid = GridBasis(-10.0, 10.0, 201)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    drive = DriveSpec(omega=0.35, components=(DriveComponent(1, 0.05),))
    return sambe_operator(h, build_dipole(grid), drive, 8, basis_reversal(201))


def grid_floquet_sector():
    """The P = +1 sector block (1709 x 1709) of :func:`grid_floquet_operator`."""
    return grid_floquet_operator().sector(1)[0]


def test_sambe_band_is_the_sector_block():
    """Each sector band of the benchmark's Sambe operator is its sector
    block in (matter coordinate, harmonic) order bit for bit, with
    kd = 2 N_h + 1 = 17."""
    operator = grid_floquet_operator()
    for parity in (1, -1):
        assert assert_band_is_sector(operator, parity) == 17


def assert_writes_kron(operator):
    """``operator.toarray()`` is the np.kron build of its factors bit for
    bit (:func:`oracles.kron_product_operator`)."""
    reference = oracles.kron_product_operator(
        operator.matter, operator.labels * operator.frequency, operator.coupling, operator.dipole
    )
    full = operator.toarray()
    assert full.dtype == reference.dtype and full.tobytes() == reference.tobytes()


def diagonal_coupling_operator(reflection=None, far=0.05, scale=1.0):
    """A library-built operator whose coupling has a nonzero diagonal, so
    that H_M, the shift and C[j, j] d add onto the same entries: on 7
    matter points, a tridiagonal H_M with a -0.0 and an even d of matter
    distance 0 and 2, both symmetric under x -> -x, times ``scale``, and
    labels -2..2 coupled at outer distance 0 and 2, and 4 by ``far``."""
    x = np.linspace(-1.5, 1.5, 7)
    h = np.diag(x**2) - 0.5 * (np.eye(7, k=1) + np.eye(7, k=-1))
    h[3, 3] = -0.0
    d = scale * (0.3 * np.diag(x**2 - 1.0) - 0.2 * (np.eye(7, k=2) + np.eye(7, k=-2)))
    coupling = np.diag([0.3, -0.2, 0.25, -0.2, 0.3]) + 0.4 * (np.eye(5, k=2) + np.eye(5, k=-2))
    coupling[0, 4] = coupling[4, 0] = far
    return ProductOperator(h, np.arange(-2, 3), 0.37, d, coupling, reflection)


def few_level_sweep_operator():
    """The Sambe operator of a few-level sweep point: 3 levels, a dense
    dipole, cutoff 8, one harmonic (m = 51)."""
    few = FewLevelModel(
        energies=(0.0, 0.3, 1.1),
        dipole=np.array([[0.21, -0.43, 0.07], [-0.43, -0.18, 0.36], [0.07, 0.36, 0.45]]),
    )
    drive = DriveSpec(omega=0.35, components=(DriveComponent(1, 0.15),))
    return sambe_operator(few.hamiltonian(), few.dipole_operator(), drive, 8)


def test_sector_writers_add_each_entry_in_order():
    """Where H_M, a shift and C[j, j] d add onto the same entries, and on
    the unsplit narrow operators and a few-level sweep operator (kd 35 of
    m = 51: its dense d reaches matter distance 2, 17 outer indices apart,
    one harmonic on), each sector band is its sector block bit for bit,
    kd is read off the factors, and the full matrix is the np.kron build
    bit for bit."""
    unsplit = diagonal_coupling_operator()
    split = diagonal_coupling_operator(basis_reversal(7))
    assert not unsplit.splits and split.splits
    # matter distance 2 at outer distance 4, 5 outer indices per matter point
    assert assert_band_is_sector(unsplit, 1) == 14
    assert [assert_band_is_sector(split, p) for p in (1, -1)] == [14, 14]
    operators = [unsplit, split, *asymmetric_band_operators().values()]
    for operator, kd in zip(operators[2:], (7, 5)):
        assert assert_band_is_sector(operator, 1) == kd
    few = few_level_sweep_operator()
    assert assert_band_is_sector(few, 1) == 2 * 17 + 1 and not floquet._narrow(few)
    for operator in (*operators, few):
        assert_writes_kron(operator)


def test_band_width_skips_products_that_underflow():
    """A coupling times a dipole entry that underflows to zero is no entry:
    the far coupling (1e-200, outer distance 4) of a dipole of 1e-200
    leaves kd at matter distance 2, outer distance 2 (14 with it), and the
    band as without it, bit for bit."""
    tiny = diagonal_coupling_operator(far=1e-200, scale=1e-200)
    assert not np.any(tiny.coupling[0, 4] * tiny.dipole)
    assert assert_band_is_sector(tiny, 1) == 12
    without = diagonal_coupling_operator(far=0.0, scale=1e-200)
    assert tiny.sector_band(1).band.tobytes() == without.sector_band(1).band.tobytes()
    assert_writes_kron(tiny)


def band_of(matrix, kd):
    """The lower band (kd + 1) x m of the symmetric ``matrix``, as LAPACK
    stores it."""
    m = matrix.shape[0]
    band = np.zeros((kd + 1, m), order="F")
    for t in range(kd + 1):
        band[t, : m - t] = np.diagonal(matrix, -t)
    return band


@pytest.mark.parametrize("m", [1, 2, 17, 64, 301])
def test_band_kernels_match_eigh(m):
    """On a random symmetric matrix of half bandwidth 3 (all of it below
    m = 4): the band reduction's eigenvalues (dsterf) and its bisection
    lowest are eigh's within m eps ||A||; inverse iteration at the lowest
    gives eigh's ground vector within 64 m eps up to sign."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    kd = min(3, m - 1)
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    a = np.triu(np.tril(a + a.T, kd), -kd)
    band = band_of(a, kd)
    values, vectors = np.linalg.eigh(a)
    eps = np.finfo(np.float64).eps
    bound = m * eps * np.linalg.norm(a, 2)
    reduced = lapack.band_reduce(band)
    assert reduced.a is None and reduced.tau is None
    assert np.max(np.abs(lapack.eigenvalues(reduced) - values)) <= bound
    ground = float(lapack.lowest(reduced, 1)[0])
    assert abs(ground - values[0]) <= bound
    vector = lapack.band_eigenvector(band, ground)
    assert abs(np.linalg.norm(vector) - 1.0) <= 4 * eps
    if m > 1:
        assert values[1] - values[0] > 1e-3  # a separated ground
    assert np.max(np.abs(vector * np.sign(vector @ vectors[:, 0]) - vectors[:, 0])) <= 64 * m * eps


@pytest.mark.parametrize(
    "matrix, value, expected",
    [
        (np.array([[1.0, 1.0], [1.0, 1.0]]), 0.0, np.array([1.0, -1.0]) / np.sqrt(2.0)),
        (np.diag([0.0, 1.0, 2.0]), 0.0, np.array([1.0, 0.0, 0.0])),
        (np.zeros((3, 3)), 0.0, None),
    ],
    ids=["eliminated_to_zero", "zero_diagonal", "zero_matrix"],
)
def test_inverse_iteration_at_an_exactly_singular_shift(matrix, value, expected):
    """A - value 1 with an exactly zero pivot (dgbtrf reports it) still
    gives a finite unit eigenvector for ``value``: the pivot is raised to
    rounding level. The zero matrix takes any unit vector."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    m = matrix.shape[0]
    band = band_of(matrix, 1)
    lu = np.zeros((4, m), order="F")
    lu[2] = band[0] - value
    lu[3, : m - 1], lu[1, 1:] = band[1, : m - 1], band[1, : m - 1]
    pivots = np.zeros(m, dtype=np.int64)
    assert lapack.openblas().dgbtrf(102, m, m, 1, 1, lu, 4, pivots) > 0
    with np.errstate(all="raise"):
        vector = lapack.band_eigenvector(band, value)
    assert np.all(np.isfinite(vector)) and abs(np.linalg.norm(vector) - 1.0) <= 1e-15
    assert np.linalg.norm(matrix @ vector - value * vector) <= 1e-15
    if expected is not None:
        assert np.max(np.abs(vector * np.sign(vector @ expected) - expected)) <= 1e-15


def test_inverse_iteration_refuses_a_shift_off_the_spectrum():
    """At a shift 1e-6 from the nearest eigenvalue, no step's residual
    reaches rounding level: no vector."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    band = band_of(np.diag([0.0, 1.0, 2.0]), 0)
    assert lapack.band_eigenvector(band, 1e-6) is None
    assert lapack.band_eigenvector(band, 0.5) is None


@pytest.mark.parametrize(
    "m, kd, kind, k",
    [
        (1, 0, "random", 1),
        (1, 0, "negative_definite", 2),
        (2, 1, "random", 3),
        (17, 3, "random", 3),
        (25, 3, "random", 2),
        (25, 3, "random", 3),
        (26, 3, "random", 2),
        (26, 3, "random", 3),
        (27, 3, "random", 2),
        (27, 3, "random", 3),
        (64, 0, "random", 1),
        (64, 3, "zero", 3),
        (101, 5, "negative_definite", 1),
        (301, 3, "random", 3),
        (1, 1, "reduced", 1),
        (1, 1, "reduced_complex", 1),
        (2, 1, "reduced", 3),
        (2, 1, "reduced_complex", 1),
        (25, 1, "reduced", 1),
        (25, 1, "reduced", 3),
        (25, 1, "reduced_complex", 1),
        (26, 1, "reduced_complex", 1),
        (26, 1, "reduced", 3),
        (27, 1, "reduced", 3),
        (27, 1, "reduced_complex", 1),
        (301, 1, "reduced", 1),
        (301, 1, "reduced", 3),
        (301, 1, "reduced_complex", 1),
    ],
)
def test_band_rows_match_eigh(m, kd, kind, k):
    """On a symmetric band (random, zero, or random shifted below zero by
    its Gershgorin norm plus one), or on the T (kd = 1) of a random dense
    symmetric A from its reduction (dsytrd) with the probes taken to T's
    coordinates by dormtr ('T'), real or complex: the values of the band's
    reduction (dsbtrd + dsterf), or T's dsterf, are eigh's within
    m eps ||A||; over each cluster of eigh's values (neighbours within
    dstein's ORTOL, CLUSTER_RTOL ||A||) the sum of |row|^2 of every probe
    from band_rows (the Cholesky factor of the band shifted positive
    definite, its bidiagonal reduction and divide and conquer SVD) is
    eigh's within 64 m eps ||x||^2: the weight of the probe in each
    eigenspace, which does not depend on the basis chosen inside it; and
    the rows are eigh's within 64 m eps ||x|| (assert_rows_match_eigh).
    m = 25 is solved whole (SMLSIZ), 26 and 27 are halved and merged, and
    a 1 x 1 band is shifted to a positive value (its margin clears the
    rounding of a - a)."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    rng = np.random.default_rng(m + kd)
    a = np.zeros((m, m))
    if kind != "zero":
        a = rng.standard_normal((m, m))
        a = a + a.T if kind.startswith("reduced") else np.triu(np.tril(a + a.T, kd), -kd)
    if kind == "negative_definite":
        a -= (np.max(np.sum(np.abs(a), axis=1)) + 1.0) * np.eye(m)
        assert np.linalg.eigvalsh(a)[-1] < 0.0
    probes = rng.standard_normal((m, k))
    if kind == "reduced_complex":
        probes = probes + 1j * rng.standard_normal((m, k))
    values, vectors = np.linalg.eigh(a)
    if kind.startswith("reduced"):
        reduced = lapack.reduce(np.array(a, order="F"))
        band, x = reduced.band(), lapack.project(reduced, probes)
        assert x.dtype == probes.dtype and x.shape == (m, k)
    else:
        band, x = band_of(a, kd), probes
        reduced = lapack.band_reduce(band)
    rows = band_rows(band, x)
    if not kind.startswith("reduced"):
        assert np.array_equal(band, band_of(a, kd))  # the band is read, not overwritten
    w = lapack.eigenvalues(reduced)
    eps, norm = np.finfo(np.float64).eps, np.linalg.norm(a, 2)
    assert rows.shape == (k, m) and rows.dtype == probes.dtype and np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - values)) <= m * eps * norm
    clusters = np.concatenate([[0], np.cumsum(np.diff(values) > lapack.CLUSTER_RTOL * norm)])
    for probe, row, expected in zip(probes.T, rows, probes.T @ vectors):
        weights = np.bincount(clusters, np.abs(row) ** 2)
        exact = np.bincount(clusters, np.abs(expected) ** 2)
        assert np.max(np.abs(weights - exact)) <= 64 * m * eps * np.vdot(probe, probe).real
    assert_rows_match_eigh(rows, probes, values, vectors)


def test_band_kernels_hold_a_seed_free_bound():
    """Over 200 seeds of random symmetric bands (m 1-6, kd 0-3): the band
    reduction's eigenvalues (dsbtrd + dsterf) are eigh's within 4 m eps S,
    and every row entry x . v_j from band_rows is eigh's within
    16 m eps ||x|| S / min(gap_j, S), up to the sign of v_j, where gap_j is
    the distance from eigenvalue j to its nearest neighbour and S the
    width of A's Gershgorin interval, or its larger end when it holds no
    zero. S bounds both ||A|| and the ||A + sigma 1|| that band_rows
    solves, so the bound does not depend on the seed: over 2000 seeds the
    largest ratios seen were 1.4 (values) and 7.1 (rows), where the fixed
    m eps ||A||_2 of the tests above reached 1.8."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    eps = np.finfo(np.float64).eps
    for m in range(1, 7):
        for kd in range(min(3, m - 1) + 1):
            for seed in range(200):
                rng = np.random.default_rng((seed, m, kd))
                a = rng.standard_normal((m, m))
                a = np.triu(np.tril(a + a.T, kd), -kd)
                probes = rng.standard_normal((m, 2))
                values, vectors = np.linalg.eigh(a)
                radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
                low, high = np.min(np.diag(a) - radii), np.max(np.diag(a) + radii)
                scale = max(high - low, abs(low), abs(high))
                band = band_of(a, kd)
                w = lapack.eigenvalues(lapack.band_reduce(band))
                assert np.max(np.abs(w - values)) <= 4 * m * eps * scale, (m, kd, seed)
                rows, expected = band_rows(band, probes), probes.T @ vectors
                steps = np.diff(values)
                gaps = np.minimum(np.append(steps, np.inf), np.append(np.inf, steps))
                signs = np.where(np.sum(expected * rows, axis=0) < 0.0, -1.0, 1.0)
                bound = 16 * m * eps * scale / np.minimum(gaps, scale)
                error = np.abs(rows * signs - expected) / np.linalg.norm(probes, axis=0)[:, None]
                assert np.all(error <= bound), (m, kd, seed)


def test_bundled_openblas_binds_every_routine():
    """When numpy ships its OpenBLAS, every routine this package binds is
    there: a missing one would leave ``openblas()`` None, every block on
    numpy's eigh and every kernel test skipped. A failure names what
    ``ctypes`` could not find."""
    libraries = lapack.bundled_libraries()
    if not libraries:
        pytest.skip("numpy ships no scipy_openblas library here")
    if lapack.openblas() is None:
        errors = []
        for path in libraries:
            try:
                lapack._bind(ctypes.CDLL(str(path)))
            except (OSError, AttributeError) as exc:
                errors.append(str(exc))
        pytest.fail(f"numpy's OpenBLAS is not bound, so real blocks run eigh: {errors}")


def test_every_bound_routine_is_called():
    """Each routine of ``lapack.OpenBlas`` is called in ``lapack.py``
    outside ``_bind``, so a binding no code uses fails here."""
    tree = ast.parse(Path(lapack.__file__).read_text(encoding="utf-8"))
    called = {
        node.func.attr
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == "_bind")
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert [name for name in lapack.OpenBlas._fields if name not in called] == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.array([[-2.5]]),
        lambda: np.array([[1.0, -0.5], [-0.5, 3.0]]),
        lambda: signed_zero_matrix(float),
        lambda: np.diag([1.0, 2.0, 2.0, 1.0]),
        grid_floquet_sector,
    ],
    ids=["n1", "n2", "signed_zeros", "degenerate_diag", "grid_sector"],
)
def test_lapack_kernel_keeps_the_eigenvalues_of_eigh(make):
    """A real block solved for a reference (dsytrd, then dsterf for the
    values and band_rows on T for the row) has the eigenvalues of dsterf
    on the T of the operator's matrix (its toarray(), whose zeros are
    +0.0) bit for bit, eigh's within m eps ||A||, and the input is left
    untouched. Each reference's column is a unit eigenvector of its value
    within 64 m eps (orthogonal to eigh's columns of the other values), and
    its dipole row agrees with eigh's eigenvectors V within 64 m eps ||x||
    (assert_rows_match_eigh), for x the probe d psi the row was solved
    for."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    block = make()
    kept = block.copy()
    n = block.shape[0]
    tol = 64 * n * np.finfo(np.float64).eps
    d = np.random.default_rng(n).standard_normal((n, n))
    d += d.T
    operator = ProductOperator(
        matter=block, labels=np.zeros(1, dtype=int), dipole=d, coupling=np.zeros((1, 1))
    )
    values, v = np.linalg.eigh(operator.toarray())
    dsterf = lapack.eigenvalues(lapack.reduce(np.array(operator.toarray(), order="F")))
    scale = np.linalg.norm(block, 2)
    for reference in sorted({0, n // 2, n - 1}):
        system = diagonalize_hermitian(operator, reference=reference)
        assert np.array_equal(block, kept)
        assert system.values.tobytes() == dsterf.tobytes()
        assert np.max(np.abs(system.values - values)) <= n * np.finfo(np.float64).eps * scale
        psi = system.column(reference)
        assert abs(np.linalg.norm(psi) - 1.0) <= tol
        others = v[:, values != values[reference]]
        assert np.max(np.abs(others.T @ psi), initial=0.0) <= tol
        x = d @ psi
        row = system.amplitudes(x, reference=reference, dipole=d)
        assert_rows_match_eigh(row[None, :], x[:, None], values, v)


def one_index_solve(reduced, k):
    """Values and eigenvector k by the one-index sequence: dstebz over k,
    dstein, dormtr on one column, then every value from dsterf with value
    k replaced by the bisection's."""
    library, layout = lapack.openblas(), 102  # LAPACKE's column-major
    a, d, e, tau = reduced
    m = d.size
    w, iblock, isplit = lapack._run(library, reduced, b"B", range(k, k + 1))
    vector = np.zeros((m, 1), order="F")
    library.dstein(layout, m, d, e, 1, w, iblock, isplit, vector, m, np.zeros(1, dtype=np.int64))
    library.dormtr(layout, b"L", b"L", b"N", m, 1, a, m, tau, vector, m)
    values = d.copy()
    library.dsterf(m, values, e.copy())
    values[k] = w[0]
    return values, vector


@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 65, 129, 301])
def test_values_only_solve_matches_eigh(m):
    """The values-only solve of a random symmetric block of size m
    (floquet._values_only on dsterf's values of its dense reduction's T and
    the eigenpairs lapack.eigenpairs gives), over runs of indices at both
    ends and in the middle: every eigenvalue within ||T|| m eps of eigh's,
    each kept eigenvector within 64 m eps of eigh's column (up to sign). A
    one-index run is the one-index sequence bit for bit; the bisection
    lowest(k + 1) gives eigh's lowest values within the same bound."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    a += a.T
    values, vectors = np.linalg.eigh(a)
    eps = np.finfo(np.float64).eps
    block_solve = floquet._reduce(np.array(a, order="F"))
    reduced = block_solve.reduced
    t = np.diag(reduced.d) + np.diag(reduced.e, 1) + np.diag(reduced.e, -1)
    scale = np.linalg.norm(t, 2)

    def solve_values(ks):
        pairs = lapack.eigenpairs(reduced, ks)
        solution = floquet._values_only(lapack.eigenvalues(reduced), ks, pairs)
        assert solution.kept.tolist() == list(ks)
        return solution.values, solution.vectors

    runs = {range(0, min(m, 3)), range(m // 2, min(m, m // 2 + 4)), range(max(0, m - 3), m)}
    for ks in sorted(runs, key=lambda run: run.start):
        w, kept = solve_values(ks)
        assert kept.shape == (m, len(ks))
        assert np.max(np.abs(w - values)) <= scale * m * eps
        signs = np.sign(np.sum(kept * vectors[:, ks], axis=0))
        assert np.max(np.abs(kept * signs - vectors[:, ks])) <= 64 * m * eps
    for k in sorted({0, m // 2, m - 1}):
        lowest = lapack.lowest(reduced, k + 1)
        assert np.max(np.abs(lowest - values[: k + 1])) <= scale * m * eps
        w, kept = solve_values(range(k, k + 1))
        expected_w, expected_vector = one_index_solve(reduced, k)
        assert w.tobytes() == expected_w.tobytes()
        assert kept.tobytes() == expected_vector.tobytes()
    with pytest.raises(InputError, match="not a run inside a block"):
        solve_values(range(0, m + 1))


# H diag(lambda) H with H the 4 x 4 Hadamard matrix / 2, written exactly:
# its eigenvalues are -1/2, -1/4, 1/4 and 1/2, the first and last on the
# edges of the zone [-1/2, 1/2) of Omega = 1
HADAMARD = 0.5 * np.array(
    [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
)
EDGE_BLOCKS = {
    "hadamard": HADAMARD @ np.diag([-0.5, -0.25, 0.25, 0.5]) @ HADAMARD,
    # T is split into 1 x 1 blocks, whose bisection lists values block by block
    "split": np.diag([0.5, -0.5, 2.0, -0.25]),
}


# T's diagonal and subdiagonal, integer: a pivot of T - x is exactly zero at
# x = 0 (zero_pivot) and at x = 1 before a split (zero_pivot_split)
STURM_T = {
    "zero_pivot": ([0.0, 0.0, 1.0, 3.0], [1.0, 2.0, 1.0]),
    "zero_pivot_split": ([1.0, 0.0, 2.0, -1.0], [0.0, 1.0, 0.0]),
    "one": ([2.0], []),
}


def sturm_count(d, e, x):
    """The number of non-positive pivots of T - x, a pivot below pivmin in
    magnitude taken as -pivmin: the recurrence of dlaebz, in Python."""
    squares = [0.0, *(e * e).tolist()]
    pivmin = np.finfo(np.float64).tiny * max(1.0, max(squares))
    below, pivot = 0, 1.0
    for d_i, e2_i in zip(d.tolist(), squares):
        pivot = d_i - e2_i / pivot - x
        if abs(pivot) < pivmin:
            pivot = -pivmin
        below += pivot <= 0.0
    return below


def assert_window_counts(reduced):
    """``window`` of T is the count of eigvalsh's values of T at both ends
    of the interval widened by the margin m eps ||T||, and the Sturm count
    of sturm_count there, for every interval whose ends sit on eigenvalues
    or whose widened ends sit on diagonal entries (an exactly zero first
    pivot), empty intervals included."""
    d, e = reduced.d, reduced.e
    values = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    margin = d.size * np.finfo(np.float64).eps * np.max(
        np.abs(d) + np.append(np.abs(e), 0.0) + np.append(0.0, np.abs(e))
    )
    for low in [*values, *(d + margin), 10.0]:
        for high in [*values, *(d - margin), -10.0]:
            ends = low - margin, high + margin
            below = [np.sum(values <= x) for x in ends]
            assert lapack.window(reduced, low, high) == range(*below), (low, high)
            assert below == [sturm_count(d, e, x) for x in ends], (low, high)


@pytest.mark.parametrize("name", sorted(EDGE_BLOCKS) + sorted(STURM_T))
def test_window_keeps_eigenvalues_on_the_zone_edge(name):
    """The window of [-1/2, 1/2] holds both eigenvalues on its ends, however
    the reduction rounds them, and no eigenvalue 1e-6 beyond: the margin is
    above rounding and far below any gap. Its eigenpairs are eigh's. On
    that T, and on T with integer entries, one of size 1, the window is a
    brute-force count (assert_window_counts), however a pivot vanishes."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    if name in STURM_T:
        d, e = (np.array(entries, dtype=np.float64) for entries in STURM_T[name])
        assert_window_counts(lapack.Tridiagonal(None, d, e, None))
        return
    block = EDGE_BLOCKS[name]
    assert block.tobytes() == ((block + block.T) / 2).tobytes()
    values, vectors = np.linalg.eigh(block)
    assert np.array_equal(values[[0, -2] if name == "split" else [0, -1]], [-0.5, 0.5])
    reduced = lapack.reduce(np.array(block, order="F"))
    inside = range(0, 3) if name == "split" else range(0, 4)
    assert lapack.window(reduced, -0.5, 0.5) == inside
    assert lapack.window(reduced, -0.5 + 1e-6, 0.5 - 1e-6) == range(1, inside.stop - 1)
    assert lapack.window(reduced, 3.0, 4.0) == range(4, 4)
    assert_window_counts(reduced)
    w, kept = lapack.eigenpairs(reduced, inside)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(w - values[inside])) <= 4 * eps
    signs = np.sign(np.sum(kept * vectors[:, inside], axis=0))
    assert np.max(np.abs(kept * signs - vectors[:, inside])) <= 64 * 4 * eps


def test_fold_reference_points():
    """Folding lands 0.7 w at (-0.3 w, 1) and keeps -w/2 in place."""
    folded, n = fold_quasienergies([0.7, -0.5, 0.5], 1.0)
    assert abs(folded[0] + 0.3) < 1e-12
    assert n[0] == 1
    assert folded[1] == -0.5
    assert n[1] == 0
    assert folded[2] == -0.5
    assert n[2] == 1
    assert n.dtype == np.int64


def test_fold_partition_property():
    """Folding is exact and in-zone for 1000 random (epsilon, omega)."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        omega = float(rng.uniform(0.05, 5.0))
        epsilon = float(rng.uniform(-40.0, 40.0))
        folded, n = fold_quasienergies(epsilon, omega)
        assert -omega / 2.0 <= folded < omega / 2.0
        rebuilt = folded + n * omega
        assert abs(rebuilt - epsilon) < 1e-12 * max(1.0, abs(epsilon))


def assert_exact_fold(values, omega):
    """eps == folded + n * Omega and -Omega/2 <= folded < Omega/2, both in
    exact rational arithmetic."""
    folded, n = fold_quasienergies(np.asarray(values, dtype=float), omega)
    half = Fraction(omega) / 2
    for eps, f, k in zip(values, folded.tolist(), n.tolist()):
        assert Fraction(f) + k * Fraction(omega) == Fraction(eps), (eps, omega)
        assert -half <= Fraction(f) < half, (eps, omega)


def test_fold_is_exact_and_in_zone():
    """fmod plus at most one exact +-Omega shift: exact and in the half-open
    zone on random inputs up to 2**49 Omega, on inputs at and next to the
    half-integer zone edges (k + 1/2) Omega, and on two inputs a rounded
    floor(eps/Omega + 1/2) folds out of the zone."""
    rng = np.random.default_rng(15)
    k = np.arange(-40, 40) + 0.5
    for _ in range(100):
        omega = float(10.0 ** rng.uniform(-3.0, 3.0))
        edges = k * omega
        values = np.concatenate([
            omega * rng.uniform(-1e6, 1e6, 20),
            omega * rng.uniform(-(2.0**49), 2.0**49, 5),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
        ])
        assert_exact_fold(values.tolist(), omega)
    assert_exact_fold([0.49999999999999994], 1.0)
    assert_exact_fold([141.88552747816553], 3.1884388197340567)


def test_fold_rejects_bad_omega():
    """A frequency that is not finite and > 0 is refused."""
    for omega in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            fold_quasienergies([0.3], omega)


def test_fold_rejects_non_finite_values():
    """A non-finite quasienergy is an input error, not a raw exception."""
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InputError):
            fold_quasienergies([0.3, bad], 1.0)


def test_fold_gives_up_below_float_resolution(deadline):
    """An Omega below the floating-point resolution of epsilon raises at
    once instead of stepping n forever."""
    with deadline(10):
        with pytest.raises(NumericError, match="resolution"):
            fold_quasienergies([0.7123456789], 1e-300)
        with pytest.raises(NumericError, match="resolution"):
            fold_quasienergies([1000000.1234], 1e-12)


def test_zero_drive_selection_is_pure_static():
    """Zero drive keeps every representative in the m = 0 block."""
    h = MatterOperator(np.diag([0.05, 0.1, -0.2, 0.15]))
    d = MatterOperator(np.zeros((4, 4)))
    floquet = sambe_operator(h, d, DriveSpec(omega=1.0), 2)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet)
    assert selection.blocks.shape == (4, 5, 4)
    assert selection.warnings == ()
    assert np.allclose(selection.quasienergies, [-0.2, 0.05, 0.1, 0.15], atol=1e-12)
    for blocks in selection.blocks:
        off = sum(
            float(np.sum(np.abs(blocks[m + 2]) ** 2)) for m in (-2, -1, 1, 2)
        )
        assert off < 1e-10


def test_zero_drive_spectrum_is_shifted_copies():
    """Zero-drive eigenvalues are exactly {E_a + m w}."""
    h = MatterOperator(np.diag([0.1, 0.25]))
    d = MatterOperator(np.zeros((2, 2)))
    floquet = sambe_operator(h, d, DriveSpec(omega=1.0), 2)
    system = diagonalize_hermitian(floquet)
    expected = np.sort([e + m for e in (0.1, 0.25) for m in range(-2, 3)])
    assert np.max(np.abs(system.values - expected)) < 1e-12


def test_incomplete_zone_is_warned_not_raised():
    """A level too far away to fold in-zone yields a warning and fewer modes."""
    h = MatterOperator(np.diag([0.0, 10.0]))
    d = MatterOperator(np.zeros((2, 2)))
    floquet = sambe_operator(h, d, DriveSpec(omega=1.0), 2)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet)
    assert len(selection.blocks) == len(selection.quasienergies) == 1
    assert any("incomplete" in w for w in selection.warnings)


def test_selection_rejects_incomplete_spectrum():
    """The selector demands the full truncated spectrum."""
    h = MatterOperator(np.diag([0.0, 1.0]))
    d = MatterOperator(SX)
    drive = DriveSpec(omega=0.8, components=(DriveComponent(1, 0.1),))
    floquet = sambe_operator(h, d, drive, 2)
    system = diagonalize_hermitian(floquet)
    truncated = diagonalize_hermitian(np.diag(system.values[:4]))
    with pytest.raises(InputError):
        fold_and_select_ffbz(truncated, floquet)


def test_edge_flagging_is_reported():
    """With a vanishing tolerance every driven representative is flagged."""
    h, d = two_level()
    drive = DriveSpec(omega=2.5, components=(DriveComponent(1, 0.1),))
    floquet = sambe_operator(h, d, drive, 6)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet, edge_tol=0.0)
    indices = list(range(len(selection.blocks)))
    assert f"exceed edge weight 0: indices {indices}" in selection.warnings[-1]
    assert selection.edge_tol == 0.0 and selection.operator is floquet


def driven_ground_selection(omega=2.5, amplitude=0.1, cutoff=6):
    """First-zone selection, whose representative 0 is the ground, plus the
    assembled operator for replica tests."""
    h, d = two_level()
    drive = DriveSpec(omega=omega, components=(DriveComponent(1, amplitude),))
    floquet = sambe_operator(h, d, drive, cutoff)
    system = diagonalize_hermitian(floquet)
    return fold_and_select_ffbz(system, floquet), floquet, system


def test_replica_shift_identity():
    """A zero shift returns the selection unchanged."""
    selection, _, _ = driven_ground_selection()
    replica, dropped = shift_replica(selection, 0, 0)
    assert replica is selection and dropped == 0.0


def test_replica_shift_reindexes_blocks():
    """Shifting by n moves c_m to c_(m+n) and adds n w to the quasienergy;
    the other representatives stay."""
    selection, floquet, system = driven_ground_selection()
    replica, dropped = shift_replica(selection, 0, 1)
    quasienergy = replica.quasienergies[0]
    assert abs(quasienergy - (selection.quasienergies[0] + 2.5)) < 1e-15
    scale = 1.0 / np.sqrt(1.0 - dropped)
    for m in range(-5, 7):
        assert np.allclose(
            replica.blocks[0, m + 6], scale * selection.blocks[0, m + 5], atol=1e-14
        )
    assert np.array_equal(replica.blocks[1:], selection.blocks[1:])
    assert np.array_equal(replica.quasienergies[1:], selection.quasienergies[1:])
    norm = float(np.max(np.abs(system.values)))
    vector = replica.blocks[0].ravel()
    residual = floquet @ vector - quasienergy * vector
    assert float(np.linalg.norm(residual)) <= 1e-6 * norm


def test_replica_rayleigh_quotients():
    """Interior replicas keep Rayleigh quotients at eps + n w to 1e-6."""
    selection, floquet, _ = driven_ground_selection()
    for n in (-2, -1, 1, 2):
        replica, _ = shift_replica(selection, 0, n)
        vector = replica.blocks[0].ravel()
        rq = float(np.real(np.vdot(vector, floquet @ vector)))
        expected = selection.quasienergies[0] + n * 2.5
        assert abs(rq - expected) <= 1e-6 * max(1.0, abs(expected))


def test_replica_shift_window_guard():
    """Shifts beyond the harmonic window are refused."""
    selection, _, _ = driven_ground_selection(cutoff=4)
    with pytest.raises(InputError):
        shift_replica(selection, 0, 5)


def one_level_window():
    """The undriven Sambe operator of one level at 0 on the window m = -1..1."""
    level = MatterOperator(np.zeros((1, 1)))
    return sambe_operator(level, level, DriveSpec(omega=1.0), 1)


def test_replica_shift_accounts_dropped_weight():
    """Content shifted out of the window is recorded and renormalized."""
    blocks = np.array([[[0.0], [np.sqrt(0.8)], [np.sqrt(0.2)]]])
    selection = selection_of([0.1], blocks, one_level_window())
    assert abs(selection.edge_weights[0] - 0.2) < 1e-15
    replica, dropped = shift_replica(selection, 0, 1)
    assert abs(dropped - 0.2) < 1e-14
    assert abs(replica.quasienergies[0] - 1.1) < 1e-15
    assert abs(float(np.sum(np.abs(replica.blocks[0]) ** 2)) - 1.0) < 1e-12
    assert abs(replica.blocks[0, 2, 0] - 1.0) < 1e-14
    assert replica.blocks[0, 1, 0] == 0.0


def test_selection_validation():
    """A selection refuses an even number of harmonic blocks, a
    representative of non-unit norm, blocks off the operator's window and
    columns of unequal length."""
    operator = one_level_window()
    even = ProductOperator(matter=np.zeros((1, 1)), labels=np.arange(2), frequency=1.0)
    with pytest.raises(InputError, match="odd number of harmonic blocks, got 2"):
        selection_of([0.0], [[[1.0], [0.0]]], even)
    with pytest.raises(InputError, match="representative 1 has norm"):
        selection_of([0.0, 0.0], [[[0.0], [1.0], [0.0]], [[0.5], [0.5], [0.5]]], operator)
    with pytest.raises(InputError, match="operator's window"):
        FfbzSelection(
            quasienergies=[0.0],
            blocks=np.ones((1, 1, 1)),
            edge_weights=[0.0],
            labels=np.zeros(3, dtype=np.int64),
            warnings=(),
            source_indices=(0,),
            operator=operator,
            edge_tol=1e-6,
        )
    with pytest.raises(InputError, match="as many quasienergies"):
        selection_of([0.0, 1.0], [[[0.0], [1.0], [0.0]]], operator)


def test_sambe_operator_rejects_empty_windows():
    """Negative cutoffs and empty matter spaces are refused, and so is the
    sector band of a complex (phased) operator, which holds real entries
    only, and a sector, sector band or band width of a parity the operator
    has no sector of (-1 of one that does not split, 2 or 0 of any)."""
    h, d = two_level()
    with pytest.raises(InputError, match="harmonic cutoff must be >= 0"):
        sambe_operator(h, d, DriveSpec(omega=1.0), -1)
    empty = MatterOperator(np.zeros((0, 0)))
    with pytest.raises(InputError, match="matter dimension must be >= 1"):
        sambe_operator(empty, empty, DriveSpec(omega=1.0), 2)
    phased_drive = DriveSpec(omega=0.7, components=(DriveComponent(1, 0.3, 0.3),))
    phased = grid_operator(phased_drive, n_points=41)
    assert phased.splits
    with pytest.raises(InputError, match="real operator only"):
        phased.sector_band(1)
    unsplit, split = asymmetric_band_operators()["sambe"], grid_operator(REAL_DRIVE)
    assert unsplit.parities == (1,) and split.parities == (1, -1)
    for operator, parity in ((unsplit, -1), (unsplit, 2), (split, 2), (split, 0)):
        for call in (operator.sector, operator.sector_band, operator.band_width):
            with pytest.raises(InputError, match=f"no sector of parity {parity}"):
                call(parity)


# Parity-sector eigensolves: a symmetric grid with an odd-harmonic drive
# commutes with x -> -x, t -> t + T/2, so the Sambe matrix splits in two.


def grid_sambe(drive, x_max=5.0, cutoff=3, n_points=21):
    """Sambe matrix of a harmonic grid on [-5, x_max], written by the
    reference block assembler, and x -> -x lifted to P (x) (-1)^m."""
    grid = GridBasis(x_min=-5.0, x_max=x_max, n_points=n_points)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0)).matrix
    components = [(c.harmonic, c.amplitude, c.phase) for c in drive.components]
    matrix = oracles.sambe_block_matrix(
        h, build_dipole(grid).matrix, drive.omega, cutoff, components
    )
    perm, signs = basis_reversal(n_points)
    harmonics = np.arange(-cutoff, cutoff + 1)
    lifted = oracles.lifted_reflection(perm, signs, harmonics)
    return matrix, Reflection(*lifted)


def grid_operator(drive, x_max=5.0, cutoff=3, n_points=21, h=None):
    """The same Sambe matrix as a structured operator with the matter
    reflection; ``h`` replaces the grid Hamiltonian's matrix."""
    grid = GridBasis(x_min=-5.0, x_max=x_max, n_points=n_points)
    if h is None:
        h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0)).matrix
    h = MatterOperator(h)
    return sambe_operator(h, build_dipole(grid), drive, cutoff, basis_reversal(n_points))


REAL_DRIVE = DriveSpec(omega=0.7, components=(DriveComponent(1, 0.3),))
# at cutoff 3 on 81 points, one first-zone eigenpair in each sector
BAND_DRIVE = DriveSpec(omega=0.55, components=(DriveComponent(1, 0.1),))
COMPLEX_DRIVE = DriveSpec(
    omega=0.7, components=(DriveComponent(1, 0.3, 0.7), DriveComponent(3, 0.1, -1.2))
)


@pytest.mark.parametrize(
    "drive, entry",
    [
        (REAL_DRIVE, "matrix"),
        (COMPLEX_DRIVE, "matrix"),
        (REAL_DRIVE, "operator"),
        (COMPLEX_DRIVE, "operator"),
    ],
    ids=["real", "complex", "operator_real", "operator_complex"],
)
def test_sambe_matrix_is_solved_in_two_sectors(monkeypatch, drive, entry):
    """21 points give 10 mirror pairs and a centre point per harmonic block;
    the centre's sign is (-1)^m, so m = -3..3 puts 70 + 3 states in the
    even sector and 70 + 4 in the odd one. The dense matrix with the lifted
    reflection and the structured operator, which decides the split on its
    matter blocks, solve the same two sectors."""
    matrix, reflection = grid_sambe(drive)
    assert np.iscomplexobj(matrix) == (drive is COMPLEX_DRIVE)
    dense = diagonalize_hermitian(matrix)
    operator = grid_operator(drive)
    full = operator.toarray()
    assert full.dtype == matrix.dtype and full.tobytes() == matrix.tobytes()
    solved = record_lapack_solves(monkeypatch)
    if entry == "matrix":
        system = diagonalize_hermitian(matrix, reflection=reflection)
    else:
        system = diagonalize_hermitian(operator)
    assert solved == [73, 74]
    assert dense_vectors(system).dtype == matrix.dtype
    assert_same_spectrum(matrix, system, dense)


def test_two_electron_matter_is_solved_in_two_sectors(monkeypatch):
    """Reversing the flat tensor index reflects both electrons: 81 points
    are 40 pairs and the centre (4, 4)."""
    grid = GridBasis(x_min=-4.0, x_max=4.0, n_points=9)
    h = build_two_electron_hamiltonian(
        grid, PotentialSpec.soft_coulomb(), InteractionSpec.soft_coulomb()
    ).matrix
    dense = diagonalize_hermitian(h)
    solved = record_lapack_solves(monkeypatch)
    system = diagonalize_hermitian(h, reflection=basis_reversal(81))
    assert solved == [41, 40]
    assert_same_spectrum(h, system, dense)


def sector_coupled(excess):
    """The real grid Sambe matrix with one coupling between the sectors, of
    ``excess`` times the split tolerance 16 eps max|M|.

    The matrix is first made exactly symmetric, (M + S M S) / 2, then entry
    (0, 2 N_b) - zero, like its mirror image, for a first-harmonic drive -
    gets value 2 * tol * excess, which is the pair-block coupling times 2.
    """
    matrix, reflection = grid_sambe(REAL_DRIVE)
    perm, signs = reflection
    mirrored = signs[:, None] * matrix[np.ix_(perm, perm)] * signs
    matrix = (matrix + mirrored) / 2.0
    tol = 16 * np.finfo(np.float64).eps * np.max(np.abs(matrix))
    far = 2 * 21
    assert matrix[0, far] == matrix[perm[0], perm[far]] == matrix[0, perm[far]] == 0.0
    matrix[0, far] = matrix[far, 0] = 2.0 * tol * excess
    return matrix, reflection


def operator_coupled(excess):
    """The real grid Sambe operator with one coupling between the sectors in
    H_M, of ``excess`` times 16 eps max|M|, max|M| of its full matrix.

    H_M is first made exactly mirror-symmetric, then entry (0, 2) - zero,
    like its mirror image (20, 18) - gets value 2 * tol * excess, which is
    the pair-basis coupling times 2.
    """
    h = grid_operator(REAL_DRIVE).matter
    h = (h + h[::-1, ::-1]) / 2.0
    tol = 16 * np.finfo(np.float64).eps * np.max(np.abs(grid_operator(REAL_DRIVE, h=h).toarray()))
    assert h[0, 2] == h[20, 18] == 0.0
    h[0, 2] = h[2, 0] = 2.0 * tol * excess
    return grid_operator(REAL_DRIVE, h=h)


@pytest.mark.parametrize(
    "matrix, reflection",
    [
        grid_sambe(REAL_DRIVE, x_max=6.0),
        grid_sambe(DriveSpec(omega=0.7, components=(DriveComponent(2, 0.3),))),
        sector_coupled(1.0 + 1e-6),
        (grid_operator(REAL_DRIVE, x_max=6.0), None),
        (grid_operator(DriveSpec(omega=0.7, components=(DriveComponent(2, 0.3),))), None),
        (operator_coupled(1.0 + 1e-6), None),
    ],
    ids=[
        "asymmetric_grid",
        "even_harmonic",
        "coupling_above_tolerance",
        "operator_asymmetric_grid",
        "operator_even_harmonic",
        "operator_coupling_above_tolerance",
    ],
)
def test_dense_fallback_is_the_unsplit_solve(monkeypatch, matrix, reflection):
    """A reflection that does not commute costs one full-size solve, bit-equal
    to the solve without a reflection; for an operator, to the solve of its
    full matrix."""
    operator = isinstance(matrix, ProductOperator)
    assert not (operator and matrix.splits)
    plain = diagonalize_hermitian(matrix.toarray() if operator else matrix)
    solved = record_lapack_solves(monkeypatch)
    system = diagonalize_hermitian(matrix, reflection=reflection)
    assert solved == [147]
    assert np.array_equal(system.values, plain.values)
    assert np.array_equal(dense_vectors(system), dense_vectors(plain))


def test_unsplit_operator_is_solved_in_place():
    """An operator that does not split and is no narrow band (a sinc DVR
    H_M is dense) writes its matrix once, in Fortran order, and a
    reference solve reduces that array in place and solves its T for the
    row: the numpy allocations of the solve peak below
    1.75 n^2 doubles (the matrix and a C-ordered copy, 2 n^2, before), with
    the eigenvalues of dsterf on the T of a copy bit for bit, eigh's within
    n eps ||A||. A caller's array is left as it was. tracemalloc counts
    numpy's allocations only, not the O(n nb) workspace LAPACKE_dsytrd and
    LAPACKE_dormtr allocate (nb their block size)."""
    grid = GridBasis(x_min=-8.0, x_max=10.0, n_points=60)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "sinc_dvr")
    operator = sambe_operator(h, build_dipole(grid), REAL_DRIVE, 4, basis_reversal(60))
    n = operator.shape[0]
    assert n == 540 and not operator.splits and not floquet._narrow(operator)
    full = operator.toarray()
    assert full.flags.f_contiguous
    kept = full.copy(order="F")
    copied = diagonalize_hermitian(full)
    assert full.tobytes() == kept.tobytes()
    kernel = lapack.openblas() is not None
    dsterf = lapack.eigenvalues(lapack.reduce(kept)) if kernel else copied.values
    scale = np.linalg.norm(full, 2)
    del full, kept
    tracemalloc.start()
    try:
        system = diagonalize_hermitian(operator, reference=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * n * n * np.dtype(np.float64).itemsize
    assert system.values.tobytes() == dsterf.tobytes()
    assert np.max(np.abs(system.values - copied.values)) <= n * np.finfo(np.float64).eps * scale


def test_coupling_just_below_tolerance_is_split(monkeypatch):
    """The tolerance is the boundary: just below it the split is taken, for
    the dense matrix with its lifted reflection and for the operator."""
    matrix, reflection = sector_coupled(1.0 - 1e-6)
    operator = operator_coupled(1.0 - 1e-6)
    assert operator.splits
    solved = record_lapack_solves(monkeypatch)
    for system, full in (
        (diagonalize_hermitian(matrix, reflection=reflection), matrix),
        (diagonalize_hermitian(operator), operator.toarray()),
    ):
        dense = np.linalg.eigvalsh(full)
        assert np.max(np.abs(system.values - dense)) <= 1e-12 * np.max(np.abs(full))
    assert solved == [73, 74, 73, 74]


@pytest.mark.parametrize(
    "perm, signs, message",
    [
        (np.roll(np.arange(4), 1), np.ones(4), "involution"),
        (np.arange(3)[::-1], np.ones(3), "3 indices and 3 signs, expected 4"),
        (np.arange(4)[::-1], np.ones(5), "4 indices and 5 signs, expected 4"),
        (np.arange(4)[::-1], np.array([1.0, -1.0, 1.0, -1.0]), "involution"),
        (np.arange(4), np.array([1.0, 2.0, 1.0, 1.0]), "involution"),
    ],
    ids=["not_involution", "short", "signs_length", "signs_not_paired", "not_signs"],
)
def test_bad_reflection_is_refused(perm, signs, message):
    """A reflection of the wrong length, or one that is not a signed
    involution, is an input error."""
    matrix = np.diag([1.0, 2.0, 2.0, 1.0])
    with pytest.raises(InputError, match=message):
        diagonalize_hermitian(matrix, reflection=Reflection(perm, signs))


def test_split_keeps_harmonic_blocks_exact():
    """Undriven, the Sambe matrix is block diagonal and every dense
    eigenvector lies in one harmonic block with exact zeros elsewhere; the
    sector solves keep those zeros, so no sideband picks up rounding noise."""
    matrix, reflection = grid_sambe(DriveSpec(omega=0.7))
    for system in (
        diagonalize_hermitian(matrix),
        diagonalize_hermitian(matrix, reflection=reflection),
    ):
        occupied = np.abs(dense_vectors(system).reshape(7, 21, 147)).max(axis=1) > 0.0
        assert np.array_equal(occupied.sum(axis=0), np.ones(147, dtype=int))


def matvec_operators(x_max):
    """The structured operators of a harmonic grid on [-5, x_max], each with
    the matter reflection where the pipeline gives it one: the Sambe matrix
    under a real and a complex drive, the joint Hamiltonian, and both lifted
    dipoles."""
    grid = GridBasis(x_min=-5.0, x_max=x_max, n_points=21)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    reflection = basis_reversal(21)
    h_joint = joint_operator(h, d, FockSpec(n_max=4, omega_c=0.9, g=0.2), reflection)
    sambe = sambe_operator(h, d, REAL_DRIVE, 3, reflection)
    d_sambe = ProductOperator(matter=d.matrix, labels=sambe.labels)
    d_joint = ProductOperator(matter=d.matrix, labels=h_joint.labels)
    return {
        "sambe_real": sambe,
        "sambe_complex": sambe_operator(h, d, COMPLEX_DRIVE, 3, reflection),
        "joint": h_joint,
        "sambe_dipole": d_sambe,
        "joint_dipole": d_joint,
    }


@pytest.mark.parametrize("x_max, splits", [(5.0, True), (6.0, False)], ids=["split", "unsplit"])
@pytest.mark.parametrize(
    "kind", ["sambe_real", "sambe_complex", "joint", "sambe_dipole", "joint_dipole"]
)
def test_operator_matvec_matches_its_matrix(kind, x_max, splits):
    """``operator @ x`` is ``operator.toarray() @ x`` to rounding, for real
    and complex x: |error| <= 2 n eps (|M| @ |x|) entry by entry. On the
    symmetric grid the Hamiltonians split, on the asymmetric one they do
    not; the lifted dipoles are odd under the reflection and never split."""
    operator = matvec_operators(x_max)[kind]
    assert operator.splits == (splits and not kind.endswith("dipole"))
    full = operator.toarray()
    n = full.shape[0]
    rng = np.random.default_rng(17)
    for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        got = operator @ x
        assert got.shape == (n,)
        bound = 2 * n * np.finfo(np.float64).eps * (np.abs(full) @ np.abs(x))
        assert np.all(np.abs(got - full @ x) <= bound)


# First-zone solves: a reference picker (FfbzSelection -> representative
# index) makes the picked representative's parity sector values-only.


def first_zone(index):
    """A picker that names representative ``index`` of every selection."""
    return lambda selection: index


def test_values_only_sector_keeps_its_first_zone_vectors():
    """Both first-zone eigenpairs of the 21-point grid at Omega = 0.7 lie in
    the S = -1 sector, which keeps exactly those two vectors. columns()
    gives each of them (the full solve's, up to sign) and refuses the
    sector's others; amplitudes() gives exact zeros across the sector for
    the odd x = (1 (x) d) psi named by its reference and dipole, and the
    sector refuses an x with a component there. The S = +1 sector holds
    the dipole row and no vector, as its first zone is empty."""
    operator = grid_operator(REAL_DRIVE)
    full = diagonalize_hermitian(operator)
    selection = fold_and_select_ffbz(full, operator)
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    for index, source in enumerate(selection.source_indices):
        system = diagonalize_hermitian(operator, reference=first_zone(index))
        sector = values_only_sector(system)
        position, opposite = row_sector(system)
        assert position == 0 and opposite.kept.size == 0
        kept = sector.ranks[sector.kept]
        assert sorted(kept.tolist()) == sorted(selection.source_indices)
        assert sector.vectors.shape == (sector.ranks.size, 2)
        columns = system.columns(kept)
        expected = full.columns(kept)
        signs = np.sign(np.sum(columns * expected, axis=0))
        assert np.max(np.abs(columns * signs - expected)) <= 1e-12
        other = int(np.setdiff1d(sector.ranks, kept)[0])
        with pytest.raises(InputError, match=f"eigenvector {other} lies in a values-only sector"):
            system.columns([source, other])
        psi = system.column(source)
        amps = system.amplitudes(lifted @ psi, reference=source, dipole=operator.dipole)
        assert np.all(amps[sector.ranks] == 0.0)
        with pytest.raises(InputError, match="component of norm .* in a values-only sector"):
            system.amplitudes(psi, reference=source, dipole=operator.dipole)


def test_first_zone_dipole_row_matches_the_full_solve():
    """From every first-zone pick of the 21-point grid, the opposite sector
    holds the reference's dipole row: |row| is the full solve's
    |amplitudes| within 1e-12 there. The row is served only when named by
    that reference and that very dipole array: an unnamed vector, another
    reference and an equal copy of the dipole are refused."""
    operator = grid_operator(REAL_DRIVE)
    full = diagonalize_hermitian(operator)
    selection = fold_and_select_ffbz(full, operator)
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    for index, source in enumerate(selection.source_indices):
        system = diagonalize_hermitian(operator, reference=first_zone(index))
        position, opposite = row_sector(system)
        assert opposite.row.reference == source and opposite.row.dipole is operator.dipole
        assert np.array_equal(opposite.ranks, full.sectors[position].ranks)
        x = lifted @ system.column(source)
        amps = system.amplitudes(x, reference=source, dipole=operator.dipole)
        assert np.array_equal(amps[opposite.ranks], opposite.row.amplitudes)
        difference = np.abs(amps[opposite.ranks]) - np.abs(full.amplitudes(x)[opposite.ranks])
        assert np.max(np.abs(difference)) <= 1e-12
        other = selection.source_indices[1 - index]
        for names in (
            {},
            {"reference": other, "dipole": operator.dipole},
            {"reference": source, "dipole": operator.dipole.copy()},
        ):
            with pytest.raises(InputError, match=f"dipole row of eigenvector {source}$"):
                system.amplitudes(x, **names)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 65, 129, 301])
def test_row_solve_keeps_the_values_of_the_full_solve(m):
    """The dense row solve of a random symmetric block of size m (dsytrd,
    dormtr 'T' on the probes, band_rows on T) leaves T as it was: its
    values (dsterf) are those of a fresh reduction of the block bit for
    bit, and eigh's within m eps ||A||; its rows are V^T x, V eigh's
    eigenvectors, within 64 m eps ||x|| (assert_rows_match_eigh) for one
    real probe and for three probes, one complex."""
    if lapack.openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    a += a.T
    values, v = np.linalg.eigh(a)
    probes = rng.standard_normal((m, 3)).astype(complex)
    probes[:, 2] += 1j * rng.standard_normal(m)
    eps = np.finfo(np.float64).eps
    fresh = lapack.eigenvalues(lapack.reduce(np.array(a, order="F")))
    for x in (probes[:, :1].real, probes):
        reduced = lapack.reduce(np.array(a, order="F"))
        rows = band_rows(reduced.band(), lapack.project(reduced, x))
        w = lapack.eigenvalues(reduced)
        assert w.tobytes() == fresh.tobytes()
        assert np.max(np.abs(w - values)) <= m * eps * np.linalg.norm(a, 2)
        assert rows.shape == (x.shape[1], m) and rows.dtype == x.dtype
        assert_rows_match_eigh(rows, x, values, v)


@pytest.mark.parametrize(
    "operator, pick",
    [
        (grid_operator(COMPLEX_DRIVE), first_zone(0)),
        (grid_operator(REAL_DRIVE), first_zone(2)),
        (grid_operator(REAL_DRIVE, x_max=6.0), first_zone(3)),
        (grid_operator(DriveSpec(omega=0.7), cutoff=0), first_zone(0)),
        (grid_operator(BAND_DRIVE, cutoff=3, n_points=81), first_zone(2)),
    ],
    ids=[
        "phased_drive",
        "pick_beyond_the_zone",
        "unsplit_pick_beyond",
        "empty_zone",
        "band_pick_beyond",
    ],
)
def test_first_zone_solve_falls_back_to_the_full_solve(monkeypatch, operator, pick):
    """A phased (complex) drive, a pick outside the first-zone selection,
    also of an operator that does not split or after the band route has
    read the zone, and a zone with no eigenvalue keep every vector,
    bit-equal to the solve without a picker. After the band route, a pick outside the
    selection goes straight to the full solve: both blocks are written and
    solved in full, with no first-zone eigenpairs read off a dense T
    (lapack.eigenpairs) after the band phase."""
    plain = diagonalize_hermitian(operator)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    eigenpairs = lapack.eigenpairs

    def recorded(reduced, ks):
        solved.append("eigenpairs")
        return eigenpairs(reduced, ks)

    monkeypatch.setattr(lapack, "eigenpairs", recorded)
    system = diagonalize_hermitian(operator, reference=pick)
    if bands:  # band_pick_beyond, the one narrow operator here
        assert sorted(bands) == [283, 284] and solved == [*bands, 283, 284]
    assert all(sector.kept is None for sector in system.sectors)
    assert np.array_equal(system.values, plain.values)
    assert np.array_equal(dense_vectors(system), dense_vectors(plain))


def asymmetric_band_operators():
    """Narrow operators that do not split, on harmonic grids on [-10, 12]:
    the Sambe operator of 81 points at cutoff 3 (m = 567, kd = 7) and the
    joint operator of 101 points with 4 photons (m = 505, kd = 5)."""
    grids = {n: GridBasis(x_min=-10.0, x_max=12.0, n_points=n) for n in (81, 101)}
    h = {n: build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0)) for n, grid in grids.items()}
    d = {n: build_dipole(grid) for n, grid in grids.items()}
    fock = FockSpec(n_max=4, omega_c=0.9, g=0.2)
    return {
        "sambe": sambe_operator(h[81], d[81], REAL_DRIVE, 3, basis_reversal(81)),
        "joint": joint_operator(h[101], d[101], fock, basis_reversal(101)),
    }


@pytest.mark.parametrize(
    "operator, reference, narrow",
    [
        (grid_operator(REAL_DRIVE, x_max=6.0), first_zone(0), False),
        (grid_operator(REAL_DRIVE, x_max=6.0), first_zone(2), False),
        (matvec_operators(6.0)["joint"], 0, False),
        (matvec_operators(6.0)["joint"], 5, False),
        (asymmetric_band_operators()["sambe"], first_zone(0), True),
        (asymmetric_band_operators()["joint"], 0, True),
    ],
    ids=[
        "asymmetric_grid",
        "asymmetric_grid_pick_2",
        "joint_rank_0",
        "joint_rank_5",
        "band_asymmetric_grid",
        "band_joint_rank_0",
    ],
)
def test_unsplit_reference_solve_matches_the_full_solve(monkeypatch, operator, reference, narrow):
    """An operator that does not split (here, on an asymmetric grid) is the
    one sector of a reference solve: its matrix is reduced once, or its
    band when it is narrow, its T or band is solved for the row, and no
    eigh runs. The sector keeps the reference's eigenvector (for a picker,
    every first-zone one) and its dipole row. The eigenvalues are dsterf's
    on the T of its matrix (of its band) bit for bit and the full solve's
    within n eps ||A||, the selection names the same eigenpairs, the
    reference vector is the full solve's within 1e-12 up to sign, and the
    closure sum from it matches within 1e-12 relative, with a closure
    residual at most 1e-12 relative."""
    full = diagonalize_hermitian(operator)
    assert not operator.splits and floquet._narrow(operator) == narrow
    matrix = operator.toarray()
    if narrow:
        dsterf = lapack.eigenvalues(lapack.band_reduce(operator.sector_band(1).band))
    else:
        dsterf = lapack.eigenvalues(lapack.reduce(np.array(matrix, order="F")))
    bound = operator.shape[0] * np.finfo(np.float64).eps * np.linalg.norm(matrix, 2)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    system = diagonalize_hermitian(operator, reference=reference)
    assert solved == [operator.shape[0]] * 2
    assert bands == (solved if narrow else [operator.shape[0]])
    (sector,) = system.sectors
    assert system.values.tobytes() == dsterf.tobytes()
    assert np.max(np.abs(system.values - full.values)) <= bound
    if callable(reference):
        selection = fold_and_select_ffbz(system, operator)
        assert selection.source_indices == fold_and_select_ffbz(full, operator).source_indices
        rank = selection.source_indices[reference(selection)]
        assert set(selection.source_indices) <= set(sector.kept.tolist())
        rule = sumrule_sambe
    else:
        rank = reference
        assert sector.kept.tolist() == [rank]
        rule = sumrule_qed
    assert sector.row.reference == rank
    psi, expected = system.column(rank), full.column(rank)
    assert np.max(np.abs(psi * np.sign(psi @ expected) - expected)) <= 1e-12
    report = rule(operator, system, rank, n_electrons=1)
    exact = rule(operator, full, rank, n_electrons=1)
    assert abs(report.value - exact.value) <= 1e-12 * abs(exact.value)
    assert abs(report.oracle_residual) <= 1e-12 * abs(report.value)


def narrowed_window(monkeypatch):
    """Drop the top index from each first-zone window, so the values-only
    sector misses an in-zone vector of the merged spectrum."""
    window = lapack.window

    def narrowed(reduced, low, high):
        run = window(reduced, low, high)
        return range(run.start, max(run.start, run.stop - 1))

    monkeypatch.setattr(lapack, "window", narrowed)


@pytest.mark.parametrize("case", ["moved_pick", "unkept_vector"])
def test_first_zone_mismatch_takes_the_fallback(monkeypatch, case):
    """When the merged spectrum's selection picks another representative
    than the first-zone eigenpairs did, or holds an in-zone eigenpair the
    values-only sector did not keep, the operator is solved again without a
    reference. Forced by a picker that names representative 0 first and 1
    after, and by a window one index short."""
    operator = grid_operator(REAL_DRIVE)
    full = diagonalize_hermitian(operator)
    if case == "moved_pick":
        picks = iter([0])

        def pick(selection):
            return next(picks, 1)

    else:
        narrowed_window(monkeypatch)
        pick = first_zone(0)
    solved = record_lapack_solves(monkeypatch)
    system = diagonalize_hermitian(operator, reference=pick)
    # both reductions and the row solve of the sector opposite the pick,
    # then both sectors by eigh
    assert solved == [73, 74, 73, 73, 74]
    assert all(sector.kept is None for sector in system.sectors)
    assert np.max(np.abs(system.values - full.values)) <= 1e-12 * np.max(np.abs(full.values))


def test_reference_picker_needs_a_sambe_operator():
    """A picker reads a first zone, which a matrix without Omega has not."""
    matrix, reflection = grid_sambe(REAL_DRIVE)
    with pytest.raises(InputError, match="picker needs a Sambe operator"):
        diagonalize_hermitian(matrix, reflection=reflection, reference=first_zone(0))


# The band route of a first-zone solve: when both sector bands are narrow,
# both are reduced without Q side by side, the first-zone eigenpairs come
# from bisection and banded inverse iteration, and the row sector is solved
# from its band for the dipole row.

def band_zone_operator(drive=BAND_DRIVE, h=None):
    """The 81-point harmonic-grid Sambe operator on [-5, 5] at cutoff 3:
    sectors of 283 (S = +1) and 284 (S = -1), each of half bandwidth
    kd = 7, so 32 kd <= m and a first-zone solve takes the band route."""
    return grid_operator(drive, cutoff=3, n_points=81, h=h)


def test_first_zone_band_route_matches_the_full_solve(monkeypatch):
    """At Omega = 0.55 each sector holds one first-zone eigenpair. From
    either pick, the solve reduces the two bands and solves the opposite
    sector's band for the row, with no dense block and no fallback; its
    eigenvalues are the full
    solve's within 1e-11, its kept vectors within 1e-12 up to sign, and
    |row| the full solve's |amplitudes| within 1e-12."""
    operator = band_zone_operator()
    assert [operator.band_width(p) for p in (1, -1)] == [7, 7]
    full = diagonalize_hermitian(operator)
    selection = fold_and_select_ffbz(full, operator)
    owners = [1 if source in full.sectors[0].ranks else -1 for source in selection.source_indices]
    assert sorted(owners) == [-1, 1]
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    for index, source in enumerate(selection.source_indices):
        bands = []
        with monkeypatch.context() as patch:
            solved = record_lapack_solves(patch, bands)
            system = diagonalize_hermitian(operator, reference=first_zone(index))
        assert sorted(bands[:2]) == [283, 284] and bands[2:] == [284 if owners[index] == 1 else 283]
        assert solved == bands
        assert np.max(np.abs(system.values - full.values)) <= 1e-11
        kept = np.concatenate([sector.ranks[sector.kept] for sector in system.sectors])
        assert sorted(kept.tolist()) == sorted(selection.source_indices)
        columns, expected = system.columns(kept), full.columns(kept)
        signs = np.sign(np.sum(columns * expected, axis=0))
        assert np.max(np.abs(columns * signs - expected)) <= 1e-12
        _, opposite = row_sector(system)
        x = lifted @ system.column(source)
        amps = system.amplitudes(x, reference=source, dipole=operator.dipole)
        difference = np.abs(amps[opposite.ranks]) - np.abs(full.amplitudes(x)[opposite.ranks])
        assert np.max(np.abs(difference)) <= 1e-12


@pytest.mark.parametrize("threads", [1, 2])
def test_band_reductions_overlap_within_the_thread_cap(monkeypatch, threads):
    """With two OpenBLAS threads the two sector bands are reduced side by
    side, the S = +1 band in the scheduler's spare slot and the S = -1 band
    on the calling thread; with one thread (--threads 1), both on the
    calling thread, +1 first. Two solves in one scheduler (as in one job)
    share its one helper thread, which has ended when the scheduler
    closes. Either way each T is that band's reduction alone bit for bit."""
    operator = band_zone_operator()
    capped_threads(monkeypatch, threads)
    alone = [lapack.band_reduce(operator.sector_band(p).band) for p in (1, -1)]
    original, calls = lapack.band_reduce, []

    def recorder(band):
        reduced = original(band)
        calls.append((band.shape[1], threading.get_ident(), reduced))
        return reduced

    monkeypatch.setattr(lapack, "band_reduce", recorder)
    before = threading.active_count()
    with lapack.scheduler():
        for _ in range(2):
            diagonalize_hermitian(operator, reference=first_zone(0))
        assert threading.active_count() == before + (threads == 2)
    assert threading.active_count() == before
    caller, helpers = threading.get_ident(), set()
    for solve in range(2):
        pair = calls[2 * solve : 2 * solve + 2]
        if threads == 2:  # the order the two threads record in is not fixed
            pair.sort(key=lambda call: call[0])
        assert [dim for dim, _, _ in pair] == [283, 284]
        assert pair[1][1] == caller and (pair[0][1] != caller) == (threads == 2)
        helpers.add(pair[0][1])
        for (_, _, reduced), expected in zip(pair, alone):
            assert reduced.d.tobytes() == expected.d.tobytes()
            assert reduced.e.tobytes() == expected.e.tobytes()
    assert len(calls) == 4 and len(helpers) == 1


@pytest.mark.parametrize("failing", [283, 284], ids=["second_thread", "calling_thread"])
def test_band_reduction_fault_is_raised_after_the_join(monkeypatch, failing):
    """A ``dsbtrd`` failure in either band reduction, in the spare slot or
    on the calling thread, is the NumericError of the solve, raised once
    both reductions have ended; the spare slot is free again afterwards,
    so the next solve in the same scheduler still reduces its +1 band on
    the helper thread, and no thread outlives the scheduler."""
    library = lapack.openblas()
    fault = [True]

    def dsbtrd(*args):
        return -4 if fault[0] and args[3] == failing else library.dsbtrd(*args)

    capped_threads(monkeypatch, 2, dsbtrd=dsbtrd)
    original, threads = lapack.band_reduce, []

    def recorder(band):
        threads.append((band.shape[1], threading.get_ident()))
        return original(band)

    monkeypatch.setattr(lapack, "band_reduce", recorder)
    before = threading.active_count()
    with lapack.scheduler():
        with pytest.raises(NumericError, match="LAPACKE returned -4"):
            diagonalize_hermitian(band_zone_operator(), reference=first_zone(0))
        fault[0] = False
        threads.clear()
        diagonalize_hermitian(band_zone_operator(), reference=first_zone(0))
    assert threading.active_count() == before
    assert dict(threads)[283] != threading.get_ident() == dict(threads)[284]


def reversed_each(slots, calls):
    """lapack.Scheduler.each with each call run to its end before the one
    before it starts, from the last back: one order concurrent calls may
    take."""
    return [call() for call in reversed(calls)][::-1]


def recorded_schedule(monkeypatch, schedule):
    """Run lapack.Scheduler.each as is (``two_threads``) or with its second
    call ending before its first starts (``second_first``), and record each
    call of it: the names of its calls, and whether it was made inside a
    call of another. Returns the list the records go to."""
    each = reversed_each if schedule == "second_first" else lapack.Scheduler.each
    records, running = [], []

    def recorded(slots, calls):
        names = [getattr(call, "__name__", None) or call.func.__name__ for call in calls]
        records.append((names, bool(running)))
        running.append(names)
        try:
            return each(slots, calls)
        finally:
            running.pop()

    monkeypatch.setattr(lapack.Scheduler, "each", recorded)
    return records


def assert_same_reference_solve(system, expected):
    """The values, the kept eigenvectors and the dipole row of two
    reference solves are the same bit for bit."""
    assert system.values.tobytes() == expected.values.tobytes()
    for sector, expected_sector in zip(system.sectors, expected.sectors):
        assert sector.vectors.tobytes() == expected_sector.vectors.tobytes()
    row, expected_row = row_sector(system)[1].row, row_sector(expected)[1].row
    assert row.amplitudes.tobytes() == expected_row.amplitudes.tobytes()


@pytest.mark.parametrize("schedule", ["two_threads", "second_first"])
def test_band_rows_do_not_depend_on_the_schedule(monkeypatch, schedule):
    """A band solve runs three pairs of steps on its scheduler's two slots
    when OpenBLAS may use two threads: the two band reductions; then the
    fork, every sector's dsterf beside the calling thread's choice, probe
    and bidiagonal reduction of the row sector; then, after the fork, the
    two halves of that bidiagonal's divide and conquer, before the top
    merge. The values, the kept eigenvectors and the dipole row are those
    of the steps run in turn bit for bit, whether each pair runs at once or
    its second step ends before the first starts, and no thread outlives
    the solve."""
    operator = band_zone_operator()
    with monkeypatch.context() as patch:
        capped_threads(patch, 1)
        expected = diagonalize_hermitian(operator, reference=first_zone(0))
    capped_threads(monkeypatch, 2)
    records = recorded_schedule(monkeypatch, schedule)
    before = threading.active_count()
    system = diagonalize_hermitian(operator, reference=first_zone(0))
    assert threading.active_count() == before
    pairs = [["band_reduce"] * 2, ["sector_values", "row_step"], ["_solve_block"] * 2]
    assert records == [(pair, False) for pair in pairs]
    assert_same_reference_solve(system, expected)


@pytest.mark.parametrize("schedule", ["two_threads", "second_first"])
def test_dense_row_step_does_not_depend_on_the_schedule(monkeypatch, schedule):
    """A dense reference solve (the one 51-row block of a few-level Sambe
    operator) makes its choice and puts Q^T on the probe before its fork,
    which runs dsterf beside the bidiagonal reduction of T and, inside the
    same step, that bidiagonal's divide and conquer: T reduces in a few ms
    against the tens of ms of dsterf, so the tree runs beside the values,
    its halves in turn while dsterf holds the spare slot. The values, the
    kept eigenvectors and the dipole row are those of the steps run in turn
    bit for bit on either schedule, and no thread outlives the solve."""
    operator = few_level_sweep_operator()
    assert not floquet._narrow(operator)
    with monkeypatch.context() as patch:
        capped_threads(patch, 1)
        expected = diagonalize_hermitian(operator, reference=0)
    capped_threads(monkeypatch, 2)
    records = recorded_schedule(monkeypatch, schedule)
    before = threading.active_count()
    system = diagonalize_hermitian(operator, reference=0)
    assert threading.active_count() == before
    assert records == [(["sector_values", "row_step"], False), (["_solve_block"] * 2, True)]
    assert_same_reference_solve(system, expected)


def whole_tree(bidiagonal):
    """The divide and conquer of lapack.bidiagonal_rows on a copy of
    ``bidiagonal`` run as one recursion from the top block on one
    workspace, every block in turn on the calling thread: the rows, in
    the order of the singular values, and the singular values as the
    merges leave them."""
    d, e, rows = (array.copy(order="F") for array in bidiagonal[:3])
    copy = lapack.Bidiagonal(d, e, rows, dtype := bidiagonal.dtype)
    tree = lapack._Tree(copy)
    assert lapack._solve_block(tree, lapack._Workspace(d.size, tree.k), 0, d.size, 0)
    return np.ascontiguousarray(rows[np.argsort(d, kind="stable")]).view(dtype).T, d


@pytest.mark.parametrize("m", [1, 25, 26, 27, 51, 52, 53, 1709])
def test_bidiagonal_rows_are_the_same_on_one_slot_and_two(monkeypatch, m):
    """The rows of lapack.bidiagonal_rows, and the singular values it
    leaves in the bidiagonal's d (whose order is the rows' order), are
    the same bit for bit on one slot, on two, with the second half ending
    before the first starts, and as one recursion from the top block in
    turn on one workspace, for real and complex probes, one column and
    two, on a band of m rows (kd 3). A tree of more than lapack.SMLSIZ
    rows runs its two halves through lapack.each, on two slots one on each
    thread, and the calling thread makes the top merge; a smaller tree is
    one block, solved whole on the calling thread."""
    rng = np.random.default_rng(m)
    band = np.asfortranarray(rng.standard_normal((4, m)))
    caller, blocks, merges = threading.get_ident(), [], []
    left = m // 2
    halves = [(0, left, 1), (left + 1, m - left - 1, 0)] if m > lapack.SMLSIZ else [(0, m, 0)]
    solve_block, merge_halves = lapack._solve_block, lapack._merge_halves

    def solved(tree, space, *block):
        if block in halves:
            blocks.append((block, threading.get_ident()))
        return solve_block(tree, space, *block)

    def merged(tree, space, *block):
        if block == (0, m, 0):
            merges.append(threading.get_ident())
        return merge_halves(tree, space, *block)

    for kind in (float, complex):
        for k in (1, 2):
            probes = rng.standard_normal((m, k)).astype(kind)
            if kind is complex:
                probes += 1j * rng.standard_normal((m, k))
            bidiagonal = lapack.band_bidiagonal(band, probes)
            expected_rows, expected_values = whole_tree(bidiagonal)
            for schedule in ("one_slot", "two_slots", "second_first"):
                with monkeypatch.context() as patch:
                    capped_threads(patch, 1 if schedule == "one_slot" else 2)
                    if schedule == "second_first":
                        patch.setattr(lapack.Scheduler, "each", reversed_each)
                    patch.setattr(lapack, "_solve_block", solved)
                    patch.setattr(lapack, "_merge_halves", merged)
                    blocks.clear()
                    merges.clear()
                    copy = lapack.Bidiagonal(
                        *(array.copy(order="F") for array in bidiagonal[:3]), bidiagonal.dtype
                    )
                    rows = lapack.bidiagonal_rows(copy)
                assert rows.dtype == kind and rows.shape == (k, m)
                assert rows.tobytes() == expected_rows.tobytes()
                assert copy.d.tobytes() == expected_values.tobytes()
                assert sorted(block for block, _ in blocks) == sorted(halves)
                threads = dict(blocks)
                if m <= lapack.SMLSIZ:
                    assert threads == {(0, m, 0): caller} and merges == []
                    continue
                assert merges == [caller] and threads[halves[1]] == caller
                assert (threads[halves[0]] != caller) == (schedule == "two_slots")


def test_library_reference_solve_starts_one_helper_thread(monkeypatch):
    """Outside a job, a reference solve at two OpenBLAS threads opens one
    scheduler for the whole solve: its band reductions, its fork and the
    halves of its divide and conquer share one helper thread, which is
    the only thread started and has ended when the solve returns."""
    capped_threads(monkeypatch, 2)
    start, started = threading.Thread.start, []

    def counted(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    system = diagonalize_hermitian(band_joint(), reference=0)
    assert threading.active_count() == before
    assert len(started) == 1 and row_sector(system)[1].row.reference == 0


@pytest.mark.parametrize("rank", [0, 3])
def test_rank_reference_bisects_each_band_once(monkeypatch, rank):
    """A rank reference on the band route bisects each sector's T once,
    for its rank + 1 lowest values: one dstebz call per sector, and the
    reference's value, at which its band eigenvector is found, is that
    bisection's bit for bit. At rank 0 that call is the very one a
    bisection of the reference's value alone makes."""
    operator = band_joint()
    library = lapack.openblas()
    calls = []

    def dstebz(*args):
        calls.append(args[2])
        return library.dstebz(*args)

    capped_threads(monkeypatch, 1, dstebz=dstebz)
    reduced = {p: lapack.band_reduce(operator.sector_band(p).band) for p in (1, -1)}
    lowest = {p: lapack.lowest(reduced[p], rank + 1) for p in (1, -1)}
    calls.clear()
    system = diagonalize_hermitian(operator, reference=rank)
    assert sorted(calls) == sorted(operator._sector_dim(p) for p in (1, -1))
    assert row_sector(system)[1].row.reference == rank
    assert system.values[rank] == np.sort(np.concatenate(list(lowest.values())))[rank]
    if rank == 0:
        for p in (1, -1):
            band = operator.sector_band(p).band
            alone, _ = lapack.band_eigenpairs(band, reduced[p], range(0, 1))
            assert alone.tobytes() == lowest[p][:1].tobytes()


def test_library_solves_set_no_blas_count(monkeypatch):
    """Outside a job a solve at two OpenBLAS threads never sets a count:
    the scheduler a band solve opens for its side by side reductions holds
    none, and a dense block's reduction runs at the count in force."""
    library = lapack.openblas()
    if library is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    sets, reduced = [], []

    def set_num_threads(threads):
        sets.append(threads)
        library.set_num_threads(threads)

    def dsytrd(*args):
        reduced.append(library.get_num_threads())
        return library.dsytrd(*args)

    patched = library._replace(set_num_threads=set_num_threads, dsytrd=dsytrd)
    with lapack.thread_cap(library, 2):
        monkeypatch.setattr(lapack, "openblas", lambda: patched)
        band = band_zone_operator()
        diagonalize_hermitian(band, reference=first_zone(0))
        diagonalize_hermitian(band_joint(n_points=21, n_max=2), reference=0)
    assert sets == [] and reduced and set(reduced) == {2}


def test_scheduler_runs_at_most_two_calls_at_once():
    """Members of ``each`` that run an ``each`` of two calls: no more than
    two calls run at once, on no more than two threads (the calling one
    and the helper); the calling thread takes the last member and the
    helper the one before it; once the helper has no member left, the
    calling thread's inner calls take the spare slot again; results come
    in the order of the calls; the helper has ended when the scheduler
    closes."""
    lock, running, most = threading.Lock(), [0], [0]
    caller, threads, helper_done = threading.get_ident(), [], threading.Event()

    def kernel():
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.append(threading.get_ident())
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return threading.get_ident()

    def member(i):
        def run():
            taker = threading.get_ident()
            if i == 0:  # the helper's last member
                slots.each([kernel, kernel])
                helper_done.set()
                return i, taker
            for _ in range(5):
                slots.each([kernel, kernel])
            if i == 3:  # the calling thread's first member: wait for the spare slot
                assert helper_done.wait(10.0)
                for _ in range(1000):
                    if slots.each([kernel, kernel])[0] != caller:
                        return i, taker
                    time.sleep(0.001)
                raise AssertionError("the spare slot never came back")
            return i, taker

        return run

    before = threading.active_count()
    slots = lapack.Scheduler(2)
    try:
        results = slots.each([member(i) for i in range(4)])
    finally:
        slots.close()
    assert threading.active_count() == before
    assert [i for i, _ in results] == [0, 1, 2, 3]
    takers = dict(results)
    assert takers[3] == caller and takers[2] != caller
    assert most[0] <= 2 and len(set(threads)) == 2 and caller in threads


@pytest.mark.parametrize("threads", [1, 2], ids=["one_slot", "two_slots"])
def test_scheduler_raises_the_first_failure_in_call_order(threads):
    """Calls 1 and 3 raise; with two slots, taken from the last back,
    call 3 fails first, but call 1's error is raised, once both slots have
    ended and call 0 has run; with one slot the calls run in turn and stop
    at call 1. The scheduler stays usable, and its helper ends at close."""
    ran, faults = [], {1: InputError("call 1"), 3: NumericError("call 3")}

    def call(i):
        def run():
            ran.append(i)
            if i in faults:
                raise faults[i]
            return i

        return run

    before = threading.active_count()
    slots = lapack.Scheduler(threads)
    try:
        with pytest.raises(InputError, match="call 1"):
            slots.each([call(i) for i in range(4)])
        assert slots.each([lambda: "a", lambda: "b"]) == ["a", "b"]
    finally:
        slots.close()
    assert threading.active_count() == before
    assert sorted(ran) == ([0, 1, 2, 3] if threads == 2 else [0, 1])


def test_scheduler_interrupt_starts_no_further_call():
    """An interrupt (Ctrl-C) that reaches the calling thread while it waits
    in its member, the last of five, while the helper runs the one before
    it, ends the scan: the helper ends its member, no other member starts
    on either thread, and the KeyboardInterrupt is raised once both slots
    have ended, before the helper member's error. The helper has ended
    when the scheduler closes."""
    started, waiting, interrupted = [], threading.Event(), threading.Event()

    def call(i):
        def run():
            started.append(i)
            if i == 4:  # the calling thread's member
                try:
                    waiting.set()
                    for _ in range(10_000):
                        time.sleep(0.001)
                except KeyboardInterrupt:
                    interrupted.set()
                    raise
                raise AssertionError("no interrupt came")
            if i == 3:  # the helper's member
                assert waiting.wait(10.0)
                _thread.interrupt_main()
                assert interrupted.wait(10.0)
                raise InputError("call 3")
            return i

        return run

    before = threading.active_count()
    slots = lapack.Scheduler(2)
    try:
        with pytest.raises(KeyboardInterrupt):
            slots.each([call(i) for i in range(5)])
    finally:
        slots.close()
    assert threading.active_count() == before
    assert sorted(started) == [3, 4]


def test_band_solve_interrupt_is_raised_before_the_helper_error(monkeypatch):
    """In a two-slot scheduler a band solve's two reductions run one on
    each slot, the S = +1 band on the helper and the S = -1 band on the
    calling thread. When the helper's raises a NumericError and the
    calling thread's is then interrupted (Ctrl-C), the KeyboardInterrupt
    is raised once both have ended, not the helper's error."""
    capped_threads(monkeypatch, 2)
    failed = threading.Event()

    def band_reduce(band):
        if band.shape[1] == 283:  # the +1 band, on the helper
            failed.set()
            raise NumericError("the helper's reduction failed")
        assert failed.wait(10.0)
        raise KeyboardInterrupt

    monkeypatch.setattr(lapack, "band_reduce", band_reduce)
    with lapack.scheduler():
        with pytest.raises(KeyboardInterrupt):
            diagonalize_hermitian(band_zone_operator(), reference=first_zone(0))


def test_dense_solves_set_their_own_blas_count_in_a_held_scheduler(monkeypatch):
    """With a held scheduler open at two real OpenBLAS threads, each dense
    solve called directly sets its own count: lapack.reduce (dsytrd),
    project and eigenpairs (dormtr) and eigh run at two outside the
    members of an each, the count back at one after each of them, and at
    one inside an each that runs on both slots. The count is two again
    once the scheduler closes."""
    library = lapack.openblas()
    if library is None:
        pytest.skip("numpy has no bundled OpenBLAS with LAPACKE")
    seen, eigh = [], np.linalg.eigh

    def recorder(name, kernel):
        def recorded(*args):
            seen.append((name, library.get_num_threads()))
            return kernel(*args)

        return recorded

    patched = library._replace(
        dsytrd=recorder("dsytrd", library.dsytrd), dormtr=recorder("dormtr", library.dormtr)
    )
    monkeypatch.setattr(lapack, "openblas", lambda: patched)
    monkeypatch.setattr(np.linalg, "eigh", recorder("eigh", eigh))
    a = np.random.default_rng(3).standard_normal((40, 40))
    a += a.T

    def solves():
        reduced = lapack.reduce(np.array(a, order="F"))
        lapack.project(reduced, np.ones((40, 1)))
        lapack.eigenpairs(reduced, range(0, 2))
        lapack.eigh(a)
        return library.get_num_threads()

    kernels = ["dsytrd", "dormtr", "dormtr", "eigh"]
    with lapack.thread_cap(library, 2):
        with lapack.scheduler(hold=True):
            assert solves() == 1
            assert seen == [(kernel, 2) for kernel in kernels]
            seen.clear()
            assert lapack.each([solves, solves]) == [1, 1]
        assert library.get_num_threads() == 2
    assert sorted(seen) == sorted((kernel, 1) for kernel in kernels * 2)


@pytest.mark.parametrize(
    "make, reference",
    [(band_zone_operator, first_zone(0)), (band_joint, 0)],
    ids=["first_zone", "rank_zero"],
)
def test_failed_band_row_solve_takes_eigh(monkeypatch, make, reference):
    """A divide and conquer merge that reports info > 0 (dlasd6: its
    secular equation did not converge) sends the operator, once the band
    route has chosen, straight to the solve without a reference: both
    sectors by numpy's eigh and none reduced densely, with the values of
    the full solve bit for bit and every eigenvector kept, whose products
    with the reference's probe match the band route's dipole row within
    1e-12 in magnitude."""
    operator = make()
    full = diagonalize_hermitian(operator)
    banded = diagonalize_hermitian(operator, reference=reference)
    capped_threads(monkeypatch, 2, dlasd6=lambda *args: 1)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    system = diagonalize_hermitian(operator, reference=reference)
    sizes = [operator._sector_dim(p) for p in (1, -1)]
    assert sorted(bands[:2]) == sorted(sizes) and len(bands) == 3
    assert solved == [*bands, *sizes]
    assert all(sector.kept is None for sector in system.sectors)
    assert system.values.tobytes() == full.values.tobytes()
    _, sector = row_sector(banded)
    rank = sector.row.reference
    x = ProductOperator(matter=operator.dipole, labels=operator.labels) @ banded.column(rank)
    band_row = banded.amplitudes(x, reference=rank, dipole=operator.dipole)
    assert np.max(np.abs(np.abs(system.amplitudes(x)) - np.abs(band_row))) <= 1e-12


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_dsterf_beside_a_declined_choice_takes_eigh(monkeypatch, threads):
    """On the band route every sector's dsterf runs beside the anchor's
    choice. When the anchor declines (here it is made to choose nothing)
    and a dsterf reports info > 0, the failure is dropped and the operator
    is solved by eigh, both sectors, with the values of the full solve bit
    for bit, on one slot and on two. A dsterf that fails once a choice was
    made still ends the solve (test_lapack_failure_is_a_numeric_error)."""
    operator = band_joint()
    full = diagonalize_hermitian(operator)
    failed = []

    def dsterf(n, *args):
        failed.append(n)
        return 1  # an eigenvalue did not converge

    capped_threads(monkeypatch, threads, dsterf=dsterf)
    monkeypatch.setattr(floquet._RankAnchor, "choose", lambda anchor, solves: None)
    bands, eighs = [], []
    record_lapack_solves(monkeypatch, bands, eighs)
    system = diagonalize_hermitian(operator, reference=0)
    sizes = sorted(operator._sector_dim(p) for p in (1, -1))
    assert len(failed) == 1 and sorted(bands) == sizes and sorted(eighs) == sizes
    assert all(sector.kept is None for sector in system.sectors)
    assert system.values.tobytes() == full.values.tobytes()


@pytest.mark.parametrize(
    "make, reference",
    [(band_zone_operator, first_zone(0)), (band_joint, 0)],
    ids=["first_zone", "rank_zero"],
)
def test_band_sector_values_are_dsterf_of_its_band(monkeypatch, make, reference):
    """Each sector band of a band route is reduced once (dsbtrd), and each
    sector's values are dsterf's on that band's T bit for bit: all of the
    row sector's, and the values-only sector's but for its kept run, which
    the bisection that found its eigenvectors gives."""
    operator = make()
    original, reduced = lapack.band_reduce, {}

    def recorder(band):
        assert band.shape[1] not in reduced  # each band once
        reduced[band.shape[1]] = original(band)
        return reduced[band.shape[1]]

    monkeypatch.setattr(lapack, "band_reduce", recorder)
    system = diagonalize_hermitian(operator, reference=reference)
    assert sorted(reduced) == sorted(operator._sector_dim(p) for p in (1, -1))
    _, row = row_sector(system)
    own = values_only_sector(system)
    expected = lapack.eigenvalues(reduced[row.ranks.size])
    assert system.values[row.ranks].tobytes() == expected.tobytes()
    expected = lapack.eigenvalues(reduced[own.ranks.size])
    others = np.setdiff1d(np.arange(own.ranks.size), own.kept)
    assert system.values[own.ranks[others]].tobytes() == expected[others].tobytes()


def test_band_row_of_a_complex_dipole_matches_eigh(monkeypatch):
    """A one-label matter operator on a 101-point harmonic grid with the
    complex dipole d = (1 + 0.5j) x and no coupling is real, splits and is
    narrow (kd 1), so a rank-0 solve takes the band route with a complex
    probe d psi_0, two real columns to band_rows: its row is eigh's within
    64 m eps ||x|| (each eigenvector up to sign), with no warning."""
    grid = GridBasis(-10.0, 10.0, 101)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0)).matrix
    d = (1.0 + 0.5j) * build_dipole(grid).matrix
    operator = ProductOperator(
        matter=h, labels=np.zeros(1, dtype=int), dipole=d, coupling=np.zeros((1, 1)),
        reflection=basis_reversal(101),
    )
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = diagonalize_hermitian(operator, reference=0)
    assert sorted(bands[:2]) == [50, 51] and bands[2:] == [50] and solved == bands
    values, v = np.linalg.eigh(h)
    assert np.max(np.abs(system.values - values)) <= 1e-12
    x = d @ system.column(0)
    row, expected = system.amplitudes(x, reference=0, dipole=d), v.T @ x.conj()
    error = np.minimum(np.abs(row - expected), np.abs(row + expected))
    assert np.max(error) <= 64 * 101 * np.finfo(np.float64).eps * np.linalg.norm(x)


def test_band_route_orthogonalizes_a_cluster(monkeypatch):
    """With no drive, H_M shifted to E_0 = 0 and Omega = (E_2 - E_0) / 2,
    the replicas (n, -n) of levels 0-3 all lie in the S = +1 zone: (0, 0)
    and (2, -2) tie at rounding level, and all four lie far closer than
    dstein's ORTOL (1e-3 ||T||). The band route keeps four orthonormal
    vectors, each with its residual within m eps ||A||, spanning the full
    solve's eigenspaces, and solves the S = -1 band for the row."""
    grid = GridBasis(x_min=-5.0, x_max=5.0, n_points=81)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0)).matrix
    energies = np.linalg.eigvalsh(h)
    drive = DriveSpec(omega=float(energies[2] - energies[0]) / 2)
    operator = band_zone_operator(drive, h=h - energies[0] * np.eye(81))
    full = diagonalize_hermitian(operator)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    system = diagonalize_hermitian(operator, reference=first_zone(0))
    assert sorted(bands[:2]) == [283, 284] and bands[2:] == [284] and solved == bands
    sector = values_only_sector(system)
    kept = sector.ranks[sector.kept]
    values = system.values[kept]
    cluster = lapack.CLUSTER_RTOL * np.max(np.abs(system.values[sector.ranks]))
    assert kept.size == 4 and np.min(np.diff(values)) <= 1e-13
    assert np.max(np.diff(values)) < cluster
    columns = system.columns(kept)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(columns.T @ columns - np.eye(4))) <= 16 * eps
    matrix = operator.toarray()
    scale = float(np.max(np.sum(np.abs(matrix), axis=1)))
    residuals = np.linalg.norm(matrix @ columns - columns * values, axis=0)
    assert np.all(residuals <= sector.ranks.size * eps * scale)
    expected = full.columns(kept)
    assert np.max(np.abs(columns @ columns.T - expected @ expected.T)) <= 1e-12


def test_inexact_first_zone_band_vector_takes_eigh(monkeypatch):
    """A banded inverse iteration whose residual stays above rounding (at
    a shift 1e-6 off its value) gives no vector: after the two band
    reductions, each sector is solved by eigh, as without a reference, and
    no block is reduced densely."""
    operator = band_zone_operator()
    full = diagonalize_hermitian(operator)
    original = lapack.band_eigenvector
    monkeypatch.setattr(
        lapack,
        "band_eigenvector",
        lambda band, value, against=None: original(band, value + 1e-6, against),
    )
    bands, eighs = [], []
    solved = record_lapack_solves(monkeypatch, bands, eighs)
    system = diagonalize_hermitian(operator, reference=first_zone(0))
    assert sorted(bands) == [283, 284] and eighs == [283, 284]
    assert solved == bands + eighs
    assert np.max(np.abs(system.values - full.values)) <= 1e-11
