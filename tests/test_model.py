"""Grids, potentials, dipoles, drives, and the double-commutator anchor."""

import numpy as np
import pytest

import oracles
from floqtrk import (
    GridBasis,
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    InputError,
    InteractionSpec,
    MatterOperator,
    PotentialSpec,
    SizeError,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    double_commutator_expectation,
    kinetic_matrix,
)
from floqtrk.model import hermiticity_defect


def test_grid_points_and_spacing():
    """Grid points are x_min + j*spacing with both endpoints included."""
    grid = GridBasis(-2.0, 2.0, 5)
    assert abs(grid.spacing - 1.0) < 1e-15
    assert np.allclose(grid.points(), [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_grid_rejects_too_few_points():
    """A grid needs at least 3 points."""
    with pytest.raises(InputError):
        GridBasis(0.0, 1.0, 2)


@pytest.mark.parametrize("n_points", [4.5, 5.0, True], ids=["fractional", "float", "bool"])
def test_grid_rejects_non_integer_point_count(n_points):
    """A point count that is not an integer is refused when the grid is
    made, not as a TypeError when it is used."""
    with pytest.raises(InputError, match="grid point count must be an integer"):
        build_grid_hamiltonian(GridBasis(-1.0, 1.0, n_points), PotentialSpec.harmonic(1.0))


def test_grid_rejects_inverted_range():
    """x_max must exceed x_min."""
    with pytest.raises(InputError):
        GridBasis(1.0, 1.0, 11)


def test_harmonic_ground_state_energy():
    """Harmonic lowest eigenvalue matches the analytic 0.5 within 1e-3."""
    grid = GridBasis(-10.0, 10.0, 201)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "three_point")
    e0 = np.linalg.eigvalsh(h.matrix)[0]
    assert abs(e0 - 0.5) < 1e-3


def test_box_ground_state_energy():
    """Box lowest eigenvalue matches pi^2/(2 L^2) within 1e-2."""
    grid = GridBasis(0.0, 1.0, 401)
    h = build_grid_hamiltonian(grid, PotentialSpec.box())
    e0 = np.linalg.eigvalsh(h.matrix)[0]
    assert abs(e0 - oracles.box_ground_energy(1.0)) < 1e-2


def test_hamiltonians_are_hermitian():
    """Every constructed operator equals its conjugate transpose to 1e-12."""
    grid = GridBasis(-6.0, 6.0, 41)
    potentials = [
        PotentialSpec.harmonic(0.7),
        PotentialSpec.soft_coulomb(1.0, 1.0),
        PotentialSpec.box(),
        PotentialSpec.double_well(1.2, 3.0),
        PotentialSpec.tabulated(np.linspace(0.0, 1.0, 41)),
    ]
    for potential in potentials:
        for scheme in ("three_point", "sinc_dvr"):
            h = build_grid_hamiltonian(grid, potential, scheme)
            assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= 1e-12


def test_tabulated_length_mismatch():
    """A tabulated potential with the wrong number of values is rejected."""
    grid = GridBasis(0.0, 1.0, 11)
    potential = PotentialSpec.tabulated([0.0] * 10)
    with pytest.raises(InputError):
        build_grid_hamiltonian(grid, potential)


def test_non_finite_potential_rejected():
    """Non-finite potential samples raise an input error."""
    grid = GridBasis(0.0, 1.0, 5)
    for bad in (np.inf, -np.inf, np.nan):
        potential = PotentialSpec.tabulated([0.0, 0.0, bad, 0.0, 0.0])
        with pytest.raises(InputError):
            build_grid_hamiltonian(grid, potential)


def test_potential_parameter_validation():
    """Potential constructors reject non-physical parameters."""
    with pytest.raises(InputError):
        PotentialSpec.harmonic(0.0)
    with pytest.raises(InputError):
        PotentialSpec.soft_coulomb(softening=0.0)
    with pytest.raises(InputError):
        PotentialSpec.double_well(barrier=-1.0, separation=2.0)


def test_kinetic_scheme_entries():
    """Stencil and sinc kinetic matrices have their defining entries."""
    grid = GridBasis(0.0, 1.0, 5)
    dx = grid.spacing
    t3 = kinetic_matrix(grid, "three_point")
    assert abs(t3[0, 0] - 1.0 / dx**2) < 1e-15
    assert abs(t3[0, 1] + 0.5 / dx**2) < 1e-15
    assert abs(t3[0, 2]) == 0.0
    ts = kinetic_matrix(grid, "sinc_dvr")
    assert abs(ts[2, 2] - np.pi**2 / (6.0 * dx**2)) < 1e-12
    assert abs(ts[0, 1] + 1.0 / dx**2) < 1e-12
    assert abs(ts[0, 2] - 1.0 / (4.0 * dx**2)) < 1e-12
    with pytest.raises(InputError):
        kinetic_matrix(grid, "spectral")


def test_dipole_trace_vanishes_on_symmetric_grid():
    """d = -x sums to zero over a symmetric grid."""
    grid = GridBasis(-5.0, 5.0, 11)
    d = build_dipole(grid)
    assert d.matrix.shape == (11, 11)
    assert np.allclose(np.diag(d.matrix), -grid.points())
    assert abs(np.trace(d.matrix)) <= 1e-12
    assert np.max(np.abs(d.matrix - np.diag(np.diag(d.matrix)))) == 0.0


def test_two_electron_dipole_entries():
    """Tensor-grid dipole is diagonal with entries -(x_a + x_b)."""
    grid = GridBasis(-1.5, 1.5, 4)
    d = build_dipole(grid, n_electrons=2)
    x = grid.points()
    assert d.matrix.shape == (16, 16)
    for a in range(4):
        for b in range(4):
            idx = a * 4 + b
            assert abs(d.matrix[idx, idx] + (x[a] + x[b])) < 1e-14


def test_electron_count_guard():
    """Only one or two electrons are supported."""
    grid = GridBasis(-1.0, 1.0, 4)
    with pytest.raises(InputError):
        build_dipole(grid, n_electrons=3)


def test_two_electron_noninteracting_ground_energy():
    """Noninteracting pair ground energy is twice the one-electron value."""
    grid = GridBasis(-8.0, 8.0, 32)
    potential = PotentialSpec.harmonic(1.0)
    h2 = build_two_electron_hamiltonian(grid, potential)
    h1 = build_grid_hamiltonian(grid, potential, "sinc_dvr")
    e2 = np.linalg.eigvalsh(h2.matrix)[0]
    e1 = np.linalg.eigvalsh(h1.matrix)[0]
    assert abs(e2 - 2.0 * e1) < 1e-8
    assert abs(e2 - 1.0) < 5e-3


def test_two_electron_spectrum_is_pairwise_sums():
    """Without interaction the tensor spectrum is all pairwise level sums."""
    grid = GridBasis(-4.0, 4.0, 8)
    potential = PotentialSpec.harmonic(1.0)
    h2 = build_two_electron_hamiltonian(grid, potential)
    h1 = build_grid_hamiltonian(grid, potential, "sinc_dvr")
    singles = np.linalg.eigvalsh(h1.matrix)
    pairs = np.sort(np.add.outer(singles, singles).ravel())
    assert np.allclose(np.linalg.eigvalsh(h2.matrix), pairs, atol=1e-8)


def test_repulsion_raises_ground_energy():
    """Soft-Coulomb repulsion pushes the pair ground energy strictly up."""
    grid = GridBasis(-6.0, 6.0, 24)
    potential = PotentialSpec.harmonic(1.0)
    e_free = np.linalg.eigvalsh(
        build_two_electron_hamiltonian(grid, potential).matrix
    )[0]
    e_int = np.linalg.eigvalsh(
        build_two_electron_hamiltonian(
            grid, potential, InteractionSpec.soft_coulomb(1.0, 1.0)
        ).matrix
    )[0]
    assert e_int > e_free


def test_two_electron_grid_guard():
    """The tensor builder rejects grids beyond 64 points."""
    grid = GridBasis(-8.0, 8.0, 65)
    with pytest.raises(SizeError):
        build_two_electron_hamiltonian(grid, PotentialSpec.harmonic(1.0))


def test_matter_dimension_guard():
    """The dense single-particle builder rejects grids beyond 4096 points."""
    grid = GridBasis(-10.0, 10.0, 4097)
    with pytest.raises(SizeError):
        build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))


def test_matter_operator_rejects_non_hermitian():
    """MatterOperator construction enforces Hermiticity."""
    with pytest.raises(InputError):
        MatterOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        MatterOperator(np.zeros((2, 3)))


def test_few_level_model_validation():
    """Level energies must be ascending and the dipole square Hermitian."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = FewLevelModel(energies=(0.0, 1.0), dipole=sx)
    assert np.allclose(model.hamiltonian().matrix, np.diag([0.0, 1.0]))
    assert np.allclose(model.dipole_operator().matrix, sx)
    with pytest.raises(InputError):
        FewLevelModel(energies=(1.0, 0.0), dipole=sx)
    with pytest.raises(InputError):
        FewLevelModel(energies=(0.0, 1.0, 2.0), dipole=sx)
    with pytest.raises(InputError):
        FewLevelModel(energies=(0.0, 1.0), dipole=np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_drive_validation():
    """Drives reject zero frequency, bad harmonics, and duplicates."""
    with pytest.raises(InputError):
        DriveSpec(omega=0.0, components=())
    with pytest.raises(InputError):
        DriveSpec(omega=1.0, components=(DriveComponent(0, 0.1),))
    with pytest.raises(InputError):
        DriveSpec(omega=1.0, components=(DriveComponent(1, 0.1), DriveComponent(1, 0.2)))


def test_drive_frequency_must_be_a_number():
    """A NaN drive frequency is refused; NaN <= 0 is False, so a plain sign
    check lets it through."""
    with pytest.raises(InputError, match="drive frequency must be finite and > 0"):
        DriveSpec(omega=float("nan"))


def test_double_commutator_harmonic_ground():
    """Grid double commutator lands within 1e-2 of one electron."""
    grid = GridBasis(-10.0, 10.0, 201)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "three_point")
    d = build_dipole(grid)
    ground = np.linalg.eigh(h.matrix)[1][:, 0]
    value = double_commutator_expectation(h, d, ground)
    assert abs(value - 1.0) < 1e-2
    assert abs(value - oracles.double_commutator_value(h.matrix, d.matrix, ground)) < 1e-12


def test_double_commutator_two_electron_ground():
    """Tensor-grid double commutator lands within 2e-2 of two electrons."""
    grid = GridBasis(-8.0, 8.0, 32)
    h = build_two_electron_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid, n_electrons=2)
    ground = np.linalg.eigh(h.matrix)[1][:, 0]
    value = double_commutator_expectation(h, d, ground)
    assert abs(value - 2.0) < 2e-2


def test_double_commutator_grid_convergence():
    """Halving the spacing shrinks the commutator defect by about 4."""
    defects = []
    for n_points in (201, 401):
        grid = GridBasis(-10.0, 10.0, n_points)
        h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "three_point")
        d = build_dipole(grid)
        ground = np.linalg.eigh(h.matrix)[1][:, 0]
        defects.append(abs(double_commutator_expectation(h, d, ground) - 1.0))
    factor = defects[0] / defects[1]
    assert 3.5 <= factor <= 4.5


def test_double_commutator_ignores_interaction():
    """A multiplicative pair interaction drops out of the double commutator."""
    grid = GridBasis(-5.0, 5.0, 16)
    potential = PotentialSpec.harmonic(1.0)
    h_free = build_two_electron_hamiltonian(grid, potential)
    h_int = build_two_electron_hamiltonian(
        grid, potential, InteractionSpec.soft_coulomb(1.0, 1.0)
    )
    d = build_dipole(grid, n_electrons=2)
    rng = np.random.default_rng(11)
    state = rng.standard_normal(256)
    state /= np.linalg.norm(state)
    a = double_commutator_expectation(h_free, d, state)
    b = double_commutator_expectation(h_int, d, state)
    assert abs(a - b) < 1e-10


def test_double_commutator_input_checks():
    """Non-normalized states and mismatched dimensions are rejected."""
    h = MatterOperator(np.diag([0.0, 1.0]))
    d = MatterOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        double_commutator_expectation(h, d, np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        double_commutator_expectation(h, d, np.array([1.0, 0.0, 0.0]))


def test_interaction_validation():
    """Interaction specs reject unknown kinds and bad softening."""
    with pytest.raises(InputError):
        InteractionSpec(kind="dipolar")
    with pytest.raises(InputError):
        InteractionSpec.soft_coulomb(1.0, 0.0)


@pytest.mark.parametrize("n", [1, 255, 256, 600])
def test_tiled_hermiticity_defect_is_the_full_transpose(n):
    """The tile-by-tile defect equals max |M - M^dagger| of the whole matrix,
    bit for bit, real and complex, across tile edges."""
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    complex_ = real + 1j * rng.standard_normal((n, n))
    for matrix in (real, complex_, real + real.T):
        full = float(np.max(np.abs(matrix - matrix.conj().T)))
        assert hermiticity_defect(matrix) == full
