"""Static, extended-space, and zone-resolved sum rules with their oracles."""

import math

import numpy as np
import pytest

import oracles
from helpers import (
    column_rows,
    dense_vectors,
    select_reference_sambe,
    selection_of,
    shift_replica,
)
from floqtrk import (
    DriveComponent,
    DriveSpec,
    FockSpec,
    GridBasis,
    InputError,
    InteractionSpec,
    Ledger,
    MatterOperator,
    PotentialSpec,
    SpectralDensity,
    ZoneError,
    basis_reversal,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    cli,
    density_from_ledger,
    diagonalize_hermitian,
    dipole_fourier_components,
    first_moment,
    fold_and_select_ffbz,
    joint_operator,
    sambe_operator,
    select_reference,
    static_trk,
    sumrule_ffbz,
    sumrule_qed,
    sumrule_sambe,
)

THREE_H = MatterOperator(np.diag([0.0, 0.3, 1.1]))
THREE_D = MatterOperator(
    np.array(
        [
            [0.2, 0.5, 0.1],
            [0.5, -0.1, 0.4],
            [0.1, 0.4, 0.3],
        ]
    ),
)


def ladder(omega, count):
    """Truncated oscillator ladder whose sum rule is exactly one."""
    h = np.diag(oracles.harmonic_levels(omega, count))
    d = np.zeros((count, count))
    for k in range(count - 1):
        d[k, k + 1] = d[k + 1, k] = np.sqrt((k + 1) / (2.0 * omega))
    return MatterOperator(h), MatterOperator(d)


def driven_two_level(omega, amplitude, cutoff, delta=1.0, mu=1.0):
    """Assembled operator, spectrum, and zone selection for a driven qubit."""
    h = MatterOperator(np.diag([0.0, delta]))
    d = MatterOperator(mu * np.array([[0.0, 1.0], [1.0, 0.0]]))
    drive = DriveSpec(omega=omega, components=(DriveComponent(1, amplitude),))
    floquet = sambe_operator(h, d, drive, cutoff)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet)
    return h, d, floquet, system, selection


def random_mode(rng, cutoff, dim):
    """A quasienergy and normalized (2 cutoff + 1) x dim coefficient blocks
    with Gaussian harmonic content (fabricated, not solved)."""
    raw = rng.standard_normal((2 * cutoff + 1, dim)) + 1j * rng.standard_normal(
        (2 * cutoff + 1, dim)
    )
    raw = raw / np.linalg.norm(raw)
    return float(rng.standard_normal()), raw


def random_blocks(rng, cutoff, dim):
    """The coefficient blocks of :func:`random_mode`."""
    return random_mode(rng, cutoff, dim)[1]


def fabricated_zone(modes, omega=0.7, cutoff=2):
    """A selection of fabricated three-level ``modes`` (quasienergy, blocks)
    on the window of the undriven Sambe operator of THREE_H and THREE_D at
    ``omega``."""
    operator = sambe_operator(THREE_H, THREE_D, DriveSpec(omega=omega), cutoff)
    quasienergies = [quasienergy for quasienergy, _ in modes]
    return selection_of(quasienergies, [blocks for _, blocks in modes], operator)


def test_ladder_sum_is_exactly_one():
    """Truncated oscillator ladders satisfy the sum rule to 1e-12."""
    for omega in (1.0, 0.37):
        for count, reference in ((2, 0), (6, 0), (6, 2)):
            h, d = ladder(omega, count)
            report = static_trk(h, d, reference=reference, n_electrons=1)
            assert abs(report.value - 1.0) < 1e-12
            assert report.target == 1.0
            assert report.kind == "static_trk"
            assert report.omega is None


def test_grid_harmonic_static_sum():
    """201-point oscillator grid sums to one electron within 1e-2."""
    grid = GridBasis(-10.0, 10.0, 201)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "three_point")
    d = build_dipole(grid)
    report = static_trk(h, d, n_electrons=1)
    assert abs(report.value - 1.0) < 1e-2
    assert abs(report.oracle_residual) <= 1e-8 * abs(report.value)
    reference = oracles.energy_weighted_sum(h.matrix, d.matrix, 0)
    assert abs(report.value - reference) <= 1e-10


def test_two_electron_interacting_sum():
    """Interacting two-electron grid sums to two electrons."""
    grid = GridBasis(-8.0, 8.0, 32)
    h = build_two_electron_hamiltonian(
        grid, PotentialSpec.harmonic(1.0), InteractionSpec.soft_coulomb(1.0, 1.0)
    )
    d = build_dipole(grid, n_electrons=2)
    report = static_trk(h, d, n_electrons=2)
    assert report.target == 2.0
    assert abs(report.value - 2.0) < 1e-4
    assert abs(report.oracle_residual) <= 1e-8 * abs(report.value)


def test_static_reference_out_of_range():
    """A reference index beyond the spectrum is rejected."""
    h, d = ladder(1.0, 2)
    with pytest.raises(InputError):
        static_trk(h, d, reference=2, n_electrons=1)
    with pytest.raises(InputError):
        static_trk(h, d, reference=-1, n_electrons=1)


def test_static_dimension_mismatch():
    """Hamiltonian and dipole dimensions must agree."""
    h, _ = ladder(1.0, 3)
    _, d = ladder(1.0, 4)
    with pytest.raises(InputError):
        static_trk(h, d, n_electrons=1)


def test_closure_identity_random_matrices():
    """Sum and double commutator agree to 1e-10 for random Hermitian pairs."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        dim = int(rng.integers(2, 65))
        h = MatterOperator(oracles.random_hermitian(rng, dim))
        d = MatterOperator(oracles.random_hermitian(rng, dim))
        report = static_trk(h, d, n_electrons=1)
        scale = max(1.0, abs(report.value))
        assert abs(report.oracle_residual) <= 1e-10 * scale
        direct = oracles.double_commutator_value(
            h.matrix, d.matrix, dense_vectors(diagonalize_hermitian(h.matrix))[:, 0]
        )
        assert abs(report.value - direct) <= 1e-10 * scale


def test_closure_identity_every_reference():
    """The closure identity holds from every eigenstate of one matrix."""
    rng = np.random.default_rng(8)
    h = MatterOperator(oracles.random_hermitian(rng, 12))
    d = MatterOperator(oracles.random_hermitian(rng, 12))
    for reference in range(12):
        report = static_trk(h, d, reference=reference, n_electrons=1)
        assert abs(report.oracle_residual) <= 1e-10 * max(1.0, abs(report.value))


def test_ledger_weights_reproduce_value():
    """The report value is the fsum of its own ledger weights."""
    h, d = ladder(0.8, 5)
    report = static_trk(h, d, n_electrons=1)
    assert report.value == math.fsum(report.contributions.weight.tolist())


def zero_drive_modes(omega=5.0, cutoff=2):
    """In-zone modes of the undriven three-level model."""
    floquet = sambe_operator(THREE_H, THREE_D, DriveSpec(omega=omega), cutoff)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet)
    return floquet, system, selection


def test_dipole_fourier_zero_drive_is_bare():
    """Without drive d^(0) is the bare matrix element and sidebands vanish."""
    _, _, selection = zero_drive_modes()
    modes = selection.blocks
    assert len(modes) == 3
    for a in range(3):
        for b in range(3):
            fset = dipole_fourier_components(modes[a], modes[b], THREE_D.matrix)
            assert abs(fset[0] - THREE_D.matrix[a, b]) < 1e-12
            for n, amp in fset.items():
                if n != 0:
                    assert abs(amp) <= 1e-14


def test_dipole_fourier_completeness():
    """sum_n d^(n) equals the all-blocks matrix element; d^(0) matches the
    extended-space operator built explicitly."""
    rng = np.random.default_rng(13)
    d = MatterOperator(oracles.random_hermitian(rng, 3))
    big_d = np.kron(np.eye(5), d.matrix)
    for _ in range(20):
        bra = random_blocks(rng, 2, 3)
        ket = random_blocks(rng, 2, 3)
        fset = dipole_fourier_components(bra, ket, d.matrix)
        whole = np.vdot(bra.sum(axis=0), d.matrix @ ket.sum(axis=0))
        assert abs(sum(fset.values()) - whole) <= 1e-12
        direct = np.vdot(bra.ravel(), big_d @ ket.ravel())
        assert abs(fset[0] - direct) <= 1e-12


def test_dipole_fourier_conjugation():
    """Swapping bra and ket conjugates and negates the harmonic index."""
    rng = np.random.default_rng(29)
    d = MatterOperator(oracles.random_hermitian(rng, 3))
    for _ in range(20):
        bra = random_blocks(rng, 2, 3)
        ket = random_blocks(rng, 2, 3)
        forward = dipole_fourier_components(bra, ket, d.matrix)
        backward = dipole_fourier_components(ket, bra, d.matrix)
        for n in range(-4, 5):
            assert abs(forward[n] - np.conj(backward[-n])) <= 1e-13


def test_dipole_fourier_input_checks():
    """Blocks of mismatched matter dimensions or windows, a dipole of
    another dimension and a flat vector are rejected."""
    rng = np.random.default_rng(4)
    d3 = oracles.random_hermitian(rng, 3)
    a = random_blocks(rng, 2, 3)
    for bra, ket, d in (
        (a, random_blocks(rng, 2, 4), d3),
        (a, random_blocks(rng, 1, 3), d3),
        (a, a, oracles.random_hermitian(rng, 4)),
        (a.ravel(), a.ravel(), d3),
    ):
        with pytest.raises(InputError, match="do not share one window"):
            dipole_fourier_components(bra, ket, d)


def test_first_order_sideband_coefficients():
    """Weak-drive mode content matches first-order perturbation theory."""
    h, d, _, _, selection = driven_two_level(0.4, 0.01, 8)
    ground = selection.blocks[select_reference(selection.blocks, np.array([1.0, 0.0]))]
    phase = ground[8][0]
    phase = phase / abs(phase)
    expected = oracles.two_level_sideband_coefficients(1.0, 1.0, 0.01, 0.4)
    for m in (-1, 1):
        coeff = complex(ground[m + 8][1] / phase)
        assert abs(coeff - expected[m]) <= 1e-2 * abs(expected[m])


def test_first_order_elastic_sideband():
    """The reference mode's n = +-1 dipole harmonics match perturbation
    theory to 5e-2 relative."""
    h, d, _, _, selection = driven_two_level(0.4, 0.01, 8)
    modes = selection.blocks
    ref = select_reference(modes, np.array([1.0, 0.0]))
    fset = dipole_fourier_components(modes[ref], modes[ref], d.matrix)
    expected = oracles.two_level_elastic_sideband(1.0, 1.0, 0.01, 0.4)
    for n in (-1, 1):
        assert abs(fset[n] - expected) <= 5e-2 * abs(expected)


def m0_mode(m0_block):
    """Blocks on two levels and harmonics -1..1 with the given m=0 block;
    the rest of the norm sits in the m=+1 block."""
    m0_block = np.asarray(m0_block, dtype=float)
    rest = math.sqrt(1.0 - float(np.sum(m0_block**2)))
    return np.array([[0.0, 0.0], m0_block, [0.0, rest]])


def test_reference_ignores_overlaps_at_rounding_level():
    """Ground-state weights below (16 D eps)^2, D the blocks' Sambe
    dimension, are noise: with no other weight the largest m=0 block wins;
    a resolved weight still wins over it."""
    ground = np.array([1.0, 0.0])
    forbidden = m0_mode([0.0, 0.1])  # opposite parity: overlap exactly 0
    noise = m0_mode([1e-17, 1e-3])  # overlap 1e-34, below the floor
    assert select_reference(np.array([noise, forbidden]), ground) == 1
    assert select_reference(np.array([forbidden, noise]), ground) == 0
    resolved = m0_mode([1e-3, 0.0])
    assert select_reference(np.array([forbidden, noise, resolved]), ground) == 2
    with pytest.raises(InputError, match="blocks"):
        select_reference(noise, ground)
    with pytest.raises(InputError, match="matter dimension 2"):
        select_reference(np.array([noise]), np.array([1.0, 0.0, 0.0]))


def test_auto_reference_is_the_same_with_and_without_a_reflection():
    """A complex two-harmonic drive on a 21-point harmonic grid: every
    first-zone representative is parity-forbidden from the ground state.
    The unsplit dense solve leaves their m=0 overlaps at rounding level
    (up to 7e-29, above (N_b eps)^2 but far below the floor of the Sambe
    dimension), so the pick follows the m=0 block norms, as the split
    solve's does, and both take representative 0."""
    drive = DriveSpec(omega=0.7, components=(DriveComponent(1, 0.3, 0.7), DriveComponent(3, 0.1)))
    grid = GridBasis(-5.0, 5.0, 21)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    for reflection in (basis_reversal(21), None):
        ground = diagonalize_hermitian(h.matrix, reflection=reflection).column(0)
        sambe = sambe_operator(h, d, drive, 3, reflection)
        selection = fold_and_select_ffbz(diagonalize_hermitian(sambe), sambe)
        assert select_reference(selection.blocks, ground) == 0


def test_parity_selection_rule():
    """With both modes centered in the zone, odd inter-mode harmonics vanish
    and the even elastic harmonic carries the bare dipole."""
    h, d, _, _, selection = driven_two_level(2.5, 0.01, 8)
    modes = selection.blocks
    assert len(modes) == 2
    g = select_reference(modes, np.array([1.0, 0.0]))
    e = 1 - g
    inter = dipole_fourier_components(modes[g], modes[e], d.matrix)
    assert abs(inter[1]) <= 1e-14
    assert abs(inter[-1]) <= 1e-14
    assert abs(inter[0]) > 0.99
    intra = dipole_fourier_components(modes[g], modes[g], d.matrix)
    assert abs(intra[0]) <= 1e-14
    expected = oracles.two_level_elastic_sideband(1.0, 1.0, 0.01, 2.5)
    assert abs(intra[1] - expected) <= 5e-2 * abs(expected)


def test_sambe_sum_matches_extended_oracle():
    """The extended-space sum matches its double commutator for random
    coupled blocks, from two different references: a random complex
    Hermitian dipole under a phased drive."""
    rng = np.random.default_rng(31)
    h0 = MatterOperator(oracles.random_hermitian(rng, 3))
    d = MatterOperator(oracles.random_hermitian(rng, 3))
    drive = DriveSpec(omega=0.9, components=(DriveComponent(1, 1.7, 0.6),))
    floquet = sambe_operator(h0, d, drive, 3)
    system = diagonalize_hermitian(floquet)
    for reference in (0, 7):
        report = sumrule_sambe(floquet, system, reference, n_electrons=1)
        assert abs(report.oracle_residual) <= 1e-10 * max(1.0, abs(report.value))
        assert report.kind == "sambe"


def test_sambe_sum_zero_drive_equals_static():
    """Zero drive reduces the extended-space sum to the static one."""
    floquet, system, _ = zero_drive_modes()
    reference = select_reference_sambe(system, floquet, np.array([1.0, 0.0, 0.0]))
    assert reference == 6
    report = sumrule_sambe(floquet, system, reference, n_electrons=1)
    static = static_trk(THREE_H, THREE_D, n_electrons=1)
    assert abs(report.value - static.value) <= 1e-10


def test_sambe_sum_rejects_incomplete_spectrum():
    """The extended-space sum demands every eigenpair."""
    floquet, system, _ = zero_drive_modes()
    truncated = diagonalize_hermitian(np.diag(system.values[:5]))
    with pytest.raises(InputError):
        sumrule_sambe(floquet, truncated, 0, n_electrons=1)


def test_ffbz_zero_drive_equals_static():
    """Zone-resolved sum without drive reproduces the static sum with all
    sideband rows empty."""
    _, _, selection = zero_drive_modes()
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0, 0.0]))
    report = sumrule_ffbz(selection, reference, n_electrons=1)
    static = static_trk(THREE_H, THREE_D, n_electrons=1)
    assert abs(report.value - static.value) <= 1e-10
    ledger = report.contributions
    assert np.all(np.abs(ledger.weight[ledger.n != 0]) <= 1e-12)
    assert report.truncation_flags == ()
    assert report.value == math.fsum(ledger.weight.tolist())


def test_static_trk_takes_an_explicit_electron_count():
    """The static sum has no default electron count either: a matter
    operator carries no basis tag to infer one from."""
    with pytest.raises(TypeError, match="n_electrons"):
        static_trk(THREE_H, THREE_D)
    assert static_trk(THREE_H, THREE_D, n_electrons=2).target == 2.0


def test_extended_sums_take_an_explicit_electron_count():
    """The Sambe, first-zone and joint sums have no default electron count:
    their operators carry no basis tag to infer one from, so the caller's
    count is the target."""
    floquet, system, selection = zero_drive_modes()
    h_joint = joint_operator(THREE_H, THREE_D, FockSpec(n_max=2, omega_c=0.9, g=0.1))
    joint = diagonalize_hermitian(h_joint)
    with pytest.raises(TypeError, match="n_electrons"):
        sumrule_sambe(floquet, system, 0)
    with pytest.raises(TypeError, match="n_electrons"):
        sumrule_ffbz(selection, 0)
    with pytest.raises(TypeError, match="n_electrons"):
        sumrule_qed(h_joint, joint, 0)
    assert sumrule_sambe(floquet, system, 0, n_electrons=2).target == 2.0
    assert sumrule_ffbz(selection, 0, n_electrons=2).target == 2.0
    assert sumrule_qed(h_joint, joint, 0, n_electrons=2).target == 2.0


def test_ffbz_high_frequency_sidebands_are_negligible():
    """Far off-resonant weak drive leaves almost no sideband weight."""
    h, d, _, _, selection = driven_two_level(10.0, 1e-3, 3)
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0]))
    report = sumrule_ffbz(selection, reference, n_electrons=1)
    weights = np.abs(report.contributions.weight)
    total = math.fsum(weights.tolist())
    off = math.fsum(weights[report.contributions.n != 0].tolist())
    assert off <= 1e-6 * total


def test_ffbz_empty_representatives():
    """An empty zone is a zone error, not a silent zero."""
    with pytest.raises(ZoneError):
        sumrule_ffbz(fabricated_zone(()), 0, n_electrons=1)
    with pytest.raises(ZoneError):
        select_reference(np.zeros((0, 5, 3)), np.array([1.0, 0.0, 0.0]))


def test_ffbz_input_validation():
    """Bad reference indices and sideband windows are rejected."""
    _, _, selection = zero_drive_modes()
    with pytest.raises(InputError):
        sumrule_ffbz(selection, 3, n_electrons=1)
    with pytest.raises(InputError):
        sumrule_ffbz(selection, 0, n_max=5, n_electrons=1)
    with pytest.raises(InputError):
        sumrule_ffbz(selection, 0, n_max=-1, n_electrons=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sel: sumrule_ffbz(sel, 1.5, n_electrons=1), "reference index must be an integer"),
        (lambda sel: sumrule_ffbz(sel, 0, 1.5, n_electrons=1), "n_max must be an integer"),
        (lambda sel: static_trk(THREE_H, THREE_D, 1.5, n_electrons=1), "eigenvector index must be an integer"),
    ],
    ids=["ffbz_reference", "ffbz_n_max", "static_reference"],
)
def test_fractional_indices_are_refused(call, message):
    """A fractional reference or sideband cap is an InputError, not a raw
    TypeError or IndexError."""
    _, _, selection = zero_drive_modes()
    with pytest.raises(InputError, match=message):
        call(selection)


def test_ffbz_incomplete_set_is_flagged():
    """A cutoff too small to cover the zone flags the report once instead of
    raising: with only m = 0 and Omega = 1, the level at 1.1 has no in-zone
    replica, and the edge-heavy reference is flagged too."""
    floquet = sambe_operator(THREE_H, THREE_D, DriveSpec(omega=1.0), 0)
    selection = fold_and_select_ffbz(diagonalize_hermitian(floquet), floquet)
    assert len(selection.blocks) == 2
    report = sumrule_ffbz(selection, 0, n_electrons=1)
    flags = report.truncation_flags
    assert flags[: len(selection.warnings)] == selection.warnings
    assert [flag for flag in flags if "representative count" in flag] == [
        "in-zone representative count 2 != matter dimension 3 (zone coverage "
        "incomplete at harmonic cutoff 0 or zone-edge degeneracy)"
    ]
    assert flags[-1].startswith("reference mode carries edge weight 1.000e+00")
    assert len(set(flags)) == len(flags) == len(selection.warnings) + 1


def test_ffbz_reference_replica_invariance():
    """Replacing the reference by one of its replicas leaves the value put
    and reindexes the ledger by the shift."""
    h, d, _, _, selection = driven_two_level(0.4, 0.05, 8)
    reference = select_reference(selection.blocks, np.array([1.0, 0.0]))
    base = sumrule_ffbz(selection, reference, n_electrons=1)
    base_abs2 = {
        (lam, n): abs2
        for lam, n, _, abs2, _ in base.contributions.rows()
        if lam != reference
    }
    for shift in (1, 2, -1):
        replica, _ = shift_replica(selection, reference, shift)
        report = sumrule_ffbz(replica, reference, n_electrons=1)
        assert abs(report.value - base.value) <= 1e-10 * max(1.0, abs(base.value))
        for lam, n, _, abs2, _ in report.contributions.rows():
            if lam == reference:
                continue
            partner = base_abs2.get((lam, n - shift))
            if partner is not None:
                assert abs(abs2 - partner) <= 1e-12


def test_spectral_density_zero_drive_sticks():
    """Without drive the stick spectrum is the bare line spectrum."""
    _, _, selection = zero_drive_modes()
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0, 0.0]))
    density = density_from_ledger(sumrule_ffbz(selection, reference, n_electrons=1))
    assert density.reference == reference
    assert len(density) == 3
    for omega, weight, lam, n in density.rows():
        assert n == 0
        bare = abs(THREE_D.matrix[0, lam]) ** 2
        assert abs(weight - bare) <= 1e-12
        diff = THREE_H.matrix[lam, lam] - THREE_H.matrix[0, 0]
        assert abs(omega - diff) <= 1e-10


def test_spectral_density_driven_sideband_weight():
    """The elastic n = 1 stick weight matches perturbation theory to 10%."""
    h, d, _, _, selection = driven_two_level(0.4, 0.01, 8)
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0]))
    density = density_from_ledger(sumrule_ffbz(selection, reference, n_electrons=1))
    omega, weight = next(
        (omega, weight)
        for omega, weight, lam, n in density.rows()
        if lam == reference and n == 1
    )
    expected = oracles.two_level_elastic_sideband(1.0, 1.0, 0.01, 0.4) ** 2
    assert abs(weight - expected) <= 0.1 * expected
    assert abs(omega - 0.4) <= 1e-10


def test_first_moment_trivial_cases():
    """The first moment of nothing is zero; one stick counts twice its area."""
    empty = np.array([])
    assert first_moment(SpectralDensity(empty, empty, empty, empty, reference=0)) == 0.0
    single = SpectralDensity(
        np.array([0.5]), np.array([1.0]), np.array([0]), np.array([0]), reference=0
    )
    assert first_moment(single) == 1.0


def test_first_moment_reproduces_ffbz_value():
    """The first moment of the plain-loop stick spectrum equals the
    zone-resolved sum to 1e-12."""
    h, d, _, _, selection = driven_two_level(0.4, 0.05, 8)
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0]))
    report = sumrule_ffbz(selection, reference, n_electrons=1)
    sticks = oracles.spectral_density(
        selection.quasienergies, modes, d.matrix, 0.4, reference
    )
    density = SpectralDensity(*map(np.array, zip(*sticks)), reference=reference)
    assert abs(first_moment(density) - report.value) <= 1e-12


def test_density_from_ledger_is_the_spectral_density():
    """The stick view of an ffbz report equals the plain-loop stick
    spectrum bit for bit, and its first moment is the report value bit for
    bit."""
    h, d, _, _, selection = driven_two_level(0.4, 0.05, 8)
    modes = selection.blocks
    reference = select_reference(modes, np.array([1.0, 0.0]))
    for n_max in (None, 3):
        report = sumrule_ffbz(selection, reference, n_max, n_electrons=1)
        density = density_from_ledger(report)
        assert density.reference == reference
        assert density.rows() == oracles.spectral_density(
            selection.quasienergies, modes, d.matrix, 0.4, reference, n_max
        )
        assert first_moment(density) == report.value
    with pytest.raises(InputError, match="ffbz"):
        density_from_ledger(static_trk(h, d, n_electrons=1))


def test_ffbz_columns_follow_the_row_formula():
    """Every ffbz ledger row and stick is its formula evaluated one row at a
    time in Python floats, bit for bit; |d^(n)|^2 is Python's complex abs
    squared."""
    rng = np.random.default_rng(5)
    modes = tuple(random_mode(rng, 2, 3) for _ in range(6))
    report = sumrule_ffbz(fabricated_zone(modes), 2, 3, n_electrons=1)
    rows = report.contributions.rows()
    assert len(rows) == len(modes) * 7
    for lam, n, diff, abs2, weight in rows:
        harmonics = dipole_fourier_components(modes[2][1], modes[lam][1], THREE_D.matrix)
        assert abs2 == abs(harmonics[n]) ** 2
        assert diff == modes[lam][0] - modes[2][0]
        assert weight == 2.0 * (diff + n * 0.7) * abs2
    sticks = [[diff + n * 0.7, abs2, lam, n] for lam, n, diff, abs2, _ in rows if abs2]
    assert density_from_ledger(report).rows() == sticks


def test_static_trk_reuses_a_given_spectrum():
    """A precomputed spectrum gives the same report as solving inside; one
    of the wrong size is refused."""
    system = diagonalize_hermitian(THREE_H.matrix)
    for reference in (0, 2):
        assert static_trk(
            THREE_H, THREE_D, reference, n_electrons=1, system=system
        ) == static_trk(THREE_H, THREE_D, reference, n_electrons=1)
    with pytest.raises(InputError, match="eigenpairs"):
        static_trk(THREE_H, THREE_D, n_electrons=1, system=diagonalize_hermitian(np.eye(2)))


def test_aggregated_contributions_merge_degeneracies():
    """Degenerate final states merge into one basis-independent row."""
    h = MatterOperator(np.diag([0.0, 0.5, 0.5]))
    report = static_trk(h, THREE_D, n_electrons=1)
    merged = report.aggregated_contributions()
    assert len(merged) == 2
    group = report.contributions.weight[np.isin(report.contributions.lam, (1, 2))]
    top = merged.lam == 1
    assert merged.weight[top].item() == math.fsum(group.tolist())
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    rotated = MatterOperator(u.T @ THREE_D.matrix @ u)
    other = static_trk(h, rotated, n_electrons=1).aggregated_contributions()
    partner = other.lam == 1
    assert abs(merged.abs2[top].item() - other.abs2[partner].item()) <= 1e-12
    assert abs(merged.weight[top].item() - other.weight[partner].item()) <= 1e-12


def planted_levels(rng, tol, count):
    """Random levels with exact ties and chains of steps just under ``tol``
    that run longer than ``tol``, in random order."""
    levels = list(rng.uniform(-0.4, 0.4, size=count // 2))
    for _ in range(2):
        levels.append(levels[int(rng.integers(len(levels)))])
    while len(levels) < count:
        start = float(rng.uniform(-0.4, 0.4))
        steps = rng.uniform(0.3, 0.9, size=int(rng.integers(2, 5))) * tol
        levels.extend(start + np.concatenate(([0.0], np.cumsum(steps))))
    levels = np.array(levels[:count])
    rng.shuffle(levels)
    return levels


def serialized_rows(report, view):
    """The ledger as ``report.json`` writes it, zipped into rows, or the
    aggregated view as rows."""
    if view == "aggregated_contributions":
        return report.aggregated_contributions().rows()
    return column_rows(cli._sumrule_payload(report)[view], Ledger.HEADER)


def test_aggregation_is_the_row_by_row_merge():
    """The aggregated ledger equals the row-at-a-time merge exactly, on
    ledgers with ties, chains longer than the tolerance and many n."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        energies = np.sort(planted_levels(rng, 1e-9, 16))
        h = MatterOperator(np.diag(energies))
        d = MatterOperator(oracles.random_hermitian(rng, 16).real)
        report = static_trk(h, d, reference=int(rng.integers(16)), n_electrons=1)
        expected = oracles.aggregated_rows(serialized_rows(report, "contributions"), 1e-9)
        assert serialized_rows(report, "aggregated_contributions") == expected
        assert len(expected) < 16

        omega = 0.7
        modes = tuple(
            (float(q), random_blocks(rng, 2, 3)) for q in planted_levels(rng, 1e-9 * omega, 14)
        )
        report = sumrule_ffbz(fabricated_zone(modes, omega), trial, n_electrons=1)
        rows = serialized_rows(report, "contributions")
        assert {row[1] for row in rows} == set(range(-4, 5))
        expected = oracles.aggregated_rows(rows, 1e-9 * omega)
        assert serialized_rows(report, "aggregated_contributions") == expected
        assert len(expected) < len(rows)


def test_select_reference_picks_ground_character():
    """The auto reference is the representative overlapping the ground state."""
    _, _, _, _, selection = driven_two_level(2.5, 0.1, 6)
    index = select_reference(selection.blocks, np.array([1.0, 0.0]))
    assert index == 0
    weight_0 = float(np.abs(selection.blocks[0, 6, 0]) ** 2)
    weight_1 = float(np.abs(selection.blocks[1, 6, 0]) ** 2)
    assert weight_0 > weight_1


def grid_reports(drive, reflection):
    """Static, Sambe, ffbz and qed reports of a 21-point harmonic grid, each
    solved in parity sectors when ``reflection`` is given."""
    grid = GridBasis(-5.0, 5.0, 21)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    matter = diagonalize_hermitian(h.matrix, reflection=reflection)
    sambe = sambe_operator(h, d, drive, 3, reflection)
    system = diagonalize_hermitian(sambe)
    selection = fold_and_select_ffbz(system, sambe)
    h_joint = joint_operator(h, d, FockSpec(n_max=4, omega_c=0.9, g=0.2), reflection)
    split = reflection is not None
    assert sambe.splits == h_joint.splits == split
    assert len(matter.sectors) == len(system.sectors) == (2 if split else 1)
    return {
        "static": static_trk(h, d, 0, n_electrons=1, system=matter),
        "sambe": sumrule_sambe(sambe, system, selection.source_indices[0], n_electrons=1),
        "ffbz": sumrule_ffbz(selection, 0, n_electrons=1),
        "qed": sumrule_qed(h_joint, diagonalize_hermitian(h_joint), 0, n_electrons=1),
    }


@pytest.mark.parametrize(
    "drive",
    [
        DriveSpec(omega=0.7, components=(DriveComponent(1, 0.3),)),
        DriveSpec(omega=0.7, components=(DriveComponent(1, 0.3, 0.7), DriveComponent(3, 0.1))),
    ],
    ids=["real", "complex"],
)
def test_sector_ledgers_match_the_dense_solve(drive):
    """Every report read off parity-sector spectra has the ledger of the
    dense solve without a reflection, row by row within 1e-12 of the
    column's scale, and its value and oracle value within 1e-12 relative."""
    split = grid_reports(drive, basis_reversal(21))
    dense = grid_reports(drive, None)
    for kind, report in split.items():
        reference = dense[kind]
        for key in ("value", "oracle_value"):
            want = getattr(reference, key)
            assert abs(getattr(report, key) - want) <= 1e-12 * abs(want), (kind, key)
        for column in ("lam", "n", "quasienergy_diff", "abs2", "weight"):
            got = getattr(report.contributions, column)
            want = getattr(reference.contributions, column)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (kind, column)
