"""Joint light-matter models and the photon-cutoff converge job."""

import functools

import numpy as np
import pytest

import oracles
from helpers import (
    assert_band_is_sector,
    assert_same_spectrum,
    band_joint,
    capped_threads,
    dense_vectors,
    record_lapack_solves,
    row_sector,
    select_reference_joint,
    values_only_sector,
)
from floqtrk import (
    FockSpec,
    GridBasis,
    InputError,
    MatterOperator,
    PotentialSpec,
    Reflection,
    SizeError,
    basis_reversal,
    build_dipole,
    build_grid_hamiltonian,
    diagonalize_hermitian,
    ProductOperator,
    joint_operator,
    static_trk,
    sumrule_qed,
)
from floqtrk import floquet, lapack
from floqtrk.cli import load_config, run_job

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
TWO_H = MatterOperator(np.diag([0.0, 1.0]))
TWO_D = MatterOperator(SX)
#: TWO_H and TWO_D, and an 11-point harmonic grid on [-5, 5], as config models.
TWO_LEVEL = "{kind: few_level, energies: [0.0, 1.0], dipole: [[0.0, 1.0], [1.0, 0.0]]}"
GRID_11 = "{kind: grid, grid: {n_points: 11, x_min: -5.0, x_max: 5.0}}"


def qed_report(h, d, fock, reference=0):
    """Diagonalize the joint Hamiltonian and evaluate its sum rule."""
    h_joint = joint_operator(h, d, fock)
    system = diagonalize_hermitian(h_joint)
    report = sumrule_qed(h_joint, system, reference, n_electrons=1)
    return report, system, h_joint


def write_scan(tmp_path, model, cutoffs, omega_c, g, reference="auto"):
    """A photon-cutoff converge job of ``model`` (a YAML flow mapping)."""
    path = tmp_path / "scan.yaml"
    path.write_text(
        "job: converge\n"
        f"converge: {{axis: fock_n_max, values: {list(cutoffs)}}}\n"
        f"model: {model}\n"
        f"fock: {{omega_c: {omega_c}, g: {g}}}\n"
        f"reference: {reference}\n"
    )
    return path


def photon_scan(tmp_path, model, cutoffs, omega_c, g, reference="auto"):
    """The run of :func:`write_scan`'s job."""
    return run_job(load_config(write_scan(tmp_path, model, cutoffs, omega_c, g, reference)))


def test_fock_spec_validation():
    """Negative cutoffs, bad frequencies, and complex couplings are refused."""
    with pytest.raises(InputError):
        FockSpec(n_max=-1, omega_c=1.0, g=0.1)
    with pytest.raises(InputError):
        FockSpec(n_max=4, omega_c=0.0, g=0.1)
    with pytest.raises(InputError):
        FockSpec(n_max=4, omega_c=1.0, g=0.1 + 0.2j)


def test_fock_operator_entries():
    """Number and displacement operators of the Kronecker reference build
    have the textbook entries."""
    number = oracles.fock_number_operator(3)
    assert np.array_equal(number, np.diag([0.0, 1.0, 2.0, 3.0]))
    disp = oracles.fock_displacement_operator(3)
    assert abs(disp[0, 1] - 1.0) < 1e-15
    assert abs(disp[1, 2] - np.sqrt(2.0)) < 1e-15
    assert abs(disp[2, 3] - np.sqrt(3.0)) < 1e-15
    assert np.array_equal(disp, disp.T)
    assert abs(disp[0, 2]) == 0.0


def test_joint_dimension_and_hermiticity():
    """Two matter levels and four photon levels give an 8x8 Hermitian matrix."""
    fock = FockSpec(n_max=3, omega_c=1.0, g=0.1)
    h_joint = joint_operator(TWO_H, TWO_D, fock)
    full = h_joint.toarray()
    assert h_joint.shape == full.shape == (8, 8)
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12


def test_joint_spectrum_separates_without_coupling():
    """At g = 0 the joint spectrum is every E_a + k * omega_c."""
    fock = FockSpec(n_max=3, omega_c=0.7, g=0.0)
    h_joint = joint_operator(TWO_H, TWO_D, fock).toarray()
    expected = np.sort([e + k * 0.7 for e in (0.0, 1.0) for k in range(4)])
    assert np.max(np.abs(np.linalg.eigvalsh(h_joint) - expected)) < 1e-12


def test_joint_size_guard():
    """Product dimensions beyond the dense guard are rejected."""
    big = MatterOperator(np.zeros((100, 100)))
    with pytest.raises(SizeError):
        joint_operator(big, big, FockSpec(n_max=99, omega_c=1.0, g=0.1))


def test_joint_dimension_mismatch():
    """Matter Hamiltonian and dipole dimensions must agree."""
    d3 = MatterOperator(np.zeros((3, 3)))
    with pytest.raises(InputError):
        joint_operator(TWO_H, d3, FockSpec(n_max=2, omega_c=1.0, g=0.1))


def test_dipole_commutes_with_field_terms():
    """d (x) I commutes with every photon-only and coupling term."""
    fock = FockSpec(n_max=4, omega_c=0.9, g=0.3)
    h_joint = joint_operator(TWO_H, TWO_D, fock)
    dj = oracles.kron_joint_dipole(TWO_D.matrix, fock.n_max)
    field_part = h_joint.toarray() - np.kron(np.eye(5), TWO_H.matrix)
    comm = dj @ field_part - field_part @ dj
    assert np.max(np.abs(comm)) <= 1e-12


def test_uncoupled_sum_equals_static():
    """At g = 0 the joint sum collapses to the static matter sum."""
    fock = FockSpec(n_max=6, omega_c=0.7, g=0.0)
    report, _, _ = qed_report(TWO_H, TWO_D, fock)
    static = static_trk(TWO_H, TWO_D, n_electrons=1)
    assert abs(report.value - static.value) <= 1e-10
    assert report.kind == "qed"
    assert report.omega is None


def test_weak_coupling_continuity():
    """A vanishing coupling changes the sum by far less than 1e-6."""
    base, _, _ = qed_report(TWO_H, TWO_D, FockSpec(n_max=8, omega_c=0.9, g=0.0))
    tiny, _, _ = qed_report(TWO_H, TWO_D, FockSpec(n_max=8, omega_c=0.9, g=1e-6))
    assert abs(tiny.value - base.value) <= 1e-6


def test_grid_matter_with_photon_mode():
    """The coupled oscillator grid keeps the one-electron sum."""
    grid = GridBasis(-10.0, 10.0, 61)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0), "sinc_dvr")
    d = build_dipole(grid)
    fock = FockSpec(n_max=12, omega_c=1.2, g=0.05)
    report, system, _ = qed_report(h, d, fock)
    assert abs(report.value - 1.0) <= 1e-10
    assert abs(report.oracle_residual) <= 1e-8 * abs(report.value)
    matter_ground = dense_vectors(diagonalize_hermitian(h.matrix))[:, 0]
    assert select_reference_joint(system, matter_ground, 13) == 0


def test_two_level_sum_is_not_saturated():
    """A strongly coupled two-level system misses the sum badly while the
    closure identity still holds to machine precision."""
    fock = FockSpec(n_max=20, omega_c=0.9, g=0.3)
    report, _, _ = qed_report(TWO_H, TWO_D, fock)
    assert abs(report.value - 1.0) > 0.5
    assert abs(report.oracle_residual) <= 1e-8 * max(1.0, abs(report.value))


def test_closure_identity_every_joint_reference():
    """The sum matches the double commutator from every joint eigenstate."""
    fock = FockSpec(n_max=5, omega_c=0.9, g=0.2)
    h_joint = joint_operator(TWO_H, TWO_D, fock)
    system = diagonalize_hermitian(h_joint)
    dj = oracles.kron_joint_dipole(TWO_D.matrix, fock.n_max)
    for reference in range(12):
        report = sumrule_qed(h_joint, system, reference, n_electrons=1)
        assert abs(report.oracle_residual) <= 1e-10 * max(1.0, abs(report.value))
        direct = oracles.double_commutator_value(
            h_joint.toarray(), dj, dense_vectors(system)[:, reference]
        )
        assert abs(report.value - direct) <= 1e-10 * max(1.0, abs(report.value))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_max": 2.5}, "photon cutoff must be an integer"),
        ({"omega_c": float("nan")}, "mode frequency must be finite and > 0"),
    ],
    ids=["fractional_n_max", "nan_omega_c"],
)
def test_fock_spec_refuses_bad_inputs(kwargs, message):
    """A fractional cutoff or a NaN mode frequency is refused."""
    with pytest.raises(InputError, match=message):
        FockSpec(**{"n_max": 3, "omega_c": 0.9, "g": 0.1, **kwargs})


def test_qed_sum_input_checks():
    """An incomplete spectrum is rejected."""
    fock = FockSpec(n_max=3, omega_c=0.9, g=0.1)
    h_joint = joint_operator(TWO_H, TWO_D, fock)
    system = diagonalize_hermitian(h_joint)
    truncated = diagonalize_hermitian(np.diag(system.values[:4]))
    with pytest.raises(InputError, match="complete qed dimension 8"):
        sumrule_qed(h_joint, truncated, 0, n_electrons=1)


def test_spectrum_is_bounded_below():
    """The joint spectrum has a true ground state overlapping matter ground
    (x) vacuum, with no folding ambiguity."""
    fock = FockSpec(n_max=10, omega_c=0.9, g=0.05)
    _, system, _ = qed_report(TWO_H, TWO_D, fock)
    assert np.all(np.diff(system.values) >= 0.0)
    assert select_reference_joint(system, np.array([1.0, 0.0]), 11) == 0


def test_cutoff_family_uncoupled_is_flat(tmp_path):
    """At g = 0 every enlargement changes nothing."""
    rows = photon_scan(tmp_path, TWO_LEVEL, (2, 4, 6), omega_c=0.7, g=0.0).convergence
    assert rows[0]["delta"] is None
    for row in rows[1:]:
        assert abs(row["delta"]) <= 1e-12
    for row in rows:
        assert abs(row["oracle_residual"]) <= 1e-10


def test_cutoff_family_deltas_shrink(tmp_path):
    """For a low-frequency mode on a parity-broken dipole the inter-row
    deltas decrease strictly with the cutoff."""
    model = "{kind: few_level, energies: [0.0, 0.5], dipole: [[2.0, 1.0], [1.0, -2.0]]}"
    rows = photon_scan(tmp_path, model, (4, 8, 16, 32), omega_c=0.02, g=0.01).convergence
    deltas = [abs(row["delta"]) for row in rows[1:]]
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] < 1e-8


def test_cutoff_convergence_depends_on_coupling(tmp_path):
    """A weak coupling converges at a smaller photon cutoff than a strong
    one under the same policy."""
    cutoffs = (4, 8, 16, 24)
    weak = photon_scan(tmp_path, TWO_LEVEL, cutoffs, omega_c=0.9, g=0.01).convergence
    strong = photon_scan(tmp_path, TWO_LEVEL, cutoffs, omega_c=0.9, g=0.45).convergence
    first_weak = next(row["n_max"] for row in weak if row["converged"])
    first_strong = next(row["n_max"] for row in strong if row["converged"])
    assert first_weak == 8
    assert first_strong == 16
    assert not strong[0]["converged"]
    assert not strong[1]["converged"]


def test_edge_population_is_the_top_two_fock_levels(tmp_path):
    """A row's edge population is the reference state's weight in the two
    highest photon levels, read off a reshape of its eigenvector."""
    family = [FockSpec(n_max=n, omega_c=0.9, g=0.3) for n in (2, 4, 6)]
    for reference in (0, 1):
        rows = photon_scan(
            tmp_path, TWO_LEVEL, (2, 4, 6), omega_c=0.9, g=0.3, reference=reference
        ).convergence
        for row, fock in zip(rows, family):
            _, system, _ = qed_report(TWO_H, TWO_D, fock)
            state = dense_vectors(system)[:, reference].reshape(fock.dim, TWO_H.dim)
            expected = float(np.sum(np.abs(state[-2:]) ** 2))
            assert abs(row["edge_population"] - expected) <= 1e-15
            assert expected > 1e-10


@pytest.mark.parametrize("g", [0.3, -0.07, 0.0, 0.123456789])
def test_joint_operators_bit_equal_to_kron_reference(g):
    """The joint operator and its dipole lifted to I (x) d, written out in
    full, reproduce the Kronecker build bit for bit, signed zeros included,
    on matrices with negative and zero entries."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    a[rng.random((5, 5)) < 0.3] = 0.0
    h_mat = (a + a.T) / 2.0
    h_mat[0, 3] = h_mat[3, 0] = -0.0
    b = rng.standard_normal((5, 5))
    b[rng.random((5, 5)) < 0.3] = 0.0
    d_mat = (b + b.T) / 2.0
    h = MatterOperator(h_mat)
    d = MatterOperator(d_mat)
    for n_max in (0, 1, 6):
        fock = FockSpec(n_max=n_max, omega_c=0.9, g=g)
        h_joint = joint_operator(h, d, fock)
        joint = h_joint.toarray()
        reference = oracles.kron_joint_hamiltonian(h_mat, d_mat, n_max, 0.9, g)
        assert joint.dtype == reference.dtype and joint.shape == reference.shape
        assert joint.tobytes() == reference.tobytes()
        lifted = ProductOperator(matter=h_joint.dipole, labels=h_joint.labels).toarray()
        reference_d = oracles.kron_joint_dipole(d_mat, n_max)
        assert lifted.dtype == reference_d.dtype and lifted.shape == reference_d.shape
        assert lifted.tobytes() == reference_d.tobytes()


def test_cutoff_rows_keep_their_reports(tmp_path):
    """Each convergence row holds its member's value and oracle residual,
    and the scan reports the last member's full sum rule: the report of
    the joint operator solved for its reference, as the scan solves it."""

    def member(fock):
        h_joint = joint_operator(TWO_H, TWO_D, fock)
        system = diagonalize_hermitian(h_joint, reference=0)
        return sumrule_qed(h_joint, system, 0, n_electrons=1)

    family = [FockSpec(n_max=n, omega_c=0.9, g=0.3) for n in (2, 4, 6)]
    scan = photon_scan(tmp_path, TWO_LEVEL, (2, 4, 6), omega_c=0.9, g=0.3)
    for row, fock in zip(scan.convergence, family):
        report = member(fock)
        assert report.value == row["value"]
        assert report.oracle_residual == row["oracle_residual"]
    final = scan.primary_report()
    assert final.kind == "qed"
    assert len(final.contributions) == 2 * family[-1].dim
    assert final == member(family[-1])


def test_joint_matrix_is_solved_in_two_sectors(monkeypatch):
    """On a symmetric grid, x -> -x together with (-1)^n commutes with the
    joint Hamiltonian: 11 points x 5 photon levels are 25 mirror pairs plus
    the centre point with n = 0, 2, 4 (even) and n = 1, 3 (odd). The dense
    matrix with the lifted reflection and the structured operator, which
    decides the split on H_M and d, solve the same two sectors."""
    grid = GridBasis(-5.0, 5.0, 11)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    fock = FockSpec(n_max=4, omega_c=0.9, g=0.2)
    h_joint = oracles.kron_joint_hamiltonian(h.matrix, d.matrix, 4, 0.9, 0.2)
    operator = joint_operator(h, d, fock, basis_reversal(11))
    assert operator.toarray().tobytes() == h_joint.tobytes()
    perm, signs = basis_reversal(11)
    lifted = oracles.lifted_reflection(perm, signs, np.arange(fock.dim))
    dense = diagonalize_hermitian(h_joint)
    solved = record_lapack_solves(monkeypatch)
    for system in (
        diagonalize_hermitian(h_joint, reflection=Reflection(*lifted)),
        diagonalize_hermitian(operator),
    ):
        assert_same_spectrum(h_joint, system, dense)
    assert solved == [28, 27, 28, 27]


def grid_joint(n_max=4, g=0.2, dipole=None):
    """The joint operator of the 11-point harmonic grid on [-5, 5], with its
    x -> -x reflection; ``dipole`` replaces the grid's d = -x."""
    grid = GridBasis(-5.0, 5.0, 11)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid) if dipole is None else dipole
    return joint_operator(h, d, FockSpec(n_max=n_max, omega_c=0.9, g=g), basis_reversal(11))


def test_values_only_sector_keeps_the_reference_vector_only():
    """With a reference, the joint grid keeps the reference's own sector
    values-only: columns() gives the reference vector and refuses the
    sector's others; amplitudes() gives exact zeros across that sector for
    the odd x = (I (x) d) psi named by its reference and dipole, and that
    sector refuses an x with a real component there. The opposite sector
    keeps no vector and refuses an unnamed x, which lies in it."""
    operator = grid_joint()
    full = diagonalize_hermitian(operator)
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    for reference in (0, 7):
        system = diagonalize_hermitian(operator, reference=reference)
        sector = values_only_sector(system)
        assert sector.ranks[sector.kept].tolist() == [reference]
        assert sector.vectors.shape == (sector.ranks.size, 1)
        position, opposite = row_sector(system)
        assert opposite.kept.size == 0 and opposite.vectors.shape == (opposite.ranks.size, 0)
        psi = system.column(reference)
        expected = full.column(reference)
        assert np.max(np.abs(psi * np.sign(psi @ expected) - expected)) <= 1e-12
        other = int(sector.ranks[sector.ranks != reference][0])
        message = f"eigenvector {other} lies in a values-only sector, which keeps only "
        with pytest.raises(InputError, match=f"{message}eigenvectors \\[{reference}\\]"):
            system.columns([reference, other])
        first = int(opposite.ranks[0])
        with pytest.raises(InputError, match=f"eigenvector {first} lies in a values-only"):
            system.column(first)
        x = lifted @ psi
        amps = system.amplitudes(x, reference=reference, dipole=operator.dipole)
        assert np.all(amps[sector.ranks] == 0.0)
        # the opposite sector's ranks in both solves: a near-tie across the
        # sectors (the top levels here) may be ranked either way round
        ranks = np.intersect1d(opposite.ranks, full.sectors[position].ranks)
        difference = np.abs(amps[ranks]) - np.abs(full.amplitudes(x)[ranks])
        assert np.max(np.abs(difference)) <= 1e-12
        # named, the row is served and the own sector refuses a leak there
        own_leak = "component of norm .* in a values-only sector .* were not solved$"
        for leaky in (psi, x + 1e-9 * psi):
            with pytest.raises(InputError, match=own_leak):
                system.amplitudes(leaky, reference=reference, dipole=operator.dipole)
        row_only = f"holds only the dipole row of eigenvector {reference}$"
        with pytest.raises(InputError, match=row_only):
            system.amplitudes(x)


@functools.cache
def grid_joint_exact():
    """Every eigenstate of :func:`grid_joint` solved at 30 digits, with its
    dipole row over the other sector (:func:`oracles.exact_dipole_rows`)."""
    operator = grid_joint()
    perm, signs = oracles.lifted_reflection(*basis_reversal(11), operator.labels)
    dipole = oracles.kron_joint_dipole(operator.dipole, operator.labels.size - 1)
    return oracles.exact_dipole_rows(operator.toarray(), dipole, perm, signs)


def test_every_joint_reference_matches_the_full_solve(monkeypatch):
    """From every reference of the joint grid, the values-only solve (two
    block reductions and the row sector's row solve, then both sectors by
    eigh for a tie across the sectors) gives the full solve's spectrum
    within 1e-12 relative, and the sum of the exact solve (30 digits)
    within 1e-12 relative (absolute below 1); its own-sector ledger rows
    are exact zeros. The double-precision full solve's own sums lie up to
    6e-13 from the exact ones here, so two rounded solves are compared
    with the exact sum, not with each other."""
    operator = grid_joint()
    full = diagonalize_hermitian(operator)
    scale = float(np.max(np.abs(full.values)))
    exact = [state.total for state in grid_joint_exact()]
    solved = record_lapack_solves(monkeypatch)
    for reference in range(operator.shape[0]):
        solved.clear()
        system = diagonalize_hermitian(operator, reference=reference)
        assert solved[:2] == [28, 27] and len(solved) in (3, 5)
        assert np.max(np.abs(system.values - full.values)) <= 1e-12 * scale
        report = sumrule_qed(operator, system, reference, n_electrons=1)
        assert abs(report.value - exact[reference]) <= 1e-12 * max(1.0, abs(exact[reference]))
        assert abs(report.oracle_residual) <= 1e-12 * max(1.0, abs(report.value))
        if len(solved) == 3:
            own = values_only_sector(system).ranks
            assert np.all(report.contributions.abs2[own] == 0.0)
            assert np.all(report.contributions.weight[own] == 0.0)


def test_joint_dipole_row_matches_the_full_solve(monkeypatch):
    """From every reference of the joint grid (two block reductions and
    the opposite sector's row solve each, no fallback), the opposite
    sector holds the reference's dipole row: each |row_j| is the exact
    one (30 digits) within max(1e-12, m eps ||A|| ||x|| / gap_j), gap_j
    the distance of value j to the nearest other of the sector: an
    eigenvector is fixed to about eps ||A|| / gap_j only (Davis-Kahan), and
    for the pair 4.6e-3 apart here eigh's rows themselves lie 1.8e-12
    from the exact ones. The row is served only when named by that
    reference and that very dipole array: an unnamed vector, another
    reference and an equal copy of the dipole are refused. The exceptions
    are the two levels that a level of the other sector ties within
    1e-13 (9e-15 apart here; the next closest pair across the sectors is
    6e-13 apart): after the row solve the merge declines them, and they are
    solved in full."""
    operator = grid_joint()
    full = diagonalize_hermitian(operator)
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    plus, minus = (sector.ranks for sector in full.sectors)
    ties = [
        r for r in range(operator.shape[0])
        if np.min(np.abs(full.values[minus if r in plus else plus] - full.values[r])) <= 1e-13
    ]
    eps = np.finfo(np.float64).eps
    solved = record_lapack_solves(monkeypatch)
    tied = []
    for reference, exact in enumerate(grid_joint_exact()):
        solved.clear()
        system = diagonalize_hermitian(operator, reference=reference)
        if all(sector.kept is None for sector in system.sectors):
            assert solved[:2] == [28, 27] and solved[3:] == [28, 27]
            tied.append(reference)
            continue
        _, opposite = row_sector(system)
        m = opposite.ranks.size
        assert solved == [28, 27, m]
        assert opposite.row.reference == reference and opposite.row.dipole is operator.dipole
        x = lifted @ system.column(reference)
        amps = system.amplitudes(x, reference=reference, dipole=operator.dipole)
        assert np.array_equal(amps[opposite.ranks], opposite.row.amplitudes)
        steps = np.diff(exact.other_values)
        gaps = np.minimum(np.append(steps, np.inf), np.insert(steps, 0, np.inf))
        scale = np.max(np.abs(exact.other_values))
        bound = np.maximum(1e-12, m * eps * scale * np.linalg.norm(x) / gaps)
        assert np.all(np.abs(np.abs(opposite.row.amplitudes) - np.abs(exact.row)) <= bound)
        for names in (
            {},
            {"reference": (reference + 1) % operator.shape[0], "dipole": operator.dipole},
            {"reference": reference, "dipole": operator.dipole.copy()},
        ):
            with pytest.raises(InputError, match="holds only the dipole row of eigenvector"):
                system.amplitudes(x, **names)
    assert len(tied) == 2 and tied == ties


def test_cross_sector_tie_takes_the_fallback(monkeypatch):
    """H_M = 1 on two mirrored sites, d = diag(-1, 1): every joint level is
    shared by both sectors, so every reference is a tie the merge sees,
    and the solve matches the full solve. When the merge ranks a tie the
    other way from the bisection that picked the reference's sector, the
    operator is solved again with every vector: forced at n_max = 0, whose
    two 1 x 1 sectors hold the same value bit for bit, by raising the +1
    sector's bisection values by 1e-9 for the choice, whose eigenpair is
    then solved at the value bisected afresh. There each rank takes the band
    route (kd = 0): both bands are reduced and the row sector's band is
    solved for the row before the merge declines it, and both sectors are
    then solved by eigh."""
    h, d = MatterOperator(np.eye(2)), MatterOperator(np.diag([-1.0, 1.0]))
    operator = joint_operator(h, d, FockSpec(n_max=3, omega_c=0.9, g=0.2), basis_reversal(2))
    full = diagonalize_hermitian(operator)
    assert np.all(np.diff(full.values)[::2] <= 1e-12)  # tied pairs
    for reference in range(operator.shape[0]):
        system = diagonalize_hermitian(operator, reference=reference)
        assert np.max(np.abs(system.values - full.values)) <= 1e-12 * np.max(full.values)
        # [d, [H_M, d]] = 0: the sum is zero
        report = sumrule_qed(operator, system, reference, n_electrons=1)
        assert abs(report.value) <= 1e-12 and abs(report.oracle_residual) <= 1e-12

    operator = joint_operator(h, d, FockSpec(n_max=0, omega_c=0.9, g=0.2), basis_reversal(2))
    lowest, eigenpairs = floquet._BlockSolve.lowest, floquet._BlockSolve.eigenpairs
    parities = iter([1, -1] * 2)

    def raised(block_solve, count):
        values = lowest(block_solve, count)
        return values + 1e-9 if next(parities) == 1 else values

    monkeypatch.setattr(floquet._BlockSolve, "lowest", raised)
    def bisected_afresh(block_solve, ks, values):
        return eigenpairs(block_solve, ks)

    monkeypatch.setattr(floquet._BlockSolve, "eigenpairs", bisected_afresh)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    for reference in (0, 1):
        system = diagonalize_hermitian(operator, reference=reference)
        assert all(sector.kept is None for sector in system.sectors)
        assert system.values[0] == system.values[1]
        report = sumrule_qed(operator, system, reference, n_electrons=1)
        assert abs(report.oracle_residual) <= 1e-15
    assert solved == [1, 1, 1, 1, 1] * 2 and bands == [1, 1, 1] * 2


def test_even_dipole_at_zero_coupling_takes_the_full_solve(monkeypatch):
    """At g = 0 the joint operator splits on H_M alone, whatever d is. An
    even "dipole" (d = x^2) is not odd under x -> -x, so a reference solve
    keeps every vector, and matches the solve without a reference within
    1e-12; the odd d = -x at g = 0 takes the values-only route."""
    x = GridBasis(-5.0, 5.0, 11).points()
    operator = grid_joint(n_max=3, g=0.0, dipole=MatterOperator(np.diag(x**2)))
    assert operator.splits and not operator.odd_dipole
    assert grid_joint(n_max=3, g=0.0).odd_dipole
    full = diagonalize_hermitian(operator)
    solved = record_lapack_solves(monkeypatch)
    for reference in (0, 5):
        system = diagonalize_hermitian(operator, reference=reference)
        assert all(sector.kept is None for sector in system.sectors)
        assert np.max(np.abs(system.values - full.values)) <= 1e-12 * np.max(full.values)
        report = sumrule_qed(operator, system, reference, n_electrons=1)
        expected = sumrule_qed(operator, full, reference, n_electrons=1)
        assert abs(report.value - expected.value) <= 1e-12 * max(1.0, abs(expected.value))
    assert solved == [22, 22] * 2
    system = diagonalize_hermitian(grid_joint(n_max=3, g=0.0), reference=0)
    sector = values_only_sector(system)
    assert sector.ranks[sector.kept].tolist() == [0]


@pytest.mark.parametrize(
    "x_max, potential",
    [(6.0, PotentialSpec.harmonic(1.0)), (5.0, PotentialSpec.tabulated(np.linspace(0.0, 1.0, 11)))],
    ids=["asymmetric_grid", "ramp_potential"],
)
def test_joint_operator_fallback_is_the_unsplit_solve(monkeypatch, x_max, potential):
    """A joint operator whose matter Hamiltonian is not mirror-symmetric takes
    one full-size solve, bit-equal to the solve of its full matrix."""
    grid = GridBasis(-5.0, x_max, 11)
    h = build_grid_hamiltonian(grid, potential)
    operator = joint_operator(
        h, build_dipole(grid), FockSpec(n_max=4, omega_c=0.9, g=0.2), basis_reversal(11)
    )
    assert not operator.splits
    plain = diagonalize_hermitian(operator.toarray())
    solved = record_lapack_solves(monkeypatch)
    system = diagonalize_hermitian(operator)
    assert solved == [55]
    assert np.array_equal(system.values, plain.values)
    assert np.array_equal(dense_vectors(system), dense_vectors(plain))


def test_cutoff_family_lifts_the_matter_reflection(tmp_path, monkeypatch):
    """The photon-cutoff converge job solves every grid member in its two
    sectors, with the values of the unsplit solve. With one slot the
    members run in turn, in cutoff order; with two, the same solves are
    made in some order."""
    config = load_config(
        write_scan(tmp_path, GRID_11, (2, 3, 4), omega_c=0.9, g=0.2)
    )
    h, d, _ = config.matter()
    dense = [
        qed_report(h, d, FockSpec(n_max=n, omega_c=0.9, g=0.2))[0] for n in (2, 3, 4)
    ]
    solved = record_lapack_solves(monkeypatch)
    with monkeypatch.context() as patch:
        capped_threads(patch, 1)
        rows = run_job(config).convergence
    # both reductions, then the row sector's T, for each member
    expected = [17, 16, 16, 22, 22, 22, 28, 27, 27]
    assert solved == expected
    solved.clear()
    capped_threads(monkeypatch, 2)
    assert run_job(config).convergence == rows
    assert sorted(solved) == sorted(expected)
    for row, reference in zip(rows, dense):
        assert abs(row["value"] - reference.value) <= 1e-12 * abs(reference.value)
        assert abs(row["oracle_residual"]) <= 1e-12


@pytest.mark.parametrize("n_max", [4, 10])
def test_joint_band_is_the_sector_block(n_max):
    """On the 201-point grid of the converge benchmark, each sector band is
    the sector block in (matter coordinate, photon number) order bit for
    bit, with kd = n_max + 1: H_M is tridiagonal and d diagonal."""
    operator = band_joint(201, n_max)
    for parity in (1, -1):
        assert assert_band_is_sector(operator, parity) == n_max + 1


def test_band_ground_vector_is_eighs():
    """On the 201-point grid with n_max = 8 (m = 905, kd 9), the bisection
    ground of the band's T is eigh's lowest within 1e-11, and inverse
    iteration there gives eigh's ground vector within 3e-14 up to sign.
    The steps taken after the first within the rounding margin matter:
    that first vector is off by about 2e-13 here."""
    operator = band_joint(201, 8)
    band, order = operator.sector_band(1)
    values, vectors = np.linalg.eigh(operator.sector(1)[0])
    ground = float(lapack.lowest(lapack.band_reduce(band), 1)[0])
    assert abs(ground - values[0]) <= 1e-11
    vector, expected = lapack.band_eigenvector(band, ground), vectors[order, 0]
    assert np.max(np.abs(vector * np.sign(vector @ expected) - expected)) <= 3e-14


def test_dense_matter_band_is_too_wide(monkeypatch):
    """With sinc_dvr, H_M is dense, so the band is as wide as the sector:
    the band route is not taken and a rank-0 solve reduces both dense
    blocks, then solves the -1 block's T for the row."""
    operator = band_joint(81, 8, kinetic="sinc_dvr")
    for parity in (1, -1):
        kd = assert_band_is_sector(operator, parity)
        assert floquet.BAND_RATIO * kd > operator.shape[0] // 2
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    diagonalize_hermitian(operator, reference=0)
    assert solved == [365, 364, 364] and bands == [364]


def assert_matches_full_solve(operator, system, full, reference=0):
    """Eigenvalues within 1e-11 of the full solve, the reference vector
    within 1e-12 up to sign, the qed sum within 1e-12 relative and its
    closure residual at most 1e-12 relative."""
    assert np.max(np.abs(system.values - full.values)) <= 1e-11
    psi, expected = system.column(reference), full.column(reference)
    assert np.max(np.abs(psi * np.sign(psi @ expected) - expected)) <= 1e-12
    report = sumrule_qed(operator, system, reference, n_electrons=1)
    exact = sumrule_qed(operator, full, reference, n_electrons=1)
    assert abs(report.value - exact.value) <= 1e-12 * abs(exact.value)
    assert abs(report.oracle_residual) <= 1e-12 * abs(report.value)


@pytest.mark.parametrize(
    "rank, signs",
    [(0, 1.0), (0, -1.0), (2, 1.0), (2, -1.0)],
    ids=["rank0_plus", "rank0_minus", "rank2_plus", "rank2_minus"],
)
def test_reference_rank_takes_the_band_route(monkeypatch, rank, signs):
    """On the 81-point grid with n_max = 8 (sectors 365 and 364, kd 9),
    under the reflection x -> -x with signs +1 or -1 (which puts the even
    ground in the -1 sector), a solve for rank 0 or 2 reduces both sector
    bands side by side, takes the reference's eigenpair off its own band
    and solves the row sector from its band for the row, with no dense
    block, and matches the full solve. The reference's sector keeps its
    vector only; the other holds the dipole row."""
    operator = band_joint(signs=signs)
    assert [operator.band_width(p) for p in (1, -1)] == [9, 9]
    full = diagonalize_hermitian(operator)
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    system = diagonalize_hermitian(operator, reference=rank)
    sector = values_only_sector(system)
    _, opposite = row_sector(system)
    assert sorted(bands[:2]) == [364, 365] and bands[2:] == [opposite.ranks.size]
    assert solved == bands
    assert sector.ranks[sector.kept].tolist() == [rank] and opposite.row.reference == rank
    assert_matches_full_solve(operator, system, full, reference=rank)


def test_rounding_tie_on_the_bands_takes_eigh(monkeypatch):
    """With the middle of the grid cut to a 1e-13 link, the even and odd
    grounds of the two halves tie within rounding. Both bands are reduced
    and the row sector's band is solved for the row, with no dense
    reduction, before the merge declines the tie and both sectors are
    solved by eigh, which the solve then matches."""
    operator = band_joint(n_points=80, link=-1e-13)
    full = diagonalize_hermitian(operator)
    dims = [operator.sector(p)[1].coords.size for p in (1, -1)]
    lowest = [floquet._reduce(operator.sector(p)[0]).lowest(1)[0] for p in (1, -1)]
    assert 0.0 < abs(lowest[0] - lowest[1]) <= 1e-13
    bands = []
    solved = record_lapack_solves(monkeypatch, bands)
    system = diagonalize_hermitian(operator, reference=0)
    assert sorted(bands[:2]) == sorted(dims) and len(bands) == 3
    assert solved == bands + dims
    assert all(sector.kept is None for sector in system.sectors)
    assert_matches_full_solve(operator, system, full)


def test_reference_solve_without_the_bundled_openblas_takes_eigh(monkeypatch):
    """Without numpy's bundled OpenBLAS both band reductions decline, and
    each sector is solved by eigh, with no dense reduction tried first; the
    solve matches the full one."""
    operator = band_joint()
    full = diagonalize_hermitian(operator)
    monkeypatch.setattr(lapack, "openblas", lambda: None)
    bands, eighs = [], []
    solved = record_lapack_solves(monkeypatch, bands, eighs)
    system = diagonalize_hermitian(operator, reference=0)
    assert sorted(bands) == [364, 365] and eighs == [365, 364]
    assert solved == bands + eighs
    assert_matches_full_solve(operator, system, full)


def test_inexact_band_vector_takes_eigh(monkeypatch):
    """An inverse iteration whose residual stays above rounding (here, at a
    shift 1e-6 off the ground) gives no vector: after the two band
    reductions, each sector is solved by eigh, as without a reference, and
    no block is reduced densely."""
    operator = band_joint()
    full = diagonalize_hermitian(operator)
    original = lapack.band_eigenvector
    vectors = []

    def shifted(band, value, against=None):
        vectors.append(original(band, value + 1e-6, against))
        return vectors[-1]

    monkeypatch.setattr(lapack, "band_eigenvector", shifted)
    bands, eighs = [], []
    solved = record_lapack_solves(monkeypatch, bands, eighs)
    system = diagonalize_hermitian(operator, reference=0)
    assert vectors == [None] and sorted(bands) == [364, 365] and eighs == [365, 364]
    assert solved == bands + eighs
    assert_matches_full_solve(operator, system, full)
