"""End-to-end acceptance checks, one numbered criterion per test.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion together with the measured numbers behind the verdict.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import dense_vectors, select_reference_joint, select_reference_sambe, shift_replica
from floqtrk import (
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    FockSpec,
    GridBasis,
    InteractionSpec,
    MatterOperator,
    PotentialSpec,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    density_from_ledger,
    diagonalize_hermitian,
    dipole_fourier_components,
    first_moment,
    fold_and_select_ffbz,
    fold_quasienergies,
    joint_operator,
    sambe_operator,
    select_reference,
    static_trk,
    sumrule_ffbz,
    sumrule_qed,
    sumrule_sambe,
)
from floqtrk.cli import load_config, run_job

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
CUTOFFS = (6, 8, 10, 12)


def check(num: int, ok: bool, detail: str) -> None:
    """Print the per-criterion verdict line, then enforce it."""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def closure_ok(report, rtol: float = 1e-8) -> bool:
    """|value - oracle| within rtol of the oracle magnitude."""
    return abs(report.oracle_residual) <= rtol * max(1.0, abs(report.oracle_value))


def driven_run(h, d, drive, cutoff):
    """One driven configuration evaluated in both extended-space forms."""
    ground = dense_vectors(diagonalize_hermitian(h.matrix))[:, 0]
    floquet = sambe_operator(h, d, drive, cutoff)
    system = diagonalize_hermitian(floquet)
    sambe = sumrule_sambe(
        floquet, system, select_reference_sambe(system, floquet, ground), n_electrons=1
    )
    selection = fold_and_select_ffbz(system, floquet)
    reference = select_reference(selection.blocks, ground)
    ffbz = sumrule_ffbz(selection, reference, n_electrons=1)
    return SimpleNamespace(
        floquet=floquet,
        selection=selection,
        sambe=sambe,
        ffbz=ffbz,
        density=density_from_ledger(ffbz),
    )


@pytest.fixture(scope="module")
def driven_grid_scan():
    """Driven grid harmonic model over the acceptance ladder of cutoffs."""
    grid = GridBasis(n_points=130, x_min=-10.0, x_max=10.0)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    drive = DriveSpec(omega=0.35, components=(DriveComponent(1, 0.05),))
    return {cutoff: driven_run(h, d, drive, cutoff) for cutoff in CUTOFFS}


@pytest.fixture(scope="module")
def zero_drive_run():
    """Undriven grid harmonic model pushed through the driven pipeline."""
    grid = GridBasis(n_points=61, x_min=-10.0, x_max=10.0)
    h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    d = build_dipole(grid)
    run = driven_run(h, d, DriveSpec(omega=150.0), cutoff=1)
    run.static = static_trk(h, d, n_electrons=1)
    return run


@pytest.fixture(scope="module")
def high_frequency_run():
    """Two-level model driven far above its spectral span."""
    model = FewLevelModel((0.0, 1.0), SX)
    drive = DriveSpec(omega=10.0, components=(DriveComponent(1, 1e-3),))
    return driven_run(model.hamiltonian(), model.dipole_operator(), drive, cutoff=3)


def test_criterion_1_static_grid_sum():
    """Grid TRK value matches the closure oracle and the analytic unit sum,
    with second-order improvement under grid refinement."""
    reports = {}
    for n_points in (201, 401):
        grid = GridBasis(n_points=n_points, x_min=-10.0, x_max=10.0)
        h = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
        reports[n_points] = static_trk(h, build_dipole(grid), n_electrons=1)
    coarse, fine = reports[201], reports[401]
    ratio = abs(coarse.value - 1.0) / abs(fine.value - 1.0)
    ok = (
        closure_ok(coarse)
        and closure_ok(fine)
        and abs(coarse.value - 1.0) <= 1e-2
        and 3.5 <= ratio <= 4.5
    )
    check(
        1,
        ok,
        f"value={coarse.value:.8f}, refined={fine.value:.8f}, "
        f"defect ratio={ratio:.3f}",
    )


def test_criterion_2_two_electron_sum():
    """Interacting two-electron value matches the oracle and counts both
    electrons."""
    grid = GridBasis(n_points=32, x_min=-8.0, x_max=8.0)
    h = build_two_electron_hamiltonian(
        grid, PotentialSpec.harmonic(1.0), InteractionSpec.soft_coulomb(1.0, 1.0)
    )
    report = static_trk(h, build_dipole(grid, n_electrons=2), n_electrons=2)
    ok = (
        report.target == 2.0
        and closure_ok(report)
        and abs(report.value - 2.0) <= 2e-2
    )
    check(2, ok, f"value={report.value:.9f}, target=2")


def test_criterion_3_extended_space_closure(driven_grid_scan):
    """The full extended-space sum matches its double-commutator oracle at
    every cutoff in the scan."""
    worst = max(
        abs(run.sambe.oracle_residual) / max(1.0, abs(run.sambe.oracle_value))
        for run in driven_grid_scan.values()
    )
    ok = worst <= 1e-8
    check(3, ok, f"worst closure rel={worst:.2e} over cutoffs {CUTOFFS}")


def test_criterion_4_zone_reduction_converges(driven_grid_scan):
    """The zone-resolved sum approaches the extended-space sum monotonically
    in the cutoff and lands within 1e-4."""
    gaps = [
        abs(driven_grid_scan[c].ffbz.value - driven_grid_scan[c].sambe.value)
        for c in CUTOFFS
    ]
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 1e-4
    check(4, ok, "gaps=" + ", ".join(f"{g:.2e}" for g in gaps))


def test_criterion_5_zero_drive_reduction(zero_drive_run):
    """Without drive the zone-resolved sum reproduces the static sum with
    empty sidebands."""
    gap = abs(zero_drive_run.ffbz.value - zero_drive_run.static.value)
    ledger = zero_drive_run.ffbz.contributions
    sideband = float(np.max(np.abs(ledger.weight[ledger.n != 0]), initial=0.0))
    ok = gap <= 1e-10 and sideband < 1e-12
    check(5, ok, f"static gap={gap:.2e}, max sideband weight={sideband:.2e}")


def test_criterion_6_high_frequency_suppression(high_frequency_run):
    """Driving far above the spectral span leaves the inter-zone fraction of
    the sum below 1e-6."""
    report = high_frequency_run.ffbz
    ledger = report.contributions
    off = math.fsum(np.abs(ledger.weight[ledger.n != 0]).tolist())
    fraction = off / abs(report.value)
    ok = fraction < 1e-6
    check(6, ok, f"inter-zone fraction={fraction:.2e}")


def test_criterion_7_first_moment_identity(
    driven_grid_scan, zero_drive_run, high_frequency_run
):
    """The stick spectrum's energy-weighted integral equals the report value
    on every run above."""
    runs = list(driven_grid_scan.values()) + [zero_drive_run, high_frequency_run]
    worst = max(
        abs(first_moment(run.density) - run.ffbz.value) for run in runs
    )
    ok = worst <= 1e-10
    check(7, ok, f"worst |first_moment - value|={worst:.2e} over {len(runs)} runs")


def test_criterion_8_quantum_light_closure(tmp_path):
    """Joint matter-photon sums match the joint oracle, the converged grid
    value stays near 1, and the cutoff table is monotone at weak coupling."""
    model = FewLevelModel((0.0, 1.0), SX)
    h, d = model.hamiltonian(), model.dipole_operator()
    fock = FockSpec(n_max=20, omega_c=0.9, g=0.3)
    h_joint = joint_operator(h, d, fock)
    system = diagonalize_hermitian(h_joint)
    ground = dense_vectors(diagonalize_hermitian(h.matrix))[:, 0]
    reference = select_reference_joint(system, ground, fock.dim)
    rabi = sumrule_qed(h_joint, system, reference, n_electrons=1)

    grid = GridBasis(n_points=201, x_min=-10.0, x_max=10.0)
    hg = build_grid_hamiltonian(grid, PotentialSpec.harmonic(1.0))
    dg = build_dipole(grid)
    fock_g = FockSpec(n_max=12, omega_c=1.2, g=0.05)
    hg_joint = joint_operator(hg, dg, fock_g)
    grid_system = diagonalize_hermitian(hg_joint)
    grid_ground = dense_vectors(diagonalize_hermitian(hg.matrix))[:, 0]
    grid_ref = select_reference_joint(grid_system, grid_ground, fock_g.dim)
    grid_report = sumrule_qed(hg_joint, grid_system, grid_ref, n_electrons=1)

    family = tmp_path / "family.yaml"
    family.write_text(
        "job: converge\n"
        "converge: {axis: fock_n_max, values: [4, 8, 16, 32]}\n"
        "model: {kind: few_level, energies: [0.0, 0.5], dipole: [[2.0, 1.0], [1.0, -2.0]]}\n"
        "fock: {omega_c: 0.02, g: 0.01}\n"
    )
    rows = run_job(load_config(family)).convergence
    deltas = [abs(row["delta"]) for row in rows[1:]]
    ok = (
        closure_ok(rabi)
        and closure_ok(grid_report)
        and abs(grid_report.value - 1.0) <= 1e-2
        and all(a > b for a, b in zip(deltas, deltas[1:]))
        and deltas[-1] < 1e-8
    )
    check(
        8,
        ok,
        f"rabi rel={abs(rabi.oracle_residual):.2e}, "
        f"grid value={grid_report.value:.9f}, "
        "deltas=" + ", ".join(f"{x:.2e}" for x in deltas),
    )


def random_blocks(rng, cutoff, dim):
    """Normalized (2 cutoff + 1) x dim coefficient blocks of a Floquet mode
    with random complex harmonic content."""
    shape = (2 * cutoff + 1, dim)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks /= np.linalg.norm(blocks)
    rng.uniform(-0.5, 0.5)  # an unused quasienergy draw: later cases keep their stream
    return blocks


def test_criterion_9_property_sweeps():
    """Random-case sweeps of the structural identities behind the suite."""
    rng = np.random.default_rng(11)

    closure_worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        raw_h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw_d = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = MatterOperator((raw_h + raw_h.conj().T) / 2)
        d = MatterOperator((raw_d + raw_d.conj().T) / 2)
        report = static_trk(h, d, reference=int(rng.integers(0, dim)), n_electrons=1)
        closure_worst = max(
            closure_worst,
            abs(report.oracle_residual) / max(1.0, abs(report.value)),
        )

    completeness_worst = 0.0
    conjugation_worst = 0.0
    d3 = MatterOperator(
        np.array([[0.2, 0.5, 0.1], [0.5, -0.1, 0.4], [0.1, 0.4, 0.3]])
    )
    lifted = np.kron(np.ones((5, 5)), d3.matrix)
    for _ in range(100):
        bra = random_blocks(rng, cutoff=2, dim=3)
        ket = random_blocks(rng, cutoff=2, dim=3)
        forward = dipole_fourier_components(bra, ket, d3.matrix)
        direct = complex(np.vdot(bra.ravel(), lifted @ ket.ravel()))
        total = sum(forward.values())
        completeness_worst = max(completeness_worst, abs(total - direct))
        backward = dipole_fourier_components(ket, bra, d3.matrix)
        conjugation_worst = max(
            conjugation_worst,
            max(
                abs(forward[n] - np.conj(backward[-n]))
                for n in range(-4, 5)
            ),
        )

    model = FewLevelModel((0.0, 1.0), SX)
    drive = DriveSpec(omega=2.5, components=(DriveComponent(1, 0.1),))
    floquet = sambe_operator(model.hamiltonian(), model.dipole_operator(), drive, 6)
    system = diagonalize_hermitian(floquet)
    selection = fold_and_select_ffbz(system, floquet)
    replica_worst = 0.0
    for index in range(len(selection.blocks)):
        for n in (-2, -1, 1, 2):
            shifted, _ = shift_replica(selection, index, n)
            vec = shifted.blocks[index].ravel()
            quasienergy = shifted.quasienergies[index]
            rayleigh = float(
                np.real(np.vdot(vec, floquet @ vec) / np.vdot(vec, vec))
            )
            replica_worst = max(
                replica_worst,
                abs(rayleigh - quasienergy) / max(1.0, abs(quasienergy)),
            )

    fold_worst = 0.0
    folds_ok = True
    for _ in range(1000):
        epsilon = float(rng.uniform(-50.0, 50.0))
        omega = float(rng.uniform(0.1, 10.0))
        folded, n = fold_quasienergies(epsilon, omega)
        folds_ok &= -omega / 2 <= folded < omega / 2
        rebuilt = folded + n * omega
        fold_worst = max(
            fold_worst, abs(rebuilt - epsilon) / max(1.0, abs(epsilon))
        )

    ok = (
        closure_worst <= 1e-10
        and completeness_worst <= 1e-12
        and conjugation_worst <= 1e-13
        and replica_worst <= 1e-6
        and folds_ok
        and fold_worst <= 1e-12
    )
    check(
        9,
        ok,
        f"closure rel={closure_worst:.2e}, completeness={completeness_worst:.2e}, "
        f"conjugation={conjugation_worst:.2e}, replica rel={replica_worst:.2e}, "
        f"fold rel={fold_worst:.2e}",
    )
