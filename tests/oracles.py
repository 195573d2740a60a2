"""Independent reference values shared by the test suite.

Everything here is computed from first principles: analytic spectra, direct
dense commutator algebra, or first-order perturbation theory written out by
hand. None of it calls back into the package beyond plain numpy, so a test
comparing against these helpers checks two genuinely independent routes to
the same number.
"""

import math

import numpy as np


def harmonic_levels(omega, count):
    """Analytic oscillator spectrum omega*(k + 1/2), k = 0..count-1."""
    return omega * (np.arange(count) + 0.5)


def box_ground_energy(length):
    """Particle-in-a-box ground-state energy pi^2 / (2 L^2)."""
    return np.pi**2 / (2.0 * length**2)


def double_commutator_value(h, d, psi):
    """<psi| [d, [h, d]] |psi> by direct nested matrix commutators."""
    inner = h @ d - d @ h
    comm = d @ inner - inner @ d
    return complex(np.vdot(psi, comm @ psi)).real


def energy_weighted_sum(h, d, reference):
    """2 sum_b (E_b - E_a) |<a|d|b>|^2 straight from numpy's eigensolver."""
    values, vectors = np.linalg.eigh(h)
    amps = vectors.conj().T @ (d @ vectors[:, reference])
    return float(2.0 * np.sum((values - values[reference]) * np.abs(amps) ** 2))


def random_hermitian(rng, dim, scale=1.0):
    """Dense Hermitian matrix with Gaussian entries."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


def two_level_sideband_coefficients(delta, mu, e0, omega):
    """First-order excited-level coefficients of the driven ground mode.

    For matter diag(0, delta) with dipole mu*sigma_x under a field
    e0*cos(omega*t), stationary perturbation theory in the harmonic
    representation puts an excited-level component of size
    (e0*mu/2) / (delta + m*omega) into blocks m = -1 and +1.
    """
    return {m: (e0 * mu / 2.0) / (delta + m * omega) for m in (-1, 1)}


def two_level_elastic_sideband(delta, mu, e0, omega):
    """First-order n = +/-1 Fourier amplitude of <phi_g| d |phi_g>(t).

    The two first-order paths through the excited level add up to
    (e0*mu^2/2) * [1/(delta - omega) + 1/(delta + omega)].
    """
    return (e0 * mu**2 / 2.0) * (1.0 / (delta - omega) + 1.0 / (delta + omega))


def fock_number_operator(n_max):
    """a^dag a on the truncated photon basis |0> .. |n_max>."""
    return np.diag(np.arange(n_max + 1, dtype=np.float64))


def fock_displacement_operator(n_max):
    """a + a^dag on the truncated photon basis |0> .. |n_max>."""
    ladder = np.sqrt(np.arange(1, n_max + 1, dtype=np.float64))
    return np.diag(ladder, k=1) + np.diag(ladder, k=-1)


def kron_joint_hamiltonian(h, d, n_max, omega_c, g):
    """H (x) I + omega_c I (x) a^dag a - g d (x) (a + a^dag) by np.kron.

    The term-by-term Kronecker build, kept as the reference for the
    direct-write assembly in the package.
    """
    joint = np.kron(h, np.eye(n_max + 1))
    joint += omega_c * np.kron(np.eye(h.shape[0]), fock_number_operator(n_max))
    if g != 0.0:
        joint -= g * np.kron(d, fock_displacement_operator(n_max))
    return joint


def kron_joint_dipole(d, n_max):
    """d (x) I on the matter (x) Fock product basis by np.kron."""
    return np.kron(d, np.eye(n_max + 1))


def aggregated_rows(rows, tol):
    """Degenerate-merged ledger rows, built one row at a time.

    ``rows`` are ``[lam, n, quasienergy_diff, abs2, weight]``. Within each
    n, rows sorted by quasienergy_diff join the current group while their
    difference lies within ``tol`` of the group's first (lowest) one; a
    group keeps lam and quasienergy_diff of its lowest-lam row and sums
    abs2 and weight with math.fsum. Groups come out by ascending n, then
    ascending difference.
    """
    by_n = {}
    for row in rows:
        by_n.setdefault(row[1], []).append(row)
    merged = []
    for n in sorted(by_n):
        group = []
        for row in sorted(by_n[n], key=lambda r: r[2]):
            if group and row[2] - group[0][2] > tol:
                merged.append(_merged_row(group))
                group = []
            group.append(row)
        if group:
            merged.append(_merged_row(group))
    return merged


def _merged_row(group):
    lead = min(group, key=lambda r: r[0])
    return [
        lead[0],
        lead[1],
        lead[2],
        math.fsum(r[3] for r in group),
        math.fsum(r[4] for r in group),
    ]
