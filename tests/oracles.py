"""Independent reference values shared by the test suite.

Everything here is computed from first principles: analytic spectra, direct
dense commutator algebra, or first-order perturbation theory written out by
hand. None of it calls back into the package beyond plain numpy, so a test
comparing against these helpers checks two genuinely independent routes to
the same number.
"""

import math
from typing import NamedTuple

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


class ExactState(NamedTuple):
    """One eigenstate a of :func:`exact_dipole_rows`: E_a, the sum
    2 sum_b (E_b - E_a) <b|d|a>^2, and over the eigenstates b of the other
    sector, ascending, their values E_b and the row <b|d|a>, each rounded
    to double precision."""

    value: float
    total: float
    other_values: np.ndarray
    row: np.ndarray


def exact_dipole_rows(h, d, perm, signs, digits=30):
    """Every eigenstate of the real symmetric ``h`` (:class:`ExactState`),
    in ascending order of E_a, solved at ``digits`` significant digits
    (mpmath) rather than in double precision.

    ``h`` commutes with the reflection S e_i = signs[i] e_perm[i] and the
    real ``d`` anticommutes with it, so the S = +1 and S = -1 blocks of h
    are solved apart (mpmath's eigsy) and d couples a state of one only to
    the states of the other. Each eigenvector's sign is mpmath's.
    """
    import mpmath

    with mpmath.workdps(digits):
        n = h.shape[0]
        half = 1 / mpmath.sqrt(2)
        bases = {}
        for parity in (1, -1):
            columns = []
            for i in range(n):
                j = int(perm[i])
                if j < i or (j == i and signs[i] != parity):
                    continue
                column = [mpmath.mpf(0)] * n
                if j == i:
                    column[i] = mpmath.mpf(1)
                else:
                    column[i], column[j] = half, parity * float(signs[i]) * half
                columns.append(column)
            bases[parity] = mpmath.matrix(columns).T
        h, d = mpmath.matrix(h.tolist()), mpmath.matrix(d.tolist())
        solved = {p: mpmath.eigsy(basis.T * h * basis) for p, basis in bases.items()}
        states = []
        for p, (values, vectors) in solved.items():
            other_values, other_vectors = solved[-p]
            amps = other_vectors.T * (bases[-p].T * d * bases[p]) * vectors
            order = sorted(range(len(other_values)), key=lambda b: other_values[b])
            others = np.array([float(other_values[b]) for b in order])
            for a in range(len(values)):
                total = mpmath.fsum(
                    (other_values[b] - values[a]) * amps[b, a] ** 2 for b in order
                )
                row = np.array([float(amps[b, a]) for b in order])
                states.append((values[a], ExactState(float(values[a]), float(2 * total), others, row)))
    # sorted at full precision: two values may round to one double
    return [state for _, state in sorted(states, key=lambda state: state[0])]


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


def sambe_block_matrix(h, d, omega, cutoff, components):
    """Truncated Sambe matrix of H(t) = h - d E(t), written block by block.

    ``components`` are (k, E_k, phi_k) of E(t) = sum_k E_k cos(k omega t +
    phi_k). The Fourier blocks are H_0 = h and H_(+-k) = f_(+-k) d, with
    f_(+k) = -(E_k/2) exp(+i phi_k) (real when its imaginary part is zero)
    and f_(-k) = conj(f_(+k)); a zero amplitude gives no block, and the
    factors are taken in one common dtype. Block (m, m') is
    H_(m-m') + delta_(mm') m omega 1 for m, m' in [-cutoff, cutoff], the
    harmonic-major index (m + cutoff) * dim(h) + matter; each term is added
    onto a zero matrix, so every exact zero is +0.0.
    """
    keys, factors = [], []
    for k, amplitude, phase in components:
        if amplitude == 0.0:
            continue
        factor = -0.5 * amplitude * np.exp(1j * phase)
        if factor.imag == 0.0:
            factor = factor.real
        keys += [k, -k]
        factors += [factor, np.conj(factor)]
    blocks = {0: h}
    for k, factor in zip(keys, np.array(factors)):
        blocks[k] = factor * d
    is_complex = any(np.iscomplexobj(b) for b in blocks.values())
    dtype = np.complex128 if is_complex else np.float64
    n_b, n_blocks = h.shape[0], 2 * cutoff + 1
    matrix = np.zeros((n_blocks * n_b, n_blocks * n_b), dtype=dtype)
    eye = np.eye(n_b, dtype=dtype)
    for row, m in enumerate(range(-cutoff, cutoff + 1)):
        r0 = row * n_b
        for k, block in blocks.items():
            col = row - k
            if 0 <= col < n_blocks:
                matrix[r0 : r0 + n_b, col * n_b : (col + 1) * n_b] += block
        matrix[r0 : r0 + n_b, r0 : r0 + n_b] += m * omega * eye
    return matrix


def lifted_reflection(perm, signs, labels):
    """(perm, signs) of the matter reflection (``perm``, ``signs``) lifted
    to (-1)^label (x) P on the product index outer * dim(P) + matter."""
    parity = np.where(np.asarray(labels) % 2 == 0, 1.0, -1.0)
    outer = np.arange(parity.size)
    return (outer[:, None] * perm.size + perm).ravel(), (parity[:, None] * signs).ravel()


def kron_joint_hamiltonian(h, d, n_max, omega_c, g):
    """I (x) H + omega_c a^dag a (x) I + (-g (a + a^dag)) (x) d by np.kron,
    on the photon-major index photon * dim(h) + matter.

    The term-by-term Kronecker build, each term added onto a zero matrix
    (every exact zero is +0.0), kept as the reference for the package's
    joint operator written out in full.
    """
    fock_eye, matter_eye = np.eye(n_max + 1), np.eye(h.shape[0])
    joint = np.zeros((fock_eye.shape[0] * h.shape[0],) * 2, dtype=np.result_type(h, d, np.float64))
    joint += np.kron(fock_eye, h)
    joint += omega_c * np.kron(fock_number_operator(n_max), matter_eye)
    joint += np.kron(-g * fock_displacement_operator(n_max), d)
    return joint


def kron_product_operator(h, shifts, coupling=None, d=None):
    """1 (x) H + diag(shifts) (x) 1 + C (x) d by np.kron on the outer-major
    index outer * dim(h) + matter, the terms added onto a zero matrix in
    this order (every exact zero is +0.0): on an entry that all three
    reach, H, then the shift, then C[j, j] d."""
    terms = [np.kron(np.eye(len(shifts)), h), np.kron(np.diag(shifts), np.eye(h.shape[0]))]
    if d is not None:
        terms.append(np.kron(coupling, d))
    full = np.zeros(terms[0].shape, dtype=np.result_type(*terms, np.float64))
    for term in terms:
        full += term
    return full


def kron_joint_dipole(d, n_max):
    """I (x) d on the photon-major index by np.kron, added onto a zero
    matrix (every exact zero is +0.0)."""
    lifted = np.kron(np.eye(n_max + 1), d)
    return np.zeros_like(lifted) + lifted


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


def spectral_density(quasienergies, blocks, d, omega, reference, n_max=None):
    """Stick rows ``[omega, weight, lambda, n]`` of the zone-resolved sum,
    one (lambda, n) at a time.

    ``quasienergies`` and ``blocks`` are the first-zone modes (the harmonic
    ``blocks[lambda]`` rows c_m), ``d`` the matter dipole matrix. The
    harmonic d^(n) = sum_m <c^ref_m| d |c^lambda_(m-n)> runs over the shared
    window; a stick at eps_lambda - eps_ref + n*omega of weight |d^(n)|^2 is
    kept when its weight is nonzero. n runs over [-n_max, n_max], by default
    the full truncated range 2 N_h.
    """
    ref = blocks[reference]
    n_rows = ref.shape[0]
    if n_max is None:
        n_max = n_rows - 1
    rows = []
    for lam, (quasienergy, mode) in enumerate(zip(quasienergies, blocks)):
        d_ket = mode @ d.T  # row m is d @ c^lambda_m
        diff = float(quasienergy) - float(quasienergies[reference])
        for n in range(-n_max, n_max + 1):
            amp = 0
            for r in range(max(0, n), min(n_rows, n_rows + n)):
                amp = amp + np.vdot(ref[r], d_ket[r - n])
            weight = abs(complex(amp)) ** 2
            if weight != 0.0:
                rows.append([diff + n * omega, weight, lam, n])
    return rows
