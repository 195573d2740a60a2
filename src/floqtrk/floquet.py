"""Sambe-space machinery for time-periodic Hamiltonians.

A periodic H(t) = H(t + 2*pi/Omega) acting on an N_b-dimensional matter space
is lifted to the extended (Sambe) space of matter (x) periodic functions,
where the quasienergy operator H(t) - i d/dt becomes a Hermitian block
matrix: truncating the harmonic index to m in [-N_h, N_h] gives block
(m, m') = H_(m-m') + delta_(mm') * m*Omega, of total dimension (2 N_h + 1) N_b.

Conventions: modes are expanded as phi(t) = sum_m c_m exp(+i m Omega t), and
the field Fourier blocks satisfy H(t) = sum_k H_k exp(+i k Omega t), so a
cosine drive component E_k cos(k Omega t + phi_k) contributes
H_(+k) = -(E_k/2) exp(+i phi_k) d and H_(-k) = H_(+k)^dagger. With zero
phases everything stays real and the eigensolve runs in the (much faster)
real-symmetric path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigError, InputError, NumericError, SizeError
from .model import DriveSpec, MatterOperator, hermiticity_defect

#: Dense-eigensolve guard for the truncated Sambe matrix.
MAX_SAMBE_DIM = 6000

#: Degenerate in-zone eigenvalues are grouped within this fraction of Omega.
DEGENERACY_RTOL = 1e-9

#: Half-open corrections :func:`fold_label` tries before giving up.
_FOLD_CORRECTIONS = 4


@dataclass(frozen=True)
class SambeSpec:
    """Truncation window of the extended space."""

    harmonic_cutoff: int  # N_h >= 0, harmonic index m in [-N_h, N_h]
    matter_dim: int

    def __post_init__(self) -> None:
        if self.harmonic_cutoff < 0:
            raise InputError(f"harmonic cutoff must be >= 0, got {self.harmonic_cutoff}")
        if self.matter_dim < 1:
            raise InputError(f"matter dimension must be >= 1, got {self.matter_dim}")

    @property
    def n_blocks(self) -> int:
        return 2 * self.harmonic_cutoff + 1

    @property
    def dim(self) -> int:
        return self.n_blocks * self.matter_dim


@dataclass(frozen=True, eq=False)
class FourierBlockSet:
    """Fourier blocks H_k of a periodic Hamiltonian, keyed by integer k.

    Hermiticity of H(t) requires H_(-k) = H_k^dagger for every stored k;
    this is validated at construction.
    """

    blocks: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        if 0 not in self.blocks:
            raise InputError("Fourier block set must contain the static block k=0")
        dim = self.blocks[0].shape[0]
        for k, block in self.blocks.items():
            if block.shape != (dim, dim):
                raise InputError(
                    f"block k={k} has shape {block.shape}, expected ({dim}, {dim})"
                )
            partner = self.blocks.get(-k)
            if partner is None:
                raise InputError(f"block k={k} present without its conjugate k={-k}")
            defect = float(np.max(np.abs(partner - block.conj().T)))
            if defect > 1e-12:
                raise InputError(
                    f"blocks k={k}/k={-k} violate H_(-k) = H_k^dagger by {defect:.3e}"
                )

    @property
    def max_k(self) -> int:
        return max(abs(k) for k in self.blocks)

    @property
    def matter_dim(self) -> int:
        return self.blocks[0].shape[0]


@dataclass(frozen=True, eq=False)
class FloquetMatrix:
    """Assembled truncated quasienergy operator."""

    matrix: np.ndarray
    spec: SambeSpec
    omega: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FloquetMode:
    """One eigenvector of the truncated Sambe matrix, stored blockwise.

    ``blocks[m + N_h]`` is the coefficient vector c_m of the harmonic
    exp(+i m Omega t). ``edge_weight`` is the norm fraction in the two
    outermost blocks (the truncation-quality gauge).
    """

    quasienergy: float
    blocks: np.ndarray  # (2 N_h + 1, N_b) complex or real
    omega: float
    edge_weight: float

    def __post_init__(self) -> None:
        blocks = np.atleast_2d(np.asarray(self.blocks))
        if blocks.shape[0] % 2 != 1:
            raise InputError(
                f"mode needs an odd number of harmonic blocks, got {blocks.shape[0]}"
            )
        total = float(np.sum(np.abs(blocks) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise InputError(f"mode norm^2 = {total!r}, expected 1 within 1e-10")
        object.__setattr__(self, "blocks", blocks)

    @property
    def harmonic_cutoff(self) -> int:
        return (self.blocks.shape[0] - 1) // 2

    @property
    def matter_dim(self) -> int:
        return self.blocks.shape[1]

    def block(self, m: int) -> np.ndarray:
        """Coefficient vector c_m."""
        n_h = self.harmonic_cutoff
        if abs(m) > n_h:
            raise InputError(f"harmonic index {m} outside window [-{n_h}, {n_h}]")
        return self.blocks[m + n_h]

    def vector(self) -> np.ndarray:
        """Flat Sambe-space vector (harmonic-major ordering)."""
        return self.blocks.ravel()


@dataclass(frozen=True)
class FoldedLabel:
    """Unique decomposition eps = epsilon_folded + n_shift*Omega with
    epsilon_folded in [-Omega/2, Omega/2)."""

    epsilon_folded: float
    n_shift: int


class EigenSystem(NamedTuple):
    """Full spectrum of one Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # column j is the eigenvector of values[j]

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class FfbzSelection:
    """Output of :func:`fold_and_select_ffbz`.

    ``representatives`` are the eigenpairs whose raw eigenvalue already lies
    in the zone, ordered by quasienergy (degenerate groups by descending
    m=0-block weight, phases fixed). ``labels`` hold the folding of every
    eigenpair of the input spectrum. Warnings are data, never raised: an
    incomplete zone is reported and carried into downstream reports.
    """

    representatives: tuple[FloquetMode, ...]
    labels: tuple[FoldedLabel, ...]
    warnings: tuple[str, ...]
    edge_flagged: tuple[int, ...]  # indices into representatives
    source_indices: tuple[int, ...]  # representative -> eigenpair column


def fourier_blocks_of_hamiltonian(
    h_matter: MatterOperator, dipole: MatterOperator, drive: DriveSpec
) -> FourierBlockSet:
    """Fourier blocks of H(t) = H_M - d * E(t) for a cosine-series drive.

    Each drive component E_k cos(k Omega t + phi_k) contributes
    H_(+k) = -(E_k/2) exp(+i phi_k) d and H_(-k) = -(E_k/2) exp(-i phi_k) d;
    zero-amplitude components are dropped. Blocks stay real whenever the
    phase factor is real.
    """
    if h_matter.dim != dipole.dim:
        raise InputError(
            f"matter Hamiltonian dim {h_matter.dim} != dipole dim {dipole.dim}"
        )
    blocks: dict[int, np.ndarray] = {0: h_matter.matrix}
    for comp in drive.components:
        if comp.amplitude == 0.0:
            continue
        factor = -0.5 * comp.amplitude * np.exp(1j * comp.phase)
        if factor.imag == 0.0:
            factor = factor.real
        blocks[comp.harmonic] = factor * dipole.matrix
        blocks[-comp.harmonic] = np.conj(factor) * dipole.matrix
    return FourierBlockSet(blocks)


def assemble_floquet_matrix(
    blocks: FourierBlockSet, omega: float, harmonic_cutoff: int
) -> FloquetMatrix:
    """Assemble the truncated Sambe matrix from Fourier blocks.

    Block (m, m') = H_(m-m') + delta_(mm') * m*omega * I for
    m, m' in [-N_h, N_h]. Couplings are never dropped silently: the window
    must cover the highest stored harmonic.
    """
    if omega <= 0:
        raise InputError(f"omega must be > 0, got {omega}")
    if harmonic_cutoff < blocks.max_k:
        raise ConfigError(
            f"harmonic cutoff {harmonic_cutoff} is below the highest drive "
            f"harmonic {blocks.max_k}; raise the cutoff so no coupling is dropped"
        )
    spec = SambeSpec(harmonic_cutoff=harmonic_cutoff, matter_dim=blocks.matter_dim)
    if spec.dim > MAX_SAMBE_DIM:
        raise SizeError(
            f"Sambe dimension {spec.dim} exceeds the dense guard {MAX_SAMBE_DIM}"
        )
    n_b = spec.matter_dim
    is_complex = any(np.iscomplexobj(b) for b in blocks.blocks.values())
    dtype = np.complex128 if is_complex else np.float64
    matrix = np.zeros((spec.dim, spec.dim), dtype=dtype)
    eye = np.eye(n_b, dtype=dtype)
    for row, m in enumerate(range(-spec.harmonic_cutoff, spec.harmonic_cutoff + 1)):
        r0 = row * n_b
        for k, block in blocks.blocks.items():
            col = row - k  # column block index: m' = m - k
            if 0 <= col < spec.n_blocks:
                c0 = col * n_b
                matrix[r0 : r0 + n_b, c0 : c0 + n_b] = block
        matrix[r0 : r0 + n_b, r0 : r0 + n_b] += m * omega * eye
    return FloquetMatrix(matrix=matrix, spec=spec, omega=omega)


def diagonalize_hermitian(matrix: np.ndarray) -> EigenSystem:
    """Full spectrum of a dense Hermitian matrix, eigenvalues ascending.

    Exactly real-valued input is routed to the real-symmetric LAPACK driver,
    which is several times faster than the complex one at the dimensions the
    dense guards allow.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    defect = hermiticity_defect(m)
    if defect > 1e-10 * max(1.0, scale):
        raise InputError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e}")
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) == 0.0:
            m = np.ascontiguousarray(m.real)
        else:
            m = (m + m.conj().T) / 2.0
    try:
        values, vectors = scipy.linalg.eigh(m, driver="evd", check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return EigenSystem(values=values, vectors=vectors)


def fold_label(epsilon: float, omega: float) -> FoldedLabel:
    """Fold an eigenvalue into [-Omega/2, Omega/2), half-open.

    n_shift = floor(eps/Omega + 1/2) maps the boundary +Omega/2 to -Omega/2,
    so the (epsilon_folded, n_shift) pair is unique for every input.

    Raises NumericError when Omega is below the floating-point resolution of
    eps, where no shift by whole multiples of Omega lands in the zone.
    """
    if omega <= 0:
        raise InputError(f"omega must be > 0, got {omega}")
    n = math.floor(epsilon / omega + 0.5)
    folded = epsilon - n * omega
    # guard the half-open convention against floating-point edge cases; a
    # resolvable Omega needs a step or two, and n*Omega stops moving when
    # Omega is not resolvable, so the walk is bounded
    steps = 0
    while folded >= omega / 2.0 and steps <= _FOLD_CORRECTIONS:
        n += 1
        folded = epsilon - n * omega
        steps += 1
    while folded < -omega / 2.0 and steps <= _FOLD_CORRECTIONS:
        n -= 1
        folded = epsilon - n * omega
        steps += 1
    if steps > _FOLD_CORRECTIONS:
        raise NumericError(
            f"cannot fold {epsilon!r} into a zone of width {omega!r}: Omega is "
            f"below the floating-point resolution of the quasienergy"
        )
    return FoldedLabel(epsilon_folded=folded, n_shift=n)


def _fix_phase(blocks: np.ndarray) -> np.ndarray:
    """Rotate a mode's global phase so its first significant coefficient is
    real positive (reproducible representatives)."""
    flat = blocks.ravel()
    magnitudes = np.abs(flat)
    threshold = 1e-8 * float(magnitudes.max())
    first = int(np.argmax(magnitudes > threshold))
    phase = flat[first] / abs(flat[first])
    fixed = blocks / phase
    if np.iscomplexobj(fixed) and np.max(np.abs(fixed.imag)) == 0.0:
        fixed = fixed.real
    return fixed


def _mode_from_vector(
    vector: np.ndarray, quasienergy: float, omega: float, spec: SambeSpec
) -> FloquetMode:
    blocks = _fix_phase(vector.reshape(spec.n_blocks, spec.matter_dim))
    edge = float(np.sum(np.abs(blocks[0]) ** 2) + np.sum(np.abs(blocks[-1]) ** 2))
    if spec.harmonic_cutoff == 0:
        edge = float(np.sum(np.abs(blocks[0]) ** 2))
    return FloquetMode(
        quasienergy=float(quasienergy), blocks=blocks, omega=omega, edge_weight=edge
    )


def fold_and_select_ffbz(
    eigensystem: EigenSystem,
    omega: float,
    spec: SambeSpec,
    edge_tol: float = 1e-6,
) -> FfbzSelection:
    """Fold every eigenvalue and select the in-zone representatives.

    Representatives are exactly the eigenpairs whose raw truncated-matrix
    eigenvalue already lies in [-Omega/2, Omega/2): deterministic, and exact
    eigenvectors of the truncated operator. Their truncation quality is gated
    by ``edge_weight`` instead of re-projection. Degenerate in-zone
    eigenvalues (within 1e-9 * Omega) are ordered by descending m=0-block
    weight; each representative's global phase is fixed.

    An in-zone count different from the matter dimension (zone coverage
    incomplete at this cutoff, or zone-edge degeneracy) is reported as a
    warning string, never silently dropped and never raised.
    """
    if eigensystem.dim != spec.dim:
        raise InputError(
            f"spectrum has {eigensystem.dim} eigenpairs, expected the complete "
            f"truncated dimension {spec.dim}"
        )
    labels = tuple(fold_label(float(e), omega) for e in eigensystem.values)
    in_zone = [i for i, lab in enumerate(labels) if lab.n_shift == 0]

    # ascending quasienergy; inside degenerate groups, descending m=0 weight
    n_h = spec.harmonic_cutoff
    m0 = slice(n_h * spec.matter_dim, (n_h + 1) * spec.matter_dim)
    def m0_weight(i: int) -> float:
        return float(np.sum(np.abs(eigensystem.vectors[m0, i]) ** 2))

    in_zone.sort(key=lambda i: eigensystem.values[i])
    ordered: list[int] = []
    group: list[int] = []
    tol = DEGENERACY_RTOL * omega
    for i in in_zone:
        if group and eigensystem.values[i] - eigensystem.values[group[0]] > tol:
            group.sort(key=lambda j: -m0_weight(j))
            ordered.extend(group)
            group = []
        group.append(i)
    group.sort(key=lambda j: -m0_weight(j))
    ordered.extend(group)

    representatives = tuple(
        _mode_from_vector(
            eigensystem.vectors[:, i], eigensystem.values[i], omega, spec
        )
        for i in ordered
    )
    edge_flagged = tuple(
        idx for idx, mode in enumerate(representatives) if mode.edge_weight > edge_tol
    )
    warnings: list[str] = []
    if len(representatives) != spec.matter_dim:
        warnings.append(
            f"in-zone representative count {len(representatives)} != matter "
            f"dimension {spec.matter_dim} (zone coverage incomplete at "
            f"harmonic cutoff {spec.harmonic_cutoff} or zone-edge degeneracy)"
        )
    if edge_flagged:
        warnings.append(
            f"{len(edge_flagged)} representative(s) exceed edge weight {edge_tol:g}: "
            f"indices {list(edge_flagged)}"
        )
    return FfbzSelection(
        representatives=representatives,
        labels=labels,
        warnings=tuple(warnings),
        edge_flagged=edge_flagged,
        source_indices=tuple(ordered),
    )

