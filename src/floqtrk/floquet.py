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


class Reflection(NamedTuple):
    """A signed-permutation involution S: S e_i = signs[i] e_perm[i].

    A Hermitian matrix that commutes with S splits into its S = +1 and
    S = -1 sectors, which :func:`diagonalize_hermitian` solves separately.
    """

    perm: np.ndarray  # integer, perm[perm[i]] == i
    signs: np.ndarray  # +1.0 or -1.0, signs[perm[i]] == signs[i]

    @classmethod
    def alternating(cls, labels: np.ndarray) -> Reflection:
        """The diagonal involution e_k -> (-1)^labels[k] e_k."""
        return cls(np.arange(labels.size), np.where(labels % 2 == 0, 1.0, -1.0))

    def kron(self, inner: Reflection) -> Reflection:
        """S (x) S' on the product basis indexed outer * dim(S') + inner."""
        dim = inner.perm.size
        return Reflection(
            (self.perm[:, None] * dim + inner.perm).ravel(),
            (self.signs[:, None] * inner.signs).ravel(),
        )


def basis_reversal(dim: int) -> Reflection:
    """e_i -> e_(dim-1-i): x -> -x on a grid symmetric about x = 0.

    On the two-electron tensor grid (flat index a * n + b), reversing the
    flat index reverses a and b together, so it reflects both electrons.
    """
    return Reflection(np.arange(dim)[::-1].copy(), np.ones(dim))


def sambe_reflection(matter: Reflection | None, spec: SambeSpec) -> Reflection | None:
    """Lift a matter reflection P to P (x) (-1)^m on the Sambe index.

    This is x -> -x together with t -> t + T/2. It commutes with the Sambe
    matrix when P commutes with H_M, anticommutes with d, and every drive
    harmonic is odd; otherwise the eigensolve falls back to the dense path.
    """
    if matter is None:
        return None
    harmonics = np.arange(-spec.harmonic_cutoff, spec.harmonic_cutoff + 1)
    return Reflection.alternating(harmonics).kron(matter)


#: A sector split is taken when the block coupling the two sectors is at
#: most this many machine epsilons times max |M|: rounding level, the order
#: of LAPACK's own backward error.
SECTOR_COUPLING_EPS = 16


def diagonalize_hermitian(
    matrix: np.ndarray, *, reflection: Reflection | None = None
) -> EigenSystem:
    """Full spectrum of a dense Hermitian matrix, eigenvalues ascending.

    Every solve, dense or per sector, is numpy's ``eigh`` (LAPACK's
    divide-and-conquer ``?syevd`` / ``?heevd``). Exactly real-valued input
    is routed to the real-symmetric driver, which is several times faster
    than the complex one at the dimensions the dense guards allow. NaN or
    infinite entries raise NumericError before any solve.

    With a ``reflection`` S that commutes with the matrix, the S = +1 and
    S = -1 sectors are solved separately (two half-size solves, about a
    quarter of the flops of one full-size solve), and the spectra merged by
    a stable sort. The split is taken only when the block coupling the
    sectors is at rounding level (:data:`SECTOR_COUPLING_EPS`); otherwise,
    and when S leaves a sector empty, the dense path runs unchanged.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        scale = 0.0
    elif np.iscomplexobj(m):
        scale = float(np.max(np.abs(m)))
    else:
        scale = float(max(m.max(), -m.min()))  # max |M| without a temporary
    if not math.isfinite(scale):
        raise NumericError("matrix has a non-finite entry (NaN or inf)")
    defect = hermiticity_defect(m)
    if defect > 1e-10 * max(1.0, scale):
        raise InputError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e}")
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) == 0.0:
            m = np.ascontiguousarray(m.real)
        else:
            m = (m + m.conj().T) / 2.0
    try:
        if reflection is not None:
            split = _sector_split(m, reflection, scale)
            if split is not None:
                return _solve_sectors(*split)
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    # numpy returns C order; keep LAPACK's Fortran order, like the sector path
    return EigenSystem(values=values, vectors=np.asfortranarray(vectors))


class _Sector(NamedTuple):
    """One sector block of M and the basis it is written in.

    Sector coordinate k has weight ``scale[k]`` on the original index
    ``coords[k]`` and ``scale[k] * flips[k]`` on ``partners[k]``: a
    normalized pair combination, or a fixed point of the reflection when the
    two indices coincide. ``coords`` ascend, so a block structure of M
    (harmonic blocks, Fock levels) stays contiguous in the sector block and
    the exact zeros LAPACK keeps for it survive the split.
    """

    block: np.ndarray
    coords: np.ndarray
    partners: np.ndarray
    scale: np.ndarray
    flips: np.ndarray


def _sector_split(
    m: np.ndarray, reflection: Reflection, scale: float
) -> tuple[_Sector, _Sector] | None:
    """The S = +1 and S = -1 sectors of ``m``, or None when the block
    coupling them exceeds the tolerance or one of them is empty.

    M is gathered once into the staged order [pair leaders | S = +1 fixed
    points | S = -1 fixed points | partners of the leaders], with the
    partner rows and columns multiplied by their signs; each block in the
    pair basis (e_i +- s_i e_perm(i)) / sqrt(2) is then a sum of contiguous
    slices.
    """
    n = m.shape[0]
    perm = np.asarray(reflection.perm)
    signs = np.asarray(reflection.signs, dtype=np.float64)
    if perm.shape != (n,) or signs.shape != (n,):
        raise InputError(
            f"reflection has {perm.size} indices and {signs.size} signs, "
            f"expected {n} of each"
        )
    index = np.arange(n)
    if (
        not np.issubdtype(perm.dtype, np.integer)
        or np.any((perm < 0) | (perm >= n))
        or np.any(perm[perm] != index)
        or np.any(np.abs(signs) != 1.0)
        or np.any(signs[perm] != signs)
    ):
        raise InputError(
            "reflection must be a signed-permutation involution: perm[perm] == "
            "identity, signs of +-1 with signs[perm] == signs"
        )
    leaders = index[perm > index]
    fixed = index[perm == index]
    fixed_even, fixed_odd = fixed[signs[fixed] > 0], fixed[signs[fixed] < 0]
    p, fe, fo = leaders.size, fixed_even.size, fixed_odd.size
    if p + fe == 0 or p + fo == 0:
        return None
    order = np.concatenate([leaders, fixed_even, fixed_odd, perm[leaders]])
    sigma = signs[leaders]
    g = m[np.ix_(order, order)]
    g[n - p :] *= sigma[:, None]
    g[:, n - p :] *= sigma
    pair, even_fixed = slice(0, p), slice(p, p + fe)
    odd_fixed, partner = slice(p + fe, p + fe + fo), slice(n - p, n)
    root_half = math.sqrt(0.5)

    # the block with S = +1 rows and S = -1 columns
    a, b, c, d = g[pair, pair], g[pair, partner], g[partner, pair], g[partner, partner]
    coupling = a - d
    coupling += c
    coupling -= b
    largest = 0.5 * float(np.max(np.abs(coupling), initial=0.0))
    del coupling
    for piece in (
        root_half * (g[pair, odd_fixed] + g[partner, odd_fixed]),
        root_half * (g[even_fixed, pair] - g[even_fixed, partner]),
        g[even_fixed, odd_fixed],
    ):
        largest = max(largest, float(np.max(np.abs(piece), initial=0.0)))
    if largest > SECTOR_COUPLING_EPS * np.finfo(np.float64).eps * scale:
        return None

    even = np.empty((p + fe, p + fe), dtype=g.dtype)
    odd = np.empty((p + fo, p + fo), dtype=g.dtype)
    diagonal, cross = a + d, b + c
    np.add(diagonal, cross, out=even[:p, :p])
    np.subtract(diagonal, cross, out=odd[:p, :p])
    del diagonal, cross
    even[:p, :p] *= 0.5
    odd[:p, :p] *= 0.5
    even[:p, p:] = root_half * (g[pair, even_fixed] + g[partner, even_fixed])
    even[p:, :p] = root_half * (g[even_fixed, pair] + g[even_fixed, partner])
    even[p:, p:] = g[even_fixed, even_fixed]
    odd[:p, p:] = root_half * (g[pair, odd_fixed] - g[partner, odd_fixed])
    odd[p:, :p] = root_half * (g[odd_fixed, pair] - g[odd_fixed, partner])
    odd[p:, p:] = g[odd_fixed, odd_fixed]
    del g, a, b, c, d

    sectors = []
    for block, fixed_points, parity in ((even, fixed_even, 1.0), (odd, fixed_odd, -1.0)):
        staged = np.concatenate([leaders, fixed_points])
        ascending = np.argsort(staged)
        coords = staged[ascending]
        is_pair = ascending < p
        sectors.append(
            _Sector(
                block=block[np.ix_(ascending, ascending)],
                coords=coords,
                partners=perm[coords],
                scale=np.where(is_pair, root_half, 1.0),
                flips=np.where(is_pair, parity * signs[coords], 1.0),
            )
        )
    return sectors[0], sectors[1]


def _solve_sectors(even: _Sector, odd: _Sector) -> EigenSystem:
    """Solve both sector blocks and merge them into one ascending spectrum
    with eigenvectors in the original basis."""
    solved = [np.linalg.eigh(sector.block) for sector in (even, odd)]
    values = np.concatenate([solved[0][0], solved[1][0]])
    n = values.size
    ranking = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ranking] = np.arange(n)
    ranks = (rank[: even.coords.size], rank[even.coords.size :])
    # row r of `rows` is eigenvector r in the original basis
    rows = np.zeros((n, n), dtype=np.result_type(solved[0][1], solved[1][1]))
    for sector, (_, vectors), sector_rank in zip((even, odd), solved, ranks):
        weights = vectors.T * sector.scale
        rows[np.ix_(sector_rank, sector.coords)] = weights
        weights *= sector.flips
        rows[np.ix_(sector_rank, sector.partners)] = weights
    del solved, vectors, weights
    # column j is eigenvector j, Fortran-ordered like LAPACK's own output
    return EigenSystem(values=values[ranking], vectors=rows.T)


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

