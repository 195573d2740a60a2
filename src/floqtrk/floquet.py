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

import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import lapack
from .errors import ConfigError, InputError, NumericError, SizeError
from .model import DriveSpec, MatterOperator, _as_index, hermiticity_defect

#: Dense-eigensolve guard for the truncated Sambe matrix.
MAX_SAMBE_DIM = 6000

#: Degenerate in-zone eigenvalues are grouped within this fraction of Omega.
DEGENERACY_RTOL = 1e-9


def _scaled(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """z * s for a real s, C-ordered; a complex z part by part, since a
    complex product turns (-0.0 - 1j) * 1 into (0.0 - 1j)."""
    if not np.iscomplexobj(z):
        return np.multiply(z, s, order="C")
    out = np.empty(np.broadcast_shapes(z.shape, s.shape), dtype=np.result_type(z, s))
    out.real, out.imag = z.real * s, z.imag * s
    return out


class SectorBasis(NamedTuple):
    """An orthonormal basis of one sector, in original coordinates.

    Basis vector k is weights[k] * (e_coords[k] + flips[k] * e_partners[k]):
    a normalized pair combination (weight 1/sqrt(2), flip +-1), or a unit
    vector (weight 1, flip 0, partner = coord), whose coordinate keeps every
    bit. ``coords`` ascend, so a block structure of the operator (harmonic
    blocks, Fock levels) stays in order in the sector block.
    """

    coords: np.ndarray
    partners: np.ndarray
    weights: np.ndarray
    flips: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> SectorBasis:
        """The original basis, the one sector of a solve that does not split."""
        return cls(np.arange(dim), np.arange(dim), np.ones(dim), np.zeros(dim))

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Components of the original-basis vector ``x`` along this basis."""
        return _scaled(x[self.coords] + _scaled(x[self.partners], self.flips), self.weights)

    def embed(self, y: np.ndarray, dim: int) -> np.ndarray:
        """The original-basis vector with coordinates ``y`` in this basis,
        or one such column per column of a matrix ``y``."""
        out = np.zeros((*y.shape[1:], dim), dtype=y.dtype)  # transposed
        scaled = _scaled(y.T, self.weights)
        out[..., self.coords] = scaled
        out[..., self.partners] += _scaled(scaled, self.flips)
        return out.T


class DipoleRow(NamedTuple):
    """The dipole row of one sector: ``amplitudes[i]`` is conj(x) . v_j for
    eigenvector j = ``ranks[i]`` of the sector, with the probe
    x = (1 (x) ``dipole``) v_r, the dipole lifted over the operator's outer
    labels and r = ``reference`` a rank of the merged spectrum."""

    reference: int
    dipole: np.ndarray
    amplitudes: np.ndarray


class SectorBand(NamedTuple):
    """One sector block as a lower band in (matter coordinate, outer index)
    order: ``band`` is (kd + 1) x m, Fortran-ordered, LAPACK's storage of a
    lower band (``band[r - c, c]`` is entry (r, c), r >= c), and position r
    is sector coordinate ``order[r]``. So ``band`` is the lower band of
    block[order][:, order] for the block :meth:`ProductOperator.sector`
    writes, whose entries beyond kd are zero."""

    band: np.ndarray
    order: np.ndarray


class Sector(NamedTuple):
    """The eigenpairs of one sector: column i of ``vectors`` (in ``basis``
    coordinates) is eigenvector ``ranks[i]`` of the merged spectrum.

    A sector solved by numpy's ``eigh`` keeps every eigenvector, and
    ``kept`` is None. A values-only sector keeps the eigenvectors of local
    indices ``kept`` (ascending): column i of ``vectors`` is eigenvector
    ``kept[i]``. Every sector of a reference solve is values-only: the
    reference's own sector (:meth:`_BlockSolve.solve_values`), and the
    one that holds the reference's dipole ``row``
    (:func:`floqtrk.lapack.band_rows`, on a narrow sector band or on a
    dense block's tridiagonal T), the only products with its unkept
    eigenvectors that were solved. An operator that does not split is one
    sector, which is both.
    """

    basis: SectorBasis
    vectors: np.ndarray
    ranks: np.ndarray
    kept: np.ndarray | None = None
    row: DipoleRow | None = None


class _Solution(NamedTuple):
    """One block's solve, before the merge assigns its ranks (a
    :class:`Sector` without ``basis`` and ``ranks``; ``row`` holds the
    amplitudes of a :class:`DipoleRow`, whose reference is a merged rank)."""

    values: np.ndarray
    vectors: np.ndarray
    kept: np.ndarray | None = None
    row: np.ndarray | None = None


class EigenSystem:
    """Complete spectrum of one Hermitian matrix, eigenvalues ascending, as
    the sectors it was solved in: one, the identity basis, or two parity
    sectors of half the dimension.

    ``values[j]`` belongs to eigenvector j; :meth:`columns` gives a few of
    them in the original basis and :meth:`amplitudes` the products
    conj(x) . v_j for every j, both read sector by sector. The sectors'
    ``ranks`` must partition ``range(len(values))``.

    A values-only sector holds the eigenvalues and the eigenvectors it
    kept: :meth:`columns` refuses its others, and :meth:`amplitudes` gives
    exact zeros across it for an x with no component there, or, from a
    sector with a dipole row, that row for the x it was solved for.
    """

    def __init__(self, values: np.ndarray, sectors: tuple[Sector, ...]) -> None:
        self.values = values
        self.sectors = tuple(sectors)
        ranks = np.concatenate([np.empty(0, dtype=np.intp), *(s.ranks for s in self.sectors)])
        if not np.array_equal(np.sort(ranks), np.arange(self.dim)):
            raise InputError(
                f"sector ranks do not partition the indices of {self.dim} eigenvalues"
            )

    @classmethod
    def from_sectors(cls, solved: list[tuple[SectorBasis, _Solution]]) -> EigenSystem:
        """Merge (basis, solution) sector solves by a stable sort."""
        values = np.concatenate([solution.values for _, solution in solved])
        ranking = np.argsort(values, kind="stable")
        stops = np.cumsum([solution.values.size for _, solution in solved])
        ranks = np.split(np.argsort(ranking), stops[:-1])  # the inverse permutation
        sectors = [
            Sector(basis, solution.vectors, r, solution.kept)
            for (basis, solution), r in zip(solved, ranks)
        ]
        return cls(values[ranking], tuple(sectors))

    @property
    def dim(self) -> int:
        return self.values.size

    def column(self, j: int) -> np.ndarray:
        """Eigenvector j in the original basis; a negative j counts from the
        end."""
        return self.columns([j])[:, 0]

    def columns(self, indices: Iterable[int]) -> np.ndarray:
        """Eigenvectors ``indices`` in the original basis, one per column,
        Fortran-ordered; a negative index counts from the end. An
        eigenvector a values-only sector did not keep is refused."""
        wanted = np.array([self._position(j) for j in indices], dtype=np.intp)
        dtype = np.result_type(*(sector.vectors for sector in self.sectors))
        out = np.empty((self.dim, wanted.size), dtype=dtype, order="F")
        missing = np.ones(wanted.size, dtype=bool)
        for basis, vectors, ranks, kept, _ in self.sectors:
            local = np.full(self.dim, -1)
            local[ranks] = np.arange(ranks.size)
            mine = local[wanted] >= 0
            if np.any(mine):
                picked = local[wanted[mine]]
                if kept is not None:
                    # the column of each kept eigenvector, -1 for the others
                    slots = np.full(ranks.size, -1)
                    slots[kept] = np.arange(kept.size)
                    picked = slots[picked]
                    if np.any(picked < 0):
                        raise InputError(
                            f"eigenvector {wanted[mine][picked < 0][0]} lies in a values-only "
                            f"sector, which keeps only eigenvectors {ranks[kept].tolist()}"
                        )
                out[:, mine] = basis.embed(vectors[:, picked], self.dim)
                missing &= ~mine
        if np.any(missing):
            raise InputError(f"no sector holds eigenvector {wanted[missing][0]}")
        return out

    def _position(self, j: int) -> int:
        j = _as_index(j, "eigenvector index")
        if not -self.dim <= j < self.dim:
            raise InputError(f"eigenvector index {j} outside spectrum of size {self.dim}")
        return j % self.dim

    def amplitudes(
        self,
        x: np.ndarray,
        *,
        reference: int | None = None,
        dipole: np.ndarray | None = None,
    ) -> np.ndarray:
        """conj(x) . v_j for every eigenvector v_j, in ascending order.

        Across a values-only sector they are exact zeros, once x's component
        there is checked to be at rounding level (its norm at most
        :data:`SECTOR_COUPLING_EPS` eps times the sector's dimension and
        ||x||); a larger one is refused. A sector holding a
        :class:`DipoleRow` gives that row instead when the request names x
        as its probe (1 (x) d) v_r: ``reference`` is the row's rank r and
        ``dipole`` the very array d (``is``) of the operator it was solved
        from. That is decided on the names alone; x is not compared with
        the probe.
        """
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise InputError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        dtype = np.result_type(x, *(sector.vectors for sector in self.sectors))
        amps = np.empty(self.dim, dtype=dtype)
        for basis, vectors, ranks, kept, row in self.sectors:
            coordinates = basis.coordinates(x)
            if kept is None:
                amps[ranks] = coordinates.conj() @ vectors
                continue
            if row is not None and reference == row.reference and dipole is row.dipole:
                amps[ranks] = row.amplitudes
                continue
            leak = float(np.linalg.norm(coordinates))
            eps = np.finfo(np.float64).eps
            bound = SECTOR_COUPLING_EPS * eps * ranks.size * float(np.linalg.norm(x))
            if not leak <= bound:
                held = "" if row is None else (
                    f"; it holds only the dipole row of eigenvector {row.reference}"
                )
                raise InputError(
                    f"vector has a component of norm {leak:.3e} in a values-only sector "
                    f"(rounding level is {bound:.3e}); its amplitudes there were not "
                    f"solved{held}"
                )
            amps[ranks] = 0.0
        return amps


@dataclass(frozen=True, eq=False)
class FfbzSelection:
    """Output of :func:`fold_and_select_ffbz`: k first-zone representatives
    held as three columns.

    Representative i is eigenpair ``source_indices[i]``, whose raw
    eigenvalue already lies in the zone; representatives are ordered by
    quasienergy (degenerate groups by descending m=0-block weight). It has
    quasienergy ``quasienergies[i]``, phase-fixed eigenvector ``blocks[i]``
    (``blocks`` is k x (2 N_h + 1) x N_b, row m + N_h the coefficient
    vector c_m of the harmonic exp(+i m Omega t)) and ``edge_weights[i]``,
    the norm fraction in its two outermost blocks (the truncation-quality
    gauge). ``labels`` hold the zone index n of every eigenpair of the
    input spectrum (int64, eps = folded + n * Omega,
    :func:`fold_quasienergies`). ``operator`` is the Sambe operator the
    spectrum was solved from and ``edge_tol`` the edge-weight threshold of
    the selection. Warnings are data, never raised: an incomplete zone or
    an edge-heavy representative is reported and carried into downstream
    reports.

    Refused: blocks whose window or matter dimension is not the operator's,
    an even number of harmonic blocks, columns of unequal length, and a
    representative whose norm^2 is not 1 within 1e-10.
    """

    quasienergies: np.ndarray  # (k,)
    blocks: np.ndarray  # (k, 2 N_h + 1, N_b), complex or real
    edge_weights: np.ndarray  # (k,)
    labels: np.ndarray  # int64 zone index per eigenpair
    warnings: tuple[str, ...]
    source_indices: tuple[int, ...]  # representative -> eigenpair column
    operator: ProductOperator
    edge_tol: float

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks)
        window = (self.operator.labels.size, self.operator.matter.shape[0])
        if blocks.ndim != 3 or blocks.shape[1:] != window:
            raise InputError(
                f"representative blocks have shape {blocks.shape}, expected "
                f"(k, {window[0]}, {window[1]}), the operator's window"
            )
        if window[0] % 2 != 1:
            raise InputError(
                f"representatives need an odd number of harmonic blocks, got {window[0]}"
            )
        quasienergies = np.asarray(self.quasienergies, dtype=np.float64)
        edge_weights = np.asarray(self.edge_weights, dtype=np.float64)
        if quasienergies.shape != (len(blocks),) or edge_weights.shape != (len(blocks),):
            raise InputError(
                f"{len(blocks)} representatives need as many quasienergies and edge "
                f"weights, got shapes {quasienergies.shape} and {edge_weights.shape}"
            )
        norms = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-10)
        if bad.size:
            raise InputError(
                f"representative {bad[0]} has norm^2 = {float(norms[bad[0]])!r}, "
                f"expected 1 within 1e-10"
            )
        object.__setattr__(self, "quasienergies", quasienergies)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "edge_weights", edge_weights)


def _drive_factors(drive: DriveSpec) -> dict[int, float | complex]:
    """Coefficient f_k of the dipole in each Fourier block H_k = f_k d of
    -d * E(t); zero-amplitude components are dropped, real factors stay
    real."""
    factors: dict[int, float | complex] = {}
    for comp in drive.components:
        if comp.amplitude == 0.0:
            continue
        factor = -0.5 * comp.amplitude * np.exp(1j * comp.phase)
        if factor.imag == 0.0:
            factor = factor.real
        factors[comp.harmonic] = factor
        factors[-comp.harmonic] = np.conj(factor)
    return factors


def sambe_operator(
    h_matter: MatterOperator,
    dipole: MatterOperator,
    drive: DriveSpec,
    harmonic_cutoff: int,
    reflection: Reflection | None = None,
) -> ProductOperator:
    """The truncated Sambe matrix of H(t) = H_M - d * E(t) as a
    :class:`ProductOperator`.

    1 (x) H_M + diag(m Omega) (x) 1 + C (x) d on the harmonic-major index
    (m + N_h) * N_M + matter for m in [-N_h, N_h], with C[m, m'] = f_(m-m'),
    the factor of the Fourier block H_k = f_k d: f_(+k) = -(E_k/2)
    exp(+i phi_k) and f_(-k) = conj(f_(+k)) for each drive component with a
    nonzero amplitude. The operator holds its own truncation window
    (``labels`` = m), matter dimension and Omega (``frequency``). The matter
    reflection P is lifted to (-1)^m (x) P: x -> -x together with
    t -> t + T/2.

    Refused: a cutoff that is not an integer, below 0 or below the highest
    driven harmonic (it would drop a coupling), an empty matter space, and
    a dimension above :data:`MAX_SAMBE_DIM`.
    """
    factors = _drive_factors(drive)
    if _as_index(harmonic_cutoff, "harmonic cutoff") < 0:
        raise InputError(f"harmonic cutoff must be >= 0, got {harmonic_cutoff}")
    if h_matter.dim < 1:
        raise InputError(f"matter dimension must be >= 1, got {h_matter.dim}")
    max_k = max(factors, default=0)
    if harmonic_cutoff < max_k:
        raise ConfigError(
            f"harmonic cutoff {harmonic_cutoff} is below the highest drive "
            f"harmonic {max_k}; raise the cutoff so no coupling is dropped"
        )
    n = 2 * harmonic_cutoff + 1
    if n * h_matter.dim > MAX_SAMBE_DIM:
        raise SizeError(
            f"Sambe dimension {n * h_matter.dim} exceeds the dense guard {MAX_SAMBE_DIM}"
        )
    coupling = np.zeros((n, n), dtype=np.result_type(np.float64, *factors.values()))
    for k, factor in factors.items():
        rows = np.arange(max(k, 0), min(n, n + k))
        coupling[rows, rows - k] = factor
    return ProductOperator(
        matter=h_matter.matrix,
        labels=np.arange(-harmonic_cutoff, harmonic_cutoff + 1),
        frequency=drive.omega,
        dipole=dipole.matrix,
        coupling=coupling,
        reflection=reflection,
    )


class Reflection(NamedTuple):
    """A signed-permutation involution S: S e_i = signs[i] e_perm[i].

    A Hermitian matrix that commutes with S splits into its S = +1 and
    S = -1 sectors, which :func:`diagonalize_hermitian` solves separately.
    """

    perm: np.ndarray  # integer, perm[perm[i]] == i
    signs: np.ndarray  # +1.0 or -1.0, signs[perm[i]] == signs[i]


def basis_reversal(dim: int) -> Reflection:
    """e_i -> e_(dim-1-i): x -> -x on a grid symmetric about x = 0.

    On the two-electron tensor grid (flat index a * n + b), reversing the
    flat index reverses a and b together, so it reflects both electrons.
    """
    return Reflection(np.arange(dim)[::-1].copy(), np.ones(dim))


def _checked_reflection(reflection: Reflection, n: int) -> Reflection:
    """``reflection`` as integer and float arrays, refused unless it is a
    signed-permutation involution of ``n`` indices."""
    perm = np.asarray(reflection.perm)
    signs = np.asarray(reflection.signs, dtype=np.float64)
    if perm.shape != (n,) or signs.shape != (n,):
        raise InputError(
            f"reflection has {perm.size} indices and {signs.size} signs, "
            f"expected {n} of each"
        )
    if (
        not np.issubdtype(perm.dtype, np.integer)
        or np.any((perm < 0) | (perm >= n))
        or np.any(perm[perm] != np.arange(n))
        or np.any(np.abs(signs) != 1.0)
        or np.any(signs[perm] != signs)
    ):
        raise InputError(
            "reflection must be a signed-permutation involution: perm[perm] == "
            "identity, signs of +-1 with signs[perm] == signs"
        )
    return Reflection(perm, signs)


def _parity_basis(reflection: Reflection, parity: int) -> SectorBasis:
    """Basis of the P = ``parity`` eigenspace of P = ``reflection``:
    (e_i + parity * s_i e_perm(i)) / sqrt(2) for each pair i < perm(i), and
    e_i for each fixed point with s_i = parity."""
    perm, signs = reflection
    index = np.arange(perm.size)
    coords = index[(perm > index) | ((perm == index) & (signs == parity))]
    is_pair = perm[coords] != coords
    return SectorBasis(
        coords=coords,
        partners=perm[coords],
        weights=np.where(is_pair, math.sqrt(0.5), 1.0),
        flips=np.where(is_pair, parity * signs[coords], 0.0),
    )


def _project(a: np.ndarray, rows: SectorBasis, cols: SectorBasis) -> np.ndarray:
    """U_rows^T a U_cols, for the real basis matrices U of two bases."""
    left = a[rows.coords] + rows.flips[:, None] * a[rows.partners]
    left *= rows.weights[:, None]
    return (left[:, cols.coords] + left[:, cols.partners] * cols.flips) * cols.weights


#: A sector split is taken when the block coupling the two sectors is at
#: most this many machine epsilons times max |M|: rounding level, the order
#: of LAPACK's own backward error.
SECTOR_COUPLING_EPS = 16


@dataclass(frozen=True, eq=False)
class ProductOperator:
    """H = 1 (x) H_M + diag(shifts) (x) 1 + C (x) d on outer (x) matter space.

    The index is outer-major, outer * N_M + matter, for every operator:
    block (j, k) of the full matrix is delta_jk (H_M + shift_j 1) +
    C[j, k] d. The outer factor is labelled by integers, with shift
    labels * frequency and parity (-1)^label, and C is ``coupling``. The
    Sambe matrix is the case label = harmonic m, shift m Omega and
    C[m, m'] = f_(m-m') (:func:`sambe_operator`). The joint matter-photon
    Hamiltonian is the case label = photon number n, shift n omega_c and
    C = -g (a + a^dagger) (:func:`floqtrk.qed.joint_operator`). Without
    ``dipole`` and ``frequency`` it is the lifted matter operator 1 (x) H_M.

    ``operator @ vector`` runs block by block on matter-size products. With
    a matter reflection P, :attr:`splits` decides whether (-1)^label (x) P
    commutes with H, and :meth:`sector` and :meth:`sector_band` write each
    sector block by kind, H_M or d projected onto P's pair bases. An
    operator that does not split is its one sector (:attr:`parities`), in
    the identity basis; :meth:`toarray` is that sector without P.
    """

    matter: np.ndarray  # H_M
    labels: np.ndarray  # integer label of each outer index
    frequency: float = 0.0
    dipole: np.ndarray | None = None  # d
    coupling: np.ndarray | None = None  # C, Hermitian, outer x outer
    reflection: Reflection | None = None

    def __post_init__(self) -> None:
        n_m = self.matter.shape[0]
        if self.matter.shape != (n_m, n_m):
            raise InputError(f"matter operator has shape {self.matter.shape}, expected square")
        labels = np.asarray(self.labels)
        n_o = labels.size
        if self.dipole is not None and (
            self.dipole.shape != (n_m, n_m)
            or self.coupling is None
            or self.coupling.shape != (n_o, n_o)
        ):
            raise InputError(
                f"dipole and coupling must have shapes ({n_m}, {n_m}) and ({n_o}, {n_o})"
            )
        object.__setattr__(self, "labels", labels)
        if self.reflection is not None:
            object.__setattr__(
                self, "reflection", _checked_reflection(self.reflection, n_m)
            )

    @property
    def shape(self) -> tuple[int, int]:
        n = self.matter.shape[0] * self.labels.size
        return (n, n)

    @functools.cached_property
    def shifts(self) -> np.ndarray:
        return self.labels * self.frequency

    def toarray(self) -> np.ndarray:
        """The full-size dense matrix, Fortran-ordered for LAPACK to reduce
        in place: the one sector of the operator without its reflection
        (:meth:`sector`), so every exact zero is +0.0."""
        return replace(self, reflection=None).sector(1)[0]

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        x = np.asarray(vector)
        n_m, n_o = self.matter.shape[0], self.labels.size
        if x.shape != (n_m * n_o,):
            raise InputError(f"expected a vector of length {n_m * n_o}, got shape {x.shape}")
        grid = x.reshape(n_o, n_m).T  # column j is the matter vector at outer index j
        out = self.matter @ grid
        if self.frequency:
            out = out + grid * self.shifts
        if self._couples:
            out = out + self.dipole @ grid @ self.coupling.T
        return out.T.ravel()

    @functools.cached_property
    def _couples(self) -> bool:
        return self.dipole is not None and bool(np.any(self.coupling != 0))

    @functools.cached_property
    def _dtype(self) -> np.dtype:
        """The dtype of the full matrix and of its sector blocks."""
        return np.result_type(
            self.matter,
            np.float64,
            *((self.dipole, self.coupling) if self._couples else ()),
        )

    @functools.cached_property
    def _outer_signs(self) -> np.ndarray:
        return np.where(self.labels % 2 == 0, 1, -1)

    @property
    def parities(self) -> tuple[int, ...]:
        """The sectors of a solve: (1, -1) when the operator splits, else (1,)."""
        return (1, -1) if self.splits else (1,)

    @functools.cached_property
    def _bases(self) -> dict[int, SectorBasis]:
        return {p: _parity_basis(self.reflection, p) for p in (1, -1)}

    @functools.cached_property
    def _projections(self) -> dict[tuple[str, int, int], np.ndarray]:
        """H_pq and d_pq = U_p^T (H_M or d) U_q on P's eigenspaces p, q; the
        dipole's only when there is one."""
        bases = self._bases
        pairs = [(1, 1), (-1, -1), (1, -1)]
        blocks = {("h", p, q): _project(self.matter, bases[p], bases[q]) for p, q in pairs}
        if self.dipole is not None:
            for p, q in pairs:
                blocks["d", p, q] = _project(self.dipole, bases[p], bases[q])
            blocks["d", -1, 1] = blocks["d", 1, -1].conj().T
        return blocks

    def _sector_dim(self, parity: int) -> int:
        return sum(self._bases[parity * s].coords.size for s in self._outer_signs)

    @functools.cached_property
    def _described(self) -> dict[int, tuple[SectorBasis, np.ndarray, list[tuple]]]:
        """Each parity's sector (:meth:`sector`): its basis, where each run
        starts, and its block by kind, (values, j, k, scales) for ``values``
        at run pairs (j[i], k[i]) times scales[i]: H_(p p) on the runs of each
        p, as it is (``scales`` None) and then each run's shift, then
        C[j, k] d_(p q) at the pairs C couples, in the order an entry sums them."""
        n_m, runs = self.matter.shape[0], np.arange(self.labels.size)
        split = self.splits  # else P = 1, whose basis is the identity
        signs = self._outer_signs if split else np.ones_like(self._outer_signs)
        bases = self._bases if split else {1: SectorBasis.identity(n_m)}
        unprojected = {("h", 1, 1): self.matter, ("d", 1, 1): self.dipole}
        blocks = self._projections if split else unprojected
        coupled = np.nonzero(self.coupling if self._couples else np.zeros((0, 0)))
        described = {}
        for parity in self.parities:
            parts = [bases[p] for p in parity * signs]
            starts = np.cumsum([0, *(part.coords.size for part in parts)])
            offsets = np.repeat(runs * n_m, np.diff(starts))
            basis = SectorBasis(*map(np.concatenate, zip(*parts)))
            basis = basis._replace(coords=offsets + basis.coords, partners=offsets + basis.partners)
            kinds = []
            for name, (j, k) in (("h", (runs, runs)), ("d", coupled)):
                pj, pk = parity * signs[j], parity * signs[k]
                for p, q in sorted(set(zip(pj.tolist(), pk.tolist()))):
                    at = (pj == p) & (pk == q)
                    scales = self.coupling[j[at], k[at]] if name == "d" else None
                    kinds.append((blocks[name, p, q], j[at], k[at], scales))
            described[parity] = (basis, starts, kinds)
        return described

    def _checked_parity(self, parity: int) -> int:
        """``parity``, refused unless the operator has a sector of it."""
        if parity not in self.parities:
            raise InputError(f"no sector of parity {parity}, the operator's are {self.parities}")
        return parity

    @functools.cached_property
    def _band_layouts(self) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
        """For each parity: the band order of the sector coordinates (by
        matter coordinate, then outer index), each one's band position, and
        the half bandwidth kd, the largest |r - c| of :meth:`_band_entries`."""
        layouts = {}
        for parity in self.parities:
            order = np.lexsort(np.divmod(self._described[parity][0].coords, self.matter.shape[0]))
            position = np.argsort(order)
            spans = [np.abs(t).max(initial=0) for t, _, _ in self._band_entries(parity, position)]
            layouts[parity] = (order, position, int(max(spans, default=0)))
        return layouts

    def _band_entries(self, parity: int, position: np.ndarray) -> Iterable[tuple]:
        """The nonzero entries of the ``parity`` sector's kinds, a group at a
        time in the order :meth:`sector` adds them: r - c, c for band positions
        r, c, and values. A scale times an entry that underflows to 0 is none."""
        _, starts, kinds = self._described[parity]
        for values, j, k, scales in kinds:
            a, b = values.nonzero()
            scaled = values[a, b] * (1.0 if scales is None else scales[:, None])
            groups = [(starts[j, None] + a, starts[k, None] + b, scaled)]
            if scales is None:
                diagonal = starts[j, None] + np.arange(values.shape[0])
                groups.append((diagonal, diagonal, self.shifts[j, None]))
            for rows, cols, entries in groups:
                r, c, entries = np.broadcast_arrays(position[rows], position[cols], entries)
                keep = entries != 0
                yield r[keep] - c[keep], c[keep], entries[keep]

    def band_width(self, parity: int) -> int:
        """The half bandwidth kd of the ``parity`` sector block in (matter
        coordinate, outer index) order (:meth:`sector_band`), read off its
        kinds: n_max + 1 for a joint operator and 2 N_h + 1 for a Sambe
        operator on the three-point grid, whose H_M is tridiagonal and d
        diagonal; the sector's dimension with a dense H_M."""
        return self._band_layouts[self._checked_parity(parity)][2]

    def sector_band(self, parity: int) -> SectorBand:
        """The block of H in its (-1)^label (x) P = ``parity`` sector as a
        lower band (:class:`SectorBand`): its kinds' entries added in the
        order of :meth:`sector`, so it is that block under the band order bit
        for bit. A real operator only; a complex one is refused."""
        if self._dtype != np.float64:
            raise InputError(f"a sector band holds a real operator only, got {self._dtype}")
        order, position, kd = self._band_layouts[self._checked_parity(parity)]
        band = np.zeros((kd + 1, order.size), order="F")
        for t, c, values in self._band_entries(parity, position):
            lower = t >= 0
            band[t[lower], c[lower]] += values[lower]
        return SectorBand(band, order)

    @functools.cached_property
    def splits(self) -> bool:
        """Whether the lifted reflection (-1)^label (x) P commutes with H.

        Decided on matter-size operators: P H_M P = H_M, P d P = -d and every
        coupling C[j, j'] between outer indices of opposite parity, each to
        within :data:`SECTOR_COUPLING_EPS` eps max|M| (:attr:`_scale`).
        False without a reflection, when a sector is empty, or when an
        operator is not finite or not Hermitian (the dense solve of the one
        sector then reports it).
        """
        sectors = self.reflection is not None and self._sector_dim(1) and self._sector_dim(-1)
        if not sectors or self._scale is None:
            return False
        blocks = self._projections
        largest = float(np.max(np.abs(blocks["h", 1, -1]), initial=0.0))
        if self._couples:
            coupling = np.abs(self.coupling)
            odd = self._outer_signs[:, None] != self._outer_signs
            same_parity = max(
                np.max(np.abs(blocks["d", 1, 1]), initial=0.0),
                np.max(np.abs(blocks["d", -1, -1]), initial=0.0),
            )
            largest = max(
                largest,
                np.max(coupling[odd], initial=0.0) * same_parity,
                np.max(coupling[~odd], initial=0.0)
                * np.max(np.abs(blocks["d", 1, -1]), initial=0.0),
            )
        return largest <= SECTOR_COUPLING_EPS * np.finfo(np.float64).eps * self._scale

    @functools.cached_property
    def _scale(self) -> float | None:
        """max|M| read off the blocks; None when the factors are not finite
        or not Hermitian, which :attr:`splits` and the band route decline and
        the dense solve refuses (:func:`_checked_hermitian`)."""
        diagonal = np.real(np.diagonal(self.matter))[:, None] + self.shifts
        pieces = [np.max(np.abs(self.matter)), np.max(np.abs(diagonal))]
        if self._couples:
            pieces.append(np.max(np.abs(self.coupling)) * np.max(np.abs(self.dipole)))
        scale = float(np.max(pieces))
        if not math.isfinite(scale):
            return None
        defect = hermiticity_defect(self.matter)
        if self._couples:
            defect = max(
                defect,
                hermiticity_defect(self.dipole) * np.max(np.abs(self.coupling)),
                hermiticity_defect(self.coupling) * np.max(np.abs(self.dipole)),
            )
        return None if defect > 1e-10 * max(1.0, scale) else scale

    @functools.cached_property
    def odd_dipole(self) -> bool:
        """Whether the dipole is odd under the reflection, P d P = -d, so
        that 1 (x) d couples only opposite sectors of (-1)^label (x) P: its
        same-parity projections d_pp are at most
        :data:`SECTOR_COUPLING_EPS` eps max|d|. Decided on matter-size
        operators whether or not d couples. False without a reflection or a
        dipole, or for a non-finite dipole."""
        if self.reflection is None or self.dipole is None:
            return False
        scale = float(np.max(np.abs(self.dipole), initial=0.0))
        blocks = self._projections
        same_parity = max(np.max(np.abs(blocks["d", p, p]), initial=0.0) for p in (1, -1))
        return same_parity <= SECTOR_COUPLING_EPS * np.finfo(np.float64).eps * scale

    def sector(self, parity: int) -> tuple[np.ndarray, SectorBasis]:
        """The block of H in its (-1)^label (x) P = ``parity`` sector (the
        one sector of an operator that does not split), Fortran-ordered for
        LAPACK to reduce in place, and that sector's basis.

        Outer index j carries P's eigenspace p_j = parity * (-1)^label_j (the
        matter space, unsplit), and its basis vectors form the j-th run of
        sector coordinates, so the sector basis ascends in the outer-major
        index. Run j's diagonal block is H_(p_j p_j) + shift_j and its block
        towards each run j' it couples to C[j, j'] d_(p_j p_j'), written kind
        by kind onto zeros (:attr:`_described`), so every exact zero is +0.0.
        """
        basis, starts, kinds = self._described[self._checked_parity(parity)]
        block = np.zeros((starts[-1], starts[-1]), dtype=self._dtype, order="F")
        diag = block.reshape(-1, order="F")[:: starts[-1] + 1]  # a view of the diagonal
        for values, rows, cols, scales in kinds:
            for i, (j, k) in enumerate(zip(rows, cols)):
                run, other = slice(starts[j], starts[j + 1]), slice(starts[k], starts[k + 1])
                block[run, other] += values if scales is None else scales[i] * values
                if scales is None:
                    diag[run] += self.shifts[j]
        return block, basis


#: Picks the reference representative of a first-zone selection, by index.
ReferencePicker = Callable[["FfbzSelection"], int]


def diagonalize_hermitian(
    matrix: np.ndarray | ProductOperator,
    *,
    reflection: Reflection | None = None,
    reference: int | ReferencePicker | None = None,
) -> EigenSystem:
    """Complete spectrum of a Hermitian matrix, eigenvalues ascending, as
    the sectors it was solved in (:class:`EigenSystem`).

    ``matrix`` is a :class:`ProductOperator` or a dense array (with a
    ``reflection`` S, the operator with an outer space of size one). When
    the lifted reflection commutes (:attr:`ProductOperator.splits`), the
    S = +1 and S = -1 sector blocks are solved one at a time, two half-size
    solves at about a quarter of the flops. Otherwise the one sector is the
    identity basis. Exactly real-valued input is routed to the real path,
    which is several times faster than the complex one at the dimensions
    the dense guards allow. NaN or infinite entries raise NumericError
    before any solve.

    Without a ``reference`` each sector block is solved by numpy's
    ``eigh``, and every eigenvector is kept.

    With a ``reference``, a real operator with a dipole d is solved for
    what a closure sum from the reference reads: every eigenvalue, the
    reference's eigenvector (with, for a picker, the other in-zone ones)
    and the reference's :class:`DipoleRow`, the products of the probe
    (1 (x) d) v_r with every eigenvector. No eigenvector matrix is formed.
    The reference is a rank r of the merged spectrum or, for a
    :func:`sambe_operator`, a picker, which maps a first-zone selection
    (:func:`fold_and_select_ffbz`) to the index of the reference
    representative. An operator that does not split is one sector, which
    holds both. An operator that splits and whose dipole is odd
    (:attr:`ProductOperator.odd_dipole`) has the dipole couple the
    reference only to the opposite sector, so its own sector is solved
    values-only (:meth:`_BlockSolve.solve_values`): its eigenvalues and
    the eigenvectors it keeps, the reference's among them. The opposite
    sector keeps its eigenvalues, the row and, for a picker, its in-zone
    eigenvectors.

    Every reference, rank or pick, takes one route (:func:`_solve_around`):
    the sector bands when they are narrow, the dense blocks otherwise, and
    ``eigh`` for whatever the route cannot serve. When each sector block
    (both parity sectors, or the one sector of an operator that does not
    split) is a narrow band in (matter coordinate, outer index) order
    (:meth:`ProductOperator.band_width`, at most m / :data:`BAND_RATIO`),
    no sector is first written densely: each band is reduced without Q by
    ``dsbtrd``, two side by side (it runs on one core, so one band is
    reduced on a second thread; at one OpenBLAS thread, in turn).
    Otherwise each block (:meth:`ProductOperator.sector`), which the solve
    owns, is reduced in place by LAPACK's ``dsytrd`` from numpy's bundled
    OpenBLAS
    (:mod:`floqtrk.lapack`). The reference's sector is chosen on the T of
    each: for a rank, on the r + 1 lowest eigenvalues of each; for a
    picker, which is called on the eigenpairs of each sector in the zone
    [-Omega/2, Omega/2), widened by a rounding margin
    (:func:`floqtrk.lapack.window`). Kept eigenpairs come from bisection on
    T and inverse iteration: on a dense block's T by ``dstein`` and Q
    (:func:`floqtrk.lapack.eigenpairs`), on a band by banded inverse
    iteration, orthogonalized within a cluster as ``dstein`` does
    (:func:`floqtrk.lapack.band_eigenpairs`). Every other eigenvalue comes
    from ``dsterf`` on T. The row comes from one kernel,
    :func:`floqtrk.lapack.band_rows`, on the row sector's band or on its
    T, a band of half bandwidth 1, once ``dormtr`` has put Q^T on the
    probe, with no Q, Z or m x m array, while ``dsterf`` runs beside it
    (:func:`floqtrk.lapack.each`).

    Each dense solve (``eigh``, ``dsytrd``, ``dormtr``) is a
    :mod:`floqtrk.lapack` call that sets its own OpenBLAS thread count in
    a job (:meth:`floqtrk.lapack.Scheduler.dense`); none is set here.

    What a reference solve cannot serve is solved as without a reference,
    by ``eigh``: a block or band LAPACK declines (unscaled, or without the
    bundled OpenBLAS); a kept eigenvector that inverse iteration does not
    confirm (a band vector whose residual is above rounding, or a ``dstein``
    run that does not converge); a picker whose index is outside the
    selection, or a zone with no eigenvalue; a rank whose eigenvalue lies
    within rounding of one of the other sector, a tie the merge could rank
    either way; a merged spectrum that names another reference (a tie
    across the sectors, or a pick that moves at rounding level) or holds an
    in-zone eigenpair a values-only sector did not keep, where the row
    belongs to another reference; and a row solve that reports a failure.
    So are an operator without a dipole, a complex one and a splitting one
    whose dipole is not odd.
    """
    if isinstance(matrix, ProductOperator):
        if reflection is not None:
            raise InputError("a ProductOperator carries its own reflection")
        operator, full = matrix, None
    else:
        full = _checked_hermitian(matrix)
        operator = ProductOperator(matter=full, labels=np.zeros(1, dtype=int), reflection=reflection)
    anchor = None
    if callable(reference):
        if not operator.frequency > 0.0:
            raise InputError("a first-zone reference picker needs a Sambe operator")
        anchor = _ZoneAnchor(operator, reference)
    elif reference is not None:
        dim = operator.shape[0]
        if not 0 <= _as_index(reference, "reference index") < dim:
            raise InputError(f"reference index {reference} outside spectrum of size {dim}")
        anchor = _RankAnchor(reference)
    if (
        anchor is not None
        and operator.dipole is not None
        and operator._dtype == np.float64
        and (operator.odd_dipole or not operator.splits)
    ):
        return _solve_around(operator, anchor)
    solved = []
    for block, basis, _ in _sectors(operator, full):
        solved.append((basis, _eigh(block)))
        del block
    return EigenSystem.from_sectors(solved)


def _sectors(
    operator: ProductOperator, full: np.ndarray | None = None
) -> Iterable[tuple[np.ndarray, SectorBasis, int]]:
    """Each sector block of ``operator``, which the solve owns, with its
    basis and parity (:attr:`ProductOperator.parities`): the
    :meth:`ProductOperator.sector` blocks, the one sector of an operator
    that does not split checked (:func:`_checked_hermitian`), or ``full``,
    the checked copy a dense input already is."""
    if full is not None and not operator.splits:
        yield full, SectorBasis.identity(full.shape[0]), 1
        return
    for parity in operator.parities:
        block, basis = operator.sector(parity)
        yield (block if operator.splits else _checked_hermitian(block, owned=True)), basis, parity


class _Choice(NamedTuple):
    """The sectors of a reference solve: the parity of the reference's own
    and the reference's local index there; for each parity, the run of
    local indices that sector keeps, and the eigenpairs of every non-empty
    run, which the choice solved. The one sector of an operator that does
    not split has parity 1."""

    parity: int
    reference: int
    kept: dict[int, range]
    pairs: dict[int, tuple[np.ndarray, np.ndarray]]


class _RankAnchor(NamedTuple):
    """The reference of a solve given as rank ``rank`` of the merged
    spectrum."""

    rank: int

    def choose(self, solves: dict[int, tuple[SectorBasis, _BlockSolve]]) -> _Choice | None:
        """The sector that holds the rank, decided on the rank + 1 lowest
        eigenvalues of each T, and the reference's eigenpair there
        (:meth:`_BlockSolve.eigenpairs`, from a dense block's T or a band's,
        whose vector is found at the value bisected for the choice); None
        when inverse iteration does not confirm the vector."""
        lowest = {p: block_solve.lowest(self.rank + 1) for p, (_, block_solve) in solves.items()}
        # rank among all, a tie going to the +1 sector as in from_sectors
        local = int(np.argsort(np.concatenate(list(lowest.values())), kind="stable")[self.rank])
        for own, values in lowest.items():
            if local < values.size:
                break
            local -= values.size
        run = range(local, local + 1)
        pairs = solves[own][1].eigenpairs(run, values[run.start : run.stop])
        if pairs is None:
            return None
        kept = {p: run if p == own else range(0) for p in solves}
        return _Choice(own, local, kept, {own: pairs})

    def final_rank(self, system: EigenSystem) -> int | None:
        """The rank; None when another sector has an eigenvalue within
        rounding (n eps max |value|) of the reference's, a tie the merged
        spectrum may rank either way."""
        values = system.values
        margin = values.size * np.finfo(np.float64).eps * np.max(np.abs(values))
        for sector in system.sectors:
            near = np.abs(values[sector.ranks] - values[self.rank]) <= margin
            if self.rank not in sector.ranks and np.any(near):
                return None
        return self.rank


class _ZoneAnchor(NamedTuple):
    """The reference of a Sambe solve given as the representative that
    ``pick`` names in a first-zone selection."""

    operator: ProductOperator
    pick: ReferencePicker

    def choose(self, solves: dict[int, tuple[SectorBasis, _BlockSolve]]) -> _Choice | None:
        """The picked representative's sector and both sectors' first-zone
        eigenpairs (:meth:`_BlockSolve.eigenpairs`, from a dense block's T or
        a band's); None when inverse iteration does not confirm a vector or
        nothing is picked (an empty zone or a pick outside the selection)."""
        half, dim = self.operator.frequency / 2, self.operator.shape[0]
        runs = {p: lapack.window(solves[p][1].reduced, -half, half) for p in solves}
        pairs = {}
        for p, run in runs.items():
            if run:
                pairs[p] = solves[p][1].eigenpairs(run)
                if pairs[p] is None:
                    return None
        # the window's eigenpairs merged, a tie going to the +1 sector
        values = np.concatenate([np.empty(0), *(w for w, _ in pairs.values())])
        order = np.argsort(values, kind="stable")
        _, labels = fold_quasienergies(values[order], self.operator.frequency)
        in_zone = order[labels == 0]
        if not in_zone.size:
            return None
        columns = np.hstack([solves[p][0].embed(vectors, dim) for p, (_, vectors) in pairs.items()])
        selection = _select_first_zone(
            values[in_zone],
            np.asfortranarray(columns[:, in_zone]),  # as EigenSystem.columns gives them
            in_zone.tolist(),
            labels,
            self.operator,
        )
        index = self.pick(selection)
        if not 0 <= index < in_zone.size:
            return None
        parities = np.concatenate([np.full(len(runs[p]), p) for p in pairs])
        local = np.concatenate([np.array(runs[p]) for p in pairs])
        position = selection.source_indices[index]
        return _Choice(int(parities[position]), int(local[position]), runs, pairs)

    def final_rank(self, system: EigenSystem) -> int | None:
        """The rank the pick names in the merged spectrum's selection; None
        when an in-zone eigenvector was not kept."""
        try:
            selection = fold_and_select_ffbz(system, self.operator)
        except InputError:
            return None
        return selection.source_indices[self.pick(selection)]


#: A reference solve reduces sectors as bands when this many times each
#: sector's half bandwidth kd is at most its dimension m (:func:`_narrow`).
#: ``dsbtrd`` then beats ``dsytrd``: on a 2-core x86_64 machine at 2
#: OpenBLAS threads they cross near kd = m/15 at m = 502 and kd = m/25 at
#: m = 1106-1708.
BAND_RATIO = 32


def _narrow(operator: ProductOperator) -> bool:
    """Whether each sector block of ``operator`` is a narrow band,
    :data:`BAND_RATIO` kd <= m, and its factors are finite and Hermitian:
    a band holds the lower triangle only, and the dense solve refuses them."""
    return operator._scale is not None and all(
        BAND_RATIO * kd <= order.size for order, _, kd in operator._band_layouts.values()
    )


def _solve_around(operator: ProductOperator, anchor: _RankAnchor | _ZoneAnchor) -> EigenSystem:
    """The sectors of a real ``operator`` with a dipole, solved for the
    ``anchor``'s reference and its dipole row (:func:`diagonalize_hermitian`):
    the sector bands when they are narrow (:func:`_band_solves`), the dense
    blocks otherwise (:func:`_dense_solves`). Whatever that route cannot
    serve is solved by ``eigh`` (:func:`_merged`)."""
    solves = _band_solves(operator) if _narrow(operator) else _dense_solves(operator)
    choice = None if solves is None else anchor.choose(solves)
    return _merged(operator, anchor, choice, _solve_for_row(operator, solves, choice))


def _solve_for_row(
    operator: ProductOperator,
    solves: dict[int, tuple[SectorBasis, _BlockSolve]] | None,
    choice: _Choice | None,
) -> list[tuple[SectorBasis, _Solution]] | None:
    """The ``solves`` of a reference solve, as the ``choice`` keeps them:
    the reference's own sector values-only and the row sector (the other
    one, or the one sector of an operator that does not split) for the
    reference's dipole row, in the order parity +1, -1. None when there is
    no choice (no ``solves``, or nothing the anchor can choose) or the row
    solve (:func:`floqtrk.lapack.band_rows`) reports a failure.

    The probe (1 (x) d) v_r goes into the row sector's band
    (:meth:`_BlockSolve.probes`), whose row is solved while every sector's
    values come from its T beside it (:func:`floqtrk.lapack.each`).
    The blocks are taken out of ``solves`` and freed before the row solve."""
    if choice is None:
        if solves is not None:
            solves.clear()
        return None
    own, reference, pairs = choice.parity, choice.reference, choice.pairs
    row = -own if len(solves) == 2 else own
    basis, own_solve = solves.pop(own)
    row_basis, row_solve = solves.pop(row) if row != own else (basis, own_solve)
    ks = choice.kept[own]
    psi = basis.embed(pairs[own][1][:, reference - ks.start], operator.shape[0])
    lifted = ProductOperator(matter=operator.dipole, labels=operator.labels)
    probes = row_solve.probes(row_basis.coordinates(lifted @ psi))
    # the reflectors are spent: a dense block is freed before the row solve
    # allocates, so no array lands above it on the heap and its pages return
    own_solve, row_solve = own_solve.spent(), row_solve.spent()

    def values() -> tuple[_Solution | None, np.ndarray]:
        # each on one core: dsterf, and the bisection's values of a kept run
        solution = own_solve.solve_values(ks, pairs[own]) if row != own else None
        return solution, lapack.eigenvalues(row_solve.reduced)

    (solution, row_values), rows = lapack.each(
        [values, lambda: lapack.band_rows(row_solve.band, probes)]
    )
    if rows is None:
        return None
    kept = choice.kept[row]
    vectors = pairs[row][1] if kept else np.zeros((row_values.size, 0))
    row_solution = _Solution(
        row_values, vectors, kept=np.arange(kept.start, kept.stop), row=rows[0].conj()
    )
    solved = {row: (row_basis, row_solution)}
    if solution is not None:
        solved[own] = (basis, solution)
    return [solved[p] for p in (1, -1) if p in solved]


def _merged(
    operator: ProductOperator,
    anchor: _RankAnchor | _ZoneAnchor,
    choice: _Choice | None,
    solved: list[tuple[SectorBasis, _Solution]] | None,
) -> EigenSystem:
    """The merged spectrum of the ``solved`` sectors of a reference solve,
    whose reference is the ``choice``'s, with the :class:`DipoleRow` of the
    solution that holds a row.

    Should nothing be ``solved`` (no choice: a declined reduction, an
    unconfirmed eigenvector or nothing picked; or a failed row solve), or
    the merged spectrum name another reference than the anchor's (the
    merge ranked a tie across the sectors the other way round, or the pick
    moved with the row sector's rounding), so that the row belongs to
    another reference, or a rank tie another sector's value within
    rounding (:meth:`_RankAnchor.final_rank`), ``operator`` is solved
    without one, by ``eigh``."""
    if solved is None:
        return diagonalize_hermitian(operator)
    system = EigenSystem.from_sectors(solved)
    own = 0 if choice.parity == 1 else 1
    rank = int(system.sectors[own].ranks[choice.reference])
    if rank != anchor.final_rank(system):
        return diagonalize_hermitian(operator)
    sectors = tuple(
        sector if solution.row is None
        else sector._replace(row=DipoleRow(rank, operator.dipole, solution.row))
        for sector, (_, solution) in zip(system.sectors, solved)
    )
    return EigenSystem(system.values, sectors)


def _band_solves(operator: ProductOperator) -> dict[int, tuple[SectorBasis, _BlockSolve]] | None:
    """Each sector of a narrow ``operator`` (:func:`_narrow`) written as a
    band (:meth:`ProductOperator.sector_band`) and reduced without Q, two
    side by side (:func:`floqtrk.lapack.each`): each a :class:`_BlockSolve`
    that reads its eigenpairs off its band; None when a reduction
    declines."""
    bands = {p: operator.sector_band(p) for p in operator.parities}
    reduced = lapack.each([functools.partial(lapack.band_reduce, b.band) for b in bands.values()])
    if any(r is None for r in reduced):
        return None
    bases = {p: operator._described[p][0] for p in bands}
    return {p: (bases[p], _BlockSolve(r, *bands[p])) for p, r in zip(bands, reduced)}


def _dense_solves(operator: ProductOperator) -> dict[int, tuple[SectorBasis, _BlockSolve]] | None:
    """Each sector block of ``operator`` (:func:`_sectors`) reduced in place
    (:func:`_reduce`), one after the other: each a :class:`_BlockSolve` that
    reads its eigenpairs off its T and Q; None when a reduction declines."""
    solves = {}
    for block, basis, parity in _sectors(operator):
        block_solve = _reduce(block)
        if block_solve is None:
            return None
        solves[parity] = (basis, block_solve)
    return solves


def _checked_hermitian(matrix: np.ndarray, owned: bool = False) -> np.ndarray:
    """A copy of ``matrix``, checked to be square, finite and Hermitian;
    made exactly Hermitian when complex, and real and Fortran-ordered when
    its imaginary part is zero. An ``owned`` matrix that is already real
    and Fortran-ordered is returned itself, for the solve to overwrite."""
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
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) != 0.0:
        return (m + m.conj().T) / 2.0
    if owned and m.dtype == np.float64 and m.flags.f_contiguous:
        return m
    return np.array(m.real, dtype=np.result_type(m.real, np.float64), order="F")


class _BlockSolve(NamedTuple):
    """One real block between the two steps of a reference solve: its
    tridiagonal T (``reduced``), which gives its values and eigenpairs, and
    a lower ``band`` with the same eigenvalues, whose rows
    :func:`floqtrk.lapack.band_rows` solves. That band is the sector band,
    whose position r is sector coordinate ``order[r]``, or a dense block's
    T, of half bandwidth 1, in the coordinates Q^T gives (``order`` None;
    Q's reflectors are in ``reduced.a``)."""

    reduced: lapack.Tridiagonal
    band: np.ndarray
    order: np.ndarray | None = None

    def lowest(self, count: int) -> np.ndarray:
        """The ``count`` lowest eigenvalues, ascending."""
        return lapack.lowest(self.reduced, count)

    def eigenpairs(
        self, ks: range, values: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Eigenvalues ``ks`` of a reduced block, a contiguous run, and their
        eigenvectors in sector coordinates as columns: from a dense block's
        T (:func:`floqtrk.lapack.eigenpairs`), or by bisection on a band's T
        and banded inverse iteration (:func:`floqtrk.lapack.band_eigenpairs`);
        None when inverse iteration does not confirm a vector. A band takes
        the run's ``values`` as given, when they were bisected already."""
        if self.order is None:
            return lapack.eigenpairs(self.reduced, ks)
        pairs = lapack.band_eigenpairs(self.band, self.reduced, ks, values)
        if pairs is None:
            return None
        values, vectors = pairs
        columns = np.empty_like(vectors)
        columns[self.order] = vectors  # band position r is coordinate order[r]
        return values, columns

    def solve_values(self, ks: range, pairs: tuple[np.ndarray, np.ndarray]) -> _Solution:
        """Every eigenvalue, ``dsterf``'s on T but for the run ``ks``, whose
        eigenpairs ``pairs`` (bisection, inverse iteration) give its values
        and the sector's kept eigenvectors. No Z is formed."""
        values = lapack.eigenvalues(self.reduced)
        values[ks.start : ks.stop] = pairs[0]
        return _Solution(values, pairs[1], kept=np.arange(ks.start, ks.stop))

    def spent(self) -> _BlockSolve:
        """This block without Q's reflectors (a dense block's buffer), once
        no vector needs them: its T and band."""
        return self._replace(reduced=self.reduced._replace(a=None, tau=None))

    def probes(self, x: np.ndarray) -> np.ndarray:
        """The sector vector ``x`` as the one probe column of
        :func:`floqtrk.lapack.band_rows` on ``band``: Q^T x
        (:func:`floqtrk.lapack.project`) for a dense block's T, else x in
        band order."""
        if self.order is None:
            return lapack.project(self.reduced, x[:, None])
        return x[self.order][:, None]


def _reduce(block: np.ndarray) -> _BlockSolve | None:
    """The tridiagonal reduction of one real symmetric block of a reference
    solve, which overwrites it: the package's one dense reduction
    (:func:`floqtrk.lapack.reduce`), with its T as the band. None for a
    block the kernel declines."""
    reduced = lapack.reduce(block)
    return None if reduced is None else _BlockSolve(reduced, reduced.band())


def _eigh(block: np.ndarray) -> _Solution:
    """Every eigenpair of one Hermitian block, by numpy's ``eigh``
    (:func:`floqtrk.lapack.eigh`)."""
    return _Solution(*lapack.eigh(block))


def fold_quasienergies(values: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold eigenvalues into the half-open zone [-Omega/2, Omega/2).

    Returns (folded, n) with values == folded + n * Omega exactly: fmod is
    exact, and each +-Omega shift of its remainder is exact by Sterbenz's
    lemma. n is int64.

    Raises InputError for a non-finite value or an Omega that is not finite
    and > 0, and NumericError when max|eps|/Omega reaches 2**50, where n can
    no longer be recovered exactly from floating point.
    """
    values = np.asarray(values, dtype=np.float64)
    if not (math.isfinite(omega) and omega > 0):
        raise InputError(f"omega must be finite and > 0, got {omega}")
    if not np.all(np.isfinite(values)):
        raise InputError("cannot fold a non-finite quasienergy")
    if np.max(np.abs(values), initial=0.0) >= 2.0**50 * omega:
        raise NumericError(
            f"cannot fold quasienergies into a zone of width {omega!r}: Omega is "
            f"below the floating-point resolution of the quasienergy"
        )
    folded = np.fmod(values, omega)
    # 2 * folded is exact, so each comparison is made on the exact boundary
    folded = np.where(2.0 * folded >= omega, folded - omega, folded)
    folded = np.where(2.0 * folded < -omega, folded + omega, folded)
    return folded, np.rint((values - folded) / omega).astype(np.int64)


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


def fold_and_select_ffbz(
    eigensystem: EigenSystem,
    operator: ProductOperator,
    edge_tol: float = 1e-6,
) -> FfbzSelection:
    """Fold every eigenvalue of the :func:`sambe_operator` ``operator`` with
    :func:`fold_quasienergies` and select the in-zone representatives; the
    harmonic window, the matter dimension and Omega are read off the operator.

    Representatives are exactly the eigenpairs of zone index 0, whose raw
    truncated-matrix eigenvalue already lies in [-Omega/2, Omega/2), in
    ascending order: deterministic, and exact eigenvectors of the truncated
    operator. Only their eigenvectors are mapped back to the original basis
    (:meth:`EigenSystem.columns`). Their truncation quality is gated by
    their edge weight instead of re-projection. Degenerate in-zone eigenvalues
    (within 1e-9 * Omega) are ordered by descending m=0-block weight; each
    representative's global phase is fixed.

    An in-zone count different from the matter dimension (zone coverage
    incomplete at this cutoff, or zone-edge degeneracy) is reported as a
    warning string, never silently dropped and never raised.
    """
    if eigensystem.dim != operator.shape[0]:
        raise InputError(
            f"spectrum has {eigensystem.dim} eigenpairs, expected the complete "
            f"truncated dimension {operator.shape[0]}"
        )
    _, labels = fold_quasienergies(eigensystem.values, operator.frequency)
    in_zone = np.flatnonzero(labels == 0)  # ascending, as the eigenvalues are
    return _select_first_zone(
        eigensystem.values[in_zone],
        eigensystem.columns(in_zone),
        in_zone.tolist(),
        labels,
        operator,
        edge_tol,
    )


def _select_first_zone(
    values: np.ndarray,
    columns: np.ndarray,
    sources: list[int],
    labels: np.ndarray,
    operator: ProductOperator,
    edge_tol: float = 1e-6,
) -> FfbzSelection:
    """The selection of the in-zone eigenpairs: eigenvalues ``values``
    (ascending), eigenvectors ``columns`` in the original basis, ``sources``
    their indices in the spectrum whose zone indices are ``labels``."""
    omega = operator.frequency
    n_b = operator.matter.shape[0]
    n_h = operator.labels.size // 2
    m0 = slice(n_h * n_b, (n_h + 1) * n_b)

    def m0_weight(i: int) -> float:
        return float(np.sum(np.abs(columns[m0, i]) ** 2))

    # a degenerate group runs while eigenvalues stay within tol of its first
    # one, and is ordered by descending m=0 weight
    head, first = None, []
    tol = DEGENERACY_RTOL * omega
    for i, value in enumerate(values):
        if head is None or value - values[head] > tol:
            head = i
        first.append(head)
    ordered = sorted(range(len(values)), key=lambda i: (first[i], -m0_weight(i)))

    n_o = operator.labels.size
    blocks, edge_weights = [], []
    for i in ordered:
        fixed = _fix_phase(columns[:, i].reshape(n_o, n_b))
        blocks.append(fixed)
        # the outermost blocks, one block when the window has only m = 0
        edge_weights.append(float(sum(np.sum(np.abs(fixed[j]) ** 2) for j in {0, n_o - 1})))
    edge_flagged = [idx for idx, edge in enumerate(edge_weights) if edge > edge_tol]
    warnings: list[str] = []
    if len(ordered) != n_b:
        warnings.append(
            f"in-zone representative count {len(ordered)} != matter "
            f"dimension {n_b} (zone coverage incomplete at "
            f"harmonic cutoff {n_h} or zone-edge degeneracy)"
        )
    if edge_flagged:
        warnings.append(
            f"{len(edge_flagged)} representative(s) exceed edge weight {edge_tol:g}: "
            f"indices {edge_flagged}"
        )
    return FfbzSelection(
        quasienergies=values[ordered],
        blocks=np.array(blocks) if blocks else np.zeros((0, n_o, n_b)),
        edge_weights=np.array(edge_weights),
        labels=labels,
        warnings=tuple(warnings),
        source_indices=tuple(sources[i] for i in ordered),
        operator=operator,
        edge_tol=edge_tol,
    )
