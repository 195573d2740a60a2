"""Energy-weighted dipole sum rules, static and driven.

The static Thomas-Reiche-Kuhn sum from an eigenstate alpha,
2 sum_beta (E_beta - E_alpha) |<alpha|d|beta>|^2 = N_e, generalizes to a
periodically driven system in two equivalent forms:

* over the full truncated Sambe spectrum,
  2 sum_beta (eps_beta - eps_alpha) |<<phi_alpha|d|phi_beta>>|^2, and
* over first-zone representatives lambda and sideband indices n,
  2 sum_lambda sum_n (eps_lambda - eps_ref + n*Omega) |d^(n)_{ref,lambda}|^2,

where d^(n) is the n-th harmonic of the time-dependent transition dipole
between two Floquet modes. Every evaluation in this module carries an
independent oracle: the exact finite-dimensional identity
2 sum_beta (E_beta - E_alpha)|<alpha|d|beta>|^2 = <alpha|[d,[H,d]]|alpha>,
so discretization and truncation error are separated from implementation
error by construction.

Ledger exactness: report values are math.fsum over the stored contribution
weights, and the spectral-density first moment reuses the same per-(lambda,
n) products, so the self-consistency requirements hold to the last bit
rather than to a tolerance. A report's ledger is one :class:`Ledger` of
numpy columns; its written columns and rows, the aggregated view and the
stick spectrum are all read off those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import InputError, ZoneError
from .floquet import (
    DEGENERACY_RTOL,
    SECTOR_COUPLING_EPS,
    EigenSystem,
    FfbzSelection,
    ProductOperator,
    diagonalize_hermitian,
)
from .model import MatterOperator, _as_index, double_commutator_expectation


@dataclass(frozen=True, eq=False)
class _Table:
    """Equal-length numpy columns, read as one row per index.

    The first ``len(HEADER)`` fields are the columns, in row order, and
    ``HEADER`` names them as they are written out.
    """

    HEADER: ClassVar[tuple[str, ...]] = ()

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)[: len(self.HEADER)]]

    def __len__(self) -> int:
        return len(self._columns()[0])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def columns(self) -> dict[str, list]:
        """Each column's Python numbers, keyed by its ``HEADER`` name: the
        table as ``report.json`` writes it."""
        return {name: c.tolist() for name, c in zip(self.HEADER, self._columns())}

    def rows(self) -> list[list]:
        """One list of Python numbers per row, columns in ``HEADER`` order:
        the table as its CSV file writes it."""
        return [list(row) for row in zip(*self.columns().values())]


@dataclass(frozen=True, eq=False)
class Ledger(_Table):
    """The rows of an energy-weighted sum, one per (final state, sideband).

    ``weight = 2 * (quasienergy_diff + n*Omega) * abs2``; static and Sambe
    ledgers use n = 0 with the bare eigenvalue difference.
    """

    HEADER: ClassVar[tuple[str, ...]] = (
        "lambda", "n", "quasienergy_diff", "dipole_fourier_abs2", "contribution"
    )

    lam: np.ndarray  # final-state identifier (index into the summed spectrum)
    n: np.ndarray  # sideband index
    quasienergy_diff: np.ndarray  # eps_lambda - eps_reference, without n*Omega
    abs2: np.ndarray  # |d^(n)|^2
    weight: np.ndarray


@dataclass(frozen=True)
class SumRuleReport:
    """Result of one sum-rule evaluation with its full contribution ledger."""

    kind: str  # "static_trk" | "sambe" | "ffbz" | "qed"
    value: float
    target: float  # electron count the converged sum should approach
    residual: float  # value - target
    oracle_value: float  # double-commutator expectation in the reference state
    oracle_residual: float  # value - oracle_value
    contributions: Ledger
    truncation_flags: tuple[str, ...]
    reference: int
    omega: float | None = None

    def aggregated_contributions(self, tol: float | None = None) -> Ledger:
        """Ledger with degenerate final states merged.

        Individual |d^(n)|^2 are basis-dependent inside a degenerate
        subspace; the aggregate over the subspace is not. Within each n,
        rows taken in ascending energy difference join a group while they
        lie within ``tol`` (default 1e-9 * Omega, or 1e-9 for static
        reports) of the group's first difference. A group keeps the lambda
        and difference of its lowest-lambda row and sums abs2 and weight.
        """
        if tol is None:
            tol = DEGENERACY_RTOL * (self.omega if self.omega else 1.0)
        ledger = self.contributions
        if not len(ledger):
            return ledger
        # a stable sort: rows with equal (n, difference) keep ledger order
        order = np.lexsort((ledger.quasienergy_diff, ledger.n))
        lam, n, diff, abs2, weight = (c[order].tolist() for c in ledger._columns())
        merged: list[tuple] = []
        start = 0
        for end in range(1, len(order) + 1):
            if (
                end < len(order)
                and n[end] == n[start]
                and not diff[end] - diff[start] > tol
            ):
                continue
            lead = min(range(start, end), key=lam.__getitem__)
            merged.append(
                (
                    lam[lead],
                    n[lead],
                    diff[lead],
                    math.fsum(abs2[start:end]),
                    math.fsum(weight[start:end]),
                )
            )
            start = end
        return Ledger(*map(np.array, zip(*merged)))


@dataclass(frozen=True, eq=False)
class SpectralDensity(_Table):
    """The sideband-resolved stick spectrum, one delta-function line per
    nonzero ledger row; its first moment reproduces the driven sum rule."""

    HEADER: ClassVar[tuple[str, ...]] = ("omega", "weight", "lambda", "n")

    omega: np.ndarray  # eps_lambda - eps_reference + n*Omega
    weight: np.ndarray  # |d^(n)|^2
    lam: np.ndarray
    n: np.ndarray
    reference: int


def dipole_fourier_components(
    bra: np.ndarray,
    ket: np.ndarray,
    d: np.ndarray,
) -> dict[int, complex]:
    """All harmonics of the transition dipole between two Floquet modes.

    In harmonic coefficients, d^(n) = sum_m <c^bra_m| d |c^ket_(m-n)>: the
    n-th harmonic transfers ket content upward by n drive quanta, and
    ``result[n]`` is the amplitude of exp(+i n Omega t) in
    <phi_bra(t)|d|phi_ket(t)>. The sum is truncated to the shared window, so
    n runs over [-2 N_h, 2 N_h]; harmonics beyond it are identically zero
    and not stored.

    Parameters
    ----------
    bra, ket:
        Coefficient blocks of the two modes, each (2 N_h + 1) x N_b with row
        m + N_h the vector c_m (a row of :attr:`FfbzSelection.blocks`), of
        one window and matter dimension.
    d:
        Matter-space dipole matrix, N_b x N_b.
    """
    bra, ket = np.asarray(bra), np.asarray(ket)
    if bra.ndim != 2 or ket.shape != bra.shape or d.shape != (bra.shape[1],) * 2:
        raise InputError(
            f"bra {bra.shape}, ket {ket.shape} and dipole {d.shape} do not share "
            f"one window and matter dimension"
        )
    n_rows = bra.shape[0]
    n_h = (n_rows - 1) // 2
    d_ket = ket @ d.T  # row m is d @ c^ket_m
    entries: dict[int, complex] = {}
    for n in range(-2 * n_h, 2 * n_h + 1):
        lo, hi = max(0, n), min(n_rows, n_rows + n)
        entries[n] = complex(
            sum(np.vdot(bra[r], d_ket[r - n]) for r in range(lo, hi))
        )
    return entries


def static_trk(
    h: MatterOperator,
    d: MatterOperator,
    reference: int = 0,
    *,
    n_electrons: int,
    system: EigenSystem | None = None,
) -> SumRuleReport:
    """Static energy-weighted dipole sum from one eigenstate.

    value = 2 sum_beta (E_beta - E_alpha) |<alpha|d|beta>|^2, evaluated from
    the dense spectrum of ``h``; the oracle is the double-commutator
    expectation in the reference eigenvector, which the value matches to
    1e-8 relative by the finite-dimensional closure identity. The target is
    ``n_electrons``, the electron count the converged sum approaches.

    ``system`` is the complete spectrum of ``h`` when the caller already has
    it (``diagonalize_hermitian(h.matrix)``); without it ``h`` is
    diagonalized here.
    """
    if h.dim != d.dim:
        raise InputError(f"Hamiltonian dim {h.dim} != dipole dim {d.dim}")
    if system is None:
        system = diagonalize_hermitian(h.matrix)
    elif system.dim != h.dim:
        raise InputError(
            f"spectrum has {system.dim} eigenpairs, expected the complete "
            f"matter dimension {h.dim}"
        )
    return _closure_report(
        kind="static_trk",
        system=system,
        h_full=h.matrix,
        d_full=d.matrix,
        reference=reference,
        target=float(n_electrons),
        omega=None,
    )


def _closure_report(
    kind: str,
    system: EigenSystem,
    h_full: np.ndarray | ProductOperator,
    d_full: np.ndarray | ProductOperator,
    reference: int,
    target: float,
    omega: float | None,
) -> SumRuleReport:
    """Sum over a complete spectrum plus its double-commutator oracle.

    Reads the reference eigenvector and the amplitudes <alpha|d|beta> off
    ``system``, sector by sector for a parity-sector solve, naming them by
    the reference and the dipole, so a sector that holds only the
    reference's dipole row serves it. ``h_full`` and
    ``d_full`` are matrices or :class:`ProductOperator` s; the oracle
    applies them to the reference vector in the original basis, so it does
    not depend on the sector construction.
    """
    if not 0 <= reference < system.dim:
        raise InputError(
            f"reference index {reference} outside spectrum of size {system.dim}"
        )
    psi = system.column(reference)
    # <alpha|d|beta> for every beta; a lifted dipole is named by its matter d
    dipole = d_full.matter if isinstance(d_full, ProductOperator) else d_full
    amps = system.amplitudes(d_full @ psi, reference=reference, dipole=dipole)
    abs2 = np.abs(amps) ** 2
    diffs = system.values - system.values[reference]
    weights = 2.0 * diffs * abs2
    contributions = Ledger(
        lam=np.arange(system.dim),
        n=np.zeros(system.dim, dtype=np.int64),
        quasienergy_diff=diffs,
        abs2=abs2,
        weight=weights,
    )
    value = math.fsum(weights.tolist())
    oracle = double_commutator_expectation(h_full, d_full, psi)
    return SumRuleReport(
        kind=kind,
        value=value,
        target=target,
        residual=value - target,
        oracle_value=oracle,
        oracle_residual=value - oracle,
        contributions=contributions,
        truncation_flags=(),
        reference=reference,
        omega=omega,
    )


def select_reference(blocks: np.ndarray, ground: np.ndarray) -> int:
    """Representative with the largest ground-state weight in its m=0 block.

    ``blocks`` are the representatives' coefficient blocks
    (:attr:`FfbzSelection.blocks`, k x (2 N_h + 1) x N_b), whose middle row
    is c_0, and ``ground`` is the matter ground state (N_b,). A weight at
    or below (:data:`~floqtrk.floquet.SECTOR_COUPLING_EPS` D eps)^2 counts
    as zero, D = (2 N_h + 1) N_b the Sambe dimension the blocks span: a
    selection rule (the ground state and an m=0 block of opposite parity)
    makes it exactly zero, and its computed value is the rounding of the
    solve that gave the blocks, which a solve that does not split leaves in
    every component. When every weight is zero, the representative with
    the largest m=0 block norm is taken.
    """
    blocks, ground = np.asarray(blocks), np.asarray(ground)
    if blocks.ndim != 3:
        raise InputError(f"expected k x (2 N_h + 1) x N_b blocks, got shape {blocks.shape}")
    if ground.shape != blocks.shape[2:]:
        raise InputError(
            f"ground state of shape {ground.shape} does not match the blocks' "
            f"matter dimension {blocks.shape[2]}"
        )
    if not len(blocks):
        raise ZoneError("no representatives to select a reference from")
    floor = (SECTOR_COUPLING_EPS * blocks[0].size * np.finfo(np.float64).eps) ** 2
    overlaps, norms = [], []
    for block in blocks[:, blocks.shape[1] // 2]:
        overlap = float(np.abs(np.vdot(ground, block)) ** 2)
        overlaps.append(overlap if overlap > floor else 0.0)
        norms.append(float(np.sum(np.abs(block) ** 2)))
    return int(np.argmax(overlaps if max(overlaps) > 0.0 else norms))


def _extended_report(
    kind: str,
    operator: ProductOperator,
    system: EigenSystem,
    reference: int,
    n_electrons: int,
    omega: float | None,
) -> SumRuleReport:
    """Closure report over the complete spectrum of an extended-space
    ``operator``, summing the dipole it holds lifted to 1 (x) d on the same
    outer-major index; the oracle applies both block by block."""
    if system.dim != operator.shape[0]:
        raise InputError(
            f"spectrum has {system.dim} eigenpairs, expected the complete "
            f"{kind} dimension {operator.shape[0]}"
        )
    return _closure_report(
        kind=kind,
        system=system,
        h_full=operator,
        d_full=ProductOperator(matter=operator.dipole, labels=operator.labels),
        reference=reference,
        target=float(n_electrons),
        omega=omega,
    )


def sumrule_sambe(
    operator: ProductOperator,
    system: EigenSystem,
    reference: int,
    *,
    n_electrons: int,
) -> SumRuleReport:
    """Driven sum rule over the full truncated extended-space spectrum.

    value = 2 sum_beta (eps_beta - eps_alpha) |<<phi_alpha|d|phi_beta>>|^2
    with the dipole acting identically in every harmonic block. The oracle
    is the extended-space double-commutator expectation, an exact identity
    in the truncated space, so oracle_residual stays below 1e-8 relative
    regardless of physical convergence. ``operator`` is the
    :func:`~floqtrk.floquet.sambe_operator` that ``system`` was solved from;
    its dipole d, window and Omega are read off it.
    """
    return _extended_report(
        "sambe", operator, system, reference, n_electrons, operator.frequency
    )


def _ffbz_ledger(selection: FfbzSelection, reference: int, n_max: int) -> Ledger:
    """Per-(lambda, n) ledger behind the zone-resolved sum rule; the spectral
    density is a view of the same rows (:func:`density_from_ledger`)."""
    blocks, quasienergies = selection.blocks, selection.quasienergies
    d = selection.operator.dipole
    sidebands = range(-n_max, n_max + 1)
    abs2 = []
    for ket in blocks:
        harmonics = dipole_fourier_components(blocks[reference], ket, d)
        # Python's complex abs, not np.abs: the two differ in the last bit
        abs2.extend(abs(harmonics.get(n, 0.0)) ** 2 for n in sidebands)
    diffs = np.repeat(quasienergies - quasienergies[reference], len(sidebands))
    n = np.tile(np.array(sidebands), len(blocks))
    abs2 = np.array(abs2)
    return Ledger(
        lam=np.repeat(np.arange(len(blocks)), len(sidebands)),
        n=n,
        quasienergy_diff=diffs,
        abs2=abs2,
        weight=2.0 * (diffs + n * selection.operator.frequency) * abs2,
    )


def sumrule_ffbz(
    selection: FfbzSelection,
    reference: int,
    n_max: int | None = None,
    *,
    n_electrons: int,
) -> SumRuleReport:
    """Driven sum rule resolved over first-zone modes and sidebands.

    value = 2 sum_lambda sum_n (eps_lambda - eps_ref + n*Omega)
    |d^(n)_{ref,lambda}|^2 over the selection's representatives and
    n in [-n_max, n_max] (default: the full truncated range 2 N_h). Omega,
    H_M, d and the window are read off ``selection.operator``.

    The oracle is the matter double commutator averaged over the reference
    mode's harmonic content, sum_m <c_m|[d,[H_M,d]]|c_m> - identical to the
    extended-space oracle because every term of the periodic Hamiltonian
    beyond H_M commutes with d. The residual against it gauges zone coverage
    and window truncation, not implementation error.

    ``truncation_flags`` are the selection's warnings, plus a flag when the
    reference carries more than ``selection.edge_tol`` edge weight; only an
    empty selection or an invalid reference or ``n_max`` raises.
    """
    operator = selection.operator
    count = len(selection.blocks)
    if not count:
        raise ZoneError("no first-zone representatives supplied")
    if not 0 <= _as_index(reference, "reference index") < count:
        raise InputError(
            f"reference index {reference} outside the {count} supplied representatives"
        )
    limit = operator.labels.size - 1  # 2 N_h
    if n_max is None:
        n_max = limit
    elif not 0 <= _as_index(n_max, "n_max") <= limit:
        raise InputError(
            f"n_max={n_max} outside the truncated sideband range [0, {limit}]"
        )
    contributions = _ffbz_ledger(selection, reference, n_max)
    value = math.fsum(contributions.weight.tolist())

    d = operator.dipole
    hd = operator.matter @ d
    commutator = 2.0 * (d @ hd) - d @ (d @ operator.matter) - hd @ d  # [d, [H_M, d]]
    ref_blocks = selection.blocks[reference]
    oracle = float(
        np.real(np.einsum("mi,ij,mj->", ref_blocks.conj(), commutator, ref_blocks))
    )
    flags = selection.warnings
    edge = selection.edge_weights[reference]
    if edge > selection.edge_tol:
        flags += (
            f"reference mode carries edge weight {edge:.3e} "
            f"> {selection.edge_tol:g}; enlarge the harmonic window",
        )
    target = float(n_electrons)
    return SumRuleReport(
        kind="ffbz",
        value=value,
        target=target,
        residual=value - target,
        oracle_value=oracle,
        oracle_residual=value - oracle,
        contributions=contributions,
        truncation_flags=flags,
        reference=reference,
        omega=operator.frequency,
    )


def density_from_ledger(report: SumRuleReport) -> SpectralDensity:
    """The sideband-resolved stick spectrum of a zone-resolved report.

    One stick per nonzero ledger row (lambda, n), at frequency
    eps_lambda - eps_ref + n*Omega with weight |d^(n)|^2, read off the
    report's ledger. Each line is recomputed with the ledger's own float
    operations, so the first-moment identity holds to the last bit.
    """
    if report.kind != "ffbz":
        raise InputError(f"a stick spectrum needs an ffbz report, got {report.kind!r}")
    ledger = report.contributions
    keep = ledger.abs2 != 0.0
    n = ledger.n[keep]
    return SpectralDensity(
        omega=ledger.quasienergy_diff[keep] + n * report.omega,
        weight=ledger.abs2[keep],
        lam=ledger.lam[keep],
        n=n,
        reference=report.reference,
    )


def first_moment(density: SpectralDensity) -> float:
    """Energy-weighted integral of the stick spectrum: 2 sum omega * weight.

    The factor 2 matches the sum-rule normalization, so the zero-drive value
    reproduces the static sum.
    """
    return 2.0 * math.fsum((density.omega * density.weight).tolist())
