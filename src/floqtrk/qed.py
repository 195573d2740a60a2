"""Joint matter-photon models: quantized single-mode light instead of a
classical drive.

The joint Hamiltonian on the Fock (x) matter product space is
H = I (x) H_M + omega_c a^dag a (x) I - g (a + a^dag) (x) d, with the
field operator at the matter E = g (a + a^dag) and the zero-point constant
omitted (it drops out of every energy difference). Its index is
photon-major, photon_index * N_M + matter_index, the index order of every
:class:`~floqtrk.floquet.ProductOperator`. There is no folding
here: the spectrum is bounded below and the energy-weighted dipole sum runs
over plain eigenstate differences, exactly as in the static case but in the
enlarged space. Because I (x) d commutes with every photon-only operator
and with the bilinear coupling, the double-commutator oracle again reduces
to the bare matter commutator - evaluated here by applying the joint
operators themselves, block by block, so the reduction is checked rather
than assumed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SizeError
from .floquet import EigenSystem, ProductOperator, Reflection, diagonalize_hermitian
from .model import MatterOperator, _as_index
from .sumrule import SumRuleReport, _extended_report

#: Dense-eigensolve guard for the matter (x) Fock product dimension.
MAX_JOINT_DIM = 6000
#: Fewest photon cutoffs a convergence family may have.
MIN_CUTOFF_FAMILY = 3


@dataclass(frozen=True)
class FockSpec:
    """Single quantized mode: cutoff, frequency, and coupling amplitude.

    The photon basis is |0> .. |n_max>; the field at the matter is
    E = g (a + a^dag).
    """

    n_max: int
    omega_c: float
    g: float

    def __post_init__(self) -> None:
        if _as_index(self.n_max, "photon cutoff") < 0:
            raise InputError(f"photon cutoff must be >= 0, got {self.n_max}")
        if not 0 < self.omega_c < math.inf:
            raise InputError(f"mode frequency must be finite and > 0, got {self.omega_c}")
        if isinstance(self.g, complex):
            raise InputError(f"coupling amplitude must be real, got {self.g!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def _check_joint(h_matter: MatterOperator, d: MatterOperator, fock: FockSpec) -> None:
    if h_matter.dim != d.dim:
        raise InputError(
            f"matter Hamiltonian dim {h_matter.dim} != dipole dim {d.dim}"
        )
    if h_matter.dim * fock.dim > MAX_JOINT_DIM:
        raise SizeError(
            f"joint dimension {h_matter.dim * fock.dim} exceeds the dense guard "
            f"{MAX_JOINT_DIM}"
        )


def joint_operator(
    h_matter: MatterOperator,
    d: MatterOperator,
    fock: FockSpec,
    reflection: Reflection | None = None,
) -> ProductOperator:
    """The joint Hamiltonian as a :class:`ProductOperator`.

    I (x) H_M + diag(n omega_c) (x) I + C (x) d with C = -g (a + a^dag), on
    the photon-major index photon_index * N_M + matter_index; no dipole
    self-energy term and no zero-point constant. The matter reflection P is
    lifted to (-1)^n (x) P, which commutes with it when P H_M P = H_M and
    P d P = -d, since (-1)^n anticommutes with a + a^dag.
    """
    _check_joint(h_matter, d, fock)
    ladder = np.sqrt(np.arange(1, fock.dim))
    return ProductOperator(
        matter=h_matter.matrix,
        labels=np.arange(fock.dim),
        frequency=fock.omega_c,
        dipole=d.matrix,
        coupling=-fock.g * (np.diag(ladder, 1) + np.diag(ladder, -1)),
        reflection=reflection,
    )


def sumrule_qed(
    operator: ProductOperator,
    system: EigenSystem,
    reference: int,
    *,
    n_electrons: int,
) -> SumRuleReport:
    """Energy-weighted dipole sum over the full joint spectrum.

    value = 2 sum_beta (E_beta - E_alpha) |<alpha| I(x)d |beta>|^2 with beta
    running over eigenstates of the interacting joint Hamiltonian. The
    oracle is the joint double-commutator expectation, with the
    :func:`joint_operator` that ``system`` was solved from and I (x) d (its
    dipole, lifted) applied to the reference vector; the closure identity
    keeps oracle_residual below 1e-8 relative for any reference, converged
    or not.
    """
    return _extended_report("qed", operator, system, reference, n_electrons, None)


@dataclass(frozen=True)
class ConvergenceRow:
    """One photon-cutoff family member of :func:`photon_cutoff_convergence`."""

    n_max: int
    value: float
    oracle_residual: float
    delta: float | None  # value - previous row's value; None on the first row
    edge_population: float  # reference population in the top two Fock levels
    converged: bool
    report: SumRuleReport = field(repr=False)  # the member's full sum-rule report


def photon_cutoff_convergence(
    h_matter: MatterOperator,
    d: MatterOperator,
    focks: Sequence[FockSpec],
    reference: int = 0,
    *,
    n_electrons: int,
    reflection: Reflection | None = None,
) -> tuple[ConvergenceRow, ...]:
    """Sum-rule value across a family of increasing photon cutoffs.

    A row is converged when |delta| from the previous row is below 1e-8 and
    the reference state's population in the top two Fock levels is below
    1e-10 (so the truncation edge is unoccupied, not merely stationary).

    Each row keeps its member's complete :class:`SumRuleReport`, so a caller
    that needs the final member's ledger reads ``rows[-1].report`` instead
    of building and diagonalizing that joint Hamiltonian again.

    Parameters
    ----------
    focks:
        At least ``MIN_CUTOFF_FAMILY`` specifications with strictly
        increasing ``n_max`` and identical ``omega_c`` and ``g``.
    reference:
        Eigenpair index within each family member's ascending spectrum.
    reflection:
        A matter reflection, lifted to each member by
        :func:`joint_operator` for the eigensolve.
    """
    modes = tuple(focks)
    if len(modes) < MIN_CUTOFF_FAMILY:
        raise InputError(
            f"cutoff convergence needs at least {MIN_CUTOFF_FAMILY} family members, "
            f"got {len(modes)}"
        )
    for prev, nxt in zip(modes, modes[1:]):
        if nxt.n_max <= prev.n_max:
            raise InputError(
                f"photon cutoffs must be strictly increasing, got "
                f"{prev.n_max} then {nxt.n_max}"
            )
        if nxt.omega_c != prev.omega_c or nxt.g != prev.g:
            raise InputError(
                "cutoff family members must share omega_c and g"
            )
    rows: list[ConvergenceRow] = []
    previous_value: float | None = None
    for mode in modes:
        report, edge = _cutoff_member(h_matter, d, mode, reference, n_electrons, reflection)
        delta = None if previous_value is None else report.value - previous_value
        converged = (
            delta is not None and abs(delta) < 1e-8 and edge < 1e-10
        )
        rows.append(
            ConvergenceRow(
                n_max=mode.n_max,
                value=report.value,
                oracle_residual=report.oracle_residual,
                delta=delta,
                edge_population=edge,
                converged=converged,
                report=report,
            )
        )
        previous_value = report.value
    return tuple(rows)


def _cutoff_member(
    h_matter: MatterOperator,
    d: MatterOperator,
    fock: FockSpec,
    reference: int,
    n_electrons: int,
    reflection: Reflection | None,
) -> tuple[SumRuleReport, float]:
    """One family member's report and the reference population in its top
    two Fock levels; the member's spectrum is freed on return."""
    operator = joint_operator(h_matter, d, fock, reflection)
    system = diagonalize_hermitian(operator)
    report = sumrule_qed(operator, system, reference, n_electrons=n_electrons)
    # photon-number distribution of the reference, traced over matter
    table = system.column(reference).reshape(fock.dim, -1)
    populations = np.sum(np.abs(table) ** 2, axis=1)
    return report, float(math.fsum(populations[-2:]))
