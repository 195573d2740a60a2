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

A scan over photon cutoffs is the ``converge`` job of :mod:`floqtrk.cli`,
which runs each cutoff through the stages of the ``qed`` job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .floquet import EigenSystem, ProductOperator, Reflection
from .model import MatterOperator, _as_index
from .sumrule import SumRuleReport, _extended_report

#: Dense-eigensolve guard for the matter (x) Fock product dimension.
MAX_JOINT_DIM = 6000


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
