"""floqtrk: energy-weighted dipole sum rules for driven and photon-coupled
quantum models.

The package builds 1D matter models (grids and few-level systems), lifts
them to the extended (Sambe) space of a periodic classical drive or couples
them to a quantized photon mode, and evaluates the energy-weighted dipole
sum rule in every form - static, full extended-space, first-zone resolved,
and joint light-matter - each against an exact finite-dimensional
double-commutator oracle.
"""

from .errors import (
    ConfigError,
    FloqtrkError,
    InputError,
    NumericError,
    SizeError,
    ZoneError,
)
from .floquet import (
    EigenSystem,
    FfbzSelection,
    ProductOperator,
    Reflection,
    basis_reversal,
    diagonalize_hermitian,
    fold_and_select_ffbz,
    fold_quasienergies,
    sambe_operator,
)
from .model import (
    DriveComponent,
    DriveSpec,
    FewLevelModel,
    GridBasis,
    InteractionSpec,
    MatterOperator,
    PotentialSpec,
    build_dipole,
    build_grid_hamiltonian,
    build_two_electron_hamiltonian,
    double_commutator_expectation,
    kinetic_matrix,
)
from .qed import FockSpec, joint_operator, sumrule_qed
from .sumrule import (
    Ledger,
    SpectralDensity,
    SumRuleReport,
    density_from_ledger,
    dipole_fourier_components,
    first_moment,
    select_reference,
    static_trk,
    sumrule_ffbz,
    sumrule_sambe,
)
from .version import __version__

__all__ = [
    "__version__",
    "ConfigError",
    "DriveComponent",
    "DriveSpec",
    "EigenSystem",
    "FewLevelModel",
    "FfbzSelection",
    "FloqtrkError",
    "FockSpec",
    "GridBasis",
    "InputError",
    "InteractionSpec",
    "Ledger",
    "MatterOperator",
    "NumericError",
    "PotentialSpec",
    "ProductOperator",
    "Reflection",
    "SizeError",
    "SpectralDensity",
    "SumRuleReport",
    "ZoneError",
    "basis_reversal",
    "build_dipole",
    "build_grid_hamiltonian",
    "build_two_electron_hamiltonian",
    "density_from_ledger",
    "diagonalize_hermitian",
    "dipole_fourier_components",
    "double_commutator_expectation",
    "first_moment",
    "fold_and_select_ffbz",
    "fold_quasienergies",
    "joint_operator",
    "kinetic_matrix",
    "sambe_operator",
    "select_reference",
    "static_trk",
    "sumrule_ffbz",
    "sumrule_qed",
    "sumrule_sambe",
]
