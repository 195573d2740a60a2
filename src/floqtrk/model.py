"""One-dimensional matter models: grids, potentials, dipoles, and drives.

All quantities are in atomic units (hbar = e = m_e = 1). Operators are dense
matrices so the complete spectrum is always available to the sum-rule
ledgers; dimension guards keep every eigensolve desk-scale.

The dipole convention is d = -x (electron charge -1): ``build_dipole`` returns
diag(-x_j) for one electron and -(x (x) I + I (x) x) on the tensor grid for
two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, SizeError

#: Dense-eigensolve guard for matter operators.
MAX_MATTER_DIM = 4096
#: Tensor-grid guard for the two-electron builder (dimension n_points**2).
MAX_TWO_ELECTRON_POINTS = 64
#: Hermiticity requirement on every constructed operator (max-norm).
HERMITICITY_TOL = 1e-12

_POTENTIAL_KINDS = ("harmonic", "soft_coulomb", "box", "double_well", "tabulated")
_KINETIC_SCHEMES = ("three_point", "sinc_dvr")


#: Tile edge of :func:`hermiticity_defect`.
_DEFECT_TILE = 256


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest absolute entry of M - M^dagger (M square).

    Tile (I, J) is compared with tile (J, I) over the upper triangle of
    tiles, which reads memory far better than one full-size transpose.
    """
    if not matrix.size:
        return 0.0
    n, t = matrix.shape[0], _DEFECT_TILE
    tiles = [
        np.max(np.abs(matrix[i : i + t, j : j + t] - matrix[j : j + t, i : i + t].conj().T))
        for i in range(0, n, t)
        for j in range(i, n, t)
    ]
    return float(np.max(tiles))


@dataclass(frozen=True)
class GridBasis:
    """Uniform real-space grid x_j = x_min + j*spacing, j = 0 .. n_points-1.

    Parameters
    ----------
    x_min, x_max : float
        Endpoints in bohr; both are grid points.
    n_points : int
        Number of grid points (at least 3).
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if _as_index(self.n_points, "grid point count") < 3:
            raise InputError(f"grid needs at least 3 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise InputError(
                f"grid requires x_max > x_min, got [{self.x_min}, {self.x_max}]"
            )
        square = self.spacing * self.spacing
        if not (0.0 < square < math.inf and math.pi**2 / square < math.inf):
            raise InputError(
                f"grid spacing {self.spacing!r} is outside float range: its square "
                f"and the kinetic scale 1/spacing^2 must be finite and nonzero"
            )

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class PotentialSpec:
    """External potential on a 1D grid, one of a fixed family of shapes.

    Construct through the classmethods (``harmonic``, ``soft_coulomb``,
    ``box``, ``double_well``, ``tabulated``); ``evaluate`` samples the
    potential on a grid.
    """

    kind: str
    omega: float | None = None
    charge: float | None = None
    softening: float | None = None
    barrier: float | None = None
    separation: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _POTENTIAL_KINDS:
            raise InputError(
                f"unknown potential kind {self.kind!r}; expected one of {_POTENTIAL_KINDS}"
            )

    @classmethod
    def harmonic(cls, omega: float) -> "PotentialSpec":
        """V(x) = omega^2 x^2 / 2."""
        if omega <= 0:
            raise InputError(f"harmonic potential needs omega > 0, got {omega}")
        return cls(kind="harmonic", omega=float(omega))

    @classmethod
    def soft_coulomb(cls, charge: float = 1.0, softening: float = 1.0) -> "PotentialSpec":
        """V(x) = -charge / sqrt(x^2 + softening)."""
        if softening <= 0:
            raise InputError(f"soft-Coulomb softening must be > 0, got {softening}")
        return cls(kind="soft_coulomb", charge=float(charge), softening=float(softening))

    @classmethod
    def box(cls) -> "PotentialSpec":
        """Hard-wall box with the walls at x_min and x_max themselves."""
        return cls(kind="box")

    @classmethod
    def double_well(cls, barrier: float, separation: float) -> "PotentialSpec":
        """Quartic double well, minima at +-separation/2, barrier height at x=0."""
        if barrier <= 0 or separation <= 0:
            raise InputError("double well needs barrier > 0 and separation > 0")
        return cls(kind="double_well", barrier=float(barrier), separation=float(separation))

    @classmethod
    def tabulated(cls, values) -> "PotentialSpec":
        """Pointwise potential values (hartree), one per grid point."""
        return cls(kind="tabulated", values=tuple(float(v) for v in values))

    def evaluate(self, grid: GridBasis) -> np.ndarray:
        """Sample the potential on ``grid`` (hartree per grid point)."""
        x = grid.points()
        if self.kind == "harmonic":
            return 0.5 * np.float64(self.omega) ** 2 * x**2
        if self.kind == "soft_coulomb":
            return -self.charge / np.sqrt(x**2 + self.softening)
        if self.kind == "box":
            return np.zeros_like(x)
        if self.kind == "double_well":
            a2 = np.float64(self.separation / 2.0) ** 2
            return self.barrier * ((x**2 - a2) / a2) ** 2
        # tabulated
        if len(self.values) != grid.n_points:
            raise InputError(
                f"tabulated potential has {len(self.values)} values "
                f"but the grid has {grid.n_points} points"
            )
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True, eq=False)
class MatterOperator:
    """Dense Hermitian operator on the matter space.

    Hermiticity is enforced at construction (max-norm defect <= 1e-12).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"operator matrix must be square, got shape {m.shape}")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise InputError(
                f"operator is not Hermitian: max |M - M^dagger| = {defect:.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FewLevelModel:
    """Finite-level matter model given by level energies and a dipole matrix.

    A few-level system has no canonical x/p pair, so sum rules over it are
    checked against the double-commutator oracle rather than an electron
    count.
    """

    energies: tuple[float, ...]
    dipole: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.dipole)
        n = len(self.energies)
        if d.shape != (n, n):
            raise InputError(
                f"dipole shape {d.shape} does not match {n} level energies"
            )
        if hermiticity_defect(d) > HERMITICITY_TOL:
            raise InputError("few-level dipole matrix must be Hermitian")
        energies = tuple(float(e) for e in self.energies)
        if any(a > b for a, b in zip(energies, energies[1:])):
            raise InputError("few-level energies must be sorted in ascending order")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "dipole", d)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def hamiltonian(self) -> MatterOperator:
        return MatterOperator(np.diag(np.asarray(self.energies, dtype=float)))

    def dipole_operator(self) -> MatterOperator:
        return MatterOperator(self.dipole)


@dataclass(frozen=True)
class DriveComponent:
    """One harmonic of the classical field: amplitude*cos(harmonic*Omega*t + phase)."""

    harmonic: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if _as_index(self.harmonic, "drive harmonic index") < 1:
            raise InputError(f"drive harmonic index must be >= 1, got {self.harmonic}")


@dataclass(frozen=True)
class DriveSpec:
    """Periodic classical field E(t) = sum_k E_k cos(k*Omega*t + phi_k)."""

    omega: float
    components: tuple[DriveComponent, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise InputError(f"drive frequency must be finite and > 0, got {self.omega}")
        comps = tuple(
            c if isinstance(c, DriveComponent) else DriveComponent(*c)
            for c in self.components
        )
        harmonics = [c.harmonic for c in comps]
        if len(set(harmonics)) != len(harmonics):
            raise InputError(f"drive harmonic indices must be distinct, got {harmonics}")
        object.__setattr__(self, "components", comps)


def kinetic_matrix(grid: GridBasis, scheme: str = "three_point") -> np.ndarray:
    """Dense matrix of -(1/2) d^2/dx^2 on the grid.

    Parameters
    ----------
    grid : GridBasis
    scheme : {"three_point", "sinc_dvr"}
        ``three_point`` is the standard second-order central difference with
        the wavefunction pinned to zero one node outside the grid;
        ``sinc_dvr`` is the spectral sinc kinetic matrix
        T_ii = pi^2/(6 dx^2), T_ij = (-1)^(i-j) / (dx^2 (i-j)^2).

    Returns
    -------
    numpy.ndarray
        Real symmetric (n_points, n_points) matrix in hartree.
    """
    if scheme not in _KINETIC_SCHEMES:
        raise InputError(
            f"unknown kinetic scheme {scheme!r}; expected one of {_KINETIC_SCHEMES}"
        )
    n = grid.n_points
    dx = grid.spacing
    if scheme == "three_point":
        t = np.zeros((n, n))
        np.fill_diagonal(t, 1.0 / dx**2)
        off = -0.5 / dx**2
        idx = np.arange(n - 1)
        t[idx, idx + 1] = off
        t[idx + 1, idx] = off
        return t
    # sinc_dvr
    diff = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            diff == 0,
            np.pi**2 / (6.0 * dx**2),
            (-1.0) ** diff / (dx**2 * np.square(diff, dtype=float)),
        )
    return t


def _apply_box_walls(t: np.ndarray, grid: GridBasis) -> None:
    # Hard walls sit at x_min and x_max themselves: decouple the two wall
    # nodes and park them above the kinetic band, so interior eigenstates
    # vanish exactly at the walls and the wall modes carry zero dipole
    # coupling (d is diagonal).
    wall_energy = np.pi**2 / grid.spacing**2
    t[0, :] = 0.0
    t[:, 0] = 0.0
    t[-1, :] = 0.0
    t[:, -1] = 0.0
    t[0, 0] = wall_energy
    t[-1, -1] = wall_energy


def build_grid_hamiltonian(
    grid: GridBasis,
    potential: PotentialSpec,
    kinetic_scheme: str = "three_point",
) -> MatterOperator:
    """Single-particle Hamiltonian T + V on the grid.

    Parameters
    ----------
    grid : GridBasis
    potential : PotentialSpec
    kinetic_scheme : {"three_point", "sinc_dvr"}, optional
        Discretization of the kinetic energy (default ``three_point``).

    Returns
    -------
    MatterOperator
        Dense Hermitian H on the grid points.

    Notes
    -----
    Boundary conditions are Dirichlet with the wavefunction pinned to zero
    one node outside the grid. The ``box`` potential is the exception: its
    walls are the endpoint nodes themselves (the two wall nodes are decoupled
    and parked above the kinetic band), so that the lowest box level matches
    pi^2/(2 L^2) for a box of width exactly x_max - x_min.
    """
    if grid.n_points > MAX_MATTER_DIM:
        raise SizeError(
            f"grid dimension {grid.n_points} exceeds the dense guard {MAX_MATTER_DIM}"
        )
    t = kinetic_matrix(grid, kinetic_scheme)
    if potential.kind == "box":
        _apply_box_walls(t, grid)
    h = t + np.diag(_evaluate_finite(potential, grid))
    return MatterOperator(h)


def _evaluate_finite(potential: PotentialSpec, grid: GridBasis) -> np.ndarray:
    # an overflow is refused below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        values = potential.evaluate(grid)
    if not np.all(np.isfinite(values)):
        raise InputError(
            f"potential {potential.kind!r} takes non-finite values on the grid"
        )
    return values


def build_dipole(grid: GridBasis, n_electrons: int = 1) -> MatterOperator:
    """Dipole operator d = -x (one electron) or -(x1 + x2) (two electrons).

    For ``n_electrons=2`` the operator lives on the tensor grid of dimension
    n_points**2, diagonal with entry -(x_a + x_b) at composite index (a, b).
    """
    _check_electron_count(n_electrons)
    x = grid.points()
    if n_electrons == 1:
        return MatterOperator(np.diag(-x))
    _check_two_electron_grid(grid)
    pair_sum = np.add.outer(x, x).ravel()
    return MatterOperator(np.diag(-pair_sum))


@dataclass(frozen=True)
class InteractionSpec:
    """Electron-electron interaction for the two-electron tensor grid."""

    kind: str  # "none" | "soft_coulomb"
    strength: float = 1.0
    softening: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "soft_coulomb"):
            raise InputError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "soft_coulomb" and self.softening <= 0:
            raise InputError("soft-Coulomb interaction needs softening > 0")

    @classmethod
    def none(cls) -> "InteractionSpec":
        return cls(kind="none")

    @classmethod
    def soft_coulomb(cls, strength: float = 1.0, softening: float = 1.0) -> "InteractionSpec":
        """V_ee(x1, x2) = strength / sqrt((x1 - x2)^2 + softening)."""
        return cls(kind="soft_coulomb", strength=float(strength), softening=float(softening))

    def evaluate_pairs(self, x: np.ndarray) -> np.ndarray:
        """Interaction energy on the flattened tensor grid (composite (a,b) order)."""
        if self.kind == "none":
            return np.zeros(x.size * x.size)
        sep2 = np.subtract.outer(x, x) ** 2
        return (self.strength / np.sqrt(sep2 + self.softening)).ravel()


def build_two_electron_hamiltonian(
    grid: GridBasis,
    potential: PotentialSpec,
    interaction: InteractionSpec | None = None,
    kinetic_scheme: str = "sinc_dvr",
) -> MatterOperator:
    """Two-electron Hamiltonian h(x)I + Ih(x) + V_ee on the tensor grid.

    The two electrons are treated as distinguishable (no antisymmetrization,
    no spin): the energy-weighted dipole sums probed here are
    symmetry-sector independent.

    Parameters
    ----------
    grid : GridBasis
        Guarded to n_points <= 64 (tensor dimension n_points**2).
    potential : PotentialSpec
        External potential, applied to each electron.
    interaction : InteractionSpec, optional
        Defaults to no interaction.
    kinetic_scheme : {"three_point", "sinc_dvr"}, optional
        Defaults to ``sinc_dvr``: the tensor guard forces coarse spacings,
        where the second-order stencil is no longer accurate enough for the
        percent-level targets this operator is used against.
    """
    _check_two_electron_grid(grid)
    if interaction is None:
        interaction = InteractionSpec.none()
    h1 = build_grid_hamiltonian(grid, potential, kinetic_scheme).matrix
    eye = np.eye(grid.n_points)
    h = np.kron(h1, eye) + np.kron(eye, h1)
    h += np.diag(interaction.evaluate_pairs(grid.points()))
    return MatterOperator(h)


def double_commutator_expectation(hamiltonian, dipole, state) -> float:
    """Expectation <state| [d, [H, d]] |state>, guaranteed real.

    This is the exact finite-dimensional anchor for every energy-weighted
    dipole sum: for any Hermitian H and d and any eigenstate of H, the sum
    2 sum_b (E_b - E_a)|<a|d|b>|^2 over the complete spectrum equals this
    expectation identically. On a grid it approaches the electron count only
    in the continuum limit (the canonical commutator cannot hold in finite
    dimension), so accuracy targets compare sums against this oracle and
    against the electron count only up to discretization error.

    Parameters
    ----------
    hamiltonian, dipole : MatterOperator, numpy.ndarray or an operator
        with ``shape`` and ``@ vector`` (such as ``floquet.ProductOperator``)
    state : array_like
        Normalized vector (||state|| = 1 within 1e-10).

    Returns
    -------
    float
        Real part of the expectation; an imaginary residue above 1e-8
        raises :class:`NumericError`.
    """
    h = _as_matrix(hamiltonian)
    d = _as_matrix(dipole)
    psi = np.asarray(state).ravel()
    if not (h.shape[0] == d.shape[0] == psi.size):
        raise InputError(
            f"dimension mismatch: H {h.shape[0]}, d {d.shape[0]}, state {psi.size}"
        )
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise InputError(f"state must be normalized, got ||state|| = {norm!r}")
    u = d @ psi
    h_psi = h @ psi
    d_u = d @ u
    value = 2.0 * np.vdot(u, h @ u) - np.vdot(d_u, h_psi) - np.vdot(h_psi, d_u)
    if abs(value.imag) > 1e-8:
        raise NumericError(
            f"double-commutator expectation has imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


def _as_matrix(operator) -> np.ndarray:
    if isinstance(operator, MatterOperator):
        return operator.matrix
    if hasattr(operator, "shape"):
        return operator  # an array, or a structured operator that has `@`
    return np.asarray(operator)


def _as_index(value, what: str) -> int:
    """``value`` as a Python int; InputError for anything but an integer
    (a bool, a float such as 2.0 or 2.5, a string)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_electron_count(n_electrons: int) -> None:
    if n_electrons not in (1, 2):
        raise InputError(f"electron count must be 1 or 2, got {n_electrons}")


def _check_two_electron_grid(grid: GridBasis) -> None:
    if grid.n_points > MAX_TWO_ELECTRON_POINTS:
        raise SizeError(
            f"two-electron tensor grid needs n_points <= {MAX_TWO_ELECTRON_POINTS}, "
            f"got {grid.n_points} (dimension would be {grid.n_points**2})"
        )
