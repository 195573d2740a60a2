"""numpy's bundled OpenBLAS, called through ctypes: its thread control and
LAPACK's real symmetric eigensolver run step by step.

numpy ships OpenBLAS (with LAPACK and LAPACKE, 64-bit integers, symbols
prefixed ``scipy_`` and suffixed ``64_``) in ``numpy.libs``; its
``np.linalg.eigh`` calls that library's ``dsyevd``. For ``jobz = 'V'``,
``dsyevd`` reduces A = Q T Q^T (``dsytrd``), solves T = Z diag(w) Z^T
(``dstedc``, compz = 'I') and forms the eigenvector matrix Q Z
(``dormtr``), an O(m^3) step with 2 m^2 of workspace. :func:`eigensolve`
runs the first two steps only, so its eigenvalues are those of ``eigh``
bit for bit, and keeps Q as its Householder reflectors (:class:`Reflectors`),
so a caller applies Q to the few columns of Z it reads.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError, NumericError

#: LAPACKE's matrix_layout value for column-major arrays.
_COL_MAJOR = 102

#: Reflectors per compact-WY panel of :class:`Reflectors`.
PANEL = 64

# dsyevd rescales A when max |A| (of its lower triangle) is outside
# [_RMIN, _RMAX]; such blocks, and those within a factor 2 of a bound, take
# numpy's eigh
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


class OpenBlas(NamedTuple):
    """The routines of numpy's bundled OpenBLAS this package calls."""

    set_num_threads: Callable
    get_num_threads: Callable
    dsytrd: Callable
    dstedc: Callable
    dlarft: Callable


def _bind(library: ctypes.CDLL) -> OpenBlas:
    def routine(name, *argtypes, restype=ctypes.c_int64):
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, restype
        return function

    int64, char = ctypes.c_int64, ctypes.c_char
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    return OpenBlas(
        set_num_threads=routine("scipy_openblas_set_num_threads64_", ctypes.c_int, restype=None),
        get_num_threads=routine("scipy_openblas_get_num_threads64_", restype=ctypes.c_int),
        dsytrd=routine(
            "scipy_LAPACKE_dsytrd64_",
            ctypes.c_int, char, int64, matrix, int64, vector, vector, vector,
        ),
        dstedc=routine(
            "scipy_LAPACKE_dstedc64_", ctypes.c_int, char, int64, vector, vector, matrix, int64
        ),
        dlarft=routine(
            "scipy_LAPACKE_dlarft64_",
            ctypes.c_int, char, char, int64, int64, matrix, int64, vector, matrix, int64,
        ),
    )


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS bundled with numpy (in ``numpy.libs``), or None when
    that library or one of its routines is absent. ``--threads`` caps this
    library's threads, and :func:`eigensolve` calls its LAPACK."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            return _bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            continue
    return None


def eigensolver_name() -> str:
    """The routine that solves a real symmetric block in this process."""
    return "numpy.linalg.eigh" if openblas() is None else "LAPACK dsytrd+dstedc"


class Reflectors(NamedTuple):
    """Q = H_0 H_1 ... H_(m-2) of a tridiagonal reduction, as compact-WY
    panels (start, v, t): the product of the reflectors of one panel is
    I - v t v^T on rows start:, v unit lower trapezoidal, t upper
    triangular. No panels is Q = 1."""

    panels: tuple[tuple[int, np.ndarray, np.ndarray], ...] = ()

    def _apply(self, y: np.ndarray, transpose: bool) -> np.ndarray:
        out = np.array(y, dtype=np.result_type(y, np.float64), order="C")
        # a complex column is two real columns: Q is real
        work = out.reshape(out.shape[0], -1).view(np.float64)
        # Q = P_0 P_1 ..., so Q y applies the last panel first
        for start, v, t in self.panels if transpose else self.panels[::-1]:
            rows = work[start:]
            rows -= v @ ((t.T if transpose else t) @ (v.T @ rows))
        return out

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Q z for a vector, or each column of a matrix, ``z``."""
        return self._apply(z, transpose=False)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Q^T y for a vector, or each column of a matrix, ``y``."""
        return self._apply(y, transpose=True)


def _check(info: int) -> None:
    if info > 0:
        raise NumericError("eigensolver failed: Eigenvalues did not converge")
    if info < 0:
        raise NumericError(f"eigensolver failed: LAPACKE returned {info}")


def eigensolve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, Reflectors] | None:
    """Eigenvalues w (ascending), tridiagonal eigenvectors Z and reflectors
    Q of the real symmetric ``a`` = (Q Z) diag(w) (Q Z)^T, read from its
    lower triangle as ``eigh`` reads it; None when the kernel is absent or
    ``a`` is too large or too small for it unscaled.

    ``a`` must be square and Fortran-ordered; it is overwritten, and Z
    takes its buffer once the reflectors are copied out into panels.
    """
    library = openblas()
    m = a.shape[0]
    if a.shape != (m, m):
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    scale = max(a.max(initial=0.0), -a.min(initial=0.0))
    if library is None or not m or not (scale == 0.0 or 2 * _RMIN < scale < _RMAX / 2):
        return None
    d, e, tau = np.empty(m), np.empty(m - 1), np.empty(m - 1)
    _check(library.dsytrd(_COL_MAJOR, b"L", m, a, m, d, e, tau))
    panels = []
    for k in range(0, m - 1, PANEL):
        # reflector j is I - tau_j v v^T, v = e_(j+1) + a[j+2:, j]
        size = min(PANEL, m - 1 - k)
        v = np.array(a[k + 1 :, k : k + size], order="F")  # the one copy
        v[np.triu_indices(size, 1)] = 0.0
        np.fill_diagonal(v, 1.0)
        t = np.zeros((size, size), order="F")
        rows = v.shape[0]
        _check(library.dlarft(_COL_MAJOR, b"F", b"C", rows, size, v, rows, tau[k:], t, size))
        panels.append((k + 1, v, t))
    _check(library.dstedc(_COL_MAJOR, b"I", m, d, e, a, m))
    return d, a, Reflectors(tuple(panels))
