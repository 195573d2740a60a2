"""numpy's bundled OpenBLAS, called through ctypes: its thread control and
LAPACK's real symmetric eigensolver run step by step.

numpy ships OpenBLAS (with LAPACK and LAPACKE, 64-bit integers, symbols
prefixed ``scipy_`` and suffixed ``64_``) in ``numpy.libs``; its
``np.linalg.eigh`` calls that library's ``dsyevd``. For ``jobz = 'V'``,
``dsyevd`` reduces A = Q T Q^T (``dsytrd``), solves T = Z diag(w) Z^T by
divide and conquer and forms the eigenvector matrix Q Z (``dormtr``), an
O(m^3) step with 2 m^2 of workspace. Here no Z and no eigenvector matrix
is formed. A dense block is reduced to T (:func:`reduce`), whose
eigenvalues :func:`eigenvalues` gives (``dsterf``, the values-only solve
of ``dsyevd`` for ``jobz = 'N'``), :func:`lowest` bisects, and
:func:`window` the run of eigenvalues in an interval (two Sturm counts,
``dlaebz``). T is a band of half bandwidth 1 (:meth:`Tridiagonal.band`),
and everything else comes from it as from any band: the eigenpairs of one
run of indices (:func:`band_eigenpairs`), which :func:`project` maps to
A's coordinates by Q, and the rows x^T V of a few probe vectors x over
every eigenvector V, for which :func:`project` puts Q^T on the probes and
the row solve (:func:`band_bidiagonal`, then :func:`bidiagonal_rows`)
solves T.

A block that is a narrow band needs no dense reduction, and no m x m array
at all. :func:`band_reduce` takes its lower band to the same tridiagonal
form without Q (``dsbtrd``, O(m^2 kd) where ``dsytrd`` is O(m^3)), whose
eigenvalues :func:`eigenvalues` gives (``dsterf``) and :func:`lowest`
bisects; :func:`band_eigenvector` solves for one eigenvector by inverse
iteration on the banded LU factors (``dgbtrf``, ``dgbtrs``), and
:func:`band_eigenpairs` for those of one run of indices, orthogonalized
within a cluster as ``dstein`` does. The row solve gives the rows of a
few probes over every eigenvector from the band alone, in the order of the
eigenvalues :func:`eigenvalues` gives on its T, in two steps: the probes
ride through the bidiagonal reduction (``dgbbrd``) of the banded Cholesky
factor (``dpbtrf``) of the band shifted positive definite
(:func:`band_bidiagonal`), then through LAPACK's divide and conquer for
that bidiagonal's singular value decomposition (:func:`bidiagonal_rows`),
taken one block at a time (``dlasdq`` on each small block, its rotations
applied to the probes, ``dlasd6`` to merge two, ``dlals0`` to apply the
merge's left singular vectors), so no Q, U or Z is formed. The band
routines run on one core. A :class:`Scheduler` runs calls that share
nothing in two slots, the calling thread's and a spare one that one helper
thread (a one-worker thread pool) runs while OpenBLAS may use two threads:
:func:`each` runs them on the scheduler this thread runs in, so no more
than two kernels run at once. Its calls are the members of a job, or the
steps of a band solve that share nothing: two band reductions, the values
beside the row sector's bidiagonal reduction, and the two halves of the
divide and conquer. A job opens one scheduler (:func:`scheduler`), and a
reference solve outside a job one for the whole solve. A job's two slots
are its whole core budget: while its scheduler is open, OpenBLAS is held
to one thread, and each dense solve (:func:`reduce`, :func:`project`,
:func:`eigh`) sets its own count: the job's full count outside the
members of an :func:`each`, one inside them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import InputError, NumericError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

Result = TypeVar("Result")

#: LAPACKE's matrix_layout value for column-major arrays.
_COL_MAJOR = 102

# dsyevd rescales A when max |A| (of its lower triangle) is outside
# [_RMIN, _RMAX]; such blocks, and those within a factor 2 of a bound, take
# numpy's eigh
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


def _unscaled(a: np.ndarray) -> bool:
    """Whether LAPACK takes the entries ``a`` of a block unscaled: ``a`` is
    not empty, and max |a| is zero or inside [_RMIN, _RMAX] by more than a
    factor 2 (False for a NaN)."""
    scale = max(a.max(initial=0.0), -a.min(initial=0.0))
    return a.size > 0 and (scale == 0.0 or 2 * _RMIN < scale < _RMAX / 2)


class OpenBlas(NamedTuple):
    """The routines of numpy's bundled OpenBLAS this package calls."""

    set_num_threads: Callable
    get_num_threads: Callable
    dsytrd: Callable
    dstebz: Callable
    dormtr: Callable
    dsterf: Callable
    dsbtrd: Callable
    dpbtrf: Callable
    dgbtrf: Callable
    dgbtrs: Callable
    dgbbrd: Callable
    dlaebz: Callable
    dlasdq: Callable
    dlasd6: Callable
    dlals0: Callable


def _bind(library: ctypes.CDLL) -> OpenBlas:
    def routine(name, *argtypes, restype=ctypes.c_int64):
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, restype
        return function

    int64, char, double = ctypes.c_int64, ctypes.c_char, ctypes.c_double
    count = ctypes.POINTER(int64)
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
    vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    indices = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")

    def subroutine(name, kinds):
        # a Fortran subroutine with no LAPACKE wrapper, every argument by
        # reference: for each letter of ``kinds`` an integer ("i"), a double
        # ("d"), a character ("c", its length passed after all of them) or
        # an array's address ("p"); then INFO, which the call returns
        strings = kinds.count("c")
        argtypes = [ctypes.c_void_p] * (len(kinds) + 1) + [ctypes.c_size_t] * strings
        function = routine(name, *argtypes, restype=None)
        scalar = {"i": int64, "d": double, "c": char}

        def call(*args):
            info = int64()
            function(
                *(ctypes.byref(scalar[k](a)) if k in scalar else a for k, a in zip(kinds, args)),
                ctypes.byref(info),
                *[1] * strings,
            )
            return info.value

        return call

    return OpenBlas(
        set_num_threads=routine("scipy_openblas_set_num_threads64_", ctypes.c_int, restype=None),
        get_num_threads=routine("scipy_openblas_get_num_threads64_", restype=ctypes.c_int),
        dsytrd=routine(
            "scipy_LAPACKE_dsytrd64_",
            ctypes.c_int, char, int64, matrix, int64, vector, vector, vector,
        ),
        dstebz=routine(
            "scipy_LAPACKE_dstebz64_",
            char, char, int64, double, double, int64, int64, double, vector, vector,
            count, count, vector, indices, indices,
        ),
        dormtr=routine(
            "scipy_LAPACKE_dormtr64_",
            ctypes.c_int, char, char, char, int64, int64, matrix, int64, vector, matrix, int64,
        ),
        dsterf=routine("scipy_LAPACKE_dsterf64_", int64, vector, vector),
        dsbtrd=routine(
            "scipy_LAPACKE_dsbtrd64_",
            ctypes.c_int, char, char, int64, int64, matrix, int64, vector, vector, matrix, int64,
        ),
        dpbtrf=routine("scipy_LAPACKE_dpbtrf64_", ctypes.c_int, char, int64, int64, matrix, int64),
        dgbtrf=routine(
            "scipy_LAPACKE_dgbtrf64_",
            ctypes.c_int, int64, int64, int64, int64, matrix, int64, indices,
        ),
        dgbtrs=routine(
            "scipy_LAPACKE_dgbtrs64_",
            ctypes.c_int, char, int64, int64, int64, int64, matrix, int64, indices, matrix, int64,
        ),
        dgbbrd=routine(
            "scipy_LAPACKE_dgbbrd64_",
            ctypes.c_int, char, int64, int64, int64, int64, int64, matrix, int64, vector, vector,
            matrix, int64, matrix, int64, matrix, int64,
        ),
        dlaebz=subroutine("scipy_dlaebz_64_", "iiiiiidddpppppppppp"),
        dlasdq=subroutine("scipy_dlasdq_64_", "ciiiiipppipipip"),
        dlasd6=subroutine("scipy_dlasd6_64_", "iiiipppddppppipippppppppp"),
        dlals0=subroutine("scipy_dlals0_64_", "iiiiipipipppipipppppppp"),
    )


def bundled_libraries() -> list[Path]:
    """The OpenBLAS libraries numpy ships in ``numpy.libs``, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(libs.glob("libscipy_openblas*.so*"))


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS bundled with numpy (:func:`bundled_libraries`), or None
    when that library or one of its routines is absent. ``--threads`` caps
    this library's threads (:func:`thread_cap`), and :func:`reduce` and the
    solves call its LAPACK."""
    for path in bundled_libraries():
        try:
            return _bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            continue
    return None


@contextlib.contextmanager
def thread_cap(library: OpenBlas, threads: int) -> Iterator[int]:
    """``library`` capped at ``threads`` threads inside the block; yields the
    count read back. The previous count is restored on exit."""
    previous = library.get_num_threads()
    library.set_num_threads(threads)
    try:
        yield library.get_num_threads()
    finally:
        library.set_num_threads(previous)


def eigensolver_name() -> str:
    """The routines that solve a real symmetric block of a reference solve
    in this process: the dense reduction and its tridiagonal solve, the
    band reduction with its values-only solve, and the band solve for rows.
    A solve with no reference is numpy's ``eigh``."""
    if openblas() is None:
        return "numpy.linalg.eigh"
    return "LAPACK dsytrd+dsterf, dsbtrd+dsterf, dpbtrf+dgbbrd+dlasdq+dlasd6+dlals0"


def _check(info: int) -> None:
    if info > 0:
        raise NumericError("eigensolver failed: Eigenvalues did not converge")
    if info < 0:
        raise NumericError(f"eigensolver failed: LAPACKE returned {info}")


def _at(array: np.ndarray) -> int:
    """The address of ``array``'s first element, for a Fortran routine."""
    return array.ctypes.data


class Tridiagonal(NamedTuple):
    """A = Q T Q^T as ``dsytrd`` (lower) leaves it: the diagonal ``d`` and
    subdiagonal ``e`` of T, and A's own buffer ``a``, whose columns below
    the subdiagonal hold Q's Householder vectors with factors ``tau``. A
    band reduction (:func:`band_reduce`) keeps no Q: ``a`` and ``tau`` are
    None, and only T's eigenvalues are read."""

    a: np.ndarray | None
    d: np.ndarray
    e: np.ndarray
    tau: np.ndarray | None

    def band(self) -> np.ndarray:
        """T as a lower band (kd = 1), as :func:`band_bidiagonal` reads one."""
        return np.array([self.d, np.append(self.e, 0.0)], order="F")


#: The scheduler of the thread that runs a job, and of its helper.
_active = threading.local()


def _dense(solve: Callable[..., Result]) -> Callable[..., Result]:
    """``solve`` as a dense solve, which OpenBLAS spreads over its threads:
    in a job, at the count :meth:`Scheduler.dense` of the job's scheduler
    sets (the job's full count outside the members of an :func:`each`, one
    inside them); outside a job, at the count in force."""

    @functools.wraps(solve)
    def dense(*args, **kwargs) -> Result:
        current = getattr(_active, "scheduler", None)
        with contextlib.nullcontext() if current is None else current.dense():
            return solve(*args, **kwargs)

    return dense


@_dense
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of the Hermitian ``a`` by numpy's ``eigh``, a dense
    solve: the ascending eigenvalues and the eigenvectors as columns.
    NumericError when it does not converge."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc


@_dense
def reduce(a: np.ndarray) -> Tridiagonal | None:
    """The tridiagonal reduction of the real symmetric ``a``, read from its
    lower triangle as ``eigh`` reads it; None when the kernel is absent or
    ``a`` is too large or too small for it unscaled.

    ``a`` must be square and Fortran-ordered; it is overwritten and becomes
    the reduction's ``a``.
    """
    library = openblas()
    m = a.shape[0]
    if a.shape != (m, m):
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if library is None or not _unscaled(a):
        return None
    d, e, tau = np.empty(m), np.empty(m - 1), np.empty(m - 1)
    _check(library.dsytrd(_COL_MAJOR, b"L", m, a, m, d, e, tau))
    return Tridiagonal(a, d, e, tau)


@_dense
def project(reduced: Tridiagonal, probes: np.ndarray, back: bool = False) -> np.ndarray:
    """Q^T ``probes`` (``dormtr``) for the m x k ``probes``, real or
    complex: the probes in the coordinates of T, for
    :func:`band_bidiagonal` on :meth:`Tridiagonal.band`. With ``back``,
    Q ``probes``: vectors of T, such as those :func:`band_eigenpairs`
    gives on its band, in the coordinates of A. The reflectors in
    ``reduced.a`` are read, not kept."""
    library = openblas()
    a, d, _, tau = reduced
    m = d.size
    if probes.ndim != 2 or probes.shape[0] != m:
        raise InputError(f"expected probes of shape ({m}, k), got shape {probes.shape}")
    dtype = np.result_type(probes, np.float64)
    # a complex column is two real columns: Q is real
    columns = np.array(np.ascontiguousarray(probes, dtype=dtype).view(np.float64), order="F")
    k = columns.shape[1]
    trans = b"N" if back else b"T"
    _check(library.dormtr(_COL_MAJOR, b"L", b"L", trans, m, k, a, m, tau, columns, m))
    return np.ascontiguousarray(columns).view(dtype)


def _run(library: OpenBlas, reduced: Tridiagonal, ks: range) -> np.ndarray:
    """Eigenvalues ``ks`` of T, a contiguous run (0-based), ascending, by
    ``dstebz`` at full accuracy, refused unless it finds them all."""
    m = reduced.d.size
    if ks.step != 1 or not 0 <= ks.start < ks.stop <= m:
        raise InputError(f"eigenvalue indices {ks} are not a run inside a block of size {m}")
    found, blocks = ctypes.c_int64(), ctypes.c_int64()
    w, iblock, isplit = np.zeros(m), np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    abstol = 2 * np.finfo(np.float64).tiny
    _check(
        library.dstebz(
            b"I", b"E", m, 0.0, 0.0, ks.start + 1, ks.stop, abstol, reduced.d, reduced.e,
            ctypes.byref(found), ctypes.byref(blocks), w, iblock, isplit,
        )
    )
    if found.value != len(ks):
        raise NumericError(f"eigensolver failed: bisection found {found.value} of eigenvalues {ks}")
    return w[: len(ks)]


def lowest(reduced: Tridiagonal, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of T (all of them when ``count``
    exceeds its size), ascending, by bisection (:func:`_run`)."""
    return _run(openblas(), reduced, range(min(count, reduced.d.size)))


def _norm(reduced: Tridiagonal) -> float:
    """||T||_1 of T, its largest Gershgorin row sum."""
    off = np.abs(reduced.e)
    gershgorin = np.abs(reduced.d) + np.concatenate([[0.0], off]) + np.concatenate([off, [0.0]])
    return float(np.max(gershgorin))


def window(reduced: Tridiagonal, low: float, high: float) -> range:
    """The indices (0-based, ascending) of T's eigenvalues in [low, high],
    the interval widened on both sides by a rounding margin m eps ||T||
    (Gershgorin), so an eigenvalue within rounding of an end is inside.

    Read off two Sturm counts in one call of LAPACK's bisection recurrence
    (``dlaebz``, IJOB = 1): the count at x is the number of non-positive
    pivots of T - x, one below pivmin in magnitude taken as -pivmin, where
    ``dlarrc`` would miscount an exactly zero one.
    """
    d, e = reduced.d, reduced.e
    margin = d.size * np.finfo(np.float64).eps * _norm(reduced)
    squares = e * e
    pivmin = np.finfo(np.float64).tiny * max(1.0, squares.max(initial=0.0))
    ends = np.array([low - margin, high + margin])
    counts = np.zeros(3, dtype=np.int64)  # NAB, the count at each end, then MOUT
    # IJOB = 1 reads no NVAL, C, WORK or IWORK
    args = (_at(d), _at(e), _at(squares), None, _at(ends), None, _at(counts) + 16, _at(counts))
    _check(openblas().dlaebz(1, 0, d.size, 1, 1, 0, 0.0, 0.0, pivmin, *args, None, None))
    return range(counts[0], counts[1])


def eigenvalues(reduced: Tridiagonal) -> np.ndarray:
    """Every eigenvalue of T, ascending: ``dsterf`` on copies of its
    diagonals."""
    values = reduced.d.copy()
    _check(openblas().dsterf(values.size, values, reduced.e.copy()))
    return values


def band_reduce(band: np.ndarray) -> Tridiagonal | None:
    """The tridiagonal T of the real symmetric band matrix A whose lower
    band is ``band`` (``dsbtrd``, vect 'N', on a copy): the same
    eigenvalues, and no Q. None when the kernel is absent or A is too large
    or too small for it unscaled, as in :func:`reduce`.

    ``band`` is (kd + 1) x m, Fortran-ordered: ``band[i - j, j]`` = A[i, j]
    for j <= i <= j + kd, as LAPACK stores a lower band.
    """
    library = openblas()
    kd, m = band.shape[0] - 1, band.shape[1]
    if library is None or not _unscaled(band):
        return None
    ab = np.array(band, order="F")
    d, e, unused = np.empty(m), np.empty(m - 1), np.zeros((1, 1), order="F")
    _check(library.dsbtrd(_COL_MAJOR, b"N", b"L", m, kd, ab, kd + 1, d, e, unused, 1))
    return Tridiagonal(None, d, e, None)


class Scheduler:
    """Two slots for calls that share nothing: the calling thread's, and a
    spare one, run by one helper thread (a one-worker
    ``ThreadPoolExecutor``) that starts when first used and ends at
    :meth:`close`. The band routines (``dsbtrd``, ``dsterf`` and those of
    the row solve) run on one core, so two of them at once use two.
    ``threads`` is OpenBLAS's count when the scheduler opens: the spare
    slot exists at two or more. At one (``--threads 1``) the spare slot is
    never free, no helper exists, and every call runs on the calling
    thread, in turn.

    :meth:`each` takes the spare slot only when it is free, and otherwise
    runs its calls in turn, so no more than two calls run at once however
    they nest: a member of an :meth:`each` that runs two steps of a band
    solve side by side (its band reductions, its values beside its
    bidiagonal reduction, or the two halves of its divide and conquer)
    gets the spare slot only once no other member holds it. Results do not
    depend on the slot a call ran in.

    A job's scheduler holds OpenBLAS to one thread (:meth:`hold`), and
    then the thread count of a dense solve (:meth:`dense`) is fixed by
    where the solve runs, never by when: inside the members of an
    :meth:`each` that runs on both slots, one; elsewhere, ``threads``."""

    def __init__(self, threads: int):
        self._lock = threading.Lock()
        self._threads = threads
        self._free = threads >= 2
        self._held: OpenBlas | None = None
        self._members = 0  # the calls of each running on both slots
        self._helper: ThreadPoolExecutor | None = None
        if self._free:
            # ~8 ms to import, so kept off the start-up path and --threads 1
            from concurrent.futures import ThreadPoolExecutor

            self._helper = ThreadPoolExecutor(1, "floqtrk-spare-slot", initializer=self._nest)

    def _nest(self) -> None:
        _active.scheduler = self  # a call on the helper nests in this scheduler

    def _reserve(self) -> bool:
        """Whether the spare slot was free; it is taken if so."""
        with self._lock:
            free, self._free = self._free, False
        return free

    def _release(self) -> None:
        with self._lock:
            self._free = True

    def hold(self) -> None:
        """Hold OpenBLAS to one thread until :meth:`close`, which restores
        ``threads``, when the spare slot exists: the two slots are then the
        whole core budget, and no BLAS product wakes an OpenBLAS worker
        that would spin on the core the other slot runs on."""
        if self._helper is not None:
            self._held = openblas()
            self._held.set_num_threads(1)

    @contextlib.contextmanager
    def dense(self) -> Iterator[None]:
        """The block as a dense solve. A held scheduler runs it at
        ``threads`` outside the members of an :meth:`each` on both slots,
        the block taking the spare slot, and the count back at one at exit;
        inside them, where the other slot runs a member, at one. Otherwise
        the block runs at the count in force and sets none."""
        if self._held is None or self._members or not self._reserve():
            yield
            return
        self._held.set_num_threads(self._threads)
        try:
            yield
        finally:
            self._held.set_num_threads(1)
            self._release()

    def close(self) -> None:
        """End the helper thread, once its call has ended, and restore a
        held count; the spare slot is not free afterwards."""
        with self._lock:
            self._free = False
        try:
            if self._helper is not None:
                self._helper.shutdown(wait=True)
        finally:
            if self._held is not None:
                self._held.set_num_threads(self._threads)

    def each(self, calls: Sequence[Callable[[], Result]]) -> list[Result]:
        """Every one of ``calls``, the results in their order. When the spare
        slot is free at the start, the calls are taken from the last one
        back (a scan lists its cutoffs ascending, so the largest starts
        first): the calling thread takes the last and the helper the one
        before it, then each the next one left as it ends its own, and the
        helper frees the slot once none is left; of two calls, the helper
        runs the first and the calling thread the second. Once both slots
        have ended, an interrupt (``KeyboardInterrupt``) on either thread is
        raised, or else the exception of the first of ``calls`` that
        raised, as running them in turn would raise it; an interrupt starts
        no further call. While the calls run on both slots, a dense solve in
        them runs at one thread (:meth:`dense`). Otherwise the calls run in
        turn on the calling thread, in their order, up to the first that
        raises."""
        if len(calls) < 2 or not self._reserve():
            return [call() for call in calls]
        results: list = [None] * len(calls)
        errors: dict[int, BaseException] = {}
        pending, lock = list(range(len(calls))), threading.Lock()

        def take(i: int | None) -> None:
            # call i, then the last one left, until none is
            while i is not None:
                try:
                    results[i] = calls[i]()
                except BaseException as exc:  # raised once both slots end
                    with lock:
                        errors[i] = exc
                        if not isinstance(exc, Exception):  # an interrupt ends the rest
                            pending.clear()
                with lock:
                    i = pending.pop() if pending else None

        def spare(i: int) -> None:
            try:
                take(i)
            finally:  # the slot is free again once the helper's turn has ended
                self._release()

        with self._lock:
            self._members += 1
        try:
            mine = pending.pop()
            helper = self._helper.submit(spare, pending.pop())
            try:
                take(mine)
            finally:  # an interrupt that ends this thread's turn ends the helper's too
                with lock:
                    pending.clear()
                helper.result()
        finally:
            with self._lock:
                self._members -= 1
        if errors:
            interrupts = [exc for exc in errors.values() if not isinstance(exc, Exception)]
            raise interrupts[0] if interrupts else errors[min(errors)]
        return results


@contextlib.contextmanager
def scheduler(hold: bool = False) -> Iterator[Scheduler]:
    """The scheduler this thread runs in, or a new one for the block: its
    spare slot is free when OpenBLAS may use two threads or more, and its
    helper thread has ended when the block exits. A new scheduler opened
    with ``hold``, a job's, holds OpenBLAS to one thread inside the block
    (:meth:`Scheduler.hold`) and restores the count when the block exits,
    on an error or an interrupt too; without ``hold`` no count is set."""
    current = getattr(_active, "scheduler", None)
    if current is not None:
        yield current
        return
    library = openblas()
    slots = Scheduler(1 if library is None else library.get_num_threads())
    _active.scheduler = slots
    try:
        if hold:
            slots.hold()
        yield slots
    finally:
        _active.scheduler = None
        slots.close()


def each(calls: Sequence[Callable[[], Result]]) -> list[Result]:
    """Every one of ``calls``, calls that share nothing, as the
    :meth:`Scheduler.each` of the scheduler this thread runs in (a job's,
    a reference solve's, or one for this call): a job's members, or two
    steps of a band solve. Each result is the same bit for bit on one slot
    or two."""
    with scheduler() as slots:
        return slots.each(calls)


def _band_product(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric A of the lower ``band``."""
    m = band.shape[1]
    y = band[0] * x
    # a band row t >= m holds no entry of A, as in LAPACK's band storage
    for t in range(1, min(band.shape[0], m)):
        y[t:] += band[t, : m - t] * x[: m - t]
        y[: m - t] += band[t, : m - t] * x[t:]
    return y


def _general_band(band: np.ndarray, diagonal: np.ndarray, above: int) -> np.ndarray:
    """The symmetric A of the lower ``band`` with ``diagonal`` on its
    diagonal, in LAPACK's general band storage with ``above`` >= kd rows
    over the diagonal row: A[i, j] at row ``above`` + i - j."""
    kd, m = band.shape[0] - 1, band.shape[1]
    ab = np.zeros((above + kd + 1, m), order="F")
    ab[above] = diagonal
    for t in range(1, min(kd + 1, m)):
        ab[above + t, : m - t] = band[t, : m - t]
        ab[above - t, t:] = band[t, : m - t]
    return ab


def _band_margin(band: np.ndarray) -> float:
    """The rounding margin m eps ||A|| of the symmetric A of the lower
    ``band``, with ||A|| its largest Gershgorin row sum, as :func:`window`
    widens an interval by on T."""
    rows = _band_product(np.abs(band), np.ones(band.shape[1]))
    return band.shape[1] * np.finfo(np.float64).eps * float(np.max(rows, initial=0.0))


#: Inverse iteration steps :func:`band_eigenvector` takes at most before
#: its residual is at rounding level, and the steps it takes after, as
#: ``dstein`` does (MAXITS, EXTRA).
INVERSE_STEPS, EXTRA_STEPS = 5, 2


def band_eigenvector(
    band: np.ndarray, value: float, against: np.ndarray | None = None
) -> np.ndarray | None:
    """A unit eigenvector of the symmetric A of the lower ``band`` for its
    eigenvalue ``value``, by inverse iteration on A - value 1 (banded LU,
    ``dgbtrf`` once, ``dgbtrs`` per step) from a fixed start vector: the
    vector :data:`EXTRA_STEPS` steps after the first whose residual
    ||A v - value v|| is within :func:`_band_margin`, each further step
    cutting the error the margin allows by the ratio of the distances to
    ``value``; None when no step of the first :data:`INVERSE_STEPS`
    reaches the margin, or the last step is beyond it. Each iterate is
    orthogonalized against the orthonormal columns of ``against``, when
    given, as ``dstein`` orthogonalizes against a cluster's earlier
    vectors.

    A pivot of the LU factors below eps ||A|| in magnitude (an exactly
    singular shift among them) is raised to that size, as ``dstein``
    perturbs a small pivot: a perturbation of A at rounding level, which
    keeps every step finite.
    """
    library = openblas()
    kd, m = band.shape[0] - 1, band.shape[1]
    margin = _band_margin(band)
    # kd more rows above for the fill-in of dgbtrf
    lu = _general_band(band, band[0] - value, 2 * kd)
    pivots = np.zeros(m, dtype=np.int64)
    # info > 0 names an exactly zero pivot, raised below
    _check(min(library.dgbtrf(_COL_MAJOR, m, m, kd, kd, lu, 3 * kd + 1, pivots), 0))
    floor = max(margin / m, np.finfo(np.float64).tiny)
    diagonal = lu[2 * kd]
    small = np.abs(diagonal) < floor
    diagonal[small] = np.where(diagonal[small] < 0.0, -floor, floor)
    # a fixed start with no symmetry: cos(k phi), phi the golden angle
    x = np.cos(np.arange(m, dtype=np.float64) * (math.pi * (3.0 - math.sqrt(5.0))))[:, None]
    steps, found = INVERSE_STEPS, False
    while steps:
        steps -= 1
        x = np.asfortranarray(x / np.linalg.norm(x))
        _check(library.dgbtrs(_COL_MAJOR, b"N", m, kd, kd, 1, lu, 3 * kd + 1, pivots, x, m))
        if against is not None:
            x -= against @ (against.T @ x)
        largest = float(np.max(np.abs(x)))
        if not 0.0 < largest < math.inf:
            return None
        x /= largest
        vector = x[:, 0] / np.linalg.norm(x)
        converged = np.linalg.norm(_band_product(band, vector) - value * vector) <= margin
        if converged and not found:
            found, steps = True, EXTRA_STEPS
    return vector if found and converged else None


#: ``dstein``'s ORTOL: eigenvalues within this fraction of ||T||_1 of the
#: one before form a cluster, whose vectors are orthogonalized (ODM3).
CLUSTER_RTOL = 1e-3


def band_eigenpairs(
    band: np.ndarray, reduced: Tridiagonal, ks: range, values: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues ``ks`` of the symmetric A of the lower ``band``, a
    contiguous run (0-based, ascending), and their eigenvectors as the
    columns of an m x k matrix in band order; None when inverse iteration
    does not confirm a vector (:func:`band_eigenvector`).

    The values are ``values``, the run's when the caller has bisected them
    already (:func:`lowest`), or else come from bisection (``dstebz``) on
    ``reduced``, A's tridiagonal T (:func:`band_reduce`, or the
    :func:`reduce` whose T ``band`` is); each vector comes from banded
    inverse iteration at its value. As in ``dstein``, a
    value within :data:`CLUSTER_RTOL` ||T||_1 of the one before it joins
    its cluster, and each iterate is orthogonalized against the cluster's
    earlier vectors.
    """
    w = _run(openblas(), reduced, ks) if values is None else values
    cluster = CLUSTER_RTOL * _norm(reduced)
    vectors = np.empty((reduced.d.size, len(ks)), order="F")
    head = 0
    for i, value in enumerate(w):
        if i and value - w[i - 1] > cluster:
            head = i
        vector = band_eigenvector(band, float(value), vectors[:, head:i] if i > head else None)
        if vector is None:
            return None
        vectors[:, i] = vector
    return w, vectors


#: The size at and below which :func:`bidiagonal_rows` solves a block of
#: its bidiagonal whole (``dlasdq``) rather than dividing it, ``dgelsd``'s
#: SMLSIZ.
SMLSIZ = 25


class Bidiagonal(NamedTuple):
    """The upper bidiagonal B = Q^T L P of :func:`band_bidiagonal`: its
    diagonal ``d`` and superdiagonal ``e``, and Q^T on the probes as the
    real m x k columns ``rows`` (a complex probe is two), which
    :func:`bidiagonal_rows` gives back as ``dtype``."""

    d: np.ndarray
    e: np.ndarray
    rows: np.ndarray
    dtype: np.dtype


def band_bidiagonal(band: np.ndarray, probes: np.ndarray) -> Bidiagonal | None:
    """The first step of the row solve of the m x k ``probes`` in band
    order, real or complex, over the eigenvectors of the symmetric A of
    the lower ``band``: the bidiagonal of the band's shifted Cholesky
    factor, with Q^T on the probes, whose divide and conquer
    (:func:`bidiagonal_rows`) gives the rows. A dense block's rows are
    those of its T's band (:meth:`Tridiagonal.band`) for the probes
    :func:`project` gives. None when the kernel is absent, A is too large
    or too small for it unscaled (as in :func:`band_reduce`), or
    ``dpbtrf`` or ``dgbbrd`` reports a failure.

    A + sigma 1 is positive definite for sigma = margin - (the lower end of
    A's Gershgorin interval), the margin :data:`CLUSTER_RTOL` times that
    interval's width, or the rounding of the shifted diagonal (4 m eps
    times the interval's larger end) when that is more, or the smallest
    normal number. Its banded Cholesky factor L (``dpbtrf``, L L^T =
    A + sigma 1) is reduced as a lower band to an upper bidiagonal
    B = Q^T L P (``dgbbrd``, no Q or P formed), which applies Q^T to the
    probes. The left singular vectors of L are the eigenvectors of L L^T:
    with B = U S W^T, those are Q U, in the order of the singular values,
    which ascend as the eigenvalues s^2 - sigma do. Every array is
    O(m kd); the factor is freed on return.
    """
    library = openblas()
    kd, m = band.shape[0] - 1, band.shape[1]
    if probes.ndim != 2 or probes.shape[0] != m:
        raise InputError(f"expected probes of shape ({m}, k), got shape {probes.shape}")
    if library is None or not _unscaled(band):
        return None
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    radii = _band_product(np.abs(band), np.ones(m)) - np.abs(band[0])
    low, high = float(np.min(band[0] - radii)), float(np.max(band[0] + radii))
    margin = max(CLUSTER_RTOL * (high - low), 4 * m * eps * max(abs(low), abs(high)), tiny)
    # L in LAPACK's lower band storage is a general band with kl = kd, ku = 0
    factor = np.array(band, order="F")
    factor[0] += margin - low
    if library.dpbtrf(_COL_MAJOR, b"L", m, kd, factor, kd + 1):
        return None
    dtype = np.result_type(probes, np.float64)
    # a complex column is two real columns: Q and U are real
    rows = np.array(np.ascontiguousarray(probes, dtype=dtype).view(np.float64), order="F")
    k = rows.shape[1]
    d, e, unused = np.empty(m), np.empty(m - 1), np.zeros((1, 1), order="F")
    if library.dgbbrd(
        _COL_MAJOR, b"N", m, m, k, kd, 0, factor, kd + 1, d, e, unused, 1, unused, 1, rows, m
    ):
        return None
    return Bidiagonal(d, e, rows, dtype)


def bidiagonal_rows(bidiagonal: Bidiagonal) -> np.ndarray | None:
    """The second step of the row solve: the k x m rows of the probes over
    the left singular vectors U of the ``bidiagonal`` B, in ascending order
    of its singular values, so the rows ``probes``^T V of
    :func:`band_bidiagonal`'s band and probes, V its eigenvectors in the
    order of :func:`eigenvalues` (entry (i, j) is probes[:, i] . v_j,
    unconjugated), as ``dtype``. B is overwritten. None when ``dlasdq``,
    ``dlasd6`` or ``dlals0`` reports a failure.

    U^T goes onto the probes by LAPACK's divide and conquer for the
    bidiagonal SVD, the steps of ``dlasda`` and ``dlalsa`` (the solve of
    ``dgelsd``) taken one block at a time (:func:`_solve_block`): a block
    of at most :data:`SMLSIZ` rows is solved whole (``dlasdq``), its
    rotations applied to the probes' rows as they are made, so no U is
    formed; a larger one is halved about its middle row, both halves
    solved, and the two merged (:func:`_merge_halves`, ``dlasd6``), the
    merge's U applied at once in its compact form (``dlals0``). The two
    halves of B share nothing until their merge, so they run side by side
    (:func:`each`), each on a workspace of its own size, and the calling
    thread makes the top merge on the second half's; the arithmetic is
    that of solving them in turn. Each slot holds the arrays of one merge
    at a time (none for a block of at most :data:`SMLSIZ` rows), every
    array is O(m k), and no U or m x m array is formed.
    """
    tree = _Tree(bidiagonal)
    m, k = tree.m, tree.k
    top = _Workspace(m, k)
    if m <= SMLSIZ:
        solved = _solve_block(tree, top, 0, m, 0)
    else:
        left = m // 2
        halves = [
            functools.partial(_solve_block, tree, _Workspace(left, k), 0, left, 1),
            functools.partial(_solve_block, tree, top, left + 1, m - left - 1, 0),
        ]
        solved = all(each(halves)) and _merge_halves(tree, top, 0, m, 0)
    if not solved:
        return None
    # the merges leave the singular values unsorted
    d, _, rows, dtype = bidiagonal
    return np.ascontiguousarray(rows[np.argsort(d, kind="stable")]).view(dtype).T


class _Tree:
    """What the blocks of :func:`bidiagonal_rows` share: the library, and
    the addresses of B's ``d`` and ``e``, of the probes' m x k ``rows``,
    and of the first and last rows of each solved block's W (vf and vl,
    the columns of ``ends``) and the order of its singular values
    (``idxq``, 1-based), which it leaves for its merge. Row lo of each is
    8 lo bytes on; a block reads and writes only its own rows, so blocks
    that share no row run side by side."""

    def __init__(self, bidiagonal: Bidiagonal):
        self.library = openblas()
        self.d, self.e, rows, _ = bidiagonal
        self.m, self.k = rows.shape
        self.ends = np.empty((self.m, 2), order="F")
        self.idxq = np.empty(self.m, dtype=np.int64)
        # each address is read once (ndarray.ctypes takes microseconds a call)
        self.d_at, self.e_at, self.rows_at = _at(self.d), _at(self.e), _at(rows)
        self.ends_at, self.idxq_at = _at(self.ends), _at(self.idxq)


class _Workspace:
    """The arrays one slot solves the blocks of at most ``n`` rows of a
    :class:`_Tree` with ``k`` probe columns on: ``dlasdq``'s work and, for
    n over :data:`SMLSIZ`, one merge's U in compact form (``dlasd6``
    writes it, ``dlals0`` applies it), each merge's over the last one's,
    its leading dimension n; as the addresses the kernels take. A block
    may have one more column than rows."""

    def __init__(self, n: int, k: int):
        work, unused = np.empty(4 * (n + 1)), np.zeros((1, 1), order="F")
        self.arrays = [work, unused]
        self.work_at, self.unused_at = _at(work), _at(unused)
        if n <= SMLSIZ:
            return
        perm, givcol = np.empty(n, dtype=np.int64), np.empty((n, 2), dtype=np.int64, order="F")
        givnum, poles, difr = (np.empty((n, 2), order="F") for _ in range(3))
        difl, z, c, s = np.empty(n), np.empty(n + 1), np.empty(1), np.empty(1)
        # size is the merge's secular equation's
        givptr, size = np.empty(1, dtype=np.int64), np.empty(1, dtype=np.int64)
        scratch, iwork = np.empty((n, k), order="F"), np.empty(3 * n, dtype=np.int64)
        self.arrays += [perm, givcol, givnum, poles, difr, difl, z, c, s, givptr, size]
        self.arrays += [scratch, iwork]
        self.n, self.scratch_at, self.iwork_at = n, _at(scratch), _at(iwork)
        self.compact = (*map(_at, (perm, givptr, givcol)), n, _at(givnum), n)
        self.compact += tuple(map(_at, (poles, difl, difr, z, size, c, s)))


def _solve_block(tree: _Tree, space: _Workspace, lo: int, n: int, sqre: int) -> bool:
    """Rows lo .. lo + n - 1 of the ``tree``'s B, with ``sqre`` more
    columns than rows, solved on ``space``: whole when n is at most
    :data:`SMLSIZ`, else halved about its middle row, both halves solved
    and merged. False when a kernel reports a failure."""
    at = 8 * lo
    if n <= SMLSIZ:
        # W^T on its first and last columns only (ends), U^T straight onto
        # the probes' rows: the rotations act on each column alone
        tree.ends[lo : lo + n + sqre] = 0.0
        tree.ends[lo, 0] = tree.ends[lo + n + sqre - 1, 1] = 1.0
        if tree.library.dlasdq(
            b"U", sqre, n, 2, 0, tree.k, tree.d_at + at, tree.e_at + at, tree.ends_at + at,
            tree.m, space.unused_at, 1, tree.rows_at + at, tree.m, space.work_at,
        ):
            return False
        tree.idxq[lo : lo + n] = np.arange(1, n + 1)
        return True
    left = n // 2
    return (
        _solve_block(tree, space, lo, left, 1)
        and _solve_block(tree, space, lo + left + 1, n - left - 1, sqre)
        and _merge_halves(tree, space, lo, n, sqre)
    )


def _merge_halves(tree: _Tree, space: _Workspace, lo: int, n: int, sqre: int) -> bool:
    """The two solved halves of rows lo .. lo + n - 1 of the ``tree``'s B
    (:func:`_solve_block`) merged on ``space`` (``dlasd6``), the merge's U
    applied to the probes' rows (``dlals0``). False when a kernel reports
    a failure."""
    at, left = 8 * lo, n // 2
    right, middle, library = n - left - 1, lo + left, tree.library
    return not (
        library.dlasd6(
            1, left, right, sqre, tree.d_at + at, tree.ends_at + at,
            tree.ends_at + 8 * tree.m + at, tree.d[middle], tree.e[middle],
            tree.idxq_at + at, *space.compact, space.work_at, space.iwork_at,
        )
        or library.dlals0(
            0, left, right, 0, tree.k, tree.rows_at + at, tree.m, space.scratch_at,
            space.n, *space.compact, space.work_at,
        )
    )
