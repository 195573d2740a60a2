"""Shared fixtures."""

import contextlib
import signal
import threading

import pytest

from floqtrk import lapack


class DeadlineExceeded(BaseException):
    """Raised into a guarded block that ran past its deadline.

    A BaseException, so handlers that catch Exception (the CLI's exit-code
    mapping among them) cannot swallow it.
    """


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test if the block is still
    running after ``seconds`` of wall-clock time (SIGALRM, main thread)."""

    @contextlib.contextmanager
    def guard(seconds):
        def expire(signum, frame):
            raise DeadlineExceeded(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard


@pytest.fixture(autouse=True)
def openblas_threads_kept():
    """Fail a test that leaves the thread count of numpy's bundled OpenBLAS
    changed, and put the count back for the tests after it."""
    library = lapack.openblas()
    if library is None:
        yield
        return
    before = library.get_num_threads()
    yield
    after = library.get_num_threads()
    if after != before:
        library.set_num_threads(before)
        pytest.fail(f"the test left OpenBLAS at {after} threads, not {before}")


@pytest.fixture(autouse=True)
def spare_slots_ended():
    """Fail a test that leaves a scheduler's helper thread
    (``floqtrk-spare-slot``) alive: a scheduler ends its helper when it
    closes."""
    before = set(threading.enumerate())
    yield
    left = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("floqtrk-spare-slot") and thread not in before
    ]
    if left:
        pytest.fail(f"the test left spare-slot threads alive: {', '.join(left)}")
