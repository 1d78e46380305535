import contextlib
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from cakelab import factoring  # noqa: E402

# The CLI tests start `python -m cakelab` in subprocesses; let them import
# the package from this checkout's src/ as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# A test that runs too long fails instead of stalling the suite: a decision
# must never be an unbounded computation.
TEST_TIME_LIMIT_S = 30


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past the limit.  It is not an Exception,
    so neither the code under test nor hypothesis, which would go on to
    shrink the failing example with no limit left, catches it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block, instead of hanging, once it runs past seconds.  The
    per-test limit resumes afterwards with the time it had left."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 0.001))


@pytest.fixture(autouse=True)
def degree_cap(request):
    """Run the test at the cap of its `degree_cap` marker, if it has one,
    and restore the process-wide degree cap afterwards, whatever the test
    (or a CLI run inside it, through CAKELAB_DEGREE_CAP) set.  A marker
    rather than an argument keeps the fixture out of hypothesis's
    per-example health check and leaves test ids unchanged."""
    old = factoring.degree_cap()
    marker = request.node.get_closest_marker("degree_cap")
    if marker is not None:
        factoring.set_degree_cap(*marker.args)
    yield
    factoring.set_degree_cap(old)
