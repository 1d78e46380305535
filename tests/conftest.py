import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

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
