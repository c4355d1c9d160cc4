"""A per-test time limit: a test that hangs fails instead of stalling the suite.

The limit is acceptance criterion 8's own runtime budget, the longest any
single test is allowed.  It needs ``SIGALRM``; where the platform has none,
tests run without a limit.
"""

import signal

import pytest

TEST_TIMEOUT_S = 300


def _expire(signum, frame):
    pytest.fail(f"test ran longer than {TEST_TIMEOUT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
