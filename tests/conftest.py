"""A time limit on every test, so that a test that never ends fails with its
name instead of stalling the suite while its memory grows.

The limit is ``TEST_TIME_LIMIT`` seconds, or the one given by a
``@pytest.mark.time_limit(seconds)`` marker. Where the platform has no
``SIGALRM``, tests run without a limit.
"""

import signal

import pytest

#: Seconds one test may run; the slowest test takes a few seconds.
TEST_TIME_LIMIT = 300


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_limit(seconds): fail the test after this many seconds")


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = request.node.get_closest_marker("time_limit")
    seconds = marker.args[0] if marker else TEST_TIME_LIMIT

    def expired(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {seconds} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
