import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that runs past a few seconds, by SIGALRM, instead of
    letting a hang stall the suite."""
    seconds = 5

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
