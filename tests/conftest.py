import contextlib
import signal
from unittest import mock

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


@pytest.fixture(scope="session")
def eliminating():
    """A context manager under which every slot walk eliminates its leaves:
    its route is chosen under a cap of 0, which never masks, and its own
    cap is restored after."""
    from multilin import boxfree, isotropy

    class Eliminating(isotropy._SlotWalk):
        def __init__(self, T, bases, cap):
            super().__init__(T, bases, 0)
            assert not self.masked
            self.cap = cap

    @contextlib.contextmanager
    def patched():
        with mock.patch.object(isotropy, "_SlotWalk", Eliminating):
            with mock.patch.object(boxfree, "_SlotWalk", Eliminating):
                yield

    return patched
