import os
import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=60, deadline=None, suppress_health_check=(HealthCheck.too_slow,)
)
settings.register_profile(
    "thorough", max_examples=400, deadline=None, suppress_health_check=(HealthCheck.too_slow,)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def deadline():
    """deadline(seconds) arms a timer that fails the test with TimeoutError once
    it runs that long, so a call that never returns cannot stall the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to this process during the test."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
