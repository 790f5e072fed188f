"""Shared fixtures of the test suite."""

import sys

import pytest

from avgcase import prob


@pytest.fixture
def on_workers(monkeypatch):
    """``on_workers(fn, cpus, cap)`` returns ``fn()`` run as if the process
    had ``cpus`` usable CPUs and at most ``cap`` blocks could be in flight
    (the host's own values where None), under a 1 µs switch interval, so that
    the pool's threads interleave often."""
    host = prob._usable_cpus(), prob._MAX_IN_FLIGHT

    def run(fn, cpus=None, cap=None):
        monkeypatch.setattr(prob, "_usable_cpus", lambda: host[0] if cpus is None else cpus)
        monkeypatch.setattr(prob, "_MAX_IN_FLIGHT", host[1] if cap is None else cap)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return fn()
        finally:
            sys.setswitchinterval(interval)

    return run
