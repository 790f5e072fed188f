"""Shared fixtures of the test suite."""

import sys

import numpy as np
import pytest

from avgcase import prob
from avgcase.kernels import tern_pmf


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


@pytest.fixture
def tern_bits():
    """``tern_bits(a, mu1, mu2, rng, size)`` draws ``size`` i.i.d. symbols
    of Tern(a, mu1, mu2) on {-1, 0, +1} from the stream ``rng``."""

    def draw(a, mu1, mu2, rng, size):
        masses = np.array(tern_pmf(a, mu1, mu2))
        return rng.generator().choice(3, size=size, p=masses / masses.sum()) - 1

    return draw
