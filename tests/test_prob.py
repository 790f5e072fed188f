"""Tests for seeded streams, the pool policy and the normal CDF, and for
the chi-square calibration of draws from the streams against exact laws."""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from avgcase import prob
from avgcase.errors import ParameterError
from avgcase.kernels import tern_pmf
from avgcase.prob import RngStream, normal_cdf, uniform_below
from avgcase.verify import FinitePmf, _binomial_pmf, chi2_gof_counts

# Standard normal CDF values computed with mpmath.ncdf at 40 digits.
PHI_ORACLE = {
    0.5: 0.6914624612740131,
    1.0: 0.8413447460685429,
    1.7: 0.9554345372414570,
    2.0: 0.9772498680518208,
    3.0: 0.9986501019683699,
    -1.0: 0.1586552539314571,
    -2.5: 0.006209665325776135,
    4.0: 0.9999683287581669,
    -4.0: 3.167124183311992e-05,
    0.1: 0.5398278372770290,
}


def test_stream_determinism_and_independence():
    a = RngStream(7).child("x", 3).generator().standard_normal(16)
    b = RngStream(7).child("x", 3).generator().standard_normal(16)
    c = RngStream(7).child("x", 4).generator().standard_normal(16)
    d = RngStream(8).child("x", 3).generator().standard_normal(16)
    assert_array_equal(a, b)  # identical (seed, path) => bit-identical
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_integer_draws_bit_identical():
    g1 = RngStream(123).child("ints").generator()
    g2 = RngStream(123).child("ints").generator()
    assert_array_equal(g1.integers(0, 2**62, size=64), g2.integers(0, 2**62, size=64))


def _hypergeometric_pmf(N, K, n):
    from scipy.stats import hypergeom

    ks = np.arange(max(0, n - (N - K)), min(n, K) + 1)
    return FinitePmf(tuple(ks.astype(float)), tuple(hypergeom.pmf(ks, N, K, n)))


@pytest.mark.parametrize("spec", [
    # (stream tag, the exact law, a draw of n from a generator)
    ("bin-1", lambda: _binomial_pmf(1, 0.3), lambda g, n: g.binomial(1, 0.3, n)),
    ("bin-12", lambda: _binomial_pmf(12, 0.4), lambda g, n: g.binomial(12, 0.4, n)),
    ("hyp", lambda: _hypergeometric_pmf(50, 20, 12),
     lambda g, n: g.hypergeometric(20, 30, 12, n)),
    ("tern", lambda: FinitePmf((-1.0, 0.0, 1.0), tern_pmf(0.6, 0.05, 0.01)),
     lambda g, n: g.choice((-1.0, 0.0, 1.0), n, p=tern_pmf(0.6, 0.05, 0.01))),
    ("finite", lambda: FinitePmf((0.0, 1.0, 5.0), (0.2, 0.5, 0.3)),
     lambda g, n: g.choice((0.0, 1.0, 5.0), n, p=(0.2, 0.5, 0.3))),
])
def test_finite_specs_chi2_gof(spec):
    # 1e5 draws pass a chi-square test against the exact pmf at 1e-4.
    tag, law, draw = spec
    x = draw(RngStream(2026).child(tag).generator(), 100_000)
    stat, pval = chi2_gof_counts(np.asarray(x, dtype=float), law())
    assert pval > 1e-4, (tag, stat, pval)


def test_normal_cdf_against_oracle():
    for x, expected in PHI_ORACLE.items():
        assert abs(normal_cdf(x) - expected) < 1e-12
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_matches_scipy_ndtr():
    # A seeded sweep of [-40, 40], dense around |x| = 1 and around +-3, plus
    # the edges of cephes' ndtr branches with their neighbours: 0, +-1,
    # +-8 sqrt 2 (erfc's two fits), +-sqrt(2 MAXLOG) ~ +-37.68 (exp(-x^2/2)
    # underflows), +-38.6 and the infinities.  Wherever ndtr is a normal
    # double, Phi is within 1e-12 of it relatively.
    from scipy.special import ndtr

    gen = RngStream(5).child("phi").generator()
    edges = np.array([0.0, 1.0, 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2),
                      38.6, np.inf])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    x = np.concatenate([gen.uniform(-40.0, 40.0, 100_000), gen.uniform(0.9, 1.1, 20_000),
                        gen.uniform(2.9, 3.1, 20_000), edges])
    x = np.concatenate([x, -x])
    got = np.array([normal_cdf(v) for v in x.tolist()])
    want = ndtr(x)
    normal = want >= np.finfo(np.float64).tiny
    assert normal.sum() > 200_000
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-12
    assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
    assert isinstance(normal_cdf(np.float64(0.3)), float)
    assert np.isnan(normal_cdf(np.nan))


def _started(seed, start, k):
    """A generator at one of the start states ``uniform_below`` must handle:
    fresh, k doubles into the stream, or with a pending 32-bit half after an
    int32 draw, which ``advance`` would drop."""
    gen = RngStream(seed).child("start").generator()
    if start == "doubles":
        gen.random(k)
    elif start == "int32":
        gen.random(k)
        gen.integers(0, 1000, dtype=np.int32)
    return gen


def _after(gen):
    """The draws that follow, of every kind the program makes."""
    return (gen.random(5).tobytes(), gen.integers(0, 1000, 7, dtype=np.int32).tobytes(),
            gen.standard_normal(9).tobytes(), gen.integers(0, 2 ** 40, 3).tobytes())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), start=st.sampled_from(["fresh", "doubles", "int32"]),
       k=st.integers(0, 11), bands=st.integers(0, 3), extra=st.integers(0, 67),
       p=st.floats(0.0, 1.0), two_d=st.booleans())
def test_uniform_below_is_the_one_shot_draw(seed, start, k, bands, extra, p, two_d):
    # With a 64-double band: the same values as gen.random(shape) < p, and
    # the generator left where that draw leaves it.
    band = prob._BAND
    prob._BAND = 64
    try:
        size = bands * 64 + extra
        shape = (size // 2, 2) if two_d and size % 2 == 0 else (size,)
        ref = _started(seed, start, k)
        gen = _started(seed, start, k)
        expected = ref.random(shape) < p
        got = uniform_below(gen, shape, p)
    finally:
        prob._BAND = band
    assert got.dtype == bool and got.shape == expected.shape
    assert_array_equal(got, expected)
    assert _after(gen) == _after(ref)


def test_uniform_below_bytes_independent_of_workers(monkeypatch, on_workers):
    # Serial and 8 workers, over 40 bands.
    monkeypatch.setattr(prob, "_BAND", 1024)

    def run():
        gen = _started(59, "int32", 3)
        return uniform_below(gen, (401, 103), 0.3).tobytes(), _after(gen)

    assert on_workers(run, 8, 8) == on_workers(run, 1, 1)


def test_run_blocks_runs_each_block_once(on_workers):
    # More workers than cores, switching every microsecond: each block runs
    # exactly once, and every worker is done before the call returns.
    hits = [0] * 2000

    def run(i):
        hits[i] += 1

    before = threading.active_count()
    on_workers(lambda: prob._run_blocks(run, len(hits)), 8, 8)
    assert hits == [1] * len(hits)
    assert threading.active_count() == before


def test_run_blocks_reraises_and_stops_on_an_error(on_workers):
    # The error of block 0 is re-raised once the workers stop, and they
    # start no block after it: 400 blocks of 10 ms on 4 workers would take
    # 1 s.
    def run(i):
        if i == 0:
            raise ParameterError("block 0 failed")
        time.sleep(0.01)

    before, start = threading.active_count(), time.perf_counter()
    with pytest.raises(ParameterError, match="block 0"):
        on_workers(lambda: prob._run_blocks(run, 400), 4, 4)
    assert time.perf_counter() - start < 0.5
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# The trial runner
# ---------------------------------------------------------------------------

def test_run_trials_in_order_on_worker_processes(monkeypatch):
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    got = prob._run_trials(lambda i: (i * i, os.getpid()), 103)
    assert [r for r, _ in got] == [i * i for i in range(103)]
    pids = {pid for _, pid in got}
    assert 1 <= len(pids) <= prob._MAX_IN_FLIGHT and os.getpid() not in pids
    assert multiprocessing.active_children() == []
    assert prob._TRIAL is None


def test_trial_workers_pool_their_share_of_the_cpus(monkeypatch):
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    assert prob._run_trials(lambda i: prob._pool_size(100), 8) == [2] * 8
    assert prob._pool_size(100) == prob._MAX_IN_FLIGHT and prob._SHARERS == 1


def test_trial_workers_run_blas_on_one_thread(monkeypatch):
    import ctypes
    import glob

    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*")
    if not libs:
        pytest.skip("this numpy bundles no OpenBLAS")
    blas_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    parent = blas_threads()
    A = RngStream(5).generator().standard_normal((300, 300))

    def trial(i):
        return (A @ A.T)[i].tobytes(), blas_threads(), os.getpid()

    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    assert prob._pool_size(8) >= 2
    capped = prob._run_trials(trial, 8)
    assert {threads for _, threads, _ in capped} == {1}
    assert os.getpid() not in {pid for *_, pid in capped}
    assert blas_threads() == parent
    # where the lookup finds no library, the workers keep the parent's count
    monkeypatch.setattr(prob, "_blas_thread_calls", lambda: None)
    uncapped = prob._run_trials(trial, 8)
    assert {threads for _, threads, _ in uncapped} == {parent}
    assert [r for r, *_ in uncapped] == [r for r, *_ in capped]
    assert multiprocessing.active_children() == []


def test_blas_thread_lookup_runs_once_per_process(monkeypatch):
    import glob

    had = prob._blas_threads(1)  # looks the library up, if no call has yet

    def never(pattern):
        raise AssertionError("the library was looked up again")

    monkeypatch.setattr(glob, "glob", never)
    assert prob._blas_threads(had) == (None if had is None else 1)


def test_run_trials_single_cpu_mask_is_serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert prob._usable_cpus() == 1
    assert prob._run_trials(lambda i: os.getpid(), 9) == [os.getpid()] * 9


def test_run_trials_serial_while_other_threads_live(monkeypatch):
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert prob._run_trials(lambda i: os.getpid(), 9) == [os.getpid()] * 9
    finally:
        release.set()
        other.join()


def test_run_trials_reraises_a_worker_error(monkeypatch):
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    parent = os.getpid()

    def trial(i):
        if i == 37 and os.getpid() != parent:
            raise ParameterError("trial 37 is out of range")
        return i

    with pytest.raises(ParameterError, match="trial 37"):
        prob._run_trials(trial, 100)
    assert multiprocessing.active_children() == []
    assert prob._TRIAL is None


def test_run_trials_first_error_stops_the_other_chunks(monkeypatch):
    # 4 chunks of 40 trials, 2 s each; the error at trial 0 stops the other
    # three before their next trial instead of after their last.
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    parent = os.getpid()

    def trial(i):
        if i == 0 and os.getpid() != parent:
            raise ParameterError("trial 0 is out of range")
        time.sleep(0.05)
        return i

    start = time.perf_counter()
    with pytest.raises(ParameterError, match="trial 0"):
        prob._run_trials(trial, 160)
    assert time.perf_counter() - start < 1.0
    assert multiprocessing.active_children() == []
    assert prob._TRIAL is None and prob._FAILED is None


def test_run_trials_dead_worker_raises_not_hangs(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(prob, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def trial(i):
        if i == 0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(BrokenProcessPool):
        prob._run_trials(trial, 10)
    assert multiprocessing.active_children() == []
