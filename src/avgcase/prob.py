"""Seeded streams, the pool policy and the standard normal CDF.

Everything downstream draws randomness through :class:`RngStream`, a value
type naming one stream of numpy's PCG64DXSM generator, seeded by hashing
``(seed, path)``.  Two streams with the same seed and path produce
bit-identical output; streams with distinct paths are independent for all
practical purposes.  Streams are immutable, so the usage pattern is to derive
a child stream per logical random object and draw from its generator
sequentially::

    rng = RngStream(7)
    g = rng.child("edges").generator()
    bits = g.random(100) < 0.5

Gaussian draws are statistically (not bit-) exact across numpy versions; the
method is numpy's ziggurat ``standard_normal``.  Within one installed
toolchain all draws are bit-reproducible.

Large draws and per-block loops run on threads without changing a value.
This module holds the package's one pool policy, ``_pool_size``: at most
min(usable CPUs, ``_MAX_IN_FLIGHT``) workers, and within a trial worker only
its share of the CPUs.  Two runners apply it:

* ``_run_blocks`` runs the blocks of one large input on threads (the
  kernels' blocks, with each Gaussianized block of ``pds_to_isgm`` and
  ``pds_to_semi_cr`` padded and rotated on the worker that finishes it,
  the row bands of the k-partite embedding, the pad of ``pds_to_isgm``,
  the mirror and the relabelling of ``pds_to_semi_cr``, and the pieces of
  ``graphs.write_graphv1``), and ``_random_bands`` makes the draw
  ``gen.random(size)`` in bands on it, splitting one PCG64DXSM stream
  with ``advance``: ``uniform_below`` draws its Bernoulli matrices
  ``gen.random(shape) < p`` that way (the background and paddings of the
  pipelines, and the pair vectors of the ``graphs`` samplers), and
  ``pipelines.graph_clone`` and ``graphs.semirandom_apply`` their pair
  uniforms.  ``_random_bands``' docstring gives the argument that the
  values and the generator's final state are exactly the one-shot draw's.
* ``_run_trials`` runs every verify battery's planted trials in forked
  worker processes with BLAS on one thread, since a trial is many small
  numpy calls that hold the GIL.  Each trial draws from its own keyed streams
  and the results come back in trial order, so reductions keep their bits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError

__all__ = [
    "RngStream",
    "uniform_below",
    "normal_cdf",
]


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """A (seed, path) pair naming one substream of the keyed generator.

    ``path`` is a tuple of ``(tag, index)`` pairs.  The 128-bit seed of the
    stream's PCG64DXSM generator is blake2b over a canonical encoding of
    seed and path, so substream derivation is order-independent and
    collision-resistant.
    """

    seed: int
    path: tuple = ()

    def child(self, tag: str, index: int = 0) -> "RngStream":
        """Derive the substream named by appending ``(tag, index)``."""
        return RngStream(self.seed, self.path + ((str(tag), int(index)),))

    def key(self) -> int:
        h = hashlib.blake2b(digest_size=16)
        h.update(int(self.seed).to_bytes(8, "little", signed=True))
        for tag, index in self.path:
            raw = tag.encode("utf-8")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
            h.update(int(index).to_bytes(8, "little", signed=True))
        return int.from_bytes(h.digest(), "little")

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator positioned at the start of this substream."""
        # seed= routes the 128-bit digest through SeedSequence (pure, no OS
        # entropy).
        return np.random.Generator(np.random.PCG64DXSM(seed=self.key()))


# ---------------------------------------------------------------------------
# Pool policy and banded uniform draws
# ---------------------------------------------------------------------------

# The most blocks (or bands, or trial processes) in flight at once: a loop
# run through ``_run_blocks`` holds the transients of at most this many.
_MAX_IN_FLIGHT = 4


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _blas_thread_calls():
    """The (get, set) thread-count pair of numpy's bundled OpenBLAS, looked
    up once per process (a forked child keeps its parent's), or None where
    no bundled library has one."""
    import ctypes
    import glob

    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*"):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def _blas_threads(count: Optional[int]) -> Optional[int]:
    """Run numpy's bundled OpenBLAS on ``count`` threads and return the count
    it had, to be handed back here; a no-op returning None when ``count`` is
    None or where no bundled OpenBLAS has a thread count."""
    calls = None if count is None else _blas_thread_calls()
    if calls is None:
        return None
    had = calls[0]()
    calls[1](count)
    return had


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page if pages > 0 and page > 0 else None


def _check_fits(need: int, what: str) -> None:
    """Refuse ``what``, one array of ``need`` bytes, beyond this host's
    physical memory, or beyond the ``np.intp`` range where the platform does
    not report its memory."""
    limit, where = _physical_memory(), "this host's physical memory"
    if limit is None:
        limit, where = np.iinfo(np.intp).max, "the address space"
    if need > limit:
        raise ParameterError(
            f"{what} needs {need / 2 ** 30:.3g} GiB: too large for one array in "
            f"{where} ({limit / 2 ** 30:.3g} GiB)"
        )


def _check_prob(p, name):
    if not (0.0 <= p <= 1.0) or not np.isfinite(p):
        raise ParameterError(f"{name} must lie in [0, 1], got {p!r}")


# The processes that share this one's CPUs: a trial worker of
# ``_run_trials`` inherits the number of trial workers, so that the pools it
# starts take only its share of the CPUs.
_SHARERS = 1


def _pool_size(n_tasks: int) -> int:
    """min(this process's share of the usable CPUs, tasks, ``_MAX_IN_FLIGHT``)."""
    return min(_usable_cpus() // _SHARERS, n_tasks, _MAX_IN_FLIGHT)


def _run_blocks(run, n_blocks: int) -> None:
    """Call ``run(i)`` for every block i, on ``_pool_size(n_blocks)``
    threads that take the blocks in order; one worker runs them in order on
    the calling thread.  numpy's generators, ufuncs and BLAS calls release
    the GIL, so the blocks overlap.  A worker's error is re-raised here once
    every worker has stopped, and no block starts after it."""
    workers = _pool_size(n_blocks)
    if workers <= 1:
        for i in range(n_blocks):
            run(i)
        return
    # plain threads: concurrent.futures would add about 8 ms of imports to
    # a command whose every pool is short
    blocks, lock, errors = iter(range(n_blocks)), threading.Lock(), []

    def work():
        while True:
            with lock:
                i = None if errors else next(blocks, None)
            if i is None:
                return
            try:
                run(i)
            except BaseException as err:  # re-raised on the calling thread
                with lock:
                    errors.append(err)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# The trial of the running ``_run_trials`` call, and the event its first
# failing trial sets.  A closure does not pickle, so forked workers reach
# both here, in the memory they inherit, as they do ``_SHARERS``.
_TRIAL = None
_FAILED = None


def _run_chunk(lo: int, hi: int) -> list:
    results = []
    for i in range(lo, hi):
        if _FAILED.is_set():
            break  # another chunk failed, and its error is the one re-raised
        try:
            results.append(_TRIAL(i))
        except BaseException:
            _FAILED.set()
            raise
    return results


def _run_trials(trial, n: int) -> list:
    """``[trial(i) for i in range(n)]``, in trial order, with contiguous
    chunks of trials run in ``_pool_size(n)`` forked worker processes.

    It runs serially, in this process, when there is one worker, when the
    platform cannot fork, or when other threads are alive (a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in the child).  Each worker runs BLAS on one thread
    (``_blas_threads``); this process's BLAS keeps its threads.  An error
    raised by a trial is re-raised here, and the other workers stop before
    their next trial; a worker that dies raises ``BrokenProcessPool``.  Every
    worker is reaped before this returns or raises.  ``trial``'s results
    must pickle; ``trial`` itself need not.
    """
    global _TRIAL, _FAILED, _SHARERS
    workers = _pool_size(n)
    if workers <= 1 or threading.active_count() > 1:
        return [trial(i) for i in range(n)]
    # imported here, so that commands that never fork (generate, reduce) skip it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [trial(i) for i in range(n)]
    context = multiprocessing.get_context("fork")
    bounds = [n * j // workers for j in range(workers + 1)]
    outer = _TRIAL, _FAILED, _SHARERS
    _TRIAL, _FAILED, _SHARERS = trial, context.Event(), _SHARERS * workers
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_blas_threads,
                               initargs=(1,))
    try:
        chunks = list(pool.map(_run_chunk, bounds[:-1], bounds[1:]))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _TRIAL, _FAILED, _SHARERS = outer
    return [result for chunk in chunks for result in chunk]


# Doubles per band of ``_random_bands``.  It sets only the speed and the
# memory, never a value.
_BAND = 1 << 18


def _random_bands(gen: np.random.Generator, size: int, use) -> None:
    """Make the draw ``gen.random(size)`` in bands of ``_BAND`` doubles on
    the pool of ``_run_blocks``, calling ``use(lo, hi, doubles)`` with the
    draw's doubles [lo, hi) of every band, and leave ``gen``, a PCG64DXSM
    generator of ``RngStream.generator``, exactly where the one-shot draw
    leaves it.  A draw of at most one band is the one-shot draw, on the
    calling thread.

    Why the bands can be split: ``random`` spends one 64-bit output per
    double, and ``PCG64DXSM.advance(j)`` moves a state on by j outputs.  So
    a copy of the start state moved on by lo makes doubles lo, lo+1, ...
    exactly.  Band 0 draws from ``gen`` itself, so a draw of one band costs
    what the one-shot draw costs; band i >= 1 draws from such a copy.
    Afterwards ``gen`` is moved on to the end of the draw.  ``advance``
    drops the pending 32-bit half that a 32-bit draw leaves buffered, and
    doubles never touch it, so it is put back as the start state had it.
    """
    if size <= _BAND:
        use(0, size, gen.random(size))
        return
    bitgen = gen.bit_generator
    start = bitgen.state

    def run(i):
        lo, hi = i * _BAND, min((i + 1) * _BAND, size)
        if i == 0:
            g = gen
        else:
            band_gen = np.random.PCG64DXSM(seed=0)  # its state is replaced by start's
            band_gen.state = start
            g = np.random.Generator(band_gen.advance(lo))
        use(lo, hi, g.random(hi - lo))

    _run_blocks(run, -(-size // _BAND))
    bitgen.advance(size - _BAND)
    bitgen.state = dict(bitgen.state, has_uint32=start["has_uint32"],
                        uinteger=start["uinteger"])


def uniform_below(gen: np.random.Generator, shape, p: float) -> np.ndarray:
    """Exactly ``gen.random(shape) < p`` (a boolean array), leaving
    ``gen`` exactly where that draw leaves it, pending 32-bit half and all,
    but drawn in bands by ``_random_bands`` and without the float64
    temporary of the whole draw."""
    out = np.empty(shape, dtype=bool)
    flat = out.reshape(-1)
    _random_bands(gen, flat.size, lambda lo, hi, u: np.less(u, p, out=flat[lo:hi]))
    return out


# ---------------------------------------------------------------------------
# Standard normal CDF
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF of one scalar, as a Python float, from the
    standard library's ``erfc``; the multiplier is cephes' ``SQRT1_2``."""
    return 0.5 * math.erfc(-float(x) * 0.7071067811865476)
