"""Algorithmic change-of-measure primitives (rejection kernels).

Four gadgets live here:

* ``rk_gauss_array`` — maps each biased bit of an array to (approximately) a
  unit-variance Gaussian, sending Bern(p) inputs near N(mu, 1) and Bern(q)
  inputs near N(0, 1) simultaneously.
* ``gaussianize`` — the same kernel over a {0,1} matrix, with the proven
  mean bound (``gaussianize_mu_bound``, the one bound formula every
  reduction uses) enforced and an iteration count set by the matrix size.
* ``srk3_array`` — the symmetric 3-ary kernel mapping ternary inputs
  distributed Tern(a, mu1, mu2) / Tern(a, -mu1, mu2) / Tern(a, 0, 0) near
  the three target laws P_nu, P_-nu, Q of a ``PairFamily``, one nu per
  row; it also returns how many entries kept their Q initializer.
  ``tern_pmf`` gives the masses of those ternary laws.
* ``truncate_tern`` / ``tern_params_from_truncation`` — the Gaussian
  truncation producing exactly those ternary input laws.

All kernels are pure functions of their stream argument.  The Gaussian
kernel cuts its flat input into consecutive blocks of ``_BLOCK`` entries and
gives each block a stream of its own: block 0 draws from the kernel's stream
(``rng.child("gaussianize")`` or ``rng.child("rk")``) and block i >= 1 from
that stream's ``child("block", i)``.  An input of one block or less thus
draws from the kernel's stream alone.  The block constant is part of the
stream's definition (changing it changes the output of every input larger
than one block).

The 3-ary kernel keys its streams by row instead: row i of an (n, d) input
draws from the i-th stream passed in, and a block is floor(``_BLOCK`` / d)
whole rows (at least one), stepped together so that the likelihood ratios,
the gate, the acceptance rule and the compaction run once per block rather
than once per row.  Its block size therefore changes only the speed, never
the output.  Before the loop it asks the family's ``gate_empty`` oracle,
once for all rows, which rows have no x passing both gates at their nu; such
a row is settled: it draws its Q initializer and nothing more, since no
proposal of it could be accepted, so settling it changes no byte either.

Both kernels build every generator before any block starts and run their
blocks through the pool policy that ``prob._run_blocks`` defines for every
stage of the package, so the number of threads is not part of any stream:
the output is the same on any number of cores.

Within a block the Gaussian loop keeps the positions of the entries still
open and, each step, draws the proposals and then the uniforms for all of
them, writes every proposal, and keeps only the rejected positions open;
the acceptance test runs in place on the proposal's log-ratio.  The draws
and every float are those of the two-mask loop it replaced.

A ``PairFamily`` {P_nu} against one noise law Q gives its likelihood ratios
in log-space, elementwise with nu broadcast against x; the operating
regimes involve mu1, mu2 down to 1e-5 and the naive ratios would overflow
first.  It also says at which nu srk3's gate set is provably empty
(``gate_empty``; False is always a safe answer).

Acceptance-probability note: the three-branch acceptance rule reconstructs
dP+/dQ, dP-/dQ and 1 exactly when mixed with the ternary input weights
((1-a)/2 + mu1 + mu2, a - 2 mu2, (1-a)/2 - mu1 + mu2); the reconstruction
identity is what the unit tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .prob import RngStream, _run_blocks, normal_cdf

__all__ = [
    "rejection_delta",
    "rk_gauss_array",
    "gaussianize",
    "gaussianize_mu_bound",
    "PairFamily",
    "srk3_array",
    "tern_pmf",
    "truncate_tern",
    "tern_params_from_truncation",
]


def rejection_delta(p: float, q: float) -> float:
    """delta = min{log(p/q), log((1-q)/(1-p))}; +inf branch allowed at p = 1."""
    if not (0.0 < q < p <= 1.0):
        raise ParameterError(f"need 0 < q < p <= 1, got p={p}, q={q}")
    first = math.log(p / q)
    second = math.inf if p == 1.0 else math.log((1.0 - q) / (1.0 - p))
    return min(first, second)


def gaussianize_mu_bound(P: float, Q: float, m: int, n: int) -> float:
    """Largest mean shift with the proven total-variation guarantee for an
    m x n input; a single array of n bits is the n x n case."""
    delta = rejection_delta(P, Q)
    return delta / (2.0 * math.sqrt(3.0 * math.log(m * n) + 2.0 * math.log(1.0 / (P - Q))))


# Entries per block of both rejection loops (part of the Gaussian kernel's
# stream, see the module docstring).  With the pool's ``_MAX_IN_FLIGHT`` it
# bounds a loop's transient memory to that of _BLOCK * _MAX_IN_FLIGHT
# entries (or rows, if a row is longer), whatever the input size or core
# count.
_BLOCK = 1 << 18


def _rk_gauss_core(bits, mu, p, q, n_iter, stream: RngStream, bound=math.inf):
    """Vectorized rejection loop.  bits: int array in {0,1}; mu one scalar.

    Every entry point goes through here, so the target mean is checked
    here: a scalar, finite (NaN would reject every proposal and leave the 0.0
    initializer everywhere), nonnegative, and at most ``bound``.  The flat
    input is cut into consecutive blocks of ``_BLOCK`` entries; block 0
    draws from ``stream`` and block i >= 1 from ``stream.child("block", i)``.
    The blocks run through ``_run_blocks``; every generator is built here,
    before any block starts, so the workers run numpy only and the output
    does not depend on the worker count or on scheduling.
    """
    bits = np.asarray(bits)
    if np.ndim(mu) != 0:
        raise ParameterError(f"the target mean must be one scalar, got shape {np.shape(mu)}")
    mu = float(mu)
    if not math.isfinite(mu):
        raise ParameterError("the target mean must be finite")
    if mu < 0:
        raise ParameterError("the target mean must be nonnegative")
    if bits.size and mu > bound * (1 + 1e-12):
        raise ParameterError(
            f"mu = {mu} exceeds the proven bound {bound:.6g} for a "
            f"{'x'.join(map(str, bits.shape))} input"
        )
    flat_bits = bits.ravel()
    out = np.zeros(flat_bits.size, dtype=float)
    n_blocks = -(-flat_bits.size // _BLOCK)
    gens = [stream.generator()]
    gens += [stream.child("block", i).generator() for i in range(1, n_blocks)]

    def run(i):
        start, stop = i * _BLOCK, (i + 1) * _BLOCK
        _rk_gauss_block(flat_bits[start:stop], mu, out[start:stop], p, q, n_iter, gens[i])

    _run_blocks(run, n_blocks)
    return out.reshape(bits.shape)


def _rk_gauss_block(bits, mu, out, p, q, n_iter, gen):
    """One block of the rejection loop, written into the view ``out``.

    The two input branches are independent, so they are processed one after
    the other, each over the positions of its entries still open.
    Each step draws a normal proposal z for every open entry, then (unless
    B = 1 at p = 1, which accepts its first proposal) a uniform u for each,
    writes every proposal to its entry and keeps open only the rejected
    positions; entries that exhaust the budget are reset to the 0.0
    initializer.  ``mu`` is a float.

    With L the branch's log-ratio bound, a proposal is accepted iff
    u < 1 - exp(t - L), t its log-likelihood ratio.  This needs no separate
    test t <= L: for finite t > L, exp(t - L) >= 1 makes the threshold <= 0
    <= u, and an overflow makes it -inf.
    """
    log_pq = math.log(p / q)
    log_1p_1q = -math.inf if p == 1.0 else math.log((1.0 - p) / (1.0 - q))
    for branch in (0, 1):
        rem = np.flatnonzero(bits == branch)
        for _ in range(n_iter):
            if rem.size == 0:
                break
            z = gen.standard_normal(rem.size)
            if branch == 1 and p == 1.0:
                z += mu
                out[rem] = z
                rem = rem[:0]  # every entry accepted
                break
            half = 0.5 * mu
            half *= mu
            thr = mu * z
            if branch == 0:
                # value z, log-ratio t = mu z - mu^2/2 against log(p/q)
                thr -= half
                thr -= log_pq
            else:
                # value z + mu, log-ratio -mu z - mu^2/2 against log((1-q)/(1-p))
                np.negative(thr, out=thr)
                thr -= half
                thr += log_1p_1q
                z += mu
            with np.errstate(over="ignore"):
                np.exp(thr, out=thr)
            np.subtract(1.0, thr, out=thr)
            # positions, not a mask: a mask is scanned again by every gather
            rejected = np.flatnonzero(gen.random(rem.size) >= thr)
            out[rem] = z
            rem = rem[rejected]
        out[rem] = 0.0


def rk_gauss_array(bits, mu, p, q, n_iter, rng: RngStream):
    """Gaussian rejection kernel, entrywise over an integer array in {0, 1},
    sharing one stream.

    Over Bern(p) inputs each output is close to N(mu, 1), over Bern(q)
    inputs close to N(0, 1); ``mu`` is one nonnegative scalar.  No mean
    bound is enforced (see ``gaussianize_mu_bound`` for the proven one);
    entries that exhaust the ``n_iter`` budget return 0.0, the
    initialization.
    """
    return _rk_gauss_core(bits, mu, p, q, n_iter, rng.child("rk"))


def gaussianize(M, P, Q, mu, rng: RngStream):
    """Map a {0,1} matrix to an independent-Gaussian matrix, entry (i, j)
    heading for N(mu, 1) where M_ij came up Bern(P) and N(0, 1) where it
    came up Bern(Q).

    ``mu`` is one nonnegative scalar, and it must satisfy the proven bound
    (see ``gaussianize_mu_bound``; ``rk_gauss_array`` enforces none).  Each
    entry gets ceil(3 log(m n) / delta) proposals, the budget under which
    that bound is proven (both carry the same 3 log(m n) term); entries that
    exhaust it keep the 0.0 initializer.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ParameterError("gaussianize expects a 2-D binary matrix")
    m, n = M.shape
    delta = rejection_delta(P, Q)
    n_iter = math.ceil(3.0 * math.log(m * n) / delta)
    return _rk_gauss_core(M, mu, P, Q, n_iter, rng.child("gaussianize"),
                          bound=gaussianize_mu_bound(P, Q, m, n))


# ---------------------------------------------------------------------------
# Pair families and the symmetric 3-ary kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFamily:
    """A planted family {P_nu} against one noise law Q, given by oracles.

    ``sample_noise(gen, size)`` draws from Q; ``sample_planted(gen, nu,
    size)`` draws from P_nu (diagnostics only, never the kernels);
    ``log_likelihood_ratio(x, nu)`` is log dP_nu/dQ(x) elementwise, with nu
    a scalar or an array broadcast against x.

    ``gate_empty(nus, gate1, gate2)`` returns one bool per nu of the array
    ``nus``.  It may be True only if no x passes both of srk3's gates at
    that nu, ``|l1| <= gate1`` and ``|l2| <= gate2`` with l1 = lr+ - lr- and
    l2 = lr+ + lr- - 2, the ratios lr+- = exp(``log_likelihood_ratio(x,
    +-nu)``) as srk3 computes them in floats; False is always safe.  srk3
    settles such a row before its loop: the row keeps its Q initializer
    and draws no proposal, which could never be accepted.
    """

    sample_noise: Callable
    sample_planted: Callable
    log_likelihood_ratio: Callable
    gate_empty: Callable

    @classmethod
    def gaussian_mean_shift(cls, scale: float) -> "PairFamily":
        """P_nu = N(nu * scale, 1) against Q = N(0, 1)."""
        def llr(x, nu):
            # shift x - (0.5 shift) shift, in the scalar formula's float order;
            # srk3 calls this over whole blocks, so it holds two arrays only
            x = np.asarray(x, dtype=float)
            shift = np.empty(np.broadcast_shapes(np.shape(nu), x.shape))
            np.multiply(nu, scale, out=shift)
            half = 0.5 * shift
            half *= shift
            shift *= x
            shift -= half
            return shift

        def gate_empty(nus, gate1, gate2):
            # A gated x has lr+ + lr- >= 2 - gate2 and |lr+ - lr-| <= gate1,
            # so (lr+ + lr-)^2 - (lr+ - lr-)^2 = 4 lr+ lr- >= (2 - gate2)^2
            # - gate1^2 (when gate2 < 2), and lr+ lr- = exp(-(nu scale)^2)
            # at every x.  On the gate set both ratios lie in [c, 2], c =
            # (2 - gate1 - gate2) / 2, and c > 1e-13 wherever the test below
            # can hold.  So each float srk3 rounds there (the shift, the two
            # log-ratios, their exps, sum and difference) is at most 30 in
            # size with a relative error of a few 2^-53, and the rounded
            # ratios' product is within 1e-14 of exp(-(nu scale)^2) (about
            # 1e-15 at srk3's small gates, where c is near 1).  The 1e-12
            # margin covers that.
            shift = np.multiply(nus, scale)
            floor = max(2.0 - gate2, 0.0)
            return 4.0 * np.exp(-(shift * shift)) < floor * floor - gate1 * gate1 - 1e-12

        return cls(
            sample_noise=lambda gen, size: gen.standard_normal(size),
            sample_planted=lambda gen, nu, size: nu * scale + gen.standard_normal(size),
            log_likelihood_ratio=llr,
            gate_empty=gate_empty,
        )


def tern_pmf(a: float, mu1: float, mu2: float):
    """Probability masses of Tern(a, mu1, mu2) at outcomes (-1, 0, +1).

    A mass below zero by at most 1e-12, a rounding error, reads as zero;
    a more negative one raises ParameterError naming its outcome.
    """
    masses = (
        (-1, (1.0 - a) / 2.0 - mu1 + mu2),
        (0, a - 2.0 * mu2),
        (1, (1.0 - a) / 2.0 + mu1 + mu2),
    )
    for outcome, mass in masses:
        if mass < -1e-12:
            raise ParameterError(
                f"Tern(a={a}, mu1={mu1}, mu2={mu2}) puts mass {mass} < 0 on outcome {outcome:+d}"
            )
    return tuple(max(m, 0.0) for _, m in masses)


def _srk3_params_check(a, mu1, mu2):
    if not (0.0 < a < 1.0):
        raise ParameterError(f"a must lie in (0, 1), got {a}")
    if mu1 == 0.0 or mu2 == 0.0:
        raise ParameterError("srk3 needs nonzero mu1 and mu2")
    tern_pmf(a, mu1, mu2)
    tern_pmf(a, -mu1, mu2)


def srk3_array(bits, family: PairFamily, nus, a, mu1, mu2, n_iter, streams):
    """Vectorized symmetric 3-ary rejection kernel over an (n, d) stack of
    rows in {-1, 0, +1}.

    Row i targets the family's three laws at ``nus[i]``: inputs distributed
    Tern(a, mu1, mu2) map near P_nu, Tern(a, -mu1, mu2) near P_-nu and
    Tern(a, 0, 0) near Q.  Row i draws from ``streams[i].child("srk3")``;
    one row is passed as ``bits[None]``, ``[nu]``, ``[stream]``.  Entries
    whose iteration budget runs out keep their initialization, a fresh
    draw from Q (distributionally harmless).  Returns ``(out, count of
    those entries)``.

    The gates are |l1| <= 2 mu1 and |l2| <= 2 mu2 / max(a, 1 - a).  The
    family's ``gate_empty`` oracle is asked once, for all rows; a row it
    settles (no x passes both gates at its nu) draws its initializer and
    nothing more, and its d entries count as kept.  The output is that of
    stepping the row through its whole budget, which accepts nothing.

    The rows run in blocks of floor(``_BLOCK`` / d) rows (at least one)
    through ``_run_blocks``.  A row's draws come from its own generator
    alone, so the output is that of running the rows one at a time, on any
    worker count.  The family's callables may run on several threads at
    once, and ``sample_noise`` must draw only from the generator passed to
    it.
    """
    _srk3_params_check(a, mu1, mu2)
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ParameterError(f"srk3 expects a 2-D stack of rows, got {bits.ndim}-D")
    n, d = bits.shape
    nus = np.asarray(nus, dtype=float)
    if nus.shape != (n,) or not isinstance(streams, Sequence) or len(streams) != n:
        raise ParameterError(f"srk3 on a {n}-row input needs one nu and one stream per row")
    if not np.all(np.isfinite(nus)):
        raise ParameterError("srk3 needs finite nu")
    ternary = bits == 0  # np.isin would copy an integer input twice over
    ternary |= bits == 1
    ternary |= bits == -1
    if not ternary.all():
        raise ParameterError("srk3 inputs must lie in {-1, 0, +1}")
    del ternary
    gate1, gate2 = 2.0 * abs(mu1), 2.0 * abs(mu2) / max(a, 1.0 - a)
    settled = np.asarray(family.gate_empty(nus, gate1, gate2), dtype=bool)
    if settled.shape != (n,):
        raise ParameterError(f"gate_empty returned shape {settled.shape} for {n} rows")
    out = np.empty((n, d))
    gens = [s.child("srk3").generator() for s in streams]
    per_block = max(1, _BLOCK // max(d, 1))
    n_blocks = -(-n // per_block)
    fallback = [0] * n_blocks

    def run(j):
        b = slice(j * per_block, (j + 1) * per_block)
        fallback[j] = _srk3_block(bits[b], out[b], family, nus[b], settled[b], gens[b],
                                  a, mu1, mu2, gate1, gate2, n_iter)

    _run_blocks(run, n_blocks)
    return out, sum(fallback)


def _srk3_block(bits, out, family, nus, settled, gens, a, mu1, mu2, gate1, gate2,
                n_iter) -> int:
    """One block of rows of the 3-ary loop, written into the view ``out``;
    returns how many entries kept their initializer.

    Each row first draws its initializer from Q; a ``settled`` row stops
    there.  Each step, every row with entries left draws its proposals z,
    then its uniforms u, from its own generator; the two likelihood ratios,
    at nu and -nu of each entry's row, the gate, the acceptance rule and the
    compaction then run once over the block.  The remaining entries stay in
    row-major order, so each row's are one contiguous segment.
    """
    n_rows, d = out.shape
    for i in range(n_rows):
        out[i] = family.sample_noise(gens[i], d)
    flat_out = out.reshape(-1)
    # positions of the entries still open, in int32 when the block allows;
    # a settled row has none
    live = np.repeat(~settled, d)
    rem = np.flatnonzero(live).astype(np.int32 if n_rows * d < 2 ** 31 else np.int64)
    sym = bits.reshape(-1)[live].astype(np.int8)
    left = np.where(settled, 0, d)
    del live
    bufs = np.empty((5, rem.size))
    for _ in range(n_iter):
        if rem.size == 0:
            break
        z, u, lr_p, lr_m, l1 = bufs[:, :rem.size]
        start = 0
        active = np.flatnonzero(left)
        for i, c in zip(active.tolist(), left[active].tolist()):
            seg = slice(start, start + c)
            z[seg] = family.sample_noise(gens[i], c)
            gens[i].random(out=u[seg])
            start += c
        # each open entry's row nu, held in l1 until both ratios are taken
        nu = l1
        nu[...] = np.repeat(nus[active], left[active])
        np.exp(family.log_likelihood_ratio(z, nu), out=lr_p)
        np.negative(nu, out=nu)
        np.exp(family.log_likelihood_ratio(z, nu), out=lr_m)
        # l1 = lr_p - lr_m and l2 = lr_p + lr_m - 2; lr_m is then scratch
        np.subtract(lr_p, lr_m, out=l1)
        l2 = np.add(lr_p, lr_m, out=lr_p)
        l2 -= 2.0
        gated = np.abs(l1, out=lr_m) <= gate1
        gated &= np.abs(l2, out=lr_m) <= gate2
        gated = np.flatnonzero(gated)
        b_ = sym[gated]
        # The acceptance probability, on the gated entries only:
        # 1 + common +- l1 / (4 mu1) for B = +-1 (times +-1 is exact) and
        # 1 - (1-a)/(4 mu2) l2 for B = 0, with common = a/(4 mu2) l2.  Each
        # gather goes into a buffer whose full-length values are spent.
        l2 = np.take(l2, gated, out=lr_m[:gated.size])
        signed = np.take(l1, gated, out=lr_p[:gated.size])
        signed /= 4.0 * mu1
        signed *= b_
        p_acc = np.multiply(a / (4.0 * mu2), l2, out=l1[:gated.size])
        p_acc += 1.0
        p_acc += signed
        zero = b_ == 0
        p_acc[zero] = 1.0 - ((1.0 - a) / (4.0 * mu2)) * l2[zero]
        p_acc *= 0.5
        if np.any((p_acc < -1e-9) | (p_acc > 1.0 + 1e-9)):
            raise ParameterError(
                "srk3 acceptance probability left [0, 1] at a gated point "
                f"(a={a}, mu1={mu1}, mu2={mu2})"
            )
        accept = gated[u[gated] < p_acc]
        hit = rem[accept]
        flat_out[hit] = z[accept]
        left -= np.bincount(hit // d, minlength=n_rows)
        keep = np.ones(rem.size, dtype=bool)
        keep[accept] = False
        rem, sym = rem[keep], sym[keep]
        # spent index arrays, freed before the next step's ratios allocate
        del gated, accept, hit, keep
    return int(rem.size) + d * int(settled.sum())


def truncate_tern(x, tau: float):
    """Three-way truncation: +1 above tau, -1 below -tau, 0 on [-tau, tau],
    as int8 (a scalar input gives a Python int)."""
    if not tau > 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    x = np.asarray(x)
    out = np.zeros(x.shape, dtype=np.int8)
    out[x > tau] = 1
    out[x < -tau] = -1
    return out if out.ndim else int(out[()])


def tern_params_from_truncation(tau: float, mu: float):
    """(a, mu1, mu2) such that tr_tau(N(+-mu, 1)) ~ Tern(a, +-mu1, mu2) and
    tr_tau(N(0, 1)) ~ Tern(a, 0, 0)."""
    if not tau > 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    a = float(normal_cdf(tau) - normal_cdf(-tau))
    mu1 = 0.5 * float(normal_cdf(tau + mu) - normal_cdf(tau - mu))
    mu2 = 0.5 * float(2.0 * normal_cdf(tau) - normal_cdf(tau + mu) - normal_cdf(tau - mu))
    return a, mu1, mu2
