"""Algorithmic change-of-measure primitives (rejection kernels).

Four gadgets live here:

* ``rk_gauss_array`` — maps each biased bit of an array to (approximately) a
  unit-variance Gaussian, sending Bern(p) inputs near N(mu, 1) and Bern(q)
  inputs near N(0, 1) simultaneously.
* ``gaussianize`` — the same kernel over a {0,1} matrix, or over the stack
  of its column parts, with the proven mean bound
  (``gaussianize_mu_bound``, the one bound formula every reduction uses)
  enforced and an iteration count set by the matrix size; it can hand each
  block of its output to a consumer as soon as the block is done.
* ``srk3_array`` — the symmetric 3-ary kernel mapping ternary inputs
  distributed Tern(a, mu1, mu2) / Tern(a, -mu1, mu2) / Tern(a, 0, 0) near
  N(shift, 1), N(-shift, 1) and Q = N(0, 1), one mean shift per row; it
  also returns how many entries kept their Q initializer.  ``tern_pmf``
  gives the masses of those ternary laws.
* ``truncate_tern`` / ``tern_params_from_truncation`` — the Gaussian
  truncation producing exactly those ternary input laws.

All kernels are pure functions of their stream argument.  Both rejection
loops cut rows of length c into blocks of max(1, floor(``_BLOCK`` / c))
whole rows (``_row_blocks``), a flat array being one column.  The Gaussian
kernel runs over a stack of parts, each with a stream of its own: an array
or matrix is the one part and draws from the kernel's stream
(``rng.child("gaussianize")`` or ``rng.child("rk")``), and part j of a
(k, m, c) stack handed to ``gaussianize`` from that stream's
``child("part", j)``.  Each block gets a stream of its own: block 0 draws
from the part's stream and block i >= 1 from the part stream's
``child("block", i)``, so an input of one block or less draws from the
kernel's stream alone.  The block constant is part of the stream's
definition: it changes the output of every part larger than one block.

The 3-ary kernel keys its streams by row instead: row i of an (n, d) input
draws from the i-th stream passed in, and a block's rows are stepped
together so that the likelihood ratios, the gate, the acceptance rule and
the compaction run once per block rather than once per row.  Its block
size therefore changes only the speed, never the output.

Both kernels build every generator before any block starts and run their
blocks (the Gaussian kernel's part after part) through the pool policy
that ``prob._run_blocks`` defines for every stage of the package, so the
number of threads is not part of any stream: the output is the same on
any number of cores.

Within a block the Gaussian loop keeps the positions of the entries still
open and, each step, draws the proposals and then the uniforms for all of
them, writes every proposal, and keeps only the rejected positions open;
the acceptance test runs in place on the proposal's log-ratio.  The draws
and every float are those of the two-mask loop it replaced.

The 3-ary kernel takes its likelihood ratios in log-space
(``_log_ratio``); the operating regimes involve mu1, mu2 down to 1e-5 and
the naive ratios would overflow first.

Acceptance-probability note: the three-branch acceptance rule reconstructs
dP+/dQ, dP-/dQ and 1 exactly when mixed with the ternary input weights
((1-a)/2 + mu1 + mu2, a - 2 mu2, (1-a)/2 - mu1 + mu2); the reconstruction
identity is what the unit tests pin down.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .prob import RngStream, _run_blocks, normal_cdf

__all__ = [
    "rejection_delta",
    "rk_gauss_array",
    "gaussianize",
    "gaussianize_mu_bound",
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


def _row_blocks(n_rows: int, row_len: int):
    """(rows per block, blocks) of both rejection loops' one block rule."""
    per_block = max(1, _BLOCK // max(row_len, 1))
    return per_block, -(-n_rows // per_block)


def _target_mean(mu) -> float:
    """The kernels' target mean as a float: one scalar, finite (NaN would
    reject every proposal and leave the 0.0 initializer everywhere) and
    nonnegative."""
    if np.ndim(mu) != 0:
        raise ParameterError(f"the target mean must be one scalar, got shape {np.shape(mu)}")
    mu = float(mu)
    if not math.isfinite(mu):
        raise ParameterError("the target mean must be finite")
    if mu < 0:
        raise ParameterError("the target mean must be nonnegative")
    return mu


def _rk_gauss_core(parts, mu, p, q, n_iter, streams, use=None):
    """Vectorized rejection loop over a (k, m, c) stack of parts, part j
    drawing from ``streams[j]``.  parts: int array whose entries must lie
    in {0, 1}; mu one scalar, checked here, since every entry point comes
    through here.

    Each part is cut into blocks and streams as the module docstring says;
    every generator is built here, before the blocks run, part after part,
    through one ``_run_blocks`` pool, so the workers run numpy only.

    Returns the output stack.  Given ``use``, it returns None instead: each
    block is written into a fresh array of its own, and the worker that
    finishes it calls ``use(j, first_row, rows)``, ``rows`` the block's
    2-D output from row ``first_row`` of part j on, and then drops it.  So
    no more blocks' outputs are alive at once than the pool has workers.
    """
    mu = _target_mean(mu)
    _, m, cols = parts.shape
    per_block, n_blocks = _row_blocks(m, cols)  # per part
    gens = []
    for s in streams:
        gens += [s.generator()] + [s.child("block", i).generator() for i in range(1, n_blocks)]
    out = np.zeros(parts.shape) if use is None else None

    def run(b):
        j, i = divmod(b, n_blocks)
        first = i * per_block
        bits = parts[j, first:first + per_block]
        rows = np.zeros(bits.shape) if out is None else out[j, first:first + per_block]
        _rk_gauss_block(bits.reshape(-1), mu, rows.reshape(-1), p, q, n_iter, gens[b])
        if use is not None:
            use(j, first, rows)

    _run_blocks(run, len(gens))
    return out


def _rk_gauss_block(bits, mu, out, p, q, n_iter, gen):
    """One block of the rejection loop, written into the view ``out``.

    The two input branches are independent, so they are processed one after
    the other, each over the positions of its entries still open.
    Each step draws a normal proposal z for every open entry, then (unless
    B = 1 at p = 1, which accepts its first proposal) a uniform u for each,
    writes every proposal to its entry and keeps open only the rejected
    positions; entries that exhaust the budget are reset to the 0.0
    initializer.  ``mu`` is a float.  An entry outside {0, 1} raises
    ParameterError, found from the branches' positions with no pass of its own.

    With L the branch's log-ratio bound, a proposal is accepted iff
    u < 1 - exp(t - L), t its log-likelihood ratio.  This needs no separate
    test t <= L: for finite t > L, exp(t - L) >= 1 makes the threshold <= 0
    <= u, and an overflow makes it -inf.
    """
    log_pq = math.log(p / q)
    log_1p_1q = -math.inf if p == 1.0 else math.log((1.0 - p) / (1.0 - q))
    binary = 0
    for branch in (0, 1):
        rem = np.flatnonzero(bits == branch)
        binary += rem.size
        if branch and binary < bits.size:
            raise ParameterError("Gaussian kernel inputs must lie in {0, 1}")
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
    initialization; an entry outside {0, 1} raises ParameterError.
    """
    bits = np.asarray(bits)
    out = _rk_gauss_core(bits.reshape(1, -1, 1), mu, p, q, n_iter, [rng.child("rk")])
    return out.reshape(bits.shape)


def gaussianize(M, P, Q, mu, rng: RngStream, use=None):
    """Map a {0,1} matrix to an independent-Gaussian matrix, entry (i, j)
    heading for N(mu, 1) where M_ij came up Bern(P) and N(0, 1) where it
    came up Bern(Q).

    ``M`` is one nonempty m x n matrix over {0, 1}, or a (k, m, n / k)
    stack of its k column parts.  The matrix draws from
    ``rng.child("gaussianize")``, the kernel's stream, and part j of a stack
    from that stream's ``child("part", j)``; the parts are Gaussianized one
    after the other on the pool (see ``_rk_gauss_core``).  Returns the
    Gaussian matrix or stack.  Given ``use``, it returns None and calls
    ``use(j, first_row, rows)`` on a worker with each block of the output as
    soon as it is done: ``rows`` holds whole rows of part j from row
    ``first_row`` on, and a matrix is part 0.  So neither the output nor one
    part of it ever exists whole.

    ``mu`` is one nonnegative scalar, and it must satisfy the proven bound
    for the whole m x n input (see ``gaussianize_mu_bound``;
    ``rk_gauss_array`` enforces none).  Each entry gets ceil(3 log(m n) /
    delta) proposals, the budget under which that bound is proven (both
    carry the same 3 log(m n) term); entries that exhaust it keep the 0.0
    initializer.
    """
    M = np.asarray(M)
    if M.ndim not in (2, 3) or M.size == 0:
        raise ParameterError("gaussianize expects a nonempty 2-D binary matrix or a 3-D stack "
                             f"of its parts, got shape {M.shape}")
    parts = M[None] if M.ndim == 2 else M
    k, m, cols = parts.shape
    n = k * cols
    delta = rejection_delta(P, Q)
    n_iter = math.ceil(3.0 * math.log(m * n) / delta)
    mu, bound = _target_mean(mu), gaussianize_mu_bound(P, Q, m, n)
    if mu > bound * (1 + 1e-12):
        raise ParameterError(f"mu = {mu} exceeds the proven bound {bound:.6g} for a "
                             f"{m}x{n} input")
    stream = rng.child("gaussianize")
    streams = [stream] if M.ndim == 2 else [stream.child("part", j) for j in range(k)]
    out = _rk_gauss_core(parts, mu, P, Q, n_iter, streams, use)
    return None if out is None else out.reshape(M.shape)


# ---------------------------------------------------------------------------
# The symmetric 3-ary kernel
# ---------------------------------------------------------------------------

def _log_ratio(x, shift, out=None):
    """log dN(shift, 1)/dN(0, 1) at x, that is shift x - (0.5 shift) shift,
    elementwise with ``shift`` broadcast against x; into ``out`` if given.
    srk3 calls this over whole blocks, so it allocates one array only."""
    half = 0.5 * shift
    half *= shift
    out = np.multiply(shift, x, out=out)
    out -= half
    return out


def _gate_empty(shifts, gate1, gate2):
    """One bool per shift: True only if no x passes both of srk3's gates,
    |l1| <= gate1 and |l2| <= gate2 with l1 = lr+ - lr- and l2 = lr+ + lr-
    - 2, the ratios lr+- = exp(``_log_ratio(x, +-shift)``) as srk3 computes
    them in floats."""
    # A gated x has lr+ + lr- >= 2 - gate2 and |lr+ - lr-| <= gate1,
    # so (lr+ + lr-)^2 - (lr+ - lr-)^2 = 4 lr+ lr- >= (2 - gate2)^2
    # - gate1^2 (when gate2 < 2), and lr+ lr- = exp(-shift^2) at every x.
    # On the gate set both ratios lie in [c, 2], c = (2 - gate1 - gate2)
    # / 2, and c > 1e-13 wherever the test below can hold.  So each float
    # srk3 rounds there (the two log-ratios, their exps, sum and
    # difference) is at most 30 in size with a relative error of a few
    # 2^-53, and the rounded ratios' product is within 1e-14 of
    # exp(-shift^2) (about 1e-15 at srk3's small gates, where c is near
    # 1).  The 1e-12 margin covers that.
    floor = max(2.0 - gate2, 0.0)
    return 4.0 * np.exp(-(shifts * shifts)) < floor * floor - gate1 * gate1 - 1e-12


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


def srk3_array(bits, shifts, a, mu1, mu2, n_iter, streams):
    """Vectorized symmetric 3-ary rejection kernel over an (n, d) stack of
    rows in {-1, 0, +1}.

    Row i targets N(+-``shifts[i]``, 1) and Q = N(0, 1): inputs distributed
    Tern(a, mu1, mu2) map near N(shift, 1), Tern(a, -mu1, mu2) near
    N(-shift, 1) and Tern(a, 0, 0) near Q.  Row i draws from
    ``streams[i].child("srk3")``; one row is passed as ``bits[None]``,
    ``[shift]``, ``[stream]``.  Entries whose iteration budget runs out
    keep their initialization, a fresh draw from Q (distributionally
    harmless).  Returns ``(out, count of those entries)``.

    The gates are |l1| <= 2 mu1 and |l2| <= 2 mu2 / max(a, 1 - a).  A row
    whose shift leaves no x passing both gates (``_gate_empty``) is settled
    before the loop: it draws its initializer and nothing more, and its d
    entries count as kept.  The output is that of stepping the row through
    its whole budget, which accepts nothing.

    Its blocks of rows (``_row_blocks``) run through ``_run_blocks``; a
    row draws from its own generator alone, so they set only the speed.
    """
    _srk3_params_check(a, mu1, mu2)
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ParameterError(f"srk3 expects a 2-D stack of rows, got {bits.ndim}-D")
    n, d = bits.shape
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (n,) or not isinstance(streams, Sequence) or len(streams) != n:
        raise ParameterError(f"srk3 on a {n}-row input needs one shift and one stream per row")
    if not np.all(np.isfinite(shifts)):
        raise ParameterError("srk3 needs finite shifts")
    ternary = bits == 0  # np.isin would copy an integer input twice over
    ternary |= bits == 1
    ternary |= bits == -1
    if not ternary.all():
        raise ParameterError("srk3 inputs must lie in {-1, 0, +1}")
    del ternary
    gate1, gate2 = 2.0 * abs(mu1), 2.0 * abs(mu2) / max(a, 1.0 - a)
    settled = _gate_empty(shifts, gate1, gate2)
    out = np.empty((n, d))
    gens = [s.child("srk3").generator() for s in streams]
    per_block, n_blocks = _row_blocks(n, d)
    fallback = [0] * n_blocks

    def run(j):
        b = slice(j * per_block, (j + 1) * per_block)
        fallback[j] = _srk3_block(bits[b], out[b], shifts[b], settled[b], gens[b],
                                  a, mu1, mu2, gate1, gate2, n_iter)

    _run_blocks(run, n_blocks)
    return out, sum(fallback)


def _srk3_block(bits, out, shifts, settled, gens, a, mu1, mu2, gate1, gate2,
                n_iter) -> int:
    """One block of rows of the 3-ary loop, written into the view ``out``;
    returns how many entries kept their initializer.

    Each row first draws its initializer from Q; a ``settled`` row stops
    there.  Each step, every row with entries left draws its proposals z,
    then its uniforms u, from its own generator; the two likelihood ratios,
    at +shift and -shift of each entry's row, the gate, the acceptance rule
    and the compaction then run once over the block.  The remaining entries
    stay in row-major order, so each row's are one contiguous segment.
    """
    n_rows, d = out.shape
    for i in range(n_rows):
        gens[i].standard_normal(out=out[i])
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
            gens[i].standard_normal(out=z[seg])
            gens[i].random(out=u[seg])
            start += c
        # each open entry's row shift, held in l1 until both ratios are taken
        shift = l1
        shift[...] = np.repeat(shifts[active], left[active])
        np.exp(_log_ratio(z, shift, out=lr_p), out=lr_p)
        np.negative(shift, out=shift)
        np.exp(_log_ratio(z, shift, out=lr_m), out=lr_m)
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
