"""Algorithmic change-of-measure primitives (rejection kernels).

Three gadgets live here:

* ``rk_gauss_array`` — maps each biased bit of an array to (approximately) a
  unit-variance Gaussian, sending Bern(p) inputs near N(mu, 1) and Bern(q)
  inputs near N(0, 1) simultaneously.
* ``gaussianize`` — the same kernel over a {0,1} matrix, with the proven
  mean bound enforced and an iteration count set by the matrix size.
* ``srk3_array`` — the symmetric 3-ary kernel mapping ternary inputs
  distributed Tern(a, mu1, mu2) / Tern(a, -mu1, mu2) / Tern(a, 0, 0) near
  three target laws P+, P-, Q given likelihood-ratio oracles.
* ``truncate_tern`` / ``tern_params_from_truncation`` — the Gaussian
  truncation producing exactly those ternary input laws.

All kernels are pure functions of their stream argument.  The Gaussian
kernel walks its flat input in consecutive blocks of ``_BLOCK`` entries and
draws all of one block's proposals before the next block starts, so the
block constant is part of the stream's definition: changing it changes the
output of every input larger than one block.

Likelihood ratios for the built-in pairs are computed in log-space; the
operating regimes involve mu1, mu2 down to 1e-5 and the naive ratios would
overflow first.

Acceptance-probability note: the three-branch acceptance rule reconstructs
dP+/dQ, dP-/dQ and 1 exactly when mixed with the ternary input weights
((1-a)/2 + mu1 + mu2, a - 2 mu2, (1-a)/2 - mu1 + mu2); the reconstruction
identity is what the unit tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .prob import RngStream, normal_cdf, tern_pmf

__all__ = [
    "rejection_delta",
    "rk_gauss_mu_bound",
    "rk_gauss_array",
    "gaussianize",
    "gaussianize_mu_bound",
    "ComputablePair",
    "srk3_array",
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


def rk_gauss_mu_bound(p: float, q: float, n: int) -> float:
    """Largest mean shift with the proven total-variation guarantee at size n."""
    delta = rejection_delta(p, q)
    return delta / (2.0 * math.sqrt(6.0 * math.log(n) + 2.0 * math.log(1.0 / (p - q))))


def gaussianize_mu_bound(P: float, Q: float, m: int, n: int) -> float:
    delta = rejection_delta(P, Q)
    return delta / (2.0 * math.sqrt(3.0 * math.log(m * n) + 2.0 * math.log(1.0 / (P - Q))))


# Entries per block of the Gaussian rejection loop (part of the stream's
# definition, see the module docstring).  It bounds the loop's transient
# memory to a few block-sized arrays, whatever the size of the input.
_BLOCK = 1 << 20


def _rk_gauss_core(bits, mu, p, q, n_iter, gen, bound=math.inf):
    """Vectorized rejection loop.  bits: int array in {0,1}; mu a scalar or
    an array broadcastable to ``bits.shape``.

    Every entry point goes through here, so the target means are checked
    here: finite (NaN would reject every proposal and leave the 0.0
    initializer everywhere), nonnegative, and at most ``bound``.  The flat
    input is processed in consecutive blocks of ``_BLOCK`` entries, each run
    to completion before the next block draws.
    """
    bits = np.asarray(bits)
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise ParameterError("target means must be finite")
    if np.any(mu < 0):
        raise ParameterError("target means must be nonnegative")
    worst = float(mu.max()) if bits.size else 0.0
    if worst > bound * (1 + 1e-12):
        raise ParameterError(
            f"max mu = {worst} exceeds the proven bound {bound:.6g} for a "
            f"{'x'.join(map(str, bits.shape))} input; pass allow_unproven=True "
            "to run anyway"
        )
    flat_bits = bits.ravel()
    mu_all = np.broadcast_to(mu, bits.shape) if mu.ndim else None
    out = np.zeros(flat_bits.size, dtype=float)
    for start in range(0, flat_bits.size, _BLOCK):
        stop = start + _BLOCK
        block_mu = float(mu) if mu_all is None else mu_all.flat[start:stop]
        _rk_gauss_block(flat_bits[start:stop], block_mu, out[start:stop], p, q, n_iter, gen)
    return out.reshape(bits.shape)


def _rk_gauss_block(bits, mu, out, p, q, n_iter, gen):
    """One block of the rejection loop, written into the view ``out``.

    The two input branches are independent, so they are processed as two
    shrinking index sets; entries that exhaust the budget keep the 0.0
    initialization.  ``mu`` is a float or an array aligned with ``bits``.
    """
    scalar_mu = isinstance(mu, float)
    log_pq = math.log(p / q)
    log_1p_1q = -math.inf if p == 1.0 else math.log((1.0 - p) / (1.0 - q))
    for branch in (0, 1):
        rem = np.flatnonzero(bits == branch)
        for _ in range(n_iter):
            if rem.size == 0:
                break
            z = gen.standard_normal(rem.size)
            m_ = mu if scalar_mu else mu[rem]
            if branch == 1 and p == 1.0:
                # p = 1: the B = 1 branch accepts its first proposal
                z += m_
                out[rem] = z
                break
            if branch == 0:
                # value z, feasible iff mu z - mu^2/2 <= log(p/q)
                t = m_ * z - 0.5 * m_ * m_
                with np.errstate(over="ignore"):
                    acc = t <= log_pq
                    acc &= gen.random(rem.size) < 1.0 - np.exp(t - log_pq)
            else:
                # value z + mu, feasible iff -mu z - mu^2/2 <= log((1-q)/(1-p))
                s = -m_ * z - 0.5 * m_ * m_
                with np.errstate(over="ignore"):
                    acc = s <= -log_1p_1q
                    acc &= gen.random(rem.size) < 1.0 - np.exp(log_1p_1q + s)
                z += m_
            out[rem[acc]] = z[acc]
            rem = rem[~acc]


def rk_gauss_array(bits, mu, p, q, n_iter, rng: RngStream):
    """Gaussian rejection kernel, entrywise over an integer array in {0, 1},
    sharing one stream.

    Over Bern(p) inputs each output is close to N(mu, 1), over Bern(q)
    inputs close to N(0, 1); ``mu`` is a nonnegative scalar or an array
    broadcastable to ``bits``.  No mean bound is enforced (see
    ``rk_gauss_mu_bound`` for the proven one); entries that exhaust the
    ``n_iter`` budget return 0.0, the initialization.
    """
    return _rk_gauss_core(bits, mu, p, q, n_iter, rng.child("rk").generator())


def gaussianize(M, P, Q, mu, rng: RngStream, n_iter=None, allow_unproven=False):
    """Map a {0,1} matrix to an independent-Gaussian matrix, entry (i, j)
    heading for N(mu_ij, 1) where M_ij came up Bern(P) and N(0, 1) where it
    came up Bern(Q).

    ``mu`` may be a scalar or an (m, n) matrix of nonnegative target means;
    every entry must satisfy the proven bound (see ``gaussianize_mu_bound``)
    unless ``allow_unproven`` is set.  The default iteration count is
    ceil(3 log(m n) / delta).
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ParameterError("gaussianize expects a 2-D binary matrix")
    m, n = M.shape
    delta = rejection_delta(P, Q)
    bound = math.inf if allow_unproven else gaussianize_mu_bound(P, Q, m, n)
    if n_iter is None:
        n_iter = math.ceil(3.0 * math.log(m * n) / delta)
    return _rk_gauss_core(M, mu, P, Q, n_iter, rng.child("gaussianize").generator(),
                          bound=bound)


# ---------------------------------------------------------------------------
# Computable pairs and the symmetric 3-ary kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComputablePair:
    """A planted/noise pair with sampling and likelihood-ratio oracles.

    ``log_likelihood_ratio(x)`` returns log dP/dQ(x) elementwise;
    ``sample_noise(gen, size)`` draws from Q and ``sample_planted`` from P
    (the latter is only used by diagnostics, never by the kernels).
    """

    sample_noise: Callable
    sample_planted: Callable
    log_likelihood_ratio: Callable
    label: str = ""

    def likelihood_ratio(self, x):
        return np.exp(self.log_likelihood_ratio(np.asarray(x, dtype=float)))

    @classmethod
    def gaussian_mean_shift(cls, shift: float) -> "ComputablePair":
        """P = N(shift, 1) against Q = N(0, 1)."""
        def llr(x):
            return shift * np.asarray(x, dtype=float) - 0.5 * shift * shift

        return cls(
            sample_noise=lambda gen, size: gen.standard_normal(size),
            sample_planted=lambda gen, size: shift + gen.standard_normal(size),
            log_likelihood_ratio=llr,
            label=f"N({shift:g},1) vs N(0,1)",
        )

    @classmethod
    def bernoulli(cls, p_planted: float, p_noise: float) -> "ComputablePair":
        if not (0 < p_noise < 1 and 0 <= p_planted <= 1):
            raise ParameterError("bernoulli pair needs p_noise in (0,1)")

        def llr(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                on = math.log(p_planted / p_noise) if p_planted > 0 else -math.inf
                off = (
                    math.log((1 - p_planted) / (1 - p_noise))
                    if p_planted < 1
                    else -math.inf
                )
            return np.where(x > 0.5, on, off)

        return cls(
            sample_noise=lambda gen, size: (gen.random(size) < p_noise).astype(float),
            sample_planted=lambda gen, size: (gen.random(size) < p_planted).astype(float),
            log_likelihood_ratio=llr,
            label=f"Bern({p_planted:g}) vs Bern({p_noise:g})",
        )

    @classmethod
    def exponential(cls, rate_planted: float, rate_noise: float) -> "ComputablePair":
        if rate_planted <= 0 or rate_noise <= 0:
            raise ParameterError("exponential rates must be positive")

        def llr(x):
            x = np.asarray(x, dtype=float)
            return math.log(rate_planted / rate_noise) - (rate_planted - rate_noise) * x

        return cls(
            sample_noise=lambda gen, size: gen.exponential(1.0 / rate_noise, size),
            sample_planted=lambda gen, size: gen.exponential(1.0 / rate_planted, size),
            log_likelihood_ratio=llr,
            label=f"Exp({rate_planted:g}) vs Exp({rate_noise:g})",
        )


def check_unit_mean(pair: ComputablePair, rng: RngStream, n: int = 100_000, tol: float = 1e-3):
    """Soft Monte Carlo check that E_Q[dP/dQ] = 1; returns the estimate."""
    gen = rng.child("unit-mean").generator()
    x = pair.sample_noise(gen, n)
    est = float(np.mean(pair.likelihood_ratio(x)))
    if abs(est - 1.0) > max(tol, 5.0 * float(np.std(pair.likelihood_ratio(x))) / math.sqrt(n)):
        raise ParameterError(f"E_Q[dP/dQ] = {est:.6f} is not 1 for pair {pair.label!r}")
    return est


def _srk3_params_check(a, mu1, mu2):
    if not (0.0 < a < 1.0):
        raise ParameterError(f"a must lie in (0, 1), got {a}")
    if mu1 == 0.0 or mu2 == 0.0:
        raise ParameterError("srk3 needs nonzero mu1 and mu2")
    tern_pmf(a, mu1, mu2)
    tern_pmf(a, -mu1, mu2)


def srk3_array(bits, pair_plus, pair_minus, a, mu1, mu2, n_iter, rng: RngStream):
    """Vectorized symmetric 3-ary rejection kernel.

    ``bits`` is an array over {-1, 0, +1}.  Inputs distributed
    Tern(a, mu1, mu2) map near P+, Tern(a, -mu1, mu2) near P- and
    Tern(a, 0, 0) near Q.  Entries whose iteration budget runs out keep
    their initialization, a fresh draw from Q (distributionally harmless).
    """
    _srk3_params_check(a, mu1, mu2)
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (-1, 0, 1)).all():
        raise ParameterError("srk3 inputs must lie in {-1, 0, +1}")
    gen = rng.child("srk3").generator()
    out = np.asarray(pair_plus.sample_noise(gen, bits.size), dtype=float)
    flat_bits = bits.ravel()
    gate2 = 2.0 * abs(mu2) / max(a, 1.0 - a)
    remaining = np.arange(flat_bits.size)
    for _ in range(n_iter):
        if remaining.size == 0:
            break
        z = np.asarray(pair_plus.sample_noise(gen, remaining.size), dtype=float)
        u = gen.random(remaining.size)
        lr_p = pair_plus.likelihood_ratio(z)
        lr_m = pair_minus.likelihood_ratio(z)
        l1 = lr_p - lr_m
        l2 = lr_p + lr_m - 2.0
        gated = (np.abs(l1) <= 2.0 * abs(mu1)) & (np.abs(l2) <= gate2)
        b_ = flat_bits[remaining]
        common = (a / (4.0 * mu2)) * l2
        p_acc = 0.5 * np.select(
            [b_ == 1, b_ == 0],
            [
                1.0 + common + l1 / (4.0 * mu1),
                1.0 - ((1.0 - a) / (4.0 * mu2)) * l2,
            ],
            default=1.0 + common - l1 / (4.0 * mu1),
        )
        bad = gated & ((p_acc < -1e-9) | (p_acc > 1.0 + 1e-9))
        if bad.any():
            raise ParameterError(
                "srk3 acceptance probability left [0, 1] at a gated point "
                f"(a={a}, mu1={mu1}, mu2={mu2})"
            )
        accept = gated & (u < p_acc)
        hit = remaining[accept]
        out[hit] = z[accept]
        remaining = remaining[~accept]
    return out.reshape(bits.shape)


def truncate_tern(x, tau: float):
    """Three-way truncation: +1 above tau, -1 below -tau, 0 on [-tau, tau]."""
    if not tau > 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    x = np.asarray(x)
    out = np.zeros(x.shape, dtype=np.int64)
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
