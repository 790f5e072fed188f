"""Tests for the rejection-kernel primitives."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as integrate
import scipy.stats as sst
from numpy.testing import assert_allclose

from avgcase.errors import ParameterError
from avgcase.kernels import (_BLOCK, ComputablePair, check_unit_mean, gaussianize,
                             gaussianize_mu_bound, rejection_delta,
                             rk_gauss_array, rk_gauss_mu_bound, srk3_array,
                             tern_params_from_truncation, truncate_tern)
from avgcase.prob import RngStream, Tern, normal_cdf, sample, tern_pmf
from avgcase.verify import covariance_identity_check, ks_test


def test_rejection_delta():
    assert rejection_delta(1.0, 0.5) == math.log(2.0)
    d = rejection_delta(0.75, 0.25)
    assert_allclose(d, min(math.log(3.0), math.log(3.0)))
    with pytest.raises(ParameterError):
        rejection_delta(0.25, 0.75)


def test_rk_gauss_mu_zero_limit():
    # mu = 0 collapses both branches: acceptance 1 - q/p for B=0 and the
    # output is exactly N(0,1).
    p, q = 0.75, 0.25
    out = rk_gauss_array(np.zeros(50_000, dtype=np.uint8), 0.0, p, q, 40,
                         RngStream(1))
    accepted = out[out != 0.0]
    stat, pval = ks_test(accepted, sst.norm.cdf)
    assert pval > 1e-4


def test_rk_gauss_single_round_acceptance_matches_formula():
    # One iteration, B = 0: acceptance probability is
    # E_z[ 1{p phi0 >= q phi_mu} (1 - (q/p) e^{mu z - mu^2/2}) ].
    p, q, mu = 0.75, 0.25, 0.4
    cut = (math.log(p / q) + mu * mu / 2.0) / mu

    def integrand(z):
        return sst.norm.pdf(z) * (1.0 - (q / p) * math.exp(mu * z - mu * mu / 2.0))

    expect, _ = integrate.quad(integrand, -40, cut)
    out = rk_gauss_array(np.zeros(200_000, dtype=np.uint8), mu, p, q, 1, RngStream(2))
    freq = float((out != 0.0).mean())
    assert abs(freq - expect) < 4 * math.sqrt(expect * (1 - expect) / 200_000)


def test_rk_gauss_marginals_ks():
    # At the proven mu bound for n = 1e3, Bern(q) inputs land on N(0,1) and
    # Bern(p) inputs on N(mu, 1); 1e5 outputs each, KS at 1e-4.
    p, q, n = 0.75, 0.25, 1000
    mu = rk_gauss_mu_bound(p, q, n)
    n_iter = math.ceil(6.0 * math.log(n) / rejection_delta(p, q))
    bits_q = (RngStream(3).child("bq").generator().random(100_000) < q).astype(np.uint8)
    outs0 = rk_gauss_array(bits_q, mu, p, q, n_iter, RngStream(3))
    stat, pval = ks_test(outs0, sst.norm.cdf)
    assert pval > 1e-4
    bits_p = (RngStream(4).child("bp").generator().random(100_000) < p).astype(np.uint8)
    outs1 = rk_gauss_array(bits_p, mu, p, q, n_iter, RngStream(4))
    stat, pval = ks_test(outs1, lambda x: sst.norm.cdf(x, loc=mu))
    assert pval > 1e-4


def test_rk_gauss_bound_enforced():
    # gaussianize is the kernel's bound-checking entry point; on an n x n
    # matrix its bound, at 3 log(n^2), is the one-bit bound at 6 log(n).
    p, q, n = 0.75, 0.25, 32
    bound = rk_gauss_mu_bound(p, q, n)
    assert gaussianize_mu_bound(p, q, n, n) == pytest.approx(bound, rel=1e-12)
    M = np.ones((n, n), dtype=np.uint8)
    with pytest.raises(ParameterError, match="proven bound"):
        gaussianize(M, p, q, 2 * bound, RngStream(5))
    gaussianize(M, p, q, 2 * bound, RngStream(5), allow_unproven=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk_gauss_rejects_nonfinite_mu(bad):
    bits = np.array([0, 1, 1], dtype=np.uint8)
    for mu in (bad, np.array([0.1, bad, 0.1])):
        with pytest.raises(ParameterError, match="finite"):
            rk_gauss_array(bits, mu, 0.75, 0.25, 10, RngStream(1))


def test_rk_gauss_rejects_negative_mu():
    bits = np.array([0, 1, 1], dtype=np.uint8)
    for mu in (-0.1, np.array([0.1, -1e-9, 0.1])):
        with pytest.raises(ParameterError, match="nonnegative"):
            rk_gauss_array(bits, mu, 0.75, 0.25, 10, RngStream(1))
        with pytest.raises(ParameterError, match="nonnegative"):
            gaussianize(bits[None, :], 0.75, 0.25, mu, RngStream(1), allow_unproven=True)


def test_rk_gauss_exhaustion_fraction():
    # Exhausted runs return the 0.0 initialization; their frequency obeys the
    # (1/2 + small)^N envelope (doubled across the two branches).
    p, q, mu = 0.75, 0.25, 0.05
    n_iter = 4
    bits = (np.arange(100_000) % 2).astype(np.uint8)
    out = rk_gauss_array(bits, mu, p, q, n_iter, RngStream(6))
    frac = float((out == 0.0).mean())
    assert frac <= 2.0 * (0.5 + 0.05) ** n_iter


def test_gaussianize_null_matrix():
    # All-zeros input with mu = 0: i.i.d. N(0,1) entries; per-entry KS and
    # the row-covariance of the matrix stays near identity.
    M = np.zeros((40, 500), dtype=np.uint8)
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(7))
    assert X.shape == (40, 500)
    stat, pval = ks_test(X.ravel(), sst.norm.cdf)
    assert pval > 1e-4
    cov = covariance_identity_check(X.T, rng=RngStream(8))
    assert cov["offdiag_pass"] and cov["diag_pass"]


def test_gaussianize_planted_block_mean():
    P, Q = 0.75, 0.25
    m, n = 60, 400
    tau = gaussianize_mu_bound(P, Q, m, n)
    M = np.zeros((m, n), dtype=np.uint8)
    gen = RngStream(9).child("plant").generator()
    M[:10, :50] = (gen.random((10, 50)) < P).astype(np.uint8)
    mu = np.zeros((m, n))
    mu[:10, :50] = tau
    X = gaussianize(M, P, Q, mu, RngStream(10))
    # planted entries are Bern(P) draws pushed through the kernel, whose
    # marginal is N(tau, 1); the block mean lands on tau
    block = X[:10, :50]
    z = (block.mean() - tau) * math.sqrt(block.size)
    assert abs(z) < 4.0


def test_gaussianize_bound_enforced():
    M = np.zeros((10, 10), dtype=np.uint8)
    bound = gaussianize_mu_bound(0.75, 0.25, 10, 10)
    with pytest.raises(ParameterError):
        gaussianize(M, 0.75, 0.25, 2 * bound, RngStream(11))
    gaussianize(M, 0.75, 0.25, 2 * bound, RngStream(11), allow_unproven=True)


@pytest.mark.parametrize("allow_unproven", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gaussianize_rejects_nonfinite_mu(bad, allow_unproven):
    M = np.zeros((10, 10), dtype=np.uint8)
    mu_matrix = np.zeros((10, 10))
    mu_matrix[3, 4] = bad
    for mu in (bad, mu_matrix):
        with pytest.raises(ParameterError, match="finite"):
            gaussianize(M, 0.75, 0.25, mu, RngStream(11), allow_unproven=allow_unproven)


def _bits(shape, rate, seed):
    return (RngStream(seed).child("bits").generator().random(shape) < rate).astype(np.uint8)


def test_gaussianize_blocks_null_marginals():
    # 2.25 M entries span three blocks; with mu = 0 both input bits map to
    # N(0, 1) in the first and in the last (partial) block alike.
    M = _bits((1500, 1500), 0.5, 40)
    assert M.size > 2 * _BLOCK
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(41)).ravel()
    bits = M.ravel()
    for block in (slice(0, _BLOCK), slice(2 * _BLOCK, None)):
        for bit in (0, 1):
            stat, pval = ks_test(X[block][bits[block] == bit], sst.norm.cdf)
            assert pval > 1e-4, (block, bit, pval)


@pytest.mark.parametrize("P, Q", [(0.75, 0.25), (1.0, 0.5)])
def test_gaussianize_scalar_mu_matches_full_matrix(P, Q):
    M = _bits((1500, 1500), Q, 42)
    mu = 0.05
    X_scalar = gaussianize(M, P, Q, mu, RngStream(43))
    X_full = gaussianize(M, P, Q, np.full(M.shape, mu), RngStream(43))
    assert X_scalar.tobytes() == X_full.tobytes()


def test_gaussianize_same_seed_same_bytes():
    M = _bits((1500, 1500), 0.5, 44)
    a, b, c = (gaussianize(M, 0.75, 0.25, 0.05, RngStream(s)) for s in (45, 45, 46))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


@pytest.mark.parametrize("mu", [0.05, "matrix"])
def test_gaussianize_transient_memory_bounded(mu):
    # The rejection loop's temporaries are block-sized: the peak allocation
    # inside the call exceeds its output by at most a fixed allowance.
    M = _bits((2000, 2000), 0.5, 47)
    mu = np.full(M.shape, 0.05) if mu == "matrix" else mu
    tracemalloc.start()
    try:
        X = gaussianize(M, 0.75, 0.25, mu, RngStream(48))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes + 64 * 2 ** 20


def test_srk3_branch_formulas_reconstruct_likelihoods():
    # The three acceptance branches, mixed with the ternary input weights,
    # must reconstruct dP+/dQ, 1 and dP-/dQ pointwise; this pins down every
    # branch formula including the B = -1 sign convention.
    a, mu1, mu2, shift = 0.7, 0.04, 0.002, 0.05
    pp = ComputablePair.gaussian_mean_shift(shift)
    pm = ComputablePair.gaussian_mean_shift(-shift)
    x = np.linspace(-3, 3, 41)
    l1 = pp.likelihood_ratio(x) - pm.likelihood_ratio(x)
    l2 = pp.likelihood_ratio(x) + pm.likelihood_ratio(x) - 2.0
    A_plus = 1.0 + (a / (4 * mu2)) * l2 + l1 / (4 * mu1)
    A_zero = 1.0 - ((1 - a) / (4 * mu2)) * l2
    A_minus = 1.0 + (a / (4 * mu2)) * l2 - l1 / (4 * mu1)
    for m1, target in ((mu1, pp.likelihood_ratio(x)),
                       (-mu1, pm.likelihood_ratio(x)),
                       (0.0, np.ones_like(x))):
        w_m, w_0, w_p = tern_pmf(a, m1, mu2 if m1 else 0.0)
        mix = w_p * A_plus + w_0 * A_zero + w_m * A_minus
        assert_allclose(mix, target, atol=1e-12)


def test_srk3_zero_branch_single_round_acceptance():
    # B = 0, one iteration: acceptance frequency matches
    # E_Q[ 1_S(x) * (1/2) (1 - (1-a)/(4 mu2) L2(x)) ].
    a, mu1, mu2, shift = 0.68, 0.01, 5e-4, 0.02
    pp = ComputablePair.gaussian_mean_shift(shift)
    pm = ComputablePair.gaussian_mean_shift(-shift)
    gate2 = 2 * mu2 / max(a, 1 - a)

    def integrand(x):
        lp = math.exp(shift * x - shift * shift / 2)
        lm = math.exp(-shift * x - shift * shift / 2)
        l1, l2 = lp - lm, lp + lm - 2.0
        if abs(l1) > 2 * mu1 or abs(l2) > gate2:
            return 0.0
        return sst.norm.pdf(x) * 0.5 * (1.0 - (1 - a) / (4 * mu2) * l2)

    expect, _ = integrate.quad(integrand, -30, 30, limit=200)
    bits = np.zeros(200_000, dtype=np.int64)
    rng = RngStream(12)
    init = rng.child("srk3").generator().standard_normal(bits.size)
    out = srk3_array(bits, pp, pm, a, mu1, mu2, 1, rng)
    freq = float((out != init).mean())
    assert abs(freq - expect) < 4 * math.sqrt(expect * (1 - expect) / bits.size)


def test_srk3_degenerate_identity():
    # P+ = P- = Q: L1 = L2 = 0, every branch accepts w.p. 1/2 and the output
    # is exactly Q regardless of the input symbol.
    same = ComputablePair.gaussian_mean_shift(0.0)
    bits = sample(Tern(0.5, 0.1, 0.05), RngStream(13).child("bits"), size=50_000)
    out = srk3_array(bits, same, same, 0.5, 0.1, 0.05, 30, RngStream(13).child("k"))
    stat, pval = ks_test(out, sst.norm.cdf)
    assert pval > 1e-4


def test_srk3_three_marginals_ks():
    # shift must sit well inside the mu1/mu2 gates (mu1/shift ~ 13 here);
    # at larger shifts the kernel visibly truncates and the TV guarantee
    # degrades, which test_srk3_gate_truncation pins from the other side.
    shift = 3e-4
    mu = 0.016
    a, mu1, mu2 = tern_params_from_truncation(1.0, mu)
    pp = ComputablePair.gaussian_mean_shift(shift)
    pm = ComputablePair.gaussian_mean_shift(-shift)
    for spec, loc, tag in ((Tern(a, mu1, mu2), shift, "p"),
                           (Tern(a, -mu1, mu2), -shift, "m"),
                           (Tern(a, 0.0, 0.0), 0.0, "q")):
        bits = sample(spec, RngStream(14).child("b" + tag), size=100_000)
        out = srk3_array(bits, pp, pm, a, mu1, mu2, 50, RngStream(14).child("k" + tag))
        stat, pval = ks_test(out, lambda x, s=loc: sst.norm.cdf(x, loc=s))
        assert pval > 1e-4, (tag, stat, pval)


def test_srk3_gate_truncation():
    # When the target shift crowds the mu1 gate the output is visibly a
    # truncated law: the kernel only promises closeness while the gate
    # failure mass is negligible.
    shift, mu = 3e-3, 0.016
    a, mu1, mu2 = tern_params_from_truncation(1.0, mu)
    pp = ComputablePair.gaussian_mean_shift(shift)
    pm = ComputablePair.gaussian_mean_shift(-shift)
    bits = sample(Tern(a, 0.0, 0.0), RngStream(24).child("b"), size=50_000)
    out = srk3_array(bits, pp, pm, a, mu1, mu2, 50, RngStream(24).child("k"))
    cut = mu1 / shift  # the |L1| gate collapses to roughly |x| <= mu1/shift
    assert cut < 2.0
    assert np.abs(out).max() < cut * 1.5


def test_srk3_parameter_errors():
    pp = ComputablePair.gaussian_mean_shift(0.1)
    with pytest.raises(ParameterError):
        srk3_array(np.array([0]), pp, pp, 0.5, 0.0, 0.01, 10, RngStream(15))  # mu1 = 0
    with pytest.raises(ParameterError):
        srk3_array(np.array([0]), pp, pp, 0.5, 0.3, 0.01, 10, RngStream(15))  # Tern invalid
    with pytest.raises(ParameterError):
        srk3_array(np.array([2]), pp, pp, 0.5, 0.01, 0.01, 10, RngStream(15))  # bad symbol


def test_truncate_tern():
    assert truncate_tern(0.5, 1.0) == 0
    assert truncate_tern(-2.0, 1.0) == -1
    assert truncate_tern(1.0, 1.0) == 0  # boundary is inclusive
    assert truncate_tern(1.0000001, 1.0) == 1
    np.testing.assert_array_equal(truncate_tern(np.array([-5, 0, 5]), 2.0), [-1, 0, 1])
    with pytest.raises(ParameterError):
        truncate_tern(0.0, 0.0)


def test_tern_params_from_truncation():
    a, mu1, mu2 = tern_params_from_truncation(1.0, 0.0)
    assert mu1 == 0.0 and mu2 == 0.0
    # a at tau = 1 from the mpmath oracle
    assert abs(a - 0.6826894921370859) < 1e-12
    for tau, mu in [(0.5, 0.01), (1.0, 0.05), (2.0, 0.3), (1.5, 1e-4)]:
        a, mu1, mu2 = tern_params_from_truncation(tau, mu)
        assert mu1 > 0 and mu2 > 0
        pm = tern_pmf(a, mu1, mu2)
        exact = (float(normal_cdf(-tau - mu)),
                 float(normal_cdf(tau - mu) - normal_cdf(-tau - mu)),
                 float(1.0 - normal_cdf(tau - mu)))
        assert_allclose(pm, exact, atol=1e-12)


def test_tern_truncation_monte_carlo_roundtrip():
    tau, mu = 1.0, 0.2
    a, mu1, mu2 = tern_params_from_truncation(tau, mu)
    gen = RngStream(16).child("mc").generator()
    draws = truncate_tern(mu + gen.standard_normal(100_000), tau)
    counts = np.bincount(draws + 1, minlength=3).astype(float)
    expected = np.array(tern_pmf(a, mu1, mu2)) * draws.size
    from avgcase.verify import chi2_test

    stat, pval = chi2_test(counts, expected)
    assert pval > 1e-4


def test_computable_pairs_unit_mean():
    for pair in (ComputablePair.gaussian_mean_shift(0.3),
                 ComputablePair.bernoulli(0.7, 0.4),
                 ComputablePair.exponential(1.3, 1.0)):
        check_unit_mean(pair, RngStream(17).child(pair.label))


def test_gaussianize_then_rotation_isotropy():
    # Null Gaussianize output right-multiplied by any orthonormal-row matrix
    # stays isotropic.
    from avgcase.geometry import build_H

    M = (RngStream(30).child("bits").generator().random((300, 27)) < 0.25).astype(np.uint8)
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(31))
    H = build_H(3, 3)  # 13 x 27, orthonormal rows
    Y = X @ H.matrix.T
    cov = covariance_identity_check(Y, rng=RngStream(32))
    assert cov["offdiag_pass"] and cov["diag_pass"]
    assert abs(Y.var() - 1.0) < 5.0 * math.sqrt(2.0 / Y.size)
