"""Tests for the rejection-kernel primitives."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as integrate
import scipy.stats as sst
from numpy.testing import assert_allclose

from avgcase import kernels, prob
from avgcase.errors import ParameterError
from avgcase.kernels import (_BLOCK, gaussianize,
                             gaussianize_mu_bound, rejection_delta,
                             rk_gauss_array, srk3_array,
                             tern_params_from_truncation, tern_pmf, truncate_tern)
from avgcase.prob import RngStream, normal_cdf
from avgcase.verify import covariance_identity_check


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
    stat, pval = sst.kstest(accepted, sst.norm.cdf)
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
    mu = gaussianize_mu_bound(p, q, n, n)
    n_iter = math.ceil(6.0 * math.log(n) / rejection_delta(p, q))
    bits_q = (RngStream(3).child("bq").generator().random(100_000) < q).astype(np.uint8)
    outs0 = rk_gauss_array(bits_q, mu, p, q, n_iter, RngStream(3))
    stat, pval = sst.kstest(outs0, sst.norm.cdf)
    assert pval > 1e-4
    bits_p = (RngStream(4).child("bp").generator().random(100_000) < p).astype(np.uint8)
    outs1 = rk_gauss_array(bits_p, mu, p, q, n_iter, RngStream(4))
    stat, pval = sst.kstest(outs1, lambda x: sst.norm.cdf(x, loc=mu))
    assert pval > 1e-4


def test_rk_gauss_bound_enforced():
    # gaussianize is the kernel's bound-checking entry point.
    p, q, n = 0.75, 0.25, 32
    bound = gaussianize_mu_bound(p, q, n, n)
    M = np.ones((n, n), dtype=np.uint8)
    with pytest.raises(ParameterError, match="proven bound"):
        gaussianize(M, p, q, 2 * bound, RngStream(5))
    rk_gauss_array(M, 2 * bound, p, q, 10, RngStream(5))  # the bound-free kernel


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk_gauss_rejects_nonfinite_mu(bad):
    bits = np.array([0, 1, 1], dtype=np.uint8)
    with pytest.raises(ParameterError, match="finite"):
        rk_gauss_array(bits, bad, 0.75, 0.25, 10, RngStream(1))
    with pytest.raises(ParameterError, match="one scalar"):  # an array of means
        rk_gauss_array(bits, np.array([0.1, bad, 0.1]), 0.75, 0.25, 10, RngStream(1))


def test_rk_gauss_rejects_negative_mu():
    bits = np.array([0, 1, 1], dtype=np.uint8)
    for mu, says in ((-0.1, "nonnegative"), (np.array([0.1, -1e-9, 0.1]), "one scalar")):
        with pytest.raises(ParameterError, match=says):
            rk_gauss_array(bits, mu, 0.75, 0.25, 10, RngStream(1))
        with pytest.raises(ParameterError, match=says):
            gaussianize(bits[None, :], 0.75, 0.25, mu, RngStream(1))


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
    stat, pval = sst.kstest(X.ravel(), sst.norm.cdf)
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
    X = gaussianize(M, P, Q, tau, RngStream(10))
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gaussianize_rejects_nonfinite_mu(bad):
    M = np.zeros((10, 10), dtype=np.uint8)
    mu_matrix = np.zeros((10, 10))
    mu_matrix[3, 4] = bad
    for mu, says in ((bad, "finite"), (mu_matrix, "one scalar")):
        with pytest.raises(ParameterError, match=says):
            gaussianize(M, 0.75, 0.25, mu, RngStream(11))


def _bits(shape, rate, seed):
    return (RngStream(seed).child("bits").generator().random(shape) < rate).astype(np.uint8)


def test_gaussianize_blocks_null_marginals():
    # 2.25 M entries span several blocks of whole rows; with mu = 0 both
    # input bits map to N(0, 1) in the first block (the kernel's own stream)
    # and in the last, short one (a keyed substream) alike.
    M = _bits((1500, 1500), 0.5, 40)
    per_block = _BLOCK // M.shape[1]
    assert M.shape[0] > 2 * per_block and M.shape[0] % per_block
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(41))
    for rows in (slice(0, per_block), slice(M.shape[0] // per_block * per_block, None)):
        for bit in (0, 1):
            stat, pval = sst.kstest(X[rows][M[rows] == bit], sst.norm.cdf)
            assert pval > 1e-4, (rows, bit, pval)


def test_gaussianize_same_seed_same_bytes():
    M = _bits((1500, 1500), 0.5, 44)
    a, b, c = (gaussianize(M, 0.75, 0.25, 0.05, RngStream(s)) for s in (45, 45, 46))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_gaussianize_bytes_independent_of_workers(on_workers):
    # Serial (one block in flight), the default pool, and a pool with more
    # workers than cores give the same bytes.
    M = _bits((1500, 1500), 0.5, 53)

    def run():
        return gaussianize(M, 0.75, 0.25, 0.05, RngStream(54)).tobytes()

    serial = on_workers(run, cap=1)
    assert on_workers(run) == serial
    assert on_workers(run, 8, 8) == serial


def _reference_rk_gauss_block(bits, mu, out, p, q, n_iter, gen):
    """The one-block rejection loop as it was written before the leaner
    loop: a pre-test t <= L, then the uniform, and two masks per step."""
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
                break
            if branch == 0:
                t = mu * z - 0.5 * mu * mu
                with np.errstate(over="ignore"):
                    acc = t <= log_pq
                    acc &= gen.random(rem.size) < 1.0 - np.exp(t - log_pq)
            else:
                s = -mu * z - 0.5 * mu * mu
                with np.errstate(over="ignore"):
                    acc = s <= -log_1p_1q
                    acc &= gen.random(rem.size) < 1.0 - np.exp(log_1p_1q + s)
                z += mu
            out[rem[acc]] = z[acc]
            rem = rem[~acc]


@pytest.mark.parametrize("P, Q", [(1.0, 0.25), (0.75, 0.25)])
@pytest.mark.parametrize("mu_kind", ["scalar", "array"])
@pytest.mark.parametrize("case", ["mixed", "all-zero", "all-one", "budget-runs-out"])
def test_rk_gauss_block_matches_the_reference_loop(P, Q, mu_kind, case):
    # Same values, same fallbacks, and the generator left in the same place.
    size = 20_000
    bits = {"mixed": _bits(size, 0.3, 56), "all-zero": np.zeros(size, np.uint8),
            "all-one": np.ones(size, np.uint8), "budget-runs-out": _bits(size, 0.3, 56)}[case]
    n_iter = 1 if case == "budget-runs-out" else 40
    mu = 0.3
    if mu_kind == "array":  # the kernel takes one scalar mean, not one per entry
        mu = RngStream(57).generator().random(size) * 0.6
        with pytest.raises(ParameterError, match="one scalar"):
            rk_gauss_array(bits, mu, P, Q, n_iter, RngStream(58))
        return
    outs = []
    for block in (kernels._rk_gauss_block, _reference_rk_gauss_block):
        out = np.zeros(size)
        gen = RngStream(58).generator()
        block(bits, mu, out, P, Q, n_iter, gen)
        outs.append((out.tobytes(), gen.random(4).tobytes()))
    assert outs[0] == outs[1]
    if case == "budget-runs-out":
        assert (np.frombuffer(outs[0][0]) == 0.0).sum() > 1000


# sha256 of outputs on a one-block input (262,000 entries), which draws from
# the kernel's own stream alone.  A change to that stream must change these
# pins and say so.
_ONE_BLOCK_GOLDEN = {
    "gaussianize": "5aa76ea9fe8ebb9deead58c1553305cb42609f161632ada57b1b02012c28c96f",
    "rk_gauss_array": "f9be2d0ffb156d598a5ef2f7501ed8b4e0cf0c584b33ebc3366486b4996d931e",
}


@pytest.mark.pinned
def test_one_block_input_keeps_its_bytes():
    M = _bits((400, 655), 0.5, 50)
    assert M.size <= _BLOCK
    outs = {"gaussianize": gaussianize(M, 0.75, 0.25, 0.05, RngStream(51)),
            "rk_gauss_array": rk_gauss_array(M, 0.3, 1.0, 0.25, 40, RngStream(52))}
    assert {name: hashlib.sha256(x.tobytes()).hexdigest()
            for name, x in outs.items()} == _ONE_BLOCK_GOLDEN


def test_gaussianize_blocks_never_share_a_stream(monkeypatch):
    # Every block gets its own generator, keyed by a distinct stream, and
    # two blocks of an all-zero null input draw different values.  A column
    # is rows of one entry, so its blocks are _BLOCK entries each.
    keys = []
    generator = RngStream.generator

    def spy(stream):
        keys.append(stream.key())
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", spy)
    M = np.zeros((3 * _BLOCK + 5, 1), dtype=np.uint8)
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(55)).ravel()
    assert len(keys) == 4 and len(set(keys)) == 4
    for head in (X[::_BLOCK], X[1::_BLOCK]):  # entry 0 and 1 of each block
        assert np.unique(head).size == 4


@pytest.mark.parametrize("mu", [0.05, "matrix"])
def test_gaussianize_transient_memory_bounded(mu):
    # The rejection loop's temporaries are those of at most _MAX_IN_FLIGHT
    # blocks: the peak allocation inside the call exceeds its output by at
    # most a fixed allowance.
    M = _bits((2000, 2000), 0.5, 47)
    if mu == "matrix":  # the kernel takes one scalar mean, not one per entry
        with pytest.raises(ParameterError, match="one scalar"):
            gaussianize(M, 0.75, 0.25, np.full(M.shape, 0.05), RngStream(48))
        return
    tracemalloc.start()
    try:
        X = gaussianize(M, 0.75, 0.25, mu, RngStream(48))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes + 64 * 2 ** 20


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_gaussianize_hands_each_block_to_use_once(monkeypatch, on_workers, cpus):
    # A (k, m, c) stack: ``use`` gets every block of every part once, as
    # (j, first_row, rows) with ``rows`` whole rows of part j, the first
    # rows tile each part, and the call returns nothing; put back together,
    # the blocks are the bytes of the call without ``use``.  Part j draws
    # from the kernel stream's child("part", j), in blocks, with the budget
    # and the mean bound of the whole m x k c matrix.  Blocks of 10,000
    # entries hold 9 rows of 1001, so each part ends in a block of 3 rows;
    # blocks of 500 entries are shorter than a row, so each row is a block.
    M = _bits((5, 300, 1001), 0.5, 60)
    P, Q, mu, rng = 0.75, 0.25, 0.05, RngStream(61)
    n_iter = math.ceil(3.0 * math.log(300 * 5005) / rejection_delta(P, Q))
    stream = rng.child("gaussianize")
    for block, per_block in ((10_000, 9), (500, 1)):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        whole = gaussianize(M, P, Q, mu, rng)
        assert whole.shape == M.shape
        seen = []

        def use(j, first, rows):
            seen.append((j, first, rows.copy()))

        assert on_workers(lambda: gaussianize(M, P, Q, mu, rng, use), cpus, 8) is None
        assert sorted((j, first) for j, first, _ in seen) == [
            (j, first) for j in range(5) for first in range(0, 300, per_block)]
        out = np.full(M.shape, np.nan)
        for j, first, rows in seen:
            assert rows.shape == (min(per_block, 300 - first), 1001)
            out[j, first:first + len(rows)] = rows
        assert out.tobytes() == whole.tobytes()
        for j in range(5):
            ref = kernels._rk_gauss_core(M[j][None], mu, P, Q, n_iter, [stream.child("part", j)])
            assert ref[0].tobytes() == whole[j].tobytes()
    with pytest.raises(ParameterError, match="proven bound"):
        gaussianize(M, P, Q, gaussianize_mu_bound(P, Q, 300, 5005) * 1.01, rng)


def test_gaussianize_matrix_is_part_zero():
    # A 2-D matrix is the one-part stack on the kernel's own stream: ``use``
    # gets its blocks of whole rows as part 0, with the bytes of the call
    # without ``use``.
    M = _bits((600, 700), 0.5, 64)
    whole = gaussianize(M, 0.75, 0.25, 0.05, RngStream(65))
    seen = {}
    gaussianize(M, 0.75, 0.25, 0.05, RngStream(65),
                lambda j, first, rows: seen.setdefault((j, first), rows))
    assert sorted(seen) == [(0, first) for first in range(0, 600, _BLOCK // 700)]
    assert np.concatenate([seen[key] for key in sorted(seen)]).tobytes() == whole.tobytes()


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_gaussian_kernel_rejects_entries_outside_0_1(monkeypatch, bad):
    # An entry outside {0, 1} fails in the block that holds it, here the
    # last of three, instead of coming out as the 0.0 initializer; ``use``
    # never sees that block.
    monkeypatch.setattr(kernels, "_BLOCK", 100)
    M = _bits((30, 10), 0.5, 68).astype(float)
    M[-1, -1] = bad
    used = []
    with pytest.raises(ParameterError, match=r"in \{0, 1\}"):
        gaussianize(M, 0.75, 0.25, 0.05, RngStream(69), lambda j, first, rows: used.append(first))
    assert 20 not in used
    with pytest.raises(ParameterError, match=r"in \{0, 1\}"):
        rk_gauss_array(M.ravel(), 0.3, 0.75, 0.25, 10, RngStream(69))


def test_gaussianize_rejects_an_empty_input():
    for shape in ((0, 5), (3, 0), (2, 0, 4)):
        with pytest.raises(ParameterError, match="nonempty"):
            gaussianize(np.zeros(shape, dtype=np.uint8), 0.75, 0.25, 0.05, RngStream(70))


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_gaussianize_holds_one_block_per_worker(on_workers, cpus):
    # Given ``use``, a block's output lives from its start to its use, and
    # no part is ever held whole: the traced peak is at most four
    # block-sized float64 arrays per worker (the block and its rejection
    # temporaries), 8 MB, well under one 16 MB part, let alone the 125 MB
    # whole output.
    M = _bits((8, 2000, 1024), 0.5, 66)

    def run():
        tracemalloc.start()
        try:
            gaussianize(M, 0.75, 0.25, 0.05, RngStream(67), lambda j, start, block: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert on_workers(run, cpus, 4) < cpus * 4 * 8 * _BLOCK


def test_srk3_branch_formulas_reconstruct_likelihoods():
    # The three acceptance branches, mixed with the ternary input weights,
    # must reconstruct dP+/dQ, 1 and dP-/dQ pointwise; this pins down every
    # branch formula including the B = -1 sign convention.
    a, mu1, mu2, shift = 0.7, 0.04, 0.002, 0.05
    x = np.linspace(-3, 3, 41)
    lr_p = np.exp(kernels._log_ratio(x, shift))
    lr_m = np.exp(kernels._log_ratio(x, -shift))
    l1 = lr_p - lr_m
    l2 = lr_p + lr_m - 2.0
    A_plus = 1.0 + (a / (4 * mu2)) * l2 + l1 / (4 * mu1)
    A_zero = 1.0 - ((1 - a) / (4 * mu2)) * l2
    A_minus = 1.0 + (a / (4 * mu2)) * l2 - l1 / (4 * mu1)
    for m1, target in ((mu1, lr_p), (-mu1, lr_m), (0.0, np.ones_like(x))):
        w_m, w_0, w_p = tern_pmf(a, m1, mu2 if m1 else 0.0)
        mix = w_p * A_plus + w_0 * A_zero + w_m * A_minus
        assert_allclose(mix, target, atol=1e-12)


def _srk3_row(bits, shift, params, n_iter, rng):
    """srk3 on the one row ``bits`` toward N(shift, 1), N(-shift, 1), N(0, 1)."""
    out, _ = srk3_array(bits[None], [shift], *params, n_iter, [rng])
    return out[0]


def test_srk3_zero_branch_single_round_acceptance():
    # B = 0, one iteration: acceptance frequency matches
    # E_Q[ 1_S(x) * (1/2) (1 - (1-a)/(4 mu2) L2(x)) ].
    a, mu1, mu2, shift = 0.68, 0.01, 5e-4, 0.02
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
    out = _srk3_row(bits, shift, (a, mu1, mu2), 1, rng)
    freq = float((out != init).mean())
    assert abs(freq - expect) < 4 * math.sqrt(expect * (1 - expect) / bits.size)


def test_srk3_degenerate_identity(tern_bits):
    # P+ = P- = Q: L1 = L2 = 0, every branch accepts w.p. 1/2 and the output
    # is exactly Q regardless of the input symbol.
    bits = tern_bits(0.5, 0.1, 0.05, RngStream(13).child("bits"), 50_000)
    out = _srk3_row(bits, 0.0, (0.5, 0.1, 0.05), 30, RngStream(13).child("k"))
    stat, pval = sst.kstest(out, sst.norm.cdf)
    assert pval > 1e-4


def test_srk3_three_marginals_ks(tern_bits):
    # shift must sit well inside the mu1/mu2 gates (mu1/shift ~ 13 here);
    # at larger shifts the kernel visibly truncates and the TV guarantee
    # degrades, which test_srk3_gate_truncation pins from the other side.
    shift = 3e-4
    mu = 0.016
    a, mu1, mu2 = tern_params_from_truncation(1.0, mu)
    for law, loc, tag in (((a, mu1, mu2), shift, "p"),
                          ((a, -mu1, mu2), -shift, "m"),
                          ((a, 0.0, 0.0), 0.0, "q")):
        bits = tern_bits(*law, RngStream(14).child("b" + tag), 100_000)
        out = _srk3_row(bits, shift, (a, mu1, mu2), 50, RngStream(14).child("k" + tag))
        stat, pval = sst.kstest(out, lambda x, s=loc: sst.norm.cdf(x, loc=s))
        assert pval > 1e-4, (tag, stat, pval)


def test_srk3_gate_truncation(tern_bits):
    # When the target shift crowds the mu1 gate the output is visibly a
    # truncated law: the kernel only promises closeness while the gate
    # failure mass is negligible.
    shift, mu = 3e-3, 0.016
    a, mu1, mu2 = tern_params_from_truncation(1.0, mu)
    bits = tern_bits(a, 0.0, 0.0, RngStream(24).child("b"), 50_000)
    out = _srk3_row(bits, shift, (a, mu1, mu2), 50, RngStream(24).child("k"))
    cut = mu1 / shift  # the |L1| gate collapses to roughly |x| <= mu1/shift
    assert cut < 2.0
    assert np.abs(out).max() < cut * 1.5


def test_srk3_parameter_errors():
    one = np.array([[0]])
    with pytest.raises(ParameterError):
        srk3_array(one, [0.1], 0.5, 0.0, 0.01, 10, [RngStream(15)])  # mu1 = 0
    with pytest.raises(ParameterError):
        srk3_array(one, [0.1], 0.5, 0.3, 0.01, 10, [RngStream(15)])  # Tern invalid
    with pytest.raises(ParameterError):
        srk3_array(one + 2, [0.1], 0.5, 0.01, 0.01, 10, [RngStream(15)])  # bad symbol
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite shifts"):
            srk3_array(one, [bad], 0.5, 0.01, 0.01, 10, [RngStream(15)])


def _srk3_reference(bits, shift, a, mu1, mu2, n_iter, rng):
    """The one-row srk3 loop that the blocked kernel replaced, at the row's
    scalar mean shift, kept as the reference for its bytes; returns (out,
    entries that kept the initializer)."""
    gen = rng.child("srk3").generator()
    out = gen.standard_normal(bits.size)
    flat_bits = bits.ravel()
    gate2 = 2.0 * abs(mu2) / max(a, 1.0 - a)
    remaining = np.arange(flat_bits.size)
    for _ in range(n_iter):
        if remaining.size == 0:
            break
        z = gen.standard_normal(remaining.size)
        u = gen.random(remaining.size)
        # log dN(+-shift, 1)/dN(0, 1) = +-shift z - shift^2 / 2
        lr_p = np.exp(shift * z - 0.5 * shift * shift)
        lr_m = np.exp(-shift * z - 0.5 * shift * shift)
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
        accept = gated & (u < p_acc)
        out[remaining[accept]] = z[accept]
        remaining = remaining[~accept]
    return out.reshape(bits.shape), remaining.size


@pytest.fixture
def srk3_rows(tern_bits):
    """``srk3_rows(n, d, seed, shifts=None)``: an (n, d) ternary input, one
    mean shift and one stream per row, and srk3 parameters whose gates cut
    a sizeable share of Q's mass (about the benchmark's regime)."""

    def build(n, d, seed, shifts=None):
        a, mu1, mu2 = tern_params_from_truncation(1.0, 0.016)
        rng = RngStream(seed)
        bits = tern_bits(a, mu1, mu2, rng.child("bits"), n * d).reshape(n, d)
        if shifts is None:
            shifts = 1e-2 * rng.child("nu").generator().standard_normal(n)
        streams = [rng.child("srk3", i) for i in range(n)]
        return bits, np.asarray(shifts, dtype=float), streams, (a, mu1, mu2)

    return build


def _srk3_reference_rows(bits, shifts, streams, params, n_iter):
    rows = [_srk3_reference(b, shift, *params, n_iter, s)
            for b, shift, s in zip(bits, shifts, streams)]
    return np.stack([out for out, _ in rows]), sum(left for _, left in rows)


@pytest.mark.parametrize("n, d, block", [
    (10, 20, 64),     # 3 rows a block: 10 is not a multiple
    (5, 100, 64),     # a row longer than a block: one row a block
    (300, 1000, None),  # the default block, 262 rows, and a short last block
    (1, 5000, None),  # one row, passed as bits[None], [shift], [stream]
])
def test_srk3_blocks_match_the_one_row_loop(monkeypatch, n, d, block, srk3_rows):
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    bits, shifts, streams, params = srk3_rows(n, d, 60)
    shifts[-1] = 5.0  # far past the gates: every entry of the last row falls back
    out, fallback = srk3_array(bits, shifts, *params, 30, streams)
    ref, ref_fallback = _srk3_reference_rows(bits, shifts, streams, params, 30)
    assert out.shape == (n, d) and out.tobytes() == ref.tobytes()
    assert fallback == ref_fallback >= d


def _gates(a, mu1, mu2):
    return 2.0 * abs(mu1), 2.0 * abs(mu2) / max(a, 1.0 - a)


def _gated(x, shift, gate1, gate2):
    """Which x pass both srk3 gates at a shift, in the kernel's float
    operations."""
    lr_p = np.exp(kernels._log_ratio(x, shift))
    lr_m = np.exp(kernels._log_ratio(x, -shift))
    return (np.abs(lr_p - lr_m) <= gate1) & (np.abs(lr_p + lr_m - 2.0) <= gate2)


@pytest.mark.parametrize("tau, mu", [(1.0, 0.016), (0.5, 0.01), (2.0, 0.3), (1.5, 1e-4)])
def test_gate_empty_settles_exactly_the_rows_without_a_gated_point(tau, mu):
    # The closed form is sound (a settled shift has no gated point on a
    # dense grid or among 10^5 draws from Q) and tight: with edge the shift
    # where 4 exp(-s^2) meets (2 - gate2)^2 - gate1^2, each shift inside it
    # (up to 0.99 edge here) has a gated grid point and each one past it
    # (from 1.01 edge) is settled.
    gate1, gate2 = _gates(*tern_params_from_truncation(tau, mu))
    edge = math.sqrt(-math.log(((2.0 - gate2) ** 2 - gate1 ** 2) / 4.0))
    x = np.concatenate([np.linspace(-10.0, 10.0, 200_001),
                        RngStream(67).child("q").generator().standard_normal(100_000)])
    ratios = np.array([0.0, 0.5, 0.99, 1.01, 2.0, 10.0, 1e3])
    shifts = np.concatenate([ratios, -ratios]) * edge
    settled = kernels._gate_empty(shifts, gate1, gate2)
    assert settled.shape == shifts.shape
    hit = np.array([_gated(x, shift, gate1, gate2).any() for shift in shifts])
    assert not (settled & hit).any()
    inside = np.abs(shifts) < edge
    assert hit[inside].all() and settled[~inside].all()


def _count_ratio_calls(monkeypatch, record):
    """Make srk3's log-ratio call ``record(x, shift)`` before each
    evaluation."""
    ratio = kernels._log_ratio

    def counted(x, shift, out=None):
        record(x, shift)
        return ratio(x, shift, out)

    monkeypatch.setattr(kernels, "_log_ratio", counted)


def test_srk3_row_that_falls_back_everywhere(monkeypatch, srk3_rows):
    # A shift far past the gates has an empty gate set, so srk3 settles
    # row 1 before its loop: it keeps its initializer whole and never
    # reaches the ratios, and the rows around it are unaffected.
    bits, shifts, streams, params = srk3_rows(3, 50, 61, shifts=[1e-4, 5.0, -1e-4])
    assert kernels._gate_empty(shifts, *_gates(*params)).tolist() == [False, True, False]
    seen = []
    _count_ratio_calls(monkeypatch, lambda x, shift: seen.append(np.unique(np.abs(shift))))
    out, fallback = srk3_array(bits, shifts, *params, 20, streams)
    ref, ref_fallback = _srk3_reference_rows(bits, shifts, streams, params, 20)
    assert out.tobytes() == ref.tobytes()
    init = streams[1].child("srk3").generator().standard_normal(50)
    assert np.array_equal(out[1], init)
    assert fallback == ref_fallback == 50
    assert seen and 5.0 not in np.concatenate(seen)
    # a block of settled rows alone makes no ratio call at all
    seen.clear()
    out, fallback = srk3_array(bits[1:2], shifts[1:2], *params, 20, streams[1:2])
    assert seen == [] and fallback == 50 and np.array_equal(out[0], init)


def test_srk3_evaluates_the_ratios_once_per_block_step(monkeypatch, on_workers, srk3_rows):
    # Two log-ratio calls per block step, at +shift and -shift of every
    # open entry, whatever the number of rows in the block.  Each shift lies
    # just inside its gate set's edge, where at most about 2% of Q passes
    # the gates, so no row is settled and each block runs all 20 steps.  The
    # blocks run one at a time, so that their calls do not interleave.
    monkeypatch.setattr(kernels, "_BLOCK", 2 * 50)
    bits, shifts, streams, params = srk3_rows(
        5, 50, 66, shifts=[0.0102, -0.0102, 0.01025, -0.01025, 0.0102])
    assert not kernels._gate_empty(shifts, *_gates(*params)).any()
    calls = []
    _count_ratio_calls(monkeypatch,
                       lambda x, shift: calls.append((np.shape(x), np.shape(shift))))
    _, fallback = on_workers(lambda: srk3_array(bits, shifts, *params, 20, streams), cap=1)
    assert 0 < fallback < bits.size
    assert len(calls) == 2 * 20 * 3  # 3 blocks (2, 2 and 1 rows) of 20 steps
    assert calls[0::2] == calls[1::2]  # the pair of one step: +shift, then -shift
    assert all(x_shape == s_shape for x_shape, s_shape in calls)  # one shift per open entry
    assert [calls[i][1][0] for i in (0, 40, 80)] == [100, 100, 50]  # each block's first step


def test_srk3_bytes_independent_of_workers(monkeypatch, on_workers, srk3_rows):
    # Serial, the default pool, and more workers than cores give the same
    # bytes.
    monkeypatch.setattr(kernels, "_BLOCK", 4 * 300)
    bits, shifts, streams, params = srk3_rows(40, 300, 63)

    def run():
        return srk3_array(bits, shifts, *params, 30, streams)[0].tobytes()

    serial = on_workers(run, cap=1)
    assert on_workers(run) == serial
    assert on_workers(run, 8, 8) == serial


def test_srk3_transient_memory_bounded(monkeypatch, srk3_rows):
    # The loop's temporaries are those of at most _MAX_IN_FLIGHT row blocks
    # (all of them in flight here, whatever the host's core count): the peak
    # allocation inside the call exceeds its output by a fixed allowance.
    monkeypatch.setattr(prob, "_usable_cpus", lambda: prob._MAX_IN_FLIGHT)
    bits, shifts, streams, params = srk3_rows(512, 4096, 64)
    tracemalloc.start()
    try:
        X, _ = srk3_array(bits, shifts, *params, 62, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes + 64 * 2 ** 20


def test_srk3_needs_one_pair_and_stream_per_row(srk3_rows):
    # one shift and one stream per row of a 2-D stack, and nothing but a stack
    bits, shifts, streams, params = srk3_rows(4, 10, 65)
    for shift_arg, stream_arg in ((shifts[:3], streams), (np.tile(shifts, 2), streams),
                                  (shifts.reshape(2, 2), streams), (shifts, streams[:1]),
                                  (shifts[0], streams[0]), (shifts, streams[0])):
        with pytest.raises(ParameterError, match="4-row input"):
            srk3_array(bits, shift_arg, *params, 10, stream_arg)
    for shape in (bits[0], bits[None]):  # one row must come as bits[None]
        with pytest.raises(ParameterError, match="2-D stack"):
            srk3_array(shape, shifts[:1], *params, 10, streams[:1])


def test_truncate_tern():
    assert truncate_tern(0.5, 1.0) == 0
    assert truncate_tern(-2.0, 1.0) == -1
    assert truncate_tern(1.0, 1.0) == 0  # boundary is inclusive
    assert truncate_tern(1.0000001, 1.0) == 1
    np.testing.assert_array_equal(truncate_tern(np.array([-5, 0, 5]), 2.0), [-1, 0, 1])
    assert truncate_tern(np.array([-5, 0, 5]), 2.0).dtype == np.int8
    with pytest.raises(ParameterError):
        truncate_tern(0.0, 0.0)


def test_tern_pmf_examples():
    assert_allclose(tern_pmf(0.5, 0.0, 0.0), (0.25, 0.5, 0.25))
    assert_allclose(tern_pmf(0.5, 0.1, 0.0), (0.15, 0.5, 0.35))
    with pytest.raises(ParameterError, match="-1"):
        tern_pmf(0.2, 0.5, 0.0)  # outcome -1 mass would be -0.1


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
    # E_Q[dN(s, 1)/dQ] = 1 at several mean shifts s, evaluated with the
    # shifts broadcast against the draws from Q = N(0, 1).
    shifts = np.array([-0.3, -0.12, 0.0, 0.075, 0.3])
    x = RngStream(17).child("unit-mean").generator().standard_normal(100_000)
    lr = np.exp(kernels._log_ratio(x[:, None], shifts))
    assert lr.shape == (x.size, shifts.size)
    assert np.all(np.abs(lr.mean(axis=0) - 1.0) <= 5.0 * lr.std(axis=0) / math.sqrt(x.size) + 1e-12)


def test_gaussianize_then_rotation_isotropy():
    # Null Gaussianize output right-multiplied by any orthonormal-row matrix
    # stays isotropic.
    from avgcase.geometry import build_H

    M = (RngStream(30).child("bits").generator().random((300, 27)) < 0.25).astype(np.uint8)
    X = gaussianize(M, 0.75, 0.25, 0.0, RngStream(31))
    H = build_H(3, 3)  # 13 x 27, orthonormal rows
    Y = X @ H.T
    cov = covariance_identity_check(Y, rng=RngStream(32))
    assert cov["offdiag_pass"] and cov["diag_pass"]
    assert abs(Y.var() - 1.0) < 5.0 * math.sqrt(2.0 / Y.size)
