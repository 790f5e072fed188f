"""Tests for the reduction pipelines and the parameter planner."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from avgcase import pipelines, prob
from avgcase.errors import ParameterError
from avgcase.geometry import build_H
from avgcase.graphs import Graph, sample_gnq, sample_k_pds
from avgcase.pipelines import (clone_Q, clone_pmfs, graph_clone, check_uc,
                               isgm_mu_prime, isgm_sample_clone,
                               pds_to_glsm, pds_to_isgm, pds_to_semi_cr,
                               plan_parameters, sample_isgm, semi_cr_mus,
                               spca_family, to_k_partite_submatrix)
from avgcase.kernels import PairFamily, gaussianize, gaussianize_mu_bound
from avgcase.prob import Gaussian, RngStream
from avgcase.verify import chi2_test


# ---------------------------------------------------------------------------
# clone parameters and graph cloning
# ---------------------------------------------------------------------------

def test_clone_q_values():
    assert clone_Q(1.0, 0.25) == 0.5  # p = 1 branch collapses to sqrt(q)
    # direct formula evaluation for the generic branch
    assert abs(clone_Q(0.75, 0.25) - (1.0 - math.sqrt(0.75 * 0.25))) < 1e-15


def test_clone_pmfs_sums_and_identity():
    for p, q in [(0.75, 0.25), (1.0, 0.25)]:
        Q = clone_Q(p, q)
        edge, non = clone_pmfs(p, q, p, Q, 2)
        assert np.all(edge >= 0) and np.all(non >= 0)
        assert abs(edge.sum() - 1.0) < 1e-12
        assert abs(non.sum() - 1.0) < 1e-12
    # t = 1 with (P, Q) = (p, q) is the identity kernel
    edge, non = clone_pmfs(0.7, 0.2, 0.7, 0.2, 1)
    assert_allclose(edge, [0.0, 1.0], atol=1e-12)
    assert_allclose(non, [1.0, 0.0], atol=1e-12)


def test_clone_pmfs_rejects_invalid():
    with pytest.raises(ParameterError):
        clone_pmfs(0.75, 0.25, 0.75, 0.3, 2)  # (P/Q)^t > p/q
    with pytest.raises(ParameterError, match="v="):
        clone_pmfs(0.6, 0.5, 0.9, 0.2, 2)


def test_graph_clone_single_pair_exact_law():
    # n = 2 single-pair graph under H0: the pair of clone indicators follows
    # Bern(Q)^{x2}; chi-square on the four outcomes over 1e5 trials.
    p, q = 0.75, 0.25
    Q = clone_Q(p, q)
    rng = RngStream(100)
    counts = np.zeros(4)
    trials = 100_000
    gen = rng.child("edges").generator()
    edges = gen.random(trials) < q
    for i in range(trials):
        G = Graph.from_triu(2, np.array([edges[i]]))
        g1, g2 = graph_clone(G, 2, p, q, p, Q, rng.child("c", i))
        counts[2 * g1.edge_count + g2.edge_count] += 1
    probs = np.array([(1 - Q) ** 2, (1 - Q) * Q, Q * (1 - Q), Q * Q])
    stat, pval = chi2_test(counts, probs * trials)
    assert pval > 1e-4


def test_graph_clone_marginals_h0():
    # t = 3 needs its own (P, Q): solve P/Q = (p/q)^(1/3) and
    # (1-P)/(1-Q) = ((1-p)/(1-q))^(1/3) so both pmf constraints bind exactly.
    p, q = 0.75, 0.25
    c1 = (p / q) ** (1 / 3)
    c2 = ((1 - p) / (1 - q)) ** (1 / 3)
    Q = (1 - c2) / (c1 - c2)
    P = Q * c1
    G = sample_gnq(80, q, RngStream(101))
    clones = graph_clone(G, 3, p, q, P, Q, RngStream(102))
    pairs = 80 * 79 / 2
    for c in clones:
        z = (c.edge_count - pairs * Q) / math.sqrt(pairs * Q * (1 - Q))
        assert abs(z) < 4.5


# ---------------------------------------------------------------------------
# to-k-partite-submatrix
# ---------------------------------------------------------------------------

def test_submatrix_structure_and_errors():
    N, k, p, q = 32, 4, 0.75, 0.25
    G, tr = sample_k_pds(N, k, p, q, RngStream(103))
    M, tr2 = to_k_partite_submatrix(G, k, p, q, 120, RngStream(104), tr)
    assert M.shape == (120, 120) and M.dtype == np.uint8
    U = tr2.planted_set
    assert U.size == k
    assert sorted(U // (120 // k)) == list(range(k))  # one per part of M
    with pytest.raises(ParameterError, match="must divide"):
        to_k_partite_submatrix(G, k, p, q, 121, RngStream(105))  # k | m fails
    with pytest.raises(ParameterError, match="must divide"):
        to_k_partite_submatrix(G, 3, p, q, 120, RngStream(105))  # k | N fails
    with pytest.raises(ParameterError):
        to_k_partite_submatrix(G, k, p, q, 72, RngStream(105))  # m too small


def test_submatrix_draws_no_float64_matrix():
    # The Bern(Q) background is drawn in bands: the traced peak stays below
    # half of the m x m float64 draw the one-shot comparison would make.
    N, k, p, q = 1000, 8, 1.0, 0.25
    m = plan_parameters("ISGM", p, q, 2.0, r=2, N=N, k=k).m
    G, tr = sample_k_pds(N, k, p, q, RngStream(107))
    tracemalloc.start()
    try:
        M, _ = to_k_partite_submatrix(G, k, p, q, m, RngStream(108), tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (m, m) and peak < 4 * m * m


def test_submatrix_h0_entry_marginals():
    # Under H0 every off-diagonal entry is Bern(Q); pooled over entry classes
    # (same part / cross part) and resamples.
    N, k, p, q = 32, 4, 0.75, 0.25
    Q = clone_Q(p, q)
    m = 120
    hits = np.zeros(2)
    tots = np.zeros(2)
    part_of = np.arange(m) // (m // k)
    same = part_of[:, None] == part_of[None, :]
    off = ~np.eye(m, dtype=bool)
    for i in range(40):
        G = sample_gnq(N, q, RngStream(106).child("g", i))
        M, _ = to_k_partite_submatrix(G, k, p, q, m, RngStream(106).child("s", i))
        hits[0] += M[same & off].sum()
        tots[0] += (same & off).sum()
        hits[1] += M[~same].sum()
        tots[1] += (~same).sum()
    for h, t in zip(hits, tots):
        z = (h / t - Q) / math.sqrt(Q * (1 - Q) / t)
        assert abs(z) < 4, (h / t, Q)


def test_submatrix_h1_planted_block():
    # Conditioned on the embedded subset U, off-diagonal U x U entries are
    # Bern(p).
    N, k, p, q = 32, 4, 0.9, 0.2
    hits = tot = 0
    for i in range(600):
        G, tr = sample_k_pds(N, k, p, q, RngStream(107).child("g", i))
        M, tr2 = to_k_partite_submatrix(G, k, p, q, 128, RngStream(107).child("s", i), tr)
        U = tr2.planted_set
        block = M[np.ix_(U, U)]
        hits += block.sum() - np.trace(block)
        tot += U.size * (U.size - 1)
    z = (hits / tot - p) / math.sqrt(p * (1 - p) / tot)
    assert abs(z) < 4


def test_submatrix_h0_diagonal_support_law():
    # Within each part the diagonal support size follows Bin(m/k, Q).
    from avgcase.prob import Binomial, finite_pmf
    from avgcase.verify import chi2_gof_counts

    N, k, p, q = 32, 4, 0.75, 0.25
    Q = clone_Q(p, q)
    m = 120
    sizes = []
    for i in range(500):
        G = sample_gnq(N, q, RngStream(108).child("g", i))
        M, _ = to_k_partite_submatrix(G, k, p, q, m, RngStream(108).child("s", i))
        sizes.extend(np.diag(M).reshape(k, m // k).sum(axis=1).tolist())
    stat, pval = chi2_gof_counts(np.array(sizes, dtype=float),
                                 finite_pmf(Binomial(m // k, Q)))
    assert pval > 1e-4


# ---------------------------------------------------------------------------
# parameter planning
# ---------------------------------------------------------------------------

def test_plan_prime_selection():
    plan = plan_parameters("ISGM", 0.75, 0.25, 4.0, eps=0.3, N=32, k=4)
    assert plan.r == 5  # smallest prime > 1/0.3


def test_plan_q_and_delta_values():
    plan = plan_parameters("ISGM", 1.0, 0.25, 4.0, r=2, N=32, k=4)
    assert plan.Q == 0.5
    plan2 = plan_parameters("ISGM", 0.75, 0.25, 4.0, r=2, N=32, k=4)
    Q_expected = 1.0 - math.sqrt(3.0) / 4.0
    assert abs(plan2.Q - Q_expected) < 1e-12
    delta_expected = min(math.log(0.75 / Q_expected),
                         math.log((1 - Q_expected) / 0.25))
    assert abs(plan2.delta - delta_expected) < 1e-12


def test_plan_m_is_smallest_multiple_above():
    plan = plan_parameters("ISGM", 0.75, 0.25, 4.0, r=2, N=1600, k=8)
    ratio = plan.p / plan.Q + 1.0
    assert plan.m % 8 == 0
    assert plan.m > ratio * 1600
    assert plan.m - 8 <= ratio * 1600


def test_plan_structural_and_report():
    plan = plan_parameters("ISGM", 0.75, 0.25, 4.0, r=2, N=1600, k=8)
    assert plan.report["m_le_k_r^t"] and plan.report["k_le_QN_over_4"]
    assert plan.mu <= plan.report["proven_mu_bound"] * (1 + 1e-12)
    with pytest.raises(ParameterError):
        plan_parameters("ISGM", 0.75, 0.25, 4.0, r=4, N=1600, k=8)  # r not prime
    with pytest.raises(ParameterError):
        plan_parameters("NOPE", 0.75, 0.25, 4.0)


def test_plan_semi_cr():
    plan = plan_parameters("SEMI_CR", 1.0, 0.25, N=32, k=4, ell=2)
    assert plan.m % ((3 ** 2 - 1) * 4) == 0
    mu1, mu2, mu3 = semi_cr_mus(plan.mu, 2)
    assert plan.report["mu1"] == mu1 and plan.report["mu3"] == mu3
    assert plan.report["planted_size"] == 4
    assert plan.mu == gaussianize_mu_bound(plan.p, plan.Q, plan.m, plan.m)


def test_plan_semi_cr_reports_the_bound_it_enforces():
    # At the benchmark size the report checks mu against gaussianize's bound
    # on the m x m submatrix, and carries no ISGM-only condition.
    plan = plan_parameters("SEMI_CR", 1.0, 0.25, N=2000, k=8, ell=2)
    assert plan.m == 6016
    bound = gaussianize_mu_bound(plan.p, plan.Q, plan.m, plan.m)
    assert plan.report["proven_mu_bound"] == bound
    assert_allclose(bound, 0.0473, atol=5e-5)
    assert plan.report["mu_le_proven_bound"] is True
    for key in ("m_le_d", "n_over_eps_N", "m_le_k_r^t", "w_n_le_k_ell"):
        assert key not in plan.report


@pytest.mark.parametrize("target, kwargs", [
    ("SEMI_CR", {"ell": 0}),
    ("SEMI_CR", {"ell": 1}),
    ("SEMI_CR", {"ell": -1}),
    ("SEMI_CR", {"ell": 1.5}),
    ("ISGM", {"r": 2, "w": math.nan}),
    ("ISGM", {"r": 2, "w": math.inf}),
    ("ISGM", {"r": 2, "w": 0.0}),
])
def test_plan_rejects_bad_ell_and_w(target, kwargs):
    # SEMI_CR rows pass no w: a w there raises on its own and would hide ell
    with pytest.raises(ParameterError, match="ell" if target == "SEMI_CR" else "w must"):
        plan_parameters(target, 1.0, 0.25, N=32, k=4, **kwargs)


@pytest.mark.parametrize("target, kwargs, says", [
    ("ISGM", {"r": 2, "N": -4, "k": 4}, "N must be a positive integer"),
    ("ISGM", {"r": 2, "N": 32, "k": 0}, "k must be a positive integer"),
    ("ISGM", {"eps": 0.0, "N": 32, "k": 4}, "eps"),
    ("ISGM", {"eps": math.nan, "N": 32, "k": 4}, "eps"),
    ("ISGM", {"eps": -1.0, "N": 32, "k": 4}, "eps"),
    ("ISGM", {"eps": 2.0, "N": 32, "k": 4}, "eps"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "n": 0}, "n must be a positive integer"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "d": -5}, "d must be a positive integer"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "w": None}, "w must"),
    ("ISGM", {"eps": 1e-30, "N": 32, "k": 4}, "too small"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "t": 70}, "overflows 64 bits"),
    ("SEMI_CR", {"ell": 2, "N": -4, "k": 4}, "N must be a positive integer"),
    ("SEMI_CR", {"ell": 2, "N": 32, "k": 0}, "k must be a positive integer"),
    ("SEMI_CR", {"ell": 2, "N": 32, "k": 4, "w": 4.0}, "takes no w"),
    ("GLSM", {"n": 0, "k": 4}, "n must be a positive integer"),
    ("GLSM", {"n": -5, "k": 4}, "n must be a positive integer"),
    ("GLSM", {"n": 1, "k": 4}, "n >= 2"),
    ("GLSM", {"n": 64, "k": 4.0}, "k must be a positive integer"),
    # the GLSM source-size search grows 2^t until k (2^t - 1) >= w n, which
    # never holds at k <= 0: these two never returned
    ("GLSM", {"n": 64, "k": 0}, "k must be a positive integer"),
    ("GLSM", {"n": 64, "k": -2}, "k must be a positive integer"),
    ("GLSM", {"n": 64, "k": 4, "w": 1e308}, "2\\^62"),
    # r = 1,000,000,007 and t = 2: k r^t is 4.0e18 columns
    ("ISGM", {"eps": 1e-9, "N": 32, "k": 4}, "too large for one array"),
])
def test_plan_rejects_sizes_it_cannot_plan(target, kwargs, says):
    kwargs = {"w": None if target == "SEMI_CR" else 2.0, **kwargs}
    with pytest.raises(ParameterError, match=says):
        plan_parameters(target, 1.0, 0.25, **kwargs)


def test_plan_glsm_sizes():
    plan = plan_parameters("GLSM", 1.0, 0.25, 2.0, n=64, k=4, d=300)
    assert plan.r == 2 and plan.eps == 0.5
    assert plan.m <= plan.k * 2 ** plan.t
    assert plan.N % plan.k == 0
    assert plan.d == 300
    assert plan_parameters("GLSM", 1.0, 0.25, 2.0, n=64, k=4).d == plan.m


# ---------------------------------------------------------------------------
# pds_to_isgm
# ---------------------------------------------------------------------------

def _small_isgm_setup(seed=110, planted=True):
    p, q, N, k = 1.0, 0.25, 32, 4
    plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=N, k=k, t=5, n=40)
    if planted:
        G, tr = sample_k_pds(N, k, p, q, RngStream(seed))
    else:
        G, tr = sample_gnq(N, q, RngStream(seed)), None
    return G, plan, tr


def test_isgm_shape_and_determinism():
    G, plan, tr = _small_isgm_setup()
    a = pds_to_isgm(G, plan, RngStream(111), trace=tr)
    b = pds_to_isgm(G, plan, RngStream(111), trace=tr)
    assert a.samples.shape == (plan.n, plan.d)
    assert_array_equal(a.samples, b.samples)
    assert_array_equal(a.trace.planted_set, b.trace.planted_set)
    c = pds_to_isgm(G, plan, RngStream(112), trace=tr)
    assert not np.array_equal(a.samples, c.samples)


def test_isgm_bytes_independent_of_workers(monkeypatch):
    # The banded draws, the pad and the rotation: serial and 8 workers under
    # a short switch interval give the same bytes.
    G, plan, tr = _small_isgm_setup()
    monkeypatch.setattr(prob, "_BAND", 64)

    def run(cpus, cap):
        monkeypatch.setattr(prob, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(prob, "_MAX_IN_FLIGHT", cap)
        inst = pds_to_isgm(G, plan, RngStream(111), trace=tr)
        return inst.samples.tobytes(), inst.trace.planted_set.tobytes()

    serial = run(1, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(8, 8) == serial
    finally:
        sys.setswitchinterval(interval)


def test_isgm_trace_consistency():
    G, plan, tr = _small_isgm_setup()
    inst = pds_to_isgm(G, plan, RngStream(113), trace=tr)
    assert inst.trace.planted_set.size == plan.k
    assert np.all(inst.trace.component_set < plan.n)
    mu, eps = inst.trace.params["mu"], inst.trace.params["eps"]
    mu_p = inst.trace.params["mu_prime"]
    assert abs(eps * mu_p + (1 - eps) * mu) < 1e-18


def test_isgm_structural_errors(monkeypatch):
    G, plan, tr = _small_isgm_setup()
    plan.d = plan.m - 1
    with pytest.raises(ParameterError):
        pds_to_isgm(G, plan, RngStream(114))
    G, plan, tr = _small_isgm_setup()
    plan.mu *= 3.0
    with pytest.raises(ParameterError):
        pds_to_isgm(G, plan, RngStream(114), trace=tr)
    pds_to_isgm(G, plan, RngStream(114), trace=tr, allow_unproven=True)

    # A graph whose size is not the plan's N raises before any draw, in every
    # pipeline, with or without a trace.
    _, plan, _ = _small_isgm_setup()  # N = 32
    small, small_tr = sample_k_pds(16, 4, 1.0, 0.25, RngStream(115))
    large = sample_gnq(64, 0.25, RngStream(116))
    semi_plan = plan_parameters("SEMI_CR", 1.0, 0.25, N=32, k=4, ell=2)
    glsm_plan = plan_parameters("GLSM", 1.0, 0.25, 2.0, n=64, k=4)  # N = 84
    family, D = spca_family(64, 4, 1e-5)

    def no_draw(stream):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    for run, says in [
        (lambda: pds_to_isgm(small, plan, RngStream(117)), "16 vertices .* N=32"),
        (lambda: pds_to_isgm(small, plan, RngStream(117), trace=small_tr), "N=32"),
        (lambda: pds_to_isgm(large, plan, RngStream(117)), "64 vertices .* N=32"),
        (lambda: pds_to_semi_cr(small, semi_plan, RngStream(117), trace=small_tr), "N=32"),
        (lambda: pds_to_glsm(small, glsm_plan, 1.0, family, D, RngStream(117)), "N=84"),
    ]:
        with pytest.raises(ParameterError, match=says):
            run()


def test_isgm_h0_moments():
    G, plan, _ = _small_isgm_setup(planted=False)
    inst = pds_to_isgm(G, plan, RngStream(115))
    assert inst.trace.planted_set is None and inst.trace.component_set is None
    z_mean = inst.samples.mean() * math.sqrt(inst.samples.size)
    assert abs(z_mean) < 4
    assert abs(inst.samples.var() - 1.0) < 0.05


def test_sample_isgm_direct():
    inst = sample_isgm(500, 5, 40, 0.8, 0.25, RngStream(116))
    S = inst.trace.planted_set
    pos = np.zeros(500, dtype=bool)
    pos[inst.trace.component_set] = True
    mu_p = isgm_mu_prime(0.8, 0.25)
    z1 = (inst.samples[np.ix_(pos, S)].mean() - 0.8) * math.sqrt(pos.sum() * 5)
    z2 = (inst.samples[np.ix_(~pos, S)].mean() - mu_p) * math.sqrt((~pos).sum() * 5)
    assert abs(z1) < 4 and abs(z2) < 4
    from scipy.stats import binomtest

    assert binomtest(int(pos.sum()), 500, 0.75).pvalue > 1e-4


# ---------------------------------------------------------------------------
# sample cloning
# ---------------------------------------------------------------------------

def test_sample_clone_identity_at_zero():
    inst = sample_isgm(60, 4, 20, 0.5, 0.5, RngStream(117))
    out = isgm_sample_clone(inst, 0, 60, RngStream(118))
    # ell = 0 is a pure permutation of the samples
    a = np.sort(inst.samples.sum(axis=1))
    b = np.sort(out.samples.sum(axis=1))
    assert_allclose(a, b, atol=1e-12)


def test_sample_clone_counts_and_scaling():
    inst = sample_isgm(50, 4, 30, 1.0, 0.5, RngStream(119))
    m0 = inst.trace.component_set.size
    out = isgm_sample_clone(inst, 3, 8 * 50, RngStream(120))
    assert out.trace.params["pre_subsample_positive"] == 8 * m0
    assert out.trace.params["mu"] == pytest.approx(2 ** -1.5)
    pos = np.zeros(out.n, dtype=bool)
    pos[out.trace.component_set] = True
    S = out.trace.planted_set
    z = (out.samples[np.ix_(pos, S)].mean() - 2 ** -1.5) * math.sqrt(pos.sum() * S.size)
    assert abs(z) < 4
    assert abs(out.samples.var() - 1.0) < 0.05
    with pytest.raises(ParameterError):
        isgm_sample_clone(inst, 1, 200, RngStream(121))  # n' > 2^ell n


# ---------------------------------------------------------------------------
# semi-cr
# ---------------------------------------------------------------------------

def test_semi_cr_sizes_every_seed():
    p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=ell, n=128)
    for seed in range(5):
        G, tr = sample_k_pds(N, k, p, q, RngStream(200 + seed))
        G_out, otr = pds_to_semi_cr(G, plan, RngStream(300 + seed), trace=tr)
        S = otr.planted_set
        S2 = np.asarray(otr.params["S_prime"])
        assert S.size == (3 ** (ell - 1) - 1) * k // 2
        assert S2.size == 3 ** (ell - 1) * k
        assert np.intersect1d(S, S2).size == 0
        assert G_out.n == 128
        V = np.asarray(otr.params["V"])
        assert np.all(np.isin(S, V)) and np.all(np.isin(S2, V))


def test_semi_cr_h0_trace():
    p, q, N, k = 1.0, 0.25, 32, 4
    G = sample_gnq(N, q, RngStream(130))
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=2, n=64)
    G_out, otr = pds_to_semi_cr(G, plan, RngStream(131))
    assert otr.planted_set is None
    assert len(otr.params["V"]) == 64
    short = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=2, n=63)
    with pytest.raises(ParameterError):
        pds_to_semi_cr(G, short, RngStream(132))  # n below m''


def test_semi_cr_rejects_a_foreign_plan():
    p, q, N, k = 1.0, 0.25, 32, 4
    G = sample_gnq(N, q, RngStream(133))
    isgm_plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=N, k=k)
    with pytest.raises(ParameterError, match="SEMI_CR plan"):
        pds_to_semi_cr(G, isgm_plan, RngStream(134))
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=2)
    with pytest.raises(ParameterError, match="plan needs N=40"):  # another source size
        pds_to_semi_cr(G, plan_parameters("SEMI_CR", p, q, N=40, k=8, ell=2), RngStream(134))
    with pytest.raises(ParameterError, match="ISGM or GLSM plan"):  # and the other way round
        pds_to_isgm(G, plan, RngStream(134))


def _semi_cr_reference(G, plan, rng, trace):
    """The whole-matrix SEMI-CR algorithm: an m' x m' padded matrix, one
    two-sided einsum rotation and a tril_indices scatter of the thresholded
    entries.  Returns the output graph and the labels of V, S and S'."""
    k, ell, m, n, mu = plan.k, plan.ell, plan.m, plan.n, plan.mu
    three_l = 3 ** ell
    s = m // ((three_l - 1) * k)
    m_prime, m_rot, ks = three_l * k * s, m // 2, k * s
    M_PD, tr1 = to_k_partite_submatrix(G, k, plan.p, plan.q, m, rng.child("submatrix"), trace)
    M_G = gaussianize(M_PD, plan.p, plan.Q, mu, rng.child("gaussianize"))
    blk = three_l - 1
    old = np.arange(m)
    new_idx = (old // blk) * three_l + 1 + (old % blk)
    # Per block row: its offset-0 row, then its offset-0 column entries.
    fresh = rng.child("pad").generator().standard_normal((ks, m_prime + blk * ks))
    M_P = np.full((m_prime, m_prime), np.nan)
    for a in range(ks):
        M_P[a * three_l] = fresh[a, :m_prime]
        M_P[a * three_l + 1:(a + 1) * three_l, ::three_l] = fresh[a, m_prime:].reshape(blk, ks)
    M_P[np.ix_(new_idx, new_idx)] = M_G
    assert not np.isnan(M_P).any()
    H = build_H(3, ell).matrix
    M4 = M_P.reshape(ks, three_l, ks, three_l)
    M_R = np.einsum("xi,aibj,yj->axby", H, M4, H, optimize=True).reshape(m_rot, m_rot)
    adj = np.zeros((n, n), dtype=bool)
    low = np.tril_indices(m_rot, k=-1)
    vals = M_R[low] >= mu / (2.0 * three_l)
    adj[low] = vals
    adj[(low[1], low[0])] = vals
    gen5 = rng.child("pad-vertices").generator()
    if n > m_rot:
        fresh_cols = gen5.random((m_rot, n - m_rot)) < 0.5
        adj[:m_rot, m_rot:] = fresh_cols
        adj[m_rot:, :m_rot] = fresh_cols.T
        fresh_block = np.zeros((n - m_rot, n - m_rot), dtype=bool)
        fiu = np.triu_indices(n - m_rot, k=1)
        fresh_block[fiu] = gen5.random(fiu[0].size) < 0.5
        adj[m_rot:, m_rot:] = fresh_block | fresh_block.T
    vertex_src = gen5.permutation(n)
    adj = adj[np.ix_(vertex_src, vertex_src)]
    label_of = np.empty(n, dtype=np.int64)
    label_of[vertex_src] = np.arange(n)
    S_rows, S2_rows = [], []
    for u in tr1.planted_set:
        col = H[:, 1 + int(u % blk)]
        S_rows.extend(int(u // blk) * H.shape[0] + np.flatnonzero(col < 0))
        S2_rows.extend(int(u // blk) * H.shape[0] + np.flatnonzero(col > 0))
    iu = np.triu_indices(n, k=1)
    return (Graph.from_triu(n, adj[iu]), sorted(int(v) for v in label_of[:m_rot]),
            sorted(int(v) for v in label_of[S_rows]), sorted(int(v) for v in label_of[S2_rows]))


@pytest.mark.parametrize("ell, n, chunk", [
    (2, None, None),     # one step holds every block row
    (2, None, 1),        # one block row per step
    (2, 200, 3 * 9 * 144),  # three block rows per step, a ragged last step, n > m''
    (3, None, None),
    (3, 150, 1),
])
def test_semi_cr_matches_whole_matrix_reference(monkeypatch, ell, n, chunk):
    # The chunked pad/rotate/threshold loop gives the whole-matrix algorithm's
    # output bit for bit, whatever the chunk size.
    if chunk is not None:
        monkeypatch.setattr(pipelines, "_PAD_CHUNK", chunk)
    p, q, N, k = 1.0, 0.25, 32, 4
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=ell, n=n)
    G, tr = sample_k_pds(N, k, p, q, RngStream(170 + ell))
    G_out, otr = pds_to_semi_cr(G, plan, RngStream(180 + ell), trace=tr)
    G_ref, V, S, S2 = _semi_cr_reference(G, plan, RngStream(180 + ell), tr)
    assert G_out.n == plan.n and G_out == G_ref
    assert (otr.params["V"], otr.planted_set.tolist(), otr.params["S_prime"]) == (V, S, S2)


def test_semi_cr_builds_no_padded_matrix():
    # Traced peak: the Gaussianized m x m matrix, the n x n adjacency and a
    # fixed allowance; the m' x m' padded matrix (92 MB here) never exists.
    p, q, N, k = 1.0, 0.25, 1000, 8
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=2)
    G, tr = sample_k_pds(N, k, p, q, RngStream(190))
    tracemalloc.start()
    try:
        pds_to_semi_cr(G, plan, RngStream(191), trace=tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * plan.m ** 2 + plan.n ** 2 + 48 * 2 ** 20


# ---------------------------------------------------------------------------
# glsm + universality checker
# ---------------------------------------------------------------------------

def _mean_shifts(family, nus):
    # N(s, 1) against N(0, 1) has log-likelihood ratio s x - s^2 / 2, slope s
    return np.diff(family.log_likelihood_ratio([[0.0], [1.0]], nus), axis=0)[0]


def test_spca_family_is_the_corollary_configuration():
    n, k, theta = 10_000, 100, 1e-5
    family, D = spca_family(n, k, theta)
    assert D == Gaussian(0.0, 1.0 / math.sqrt(3.0 * math.log(n)))
    scale = math.sqrt(3.0 * theta * math.log(n) / k)
    x = np.linspace(-3.0, 3.0, 7)
    for nu in (-0.4, 0.0, 0.25):
        shift = nu * scale
        assert_array_equal(family.log_likelihood_ratio(x, nu), shift * x - 0.5 * shift * shift)
    # theta = 0 is the no-spike family: every P_nu is Q
    null, _ = spca_family(n, k, 0.0)
    assert_array_equal(null.log_likelihood_ratio(x, 0.7), np.zeros_like(x))


def test_glsm_h0_shape_and_coordinates():
    import scipy.stats as sst

    from avgcase.verify import ks_matrix

    p, q = 1.0, 0.25
    plan = plan_parameters("GLSM", p, q, 2.0, n=48, k=4, d=200)
    G = sample_gnq(plan.N, q, RngStream(140))
    family, D = spca_family(10_000, 100, 1e-5)
    X, trace = pds_to_glsm(G, plan, 1.0, family, D, RngStream(141))
    assert X.shape == (48, plan.d)
    assert len(trace.params["nu"]) == 48
    _, pvals = ks_matrix(X.T, sst.norm.cdf)
    assert pvals.min() > 1e-4 / X.shape[1]


def test_glsm_trace_counts_srk3_fallbacks():
    # An entry that ran out of budget keeps its initializer, the first d
    # draws of its row's stream; the trace counts exactly those entries.
    # theta = 1e-4 crowds srk3's gates, so some rows' entries run out.
    plan = plan_parameters("GLSM", 1.0, 0.25, 2.0, n=48, k=4, d=200)
    G = sample_gnq(plan.N, 0.25, RngStream(143))
    family, D = spca_family(48, 4, 1e-4)
    rng = RngStream(144)
    X, trace = pds_to_glsm(G, plan, 1.0, family, D, rng)
    init = np.stack([rng.child("srk3", i).child("srk3").generator().standard_normal(plan.d)
                     for i in range(48)])
    fallback = trace.params["srk3_fallback_entries"]
    assert isinstance(fallback, int) and 0 < fallback < X.size
    assert fallback == int(np.count_nonzero(X == init))


def test_glsm_planted_coordinate_means():
    # Per-sample planted coordinates head for N(nu_i * scale, 1) (positive
    # component) at the corollary configuration.
    p, q = 1.0, 0.25
    plan = plan_parameters("GLSM", p, q, 2.0, n=64, k=4)  # d defaults to m
    family, D = spca_family(10_000, 100, 1e-5)
    acc = []
    for i in range(60):
        G, tr = sample_k_pds(plan.N, 4, p, q, RngStream(142).child("g", i))
        X, otr = pds_to_glsm(G, plan, 1.0, family, D, RngStream(142).child("r", i),
                             trace=tr)
        S = otr.planted_set
        nus = np.asarray(otr.params["nu"])
        pos = np.zeros(64, dtype=bool)
        pos[otr.component_set] = True
        means = _mean_shifts(family, nus[pos])
        acc.append((X[np.ix_(pos, S)] - np.outer(means, np.ones(S.size))).ravel())
    resid = np.concatenate(acc)
    z = resid.mean() * math.sqrt(resid.size)
    assert abs(z) < 4


def test_check_uc_spca_passes_and_fat_fails():
    family, D = spca_family(10_000, 100, 1e-3)
    rep = check_uc(10_000, 100, 1000, D, family, 60_000, RngStream(143))
    assert rep["condition_i"]["pass"] and rep["condition_ii"]["pass"]
    # a deliberately fat planted family (mean shifts near 1) breaks condition (ii)
    fat = PairFamily.gaussian_mean_shift(10.0)
    rep2 = check_uc(10_000, 100, 1000, D, fat, 20_000, RngStream(144))
    assert not rep2["condition_ii"]["pass"]


def test_check_uc_asymmetric_d_fails_condition_i():
    family, _ = spca_family(10_000, 100, 1e-3)
    D_wide = Gaussian(0.0, 10.0)  # mass escapes [-1, 1]
    rep = check_uc(10_000, 100, 1000, D_wide, family, 20_000, RngStream(145))
    assert not rep["condition_i"]["pass"]


def test_semi_cr_h0_class_marginals():
    # Null inputs land on the two-probability law: 1/2 - mu1 inside the
    # rotated vertex set, exactly 1/2 elsewhere.
    p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
    plan = plan_parameters("SEMI_CR", p, q, N=N, k=k, ell=ell, n=128)
    hits = np.zeros(2)
    tots = np.zeros(2)
    mu1 = None
    for i in range(150):
        G = sample_gnq(N, q, RngStream(150).child("g", i))
        G_out, otr = pds_to_semi_cr(G, plan, RngStream(150).child("r", i))
        mu1 = otr.params["mu1"]
        V = np.asarray(otr.params["V"])
        inV = np.zeros(G_out.n, dtype=bool)
        inV[V] = True
        iu = np.triu_indices(G_out.n, 1)
        e = G_out.to_dense()[iu]
        mask_v = inV[iu[0]] & inV[iu[1]]
        hits[0] += e[mask_v].sum()
        tots[0] += mask_v.sum()
        hits[1] += e[~mask_v].sum()
        tots[1] += (~mask_v).sum()
    for (h, t, pr) in ((hits[0], tots[0], 0.5 - mu1), (hits[1], tots[1], 0.5)):
        z = (h / t - pr) / math.sqrt(pr * (1 - pr) / t)
        assert abs(z) < 4, (h / t, pr, z)


def test_isgm_rotation_isotropy_at_zero_mu():
    # mu forced to 0: the planted input still produces isotropic output
    # (entry variance within 1% of 1, row/column covariances near identity).
    from avgcase.verify import covariance_identity_check

    p, q = 1.0, 0.25
    plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=128, k=16, t=8, n=2040)
    plan.mu = 0.0
    G, tr = sample_k_pds(128, 16, p, q, RngStream(151))
    inst = pds_to_isgm(G, plan, RngStream(152), trace=tr)
    assert abs(inst.samples.var() - 1.0) < 0.01
    cov_cols = covariance_identity_check(inst.samples, rng=RngStream(153))
    cov_rows = covariance_identity_check(inst.samples.T, rng=RngStream(154))
    assert cov_cols["offdiag_pass"] and cov_rows["offdiag_pass"]


def test_pipeline_outputs_close_across_seeds():
    # Two independent runs of the same pipeline at the same parameters have
    # binned empirical TV <= 0.03 between their (flattened) outputs; the
    # desk configuration must be large enough that the sqrt(bins/size)
    # binning noise floor sits below that.
    from avgcase.verify import empirical_tv_binned

    p, q = 1.0, 0.25
    plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=128, k=16, t=8, n=2040)
    G, tr = sample_k_pds(128, 16, p, q, RngStream(159))
    a = pds_to_isgm(G, plan, RngStream(160), trace=tr)
    b = pds_to_isgm(G, plan, RngStream(161), trace=tr)
    assert empirical_tv_binned(a.samples, b.samples, 100) <= 0.03
