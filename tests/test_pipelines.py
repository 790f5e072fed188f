"""Tests for the reduction pipelines and the parameter planner."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from avgcase import kernels, pipelines, prob
from avgcase.errors import ParameterError
from avgcase.geometry import build_H
from avgcase.graphs import Graph, PlantedTrace, sample_gnq, sample_k_pds
from avgcase.pipelines import (clone_Q, clone_pmfs, graph_clone,
                               isgm_mu_prime, isgm_sample_clone,
                               pds_to_glsm, pds_to_isgm, pds_to_semi_cr,
                               plan_glsm, plan_isgm, plan_semi_cr, sample_isgm,
                               semi_cr_mus, to_k_partite_submatrix)
from avgcase.kernels import gaussianize, gaussianize_mu_bound, tern_params_from_truncation
from avgcase.prob import RngStream
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
    P, Q = _clone3_P_Q(p, q)
    G = sample_gnq(80, q, RngStream(101))
    clones = graph_clone(G, 3, p, q, P, Q, RngStream(102))
    pairs = 80 * 79 / 2
    for c in clones:
        z = (c.edge_count - pairs * Q) / math.sqrt(pairs * Q * (1 - Q))
        assert abs(z) < 4.5


def _clone3_P_Q(p, q):
    """(P, Q) at which both pmf constraints of the t = 3 clone bind."""
    c1 = (p / q) ** (1 / 3)
    c2 = ((1 - p) / (1 - q)) ** (1 / 3)
    Q = (1 - c2) / (c1 - c2)
    return Q * c1, Q


def _graph_clone_reference(G, t, p, q, P, Q, rng):
    """The one-shot clone: one draw of every pair's uniform, two searchsorted
    over the whole vector and one bit split per copy."""
    pmf_edge, pmf_nonedge = clone_pmfs(p, q, P, Q, t)
    gen = rng.child("clone").generator()
    e = G.triu_vector()
    u = gen.random(e.size)
    code_edge = np.searchsorted(np.cumsum(pmf_edge) / pmf_edge.sum(), u, side="right")
    code_non = np.searchsorted(np.cumsum(pmf_nonedge) / pmf_nonedge.sum(), u, side="right")
    code = np.where(e, code_edge, code_non).astype(np.uint64)
    return [Graph.from_triu(G.n, ((code >> np.uint64(b)) & np.uint64(1)).astype(bool))
            for b in range(t)]


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("cpus", [1, 8])
def test_graph_clone_matches_one_shot_reference(monkeypatch, on_workers, t, cpus):
    # 64-double bands: 13 bands over the 780 pairs, serial or on 8 workers.
    p, q = 0.75, 0.25
    P, Q = (p, clone_Q(p, q)) if t == 2 else _clone3_P_Q(p, q)
    G, _ = sample_k_pds(40, 4, p, q, RngStream(109))
    monkeypatch.setattr(prob, "_BAND", 64)
    got = on_workers(lambda: graph_clone(G, t, p, q, P, Q, RngStream(110 + t)), cpus, 8)
    assert got == _graph_clone_reference(G, t, p, q, P, Q, RngStream(110 + t))


@pytest.mark.parametrize("t_copies", [0, 31, 2.5, True, None, "2"])
def test_graph_clone_rejects_bad_copy_counts(t_copies):
    G = sample_gnq(8, 0.25, RngStream(111))
    with pytest.raises(ParameterError, match="t_copies"):
        graph_clone(G, t_copies, 0.75, 0.25, 0.75, clone_Q(0.75, 0.25), RngStream(112))


# ---------------------------------------------------------------------------
# to-k-partite-submatrix
# ---------------------------------------------------------------------------

def _embed_reference(G, k, p, q, m, rng, trace):
    """The whole-matrix embedding: the draws of ``to_k_partite_submatrix``,
    then two dense N x N gathers through ``np.ix_``, their ``triu`` and
    ``tril`` halves, and one ``np.ix_`` scatter."""
    N, Q = G.n, clone_Q(p, q)
    G1, G2 = graph_clone(G, 2, p, q, p, Q, rng.child("clone2"))
    gen = rng.child("embed").generator()
    M = prob.uniform_below(gen, (m, m), Q).view(np.uint8)
    np.fill_diagonal(M, 0)
    mk, Nk = m // k, N // k
    S_all, src_all, diag, out_planted = [], [], [], []
    for i in range(k):
        E_part = np.arange(i * Nk, (i + 1) * Nk)
        F_part = np.arange(i * mk, (i + 1) * mk)
        S_t = np.sort(gen.choice(F_part, size=Nk, replace=False))
        pi = gen.permutation(E_part)
        s1 = int(gen.binomial(Nk, p))
        s2 = int(gen.binomial(mk, Q))
        T1 = gen.choice(Nk, size=s1, replace=False)
        rest = np.setdiff1d(F_part, S_t, assume_unique=False)
        T2 = gen.choice(rest, size=max(s2 - s1, 0), replace=False)
        S_all.append(S_t)
        src_all.append(pi)
        diag += [S_t[T1], T2]
        v = np.intersect1d(trace.planted_set, E_part)[0]
        out_planted.append(int(S_t[int(np.flatnonzero(pi == v)[0])]))
    S_all, src_all = np.concatenate(S_all), np.concatenate(src_all)
    sub1 = G1.to_dense()[np.ix_(src_all, src_all)]
    sub2 = G2.to_dense()[np.ix_(src_all, src_all)]
    M[np.ix_(S_all, S_all)] = np.triu(sub1, k=1) + np.tril(sub2, k=-1)
    for T in diag:
        if len(T):
            M[T, T] = 1
    return M, np.sort(out_planted)


def test_submatrix_matches_whole_matrix_reference(monkeypatch, on_workers):
    # Bands of 3 rows (11 bands of the 32 x 32 embedded block), 64-double
    # background and clone bands, 8 workers, a planted trace.
    N, k, p, q, m = 32, 4, 0.75, 0.25, 120
    G, tr = sample_k_pds(N, k, p, q, RngStream(113))
    monkeypatch.setattr(pipelines, "_PAD_CHUNK", 3 * N)
    monkeypatch.setattr(prob, "_BAND", 64)
    M, tr2 = on_workers(lambda: to_k_partite_submatrix(G, k, p, q, m, RngStream(114), tr), 8, 8)
    M_ref, U_ref = _embed_reference(G, k, p, q, m, RngStream(114), tr)
    assert M.dtype == np.uint8
    assert_array_equal(M, M_ref)
    assert_array_equal(tr2.planted_set, U_ref)


def test_submatrix_reads_an_unsorted_trace_with_repeats():
    # A trace file may list its planted vertices unsorted, or one of them
    # twice: the embedding reads the set, as np.intersect1d does per part.
    N, k, p, q, m = 32, 4, 0.75, 0.25, 120
    G, tr = sample_k_pds(N, k, p, q, RngStream(115))
    messy = dataclasses.replace(tr, planted_set=np.append(tr.planted_set[::-1],
                                                          tr.planted_set[1]))
    M, tr2 = to_k_partite_submatrix(G, k, p, q, m, RngStream(116), messy)
    M_ref, U_ref = _embed_reference(G, k, p, q, m, RngStream(116), messy)
    assert_array_equal(M, M_ref)
    assert_array_equal(tr2.planted_set, U_ref)
    assert_array_equal(M, to_k_partite_submatrix(G, k, p, q, m, RngStream(116), tr)[0])
    # two distinct vertices in one part still fail
    two = dataclasses.replace(tr, planted_set=np.append(tr.planted_set,
                                                        (tr.planted_set[0] + 1) % (N // k)))
    with pytest.raises(ParameterError, match="exactly one vertex per part"):
        to_k_partite_submatrix(G, k, p, q, m, RngStream(116), two)


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
    m = plan_isgm(p, q, 2.0, r=2, N=N, k=k).m
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


def _most_refusals(N, k, p, q, m, trials):
    """The most of ``trials`` independent embeddings that may refuse with the
    documented ``s2 - s1`` error, but for a chance below 1e-6.  A part
    refuses when s2 - s1 > m/k - N/k, with s1 ~ Bin(N/k, p) and
    s2 ~ Bin(m/k, Q) drawn independently, and a trial when any of its k
    parts does."""
    from scipy.stats import binom

    Nk, mk = N // k, m // k
    s1 = np.arange(Nk + 1)
    part = float(binom.pmf(s1, Nk, p) @ binom.sf(s1 + mk - Nk, mk, clone_Q(p, q)))
    return binom.isf(1e-6, trials, 1.0 - (1.0 - part) ** k)


def _embed_or_refuse(G, k, p, q, m, rng, trace=None):
    """``to_k_partite_submatrix``'s output, or None where it refuses a short
    planted-diagonal draw.  The refusal reads only the diagonal draws, so
    the trials that run keep the laws of the rest of M."""
    try:
        return to_k_partite_submatrix(G, k, p, q, m, rng, trace)
    except ParameterError as err:
        assert "s2 - s1" in str(err)
        return None


def test_submatrix_h1_planted_block():
    # Conditioned on the embedded subset U, off-diagonal U x U entries are
    # Bern(p).
    N, k, p, q, m, trials = 32, 4, 0.9, 0.2, 128, 600
    hits = tot = refused = 0
    for i in range(trials):
        G, tr = sample_k_pds(N, k, p, q, RngStream(107).child("g", i))
        out = _embed_or_refuse(G, k, p, q, m, RngStream(107).child("s", i), tr)
        if out is None:
            refused += 1
            continue
        M, tr2 = out
        U = tr2.planted_set
        block = M[np.ix_(U, U)]
        hits += block.sum() - np.trace(block)
        tot += U.size * (U.size - 1)
    assert refused <= _most_refusals(N, k, p, q, m, trials)
    z = (hits / tot - p) / math.sqrt(p * (1 - p) / tot)
    assert abs(z) < 4


def test_submatrix_h0_diagonal_support_law():
    # Within each part the diagonal support size follows Bin(m/k, Q).
    from avgcase.verify import _binomial_pmf, chi2_gof_counts

    N, k, p, q, m, trials = 32, 4, 0.75, 0.25, 120, 500
    Q = clone_Q(p, q)
    sizes = []
    refused = 0
    for i in range(trials):
        G = sample_gnq(N, q, RngStream(108).child("g", i))
        out = _embed_or_refuse(G, k, p, q, m, RngStream(108).child("s", i))
        if out is None:
            refused += 1
            continue
        sizes.extend(np.diag(out[0]).reshape(k, m // k).sum(axis=1).tolist())
    assert refused <= _most_refusals(N, k, p, q, m, trials)
    stat, pval = chi2_gof_counts(np.array(sizes, dtype=float),
                                 _binomial_pmf(m // k, Q))
    assert pval > 1e-4


# ---------------------------------------------------------------------------
# parameter planning
# ---------------------------------------------------------------------------

def test_plan_prime_selection():
    plan = plan_isgm(0.75, 0.25, 4.0, eps=0.3, N=32, k=4)
    assert plan.r == 5  # smallest prime > 1/0.3


def test_plan_isgm_refuses_eps_with_r():
    # eps = 0.3 picks r = 5: an r beside it is refused, not left to win silently
    with pytest.raises(ParameterError, match="eps or r, not both"):
        plan_isgm(0.75, 0.25, 4.0, eps=0.3, r=2, N=32, k=4)


def test_plan_q_and_delta_values():
    plan = plan_isgm(1.0, 0.25, 4.0, r=2, N=32, k=4)
    assert plan.Q == 0.5
    plan2 = plan_isgm(0.75, 0.25, 4.0, r=2, N=32, k=4)
    Q_expected = 1.0 - math.sqrt(3.0) / 4.0
    assert abs(plan2.Q - Q_expected) < 1e-12
    delta_expected = min(math.log(0.75 / Q_expected),
                         math.log((1 - Q_expected) / 0.25))
    assert abs(plan2.delta - delta_expected) < 1e-12


def test_plan_m_is_smallest_multiple_above():
    plan = plan_isgm(0.75, 0.25, 4.0, r=2, N=1600, k=8)
    ratio = plan.p / plan.Q + 1.0
    assert plan.m % 8 == 0
    assert plan.m > ratio * 1600
    assert plan.m - 8 <= ratio * 1600


def test_plan_structural_and_report():
    plan = plan_isgm(0.75, 0.25, 4.0, r=2, N=1600, k=8)
    assert plan.report["m_le_k_r^t"] and plan.report["k_le_QN_over_4"]
    assert plan.mu <= plan.report["proven_mu_bound"] * (1 + 1e-12)
    with pytest.raises(ParameterError):
        plan_isgm(0.75, 0.25, 4.0, r=4, N=1600, k=8)  # r not prime


def test_plan_report_is_its_own_and_read_only():
    # A plan built with dataclasses.replace shares no report with the plan
    # it came from, and no report can be written to after planning.
    p = plan_isgm(1.0, 0.25, 2.0, r=2, N=32, k=4)
    q = dataclasses.replace(p, mu=0.0)
    assert q.report is not p.report and q.report == p.report
    for plan in (p, q, plan_semi_cr(1.0, 0.25, N=32, k=4, ell=2),
                 plan_glsm(1.0, 0.25, 2.0, n=64, k=4, tau=1.0, theta=1e-5)):
        with pytest.raises(TypeError):
            plan.report["m_le_d"] = False
        assert type(plan.to_dict()["report"]) is dict
    assert p.report["m_le_d"] is True


def test_plan_semi_cr():
    plan = plan_semi_cr(1.0, 0.25, N=32, k=4, ell=2)
    assert plan.m % ((3 ** 2 - 1) * 4) == 0
    mu1, mu2, mu3 = semi_cr_mus(plan.mu, 2)
    assert plan.report["mu1"] == mu1 and plan.report["mu3"] == mu3
    assert plan.report["planted_size"] == 4
    assert plan.mu == gaussianize_mu_bound(plan.p, plan.Q, plan.m, plan.m)


def test_plan_semi_cr_reports_the_bound_it_enforces():
    # At the benchmark size the report checks mu against gaussianize's bound
    # on the m x m submatrix, and carries no ISGM-only condition.
    plan = plan_semi_cr(1.0, 0.25, N=2000, k=8, ell=2)
    assert plan.m == 6016
    bound = gaussianize_mu_bound(plan.p, plan.Q, plan.m, plan.m)
    assert plan.report["proven_mu_bound"] == bound
    assert_allclose(bound, 0.0473, atol=5e-5)
    assert plan.report["mu_le_proven_bound"] is True
    for key in ("m_le_d", "n_over_eps_N", "m_le_k_r^t", "w_n_le_k_ell"):
        assert key not in plan.report


_PLANNERS = {"ISGM": plan_isgm, "SEMI_CR": plan_semi_cr, "GLSM": plan_glsm}


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
    with pytest.raises(ParameterError, match="ell" if target == "SEMI_CR" else "w must"):
        _PLANNERS[target](1.0, 0.25, N=32, k=4, **kwargs)


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
    ("SEMI_CR", {"ell": 2, "N": 32, "k": 4, "n": 0}, "n must be a positive integer"),
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
    # a float r or t gives a float r^t, which pds_to_isgm cannot index with
    ("ISGM", {"r": 2.0, "N": 32, "k": 4}, "r must be a positive integer"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "t": 9.5}, "t must be a positive integer"),
    # m = 12,000,032: the m x m SEMI-CR matrix is 1 PiB as float64
    ("SEMI_CR", {"ell": 2, "N": 4_000_000, "k": 4}, "too large for one array"),
    # sizes the pipeline cannot run: d < m, w n > k l, n < m/2 (m = 100 and
    # k l = 124 at r = 2, N = 32, k = 4)
    ("ISGM", {"r": 2, "N": 32, "k": 4, "d": 10}, "m <= d"),
    ("ISGM", {"r": 2, "N": 32, "k": 4, "n": 100}, "lower --w or --n"),
    ("GLSM", {"n": 64, "k": 4, "d": 8}, "m <= d"),
    ("SEMI_CR", {"ell": 2, "N": 32, "k": 4, "n": 63}, "n >= m/2 = 64"),
    # the embedding needs k <= Q N / 4, and Q = 1/2 here
    ("SEMI_CR", {"ell": 2, "N": 40, "k": 8}, "need k <= Q N / 4 = 5.00, got k=8"),
])
def test_plan_rejects_sizes_it_cannot_plan(target, kwargs, says):
    if target != "SEMI_CR":
        kwargs = {"w": 2.0, **kwargs}
    if target == "GLSM":
        kwargs = {"tau": 1.0, "theta": 1e-5, **kwargs}
    with pytest.raises(ParameterError, match=says):
        _PLANNERS[target](1.0, 0.25, **kwargs)


@pytest.mark.parametrize("planner, kwargs", [
    (plan_glsm, {"w": 2.0, "n": 64, "k": 4, "tau": 1.0, "theta": 1e-5, "N": 7}),
    (plan_semi_cr, {"N": 32, "k": 4, "ell": 2, "d": 5}),
    (plan_semi_cr, {"N": 32, "k": 4, "ell": 2, "w": 4.0}),
    (plan_isgm, {"w": 2.0, "r": 2, "N": 32, "k": 4, "ell": 5}),
], ids=["glsm-N", "semi_cr-d", "semi_cr-w", "isgm-ell"])
def test_planners_take_only_their_own_keys(planner, kwargs):
    # a key the target does not read fails at the call, not silently
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        planner(1.0, 0.25, **kwargs)


def test_plan_glsm_sizes():
    plan = plan_glsm(1.0, 0.25, 2.0, n=64, k=4, d=300, tau=1.0, theta=1e-5)
    assert plan.r == 2 and plan.eps == 0.5
    assert plan.m <= plan.k * 2 ** plan.t
    assert plan.N % plan.k == 0
    assert plan.d == 300
    assert plan_glsm(1.0, 0.25, 2.0, n=64, k=4, tau=1.0, theta=1e-5).d == plan.m


def test_plan_glsm_reports_the_kernel_parameters():
    # tau, theta and what the pipeline derives from them are planned once:
    # the three-point law of N(mu, 1) truncated at tau and the shift scale.
    plan = plan_glsm(1.0, 0.25, 2.0, n=48, k=4, d=200, tau=0.8, theta=2e-5)
    a, mu1, mu2 = tern_params_from_truncation(0.8, plan.mu)
    assert {key: plan.report[key] for key in ("tau", "theta", "a", "mu1", "mu2")} == \
        {"tau": 0.8, "theta": 2e-5, "a": a, "mu1": mu1, "mu2": mu2}
    assert plan.report["shift_scale"] == math.sqrt(3.0 * 2e-5 * math.log(48) / 4)


@pytest.mark.parametrize("tau", [40.0, 1e-300])
def test_plan_glsm_refuses_a_degenerate_tau(tau):
    # Phi(tau) - Phi(-tau) rounds to 1 or to 0, so srk3 has no three-point
    # law to target
    with pytest.raises(ParameterError, match=f"tau={tau}.*a must lie in"):
        plan_glsm(1.0, 0.25, 2.0, n=32, k=4, tau=tau, theta=1e-5)


@pytest.mark.parametrize("theta, says", [
    (math.nan, "theta must be finite and nonnegative"),
    (math.inf, "theta must be finite and nonnegative"),
    (-1.0, "theta must be finite and nonnegative"),
    # finite, but 3 theta log n / k overflows
    (1e308, "theta=1e\\+308 overflows the shift scale; srk3 needs finite shifts"),
], ids=["nan", "inf", "-1.0", "1e+308"])
def test_plan_glsm_refuses_a_bad_theta(theta, says):
    with pytest.raises(ParameterError, match=says):
        plan_glsm(1.0, 0.25, 2.0, n=32, k=4, tau=1.0, theta=theta)


# ---------------------------------------------------------------------------
# pds_to_isgm
# ---------------------------------------------------------------------------

def _small_isgm_setup(seed=110, planted=True):
    p, q, N, k = 1.0, 0.25, 32, 4
    plan = plan_isgm(p, q, 2.0, r=2, N=N, k=k, t=5, n=40)
    if planted:
        G, tr = sample_k_pds(N, k, p, q, RngStream(seed))
    else:
        G, tr = sample_gnq(N, q, RngStream(seed)), None
    return G, plan, tr


def test_isgm_shape_and_determinism():
    G, plan, tr = _small_isgm_setup()
    a, a_tr = pds_to_isgm(G, plan, RngStream(111), trace=tr)
    b, b_tr = pds_to_isgm(G, plan, RngStream(111), trace=tr)
    assert a.shape == (plan.n, plan.d)
    assert_array_equal(a, b)
    assert_array_equal(a_tr.planted_set, b_tr.planted_set)
    c, _ = pds_to_isgm(G, plan, RngStream(112), trace=tr)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("r", [2, 3])
def test_isgm_bytes_independent_of_workers(monkeypatch, on_workers, r):
    # The banded draws, the pad, and each part's Gaussian blocks and
    # rotation: every worker count and cap gives the serial bytes.  Blocks
    # of 500 entries split every part into several; at r = 3, r^t = 27 does
    # not divide 500, and a block is the 18 whole rows that fit.
    G, plan, tr = _small_isgm_setup()
    if r == 3:
        plan = plan_isgm(1.0, 0.25, 2.0, r=3, N=32, k=4)
        assert plan.rt == 27
    monkeypatch.setattr(prob, "_BAND", 64)
    monkeypatch.setattr(kernels, "_BLOCK", 500)

    def run():
        X, out_tr = pds_to_isgm(G, plan, RngStream(111), trace=tr)
        return X.tobytes(), out_tr.planted_set.tobytes()

    serial = on_workers(run, 1, 1)
    for cpus, cap in [(1, 4), (2, 1), (2, 4), (4, 1), (4, 4), (8, 8)]:
        assert on_workers(run, cpus, cap) == serial, (cpus, cap)
    # The block-by-block rotation is the whole-part product of the Gaussian
    # parts, up to the last bits.
    real, gaussian = pipelines.gaussianize, []

    def spy(M, P, Q, mu, rng, use=None):
        gaussian.append(real(M, P, Q, mu, rng))
        return real(M, P, Q, mu, rng, use)

    monkeypatch.setattr(pipelines, "gaussianize", spy)
    assert run() == serial
    X, H = np.frombuffer(serial[0]).reshape(plan.n, plan.d), build_H(r, plan.t)
    gen = RngStream(111).child("output").generator()
    col_choice = gen.choice(plan.k * H.shape[0], size=plan.n, replace=False)
    row_pos = gen.choice(plan.d, size=plan.m, replace=False)
    for i, part in enumerate(gaussian[0]):
        kept = np.flatnonzero(col_choice // H.shape[0] == i)
        assert_allclose(X[np.ix_(kept, row_pos)], H[col_choice[kept] % H.shape[0]] @ part.T,
                        rtol=0, atol=1e-12)


def test_isgm_gaussianizes_each_block_once(monkeypatch):
    # One gaussianize call, on the (k, m, r^t) stack of padded parts, whose
    # ``use`` gets every block of every part once, as whole rows whose first
    # rows tile each part.  Blocks of 500 entries hold 15 rows of r^t = 32;
    # blocks of 20 are shorter than a row, so each row is a block.
    G, plan, tr = _small_isgm_setup()
    real = pipelines.gaussianize
    for block, per_block in ((500, 15), (20, 1)):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        calls, blocks = [], []

        def spy(M, P, Q, mu, rng, use=None):
            calls.append(np.shape(M))

            def seen(j, first, rows):
                blocks.append((j, first, rows.shape))
                use(j, first, rows)

            return real(M, P, Q, mu, rng, seen)

        monkeypatch.setattr(pipelines, "gaussianize", spy)
        pds_to_isgm(G, plan, RngStream(111), trace=tr)
        m, rt = plan.m, plan.rt
        assert calls == [(plan.k, m, rt)]
        assert sorted(blocks) == [(j, first, (min(per_block, m - first), rt))
                                  for j in range(plan.k) for first in range(0, m, per_block)]


def test_isgm_rotates_on_one_blas_thread(monkeypatch):
    # Threaded GEMM can round differently from one thread, so the kernel
    # runs the consumer that rotates each block with BLAS on one thread, and
    # hands the count back after it; the pipeline itself leaves the count
    # alone.
    G, plan, tr = _small_isgm_setup()
    real, before, during = pipelines.gaussianize, [], []

    def spy(M, P, Q, mu, rng, use):
        def read_then_use(*args):
            during.append(prob._blas_threads(1))  # reads the count, which must be 1
            use(*args)

        before.append(prob._blas_threads(2))  # reads the count, which must be 2
        return real(M, P, Q, mu, rng, read_then_use)

    monkeypatch.setattr(pipelines, "gaussianize", spy)
    had = prob._blas_threads(2)
    if had is None:
        pytest.skip("no bundled OpenBLAS thread count")
    try:
        pds_to_isgm(G, plan, RngStream(111), trace=tr)
        assert before == [2] and during and set(during) == {1}
        assert prob._blas_threads(2) == 2
    finally:
        prob._blas_threads(had)


def test_isgm_holds_no_float64_matrix(on_workers):
    # Each block is Gaussianized and rotated in turn: past the samples and
    # the uint8 parts, the traced peak is at most four block-sized float64
    # arrays per worker (a block and its rejection temporaries) and four
    # more (the incidence matrix, its kept rows and the rest), where one
    # m x r^t float64 part per worker would not fit.
    N, k, p, q = 1000, 8, 1.0, 0.25
    plan = plan_isgm(p, q, 8.0, r=2, N=N, k=k)
    G, tr = sample_k_pds(N, k, p, q, RngStream(107))
    held = 8 * plan.n * plan.d + plan.k * plan.m * plan.rt

    def run():
        tracemalloc.start()
        try:
            X, _ = pds_to_isgm(G, plan, RngStream(108), tr)
            return X.shape, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for cpus in (1, 2, 4):
        shape, peak = on_workers(run, cpus, 4)
        assert shape == (plan.n, plan.d)
        assert peak < held + (cpus + 1) * 4 * 8 * kernels._BLOCK, cpus


def test_isgm_trace_consistency():
    G, plan, tr = _small_isgm_setup()
    _, out_tr = pds_to_isgm(G, plan, RngStream(113), trace=tr)
    assert out_tr.planted_set.size == plan.k
    assert np.all(out_tr.component_set < plan.n)
    mu, eps = out_tr.params["mu"], out_tr.params["eps"]
    mu_p = out_tr.params["mu_prime"]
    assert abs(eps * mu_p + (1 - eps) * mu) < 1e-18


def test_isgm_structural_errors(monkeypatch):
    # The planner is the only gate, and a plan cannot leave what it checked.
    G, plan, tr = _small_isgm_setup()
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.d = plan.m - 1
    # A mean above the proven bound, in a plan built past the planner, is
    # still refused by gaussianize.
    with pytest.raises(ParameterError, match="proven bound"):
        pds_to_isgm(G, dataclasses.replace(plan, mu=3.0 * plan.mu), RngStream(114), trace=tr)

    # A graph whose size is not the plan's N raises before any draw, in every
    # pipeline, with or without a trace.
    _, plan, _ = _small_isgm_setup()  # N = 32
    small, small_tr = sample_k_pds(16, 4, 1.0, 0.25, RngStream(115))
    large = sample_gnq(64, 0.25, RngStream(116))
    semi_plan = plan_semi_cr(1.0, 0.25, N=32, k=4, ell=2)
    glsm_plan = plan_glsm(1.0, 0.25, 2.0, n=64, k=4, tau=1.0, theta=1e-5)  # N = 84

    def no_draw(stream):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    for run, says in [
        (lambda: pds_to_isgm(small, plan, RngStream(117)), "16 vertices .* N=32"),
        (lambda: pds_to_isgm(small, plan, RngStream(117), trace=small_tr), "N=32"),
        (lambda: pds_to_isgm(large, plan, RngStream(117)), "64 vertices .* N=32"),
        (lambda: pds_to_semi_cr(small, semi_plan, RngStream(117), trace=small_tr), "N=32"),
        (lambda: pds_to_glsm(small, glsm_plan, RngStream(117)), "N=84"),
    ]:
        with pytest.raises(ParameterError, match=says):
            run()


def test_isgm_h0_moments():
    # Four null graphs and reductions pooled: 16,000 entries, so the 0.05
    # variance bound is 4.5 sd of the sample variance (sqrt(2 / 16,000)).
    outs = []
    for i in range(4):
        G, plan, _ = _small_isgm_setup(seed=110 + i, planted=False)
        X, out_tr = pds_to_isgm(G, plan, RngStream(115 + i))
        assert out_tr.planted_set is None and out_tr.component_set is None
        outs.append(X)
    X = np.concatenate(outs)
    assert X.size >= 12_800
    z_mean = X.mean() * math.sqrt(X.size)
    assert abs(z_mean) < 4
    assert abs(X.var() - 1.0) < 0.05


def test_sample_isgm_direct():
    X, tr = sample_isgm(500, 5, 40, 0.8, 0.25, RngStream(116))
    S = tr.planted_set
    pos = np.zeros(500, dtype=bool)
    pos[tr.component_set] = True
    mu_p = isgm_mu_prime(0.8, 0.25)
    z1 = (X[np.ix_(pos, S)].mean() - 0.8) * math.sqrt(pos.sum() * 5)
    z2 = (X[np.ix_(~pos, S)].mean() - mu_p) * math.sqrt((~pos).sum() * 5)
    assert abs(z1) < 4 and abs(z2) < 4
    from scipy.stats import binomtest

    assert binomtest(int(pos.sum()), 500, 0.75).pvalue > 1e-4


# ---------------------------------------------------------------------------
# sample cloning
# ---------------------------------------------------------------------------

def test_sample_clone_identity_at_zero():
    X, tr = sample_isgm(60, 4, 20, 0.5, 0.5, RngStream(117))
    out, _ = isgm_sample_clone(X, tr, 0, 60, RngStream(118))
    # ell = 0 is a pure permutation of the samples
    a = np.sort(X.sum(axis=1))
    b = np.sort(out.sum(axis=1))
    assert_allclose(a, b, atol=1e-12)


def test_sample_clone_counts_and_scaling():
    X, tr = sample_isgm(50, 4, 30, 1.0, 0.5, RngStream(119))
    m0 = tr.component_set.size
    out, out_tr = isgm_sample_clone(X, tr, 3, 8 * 50, RngStream(120))
    assert out_tr.params["pre_subsample_positive"] == 8 * m0
    assert out_tr.params["mu"] == pytest.approx(2 ** -1.5)
    pos = np.zeros(out.shape[0], dtype=bool)
    pos[out_tr.component_set] = True
    S = out_tr.planted_set
    z = (out[np.ix_(pos, S)].mean() - 2 ** -1.5) * math.sqrt(pos.sum() * S.size)
    assert abs(z) < 4
    assert abs(out.var() - 1.0) < 0.05
    with pytest.raises(ParameterError):
        isgm_sample_clone(X, tr, 1, 200, RngStream(121))  # n' > 2^ell n


# ---------------------------------------------------------------------------
# semi-cr
# ---------------------------------------------------------------------------

def test_semi_cr_sizes_every_seed():
    p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
    plan = plan_semi_cr(p, q, N=N, k=k, ell=ell, n=128)
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
    plan = plan_semi_cr(p, q, N=N, k=k, ell=2, n=64)
    G_out, otr = pds_to_semi_cr(G, plan, RngStream(131))
    assert otr.planted_set is None
    assert len(otr.params["V"]) == 64


def test_semi_cr_rotates_on_one_blas_thread(monkeypatch):
    # As ISGM's rotation: the consumer that pads and rotates each kernel
    # block runs with BLAS on one thread, the kernel's cap, and the count is
    # handed back after the kernel.  Blocks of 640 entries make 14 kernel
    # blocks of 10 kept blocks of 8 x 8.
    p, q, N, k = 1.0, 0.25, 32, 4
    G, tr = sample_k_pds(N, k, p, q, RngStream(200))
    plan = plan_semi_cr(p, q, N=N, k=k, ell=2)
    monkeypatch.setattr(kernels, "_BLOCK", 640)
    real, before, during = pipelines.gaussianize, [], []

    def spy(M, P, Q, mu, rng, use):
        def read_then_use(*args):
            during.append(prob._blas_threads(1))  # reads the count, which must be 1
            use(*args)

        before.append(prob._blas_threads(2))  # reads the count, which must be 2
        return real(M, P, Q, mu, rng, read_then_use)

    monkeypatch.setattr(pipelines, "gaussianize", spy)
    had = prob._blas_threads(2)
    if had is None:
        pytest.skip("no bundled OpenBLAS thread count")
    try:
        pds_to_semi_cr(G, plan, RngStream(300), trace=tr)
        assert before == [2] and during == [1] * 14 and prob._blas_threads(2) == 2
    finally:
        prob._blas_threads(had)


def test_semi_cr_rejects_a_foreign_plan():
    p, q, N, k = 1.0, 0.25, 32, 4
    G = sample_gnq(N, q, RngStream(133))
    isgm_plan = plan_isgm(p, q, 2.0, r=2, N=N, k=k)
    with pytest.raises(ParameterError, match="SEMI_CR plan"):
        pds_to_semi_cr(G, isgm_plan, RngStream(134))
    plan = plan_semi_cr(p, q, N=N, k=k, ell=2)
    with pytest.raises(ParameterError, match="plan needs N=40"):  # another source size
        pds_to_semi_cr(G, plan_semi_cr(p, q, N=40, k=4, ell=2), RngStream(134))
    with pytest.raises(ParameterError, match="ISGM or GLSM plan"):  # and the other way round
        pds_to_isgm(G, plan, RngStream(134))


def _semi_cr_reference(G, plan, rng, trace):
    """The whole-matrix SEMI-CR algorithm: an m' x m' padded matrix, one
    two-sided einsum rotation, and a scatter of the thresholded entries
    below its diagonal into their relabelled pairs of a fair-coin graph.
    Only the blocks J <= I are Gaussianized and padded, and every block
    J > I of the padded matrix is NaN, which would reach the output if any
    entry of such a block did.  Returns the output graph and the labels of
    V, S and S'."""
    k, ell, m, n, mu = plan.k, plan.ell, plan.m, plan.n, plan.mu
    three_l = 3 ** ell
    s = m // ((three_l - 1) * k)
    m_prime, m_rot, ks = three_l * k * s, m // 2, k * s
    M_PD, tr1 = to_k_partite_submatrix(G, k, plan.p, plan.q, m, rng.child("submatrix"), trace)
    blk = three_l - 1
    # the kept blocks (I, J), J <= I, row-major, one flattened block per row
    kept = [(I, J) for I in range(ks) for J in range(I + 1)]
    bits = np.array([M_PD[I * blk:(I + 1) * blk, J * blk:(J + 1) * blk].ravel()
                     for I, J in kept])
    M_G = gaussianize(bits, plan.p, plan.Q, mu, rng.child("gaussianize"))
    # Per kept block: its offset-0 row, then the rest of its offset-0 column,
    # from the pad stream of the kernel block that holds it.
    per_block, n_blocks = kernels._row_blocks(len(kept), blk * blk)
    fresh = np.concatenate([
        rng.child("pad", first).generator().standard_normal(
            (min(per_block, len(kept) - first), 2 * three_l - 1))
        for first in range(0, n_blocks * per_block, per_block)])
    M_P = np.full((m_prime, m_prime), np.nan)
    for b, (I, J) in enumerate(kept):
        block = M_P[I * three_l:(I + 1) * three_l, J * three_l:(J + 1) * three_l]
        block[0] = fresh[b, :three_l]
        block[1:, 0] = fresh[b, three_l:]
        block[1:, 1:] = M_G[b].reshape(blk, blk)
    assert np.isnan(M_P).sum() == three_l ** 2 * ks * (ks - 1) // 2
    H = build_H(3, ell)
    M4 = M_P.reshape(ks, three_l, ks, three_l)
    M_R = np.einsum("xi,aibj,yj->axby", H, M4, H, optimize=True).reshape(m_rot, m_rot)
    # a fair coin for every output pair, then the labels; rotated vertex r
    # is output vertex label_of[r], and the pairs inside V^2 are overwritten
    gen5 = rng.child("pad-vertices").generator()
    iu = np.triu_indices(n, k=1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = gen5.random(iu[0].size) < 0.5
    label_of = gen5.permutation(n)
    low = np.tril_indices(m_rot, k=-1)
    r, c = label_of[low[0]], label_of[low[1]]
    adj[np.minimum(r, c), np.maximum(r, c)] = M_R[low] >= mu / (2.0 * three_l)
    S_rows, S2_rows = [], []
    for u in tr1.planted_set:
        col = H[:, 1 + int(u % blk)]
        S_rows.extend(int(u // blk) * H.shape[0] + np.flatnonzero(col < 0))
        S2_rows.extend(int(u // blk) * H.shape[0] + np.flatnonzero(col > 0))
    return (Graph.from_triu(n, adj[iu]), sorted(int(v) for v in label_of[:m_rot]),
            sorted(int(v) for v in label_of[S_rows]), sorted(int(v) for v in label_of[S2_rows]))


@pytest.mark.parametrize("ell, n, block", [
    (2, None, None),     # one kernel block holds all 136 kept blocks
    (2, None, 64),       # one kept block per kernel block
    (2, 200, 64 * 5),    # five kept blocks per kernel block, a ragged last one, n > m''
    (3, None, None),
    (3, 150, 676 * 3),   # three kept blocks of 26 x 26 per kernel block, a ragged last one
])
def test_semi_cr_matches_whole_matrix_reference(monkeypatch, ell, n, block):
    # Padding, rotating and thresholding each kernel block as it finishes
    # gives the whole-matrix algorithm's output bit for bit, and only the
    # blocks that the reference fills with numbers are Gaussianized.  With
    # n > m'' the coins of the pairs outside V^2 must survive the workers'
    # writes, which land at relabelled pairs spread over the whole vector.
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    p, q, N, k = 1.0, 0.25, 32, 4
    plan = plan_semi_cr(p, q, N=N, k=k, ell=ell, n=n)
    G, tr = sample_k_pds(N, k, p, q, RngStream(170 + ell))
    shapes, real = [], pipelines.gaussianize
    monkeypatch.setattr(pipelines, "gaussianize",
                        lambda M, *args: shapes.append(M.shape) or real(M, *args))
    G_out, otr = pds_to_semi_cr(G, plan, RngStream(180 + ell), trace=tr)
    blk = 3 ** ell - 1
    ks = plan.m // blk
    assert shapes == [(ks * (ks + 1) // 2, blk * blk)]  # the blocks J <= I only
    G_ref, V, S, S2 = _semi_cr_reference(G, plan, RngStream(180 + ell), tr)
    assert G_out.n == plan.n and G_out == G_ref
    assert (otr.params["V"], otr.planted_set.tolist(), otr.params["S_prime"]) == (V, S, S2)


@pytest.mark.parametrize("n", [None, 8000])
def test_semi_cr_builds_no_padded_matrix(on_workers, n):
    # Traced peak on two workers: the m x m uint8 k-partite matrix, its kept
    # blocks (m (m + 8) / 2 entries at ell = 2, as uint8), the n (n - 1) / 2
    # output pairs as bool and a fixed allowance for the blocks in flight.
    # No float64 array of the kept blocks (36 MB here), nor the m' x m'
    # padded matrix (92 MB) nor the m x m Gaussian matrix (72 MB), ever
    # exists, and at n = 8000 no n x n adjacency (64 MB) either.
    p, q, N, k = 1.0, 0.25, 1000, 8
    plan = plan_semi_cr(p, q, N=N, k=k, ell=2, n=n)
    G, tr = sample_k_pds(N, k, p, q, RngStream(190))
    tracemalloc.start()
    try:
        on_workers(lambda: pds_to_semi_cr(G, plan, RngStream(191), trace=tr), 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n = plan.m, plan.n
    assert peak < m * m + m * (m + 8) // 2 + n * (n - 1) // 2 + 16 * 2 ** 20


def test_semi_cr_bytes_independent_of_workers(monkeypatch, on_workers):
    # Twenty kernel blocks of seven kept blocks each (the last one ragged),
    # each writing its pairs into the shared output, banded coin draws and
    # eleven embed bands: serial and 8 workers give the same bytes.
    p, q, N, k = 1.0, 0.25, 32, 4
    plan = plan_semi_cr(p, q, N=N, k=k, ell=2, n=200)
    G, tr = sample_k_pds(N, k, p, q, RngStream(192))
    monkeypatch.setattr(kernels, "_BLOCK", 64 * 7)
    monkeypatch.setattr(pipelines, "_PAD_CHUNK", 3 * N)
    monkeypatch.setattr(prob, "_BAND", 64)

    def run():
        G_out, otr = pds_to_semi_cr(G, plan, RngStream(193), trace=tr)
        return G_out.triu_vector().tobytes(), otr.to_dict()

    assert on_workers(run, 8, 8) == on_workers(run, 1, 1)


# ---------------------------------------------------------------------------
# glsm
# ---------------------------------------------------------------------------

def _sparse_pca_scale(plan, theta):
    return math.sqrt(3.0 * theta * math.log(plan.n) / plan.k)


def test_spca_family_is_the_corollary_configuration(monkeypatch):
    # srk3 gets each row's mean shift nu * sqrt(3 theta log n / k) at the
    # plan's (n, k), nu the row's mixing weight N(0, 1 / (3 log n)) clipped
    # to [-1, 1], as the trace records it; theta = 0 plants nothing.
    plan = plan_glsm(1.0, 0.25, 2.0, n=48, k=4, d=200, tau=1.0, theta=1e-5)
    G = sample_gnq(plan.N, 0.25, RngStream(139))
    seen = []
    srk3 = pipelines.srk3_array

    def capture(bits, shifts, *rest):
        seen.append(np.array(shifts))
        return srk3(bits, shifts, *rest)

    monkeypatch.setattr(pipelines, "srk3_array", capture)
    rng = RngStream(141)
    nu_sd = 1.0 / math.sqrt(3.0 * math.log(plan.n))
    draws = rng.child("nu").generator().standard_normal(plan.n)
    for theta in (1e-5, 0.0):
        seen.clear()
        plan = plan_glsm(1.0, 0.25, 2.0, n=48, k=4, d=200, tau=1.0, theta=theta)
        _, trace = pds_to_glsm(G, plan, rng)
        nus = np.asarray(trace.params["nu"])
        assert nus.tobytes() == np.clip(nu_sd * draws, -1.0, 1.0).tobytes()
        assert len(seen) == 1
        assert seen[0].tobytes() == (nus * _sparse_pca_scale(plan, theta)).tobytes()
        assert np.any(seen[0]) == (theta > 0)


def test_glsm_h0_shape_and_coordinates():
    import scipy.stats as sst

    from avgcase.verify import ks_matrix

    p, q = 1.0, 0.25
    plan = plan_glsm(p, q, 2.0, n=48, k=4, d=200, tau=1.0, theta=1e-5)
    G = sample_gnq(plan.N, q, RngStream(140))
    X, trace = pds_to_glsm(G, plan, RngStream(141))
    assert X.shape == (48, plan.d)
    assert len(trace.params["nu"]) == 48
    _, pvals = ks_matrix(X.T, sst.norm.cdf)
    assert pvals.min() > 1e-4 / X.shape[1]


@pytest.mark.parametrize("plan", [plan_isgm(1.0, 0.25, 4.0, N=32, k=4, r=2),
                                  plan_semi_cr(1.0, 0.25, N=32, k=4, ell=2)],
                         ids=["isgm", "semi_cr"])
def test_glsm_refuses_a_plan_of_another_target(monkeypatch, plan):
    # the ISGM plan has r = 2 and eps = 1/2 too, but carries no truncation
    # and no shift scale: it must not run as a GLSM plan
    def never(*args, **kwargs):
        raise AssertionError("pds_to_isgm ran")

    G = sample_gnq(plan.N, 0.25, RngStream(145))
    monkeypatch.setattr(pipelines, "pds_to_isgm", never)
    with pytest.raises(ParameterError, match=f"pds_to_glsm needs a GLSM plan, got {plan.target}"):
        pds_to_glsm(G, plan, RngStream(146))


def test_glsm_trace_counts_srk3_fallbacks():
    # An entry that ran out of budget keeps its initializer, its draw among
    # the first n d of srk3's stream (the 48 x 200 input is one block); the
    # trace counts exactly those entries.  theta = 1e-4 crowds srk3's gates,
    # so some rows' entries run out.
    plan = plan_glsm(1.0, 0.25, 2.0, n=48, k=4, d=200, tau=1.0, theta=1e-4)
    G = sample_gnq(plan.N, 0.25, RngStream(143))
    rng = RngStream(144)
    X, trace = pds_to_glsm(G, plan, rng)
    init = rng.child("srk3").generator().standard_normal((48, plan.d))
    fallback = trace.params["srk3_fallback_entries"]
    assert isinstance(fallback, int) and 0 < fallback < X.size
    assert fallback == int(np.count_nonzero(X == init))


def test_glsm_builds_one_srk3_generator_per_block(monkeypatch):
    # srk3 keys its streams per block of rows, not per row: at the
    # benchmark's shape (n = 1024 rows of d = 4096) that is 16 generators.
    # The ISGM stage is replaced by a zero input, which srk3 takes as is.
    plan = plan_glsm(1.0, 0.25, 2.0, n=1024, k=8, d=4096, tau=1.0, theta=1e-5)
    assert (plan.n, plan.d) == (1024, 4096)
    monkeypatch.setattr(pipelines, "pds_to_isgm", lambda G, plan, rng, trace: (
        np.zeros((plan.n, plan.d)), PlantedTrace(seed=0, params={})))
    srk3, built = pipelines.srk3_array, []
    generator = RngStream.generator

    def counted(*args):
        monkeypatch.setattr(RngStream, "generator",
                            lambda stream: built.append(stream.path) or generator(stream))
        try:
            return srk3(*args)
        finally:
            monkeypatch.setattr(RngStream, "generator", generator)

    monkeypatch.setattr(pipelines, "srk3_array", counted)
    _, trace = pds_to_glsm(None, plan, RngStream(147))
    srk3_stream = RngStream(147).child("srk3")
    assert built == [srk3_stream.path] + [srk3_stream.child("block", i).path
                                          for i in range(1, 16)]
    assert 0 <= trace.params["srk3_fallback_entries"] < plan.n * plan.d


def test_glsm_planted_coordinate_means():
    # Per-sample planted coordinates head for N(nu_i * scale, 1) (positive
    # component) at the corollary configuration.
    p, q = 1.0, 0.25
    plan = plan_glsm(p, q, 2.0, n=64, k=4, tau=1.0, theta=1e-5)  # d defaults to m
    acc = []
    for i in range(60):
        G, tr = sample_k_pds(plan.N, 4, p, q, RngStream(142).child("g", i))
        X, otr = pds_to_glsm(G, plan, RngStream(142).child("r", i), trace=tr)
        S = otr.planted_set
        nus = np.asarray(otr.params["nu"])
        pos = np.zeros(64, dtype=bool)
        pos[otr.component_set] = True
        means = nus[pos] * _sparse_pca_scale(plan, 1e-5)
        acc.append((X[np.ix_(pos, S)] - np.outer(means, np.ones(S.size))).ravel())
    resid = np.concatenate(acc)
    z = resid.mean() * math.sqrt(resid.size)
    assert abs(z) < 4


def test_semi_cr_h0_class_marginals():
    # Null inputs land on the two-probability law: 1/2 - mu1 inside the
    # rotated vertex set, exactly 1/2 elsewhere.
    p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
    plan = plan_semi_cr(p, q, N=N, k=k, ell=ell, n=128)
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
    plan = dataclasses.replace(plan_isgm(p, q, 2.0, r=2, N=128, k=16, t=8, n=2040), mu=0.0)
    G, tr = sample_k_pds(128, 16, p, q, RngStream(151))
    X, _ = pds_to_isgm(G, plan, RngStream(152), trace=tr)
    assert abs(X.var() - 1.0) < 0.01
    cov_cols = covariance_identity_check(X, rng=RngStream(153))
    cov_rows = covariance_identity_check(X.T, rng=RngStream(154))
    assert cov_cols["offdiag_pass"] and cov_rows["offdiag_pass"]


def test_pipeline_outputs_close_across_seeds():
    # Two independent runs of the same pipeline at the same parameters give
    # (flattened) outputs that a two-sample KS test cannot tell apart.
    from scipy.stats import ks_2samp

    p, q = 1.0, 0.25
    plan = plan_isgm(p, q, 2.0, r=2, N=128, k=16, t=8, n=2040)
    G, tr = sample_k_pds(128, 16, p, q, RngStream(159))
    a, _ = pds_to_isgm(G, plan, RngStream(160), trace=tr)
    b, _ = pds_to_isgm(G, plan, RngStream(161), trace=tr)
    assert ks_2samp(a.ravel(), b.ravel()).pvalue > 1e-4
