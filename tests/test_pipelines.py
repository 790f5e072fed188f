"""Tests for the reduction pipelines and the parameter planner."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from avgcase.errors import ParameterError
from avgcase.graphs import (Graph, VertexPartition, sample_gnq, sample_k_pds)
from avgcase.pipelines import (clone_Q, clone_pmfs, graph_clone, check_uc,
                               isgm_mu_prime, isgm_sample_clone,
                               pds_to_glsm, pds_to_isgm, pds_to_semi_cr,
                               plan_parameters, sample_isgm, semi_cr_mus,
                               to_k_partite_submatrix)
from avgcase.kernels import ComputablePair, rk_gauss_mu_bound
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
    E = VertexPartition.contiguous(N, k)
    G, tr = sample_k_pds(N, k, p, q, E, RngStream(103))
    M, F, tr2 = to_k_partite_submatrix(G, E, p, q, 120, RngStream(104), tr)
    assert M.shape == (120, 120) and M.dtype == np.uint8
    assert F.k == k and F.n == 120
    U = tr2.planted_set
    assert U.size == k
    assert all(np.intersect1d(U, part).size == 1 for part in F.parts())
    with pytest.raises(ParameterError):
        to_k_partite_submatrix(G, E, p, q, 121, RngStream(105))  # k | m fails
    with pytest.raises(ParameterError):
        to_k_partite_submatrix(G, E, p, q, 72, RngStream(105))  # m too small


def test_submatrix_h0_entry_marginals():
    # Under H0 every off-diagonal entry is Bern(Q); pooled over entry classes
    # (same part / cross part) and resamples.
    N, k, p, q = 32, 4, 0.75, 0.25
    Q = clone_Q(p, q)
    E = VertexPartition.contiguous(N, k)
    m = 120
    hits = np.zeros(2)
    tots = np.zeros(2)
    part_of = VertexPartition.contiguous(m, k).part_of
    same = part_of[:, None] == part_of[None, :]
    off = ~np.eye(m, dtype=bool)
    for i in range(40):
        G = sample_gnq(N, q, RngStream(106).child("g", i))
        M, _, _ = to_k_partite_submatrix(G, E, p, q, m, RngStream(106).child("s", i))
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
    E = VertexPartition.contiguous(N, k)
    hits = tot = 0
    for i in range(600):
        G, tr = sample_k_pds(N, k, p, q, E, RngStream(107).child("g", i))
        M, _, tr2 = to_k_partite_submatrix(G, E, p, q, 128,
                                           RngStream(107).child("s", i), tr)
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
    E = VertexPartition.contiguous(N, k)
    m = 120
    sizes = []
    for i in range(500):
        G = sample_gnq(N, q, RngStream(108).child("g", i))
        M, F, _ = to_k_partite_submatrix(G, E, p, q, m, RngStream(108).child("s", i))
        diag = np.diag(M)
        for part in F.parts():
            sizes.append(int(diag[part].sum()))
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
    plan = plan_parameters("SEMI_CR", 1.0, 0.25, 4.0, N=32, k=4, ell=2)
    assert plan.m % ((3 ** 2 - 1) * 4) == 0
    mu1, mu2, mu3 = semi_cr_mus(plan.mu, 2)
    assert plan.report["mu1"] == mu1 and plan.report["mu3"] == mu3
    assert plan.report["planted_size"] == 4
    assert plan.mu == rk_gauss_mu_bound(plan.p, plan.Q, plan.m)


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
    kwargs = dict(kwargs)
    w = kwargs.pop("w", 4.0)
    with pytest.raises(ParameterError):
        plan_parameters(target, 1.0, 0.25, w, N=32, k=4, **kwargs)


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
    E = VertexPartition.contiguous(N, k)
    if planted:
        G, tr = sample_k_pds(N, k, p, q, E, RngStream(seed))
    else:
        G, tr = sample_gnq(N, q, RngStream(seed)), None
    return G, E, plan, tr


def test_isgm_shape_and_determinism():
    G, E, plan, tr = _small_isgm_setup()
    a = pds_to_isgm(G, E, plan, RngStream(111), trace=tr)
    b = pds_to_isgm(G, E, plan, RngStream(111), trace=tr)
    assert a.samples.shape == (plan.n, plan.d)
    assert_array_equal(a.samples, b.samples)
    assert_array_equal(a.trace.planted_set, b.trace.planted_set)
    c = pds_to_isgm(G, E, plan, RngStream(112), trace=tr)
    assert not np.array_equal(a.samples, c.samples)


def test_isgm_trace_consistency():
    G, E, plan, tr = _small_isgm_setup()
    inst = pds_to_isgm(G, E, plan, RngStream(113), trace=tr)
    assert inst.trace.planted_set.size == plan.k
    assert np.all(inst.trace.component_set < plan.n)
    mu, eps = inst.trace.params["mu"], inst.trace.params["eps"]
    mu_p = inst.trace.params["mu_prime"]
    assert abs(eps * mu_p + (1 - eps) * mu) < 1e-18


def test_isgm_structural_errors():
    G, E, plan, tr = _small_isgm_setup()
    plan.d = plan.m - 1
    with pytest.raises(ParameterError):
        pds_to_isgm(G, E, plan, RngStream(114))
    G, E, plan, tr = _small_isgm_setup()
    plan.mu *= 3.0
    with pytest.raises(ParameterError):
        pds_to_isgm(G, E, plan, RngStream(114), trace=tr)
    pds_to_isgm(G, E, plan, RngStream(114), trace=tr, allow_unproven=True)


def test_isgm_h0_moments():
    G, E, plan, _ = _small_isgm_setup(planted=False)
    inst = pds_to_isgm(G, E, plan, RngStream(115))
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
    E = VertexPartition.contiguous(N, k)
    plan = plan_parameters("SEMI_CR", p, q, 4.0, N=N, k=k, ell=ell, n=128)
    for seed in range(5):
        G, tr = sample_k_pds(N, k, p, q, E, RngStream(200 + seed))
        G_out, otr = pds_to_semi_cr(G, E, plan, RngStream(300 + seed), trace=tr)
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
    E = VertexPartition.contiguous(N, k)
    G = sample_gnq(N, q, RngStream(130))
    plan = plan_parameters("SEMI_CR", p, q, 4.0, N=N, k=k, ell=2, n=64)
    G_out, otr = pds_to_semi_cr(G, E, plan, RngStream(131))
    assert otr.planted_set is None
    assert len(otr.params["V"]) == 64
    short = plan_parameters("SEMI_CR", p, q, 4.0, N=N, k=k, ell=2, n=63)
    with pytest.raises(ParameterError):
        pds_to_semi_cr(G, E, short, RngStream(132))  # n below m''


def test_semi_cr_rejects_a_foreign_plan():
    p, q, N, k = 1.0, 0.25, 32, 4
    G = sample_gnq(N, q, RngStream(133))
    isgm_plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=N, k=k)
    with pytest.raises(ParameterError, match="SEMI_CR plan"):
        pds_to_semi_cr(G, VertexPartition.contiguous(N, k), isgm_plan, RngStream(134))
    plan = plan_parameters("SEMI_CR", p, q, 4.0, N=N, k=k, ell=2)
    with pytest.raises(ParameterError, match="partition"):
        pds_to_semi_cr(G, VertexPartition.contiguous(N, 8), plan, RngStream(134))


# ---------------------------------------------------------------------------
# glsm + universality checker
# ---------------------------------------------------------------------------

def _spca_family(n, k, theta):
    scale = math.sqrt(3.0 * theta * math.log(n) / k)
    return (lambda nu: ComputablePair.gaussian_mean_shift(nu * scale),
            Gaussian(0.0, 1.0 / math.sqrt(3.0 * math.log(n))))


def test_glsm_h0_shape_and_coordinates():
    import scipy.stats as sst

    from avgcase.verify import ks_matrix

    p, q = 1.0, 0.25
    plan = plan_parameters("GLSM", p, q, 2.0, n=48, k=4, d=200)
    E = VertexPartition.contiguous(plan.N, 4)
    G = sample_gnq(plan.N, q, RngStream(140))
    family, D = _spca_family(10_000, 100, 1e-5)
    X, trace = pds_to_glsm(G, E, plan, 1.0, family, D, RngStream(141))
    assert X.shape == (48, plan.d)
    assert len(trace.params["nu"]) == 48
    _, pvals = ks_matrix(X.T, sst.norm.cdf)
    assert pvals.min() > 1e-4 / X.shape[1]


def test_glsm_planted_coordinate_means():
    # Per-sample planted coordinates head for N(nu_i * scale, 1) (positive
    # component) at the corollary configuration.
    p, q = 1.0, 0.25
    plan = plan_parameters("GLSM", p, q, 2.0, n=64, k=4)  # d defaults to m
    E = VertexPartition.contiguous(plan.N, 4)
    theta = 1e-5
    family, D = _spca_family(10_000, 100, theta)
    scale = math.sqrt(3.0 * theta * math.log(10_000) / 100)
    acc = []
    for i in range(60):
        G, tr = sample_k_pds(plan.N, 4, p, q, E, RngStream(142).child("g", i))
        X, otr = pds_to_glsm(G, E, plan, 1.0, family, D, RngStream(142).child("r", i),
                             trace=tr)
        S = otr.planted_set
        nus = np.asarray(otr.params["nu"])
        pos = np.zeros(64, dtype=bool)
        pos[otr.component_set] = True
        acc.append((X[np.ix_(pos, S)] - np.outer(nus[pos] * scale, np.ones(S.size))).ravel())
    resid = np.concatenate(acc)
    z = resid.mean() * math.sqrt(resid.size)
    assert abs(z) < 4


def test_check_uc_spca_passes_and_fat_fails():
    family, D = _spca_family(10_000, 100, 1e-3)
    rep = check_uc(10_000, 100, 1000, D, family, 60_000, RngStream(143))
    assert rep["condition_i"]["pass"] and rep["condition_ii"]["pass"]
    # a deliberately fat planted family (mean shift 1) breaks condition (ii)
    fat = lambda nu: ComputablePair.gaussian_mean_shift(float(np.sign(nu) or 1.0))
    rep2 = check_uc(10_000, 100, 1000, D, fat, 20_000, RngStream(144))
    assert not rep2["condition_ii"]["pass"]


def test_check_uc_asymmetric_d_fails_condition_i():
    family, _ = _spca_family(10_000, 100, 1e-3)
    D_wide = Gaussian(0.0, 10.0)  # mass escapes [-1, 1]
    rep = check_uc(10_000, 100, 1000, D_wide, family, 20_000, RngStream(145))
    assert not rep["condition_i"]["pass"]


def test_semi_cr_h0_class_marginals():
    # Null inputs land on the two-probability law: 1/2 - mu1 inside the
    # rotated vertex set, exactly 1/2 elsewhere.
    p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
    E = VertexPartition.contiguous(N, k)
    plan = plan_parameters("SEMI_CR", p, q, 4.0, N=N, k=k, ell=ell, n=128)
    hits = np.zeros(2)
    tots = np.zeros(2)
    mu1 = None
    for i in range(150):
        G = sample_gnq(N, q, RngStream(150).child("g", i))
        G_out, otr = pds_to_semi_cr(G, E, plan, RngStream(150).child("r", i))
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
    E = VertexPartition.contiguous(128, 16)
    G, tr = sample_k_pds(128, 16, p, q, E, RngStream(151))
    inst = pds_to_isgm(G, E, plan, RngStream(152), trace=tr)
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
    E = VertexPartition.contiguous(128, 16)
    G, tr = sample_k_pds(128, 16, p, q, E, RngStream(159))
    a = pds_to_isgm(G, E, plan, RngStream(160), trace=tr)
    b = pds_to_isgm(G, E, plan, RngStream(161), trace=tr)
    assert empirical_tv_binned(a.samples, b.samples, 100) <= 0.03
