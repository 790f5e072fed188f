"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The headline results being asymptotic, acceptance is property-based: every
finite-sample distributional contract of the reduction machinery is checked
at its stated tolerance, at desk-scale parameters chosen so the residual
asymptotic slack sits below test power.
"""

import contextlib
import hashlib
import json
import math
import time

import numpy as np
import scipy.stats as sst

from avgcase.cli import main as cli_main
from avgcase.geometry import build_H
from avgcase.graphs import (Graph, PlantedTrace, sample_gnq, sample_k_pds,
                            sample_planted_conditional, semi_cr_labels, semi_cr_rates,
                            semirandom_apply)
from avgcase.kernels import srk3_array, tern_params_from_truncation, tern_pmf
from avgcase.pipelines import (clone_Q, clone_pmfs, graph_clone, isgm_sample_clone,
                               pds_to_isgm, pds_to_semi_cr, plan_isgm,
                               plan_semi_cr, sample_isgm, semi_cr_mus)
from avgcase.prob import RngStream, _run_trials, normal_cdf
from avgcase.verify import (SEMI_CR_CLASSES, _binomial_pmf, chi2_bern_plus_bin,
                            chi2_bern_plus_bin_closed_form, chi2_test,
                            class_z_scores, covariance_identity_check,
                            empirical_tv_to_cdf, exact_tv, exact_tv_hyp_vs_bin,
                            isgm_count_law, isgm_planted_mean_z,
                            isgm_planted_sums, ks_matrix,
                            low_degree_energy,
                            semi_cr_class_counts, semi_cr_class_probs,
                            tv_bound_binomial, tv_hyp_vs_bin_bound)

from test_verify import _energy_by_averaging, _energy_by_enumeration, _partite_sets

ALPHA = 1e-4


@contextlib.contextmanager
def criterion(num, label, limit_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL  {label}  ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"\n[criterion {num:2d}] PASS  {label}  ({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_incidence_matrix_structure():
    with criterion(1, "H_{r,t} structure on the (r,t) grid", 5.0):
        for r in (2, 3, 5, 7):
            for t in (2, 3):
                if r ** t > 4096:
                    continue
                H = build_H(r, t)
                ell = (r ** t - 1) // (r - 1)
                gram = H @ H.T
                assert np.max(np.abs(gram - np.eye(ell))) <= 1e-10, (r, t)
                assert np.unique(H).size == 2
                neg = H < 0
                assert neg[:, 0].all()  # the zero point's column
                expected = (r ** (t - 1) - 1) // (r - 1)
                counts = neg[:, 1:].sum(axis=0)
                assert np.all(counts == expected), (r, t)


def test_criterion_02_graph_clone_exactness():
    with criterion(2, "Graph-Clone pmfs exact; n=6 marginals chi-square", 60.0):
        trials = 100_000
        for p, q in ((0.75, 0.25), (1.0, 0.25)):
            Q = clone_Q(p, q)
            edge, non = clone_pmfs(p, q, p, Q, 2)
            assert np.all(edge >= 0) and np.all(non >= 0)
            assert abs(float(edge.sum()) - 1.0) <= 1e-12
            assert abs(float(non.sum()) - 1.0) <= 1e-12

            # planted-conditional inputs on n = 6 with S = {0, 1, 2} exercise
            # both marginals at once: within-S pairs land on Bern(p)=Bern(P),
            # all others on Bern(Q), per clone.
            S = [0, 1, 2]
            rng = RngStream(2_026_0002).child(f"p{p}")

            def hits(i):
                G = sample_planted_conditional(6, S, p, q, rng.child("g", i))
                vecs = [c.triu_vector().astype(np.int64)
                        for c in graph_clone(G, 2, p, q, p, Q, rng.child("c", i))]
                # pairs (0,1), (0,2), (1,2) sit at triu indices 0, 1, 5, and
                # pairs (3,4), (3,5), (4,5) at indices 12, 13, 14
                return ([int(vec[0] + vec[1] + vec[5]) for vec in vecs]
                        + [int(vec[12] + vec[13] + vec[14]) for vec in vecs])

            totals = np.array(_run_trials(hits, trials)).sum(axis=0)
            in_hits, out_hits = totals[:2], totals[2:]
            for j in range(2):
                if p == 1.0:
                    assert in_hits[j] == 3 * trials  # a clique clones exactly
                else:
                    stat, pval = chi2_test(
                        np.array([3 * trials - in_hits[j], in_hits[j]]),
                        np.array([3 * trials * (1 - p), 3 * trials * p]))
                    assert pval > ALPHA, ("within-S", p, q, j, pval)
                stat, pval = chi2_test(
                    np.array([3 * trials - out_hits[j], out_hits[j]]),
                    np.array([3 * trials * (1 - Q), 3 * trials * Q]))
                assert pval > ALPHA, ("outside-S", p, q, j, pval)


def test_criterion_03_closed_form_bound_suite():
    with criterion(3, "binomial TV bound, chi-square identity, Hyp-vs-Bin", 120.0):
        gen = np.random.default_rng(303)
        for _ in range(200):
            n = int(gen.integers(1, 51))
            P = float(gen.uniform(0.01, 0.99))
            Q = float(gen.uniform(0.05, 0.95))
            assert exact_tv(_binomial_pmf(n, P), _binomial_pmf(n, Q)) <= (
                tv_bound_binomial(n, P, Q) + 1e-12)
        for m in range(1, 1001):
            P = 0.25 + 0.5 * (m % 7) / 7.0
            Q = 0.35 + 0.3 * (m % 5) / 5.0
            assert abs(chi2_bern_plus_bin(P, m, Q)
                       - chi2_bern_plus_bin_closed_form(P, m, Q)) <= 1e-10
        for N, K, n in ((100, 50, 5), (1000, 300, 40), (10_000, 2500, 200),
                        (10_000, 9000, 10_000), (64, 8, 64)):
            assert exact_tv_hyp_vs_bin(N, K, n) <= tv_hyp_vs_bin_bound(N, K, n) + 1e-12
        assert exact_tv_hyp_vs_bin(100, 50, 5) <= 0.2


def test_criterion_04_isgm_null_contract():
    with criterion(4, "k-PDS->ISGM null: per-coordinate KS + covariance", 600.0):
        p, q = 0.75, 0.25
        m = plan_isgm(p, q, 4.0, r=2, N=1600, k=8).m
        plan = plan_isgm(p, q, 4.0, r=2, N=1600, k=8, d=m + 50)
        rng = RngStream(20_260_004)
        G0 = sample_gnq(1600, q, rng.child("h0"))
        samples, _ = pds_to_isgm(G0, plan, rng.child("run"))
        assert samples.shape == (plan.n, plan.d)
        _, pvals = ks_matrix(samples.T, sst.norm.cdf)
        assert float(pvals.min()) >= ALPHA / plan.d, float(pvals.min())
        cov = covariance_identity_check(samples, rng=rng.child("cov"))
        assert cov["offdiag_pass"], cov
        assert cov["diag_pass"], cov


def test_criterion_05_isgm_planted_contract():
    with criterion(5, "k-PDS->ISGM planted: count law + planted means", 900.0):
        p, q = 1.0, 0.25
        # count-law configuration: a small instance, whose counts are checked
        # against their exact law, the Bin(k, r^-t) mixture of hypergeometric
        # laws in ``isgm_count_law``
        plan = plan_isgm(p, q, 4.0, r=2, N=32, k=4, t=9, n=24)
        rng = RngStream(20_260_005)

        def count(i):
            G, tr = sample_k_pds(32, 4, p, q, rng.child("g", i))
            return pds_to_isgm(G, plan, rng.child("r", i), trace=tr)[1].component_set.size

        counts = np.array(_run_trials(count, 2000), dtype=np.int64)
        stat, pval = isgm_count_law(counts, plan)
        assert pval > ALPHA, (stat, pval)

        # mean-check configuration: more planted mass per run so the pooled
        # standard error sits at mu / 4
        plan2 = plan_isgm(p, q, 2.0, r=2, N=128, k=16, t=8, n=2040)

        def planted_sums(i):
            G, tr = sample_k_pds(128, 16, p, q, rng.child("m", i))
            return isgm_planted_sums(*pds_to_isgm(G, plan2, rng.child("mr", i), trace=tr))

        sums = np.zeros(4)
        for trial_sums in _run_trials(planted_sums, 100):
            sums += trial_sums
        z_pos, z_neg = isgm_planted_mean_z(sums, plan2.mu, plan2.eps)
        assert abs(z_pos) <= 4.0, z_pos
        assert abs(z_neg) <= 4.0, z_neg


def test_criterion_06_sample_cloning():
    with criterion(6, "sample cloning: variance, mean scaling, exact counts", 120.0):
        ell = 3
        X, tr = sample_isgm(200, 30, 200, 1.0, 0.5, RngStream(20_260_006))
        m0 = tr.component_set.size
        out, out_tr = isgm_sample_clone(X, tr, ell, (2 ** ell) * 200, RngStream(606))
        assert out_tr.params["pre_subsample_positive"] == (2 ** ell) * m0
        assert out_tr.component_set.size == (2 ** ell) * m0
        # per-coordinate variance within 1% (pooled over non-planted coords)
        others = np.setdiff1d(np.arange(200), tr.planted_set)
        v = out[:, others].var()
        assert abs(v - 1.0) <= 0.01, v
        # planted means scale by 2^(-3/2) within 4 SE
        pos = np.zeros(out.shape[0], dtype=bool)
        pos[out_tr.component_set] = True
        S = out_tr.planted_set
        target = 2.0 ** (-ell / 2.0)
        vals = out[np.ix_(pos, S)]
        z = (vals.mean() - target) * math.sqrt(vals.size)
        assert abs(z) <= 4.0, z
        neg_vals = out[np.ix_(~pos, S)]
        z2 = (neg_vals.mean() + target) * math.sqrt(neg_vals.size)
        assert abs(z2) <= 4.0, z2


def test_criterion_07_semi_cr_target_laws():
    with criterion(7, "SEMI-CR class marginals + adversary composition", 600.0):
        p, q, N, k, ell = 1.0, 0.25, 32, 4, 2
        rng = RngStream(20_260_007)
        plan = plan_semi_cr(p, q, N=N, k=k, ell=ell)
        mu1, mu2, mu3 = semi_cr_mus(plan.mu, ell)
        R = 2000

        def classes(i):
            G, tr = sample_k_pds(N, k, p, q, rng.child("g", i))
            G_out, otr = pds_to_semi_cr(G, plan, rng.child("r", i), trace=tr)
            h, t = semi_cr_class_counts(G_out, otr)
            # the fifth class, outside V^2, is everything the four leave
            return (np.append(h, G_out.edge_count - h.sum()),
                    np.append(t, G_out.n * (G_out.n - 1) // 2 - t.sum()))

        hits = np.zeros(5)
        tots = np.zeros(5)
        for h, t in _run_trials(classes, R):
            hits += h
            tots += t
        probs = semi_cr_class_probs(mu1, mu2, mu3) + (0.5,)
        names = SEMI_CR_CLASSES + ("outside V^2",)
        for name, t, z in zip(names, tots, class_z_scores(hits, tots, probs)):
            assert t >= 10_000, (name, t)
            assert abs(z) <= 3.0, (name, z)

        # The monotone adversary on the planted graph reproduces the same
        # class marginals (target law taken at V = [n]).
        n_cmp, kS, kS2 = 128, 4, 12

        def adversary_classes(i):
            g2 = rng.child("latent", i).generator()
            S = np.sort(g2.choice(n_cmp, kS, replace=False))
            S2 = np.sort(g2.choice(np.setdiff1d(np.arange(n_cmp), S), kS2,
                                   replace=False))
            Gp = sample_planted_conditional(n_cmp, S, 0.5 + mu3, 0.5,
                                            rng.child("pds", i))
            tr = PlantedTrace(seed=0, planted_set=S,
                              params={"S_prime": S2, "V": np.arange(n_cmp)})
            Ga = semirandom_apply(Gp, tr, semi_cr_labels(n_cmp, np.arange(n_cmp), S2, S),
                                  semi_cr_rates(mu1, mu2), rng.child("apply", i))
            return semi_cr_class_counts(Ga, tr)

        a_hits = np.zeros(4)
        a_tots = np.zeros(4)
        for h, t in _run_trials(adversary_classes, R):
            a_hits += h
            a_tots += t
        a_z = class_z_scores(a_hits, a_tots, semi_cr_class_probs(mu1, mu2, mu3))
        for name, z in zip(SEMI_CR_CLASSES, a_z):
            assert abs(z) <= 3.0, ("adversary " + name, z)


def test_criterion_08_srk3_marginals(tern_bits):
    with criterion(8, "3-srk marginals: binned TV <= 0.01 at 1e6 samples", 300.0):
        # sparse-PCA corollary configuration with theta properly below
        # 1/(log n)^4; at theta = 1e-3 (which still satisfies the diagnostic
        # universality thresholds) the kernel gates would visibly truncate.
        n_prob, k_prob, theta = 10_000, 100, 1e-5
        mu = 1.0 / math.sqrt(4.0 * k_prob * math.log(n_prob))
        tau = 1.0
        a, mu1, mu2 = tern_params_from_truncation(tau, mu)
        nu = 1.0 / math.sqrt(3.0 * math.log(n_prob))
        shift = nu * math.sqrt(3.0 * theta * math.log(n_prob) / k_prob)
        rng = RngStream(20_260_008)
        M = 1_000_000
        for tag, law, loc in (("plus", (a, mu1, mu2), shift),
                              ("minus", (a, -mu1, mu2), -shift),
                              ("null", (a, 0.0, 0.0), 0.0)):
            bits = tern_bits(*law, rng.child("bits-" + tag), M)
            out, _ = srk3_array(bits[None], [shift], a, mu1, mu2, 60, rng.child("kern-" + tag))
            tv = empirical_tv_to_cdf(out[0], lambda u, s=loc: sst.norm.ppf(u, loc=s), 200)
            assert tv <= 0.01, (tag, tv)
        # degenerate P+ = P- = Q: outputs are exactly Q draws
        bits = tern_bits(a, mu1, mu2, rng.child("dg"), 100_000)
        out, _ = srk3_array(bits[None], [0.0], a, mu1, mu2, 40, rng.child("dgk"))
        _, pval = sst.kstest(out[0], sst.norm.cdf)
        assert pval > ALPHA, pval


def test_criterion_09_truncation_identity():
    with criterion(9, "truncation parameters match the exact trinomial law", 1.0):
        for tau in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0):
            for mu in (1e-6, 1e-4, 0.01, 0.1, 0.3, 1.0):
                a, mu1, mu2 = tern_params_from_truncation(tau, mu)
                assert mu1 > 0.0 and mu2 > 0.0, (tau, mu)
                pm = tern_pmf(a, mu1, mu2)
                exact = (float(normal_cdf(-tau - mu)),
                         float(normal_cdf(tau - mu) - normal_cdf(-tau - mu)),
                         float(1.0 - normal_cdf(tau - mu)))
                for got, want in zip(pm, exact):
                    assert abs(got - want) <= 1e-12, (tau, mu)


def test_criterion_10_low_degree_energy():
    with criterion(10, "closed-form energy equals the enumeration and the averaging oracle",
                   60.0):
        for n, k in ((6, 3), (6, 2), (8, 4), (8, 2)):
            for D in (1, 2, 3):
                for p in (1.0, 0.75):
                    closed = low_degree_energy(n, k, D, p)[0]
                    assert (closed == _energy_by_enumeration(n, k, D, p)
                            == _energy_by_averaging(_partite_sets(n, k), n, D, p)), (n, k, D, p)
        # single cross-part edge: coefficient (k/n)^2, contribution (k/n)^4
        cross = 12
        assert abs(low_degree_energy(6, 3, 1)[0] - cross * (0.5) ** 4) <= 1e-15


def test_criterion_11_cli_reproducibility(tmp_path):
    with criterion(11, "CLI artifacts byte-identical across reruns", 60.0):
        def digest_dir(d):
            return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(d.iterdir())}

        jobs = [
            ("gnq", ["generate", "gnq", "--n", "60", "--q", "0.5", "--seed", "7"]),
            ("kpds", ["generate", "kpds", "--n", "40", "--k", "4", "--p", "0.9",
                      "--q", "0.2", "--seed", "1"]),
            ("isgm-gen", ["generate", "isgm", "--n", "30", "--k", "4", "--d", "20",
                          "--mu", "0.4", "--eps", "0.5", "--seed", "3"]),
            ("tg", ["generate", "tg", "--variant", "h1", "--n", "40", "--m", "20",
                    "--k", "3", "--k2", "5", "--mu1", "0.05", "--mu2", "0.1",
                    "--mu3", "0.1", "--seed", "4"]),
            ("verify", ["verify", "--pipeline", "isgm",
                        "--params", '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}',
                        "--trials", "1", "--alpha", "1e-4", "--seed", "5"]),
        ]
        src = tmp_path / "src"
        assert cli_main(["generate", "kpds", "--n", "32", "--k", "4", "--p", "1.0",
                         "--q", "0.25", "--seed", "11", "--out", str(src)]) == 0
        jobs.append(("reduce", ["reduce", "isgm", "--in", str(src / "instance.graph"),
                                "--trace", str(src / "trace.json"), "--k", "4",
                                "--p", "1.0", "--q", "0.25", "--r", "2", "--w", "2",
                                "--seed", "5"]))
        jobs.append(("semi", ["reduce", "semi-cr", "--in", str(src / "instance.graph"),
                              "--trace", str(src / "trace.json"), "--k", "4",
                              "--p", "1.0", "--q", "0.25", "--ell", "2",
                              "--seed", "6"]))
        for name, argv in jobs:
            d1 = tmp_path / name / "run1"
            d2 = tmp_path / name / "run2"
            for d in (d1, d2):
                rc = cli_main(argv + ["--out", str(d)])
                assert rc == 0, (name, rc)
            assert digest_dir(d1) == digest_dir(d2), name
