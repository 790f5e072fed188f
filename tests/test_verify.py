"""Tests for the statistical-distance machinery, the low-degree energy and
the verify batteries, their trial processes included."""

import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import avgcase
from avgcase import prob
from avgcase.cli import main
from avgcase.errors import ParameterError
from avgcase.geometry import build_H
from avgcase.pipelines import plan_isgm
from avgcase.prob import RngStream
from avgcase.verify import (_MAX_DEGREE, _MAX_N, FinitePmf, _binomial_pmf, _isgm_count_pmf,
                            battery_params, chi2_bern_plus_bin,
                            chi2_bern_plus_bin_closed_form, chi2_test,
                            covariance_identity_check, empirical_tv_to_cdf, exact_tv,
                            exact_tv_hyp_vs_bin, ks_matrix, ks_test,
                            low_degree_energy,
                            semi_cr_class_counts, tv_bound_bern_bin_product,
                            tv_bound_binomial, tv_hyp_vs_bin_bound,
                            verify_reduction)


def test_exact_tv_examples():
    assert exact_tv(_binomial_pmf(1, 0.5), _binomial_pmf(1, 0.5)) == 0.0
    assert exact_tv(_binomial_pmf(1, 0.0), _binomial_pmf(1, 1.0)) == 1.0
    # hand enumeration: (.25,.5,.25) vs (.5625,.375,.0625)
    assert abs(exact_tv(_binomial_pmf(2, 0.5), _binomial_pmf(2, 0.25)) - 0.3125) < 1e-12


def test_exact_tv_disjoint_supports():
    a = FinitePmf((0.0, 1.0), (0.5, 0.5))
    b = FinitePmf((2.0, 3.0), (0.5, 0.5))
    assert exact_tv(a, b) == 1.0


def test_tv_bound_binomial_examples():
    assert tv_bound_binomial(10, 0.5, 0.5) == 0.0
    bound = tv_bound_binomial(1, 0.75, 0.5)
    assert abs(bound - 0.25 * math.sqrt(2.0)) < 1e-12
    assert exact_tv(_binomial_pmf(1, 0.75), _binomial_pmf(1, 0.5)) <= bound
    bound20 = tv_bound_binomial(20, 0.6, 0.5)
    assert abs(bound20 - 0.1 * math.sqrt(20 / 0.5)) < 1e-12
    assert exact_tv(_binomial_pmf(20, 0.6), _binomial_pmf(20, 0.5)) <= bound20


def test_tv_bound_binomial_dominates_on_grid():
    # 200-point grid of (n <= 50, P, Q): the bound dominates the exact TV.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        P = float(rng.uniform(0.01, 0.99))
        Q = float(rng.uniform(0.05, 0.95))
        assert exact_tv(_binomial_pmf(n, P), _binomial_pmf(n, Q)) <= (
            tv_bound_binomial(n, P, Q) + 1e-12)


def test_chi2_bern_plus_bin_examples_and_identity():
    assert chi2_bern_plus_bin(0.5, 7, 0.5) < 1e-14  # P = Q
    assert abs(chi2_bern_plus_bin(1.0, 1, 0.5) - 1.0) < 1e-12
    assert abs(chi2_bern_plus_bin(0.8, 5, 0.5) - 0.072) < 1e-12
    for m in (1, 2, 10, 100, 1000):
        for P, Q in ((0.8, 0.5), (0.1, 0.6), (1.0, 0.25), (0.45, 0.5)):
            assert abs(chi2_bern_plus_bin(P, m, Q)
                       - chi2_bern_plus_bin_closed_form(P, m, Q)) < 1e-10


def test_product_tv_bound_small_products():
    # exact TV of the k-fold product against Bin(m, Q)^k stays below the
    # product bound; enumerated for small k and m.
    import itertools

    import scipy.stats as sst

    m, Q = 6, 0.4
    for Ps in ([0.9], [0.9, 0.2], [1.0, 0.0, 0.5]):
        k = len(Ps)
        marg = []
        for P in Ps:
            t = np.arange(m + 1)
            pmf = (1 - P) * sst.binom.pmf(t, m - 1, Q) + P * sst.binom.pmf(t - 1, m - 1, Q)
            marg.append(pmf)
        ref = sst.binom.pmf(np.arange(m + 1), m, Q)
        tv = 0.0
        for combo in itertools.product(range(m + 1), repeat=k):
            a = np.prod([marg[i][c] for i, c in enumerate(combo)])
            b = np.prod([ref[c] for c in combo])
            tv += abs(a - b)
        tv *= 0.5
        assert tv <= tv_bound_bern_bin_product(Ps, m, Q) + 1e-12


def test_hyp_vs_bin_bound():
    assert tv_hyp_vs_bin_bound(100, 50, 0) == 0.0
    assert exact_tv_hyp_vs_bin(100, 50, 0) == 0.0
    assert exact_tv_hyp_vs_bin(100, 50, 5) <= 0.2
    # drain the urn: the bound is vacuous but valid
    assert exact_tv_hyp_vs_bin(30, 11, 30) <= tv_hyp_vs_bin_bound(30, 11, 30)
    rng = np.random.default_rng(8)
    for _ in range(40):
        N = int(rng.integers(10, 2000))
        K = int(rng.integers(1, N))
        n = int(rng.integers(1, N + 1))
        assert exact_tv_hyp_vs_bin(N, K, n) <= tv_hyp_vs_bin_bound(N, K, n) + 1e-12
    with pytest.raises(ParameterError):
        tv_hyp_vs_bin_bound(10, 5, 11)


def test_empirical_tv_to_cdf():
    import scipy.stats as sst

    # the binned estimator carries a sqrt(bins/M)-scale noise floor, so the
    # 0.01 headroom needs M = 1e6 at 200 bins
    x = np.random.default_rng(4).standard_normal(1_000_000)
    assert empirical_tv_to_cdf(x, sst.norm.ppf, 200) < 0.01
    assert empirical_tv_to_cdf(x + 3.0, sst.norm.ppf, 200) > 0.5


def test_ks_and_chi2_calibration():
    import scipy.stats as sst

    rejections = 0
    for i in range(200):
        x = RngStream(9).child("cal", i).generator().standard_normal(500)
        _, pval = ks_test(x, sst.norm.cdf)
        rejections += pval < 1e-4
    assert rejections <= 1
    # constant samples against a continuous cdf: reject hard
    _, pval = ks_test(np.zeros(1000), sst.norm.cdf)
    assert pval < 1e-10
    # exact match of counts: chi2 = 0
    stat, pval = chi2_test(np.array([10.0, 30.0]), np.array([10.0, 30.0]))
    assert stat == 0.0 and pval == 1.0
    with pytest.raises(ValueError, match="zero expectation"):
        chi2_test(np.array([5.0, 1.0]), np.array([6.0, 0.0]))


def test_ks_matrix_agrees_with_scipy():
    import scipy.stats as sst

    X = RngStream(10).child("m").generator().standard_normal((5, 400))
    stats, pvals = ks_matrix(X, sst.norm.cdf)
    for i in range(5):
        s, p = ks_test(X[i], sst.norm.cdf)
        assert abs(stats[i] - s) < 1e-12
        assert abs(pvals[i] - p) < 1e-9


def test_covariance_check_detects_inflation():
    gen = RngStream(11).child("c").generator()
    X = gen.standard_normal((4000, 50))
    rep = covariance_identity_check(X, rng=RngStream(12))
    assert rep["offdiag_pass"] and rep["diag_pass"]
    rep2 = covariance_identity_check(1.3 * X, rng=RngStream(12))
    assert not rep2["diag_pass"]


# ---------------------------------------------------------------------------
# low-degree energy, against brute-force sums over every edge set
# ---------------------------------------------------------------------------
#
# The references below sum the squared coefficient over each edge set alpha,
# 1 <= |alpha| <= D, in exact rationals; the acceptance suite imports them.

def _edge_sets(pairs, D):
    return itertools.chain.from_iterable(itertools.combinations(pairs, j)
                                         for j in range(1, D + 1))


def _energy_by_enumeration(n, k, D, p=1.0):
    """k-partite energy from the coefficient's formula over cross-part pairs:
    (k/n)^|V(alpha)| (2p-1)^|alpha| when V(alpha) meets each part at most
    once, and zero otherwise."""
    size = n // k
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if u // size != v // size]
    edge = 2 * Fraction(p) - 1
    total = Fraction(0)
    for alpha in _edge_sets(pairs, D):
        verts = {x for e in alpha for x in e}
        if len({x // size for x in verts}) == len(verts):
            total += (Fraction(k, n) ** len(verts) * edge ** len(alpha)) ** 2
    return float(total)


def _energy_by_averaging(planted_sets, n, D, p=1.0):
    """Energy from E_S[chi_alpha] = Pr[V(alpha) in S] (2p-1)^|alpha|, averaged
    explicitly over equally likely planted sets S, for every alpha on [n]."""
    sets = [frozenset(S) for S in planted_sets]
    edge = 2 * Fraction(p) - 1
    total = Fraction(0)
    for alpha in _edge_sets(list(itertools.combinations(range(n), 2)), D):
        verts = frozenset(x for e in alpha for x in e)
        hits = sum(verts <= S for S in sets)
        total += (Fraction(hits, len(sets)) * edge ** len(alpha)) ** 2
    return float(total)


def _partite_sets(n, k):
    """The (n/k)^k planted sets with one vertex in each part."""
    size = n // k
    return itertools.product(*(range(i * size, (i + 1) * size) for i in range(k)))


def test_energy_degree_zero_and_single_edge():
    assert low_degree_energy(6, 3, 0) == (0.0, 0.0)
    # every alpha with one cross-part edge contributes (k/n)^4, and without
    # the promise every edge contributes (k(k-1) / (n(n-1)))^2
    n, k = 6, 3
    cross = n * (n - 1) // 2 - k  # parts of size 2: 3 within-part pairs
    partite, plain = low_degree_energy(n, k, 1)
    assert abs(partite - cross * (k / n) ** 4) < 1e-15
    assert abs(plain - 15 * (6 / 30) ** 2) < 1e-15


def test_energy_matches_oracle_exactly():
    for n, k, D in [(6, 3, 2), (6, 2, 3), (8, 4, 2), (6, 3, 3)]:
        assert (low_degree_energy(n, k, D)[0] == _energy_by_enumeration(n, k, D)
                == _energy_by_averaging(_partite_sets(n, k), n, D)), (n, k, D)
    for p in (0.9, 0.5, 0.75):
        assert (low_degree_energy(6, 3, 2, p)[0] == _energy_by_enumeration(6, 3, 2, p)
                == _energy_by_averaging(_partite_sets(6, 3), 6, 2, p)), p


def test_energy_unconstrained_matches_brute_force():
    # X ~ Hyp(n, k, k) against the average over all k-subsets of [n]
    for n in range(2, 8):
        for k in (k for k in range(1, n + 1) if n % k == 0):
            for D in (1, 2, 3):
                for p in (1.0, 0.75):
                    brute = _energy_by_averaging(itertools.combinations(range(n), k), n, D, p)
                    assert low_degree_energy(n, k, D, p)[1] == brute, (n, k, D, p)


def test_energy_pds_half_vanishes():
    # p = 1/2 kills the signal: factor (2p - 1) = 0
    assert low_degree_energy(8, 4, 3, 0.5) == (0.0, 0.0)


def test_energy_refuses_sizes_above_its_bounds():
    # the largest call accepted runs; its energies are past the float range
    assert low_degree_energy(_MAX_N, _MAX_N // 2, _MAX_DEGREE, 5e-324) == (math.inf, math.inf)
    with pytest.raises(ParameterError, match="degree D"):
        low_degree_energy(40, 4, _MAX_DEGREE + 1)
    with pytest.raises(ParameterError, match="above"):
        low_degree_energy(_MAX_N + 4, 4, 2)


def test_energy_rejects_bad_signal():
    for p in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match=r"p in \[0, 1\]"):
            low_degree_energy(6, 3, 2, p)


@pytest.mark.parametrize("n, k", [(7, 3), (6, 0), (6, -3), (2, 4), (0, 1)])
def test_energy_query_needs_k_parts_of_n(n, k):
    with pytest.raises(ParameterError, match="must divide"):
        low_degree_energy(n, k, 1)



# ---------------------------------------------------------------------------
# reduction contracts
# ---------------------------------------------------------------------------

def test_isgm_count_law_is_the_exact_mixture():
    # Every nonzero point of H_{r,t} has r^(t-1) positive rotated entries and
    # the zero point none: the law counts on both.
    for r, t in ((2, 3), (2, 7), (3, 2), (5, 2)):
        positive = (build_H(r, t) > 0).sum(axis=0)
        assert positive[0] == 0 and set(positive[1:].tolist()) == {r ** (t - 1)}
    # At the battery defaults (r=2, t=7, k=4, n=127) the mixture has the
    # moments of Binomial(127, 1/2), but not its shape.
    d = battery_params("isgm", None)
    plan = plan_isgm(d["p"], d["q"], d["w"], r=d["r"], N=d["N"], k=d["k"])
    assert (plan.r, plan.t, plan.k, plan.n) == (2, 7, 4, 127)
    law = _isgm_count_pmf(plan)
    values, probs = law.as_arrays()
    mean = probs @ values
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(63.5, abs=1e-9)
    assert probs @ (values - mean) ** 2 == pytest.approx(31.75, abs=1e-9)
    assert exact_tv(law, _binomial_pmf(127, 0.5)) == pytest.approx(0.0702, abs=5e-4)


# ---------------------------------------------------------------------------
# verify_reduction reports
# ---------------------------------------------------------------------------

def test_verify_reduction_report_shape_and_roundtrip(tmp_path):
    report = verify_reduction("isgm", {"N": 32, "k": 4, "p": 1.0, "q": 0.25},
                              trials=0, significance=1e-4, seed=5)
    assert report["verdict"] in ("pass", "fail")
    names = {t["name"] for t in report["tests"]}
    assert "h0_per_coordinate_ks" in names
    # underpowered trials are inconclusive, not failing
    planted = [t for t in report["tests"] if t["name"].startswith("h1")]
    assert planted and all(t["status"] == "inconclusive" for t in planted)
    assert 0.0 < report["count_law_tv_to_binomial"] < 1.0
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))


def test_verify_reduction_fault_injection_flips_verdict():
    ok = verify_reduction("isgm", {"N": 32, "k": 4, "p": 1.0, "q": 0.25},
                          trials=0, significance=1e-4, seed=6)
    assert ok["verdict"] == "pass"
    bad = verify_reduction("isgm", {"N": 32, "k": 4, "p": 1.0, "q": 0.25},
                           trials=0, significance=1e-4, seed=6, fault="rotation")
    assert bad["verdict"] == "fail"


def test_verify_reduction_unknown_pipeline():
    with pytest.raises(ParameterError):
        verify_reduction("nope", {}, 10, 1e-4)


def test_battery_params_defaults_and_errors():
    assert battery_params("semi-cr", None) == {"p": 1.0, "q": 0.25, "N": 32, "k": 4,
                                               "ell": 2}
    assert battery_params("isgm", {"N": 32, "p": 1})["N"] == 32
    for bad, says in (([1], "JSON object"), ({"bogus": 3}, "allowed"),
                      ({"k": 4.0}, "integer"), ({"p": "1"}, "number"),
                      ({"ell": True}, "integer")):
        with pytest.raises(ParameterError, match=says):
            battery_params("semi-cr", bad)


def test_verify_glsm_reports_the_plan_it_runs():
    report = verify_reduction("glsm", {}, trials=0, significance=1e-4, seed=7)
    plan = report["plan"]
    assert plan["d"] == plan["m"] and plan["report"]["m_le_d"] is True
    wide = verify_reduction("glsm", {"d": 300}, trials=0, significance=1e-4, seed=7)
    assert wide["plan"]["d"] == 300


# ---------------------------------------------------------------------------
# SEMI-CR class counts
# ---------------------------------------------------------------------------

def _class_counts_reference(G_out, trace):
    """The n^2 index-array version of ``semi_cr_class_counts``, kept as its oracle."""
    adj = G_out.to_dense()
    n = G_out.n
    S = np.asarray(trace.planted_set) if trace.planted_set is not None else np.array([], int)
    S2 = np.asarray(trace.params.get("S_prime", []), dtype=int)
    V = np.asarray(trace.params["V"], dtype=int)
    labels = np.zeros(n, dtype=int)
    labels[V] = 1
    labels[S2] = 2
    labels[S] = 3
    iu = np.triu_indices(n, k=1)
    la, lb = labels[iu[0]], labels[iu[1]]
    e = adj[iu]
    masks = [
        (la == 3) & (lb == 3),
        ((la == 3) & (lb == 2)) | ((la == 2) & (lb == 3)),
        (la == 2) & (lb == 2),
        (la >= 1) & (lb >= 1) & ~((la >= 2) & (lb >= 2)),
    ]
    hits = np.array([e[mask].sum() for mask in masks], dtype=float)
    return hits, np.array([mask.sum() for mask in masks], dtype=float)


@pytest.mark.parametrize("case", range(40))
def test_semi_cr_class_counts_match_reference(case):
    from avgcase.graphs import PlantedTrace, sample_gnq

    gen = RngStream(31).child("labels", case).generator()
    n = int(gen.integers(1, 140))
    G = sample_gnq(n, float(gen.uniform(0.05, 0.95)), RngStream(32).child("g", case))
    perm = gen.permutation(n)
    n_v = int(gen.integers(0, n + 1))
    n_s2 = 0 if case % 4 == 0 else int(gen.integers(0, n_v + 1))  # S' empty
    n_s = int(gen.integers(0, n_v - n_s2 + 1))
    V, S2, S = perm[:n_v], perm[:n_s2], perm[n_s2:n_s2 + n_s]
    planted = None if case % 5 == 0 else S
    params = {"V": V.tolist()} if case % 4 == 0 else {"V": V.tolist(), "S_prime": S2}
    trace = PlantedTrace(seed=0, planted_set=planted, params=params)
    hits, tots = semi_cr_class_counts(G, trace)
    ref_hits, ref_tots = _class_counts_reference(G, trace)
    assert hits.dtype == ref_hits.dtype and tots.dtype == ref_tots.dtype
    assert_array_equal(hits, ref_hits)
    assert_array_equal(tots, ref_tots)


# ---------------------------------------------------------------------------
# Battery trials in worker processes
# ---------------------------------------------------------------------------

_SMALL_ISGM = '{"N": 32, "k": 4, "p": 1.0, "q": 0.25}'


@pytest.mark.parametrize("pipeline, params, trials, extra", [
    ("semi-cr", "{}", 100, []),
    ("isgm", _SMALL_ISGM, 200, []),
    ("isgm", _SMALL_ISGM, 200, ["--fault", "rotation"]),
])
def test_report_bytes_independent_of_cpu_count(tmp_path, monkeypatch, pipeline,
                                              params, trials, extra):
    # One CPU against 8: the SEMI-CR trials run in _MAX_IN_FLIGHT worker
    # processes, and the ISGM battery's block pools take 4 threads.
    def report(cpus):
        monkeypatch.setattr(prob, "_usable_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        main(["verify", "--pipeline", pipeline, "--params", params,
              "--trials", str(trials), "--seed", "8", "--out", str(out), *extra])
        return (out / "report.json").read_bytes()

    serial = report(1)
    assert json.loads(serial)["tests"][-1]["status"] != "inconclusive"
    assert report(8) == serial
    assert multiprocessing.active_children() == []


def test_worker_parameter_error_exits_2(tmp_path, monkeypatch, capsys):
    # At p=0.75 some trial of 20000 has a short planted-diagonal draw but
    # for a chance of about 2e-14 (see test_cli); raised in a worker, it
    # reaches the CLI as a ParameterError.
    monkeypatch.setattr(prob, "_usable_cpus", lambda: 8)
    rc = main(["verify", "--pipeline", "semi-cr", "--params", '{"p": 0.75}',
               "--trials", "20000", "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "s2 - s1" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "o").exists()


def test_killed_worker_exits_3_not_hangs(tmp_path):
    # A fresh interpreter, so that a hang would end at the timeout.
    script = f"""
import os, signal, sys
from avgcase import prob, verify
from avgcase.cli import main
prob._usable_cpus = lambda: 2
parent, counts = os.getpid(), verify.semi_cr_class_counts
def die_in_worker(G_out, trace):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return counts(G_out, trace)
verify.semi_cr_class_counts = die_in_worker
rc = main(["verify", "--pipeline", "semi-cr", "--trials", "100", "--seed", "1",
           "--out", {str(tmp_path / "o")!r}])
import multiprocessing
print(multiprocessing.active_children())
sys.exit(rc)
"""
    package_root = str(Path(avgcase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "internal error: BrokenProcessPool" in run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["--params", "{bad"],
    ["--params", '{"bogus": 3}'],
    ["--alpha", "2"],
])
def test_rejected_verify_leaves_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "D"
    assert main(["verify", "--pipeline", "semi-cr", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
