"""Exact and empirical statistical-distance machinery plus the closed-form
bounds and the exact low-degree energy.

Total variation between the continuous, high-dimensional pipeline outputs is
never estimated directly (it is hopelessly sample-hungry); every reduction
contract factors through per-coordinate laws, discrete count laws, and
second moments, and those are what the test batteries check: Kolmogorov-
Smirnov per coordinate, chi-square on counts, covariance against identity.

Covariance checks run on a seeded subset of coordinates when the instance is
large: the max over all ~d^2/2 sample-covariance entries of a *correct*
output exceeds any fixed c/sqrt(n) threshold once d is in the thousands, so
the entry-wise threshold is only meaningful over a bounded pair count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .graphs import _class_edge_counts, semi_cr_labels
from .prob import RngStream, _run_trials, normal_cdf

__all__ = [
    "FinitePmf",
    "exact_tv",
    "tv_bound_binomial",
    "chi2_bern_plus_bin",
    "chi2_bern_plus_bin_closed_form",
    "tv_bound_bern_bin_product",
    "tv_hyp_vs_bin_bound",
    "exact_tv_hyp_vs_bin",
    "empirical_tv_to_cdf",
    "ks_test",
    "ks_matrix",
    "chi2_test",
    "chi2_gof_counts",
    "covariance_identity_check",
    "isgm_count_law",
    "isgm_planted_sums",
    "isgm_planted_mean_z",
    "SEMI_CR_CLASSES",
    "semi_cr_class_probs",
    "semi_cr_class_counts",
    "class_z_scores",
    "low_degree_energy",
    "battery_params",
    "verify_reduction",
]


# ---------------------------------------------------------------------------
# Exact distances and closed-form bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePmf:
    """A law on finitely many points: mass ``probs[i]`` at ``values[i]``."""

    values: tuple
    probs: tuple

    def as_arrays(self):
        return np.asarray(self.values, dtype=float), np.asarray(self.probs, dtype=float)


def _binomial_pmf(n: int, p: float) -> FinitePmf:
    """Bin(n, p) on 0, 1, ..., n."""
    from scipy.stats import binom

    ks = np.arange(n + 1)
    return FinitePmf(tuple(ks.astype(float)), tuple(binom.pmf(ks, n, p)))


def exact_tv(p: FinitePmf, q: FinitePmf) -> float:
    """Half the L1 distance between two finite-support pmfs (union support)."""
    pv, pp = p.as_arrays()
    qv, qp = q.as_arrays()
    support = np.union1d(pv, qv)
    a = np.zeros(support.size)
    b = np.zeros(support.size)
    a[np.searchsorted(support, pv)] = pp
    b[np.searchsorted(support, qv)] = qp
    return 0.5 * float(np.abs(a - b).sum())


def tv_bound_binomial(n: int, P: float, Q: float) -> float:
    """|P - Q| sqrt(n / (2 Q (1 - Q))), an upper bound on TV(Bin(n,P), Bin(n,Q))."""
    if not (0.0 < Q < 1.0):
        raise ParameterError(f"Q must lie in (0, 1), got {Q}")
    return abs(P - Q) * math.sqrt(n / (2.0 * Q * (1.0 - Q)))


def chi2_bern_plus_bin(P: float, m: int, Q: float) -> float:
    """Exact chi^2(Bern(P) + Bin(m-1, Q), Bin(m, Q)) by summation.

    Evaluated through the stable form sum_t Bin(m,Q)(t) * ratio(t)^2 - 1 with
    ratio(t) = (m-t)/m * (1-P)/(1-Q) + t/m * P/Q.
    """
    import scipy.stats as sst

    if not (0.0 < Q < 1.0) or m < 1:
        raise ParameterError(f"need Q in (0, 1) and m >= 1, got Q={Q}, m={m}")
    t = np.arange(m + 1)
    base = sst.binom.pmf(t, m, Q)
    ratio = (m - t) / m * (1.0 - P) / (1.0 - Q) + t / m * P / Q
    return float((base * ratio * ratio).sum() - 1.0)


def chi2_bern_plus_bin_closed_form(P: float, m: int, Q: float) -> float:
    return (P - Q) ** 2 / (m * Q * (1.0 - Q))


def tv_bound_bern_bin_product(Ps, m: int, Q: float) -> float:
    """sqrt(sum_i (P_i - Q)^2 / (2 m Q (1 - Q))): TV bound for the k-fold
    product of Bern(P_i) + Bin(m-1, Q) against Bin(m, Q)^k."""
    Ps = np.asarray(Ps, dtype=float)
    return math.sqrt(float(((Ps - Q) ** 2).sum()) / (2.0 * m * Q * (1.0 - Q)))


def tv_hyp_vs_bin_bound(N: int, K: int, n: int) -> float:
    """The finite de Finetti bound 4 n / N for TV(Hyp(N, K, n), Bin(n, K/N))."""
    if n > N:
        raise ParameterError(f"need n <= N, got n={n}, N={N}")
    return 4.0 * n / N


def exact_tv_hyp_vs_bin(N: int, K: int, n: int) -> float:
    import scipy.stats as sst

    ks = np.arange(n + 1)
    hyp = sst.hypergeom.pmf(ks, N, K, n)
    binom = sst.binom.pmf(ks, n, K / N)
    return 0.5 * float(np.abs(hyp - binom).sum())


# ---------------------------------------------------------------------------
# Empirical distances and tests
# ---------------------------------------------------------------------------

def empirical_tv_to_cdf(samples, ppf, bins: int) -> float:
    """Binned empirical TV between samples and an exact law, using the law's
    equiprobable bins (``ppf`` maps (0,1) to quantiles)."""
    x = np.asarray(samples, dtype=float).ravel()
    edges = np.concatenate([[-np.inf], ppf(np.arange(1, bins) / bins), [np.inf]])
    counts, _ = np.histogram(x, bins=edges)
    return 0.5 * float(np.abs(counts / x.size - 1.0 / bins).sum())


def ks_test(samples, cdf):
    """Kolmogorov-Smirnov against an exact CDF; returns (statistic, p_value)."""
    import scipy.stats as sst

    res = sst.kstest(np.asarray(samples, dtype=float).ravel(), cdf)
    return float(res.statistic), float(res.pvalue)


def ks_matrix(X, cdf):
    """Row-wise KS statistics and p-values for an (n_rows, n_samples) array."""
    import scipy.stats as sst

    X = np.sort(np.asarray(X, dtype=float), axis=1)
    n = X.shape[1]
    F = cdf(X)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid[None, :] - F, axis=1)
    d_minus = np.max(F - (np.arange(n) / n)[None, :], axis=1)
    stat = np.maximum(d_plus, d_minus)
    pvals = sst.kstwo.sf(stat, n)
    return stat, pvals


def chi2_test(counts, expected):
    """Pearson chi-square of observed counts against expected counts, with
    one degree of freedom per usable cell less one (no parameter is fitted).

    Cells with zero expectation and zero observation are dropped; a zero
    expectation with a positive observation raises ValueError.
    """
    import scipy.stats as sst

    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if counts.shape != expected.shape:
        raise ValueError("counts and expected must have matching shapes")
    zero = expected <= 0
    if np.any(zero & (counts > 0)):
        raise ValueError("observed count in a cell with zero expectation")
    keep = ~zero
    stat = float((((counts - expected) ** 2)[keep] / expected[keep]).sum())
    df = int(keep.sum()) - 1
    if df < 1:
        raise ValueError("chi-square needs at least 2 usable cells")
    return stat, float(sst.chi2.sf(stat, df))


def chi2_gof_counts(values, pmf: FinitePmf):
    """Goodness-of-fit of integer/discrete samples against an exact pmf.

    Support points are merged greedily (left to right) until every bin's
    expected count reaches 5, the usual floor below which the chi-square
    approximation to the statistic's law breaks down.
    """
    support, probs = pmf.as_arrays()
    values = np.asarray(values)
    n = values.size
    idx = np.searchsorted(support, values)
    idx = np.clip(idx, 0, support.size - 1)
    if not np.allclose(np.asarray(support)[idx], values):
        raise ValueError("samples fall outside the pmf support")
    counts = np.bincount(idx, minlength=support.size).astype(float)
    expected = probs * n
    # merge adjacent bins until each expected count reaches 5
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        if merged_e:
            merged_c[-1] += acc_c
            merged_e[-1] += acc_e
        else:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
    return chi2_test(np.array(merged_c), np.array(merged_e))


def covariance_identity_check(X, rng: RngStream):
    """Compare the second-moment matrix of row-samples X (n, d) to identity.

    Off-diagonal entries have standard error 1/sqrt(n) and diagonal entries
    sqrt(2/n) (a chi^2_n / n), so the thresholds are 5/sqrt(n) and
    5 sqrt(2/n), five standard errors each.  When d exceeds the coordinate
    budget clip(n // 6, 16, 160) a coordinate subset of that size, drawn
    from ``rng``, is used (see the module docstring).  The budget also
    shrinks with the sample count: at small n the entries have t-like tails
    and a fixed pair count would trip the threshold spuriously.

    Returns a dict with the max off-diagonal entry, max diagonal deviation,
    both thresholds, and pass flags.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    threshold, diag_threshold = 5.0 / math.sqrt(n), 5.0 * math.sqrt(2.0 / n)
    max_coords = int(np.clip(n // 6, 16, 160))
    if d > max_coords:
        gen = rng.child("cov-subset").generator()
        cols = np.sort(gen.choice(d, size=max_coords, replace=False))
        X = X[:, cols]
        d = max_coords
    C = X.T @ X / n
    off = C - np.diag(np.diag(C))
    max_off = float(np.abs(off).max()) if d > 1 else 0.0
    max_diag = float(np.abs(np.diag(C) - 1.0).max())
    return {
        "n_samples": n,
        "n_coords": d,
        "threshold": threshold,
        "diag_threshold": diag_threshold,
        "max_offdiag": max_off,
        "max_diag_dev": max_diag,
        "offdiag_pass": max_off <= threshold,
        "diag_pass": max_diag <= diag_threshold,
    }


# ---------------------------------------------------------------------------
# Low-degree energy
# ---------------------------------------------------------------------------

# The exact sum below takes O(D^2) products of integers of about
# 2 D (log2 n + log2 b) bits, b the denominator of (2p - 1)^2.  At these
# bounds the largest call, a subnormal p with b = 2^2146, takes about 0.2 s
# on a 2-core x86 box.
_MAX_N = 10 ** 18
_MAX_DEGREE = 64


def low_degree_energy(n: int, k: int, D: int, p: float = 1.0) -> tuple[float, float]:
    """Degree-<=D low-degree energy of planted dense subgraph, with and
    without the k-partite promise: ``(k-partite, unconstrained)``.

    The energy is the sum over nonempty edge sets alpha of [n], |alpha| <= D,
    of the squared coefficient E_S[chi_alpha] = Pr[V(alpha) in S] (2p-1)^|alpha|;
    p = 1 is planted clique.  Squaring pairs two independent planted sets S
    and S', so the energy is E f(X) over X = |S & S'|, where

        f(x) = sum_{j=1..D} C(C(x, 2), j) lambda^j,   lambda = (2p - 1)^2.

    X ~ Bin(k, k/n) when S holds one vertex of each part [i n/k, (i+1) n/k),
    and X ~ Hyp(n, k, k) when S is a uniform k-subset.  Each value is the
    correctly rounded float of the exact rational (inf past the float range).
    """
    if not 0 < k <= n or n % k:
        raise ParameterError(f"k={k} must divide n={n}, with 0 < k <= n")
    if n > _MAX_N:
        raise ParameterError(f"n={n} is above {_MAX_N}, the largest n the exact sum takes")
    if not 0 <= D <= _MAX_DEGREE:
        raise ParameterError(f"degree D must lie in [0, {_MAX_DEGREE}], got {D}")
    if not 0 <= p <= 1:  # NaN fails this too
        raise ParameterError(f"the edge probability needs p in [0, 1], got p={p}")
    # E f(X) = sum_i Delta^i f(0) E C(X, i), and the terms vanish past
    # i = 2D (f has degree 2D) and past i = k (X <= k).  E C(X, i) is
    # C(k, i) (k/n)^i for the binomial and C(k, i) (k)_i / (n)_i for the
    # hypergeometric; w holds it over one denominator per law.
    top = min(2 * D, k)
    laws = (([math.comb(k, i) * k ** i * n ** (top - i) for i in range(top + 1)], n ** top),
            ([math.comb(k, i) * math.perm(k, i) * math.perm(n - i, top - i)
              for i in range(top + 1)], math.perm(n, top)))
    lam = (2 * Fraction(p) - 1) ** 2
    a, b = lam.numerator, lam.denominator
    energies = []
    for w, den in laws:
        # sum_x v[x] g(x) = sum_i Delta^i g(0) w[i] for every g, f included
        v = [sum((-1) ** (i - x) * math.comb(i, x) * w[i] for i in range(x, top + 1))
             for x in range(top + 1)]
        # Horner in lambda = a/b over m_j = sum_x v[x] C(C(x, 2), j): num ends
        # as sum_j m_j a^(j-1) b^(D-j)
        num = 0
        for j in range(D, 0, -1):
            m_j = sum(v[x] * math.comb(math.comb(x, 2), j) for x in range(top + 1))
            num = num * a + m_j * b ** (D - j)
        try:
            energies.append(num * a / (den * b ** D))
        except OverflowError:
            energies.append(math.inf)
    return tuple(energies)


# ---------------------------------------------------------------------------
# Reduction contracts
# ---------------------------------------------------------------------------
#
# Each distributional contract of a reduction is computed here, once; the
# batteries below and the acceptance suite apply their own thresholds to it.

def _isgm_count_pmf(plan) -> FinitePmf:
    """Exact law of the positive-component count of one planted ISGM run.

    Each part's planted column lands on the zero point of H_{r,t}, whose
    rotated entries are all negative, with probability r^-t; every other
    point has r^(t-1) positive entries among its l.  So given Z ~ Bin(k,
    r^-t) such parts, the n columns kept of the k l rotated ones hold
    Hyp(k l, (k - Z) r^(t-1), n) positive ones.
    """
    from scipy.stats import hypergeom

    k, n, kl = plan.k, plan.n, plan.k * plan.n_hyperplanes
    probs = np.zeros(n + 1)
    for z, weight in zip(*_binomial_pmf(k, 1.0 / plan.rt).as_arrays()):
        positive = (k - int(z)) * plan.rt // plan.r
        values = np.arange(max(0, n - (kl - positive)), min(n, positive) + 1)
        probs[values] += weight * hypergeom.pmf(values, kl, positive, n)
    return FinitePmf(tuple(np.arange(n + 1.0)), tuple(probs))


def isgm_count_law(counts, plan):
    """Chi-square of per-run positive-component counts against their exact
    law under the ISGM or GLSM ``plan`` (``_isgm_count_pmf``); returns
    (statistic, p_value)."""
    return chi2_gof_counts(counts, _isgm_count_pmf(plan))


def isgm_planted_sums(samples, trace) -> np.ndarray:
    """[positive sum, positive count, negative sum, negative count] of one
    planted ISGM run's entries on the planted coordinates, split by mixture
    component; add them up over runs for ``isgm_planted_mean_z``."""
    S = trace.planted_set
    positive = np.zeros(samples.shape[0], dtype=bool)
    positive[trace.component_set] = True
    pos_block = samples[np.ix_(positive, S)]
    neg_block = samples[np.ix_(~positive, S)]
    return np.array([pos_block.sum(), pos_block.size, neg_block.sum(), neg_block.size])


def isgm_planted_mean_z(sums, mu: float, eps: float):
    """(z_pos, z_neg): the pooled planted means of ``isgm_planted_sums``
    against mu and the balancing mu' = -mu (1 - eps) / eps, in standard
    errors of unit-variance entries."""
    from .pipelines import isgm_mu_prime

    pos_sum, pos_cnt, neg_sum, neg_cnt = sums
    z_pos = (pos_sum / pos_cnt - mu) / (1.0 / math.sqrt(pos_cnt))
    z_neg = (neg_sum / neg_cnt - isgm_mu_prime(mu, eps)) / (1.0 / math.sqrt(neg_cnt))
    return z_pos, z_neg


SEMI_CR_CLASSES = ("S^2", "S x S'", "S'^2", "rest of V^2")


def semi_cr_class_probs(mu1: float, mu2: float, mu3: float):
    """Edge probabilities of the ``SEMI_CR_CLASSES`` under the target law."""
    return (0.5 + mu3, 0.5 - mu2, 0.5, 0.5 - mu1)


def semi_cr_class_counts(G_out, trace):
    """(hits, totals): edge and pair counts of one SEMI-CR output graph over
    the ``SEMI_CR_CLASSES``, from the trace's S, S' and V.  Pairs with an end
    outside V (edge probability 1/2) fall in no class: they are what the
    graph's edge and pair counts leave over."""
    S = () if trace.planted_set is None else trace.planted_set
    labels = semi_cr_labels(G_out.n, trace.params["V"], trace.params.get("S_prime", ()), S)
    return tuple(np.array([B[3, 3], B[3, 2], B[2, 2], B[1, 1] + B[1, 2] + B[1, 3]], dtype=float)
                 for B in _class_edge_counts(G_out, labels, 4))


def class_z_scores(hits, tots, probs) -> np.ndarray:
    """Per-class z-scores of pooled edge frequencies against their target
    probabilities, (h / t - p) / sqrt(p (1 - p) / t)."""
    hits, tots, probs = (np.asarray(x, dtype=float) for x in (hits, tots, probs))
    return (hits / tots - probs) / np.sqrt(probs * (1 - probs) / tots)


# ---------------------------------------------------------------------------
# Reduction verification batteries
# ---------------------------------------------------------------------------

def _test_entry(name, statistic, p_value, passed):
    return {"name": name, "statistic": None if statistic is None else float(statistic),
            "p_value": None if p_value is None else float(p_value), "pass": bool(passed),
            "status": "pass" if passed else "fail"}


def _null_ks(samples, alpha, name):
    """Per-coordinate KS of null samples (n, d) against N(0, 1), at alpha / d."""
    import scipy.stats as sst

    _, pvals = ks_matrix(samples.T, sst.norm.cdf)
    worst = float(pvals.min())
    return _test_entry(name, worst, worst, worst >= alpha / samples.shape[1])


def _isgm_setup(params, fault):
    from .geometry import build_H
    from .pipelines import pds_to_isgm, plan_isgm

    plan = plan_isgm(params["p"], params["q"], params["w"], r=params["r"],
                     N=params["N"], k=params["k"])
    # scaled rows break orthonormality; output entry variance inflates
    rotation = 1.5 * build_H(plan.r, plan.t) if fault == "rotation" else None
    # the finite-size gap between the count's exact law and the ISGM target's
    tv = exact_tv(_isgm_count_pmf(plan), _binomial_pmf(plan.n, 1 - plan.eps))
    return (plan, lambda G, rng, trace=None: pds_to_isgm(
        G, plan, rng, trace=trace, rotation_override=rotation),
        {"plan": plan.to_dict(), "count_law_tv_to_binomial": tv})


def _isgm_null(samples, alpha, rng):
    cov = covariance_identity_check(samples, rng=rng.child("cov"))
    var_dev = abs(float(samples.var()) - 1.0)
    return [_null_ks(samples, alpha, "h0_per_coordinate_ks"),
            _test_entry("h0_covariance_offdiag", cov["max_offdiag"], None, cov["offdiag_pass"]),
            _test_entry("h0_covariance_diag", cov["max_diag_dev"], None, cov["diag_pass"]),
            _test_entry("h0_entry_variance", var_dev, None,
                        var_dev <= 5.0 * math.sqrt(2.0 / samples.size))]


def _isgm_reduce(plan, results, alpha):
    sums = np.zeros(4)
    for _, trial_sums in results:
        sums += trial_sums
    stat, pval = isgm_count_law(np.array([c for c, _ in results], dtype=np.int64), plan)
    worst_z = max(abs(z) for z in isgm_planted_mean_z(sums, plan.mu, plan.eps))
    return [_test_entry("h1_component_count_law", stat, pval, pval >= alpha),
            _test_entry("h1_planted_means", worst_z, None, worst_z <= 4.0)], {}


def _semi_cr_setup(params, fault):
    from .pipelines import pds_to_semi_cr, plan_semi_cr

    plan = plan_semi_cr(params["p"], params["q"], N=params["N"], k=params["k"],
                        ell=params["ell"])
    return plan, lambda G, rng, trace: pds_to_semi_cr(G, plan, rng, trace=trace), {}


def _semi_cr_reduce(plan, results, alpha):
    hits, tots = np.zeros(4), np.zeros(4)
    for trial_hits, trial_tots in results:
        hits += trial_hits
        tots += trial_tots
    probs = semi_cr_class_probs(*(plan.report[mu] for mu in ("mu1", "mu2", "mu3")))
    worst_z = float(np.abs(class_z_scores(hits, tots, probs)).max())
    pval = 2.0 * normal_cdf(-worst_z)
    return ([_test_entry("h1_edge_class_marginals", worst_z, pval, pval >= alpha / 4)],
            {"classes": {"hits": hits.tolist(), "totals": tots.tolist()}})


def _glsm_setup(params, fault):
    from .pipelines import pds_to_glsm, plan_glsm

    plan = plan_glsm(params["p"], params["q"], 2.0, n=params["n"], k=params["k"],
                     d=params["d"], tau=params["tau"], theta=params["theta"])
    return plan, lambda G, rng: pds_to_glsm(G, plan, rng), {"plan": plan.to_dict()}


@dataclass
class _Contract:
    """One pipeline's battery, run by ``verify_reduction``: ``setup(params,
    fault)`` returns ``(plan, run, report keys)``, ``run(G, rng[, trace])``
    being the planned reduction; ``null(samples, alpha, rng)`` tests its
    output on G(N, q).  ``trial(output, trace)`` gives small picklable
    statistics of its output on one planted k-PDS draw, and ``reduce(plan,
    results, alpha)`` turns them, in trial order, into the tests named
    ``planted`` and more report keys."""

    defaults: dict  # an int default (or None) marks an integer parameter
    setup: Callable
    null: Optional[Callable] = None
    trial: Optional[Callable] = None
    reduce: Optional[Callable] = None
    planted: tuple = ()
    min_trials: int = 0
    faults: tuple = ()


_CONTRACTS = {
    "isgm": _Contract({"p": 0.75, "q": 0.25, "N": 144, "k": 4, "w": 4.0, "r": 2},
                      _isgm_setup, _isgm_null,
                      lambda out, tr: (tr.component_set.size, isgm_planted_sums(out, tr)),
                      _isgm_reduce, ("h1_component_count_law", "h1_planted_means"), 200,
                      ("rotation",)),
    "semi-cr": _Contract({"p": 1.0, "q": 0.25, "N": 32, "k": 4, "ell": 2}, _semi_cr_setup, None,
                         lambda out, tr: semi_cr_class_counts(out, tr),
                         _semi_cr_reduce, ("h1_edge_class_marginals",), 100),
    # GLSM's d = None lets the planner default d to m.  It has no planted
    # half yet: one null reduction, whatever the trial count.
    "glsm": _Contract({"p": 1.0, "q": 0.25, "n": 64, "k": 4, "d": None, "tau": 1.0,
                       "theta": 1e-5}, _glsm_setup,
                      lambda X, alpha, rng: [_null_ks(X, alpha, "h0_per_coordinate_ks_vs_Q")]),
}


def battery_params(pipeline: str, params) -> dict:
    """The battery's defaults overridden by ``params`` (a dict, or None).

    Raises ParameterError on a non-object, an unknown key (naming the allowed
    ones) or a value of the wrong type."""
    defaults = _CONTRACTS[pipeline].defaults
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ParameterError(f"{pipeline} battery parameters must be a JSON object, got {params!r}")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(f"unknown {pipeline} battery parameter(s) {unknown}; "
                             f"allowed: {sorted(defaults)}")
    for key, value in params.items():
        integral = defaults[key] is None or isinstance(defaults[key], int)
        kinds = (int,) if integral else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ParameterError(
                f"{pipeline} battery parameter {key!r} must be "
                f"{'an integer' if integral else 'a number'}, got {value!r}"
            )
    return {**defaults, **params}


def verify_reduction(pipeline: str, params: dict, trials: int, significance: float,
                     seed: int = 0, fault: str = None) -> dict:
    """Run the statistical battery of one pipeline, its row of ``_CONTRACTS``.

    Returns the report document: ``{pipeline, params, seed, tests, verdict}``
    where each test carries name/statistic/p_value/pass/status.  The null
    half runs in this process.  Below the row's ``min_trials`` its planted
    tests are ``inconclusive``, with a ``reason`` such as ``trials=10 <
    min_trials=200``; otherwise its planted trials run through
    ``prob._run_trials``, in up to four forked worker processes, one per
    usable CPU, each with BLAS on one thread.  Each trial draws from its own
    keyed streams and the results are reduced in trial order, so the report
    has the same bytes on any number of cores.  The verdict is "pass" unless
    some test fails."""
    if pipeline not in _CONTRACTS:
        raise ParameterError(f"unknown pipeline {pipeline!r}; registered: {sorted(_CONTRACTS)}")
    if trials < 0:
        raise ParameterError(f"trials must be nonnegative, got {trials}")
    if not 0.0 < significance < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {significance}")
    row = _CONTRACTS[pipeline]
    if fault is not None and fault not in row.faults:
        hosts = [name for name, c in _CONTRACTS.items() if fault in c.faults]
        raise ParameterError(f"only {', '.join(hosts)} injects fault {fault!r}, not {pipeline}"
                             if hosts else f"unknown fault {fault!r}")
    from .graphs import sample_gnq, sample_k_pds

    rng = RngStream(seed).child(f"verify-{pipeline}")
    plan, run, extra = row.setup(battery_params(pipeline, params), fault)
    tests = []
    if row.null:
        G0 = sample_gnq(plan.N, plan.q, rng.child("h0-graph"))
        tests = row.null(run(G0, rng.child("h0-run"))[0], significance, rng)
    if trials < row.min_trials:
        reason = f"trials={trials} < min_trials={row.min_trials}"
        tests += [dict(_test_entry(name, None, None, True), status="inconclusive",
                       reason=reason) for name in row.planted]
    elif row.trial:
        def trial(i):
            G, tr = sample_k_pds(plan.N, plan.k, plan.p, plan.q, rng.child("h1-graph", i))
            return row.trial(*run(G, rng.child("h1-run", i), trace=tr))

        planted, more = row.reduce(plan, _run_trials(trial, trials), significance)
        tests, extra = tests + planted, {**extra, **more}
    verdict = "pass" if all(t["status"] != "fail" for t in tests) else "fail"
    return {"pipeline": pipeline, "params": params or {}, "seed": seed, "trials": trials,
            "significance": significance, "tests": tests, "verdict": verdict, **extra}
