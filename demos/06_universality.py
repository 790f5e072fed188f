"""Universality: one reduction, a whole family of sparse-mixture targets.

Given likelihood-ratio oracles for any planted/noise marginal pair meeting
the universality conditions, the mixture output of the graph reduction is
truncated to three symbols per entry and re-measured by the symmetric 3-ary
kernel into the target family.  The spiked-covariance (sparse PCA) family is
the canonical member; the checker below also probes the conditions directly.
"""

import numpy as np
import scipy.stats as sst

from avgcase.graphs import sample_gnq, sample_k_pds
from avgcase.kernels import PairFamily
from avgcase.pipelines import check_uc, pds_to_glsm, plan_glsm, spca_family
from avgcase.prob import RngStream
from avgcase.verify import ks_matrix

n_stat, k_stat, theta = 10_000, 100, 1e-5
family, nu_sd = spca_family(n_stat, k_stat, theta)

rng = RngStream(1234)
report = check_uc(n_stat, k_stat, 1000, nu_sd, family, 60_000, rng.child("uc"))
print(f"universality conditions at (n={n_stat}, k={k_stat}, theta={theta}):")
print(f"  (i) mixing weight in [-1,1]: freq {report['condition_i']['in_range_freq']:.4f}"
      f" -> {'pass' if report['condition_i']['pass'] else 'fail'}")
print(f"  (ii) likelihood-ratio bounds: violation freq "
      f"{report['condition_ii']['violation_freq']:.2e}"
      f" -> {'pass' if report['condition_ii']['pass'] else 'fail'}")

unit = PairFamily.gaussian_mean_shift(1.0)  # P_nu = N(sign(nu), 1) below
fat = PairFamily(unit.sample_noise,
                 lambda gen, nu, size: unit.sample_planted(gen, np.sign(nu), size),
                 lambda x, nu: unit.log_likelihood_ratio(x, np.sign(nu)))
bad = check_uc(n_stat, k_stat, 1000, nu_sd, fat, 20_000, rng.child("uc-fat"))
print(f"  a fat mean-shift-1 family violates (ii) at freq "
      f"{bad['condition_ii']['violation_freq']:.2f} -> fail (as it should)")

# End to end on a null input: every output coordinate is distributed as Q.
p, q = 1.0, 0.25
plan = plan_glsm(p, q, 2.0, n=64, k=4)  # d defaults to m
print(f"\nGLSM plan: source N={plan.N}, t={plan.t}, mu={plan.mu:.5f} "
      f"(capped at proven bound: {plan.report['mu_capped_at_proven_bound']})")
G0 = sample_gnq(plan.N, q, rng.child("h0"))
X, _ = pds_to_glsm(G0, plan, 1.0, family, nu_sd, rng.child("h0-run"))
_, pvals = ks_matrix(X.T, sst.norm.cdf)
print(f"H0 output: {X.shape[0]} samples x {X.shape[1]} coords, "
      f"per-coordinate KS min p = {pvals.min():.3e}")

# Planted run: each sample's planted coordinates follow P_{nu_i}.
G1, tr = sample_k_pds(plan.N, 4, p, q, rng.child("h1"))
X, otr = pds_to_glsm(G1, plan, 1.0, family, nu_sd, rng.child("h1-run"), trace=tr)
S = otr.planted_set
nus = np.asarray(otr.params["nu"])
pos = np.zeros(X.shape[0], dtype=bool)
pos[otr.component_set] = True
# P_nu = N(s, 1) against Q = N(0, 1) has log-likelihood ratio s x - s^2 / 2,
# so its mean s is the ratio's slope.
means = np.diff(family.log_likelihood_ratio([[0.0], [1.0]], nus[pos]), axis=0)[0]
resid = X[np.ix_(pos, S)] - np.outer(means, np.ones(S.size))
print(f"H1 output: planted support {list(map(int, S))}, positive-component "
      f"residual mean {resid.mean():+.4f} (0 if the per-sample means are P_nu's)")
