"""The full graph-to-mixture reduction, null and planted.

A k-partite planted dense subgraph instance is cloned, embedded into a
k-partite Bernoulli matrix with planted diagonals, Gaussianized entrywise,
rotated per part by the incidence matrix, and subsampled into n samples in
R^d.  Null inputs come out as pure Gaussian noise; planted inputs carry an
imbalanced two-component mean structure on a k-sparse coordinate support.
"""

import math

import numpy as np
import scipy.stats as sst

from avgcase.graphs import sample_gnq, sample_k_pds
from avgcase.pipelines import isgm_mu_prime, pds_to_isgm, plan_parameters
from avgcase.prob import RngStream
from avgcase.verify import covariance_identity_check, ks_matrix

p, q, N, k = 1.0, 0.25, 128, 16
plan = plan_parameters("ISGM", p, q, 2.0, r=2, N=N, k=k, t=8, n=2040)
print(f"plan: r={plan.r} t={plan.t} m={plan.m} n={plan.n} d={plan.d} "
      f"Q={plan.Q} mu={plan.mu:.5f} eps={plan.eps}")
unmet = [key for key, value in plan.report.items() if value is False]
print(f"proven-regime preconditions unmet at this desk scale: {unmet or 'none'}")

rng = RngStream(20_260_810)

# Null input: the output is (up to negligible TV) N(0, I_d)^{x n}.
G0 = sample_gnq(N, q, rng.child("h0"))
inst0 = pds_to_isgm(G0, plan, rng.child("h0-run"))
_, pvals = ks_matrix(inst0.samples.T, sst.norm.cdf)
cov = covariance_identity_check(inst0.samples, rng=rng.child("cov"))
print(f"\nH0: per-coordinate KS min p = {pvals.min():.2e} over {plan.d} coords, "
      f"max |cov offdiag| = {cov['max_offdiag']:.3f} (threshold {cov['threshold']:.3f})")

# Planted input: conditioned on the trace, positive-component columns carry
# mean mu and the rest mean mu' = -mu (1 - eps)/eps on the planted support.
G1, tr = sample_k_pds(N, k, p, q, rng.child("h1"))
inst1 = pds_to_isgm(G1, plan, rng.child("h1-run"), trace=tr)
S = inst1.trace.planted_set
pos = np.zeros(inst1.n, dtype=bool)
pos[inst1.trace.component_set] = True
mu_hat = inst1.samples[np.ix_(pos, S)].mean()
nu_hat = inst1.samples[np.ix_(~pos, S)].mean()
print(f"\nH1: {pos.sum()} of {inst1.n} samples in the positive component "
      f"(expect ~{int(inst1.n * (1 - plan.eps))})")
print(f"    planted-coordinate means: positive {mu_hat:+.5f} vs mu = {plan.mu:+.5f}, "
      f"negative {nu_hat:+.5f} vs mu' = {isgm_mu_prime(plan.mu, plan.eps):+.5f}")
print(f"    (standard error {1 / math.sqrt(pos.sum() * S.size):.5f})")
