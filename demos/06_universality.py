"""Universality: the graph reduction to a sparse mixture, here sparse PCA.

The mixture output of the graph reduction is truncated to three symbols per
entry and re-measured by the symmetric 3-ary kernel into the target family.
The paper proves this for any planted/noise marginal pair meeting mild
likelihood-ratio conditions; the one family run here is the spiked-covariance
(sparse PCA) family, P_nu = N(nu * scale, 1) against Q = N(0, 1).
"""

import numpy as np
import scipy.stats as sst

from avgcase.graphs import sample_gnq, sample_k_pds
from avgcase.pipelines import pds_to_glsm, plan_glsm
from avgcase.prob import RngStream
from avgcase.verify import ks_matrix

rng = RngStream(1234)
p, q, theta = 1.0, 0.25, 1e-5
plan = plan_glsm(p, q, 2.0, n=64, k=4, tau=1.0, theta=theta)  # d defaults to m
report = plan.report
scale = report["shift_scale"]  # sqrt(3 theta log n / k)
print(f"GLSM plan: source N={plan.N}, t={plan.t}, mu={plan.mu:.5f} "
      f"(capped at proven bound: {report['mu_capped_at_proven_bound']})")
print(f"truncation at tau={report['tau']}: Tern(a={report['a']:.4f}, "
      f"mu1={report['mu1']:.3e}, mu2={report['mu2']:.3e})")
print(f"sparse-PCA target at theta={theta}: mean shift nu * {scale:.3e}, "
      f"nu ~ N(0, 1/(3 log n)) clipped to [-1, 1]")

# End to end on a null input: every output coordinate is distributed as Q.
G0 = sample_gnq(plan.N, q, rng.child("h0"))
X, tr0 = pds_to_glsm(G0, plan, rng.child("h0-run"))
_, pvals = ks_matrix(X.T, sst.norm.cdf)
print(f"H0 output: {X.shape[0]} samples x {X.shape[1]} coords, "
      f"per-coordinate KS min p = {pvals.min():.3e}, "
      f"srk3 fallback entries {tr0.params['srk3_fallback_entries']}")

# Planted run: each sample's planted coordinates follow N(nu_i * scale, 1).
G1, tr = sample_k_pds(plan.N, 4, p, q, rng.child("h1"))
X, otr = pds_to_glsm(G1, plan, rng.child("h1-run"), trace=tr)
S = otr.planted_set
nus = np.asarray(otr.params["nu"])
pos = np.zeros(X.shape[0], dtype=bool)
pos[otr.component_set] = True
means = nus[pos] * scale
resid = X[np.ix_(pos, S)] - np.outer(means, np.ones(S.size))
print(f"H1 output: planted support {list(map(int, S))}, positive-component "
      f"residual mean {resid.mean():+.4f} (0 if the per-sample means are "
      f"nu_i * scale), srk3 fallback entries {otr.params['srk3_fallback_entries']}")
